"""MiniC lexer with a minimal preprocessor.

Tokenizes the C subset and handles the preprocessor features the WABench
sources use: ``//`` and ``/* */`` comments, object-like ``#define``
constants, ``#undef``, and ``#ifdef``/``#ifndef``/``#else``/``#endif``
conditional blocks.  Function-like macros are not supported (the
benchmark sources use inline functions instead).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..errors import MiniCSyntaxError

KEYWORDS = frozenset((
    "void", "char", "short", "int", "long", "float", "double",
    "unsigned", "signed", "const", "static", "extern",
    "if", "else", "while", "do", "for", "return", "break", "continue",
    "switch", "case", "default", "sizeof",
))

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", "?", ":", ".",
]

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
            "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v"}


class Token(NamedTuple):
    """One lexical token: kind is 'id', 'kw', 'num', 'str', 'char', 'op',
    or 'eof'; value carries the decoded payload.

    A NamedTuple rather than a frozen dataclass: the lexer materializes
    tens of thousands of these per compile, and the tuple constructor
    avoids the per-field ``object.__setattr__`` a frozen dataclass pays.
    """

    kind: str
    value: object
    line: int
    col: int

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


import re as _re

# Comments and literals in one scan: plain text between matches is
# copied in bulk instead of character by character.  Literals are
# matched (and passed through) so comment markers inside strings are
# never treated as comments, exactly like the char-by-char scanner.
_STRIP_RE = _re.compile(
    r"//[^\n]*"
    r"|(?P<block>/\*[\s\S]*?\*/)"
    r"|(?P<badblock>/\*)"
    r"|(?P<lit>\"(?:\\[\s\S]|[^\"\\])*\"|'(?:\\[\s\S]|[^'\\])*')"
    r"|(?P<badlit>[\"'])")


def _strip_comments(source: str) -> str:
    """Remove comments, preserving newlines so line numbers survive."""
    def repl(m: "_re.Match") -> str:
        group = m.lastgroup
        if group == "lit":
            return m.group()
        if group == "block":
            return "\n" * m.group().count("\n")
        if group == "badblock":
            raise MiniCSyntaxError("unterminated block comment")
        if group == "badlit":
            raise MiniCSyntaxError("unterminated literal")
        return ""  # line comment
    return _STRIP_RE.sub(repl, source)


def _preprocess(source: str,
                predefined: Optional[Dict[str, str]] = None,
                first_line: int = 1) -> Tuple[str, Dict[str, str]]:
    """Expand the supported preprocessor subset into plain MiniC.

    Returns the text and the macro table as it stands after the last
    line; errors number lines from ``first_line``.
    """
    defines: Dict[str, str] = dict(predefined or {})
    out_lines: List[str] = []
    # Stack of booleans: is the current conditional region active?
    active_stack: List[bool] = []

    def active() -> bool:
        return all(active_stack)

    for lineno, line in enumerate(_strip_comments(source).split("\n"),
                                  first_line):
        stripped = line.strip()
        if stripped.startswith("#"):
            parts = stripped[1:].split(None, 2)
            directive = parts[0] if parts else ""
            if directive == "define" and len(parts) >= 2:
                if active():
                    name = parts[1]
                    if "(" in name:
                        raise MiniCSyntaxError(
                            "function-like macros are not supported", lineno)
                    defines[name] = parts[2] if len(parts) > 2 else "1"
            elif directive == "undef" and len(parts) >= 2:
                if active():
                    defines.pop(parts[1], None)
            elif directive == "ifdef":
                active_stack.append(parts[1] in defines if len(parts) > 1
                                    else False)
            elif directive == "ifndef":
                active_stack.append(parts[1] not in defines if len(parts) > 1
                                    else True)
            elif directive == "else":
                if not active_stack:
                    raise MiniCSyntaxError("#else without #if", lineno)
                active_stack[-1] = not active_stack[-1]
            elif directive == "endif":
                if not active_stack:
                    raise MiniCSyntaxError("#endif without #if", lineno)
                active_stack.pop()
            elif directive == "include":
                pass  # the libc is always in scope; includes are no-ops
            else:
                raise MiniCSyntaxError(
                    f"unsupported preprocessor directive #{directive}", lineno)
            out_lines.append("")  # keep line numbering
            continue
        if not active():
            out_lines.append("")
            continue
        out_lines.append(line)
    if active_stack:
        raise MiniCSyntaxError("unterminated #if block")

    text = "\n".join(out_lines)
    # Token-wise macro substitution outside string/char literals
    # (repeated to allow chained defines).  The identifier alternative
    # matches only *defined* names, so undefined identifiers — the vast
    # majority of the text — are never visited by the callback.
    if defines:
        import re
        pattern = re.compile(
            r'("(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\')'
            r"|\b(" + "|".join(re.escape(name) for name in defines) +
            r")\b")
        for _ in range(8):
            changed = False

            def sub(match):
                nonlocal changed
                if match.group(1) is not None:
                    return match.group(1)
                word = match.group(2)
                if word in defines:
                    changed = True
                    body = defines[word]
                    return body if body.strip().isalnum() else f"({body})"
                return word

            text = pattern.sub(sub, text)
            if not changed:
                break
    return text, defines


import re as _re

# Master scanning pattern: one alternative per token class, tried in the
# same precedence order as the reference scanner (numbers before
# operators so ``.5`` lexes as a literal; operator alternatives longest
# first so maximal munch is preserved).  ``\\[\s\S]`` lets escapes cover
# newlines exactly like the char-by-char scanner did.
_TOKEN_RE = _re.compile(
    r"(?P<nl>\n)"
    r"|(?P<ws>[ \t\r]+)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<num>0[xX][0-9A-Fa-f]*"
    r"|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]*)?)"
    r"|(?P<str>\"(?:\\[\s\S]|[^\"\\])*\")"
    r"|(?P<char>'(?:\\[\s\S]|[\s\S])')"
    r"|(?P<op>" + "|".join(_re.escape(o) for o in _OPERATORS) + r")")

_ESCAPE_RE = _re.compile(r"\\([\s\S])")


def _unescape(body: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _ESCAPES.get(m.group(1), m.group(1)),
                          body)


def tokenize(source: str,
             defines: Optional[Dict[str, str]] = None) -> List[Token]:
    """Lex MiniC source into a token list (regex fast path).

    Byte-equivalent to :func:`_tokenize_reference` — the test suite
    cross-checks the two scanners token for token, including line and
    column bookkeeping.
    """
    return scan(source, defines)[0]


def scan(source: str, defines: Optional[Dict[str, str]] = None,
         first_line: int = 1) -> Tuple[List[Token], Dict[str, str]]:
    """:func:`tokenize` for source text that starts at line
    ``first_line`` of a longer text; also returns the macro table after
    its last line, which the text that follows it starts from.
    """
    text, defines = _preprocess(source, defines, first_line)
    tokens: List[Token] = []
    append = tokens.append
    line = first_line
    line_start = 0
    i, n = 0, len(text)
    match = _TOKEN_RE.match
    while i < n:
        m = match(text, i)
        if m is None:
            c = text[i]
            if c == '"':
                raise MiniCSyntaxError("unterminated string", line,
                                       i - line_start + 1)
            if c == "'":
                raise MiniCSyntaxError("unterminated char literal", line,
                                       i - line_start + 1)
            raise MiniCSyntaxError(f"unexpected character {c!r}", line,
                                   i - line_start + 1)
        kind = m.lastgroup
        j = m.end()
        if kind == "id":
            word = m.group()
            append(Token("kw" if word in KEYWORDS else "id", word, line,
                         i - line_start + 1))
        elif kind == "num":
            lit = m.group()
            if lit[0] == "0" and len(lit) > 1 and lit[1] in "xX":
                if len(lit) == 2:
                    raise MiniCSyntaxError(
                        "hex literal needs at least one digit", line,
                        i - line_start + 1)
                value: object = int(lit, 16)
                is_float = False
            else:
                is_float = "." in lit or "e" in lit or "E" in lit
                value = float(lit) if is_float else int(lit)
            if is_float and j < n and text[j] in "fF":
                j += 1  # float suffix
            while j < n and text[j] in "uUlL":
                j += 1  # integer suffixes accepted and ignored
            append(Token("num", value, line, i - line_start + 1))
        elif kind == "op":
            append(Token("op", m.group(), line, i - line_start + 1))
        elif kind == "nl":
            line += 1
            line_start = j
        elif kind == "str":
            body = m.group()[1:-1]
            append(Token("str",
                         _unescape(body) if "\\" in body else body,
                         line, i - line_start + 1))
        elif kind == "char":
            body = m.group()[1:-1]
            ch = _ESCAPES.get(body[1], body[1]) if body[0] == "\\" else body
            append(Token("char", ord(ch), line, i - line_start + 1))
        # whitespace: fall through
        i = j
    tokens.append(Token("eof", None, line, n - line_start + 1))
    return tokens, defines


def _tokenize_reference(source: str,
                        defines: Optional[Dict[str, str]] = None
                        ) -> List[Token]:
    """The original char-by-char scanner, kept as the equivalence oracle
    for :func:`tokenize` (tests/test_speed.py)."""
    text, _ = _preprocess(source, defines)
    tokens: List[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in KEYWORDS else "id"
            tokens.append(Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            is_float = False
            if text[j] == "0" and j + 1 < n and text[j + 1] in "xX":
                j += 2
                while j < n and (text[j] in "0123456789abcdefABCDEF"):
                    j += 1
                if j == i + 2:
                    raise MiniCSyntaxError(
                        "hex literal needs at least one digit", line,
                        start_col)
                value: object = int(text[i:j], 16)
            else:
                while j < n and text[j].isdigit():
                    j += 1
                if j < n and text[j] == ".":
                    is_float = True
                    j += 1
                    while j < n and text[j].isdigit():
                        j += 1
                if j < n and text[j] in "eE":
                    is_float = True
                    j += 1
                    if j < n and text[j] in "+-":
                        j += 1
                    while j < n and text[j].isdigit():
                        j += 1
                value = float(text[i:j]) if is_float else int(text[i:j])
            if j < n and text[j] in "fF" and is_float:
                j += 1  # float suffix
            while j < n and text[j] in "uUlL":
                j += 1  # integer suffixes accepted and ignored
            tokens.append(Token("num", value, line, start_col))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            chars: List[str] = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    chars.append(_ESCAPES.get(text[j + 1], text[j + 1]))
                    j += 2
                else:
                    chars.append(text[j])
                    j += 1
            if j >= n:
                raise MiniCSyntaxError("unterminated string", line, start_col)
            tokens.append(Token("str", "".join(chars), line, start_col))
            col += j - i + 1
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            if j < n and text[j] == "\\" and j + 1 < n:
                ch = _ESCAPES.get(text[j + 1], text[j + 1])
                j += 2
            elif j < n:
                ch = text[j]
                j += 1
            else:
                raise MiniCSyntaxError("unterminated char literal", line, col)
            if j >= n or text[j] != "'":
                raise MiniCSyntaxError("unterminated char literal", line, col)
            tokens.append(Token("char", ord(ch), line, start_col))
            col += j - i + 1
            i = j + 1
            continue
        for op_text in _OPERATORS:
            if text.startswith(op_text, i):
                tokens.append(Token("op", op_text, line, start_col))
                i += len(op_text)
                col += len(op_text)
                break
        else:
            raise MiniCSyntaxError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", None, line, col))
    return tokens
