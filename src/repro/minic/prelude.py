"""Preludes: source text that sits in front of every program, parsed by need.

A C toolchain links a static libc member into a binary only when the
program references it.  A :class:`Prelude` gives the MiniC frontend the
same economy for text that every program is compiled behind
(``prelude + "\\n" + program``).  The prelude is lexed and split at
top-level declarations once per set of relevant macros.  Each compile
then lexes only the program and parses only the prelude declarations
the program can reach.

The unit that comes out is the whole-text unit minus declarations that
nothing can observe.  It has the same nodes in the same order, the same
line numbers, and the same first error.  Code generation keeps only
what is reachable from the entry points, so the emitted module is the
same too.
"""

from __future__ import annotations

import re
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from . import ast
from .lexer import Token, _strip_comments, scan, tokenize
from .parser import Parser
from .sema import BUILTINS

_WORD_RE = re.compile(r"\w+")

Macros = Tuple[Tuple[str, str], ...]


class _Split:
    """One prelude lexed under one macro set, cut at top-level
    declarations."""

    def __init__(self, prelude: "Prelude", macros: Macros):
        tokens, table = scan(prelude.source, dict(macros))
        parser = Parser(tokens)
        scratch = ast.TranslationUnit()
        self.tokens: List[Token] = tokens
        self.starts: List[int] = []
        declared: List[List[str]] = []
        while not parser.at("eof"):
            self.starts.append(parser.pos)
            n_funcs, n_globals = len(scratch.functions), len(scratch.globals)
            parser.parse_top_level(scratch)
            declared.append([f.name for f in scratch.functions[n_funcs:]] +
                            [g.name for g in scratch.globals[n_globals:]])
        ends = self.starts[1:] + [parser.pos]
        #: The macros the split was made under, and the prelude's macro
        #: table after its last line (the program's starts from it).
        self.macro_names = frozenset(name for name, _ in macros)
        self.table: Dict[str, str] = table
        self.table_macros: Macros = prelude.relevant(table)
        #: Names the prelude declares as functions.
        self.functions: FrozenSet[str] = frozenset(
            f.name for f in scratch.functions)
        #: Declarations of each name.
        self.owners: Dict[str, List[int]] = {}
        for index, names in enumerate(declared):
            for name in names:
                self.owners.setdefault(name, []).append(index)
        #: Identifiers each declaration mentions, and the declarations
        #: of those identifiers.
        self.mentions: List[FrozenSet[str]] = []
        self.deps: List[List[int]] = []
        #: Declarations that may take a function's address: a function
        #: name not directly followed by ``(``.  Sema puts every such
        #: function in the table, reached or not, so these are always
        #: parsed.
        self.always: List[int] = []
        for index, (start, end) in enumerate(zip(self.starts, ends)):
            mentions = set()
            takes_address = False
            for pos in range(start, end):
                tok = tokens[pos]
                if tok.kind == "id":
                    mentions.add(tok.value)
                    takes_address |= (tok.value in self.functions and
                                      tokens[pos + 1][:2] != ("op", "("))
            if takes_address:
                self.always.append(index)
            self.mentions.append(frozenset(mentions))
            self.deps.append(sorted({i for name in mentions
                                     for i in self.owners.get(name, ())}))

    def reach(self, names: Iterable[str],
              shadowed: Set[str]) -> List[int]:
        """Indices, in source order, of the declarations reached from
        ``names`` plus those that mention a ``shadowed`` name."""
        todo = list(self.always)
        for name in names:
            todo += self.owners.get(name, ())
        if shadowed:
            todo += [i for i, mentions in enumerate(self.mentions)
                     if not mentions.isdisjoint(shadowed)]
        chosen: Set[int] = set()
        while todo:
            index = todo.pop()
            if index not in chosen:
                chosen.add(index)
                todo += self.deps[index]
        return sorted(chosen)


class Prelude:
    """Source text compiled in front of every program.

    ``roots`` name declarations every program needs even when its text
    never mentions them (a runtime's init and shutdown hooks).
    """

    def __init__(self, source: str, roots: Sequence[str] = ()):
        self.source = source
        self.roots = tuple(roots)
        #: A program's line ``n`` is line ``n + line_offset`` of
        #: ``source + "\\n" + program``.
        self.line_offset = source.count("\n") + 1
        self._words: Optional[FrozenSet[str]] = None
        self._splits: Dict[Macros, _Split] = {}

    def relevant(self, defines: Dict[str, str]) -> Macros:
        """The macros that can change the prelude's tokens: those whose
        names occur in its text, closed over the macros their bodies
        name."""
        if self._words is None:
            self._words = frozenset(
                _WORD_RE.findall(_strip_comments(self.source)))
        todo = [name for name in defines if name in self._words]
        names = set(todo)
        while todo:
            for word in _WORD_RE.findall(defines[todo.pop()]):
                if word in defines and word not in names:
                    names.add(word)
                    todo.append(word)
        return tuple(sorted((name, defines[name]) for name in names))

    def parse(self, program: str, defines: Optional[Dict[str, str]] = None,
              roots: Sequence[str] = ()) -> ast.TranslationUnit:
        """Parse ``program`` as the text after the prelude.

        The program's tokens carry their line numbers in the
        concatenated text.  The prelude declarations come first, in
        source order: those reached from the program's identifiers,
        :attr:`roots` and ``roots``, and from the names they mention in
        turn.
        """
        defines = dict(defines or {})
        macros = self.relevant(defines)
        split = self._splits.get(macros)
        if split is None:
            split = self._splits[macros] = _Split(self, macros)
        # The macro table at the program's first line, as the whole
        # text would have it.
        start = {name: value for name, value in defines.items()
                 if name not in split.macro_names}
        start.update(split.table)
        tokens, table = scan(program, start, self.line_offset + 1)
        if self.relevant(table) != split.table_macros:
            # The program (un)defines a macro the prelude's text
            # expands; the whole text is expanded with the final table.
            return Parser(tokenize(self.source + "\n" + program, defines)
                          ).parse_translation_unit()
        tail = Parser(tokens).parse_translation_unit()
        names = {tok.value for tok in tokens if tok.kind == "id"}
        names.update(self.roots, roots)
        # A program global named like a prelude function, or a program
        # function named like a builtin, changes what that name means in
        # every prelude declaration that mentions it; sema must see
        # those declarations as the whole text would show them.
        shadowed = {g.name for g in tail.globals if g.name in split.functions}
        shadowed.update(f.name for f in tail.functions if f.name in BUILTINS)
        unit = ast.TranslationUnit()
        parser = Parser(split.tokens)
        for index in split.reach(names, shadowed):
            parser.pos = split.starts[index]
            parser.parse_top_level(unit)
        unit.functions += tail.functions
        unit.globals += tail.globals
        return unit
