"""MiniC recursive-descent parser.

Builds the untyped AST from a token stream.  The grammar is the familiar
C core: declarations with pointer/array/function-pointer declarators,
statements including ``switch``, and the full C expression precedence
ladder with casts, ``sizeof(type)``, and the ternary operator.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import MiniCSyntaxError
from . import ast
from .lexer import Token, tokenize
from .typesys import (CHAR, CType, DOUBLE, FLOAT, INT, LONG, SHORT, UCHAR,
                      UINT, ULONG, USHORT, VOID, array_of, func_type,
                      pointer_to)

_TYPE_KEYWORDS = frozenset((
    "void", "char", "short", "int", "long", "float", "double",
    "unsigned", "signed", "const",
))

_ASSIGN_OPS = frozenset(("=", "+=", "-=", "*=", "/=", "%=",
                         "<<=", ">>=", "&=", "|=", "^="))


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ---------------------------------------------------

    # The helpers below are the parser's hottest code; each reads
    # ``self.tokens[self.pos]`` directly rather than delegating, because
    # ``pos`` can never pass the trailing eof token (``next`` refuses to
    # advance past it), making the offset-0 index always in bounds.

    def peek(self, offset: int = 0) -> Token:
        if offset == 0:
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, value=None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind: str, value=None) -> Optional[Token]:
        tok = self.tokens[self.pos]
        if tok.kind == kind and (value is None or tok.value == value):
            if kind != "eof":
                self.pos += 1
            return tok
        return None

    def expect(self, kind: str, value=None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise MiniCSyntaxError(
                f"expected {want!r}, got {tok.kind} {tok.value!r}",
                tok.line, tok.col)
        if kind != "eof":
            self.pos += 1
        return tok

    def _error(self, message: str) -> MiniCSyntaxError:
        tok = self.peek()
        return MiniCSyntaxError(message, tok.line, tok.col)

    # -- types ---------------------------------------------------------------

    def at_type(self) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "kw" and tok.value in _TYPE_KEYWORDS

    def parse_base_type(self) -> CType:
        """Parse declaration specifiers into a base type."""
        unsigned = False
        signed = False
        kind: Optional[str] = None
        long_seen = False
        while self.at_type():
            word = self.next().value
            if word == "const":
                continue
            if word == "unsigned":
                unsigned = True
            elif word == "signed":
                signed = True
            elif word == "long":
                if long_seen or kind == "long":
                    pass  # `long long` collapses to long (both are i64)
                kind = "long"
                long_seen = True
            elif word in ("void", "char", "short", "int", "float", "double"):
                if word == "int" and long_seen:
                    continue  # `long int`
                if kind == "short" and word == "int":
                    continue  # `short int`
                kind = word
        if kind is None:
            kind = "int"  # `unsigned x`
        if kind == "void":
            return VOID
        if kind in ("float", "double"):
            return DOUBLE if kind == "double" else FLOAT
        base = {"char": UCHAR if unsigned else CHAR,
                "short": USHORT if unsigned else SHORT,
                "int": UINT if unsigned else INT,
                "long": ULONG if unsigned else LONG}[kind]
        # Plain `char` in MiniC is signed; `signed` keyword is a no-op.
        return base

    def parse_pointers(self, base: CType) -> CType:
        while self.accept("op", "*"):
            self.accept("kw", "const")
            base = pointer_to(base)
        return base

    def parse_param_list(self) -> Tuple[List[ast.Param], bool]:
        """Parse ``( params )`` after the opening paren was consumed."""
        params: List[ast.Param] = []
        if self.accept("op", ")"):
            return params, False
        if self.at("kw", "void") and self.peek(1).kind == "op" \
                and self.peek(1).value == ")":
            self.next()
            self.expect("op", ")")
            return params, False
        while True:
            line = self.peek().line
            base = self.parse_base_type()
            ptype = self.parse_pointers(base)
            name = ""
            if self.at("op", "("):
                # Function-pointer parameter: T (*name)(params)
                self.next()
                self.expect("op", "*")
                name = self.expect("id").value
                self.expect("op", ")")
                self.expect("op", "(")
                inner, _ = self.parse_param_list()
                ptype = pointer_to(func_type(
                    ptype, tuple(p.ptype for p in inner)))
            else:
                tok = self.accept("id")
                if tok:
                    name = tok.value
                # Array parameters decay to pointers.
                while self.accept("op", "["):
                    if not self.accept("op", "]"):
                        self.parse_constant_int()
                        self.expect("op", "]")
                    ptype = pointer_to(ptype)
            params.append(ast.Param(name, ptype, line))
            if not self.accept("op", ","):
                break
        self.expect("op", ")")
        return params, False

    def parse_constant_int(self) -> int:
        """A constant integer expression (for array sizes / case labels)."""
        expr = self.parse_conditional()
        value = _fold_const_int(expr)
        if value is None:
            raise self._error("expected integer constant expression")
        return value

    # -- top level --------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while not self.at("eof"):
            self.parse_top_level(unit)
        return unit

    def parse_top_level(self, unit: ast.TranslationUnit) -> None:
        is_static = bool(self.accept("kw", "static"))
        is_extern = bool(self.accept("kw", "extern"))
        if not is_static:
            is_static = bool(self.accept("kw", "static"))
        line = self.peek().line
        if not self.at_type():
            raise self._error("expected declaration")
        base = self.parse_base_type()
        first = True
        while True:
            dtype = self.parse_pointers(base)
            if self.at("op", ";") and first:
                self.next()
                return  # stray `int;`
            if self.at("op", "("):
                # Function-pointer global: T (*name[N]?)(params) [= init];
                self.next()
                self.expect("op", "*")
                name = self.expect("id").value
                fp_dims: List[int] = []
                while self.accept("op", "["):
                    fp_dims.append(self.parse_constant_int())
                    self.expect("op", "]")
                self.expect("op", ")")
                self.expect("op", "(")
                inner, _ = self.parse_param_list()
                gtype = pointer_to(func_type(
                    dtype, tuple(p.ptype for p in inner)))
                for dim in reversed(fp_dims):
                    gtype = array_of(gtype, dim)
                init = None
                if self.accept("op", "="):
                    init = self.parse_assignment()
                unit.globals.append(ast.GlobalVar(name, gtype, init,
                                                  line=line,
                                                  is_extern=is_extern))
            else:
                name = self.expect("id").value
                if self.at("op", "("):
                    # Function definition or prototype.
                    self.next()
                    params, _ = self.parse_param_list()
                    if self.at("op", "{"):
                        body = self.parse_block()
                        unit.functions.append(ast.FuncDef(
                            name, dtype, params, body, line, is_static))
                        return
                    self.expect("op", ";")
                    unit.functions.append(ast.FuncDef(
                        name, dtype, params, None, line, is_static))
                    return
                gtype = dtype
                dims: List[int] = []
                infer_first = False
                while self.accept("op", "["):
                    if self.at("op", "]") and not dims:
                        infer_first = True
                        dims.append(-1)
                        self.next()
                    else:
                        dims.append(self.parse_constant_int())
                        self.expect("op", "]")
                init = None
                init_list = None
                if self.accept("op", "="):
                    if self.at("op", "{"):
                        init_list = self.parse_init_list()
                    else:
                        init = self.parse_assignment()
                if infer_first:
                    if init_list is not None:
                        dims[0] = len(init_list)
                    elif init is not None and isinstance(init, ast.StrLit):
                        dims[0] = len(init.value)  # NUL already appended
                    else:
                        raise self._error(
                            f"cannot infer length of array {name!r}")
                for dim in reversed(dims):
                    gtype = array_of(gtype, dim)
                unit.globals.append(ast.GlobalVar(
                    name, gtype, init, init_list, line, is_extern))
            first = False
            if self.accept("op", ","):
                continue
            self.expect("op", ";")
            return

    def parse_init_list(self) -> List[ast.Expr]:
        self.expect("op", "{")
        items: List[ast.Expr] = []
        if not self.at("op", "}"):
            while True:
                if self.at("op", "{"):
                    items.extend(self.parse_init_list())  # flatten nested
                else:
                    items.append(self.parse_assignment())
                if not self.accept("op", ","):
                    break
                if self.at("op", "}"):
                    break  # trailing comma
        self.expect("op", "}")
        return items

    # -- statements -----------------------------------------------------------

    def parse_block(self) -> ast.Block:
        open_tok = self.expect("op", "{")
        block = ast.Block(line=open_tok.line)
        while not self.at("op", "}"):
            if self.at("eof"):
                raise self._error("unterminated block")
            block.statements.append(self.parse_statement())
        self.next()
        return block

    def parse_statement(self) -> ast.Stmt:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "{":
            return self.parse_block()
        if tok.kind == "kw":
            if tok.value in ("static", "const") or tok.value in _TYPE_KEYWORDS:
                return self.parse_local_decl()
            if tok.value == "if":
                return self.parse_if()
            if tok.value == "while":
                return self.parse_while()
            if tok.value == "do":
                return self.parse_do_while()
            if tok.value == "for":
                return self.parse_for()
            if tok.value == "switch":
                return self.parse_switch()
            if tok.value == "return":
                self.next()
                value = None
                if not self.at("op", ";"):
                    value = self.parse_expression()
                self.expect("op", ";")
                return ast.Return(line=tok.line, value=value)
            if tok.value == "break":
                self.next()
                self.expect("op", ";")
                return ast.Break(line=tok.line)
            if tok.value == "continue":
                self.next()
                self.expect("op", ";")
                return ast.Continue(line=tok.line)
        if self.accept("op", ";"):
            return ast.Block(line=tok.line)  # empty statement
        expr = self.parse_expression()
        self.expect("op", ";")
        return ast.ExprStmt(line=tok.line, expr=expr)

    def parse_local_decl(self) -> ast.Stmt:
        line = self.peek().line
        self.accept("kw", "static")  # local statics treated as plain locals
        base = self.parse_base_type()
        decls: List[ast.Stmt] = []
        while True:
            dtype = self.parse_pointers(base)
            if self.at("op", "("):
                self.next()
                self.expect("op", "*")
                name = self.expect("id").value
                fp_dims: List[int] = []
                while self.accept("op", "["):
                    fp_dims.append(self.parse_constant_int())
                    self.expect("op", "]")
                self.expect("op", ")")
                self.expect("op", "(")
                inner, _ = self.parse_param_list()
                dtype = pointer_to(func_type(
                    dtype, tuple(p.ptype for p in inner)))
                for dim in reversed(fp_dims):
                    dtype = array_of(dtype, dim)
            else:
                name = self.expect("id").value
                dims: List[int] = []
                infer = False
                while self.accept("op", "["):
                    if self.at("op", "]") and not dims:
                        infer = True
                        dims.append(-1)
                        self.next()
                    else:
                        dims.append(self.parse_constant_int())
                        self.expect("op", "]")
                init_peek = self.at("op", "=")
                if infer and not init_peek:
                    raise self._error(f"cannot infer length of {name!r}")
                if dims:
                    decl_init = None
                    decl_list = None
                    if self.accept("op", "="):
                        if self.at("op", "{"):
                            decl_list = self.parse_init_list()
                        else:
                            decl_init = self.parse_assignment()
                    if infer:
                        if decl_list is not None:
                            dims[0] = len(decl_list)
                        elif isinstance(decl_init, ast.StrLit):
                            dims[0] = len(decl_init.value)
                        else:
                            raise self._error(
                                f"cannot infer length of {name!r}")
                    for dim in reversed(dims):
                        dtype = array_of(dtype, dim)
                    decls.append(ast.VarDecl(line=line, name=name,
                                             var_type=dtype, init=decl_init,
                                             init_list=decl_list))
                    if self.accept("op", ","):
                        continue
                    self.expect("op", ";")
                    break
            init = None
            init_list = None
            if self.accept("op", "="):
                if self.at("op", "{"):
                    init_list = self.parse_init_list()
                else:
                    init = self.parse_assignment()
            decls.append(ast.VarDecl(line=line, name=name, var_type=dtype,
                                     init=init, init_list=init_list))
            if self.accept("op", ","):
                continue
            self.expect("op", ";")
            break
        if len(decls) == 1:
            return decls[0]
        return ast.DeclGroup(line=line, statements=decls)

    def parse_if(self) -> ast.If:
        tok = self.expect("kw", "if")
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        then = self.parse_statement()
        other = None
        if self.accept("kw", "else"):
            other = self.parse_statement()
        return ast.If(line=tok.line, cond=cond, then=then, other=other)

    def parse_while(self) -> ast.While:
        tok = self.expect("kw", "while")
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        body = self.parse_statement()
        return ast.While(line=tok.line, cond=cond, body=body)

    def parse_do_while(self) -> ast.DoWhile:
        tok = self.expect("kw", "do")
        body = self.parse_statement()
        self.expect("kw", "while")
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        self.expect("op", ";")
        return ast.DoWhile(line=tok.line, body=body, cond=cond)

    def parse_for(self) -> ast.For:
        tok = self.expect("kw", "for")
        self.expect("op", "(")
        init: Optional[ast.Stmt] = None
        if not self.at("op", ";"):
            if self.at_type():
                init = self.parse_local_decl()
            else:
                init = ast.ExprStmt(line=tok.line,
                                    expr=self.parse_expression())
                self.expect("op", ";")
        else:
            self.next()
        cond = None
        if not self.at("op", ";"):
            cond = self.parse_expression()
        self.expect("op", ";")
        step = None
        if not self.at("op", ")"):
            step = self.parse_expression()
        self.expect("op", ")")
        body = self.parse_statement()
        return ast.For(line=tok.line, init=init, cond=cond, step=step,
                       body=body)

    def parse_switch(self) -> ast.Switch:
        tok = self.expect("kw", "switch")
        self.expect("op", "(")
        scrutinee = self.parse_expression()
        self.expect("op", ")")
        self.expect("op", "{")
        cases: List[ast.SwitchCase] = []
        current: Optional[ast.SwitchCase] = None
        while not self.at("op", "}"):
            if self.accept("kw", "case"):
                value = self.parse_constant_int()
                self.expect("op", ":")
                current = ast.SwitchCase(value, [], self.peek().line)
                cases.append(current)
            elif self.accept("kw", "default"):
                self.expect("op", ":")
                current = ast.SwitchCase(None, [], self.peek().line)
                cases.append(current)
            else:
                if current is None:
                    raise self._error("statement before first case label")
                current.body.append(self.parse_statement())
        self.next()
        return ast.Switch(line=tok.line, scrutinee=scrutinee, cases=cases)

    # -- expressions ----------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self.parse_assignment()

    def parse_assignment(self) -> ast.Expr:
        left = self.parse_conditional()
        tok = self.peek()
        if tok.kind == "op" and tok.value in _ASSIGN_OPS:
            self.next()
            value = self.parse_assignment()
            return ast.Assign(line=tok.line, op=tok.value, target=left,
                              value=value)
        return left

    def parse_conditional(self) -> ast.Expr:
        cond = self.parse_binary(0)
        if self.at("op", "?"):
            tok = self.next()
            then = self.parse_expression()
            self.expect("op", ":")
            other = self.parse_conditional()
            return ast.Cond(line=tok.line, cond=cond, then=then, other=other)
        return cond

    _PRECEDENCE = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    # Operator -> precedence level, derived from the table above.
    _BIN_LEVEL = {op: lvl for lvl, ops in enumerate(_PRECEDENCE)
                  for op in ops}

    def parse_binary(self, level: int) -> ast.Expr:
        # Precedence climbing: builds the same left-associative tree as
        # the per-level recursive cascade, but recurses only on actual
        # operator nesting instead of once per precedence level.
        bin_level = self._BIN_LEVEL
        left = self.parse_unary()
        while True:
            tok = self.tokens[self.pos]
            if tok.kind != "op":
                return left
            op_level = bin_level.get(tok.value)
            if op_level is None or op_level < level:
                return left
            self.pos += 1
            right = self.parse_binary(op_level + 1)
            left = ast.Binary(line=tok.line, op=tok.value, left=left,
                              right=right)

    def parse_unary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "op":
            if tok.value in ("-", "~", "!"):
                self.next()
                return ast.Unary(line=tok.line, op=tok.value,
                                 operand=self.parse_unary())
            if tok.value == "+":
                self.next()
                return self.parse_unary()
            if tok.value == "*":
                self.next()
                return ast.Deref(line=tok.line, operand=self.parse_unary())
            if tok.value == "&":
                self.next()
                return ast.AddrOf(line=tok.line, operand=self.parse_unary())
            if tok.value in ("++", "--"):
                self.next()
                return ast.IncDec(line=tok.line, op=tok.value, prefix=True,
                                  target=self.parse_unary())
            if tok.value == "(" and self.peek(1).kind == "kw" \
                    and self.peek(1).value in _TYPE_KEYWORDS:
                self.next()
                base = self.parse_base_type()
                ttype = self.parse_pointers(base)
                # Function-pointer cast: (T (*)(params))
                if self.at("op", "(") and self.peek(1).kind == "op" \
                        and self.peek(1).value == "*":
                    self.next()
                    self.expect("op", "*")
                    self.expect("op", ")")
                    self.expect("op", "(")
                    inner, _ = self.parse_param_list()
                    ttype = pointer_to(func_type(
                        ttype, tuple(p.ptype for p in inner)))
                self.expect("op", ")")
                return ast.Cast(line=tok.line, target_type=ttype,
                                operand=self.parse_unary())
        if tok.kind == "kw" and tok.value == "sizeof":
            self.next()
            self.expect("op", "(")
            if not self.at_type():
                raise self._error("sizeof requires a parenthesized type")
            base = self.parse_base_type()
            ttype = self.parse_pointers(base)
            while self.accept("op", "["):
                length = self.parse_constant_int()
                self.expect("op", "]")
                ttype = array_of(ttype, length)
            self.expect("op", ")")
            # sizeof is always a compile-time constant in MiniC.
            return ast.IntLit(line=tok.line, value=ttype.size)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.kind != "op":
                return expr
            if tok.value == "[":
                self.next()
                index = self.parse_expression()
                self.expect("op", "]")
                expr = ast.Index(line=tok.line, base=expr, index=index)
            elif tok.value == "(":
                self.next()
                args: List[ast.Expr] = []
                if not self.at("op", ")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept("op", ","):
                            break
                self.expect("op", ")")
                expr = ast.Call(line=tok.line, func=expr, args=args)
            elif tok.value in ("++", "--"):
                self.next()
                expr = ast.IncDec(line=tok.line, op=tok.value, prefix=False,
                                  target=expr)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        tok = self.next()
        if tok.kind == "num":
            if isinstance(tok.value, float):
                return ast.FloatLit(line=tok.line, value=tok.value)
            return ast.IntLit(line=tok.line, value=tok.value)
        if tok.kind == "char":
            return ast.IntLit(line=tok.line, value=tok.value)
        if tok.kind == "str":
            value = tok.value
            # Adjacent string literal concatenation.
            while self.at("str"):
                value += self.next().value
            return ast.StrLit(line=tok.line,
                              value=value.encode("latin-1") + b"\x00")
        if tok.kind == "id":
            return ast.Ident(line=tok.line, name=tok.value)
        if tok.kind == "op" and tok.value == "(":
            expr = self.parse_expression()
            self.expect("op", ")")
            return expr
        raise MiniCSyntaxError(
            f"unexpected token {tok.kind} {tok.value!r}", tok.line, tok.col)


def _fold_const_int(expr: ast.Expr) -> Optional[int]:
    """Fold a small constant expression (array sizes, case labels)."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.Unary) and expr.op == "-":
        inner = _fold_const_int(expr.operand)
        return -inner if inner is not None else None
    if isinstance(expr, ast.Unary) and expr.op == "~":
        inner = _fold_const_int(expr.operand)
        return ~inner if inner is not None else None
    if isinstance(expr, ast.Binary):
        left = _fold_const_int(expr.left)
        right = _fold_const_int(expr.right)
        if left is None or right is None:
            return None
        try:
            return {
                "+": lambda: left + right, "-": lambda: left - right,
                "*": lambda: left * right, "/": lambda: left // right,
                "%": lambda: left % right, "<<": lambda: left << right,
                ">>": lambda: left >> right, "&": lambda: left & right,
                "|": lambda: left | right, "^": lambda: left ^ right,
            }[expr.op]()
        except (KeyError, ZeroDivisionError):
            return None
    if isinstance(expr, ast.SizeofType):
        return expr.target_type.size
    return None


def parse(source: str, defines=None, prelude=None,
          roots=()) -> ast.TranslationUnit:
    """Front door: source text -> untyped AST.

    With a :class:`~repro.minic.prelude.Prelude`, ``source`` is the text
    that follows it, and only the prelude declarations it reaches (from
    its identifiers and ``roots``) are parsed.
    """
    if prelude is not None:
        return prelude.parse(source, defines, roots)
    return Parser(tokenize(source, defines)).parse_translation_unit()
