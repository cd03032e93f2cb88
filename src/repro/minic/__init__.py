"""MiniC: the C-subset frontend the benchmark suite is written in.

Plays the role of C + the WASI SDK's clang frontend in the paper's
toolchain: :func:`repro.minic.parser.parse` builds the AST and
:func:`repro.minic.sema.analyze` type-checks it; the optimizing backend
lives in :mod:`repro.compiler`.  A :class:`~repro.minic.prelude.Prelude`
(the libc) is split once and parsed per program only as far as the
program reaches into it.
"""

from . import ast
from .lexer import Token, tokenize
from .parser import parse
from .prelude import Prelude
from .sema import BUILTINS, WASI_EXTERNS, SemanticAnalyzer, analyze
from .typesys import (CHAR, CType, DOUBLE, FLOAT, INT, LONG, SHORT, UCHAR,
                      UINT, ULONG, USHORT, VOID, array_of, func_type,
                      pointer_to)

__all__ = [
    "ast", "Token", "tokenize", "parse", "Prelude",
    "BUILTINS", "WASI_EXTERNS", "SemanticAnalyzer", "analyze",
    "CHAR", "CType", "DOUBLE", "FLOAT", "INT", "LONG", "SHORT", "UCHAR",
    "UINT", "ULONG", "USHORT", "VOID", "array_of", "func_type", "pointer_to",
]
