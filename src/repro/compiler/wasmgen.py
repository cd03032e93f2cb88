"""MiniC -> WebAssembly code generation.

Lowers the typed AST onto a :class:`~repro.wasm.ModuleBuilder`, following
the same conventions the WASI SDK's LLVM backend uses:

* all C globals live in linear memory at static addresses;
* a mutable Wasm global ``__stack_pointer`` implements the shadow stack
  holding arrays and address-taken locals;
* scalar locals become Wasm locals;
* address-taken functions go into the ``funcref`` table (slot 0 is kept
  empty so a null function pointer traps);
* string literals are interned into the data segment;
* the synthesized ``_start`` export initializes libc, runs ``main``, and
  reports its exit code through WASI ``proc_exit``.

Only functions reachable from the entry points are emitted, so module
size tracks what the program actually uses (this matters for the paper's
compile-time experiments).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import CompileError, MiniCTypeError
from ..minic import ast
from ..minic.sema import BUILTINS, SemanticAnalyzer, WASI_EXTERNS
from ..minic.typesys import CHAR, CType, DOUBLE, FLOAT, INT, LONG, UINT, VOID
from ..wasm import FuncType, ModuleBuilder, Module
from ..wasm import opcodes as op
from ..wasm.builder import FunctionBuilder
from ..wasm.types import F32, F64, I32, I64, VOID as WVOID

DATA_BASE = 1024
STACK_SIZE = 256 * 1024
WASI_MODULE = "wasi_snapshot_preview1"

# ---------------------------------------------------------------------------
# Operator tables
# ---------------------------------------------------------------------------

_I32_BIN = {"+": op.I32_ADD, "-": op.I32_SUB, "*": op.I32_MUL,
            "&": op.I32_AND, "|": op.I32_OR, "^": op.I32_XOR,
            "<<": op.I32_SHL}
_I64_BIN = {"+": op.I64_ADD, "-": op.I64_SUB, "*": op.I64_MUL,
            "&": op.I64_AND, "|": op.I64_OR, "^": op.I64_XOR,
            "<<": op.I64_SHL}
_F32_BIN = {"+": op.F32_ADD, "-": op.F32_SUB, "*": op.F32_MUL,
            "/": op.F32_DIV}
_F64_BIN = {"+": op.F64_ADD, "-": op.F64_SUB, "*": op.F64_MUL,
            "/": op.F64_DIV}
_I32_CMP_S = {"==": op.I32_EQ, "!=": op.I32_NE, "<": op.I32_LT_S,
              ">": op.I32_GT_S, "<=": op.I32_LE_S, ">=": op.I32_GE_S}
_I32_CMP_U = {"==": op.I32_EQ, "!=": op.I32_NE, "<": op.I32_LT_U,
              ">": op.I32_GT_U, "<=": op.I32_LE_U, ">=": op.I32_GE_U}
_I64_CMP_S = {"==": op.I64_EQ, "!=": op.I64_NE, "<": op.I64_LT_S,
              ">": op.I64_GT_S, "<=": op.I64_LE_S, ">=": op.I64_GE_S}
_I64_CMP_U = {"==": op.I64_EQ, "!=": op.I64_NE, "<": op.I64_LT_U,
              ">": op.I64_GT_U, "<=": op.I64_LE_U, ">=": op.I64_GE_U}
_F32_CMP = {"==": op.F32_EQ, "!=": op.F32_NE, "<": op.F32_LT,
            ">": op.F32_GT, "<=": op.F32_LE, ">=": op.F32_GE}
_F64_CMP = {"==": op.F64_EQ, "!=": op.F64_NE, "<": op.F64_LT,
            ">": op.F64_GT, "<=": op.F64_LE, ">=": op.F64_GE}

_BUILTIN_OPS = {
    "__builtin_sqrt": (op.F64_SQRT,),
    "__builtin_fabs": (op.F64_ABS,),
    "__builtin_floor": (op.F64_FLOOR,),
    "__builtin_ceil": (op.F64_CEIL,),
    "__builtin_trunc": (op.F64_TRUNC,),
    "__builtin_nearest": (op.F64_NEAREST,),
    "__builtin_sqrtf": (op.F32_SQRT,),
    "__builtin_clz": (op.I32_CLZ,),
    "__builtin_ctz": (op.I32_CTZ,),
    "__builtin_popcount": (op.I32_POPCNT,),
    "__builtin_memory_size": (op.MEMORY_SIZE,),
    "__builtin_memory_grow": (op.MEMORY_GROW,),
    "__builtin_trap": (op.UNREACHABLE,),
}


def _load_op(t: CType) -> Tuple[int, int]:
    """(opcode, natural alignment log2) to load a value of type ``t``."""
    if t.kind == "char":
        return (op.I32_LOAD8_U if t.unsigned else op.I32_LOAD8_S), 0
    if t.kind == "short":
        return (op.I32_LOAD16_U if t.unsigned else op.I32_LOAD16_S), 1
    if t.kind == "int" or t.is_pointer:
        return op.I32_LOAD, 2
    if t.kind == "long":
        return op.I64_LOAD, 3
    if t.kind == "float":
        return op.F32_LOAD, 2
    if t.kind == "double":
        return op.F64_LOAD, 3
    raise CompileError(f"cannot load type {t}")


def _store_op(t: CType) -> Tuple[int, int]:
    if t.kind == "char":
        return op.I32_STORE8, 0
    if t.kind == "short":
        return op.I32_STORE16, 1
    if t.kind == "int" or t.is_pointer:
        return op.I32_STORE, 2
    if t.kind == "long":
        return op.I64_STORE, 3
    if t.kind == "float":
        return op.F32_STORE, 2
    if t.kind == "double":
        return op.F64_STORE, 3
    raise CompileError(f"cannot store type {t}")


class _LoopContext:
    def __init__(self, break_label: str, continue_label: Optional[str]):
        self.break_label = break_label
        self.continue_label = continue_label


class CodeGenerator:
    """Generates one Wasm module from an analyzed translation unit."""

    def __init__(self, unit: ast.TranslationUnit, analyzer: SemanticAnalyzer,
                 entry: str = "main"):
        self.unit = unit
        self.analyzer = analyzer
        self.entry = entry
        self.mb = ModuleBuilder()
        self.global_addr: Dict[str, int] = {}
        self.string_addr: Dict[bytes, int] = {}
        self.table_slot: Dict[str, int] = {}
        self.data_chunks: List[Tuple[int, bytes]] = []
        self.heap_base = 0
        self.stack_top = 0
        self.sp_global = -1
        self._label_counter = 0
        self._imports_used: Dict[str, int] = {}
        # per-function state
        self._fb: Optional[FunctionBuilder] = None
        self._func: Optional[ast.FuncDef] = None
        self._frame_local = -1
        self._local_map: Dict[int, int] = {}
        self._scratch: Dict[int, int] = {}
        # Nesting depth of memory-lvalue compound assignments whose value
        # is being generated; each depth has its own scratch slots.
        self._scratch_depth = 0
        self._loops: List[_LoopContext] = []

    # ------------------------------------------------------------------
    # Reachability and layout
    # ------------------------------------------------------------------

    def _reachable_functions(self) -> List[ast.FuncDef]:
        defined = {f.name: f for f in self.unit.functions
                   if f.body is not None}
        roots = [self.entry, "__libc_init", "__libc_shutdown"]
        roots += [n for n in self.analyzer.address_taken_funcs if n in defined]
        seen: Set[str] = set()
        order: List[ast.FuncDef] = []
        stack = [r for r in roots if r in defined]
        if self.entry not in defined:
            raise CompileError(f"entry function {self.entry!r} is not defined")
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            func = defined[name]
            order.append(func)
            for callee in _called_names(func):
                if callee in defined and callee not in seen:
                    stack.append(callee)
        # Keep source order for determinism.
        order.sort(key=lambda f: self.unit.functions.index(f))
        # Referenced-but-undefined functions are link errors.
        for func in order:
            for callee in _called_names(func):
                if callee not in defined and callee not in WASI_EXTERNS \
                        and callee not in BUILTINS:
                    raise CompileError(
                        f"undefined function {callee!r} referenced from "
                        f"{func.name!r}")
        return order

    def _used_globals(self, functions: List[ast.FuncDef]) -> List[ast.GlobalVar]:
        used: Set[str] = set()
        for func in functions:
            _collect_global_refs(func, used)
        return [g for g in self.unit.globals if g.name in used]

    def _layout_memory(self, functions: List[ast.FuncDef],
                       globals_: List[ast.GlobalVar]) -> None:
        addr = DATA_BASE
        # Strings first (read-only data).
        for func in functions:
            for lit in _string_literals(func):
                if lit.value not in self.string_addr:
                    self.string_addr[lit.value] = addr
                    self.data_chunks.append((addr, lit.value))
                    addr += len(lit.value)
        addr = (addr + 15) & ~15
        for glob in globals_:
            t = glob.var_type
            align = max(t.align, 4) if t.is_array else t.align
            addr = (addr + align - 1) & ~(align - 1)
            glob.address = addr
            self.global_addr[glob.name] = addr
            payload = _global_init_bytes(glob, self.string_addr,
                                         self._intern_string)
            if payload is not None and any(payload):
                self.data_chunks.append((addr, payload))
            addr += t.size
        addr = (addr + 15) & ~15
        stack_bottom = addr
        self.stack_top = stack_bottom + STACK_SIZE
        self.heap_base = (self.stack_top + 65535) & ~65535

    def _intern_string(self, value: bytes) -> int:
        addr = self.string_addr.get(value)
        if addr is None:
            raise CompileError("string literal not laid out")
        return addr

    # ------------------------------------------------------------------
    # Top-level generation
    # ------------------------------------------------------------------

    def generate(self) -> Module:
        functions = self._reachable_functions()
        globals_ = self._used_globals(functions)

        # WASI imports actually used by reachable code.
        used_externs: Set[str] = set()
        for func in functions:
            for callee in _called_names(func):
                if callee in WASI_EXTERNS:
                    used_externs.add(callee)
        used_externs.add("__wasi_proc_exit")  # _start always exits
        for name in sorted(used_externs):
            wasi_name, ret, params = WASI_EXTERNS[name]
            ftype = FuncType(tuple(p.wasm_type for p in params),
                             () if ret.is_void else (ret.wasm_type,))
            index = self.mb.import_function(WASI_MODULE, wasi_name, ftype,
                                            local_name=name)
            self._imports_used[name] = index

        self._layout_memory(functions, globals_)

        self.sp_global = self.mb.add_global(
            "__stack_pointer", I32, True, (op.I32_CONST, self.stack_top))

        # Reserve indices so any call order works.
        for func in functions:
            self.mb.reserve_function(func.name)
        self.mb.reserve_function("_start")

        # funcref table: slot 0 stays empty (null pointer traps).
        taken = sorted(n for n in self.analyzer.address_taken_funcs
                       if any(f.name == n for f in functions))
        for slot, name in enumerate(taken, start=1):
            self.table_slot[name] = slot

        for func in functions:
            self._gen_function(func)
        self._gen_start(functions)

        if taken:
            self.mb.add_element(1, taken)
        elif any(_has_indirect_call(f) for f in functions):
            self.mb.set_table(1)

        pages = (self.heap_base + 65535) // 65536 + 1
        self.mb.set_memory(pages, None)
        for addr, payload in sorted(self.data_chunks):
            self.mb.add_data(addr, payload)
        return self.mb.build()

    def _gen_start(self, functions: List[ast.FuncDef]) -> None:
        fb = self.mb.define_reserved("_start", [], [], export=True)
        names = {f.name for f in functions}
        if "__libc_init" in names:
            fb.call_named("__libc_init")
        main = next(f for f in functions if f.name == self.entry)
        fb.call_named(self.entry)
        if main.ret.is_void:
            fb.i32_const(0)
        elif main.ret != INT:
            raise CompileError("main must return int or void")
        if "__libc_shutdown" in names:
            # Stash the exit code, flush stdio, then exit with it.
            code_local = fb.add_local(I32)
            fb.local_set(code_local)
            fb.call_named("__libc_shutdown")
            fb.local_get(code_local)
        fb.call(self._imports_used["__wasi_proc_exit"])

    # ------------------------------------------------------------------
    # Function generation
    # ------------------------------------------------------------------

    def _gen_function(self, func: ast.FuncDef) -> None:
        params = [p.ptype.decay().wasm_type for p in func.params]
        results = [] if func.ret.is_void else [func.ret.wasm_type]
        fb = self.mb.define_reserved(func.name, params, results)
        self._fb = fb
        self._func = func
        self._local_map = {}
        self._scratch = {}
        self._loops = []
        self._frame_local = -1

        # Map sema's local indices to wasm local indices.
        param_decls = getattr(func, "param_decls", [])
        n_params = len(func.params)
        wasm_index = n_params
        for decl in _all_decls(func):
            if decl.needs_memory:
                continue
            if decl in param_decls:
                self._local_map[id(decl)] = param_decls.index(decl)
            else:
                self._local_map[id(decl)] = fb.add_local(
                    decl.var_type.wasm_type)

        if func.frame_size > 0:
            self._frame_local = fb.add_local(I32)
            fb.global_get(self.sp_global)
            fb.i32_const(func.frame_size)
            fb.emit(op.I32_SUB)
            fb.local_tee(self._frame_local)
            fb.global_set(self.sp_global)
            # Copy memory-resident parameters into the frame.
            for decl in param_decls:
                if decl.needs_memory:
                    store, align = _store_op(decl.var_type)
                    fb.local_get(self._frame_local)
                    fb.local_get(param_decls.index(decl))
                    fb.emit(store, align, decl.frame_offset)

        # Body inside an exit block so `return` can restore the stack ptr.
        result_type = WVOID if func.ret.is_void else func.ret.wasm_type
        self._return_local = -1
        if not func.ret.is_void:
            self._return_local = fb.add_local(func.ret.wasm_type)
        fb.block("__func_exit")
        self._gen_stmt(func.body)
        if not func.ret.is_void:
            # Falling off the end of a value-returning function: return 0,
            # mirroring C's (undefined but common) behavior.
            self._push_zero(func.ret)
            fb.local_set(self._return_local)
        fb.end()
        if func.frame_size > 0:
            fb.local_get(self._frame_local)
            fb.i32_const(func.frame_size)
            fb.emit(op.I32_ADD)
            fb.global_set(self.sp_global)
        if not func.ret.is_void:
            fb.local_get(self._return_local)
        self._fb = None
        self._func = None

    def _push_zero(self, t: CType) -> None:
        fb = self._fb
        wt = t.wasm_type
        if wt == I32:
            fb.i32_const(0)
        elif wt == I64:
            fb.i64_const(0)
        elif wt == F32:
            fb.f32_const(0.0)
        else:
            fb.f64_const(0.0)

    def _label(self, stem: str) -> str:
        self._label_counter += 1
        return f"{stem}{self._label_counter}"

    def _scratch_local(self, wasm_type: int, slot: int = 0) -> int:
        # Depth 0 keeps the flat keys, so code without nesting keeps its
        # locals.
        key = wasm_type * 4 + slot + 1000 * self._scratch_depth
        if key not in self._scratch:
            self._scratch[key] = self._fb.add_local(wasm_type)
        return self._scratch[key]

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _gen_stmt(self, stmt: ast.Stmt) -> None:
        fb = self._fb
        if isinstance(stmt, ast.Block):
            for s in stmt.statements:
                self._gen_stmt(s)
        elif isinstance(stmt, ast.VarDecl):
            self._gen_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._gen_expr(stmt.expr, want_value=False)
        elif isinstance(stmt, ast.If):
            self._gen_condition(stmt.cond)
            label = self._label("if")
            fb.if_(label)
            self._gen_stmt(stmt.then)
            if stmt.other is not None:
                fb.else_()
                self._gen_stmt(stmt.other)
            fb.end()
        elif isinstance(stmt, ast.While):
            brk, top = self._label("wbrk"), self._label("wtop")
            fb.block(brk)
            fb.loop(top)
            self._gen_condition(stmt.cond)
            fb.emit(op.I32_EQZ)
            fb.br_if(brk)
            self._loops.append(_LoopContext(brk, top))
            self._gen_stmt(stmt.body)
            self._loops.pop()
            fb.br(top)
            fb.end()
            fb.end()
        elif isinstance(stmt, ast.DoWhile):
            brk, top, cont = (self._label("dbrk"), self._label("dtop"),
                              self._label("dcont"))
            fb.block(brk)
            fb.loop(top)
            fb.block(cont)
            self._loops.append(_LoopContext(brk, cont))
            self._gen_stmt(stmt.body)
            self._loops.pop()
            fb.end()
            self._gen_condition(stmt.cond)
            fb.br_if(top)
            fb.end()
            fb.end()
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._gen_stmt(stmt.init)
            brk, top, cont = (self._label("fbrk"), self._label("ftop"),
                              self._label("fcont"))
            fb.block(brk)
            fb.loop(top)
            if stmt.cond is not None:
                self._gen_condition(stmt.cond)
                fb.emit(op.I32_EQZ)
                fb.br_if(brk)
            fb.block(cont)
            self._loops.append(_LoopContext(brk, cont))
            self._gen_stmt(stmt.body)
            self._loops.pop()
            fb.end()
            if stmt.step is not None:
                self._gen_expr(stmt.step, want_value=False)
            fb.br(top)
            fb.end()
            fb.end()
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._gen_expr(stmt.value)
                fb.local_set(self._return_local)
            fb.br("__func_exit")
        elif isinstance(stmt, ast.Break):
            if not self._loops:
                raise CompileError("break outside loop/switch")
            fb.br(self._loops[-1].break_label)
        elif isinstance(stmt, ast.Continue):
            for ctx in reversed(self._loops):
                if ctx.continue_label is not None:
                    fb.br(ctx.continue_label)
                    break
            else:
                raise CompileError("continue outside loop")
        elif isinstance(stmt, ast.Switch):
            self._gen_switch(stmt)
        else:
            raise CompileError(f"unhandled statement {type(stmt).__name__}")

    def _gen_decl(self, decl: ast.VarDecl) -> None:
        fb = self._fb
        if decl.init is not None and not decl.var_type.is_array:
            if decl.needs_memory:
                fb.local_get(self._frame_local)
                self._gen_expr(decl.init)
                store, align = _store_op(decl.var_type)
                fb.emit(store, align, decl.frame_offset)
            else:
                self._gen_expr(decl.init)
                fb.local_set(self._local_map[id(decl)])
        elif isinstance(decl.init, ast.StrLit) and decl.var_type.is_array:
            # char buf[] = "..." — copy the string into the frame.
            addr = self.string_addr[decl.init.value]
            self._emit_frame_copy(decl.frame_offset, addr,
                                  len(decl.init.value))
        if decl.init_list is not None:
            elem = decl.var_type
            while elem.is_array:
                elem = elem.elem
            store, align = _store_op(elem)
            for i, item in enumerate(decl.init_list):
                fb.local_get(self._frame_local)
                self._gen_expr(item)
                fb.emit(store, align, decl.frame_offset + i * elem.size)

    def _emit_frame_copy(self, frame_offset: int, src_addr: int,
                         length: int) -> None:
        """Inline copy of a constant-length byte range into the frame."""
        fb = self._fb
        offset = 0
        while length - offset >= 8:
            fb.local_get(self._frame_local)
            fb.i32_const(src_addr + offset)
            fb.emit(op.I64_LOAD, 0, 0)
            fb.emit(op.I64_STORE, 0, frame_offset + offset)
            offset += 8
        while offset < length:
            fb.local_get(self._frame_local)
            fb.i32_const(src_addr + offset)
            fb.emit(op.I32_LOAD8_U, 0, 0)
            fb.emit(op.I32_STORE8, 0, frame_offset + offset)
            offset += 1

    def _gen_switch(self, stmt: ast.Switch) -> None:
        fb = self._fb
        cases = stmt.cases
        exit_label = self._label("sbrk")
        case_labels = [self._label("scase") for _ in cases]
        default_ordinal = next((i for i, c in enumerate(cases)
                                if c.value is None), None)

        fb.block(exit_label)
        for label in reversed(case_labels):
            fb.block(label)

        # Dispatch on the scrutinee.
        self._gen_expr(stmt.scrutinee)
        values = [(c.value, i) for i, c in enumerate(cases)
                  if c.value is not None]
        default_label = (case_labels[default_ordinal]
                         if default_ordinal is not None else exit_label)
        if values:
            lo = min(v for v, _ in values)
            hi = max(v for v, _ in values)
            span = hi - lo + 1
            if len(values) >= 3 and span <= 3 * len(values) + 8:
                table = {v: i for v, i in values}
                labels = [case_labels[table[lo + k]] if lo + k in table
                          else default_label for k in range(span)]
                if lo:
                    fb.i32_const(lo)
                    fb.emit(op.I32_SUB)
                fb.br_table(labels, default_label)
            else:
                scrutinee = self._scratch_local(I32, 3)
                fb.local_set(scrutinee)
                for v, i in values:
                    fb.local_get(scrutinee)
                    fb.i32_const(v)
                    fb.emit(op.I32_EQ)
                    fb.br_if(case_labels[i])
                fb.br(default_label)
        else:
            fb.emit(op.DROP)
            fb.br(default_label)

        self._loops.append(_LoopContext(exit_label, None))
        for i, case in enumerate(cases):
            fb.end()  # closes case_labels[i]
            for s in case.body:
                self._gen_stmt(s)
        self._loops.pop()
        fb.end()  # exit

    # ------------------------------------------------------------------
    # Conditions (value on stack as i32 truth)
    # ------------------------------------------------------------------

    def _gen_condition(self, expr: ast.Expr) -> None:
        """Push the condition as an i32 (non-zero = true)."""
        fb = self._fb
        t = expr.ctype
        # Comparisons and logical ops already produce i32 truth values.
        if isinstance(expr, ast.Binary) and expr.op in (
                "==", "!=", "<", ">", "<=", ">=", "&&", "||"):
            self._gen_expr(expr)
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self._gen_expr(expr)
            return
        self._gen_expr(expr)
        wt = t.wasm_type
        if wt == I32:
            return  # non-zero test is implicit for br_if/if
        if wt == I64:
            fb.i64_const(0)
            fb.emit(op.I64_NE)
        elif wt == F32:
            fb.f32_const(0.0)
            fb.emit(op.F32_NE)
        else:
            fb.f64_const(0.0)
            fb.emit(op.F64_NE)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _gen_expr(self, expr: ast.Expr, want_value: bool = True) -> None:
        fb = self._fb
        if isinstance(expr, ast.IntLit):
            if expr.ctype.wasm_type == I64:
                fb.i64_const(_wrap_signed(expr.value, 64))
            else:
                fb.i32_const(_wrap_signed(expr.value, 32))
        elif isinstance(expr, ast.FloatLit):
            if expr.ctype == FLOAT:
                fb.f32_const(expr.value)
            else:
                fb.f64_const(expr.value)
        elif isinstance(expr, ast.StrLit):
            fb.i32_const(self.string_addr[expr.value])
        elif isinstance(expr, ast.Ident):
            self._gen_ident(expr)
        elif isinstance(expr, ast.Unary):
            self._gen_unary(expr)
        elif isinstance(expr, ast.AddrOf):
            self._gen_addr_of(expr)
        elif isinstance(expr, ast.Deref):
            self._gen_expr(expr.operand)
            load, align = _load_op(expr.ctype)
            fb.emit(load, align, 0)
        elif isinstance(expr, ast.Index):
            self._gen_index_addr(expr)
            if expr.ctype.is_pointer and expr.base.ctype.pointee.is_array:
                return  # address of sub-array is the value
            load, align = _load_op(expr.ctype)
            fb.emit(load, align, 0)
        elif isinstance(expr, ast.Binary):
            self._gen_binary(expr)
        elif isinstance(expr, ast.Assign):
            self._gen_assign(expr, want_value)
            return
        elif isinstance(expr, ast.IncDec):
            self._gen_incdec(expr, want_value)
            return
        elif isinstance(expr, ast.Cond):
            self._gen_condition(expr.cond)
            label = self._label("sel")
            fb.if_(label, expr.ctype.wasm_type)
            self._gen_expr(expr.then)
            fb.else_()
            self._gen_expr(expr.other)
            fb.end()
        elif isinstance(expr, ast.Call):
            self._gen_call(expr, want_value)
            return
        elif isinstance(expr, ast.Cast):
            self._gen_cast(expr)
        else:
            raise CompileError(f"unhandled expression {type(expr).__name__}")
        if not want_value:
            if expr.ctype is not None and not expr.ctype.is_void:
                fb.emit(op.DROP)

    def _gen_ident(self, expr: ast.Ident) -> None:
        fb = self._fb
        kind, payload = expr.binding
        if kind == "local":
            decl = payload
            if decl.var_type.is_array:
                fb.local_get(self._frame_local)
                if decl.frame_offset:
                    fb.i32_const(decl.frame_offset)
                    fb.emit(op.I32_ADD)
            elif decl.needs_memory:
                fb.local_get(self._frame_local)
                load, align = _load_op(decl.var_type)
                fb.emit(load, align, decl.frame_offset)
            else:
                fb.local_get(self._local_map[id(decl)])
        elif kind == "global":
            glob = payload
            if glob.var_type.is_array:
                fb.i32_const(self.global_addr[glob.name])
            else:
                fb.i32_const(self.global_addr[glob.name])
                load, align = _load_op(glob.var_type)
                fb.emit(load, align, 0)
        elif kind == "func":
            slot = self.table_slot.get(payload)
            if slot is None:
                raise CompileError(
                    f"function {payload!r} used as value but not marked "
                    "address-taken")
            fb.i32_const(slot)
        else:
            raise CompileError(f"builtin {payload!r} used as value")

    def _gen_addr_of(self, expr: ast.AddrOf) -> None:
        fb = self._fb
        inner = expr.operand
        if isinstance(inner, ast.Ident):
            kind, payload = inner.binding
            if kind == "local":
                fb.local_get(self._frame_local)
                if payload.frame_offset:
                    fb.i32_const(payload.frame_offset)
                    fb.emit(op.I32_ADD)
            elif kind == "global":
                fb.i32_const(self.global_addr[payload.name])
            elif kind == "func":
                fb.i32_const(self.table_slot[payload])
            else:
                raise CompileError("cannot take address of builtin")
        elif isinstance(inner, ast.Index):
            self._gen_index_addr(inner)
        else:
            raise CompileError("unsupported address-of operand")

    def _gen_index_addr(self, expr: ast.Index) -> None:
        """Push the address of base[index]."""
        fb = self._fb
        self._gen_expr(expr.base)
        elem = expr.base.ctype.pointee
        self._gen_expr(expr.index)
        if elem.size != 1:
            fb.i32_const(elem.size)
            fb.emit(op.I32_MUL)
        fb.emit(op.I32_ADD)

    def _lvalue_is_simple_local(self, target: ast.Expr) -> Optional[ast.VarDecl]:
        if isinstance(target, ast.Ident) and target.binding[0] == "local":
            decl = target.binding[1]
            if not decl.needs_memory and not decl.var_type.is_array:
                return decl
        return None

    def _gen_lvalue_addr(self, target: ast.Expr) -> CType:
        """Push the address of a memory lvalue; returns the stored type."""
        fb = self._fb
        if isinstance(target, ast.Ident):
            kind, payload = target.binding
            if kind == "local":
                fb.local_get(self._frame_local)
                if payload.frame_offset:
                    fb.i32_const(payload.frame_offset)
                    fb.emit(op.I32_ADD)
                return payload.var_type
            if kind == "global":
                fb.i32_const(self.global_addr[payload.name])
                return payload.var_type
            raise CompileError("cannot assign to function")
        if isinstance(target, ast.Deref):
            self._gen_expr(target.operand)
            return target.operand.ctype.pointee
        if isinstance(target, ast.Index):
            self._gen_index_addr(target)
            return target.base.ctype.pointee
        raise CompileError("unsupported lvalue")

    def _gen_assign(self, expr: ast.Assign, want_value: bool) -> None:
        fb = self._fb
        target = expr.target
        simple = self._lvalue_is_simple_local(target)
        if expr.op == "=":
            if simple is not None:
                self._gen_expr(expr.value)
                index = self._local_map[id(simple)]
                if want_value:
                    fb.local_tee(index)
                else:
                    fb.local_set(index)
                return
            self._gen_lvalue_addr(target)
            self._gen_expr(expr.value)
            if want_value:
                sv = self._scratch_local(expr.ctype.wasm_type, 1)
                fb.local_tee(sv)
            store, align = _store_op(_stored_type(target))
            fb.emit(store, align, 0)
            if want_value:
                fb.local_get(sv)
            return

        # Compound assignment: target = target OP value
        binop = expr.op[:-1]
        if simple is not None:
            index = self._local_map[id(simple)]
            fb.local_get(index)
            self._apply_compound(expr, binop, simple.var_type)
            if want_value:
                fb.local_tee(index)
            else:
                fb.local_set(index)
            return
        sa = self._scratch_local(I32, 0)
        self._gen_lvalue_addr(target)
        fb.local_tee(sa)
        stored = _stored_type(target)
        load, lalign = _load_op(stored)
        fb.emit(load, lalign, 0)
        # ``sa`` holds the target's address while the value is generated,
        # so the value's own compound assignments and increments use the
        # slots one depth deeper.
        self._scratch_depth += 1
        self._apply_compound(expr, binop, expr.ctype)
        self._scratch_depth -= 1
        if want_value:
            sv = self._scratch_local(expr.ctype.wasm_type, 1)
            fb.local_set(sv)
            fb.local_get(sa)
            fb.local_get(sv)
        else:
            sv = self._scratch_local(expr.ctype.wasm_type, 1)
            fb.local_set(sv)
            fb.local_get(sa)
            fb.local_get(sv)
        store, salign = _store_op(stored)
        fb.emit(store, salign, 0)
        if want_value:
            fb.local_get(sv)

    def _apply_compound(self, expr: ast.Assign, binop: str,
                        target_type: CType) -> None:
        """With the old value on the stack, compute the new value."""
        fb = self._fb
        t = expr.ctype
        if t.is_pointer:
            self._gen_expr(expr.value)
            if t.pointee.size != 1:
                fb.i32_const(t.pointee.size)
                fb.emit(op.I32_MUL)
            fb.emit(op.I32_ADD if binop == "+" else op.I32_SUB)
            return
        # Arithmetic compound assignment computes in the common type of
        # target and value, then converts back to the target type.
        value_type = expr.value.ctype
        from ..minic.typesys import common_arith_type, promote
        work = common_arith_type(t, value_type)
        self._emit_conversion(t, work)
        self._gen_expr(expr.value)
        self._emit_conversion(value_type, work)
        self._emit_binop(binop, work)
        self._emit_conversion(work, t)

    def _gen_incdec(self, expr: ast.IncDec, want_value: bool) -> None:
        fb = self._fb
        t = expr.ctype
        step = t.pointee.size if t.is_pointer else 1
        simple = self._lvalue_is_simple_local(expr.target)
        wt = t.wasm_type
        if simple is not None:
            index = self._local_map[id(simple)]
            if want_value and not expr.prefix:
                fb.local_get(index)  # old value as result
            fb.local_get(index)
            self._push_step(t, step)
            self._emit_step_op(t, expr.op)
            if want_value and expr.prefix:
                fb.local_tee(index)
            else:
                fb.local_set(index)
            return
        sa = self._scratch_local(I32, 0)
        sv = self._scratch_local(wt, 1)
        self._gen_lvalue_addr(expr.target)
        fb.local_tee(sa)
        stored = _stored_type(expr.target)
        load, lalign = _load_op(stored)
        fb.emit(load, lalign, 0)
        fb.local_set(sv)
        fb.local_get(sa)
        fb.local_get(sv)
        self._push_step(t, step)
        self._emit_step_op(t, expr.op)
        store, salign = _store_op(stored)
        if want_value and expr.prefix:
            sv2 = self._scratch_local(wt, 2)
            fb.local_tee(sv2)
            fb.emit(store, salign, 0)
            fb.local_get(sv2)
        else:
            fb.emit(store, salign, 0)
            if want_value:
                fb.local_get(sv)  # postfix: old value

    def _push_step(self, t: CType, step: int) -> None:
        fb = self._fb
        wt = t.wasm_type
        if wt == I32:
            fb.i32_const(step)
        elif wt == I64:
            fb.i64_const(step)
        elif wt == F32:
            fb.f32_const(1.0)
        else:
            fb.f64_const(1.0)

    def _emit_step_op(self, t: CType, incop: str) -> None:
        fb = self._fb
        wt = t.wasm_type
        add = {I32: op.I32_ADD, I64: op.I64_ADD,
               F32: op.F32_ADD, F64: op.F64_ADD}[wt]
        sub = {I32: op.I32_SUB, I64: op.I64_SUB,
               F32: op.F32_SUB, F64: op.F64_SUB}[wt]
        fb.emit(add if incop == "++" else sub)

    def _gen_unary(self, expr: ast.Unary) -> None:
        fb = self._fb
        t = expr.ctype
        if expr.op == "!":
            inner_t = expr.operand.ctype
            self._gen_expr(expr.operand)
            wt = inner_t.wasm_type
            if wt == I32:
                fb.emit(op.I32_EQZ)
            elif wt == I64:
                fb.emit(op.I64_EQZ)
            elif wt == F32:
                fb.f32_const(0.0)
                fb.emit(op.F32_EQ)
            else:
                fb.f64_const(0.0)
                fb.emit(op.F64_EQ)
            return
        if expr.op == "-":
            if t.is_float:
                self._gen_expr(expr.operand)
                fb.emit(op.F32_NEG if t == FLOAT else op.F64_NEG)
            elif t.wasm_type == I64:
                fb.i64_const(0)
                self._gen_expr(expr.operand)
                fb.emit(op.I64_SUB)
            else:
                fb.i32_const(0)
                self._gen_expr(expr.operand)
                fb.emit(op.I32_SUB)
            return
        if expr.op == "~":
            self._gen_expr(expr.operand)
            if t.wasm_type == I64:
                fb.i64_const(-1)
                fb.emit(op.I64_XOR)
            else:
                fb.i32_const(-1)
                fb.emit(op.I32_XOR)
            return
        raise CompileError(f"unhandled unary {expr.op}")

    def _gen_binary(self, expr: ast.Binary) -> None:
        fb = self._fb
        o = expr.op
        if o == "&&":
            label = self._label("and")
            self._gen_condition(expr.left)
            fb.if_(label, I32)
            self._gen_condition(expr.right)
            self._normalize_bool(expr.right)
            fb.else_()
            fb.i32_const(0)
            fb.end()
            return
        if o == "||":
            label = self._label("or")
            self._gen_condition(expr.left)
            fb.if_(label, I32)
            fb.i32_const(1)
            fb.else_()
            self._gen_condition(expr.right)
            self._normalize_bool(expr.right)
            fb.end()
            return

        lt = expr.left.ctype
        if o in ("==", "!=", "<", ">", "<=", ">="):
            self._gen_expr(expr.left)
            self._gen_expr(expr.right)
            self._emit_compare(o, lt)
            return

        t = expr.ctype
        if t.is_pointer:
            if o == "+":
                # one side is the pointer
                if lt.is_pointer:
                    self._gen_expr(expr.left)
                    self._gen_expr(expr.right)
                    self._scale_index(t.pointee.size)
                else:
                    self._gen_expr(expr.right)
                    self._gen_expr(expr.left)
                    self._scale_index(t.pointee.size)
                fb.emit(op.I32_ADD)
                return
            if o == "-":
                self._gen_expr(expr.left)
                self._gen_expr(expr.right)
                self._scale_index(t.pointee.size)
                fb.emit(op.I32_SUB)
                return
        if o == "-" and lt.is_pointer and expr.right.ctype.is_pointer:
            self._gen_expr(expr.left)
            self._gen_expr(expr.right)
            fb.emit(op.I32_SUB)
            size = lt.pointee.size
            if size != 1:
                fb.i32_const(size)
                fb.emit(op.I32_DIV_S)
            return

        self._gen_expr(expr.left)
        self._gen_expr(expr.right)
        self._emit_binop(o, t)

    def _normalize_bool(self, expr: ast.Expr) -> None:
        """Ensure an i32 truth value is exactly 0 or 1."""
        fb = self._fb
        if isinstance(expr, ast.Binary) and expr.op in (
                "==", "!=", "<", ">", "<=", ">=", "&&", "||"):
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            return
        fb.i32_const(0)
        fb.emit(op.I32_NE)

    def _scale_index(self, size: int) -> None:
        if size != 1:
            self._fb.i32_const(size)
            self._fb.emit(op.I32_MUL)

    def _emit_compare(self, o: str, operand_type: CType) -> None:
        fb = self._fb
        t = operand_type
        if t.is_pointer:
            fb.emit(_I32_CMP_U[o])
        elif t.kind == "long":
            fb.emit((_I64_CMP_U if t.unsigned else _I64_CMP_S)[o])
        elif t == FLOAT:
            fb.emit(_F32_CMP[o])
        elif t == DOUBLE:
            fb.emit(_F64_CMP[o])
        else:
            fb.emit((_I32_CMP_U if t.unsigned else _I32_CMP_S)[o])

    def _emit_binop(self, o: str, t: CType) -> None:
        fb = self._fb
        wt = t.wasm_type
        if wt == I32:
            if o in _I32_BIN:
                fb.emit(_I32_BIN[o])
            elif o == "/":
                fb.emit(op.I32_DIV_U if t.unsigned else op.I32_DIV_S)
            elif o == "%":
                fb.emit(op.I32_REM_U if t.unsigned else op.I32_REM_S)
            elif o == ">>":
                fb.emit(op.I32_SHR_U if t.unsigned else op.I32_SHR_S)
            else:
                raise CompileError(f"unhandled i32 operator {o}")
        elif wt == I64:
            if o in _I64_BIN:
                fb.emit(_I64_BIN[o])
            elif o == "/":
                fb.emit(op.I64_DIV_U if t.unsigned else op.I64_DIV_S)
            elif o == "%":
                fb.emit(op.I64_REM_U if t.unsigned else op.I64_REM_S)
            elif o == ">>":
                fb.emit(op.I64_SHR_U if t.unsigned else op.I64_SHR_S)
            else:
                raise CompileError(f"unhandled i64 operator {o}")
        elif wt == F32:
            if o not in _F32_BIN:
                raise CompileError(f"unhandled f32 operator {o}")
            fb.emit(_F32_BIN[o])
        else:
            if o not in _F64_BIN:
                raise CompileError(f"unhandled f64 operator {o}")
            fb.emit(_F64_BIN[o])

    def _gen_call(self, expr: ast.Call, want_value: bool) -> None:
        fb = self._fb
        func = expr.func
        if isinstance(func, ast.Ident) and func.binding[0] == "builtin":
            name = func.binding[1]
            for arg in expr.args:
                self._gen_expr(arg)
            if name == "__builtin_heap_base":
                fb.i32_const(self.heap_base)
            else:
                for opcode in _BUILTIN_OPS[name]:
                    fb.emit(opcode)
            if not want_value and not expr.ctype.is_void:
                fb.emit(op.DROP)
            return
        if isinstance(func, ast.Ident) and func.binding[0] == "func":
            name = func.binding[1]
            for arg in expr.args:
                self._gen_expr(arg)
            if name in WASI_EXTERNS:
                fb.call(self._imports_used[name])
            else:
                fb.call_named(name)
            if not want_value and not expr.ctype.is_void:
                fb.emit(op.DROP)
            return
        # Indirect call through a function pointer (a table index).
        sig = func.ctype.pointee
        for arg in expr.args:
            self._gen_expr(arg)
        self._gen_expr(func)
        ftype = FuncType(tuple(p.decay().wasm_type for p in sig.params),
                         () if sig.ret.is_void else (sig.ret.wasm_type,))
        type_index = self.mb.intern_type(ftype)
        fb.emit(op.CALL_INDIRECT, type_index, 0)
        if not want_value and not expr.ctype.is_void:
            fb.emit(op.DROP)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def _gen_cast(self, expr: ast.Cast) -> None:
        self._gen_expr(expr.operand)
        self._emit_conversion(expr.operand.ctype, expr.target_type)

    def _emit_conversion(self, src: CType, dst: CType) -> None:
        fb = self._fb
        if src == dst or dst.is_void:
            return
        swt = src.wasm_type if not src.is_void else None
        dwt = dst.wasm_type

        if src.is_pointer:
            src = UINT
            swt = I32
        if dst.is_pointer:
            dst = UINT
            dwt = I32

        if src.is_float and dst.is_float:
            fb.emit(op.F64_PROMOTE_F32 if dst == DOUBLE else op.F32_DEMOTE_F64)
            return
        if src.is_float and dst.is_integer:
            if dwt == I64:
                if src == FLOAT:
                    fb.emit(op.I64_TRUNC_F32_U if dst.unsigned
                            else op.I64_TRUNC_F32_S)
                else:
                    fb.emit(op.I64_TRUNC_F64_U if dst.unsigned
                            else op.I64_TRUNC_F64_S)
            else:
                if src == FLOAT:
                    fb.emit(op.I32_TRUNC_F32_U if dst.unsigned
                            else op.I32_TRUNC_F32_S)
                else:
                    fb.emit(op.I32_TRUNC_F64_U if dst.unsigned
                            else op.I32_TRUNC_F64_S)
                self._narrow_i32(dst)
            return
        if src.is_integer and dst.is_float:
            if swt == I64:
                if dst == FLOAT:
                    fb.emit(op.F32_CONVERT_I64_U if src.unsigned
                            else op.F32_CONVERT_I64_S)
                else:
                    fb.emit(op.F64_CONVERT_I64_U if src.unsigned
                            else op.F64_CONVERT_I64_S)
            else:
                if dst == FLOAT:
                    fb.emit(op.F32_CONVERT_I32_U if src.unsigned
                            else op.F32_CONVERT_I32_S)
                else:
                    fb.emit(op.F64_CONVERT_I32_U if src.unsigned
                            else op.F64_CONVERT_I32_S)
            return
        if src.is_integer and dst.is_integer:
            if swt == I32 and dwt == I64:
                fb.emit(op.I64_EXTEND_I32_U if src.unsigned
                        else op.I64_EXTEND_I32_S)
            elif swt == I64 and dwt == I32:
                fb.emit(op.I32_WRAP_I64)
                self._narrow_i32(dst)
            else:
                self._narrow_i32(dst)
            return
        raise CompileError(f"cannot convert {src} to {dst}")

    def _narrow_i32(self, dst: CType) -> None:
        """Truncate an i32 value to char/short width (value semantics)."""
        fb = self._fb
        if dst.kind == "char":
            if dst.unsigned:
                fb.i32_const(0xFF)
                fb.emit(op.I32_AND)
            else:
                fb.i32_const(24)
                fb.emit(op.I32_SHL)
                fb.i32_const(24)
                fb.emit(op.I32_SHR_S)
        elif dst.kind == "short":
            if dst.unsigned:
                fb.i32_const(0xFFFF)
                fb.emit(op.I32_AND)
            else:
                fb.i32_const(16)
                fb.emit(op.I32_SHL)
                fb.i32_const(16)
                fb.emit(op.I32_SHR_S)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _wrap_signed(value: int, bits: int) -> int:
    mask = (1 << bits) - 1
    value &= mask
    if value >> (bits - 1):
        value -= 1 << bits
    return value


def _stored_type(target: ast.Expr) -> CType:
    """The in-memory type a store to this lvalue writes."""
    if isinstance(target, ast.Ident):
        return target.binding[1].var_type
    if isinstance(target, ast.Deref):
        return target.operand.ctype.pointee
    if isinstance(target, ast.Index):
        return target.base.ctype.pointee
    raise CompileError("unsupported lvalue")


#: Per-class tuple of walkable field names (non-child metadata fields
#: pre-filtered), so the walker loop skips the membership tests.
_WALK_FIELDS: dict = {}


def _walk_field_names(cls):
    names = _WALK_FIELDS.get(cls)
    if names is None:
        skip = ("ctype", "target_type", "var_type", "binding")
        names = tuple(n for n in ast.field_names(cls) if n not in skip)
        _WALK_FIELDS[cls] = names
    return names


def _walk_exprs(node):
    """Return every expression node in a statement/expression tree."""
    out = []
    stack = [node]
    pop = stack.pop
    extend = stack.extend
    is_expr = ast.Expr
    walkable = (ast.Expr, ast.Stmt, ast.SwitchCase)
    walk_field_names = _walk_field_names
    while stack:
        current = pop()
        if current is None:
            continue
        if isinstance(current, list):
            extend(current)
            continue
        if isinstance(current, is_expr):
            out.append(current)
        if isinstance(current, walkable):
            for name in walk_field_names(current.__class__):
                stack.append(getattr(current, name))
    return out


def _called_names(func: ast.FuncDef) -> Set[str]:
    names: Set[str] = set()
    for expr in _walk_exprs(func.body):
        if isinstance(expr, ast.Ident) and expr.binding \
                and expr.binding[0] == "func":
            names.add(expr.binding[1])
        elif isinstance(expr, ast.Ident) and expr.binding is None:
            pass
        elif isinstance(expr, ast.Call) and isinstance(expr.func, ast.Ident) \
                and expr.func.binding is None:
            names.add(expr.func.name)
    return names


def _collect_global_refs(func: ast.FuncDef, out: Set[str]) -> None:
    for expr in _walk_exprs(func.body):
        if isinstance(expr, ast.Ident) and expr.binding \
                and expr.binding[0] == "global":
            out.add(expr.binding[1].name)


def _string_literals(func: ast.FuncDef):
    for expr in _walk_exprs(func.body):
        if isinstance(expr, ast.StrLit):
            yield expr


def _has_indirect_call(func: ast.FuncDef) -> bool:
    for expr in _walk_exprs(func.body):
        if isinstance(expr, ast.Call) and not (
                isinstance(expr.func, ast.Ident) and expr.func.binding
                and expr.func.binding[0] in ("func", "builtin")):
            return True
    return False


def _all_decls(func: ast.FuncDef) -> List[ast.VarDecl]:
    decls: List[ast.VarDecl] = list(getattr(func, "param_decls", []))
    stack: List = [func.body]
    seen = set()
    ordered: List[ast.VarDecl] = []
    for d in decls:
        seen.add(id(d))
        ordered.append(d)

    def visit(node):
        if node is None:
            return
        if isinstance(node, ast.VarDecl):
            if id(node) not in seen:
                seen.add(id(node))
                ordered.append(node)
            return
        if isinstance(node, ast.Block):
            for s in node.statements:
                visit(s)
        elif isinstance(node, ast.If):
            visit(node.then)
            visit(node.other)
        elif isinstance(node, (ast.While, ast.DoWhile)):
            visit(node.body)
        elif isinstance(node, ast.For):
            visit(node.init)
            visit(node.body)
        elif isinstance(node, ast.Switch):
            for case in node.cases:
                for s in case.body:
                    visit(s)

    visit(func.body)
    return ordered


def _global_init_bytes(glob: ast.GlobalVar, string_addr: Dict[bytes, int],
                       intern) -> Optional[bytes]:
    """Serialize a global's initializer into raw little-endian bytes."""
    import struct as _struct
    t = glob.var_type
    if glob.init is None and glob.init_list is None:
        return None
    if glob.init_list is not None:
        elem = t
        while elem.is_array:
            elem = elem.elem
        out = bytearray(t.size)
        from ..minic.parser import _fold_const_int
        for i, item in enumerate(glob.init_list):
            value = _item_const(item)
            _pack_scalar(out, i * elem.size, elem, value)
        return bytes(out)
    if isinstance(glob.init, ast.StrLit):
        if t.is_array:
            out = bytearray(t.size)
            out[:len(glob.init.value)] = glob.init.value
            return bytes(out)
        # char* global pointing at an interned string
        out = bytearray(4)
        _struct.pack_into("<I", out, 0, string_addr[glob.init.value])
        return bytes(out)
    value = _item_const(glob.init)
    out = bytearray(t.size)
    _pack_scalar(out, 0, t, value)
    return bytes(out)


def _item_const(item: ast.Expr):
    from ..minic.parser import _fold_const_int
    if isinstance(item, ast.FloatLit):
        return item.value
    if isinstance(item, ast.IntLit):
        return item.value
    if isinstance(item, ast.Cast):
        return _item_const(item.operand)
    if isinstance(item, ast.Unary) and item.op == "-":
        return -_item_const(item.operand)
    folded = _fold_const_int(item)
    if folded is None:
        raise CompileError("non-constant global initializer")
    return folded


def _pack_scalar(out: bytearray, offset: int, t: CType, value) -> None:
    import struct as _struct
    if t.kind == "double":
        _struct.pack_into("<d", out, offset, float(value))
    elif t.kind == "float":
        _struct.pack_into("<f", out, offset, float(value))
    elif t.kind == "long":
        _struct.pack_into("<Q", out, offset, int(value) & (2 ** 64 - 1))
    elif t.kind == "short":
        _struct.pack_into("<H", out, offset, int(value) & 0xFFFF)
    elif t.kind == "char":
        out[offset] = int(value) & 0xFF
    else:
        _struct.pack_into("<I", out, offset, int(value) & 0xFFFFFFFF)


def generate_module(unit: ast.TranslationUnit, analyzer: SemanticAnalyzer,
                    entry: str = "main") -> Module:
    """Convenience wrapper: typed AST -> validated Wasm module."""
    return CodeGenerator(unit, analyzer, entry).generate()
