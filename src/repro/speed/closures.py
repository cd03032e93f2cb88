"""Closure compilation: one ``exec``-compiled Python function per Wasm
function — a template JIT *of the model itself*.

The reference loop (``Interpreter._run_ref``) pays, per executed op, an
opcode classification chain, side-table and codec dict lookups, and a
method call per model update.  This module walks a function's
predecoded ``fcode`` (:mod:`repro.speed.predecode`) once and emits
specialized Python *source* — every opcode's semantics, its modeled
charges, the branch-predictor and L1I fast paths, and every
per-instruction constant inlined as a literal — then ``exec``-compiles
that source into a closure the interpreter calls instead of its
dispatch loop.

**Byte-identity.**  The generated code performs exactly the model
updates of the reference loop, in the same order.  The indirect-target
predictor (``BranchPredictor.indirect_branch``) and the L1I hit path of
``Cache.access_line`` are inlined with their state shadowed in frame
locals (pending ``instr``/``stall``/``br``/``ldr`` counts, the predictor
target history, the L1I tick), written back at every observation
point: before guest/host calls, before every trap, and at frame exit.
Slow paths (predictor update, L1I miss, trap-time flush) go through
per-frame helper closures so the generated source stays compact.
tests/test_closures.py holds the differential harness that enforces all
of this.

**Control flow.**  Structured Wasm control flow was already flattened
to pc-level jumps by the prepare pass, so the generator lowers each
function to a *block trampoline*: basic blocks (split at every branch
target and after every branch) laid out in an ``if _b == k`` chain
inside ``while True``, with jumps compiled to ``_b = <block>``.
``br_table`` dispatches through an inlined pc-to-block literal dict.
A branch target inside a fused group starts its own block from the
group's preserved single-op tail entries.

**Tiering.**  Nothing here runs up front: a function starts in the
reference loop, and :class:`repro.speed.modcache.LazyClosures`
predecodes and compiles it only once it is hot.
:func:`compile_bundle` generates the source of the requested functions,
which names the semantic callables, codec methods and inline-cache
dicts it needs as constants, and :func:`bind_bundle` ``exec``-compiles
it.  Each ``_c<i>(I, args, stack=None, _b=0)`` has two entries: a call
(``args`` are the parameters) and on-stack replacement from a reference
loop frame (``args`` is the frame's full locals list, ``stack`` its
operand stack, ``_b`` the block index of the loop header it reached,
looked up in ``_c<i>.osr_blocks``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..errors import ReproError, Trap
from ..wasm import opcodes as op
from .predecode import (
    F_LG_CONST_BIN, F_LG_CONST_CMP_BRIF, F_LG_CONST_STORE, F_LG_LG_BIN,
    F_LG_LG_CMP_BRIF, F_LG_LG_STORE, F_LG_LOAD, K_BAD, K_BIN, K_BR,
    K_BR_IF, K_BR_TABLE, K_CALL, K_CALL_INDIRECT, K_CONST, K_DROP, K_ELSE,
    K_GLOBAL_GET, K_GLOBAL_SET, K_IF, K_LOAD, K_LOCAL_GET, K_LOCAL_SET,
    K_LOCAL_TEE, K_MEMORY_GROW, K_MEMORY_SIZE, K_PASS, K_RETURN, K_SELECT,
    K_STORE, K_UN, K_UNREACHABLE)
# LazyClosures.compile predecodes through this module's binding, which
# hostbench/layers.py traces.
from .predecode import predecode_functions  # noqa: F401

#: A bundle: {func_index: (source text, [(constant name, object), ...])}.
Bundle = Dict[int, Tuple[str, List[Tuple[str, object]]]]

#: fcode kinds that end a basic block.
_TERMINATORS = frozenset((
    K_BR_IF, K_BR, K_IF, K_ELSE, K_BR_TABLE, K_RETURN, K_UNREACHABLE,
    K_BAD, F_LG_LG_CMP_BRIF, F_LG_CONST_CMP_BRIF))

#: Index of the sequential-next-pc field per fused (non-branch) kind.
_FUSED_NEXT = {F_LG_LG_BIN: 14, F_LG_CONST_BIN: 14, F_LG_LOAD: 13,
               F_LG_LG_STORE: 17, F_LG_CONST_STORE: 16}

_FLUSH = "_flush(instr, stall, br, ldr, l1i_refs, th, l1i_tick)"


class _Consts:
    """Objects the generated source references by name (``G<n>``):
    the semantic callables, codec methods and ``call_indirect`` inline
    caches already held by the predecoded fcode."""

    def __init__(self):
        self._names: Dict[int, str] = {}
        self.items: List[Tuple[str, object]] = []

    def ref(self, value) -> str:
        name = self._names.get(id(value))
        if name is None:
            name = self._names[id(value)] = f"G{len(self.items)}"
            self.items.append((name, value))
        return name


def _lit(value, consts: _Consts) -> str:
    """A source literal for ``value``, or a named constant when repr
    would not round-trip (non-finite floats)."""
    if isinstance(value, bool):
        return repr(value)
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return repr(value)
    return consts.ref(value)


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


def compile_bundle(prepared: List, fcode_map: Dict[int, list],
                   line_shift: int, indices) -> Bundle:
    """Generate closure source for the wasm functions ``indices`` from
    their predecoded ``fcode_map`` bodies."""
    return {index: _gen_function(prepared[index][1], fcode_map[index],
                                 line_shift)
            for index in indices}


def bind_bundle(bundle: Bundle) -> Dict[int, object]:
    """Exec-compile a bundle into per-function callables."""
    code: Dict[int, object] = {}
    for index, (source, consts) in bundle.items():
        namespace = {"Trap": Trap, "ReproError": ReproError}
        namespace.update(consts)
        exec(compile(source, f"<speed-closure f{index}>", "exec"),
             namespace)
        code[index] = namespace[f"_c{index}"]
    return code


def _collect_labels(fcode: list, n: int) -> List[int]:
    """Basic-block leaders: entry, every branch target, and the
    fall-through successor of every conditional branch."""
    labels = {0}
    for pc, e in enumerate(fcode):
        k = e[0]
        if k == K_BR_IF:
            labels.add(e[5])
            labels.add(pc + 1)
        elif k == K_BR or k == K_ELSE:
            labels.add(e[5])
        elif k == K_IF:
            labels.add(e[5])
            labels.add(pc + 1)
        elif k == K_BR_TABLE:
            for tgt, _arity, _hgt in e[5]:
                labels.add(tgt)
            labels.add(e[6][0])
        elif k == F_LG_LG_CMP_BRIF or k == F_LG_CONST_CMP_BRIF:
            labels.add(e[17])
            labels.add(e[20])
    return sorted(label for label in labels if 0 <= label < n)


class _Emitter:
    """Accumulates indented source lines."""

    def __init__(self):
        self.lines: List[str] = []

    def emit(self, indent: int, *lines: str) -> None:
        pad = "    " * indent
        for line in lines:
            self.lines.append(pad + line)


def _gen_function(pf, fcode: list,
                  line_shift: int) -> Tuple[str, List[Tuple[str, object]]]:
    n = len(fcode)
    consts = _Consts()
    out = _Emitter()
    guest_line_base = 0x1000_0000 >> line_shift
    load_trap = repr(pf.name + ": load at %d") + " % addr"
    store_trap = repr(pf.name + ": store at %d") + " % addr"

    labels = _collect_labels(fcode, n)
    block_of = {label: i for i, label in enumerate(labels)}

    # Loop-invariant hoisting: every predictor site index (``site &
    # imask``) and every L1I set dict (``l1i_sets[line & smask]``) is a
    # pure function of a compile-time literal and a per-interpreter
    # constant, so both are computed once in the prelude and named
    # ``S<n>`` / ``C<n>``.  The set dicts are stable objects — a
    # :class:`~repro.hw.cache.Cache` never replaces a set in place (only
    # mutates it), and pre-touching a defaultdict set is unobservable
    # (empty sets count zero occupancy and fail membership tests).
    sites: Dict[int, str] = {}
    cache_sets: Dict[int, str] = {}

    def site_name(site: int) -> str:
        name = sites.get(site)
        if name is None:
            name = f"S{len(sites)}"
            sites[site] = name
        return name

    def set_name(line: int) -> str:
        name = cache_sets.get(line)
        if name is None:
            name = f"C{len(cache_sets)}"
            cache_sets[line] = name
        return name

    def goto(target: int) -> str:
        # ``break`` leaves the trampoline straight into the epilogue —
        # exactly the reference loop's exit at the end of the body.
        if target >= n:
            return "break"
        return f"_b = {block_of[target]}"

    # -- model-update emitters (the model methods, inlined) -------------

    def emit_pred(ind: int, site: int, target) -> None:
        # ``target`` is an int literal for static sites, or the name of
        # a local holding the runtime target (br_table).
        t = target if isinstance(target, str) else repr(target)
        si = site_name(site)
        out.emit(ind,
                 "hi = th & imask",
                 "br += 1",
                 f"if btb_get({si}) == {t} and itc_get(hi) == {t}:",
                 f"    th = ((th << 4) ^ {t}) & imask",
                 "else:",
                 f"    th, stall = _bp({si}, hi, {t}, th, stall)")

    def emit_l1i(ind: int, line: int) -> None:
        cs = set_name(line)
        out.emit(ind,
                 f"if {line} in {cs}:",
                 "    l1i_tick += 1",
                 "    l1i_refs += 1",
                 f"    {cs}[{line}] = l1i_tick",
                 "else:",
                 f"    l1i_tick, l1i_refs, stall = "
                 f"_l1i({line}, l1i_tick, l1i_refs, stall)")

    def emit_head(ind: int, e: tuple) -> None:
        out.emit(ind, f"instr += {e[1]}")
        emit_pred(ind, e[2], e[3])
        out.emit(ind, "ldr += 2")
        emit_l1i(ind, e[4])

    def emit_unwind(ind: int, arity: int, height: int) -> None:
        if arity:
            out.emit(ind,
                     f"vals = stack[-{arity}:]",
                     f"del stack[{height}:]",
                     "stack.extend(vals)")
        else:
            out.emit(ind, f"del stack[{height}:]")

    def emit_trap_guard(ind: int, size: int, msg: str) -> None:
        out.emit(ind,
                 f"if addr + {size} > mem.size:",
                 f"    {_FLUSH}",
                 f"    raise Trap('out of bounds memory access', {msg})")

    def emit_sem_try(ind: int, expr: str) -> None:
        out.emit(ind,
                 "try:",
                 f"    {expr}",
                 "except Trap:",
                 f"    {_FLUSH}",
                 "    raise")

    def emit_call_flush(ind: int) -> None:
        out.emit(ind, _FLUSH,
                 "instr = 0", "stall = 0", "br = 0", "ldr = 0",
                 "l1i_refs = 0")

    def emit_call_resume(ind: int) -> None:
        out.emit(ind,
                 "th = branches._target_history",
                 "l1i_tick = l1i.tick",
                 "if result is not None:",
                 "    push(result)")

    # -- one fcode entry --------------------------------------------------

    def emit_entry(ind: int, pc: int, e: tuple) -> int:
        """Emit entry ``e`` at ``pc``; return the next pc, or -1 when
        the entry terminated the block."""
        k = e[0]
        emit_head(ind, e)
        if k == K_LOCAL_GET:
            out.emit(ind, f"push(L{e[5]})")
        elif k == K_CONST:
            out.emit(ind, f"push({_lit(e[5], consts)})")
        elif k == K_BIN:
            fn = consts.ref(e[5])
            out.emit(ind, "b = pop()", "a = pop()")
            emit_sem_try(ind, f"push({fn}(a, b))")
        elif k == K_LOCAL_SET:
            out.emit(ind, f"L{e[5]} = pop()")
        elif k == K_LOCAL_TEE:
            out.emit(ind, f"L{e[5]} = stack[-1]")
        elif k == K_UN:
            fn = consts.ref(e[5])
            emit_sem_try(ind, f"stack[-1] = {fn}(stack[-1])")
        elif k == K_LOAD:
            unpack = consts.ref(e[6])
            out.emit(ind, f"addr = pop() + {e[8]}")
            emit_trap_guard(ind, e[5], load_trap)
            out.emit(ind, f"value = {unpack}(mem.data, addr)[0]")
            out.emit(ind, f"push(value & {e[7]})" if e[7]
                     else "push(value)")
            out.emit(ind, f"stall += l1d_access({guest_line_base} + "
                          f"(addr >> {line_shift}))")
        elif k == K_STORE:
            pack = consts.ref(e[6])
            out.emit(ind, "value = pop()", f"addr = pop() + {e[8]}")
            emit_trap_guard(ind, e[5], store_trap)
            out.emit(ind,
                     f"{pack}(mem.data, addr, value & {e[7]})" if e[7]
                     else f"{pack}(mem.data, addr, value)",
                     "mem.touched.add(addr >> 12)",
                     f"stall += l1d_access({guest_line_base} + "
                     f"(addr >> {line_shift}))")
        elif k == K_BR_IF:
            out.emit(ind, "cond = pop()",
                     f"cond_branch({e[2]}, bool(cond))",
                     "if cond:")
            emit_unwind(ind + 1, e[6], e[7])
            out.emit(ind + 1, goto(e[5]))
            out.emit(ind, "else:")
            out.emit(ind + 1, goto(pc + 1))
            return -1
        elif k == K_BR:
            emit_unwind(ind, e[6], e[7])
            out.emit(ind, goto(e[5]))
            return -1
        elif k == K_IF:
            out.emit(ind, "cond = pop()",
                     f"cond_branch({e[2]}, not cond)",
                     "if cond:")
            out.emit(ind + 1, goto(pc + 1))
            out.emit(ind, "else:")
            out.emit(ind + 1, goto(e[5]))
            return -1
        elif k == K_ELSE:
            out.emit(ind, goto(e[5]))
            return -1
        elif k == K_PASS:
            pass
        elif k == K_CALL:
            emit_call_flush(ind)
            out.emit(ind,
                     f"callee = functions[{e[5]}]",
                     f"br_call({e[2]})",
                     "if callee[0] == 'host':",
                     "    n_args = callee[2]",
                     "    call_args = stack[len(stack) - n_args:] "
                     "if n_args else []",
                     "    del stack[len(stack) - n_args:]",
                     "    result = callee[1](mem, *call_args)",
                     "else:",
                     "    prepared = callee[1]",
                     "    n_args = prepared.params",
                     "    call_args = stack[len(stack) - n_args:] "
                     "if n_args else []",
                     "    del stack[len(stack) - n_args:]",
                     "    result = exec_(prepared, call_args)",
                     f"br_ret({e[2]})")
            emit_call_resume(ind)
        elif k == K_CALL_INDIRECT:
            ic = consts.ref(e[7])
            emit_call_flush(ind)
            out.emit(ind,
                     "elem_index = pop()",
                     f"callee_index = {ic}.get(elem_index)",
                     "if callee_index is None:",
                     "    if not 0 <= elem_index < len(table):",
                     "        raise Trap('undefined element')",
                     "    callee_index = table[elem_index]",
                     "    if callee_index < 0:",
                     "        raise Trap('uninitialized element')",
                     "    callee = functions[callee_index]",
                     f"    if I._sig_of_type_index({e[5]}) != "
                     "I._sig_of_callee(callee):",
                     "        raise Trap('indirect call type mismatch')",
                     f"    {ic}[elem_index] = callee_index",
                     "else:",
                     "    callee = functions[callee_index]",
                     f"indirect({e[6]}, callee_index)",
                     "if callee[0] == 'host':",
                     "    n_args = callee[2]",
                     "else:",
                     "    n_args = callee[1].params",
                     "call_args = stack[len(stack) - n_args:] "
                     "if n_args else []",
                     "del stack[len(stack) - n_args:]",
                     f"br_call({e[2]})",
                     "if callee[0] == 'host':",
                     "    result = callee[1](mem, *call_args)",
                     "else:",
                     "    result = exec_(callee[1], call_args)",
                     f"br_ret({e[2]})")
            emit_call_resume(ind)
        elif k == K_GLOBAL_GET:
            out.emit(ind, f"push(globals_[{e[5]}])", "ldr += 1")
        elif k == K_GLOBAL_SET:
            out.emit(ind, f"globals_[{e[5]}] = pop()", "ldr += 1")
        elif k == K_DROP:
            out.emit(ind, "pop()")
        elif k == K_SELECT:
            out.emit(ind, "c = pop()", "b = pop()", "a = pop()",
                     "push(a if c else b)")
        elif k == K_BR_TABLE:
            entries = tuple((tgt, arity, hgt) for tgt, arity, hgt in e[5])
            jump = {tgt: block_of.get(tgt, -1)
                    for tgt in sorted({t[0] for t in entries} |
                                      {e[6][0]})}
            out.emit(ind,
                     "index = pop()",
                     f"target = {entries!r}[index] if index < "
                     f"{len(entries)} else {e[6]!r}",
                     "t = target[0]")
            emit_pred(ind, e[2], "t")
            out.emit(ind,
                     "tgt, arity, hgt = target",
                     "if arity:",
                     "    vals = stack[-arity:]",
                     "    del stack[hgt:]",
                     "    stack.extend(vals)",
                     "else:",
                     "    del stack[hgt:]",
                     f"_b = {jump!r}[tgt]")
            return -1
        elif k == K_RETURN:
            out.emit(ind, "break")
            return -1
        elif k == K_MEMORY_SIZE:
            out.emit(ind, "push(mem.pages)")
        elif k == K_MEMORY_GROW:
            out.emit(ind, "counters.instructions += 200",
                     "push(mem.grow(pop()) & 0xFFFFFFFF)")
        elif k == K_UNREACHABLE:
            out.emit(ind, _FLUSH, "raise Trap('unreachable')")
            return -1
        elif k == K_BAD:
            # The reference loses pending instr/stall on this internal
            # error; only the shadowed predictor/cache state is synced.
            msg = "interpreter: unhandled opcode " + op.name_of(e[3])
            out.emit(ind,
                     "counters.branches += br",
                     "l1d.refs += ldr",
                     "l1i_stats.refs += l1i_refs",
                     "branches._target_history = th",
                     "l1i.tick = l1i_tick",
                     f"raise ReproError({msg!r})")
            return -1
        elif k == F_LG_LG_BIN or k == F_LG_CONST_BIN:
            fn = consts.ref(e[13])
            out.emit(ind, "ldr += 4")
            emit_l1i(ind, e[7])
            emit_pred(ind, e[5], e[6])
            emit_pred(ind, e[8], e[9])
            emit_l1i(ind, e[10])
            rhs = f"L{e[12]}" if k == F_LG_LG_BIN else _lit(e[12], consts)
            emit_sem_try(ind, f"push({fn}(L{e[11]}, {rhs}))")
            return e[14]
        elif k == F_LG_LOAD:
            unpack = consts.ref(e[10])
            out.emit(ind, "ldr += 2")
            emit_pred(ind, e[5], e[6])
            emit_l1i(ind, e[7])
            out.emit(ind, f"addr = L{e[8]} + {e[12]}")
            emit_trap_guard(ind, e[9], load_trap)
            out.emit(ind, f"value = {unpack}(mem.data, addr)[0]")
            out.emit(ind, f"push(value & {e[11]})" if e[11]
                     else "push(value)")
            out.emit(ind, f"stall += l1d_access({guest_line_base} + "
                          f"(addr >> {line_shift}))")
            return e[13]
        elif k == F_LG_LG_STORE or k == F_LG_CONST_STORE:
            pack = consts.ref(e[14])
            out.emit(ind, "ldr += 4")
            emit_l1i(ind, e[7])
            emit_pred(ind, e[5], e[6])
            emit_pred(ind, e[8], e[9])
            emit_l1i(ind, e[10])
            if k == F_LG_LG_STORE:
                out.emit(ind,
                         f"value = L{e[12]} & {e[15]}" if e[15]
                         else f"value = L{e[12]}",
                         f"addr = L{e[11]} + {e[16]}")
                size, nxt = e[13], e[17]
            else:
                out.emit(ind,
                         f"value = {_lit(e[12], consts)}",
                         f"addr = L{e[11]} + {e[15]}")
                size, nxt = e[13], e[16]
            emit_trap_guard(ind, size, store_trap)
            out.emit(ind,
                     f"{pack}(mem.data, addr, value)",
                     "mem.touched.add(addr >> 12)",
                     f"stall += l1d_access({guest_line_base} + "
                     f"(addr >> {line_shift}))")
            return nxt
        elif k == F_LG_LG_CMP_BRIF or k == F_LG_CONST_CMP_BRIF:
            fn = consts.ref(e[16])
            out.emit(ind, "ldr += 6")
            emit_l1i(ind, e[7])
            emit_pred(ind, e[5], e[6])
            emit_pred(ind, e[8], e[9])
            emit_l1i(ind, e[10])
            emit_pred(ind, e[11], e[12])
            emit_l1i(ind, e[13])
            rhs = f"L{e[15]}" if k == F_LG_LG_CMP_BRIF \
                else _lit(e[15], consts)
            out.emit(ind,
                     f"cond = {fn}(L{e[14]}, {rhs})",
                     f"cond_branch({e[11]}, bool(cond))",
                     "if cond:")
            emit_unwind(ind + 1, e[18], e[19])
            out.emit(ind + 1, goto(e[17]))
            out.emit(ind, "else:")
            out.emit(ind + 1, goto(e[20]))
            return -1
        else:  # pragma: no cover - exhaustive over the kind set
            raise ReproError(f"closure codegen: unhandled kind {k}")
        return pc + 1

    # -- the block trampoline ----------------------------------------------
    # Generated *before* the prelude so the site/set hoist tables are
    # complete when the prelude's S/C assignments are written out.

    if n:
        out.emit(1, "while True:")
        for bi, label in enumerate(labels):
            out.emit(2, ("if" if bi == 0 else "elif") + f" _b == {bi}:")
            pc = label
            while True:
                if pc >= n:
                    out.emit(3, "break")
                    break
                if pc != label and pc in block_of:
                    out.emit(3, goto(pc))
                    break
                pc = emit_entry(3, pc, fcode[pc])
                if pc < 0:
                    break
        out.emit(2, "else:", "    break")

    # -- epilogue ----------------------------------------------------------

    out.emit(1,
             "counters.instructions += instr",
             "counters.stall_cycles += stall",
             "counters.branches += br",
             "l1d.refs += ldr",
             "l1i_stats.refs += l1i_refs",
             "branches._target_history = th",
             "l1i.tick = l1i_tick")
    if pf.results:
        out.emit(1, "return stack[-1] if stack else 0")
    else:
        out.emit(1, "return None")

    # -- function prelude -------------------------------------------------

    head = _Emitter()
    head.emit(0, f"def _c{pf.index}(I, args, stack=None, _b=0):",
              "    if stack is None:")
    for i, t in enumerate(pf.local_types):
        if i < pf.params:
            head.emit(2, f"L{i} = args[{i}]")
        elif t in (0x7D, 0x7C):
            head.emit(2, f"L{i} = 0.0")
        else:
            head.emit(2, f"L{i} = 0")
    head.emit(2, "stack = []")
    if pf.local_types:
        # On-stack replacement: ``args`` is the reference frame's locals.
        head.emit(1, "else:",
                  "    " + "".join(f"L{i}, " for i in
                                   range(len(pf.local_types))) + "= args")
    head.emit(1,
             "push = stack.append",
             "pop = stack.pop",
             "cpu = I.cpu",
             "counters = cpu.counters",
             "branches = cpu.branches",
             "cond_branch = branches.cond_branch",
             "br_call = branches.call",
             "br_ret = branches.ret",
             "indirect = branches.indirect_branch",
             "penalty = branches.penalty",
             "l1d = counters.l1d",
             "l1i = cpu.caches.l1i",
             "l1i_access = l1i.access_line",
             "l1d_access = cpu.caches.l1d.access_line",
             "mem = I.memory",
             "globals_ = I.globals",
             "functions = I.functions",
             "table = I.table",
             "exec_ = I._exec",
             "imask = branches._itc_mask",
             "btb = branches._btb",
             "btb_get = btb.get",
             "itc = branches._itc",
             "itc_get = itc.get",
             "metad = branches._meta",
             "th = branches._target_history",
             "l1i_sets = l1i.sets",
             "l1i_smask = l1i.set_mask",
             "l1i_stats = l1i.stats",
             "l1i_tick = l1i.tick",
             "instr = 0",
             "stall = 0",
             "br = 0",
             "ldr = 0",
             "l1i_refs = 0",
             # Slow paths: the predictor's update path (its miss
             # penalty charged to the pending stall), an L1I access
             # through the real cache method, and the write-back.
             "def _bp(si, hi, t, th, stall):",
             "    sp = btb.get(si)",
             "    hp = itc.get(hi)",
             "    meta = metad.get(si, 1)",
             "    predicted = hp if meta >= 2 else sp",
             "    if hp == t:",
             "        if sp != t and meta < 3:",
             "            metad[si] = meta + 1",
             "    elif sp == t and meta > 0:",
             "        metad[si] = meta - 1",
             "    btb[si] = t",
             "    itc[hi] = t",
             "    th = ((th << 4) ^ t) & imask",
             "    if predicted != t:",
             "        counters.branch_misses += 1",
             "        stall += penalty",
             "    return th, stall",
             "def _l1i(ln, tick, refs, stall):",
             "    l1i.tick = tick",
             "    l1i_stats.refs += refs",
             "    stall += l1i_access(ln)",
             "    return l1i.tick, 0, stall",
             "def _flush(i, s, b, d, r, t, k):",
             "    counters.instructions += i",
             "    counters.stall_cycles += s",
             "    counters.branches += b",
             "    l1d.refs += d",
             "    l1i_stats.refs += r",
             "    branches._target_history = t",
             "    l1i.tick = k")
    for site, name in sites.items():
        head.emit(1, f"{name} = {site} & imask")
    for line, name in cache_sets.items():
        head.emit(1, f"{name} = l1i_sets[{line} & l1i_smask]")
    # Every branch target is a block leader, so a reference frame can
    # hand over at any loop header it jumps back to.
    out.emit(0, f"_c{pf.index}.osr_blocks = {block_of!r}")

    return "\n".join(head.lines + out.lines) + "\n", consts.items
