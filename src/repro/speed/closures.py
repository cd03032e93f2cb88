"""Closure compilation: one ``exec``-compiled Python function per Wasm
function — a template JIT *of the model itself*.

The reference loop (``Interpreter._run_ref``) pays, per executed op, an
opcode classification chain, side-table and codec dict lookups, and a
method call per model update.  This module walks a function's
predecoded ``fcode`` (:mod:`repro.speed.predecode`) once and emits
specialized Python *source* — every opcode's semantics and every
per-instruction constant inlined as a literal — then ``exec``-compiles
that source into a closure the interpreter calls instead of its
dispatch loop.

**Runs.**  The model is settled once per *run* of fcode entries, not
once per op.  A run starts at a basic block's leader or at a call's
return point and ends at the block's terminator or at the next
``call``/``call_indirect``, inclusive.  Per run:

* ``instr``, ``br`` and ``ldr`` grow by literal sums at its end; a trap
  site flushes the literal partial sums up to and including its op.
* The L1I is probed once per distinct handler line at run entry.  A
  hit never changes residency, the hierarchy is non-inclusive, and a
  run holds no call, so if every line is resident no access of the run
  can miss: each line's tick is then stored from its last access and
  the clock advances by the access count (references are ``tick -
  t0``).  If a line is missing, every access goes through
  ``Cache.access_line`` in op order, interleaved with the run's L1D
  accesses as in the reference.  A run whose only trap site or L1D
  access is its last op settles its L1I at entry; any other run carries
  a ``slow`` flag, and its trap sites store the ticks of the lines
  accessed so far before they raise.
* The dispatch target history advances 4 bits per dispatch whatever the
  prediction, so site indices, history indices after the first
  ``ceil(indirect_bits / 4)`` dispatches and the history at the run end
  are literals.  A dispatch that both predictor tables predict costs two
  list subscripts; any other goes through the ``_bp`` slow path.

The gshare and L1D hit paths are inlined, transcribed from
:mod:`repro.speed.mclosures`.  Everything else the model does runs in
helpers built once per interpreter (:func:`context`).

**Byte identity.**  Each model component (the indirect predictor,
gshare, the RAS, the L1I, the L1D and what lies behind them) sees the
reference loop's events in the reference order, and the whole model
state equals the reference's at every exit, trap and OSR hand-off: the
frame's pending counts, histories and L1 clocks are written back before
every guest or host call, every trap and the frame's exit.
tests/test_closures.py holds the differential harness that enforces
this, down to every cache set's line-to-tick map.

**Control flow.**  Structured Wasm control flow was already flattened
to pc-level jumps by the prepare pass, so the generator lowers each
function to a *block trampoline*: basic blocks (split at every branch
target and after every branch) laid out in an ``if _b == k`` chain
inside ``while True``, with jumps compiled to ``_b = <block>``.
A branch target inside a fused group starts its own block from the
group's preserved single-op tail entries.

**Tiering.**  Nothing here runs up front: a function starts in the
reference loop, and :class:`repro.speed.modcache.LazyClosures`
predecodes and compiles it only once it is hot.
:func:`compile_bundle` generates the source of the requested functions
for one predictor geometry (the masks are literals), naming the
semantic callables, codecs and inline-cache dicts it needs as
constants, and :func:`bind_bundle` ``exec``-compiles it.  Each
``_c<i>(I, args, stack=None, _b=0)`` has two entries: a call (``args``
are the parameters) and on-stack replacement from a reference loop
frame (``args`` is the frame's full locals list, ``stack`` its operand
stack, ``_b`` the block index of the loop header it reached, looked up
in ``_c<i>.osr_blocks``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

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

#: Dispatches (sub-ops) per fused kind; every single is one.
_FUSED_SUBOPS = {F_LG_LG_BIN: 3, F_LG_CONST_BIN: 3, F_LG_LOAD: 2,
                 F_LG_LG_STORE: 3, F_LG_CONST_STORE: 3,
                 F_LG_LG_CMP_BRIF: 4, F_LG_CONST_CMP_BRIF: 4}

#: Index of the sequential-next-pc field per fused (non-branch) kind.
_FUSED_NEXT = {F_LG_LG_BIN: 14, F_LG_CONST_BIN: 14, F_LG_LOAD: 13,
               F_LG_LG_STORE: 17, F_LG_CONST_STORE: 16}

#: Wasm opcodes whose semantic function can raise a Trap (division and
#: checked truncation): the only ALU ops that need a trap-time flush.
_RAISING = frozenset((
    op.I32_DIV_S, op.I32_DIV_U, op.I32_REM_S, op.I32_REM_U,
    op.I64_DIV_S, op.I64_DIV_U, op.I64_REM_S, op.I64_REM_U,
    op.I32_TRUNC_F32_S, op.I32_TRUNC_F32_U, op.I32_TRUNC_F64_S,
    op.I32_TRUNC_F64_U, op.I64_TRUNC_F32_S, op.I64_TRUNC_F32_U,
    op.I64_TRUNC_F64_S, op.I64_TRUNC_F64_U))

#: A frame's shadowed model state, in ``_sync`` order.  L1 references
#: are not counted one by one: each access advances its cache's clock by
#: one, so the references since the last write-back are ``tick - t0``
#: (plus ``ldr``, the operand-stack and global references, for the L1D).
_STATE = "gh, th, l1i_tick, l1i_t0, l1d_tick, l1d_t0"

#: Names a closure unpacks from its interpreter's :func:`context`.
_CONTEXT = ("counters, branches, l1i, l1d, l1i_sets, l1i_smask, l1d_sets, "
            "l1d_smask, btb, itc, gshare, penalty, br_call, br_ret, "
            "indirect, mem, mem_data, touch, globals_, functions, table, "
            "exec_, _bp, _l1i, _l1d, _sync")


def context(interp) -> tuple:
    """The model bindings and slow-path helpers shared by every closure
    an :class:`~repro.runtimes.interp.engine.Interpreter` runs (built
    once per interpreter, as :func:`repro.speed.mclosures.context` is
    per machine); the helpers transcribe the reference's model methods."""
    cpu = interp.cpu
    counters = cpu.counters
    caches = cpu.caches
    l1i, l1d = caches.l1i, caches.l1d
    l1i_stats, l1d_stats = l1i.stats, l1d.stats
    l1i_access, l1d_access = l1i.access_line, l1d.access_line
    branches = cpu.branches
    btb, itc, metas = branches._btb, branches._itc, branches._meta
    penalty = branches.penalty

    def _bp(si, hi, t, stall):
        # BranchPredictor.indirect_branch past its both-tables-hit test;
        # the caller advances the target history.
        sp = btb[si]
        hp = itc[hi]
        meta = metas[si]
        if hp == t:
            if sp != t and meta < 3:
                metas[si] = meta + 1
        elif sp == t and meta > 0:
            metas[si] = meta - 1
        btb[si] = t
        itc[hi] = t
        if (hp if meta >= 2 else sp) != t:
            counters.branch_misses += 1
            stall += penalty
        return stall

    def _l1i(lines, tick, t0, stall):
        l1i.tick = tick
        l1i_stats.refs += tick - t0
        for ln in lines:
            stall += l1i_access(ln)
        tick = l1i.tick
        return tick, tick, stall

    def _l1d(ln, tick, t0, stall):
        l1d.tick = tick
        l1d_stats.refs += tick - t0
        stall += l1d_access(ln)
        tick = l1d.tick
        return tick, tick, stall

    def _sync(instr, stall, br, ldr, gh, th, l1i_tick, l1i_t0, l1d_tick,
              l1d_t0):
        counters.instructions += instr
        counters.stall_cycles += stall
        counters.branches += br
        l1d_stats.refs += ldr + l1d_tick - l1d_t0
        l1i_stats.refs += l1i_tick - l1i_t0
        branches._history = gh
        branches._target_history = th
        l1i.tick = l1i_tick
        l1d.tick = l1d_tick

    mem = interp.memory
    return (counters, branches, l1i, l1d, l1i.sets, l1i.set_mask, l1d.sets,
            l1d.set_mask, btb, itc, branches._gshare, penalty, branches.call,
            branches.ret, branches.indirect_branch, mem, mem.data,
            mem.touched.add, interp.globals, interp.functions, interp.table,
            interp._exec, _bp, _l1i, _l1d, _sync)


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
                   line_shift: int, indices,
                   predictor: Tuple[int, int, int]) -> Bundle:
    """Generate closure source for the wasm functions ``indices`` from
    their predecoded ``fcode_map`` bodies, for the predictor geometry
    ``(indirect_bits, gshare_bits, history_bits)``."""
    return {index: _Gen(prepared[index][1], fcode_map[index], line_shift,
                        predictor).function()
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


def _subops(e: tuple) -> List[tuple]:
    """``(site, opcode, line)`` of each dispatch of an fcode entry."""
    count = _FUSED_SUBOPS.get(e[0], 1)
    return [e[2 + 3 * i:5 + 3 * i] for i in range(count)]


def _may_trap(e: tuple) -> bool:
    """Can the entry trap (or touch the L1D) before its run ends?"""
    k = e[0]
    if k in (K_LOAD, K_STORE, F_LG_LOAD, F_LG_LG_STORE, F_LG_CONST_STORE):
        return True
    if k == K_BIN or k == K_UN:
        return e[3] in _RAISING
    if k == F_LG_LG_BIN or k == F_LG_CONST_BIN:
        return e[9] in _RAISING
    return False


class _Run:
    """The literal model bookkeeping of the run being emitted, up to and
    including the entry being emitted."""

    def __init__(self, entries: List[tuple]):
        #: The run's L1I accesses, one per dispatch, in order.
        self.lines: List[int] = []
        #: The slow path's accesses, in groups that end at each entry
        #: that may trap or touch the L1D, keyed by their first access.
        self.groups: Dict[int, Tuple[int, ...]] = {}
        start = 0
        for i, (_pc, e) in enumerate(entries, 1):
            self.lines += [line for _s, _o, line in _subops(e)]
            if _may_trap(e) or i == len(entries):
                self.groups[start] = tuple(self.lines[start:])
                start = len(self.lines)
        #: More than one group: the run settles its L1I at its end, and a
        #: ``slow`` flag tells its trap sites and its end which way.
        self.flagged = len(self.groups) > 1
        self.instr = self.br = self.ldr = 0
        self.dispatches = 0
        self.history = 0          # sum of t_i << 4 * (k - i), masked


class _Gen:
    """Source of one Wasm function's closure."""

    def __init__(self, pf, fcode: list, line_shift: int,
                 predictor: Tuple[int, int, int]):
        self.pf = pf
        self.fcode = fcode
        self.n = len(fcode)
        self.consts = _Consts()
        self.lines: List[str] = []
        ibits, gbits, hbits = predictor
        self.ibits = ibits
        self.imask = (1 << ibits) - 1
        self.gmask = (1 << gbits) - 1
        self.hmask = (1 << hbits) - 1
        self.line_shift = line_shift
        self.glb = 0x1000_0000 >> line_shift
        self.labels = _collect_labels(fcode, self.n)
        self.block_of = {label: i for i, label in enumerate(self.labels)}
        # Handler line -> name of its L1I set dict, hoisted per call: a
        # Cache never replaces a set (only mutates it), and pre-touching
        # a defaultdict set is unobservable (an empty set counts zero
        # occupancy and fails membership tests).
        self.cache_sets: Dict[int, str] = {}
        self.run: Optional[_Run] = None

    def out(self, ind: int, *lines: str) -> None:
        pad = "    " * ind
        self.lines.extend(pad + line for line in lines)

    def set_name(self, line: int) -> str:
        name = self.cache_sets.get(line)
        if name is None:
            name = self.cache_sets[line] = f"C{len(self.cache_sets)}"
        return name

    def goto(self, target: int) -> str:
        # ``break`` leaves the trampoline straight into the epilogue —
        # exactly the reference loop's exit at the end of the body.
        if target >= self.n:
            return "break"
        return f"_b = {self.block_of[target]}"

    # -- the run's model bookkeeping ----------------------------------

    def history(self) -> str:
        """The target history after the run's dispatches so far."""
        r = self.run
        k = r.dispatches
        if k == 0:
            return "th"
        if 4 * k >= self.ibits:
            return repr(r.history)
        if r.history:
            return f"((th << {4 * k}) ^ {r.history}) & {self.imask}"
        return f"(th << {4 * k}) & {self.imask}"

    def start_run(self, ind: int, entries: List[tuple]) -> None:
        """Probe the run's distinct L1I lines; with one slow-path group,
        settle the whole run's L1I right here."""
        r = self.run = _Run(entries)
        probe = " and ".join(f"{ln} in {self.set_name(ln)}"
                             for ln in dict.fromkeys(r.lines))
        self.out(ind, f"if {probe}:")
        self.out(ind + 1, "slow = False" if r.flagged
                 else self.tick_stores(len(r.lines)))
        self.out(ind, "else:")
        if r.flagged:
            self.out(ind + 1, "slow = True")
        self.out(ind + 1, self.slow_group(0))

    def slow_group(self, start: int) -> str:
        return (f"l1i_tick, l1i_t0, stall = _l1i({self.run.groups[start]!r}"
                ", l1i_tick, l1i_t0, stall)")

    def tick_stores(self, count: int) -> str:
        """Store each line's tick from its last access among the run's
        first ``count`` accesses, then advance the clock."""
        last = {ln: i + 1 for i, ln in enumerate(self.run.lines[:count])}
        return "; ".join([f"{self.set_name(ln)}[{ln}] = l1i_tick + {i}"
                          for ln, i in last.items()] +
                         [f"l1i_tick += {count}"])

    def dispatch(self, ind: int, e: tuple, cond: bool = False) -> None:
        """Account entry ``e``: its literal counts and the prediction of
        each of its dispatches, in the reference order."""
        r = self.run
        subs = _subops(e)
        r.instr += e[1]
        r.br += len(subs) + (1 if cond else 0)
        r.ldr += 2 * len(subs)
        if r.dispatches and r.dispatches in r.groups:
            self.out(ind, "if slow:", "    " + self.slow_group(r.dispatches))
        mask = self.imask
        for site, t, _line in subs:
            si = site & mask
            hi = self.history()
            self.out(ind,
                     f"if btb[{si}] != {t} or itc[{hi}] != {t}:",
                     f"    stall = _bp({si}, {hi}, {t}, stall)")
            r.dispatches += 1
            r.history = ((r.history << 4) ^ t) & mask

    def partial(self) -> str:
        """``_sync`` arguments for a trap inside the run."""
        r = self.run

        def plus(name, value):
            return f"{name} + {value}" if value else name
        return (f"{plus('instr', r.instr)}, stall, {plus('br', r.br)}, "
                f"{plus('ldr', r.ldr)}, gh, {self.history()}, l1i_tick, "
                "l1i_t0, l1d_tick, l1d_t0")

    def trap_flush(self, ind: int) -> None:
        if self.run.flagged:
            self.out(ind, "if not slow:",
                     "    " + self.tick_stores(self.run.dispatches))
        self.out(ind, f"_sync({self.partial()})")

    def end_run(self, ind: int) -> None:
        r = self.run
        sums = [f"{name} += {value}" for name, value in
                (("instr", r.instr), ("br", r.br), ("ldr", r.ldr)) if value]
        self.out(ind, "; ".join(sums + [f"th = {self.history()}"]))
        if r.flagged:
            self.out(ind, "if not slow:",
                     "    " + self.tick_stores(len(r.lines)))

    # -- emitters -------------------------------------------------------

    def cond_branch(self, ind: int, site: int, cond: str,
                    taken: List[str], fall: List[str]) -> None:
        """The gshare update of ``BranchPredictor.cond_branch`` for a
        branch taken when ``cond`` holds, then the code of each way."""
        self.out(ind,
                 f"gi = ({site} ^ gh) & {self.gmask}",
                 "gc = gshare[gi]",
                 f"if {cond}:",
                 "    if gc < 3:",
                 "        gshare[gi] = gc + 1",
                 "        if gc < 2:",
                 "            counters.branch_misses += 1",
                 "            stall += penalty",
                 f"    gh = ((gh << 1) | 1) & {self.hmask}")
        self.out(ind + 1, *taken)
        self.out(ind,
                 "else:",
                 "    if gc:",
                 "        gshare[gi] = gc - 1",
                 "        if gc >= 2:",
                 "            counters.branch_misses += 1",
                 "            stall += penalty",
                 f"    gh = (gh << 1) & {self.hmask}")
        self.out(ind + 1, *fall)

    @staticmethod
    def unwind(arity: int, height: int) -> List[str]:
        if arity:
            return [f"vals = stack[-{arity}:]", f"del stack[{height}:]",
                    "stack.extend(vals)"]
        return [f"del stack[{height}:]"]

    def l1d_access(self, ind: int) -> None:
        self.out(ind,
                 f"ln = {self.glb} + (addr >> {self.line_shift})",
                 "cs = l1d_sets[ln & l1d_smask]",
                 "if ln in cs:",
                 "    l1d_tick += 1",
                 "    cs[ln] = l1d_tick",
                 "else:",
                 "    l1d_tick, l1d_t0, stall = "
                 "_l1d(ln, l1d_tick, l1d_t0, stall)")

    def bounds(self, ind: int, size: int, kind: str) -> None:
        msg = repr(f"{self.pf.name}: {kind} at %d")
        self.out(ind, f"if addr + {size} > mem_size:")
        self.trap_flush(ind + 1)
        self.out(ind + 1,
                 f"raise Trap('out of bounds memory access', {msg} % addr)")

    def semantic(self, ind: int, line: str, raising: bool) -> None:
        if not raising:
            self.out(ind, line)
            return
        self.out(ind, "try:", "    " + line, "except Trap:")
        self.trap_flush(ind + 1)
        self.out(ind + 1, "raise")

    def load(self, ind: int, base: str, size: int, unpack, mask: int,
             offset: int) -> None:
        self.out(ind, f"addr = {base} + {offset}" if offset
                 else f"addr = {base}")
        self.bounds(ind, size, "load")
        value = f"{self.consts.ref(unpack)}(mem_data, addr)[0]"
        self.out(ind, f"push({value} & {mask})" if mask
                 else f"push({value})")
        self.l1d_access(ind)

    def store(self, ind: int, size: int, pack, value: str) -> None:
        self.bounds(ind, size, "store")
        self.out(ind, f"{self.consts.ref(pack)}(mem_data, addr, {value})",
                 "touch(addr >> 12)")
        self.l1d_access(ind)

    def call(self, ind: int, e: tuple) -> None:
        """A ``call``/``call_indirect``: the run ends, the frame's state
        is written back, and read again after the callee returns."""
        self.end_run(ind)
        self.out(ind, f"_sync(instr, stall, br, ldr, {_STATE})",
                 "instr = stall = br = ldr = 0")
        site = e[2]
        if e[0] == K_CALL:
            self.out(ind,
                     f"callee = functions[{e[5]}]",
                     f"br_call({site})",
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
                     "    result = exec_(prepared, call_args)")
        else:
            ic = self.consts.ref(e[7])
            self.out(ind,
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
                     f"br_call({site})",
                     "if callee[0] == 'host':",
                     "    result = callee[1](mem, *call_args)",
                     "else:",
                     "    result = exec_(callee[1], call_args)")
        self.out(ind,
                 f"br_ret({site})",
                 "gh = branches._history",
                 "th = branches._target_history",
                 "l1i_tick = l1i_t0 = l1i.tick",
                 "l1d_tick = l1d_t0 = l1d.tick",
                 "mem_size = mem.size",
                 "if result is not None:",
                 "    push(result)")

    # -- one fcode entry --------------------------------------------------

    def entry(self, ind: int, pc: int, e: tuple) -> None:
        """Emit entry ``e`` at ``pc``; a terminator or a call also ends
        the run."""
        k = e[0]
        out = self.out
        lit = self.consts.ref
        if k in (K_BR_IF, K_IF, F_LG_LG_CMP_BRIF, F_LG_CONST_CMP_BRIF):
            self.dispatch(ind, e, cond=True)
        elif k == K_BR_TABLE:
            self.dispatch(ind, e)
            self.run.br += 1        # the dispatch on the branch target
        else:
            self.dispatch(ind, e)
        if k == K_LOCAL_GET:
            out(ind, f"push(L{e[5]})")
        elif k == K_CONST:
            out(ind, f"push({_lit(e[5], self.consts)})")
        elif k == K_BIN:
            out(ind, "b = pop()", "a = pop()")
            self.semantic(ind, f"push({lit(e[5])}(a, b))", e[3] in _RAISING)
        elif k == K_LOCAL_SET:
            out(ind, f"L{e[5]} = pop()")
        elif k == K_LOCAL_TEE:
            out(ind, f"L{e[5]} = stack[-1]")
        elif k == K_UN:
            self.semantic(ind, f"stack[-1] = {lit(e[5])}(stack[-1])",
                          e[3] in _RAISING)
        elif k == K_LOAD:
            self.load(ind, "pop()", e[5], e[6], e[7], e[8])
        elif k == K_STORE:
            out(ind, "value = pop()",
                f"addr = pop() + {e[8]}" if e[8] else "addr = pop()")
            self.store(ind, e[5], e[6],
                       f"value & {e[7]}" if e[7] else "value")
        elif k == K_BR_IF:
            out(ind, "cond = pop()")
            self.end_run(ind)
            self.cond_branch(ind, e[2], "cond",
                             self.unwind(e[6], e[7]) + [self.goto(e[5])],
                             [self.goto(pc + 1)])
        elif k == K_BR:
            self.end_run(ind)
            out(ind, *self.unwind(e[6], e[7]), self.goto(e[5]))
        elif k == K_IF:
            out(ind, "cond = pop()")
            self.end_run(ind)
            self.cond_branch(ind, e[2], "not cond", [self.goto(e[5])],
                             [self.goto(pc + 1)])
        elif k == K_ELSE:
            self.end_run(ind)
            out(ind, self.goto(e[5]))
        elif k == K_PASS:
            pass
        elif k == K_CALL or k == K_CALL_INDIRECT:
            self.call(ind, e)
        elif k == K_GLOBAL_GET:
            out(ind, f"push(globals_[{e[5]}])")
            self.run.ldr += 1
        elif k == K_GLOBAL_SET:
            out(ind, f"globals_[{e[5]}] = pop()")
            self.run.ldr += 1
        elif k == K_DROP:
            out(ind, "pop()")
        elif k == K_SELECT:
            out(ind, "c = pop()", "b = pop()", "a = pop()",
                "push(a if c else b)")
        elif k == K_BR_TABLE:
            entries = tuple((tgt, arity, hgt, self.block_of.get(tgt, -1))
                            for tgt, arity, hgt in e[5])
            default = e[6] + (self.block_of.get(e[6][0], -1),)
            si = e[2] & self.imask
            out(ind, "index = pop()",
                f"tgt, arity, hgt, blk = {entries!r}[index] if index < "
                f"{len(entries)} else {default!r}")
            self.end_run(ind)
            out(ind,
                f"if btb[{si}] != tgt or itc[th] != tgt:",
                f"    stall = _bp({si}, th, tgt, stall)",
                f"th = ((th << 4) ^ tgt) & {self.imask}",
                "if arity:",
                "    vals = stack[-arity:]",
                "    del stack[hgt:]",
                "    stack.extend(vals)",
                "else:",
                "    del stack[hgt:]",
                "_b = blk")
        elif k == K_RETURN:
            self.end_run(ind)
            out(ind, "break")
        elif k == K_MEMORY_SIZE:
            out(ind, "push(mem.pages)")
        elif k == K_MEMORY_GROW:
            out(ind, "counters.instructions += 200",
                "push(mem.grow(pop()) & 0xFFFFFFFF)",
                "mem_size = mem.size")
        elif k == K_UNREACHABLE:
            self.end_run(ind)
            out(ind, f"_sync(instr, stall, br, ldr, {_STATE})",
                "raise Trap('unreachable')")
        elif k == K_BAD:
            # The reference loses pending instr/stall on this internal
            # error; only the shadowed predictor/cache state is synced.
            msg = "interpreter: unhandled opcode " + op.name_of(e[3])
            self.end_run(ind)
            out(ind, f"_sync(0, 0, br, ldr, {_STATE})",
                f"raise ReproError({msg!r})")
        elif k == F_LG_LG_BIN or k == F_LG_CONST_BIN:
            rhs = f"L{e[12]}" if k == F_LG_LG_BIN \
                else _lit(e[12], self.consts)
            self.semantic(ind, f"push({lit(e[13])}(L{e[11]}, {rhs}))",
                          e[9] in _RAISING)
        elif k == F_LG_LOAD:
            self.load(ind, f"L{e[8]}", e[9], e[10], e[11], e[12])
        elif k == F_LG_LG_STORE or k == F_LG_CONST_STORE:
            if k == F_LG_LG_STORE:
                value = f"L{e[12]} & {e[15]}" if e[15] else f"L{e[12]}"
                offset = e[16]
            else:
                value = _lit(e[12], self.consts)
                offset = e[15]
            out(ind, f"addr = L{e[11]} + {offset}" if offset
                else f"addr = L{e[11]}")
            self.store(ind, e[13], e[14], value)
        elif k == F_LG_LG_CMP_BRIF or k == F_LG_CONST_CMP_BRIF:
            rhs = f"L{e[15]}" if k == F_LG_LG_CMP_BRIF \
                else _lit(e[15], self.consts)
            out(ind, f"cond = {lit(e[16])}(L{e[14]}, {rhs})")
            self.end_run(ind)
            self.cond_branch(ind, e[11], "cond",
                             self.unwind(e[18], e[19]) + [self.goto(e[17])],
                             [self.goto(e[20])])
        else:  # pragma: no cover - exhaustive over the kind set
            raise ReproError(f"closure codegen: unhandled kind {k}")

    # -- blocks and the function ----------------------------------------

    def collect(self, pc: int) -> Tuple[List[tuple], int]:
        """The entries of the run starting at ``pc``, and the pc after
        it (-1 when its last entry is a terminator)."""
        fcode = self.fcode
        entries = []
        while True:
            e = fcode[pc]
            entries.append((pc, e))
            k = e[0]
            if k in _TERMINATORS:
                return entries, -1
            field = _FUSED_NEXT.get(k)
            pc = e[field] if field else pc + 1
            if k == K_CALL or k == K_CALL_INDIRECT or pc >= self.n \
                    or pc in self.block_of:
                return entries, pc

    def block(self, ind: int, label: int) -> None:
        pc = label
        while True:
            entries, nxt = self.collect(pc)
            self.start_run(ind, entries)
            for epc, e in entries:
                self.entry(ind, epc, e)
            if nxt < 0:
                return
            if entries[-1][1][0] not in (K_CALL, K_CALL_INDIRECT):
                self.end_run(ind)
            if nxt >= self.n or nxt in self.block_of:
                self.out(ind, self.goto(nxt))
                return
            pc = nxt

    def function(self) -> Tuple[str, List[Tuple[str, object]]]:
        pf = self.pf
        if self.n:
            self.out(1, "while True:")
            for bi, label in enumerate(self.labels):
                self.out(2, ("if" if bi == 0 else "elif") + f" _b == {bi}:")
                self.block(3, label)
            self.out(2, "else:", "    break")
        self.out(1, f"_sync(instr, stall, br, ldr, {_STATE})")
        self.out(1, "return stack[-1] if stack else 0" if pf.results
                 else "return None")
        # Every branch target is a block leader, so a reference frame can
        # hand over at any loop header it jumps back to.
        self.out(0, f"_c{pf.index}.osr_blocks = {self.block_of!r}")
        body = self.lines
        self.lines = []
        self.out(0, f"def _c{pf.index}(I, args, stack=None, _b=0):")
        self.out(1, f"{_CONTEXT} = I._ctx or I.closure_context()",
                 "if stack is None:")
        for i, t in enumerate(pf.local_types):
            if i < pf.params:
                self.out(2, f"L{i} = args[{i}]")
            elif t in (0x7D, 0x7C):
                self.out(2, f"L{i} = 0.0")
            else:
                self.out(2, f"L{i} = 0")
        self.out(2, "stack = []")
        if pf.local_types:
            # On-stack replacement: ``args`` is the reference frame's
            # locals.
            self.out(1, "else:", "    " + "".join(
                f"L{i}, " for i in range(len(pf.local_types))) + "= args")
        self.out(1,
                 "push = stack.append",
                 "pop = stack.pop",
                 "instr = stall = br = ldr = 0",
                 "gh = branches._history",
                 "th = branches._target_history",
                 "l1i_tick = l1i_t0 = l1i.tick",
                 "l1d_tick = l1d_t0 = l1d.tick",
                 "mem_size = mem.size")
        self.out(1, *(f"{name} = l1i_sets[{line} & l1i_smask]"
                      for line, name in self.cache_sets.items()))
        return "\n".join(self.lines + body) + "\n", self.consts.items
