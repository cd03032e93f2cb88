"""Machine closures: one ``exec``-compiled Python function per hot
:class:`~repro.isa.program.MFunction`.

:mod:`repro.isa.machine` executes every native, JIT and AOT run through
one dispatch loop that fetches a tuple, range-checks its opcode and
indexes a register list per machine instruction.  This module does for
machine functions what :mod:`repro.speed.closures` does for Wasm: it
walks a function once and emits Python source in which registers are
locals (``R<n>``), every operand, branch site, block charge and trap
message is a literal, the common ALU ops are inlined (the rest call
:data:`repro.isa.ops.BINF`/``UNF``), and the gshare, ``br_table``, L1I
and L1D hit paths are inlined with the constant-line set dicts hoisted.
Miss, out-of-bounds and flush paths call shared per-machine helpers so
the generated source, and with it ``compile()``, stays small.

**Byte identity.**  The generated code performs the loop's model
updates in the loop's order.  The loop charges a block (retired
instructions and its L1I lines) at call entry and on branch edges only;
a sequential fall-through into a leader charges nothing, and the code
here charges exactly the same edges.  Pending ``instr``/``stall``/
``br`` counts, the predictor histories and the L1 LRU clocks are frame
locals (pending L1 references are the clock's advance since the last
write-back), written back before every call, trap and return.  One quirk is kept on purpose: a trap raised by a
``BINF``/``UNF`` semantic function (divide by zero, integer overflow,
invalid conversion) leaves the loop's shadowed stall, branch and
reference counts unflushed, so the closure then flushes only the
retired instructions, which the loop charges directly.

**Control flow.**  Basic blocks with a single predecessor are emitted
inline at their predecessor's edge, so each dispatch entry (a *root*:
the entry block, every loop header, every ``br_table`` target and every
join) carries a tree of blocks.  A loop header's tree is wrapped in its
own ``while True``, so an inner loop whose body has no join runs without
any dispatch.  Roots are reached through a weight-balanced ``if _b <
k`` tree in which deeper-nested loop headers sit nearer the top.

**Entry.**  ``_make(M, X)`` binds a function to one machine (``X`` is
the machine's helper context, :func:`context`) and returns ``_m(args,
base, osr=None)``.  Without ``osr`` it is a call: ``args`` are the
parameters and the entry block is charged.  Otherwise it is on-stack
replacement from a loop frame at a loop header the loop has already
charged: ``args`` is the frame's register list and ``osr`` the header's
root index (``_m.osr`` maps header pc to it) followed by the frame's
whole shadowed state, which the loop hands over without writing any of
it back, so the model objects stay exactly where the loop left them.

Compiled code is memoized process-wide by its generated source, so a
program that is rebuilt for every run (each JIT compile makes a new
:class:`~repro.isa.program.MProgram`) binds cached code instead of
calling ``compile()`` again.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..errors import Trap
from ..isa import ops
from ..isa.machine import _GLOBALS_ADDR, _HOST_CALL_INSTRS, _LOADS, _STORES
from ..isa.program import MFunction

#: Source-keyed memo of compiled code (bounded LRU, process-wide; an
#: entry holds about 20 KB of source and code).
_MEMO_CAPACITY = 256
_memo: "OrderedDict[str, object]" = OrderedDict()

#: Deepest indentation a block tree may reach before its next inline
#: block becomes a root of its own (CPython caps nesting at 100).
_MAX_INDENT = 40

_M32 = "4294967295"
_M64 = "18446744073709551615"
_S32 = "2147483648"
_S64 = "9223372036854775808"


def _signed(reg: str, sign: str) -> str:
    return f"({reg} - (({reg} & {sign}) << 1))"


def _cmp(op: str, signed: Optional[str] = None):
    if signed is None:
        return f"{{a}} {op} {{b}}"
    return f"{_signed('{a}', signed)} {op} {_signed('{b}', signed)}"


#: Inlined binary ops: the exact expressions of the ``ops.BINF`` lambdas.
_INLINE_BIN: Dict[int, str] = {
    ops.ADD32: f"({{a}} + {{b}}) & {_M32}",
    ops.SUB32: f"({{a}} - {{b}}) & {_M32}",
    ops.MUL32: f"({{a}} * {{b}}) & {_M32}",
    ops.AND32: "{a} & {b}", ops.OR32: "{a} | {b}", ops.XOR32: "{a} ^ {b}",
    ops.SHL32: f"({{a}} << ({{b}} & 31)) & {_M32}",
    ops.SHRS32: f"({_signed('{a}', _S32)} >> ({{b}} & 31)) & {_M32}",
    ops.SHRU32: "{a} >> ({b} & 31)",
    ops.ADD64: f"({{a}} + {{b}}) & {_M64}",
    ops.SUB64: f"({{a}} - {{b}}) & {_M64}",
    ops.MUL64: f"({{a}} * {{b}}) & {_M64}",
    ops.AND64: "{a} & {b}", ops.OR64: "{a} | {b}", ops.XOR64: "{a} ^ {b}",
    ops.SHL64: f"({{a}} << ({{b}} & 63)) & {_M64}",
    ops.SHRS64: f"({_signed('{a}', _S64)} >> ({{b}} & 63)) & {_M64}",
    ops.SHRU64: "{a} >> ({b} & 63)",
    ops.ADDF64: "{a} + {b}", ops.SUBF64: "{a} - {b}",
    ops.MULF64: "{a} * {b}",
}

#: Compares, as the condition whose truth the ``BINF`` lambda returns as
#: 1 or 0.
_COND_BIN: Dict[int, str] = {
    ops.EQ32: _cmp("=="), ops.NE32: _cmp("!="),
    ops.LTS32: _cmp("<", _S32), ops.LTU32: _cmp("<"),
    ops.GTS32: _cmp(">", _S32), ops.GTU32: _cmp(">"),
    ops.LES32: _cmp("<=", _S32), ops.LEU32: _cmp("<="),
    ops.GES32: _cmp(">=", _S32), ops.GEU32: _cmp(">="),
    ops.EQ64: _cmp("=="), ops.NE64: _cmp("!="),
    ops.LTS64: _cmp("<", _S64), ops.LTU64: _cmp("<"),
    ops.GTS64: _cmp(">", _S64), ops.GTU64: _cmp(">"),
    ops.LES64: _cmp("<=", _S64), ops.LEU64: _cmp("<="),
    ops.GES64: _cmp(">=", _S64), ops.GEU64: _cmp(">="),
}
for _eq, _ne, _lt, _gt, _le, _ge in (
        (ops.EQF32, ops.NEF32, ops.LTF32, ops.GTF32, ops.LEF32, ops.GEF32),
        (ops.EQF64, ops.NEF64, ops.LTF64, ops.GTF64, ops.LEF64, ops.GEF64)):
    _COND_BIN.update({
        _eq: _cmp("=="), _lt: _cmp("<"), _gt: _cmp(">"), _le: _cmp("<="),
        _ge: _cmp(">="), _ne: "{a} != {b} or {a} != {a} or {b} != {b}"})

#: Inlined unary ops (``EQZ`` is folded as the condition ``a == 0``).
_INLINE_UN: Dict[int, str] = {
    ops.EQZ32: "1 if {a} == 0 else 0", ops.EQZ64: "1 if {a} == 0 else 0",
    ops.NEGF32: "-{a}", ops.NEGF64: "-{a}",
    ops.WRAP64: f"{{a}} & {_M32}",
    ops.EXTENDS32: f"{_signed('{a}', _S32)} & {_M64}",
    ops.EXTENDU32: "{a}", ops.PROMOTE: "{a}",
    ops.CVTS32F64: f"float({_signed('{a}', _S32)})",
    ops.CVTU32F64: "float({a})",
    ops.CVTS64F64: f"float({_signed('{a}', _S64)})",
    ops.CVTU64F64: "float({a})",
}

#: ALU ops whose semantics are inlined: pure, and never raise.
_INLINED = frozenset(_INLINE_BIN) | frozenset(_COND_BIN) | \
    frozenset(_INLINE_UN)

#: The semantic functions that can raise a :class:`Trap` (division and
#: checked truncation).
_RAISING = frozenset((
    ops.DIVS32, ops.DIVU32, ops.REMS32, ops.REMU32,
    ops.DIVS64, ops.DIVU64, ops.REMS64, ops.REMU64,
    ops.TRUNCF32S32, ops.TRUNCF32U32, ops.TRUNCF64S32, ops.TRUNCF64U32,
    ops.TRUNCF32S64, ops.TRUNCF32U64, ops.TRUNCF64S64, ops.TRUNCF64U64))

#: The globals of every generated function: the process-global objects
#: the source names (``B<op>`` binary and ``U<op>`` unary semantics,
#: ``LD<op>``/``ST<op>`` codecs).
_GLOBALS: Dict[str, object] = {"Trap": Trap}
for _op in range(ops.NUM_BIN):
    _GLOBALS[f"B{_op}"] = ops.BINF[_op]
for _op in range(ops.NUM_BIN, ops.NUM_UN_END):
    _GLOBALS[f"U{_op}"] = ops.UNF[_op - ops.NUM_BIN]
for _op, (_size, _unpack, _mask) in _LOADS.items():
    _GLOBALS[f"LD{_op}"] = _unpack
for _op, (_size, _pack, _mask) in _STORES.items():
    _GLOBALS[f"ST{_op}"] = _pack
_GLOBALS["_fbits"] = lambda bits: struct.unpack(
    "<d", struct.pack("<Q", bits))[0]

#: A frame's shadowed model state.  L1 references are not counted one
#: by one: a hit advances the LRU clock by one, so the references since
#: the last write-back are ``tick - t0``.
_STATE = "instr, stall, br, l1i_t0, l1d_t0, gh, th, l1i_tick, l1d_tick"

#: Names ``_make`` unpacks from the machine context, in :func:`context`
#: order.
_CONTEXT = ("counters, line_shift, glb, l1i_sets, l1i_smask, l1d_sets, "
            "l1d_smask, l1i, l1d, branches, penalty, gshare, gmask, ghmask, "
            "imask, btb, itc, br_call, br_ret, indirect, mem, "
            "touched, functions, hostfns, call_, _sync, _l1i, _l1d, _oob")


def context(machine) -> tuple:
    """Per-machine bindings and slow-path helpers shared by every
    closure bound to ``machine``; the helpers transcribe the loop's
    miss and flush paths."""
    cpu = machine.cpu
    counters = cpu.counters
    caches = cpu.caches
    l1i, l1d = caches.l1i, caches.l1d
    l1i_stats, l1d_stats = l1i.stats, l1d.stats
    l1i_access, l1d_access = l1i.access_line, l1d.access_line
    branches = cpu.branches

    def _sync(instr, stall, br, l1i_t0, l1d_t0, gh, th, l1i_tick,
              l1d_tick):
        counters.instructions += instr
        counters.stall_cycles += stall
        counters.branches += br
        l1i_stats.refs += l1i_tick - l1i_t0
        l1d_stats.refs += l1d_tick - l1d_t0
        branches._history = gh
        branches._target_history = th
        l1i.tick = l1i_tick
        l1d.tick = l1d_tick

    def _l1i(ln, tick, t0, stall):
        l1i.tick = tick
        l1i_stats.refs += tick - t0
        stall += l1i_access(ln)
        tick = l1i.tick
        return tick, tick, stall

    def _l1d(ln, tick, t0, stall):
        l1d.tick = tick
        l1d_stats.refs += tick - t0
        stall += l1d_access(ln)
        tick = l1d.tick
        return tick, tick, stall

    def _oob(where, addr, *state):
        _sync(*state)
        raise Trap("out of bounds memory access", f"{where}{addr}")

    line_shift = caches.line_shift
    return (counters, line_shift, 0x1000_0000 >> line_shift,
            l1i.sets, l1i.set_mask, l1d.sets, l1d.set_mask, l1i, l1d,
            branches, branches.penalty, branches._gshare,
            branches._gshare_mask, branches._history_mask,
            branches._itc_mask, branches._btb, branches._itc,
            branches.call, branches.ret, branches.indirect_branch,
            machine.memory, machine.memory.touched,
            machine.program.functions, machine.host_functions,
            machine._call, _sync, _l1i, _l1d, _oob)


def factory_for(func: MFunction):
    """``_make`` of ``func``: generated, then compiled or taken from the
    source memo."""
    source = generate(func)
    if source is None:
        return None
    code = _memo.get(source)
    if code is None:
        code = _memo[source] = compile(source, f"<mclosure {func.name}>",
                                       "exec")
        while len(_memo) > _MEMO_CAPACITY:
            _memo.popitem(last=False)
    else:
        _memo.move_to_end(source)
    exec(code, _GLOBALS)
    return _GLOBALS.pop("_make")


def memo_clear() -> None:
    _memo.clear()


# ---------------------------------------------------------------------------
# Control-flow analysis
# ---------------------------------------------------------------------------


def _edges(code: list, blocks: dict, leader: int):
    """``(end, edges)`` of the block at ``leader``: the pc after its last
    instruction, and its outgoing edges ``(target, charged, branch_pc)``;
    None when it can run off the end of the code (the loop would fail
    there, so such a function stays in the loop)."""
    n = len(code)
    pc = leader
    while True:
        if pc >= n:
            return None
        if pc != leader and pc in blocks:
            return pc, [(pc, False, pc)]
        ins = code[pc]
        o = ins[0]
        if o == ops.JMP:
            return pc + 1, [(ins[1], True, pc)]
        if o == ops.BRZ or o == ops.BRNZ:
            if pc + 1 >= n:
                return None
            return pc + 1, [(ins[2], True, pc), (pc + 1, True, pc)]
        if o == ops.BR_TABLE:
            return pc + 1, [(t, True, pc)
                            for t in sorted(set(ins[2]) | {ins[3]})]
        if o == ops.RET or o == ops.TRAP_OP:
            return pc + 1, []
        pc += 1


def _rw(ins: tuple) -> Tuple[tuple, tuple, bool]:
    """Registers ``ins`` reads and writes, and whether it is a pure
    inlined def the generator may forward into its use or drop."""
    o = ins[0]
    if o < ops.NUM_BIN:
        return (ins[2], ins[3]), (ins[1],), o in _INLINED
    if o < ops.NUM_UN_END:
        return (ins[2],), (ins[1],), o in _INLINED
    if o == ops.LI:
        return (), (ins[1],), True
    if o == ops.MOV:
        return (ins[2],), (ins[1],), True
    if o == ops.SELECT:
        return (ins[2], ins[3], ins[4]), (ins[1],), True
    if o in _LOADS:
        return (ins[2],), (ins[1],), False
    if o in _STORES:
        return (ins[1], ins[3]), (), False
    if o in (ops.GGET, ops.MEMSIZE):
        return (), (ins[1],), False
    if o in (ops.GSET, ops.MEMGROW):
        return (ins[2],), (ins[1],) if o == ops.MEMGROW else (), False
    if o in (ops.BRZ, ops.BRNZ, ops.BR_TABLE):
        return (ins[1],), (), False
    if o in (ops.CALL, ops.CALL_HOST):
        return tuple(ins[3]), (ins[1],) if ins[1] >= 0 else (), False
    if o == ops.CALL_IND:
        return ((ins[3],) + tuple(ins[4]),
                (ins[1],) if ins[1] >= 0 else (), False)
    if o == ops.RET:
        return (ins[1],) if ins[1] >= 0 else (), (), False
    return (), (), False


class _Unsupported(Exception):
    """An operand or opcode the generator leaves to the loop."""


class _Plan:
    """Reachable blocks, their extents, predecessor counts and register
    liveness, and the roots."""

    def __init__(self, func: MFunction):
        code, blocks = func.code, func.blocks
        self.ok = bool(code) and 0 in blocks
        self.edges: Dict[int, List[tuple]] = {}
        self.ends: Dict[int, int] = {}
        preds: Dict[int, int] = {}
        headers = set()
        tables = set()
        work = [0] if self.ok else []
        while work:
            leader = work.pop()
            if leader in self.edges:
                continue
            found = _edges(code, blocks, leader)
            if found is None:
                self.ok = False
                return
            self.ends[leader], out = found
            self.edges[leader] = out
            for target, charged, src in out:
                preds[target] = preds.get(target, 0) + 1
                if charged and target <= src:
                    headers.add(target)
                if code[src][0] == ops.BR_TABLE:
                    tables.add(target)
                work.append(target)
        self.headers = headers
        roots = {0} | headers | tables
        roots.update(b for b, count in preds.items() if count != 1)
        self.roots: List[int] = sorted(roots)
        self.index = {pc: i for i, pc in enumerate(self.roots)}
        # Loop depth of each root, for the dispatch tree's weights.
        backs = [(t, src) for out in self.edges.values()
                 for t, charged, src in out if charged and t <= src]
        self.depth = {r: sum(1 for t, src in backs if t <= r <= src)
                      for r in self.roots}
        self.rw = {pc: _rw(code[pc]) for leader, end in self.ends.items()
                   for pc in range(leader, end)}
        self.live_out = self._liveness()

    def _liveness(self) -> Dict[int, frozenset]:
        """Registers live on exit from each block (backward dataflow)."""
        use, kill = {}, {}
        for leader, end in self.ends.items():
            u, k = set(), set()
            for pc in range(leader, end):
                reads, writes, _pure = self.rw[pc]
                u.update(r for r in reads if r not in k)
                k.update(writes)
            use[leader], kill[leader] = u, k
        live_in = {b: frozenset(use[b]) for b in self.ends}
        live_out = {b: frozenset() for b in self.ends}
        order = sorted(self.ends, reverse=True)
        changed = True
        while changed:
            changed = False
            for b in order:
                out = frozenset().union(*(live_in[t] for t, _c, _s
                                          in self.edges[b]))
                live_out[b] = out
                new = frozenset(use[b] | (out - kill[b]))
                if new != live_in[b]:
                    live_in[b] = new
                    changed = True
        return live_out

    def add_root(self, pc: int) -> None:
        self.index[pc] = len(self.roots)
        self.roots.append(pc)
        self.depth[pc] = 0


#: Longest chain of defs folded into one expression.
_MAX_FOLD = 12


def _fold_plan(rw: List[tuple], leader: int, end: int, live_out) -> Dict:
    """Which pure defs of block ``[leader, end)`` the generator drops
    (their register is dead) or folds into their single later use in
    the block; ``{pc: use_pc or None}``.  ``rw`` is :func:`_rw` by pc."""
    # Backward pass: for each pure def, the reads of its value (up to 2)
    # before the register is redefined, the first of them, and whether
    # it is redefined in the block at all.
    uses: Dict[int, tuple] = {}
    later: Dict[int, tuple] = {}
    for j in range(end - 1, leader - 1, -1):
        reads, writes, pure = rw[j]
        if pure:
            uses[j] = later.get(writes[0], (0, None, False))
        for w in writes:
            later[w] = (0, None, True)
        for r in reads:
            count, _user, redefined = later.get(r, (0, None, False))
            later[r] = (min(count + 1, 2), j, redefined)
    plan: Dict[int, Optional[int]] = {}
    operands: Dict[int, set] = {}   # folded def -> registers it reads
    depth: Dict[int, int] = {}
    into: Dict[int, List[int]] = {}  # use -> defs folded into it
    for i in sorted(uses):
        reads, writes, _pure = rw[i]
        # Dead, or read once and then dead: the register is redefined in
        # the block, or is not live out of it.
        count, user, redefined = uses[i]
        if count > 1 or (not redefined and writes[0] in live_out):
            continue
        if user is None:
            plan[i] = None
            continue
        regs, level = set(reads), 1
        for k in into.get(i, ()):
            regs.discard(rw[k][1][0])
            regs |= operands[k]
            level = max(level, depth[k] + 1)
        if level > _MAX_FOLD or any(
                w in regs for j in range(i + 1, user) for w in rw[j][1]):
            continue
        plan[i] = user
        operands[i], depth[i] = regs, level
        into.setdefault(user, []).append(i)
    return plan


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


class _Gen:
    def __init__(self, func: MFunction, plan: _Plan):
        self.func = func
        self.plan = plan
        self.tag = (func.index & 0xFFFF) << 16
        self.lines: List[str] = []
        self.regs = set()
        self.cache_sets: Dict[int, str] = {}    # L1I line -> C<n>
        self.global_sets: Dict[int, str] = {}   # global index -> D<n>
        self.sites: Dict[int, str] = {}         # br_table site -> S<n>
        self.floats: Dict[int, str] = {}        # non-finite bits -> K<n>
        self.header: Optional[int] = None       # root of the open while
        # Folded defs awaiting their use: register -> (expr, condition).
        self.folded: Dict[int, Tuple[str, Optional[str]]] = {}
        self.stall = 0                          # stall not yet emitted

    def out(self, ind: int, *lines: str) -> None:
        pad = "    " * ind
        self.lines.extend(pad + line for line in lines)

    def reg(self, r: int) -> str:
        self.regs.add(r)
        return f"R{r}"

    def operand(self, r: int) -> Tuple[str, Optional[str]]:
        """``(expr, condition)`` of a register read: a folded def's
        expression (condition: its truth as a bool, for compares), or
        the register itself."""
        folded = self.folded.pop(r, None)
        if folded is None:
            return self.reg(r), None
        expr, cond = folded
        if not (expr.isidentifier() or expr.isdigit()):
            expr = f"({expr})"
        return expr, cond

    def val(self, r: int) -> str:
        return self.operand(r)[0]

    def truth(self, r: int, zero: bool) -> str:
        """Python condition for ``R == 0`` (``zero``) or ``R != 0``."""
        expr, cond = self.operand(r)
        if cond is None:
            return f"{expr} {'==' if zero else '!='} 0"
        return f"not ({cond})" if zero else cond

    def lit(self, value) -> str:
        if type(value) is float and not math.isfinite(value):
            bits = struct.unpack("<Q", struct.pack("<d", value))[0]
            name = self.floats.get(bits)
            if name is None:
                name = self.floats[bits] = f"K{len(self.floats)}"
            return name
        if type(value) not in (int, float, bool):
            raise _Unsupported(value)
        return repr(value)

    def flush_stall(self, ind: int) -> None:
        if self.stall:
            self.out(ind, f"stall += {self.stall}")
            self.stall = 0

    # -- model updates -------------------------------------------------

    def charge(self, ind: int, leader: int) -> None:
        n_instr, lines = self.func.blocks[leader]
        self.out(ind, f"instr += {n_instr}")
        for ln in lines:
            cs = self.cache_sets.get(ln)
            if cs is None:
                cs = self.cache_sets[ln] = f"C{len(self.cache_sets)}"
            self.out(ind,
                     f"if {ln} in {cs}:",
                     "    l1i_tick += 1",
                     f"    {cs}[{ln}] = l1i_tick",
                     "else:",
                     f"    l1i_tick, l1i_t0, stall = "
                     f"_l1i({ln}, l1i_tick, l1i_t0, stall)")

    def l1d(self, ind: int, ln: str, cs: str) -> None:
        self.out(ind,
                 f"if {ln} in {cs}:",
                 "    l1d_tick += 1",
                 f"    {cs}[{ln}] = l1d_tick",
                 "else:",
                 f"    l1d_tick, l1d_t0, stall = "
                 f"_l1d({ln}, l1d_tick, l1d_t0, stall)")

    def l1d_dynamic(self, ind: int, line_expr: str) -> None:
        self.out(ind, f"ln = {line_expr}", "cs = l1d_sets[ln & l1d_smask]")
        self.l1d(ind, "ln", "cs")

    def l1d_global(self, ind: int, index: int) -> None:
        name = self.global_sets.get(index)
        if name is None:
            name = self.global_sets[index] = f"D{len(self.global_sets)}"
        self.l1d(ind, f"G{name[1:]}", name)

    def exit_to(self, ind: int, target: int) -> None:
        """Leave the current block tree for root ``target``."""
        if target == self.header:
            self.out(ind, "continue")
        else:
            self.out(ind, f"_b = {self.plan.index[target]}",
                     "break" if self.header is not None else "continue")

    def edge(self, ind: int, target: int, charged: bool) -> None:
        if charged:
            self.charge(ind, target)
        plan = self.plan
        if target not in plan.index:
            if ind < _MAX_INDENT:
                self.block(ind, target)
                return
            plan.add_root(target)
        self.exit_to(ind, target)

    def sync_call(self, ind: int) -> None:
        self.out(ind, f"_sync({_STATE})", "instr = stall = br = 0")

    def resume_call(self, ind: int, dst: int) -> None:
        self.out(ind,
                 "gh = branches._history",
                 "th = branches._target_history",
                 "l1i_tick = l1i_t0 = l1i.tick",
                 "l1d_tick = l1d_t0 = l1d.tick",
                 "mem_data = mem.data",
                 "mem_size = mem.size")
        if dst >= 0:
            self.out(ind, f"{self.reg(dst)} = result")

    # -- one block tree ------------------------------------------------

    def block(self, ind: int, leader: int) -> None:
        code = self.func.code
        end = self.plan.ends[leader]
        fold = _fold_plan(self.plan.rw, leader, end,
                          self.plan.live_out[leader])
        for pc in range(leader, end):
            ins = code[pc]
            if pc in fold:
                # A pure def: its stall is charged here, its value where
                # it is used (or nowhere, when its register is dead).
                self.stall += ops.EXTRA_STALL[ins[0]]
                value = self.pure(ins)
                if fold[pc] is not None:
                    self.folded[ins[1]] = value
                continue
            if self.instr(ind, pc, ins):
                return
        self.flush_stall(ind)
        self.edge(ind, end, False)

    def pure(self, ins: tuple) -> Tuple[str, Optional[str]]:
        """``(expr, condition)`` of a pure def (see :func:`_rw`)."""
        o = ins[0]
        if o == ops.LI:
            return self.lit(ins[2]), None
        if o == ops.MOV:
            expr, cond = self.operand(ins[2])
            return expr, cond
        if o == ops.SELECT:
            cond = self.truth(ins[2], False)
            return f"{self.val(ins[3])} if {cond} else {self.val(ins[4])}", \
                None
        if o == ops.EQZ32 or o == ops.EQZ64:
            cond = self.truth(ins[2], True)
            return f"1 if {cond} else 0", cond
        if o < ops.NUM_BIN:
            a, b = self.val(ins[2]), self.val(ins[3])
            cond = _COND_BIN.get(o)
            if cond is not None:
                cond = cond.format(a=a, b=b)
                return f"1 if {cond} else 0", cond
            return _INLINE_BIN[o].format(a=a, b=b), None
        return _INLINE_UN[o].format(a=self.val(ins[2])), None

    def instr(self, ind: int, pc: int, ins: tuple) -> bool:
        """Emit one instruction; True when it ended the block."""
        o = ins[0]
        r = self.reg
        v = self.val
        out = self.out
        if o < ops.NUM_UN_END and o not in _INLINED:
            self.flush_stall(ind)
            stall = ops.EXTRA_STALL[o]
            if stall:
                out(ind, f"stall += {stall}")
            if o < ops.NUM_BIN:
                expr = f"B{o}({v(ins[2])}, {v(ins[3])})"
            else:
                expr = f"U{o}({v(ins[2])})"
            line = f"{r(ins[1])} = {expr}"
            if o in _RAISING:
                out(ind, "try:", "    " + line, "except Exception:",
                    "    counters.instructions += instr", "    raise")
            else:
                out(ind, line)
            return False
        if self.plan.rw[pc][2]:
            if o < ops.NUM_UN_END:
                self.stall += ops.EXTRA_STALL[o]
            expr = self.pure(ins)[0]
            out(ind, f"{r(ins[1])} = {expr}")
            return False
        self.flush_stall(ind)
        if o in _LOADS:
            size, _unpack, mask = _LOADS[o]
            self.address(ind, v(ins[2]), ins[3], size, "load")
            value = f"LD{o}(mem_data, addr)[0]"
            out(ind, f"{r(ins[1])} = {value} & {mask}" if mask
                else f"{r(ins[1])} = {value}")
            self.l1d_dynamic(ind, "glb + (addr >> line_shift)")
        elif o in _STORES:
            size, _pack, mask = _STORES[o]
            self.address(ind, v(ins[1]), ins[2], size, "store")
            src = v(ins[3])
            out(ind, f"ST{o}(mem_data, addr, {src} & {mask})" if mask
                else f"ST{o}(mem_data, addr, {src})",
                "touched.add(addr >> 12)")
            self.l1d_dynamic(ind, "glb + (addr >> line_shift)")
        elif o == ops.BRZ or o == ops.BRNZ:
            cond = self.truth(ins[1], o == ops.BRZ)
            out(ind,
                "br += 1",
                f"gi = ({self.tag | pc} ^ gh) & gmask",
                "gc = gshare[gi]",
                f"if {cond}:",
                "    if gc < 3:",
                "        gshare[gi] = gc + 1",
                "        if gc < 2:",
                "            counters.branch_misses += 1",
                "            stall += penalty",
                "    gh = ((gh << 1) | 1) & ghmask")
            self.edge(ind + 1, ins[2], True)
            out(ind,
                "if gc:",
                "    gshare[gi] = gc - 1",
                "    if gc >= 2:",
                "        counters.branch_misses += 1",
                "        stall += penalty",
                "gh = (gh << 1) & ghmask")
            self.edge(ind, pc + 1, True)
            return True
        elif o == ops.JMP:
            out(ind, "br += 1")
            self.edge(ind, ins[1], True)
            return True
        elif o == ops.CALL:
            self.sync_call(ind)
            args = "".join(f"{v(a)}, " for a in ins[3])
            out(ind, f"br_call({self.tag | pc})",
                f"result = call_(functions[{ins[2]}], [{args}])",
                f"br_ret({self.tag | pc})")
            self.resume_call(ind, ins[1])
        elif o == ops.CALL_HOST:
            out(ind, f"instr += {_HOST_CALL_INSTRS}")
            self.sync_call(ind)
            args = "".join(f"{v(a)}, " for a in ins[3])
            out(ind, f"br_call({self.tag | pc})",
                f"result = hostfns[{ins[2]}](M, [{args}])",
                f"br_ret({self.tag | pc})")
            self.resume_call(ind, ins[1])
        elif o == ops.CALL_IND:
            self.sync_call(ind)
            out(ind,
                f"index = {v(ins[3])}",
                "table = M.table",
                "if index >= len(table) or index < 0:",
                "    raise Trap('undefined element', "
                "f'table index {index}')",
                "index = table[index]",
                "if index < 0:",
                "    raise Trap('uninitialized element')",
                "callee = functions[index]",
                f"if callee.sig_id != {ins[2]}:",
                "    raise Trap('indirect call type mismatch')",
                f"indirect({self.tag | pc}, index)")
            args = "".join(f"{v(a)}, " for a in ins[4])
            out(ind, f"result = call_(callee, [{args}])",
                f"br_ret({self.tag | pc})")
            self.resume_call(ind, ins[1])
        elif o == ops.RET:
            value = v(ins[1]) if ins[1] >= 0 else "None"
            out(ind, f"_sync({_STATE})", f"return {value}")
            return True
        elif o == ops.GGET:
            out(ind, f"{r(ins[1])} = globals_[{ins[2]}]")
            self.l1d_global(ind, ins[2])
        elif o == ops.GSET:
            out(ind, f"globals_[{ins[1]}] = {v(ins[2])}")
            self.l1d_global(ind, ins[1])
        elif o == ops.SPILL or o == ops.RELOAD:
            self.l1d_dynamic(ind, f"(base + {ins[1] * 8}) >> line_shift")
        elif o == ops.CHECK:
            pass
        elif o == ops.MEMSIZE:
            out(ind, f"{r(ins[1])} = mem.pages")
        elif o == ops.MEMGROW:
            out(ind, "instr += 200",
                f"{r(ins[1])} = {_M32} & mem.grow({v(ins[2])})",
                "mem_data = mem.data",
                "mem_size = mem.size")
        elif o == ops.BR_TABLE:
            self.br_table(ind, pc, ins)
            return True
        elif o == ops.TRAP_OP:
            out(ind, f"_sync({_STATE})", f"raise Trap({ins[1]!r})")
            return True
        else:
            raise _Unsupported(o)
        return False

    def address(self, ind: int, base: str, offset: int, size: int,
                kind: str) -> None:
        where = f"{self.func.name}: {kind} at "
        self.out(ind,
                 f"addr = {base} + {offset}" if offset else f"addr = {base}",
                 f"if addr + {size} > mem_size:",
                 f"    _oob({where!r}, addr, {_STATE})")

    def br_table(self, ind: int, pc: int, ins: tuple) -> None:
        site = self.tag | pc
        name = self.sites.get(site)
        if name is None:
            name = self.sites[site] = f"S{len(self.sites)}"
        targets = tuple(ins[2])
        jump = {t: self.plan.index[t] for t in sorted(set(targets) |
                                                       {ins[3]})}
        self.out(ind,
                 f"index = {self.val(ins[1])}",
                 f"target = {targets!r}[index] if index < {len(targets)} "
                 f"else {ins[3]}",
                 f"if btb[{name}] == target and "
                 "itc[th & imask] == target:",
                 "    th = ((th << 4) ^ target) & imask",
                 "    br += 1",
                 "else:",
                 "    branches._target_history = th",
                 f"    indirect({site}, target)",
                 "    th = branches._target_history",
                 "n_instr, lines = blocks[target]",
                 "instr += n_instr",
                 "for ln in lines:",
                 "    cs = l1i_sets[ln & l1i_smask]",
                 "    if ln in cs:",
                 "        l1i_tick += 1",
                 "        cs[ln] = l1i_tick",
                 "    else:",
                 "        l1i_tick, l1i_t0, stall = "
                 "_l1i(ln, l1i_tick, l1i_t0, stall)",
                 f"_b = {jump!r}[target]",
                 "break" if self.header is not None else "continue")


def _tree(out: List[str], bodies: List[List[str]], weights: List[float],
          lo: int, hi: int, ind: int) -> None:
    """Weight-balanced ``_b`` dispatch over roots ``[lo, hi)``."""
    pad = "    " * ind
    if hi - lo == 1:
        out.extend(pad + line for line in bodies[lo])
        return
    total = sum(weights[lo:hi])
    best, mid, acc = None, lo + 1, 0.0
    for k in range(lo + 1, hi):
        acc += weights[k - 1]
        skew = abs(total - 2 * acc)
        if best is None or skew < best:
            best, mid = skew, k
    out.append(f"{pad}if _b < {mid}:")
    _tree(out, bodies, weights, lo, mid, ind + 1)
    out.append(f"{pad}else:")
    _tree(out, bodies, weights, mid, hi, ind + 1)


def generate(func: MFunction) -> Optional[str]:
    """Closure-factory source for ``func``, or None when the function
    can run off the end of its code or holds an unsupported operand."""
    plan = _Plan(func)
    if not plan.ok:
        return None
    gen = _Gen(func, plan)
    try:
        bodies: List[List[str]] = []
        k = 0
        while k < len(plan.roots):      # edge() may append a root
            root = plan.roots[k]
            gen.lines = []
            gen.header = root if root in plan.headers else None
            if gen.header is not None:
                gen.out(0, "while True:")
                gen.block(1, root)
            else:
                gen.block(0, root)
            bodies.append(gen.lines)
            k += 1
        gen.lines = []
        gen.charge(3, 0)
    except _Unsupported:
        return None
    entry_charge = gen.lines
    tree: List[str] = []
    _tree(tree, bodies, [8.0 ** plan.depth[r] for r in plan.roots],
          0, len(bodies), 3)

    regs = sorted(gen.regs)
    src = ["def _make(M, X):", f"    {_CONTEXT} = X"]
    src += [f"    {cs} = l1i_sets[{ln} & l1i_smask]"
            for ln, cs in gen.cache_sets.items()]
    for index, name in gen.global_sets.items():
        src += [f"    G{name[1:]} = ({_GLOBALS_ADDR} + {index * 8}) "
                f">> line_shift",
                f"    {name} = l1d_sets[G{name[1:]} & l1d_smask]"]
    src += [f"    {name} = {site} & imask"
            for site, name in gen.sites.items()]
    src += [f"    {name} = _fbits({bits})"
            for bits, name in gen.floats.items()]
    if gen.sites:
        src.append(f"    blocks = functions[{func.index}].blocks")
    src += ["    def _m(args, base, osr=None):",
            "        mem_data = mem.data",
            "        mem_size = mem.size",
            "        instr = 0"]
    if gen.global_sets:
        src.append("        globals_ = M.globals")
    src += ["        if osr is None:",
            "            stall = br = 0",
            "            gh = branches._history",
            "            th = branches._target_history",
            "            l1i_tick = l1i_t0 = l1i.tick",
            "            l1d_tick = l1d_t0 = l1d.tick"]
    if func.num_params:
        names = ", ".join(f"R{i}" if i in gen.regs else "_"
                          for i in range(func.num_params))
        src.append(f"            {names}, = args")
    zeros = [f"R{i}" for i in regs if i >= func.num_params]
    if zeros:
        src.append(f"            {' = '.join(zeros)} = 0")
    src += entry_charge
    src.append("            _b = 0")
    src += ["        else:", f"            _b, {_STATE[7:]} = osr",
            "            l1i_t0 = l1i_tick - l1i_t0",
            "            l1d_t0 = l1d_tick - l1d_t0"]
    if regs:
        names = ", ".join(f"R{i}" if i in gen.regs else "_"
                          for i in range(regs[-1] + 1))
        src.append(f"            {names}, = args[:{regs[-1] + 1}]")
    osr = {pc: plan.index[pc] for pc in sorted(plan.headers)}
    src += ["        while True:"] + tree + [f"    _m.osr = {osr!r}",
                                            "    return _m"]
    return "\n".join(src) + "\n"
