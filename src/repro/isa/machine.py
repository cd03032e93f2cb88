"""The virtual CPU executor: runs machine programs against the hw model.

This loop executes every native run and every JIT/AOT-compiled run.  At
the default speed tier it is the warm-up tier: a function whose loop
frames have retired enough instructions is compiled to a machine
closure (:mod:`repro.speed.mclosures`), entered at its next call or, by
on-stack replacement, at the running frame's next loop back-edge; at
``REPRO_SPEED=0`` the loop runs everything and is the reference the
closures are checked against.  Per *basic block* it charges
retired instructions and instruction-cache fetches (precomputed by
``MProgram.finalize``); per *memory access* it performs the real typed
access on the shared :class:`~repro.isa.memory.LinearMemory` and charges
the data-cache hierarchy; per *branch* it consults the branch predictor.
Everything the paper measures falls out of these three event streams.

Style note: the dispatch loop deliberately trades idiomatic structure for
locality — locals are bound once per call frame and the opcode space is
range-partitioned — because it executes millions of times per experiment.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ReproError, Trap
from ..hw import CPUModel
from ..hw.config import HOST_STACK_BASE, RUNTIME_DATA_BASE
from . import ops
from .memory import LinearMemory
from .program import MFunction, MProgram

# Precompiled struct codecs per load/store opcode.
_LOADS: Dict[int, tuple] = {}
for _op, (_size, _fmt, _mask) in ops.LOAD_CODEC.items():
    _LOADS[_op] = (_size, struct.Struct("<" + _fmt).unpack_from, _mask)
_STORES: Dict[int, tuple] = {}
for _op, (_size, _fmt, _mask) in ops.STORE_CODEC.items():
    _STORES[_op] = (_size, struct.Struct("<" + _fmt).pack_into, _mask)

_GLOBALS_ADDR = RUNTIME_DATA_BASE + 0x0010_0000
_HOST_CALL_INSTRS = 24       # trampoline + ABI shuffle per host call
_MAX_CALL_DEPTH = 1200
_NEVER = float("inf")

# Each guest call costs a few CPython frames; keep the interpreter's own
# recursion limit comfortably above the guest's.
import sys as _sys

if _sys.getrecursionlimit() < _MAX_CALL_DEPTH * 5 + 200:
    _sys.setrecursionlimit(_MAX_CALL_DEPTH * 5 + 200)

HostFn = Callable[["Machine", Sequence], Optional[float]]


class Machine:
    """Executes one finalized :class:`MProgram`."""

    def __init__(self, program: MProgram, cpu: CPUModel,
                 memory: Optional[LinearMemory] = None,
                 host: Optional[Dict[str, HostFn]] = None,
                 check_cost: bool = False):
        if not program.finalized:
            raise ReproError("program must be finalized before execution")
        self.program = program
        self.cpu = cpu
        self.memory = memory or LinearMemory(program.memory_pages,
                                             program.memory_max_pages)
        self.globals: List = list(program.globals_init)
        self.table: List[int] = list(program.table)
        self.check_cost = check_cost
        host = host or {}
        self.host_functions: List[HostFn] = []
        for name in program.host_imports:
            fn = host.get(name)
            if fn is None:
                raise ReproError(f"unresolved host import {name!r}")
            self.host_functions.append(fn)
        self._depth = 0
        self._frame_top = HOST_STACK_BASE
        self.returned_value = None
        # Machine closures (tier 2): the program's hotness table, this
        # machine's bound closures and their shared helper context.
        from .. import speed   # repro.speed imports repro.isa
        self._mcode = speed.machine_code(program)
        self._bound: List = [None] * len(program.functions)
        self._mctx = None

    # -- program environment setup -------------------------------------

    def apply_data_segments(self) -> None:
        for offset, payload in self.program.data_segments:
            self.memory.write_bytes(offset, payload)

    def run_start(self) -> None:
        if self.program.start_function is not None:
            self.call_function(self.program.start_function, ())

    def run_export(self, name: str, args: Sequence = ()) -> Optional[float]:
        index = self.program.exports.get(name)
        if index is None:
            raise ReproError(f"no exported function {name!r}")
        return self.call_function(index, args)

    # -- execution ----------------------------------------------------------

    def call_function(self, func_index: int, args: Sequence):
        func = self.program.functions[func_index]
        if len(args) != func.num_params:
            raise ReproError(f"{func.name}: expected {func.num_params} args, "
                             f"got {len(args)}")
        return self._call(func, list(args))

    def _call(self, func: MFunction, args: List):
        self._depth += 1
        if self._depth > _MAX_CALL_DEPTH:
            self._depth -= 1
            raise Trap("call stack exhausted")
        frame_bytes = (func.frame_slots + 2 + func.num_params) * 8
        self._frame_top -= frame_bytes
        frame_base = self._frame_top
        try:
            return self._exec(func, args, frame_base)
        finally:
            self._frame_top += frame_bytes
            self._depth -= 1

    def _enter_hot(self, func: MFunction):
        """The closure a call of hot ``func`` runs, or None (the loop).
        Separate from :meth:`_osr` so that tests can force every hot
        frame through on-stack replacement."""
        return self._bind(func)

    def _bind(self, func: MFunction):
        make = self._mcode.factory(func)
        if make is None:
            return None
        if self._mctx is None:
            from ..speed.mclosures import context
            self._mctx = context(self)
        fn = self._bound[func.index] = make(self, self._mctx)
        return fn

    def _osr(self, func: MFunction, pc: int):
        """The closure a loop frame of ``func`` moves into at loop
        header ``pc``, or None to stay in the loop."""
        fn = self._bound[func.index] or self._bind(func)
        return fn if fn is not None and pc in fn.osr else None

    def _exec(self, func: MFunction, args: List, frame_base: int):
        # Tier 2: run the closure once the function is hot; until then
        # ``hot_left`` is the work this frame may retire before it moves
        # into the closure at a loop back-edge.
        mcode = self._mcode
        fn = self._bound[func.index]
        if fn is None and mcode is not None:
            hot_left = mcode.left[func.index]
            if hot_left <= 0:
                fn = self._enter_hot(func)
        else:
            hot_left = _NEVER
        if fn is not None:
            return fn(args, frame_base)
        # Bind everything hot into locals.
        code = func.code
        blocks = func.blocks
        regs = args + [0] * (func.num_regs - len(args))
        counters = self.cpu.counters
        caches = self.cpu.caches
        l1i = caches.l1i
        l1d = caches.l1d
        l1i_access = l1i.access_line
        l1d_access = l1d.access_line
        line_shift = caches.line_shift
        branches = self.cpu.branches
        mem = self.memory
        mem_data = mem.data
        mem_size = mem.size
        touched = mem.touched
        binf = ops.BINF
        unf = ops.UNF
        num_bin = ops.NUM_BIN
        num_un = ops.NUM_UN_END
        extra_stall = ops.EXTRA_STALL
        func_tag = (func.index & 0xFFFF) << 16
        guest_line_base = 0x1000_0000 >> line_shift  # GUEST_MEMORY_BASE
        pc = 0
        stall = 0

        # Shadowed model state, as in repro.speed.fastloop: the gshare
        # history/tables, the indirect target history, pending branch
        # and L1 reference counts, and the L1 LRU clocks live in frame
        # locals; everything is written back before any observation
        # point (calls, traps, return), and every model miss path falls
        # back to the real method after a write-back, so the modeled
        # numbers are byte-identical to calling the methods per event.
        penalty = branches.penalty
        gshare = branches._gshare
        gmask = branches._gshare_mask
        gh = branches._history
        ghmask = branches._history_mask
        imask = branches._itc_mask
        btb = branches._btb
        itc = branches._itc
        th = branches._target_history
        br = 0
        l1i_sets = l1i.sets
        l1i_smask = l1i.set_mask
        l1i_stats = l1i.stats
        l1i_tick = l1i.tick
        l1i_refs = 0
        l1d_sets = l1d.sets
        l1d_smask = l1d.set_mask
        l1d_stats = l1d.stats
        l1d_tick = l1d.tick
        l1d_refs = 0

        # Charge the entry block.  The frame's own work (for the hotness
        # rule) is counters.instructions - base: callee work is added
        # to base after every call.
        base = counters.instructions
        blk = blocks[0]
        counters.instructions += blk[0]
        for ln in blk[1]:
            cs = l1i_sets[ln & l1i_smask]
            if ln in cs:
                l1i_tick += 1
                l1i_refs += 1
                cs[ln] = l1i_tick
            else:
                l1i.tick = l1i_tick
                l1i_stats.refs += l1i_refs
                l1i_refs = 0
                stall += l1i_access(ln)
                l1i_tick = l1i.tick

        while True:
            ins = code[pc]
            o = ins[0]
            if o < num_bin:
                s = extra_stall[o]
                if s:
                    stall += s
                regs[ins[1]] = binf[o](regs[ins[2]], regs[ins[3]])
                pc += 1
            elif o < num_un:
                s = extra_stall[o]
                if s:
                    stall += s
                regs[ins[1]] = unf[o - num_bin](regs[ins[2]])
                pc += 1
            elif o == ops.LI:
                regs[ins[1]] = ins[2]
                pc += 1
            elif o == ops.MOV:
                regs[ins[1]] = regs[ins[2]]
                pc += 1
            elif o in _LOADS:
                size, unpack, mask = _LOADS[o]
                addr = regs[ins[2]] + ins[3]
                if addr + size > mem_size:
                    counters.stall_cycles += stall
                    counters.branches += br
                    l1i_stats.refs += l1i_refs
                    l1d_stats.refs += l1d_refs
                    branches._history = gh
                    branches._target_history = th
                    l1i.tick = l1i_tick
                    l1d.tick = l1d_tick
                    raise Trap("out of bounds memory access",
                               f"{func.name}: load at {addr}")
                value = unpack(mem_data, addr)[0]
                regs[ins[1]] = (value & mask) if mask else value
                ln = guest_line_base + (addr >> line_shift)
                cs = l1d_sets[ln & l1d_smask]
                if ln in cs:
                    l1d_tick += 1
                    l1d_refs += 1
                    cs[ln] = l1d_tick
                else:
                    l1d.tick = l1d_tick
                    l1d_stats.refs += l1d_refs
                    l1d_refs = 0
                    stall += l1d_access(ln)
                    l1d_tick = l1d.tick
                pc += 1
            elif o in _STORES:
                size, pack, mask = _STORES[o]
                addr = regs[ins[1]] + ins[2]
                if addr + size > mem_size:
                    counters.stall_cycles += stall
                    counters.branches += br
                    l1i_stats.refs += l1i_refs
                    l1d_stats.refs += l1d_refs
                    branches._history = gh
                    branches._target_history = th
                    l1i.tick = l1i_tick
                    l1d.tick = l1d_tick
                    raise Trap("out of bounds memory access",
                               f"{func.name}: store at {addr}")
                value = regs[ins[3]]
                pack(mem_data, addr, (value & mask) if mask else value)
                touched.add(addr >> 12)
                ln = guest_line_base + (addr >> line_shift)
                cs = l1d_sets[ln & l1d_smask]
                if ln in cs:
                    l1d_tick += 1
                    l1d_refs += 1
                    cs[ln] = l1d_tick
                else:
                    l1d.tick = l1d_tick
                    l1d_stats.refs += l1d_refs
                    l1d_refs = 0
                    stall += l1d_access(ln)
                    l1d_tick = l1d.tick
                pc += 1
            elif o == ops.BRZ or o == ops.BRNZ:
                taken = (regs[ins[1]] == 0) == (o == ops.BRZ)
                br += 1
                gi = ((func_tag | pc) ^ gh) & gmask
                gc = gshare[gi]
                if taken:
                    if gc < 3:
                        gshare[gi] = gc + 1
                    gh = ((gh << 1) | 1) & ghmask
                else:
                    if gc > 0:
                        gshare[gi] = gc - 1
                    gh = (gh << 1) & ghmask
                if (gc >= 2) != taken:
                    counters.branch_misses += 1
                    stall += penalty
                npc = ins[2] if taken else pc + 1
                blk = blocks[npc]
                counters.instructions += blk[0]
                for ln in blk[1]:
                    cs = l1i_sets[ln & l1i_smask]
                    if ln in cs:
                        l1i_tick += 1
                        l1i_refs += 1
                        cs[ln] = l1i_tick
                    else:
                        l1i.tick = l1i_tick
                        l1i_stats.refs += l1i_refs
                        l1i_refs = 0
                        stall += l1i_access(ln)
                        l1i_tick = l1i.tick
                if npc <= pc and counters.instructions - base >= hot_left:
                    fn = self._osr(func, npc)
                    if fn is not None:
                        return fn(regs, frame_base, (
                            fn.osr[npc], stall, br, l1i_refs, l1d_refs, gh,
                            th, l1i_tick, l1d_tick))
                    hot_left = _NEVER
                pc = npc
            elif o == ops.JMP:
                br += 1
                npc = ins[1]
                blk = blocks[npc]
                counters.instructions += blk[0]
                for ln in blk[1]:
                    cs = l1i_sets[ln & l1i_smask]
                    if ln in cs:
                        l1i_tick += 1
                        l1i_refs += 1
                        cs[ln] = l1i_tick
                    else:
                        l1i.tick = l1i_tick
                        l1i_stats.refs += l1i_refs
                        l1i_refs = 0
                        stall += l1i_access(ln)
                        l1i_tick = l1i.tick
                if npc <= pc and counters.instructions - base >= hot_left:
                    fn = self._osr(func, npc)
                    if fn is not None:
                        return fn(regs, frame_base, (
                            fn.osr[npc], stall, br, l1i_refs, l1d_refs, gh,
                            th, l1i_tick, l1d_tick))
                    hot_left = _NEVER
                pc = npc
            elif o == ops.CALL:
                counters.stall_cycles += stall
                counters.branches += br
                l1i_stats.refs += l1i_refs
                l1d_stats.refs += l1d_refs
                branches._history = gh
                branches._target_history = th
                l1i.tick = l1i_tick
                l1d.tick = l1d_tick
                stall = 0
                br = 0
                l1i_refs = 0
                l1d_refs = 0
                branches.call(func_tag | pc)
                mark = counters.instructions
                result = self._call(self.program.functions[ins[2]],
                                    [regs[r] for r in ins[3]])
                base += counters.instructions - mark
                branches.ret(func_tag | pc)
                gh = branches._history
                th = branches._target_history
                l1i_tick = l1i.tick
                l1d_tick = l1d.tick
                mem_data = mem.data   # callee may have grown memory
                mem_size = mem.size
                if ins[1] >= 0:
                    regs[ins[1]] = result
                pc += 1
            elif o == ops.CALL_HOST:
                counters.instructions += _HOST_CALL_INSTRS
                counters.stall_cycles += stall
                counters.branches += br
                l1i_stats.refs += l1i_refs
                l1d_stats.refs += l1d_refs
                branches._history = gh
                branches._target_history = th
                l1i.tick = l1i_tick
                l1d.tick = l1d_tick
                stall = 0
                br = 0
                l1i_refs = 0
                l1d_refs = 0
                branches.call(func_tag | pc)
                mark = counters.instructions
                result = self.host_functions[ins[2]](
                    self, [regs[r] for r in ins[3]])
                base += counters.instructions - mark
                branches.ret(func_tag | pc)
                gh = branches._history
                th = branches._target_history
                l1i_tick = l1i.tick
                l1d_tick = l1d.tick
                mem_data = mem.data   # host may have grown memory
                mem_size = mem.size
                if ins[1] >= 0:
                    regs[ins[1]] = result
                pc += 1
            elif o == ops.CALL_IND:
                counters.stall_cycles += stall
                counters.branches += br
                l1i_stats.refs += l1i_refs
                l1d_stats.refs += l1d_refs
                branches._history = gh
                branches._target_history = th
                l1i.tick = l1i_tick
                l1d.tick = l1d_tick
                stall = 0
                br = 0
                l1i_refs = 0
                l1d_refs = 0
                table_index = regs[ins[3]]
                if table_index >= len(self.table) or table_index < 0:
                    raise Trap("undefined element",
                               f"table index {table_index}")
                callee_index = self.table[table_index]
                if callee_index < 0:
                    raise Trap("uninitialized element")
                callee = self.program.functions[callee_index]
                if callee.sig_id != ins[2]:
                    raise Trap("indirect call type mismatch")
                branches.indirect_branch(func_tag | pc, callee_index)
                mark = counters.instructions
                result = self._call(callee, [regs[r] for r in ins[4]])
                base += counters.instructions - mark
                branches.ret(func_tag | pc)
                gh = branches._history
                th = branches._target_history
                l1i_tick = l1i.tick
                l1d_tick = l1d.tick
                mem_data = mem.data   # callee may have grown memory
                mem_size = mem.size
                if ins[1] >= 0:
                    regs[ins[1]] = result
                pc += 1
            elif o == ops.RET:
                counters.stall_cycles += stall
                counters.branches += br
                l1i_stats.refs += l1i_refs
                l1d_stats.refs += l1d_refs
                branches._history = gh
                branches._target_history = th
                l1i.tick = l1i_tick
                l1d.tick = l1d_tick
                if mcode is not None:
                    mcode.left[func.index] -= counters.instructions - base
                return regs[ins[1]] if ins[1] >= 0 else None
            elif o == ops.SELECT:
                regs[ins[1]] = regs[ins[3]] if regs[ins[2]] else regs[ins[4]]
                pc += 1
            elif o == ops.GGET:
                regs[ins[1]] = self.globals[ins[2]]
                ln = (_GLOBALS_ADDR + ins[2] * 8) >> line_shift
                cs = l1d_sets[ln & l1d_smask]
                if ln in cs:
                    l1d_tick += 1
                    l1d_refs += 1
                    cs[ln] = l1d_tick
                else:
                    l1d.tick = l1d_tick
                    l1d_stats.refs += l1d_refs
                    l1d_refs = 0
                    stall += l1d_access(ln)
                    l1d_tick = l1d.tick
                pc += 1
            elif o == ops.GSET:
                self.globals[ins[1]] = regs[ins[2]]
                ln = (_GLOBALS_ADDR + ins[1] * 8) >> line_shift
                cs = l1d_sets[ln & l1d_smask]
                if ln in cs:
                    l1d_tick += 1
                    l1d_refs += 1
                    cs[ln] = l1d_tick
                else:
                    l1d.tick = l1d_tick
                    l1d_stats.refs += l1d_refs
                    l1d_refs = 0
                    stall += l1d_access(ln)
                    l1d_tick = l1d.tick
                pc += 1
            elif o == ops.SPILL or o == ops.RELOAD:
                ln = (frame_base + ins[1] * 8) >> line_shift
                cs = l1d_sets[ln & l1d_smask]
                if ln in cs:
                    l1d_tick += 1
                    l1d_refs += 1
                    cs[ln] = l1d_tick
                else:
                    l1d.tick = l1d_tick
                    l1d_stats.refs += l1d_refs
                    l1d_refs = 0
                    stall += l1d_access(ln)
                    l1d_tick = l1d.tick
                pc += 1
            elif o == ops.CHECK:
                pc += 1
            elif o == ops.MEMSIZE:
                regs[ins[1]] = mem.pages
                pc += 1
            elif o == ops.MEMGROW:
                counters.instructions += 200
                regs[ins[1]] = ops.M32 & mem.grow(regs[ins[2]])
                mem_data = mem.data
                mem_size = mem.size
                pc += 1
            elif o == ops.BR_TABLE:
                index = regs[ins[1]]
                targets = ins[2]
                target = targets[index] if index < len(targets) else ins[3]
                if btb.get((func_tag | pc) & imask) == target \
                        and itc.get(th & imask) == target:
                    th = ((th << 4) ^ target) & imask
                    br += 1
                else:
                    branches._target_history = th
                    branches.indirect_branch(func_tag | pc, target)
                    th = branches._target_history
                blk = blocks[target]
                counters.instructions += blk[0]
                for ln in blk[1]:
                    cs = l1i_sets[ln & l1i_smask]
                    if ln in cs:
                        l1i_tick += 1
                        l1i_refs += 1
                        cs[ln] = l1i_tick
                    else:
                        l1i.tick = l1i_tick
                        l1i_stats.refs += l1i_refs
                        l1i_refs = 0
                        stall += l1i_access(ln)
                        l1i_tick = l1i.tick
                if target <= pc and counters.instructions - base >= hot_left:
                    fn = self._osr(func, target)
                    if fn is not None:
                        return fn(regs, frame_base, (
                            fn.osr[target], stall, br, l1i_refs, l1d_refs,
                            gh, th, l1i_tick, l1d_tick))
                    hot_left = _NEVER
                pc = target
            elif o == ops.TRAP_OP:
                counters.stall_cycles += stall
                counters.branches += br
                l1i_stats.refs += l1i_refs
                l1d_stats.refs += l1d_refs
                branches._history = gh
                branches._target_history = th
                l1i.tick = l1i_tick
                l1d.tick = l1d_tick
                raise Trap(ins[1])
            else:  # pragma: no cover - opcode space is closed
                # The reference loses pending stall here; only the
                # shadowed predictor/cache state is written back.
                counters.branches += br
                l1i_stats.refs += l1i_refs
                l1d_stats.refs += l1d_refs
                branches._history = gh
                branches._target_history = th
                l1i.tick = l1i_tick
                l1d.tick = l1d_tick
                raise ReproError(f"unknown machine opcode {o}")
