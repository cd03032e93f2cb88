"""The interpreter fast loop: executes predecoded ``fcode``.

Byte-for-byte model equivalence with ``Interpreter._run_ref`` is the
whole contract (see PERFORMANCE.md and tests/test_speed.py): every
counter charge, predictor update, cache access and trap message happens
with the same values and — where state is shared — in the same order as
the reference loop.  What this loop removes is pure Python overhead:
opcode classification chains, side-table dict lookups, codec dict
lookups, and per-op loop trips for fused sequences.

Two model hot paths are additionally inlined here, with their object
state shadowed in frame locals:

* the indirect-target predictor, in full: the steady-state hit (both
  components already predict the dispatched target, so the chooser and
  tables are provably unchanged — only the target history advances)
  and the update path (chooser, BTB and history-table writes applied
  directly to the model's dicts, the miss penalty charged to the
  pending stall count);
* the L1I cache hit (tick bump + LRU touch, no miss recursion).

Shadowed state (pending branch/ref/stall counts, the target history,
the L1I tick) is written back at every point the rest of the system can
observe it: before guest/host calls, before every trap, and at frame
exit.  L1I misses fall back to the real cache method after a
write-back, so the shared L2/L3 and eviction order stay exact.

The dispatch chain is ordered by measured kind frequency on the
benchmark suite (binary ops and the local·local/const fusions dominate
numeric kernels), not by declaration order.

``call_indirect`` sites carry an inline cache mapping table element
index to resolved callee function index.  The cache is sound because
the funcref table of a module never mutates during execution and is
rebuilt identically on every instantiation; the cached value is the
*index* (not the callee entry), because host-function entries are
rebound per run.

At tier 2 this loop is also the warm-up tier: a frame counts the
backward branches it takes, and on the :data:`HOT_BACKEDGES`-th one it
flushes its shadowed state exactly as before a call and continues in
the function's closure from the loop header (on-stack replacement;
see :mod:`repro.speed.closures`).
"""

from __future__ import annotations

from typing import List

from ..errors import ReproError, Trap
from ..wasm import opcodes as op
from .predecode import (
    F_LG_CONST_BIN, F_LG_CONST_CMP_BRIF, F_LG_CONST_STORE, F_LG_LG_BIN,
    F_LG_LG_CMP_BRIF, F_LG_LG_STORE, F_LG_LOAD, K_BAD, K_BIN, K_BR,
    K_BR_IF, K_BR_TABLE, K_CALL, K_CALL_INDIRECT, K_CONST, K_DROP,
    K_ELSE, K_GLOBAL_GET, K_GLOBAL_SET, K_IF, K_LOAD, K_LOCAL_GET,
    K_LOCAL_SET, K_LOCAL_TEE, K_MEMORY_GROW, K_MEMORY_SIZE, K_PASS,
    K_RETURN, K_SELECT, K_STORE, K_UN, K_UNREACHABLE)

#: Backward branches after which a tier-2 frame moves to its closure.
HOT_BACKEDGES = 64


def _osr(interp, func, locals_, stack, pc, instr, stall, br, ldr,
         l1i_refs, th, l1i_tick):
    """Flush a frame's shadowed state and finish the frame in the
    function's closure, entered at the loop header ``pc``."""
    cpu = interp.cpu
    counters = cpu.counters
    l1i = cpu.caches.l1i
    counters.instructions += instr
    counters.stall_cycles += stall
    counters.branches += br
    counters.l1d.refs += ldr
    l1i.stats.refs += l1i_refs
    cpu.branches._target_history = th
    l1i.tick = l1i_tick
    fn = interp.closure_code.compile(func.index)
    return fn(interp, locals_, stack, fn.osr_blocks[pc])


def fast_run(interp, func, fcode: list, args: List):
    """Run one frame of predecoded code; returns like the reference."""
    n = len(fcode)
    backedges = 0
    osr_at = HOT_BACKEDGES if interp.closure_code is not None else 0
    locals_ = args + [0.0 if t in (0x7D, 0x7C) else 0
                      for t in func.local_types[len(args):]]
    stack: List = []
    push = stack.append
    pop = stack.pop

    cpu = interp.cpu
    counters = cpu.counters
    branches = cpu.branches
    indirect = branches.indirect_branch
    cond_branch = branches.cond_branch
    br_call = branches.call
    br_ret = branches.ret
    penalty = branches.penalty
    l1d = counters.l1d
    l1i = cpu.caches.l1i
    l1i_access = l1i.access_line
    l1d_access = cpu.caches.l1d.access_line
    line_shift = cpu.caches.line_shift
    guest_line_base = 0x1000_0000 >> line_shift
    mem = interp.memory
    globals_ = interp.globals
    functions = interp.functions
    table = interp.table
    exec_ = interp._exec
    func_name = func.name
    stall = 0
    instr = 0
    ldr = 0

    # Shadowed model state (see module docstring).  ``th`` mirrors the
    # predictor's target history, ``br`` counts pending branch events,
    # ``l1i_tick``/``l1i_refs`` mirror the L1I LRU clock and pending
    # reference count.  All are written back before any observation.
    # The predictor's chooser/BTB/history tables are updated in place.
    imask = branches._itc_mask
    btb = branches._btb
    itc = branches._itc
    metad = branches._meta
    th = branches._target_history
    br = 0
    l1i_sets = l1i.sets
    l1i_smask = l1i.set_mask
    l1i_stats = l1i.stats
    l1i_tick = l1i.tick
    l1i_refs = 0

    pc = 0
    while pc < n:
        e = fcode[pc]
        k = e[0]
        # Every entry — single or fused — leads with (kind, summed cost,
        # first dispatch site, first opcode, first handler line), so the
        # first op's charges are hoisted out of the kind chain.
        instr += e[1]
        t = e[3]
        si = e[2] & imask
        hi = th & imask
        br += 1
        if btb.get(si) == t and itc.get(hi) == t:
            th = ((th << 4) ^ t) & imask
        else:
            sp = btb.get(si)
            hp = itc.get(hi)
            meta = metad.get(si, 1)
            predicted = hp if meta >= 2 else sp
            if hp == t:
                if sp != t and meta < 3:
                    metad[si] = meta + 1
            elif sp == t and meta > 0:
                metad[si] = meta - 1
            btb[si] = t
            itc[hi] = t
            th = ((th << 4) ^ t) & imask
            if predicted != t:
                counters.branch_misses += 1
                stall += penalty
        ldr += 2
        ln = e[4]
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

        if k == K_BIN:
            b = pop()
            a = pop()
            try:
                push(e[5](a, b))
            except Trap:
                counters.instructions += instr
                counters.stall_cycles += stall
                counters.branches += br
                l1d.refs += ldr
                l1i_stats.refs += l1i_refs
                branches._target_history = th
                l1i.tick = l1i_tick
                raise
            pc += 1
        elif k == F_LG_CONST_BIN:
            ldr += 4
            ln = e[7]
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
            t = e[6]
            si = e[5] & imask
            hi = th & imask
            br += 1
            if btb.get(si) == t and itc.get(hi) == t:
                th = ((th << 4) ^ t) & imask
            else:
                sp = btb.get(si)
                hp = itc.get(hi)
                meta = metad.get(si, 1)
                predicted = hp if meta >= 2 else sp
                if hp == t:
                    if sp != t and meta < 3:
                        metad[si] = meta + 1
                elif sp == t and meta > 0:
                    metad[si] = meta - 1
                btb[si] = t
                itc[hi] = t
                th = ((th << 4) ^ t) & imask
                if predicted != t:
                    counters.branch_misses += 1
                    stall += penalty
            t = e[9]
            si = e[8] & imask
            hi = th & imask
            br += 1
            if btb.get(si) == t and itc.get(hi) == t:
                th = ((th << 4) ^ t) & imask
            else:
                sp = btb.get(si)
                hp = itc.get(hi)
                meta = metad.get(si, 1)
                predicted = hp if meta >= 2 else sp
                if hp == t:
                    if sp != t and meta < 3:
                        metad[si] = meta + 1
                elif sp == t and meta > 0:
                    metad[si] = meta - 1
                btb[si] = t
                itc[hi] = t
                th = ((th << 4) ^ t) & imask
                if predicted != t:
                    counters.branch_misses += 1
                    stall += penalty
            ln = e[10]
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
            try:
                push(e[13](locals_[e[11]], e[12]))
            except Trap:
                counters.instructions += instr
                counters.stall_cycles += stall
                counters.branches += br
                l1d.refs += ldr
                l1i_stats.refs += l1i_refs
                branches._target_history = th
                l1i.tick = l1i_tick
                raise
            pc = e[14]
        elif k == K_CONST:
            push(e[5])
            pc += 1
        elif k == K_PASS:
            pc += 1
        elif k == K_LOAD:
            addr = pop() + e[8]
            size = e[5]
            if addr + size > mem.size:
                counters.instructions += instr
                counters.stall_cycles += stall
                counters.branches += br
                l1d.refs += ldr
                l1i_stats.refs += l1i_refs
                branches._target_history = th
                l1i.tick = l1i_tick
                raise Trap("out of bounds memory access",
                           f"{func_name}: load at {addr}")
            value = e[6](mem.data, addr)[0]
            mask = e[7]
            push((value & mask) if mask else value)
            stall += l1d_access(guest_line_base + (addr >> line_shift))
            pc += 1
        elif k == K_LOCAL_SET:
            locals_[e[5]] = pop()
            pc += 1
        elif k == K_UN:
            try:
                stack[-1] = e[5](stack[-1])
            except Trap:
                counters.instructions += instr
                counters.stall_cycles += stall
                counters.branches += br
                l1d.refs += ldr
                l1i_stats.refs += l1i_refs
                branches._target_history = th
                l1i.tick = l1i_tick
                raise
            pc += 1
        elif k == K_BR_IF:
            cond = pop()
            cond_branch(e[2], bool(cond))
            if cond:
                arity = e[6]
                if arity:
                    vals = stack[-arity:]
                    del stack[e[7]:]
                    stack.extend(vals)
                else:
                    del stack[e[7]:]
                tgt = e[5]
                if tgt <= pc:
                    backedges += 1
                    if backedges == osr_at:
                        return _osr(interp, func, locals_, stack, tgt,
                                    instr, stall, br, ldr, l1i_refs, th,
                                    l1i_tick)
                pc = tgt
            else:
                pc += 1
        elif k == K_LOCAL_GET:
            push(locals_[e[5]])
            pc += 1
        elif k == K_BR:
            arity = e[6]
            if arity:
                vals = stack[-arity:]
                del stack[e[7]:]
                stack.extend(vals)
            else:
                del stack[e[7]:]
            tgt = e[5]
            if tgt <= pc:
                backedges += 1
                if backedges == osr_at:
                    return _osr(interp, func, locals_, stack, tgt, instr,
                                stall, br, ldr, l1i_refs, th, l1i_tick)
            pc = tgt
        elif k == K_LOCAL_TEE:
            locals_[e[5]] = stack[-1]
            pc += 1
        elif k == F_LG_LG_STORE or k == F_LG_CONST_STORE:
            ldr += 4
            ln = e[7]
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
            t = e[6]
            si = e[5] & imask
            hi = th & imask
            br += 1
            if btb.get(si) == t and itc.get(hi) == t:
                th = ((th << 4) ^ t) & imask
            else:
                sp = btb.get(si)
                hp = itc.get(hi)
                meta = metad.get(si, 1)
                predicted = hp if meta >= 2 else sp
                if hp == t:
                    if sp != t and meta < 3:
                        metad[si] = meta + 1
                elif sp == t and meta > 0:
                    metad[si] = meta - 1
                btb[si] = t
                itc[hi] = t
                th = ((th << 4) ^ t) & imask
                if predicted != t:
                    counters.branch_misses += 1
                    stall += penalty
            t = e[9]
            si = e[8] & imask
            hi = th & imask
            br += 1
            if btb.get(si) == t and itc.get(hi) == t:
                th = ((th << 4) ^ t) & imask
            else:
                sp = btb.get(si)
                hp = itc.get(hi)
                meta = metad.get(si, 1)
                predicted = hp if meta >= 2 else sp
                if hp == t:
                    if sp != t and meta < 3:
                        metad[si] = meta + 1
                elif sp == t and meta > 0:
                    metad[si] = meta - 1
                btb[si] = t
                itc[hi] = t
                th = ((th << 4) ^ t) & imask
                if predicted != t:
                    counters.branch_misses += 1
                    stall += penalty
            ln = e[10]
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
            if k == F_LG_LG_STORE:
                value = locals_[e[12]]
                mask = e[15]
                if mask:
                    value &= mask
                addr = locals_[e[11]] + e[16]
                size, pack, nxt = e[13], e[14], e[17]
            else:
                value = e[12]
                addr = locals_[e[11]] + e[15]
                size, pack, nxt = e[13], e[14], e[16]
            if addr + size > mem.size:
                counters.instructions += instr
                counters.stall_cycles += stall
                counters.branches += br
                l1d.refs += ldr
                l1i_stats.refs += l1i_refs
                branches._target_history = th
                l1i.tick = l1i_tick
                raise Trap("out of bounds memory access",
                           f"{func_name}: store at {addr}")
            pack(mem.data, addr, value)
            mem.touched.add(addr >> 12)
            stall += l1d_access(guest_line_base + (addr >> line_shift))
            pc = nxt
        elif k == K_STORE:
            value = pop()
            addr = pop() + e[8]
            size = e[5]
            if addr + size > mem.size:
                counters.instructions += instr
                counters.stall_cycles += stall
                counters.branches += br
                l1d.refs += ldr
                l1i_stats.refs += l1i_refs
                branches._target_history = th
                l1i.tick = l1i_tick
                raise Trap("out of bounds memory access",
                           f"{func_name}: store at {addr}")
            mask = e[7]
            e[6](mem.data, addr, (value & mask) if mask else value)
            mem.touched.add(addr >> 12)
            stall += l1d_access(guest_line_base + (addr >> line_shift))
            pc += 1
        elif k == F_LG_LOAD:
            ldr += 2
            t = e[6]
            si = e[5] & imask
            hi = th & imask
            br += 1
            if btb.get(si) == t and itc.get(hi) == t:
                th = ((th << 4) ^ t) & imask
            else:
                sp = btb.get(si)
                hp = itc.get(hi)
                meta = metad.get(si, 1)
                predicted = hp if meta >= 2 else sp
                if hp == t:
                    if sp != t and meta < 3:
                        metad[si] = meta + 1
                elif sp == t and meta > 0:
                    metad[si] = meta - 1
                btb[si] = t
                itc[hi] = t
                th = ((th << 4) ^ t) & imask
                if predicted != t:
                    counters.branch_misses += 1
                    stall += penalty
            ln = e[7]
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
            addr = locals_[e[8]] + e[12]
            size = e[9]
            if addr + size > mem.size:
                counters.instructions += instr
                counters.stall_cycles += stall
                counters.branches += br
                l1d.refs += ldr
                l1i_stats.refs += l1i_refs
                branches._target_history = th
                l1i.tick = l1i_tick
                raise Trap("out of bounds memory access",
                           f"{func_name}: load at {addr}")
            value = e[10](mem.data, addr)[0]
            mask = e[11]
            push((value & mask) if mask else value)
            stall += l1d_access(guest_line_base + (addr >> line_shift))
            pc = e[13]
        elif k == F_LG_LG_CMP_BRIF or k == F_LG_CONST_CMP_BRIF:
            ldr += 6
            ln = e[7]
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
            t = e[6]
            si = e[5] & imask
            hi = th & imask
            br += 1
            if btb.get(si) == t and itc.get(hi) == t:
                th = ((th << 4) ^ t) & imask
            else:
                sp = btb.get(si)
                hp = itc.get(hi)
                meta = metad.get(si, 1)
                predicted = hp if meta >= 2 else sp
                if hp == t:
                    if sp != t and meta < 3:
                        metad[si] = meta + 1
                elif sp == t and meta > 0:
                    metad[si] = meta - 1
                btb[si] = t
                itc[hi] = t
                th = ((th << 4) ^ t) & imask
                if predicted != t:
                    counters.branch_misses += 1
                    stall += penalty
            t = e[9]
            si = e[8] & imask
            hi = th & imask
            br += 1
            if btb.get(si) == t and itc.get(hi) == t:
                th = ((th << 4) ^ t) & imask
            else:
                sp = btb.get(si)
                hp = itc.get(hi)
                meta = metad.get(si, 1)
                predicted = hp if meta >= 2 else sp
                if hp == t:
                    if sp != t and meta < 3:
                        metad[si] = meta + 1
                elif sp == t and meta > 0:
                    metad[si] = meta - 1
                btb[si] = t
                itc[hi] = t
                th = ((th << 4) ^ t) & imask
                if predicted != t:
                    counters.branch_misses += 1
                    stall += penalty
            ln = e[10]
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
            t = e[12]
            si = e[11] & imask
            hi = th & imask
            br += 1
            if btb.get(si) == t and itc.get(hi) == t:
                th = ((th << 4) ^ t) & imask
            else:
                sp = btb.get(si)
                hp = itc.get(hi)
                meta = metad.get(si, 1)
                predicted = hp if meta >= 2 else sp
                if hp == t:
                    if sp != t and meta < 3:
                        metad[si] = meta + 1
                elif sp == t and meta > 0:
                    metad[si] = meta - 1
                btb[si] = t
                itc[hi] = t
                th = ((th << 4) ^ t) & imask
                if predicted != t:
                    counters.branch_misses += 1
                    stall += penalty
            ln = e[13]
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
            b = locals_[e[15]] if k == F_LG_LG_CMP_BRIF else e[15]
            cond = e[16](locals_[e[14]], b)
            cond_branch(e[11], bool(cond))
            if cond:
                arity = e[18]
                if arity:
                    vals = stack[-arity:]
                    del stack[e[19]:]
                    stack.extend(vals)
                else:
                    del stack[e[19]:]
                tgt = e[17]
                if tgt <= pc:
                    backedges += 1
                    if backedges == osr_at:
                        return _osr(interp, func, locals_, stack, tgt,
                                    instr, stall, br, ldr, l1i_refs, th,
                                    l1i_tick)
                pc = tgt
            else:
                pc = e[20]
        elif k == F_LG_LG_BIN:
            ldr += 4
            ln = e[7]
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
            t = e[6]
            si = e[5] & imask
            hi = th & imask
            br += 1
            if btb.get(si) == t and itc.get(hi) == t:
                th = ((th << 4) ^ t) & imask
            else:
                sp = btb.get(si)
                hp = itc.get(hi)
                meta = metad.get(si, 1)
                predicted = hp if meta >= 2 else sp
                if hp == t:
                    if sp != t and meta < 3:
                        metad[si] = meta + 1
                elif sp == t and meta > 0:
                    metad[si] = meta - 1
                btb[si] = t
                itc[hi] = t
                th = ((th << 4) ^ t) & imask
                if predicted != t:
                    counters.branch_misses += 1
                    stall += penalty
            t = e[9]
            si = e[8] & imask
            hi = th & imask
            br += 1
            if btb.get(si) == t and itc.get(hi) == t:
                th = ((th << 4) ^ t) & imask
            else:
                sp = btb.get(si)
                hp = itc.get(hi)
                meta = metad.get(si, 1)
                predicted = hp if meta >= 2 else sp
                if hp == t:
                    if sp != t and meta < 3:
                        metad[si] = meta + 1
                elif sp == t and meta > 0:
                    metad[si] = meta - 1
                btb[si] = t
                itc[hi] = t
                th = ((th << 4) ^ t) & imask
                if predicted != t:
                    counters.branch_misses += 1
                    stall += penalty
            ln = e[10]
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
            try:
                push(e[13](locals_[e[11]], locals_[e[12]]))
            except Trap:
                counters.instructions += instr
                counters.stall_cycles += stall
                counters.branches += br
                l1d.refs += ldr
                l1i_stats.refs += l1i_refs
                branches._target_history = th
                l1i.tick = l1i_tick
                raise
            pc = e[14]
        elif k == K_IF:
            cond = pop()
            cond_branch(e[2], not cond)
            if not cond:
                pc = e[5]
            else:
                pc += 1
        elif k == K_ELSE:
            pc = e[5]
        elif k == K_CALL:
            counters.instructions += instr
            counters.stall_cycles += stall
            counters.branches += br
            l1d.refs += ldr
            l1i_stats.refs += l1i_refs
            branches._target_history = th
            l1i.tick = l1i_tick
            instr = 0
            stall = 0
            br = 0
            ldr = 0
            l1i_refs = 0
            callee = functions[e[5]]
            br_call(e[2])
            if callee[0] == "host":
                n_args = callee[2]
                call_args = stack[len(stack) - n_args:] if n_args else []
                del stack[len(stack) - n_args:]
                result = callee[1](mem, *call_args)
            else:
                prepared = callee[1]
                n_args = prepared.params
                call_args = stack[len(stack) - n_args:] if n_args else []
                del stack[len(stack) - n_args:]
                result = exec_(prepared, call_args)
            br_ret(e[2])
            th = branches._target_history
            l1i_tick = l1i.tick
            if result is not None:
                push(result)
            pc += 1
        elif k == K_CALL_INDIRECT:
            counters.instructions += instr
            counters.stall_cycles += stall
            counters.branches += br
            l1d.refs += ldr
            l1i_stats.refs += l1i_refs
            branches._target_history = th
            l1i.tick = l1i_tick
            instr = 0
            stall = 0
            br = 0
            ldr = 0
            l1i_refs = 0
            elem_index = pop()
            ic = e[7]
            callee_index = ic.get(elem_index)
            if callee_index is None:
                if not 0 <= elem_index < len(table):
                    raise Trap("undefined element")
                callee_index = table[elem_index]
                if callee_index < 0:
                    raise Trap("uninitialized element")
                callee = functions[callee_index]
                expected = interp._sig_of_type_index(e[5])
                actual = interp._sig_of_callee(callee)
                if expected != actual:
                    raise Trap("indirect call type mismatch")
                ic[elem_index] = callee_index
            else:
                callee = functions[callee_index]
            indirect(e[6], callee_index)
            if callee[0] == "host":
                n_args = callee[2]
            else:
                n_args = callee[1].params
            call_args = stack[len(stack) - n_args:] if n_args else []
            del stack[len(stack) - n_args:]
            br_call(e[2])
            if callee[0] == "host":
                result = callee[1](mem, *call_args)
            else:
                result = exec_(callee[1], call_args)
            br_ret(e[2])
            th = branches._target_history
            l1i_tick = l1i.tick
            if result is not None:
                push(result)
            pc += 1
        elif k == K_GLOBAL_GET:
            push(globals_[e[5]])
            ldr += 1
            pc += 1
        elif k == K_GLOBAL_SET:
            globals_[e[5]] = pop()
            ldr += 1
            pc += 1
        elif k == K_DROP:
            pop()
            pc += 1
        elif k == K_SELECT:
            c = pop()
            b = pop()
            a = pop()
            push(a if c else b)
            pc += 1
        elif k == K_BR_TABLE:
            index = pop()
            entries = e[5]
            target = entries[index] if index < len(entries) else e[6]
            t = target[0]
            si = e[2] & imask
            hi = th & imask
            br += 1
            if btb.get(si) == t and itc.get(hi) == t:
                th = ((th << 4) ^ t) & imask
            else:
                sp = btb.get(si)
                hp = itc.get(hi)
                meta = metad.get(si, 1)
                predicted = hp if meta >= 2 else sp
                if hp == t:
                    if sp != t and meta < 3:
                        metad[si] = meta + 1
                elif sp == t and meta > 0:
                    metad[si] = meta - 1
                btb[si] = t
                itc[hi] = t
                th = ((th << 4) ^ t) & imask
                if predicted != t:
                    counters.branch_misses += 1
                    stall += penalty
            tgt, arity, hgt = target
            if arity:
                vals = stack[-arity:]
                del stack[hgt:]
                stack.extend(vals)
            else:
                del stack[hgt:]
            if tgt <= pc:
                backedges += 1
                if backedges == osr_at:
                    return _osr(interp, func, locals_, stack, tgt, instr,
                                stall, br, ldr, l1i_refs, th, l1i_tick)
            pc = tgt
        elif k == K_RETURN:
            break
        elif k == K_MEMORY_SIZE:
            push(mem.pages)
            pc += 1
        elif k == K_MEMORY_GROW:
            counters.instructions += 200
            push(mem.grow(pop()) & 0xFFFFFFFF)
            pc += 1
        elif k == K_UNREACHABLE:
            counters.instructions += instr
            counters.stall_cycles += stall
            counters.branches += br
            l1d.refs += ldr
            l1i_stats.refs += l1i_refs
            branches._target_history = th
            l1i.tick = l1i_tick
            raise Trap("unreachable")
        else:  # K_BAD — validated modules never reach this
            # The reference loses pending instr/stall on this internal
            # error; only the shadowed predictor/cache state is synced.
            counters.branches += br
            l1d.refs += ldr
            l1i_stats.refs += l1i_refs
            branches._target_history = th
            l1i.tick = l1i_tick
            raise ReproError(f"interpreter: unhandled opcode "
                             f"{op.name_of(e[3])}")

    counters.instructions += instr
    counters.stall_cycles += stall
    counters.branches += br
    l1d.refs += ldr
    l1i_stats.refs += l1i_refs
    branches._target_history = th
    l1i.tick = l1i_tick
    if func.results:
        return stack[-1] if stack else 0
    return None
