"""Predecode + superinstruction fusion: the input of closure compilation.

Translates a prepared function body into ``fcode``: a list, indexed by
the *same* pc as the original body, of flat handler tuples
``(kind, cost, ...)`` with every per-instruction constant precomputed —
handler cost (dispatch + handler instructions), dispatch-site tag,
handler I-cache line, side-table jump targets, load/store codecs and
pre-masked immediates.  :mod:`repro.speed.closures` reads those
constants off each entry into the source it generates, so a function is
predecoded only when it is compiled.

**Fusion.**  The dominant sequences compiled MiniC emits are collapsed
into superinstructions stored at the head pc:

* ``local.get; local.get; binop``  (and ``local.get; const; binop``)
* those two followed by ``br_if`` when the binop is a comparison
* ``local.get; load``  (address from a local + constant offset)
* ``local.get; {local.get|const}; store``

Tail pcs *keep their ordinary single-op entries*, so a branch landing in
the middle of a fused group executes the original semantics — fusion
needs no leader analysis to be safe.  Comparison-only ``br_if`` fusion
keeps trap-time counter flushes exact: comparisons cannot trap, so the
fused group can never flush with the ``br_if``'s charge excluded.

**The model contract.**  A fused entry keeps every sub-op's dispatch
site, opcode and handler line, so the generated code accounts the
per-op model events (dispatch prediction, L1I access, operand-stack
refs) of the reference loop, each model component seeing its events in
the reference order; fusion changes only how much Python runs.  See
PERFORMANCE.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..hw.config import RUNTIME_CODE_BASE
# The reference loop's semantic tables and load/store codecs, keyed by
# wasm opcode.
from ..runtimes.interp.engine import _BIN_FN, _LOADC, _STOREC, _UN_FN
from ..wasm import opcodes as op

_CONSTS = frozenset((op.I32_CONST, op.I64_CONST, op.F32_CONST,
                     op.F64_CONST))

# Binary comparisons: the only binops eligible for br_if fusion (they
# cannot trap, keeping fused trap-flush accounting exact).
_COMPARES = frozenset(
    list(range(op.I32_EQ, op.I32_GE_U + 1)) +
    list(range(op.I64_EQ, op.I64_GE_U + 1)) +
    list(range(op.F32_EQ, op.F32_GE + 1)) +
    list(range(op.F64_EQ, op.F64_GE + 1)))

# ---------------------------------------------------------------------------
# fcode entry kinds.  Layouts (index: field) are documented next to each
# constant and destructured positionally by repro.speed.closures.
# ---------------------------------------------------------------------------

# Singles — all start (kind, cost, site, opcode, line, ...).
K_LOCAL_GET = 0       # 5: local index
K_CONST = 1           # 5: pre-masked value
K_BIN = 2             # 5: semantic fn
K_LOCAL_SET = 3       # 5: local index
K_LOCAL_TEE = 4       # 5: local index
K_UN = 5              # 5: semantic fn
K_LOAD = 6            # 5: size, 6: unpack, 7: mask, 8: offset
K_STORE = 7           # 5: size, 6: pack, 7: mask, 8: offset
K_BR_IF = 8           # 5: tgt, 6: arity, 7: height
K_BR = 9              # 5: tgt, 6: arity, 7: height
K_IF = 10             # 5: else/after target
K_ELSE = 11           # 5: after target
K_PASS = 12           # block/loop/end/nop
K_CALL = 13           # 5: callee func index
K_CALL_INDIRECT = 14  # 5: type index, 6: dispatch site | 0x8000_0000,
#                       7: inline cache {elem_index: callee_index}
K_GLOBAL_GET = 15     # 5: global index
K_GLOBAL_SET = 16     # 5: global index
K_DROP = 17
K_SELECT = 18
K_BR_TABLE = 19       # 5: entries tuple, 6: default
K_RETURN = 20
K_MEMORY_SIZE = 21
K_MEMORY_GROW = 22
K_UNREACHABLE = 23
K_BAD = 24            # validated modules never execute this

# Fused — (kind, total cost, then (site, opcode, line) per sub-op, ...).
F_LG_LG_BIN = 25        # 11: idx a, 12: idx b, 13: fn, 14: next pc
F_LG_CONST_BIN = 26     # 11: idx a, 12: value, 13: fn, 14: next pc
F_LG_LG_CMP_BRIF = 27   # 14: idx a, 15: idx b, 16: fn,
#                         17: tgt, 18: arity, 19: height, 20: next pc
F_LG_CONST_CMP_BRIF = 28  # 14: idx a, 15: value, rest as above
F_LG_LOAD = 29          # 8: idx, 9: size, 10: unpack, 11: mask,
#                         12: offset, 13: next pc
F_LG_LG_STORE = 30      # 11: idx a, 12: idx v, 13: size, 14: pack,
#                         15: mask, 16: offset, 17: next pc
F_LG_CONST_STORE = 31   # 11: idx a, 12: pre-masked value, 13: size,
#                         14: pack, 15: offset, 16: next pc


def _const_value(ins: tuple) -> object:
    """The value a const pushes, masked exactly as the reference loop."""
    o = ins[0]
    if o > op.I64_CONST:
        return ins[1]
    return ins[1] & (0xFFFFFFFF if o == op.I32_CONST
                     else 0xFFFFFFFFFFFFFFFF)


def site_tag(index: int) -> int:
    """The bits above the pc in the sites of function ``index``: every
    site of its fcode is ``site_tag(index) | pc``."""
    return (index & 0x3FF) << 20


def predecode_functions(prepared: List, profile,
                        line_shift: int) -> Dict[int, list]:
    """Predecode every wasm function in a loader's prepared list."""
    hcost = profile.handler_costs()
    dispatch = profile.dispatch_cost
    hline = [(RUNTIME_CODE_BASE >> line_shift) + o * 2 for o in range(256)]
    out: Dict[int, list] = {}
    for entry in prepared:
        if entry is not None and entry[0] == "wasm":
            pf = entry[1]
            out[pf.index] = _predecode_body(pf, hcost, dispatch, hline)
    return out


def _predecode_body(pf, hcost: List[int], dispatch: int,
                    hline: List[int]) -> list:
    body = pf.body
    side = pf.side
    n = len(body)
    func_tag = site_tag(pf.index)

    # Pass 1: a single-op entry for every pc (branch targets stay valid).
    fcode: list = [None] * n
    for pc, ins in enumerate(body):
        o = ins[0]
        head = (hcost[o] + dispatch, func_tag | pc, o, hline[o])
        if o == op.LOCAL_GET:
            e = (K_LOCAL_GET,) + head + (ins[1],)
        elif o in _CONSTS:
            e = (K_CONST,) + head + (_const_value(ins),)
        elif o in _BIN_FN:
            e = (K_BIN,) + head + (_BIN_FN[o],)
        elif o == op.LOCAL_SET:
            e = (K_LOCAL_SET,) + head + (ins[1],)
        elif o == op.LOCAL_TEE:
            e = (K_LOCAL_TEE,) + head + (ins[1],)
        elif o in _UN_FN:
            e = (K_UN,) + head + (_UN_FN[o],)
        elif o in _LOADC:
            size, unpack, mask = _LOADC[o]
            e = (K_LOAD,) + head + (size, unpack, mask, ins[2])
        elif o in _STOREC:
            size, pack, mask = _STOREC[o]
            e = (K_STORE,) + head + (size, pack, mask, ins[2])
        elif o == op.BR_IF:
            tgt, arity, hgt = side[pc][1]
            e = (K_BR_IF,) + head + (tgt, arity, hgt)
        elif o == op.BR:
            tgt, arity, hgt = side[pc][1]
            e = (K_BR,) + head + (tgt, arity, hgt)
        elif o == op.IF:
            e = (K_IF,) + head + (side[pc][1],)
        elif o == op.ELSE:
            e = (K_ELSE,) + head + (side[pc][1],)
        elif o in (op.BLOCK, op.LOOP, op.END, op.NOP):
            e = (K_PASS,) + head
        elif o == op.CALL:
            e = (K_CALL,) + head + (ins[1],)
        elif o == op.CALL_INDIRECT:
            e = (K_CALL_INDIRECT,) + head + (
                ins[1], func_tag | pc | 0x8000_0000, {})
        elif o == op.GLOBAL_GET:
            e = (K_GLOBAL_GET,) + head + (ins[1],)
        elif o == op.GLOBAL_SET:
            e = (K_GLOBAL_SET,) + head + (ins[1],)
        elif o == op.DROP:
            e = (K_DROP,) + head
        elif o == op.SELECT:
            e = (K_SELECT,) + head
        elif o == op.BR_TABLE:
            _, entries, default = side[pc]
            e = (K_BR_TABLE,) + head + (tuple(entries), default)
        elif o == op.RETURN:
            e = (K_RETURN,) + head
        elif o == op.MEMORY_SIZE:
            e = (K_MEMORY_SIZE,) + head
        elif o == op.MEMORY_GROW:
            e = (K_MEMORY_GROW,) + head
        elif o == op.UNREACHABLE:
            e = (K_UNREACHABLE,) + head
        else:
            e = (K_BAD,) + head
        fcode[pc] = e

    # Pass 2: greedy left-to-right fusion overlay at group heads.
    pc = 0
    while pc < n:
        glen = _try_fuse(fcode, body, pc, n, hcost, dispatch, hline,
                         func_tag)
        pc += glen
    return fcode


def _model(pc: int, o: int, hline: List[int], func_tag: int) -> tuple:
    return (func_tag | pc, o, hline[o])


def _try_fuse(fcode: list, body: List[tuple], pc: int, n: int,
              hcost: List[int], dispatch: int, hline: List[int],
              func_tag: int) -> int:
    """Install a fused entry at ``pc`` if a pattern matches; return the
    number of pcs consumed (1 = no fusion)."""
    if body[pc][0] != op.LOCAL_GET or pc + 1 >= n:
        return 1
    i1 = body[pc]
    i2 = body[pc + 1]
    o2 = i2[0]

    def cost(*ops):
        return sum(hcost[o] + dispatch for o in ops)

    m1 = _model(pc, op.LOCAL_GET, hline, func_tag)

    # local.get; load
    if o2 in _LOADC:
        size, unpack, mask = _LOADC[o2]
        fcode[pc] = (F_LG_LOAD, cost(op.LOCAL_GET, o2)) + m1 + \
            _model(pc + 1, o2, hline, func_tag) + \
            (i1[1], size, unpack, mask, i2[2], pc + 2)
        return 2

    if pc + 2 >= n:
        return 1
    i3 = body[pc + 2]
    o3 = i3[0]
    second_lg = o2 == op.LOCAL_GET
    second_const = o2 in _CONSTS
    if not (second_lg or second_const):
        return 1
    m2 = _model(pc + 1, o2, hline, func_tag)
    m3 = _model(pc + 2, o3, hline, func_tag)
    operand = i2[1] if second_lg else _const_value(i2)

    # local.get; {local.get|const}; store
    if o3 in _STOREC:
        size, pack, mask = _STOREC[o3]
        if second_lg:
            fcode[pc] = (F_LG_LG_STORE, cost(op.LOCAL_GET, o2, o3)) + \
                m1 + m2 + m3 + (i1[1], operand, size, pack, mask, i3[2],
                                pc + 3)
        else:
            value = (operand & mask) if mask else operand
            fcode[pc] = (F_LG_CONST_STORE, cost(op.LOCAL_GET, o2, o3)) + \
                m1 + m2 + m3 + (i1[1], value, size, pack, i3[2], pc + 3)
        return 3

    if o3 not in _BIN_FN:
        return 1
    fn = _BIN_FN[o3]

    # local.get; {local.get|const}; compare; br_if
    if o3 in _COMPARES and pc + 3 < n and body[pc + 3][0] == op.BR_IF:
        brpc = pc + 3
        tgt, arity, hgt = fcode[brpc][5], fcode[brpc][6], fcode[brpc][7]
        m4 = _model(brpc, op.BR_IF, hline, func_tag)
        kind = F_LG_LG_CMP_BRIF if second_lg else F_LG_CONST_CMP_BRIF
        fcode[pc] = (kind, cost(op.LOCAL_GET, o2, o3, op.BR_IF)) + \
            m1 + m2 + m3 + m4 + (i1[1], operand, fn, tgt, arity, hgt,
                                 pc + 4)
        return 4

    # local.get; {local.get|const}; binop
    kind = F_LG_LG_BIN if second_lg else F_LG_CONST_BIN
    fcode[pc] = (kind, cost(op.LOCAL_GET, o2, o3)) + m1 + m2 + m3 + \
        (i1[1], operand, fn, pc + 3)
    return 3
