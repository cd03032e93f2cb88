"""The virtual native ISA: a load/store register machine.

This is the "x86" of the reproduction: MiniC's native compiler and the
three JIT backends all emit this ISA, and :mod:`repro.isa.machine`
executes it against the hardware model.  Instructions are tuples whose
first element is an opcode from this module.

Opcode-space layout (chosen so the executor can dispatch on cheap range
checks instead of a 150-way if/elif chain):

* ``[0, NUM_BIN)``    — binary ALU ops ``(op, dst, a, b)``, semantics in
  :data:`BINF`;
* ``[NUM_BIN, NUM_UN)`` — unary/conversion ops ``(op, dst, a)``, semantics
  in :data:`UNF`;
* named specials above ``NUM_UN`` — moves, memory, control, calls.

Integer registers hold **unsigned masked** values (i32 in ``[0, 2**32)``,
i64 in ``[0, 2**64)``); float registers hold Python floats.  f32
operations round their result to single precision, matching the Wasm
spec; helpers below implement the spec's trapping and NaN semantics so
that every execution engine computes identical results.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Dict, List

from ..errors import Trap

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF
_S32 = 0x80000000
_S64 = 0x8000000000000000

_pack_f = struct.Struct("<f")
_pack_d = struct.Struct("<d")
_pack_i = struct.Struct("<i")
_pack_I = struct.Struct("<I")
_pack_q = struct.Struct("<q")
_pack_Q = struct.Struct("<Q")


def s32(v: int) -> int:
    """Signed view of an unsigned-masked i32."""
    return v - ((v & _S32) << 1)


def s64(v: int) -> int:
    """Signed view of an unsigned-masked i64."""
    return v - ((v & _S64) << 1)


def f32round(x: float) -> float:
    """Round a double to the nearest representable single."""
    try:
        return _pack_f.unpack(_pack_f.pack(x))[0]
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _idiv(a: int, b: int) -> int:
    """Truncating (toward zero) signed integer division."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _div_s(a: int, b: int, mask: int, smin: int) -> int:
    if b == 0:
        raise Trap("integer divide by zero")
    sa, sb = a - ((a & smin) << 1), b - ((b & smin) << 1)
    if sa == -(smin) and sb == -1:
        raise Trap("integer overflow")
    return _idiv(sa, sb) & mask


def _rem_s(a: int, b: int, mask: int, smin: int) -> int:
    if b == 0:
        raise Trap("integer divide by zero")
    sa, sb = a - ((a & smin) << 1), b - ((b & smin) << 1)
    return (sa - sb * _idiv(sa, sb)) & mask if sb else 0


def _div_u(a: int, b: int) -> int:
    if b == 0:
        raise Trap("integer divide by zero")
    return a // b


def _rem_u(a: int, b: int) -> int:
    if b == 0:
        raise Trap("integer divide by zero")
    return a % b


def _fmin(a: float, b: float) -> float:
    if a != a or b != b:
        return math.nan
    if a == 0 and b == 0:
        # -0 is the minimum of (0, -0).
        return a if math.copysign(1, a) < 0 else b
    return a if a < b else b


def _fmax(a: float, b: float) -> float:
    if a != a or b != b:
        return math.nan
    if a == 0 and b == 0:
        return a if math.copysign(1, a) > 0 else b
    return a if a > b else b


def _nearest(x: float) -> float:
    """Round-half-to-even (the Wasm `nearest` semantics)."""
    if x != x or math.isinf(x):
        return x
    r = math.floor(x)
    d = x - r
    if d > 0.5 or (d == 0.5 and r % 2 != 0):
        r += 1
    if r == 0 and math.copysign(1, x) < 0:
        return -0.0
    return float(r)


def _rotl(a: int, b: int, bits: int, mask: int) -> int:
    b &= bits - 1
    if not b:
        return a
    return ((a << b) | (a >> (bits - b))) & mask


def _rotr(a: int, b: int, bits: int, mask: int) -> int:
    b &= bits - 1
    if not b:
        return a
    return ((a >> b) | (a << (bits - b))) & mask


def _trunc_checked(x: float, lo: int, hi: int, mask: int) -> int:
    if x != x:
        raise Trap("invalid conversion to integer")
    if math.isinf(x):
        raise Trap("integer overflow")
    t = math.trunc(x)
    if not lo <= t <= hi:
        raise Trap("integer overflow")
    return t & mask


def _clz(v: int, bits: int) -> int:
    return bits - v.bit_length()


def _ctz(v: int, bits: int) -> int:
    return (v & -v).bit_length() - 1 if v else bits


# ---------------------------------------------------------------------------
# Binary ALU opcodes.  Registered in definition order starting at 0.
# ---------------------------------------------------------------------------

BINF: List[Callable] = []
NAME: Dict[int, str] = {}
_EXTRA_STALL: Dict[int, int] = {}


def _bin(name: str, fn: Callable, stall: int = 0) -> int:
    code = len(BINF)
    BINF.append(fn)
    NAME[code] = name
    if stall:
        _EXTRA_STALL[code] = stall
    return code


# -- i32 ---------------------------------------------------------------
ADD32 = _bin("add32", lambda a, b: (a + b) & M32)
SUB32 = _bin("sub32", lambda a, b: (a - b) & M32)
MUL32 = _bin("mul32", lambda a, b: (a * b) & M32, stall=1)
DIVS32 = _bin("divs32", lambda a, b: _div_s(a, b, M32, _S32), stall=20)
DIVU32 = _bin("divu32", _div_u, stall=20)
REMS32 = _bin("rems32", lambda a, b: _rem_s(a, b, M32, _S32), stall=20)
REMU32 = _bin("remu32", _rem_u, stall=20)
AND32 = _bin("and32", lambda a, b: a & b)
OR32 = _bin("or32", lambda a, b: a | b)
XOR32 = _bin("xor32", lambda a, b: a ^ b)
SHL32 = _bin("shl32", lambda a, b: (a << (b & 31)) & M32)
SHRS32 = _bin("shrs32", lambda a, b: (s32(a) >> (b & 31)) & M32)
SHRU32 = _bin("shru32", lambda a, b: a >> (b & 31))
ROTL32 = _bin("rotl32", lambda a, b: _rotl(a, b, 32, M32))
ROTR32 = _bin("rotr32", lambda a, b: _rotr(a, b, 32, M32))
EQ32 = _bin("eq32", lambda a, b: 1 if a == b else 0)
NE32 = _bin("ne32", lambda a, b: 1 if a != b else 0)
LTS32 = _bin("lts32", lambda a, b: 1 if s32(a) < s32(b) else 0)
LTU32 = _bin("ltu32", lambda a, b: 1 if a < b else 0)
GTS32 = _bin("gts32", lambda a, b: 1 if s32(a) > s32(b) else 0)
GTU32 = _bin("gtu32", lambda a, b: 1 if a > b else 0)
LES32 = _bin("les32", lambda a, b: 1 if s32(a) <= s32(b) else 0)
LEU32 = _bin("leu32", lambda a, b: 1 if a <= b else 0)
GES32 = _bin("ges32", lambda a, b: 1 if s32(a) >= s32(b) else 0)
GEU32 = _bin("geu32", lambda a, b: 1 if a >= b else 0)

# -- i64 ---------------------------------------------------------------
ADD64 = _bin("add64", lambda a, b: (a + b) & M64)
SUB64 = _bin("sub64", lambda a, b: (a - b) & M64)
MUL64 = _bin("mul64", lambda a, b: (a * b) & M64, stall=1)
DIVS64 = _bin("divs64", lambda a, b: _div_s(a, b, M64, _S64), stall=30)
DIVU64 = _bin("divu64", _div_u, stall=30)
REMS64 = _bin("rems64", lambda a, b: _rem_s(a, b, M64, _S64), stall=30)
REMU64 = _bin("remu64", _rem_u, stall=30)
AND64 = _bin("and64", lambda a, b: a & b)
OR64 = _bin("or64", lambda a, b: a | b)
XOR64 = _bin("xor64", lambda a, b: a ^ b)
SHL64 = _bin("shl64", lambda a, b: (a << (b & 63)) & M64)
SHRS64 = _bin("shrs64", lambda a, b: (s64(a) >> (b & 63)) & M64)
SHRU64 = _bin("shru64", lambda a, b: a >> (b & 63))
ROTL64 = _bin("rotl64", lambda a, b: _rotl(a, b, 64, M64))
ROTR64 = _bin("rotr64", lambda a, b: _rotr(a, b, 64, M64))
EQ64 = _bin("eq64", lambda a, b: 1 if a == b else 0)
NE64 = _bin("ne64", lambda a, b: 1 if a != b else 0)
LTS64 = _bin("lts64", lambda a, b: 1 if s64(a) < s64(b) else 0)
LTU64 = _bin("ltu64", lambda a, b: 1 if a < b else 0)
GTS64 = _bin("gts64", lambda a, b: 1 if s64(a) > s64(b) else 0)
GTU64 = _bin("gtu64", lambda a, b: 1 if a > b else 0)
LES64 = _bin("les64", lambda a, b: 1 if s64(a) <= s64(b) else 0)
LEU64 = _bin("leu64", lambda a, b: 1 if a <= b else 0)
GES64 = _bin("ges64", lambda a, b: 1 if s64(a) >= s64(b) else 0)
GEU64 = _bin("geu64", lambda a, b: 1 if a >= b else 0)

# -- f32 (round results to single precision) ----------------------------
ADDF32 = _bin("addf32", lambda a, b: f32round(a + b), stall=1)
SUBF32 = _bin("subf32", lambda a, b: f32round(a - b), stall=1)
MULF32 = _bin("mulf32", lambda a, b: f32round(a * b), stall=1)
DIVF32 = _bin("divf32", lambda a, b: f32round(a / b) if b else (math.nan if (a != a or a == 0) else math.copysign(math.inf, a) * math.copysign(1, b)), stall=8)
MINF32 = _bin("minf32", lambda a, b: f32round(_fmin(a, b)), stall=1)
MAXF32 = _bin("maxf32", lambda a, b: f32round(_fmax(a, b)), stall=1)
COPYSIGNF32 = _bin("copysignf32", lambda a, b: math.copysign(a, b) if a == a else (math.nan if math.copysign(1, b) > 0 else -math.nan))
EQF32 = _bin("eqf32", lambda a, b: 1 if a == b else 0)
NEF32 = _bin("nef32", lambda a, b: 1 if a != b or a != a or b != b else 0)
LTF32 = _bin("ltf32", lambda a, b: 1 if a < b else 0)
GTF32 = _bin("gtf32", lambda a, b: 1 if a > b else 0)
LEF32 = _bin("lef32", lambda a, b: 1 if a <= b else 0)
GEF32 = _bin("gef32", lambda a, b: 1 if a >= b else 0)

# -- f64 -------------------------------------------------------------
ADDF64 = _bin("addf64", lambda a, b: a + b, stall=1)
SUBF64 = _bin("subf64", lambda a, b: a - b, stall=1)
MULF64 = _bin("mulf64", lambda a, b: a * b, stall=2)
DIVF64 = _bin("divf64", lambda a, b: (a / b) if b else (math.nan if (a != a or a == 0) else math.copysign(math.inf, a) * math.copysign(1, b)), stall=10)
MINF64 = _bin("minf64", _fmin, stall=1)
MAXF64 = _bin("maxf64", _fmax, stall=1)
COPYSIGNF64 = _bin("copysignf64", lambda a, b: math.copysign(a, b) if a == a else (math.nan if math.copysign(1, b) > 0 else -math.nan))
EQF64 = _bin("eqf64", lambda a, b: 1 if a == b else 0)
NEF64 = _bin("nef64", lambda a, b: 1 if a != b or a != a or b != b else 0)
LTF64 = _bin("ltf64", lambda a, b: 1 if a < b else 0)
GTF64 = _bin("gtf64", lambda a, b: 1 if a > b else 0)
LEF64 = _bin("lef64", lambda a, b: 1 if a <= b else 0)
GEF64 = _bin("gef64", lambda a, b: 1 if a >= b else 0)

NUM_BIN = len(BINF)

# ---------------------------------------------------------------------------
# Unary / conversion opcodes, indexed into UNF by (opcode - NUM_BIN).
# ---------------------------------------------------------------------------

UNF: List[Callable] = []


def _un(name: str, fn: Callable, stall: int = 0) -> int:
    code = NUM_BIN + len(UNF)
    UNF.append(fn)
    NAME[code] = name
    if stall:
        _EXTRA_STALL[code] = stall
    return code


CLZ32 = _un("clz32", lambda a: _clz(a, 32))
CTZ32 = _un("ctz32", lambda a: _ctz(a, 32))
POPCNT32 = _un("popcnt32", lambda a: bin(a).count("1"))
EQZ32 = _un("eqz32", lambda a: 1 if a == 0 else 0)
CLZ64 = _un("clz64", lambda a: _clz(a, 64))
CTZ64 = _un("ctz64", lambda a: _ctz(a, 64))
POPCNT64 = _un("popcnt64", lambda a: bin(a).count("1"))
EQZ64 = _un("eqz64", lambda a: 1 if a == 0 else 0)

ABSF32 = _un("absf32", lambda a: abs(a) if a == a else math.nan)
NEGF32 = _un("negf32", lambda a: -a)
CEILF32 = _un("ceilf32", lambda a: f32round(float(math.ceil(a))) if a == a and not math.isinf(a) else a)
FLOORF32 = _un("floorf32", lambda a: f32round(float(math.floor(a))) if a == a and not math.isinf(a) else a)
TRUNCF32 = _un("truncf32", lambda a: f32round(float(math.trunc(a))) if a == a and not math.isinf(a) else a)
NEARESTF32 = _un("nearestf32", lambda a: f32round(_nearest(a)))
SQRTF32 = _un("sqrtf32", lambda a: f32round(math.sqrt(a)) if a >= 0 else math.nan, stall=8)

ABSF64 = _un("absf64", lambda a: abs(a) if a == a else math.nan)
NEGF64 = _un("negf64", lambda a: -a)
CEILF64 = _un("ceilf64", lambda a: float(math.ceil(a)) if a == a and not math.isinf(a) else a)
FLOORF64 = _un("floorf64", lambda a: float(math.floor(a)) if a == a and not math.isinf(a) else a)
TRUNCF64 = _un("truncf64", lambda a: float(math.trunc(a)) if a == a and not math.isinf(a) else a)
NEARESTF64 = _un("nearestf64", _nearest)
SQRTF64 = _un("sqrtf64", lambda a: math.sqrt(a) if a >= 0 else math.nan, stall=12)

WRAP64 = _un("wrap64", lambda a: a & M32)
EXTENDS32 = _un("extends32", lambda a: s32(a) & M64)
EXTENDU32 = _un("extendu32", lambda a: a)
TRUNCF32S32 = _un("truncf32s32", lambda a: _trunc_checked(a, -2**31, 2**31 - 1, M32), stall=4)
TRUNCF32U32 = _un("truncf32u32", lambda a: _trunc_checked(a, 0, 2**32 - 1, M32), stall=4)
TRUNCF64S32 = _un("truncf64s32", lambda a: _trunc_checked(a, -2**31, 2**31 - 1, M32), stall=4)
TRUNCF64U32 = _un("truncf64u32", lambda a: _trunc_checked(a, 0, 2**32 - 1, M32), stall=4)
TRUNCF32S64 = _un("truncf32s64", lambda a: _trunc_checked(a, -2**63, 2**63 - 1, M64), stall=4)
TRUNCF32U64 = _un("truncf32u64", lambda a: _trunc_checked(a, 0, 2**64 - 1, M64), stall=4)
TRUNCF64S64 = _un("truncf64s64", lambda a: _trunc_checked(a, -2**63, 2**63 - 1, M64), stall=4)
TRUNCF64U64 = _un("truncf64u64", lambda a: _trunc_checked(a, 0, 2**64 - 1, M64), stall=4)
CVTS32F32 = _un("cvts32f32", lambda a: f32round(float(s32(a))), stall=3)
CVTU32F32 = _un("cvtu32f32", lambda a: f32round(float(a)), stall=3)
CVTS64F32 = _un("cvts64f32", lambda a: f32round(float(s64(a))), stall=3)
CVTU64F32 = _un("cvtu64f32", lambda a: f32round(float(a)), stall=3)
DEMOTE = _un("demote", f32round, stall=2)
CVTS32F64 = _un("cvts32f64", lambda a: float(s32(a)), stall=3)
CVTU32F64 = _un("cvtu32f64", lambda a: float(a), stall=3)
CVTS64F64 = _un("cvts64f64", lambda a: float(s64(a)), stall=3)
CVTU64F64 = _un("cvtu64f64", lambda a: float(a), stall=3)
PROMOTE = _un("promote", lambda a: a)
RI32F32 = _un("ri32f32", lambda a: _pack_I.unpack(_pack_f.pack(a))[0])
RI64F64 = _un("ri64f64", lambda a: _pack_Q.unpack(_pack_d.pack(a))[0])
RF32I32 = _un("rf32i32", lambda a: _pack_f.unpack(_pack_I.pack(a))[0])
RF64I64 = _un("rf64i64", lambda a: _pack_d.unpack(_pack_Q.pack(a))[0])

NUM_UN_END = NUM_BIN + len(UNF)

# ---------------------------------------------------------------------------
# Named special opcodes (moves, memory, control, calls).
# ---------------------------------------------------------------------------

_next = NUM_UN_END


def _special(name: str) -> int:
    global _next
    code = _next
    _next += 1
    NAME[code] = name
    return code


LI = _special("li")                 # (LI, dst, value)
MOV = _special("mov")               # (MOV, dst, src)
SELECT = _special("select")         # (SELECT, dst, cond, a, b)

# Loads: (op, dst, addr_reg, offset)
LOAD8_S = _special("load8_s")
LOAD8_U = _special("load8_u")
LOAD16_S = _special("load16_s")
LOAD16_U = _special("load16_u")
LOAD32 = _special("load32")         # i32 load (unsigned register image)
LOAD32_S64 = _special("load32_s64")
LOAD32_U64 = _special("load32_u64")
LOAD64 = _special("load64")
LOADF32 = _special("loadf32")
LOADF64 = _special("loadf64")
LOAD8_S64 = _special("load8_s64")    # sign-extend byte into an i64 image
LOAD16_S64 = _special("load16_s64")
# Stores: (op, addr_reg, offset, src)
STORE8 = _special("store8")
STORE16 = _special("store16")
STORE32 = _special("store32")
STORE64 = _special("store64")
STOREF32 = _special("storef32")
STOREF64 = _special("storef64")

GGET = _special("gget")             # (GGET, dst, global_index)
GSET = _special("gset")             # (GSET, global_index, src)
MEMSIZE = _special("memsize")       # (MEMSIZE, dst)
MEMGROW = _special("memgrow")       # (MEMGROW, dst, pages_reg)

JMP = _special("jmp")               # (JMP, target_pc)
BRZ = _special("brz")               # (BRZ, cond_reg, target_pc)
BRNZ = _special("brnz")             # (BRNZ, cond_reg, target_pc)
BR_TABLE = _special("br_table")     # (BR_TABLE, idx_reg, targets, default)
CALL = _special("call")             # (CALL, dst|-1, func_index, args)
CALL_IND = _special("call_ind")     # (CALL_IND, dst|-1, type_sig, idx_reg, args)
CALL_HOST = _special("call_host")   # (CALL_HOST, dst|-1, host_index, args)
RET = _special("ret")               # (RET, src_reg | -1)
TRAP_OP = _special("trap")          # (TRAP_OP, kind)

SPILL = _special("spill")           # (SPILL, slot) — accounting only
RELOAD = _special("reload")         # (RELOAD, slot) — accounting only
CHECK = _special("check")           # (CHECK,) — charged bounds check

NUM_OPS = _next

LOAD_OPS = frozenset(range(LOAD8_S, LOAD16_S64 + 1))
STORE_OPS = frozenset(range(STORE8, STOREF64 + 1))
TERMINATORS = frozenset((JMP, BRZ, BRNZ, BR_TABLE, RET, TRAP_OP))

# Per-opcode extra stall cycles (long-latency units); dense list for speed.
EXTRA_STALL: List[int] = [0] * NUM_OPS
for _code, _stall in _EXTRA_STALL.items():
    EXTRA_STALL[_code] = _stall

# Struct codecs for loads/stores, used by the machine and the interpreters.
LOAD_CODEC = {
    LOAD8_S: (1, "b", M32), LOAD8_U: (1, "B", 0),
    LOAD16_S: (2, "h", M32), LOAD16_U: (2, "H", 0),
    LOAD32: (4, "I", 0),
    LOAD32_S64: (4, "i", M64), LOAD32_U64: (4, "I", 0),
    LOAD64: (8, "Q", 0),
    LOADF32: (4, "f", 0), LOADF64: (8, "d", 0),
    LOAD8_S64: (1, "b", M64), LOAD16_S64: (2, "h", M64),
}
STORE_CODEC = {
    STORE8: (1, "B", 0xFF), STORE16: (2, "H", 0xFFFF),
    STORE32: (4, "I", M32), STORE64: (8, "Q", M64),
    STOREF32: (4, "f", 0), STOREF64: (8, "d", 0),
}


def name_of(opcode: int) -> str:
    return NAME.get(opcode, f"m{opcode}")
