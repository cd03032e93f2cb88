"""Binary decoder: ``.wasm`` bytes -> :class:`~repro.wasm.module.Module`.

This is the component every runtime model shares, mirroring reality: all
five studied runtimes parse the same binary format before diverging into
interpretation or compilation.  The decoder is strict — unknown opcodes,
malformed LEB128s, truncated sections, and out-of-order sections raise
:class:`~repro.errors.DecodeError`.

The decoder also reports how much work it did (bytes scanned, instructions
decoded) so runtime models can charge module-loading cost to the hardware
model.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import DecodeError
from . import leb128, opcodes as op
from .encoder import MAGIC, VERSION
from .module import (KIND_FUNC, KIND_GLOBAL, KIND_MEMORY, KIND_TABLE,
                     DataSegment, ElementSegment, Export, Function, Global,
                     Import, Instr, Module)
from .types import FUNCREF, VOID, FuncType, GlobalType, Limits, is_value_type


@dataclass
class DecodeStats:
    """Work performed by a decode, for runtime cost accounting.

    ``non_minimal`` lists the byte offsets (into the module) of LEB128
    fields whose encoding is longer than necessary.  The spec tolerates
    them, so decoding succeeds — but no real toolchain emits them, so
    the static auditor surfaces each site as a WA006 diagnostic.
    """

    bytes_scanned: int = 0
    instructions: int = 0
    functions: int = 0
    non_minimal: Tuple[int, ...] = ()


class _Reader:
    """Byte cursor with spec-shaped primitive readers.

    ``nonmin`` (shared across the per-section readers of one module
    decode) collects start offsets of non-minimally encoded LEB128s.
    """

    def __init__(self, data: bytes, offset: int = 0, end: int = -1,
                 nonmin: Optional[List[int]] = None):
        self.data = data
        self.offset = offset
        self.end = len(data) if end < 0 else end
        self.nonmin = nonmin

    def eof(self) -> bool:
        return self.offset >= self.end

    def byte(self) -> int:
        if self.offset >= self.end:
            raise DecodeError("unexpected end of input")
        b = self.data[self.offset]
        self.offset += 1
        return b

    def raw(self, n: int) -> bytes:
        if self.offset + n > self.end:
            raise DecodeError("unexpected end of input")
        out = self.data[self.offset:self.offset + n]
        self.offset += n
        return out

    def u32(self) -> int:
        start = self.offset
        value, self.offset, minimal = \
            leb128.decode_u_ex(self.data, self.offset, 32)
        if self.offset > self.end:
            raise DecodeError("LEB128 crosses section boundary")
        if not minimal and self.nonmin is not None:
            self.nonmin.append(start)
        return value

    def s32(self) -> int:
        start = self.offset
        value, self.offset, minimal = \
            leb128.decode_s_ex(self.data, self.offset, 32)
        if not minimal and self.nonmin is not None:
            self.nonmin.append(start)
        return value

    def s64(self) -> int:
        start = self.offset
        value, self.offset, minimal = \
            leb128.decode_s_ex(self.data, self.offset, 64)
        if not minimal and self.nonmin is not None:
            self.nonmin.append(start)
        return value

    def f32(self) -> float:
        return struct.unpack("<f", self.raw(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.raw(8))[0]

    def name(self) -> str:
        length = self.u32()
        try:
            return self.raw(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid UTF-8 name: {exc}") from exc

    def limits(self) -> Limits:
        flag = self.byte()
        if flag == 0:
            return Limits(self.u32())
        if flag == 1:
            minimum = self.u32()
            return Limits(minimum, self.u32())
        raise DecodeError(f"invalid limits flag 0x{flag:02x}")

    def valtype(self) -> int:
        vt = self.byte()
        if not is_value_type(vt):
            raise DecodeError(f"invalid value type 0x{vt:02x}")
        return vt

    def blocktype(self) -> int:
        bt = self.byte()
        if bt != VOID and not is_value_type(bt):
            raise DecodeError(f"invalid block type 0x{bt:02x}")
        return bt


def decode_instr(r: _Reader) -> Instr:
    """Decode one instruction (opcode + immediates) into tuple form."""
    opcode = r.byte()
    shape = op.IMMEDIATES.get(opcode)
    if shape is None:
        raise DecodeError(f"unknown opcode 0x{opcode:02x} at offset {r.offset - 1}")
    if shape == "":
        return (opcode,)
    if shape == "bt":
        return (opcode, r.blocktype())
    if shape == "u":
        return (opcode, r.u32())
    if shape == "uu":
        return (opcode, r.u32(), r.u32())
    if shape == "mem":
        return (opcode, r.u32(), r.u32())
    if shape == "tbl":
        labels = [r.u32() for _ in range(r.u32())]
        return (opcode, labels, r.u32())
    if shape == "i32":
        return (opcode, r.s32())
    if shape == "i64":
        return (opcode, r.s64())
    if shape == "f32":
        return (opcode, r.f32())
    if shape == "f64":
        return (opcode, r.f64())
    if shape == "zero":
        if r.byte() != 0:
            raise DecodeError("memory.size/grow reserved byte must be zero")
        return (opcode,)
    raise DecodeError(f"unhandled immediate shape {shape!r}")  # pragma: no cover


def _decode_expr(r: _Reader, stats: DecodeStats) -> List[Instr]:
    """Decode instructions until the matching top-level END (consumed)."""
    body: List[Instr] = []
    depth = 0
    while True:
        ins = decode_instr(r)
        stats.instructions += 1
        opcode = ins[0]
        if opcode in (op.BLOCK, op.LOOP, op.IF):
            depth += 1
        elif opcode == op.END:
            if depth == 0:
                return body
            depth -= 1
        body.append(ins)


def decode_module(data: bytes) -> Module:
    """Decode a binary module (see :func:`decode_module_with_stats`)."""
    module, _ = decode_module_with_stats(data)
    return module


def decode_module_with_stats(data: bytes) -> Tuple[Module, DecodeStats]:
    """Decode a binary module, also returning decode-work statistics."""
    stats = DecodeStats(bytes_scanned=len(data))
    nonmin: List[int] = []
    r = _Reader(data, nonmin=nonmin)
    if r.raw(4) != MAGIC:
        raise DecodeError("bad magic number")
    if r.raw(4) != VERSION:
        raise DecodeError("unsupported version")

    module = Module()
    func_type_indices: List[int] = []
    last_section = 0

    while not r.eof():
        section_id = r.byte()
        size = r.u32()
        section_end = r.offset + size
        if section_end > len(data):
            raise DecodeError("section extends past end of module")
        sr = _Reader(data, r.offset, section_end, nonmin=nonmin)

        if section_id != 0:
            if section_id <= last_section:
                raise DecodeError(f"section {section_id} out of order")
            last_section = section_id

        if section_id == 0:
            name = sr.name()
            module.custom_sections.append((name, sr.raw(section_end - sr.offset)))
        elif section_id == 1:
            for _ in range(sr.u32()):
                if sr.byte() != 0x60:
                    raise DecodeError("function type must start with 0x60")
                params = tuple(sr.valtype() for _ in range(sr.u32()))
                results = tuple(sr.valtype() for _ in range(sr.u32()))
                module.types.append(FuncType(params, results))
        elif section_id == 2:
            for _ in range(sr.u32()):
                mod_name, item_name = sr.name(), sr.name()
                kind = sr.byte()
                if kind == KIND_FUNC:
                    desc: object = sr.u32()
                elif kind == KIND_TABLE:
                    if sr.byte() != FUNCREF:
                        raise DecodeError("only funcref tables supported")
                    desc = sr.limits()
                elif kind == KIND_MEMORY:
                    desc = sr.limits()
                elif kind == KIND_GLOBAL:
                    vt = sr.valtype()
                    desc = GlobalType(vt, sr.byte() == 1)
                else:
                    raise DecodeError(f"unknown import kind {kind}")
                module.imports.append(Import(mod_name, item_name, kind, desc))
        elif section_id == 3:
            func_type_indices = [sr.u32() for _ in range(sr.u32())]
        elif section_id == 4:
            for _ in range(sr.u32()):
                if sr.byte() != FUNCREF:
                    raise DecodeError("only funcref tables supported")
                module.tables.append(sr.limits())
        elif section_id == 5:
            for _ in range(sr.u32()):
                module.memories.append(sr.limits())
        elif section_id == 6:
            for _ in range(sr.u32()):
                vt = sr.valtype()
                mutable = sr.byte() == 1
                init = _decode_expr(sr, stats)
                module.globals.append(Global(GlobalType(vt, mutable), init))
        elif section_id == 7:
            for _ in range(sr.u32()):
                name = sr.name()
                kind = sr.byte()
                if kind not in (KIND_FUNC, KIND_TABLE, KIND_MEMORY, KIND_GLOBAL):
                    raise DecodeError(f"unknown export kind {kind}")
                module.exports.append(Export(name, kind, sr.u32()))
        elif section_id == 8:
            module.start = sr.u32()
        elif section_id == 9:
            for _ in range(sr.u32()):
                table_index = sr.u32()
                offset = _decode_expr(sr, stats)
                funcs = [sr.u32() for _ in range(sr.u32())]
                module.elements.append(ElementSegment(table_index, offset, funcs))
        elif section_id == 10:
            count = sr.u32()
            if count != len(func_type_indices):
                raise DecodeError("code section count mismatch with function section")
            for type_index in func_type_indices:
                body_size = sr.u32()
                body_end = sr.offset + body_size
                br = _Reader(data, sr.offset, body_end, nonmin=nonmin)
                local_decls = [(br.u32(), br.valtype()) for _ in range(br.u32())]
                body = _decode_expr(br, stats)
                if br.offset != body_end:
                    raise DecodeError("function body size mismatch")
                sr.offset = body_end
                module.functions.append(Function(type_index, local_decls, body))
                stats.functions += 1
        elif section_id == 11:
            for _ in range(sr.u32()):
                memory_index = sr.u32()
                offset = _decode_expr(sr, stats)
                length = sr.u32()
                module.data.append(DataSegment(memory_index, offset, sr.raw(length)))
        else:
            raise DecodeError(f"unknown section id {section_id}")

        if sr.offset != section_end:
            raise DecodeError(f"section {section_id} has trailing bytes")
        r.offset = section_end

    if func_type_indices and not module.functions:
        raise DecodeError("function section without code section")
    stats.non_minimal = tuple(nonmin)
    return module, stats
