"""WASI snapshot-preview1 host functions.

One :class:`WasiAPI` instance serves a single program run.  Every method
implements one WASI function against a guest :class:`LinearMemory` and
the run's :class:`VirtualFS`, and charges the CPU model for the host-side
work (syscall entry, buffer copies) the way a real runtime's WASI shim
burns instructions.

The charge is engine-aware: the shim looks up its run's engine in
:func:`repro.registry.syscall_cost_table`, so an interpreter's generic
marshalling shim, a JIT's compiled trampoline, an AOT image's link-time
direct call, and the native baseline's plain syscall wrapper each price
the same guest behavior differently — the eWAPA observation that WASI
paths are where standalone runtimes diverge most.  Because *every*
execution tier (the reference interpreter and Wasm closures; the
machine loop and machine closures that run JIT and native code) calls
these same bound methods, call counts and byte totals are
byte-identical across tiers by construction; only the per-engine
instruction pricing differs between engine cells.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Sequence, Tuple

from ..errors import ExitProc
from ..hw import CPUModel
from ..isa.memory import LinearMemory
from ..obs.metrics import CallStats
from ..registry import syscall_cost_table
from . import errno
from .fs import (FILETYPE_CHARACTER_DEVICE, DirNode, FileNode, VirtualFS)

#: Fallback pricing for a function missing from the registry tables
#: (kept equal to the old flat ``_SYSCALL_BASE_COST`` model).
_DEFAULT_COST: Tuple[int, int] = (180, 1)

_CLOCK_REALTIME_EPOCH_NS = 1_650_000_000_000_000_000  # fixed, deterministic

#: Deterministic default guest environment: every engine cell sees the
#: same environ bytes, so cross-engine ``wasi_calls`` byte totals agree.
DEFAULT_ENVIRON: Tuple[Tuple[str, str], ...] = (
    ("LANG", "C.UTF-8"),
    ("WABENCH", "1"),
)

# preview1 struct sizes the shim serializes.
_FDSTAT_SIZE = 24
_FILESTAT_SIZE = 64
_DIRENT_SIZE = 24


class WasiAPI:
    """All WASI functions used by the WABench suite."""

    NAMES = ("fd_write", "fd_read", "fd_close", "fd_seek", "fd_pread",
             "fd_pwrite", "fd_fdstat_get", "fd_readdir", "path_open",
             "path_filestat_get", "path_unlink_file", "path_rename",
             "args_sizes_get", "args_get", "environ_sizes_get",
             "environ_get", "clock_time_get", "random_get", "proc_exit")

    def __init__(self, fs: Optional[VirtualFS] = None,
                 cpu: Optional[CPUModel] = None,
                 argv: Sequence[str] = ("wabench",),
                 random_seed: int = 0x5EED,
                 engine: str = "wasmtime",
                 aot: bool = False,
                 environ: Optional[Sequence[Tuple[str, str]]] = None):
        self.fs = fs or VirtualFS()
        self.cpu = cpu
        self.argv = [a.encode() + b"\x00" for a in argv]
        env = DEFAULT_ENVIRON if environ is None else tuple(environ)
        self.environ = [f"{k}={v}".encode() + b"\x00" for k, v in env]
        self._rng_state = random_seed & 0xFFFFFFFFFFFFFFFF
        self.exit_code: Optional[int] = None
        self.engine = engine
        self.aot = aot
        #: ``fn -> (base_instructions, copy_cost_per_8B)`` for this
        #: run's engine (see ``repro.registry.syscall_cost_table``).
        self.costs: Dict[str, Tuple[int, int]] = syscall_cost_table(
            engine, aot=aot)
        #: Per-call event hook: call counts, modeled instruction cost,
        #: and guest<->host bytes for every WASI function this run hit
        #: (the eWAPA-style view; surfaces as ``RunResult.wasi_calls``
        #: and trace ``wasi`` lines).
        self.stats = CallStats()

    # -- cost accounting --------------------------------------------------

    def _charge(self, fn: str, extra_bytes: int = 0) -> None:
        """Charge one host call's modeled cost and record the event."""
        base, per8 = self.costs.get(fn, _DEFAULT_COST)
        cost = base + (extra_bytes // 8) * per8
        self.stats.record(fn, cost, extra_bytes)
        if self.cpu is not None:
            self.cpu.counters.instructions += cost

    # -- the interface -----------------------------------------------------

    def fd_write(self, mem: LinearMemory, fd: int, iovs: int,
                 iovs_len: int, nwritten_ptr: int) -> int:
        chunks = []
        for i in range(iovs_len):
            base = mem.load_u32(iovs + i * 8)
            length = mem.load_u32(iovs + i * 8 + 4)
            chunks.append(mem.read_bytes(base, length))
        payload = b"".join(chunks)
        written = self.fs.write(fd, payload)
        self._charge("fd_write", len(payload))
        if written < 0:
            return -written
        mem.store_u32(nwritten_ptr, written)
        return errno.SUCCESS

    def fd_read(self, mem: LinearMemory, fd: int, iovs: int,
                iovs_len: int, nread_ptr: int) -> int:
        total = 0
        for i in range(iovs_len):
            base = mem.load_u32(iovs + i * 8)
            length = mem.load_u32(iovs + i * 8 + 4)
            chunk = self.fs.read(fd, length)
            if chunk is None:
                self._charge("fd_read")
                return errno.EBADF
            mem.write_bytes(base, chunk)
            total += len(chunk)
            if len(chunk) < length:
                break
        self._charge("fd_read", total)
        mem.store_u32(nread_ptr, total)
        return errno.SUCCESS

    def fd_close(self, mem: LinearMemory, fd: int) -> int:
        self._charge("fd_close")
        return self.fs.close(fd)

    def fd_seek(self, mem: LinearMemory, fd: int, offset: int,
                whence: int, newoffset_ptr: int) -> int:
        self._charge("fd_seek")
        # offset arrives as an unsigned i64 image; interpret signed.
        if offset >= 1 << 63:
            offset -= 1 << 64
        result = self.fs.seek(fd, offset, whence)
        if result < 0:
            return -result
        mem.store("<Q", newoffset_ptr, 8, result)
        return errno.SUCCESS

    def fd_pread(self, mem: LinearMemory, fd: int, iovs: int,
                 iovs_len: int, offset: int, nread_ptr: int) -> int:
        total = 0
        for i in range(iovs_len):
            base = mem.load_u32(iovs + i * 8)
            length = mem.load_u32(iovs + i * 8 + 4)
            chunk = self.fs.pread(fd, length, offset + total)
            if chunk is None:
                self._charge("fd_pread")
                return errno.EBADF
            mem.write_bytes(base, chunk)
            total += len(chunk)
            if len(chunk) < length:
                break
        self._charge("fd_pread", total)
        mem.store_u32(nread_ptr, total)
        return errno.SUCCESS

    def fd_pwrite(self, mem: LinearMemory, fd: int, iovs: int,
                  iovs_len: int, offset: int, nwritten_ptr: int) -> int:
        chunks = []
        for i in range(iovs_len):
            base = mem.load_u32(iovs + i * 8)
            length = mem.load_u32(iovs + i * 8 + 4)
            chunks.append(mem.read_bytes(base, length))
        payload = b"".join(chunks)
        written = self.fs.pwrite(fd, payload, offset)
        self._charge("fd_pwrite", len(payload))
        if written < 0:
            return -written
        mem.store_u32(nwritten_ptr, written)
        return errno.SUCCESS

    def fd_fdstat_get(self, mem: LinearMemory, fd: int,
                      stat_ptr: int) -> int:
        self._charge("fd_fdstat_get", _FDSTAT_SIZE)
        if fd in (0, 1, 2):
            filetype, fdflags, rights = FILETYPE_CHARACTER_DEVICE, 0, 0
        else:
            h = self.fs.handle(fd)
            if h is None:
                return errno.EBADF
            filetype = h.node.filetype
            fdflags = h.fdflags
            rights = h.rights
        mem.write_bytes(stat_ptr, struct.pack(
            "<BxHxxxxQQ", filetype, fdflags,
            rights & (2 ** 64 - 1), rights & (2 ** 64 - 1)))
        return errno.SUCCESS

    def fd_readdir(self, mem: LinearMemory, fd: int, buf: int,
                   buf_len: int, cookie: int, bufused_ptr: int) -> int:
        entries = self.fs.readdir(fd)
        if isinstance(entries, int):
            self._charge("fd_readdir")
            return -entries
        out = bytearray()
        for index in range(cookie, len(entries)):
            name, node = entries[index]
            name_bytes = name.encode()
            out += struct.pack("<QQIBxxx", index + 1, node.ino,
                               len(name_bytes), node.filetype)
            out += name_bytes
            if len(out) >= buf_len:
                break
        # Per preview1: a full buffer means "maybe more entries"; the
        # guest loops with the last d_next cookie until used < buf_len.
        used = min(len(out), buf_len)
        mem.write_bytes(buf, bytes(out[:used]))
        self._charge("fd_readdir", used)
        mem.store_u32(bufused_ptr, used)
        return errno.SUCCESS

    def path_open(self, mem: LinearMemory, dirfd: int, dirflags: int,
                  path_ptr: int, path_len: int, oflags: int,
                  rights_base: int, rights_inheriting: int,
                  fdflags: int, opened_fd_ptr: int) -> int:
        self._charge("path_open", path_len)
        path = mem.read_bytes(path_ptr, path_len).decode("utf-8",
                                                         errors="replace")
        fd = self.fs.open_path(path, oflags, dirfd=dirfd,
                               rights=rights_base, fdflags=fdflags)
        if fd < 0:
            return -fd
        mem.store_u32(opened_fd_ptr, fd)
        return errno.SUCCESS

    def path_filestat_get(self, mem: LinearMemory, dirfd: int,
                          flags: int, path_ptr: int, path_len: int,
                          stat_ptr: int) -> int:
        self._charge("path_filestat_get", path_len + _FILESTAT_SIZE)
        path = mem.read_bytes(path_ptr, path_len).decode("utf-8",
                                                         errors="replace")
        stat = self.fs.filestat(path, dirfd=dirfd)
        if isinstance(stat, int):
            return -stat
        ino, filetype, size = stat
        mem.write_bytes(stat_ptr, struct.pack(
            "<QQBxxxxxxxQQQQQ", 0, ino, filetype, 1, size, 0, 0, 0))
        return errno.SUCCESS

    def path_unlink_file(self, mem: LinearMemory, dirfd: int,
                         path_ptr: int, path_len: int) -> int:
        self._charge("path_unlink_file", path_len)
        path = mem.read_bytes(path_ptr, path_len).decode("utf-8",
                                                         errors="replace")
        result = self.fs.unlink(path, dirfd=dirfd)
        return -result if result < 0 else result

    def path_rename(self, mem: LinearMemory, old_dirfd: int,
                    old_ptr: int, old_len: int, new_dirfd: int,
                    new_ptr: int, new_len: int) -> int:
        self._charge("path_rename", old_len + new_len)
        old = mem.read_bytes(old_ptr, old_len).decode("utf-8",
                                                      errors="replace")
        new = mem.read_bytes(new_ptr, new_len).decode("utf-8",
                                                      errors="replace")
        result = self.fs.rename(old, new, old_dirfd=old_dirfd,
                                new_dirfd=new_dirfd)
        return -result if result < 0 else result

    def args_sizes_get(self, mem: LinearMemory, argc_ptr: int,
                       argv_buf_size_ptr: int) -> int:
        self._charge("args_sizes_get")
        mem.store_u32(argc_ptr, len(self.argv))
        mem.store_u32(argv_buf_size_ptr, sum(len(a) for a in self.argv))
        return errno.SUCCESS

    def args_get(self, mem: LinearMemory, argv_ptr: int,
                 argv_buf: int) -> int:
        offset = 0
        for i, arg in enumerate(self.argv):
            mem.store_u32(argv_ptr + 4 * i, argv_buf + offset)
            mem.write_bytes(argv_buf + offset, arg)
            offset += len(arg)
        self._charge("args_get", offset)
        return errno.SUCCESS

    def environ_sizes_get(self, mem: LinearMemory, count_ptr: int,
                          buf_size_ptr: int) -> int:
        self._charge("environ_sizes_get")
        mem.store_u32(count_ptr, len(self.environ))
        mem.store_u32(buf_size_ptr, sum(len(e) for e in self.environ))
        return errno.SUCCESS

    def environ_get(self, mem: LinearMemory, environ_ptr: int,
                    environ_buf: int) -> int:
        offset = 0
        for i, entry in enumerate(self.environ):
            mem.store_u32(environ_ptr + 4 * i, environ_buf + offset)
            mem.write_bytes(environ_buf + offset, entry)
            offset += len(entry)
        self._charge("environ_get", offset)
        return errno.SUCCESS

    def clock_time_get(self, mem: LinearMemory, clock_id: int,
                       precision: int, time_ptr: int) -> int:
        """Deterministic clock driven by the modeled cycle count."""
        self._charge("clock_time_get")
        if self.cpu is not None:
            ns = int(self.cpu.seconds * 1e9)
        else:
            ns = 0
        if clock_id == 0:  # realtime
            ns += _CLOCK_REALTIME_EPOCH_NS
        mem.store("<Q", time_ptr, 8, ns & (2 ** 64 - 1))
        return errno.SUCCESS

    def random_get(self, mem: LinearMemory, buf: int, buf_len: int) -> int:
        """Deterministic xorshift stream (seeded per run)."""
        out = bytearray()
        state = self._rng_state
        while len(out) < buf_len:
            state ^= (state << 13) & 0xFFFFFFFFFFFFFFFF
            state ^= state >> 7
            state ^= (state << 17) & 0xFFFFFFFFFFFFFFFF
            out += struct.pack("<Q", state)
        self._rng_state = state
        mem.write_bytes(buf, bytes(out[:buf_len]))
        self._charge("random_get", buf_len)
        return errno.SUCCESS

    def proc_exit(self, mem: LinearMemory, code: int) -> None:
        self._charge("proc_exit")
        self.exit_code = code
        raise ExitProc(code)

    # -- adapters ----------------------------------------------------------

    def call_by_name(self, name: str, mem: LinearMemory, args: Sequence):
        """Dynamic dispatch used by the interpreters."""
        return getattr(self, name)(mem, *args)

    def as_host(self) -> Dict[str, "callable"]:
        """Host-function map for :class:`repro.isa.machine.Machine`."""
        out = {}
        for name in self.NAMES:
            method = getattr(self, name)
            out[name] = _bind(method)
        return out


def _bind(method):
    def host_fn(machine, args):
        return method(machine.memory, *args)
    return host_fn
