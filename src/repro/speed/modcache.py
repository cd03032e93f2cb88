"""Decoded-module cache: share decode/validate/prepare work across runs.

A ``wabench run`` executes the same module on six engines; a warm rerun
executes it again.  The reference pipeline re-decodes, re-validates and
re-prepares every time, even though all three passes are pure functions
of the module bytes.  This cache keys the decoded :class:`Module`, its
decode stats, the interpreter's prepared side tables and the tier-2
closure tables by ``sha256(wasm_bytes)``, so each is computed once per
process.

The *modeled* cost of the skipped passes is still charged in full by
the pipeline (the charges are closed-form in the decode stats), so
counters and traces are byte-identical whether a lookup hits or misses.
Only wall clock changes.  Entries hold strong references to their
module, which keeps the ``id(module)`` side index sound: an id cannot
be reused while its entry is alive, and both are evicted together.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

#: In-memory entry capacity.  A fuzz campaign touches ~100 modules; the
#: LRU bound keeps long-lived processes from holding every decoded
#: module forever while still covering a full benchmark sweep.
_DEFAULT_CAPACITY = 64

#: Calls after which a function is compiled to a closure (tier 2).
HOT_CALLS = 16

#: Backward branches after which a tier-2 frame moves to its closure.
HOT_BACKEDGES = 64


class LazyClosures:
    """Tier-2 code table of one module on one profile, cache line size
    and predictor geometry (the generated code holds their masks as
    literals).

    ``get(index)`` is read once per call by ``Interpreter._run``: it
    counts the call and returns the function's closure once the function
    is hot (:data:`HOT_CALLS` calls), else None so the call runs in the
    reference loop.  A reference frame that takes :data:`HOT_BACKEDGES`
    backward branches compiles it through :meth:`compile` and finishes
    in it (``Interpreter._osr``).  Counts accumulate over every run of
    the module in this process; which tier runs a function never changes
    the model.
    """

    __slots__ = ("_prepared", "_profile", "_line_shift", "_predictor",
                 "_calls", "_code")

    def __init__(self, prepared: List, profile, line_shift: int,
                 predictor: Tuple[int, int, int]):
        self._prepared = prepared
        self._profile = profile
        self._line_shift = line_shift
        self._predictor = predictor
        self._calls: Dict[int, int] = {}
        self._code: Dict[int, object] = {}

    def get(self, index: int):
        fn = self._code.get(index)
        if fn is None:
            calls = self._calls.get(index, 0) + 1
            self._calls[index] = calls
            if calls >= HOT_CALLS:
                fn = self.compile(index)
        return fn

    def compile(self, index: int):
        """The closure of function ``index``, generated on first use from
        its predecoded body (the only function this predecodes)."""
        fn = self._code.get(index)
        if fn is None:
            # Looked up through the module on every compile, so tracing
            # wrappers installed after import see each one.
            from . import closures
            fcode = closures.predecode_functions(
                [self._prepared[index]], self._profile, self._line_shift)
            bundle = closures.compile_bundle(
                self._prepared, fcode, self._line_shift, (index,),
                self._predictor)
            fn = self._code[index] = closures.bind_bundle(bundle)[index]
        return fn


class ModuleEntry:
    """Everything derivable from one module's bytes, computed lazily."""

    __slots__ = ("sha", "module", "stats", "validated", "prepared",
                 "total_ops", "_closures")

    def __init__(self, sha: str, module, stats):
        self.sha = sha
        self.module = module
        self.stats = stats
        self.validated = False
        # Interpreter side tables: (functions list, total_ops), shared by
        # the wasm3/wamr loaders (prepare_function is profile-independent).
        self.prepared: Optional[List] = None
        self.total_ops = 0
        # Lazy closure tables keyed by profile name, line_shift and
        # predictor geometry (ModuleCache.closure_code); they hold
        # compiled code, so they live in memory only.
        self._closures: Dict[tuple, LazyClosures] = {}


class ModuleCache:
    """In-memory LRU cache of :class:`ModuleEntry`."""

    def __init__(self, capacity: int = _DEFAULT_CAPACITY):
        self.capacity = capacity
        self._mem: "OrderedDict[str, ModuleEntry]" = OrderedDict()
        self._by_id: Dict[int, ModuleEntry] = {}
        # Wall-clock accounting, read by hostbench and the tests;
        # deliberately not part of harness CacheStats so `[cache]` lines
        # and fuzz reports stay byte-identical with the layer disabled.
        self.hits = 0
        self.misses = 0
        # Always 0: the cache has no disk layer.  Kept because
        # hostbench/layers.py reads it in every traced pass.
        self.disk_hits = 0

    def clear(self) -> None:
        self._mem.clear()
        self._by_id.clear()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    @staticmethod
    def sha_of(wasm_bytes: bytes) -> str:
        return hashlib.sha256(wasm_bytes).hexdigest()

    def lookup(self, wasm_bytes: bytes) -> Optional[ModuleEntry]:
        """Entry for these bytes; None on miss."""
        sha = self.sha_of(wasm_bytes)
        entry = self._mem.get(sha)
        if entry is None:
            self.misses += 1
            return None
        self._mem.move_to_end(sha)
        self.hits += 1
        return entry

    def register(self, wasm_bytes: bytes, module, stats) -> ModuleEntry:
        """Adopt a freshly decoded (not yet validated) module."""
        entry = ModuleEntry(self.sha_of(wasm_bytes), module, stats)
        self._mem[entry.sha] = entry
        self._mem.move_to_end(entry.sha)
        self._by_id[id(module)] = entry
        while len(self._mem) > self.capacity:
            _, evicted = self._mem.popitem(last=False)
            self._by_id.pop(id(evicted.module), None)
        return entry

    def entry_for(self, module) -> Optional[ModuleEntry]:
        return self._by_id.get(id(module))

    def closure_code(self, entry: ModuleEntry, profile,
                     cpu) -> Optional[LazyClosures]:
        """The lazy closure table of ``entry`` on this profile and on
        ``cpu``'s cache line size and predictor geometry (indirect,
        gshare and history bits), memoized; None when the module is not
        prepared."""
        if entry.prepared is None:
            return None
        branch = cpu.config.branch
        predictor = (branch.indirect_bits, branch.gshare_bits,
                     branch.history_bits)
        key = (profile.name, cpu.caches.line_shift) + predictor
        code = entry._closures.get(key)
        if code is None:
            code = entry._closures[key] = LazyClosures(
                entry.prepared, profile, cpu.caches.line_shift, predictor)
        return code
