"""Experiment runner: compiles and executes WABench configurations.

One :class:`Harness` caches everything — compiled Wasm artifacts, native
binaries, AOT images, and run results — keyed by the full configuration,
so the per-figure experiment drivers can share measurements exactly the
way the paper's figures share one set of `perf` runs.

With a ``cache_dir``, every artifact is also persisted to a
content-addressed on-disk store (:mod:`repro.harness.cache`), so the
cache survives across processes: a warm second ``wabench`` invocation
performs zero compiles, and parallel workers (:mod:`repro.harness.
parallel`) share one store.  Every modeled counter is a pure function of
the cache key, which is what makes warm and parallel runs byte-identical
to cold serial ones.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import __version__ as _REPRO_VERSION
from ..bench import ALL_BENCHMARKS, Benchmark, get
from ..compiler import compile_source, config_fingerprint
from ..errors import HarnessError
from ..native import nativecc, run_native
from ..obs import NULL_TRACER, Stopwatch
# Engine name lists live in the canonical registry; re-exported here under
# their historical harness names (`from repro.harness import ENGINES` etc.).
from ..registry import ALL_RUNTIME_NAMES as ALL_RUNTIMES
from ..registry import ENGINES
from ..registry import JIT_RUNTIME_NAMES as JIT_RUNTIMES
from ..runtimes import RunResult, make_runtime
from ..wasi import VirtualFS
from .cache import ArtifactCache, CacheStats, cache_key


def geomean(values: Iterable[float], strict: bool = False) -> float:
    """Geometric mean of the positive values.

    Non-positive values cannot enter a geometric mean, but silently
    dropping them masks broken normalizations in figure tables — so any
    drop (and the empty case, which returns 0.0) emits a warning, or
    raises :class:`HarnessError` under ``strict``.
    """
    values = list(values)
    positive = [v for v in values if v > 0]
    if len(positive) != len(values):
        dropped = len(values) - len(positive)
        message = (f"geomean: dropped {dropped} non-positive value(s) "
                   f"out of {len(values)}")
        if strict:
            raise HarnessError(message)
        warnings.warn(message, stacklevel=2)
    if not positive:
        if values:  # everything was dropped; already warned above
            return 0.0
        message = "geomean: empty input, returning 0.0"
        if strict:
            raise HarnessError(message)
        warnings.warn(message, stacklevel=2)
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


class Harness:
    """Runs (benchmark, engine, -O, AOT) configurations with caching."""

    def __init__(self, size: str = "small", opt_level: int = 2,
                 benchmarks: Optional[Sequence[str]] = None,
                 verbose: bool = False,
                 cache_dir: Optional[str] = None,
                 tracer=None):
        self.size = size
        self.default_opt = opt_level
        self.benchmark_names = list(benchmarks) if benchmarks is not None \
            else [b.name for b in ALL_BENCHMARKS]
        self.verbose = verbose
        self.disk_cache = ArtifactCache(cache_dir) if cache_dir else None
        self.cache_stats = CacheStats()
        #: Session tracer (repro.obs); every run served — executed,
        #: cache-hit, or merged from a worker — is recorded on it.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # In-memory caches; every key carries (name, opt, size) because
        # ``defines_for(size)`` changes compilation output.
        self._wasm_cache: Dict[Tuple[str, int, str], bytes] = {}
        self._native_cache: Dict[Tuple[str, int, str], object] = {}
        self._aot_cache: Dict[Tuple[str, str, int, str],
                              Tuple[object, float]] = {}
        self._result_cache: Dict[tuple, RunResult] = {}
        self._fingerprints: Dict[Tuple[str, int, str], Dict[str, str]] = {}

    # -- cache keys -------------------------------------------------------

    def _key_fields(self, name: str, opt: int) -> Dict[str, str]:
        """The content-determining fields shared by every artifact kind."""
        memo_key = (name, opt, self.size)
        fields = self._fingerprints.get(memo_key)
        if fields is None:
            bench = get(name)
            defines = bench.defines_for(self.size)
            files = bench.files_for(self.size)
            file_hash = hashlib.sha256()
            for path in sorted(files):
                file_hash.update(path.encode())
                file_hash.update(b"\0")
                file_hash.update(files[path])
                file_hash.update(b"\0")
            fields = {
                "bench": name,
                "source": hashlib.sha256(bench.source.encode()).hexdigest(),
                "config": config_fingerprint(opt, defines=defines),
                "inputs": file_hash.hexdigest(),
                "size": self.size,
                "repro": _REPRO_VERSION,
            }
            self._fingerprints[memo_key] = fields
        return fields

    def artifact_key(self, kind: str, name: str, opt: int,
                     **extra) -> str:
        return cache_key(kind, **self._key_fields(name, opt), **extra)

    # -- building -----------------------------------------------------

    def benchmarks(self) -> List[Benchmark]:
        return [get(name) for name in self.benchmark_names]

    def _fs(self, bench: Benchmark) -> VirtualFS:
        fs = VirtualFS()
        for path, data in bench.files_for(self.size).items():
            fs.add_file(path, data)
        return fs

    def wasm_for(self, name: str, opt: Optional[int] = None) -> bytes:
        opt = self.default_opt if opt is None else opt
        key = (name, opt, self.size)
        if key in self._wasm_cache:
            return self._wasm_cache[key]
        disk_key = self.artifact_key("wasm", name, opt)
        if self.disk_cache is not None:
            payload = self.disk_cache.get_bytes(disk_key)
            if payload is not None:
                self.cache_stats.hit("wasm")
                self._wasm_cache[key] = payload
                return payload
        bench = get(name)
        watch = Stopwatch()
        wasm = compile_source(bench.source, opt,
                              defines=bench.defines_for(self.size)).wasm_bytes
        self.cache_stats.miss("wasm", watch.seconds)
        if self.disk_cache is not None:
            self.disk_cache.put_bytes(disk_key, wasm)
        self._wasm_cache[key] = wasm
        return wasm

    def native_binary(self, name: str, opt: Optional[int] = None):
        opt = self.default_opt if opt is None else opt
        key = (name, opt, self.size)
        if key in self._native_cache:
            return self._native_cache[key]
        disk_key = self.artifact_key("native", name, opt)
        if self.disk_cache is not None:
            binary = self.disk_cache.get_pickle(disk_key)
            if binary is not None:
                self.cache_stats.hit("native")
                self._native_cache[key] = binary
                return binary
        bench = get(name)
        watch = Stopwatch()
        binary = nativecc(bench.source, opt,
                          defines=bench.defines_for(self.size))
        self.cache_stats.miss("native", watch.seconds)
        if self.disk_cache is not None:
            self.disk_cache.put_pickle(disk_key, binary)
        self._native_cache[key] = binary
        return binary

    def aot_image(self, name: str, runtime: str,
                  opt: Optional[int] = None) -> Tuple[object, float]:
        opt = self.default_opt if opt is None else opt
        key = (name, runtime, opt, self.size)
        if key in self._aot_cache:
            return self._aot_cache[key]
        disk_key = self.artifact_key("aot", name, opt, runtime=runtime)
        if self.disk_cache is not None:
            entry = self.disk_cache.get_pickle(disk_key)
            if entry is not None:
                self.cache_stats.hit("aot")
                self._aot_cache[key] = entry
                return entry
        rt = make_runtime(runtime)
        watch = Stopwatch()
        entry = rt.compile_aot(self.wasm_for(name, opt))
        self.cache_stats.miss("aot", watch.seconds)
        if self.disk_cache is not None:
            self.disk_cache.put_pickle(disk_key, entry)
        self._aot_cache[key] = entry
        return entry

    # -- running --------------------------------------------------------

    def run(self, name: str, engine: str, opt: Optional[int] = None,
            aot: bool = False) -> RunResult:
        """Run one configuration (cached)."""
        opt = self.default_opt if opt is None else opt
        watch = Stopwatch()
        result = self._run_impl(name, engine, opt, aot)
        self.tracer.record_run(
            {"bench": name, "engine": engine, "opt": opt, "aot": aot,
             "size": self.size},
            result, wall_seconds=watch.seconds)
        return result

    def _run_impl(self, name: str, engine: str, opt: int,
                  aot: bool) -> RunResult:
        key = (name, engine, opt, aot, self.size)
        cached = self._result_cache.get(key)
        if cached is not None:
            return cached
        disk_key = self.artifact_key("result", name, opt,
                                     engine=engine, aot=aot)
        if self.disk_cache is not None:
            payload = self.disk_cache.get_bytes(disk_key)
            if payload is not None:
                try:
                    result = RunResult.from_json(payload.decode("utf-8"))
                except (KeyError, TypeError, ValueError,
                        UnicodeDecodeError):
                    result = None
                if result is not None:
                    self.cache_stats.hit("result")
                    self._result_cache[key] = result
                    return result
        bench = get(name)
        if self.verbose:
            print(f"  [run] {name} on {engine} -O{opt}"
                  f"{' (AOT)' if aot else ''}")
        watch = Stopwatch()
        if engine == "native":
            if aot:
                raise HarnessError("AOT does not apply to native execution")
            result = run_native(self.native_binary(name, opt),
                                fs=self._fs(bench))
        else:
            rt = make_runtime(engine)
            image = None
            if aot:
                image, _seconds = self.aot_image(name, engine, opt)
            result = rt.run(self.wasm_for(name, opt), fs=self._fs(bench),
                            aot_image=image)
        if result.trap is not None:
            raise HarnessError(f"{name} on {engine}: {result.trap}")
        self.cache_stats.miss("result", watch.seconds)
        if self.disk_cache is not None:
            self.disk_cache.put_bytes(disk_key,
                                      result.to_json().encode("utf-8"))
        self._result_cache[key] = result
        return result

    def prewarm(self, cells: Sequence[tuple], jobs: int = 1) -> None:
        """Populate the result cache for the given (name, engine, opt,
        aot) cells, fanning out across ``jobs`` worker processes."""
        from .parallel import run_cells
        run_cells(self, cells, jobs)

    def verify_outputs(self, name: str,
                       engines: Sequence[str] = ENGINES) -> None:
        """Assert every engine produced byte-identical output."""
        outputs = {e: self.run(name, e).stdout for e in engines}
        reference = outputs["native"] if "native" in outputs else \
            next(iter(outputs.values()))
        for engine, out in outputs.items():
            if out != reference:
                raise HarnessError(
                    f"{name}: output divergence on {engine}")

    # -- metric helpers ----------------------------------------------------

    def normalized(self, name: str, engine: str, metric: str,
                   opt: Optional[int] = None, aot: bool = False) -> float:
        """Metric of engine / metric of native, for one benchmark."""
        base = self._metric(self.run(name, "native", opt), metric)
        value = self._metric(self.run(name, engine, opt, aot), metric)
        if base == 0:
            return 0.0
        return value / base

    @staticmethod
    def _metric(result: RunResult, metric: str) -> float:
        if metric == "seconds":
            return result.seconds
        if metric == "mrss":
            return float(result.mrss_bytes)
        return float(result.counters[metric])

    # -- grouping (the paper's aggregation scheme) -------------------------

    def grouped_rows(self) -> List[Tuple[str, List[str]]]:
        """(label, benchmark names) rows: suites aggregated, apps singly."""
        rows: List[Tuple[str, List[str]]] = []
        present = set(self.benchmark_names)
        for suite, label in (("jetstream2", "JetStream2"),
                             ("mibench", "MiBench"),
                             ("polybench", "PolyBench")):
            members = [b.name for b in ALL_BENCHMARKS
                       if b.suite == suite and b.name in present]
            if members:
                rows.append((label, members))
        for bench in ALL_BENCHMARKS:
            if bench.suite == "apps" and bench.name in present:
                rows.append((bench.name, [bench.name]))
        return rows
