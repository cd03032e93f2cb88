"""Execution cells for the fuzzer: engine registry + cached cell runner.

An *engine* here is anything that can run a MiniC program end to end:
the native baseline, any of the five runtime models, an AOT variant of
a JIT runtime (``"<runtime>-aot"``), or a test-registered custom engine
(used by the fault-injection tests).  A *cell* is one ``(engine, -O)``
execution of one program.

Cell results are cached in the PR-2 content-addressed artifact store
(kind ``fuzz-result``), keyed by the program text, the engine, the -O
level and the compiler fingerprint — so a re-run of a fuzz campaign
with a warm cache performs zero compiles, exactly like ``wabench``.
Custom (test-registered) engines are never cached: their behavior is
not a pure function of the key.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, List, Optional, Sequence

from ..compiler import compile_source, config_fingerprint
from ..errors import HarnessError
from ..harness.cache import ArtifactCache, CacheStats, cache_key
from ..native import nativecc, run_native
from ..obs import Stopwatch
from ..registry import DEFAULT_FUZZ_ENGINES as DEFAULT_ENGINES
from ..runtimes import ALL_RUNTIME_NAMES, RunResult, make_runtime
from .generator import GENERATOR_VERSION

DEFAULT_OPT_LEVELS = (0, 2)

#: Oracle/config version stamp, part of every fuzz-result cache key.
#: Bump whenever an oracle change needs different data out of a cell
#: (a new metric, a serialization change, ...) — a stale cached result
#: from a correctness-only run must never satisfy a perf-oracle run.
#: /2: perf-differential oracle reads the full counter vector.
ORACLE_VERSION = "fuzz-oracle-2"

#: Test-registered engines: name -> zero-arg factory returning an object
#: with ``.run(wasm_bytes) -> RunResult``.
_CUSTOM_ENGINES: Dict[str, Callable[[], object]] = {}


def register_engine(name: str, factory: Callable[[], object]) -> None:
    """Register a custom engine (fault injection in tests).  Results of
    custom engines are never written to the artifact cache."""
    _CUSTOM_ENGINES[name] = factory


def unregister_engine(name: str) -> None:
    _CUSTOM_ENGINES.pop(name, None)


def is_builtin_engine(name: str) -> bool:
    if name in _CUSTOM_ENGINES:
        return False
    base = name[:-4] if name.endswith("-aot") else name
    return (base == "native" or base in ALL_RUNTIME_NAMES or
            base.startswith("wasmer-"))


def known_engines() -> Sequence[str]:
    return tuple(DEFAULT_ENGINES) + tuple(_CUSTOM_ENGINES)


def validate_engines(engines: Sequence[str]) -> None:
    for name in engines:
        if name in _CUSTOM_ENGINES or is_builtin_engine(name):
            continue
        raise HarnessError(
            f"unknown fuzz engine {name!r}; built-ins: "
            f"{', '.join(DEFAULT_ENGINES)} (plus any runtime name and "
            f"'<jit>-aot' variants)")


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def compute_static_findings(wasm_bytes: bytes) -> List[str]:
    """Static pre-oracle over one compiled module.

    The compiler's own output must decode, validate, survive the whole
    static auditor without crashing, contain no non-minimal LEB128
    encodings, and round-trip the encoder byte-identically with the
    same lint diagnostics.  Each violated expectation is one finding
    string; an empty list means the module is statically clean.
    """
    from ..analysis.audit import audit_module
    from ..analysis.lints import lint_module
    from ..wasm import encode_module, validate_module
    from ..wasm.decoder import decode_module_with_stats

    try:
        module, stats = decode_module_with_stats(wasm_bytes)
    except Exception as exc:
        return [f"decoder rejected compiler output: {exc}"]
    try:
        validate_module(module)
    except Exception as exc:
        return [f"validator rejected compiler output: {exc}"]
    try:
        audit = audit_module(module, stats=stats)
    except Exception as exc:
        return [f"static auditor crashed: {type(exc).__name__}: {exc}"]

    findings: List[str] = []
    if stats.non_minimal:
        head = ", ".join(str(o) for o in stats.non_minimal[:4])
        findings.append(
            f"compiler emitted {len(stats.non_minimal)} non-minimal "
            f"LEB128 encoding(s) at offset(s) {head}")

    try:
        reencoded = encode_module(module)
    except Exception as exc:
        findings.append(f"re-encode crashed: "
                        f"{type(exc).__name__}: {exc}")
        return findings
    if reencoded != wasm_bytes:
        findings.append(
            f"encode/decode round-trip not byte-identical "
            f"({len(wasm_bytes)} -> {len(reencoded)} bytes)")
        try:
            module2, stats2 = decode_module_with_stats(reencoded)
            validate_module(module2)
            diags2 = [d.key() for d in lint_module(module2, stats=stats2)]
        except Exception as exc:
            findings.append(f"re-decode of re-encoded module failed: "
                            f"{type(exc).__name__}: {exc}")
            return findings
        diags1 = [d.key() for d in audit.diagnostics]
        if diags1 != diags2:
            changed = set(diags1).symmetric_difference(diags2)
            findings.append(
                f"lint disagreement after encode/decode round-trip "
                f"({len(changed)} diagnostic(s) changed)")
    return findings


class CellRunner:
    """Compiles and executes (program, engine, -O) cells with caching.

    One instance per process; it memoizes compiled artifacts in memory
    and run results in the shared on-disk store when one is configured.
    """

    def __init__(self, cache: Optional[ArtifactCache] = None,
                 stats: Optional[CacheStats] = None):
        self.cache = cache
        self.stats = stats if stats is not None else CacheStats()
        self._wasm_cache: Dict[tuple, bytes] = {}
        self._native_cache: Dict[tuple, object] = {}
        self._aot_cache: Dict[tuple, object] = {}

    # -- compiled artifacts ------------------------------------------------

    def wasm_for(self, source: str, opt: int) -> bytes:
        key = (source_digest(source), opt)
        wasm = self._wasm_cache.get(key)
        if wasm is None:
            wasm = compile_source(source, opt_level=opt).wasm_bytes
            self._wasm_cache[key] = wasm
        return wasm

    def _native_for(self, source: str, opt: int):
        key = (source_digest(source), opt)
        binary = self._native_cache.get(key)
        if binary is None:
            binary = nativecc(source, opt_level=opt)
            self._native_cache[key] = binary
        return binary

    def _aot_for(self, source: str, runtime_name: str, opt: int):
        key = (source_digest(source), runtime_name, opt)
        image = self._aot_cache.get(key)
        if image is None:
            rt = make_runtime(runtime_name)
            image, _seconds = rt.compile_aot(self.wasm_for(source, opt))
            self._aot_cache[key] = image
        return image

    # -- cell execution ----------------------------------------------------

    def _cell_key(self, source: str, engine: str, opt: int) -> str:
        return cache_key("fuzz-result",
                         gen=GENERATOR_VERSION,
                         oracle=ORACLE_VERSION,
                         src=source_digest(source),
                         engine=engine, opt=opt,
                         cc=config_fingerprint(opt))

    def static_findings(self, source: str, opt: int,
                        use_cache: bool = True) -> List[str]:
        """Cached static pre-oracle findings for one compiled program
        (see :func:`compute_static_findings`)."""
        from ..analysis.lints import LINT_VERSION
        cacheable = use_cache and self.cache is not None
        disk_key = None
        if cacheable:
            disk_key = cache_key("fuzz-static",
                                 gen=GENERATOR_VERSION,
                                 src=source_digest(source), opt=opt,
                                 cc=config_fingerprint(opt),
                                 lint=LINT_VERSION)
            payload = self.cache.get_bytes(disk_key)
            if payload is not None:
                try:
                    findings = json.loads(payload.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    findings = None
                if isinstance(findings, list):
                    self.stats.hit("fuzz-static")
                    return findings
        watch = Stopwatch()
        findings = compute_static_findings(self.wasm_for(source, opt))
        if cacheable:
            self.stats.miss("fuzz-static", watch.seconds)
            self.cache.put_bytes(disk_key,
                                 json.dumps(findings).encode("utf-8"))
        return findings

    def run_cell(self, source: str, engine: str, opt: int,
                 use_cache: bool = True) -> RunResult:
        """One execution; cached for built-in engines."""
        cacheable = (use_cache and self.cache is not None and
                     is_builtin_engine(engine))
        disk_key = self._cell_key(source, engine, opt) if cacheable else None
        if cacheable:
            payload = self.cache.get_bytes(disk_key)
            if payload is not None:
                try:
                    result = RunResult.from_json(payload.decode("utf-8"))
                except (KeyError, TypeError, ValueError,
                        UnicodeDecodeError):
                    result = None
                if result is not None:
                    self.stats.hit("fuzz-result")
                    return result
        watch = Stopwatch()
        result = self._execute(source, engine, opt)
        if cacheable:
            self.stats.miss("fuzz-result", watch.seconds)
            self.cache.put_bytes(disk_key,
                                 result.to_json().encode("utf-8"))
        return result

    def _execute(self, source: str, engine: str, opt: int) -> RunResult:
        factory = _CUSTOM_ENGINES.get(engine)
        if factory is not None:
            return factory().run(self.wasm_for(source, opt))
        if engine == "native":
            return run_native(self._native_for(source, opt))
        if engine.endswith("-aot"):
            base = engine[:-4]
            image = self._aot_for(source, base, opt)
            return make_runtime(base).run(self.wasm_for(source, opt),
                                          aot_image=image)
        return make_runtime(engine).run(self.wasm_for(source, opt))
