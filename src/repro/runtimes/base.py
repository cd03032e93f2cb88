"""Runtime scaffolding: the measurement protocol every runtime follows.

A run proceeds exactly like the paper's measurements, as an explicit
:class:`RunPipeline` of named phases — spawn the process (charge the
runtime's base footprint), decode the module, validate it, load it
(interpret-prepare or JIT-compile — the phase where the five runtimes
diverge), instantiate, execute ``_start`` under WASI, and tear down,
reading the PMU-equivalent counters and peak RSS at the end.

Every phase is individually instrumented: the pipeline attaches a
:class:`~repro.obs.spans.TraceBuilder` to the CPU model (``cpu.trace``),
opens a model-time span per phase, and derives ``compile_seconds`` /
``execute_seconds`` *from the span tree itself*, so the trace always
reconciles exactly with the headline numbers.  Span records are part of
:class:`RunResult` (pure functions of the inputs), which is what lets
warm-cache and parallel runs emit byte-identical traces.
"""

from __future__ import annotations

import abc
import base64
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import speed
from ..errors import ExitProc, ReproError, Trap
from ..hw import CPUModel, MachineConfig
from ..obs.spans import TraceBuilder
from ..registry import PIPELINE_PHASES
from ..wasi import VirtualFS, WasiAPI
from ..wasm import decode_module_with_stats, validate_module
from .instance import Environment, instantiate

# Decode/validate work factors (instructions charged per unit of work).
_DECODE_COST_PER_BYTE = 2
_DECODE_COST_PER_INSTR = 6
_VALIDATE_COST_PER_INSTR = 10


@dataclass
class RunResult:
    """Everything one measured execution produced."""

    runtime: str
    stdout: bytes
    exit_code: int
    trap: Optional[str]
    seconds: float
    cycles: int
    mrss_bytes: int
    counters: Dict[str, float]
    compile_seconds: float = 0.0      # JIT/AOT translation time
    execute_seconds: float = 0.0      # guest execution excl. load/compile
    memory_breakdown: Dict[str, int] = field(default_factory=dict)
    code_bytes: int = 0
    #: Model-time span tree (see repro.obs.spans / TRACING.md); every
    #: field is a pure function of the run configuration.
    trace: List[Dict] = field(default_factory=list)
    #: Per-WASI-function {"calls", "instructions", "bytes"} (the eWAPA
    #: view; instructions are engine-priced, calls/bytes invariant).
    wasi_calls: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.trap is None and self.exit_code == 0

    def stdout_text(self) -> str:
        return self.stdout.decode("utf-8", errors="replace")

    def phase_cycles(self) -> Dict[str, int]:
        """Cycles per top-level pipeline phase, from the span tree."""
        from ..obs.export import phase_cycles
        return phase_cycles(self.trace)

    # -- serialization (disk cache / cross-process transport) -------------

    def to_json(self) -> str:
        """Canonical JSON text; floats round-trip exactly via repr."""
        return json.dumps({
            "runtime": self.runtime,
            "stdout": base64.b64encode(self.stdout).decode("ascii"),
            "exit_code": self.exit_code,
            "trap": self.trap,
            "seconds": self.seconds,
            "cycles": self.cycles,
            "mrss_bytes": self.mrss_bytes,
            "counters": self.counters,
            "compile_seconds": self.compile_seconds,
            "execute_seconds": self.execute_seconds,
            "memory_breakdown": self.memory_breakdown,
            "code_bytes": self.code_bytes,
            "trace": self.trace,
            "wasi_calls": self.wasi_calls,
        }, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        data = json.loads(text)
        return cls(
            runtime=data["runtime"],
            stdout=base64.b64decode(data["stdout"]),
            exit_code=data["exit_code"],
            trap=data["trap"],
            seconds=data["seconds"],
            cycles=data["cycles"],
            mrss_bytes=data["mrss_bytes"],
            counters=dict(data["counters"]),
            compile_seconds=data["compile_seconds"],
            execute_seconds=data["execute_seconds"],
            memory_breakdown=dict(data["memory_breakdown"]),
            code_bytes=data["code_bytes"],
            trace=[dict(record) for record in data.get("trace", [])],
            wasi_calls={fn: dict(stats) for fn, stats
                        in data.get("wasi_calls", {}).items()},
        )


class RunPipeline:
    """One measured execution as an ordered sequence of named phases.

    The pipeline owns the cross-phase state (CPU model, WASI instance,
    decoded module, loaded form) and wraps each phase in a model-time
    span.  Phase spans are contiguous children of the root ``run`` span,
    so they sum exactly to the run's total cycles; ``compile_seconds``
    and ``execute_seconds`` are read back off the ``load`` and
    ``execute`` spans, making the trace and the headline metrics one
    source of truth.
    """

    PHASES = PIPELINE_PHASES

    def __init__(self, runtime: "WasmRuntime", wasm_bytes: bytes,
                 fs: Optional[VirtualFS] = None,
                 argv: Sequence[str] = ("wabench",),
                 config: Optional[MachineConfig] = None,
                 aot_image: Optional[object] = None):
        self.runtime = runtime
        self.wasm_bytes = wasm_bytes
        self.fs = fs if fs is not None else VirtualFS()
        self.argv = argv
        self.config = config
        self.aot_image = aot_image
        # Cross-phase state, populated as the pipeline advances.
        self.cpu: Optional[CPUModel] = None
        self.wasi: Optional[WasiAPI] = None
        self.module = None
        self.decode_stats = None
        self.loaded = None
        self.env: Optional[Environment] = None
        self.trap: Optional[str] = None
        self.exit_code = 0
        self._speed_entry = None

    def run(self) -> RunResult:
        """Execute every phase and assemble the measured result."""
        self.cpu = CPUModel(self.config)
        trace = TraceBuilder(self.cpu.counters)
        self.cpu.trace = trace
        phase_spans: Dict[str, Dict] = {}
        with trace.span("run", runtime=self.runtime.name,
                        mode=self.runtime.mode):
            for phase in self.PHASES:
                with trace.span(phase) as span:
                    getattr(self, "_phase_" + phase)()
                phase_spans[phase] = span
        return self._assemble(trace, phase_spans)

    # -- the phases, in order ---------------------------------------------

    def _phase_spawn(self) -> None:
        """Start the process: base footprint, module bytes, WASI."""
        cpu = self.cpu
        cpu.memory.alloc("runtime-base", self.runtime.runtime_base_bytes)
        cpu.memory.alloc("module-bytes", len(self.wasm_bytes))
        self.wasi = WasiAPI(fs=self.fs, cpu=cpu, argv=self.argv,
                            engine=self.runtime.name,
                            aot=self.aot_image is not None)

    def _phase_decode(self) -> None:
        # The decoded-module cache (repro.speed) shares the pure
        # decode/validate work across engines and runs.  The modeled
        # charge below is closed-form in the decode stats, so hit and
        # miss produce byte-identical counters and traces.
        entry = None
        if speed.enabled():
            entry = speed.module_cache.lookup(self.wasm_bytes)
        if entry is not None:
            self.module, self.decode_stats = entry.module, entry.stats
        else:
            self.module, self.decode_stats = \
                decode_module_with_stats(self.wasm_bytes)
            if speed.enabled():
                entry = speed.module_cache.register(
                    self.wasm_bytes, self.module, self.decode_stats)
        self._speed_entry = entry
        self.cpu.counters.instructions += (
            self.decode_stats.bytes_scanned * _DECODE_COST_PER_BYTE +
            self.decode_stats.instructions * _DECODE_COST_PER_INSTR)

    def _phase_validate(self) -> None:
        entry = self._speed_entry
        if entry is None or not entry.validated:
            validate_module(self.module)
            if entry is not None:
                entry.validated = True
        self.cpu.counters.instructions += (
            self.decode_stats.instructions * _VALIDATE_COST_PER_INSTR)
        self.cpu.memory.alloc("module-ir",
                              self.decode_stats.instructions * 12)

    def _phase_load(self) -> None:
        """Interpret-prepare or JIT-compile (where the runtimes diverge)."""
        self.loaded = self.runtime._load(self.module, self.cpu,
                                         self.aot_image)

    def _phase_instantiate(self) -> None:
        self.cpu.memory.checkpoint()
        self.env = instantiate(self.module, self.wasi, self.cpu)

    def _phase_execute(self) -> None:
        try:
            self.runtime._execute(self.loaded, self.env, self.cpu,
                                  self.wasi)
        except ExitProc as exc:
            self.exit_code = exc.code
        except Trap as exc:
            self.trap = str(exc)

    def _phase_teardown(self) -> None:
        """Final residency checkpoint (hot paths touch pages in bulk)."""
        self.cpu.memory.checkpoint()

    # -- readout -----------------------------------------------------------

    def _assemble(self, trace: TraceBuilder,
                  phase_spans: Dict[str, Dict]) -> RunResult:
        cpu = self.cpu
        to_seconds = cpu.config.cycles_to_seconds

        def span_seconds(name: str) -> float:
            span = phase_spans[name]
            return to_seconds(span["cycles_end"] - span["cycles_start"])

        return RunResult(
            runtime=self.runtime.name,
            stdout=bytes(self.fs.stdout),
            exit_code=self.exit_code,
            trap=self.trap,
            seconds=cpu.seconds,
            cycles=cpu.cycles,
            mrss_bytes=cpu.memory.peak_bytes,
            counters=cpu.counters.snapshot(),
            compile_seconds=span_seconds("load"),
            execute_seconds=span_seconds("execute"),
            memory_breakdown=cpu.memory.breakdown(),
            code_bytes=getattr(self.loaded, "code_bytes", 0),
            trace=trace.records(),
            wasi_calls=self.wasi.stats.as_dict(),
        )


class WasmRuntime(abc.ABC):
    """Base class of the five standalone runtime models."""

    #: short identifier, e.g. "wasmtime"
    name: str = "abstract"
    #: "jit" or "interp"
    mode: str = "abstract"
    #: process base footprint (binary + runtime heap at startup), bytes
    runtime_base_bytes: int = 1 << 20

    def run(self, wasm_bytes: bytes,
            fs: Optional[VirtualFS] = None,
            argv: Sequence[str] = ("wabench",),
            config: Optional[MachineConfig] = None,
            aot_image: Optional[object] = None) -> RunResult:
        """Execute a Wasm binary from cold start and measure everything."""
        return RunPipeline(self, wasm_bytes, fs=fs, argv=argv,
                           config=config, aot_image=aot_image).run()

    # -- phases the concrete runtimes implement ---------------------------

    @abc.abstractmethod
    def _load(self, module, cpu: CPUModel, aot_image: Optional[object]):
        """Prepare/compile the module; charge the work; return loaded form."""

    @abc.abstractmethod
    def _execute(self, loaded, env: Environment, cpu: CPUModel,
                 wasi: WasiAPI) -> None:
        """Run ``_start`` to completion."""

    # -- AOT -------------------------------------------------------------

    def compile_aot(self, wasm_bytes: bytes,
                    config: Optional[MachineConfig] = None):
        """Ahead-of-time compile; returns (image, compile_seconds)."""
        raise ReproError(f"{self.name} does not support AOT compilation")
