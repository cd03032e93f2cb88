"""The two interpretation-based runtime models: Wasm3 and WAMR.

* **Wasm3** pre-translates function bodies into threaded code at load
  time (higher load cost, larger in-memory code) and then pays the
  cheapest dispatch and handlers — the reason the paper measures it
  consistently faster than WAMR.
* **WAMR** (classic interpreter mode) loads fast and small but pays more
  instructions per dispatch and per handler on every instruction.

Both share the engine in :mod:`repro.runtimes.interp.engine`, which
dispatches from per-instruction sites, so the branch predictor sees the
same dispatch stream from either; only the cost constants differ, which
is faithful to how the two projects differ architecturally.
"""

from __future__ import annotations

from typing import List, Optional

from .. import speed
from ..errors import ReproError
from ..hw import CPUModel
from ..wasm import Module
from ..wasm.module import KIND_FUNC
from .base import WasmRuntime
from .instance import Environment
from .interp import (CLASSIC_PROFILE, THREADED_PROFILE, InterpProfile,
                     Interpreter, prepare_function)
from ..wasi import WasiAPI


class _LoadedInterp:
    def __init__(self, functions: List, code_bytes: int, closures=None):
        self.functions = functions
        self.code_bytes = code_bytes
        self.closures = closures


class InterpreterRuntime(WasmRuntime):
    """Common load/execute logic for both interpreter models."""

    mode = "interp"
    profile: InterpProfile = CLASSIC_PROFILE
    #: Optional dispatch observer, forwarded to
    #: :attr:`Interpreter.opcode_profile` (set per-instance by the
    #: static auditor's dynamic-mix measurement; never during normal
    #: runs — attaching it keeps every frame in the reference loop).
    instr_profile = None

    def _load(self, module: Module, cpu: CPUModel,
              aot_image: Optional[object]) -> _LoadedInterp:
        if aot_image is not None:
            raise ReproError(f"{self.name} does not support AOT images")
        profile = self.profile
        # Prepared side tables are a pure function of the module and are
        # profile-independent, so the decoded-module cache shares them
        # across runs and across the wasm3/wamr pair.  The modeled
        # translate charge below is identical on hit and miss.
        entry = speed.entry_for(module)
        with cpu.trace.span("translate", ops=module.body_size()):
            if entry is not None and entry.prepared is not None:
                prepared = entry.prepared
                total_ops = entry.total_ops
            else:
                prepared = [None] * module.num_funcs
                total_ops = 0
                num_imported = module.num_imported_funcs
                for i, func in enumerate(module.functions):
                    pf = prepare_function(module, func, num_imported + i)
                    prepared[num_imported + i] = ("wasm", pf)
                    total_ops += len(func.body)
                if entry is not None:
                    entry.prepared = prepared
                    entry.total_ops = total_ops
            cpu.counters.instructions += \
                total_ops * profile.translate_cost_per_op
        cpu.memory.alloc("interp-code", total_ops * profile.code_bytes_per_op)
        closures = None
        if entry is not None and speed.tier() >= 2:
            closures = speed.module_cache.closure_code(entry, profile, cpu)
        return _LoadedInterp(prepared, total_ops * profile.code_bytes_per_op,
                             closures)

    def _execute(self, loaded: _LoadedInterp, env: Environment,
                 cpu: CPUModel, wasi: WasiAPI) -> None:
        functions = list(loaded.functions)
        for index, entry in env.host_funcs.items():
            functions[index] = entry
        interp = Interpreter(self.profile, cpu, env.memory, env.globals,
                             env.table, functions)
        interp.closure_code = loaded.closures
        if self.instr_profile is not None:
            interp.opcode_profile = self.instr_profile
        interp.set_signatures(env.module)
        # Interpreter frames live on the runtime's own stack/heap.
        cpu.memory.alloc("interp-stack", 128 * 1024)
        if env.module.start is not None:
            interp.call_index(env.module.start, ())
        start = env.module.find_export("_start", KIND_FUNC)
        if start is None:
            raise ReproError("module has no _start export")
        interp.call_index(start.index, ())


class Wasm3Runtime(InterpreterRuntime):
    """Model of Wasm3: threaded-code interpreter, tiny footprint."""

    name = "wasm3"
    profile = THREADED_PROFILE
    runtime_base_bytes = 1_050_000


class WamrRuntime(InterpreterRuntime):
    """Model of WAMR (classic interpreter mode): lightweight, portable."""

    name = "wamr"
    profile = CLASSIC_PROFILE
    runtime_base_bytes = 1_350_000
