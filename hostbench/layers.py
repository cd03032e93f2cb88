"""Outside-in host-wall tracing of the reproduction's layers.

A traced pass patches the module attributes through which each layer's
public functions are called, so no file under ``src/`` changes.  A
function imported with ``from x import f`` is a copy of the binding, so
every entry in :data:`WRAPPED` names the module the *caller* looks the
function up in, or a class whose method is looked up at call time.

Each wrapper records a span ``(name, start, end, pid, parent, pass)``
for the outermost call of its layer only: a recursive or nested call of
the same layer is passed through untimed, so a layer's spans never
overlap inside one process.  Spans stay in memory.  The pass process
writes them out once at the end (:meth:`Recorder.flush`); pool workers
forked from it inherit the wrappers, start an empty span list, and
flush at exit through a :class:`multiprocessing.util.Finalize` hook.

Self time is the span's duration minus the part of it covered by child
spans of the *same* process (:func:`self_times`).  A worker's root
spans point at the pass-process span open when the pool forked, but
never reduce that span's self time: the parent waited while the worker
ran, and the wait is the parent layer's own time.
"""

from __future__ import annotations

import importlib
import json
import os
import time
import types
from multiprocessing import util as mp_util
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Monotonic clock shared by every process on the host (CLOCK_MONOTONIC),
#: so spans from pool workers line up with the pass process and with
#: the driver's spawn/exit timestamps.
clock = time.perf_counter

#: (layer, module, attribute path, counters, predicate).  ``counters``
#: maps a counter name to ``f(args, kwargs, result) -> number`` and is
#: applied on every call, nested or not.  ``predicate(args, kwargs)``
#: selects which calls are spans at all (others run untouched).
WRAPPED: List[Tuple] = [
    ("minic.parse", "repro.compiler.driver", "parse",
     {"minic.calls": lambda a, k, r: 1}, None),
    ("minic.sema", "repro.compiler.driver", "analyze", {}, None),
    ("compiler.midend", "repro.compiler.midend", "optimize", {}, None),
    ("compiler.backend", "repro.compiler.wasmgen", "CodeGenerator.generate",
     {}, None),
    ("compiler.backend", "repro.compiler.driver", "peephole_module", {},
     None),
    ("compiler.backend", "repro.compiler.driver", "validate_module", {},
     None),
    ("compiler.backend", "repro.compiler.driver", "encode_module", {}, None),
]
_COMPILE_COUNTERS = {"compiler.modules": lambda a, k, r: 1,
                     "compiler.wasm_bytes": lambda a, k, r: len(r.wasm_bytes)}
WRAPPED += [("compiler.compile", module, "compile_source", _COMPILE_COUNTERS,
             None)
            for module in ("repro.harness.runner", "repro.fuzz.engines",
                           "repro.native.nativecc")]
WRAPPED += [(layer, module, attr, {}, None)
            for layer, attr in (("native.cc", "nativecc"),
                                ("native.run", "run_native"))
            for module in ("repro.harness.runner", "repro.fuzz.engines")]
WRAPPED += [
    ("wasm.decode", "repro.runtimes.base", "decode_module_with_stats", {},
     None),
    ("wasm.validate", "repro.runtimes.base", "validate_module", {}, None),
    ("speed.predecode", "repro.speed.predecode", "predecode_functions", {},
     None),
    ("speed.predecode", "repro.speed.closures", "predecode_functions", {},
     None),
    ("speed.codegen", "repro.speed.closures", "compile_bundle",
     {"speed.bundles_generated": lambda a, k, r: 1}, None),
    ("speed.bind", "repro.speed.closures", "bind_bundle",
     {"speed.bundles_bound": lambda a, k, r: 1}, None),
    ("runtimes.jit_compile", "repro.runtimes.jits", "compile_backend", {},
     None),
    ("runtimes.aot_compile", "repro.runtimes.jits", "JitRuntime.compile_aot",
     {}, None),
    ("runtimes.interp_exec", "repro.runtimes.interp.engine",
     "Interpreter.call_index", {}, None),
    ("runtimes.run_self", "repro.runtimes.base", "WasmRuntime.run", {}, None),
    ("isa.exec", "repro.isa.machine", "Machine.run_export", {}, None),
]
WRAPPED += [("harness.cache_get", "repro.harness.cache",
             f"ArtifactCache.{name}", {}, None)
            for name in ("get_bytes", "get_json", "get_pickle")]
WRAPPED += [("harness.cache_put", "repro.harness.cache",
             "ArtifactCache.put_bytes",
             {"harness.cache_put_bytes": lambda a, k, r: len(a[2])}, None)]
WRAPPED += [("harness.cache_put", "repro.harness.cache",
             f"ArtifactCache.{name}", {}, None)
            for name in ("put_json", "put_pickle")]
WRAPPED += [
    ("harness.run_cells", "repro.harness.parallel", "run_cells", {}, None),
    # The merge is the parent's RunResult.from_json as looked up by
    # run_cells; cache reads elsewhere use the class binding.
    ("harness.merge", "repro.harness.parallel", "RunResult.from_json",
     {"harness.transport_bytes": lambda a, k, r: len(a[0])}, None),
    ("fuzz.generate", "repro.fuzz.campaign", "generate_program", {}, None),
    ("fuzz.static", "repro.fuzz.engines", "compute_static_findings", {},
     None),
    ("fuzz.recheck", "repro.fuzz.engines", "CellRunner.run_cell", {},
     lambda a, k: k.get("use_cache", True) is False),
    ("fuzz.check_self", "repro.fuzz.campaign", "check_program", {}, None),
]

#: Every layer a traced pass can report, in table order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(w[0] for w in WRAPPED))


class Recorder:
    """Span and counter store of one process, plus the patches that feed it.

    ``out_dir`` receives one ``spans-<pid>.jsonl`` file per process of
    the pass; ``pass_id`` tags every span.
    """

    def __init__(self, out_dir: str, pass_id: str = "0"):
        self.out_dir = out_dir
        self.pass_id = pass_id
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[str] = []
        self._depth: Dict[str, int] = {}
        self._issued = 0
        self._fork_parent: Optional[str] = None

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry of :data:`WRAPPED` and follow forked workers."""
        for layer, module, path, counters, predicate in WRAPPED:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            if parents:
                cls = getattr(owner, parents[0])
                if cls.__module__ == module:
                    owner = cls
                else:
                    # A class imported into the call-site module: replace
                    # the binding with a view so that other callers of
                    # the same class stay unwrapped.
                    view = types.SimpleNamespace(
                        **{attr: getattr(cls, attr)})
                    setattr(owner, parents[0], view)
                    owner = view
            setattr(owner, attr, self._wrap(layer, getattr(owner, attr),
                                            counters, predicate))
        # Runs in every multiprocessing child after its bootstrap has
        # cleared the inherited finalizers, so the flush hook survives.
        mp_util.register_after_fork(self, Recorder._after_fork)

    def _wrap(self, layer: str, func, counters: Dict[str, Callable],
              predicate):
        recorder = self

        def wrapper(*args, **kwargs):
            if predicate is not None and not predicate(args, kwargs):
                return func(*args, **kwargs)
            if recorder._depth.get(layer):
                result = func(*args, **kwargs)
            else:
                recorder._depth[layer] = 1
                recorder._issued += 1
                span_id = f"{recorder.pid}:{recorder._issued}"
                parent = recorder._stack[-1] if recorder._stack \
                    else recorder._fork_parent
                recorder._stack.append(span_id)
                start = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    end = clock()
                    recorder._stack.pop()
                    recorder._depth[layer] = 0
                    recorder.spans.append({
                        "id": span_id, "name": layer, "start": start,
                        "end": end, "pid": recorder.pid, "parent": parent,
                        "pass": recorder.pass_id})
            for name, count in counters.items():
                recorder.counters[name] = (recorder.counters.get(name, 0) +
                                           count(args, kwargs, result))
            return result

        wrapper.__wrapped__ = func
        return wrapper

    # -- processes --------------------------------------------------------

    def _after_fork(self) -> None:
        self._fork_parent = self._stack[-1] if self._stack else None
        self.pid = os.getpid()
        self.spans = []
        self.counters = {}
        self._stack = []
        self._depth = {}
        self._issued = 0
        mp_util.Finalize(None, self.flush, exitpriority=100)

    def flush(self) -> None:
        """Write this process's spans and counters, then forget them."""
        from repro import speed
        cache = speed.module_cache
        counters = dict(self.counters)
        counters["speed.module_lookups"] = (cache.hits + cache.disk_hits +
                                            cache.misses)
        counters["speed.module_hits"] = cache.hits + cache.disk_hits
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"pid": self.pid, "counters": counters})
                     + "\n")
        self.spans = []
        self.counters = {}


def load(out_dir: str) -> Tuple[List[dict], Dict[str, float]]:
    """Every span and the summed counters flushed into ``out_dir``."""
    spans: List[dict] = []
    counters: Dict[str, float] = {}
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("spans-"):
            continue
        with open(os.path.join(out_dir, name)) as fh:
            for line in fh:
                record = json.loads(line)
                if "counters" in record:
                    for key, value in record["counters"].items():
                        counters[key] = counters.get(key, 0) + value
                else:
                    spans.append(record)
    return spans, counters


# -- self-time arithmetic ---------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time per span id: duration minus same-process child cover."""
    by_id = {s["id"]: s for s in spans}
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["pid"] == span["pid"]:
            children.setdefault(parent["id"], []).append(
                (max(span["start"], parent["start"]),
                 min(span["end"], parent["end"])))
    return {s["id"]: (s["end"] - s["start"]) -
            union_length(children.get(s["id"], ())) for s in spans}


def layer_table(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per layer: summed self time over every process, and span count."""
    own = self_times(spans)
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for span in spans:
        row = table.setdefault(span["name"], {"self_s": 0.0, "calls": 0})
        row["self_s"] += own[span["id"]]
        row["calls"] += 1
    return table


def root_cover(spans: List[dict], pid: int) -> float:
    """Wall time covered by the root spans of one process."""
    ids = {s["id"] for s in spans if s["pid"] == pid}
    return union_length((s["start"], s["end"]) for s in spans
                        if s["pid"] == pid and s["parent"] not in ids)
