"""Whole-module static audit: call graph + cost model + lints, with a
static-vs-dynamic cross-check against the instrumented interpreter.

One :func:`audit_module` call runs the interprocedural call graph
(:mod:`repro.analysis.callgraph`), the static cost model
(:mod:`repro.analysis.costmodel`) and the lint pass
(:mod:`repro.analysis.lints`) over a decoded module and packages the
result deterministically — same module, byte-identical report.

The suite-level entry (:func:`run_suite_audit`, surfaced as ``wabench
audit``) additionally *measures* each benchmark's dynamic opcode mix
and operand-stack depth by executing it once on the wasm3 model with
the :attr:`~repro.runtimes.interp.engine.Interpreter.opcode_profile`
observer attached (which bypasses the repro.speed fast path, so the
reference loop reports the true executed stream).  Two cross-checks
fall out:

* the static mix prediction vs the measured mix, per category, with
  deviations beyond :data:`~repro.analysis.costmodel.MIX_TOLERANCE`
  recorded as first-class findings;
* the static max-stack bound vs the observed interpreter stack depth —
  the bound is provably conservative, so any violation is a model
  soundness bug and always fails the gate.

:meth:`SuiteAudit.baseline_dict` — the expected diagnostics and mix
deviations per benchmark — is committed as ``AUDIT_baseline.json`` and
checked byte for byte by ``wabench golden check audit``
(:mod:`repro.harness.golden`), which refuses to refresh it over a
stack-bound violation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..wasm.decoder import DecodeStats, decode_module_with_stats
from ..wasm.module import Module
from ..wasm.validator import validate_module
from .callgraph import CallGraph, build_call_graph
from .costmodel import (MIX_TOLERANCE, CostReport, compare_mix,
                        cost_report)
from .lints import Diagnostic, lint_module
from .metrics import _category as category_of

#: Bump when audit output semantics change; stamped into reports and
#: baselines so a stale baseline is detected instead of misread.
AUDIT_VERSION = 1


# ---------------------------------------------------------------------------
# Dynamic measurement (instrumented interpreter run)
# ---------------------------------------------------------------------------


class DynamicProfile:
    """Collects the executed opcode stream of one instrumented run.

    Instances are callables with the ``opcode_profile`` observer
    signature ``(func_index, opcode, stack_len)``.
    """

    __slots__ = ("op_counts", "func_ops", "max_stack", "total_ops")

    def __init__(self):
        self.op_counts = [0] * 256
        self.func_ops: Dict[int, int] = {}
        self.max_stack: Dict[int, int] = {}
        self.total_ops = 0

    def __call__(self, func_index: int, opcode: int, stack_len: int) -> None:
        self.op_counts[opcode] += 1
        self.total_ops += 1
        self.func_ops[func_index] = self.func_ops.get(func_index, 0) + 1
        if stack_len > self.max_stack.get(func_index, -1):
            self.max_stack[func_index] = stack_len

    def mix_shares(self) -> Dict[str, float]:
        """Executed instruction mix by category, as shares of 1."""
        counts: Dict[str, int] = {}
        for o, n in enumerate(self.op_counts):
            if n:
                cat = category_of(o)
                counts[cat] = counts.get(cat, 0) + n
        total = sum(counts.values()) or 1
        return {cat: n / total for cat, n in sorted(counts.items())}


def dynamic_profile(wasm_bytes: bytes, fs=None) -> DynamicProfile:
    """Execute ``wasm_bytes`` once on the wasm3 model with the opcode
    observer attached; returns the collected profile.  A trapping or
    nonzero-exit run still returns whatever executed."""
    from ..runtimes.interpreters import Wasm3Runtime

    profile = DynamicProfile()
    rt = Wasm3Runtime()
    rt.instr_profile = profile
    rt.run(wasm_bytes, fs=fs)
    return profile


# ---------------------------------------------------------------------------
# Static audit of one module
# ---------------------------------------------------------------------------


@dataclass
class ModuleAudit:
    """Everything the static auditor derived from one module."""

    name: str
    diagnostics: List[Diagnostic]
    graph: CallGraph
    cost: CostReport

    def diagnostic_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for d in self.diagnostics:
            counts[d.id] = counts.get(d.id, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> Dict:
        """Deterministic JSON-able summary (pure function of inputs)."""
        graph = self.graph
        reachable = graph.reachable()
        return {
            "name": self.name,
            "audit_version": AUDIT_VERSION,
            "diagnostics": [d.key() for d in self.diagnostics],
            "diagnostic_counts": self.diagnostic_counts(),
            "callgraph": {
                "functions": graph.num_funcs,
                "imported": graph.num_imported,
                "roots": [graph.names[i] for i in graph.roots],
                "reachable": len(reachable),
                "recursive": sorted(graph.names[i]
                                    for i in graph.recursive),
                "sccs": sum(1 for s in graph.sccs if len(s) > 1),
                "max_call_depth": graph.max_call_depth,
                "imprecise_indirect": graph.imprecise_indirect,
                "max_stack": {
                    graph.names[i]: bound
                    for i, bound in enumerate(graph.max_stack)
                    if bound is not None},
            },
            "static_mix": {k: round(v, 4)
                           for k, v in self.cost.static_mix.items()},
            "hot_functions": [[name, round(share, 4)]
                              for name, share
                              in self.cost.hot_functions()],
            "syscalls": {
                "freq": {k: round(v, 4)
                         for k, v in self.cost.syscall_freq.items()},
                "predicted_cost": {
                    k: round(v, 2)
                    for k, v in sorted(self.cost.syscall_totals.items())},
            },
        }

    def render(self) -> str:
        """Human-readable single-module report (``wasicc --audit``)."""
        graph = self.graph
        lines = [f"static audit for {self.name}:"]
        depth = graph.max_call_depth
        lines.append(f"  functions:        {graph.num_funcs} "
                     f"({graph.num_imported} imported, "
                     f"{len(graph.reachable())} reachable)")
        lines.append(f"  recursion:        "
                     f"{len(graph.recursive)} function(s) in cycles; "
                     f"max call depth "
                     f"{'unbounded' if depth is None else depth}")
        bounds = [b for b in graph.max_stack if b is not None]
        lines.append(f"  max value stack:  "
                     f"{max(bounds) if bounds else 0}")
        mix = ", ".join(f"{k} {100 * v:.1f}%"
                        for k, v in sorted(self.cost.static_mix.items(),
                                           key=lambda kv: -kv[1]))
        lines.append(f"  predicted mix:    {mix}")
        hot = ", ".join(f"{name} {100 * share:.1f}%"
                        for name, share in self.cost.hot_functions())
        lines.append(f"  predicted hot:    {hot}")
        if self.cost.syscall_freq:
            sys_cost = ", ".join(
                f"{eng} {total:.0f}" for eng, total
                in sorted(self.cost.syscall_totals.items()))
            top = sorted(self.cost.syscall_freq.items(),
                         key=lambda kv: (-kv[1], kv[0]))[:4]
            calls = ", ".join(f"{fn} x{f:.0f}" for fn, f in top)
            lines.append(f"  predicted wasi:   {calls} "
                         f"(instr: {sys_cost})")
        counts = self.diagnostic_counts()
        summary = ", ".join(f"{k} x{v}" for k, v in counts.items()) \
            or "none"
        lines.append(f"  diagnostics:      {summary}")
        for d in self.diagnostics:
            lines.append("    " + d.format(self.name))
        return "\n".join(lines)


def audit_module(module: Module, stats: Optional[DecodeStats] = None,
                 name: str = "module") -> ModuleAudit:
    """Static audit of a decoded (assumed valid) module."""
    graph = build_call_graph(module)
    return ModuleAudit(
        name=name,
        diagnostics=lint_module(module, stats=stats, graph=graph),
        graph=graph,
        cost=cost_report(module, graph=graph))


def audit_wasm(wasm_bytes: bytes, name: str = "module") -> ModuleAudit:
    """Decode, validate, and statically audit a binary module."""
    module, stats = decode_module_with_stats(wasm_bytes)
    validate_module(module)
    return audit_module(module, stats=stats, name=name)


# ---------------------------------------------------------------------------
# Suite audit (wabench audit)
# ---------------------------------------------------------------------------


def audit_benchmark(name: str, size: str, opt: int,
                    cache_dir: Optional[str] = None,
                    wasm_bytes: Optional[bytes] = None) -> Dict:
    """Audit one suite benchmark: static report + dynamic cross-check."""
    from ..bench import get
    from ..harness.runner import Harness
    from ..wasi import VirtualFS

    if wasm_bytes is None:
        harness = Harness(size=size, opt_level=opt, benchmarks=[name],
                          cache_dir=cache_dir)
        wasm_bytes = harness.wasm_for(name, opt)
    audit = audit_wasm(wasm_bytes, name=name)

    bench = get(name)
    fs = VirtualFS()
    for path, data in bench.files_for(size).items():
        fs.add_file(path, data)
    profile = dynamic_profile(wasm_bytes, fs=fs)

    dynamic_mix = {k: round(v, 4) for k, v in profile.mix_shares().items()}
    mix_report = compare_mix(audit.cost.static_mix, profile.mix_shares())
    deviations = [rec["category"] for rec in mix_report if rec["deviates"]]

    stack_violations = []
    for index, observed in sorted(profile.max_stack.items()):
        bound = audit.graph.max_stack[index] \
            if index < len(audit.graph.max_stack) else None
        if bound is not None and observed > bound:
            stack_violations.append(
                {"function": audit.graph.names[index],
                 "static_bound": bound, "observed": observed})

    record = audit.to_dict()
    record.update({
        "dynamic_mix": dynamic_mix,
        "dynamic_ops": profile.total_ops,
        "mix_report": mix_report,
        "deviations": deviations,
        "stack_bound_ok": not stack_violations,
        "stack_violations": stack_violations,
    })
    return record


@dataclass
class SuiteAudit:
    """Deterministic suite-wide audit report."""

    size: str
    opt: int
    records: List[Dict] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "audit_version": AUDIT_VERSION,
            "size": self.size,
            "opt": self.opt,
            "tolerance": MIX_TOLERANCE,
            "benchmarks": {r["name"]: r for r in self.records},
        }, sort_keys=True, indent=1)

    def baseline_dict(self) -> Dict:
        """The committed-baseline shape: expected diagnostics and
        expected mix deviations per benchmark."""
        return {
            "audit_version": AUDIT_VERSION,
            "size": self.size,
            "opt": self.opt,
            "tolerance": MIX_TOLERANCE,
            "benchmarks": {
                r["name"]: {"diagnostics": list(r["diagnostics"]),
                            "deviations": list(r["deviations"])}
                for r in self.records},
        }

    def render(self) -> str:
        lines = [f"wabench audit: {len(self.records)} benchmark(s), "
                 f"size={self.size} -O{self.opt}"]
        total_diags: Dict[str, int] = {}
        total_dev = 0
        for r in self.records:
            for k, v in r["diagnostic_counts"].items():
                total_diags[k] = total_diags.get(k, 0) + v
            total_dev += len(r["deviations"])
            counts = ", ".join(f"{k} x{v}" for k, v
                               in r["diagnostic_counts"].items()) or "clean"
            dev = (" | mix deviation: " + ",".join(r["deviations"])
                   if r["deviations"] else "")
            stack = "" if r["stack_bound_ok"] else " | STACK BOUND VIOLATED"
            lines.append(f"  {r['name']:16s} {counts}{dev}{stack}")
        summary = ", ".join(f"{k} x{v}"
                            for k, v in sorted(total_diags.items())) \
            or "no diagnostics"
        lines.append(f"total: {summary}; "
                     f"{total_dev} mix deviation(s)")
        return "\n".join(lines)


def run_suite_audit(size: str, opt: int,
                    benchmarks: Optional[Sequence[str]] = None,
                    cache_dir: Optional[str] = None,
                    jobs: int = 1,
                    progress=None) -> SuiteAudit:
    """Audit the whole suite; output is byte-identical for any ``jobs``.

    Records are assembled in benchmark declaration order regardless of
    worker completion order, and every field of a record is a pure
    function of (benchmark, size, opt) — the two facts that make the
    report deterministic.
    """
    from ..bench import ALL_BENCHMARKS
    from ..harness.parallel import start_pool

    names = list(benchmarks) if benchmarks else \
        [b.name for b in ALL_BENCHMARKS]
    results: Dict[str, Dict] = {}
    pool = None
    if jobs > 1 and len(names) > 1:
        pool = start_pool(jobs, min(jobs, len(names)), _worker_init,
                          (size, opt, cache_dir))
    if pool is not None:
        with pool:
            for record in pool.map(_worker_audit, names):
                results[record["name"]] = record
                if progress is not None:
                    progress(record)
    else:
        for name in names:
            record = audit_benchmark(name, size, opt, cache_dir=cache_dir)
            results[name] = record
            if progress is not None:
                progress(record)
    return SuiteAudit(size=size, opt=opt,
                      records=[results[name] for name in names])


_WORKER_ARGS: Tuple = ()


def _worker_init(size: str, opt: int, cache_dir: Optional[str]) -> None:
    global _WORKER_ARGS
    _WORKER_ARGS = (size, opt, cache_dir)


def _worker_audit(name: str) -> Dict:
    size, opt, cache_dir = _WORKER_ARGS
    return audit_benchmark(name, size, opt, cache_dir=cache_dir)
