"""Static analysis over decoded Wasm modules and MiniC translation units.

The package has three layers:

* :mod:`repro.analysis.cfg` rebuilds a basic-block control-flow graph from
  the structured (block/loop/if) control flow of a function body.
* :mod:`repro.analysis.dataflow` is a generic worklist fixpoint engine that
  works on any CFG-shaped object (the Wasm CFG above, or the MiniC
  statement graph in :mod:`repro.analysis.sanitizer`).
* Client analyses: interval/range analysis (:mod:`repro.analysis.ranges`,
  which powers LLVM-tier bounds-check elimination in the JIT model),
  liveness (:mod:`repro.analysis.liveness`), dead-code/reachability (part
  of the CFG), static code metrics (:mod:`repro.analysis.metrics`) and the
  MiniC sanitizer (:mod:`repro.analysis.sanitizer`).
* The whole-module auditor: interprocedural call graph
  (:mod:`repro.analysis.callgraph`), static cost model
  (:mod:`repro.analysis.costmodel`), Wasm lints
  (:mod:`repro.analysis.lints`) and the orchestrating audit
  layer (:mod:`repro.analysis.audit`) behind ``wabench audit`` and
  ``wasicc --audit``.
"""

from importlib import import_module

# Lazily resolved exports (PEP 562): the range analysis is on the hot
# run path (the optimizing JIT tier consults it per module), but the
# sanitizer, metrics, and liveness clients are tooling-only — importing
# them eagerly would put their cost on every ``wabench run``.
_EXPORTS = {
    "BasicBlock": "cfg", "ControlFlowGraph": "cfg", "build_cfg": "cfg",
    "DataflowAnalysis": "dataflow", "solve": "dataflow",
    "live_variables": "liveness", "dead_stores": "liveness",
    "FunctionMetrics": "metrics", "ModuleMetrics": "metrics",
    "module_report": "metrics",
    "Interval": "ranges", "function_ranges": "ranges",
    "provable_inbounds": "ranges",
    "Finding": "sanitizer", "analyze_source": "sanitizer",
    "analyze_unit": "sanitizer",
    "CallGraph": "callgraph", "build_call_graph": "callgraph",
    "static_stack_bound": "callgraph",
    "CostReport": "costmodel", "FunctionCost": "costmodel",
    "cost_report": "costmodel", "compare_mix": "costmodel",
    "MIX_TOLERANCE": "costmodel",
    "Diagnostic": "lints", "lint_module": "lints",
    "LINT_VERSION": "lints",
    "ModuleAudit": "audit", "SuiteAudit": "audit",
    "audit_module": "audit", "audit_wasm": "audit",
    "audit_benchmark": "audit", "run_suite_audit": "audit",
    "AUDIT_VERSION": "audit",
}


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module_name}", __name__), name)
    globals()[name] = value  # cache for subsequent lookups
    return value

__all__ = [
    "BasicBlock",
    "ControlFlowGraph",
    "build_cfg",
    "DataflowAnalysis",
    "solve",
    "live_variables",
    "dead_stores",
    "FunctionMetrics",
    "ModuleMetrics",
    "module_report",
    "Interval",
    "function_ranges",
    "provable_inbounds",
    "Finding",
    "analyze_source",
    "analyze_unit",
    "CallGraph",
    "build_call_graph",
    "static_stack_bound",
    "CostReport",
    "FunctionCost",
    "cost_report",
    "compare_mix",
    "MIX_TOLERANCE",
    "Diagnostic",
    "lint_module",
    "LINT_VERSION",
    "ModuleAudit",
    "SuiteAudit",
    "audit_module",
    "audit_wasm",
    "audit_benchmark",
    "run_suite_audit",
    "AUDIT_VERSION",
]
