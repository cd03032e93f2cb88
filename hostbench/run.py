#!/usr/bin/env python3
"""hostbench: host wall time of the reproduction, end to end and per layer.

Every timed *pass* is a fresh ``python hostbench/passes.py`` process
with ``PYTHONPATH=src``, timed from spawn to exit; one client runs a
workload's passes back to back (a closed loop).  Usage::

    python hostbench/run.py                              # all workloads
    python hostbench/run.py --workload fuzz_cold --seed 3 --seconds 20
    python hostbench/run.py --workload grid_jobs2 --trace 1 --trace-out t.jsonl
    python hostbench/run.py --json out.json              # full report
    python hostbench/run.py --update-reference           # at REPRO_SPEED=0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of one extra
traced pass.  Exit codes: 0 ok (including wrong outputs, which are
counted in ``failed``), 1 a pass crashed, hung or the checkout has no
``src/repro``, 2 usage error.  See hostbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: Scratch stores and span files live here while a run lasts.
WORK_ROOT = os.path.join(ROOT, ".hostbench")

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
#: A run must exit within 180 s; a pass still going at this point of the
#: run is killed and the run fails.
DEADLINE_S = 170.0
#: Set-up-only passes per run.  A long workload fits one or two timed
#: passes in a run, too few set-up samples for a steady median.
SETUP_PASSES = 7


@dataclass(frozen=True)
class Workload:
    """A workload and the inputs its seeded draw picks from.

    Where the inputs' cost differs, the candidates were each timed as a
    pass of their own on the development host, and a list keeps only
    inputs whose cost and peak RSS lie within a few percent of one
    another, so that another seed changes the inputs but not how much
    work a pass does (see README, "Inputs").
    """

    name: str
    why: str
    kind: str                       # "fuzz" | "grid"
    jobs: int
    store: Optional[str]            # None | "fresh" | "filled"
    budget: int = 0                 # fuzz
    #: Empty: the seed itself is the base seed.
    base_seeds: Tuple[int, ...] = ()
    size: str = ""                  # grid
    experiments: Tuple[str, ...] = ()
    #: (count, candidates) per program group.
    draws: Tuple[Tuple[int, Tuple[str, ...]], ...] = ()


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fuzz_cold",
             "compile-bound: a budget-8 fuzz campaign against an empty "
             "store, 16 new modules each executed briefly",
             kind="fuzz", jobs=1, store="fresh", budget=8,
             base_seeds=(1, 5, 8, 14, 16, 18, 20, 26, 38, 42, 43, 44, 47,
                         49, 58, 62, 72, 75, 77, 78)),
    Workload("fuzz_warm",
             "cache read side: a budget-24 campaign re-served from a store "
             "that an untimed --jobs 2 campaign filled",
             kind="fuzz", jobs=1, store="filled", budget=24),
    Workload("suite_exec",
             "execute-bound: 4 WABench programs x 6 engines at --size "
             "small with no store; the counterweight to fuzz_cold",
             kind="grid", jobs=1, store=None, size="small",
             experiments=("fig1",),
             # Here and in grid_jobs2 the non-polybench candidates are the
             # only ones of their cost and peak RSS, so all of them run
             # and the seed draws only the polybench programs.
             draws=((2, ("hashset", "quicksort")),
                    (2, ("atax", "bicg", "gemm", "gesummv", "mvt")))),
    Workload("grid_jobs2",
             "pool and write path: fig1+fig3 cells of 6 programs at --size "
             "test, run_cells(jobs=2) into a fresh store; the only AOT user",
             kind="grid", jobs=2, store="fresh", size="test",
             experiments=("fig1", "fig3"),
             draws=((3, ("hashset", "stringsearch", "tsf")),
                    (3, ("atax", "bicg", "floyd-warshall", "gemm",
                         "gesummv", "jacobi-1d", "mvt", "syr2k", "syrk",
                         "trisolv", "trmm")))),
)}

#: (name, unit, better) of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cells_per_s", "cells/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric the final JSON line reports
#: under --trace 1: those that are nonzero on every workload.  A metric
#: that some workload never moves (the speed and runtime layers on
#: fuzz_warm, the pool on all but grid_jobs2, ...) is in the printed
#: table, in --json and in the span file only.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("minic.parse_s", "s", "lower"),
    ("minic.sema_s", "s", "lower"),
    ("minic.calls", "count", "lower"),
    ("compiler.midend_s", "s", "lower"),
    ("compiler.backend_s", "s", "lower"),
    ("compiler.compile_s", "s", "lower"),
    ("compiler.modules", "count", "lower"),
    ("compiler.wasm_bytes", "bytes", "lower"),
    ("native.cc_s", "s", "lower"),
    ("native.run_s", "s", "lower"),
    ("isa.exec_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)


class BenchError(Exception):
    """A pass crashed, hung or printed no result; the run is invalid."""


# -- inputs -------------------------------------------------------------------


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def draw_inputs(workload: Workload, seed: int) -> dict:
    """The workload's inputs for ``seed``: a fuzz base seed, or programs."""
    rng = random.Random(f"hostbench:{workload.name}:{seed}")
    if workload.kind == "fuzz":
        return {"base_seed": rng.choice(workload.base_seeds)
                if workload.base_seeds else seed}
    return {"programs": sorted(program for count, candidates in workload.draws
                               for program in rng.sample(candidates, count))}


# -- passes -------------------------------------------------------------------

#: The contention probe's sampling period and the CPU time of its timed
#: work on an uncontended core of the development host (Intel Xeon, KVM
#: guest, Python 3.11); see :class:`ContentionProbe`.
PROBE_PERIOD_S = 0.02
PROBE_NOMINAL_S = 0.0004


def _probe_work(rounds: int) -> int:
    table: Dict[int, int] = {}
    acc = 0
    for i in range(rounds):
        table[i & 255] = i
        acc += table.get((i * 7) & 255, 0) ^ i
    return acc


class ContentionProbe:
    """Measures how fast each CPU a pass runs on executes Python right now.

    On a shared host, other tenants slow a CPU by up to 2x for seconds to
    minutes at a time, so spawn-to-exit times of identical passes spread
    by 15 % and more.  One thread per CPU, pinned beside the pass, runs a
    fixed piece of Python every :data:`PROBE_PERIOD_S` (about 3 % of the
    CPU) and records its thread CPU time.  The mean over a pass, divided
    by :data:`PROBE_NOMINAL_S`, is the pass's *slowdown*: the probe and
    the pass share the CPU, so they slow down together.

    Each sample first runs the work untimed, so that the timed run finds
    its code and data in the core's caches whatever the pass left there:
    the slowdown then follows the host, not the code under test.
    """

    def __init__(self, cpus: List[int]):
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(cpu,),
                                          daemon=True) for cpu in cpus]
        for thread in self._threads:
            thread.start()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})      # this thread only
        while not self._stop.wait(PROBE_PERIOD_S):
            _probe_work(1000)
            start = time.thread_time()
            _probe_work(3000)
            self.samples.append((layers.clock(), time.thread_time() - start))

    def slowdown(self, start: float, end: float) -> float:
        costs = [cost for when, cost in self.samples if start <= when <= end]
        return statistics.mean(costs) / PROBE_NOMINAL_S if costs else 1.0

    def __enter__(self) -> "ContentionProbe":
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()


def pass_cpus(jobs: int) -> List[int]:
    """The CPUs a pass with ``jobs`` worker processes is pinned to."""
    usable = sorted(os.sched_getaffinity(0))
    return usable[-min(jobs, len(usable)):]


@dataclass
class Pass:
    """One pass as measured from outside.  The timings are raw; the
    properties scale them by the pass's contention slowdown."""

    raw_wall_s: float
    raw_setup_s: float
    raw_cpu_s: float
    peak_rss_mb: float
    slowdown: float
    result: dict
    pid: int

    @property
    def wall_s(self) -> float:
        return self.raw_wall_s / self.slowdown

    @property
    def setup_s(self) -> float:
        return self.raw_setup_s / self.slowdown

    @property
    def cpu_s(self) -> float:
        return self.raw_cpu_s / self.slowdown

    @property
    def cells_per_s(self) -> float:
        return self.result["cells"] / (self.wall_s - self.setup_s)


def run_pass(spec: dict, work: str, deadline: float, cpus: List[int],
             probe: Optional[ContentionProbe] = None,
             env: Optional[Dict[str, str]] = None) -> Pass:
    """Spawn one pass pinned to ``cpus``, wait for it, and measure it.

    CPU time and peak RSS come from ``wait4`` on the pass process, which
    folds in every pool worker the pass reaped.  The pass leads its own
    process group, so a pass still running at ``deadline`` is killed
    together with its pool workers.
    """
    child_env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                     TMPDIR=work, **(env or {}))
    ready = result = None
    # A child inherits the spawning thread's CPU mask.
    own_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        start = layers.clock()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "passes.py"),
             json.dumps(spec)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env,
            start_new_session=True)
    finally:
        os.sched_setaffinity(0, own_cpus)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY"):
                ready = layers.clock()
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        raise
    finally:
        _pid, status, usage = os.wait4(proc.pid, 0)
        end = layers.clock()
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or ready is None or \
            (result is None and not spec.get("setup_only")):
        raise BenchError(f"pass {spec['pass_id']} of {spec['workload']} "
                         f"failed (exit {proc.returncode})")
    return Pass(raw_wall_s=end - start, raw_setup_s=ready - start,
                raw_cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss / 1024.0,
                slowdown=probe.slowdown(start, end) if probe else 1.0,
                result=result, pid=proc.pid)


def pass_spec(workload: Workload, inputs: dict, pass_id: str,
              store: Optional[str], jobs: Optional[int] = None,
              trace_dir: Optional[str] = None,
              setup_only: bool = False) -> dict:
    spec = {"workload": workload.name, "kind": workload.kind,
            "pass_id": pass_id, "store": store,
            "jobs": workload.jobs if jobs is None else jobs,
            "trace_dir": trace_dir, "setup_only": setup_only, **inputs}
    if workload.kind == "fuzz":
        spec["budget"] = workload.budget
    else:
        spec.update(size=workload.size,
                    experiments=list(workload.experiments))
    return spec


class Session:
    """One workload's passes at one seed, in a private scratch directory.

    Passes are pinned to :func:`pass_cpus` of the workload; ``probe``, if
    given, should sample the same CPUs.
    """

    def __init__(self, workload: Workload, inputs: dict, work: str,
                 deadline: float, probe: Optional[ContentionProbe] = None,
                 env: Optional[Dict[str, str]] = None):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.deadline = deadline
        self.probe = probe
        self.env = env
        self.count = 0
        self.warm_store = None
        if workload.store == "filled":
            # Untimed: one --jobs 2 campaign fills the store that every
            # warm pass re-reads (warm passes write nothing back).
            self.warm_store = os.path.join(work, "warm-store")
            run_pass(pass_spec(workload, inputs, "fill", self.warm_store,
                               jobs=2), work, deadline, pass_cpus(2),
                     env=env)

    def run(self, trace_dir: Optional[str] = None,
            setup_only: bool = False) -> Pass:
        """One pass; with ``setup_only`` it exits at READY and its
        ``result`` is None."""
        self.count += 1
        pass_id = f"{self.workload.name}-{self.count}"
        store = self.warm_store
        if self.workload.store == "fresh":
            store = os.path.join(self.work, f"store-{self.count}")
        try:
            return run_pass(pass_spec(self.workload, self.inputs, pass_id,
                                      store, trace_dir=trace_dir,
                                      setup_only=setup_only),
                            self.work, self.deadline,
                            pass_cpus(self.workload.jobs), self.probe,
                            self.env)
        finally:
            if self.workload.store == "fresh":
                shutil.rmtree(store, ignore_errors=True)


# -- metrics ------------------------------------------------------------------


def summarize(values: List[float]) -> dict:
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(passes: List[Pass], setups: List[Pass]) -> Dict[str, dict]:
    """Every end-to-end metric over the timed passes; ``setup_s`` also
    over the set-up-only passes."""
    samples = {name: [getattr(p, name) for p in passes]
               for name, _unit, _better in END_TO_END}
    samples["setup_s"] += [p.setup_s for p in setups]
    return {name: {"unit": unit, **summarize(samples[name])}
            for name, unit, _better in END_TO_END}


def failed_cells(result: dict, expected: Optional[Dict[str, str]]) -> int:
    """Cells of one pass that failed: reported by the pass itself, or
    whose modeled-output digest differs from ``expected``.  A fuzz
    campaign has one digest, so a mismatch fails all of its cells."""
    bad = set(result["failed"])
    for key, value in (expected or {}).items():
        if result["digests"].get(key) != value:
            if key == "campaign":
                return result["cells"]
            bad.add(key)
    return len(bad)


def layer_metrics(traced: Pass, spans: List[dict],
                  counters: Dict[str, float], untraced_wall: float
                  ) -> Tuple[Dict[str, float], Dict[str, dict]]:
    """Per-layer metrics of one traced pass, plus the printed table.

    Times are scaled by the pass's contention slowdown, like ``wall_s``.
    """
    scale = 1.0 / traced.slowdown
    table = layers.layer_table(spans)
    for row in table.values():
        row["self_s"] *= scale
    metrics: Dict[str, float] = {f"{layer}_s": row["self_s"]
                                 for layer, row in table.items()}
    for name in ("minic.calls", "compiler.modules", "compiler.wasm_bytes",
                 "speed.bundles_bound", "harness.cache_put_bytes",
                 "harness.transport_bytes"):
        metrics[name] = counters.get(name, 0)
    lookups = counters.get("speed.module_lookups", 0)
    metrics["speed.module_hit_ratio"] = (
        counters.get("speed.module_hits", 0) / lookups if lookups else 0.0)
    result = traced.result
    metrics["harness.cache_hit_ratio"] = (
        result["cache_hits"] / result["cache_lookups"]
        if result["cache_lookups"] else 0.0)
    bound = counters.get("speed.bundles_bound", 0)
    metrics["harness.closure_hit_ratio"] = (
        1.0 - counters.get("speed.bundles_generated", 0) / bound
        if bound else 0.0)
    pool_s = sum(s["end"] - s["start"] for s in spans
                 if s["name"] == "harness.run_cells" and
                 s["pid"] == traced.pid)
    workers = {s["pid"] for s in spans if s["pid"] != traced.pid}
    busy = sum(layers.root_cover(spans, pid) for pid in workers)
    metrics["harness.pool_busy_frac"] = (
        busy / (len(workers) * pool_s) if workers and pool_s else 0.0)
    covered = layers.root_cover(spans, traced.pid) * scale
    metrics["unattributed_s"] = traced.wall_s - covered
    metrics["trace_overhead_frac"] = traced.wall_s / untraced_wall - 1.0
    own = layers.self_times(spans)
    main_self = scale * sum(own[s["id"]] for s in spans
                            if s["pid"] == traced.pid)
    metrics["attribution_error_frac"] = (
        (main_self + metrics["unattributed_s"]) / traced.wall_s - 1.0)
    return metrics, table


# -- one workload -------------------------------------------------------------


def run_passes(session: Session, seconds: float,
               trace_dir: Optional[str] = None
               ) -> Tuple[Optional[Pass], List[Pass], List[Pass]]:
    """The traced pass (when ``trace_dir`` is set), :data:`SETUP_PASSES`
    set-up-only passes, then timed passes for ``seconds``: a pass starts
    only if a pass of average length still ends in time, and the first
    always runs."""
    traced = session.run(trace_dir=trace_dir) if trace_dir else None
    setups = [session.run(setup_only=True) for _ in range(SETUP_PASSES)]
    passes: List[Pass] = []
    start = time.monotonic()
    while not passes or (time.monotonic() - start + statistics.mean(
            p.raw_wall_s for p in passes) <= seconds):
        passes.append(session.run())
    return traced, setups, passes


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            reference: dict, deadline: float,
            trace_out: Optional[str] = None) -> dict:
    """Run one workload for ``seconds`` and check its outputs."""
    inputs = draw_inputs(workload, seed)
    expected = None
    ref = reference.get(workload.name)
    if ref is not None and ref["seed"] == seed:
        if ref["inputs"] != inputs:
            raise BenchError(f"reference.json for {workload.name} was made "
                             f"for other inputs; run --update-reference")
        expected = ref["digests"]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    trace_dir = os.path.join(work, "trace") if trace else None
    try:
        with ContentionProbe(pass_cpus(workload.jobs)) as probe:
            session = Session(workload, inputs, work, deadline, probe)
            traced, setups, passes = run_passes(session, seconds, trace_dir)
        first = passes[0].result["digests"]
        checked = [traced] + passes if traced else passes
        report = {
            "workload": workload.name, "seed": seed, "inputs": inputs,
            "metrics": end_to_end(passes, setups),
            "passes": [{"raw_wall_s": p.raw_wall_s, "slowdown": p.slowdown,
                        **{name: getattr(p, name)
                           for name, _unit, _better in END_TO_END}}
                       for p in passes],
            "attempted": sum(p.result["cells"] for p in checked),
            "failed": sum(failed_cells(p.result, expected or first)
                          for p in checked),
            "checked_against": "reference" if expected else "engines",
            "digests": first}
        if traced is not None:
            spans, counters = layers.load(trace_dir)
            metrics, table = layer_metrics(
                traced, spans, counters,
                report["metrics"]["wall_s"]["median"])
            report.update(layer_metrics=metrics, layer_table=table,
                          traced_wall_s=traced.wall_s,
                          traced_slowdown=traced.slowdown)
            if trace_out:
                with open(trace_out, "a") as fh:
                    for span in spans:
                        fh.write(json.dumps(span, sort_keys=True) + "\n")
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- output -------------------------------------------------------------------


def print_report(report: dict) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, inputs "
          f"{json.dumps(report['inputs'])})")
    print(f"  {'metric':<14}{'unit':<9}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'n':>4}")
    for name, row in report["metrics"].items():
        print(f"  {name:<14}{row['unit']:<9}{row['median']:>12.4f}"
              f"{row['q1']:>12.4f}{row['q3']:>12.4f}{row['n']:>4}")
    print(f"  failed {report['failed']} of {report['attempted']} cells "
          f"(checked against {report['checked_against']})")
    if "layer_table" in report:
        wall = report["traced_wall_s"]
        print(f"  traced pass {wall:.3f} s; per-layer self time "
              f"(all processes):")
        print(f"  {'layer':<24}{'self_s':>10}{'calls':>8}{'share':>8}")
        for layer, row in report["layer_table"].items():
            print(f"  {layer:<24}{row['self_s']:>10.4f}{row['calls']:>8}"
                  f"{row['self_s'] / wall:>8.1%}")
        for name, value in report["layer_metrics"].items():
            if name[:-len("_s")] not in report["layer_table"]:
                print(f"  {name:<24}{value:>10.6g}")


def result_line(reports: List[dict], trace: bool) -> dict:
    """The contract's last line; metric names get a ``<workload>.``
    prefix only when several workloads ran."""
    metrics = {}
    for report in reports:
        prefix = f"{report['workload']}." if len(reports) > 1 else ""
        if trace:
            values = report["layer_metrics"]
            for name, unit, _better in PER_LAYER:
                metrics[prefix + name] = {"value": values[name],
                                          "unit": unit}
        else:
            for name, row in report["metrics"].items():
                metrics[prefix + name] = {"value": row["median"],
                                          "unit": row["unit"]}
    failed = sum(r["failed"] for r in reports)
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in reports),
            "failed": failed, "metrics": metrics}


# -- reference ----------------------------------------------------------------


def update_reference(names: List[str]) -> None:
    """Record each workload's digests at the default seed, computed by
    the reference interpreter (REPRO_SPEED=0), never the tier under test."""
    reference = load_json(REFERENCE_PATH) \
        if os.path.exists(REFERENCE_PATH) else {}
    for name in names:
        workload = WORKLOADS[name]
        inputs = draw_inputs(workload, DEFAULT_SEED)
        os.makedirs(WORK_ROOT, exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"ref-{name}-", dir=WORK_ROOT)
        try:
            session = Session(workload, inputs, work,
                              time.monotonic() + 3600.0,
                              env={"REPRO_SPEED": "0"})
            result = session.run().result
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if result["failed"]:
            raise BenchError(f"{name}: reference pass failed cells "
                             f"{result['failed']}")
        reference[name] = {"seed": DEFAULT_SEED, "inputs": inputs,
                           "digests": result["digests"]}
        print(f"reference: {name}: {len(result['digests'])} digest(s)")
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- main ---------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="hostbench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", dest="workloads",
                        nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS), metavar="NAME",
                        help=f"workloads to run (default: all of "
                             f"{', '.join(WORKLOADS)})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="drives the fuzz base seeds and the program "
                             "draws (default 1)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="time spent on timed passes per workload; at "
                             "least one pass always runs (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one extra traced pass per workload, and "
                             "the last line reports per-layer metrics")
    parser.add_argument("--trace-out", metavar="OUT.jsonl",
                        help="with --trace 1, append every span here")
    parser.add_argument("--json", metavar="OUT",
                        help="write the full report as JSON")
    parser.add_argument("--update-reference", action="store_true",
                        help="regenerate hostbench/reference.json at "
                             "REPRO_SPEED=0 and exit")
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that the running
    # pass's process group is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(1))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("hostbench: no src/repro in this checkout", file=sys.stderr)
        return 1
    workloads = list(dict.fromkeys(args.workloads))
    try:
        if args.update_reference:
            update_reference(workloads)
            return 0
        reference = load_json(REFERENCE_PATH)
        deadline = time.monotonic() + DEADLINE_S * len(workloads)
        reports = []
        for name in workloads:
            report = measure(WORKLOADS[name], args.seed, args.seconds,
                             bool(args.trace), reference, deadline,
                             args.trace_out)
            print_report(report)
            reports.append(report)
    except BenchError as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 1
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(reports, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result_line(reports, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
