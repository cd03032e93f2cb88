"""``wabench`` command line: run benchmarks and regenerate paper artifacts.

Examples::

    wabench list
    wabench run gemm --runtime wasm3 --size small -O2
    wabench run gemm --trace gemm.jsonl
    wabench trace gemm --size test
    wabench fig1 --size small
    wabench all --size small --out results/ --jobs 4

Artifacts (compiled Wasm, native binaries, AOT images, run results) are
cached in a persistent content-addressed store (``--cache-dir``, default
``$WABENCH_CACHE_DIR`` or ``~/.cache/wabench``); a warm rerun performs
zero compiles.  ``--no-cache`` disables the store, ``--jobs N`` fans the
measurement cells out over N worker processes.

``wabench run --trace out.jsonl`` exports the runs' model-time span
trees as a JSONL trace (schema in TRACING.md); ``wabench trace <bench>``
prints the per-phase/per-engine breakdown as a table.  Trace files are
byte-identical across cold, warm-cache, and ``--jobs N`` invocations.

``wabench fuzz`` runs the differential-fuzzing subsystem: seeded
generated programs executed on every engine at multiple -O levels, with
divergences optionally minimized to corpus reproducers.  ``--perf``
additionally gates every cell's cross-engine slowdown ratio against the
committed ``PERF_baseline.json`` (the WarpDiff-style oracle)::

    wabench fuzz --seed 42 --budget 50 --jobs 4
    wabench fuzz --seed 42 --budget 50 --minimize --corpus-dir corpus
    wabench fuzz --seed 42 --budget 50 --perf

``wabench serve`` sweeps the modeled edge/serverless serving grid
(:mod:`repro.serve`): service workloads x engines x execution models
(spawn-per-request, warm reuse, instance pool) x concurrency levels,
reporting cold-start latency, p50/p90/p99, sustained RPS, scaling
efficiency, and modeled memory.  The JSON report is deterministic; the
``--seed 0`` default grid is committed as ``SERVE_golden.json``::

    wabench serve --seed 0
    wabench serve --modes pool --pool-size 2 --json serve.json

``wabench audit`` statically audits every suite module (interprocedural
call graph, static cost model cross-checked against one instrumented
run, lint diagnostics WA001..WA008) and exits 1 on any static stack-bound
violation; its expected findings are committed as
``AUDIT_baseline.json``::

    wabench audit --jobs 4

``wabench golden`` gates the committed references (``SERVE_golden.json``,
``IO_golden.json``, ``PERF_baseline.json``, ``AUDIT_baseline.json``,
``TRACE_golden.jsonl``; see :mod:`repro.harness.golden`): each producer
runs cold, warm-cache and with two jobs, the three texts must be
byte-identical, and ``check`` compares them with the file while
``update`` rewrites it::

    wabench golden check
    wabench golden update io
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .. import speed
from ..bench import ALL_BENCHMARKS, io_names, names, service_names
from ..errors import HarnessError
from ..hw import MachineConfig
from ..obs import Stopwatch, Tracer, write_trace
from ..registry import SERVE_MODES, WASMER_BACKEND_ENGINES, is_engine_name
from .cache import default_cache_dir
from .experiments import EXPERIMENTS
from .report import phase_table, render_cache_stats, wasi_table
from .runner import ENGINES, Harness


def _cmd_list(args) -> int:
    print(f"{'name':16s} {'suite':11s} {'domain':22s} description")
    for bench in ALL_BENCHMARKS:
        print(f"{bench.name:16s} {bench.suite:11s} {bench.domain:22s} "
              f"{bench.description}")
    return 0


def _make_harness(args, benchmarks: Optional[List[str]] = None,
                  tracer: Optional[Tracer] = None) -> Harness:
    cache_dir = None if args.no_cache else \
        (args.cache_dir or default_cache_dir())
    return Harness(size=args.size, opt_level=args.opt,
                   benchmarks=benchmarks, verbose=args.verbose,
                   cache_dir=cache_dir, tracer=tracer)


def _resolve_out(args, filename: str) -> str:
    """Resolve an output file against the shared ``--out`` plumbing: a
    bare or relative filename lands inside ``--out`` when it is given
    (created on demand); absolute paths are honored as-is."""
    out_dir = getattr(args, "out", None)
    if out_dir and not os.path.isabs(filename):
        os.makedirs(out_dir, exist_ok=True)
        return os.path.join(out_dir, filename)
    parent = os.path.dirname(filename)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return filename


def _export_trace(args, tracer: Tracer) -> None:
    path = _resolve_out(args, args.trace)
    count = write_trace(path, tracer.runs,
                        config={"size": args.size, "opt": args.opt})
    print(f"wrote {path} ({count} trace lines, "
          f"{len(tracer.runs)} run(s))")


def _reject_benchmarks_flag(args, command: str) -> int:
    print(f"wabench: {command!r} takes a single positional benchmark; "
          "--benchmarks only applies to experiment commands "
          "(fig1..fig14, table4, table5, metrics, all)",
          file=sys.stderr)
    return 2


def _validate_args(args) -> None:
    """Reject mutually-inconsistent or out-of-range flags with a
    one-line :class:`HarnessError` (exit 1), never a traceback."""
    if getattr(args, "jobs", 1) < 1:
        raise HarnessError(f"--jobs must be >= 1 (got {args.jobs})")
    if getattr(args, "opt", 2) not in (0, 1, 2, 3):
        raise HarnessError(f"-O must be 0..3 (got {args.opt})")
    runtime = getattr(args, "runtime", None)
    if runtime is not None:
        if not is_engine_name(runtime):
            raise HarnessError(
                f"unknown runtime {runtime!r}; choose from "
                f"{', '.join(ENGINES + WASMER_BACKEND_ENGINES)}")
        if runtime == "native" and getattr(args, "aot", False):
            raise HarnessError(
                "AOT does not apply to native execution "
                "(drop --aot or pick a Wasm runtime)")
    speed_tier = getattr(args, "speed_tier", None)
    if speed_tier is not None and speed_tier not in speed.TIERS:
        raise HarnessError(
            f"--speed-tier must be one of "
            f"{', '.join(str(t) for t in speed.TIERS)} "
            f"(got {speed_tier})")


def _cmd_run(args) -> int:
    if args.benchmarks:
        return _reject_benchmarks_flag(args, "run")
    tracer = Tracer() if args.trace else None
    harness = _make_harness(args, benchmarks=[args.benchmark],
                            tracer=tracer)
    engines = [args.runtime] if args.runtime else list(ENGINES)
    if args.jobs > 1:
        cells = [(args.benchmark, engine, args.opt, args.aot)
                 for engine in engines
                 if not (engine == "native" and args.aot)]
        harness.prewarm(cells, jobs=args.jobs)
    lines = []
    for engine in engines:
        watch = Stopwatch()
        result = harness.run(args.benchmark, engine, aot=args.aot)
        wall = watch.seconds
        lines.append(f"--- {engine} ({wall:.2f}s wall)")
        lines.append(result.stdout_text().rstrip("\n"))
        lines.append(
            f"    modeled: {result.seconds * 1e3:.3f} ms, "
            f"{result.counters['instructions']:,} instructions, "
            f"IPC {result.counters['ipc']:.2f}, "
            f"MRSS {result.mrss_bytes / 1e6:.2f} MB, "
            f"bpm {result.counters['branch_miss_ratio']:.2%}, "
            f"cache-miss {result.counters['cache_miss_ratio']:.2%}")
    text = "\n".join(lines)
    print(text)
    print(render_cache_stats(harness.cache_stats))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"run-{args.benchmark}.txt")
        with open(path, "w") as f:
            f.write(text + "\n")
        print(f"wrote {path}")
    if tracer is not None:
        _export_trace(args, tracer)
    return 0


def _cmd_trace(args) -> int:
    """Per-phase, per-engine modeled-time breakdown of one benchmark."""
    if args.benchmarks:
        return _reject_benchmarks_flag(args, "trace")
    tracer = Tracer()
    harness = _make_harness(args, benchmarks=[args.benchmark],
                            tracer=tracer)
    engines = [args.runtime] if args.runtime else list(ENGINES)
    cells = [(args.benchmark, engine, args.opt, args.aot)
             for engine in engines
             if not (engine == "native" and args.aot)]
    if args.jobs > 1:
        harness.prewarm(cells, jobs=args.jobs)
    for name, engine, opt, aot in cells:
        harness.run(name, engine, opt=opt, aot=aot)
    table = phase_table(args.benchmark, tracer.runs,
                        MachineConfig().cycles_to_seconds)
    text = table.render()
    if args.wasi:
        text += "\n\n" + wasi_table(args.benchmark, tracer.runs).render()
    print(text)
    print(render_cache_stats(harness.cache_stats))
    if args.out:
        path = _resolve_out(args, f"trace-{args.benchmark}.txt")
        with open(path, "w") as f:
            f.write(text + "\n")
        print(f"wrote {path}")
    if args.trace:
        _export_trace(args, tracer)
    return 0


def _split_csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _validate_serve_args(args) -> dict:
    """Parse + validate the serve grid flags into run_serve kwargs."""
    if args.benchmarks:
        raise HarnessError("serve selects workloads with --workloads, "
                           "not --benchmarks")
    workloads = _split_csv(args.workloads)
    known = set(names()) | set(service_names()) | set(io_names())
    for workload in workloads:
        if workload not in known:
            raise HarnessError(
                f"unknown workload {workload!r}; services: "
                f"{', '.join(service_names())}; io: "
                f"{', '.join(io_names())}")
    engines = _split_csv(args.engines)
    for engine in engines:
        if not is_engine_name(engine):
            raise HarnessError(
                f"unknown engine {engine!r}; choose from "
                f"{', '.join(ENGINES + WASMER_BACKEND_ENGINES)}")
    modes = _split_csv(args.modes)
    for mode in modes:
        if mode not in SERVE_MODES:
            raise HarnessError(f"unknown serve mode {mode!r}; choose "
                               f"from {', '.join(SERVE_MODES)}")
    try:
        concurrency = [int(c) for c in _split_csv(args.concurrency)]
    except ValueError:
        raise HarnessError(
            f"--concurrency must be comma-separated integers "
            f"(got {args.concurrency!r})")
    if not workloads or not engines or not modes or not concurrency:
        raise HarnessError("serve needs at least one workload, engine, "
                           "mode, and concurrency level")
    if any(c < 1 for c in concurrency):
        raise HarnessError("--concurrency levels must be >= 1")
    if args.requests < 1:
        raise HarnessError(f"--requests must be >= 1 "
                           f"(got {args.requests})")
    if not 0.0 < args.utilization <= 1.0:
        raise HarnessError(f"--utilization must be in (0, 1] "
                           f"(got {args.utilization})")
    if args.pool_size is not None and args.pool_size < 1:
        raise HarnessError(f"--pool-size must be >= 1 "
                           f"(got {args.pool_size})")
    if args.pool_size is not None and "pool" not in modes:
        raise HarnessError("--pool-size only applies to the pool mode; "
                           "add pool to --modes or drop the flag")
    if args.idle_timeout_ms is not None and args.idle_timeout_ms < 0:
        raise HarnessError("--idle-timeout-ms must be >= 0")
    return dict(workloads=workloads, engines=engines, modes=modes,
                concurrency_levels=concurrency, seed=args.seed,
                requests=args.requests, utilization=args.utilization,
                pool_size=args.pool_size,
                idle_timeout_ms=args.idle_timeout_ms)


def serve_report(args, tracer: Optional[Tracer] = None):
    """The ``wabench serve`` report for parsed args, and its harness."""
    from ..serve import run_serve

    grid = _validate_serve_args(args)
    harness = _make_harness(args, benchmarks=grid["workloads"],
                            tracer=tracer)
    return run_serve(harness, jobs=args.jobs, **grid), harness


def _cmd_serve(args) -> int:
    """Modeled serving grid: ``wabench serve`` (see repro.serve)."""
    from ..serve import render_report, report_json

    tracer = Tracer() if args.trace else None
    watch = Stopwatch()
    report, harness = serve_report(args, tracer=tracer)
    text = render_report(report)
    print(text, end="")
    print(render_cache_stats(harness.cache_stats,
                             wall_seconds=watch.seconds))
    if args.json:
        path = _resolve_out(args, args.json)
        with open(path, "w") as f:
            f.write(report_json(report))
        print(f"wrote {path}")
    if args.out and not args.json:
        path = _resolve_out(args, "serve.txt")
        with open(path, "w") as f:
            f.write(text)
        print(f"wrote {path}")
    if tracer is not None:
        _export_trace(args, tracer)
    return 0


def _cmd_fuzz(args) -> int:
    from ..fuzz import Corpus, run_campaign
    from ..fuzz.engines import DEFAULT_ENGINES
    from ..fuzz.perf import DEFAULT_BASELINE_PATH, PerfBaseline
    from .cache import default_cache_dir

    engines = tuple(e.strip() for e in args.engines.split(",")) \
        if args.engines else DEFAULT_ENGINES
    opt_levels = tuple(int(o) for o in args.opt_levels.split(","))
    cache_dir = None if args.no_cache else \
        (args.cache_dir or default_cache_dir())
    corpus = Corpus(args.corpus_dir or "corpus") \
        if (args.minimize or args.corpus_dir) else None
    perf_baseline = None
    if args.perf or args.perf_baseline:
        perf_baseline = PerfBaseline.from_file(
            args.perf_baseline or DEFAULT_BASELINE_PATH)

    progress = None
    if args.verbose:
        def progress(verdict):
            status = "ok" if verdict.ok else "DIVERGES"
            print(f"  [fuzz] program {verdict.index} "
                  f"seed={verdict.seed} {status}", flush=True)

    tracer = Tracer() if args.verbose else None
    watch = Stopwatch()
    report = run_campaign(
        base_seed=args.seed, budget=args.budget,
        size_budget=args.size_budget, engines=engines,
        opt_levels=opt_levels, minimize=args.minimize,
        corpus=corpus, cache_dir=cache_dir, jobs=args.jobs,
        progress=progress, tracer=tracer, perf_baseline=perf_baseline)
    text = report.render(verbose=args.verbose)
    print(text)
    if tracer is not None and tracer.metrics.snapshot():
        print(tracer.metrics.render())
    print(render_cache_stats(report.cache_stats,
                             wall_seconds=watch.seconds))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"fuzz-seed{args.seed}.txt")
        with open(path, "w") as f:
            f.write(text + "\n")
        print(f"wrote {path}")
    return 0 if report.ok else 1


def _cmd_audit(args) -> int:
    """Static audit of the suite; exit 1 on a static stack-bound
    violation, which no committed baseline may excuse.

    The report body is byte-identical across runs and ``--jobs`` values
    (no wall-clock output); ``wabench golden check audit`` compares its
    expected findings with ``AUDIT_baseline.json``.
    """
    from ..analysis.audit import run_suite_audit

    bench_subset: Optional[List[str]] = None
    if args.benchmarks:
        bench_subset = [b.strip() for b in args.benchmarks.split(",")]
    cache_dir = None if args.no_cache else \
        (args.cache_dir or default_cache_dir())
    progress = None
    if args.verbose:
        def progress(record):
            print(f"  [audit] {record['name']}: "
                  f"{len(record['diagnostics'])} diagnostic(s), "
                  f"{len(record['deviations'])} mix deviation(s)",
                  flush=True)
    suite = run_suite_audit(args.size, args.opt, benchmarks=bench_subset,
                            cache_dir=cache_dir, jobs=args.jobs,
                            progress=progress)
    print(suite.render())
    if args.json:
        path = _resolve_out(args, args.json)
        with open(path, "w") as f:
            f.write(suite.to_json() + "\n")
        print(f"wrote {path}")
    bad = [r["name"] for r in suite.records if not r["stack_bound_ok"]]
    if bad:
        print("audit: static stack bound violated in: " + ", ".join(bad),
              file=sys.stderr)
        return 1
    return 0


def _cmd_golden(args) -> int:
    from .golden import GOLDENS, run

    return run(args.action, args.names or list(GOLDENS))


def _run_experiments(ids: List[str], args) -> int:
    bench_subset: Optional[List[str]] = None
    if args.benchmarks:
        bench_subset = [b.strip() for b in args.benchmarks.split(",")]
    harness = _make_harness(args, benchmarks=bench_subset)
    total_watch = Stopwatch()
    if args.jobs > 1:
        from .parallel import plan_cells
        cells = plan_cells(harness, ids)
        if cells:
            print(f"[jobs] prewarming {len(cells)} cells "
                  f"across {args.jobs} workers")
            harness.prewarm(cells, jobs=args.jobs)
    outputs = []
    for experiment_id in ids:
        fn = EXPERIMENTS[experiment_id]
        watch = Stopwatch()
        table = fn(harness)
        text = table.render()
        outputs.append((experiment_id, text))
        print(text)
        print(f"  [{experiment_id} regenerated in {watch.seconds:.1f}s "
              f"wall]\n")
    print(render_cache_stats(harness.cache_stats,
                             wall_seconds=total_watch.seconds))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for experiment_id, text in outputs:
            path = os.path.join(args.out, f"{experiment_id}.txt")
            with open(path, "w") as f:
                f.write(text + "\n")
        print(f"wrote {len(outputs)} artifact(s) to {args.out}/")
    return 0


class _GoldenNames:
    """``choices`` for ``wabench golden``: the registry's names, imported
    only when the golden command is parsed.  argparse before 3.12 checks
    an empty ``nargs="*"`` positional against its choices as the one
    value ``[]``; accept it."""

    def __iter__(self):
        from .golden import GOLDENS
        return iter(GOLDENS)

    def __contains__(self, value) -> bool:
        return value == [] or value in tuple(self)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wabench",
        description="WABench-repro: regenerate the paper's experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the 50 benchmarks")

    run_p = sub.add_parser("run", help="run one benchmark")
    run_p.add_argument("benchmark",
                       choices=names() + service_names() + io_names())
    run_p.add_argument("--runtime", default=None,
                       help="native|wasmtime|wavm|wasmer|wasm3|wamr|"
                            "wasmer-<backend> (default: all)")
    run_p.add_argument("--aot", action="store_true")
    run_p.add_argument("--trace", default=None, metavar="PATH",
                       help="write a JSONL model-time trace of the runs "
                            "(schema wabench-trace/2, see TRACING.md)")

    trace_p = sub.add_parser(
        "trace", help="per-phase modeled-time breakdown of one benchmark")
    trace_p.add_argument("benchmark",
                         choices=names() + service_names() + io_names())
    trace_p.add_argument("--runtime", default=None,
                         help="native|wasmtime|wavm|wasmer|wasm3|wamr|"
                              "wasmer-<backend> (default: all)")
    trace_p.add_argument("--aot", action="store_true")
    trace_p.add_argument("--wasi", action="store_true",
                         help="append the per-syscall WASI breakdown "
                              "(calls, modeled instructions, bytes, "
                              "share of total)")
    trace_p.add_argument("--trace", default=None, metavar="PATH",
                         help="also write the JSONL trace file")

    serve_p = sub.add_parser(
        "serve", help="modeled edge/serverless serving grid: cold/warm/"
                      "pooled instances, latency percentiles, RPS")
    serve_p.add_argument("--seed", type=int, default=0,
                         help="arrival-process base seed (default: 0)")
    serve_p.add_argument("--workloads",
                         default="hello_svc,compute_svc,state_svc",
                         help="comma-separated service workloads "
                              "(default: hello_svc,compute_svc,"
                              "state_svc)")
    serve_p.add_argument("--engines", default="wasmtime,wasm3",
                         help="comma-separated engines "
                              "(default: wasmtime,wasm3)")
    serve_p.add_argument("--modes", default="spawn,warm,pool",
                         help="execution models to sweep "
                              "(default: spawn,warm,pool)")
    serve_p.add_argument("--concurrency", default="1,4,16",
                         help="comma-separated concurrency levels "
                              "(default: 1,4,16)")
    serve_p.add_argument("--requests", type=int, default=200,
                         metavar="N",
                         help="requests simulated per cell "
                              "(default: 200)")
    serve_p.add_argument("--utilization", type=float, default=0.8,
                         metavar="U",
                         help="offered load as a fraction of cell "
                              "capacity, in (0, 1] (default: 0.8)")
    serve_p.add_argument("--pool-size", type=int, default=None,
                         metavar="N",
                         help="pool-mode instances (default: "
                              "concurrency // 2, min 1)")
    serve_p.add_argument("--idle-timeout-ms", type=float, default=10.0,
                         metavar="MS",
                         help="pool-mode idle expiry before an instance "
                              "must cold-start again (default: 10.0)")
    serve_p.add_argument("--json", default=None, metavar="PATH",
                         help="write the canonical wabench-serve/2 "
                              "report (the CI-diffed artifact)")
    serve_p.add_argument("--trace", default=None, metavar="PATH",
                         help="write a JSONL model-time trace with one "
                              "span per simulated request")

    audit_p = sub.add_parser(
        "audit", help="static audit of the suite (call graph, cost "
                      "model, lints); fails on a stack-bound violation")
    audit_p.add_argument("--json", default=None, metavar="PATH",
                         help="also write the full per-benchmark audit "
                              "report as JSON")

    for experiment_id in EXPERIMENTS:
        sub.add_parser(experiment_id,
                       help=f"regenerate {experiment_id}")
    sub.add_parser("all", help="regenerate every figure and table")

    for name, p in sub.choices.items():
        if name == "list":
            continue
        p.add_argument("--size", default="small",
                       choices=("test", "small", "ref"))
        p.add_argument("-O", "--opt", type=int, default=2)
        p.add_argument("--benchmarks", default=None,
                       help="comma-separated subset of benchmark names")
        p.add_argument("--out", default=None,
                       help="directory to write artifact text files")
        p.add_argument("--verbose", action="store_true")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="fan measurement cells out over N worker "
                            "processes (default: 1, serial)")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="artifact cache directory (default: "
                            "$WABENCH_CACHE_DIR or ~/.cache/wabench)")
        p.add_argument("--no-cache", action="store_true",
                       help="do not read or write the on-disk "
                            "artifact cache")
        p.add_argument("--speed-tier", type=int, default=None,
                       metavar="T",
                       help="override the repro.speed tier: 0 reference, "
                            "2 closures (default: $REPRO_SPEED or 2)")
    # The committed audit and serve goldens are produced at the test
    # size, so these two commands default to it (every other command
    # defaults to small).
    audit_p.set_defaults(size="test")
    serve_p.set_defaults(size="test")

    fuzz_p = sub.add_parser(
        "fuzz", help="differential fuzzing across engines and -O levels")
    fuzz_p.add_argument("--seed", type=int, default=42,
                        help="campaign base seed (default: 42)")
    fuzz_p.add_argument("--budget", type=int, default=50, metavar="N",
                        help="number of generated programs (default: 50)")
    fuzz_p.add_argument("--size-budget", type=int, default=24,
                        metavar="S",
                        help="statements per generated program "
                             "(default: 24)")
    fuzz_p.add_argument("--engines", default=None,
                        help="comma-separated engine list (default: "
                             "native,wamr,wasm3,wasmtime,wavm,wasmer,"
                             "wasmtime-aot)")
    fuzz_p.add_argument("--opt-levels", default="0,2",
                        help="comma-separated -O levels (default: 0,2)")
    fuzz_p.add_argument("--minimize", action="store_true",
                        help="delta-debug each divergence to a minimal "
                             "reproducer saved in the corpus")
    fuzz_p.add_argument("--perf", action="store_true",
                        help="enable the performance-differential oracle "
                             "against the committed PERF_baseline.json")
    fuzz_p.add_argument("--perf-baseline", default=None, metavar="PATH",
                        help="perf baseline file (implies --perf; "
                             "default: PERF_baseline.json)")
    fuzz_p.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="corpus directory (default: corpus/; only "
                             "written with --minimize or when given)")
    fuzz_p.add_argument("--verbose", action="store_true")
    fuzz_p.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan programs out over N worker processes")
    fuzz_p.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="artifact cache directory (default: "
                             "$WABENCH_CACHE_DIR or ~/.cache/wabench)")
    fuzz_p.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk "
                             "artifact cache")
    fuzz_p.add_argument("--out", default=None,
                        help="directory to write the campaign report")
    fuzz_p.add_argument("--speed-tier", type=int, default=None,
                        metavar="T",
                        help="override the repro.speed tier: 0 reference, "
                             "2 closures (default: $REPRO_SPEED or 2)")

    golden_p = sub.add_parser(
        "golden", help="check or refresh the committed references; "
                       "cold, warm-cache and two-job runs must agree")
    golden_p.add_argument("action", choices=("check", "update"))
    golden_p.add_argument("names", nargs="*", choices=_GoldenNames(),
                          metavar="NAME",
                          help="golden to run, one of %(choices)s "
                               "(default: all)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        _validate_args(args)
        if getattr(args, "speed_tier", None) is not None:
            speed.set_tier(args.speed_tier)
            # Spawned worker processes re-read the environment; keep
            # them on the same tier as the parent.
            os.environ["REPRO_SPEED"] = str(args.speed_tier)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "golden":
            return _cmd_golden(args)
        if args.command == "all":
            return _run_experiments(list(EXPERIMENTS), args)
        return _run_experiments([args.command], args)
    except HarnessError as exc:
        print(f"wabench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
