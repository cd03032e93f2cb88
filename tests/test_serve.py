"""The repro.serve layer: modeled serving tier + harness bugfix sweep.

Covers the ``wabench serve`` determinism contract end to end:

* report byte-identity across repeated runs, cold vs warm artifact
  caches, and ``--jobs 1`` vs ``--jobs 4`` — the property the ``serve``
  golden relies on (its check against ``SERVE_golden.json`` lives in
  ``tests/test_golden.py``);
* simulator semantics per execution model: spawn pays a cold start per
  request, warm pays one per worker, pool exhaustion queues and idle
  expiry forces pool-miss cold starts;
* queueing invariants (latency = wait + setup + execute, FIFO service
  per slot, conservation of requests);
* the CLI argument-validation sweep (one-line errors, never a
  traceback) and the parallel-fallback warning/flag of every process
  pool;
* the narrowed pickle-cache error handling (corruption evicts,
  version-skew misses without evicting).
"""

import pickle

import pytest

from repro.harness.cache import ArtifactCache, CacheStats, cache_key
from repro.harness.cli import main as wabench
from repro.harness.report import percentile_nearest_rank, \
    render_cache_stats
from repro.harness.runner import Harness
from repro.hw import MachineConfig
from repro.obs import Tracer, validate_trace
from repro.serve import (CostProfile, PhaseCost, arrival_times, cell_spans,
                         profiles_from_harness, report_json, run_serve,
                         simulate_cell)

#: A hand-built profile with easily-checked arithmetic: cold start is
#: 10x the warm reset, execution is in between.
PROFILE = CostProfile(
    workload="svc", engine="toy",
    cold=PhaseCost(cycles=1000, instructions=800),
    reset=PhaseCost(cycles=100, instructions=80),
    execute=PhaseCost(cycles=400, instructions=350),
    mrss_bytes=1 << 20)


def serve_grid(tmp_path, tag, extra=()):
    """Run the default serve grid through the CLI; return report bytes."""
    out = tmp_path / f"serve-{tag}.json"
    rc = wabench(["serve", "--seed", "0", "--json", str(out)]
                 + list(extra))
    assert rc == 0
    return out.read_bytes()


class TestDeterminism:
    def test_repeat_and_warm_cache_byte_identical(self, tmp_path):
        first = serve_grid(tmp_path, "cold")     # cold artifact cache
        second = serve_grid(tmp_path, "warm")    # fully warm rerun
        third = serve_grid(tmp_path, "nocache", ["--no-cache"])
        assert first == second == third

    def test_jobs_byte_identical(self, tmp_path, monkeypatch):
        serial = serve_grid(tmp_path, "serial")
        # Fresh cache directory so the parallel run really computes.
        monkeypatch.setenv("WABENCH_CACHE_DIR", str(tmp_path / "jobs4"))
        parallel = serve_grid(tmp_path, "jobs", ["--jobs", "4"])
        assert serial == parallel

    def test_run_serve_is_pure(self):
        def one():
            harness = Harness(size="test",
                              benchmarks=["hello_svc"])
            return report_json(run_serve(
                harness, workloads=["hello_svc"], engines=["wasm3"],
                modes=["spawn", "warm", "pool"],
                concurrency_levels=[1, 4], seed=7, requests=50))
        assert one() == one()

    def test_arrivals_seeded_and_monotonic(self):
        times = arrival_times(3, 1000, 200)
        assert times == arrival_times(3, 1000, 200)
        assert times != arrival_times(4, 1000, 200)
        assert all(b > a for a, b in zip(times, times[1:]))
        mean = times[-1] / len(times)
        assert 0.7 * 1000 < mean < 1.3 * 1000


class TestSimulator:
    def test_spawn_pays_cold_start_per_request(self):
        sim = simulate_cell(PROFILE, "spawn", 4, seed=1, requests=64)
        assert sim.cold_starts == 64
        assert sim.warm_hits == 0
        assert all(r.finish - r.start == 1400 for r in sim.requests)

    def test_warm_pays_one_cold_start_per_worker(self):
        sim = simulate_cell(PROFILE, "warm", 4, seed=1, requests=64)
        assert sim.cold_starts == sim.instances_used <= 4
        assert sim.warm_hits == 64 - sim.cold_starts
        warm = [r for r in sim.requests if not r.cold]
        assert all(r.finish - r.start == 500 for r in warm)

    def test_pool_exhaustion_queues(self):
        sim = simulate_cell(PROFILE, "pool", 8, seed=1, requests=64,
                            pool_size=1, utilization=1.0)
        assert sim.slots == 1
        assert sim.queued > 0
        assert sim.queue_peak >= 1
        assert sim.max_wait > 0
        assert sim.instances_used == 1

    def test_pool_idle_expiry_forces_cold_start(self):
        eager = simulate_cell(PROFILE, "pool", 2, seed=1, requests=64,
                              idle_timeout_cycles=0)
        lazy = simulate_cell(PROFILE, "pool", 2, seed=1, requests=64,
                             idle_timeout_cycles=None)
        assert lazy.expirations == 0
        assert eager.expirations > 0
        assert eager.cold_starts == lazy.cold_starts + eager.expirations
        # Expired acquisitions pay the full cold start again.
        expired = [r for r in eager.requests if r.expired]
        assert expired and all(r.cold for r in expired)

    def test_queueing_invariants(self):
        sim = simulate_cell(PROFILE, "warm", 2, seed=5, requests=128,
                            utilization=1.0)
        assert len(sim.requests) == 128
        for r in sim.requests:
            setup = 1000 if r.cold else 100
            assert r.start >= r.arrival
            assert r.latency == r.wait + setup + 400
        # FIFO per slot: service intervals on one slot never overlap.
        by_slot = {}
        for r in sim.requests:
            by_slot.setdefault(r.instance, []).append(r)
        for served in by_slot.values():
            for a, b in zip(served, served[1:]):
                assert b.start >= a.finish
        assert sim.cold_starts + sim.warm_hits == 128
        assert 1 <= sim.busy_peak <= sim.slots

    def test_cell_spans_validate_and_cover_requests(self):
        from repro.obs import TracedRun
        from repro.obs.export import trace_lines
        from repro.runtimes import RunResult

        sim = simulate_cell(PROFILE, "pool", 4, seed=2, requests=16)
        spans = cell_spans(PROFILE, sim)
        result = RunResult(runtime="toy", stdout=b"", exit_code=0,
                           trap=None, seconds=0.0, cycles=sim.makespan,
                           mrss_bytes=0, counters={}, trace=spans)
        validate_trace(trace_lines(
            [TracedRun(meta={"bench": "svc"}, result=result)]))
        requests = [s for s in spans if s["span"] == "request"]
        assert len(requests) == 16
        colds = [s for s in spans if s["span"] == "cold_start"]
        resets = [s for s in spans if s["span"] == "reset"]
        assert len(colds) == sim.cold_starts
        assert len(resets) == sim.warm_hits

    def test_bad_knobs_rejected(self):
        from repro.errors import HarnessError
        with pytest.raises(HarnessError):
            simulate_cell(PROFILE, "drain", 1, seed=0, requests=8)
        with pytest.raises(HarnessError):
            simulate_cell(PROFILE, "warm", 0, seed=0, requests=8)
        with pytest.raises(HarnessError):
            simulate_cell(PROFILE, "warm", 1, seed=0, requests=8,
                          utilization=0.0)
        with pytest.raises(HarnessError):
            simulate_cell(PROFILE, "pool", 4, seed=0, requests=8,
                          pool_size=0)


class TestPercentiles:
    def test_nearest_rank_returns_observed_samples(self):
        values = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert percentile_nearest_rank(values, 50) == 50
        assert percentile_nearest_rank(values, 90) == 90
        assert percentile_nearest_rank(values, 99) == 100
        assert percentile_nearest_rank(values, 100) == 100
        assert percentile_nearest_rank([7], 50) == 7

    def test_nearest_rank_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile_nearest_rank([], 50)
        with pytest.raises(ValueError):
            percentile_nearest_rank([1], 0)
        with pytest.raises(ValueError):
            percentile_nearest_rank([1], 101)


class TestProfiles:
    def test_profile_costs_reconcile_with_span_tree(self):
        harness = Harness(size="test", benchmarks=["hello_svc"])
        profiles = profiles_from_harness(harness, ["hello_svc"],
                                         ["wasmtime", "wasm3"])
        for (_w, engine), prof in profiles.items():
            result = harness.run("hello_svc", engine)
            phases = result.phase_cycles()
            assert prof.execute.cycles == phases["execute"]
            assert prof.cold.cycles == sum(
                phases.get(p, 0) for p in
                ("spawn", "decode", "validate", "load", "instantiate"))
            assert prof.cold_latency_cycles > prof.warm_latency_cycles
            assert prof.mrss_bytes == result.mrss_bytes


class TestCLIValidation:
    BAD = [
        (["serve", "--modes", "drain"], "unknown serve mode"),
        (["serve", "--engines", "v8"], "unknown engine"),
        (["serve", "--workloads", "nope_svc"], "unknown workload"),
        (["serve", "--concurrency", "two"], "--concurrency"),
        (["serve", "--concurrency", "0"], "must be >= 1"),
        (["serve", "--utilization", "0"], "--utilization"),
        (["serve", "--requests", "0"], "--requests"),
        (["serve", "--pool-size", "0"], "--pool-size"),
        (["serve", "--pool-size", "2", "--modes", "warm"],
         "only applies to the pool mode"),
        (["serve", "--benchmarks", "gemm"], "--workloads"),
        (["serve", "--jobs", "0"], "--jobs"),
        (["serve", "-O", "7"], "-O must be"),
        (["run", "gemm", "--runtime", "v8"], "unknown runtime"),
        (["run", "gemm", "--runtime", "native", "--aot"],
         "does not apply"),
        (["trace", "gemm", "--runtime", "nodejs"], "unknown runtime"),
    ]

    @pytest.mark.parametrize("argv,needle", BAD,
                             ids=[" ".join(b[0]) for b in BAD])
    def test_inconsistent_flags_one_line_error(self, argv, needle,
                                               capsys):
        rc = wabench(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert needle in captured.err
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_serve_runs_services_through_run_subcommand(self, capsys):
        rc = wabench(["run", "hello_svc", "--runtime", "wasm3",
                      "--size", "test"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "wasm3" in captured.out


class TestParallelFallback:
    def _failing_pool(self, monkeypatch):
        import concurrent.futures

        def boom(*args, **kwargs):
            raise OSError("no semaphores in this sandbox")
        monkeypatch.setattr(concurrent.futures,
                            "ProcessPoolExecutor", boom)

    def test_fallback_warns_and_flags(self, monkeypatch, capsys):
        self._failing_pool(monkeypatch)
        harness = Harness(size="test", benchmarks=["hello_svc"])
        cells = [("hello_svc", "wasm3", 2, False),
                 ("hello_svc", "wamr", 2, False)]
        harness.prewarm(cells, jobs=4)
        captured = capsys.readouterr()
        assert harness.cache_stats.parallel_fallback is True
        assert "running serially" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "[parallel fallback: ran serial]" in \
            render_cache_stats(harness.cache_stats)

    def test_fallback_recorded_in_serve_report(self, monkeypatch,
                                               capsys):
        self._failing_pool(monkeypatch)
        harness = Harness(size="test", benchmarks=["hello_svc"])
        report = run_serve(harness, workloads=["hello_svc"],
                           engines=["wasm3", "wamr"], modes=["warm"],
                           concurrency_levels=[1], seed=0, requests=10,
                           jobs=4)
        assert report["meta"]["parallel_fallback"] is True

    def test_audit_falls_back_to_serial(self, monkeypatch, capsys):
        from repro.analysis.audit import run_suite_audit

        names = ["gemm", "crc32"]
        serial = run_suite_audit("test", 2, benchmarks=names)
        self._failing_pool(monkeypatch)
        fanned = run_suite_audit("test", 2, benchmarks=names, jobs=2)
        assert fanned.records == serial.records
        err = capsys.readouterr().err
        assert "running serially" in err
        assert len(err.strip().splitlines()) == 1

    def test_campaign_fallback_warns_and_flags(self, monkeypatch, capsys):
        from repro.fuzz.campaign import run_campaign

        self._failing_pool(monkeypatch)
        report = run_campaign(3, budget=2, jobs=2)
        assert report.cache_stats.parallel_fallback is True
        err = capsys.readouterr().err
        assert "running serially" in err
        assert len(err.strip().splitlines()) == 1

    def test_stats_merge_and_roundtrip_preserve_flag(self):
        stats = CacheStats(parallel_fallback=True)
        other = CacheStats()
        other.merge(stats)
        assert other.parallel_fallback is True
        assert CacheStats.from_dict(stats.to_dict()).parallel_fallback \
            is True
        assert CacheStats.from_dict({}).parallel_fallback is False


class TestPickleCacheNarrowing:
    def test_corruption_evicts(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = cache_key("test", what="corrupt")
        cache.put_bytes(key, b"not a pickle at all")
        assert cache.get_pickle(key) is None
        assert not cache.contains(key)      # rebuilt next time

    def test_version_skew_misses_without_evicting(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = cache_key("test", what="skew")
        # A structurally-valid pickle referencing a module this process
        # cannot import: ImportError, not corruption.
        cache.put_bytes(key, b"cwabench_no_such_module\nThing\n.")
        assert cache.get_pickle(key) is None
        assert cache.contains(key)          # left for other versions

    def test_truncated_pickle_evicts(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = cache_key("test", what="short")
        cache.put_bytes(key, pickle.dumps({"a": 1})[:-2])
        assert cache.get_pickle(key) is None
        assert not cache.contains(key)


class TestReportShape:
    def test_cells_cover_grid_with_required_metrics(self):
        harness = Harness(size="test",
                          benchmarks=["hello_svc", "state_svc"])
        report = run_serve(harness,
                           workloads=["hello_svc", "state_svc"],
                           engines=["wasmtime", "wasm3"],
                           modes=["spawn", "warm", "pool"],
                           concurrency_levels=[1, 4],
                           seed=0, requests=40)
        assert report["schema"] == "wabench-serve/2"
        assert len(report["cells"]) == 2 * 2 * 3 * 2
        for cell in report["cells"]:
            for field in ("cold_start_us", "p50_us", "p90_us", "p99_us",
                          "rps", "scaling_efficiency", "cold_starts",
                          "queued", "rss_per_instance_bytes",
                          "modeled_peak_rss_bytes"):
                assert field in cell
            assert cell["p50_us"] <= cell["p90_us"] <= cell["p99_us"]
        base = [c for c in report["cells"] if c["concurrency"] == 1]
        assert all(c["scaling_efficiency"] == 1.0 for c in base)

    def test_serve_trace_exports_request_spans(self, tmp_path):
        tracer = Tracer()
        harness = Harness(size="test", benchmarks=["hello_svc"],
                          tracer=tracer)
        run_serve(harness, workloads=["hello_svc"], engines=["wasm3"],
                  modes=["warm"], concurrency_levels=[2],
                  seed=0, requests=12)
        serve_runs = [t for t in tracer.runs
                      if "serve_mode" in t.meta]
        assert len(serve_runs) == 1
        spans = serve_runs[0].result.trace
        assert sum(1 for s in spans if s["span"] == "request") == 12

    def test_warm_beats_spawn_on_startup_bound_service(self):
        harness = Harness(size="test", benchmarks=["hello_svc"])
        machine = MachineConfig()
        report = run_serve(harness, workloads=["hello_svc"],
                           engines=["wasmtime"],
                           modes=["spawn", "warm"],
                           concurrency_levels=[4], seed=0,
                           requests=100, machine=machine)
        by_mode = {c["mode"]: c for c in report["cells"]}
        # hello_svc on a JIT engine is startup-dominated: warm reuse
        # must beat spawn-per-request on median latency (the paper's
        # cold-start argument, end to end).
        assert by_mode["warm"]["p50_us"] < by_mode["spawn"]["p50_us"]
        assert by_mode["warm"]["cold_starts"] < \
            by_mode["spawn"]["cold_starts"]
