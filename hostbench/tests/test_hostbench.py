"""Tests of the hostbench benchmark: ``python -m pytest hostbench/tests``."""

import dataclasses
import json
import os
import re
import shutil
import sys
import tempfile
import time

import pytest

HOSTBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HOSTBENCH)

import layers  # noqa: E402
import run  # noqa: E402


def span(sid, parent, start, end, pid=1, name="x"):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "pid": pid, "name": name, "pass": "t"}


# -- self-time arithmetic -----------------------------------------------------


def test_self_time_nested_and_siblings():
    spans = [span("1:1", None, 0.0, 10.0, name="a"),
             span("1:2", "1:1", 1.0, 4.0, name="b"),
             span("1:3", "1:1", 5.0, 6.0, name="b"),
             span("1:4", "1:2", 2.0, 3.5, name="c")]
    own = layers.self_times(spans)
    assert own == pytest.approx({"1:1": 6.0, "1:2": 1.5, "1:3": 1.0,
                                 "1:4": 1.5})
    assert sum(own.values()) == pytest.approx(layers.root_cover(spans, 1))
    table = layers.layer_table(spans)
    assert table["b"] == {"self_s": pytest.approx(2.5), "calls": 2}


def test_self_time_cross_pid_children_do_not_reduce_parent():
    spans = [span("1:1", None, 0.0, 10.0, name="pool"),
             span("2:1", "1:1", 1.0, 9.0, pid=2, name="work"),
             span("3:1", "1:1", 1.0, 8.0, pid=3, name="work"),
             span("2:2", "2:1", 2.0, 3.0, pid=2, name="inner")]
    own = layers.self_times(spans)
    assert own["1:1"] == pytest.approx(10.0)
    assert own["2:1"] == pytest.approx(7.0)
    assert layers.root_cover(spans, 2) == pytest.approx(8.0)
    assert layers.root_cover(spans, 1) == pytest.approx(10.0)


def test_union_length_merges_overlaps():
    assert layers.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4)
    assert layers.union_length([]) == 0.0


# -- names -------------------------------------------------------------------


def test_benchmark_json_matches_run_py():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in run.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.PER_LAYER)
    names = workloads + [m["name"] for m in spec["end_to_end"]] + \
        [m["name"] for m in spec["per_layer"]]
    assert all(name.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_draws_follow_the_seed():
    for workload in run.WORKLOADS.values():
        assert run.draw_inputs(workload, 5) == run.draw_inputs(workload, 5)
        draws = {json.dumps(run.draw_inputs(workload, seed))
                 for seed in range(10)}
        assert len(draws) > 1, workload.name


# -- smoke passes ------------------------------------------------------------

#: Budget-1 (or one/two-program) versions of each workload, and the
#: layers each must reach.
COMMON = {"minic.parse", "minic.sema", "compiler.midend", "compiler.backend",
          "compiler.compile", "native.cc", "native.run", "isa.exec"}
WASM = {"wasm.decode", "wasm.validate", "speed.predecode", "speed.codegen",
        "speed.bind", "runtimes.jit_compile", "runtimes.interp_exec",
        "runtimes.run_self"}
FUZZ = {"fuzz.generate", "fuzz.recheck", "fuzz.check_self",
        "harness.cache_get"}
SMOKES = {
    "fuzz_cold": ({"base_seed": 3}, {"budget": 1},
                  COMMON | WASM | FUZZ | {"fuzz.static",
                                          "runtimes.aot_compile",
                                          "harness.cache_put"}),
    "fuzz_warm": ({"base_seed": 3}, {"budget": 1}, COMMON | FUZZ),
    "suite_exec": ({"programs": ["trisolv"]}, {},
                   COMMON | WASM | {"harness.run_cells"}),
    "grid_jobs2": ({"programs": ["mvt", "trisolv"]}, {"size": "test"},
                   COMMON | WASM | {"runtimes.aot_compile",
                                    "harness.cache_get", "harness.cache_put",
                                    "harness.run_cells", "harness.merge"}),
}


@pytest.fixture
def work():
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.WORK_ROOT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(SMOKES))
def test_every_wrapped_call_site_fires(name, work):
    inputs, overrides, expected = SMOKES[name]
    workload = dataclasses.replace(run.WORKLOADS[name], **overrides)
    session = run.Session(workload, inputs, work, time.monotonic() + 170)
    trace_dir = os.path.join(work, "trace")
    traced = session.run(trace_dir=trace_dir)
    assert traced.result["failed"] == []
    spans, counters = layers.load(trace_dir)
    metrics, table = run.layer_metrics(traced, spans, counters,
                                       traced.wall_s)
    silent = sorted(layer for layer in expected
                    if table[layer]["calls"] == 0)
    assert not silent, f"{name}: no calls reached {silent}"
    # The result line carries only metrics every workload moves.  The
    # overhead is 0 here because the traced pass is its own baseline.
    zero = sorted(n for n, _unit, _better in run.PER_LAYER
                  if n != "trace_overhead_frac" and not metrics[n])
    assert not zero, f"{name}: zero result-line metrics {zero}"
    assert abs(metrics["attribution_error_frac"]) < 0.05
    if name == "grid_jobs2":
        assert metrics["harness.pool_busy_frac"] > 0
        assert metrics["harness.transport_bytes"] > 0
    if "speed.bind" in expected:
        assert metrics["speed.bundles_bound"] > 0


def test_corrupted_reference_digest_counts_failures():
    workload = dataclasses.replace(run.WORKLOADS["fuzz_cold"], budget=1,
                                   base_seeds=(3,))
    reference = {"fuzz_cold": {"seed": 1, "inputs": {"base_seed": 3},
                               "digests": {"campaign": "0" * 64}}}
    report = run.measure(workload, 1, 0, False, reference,
                         time.monotonic() + 170)
    assert report["checked_against"] == "reference"
    assert report["failed"] == report["attempted"] > 0
    line = run.result_line([report], trace=False)
    assert line["correct"] is False
    grid = {"cells": 3, "failed": [], "digests": {"a": "1", "b": "2",
                                                  "c": "3"}}
    assert run.failed_cells(grid, {"a": "1", "b": "2", "c": "3"}) == 0
    assert run.failed_cells(grid, {"a": "1", "b": "x", "c": "3"}) == 1
