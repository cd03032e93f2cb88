#!/usr/bin/env python
"""Wall-clock benchmark grid for the wabench pipeline itself.

This times the *reproduction's own* Python wall clock — compile +
execute for a fixed benchmark x engine grid — NOT the modeled cycle
counters (those are deterministic and guarded by the equivalence tests).
It exists so a change that accidentally slows the pipeline down gets
caught in review rather than six PRs later.

Usage::

    python scripts/bench_wall.py                      # full grid
    python scripts/bench_wall.py --quick              # CI-sized subset
    python scripts/bench_wall.py --quick --baseline BENCH_baseline.json

Each cell is run ``--warmup`` times untimed and ``--repeats`` times
timed; the cell's score is the *median* repeat.  Results are written to
``BENCH_wall.json`` (``--out`` to override).

Cross-machine comparison
------------------------

Absolute wall times are machine-dependent, so comparing a CI runner
against a baseline recorded elsewhere would gate on hardware, not code.
Every run therefore also times a fixed pure-Python calibration loop;
when comparing against a baseline, each baseline cell is scaled by
``calibration_now / calibration_baseline`` before the threshold test.
A cell regresses when::

    median_now > baseline_median * (cal_now / cal_base) * (1 + threshold)

with ``--threshold`` defaulting to 0.25 (25%).  Any regressing cell
fails the comparison (exit 1) and prints refresh instructions.

Refreshing the baseline
-----------------------

After an *intentional* performance change (or to pick up speedups)::

    python scripts/bench_wall.py --quick --out BENCH_baseline.json
    git add BENCH_baseline.json

Exit codes: 0 ok, 1 regression detected, 2 usage/configuration error.
"""

import argparse
import json
import statistics
import sys
import time

# The grid is fixed on purpose: a stable set of cells makes medians
# comparable across commits.  ``--quick`` is the subset CI runs on every
# push; the full grid is for local investigation.
FULL_GRID = [
    ("gemm", "wasmtime"), ("gemm", "wavm"), ("gemm", "wasmer"),
    ("gemm", "wasm3"), ("gemm", "wamr"),
    ("crc32", "wasmtime"), ("crc32", "wasm3"), ("crc32", "wamr"),
    ("quicksort", "wasmtime"), ("quicksort", "wasm3"), ("quicksort", "wamr"),
]
QUICK_GRID = [
    ("gemm", "wasm3"), ("gemm", "wasmtime"), ("gemm", "wamr"),
    ("crc32", "wasm3"),
]

SCHEMA = "wabench-wall/1"
CALIBRATION_ITERS = 2_000_000


def calibrate() -> float:
    """Time a fixed pure-Python loop; best of 3 to shed scheduler noise."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_ITERS):
            total += i & 0xFF
        elapsed = time.perf_counter() - start
        if total < 0:  # pragma: no cover - keeps the loop un-optimizable
            raise AssertionError
        best = min(best, elapsed)
    return best


def time_cell(bench: str, engine: str, size: str,
              warmup: int, repeats: int) -> dict:
    """Median wall time of compile+run for one grid cell.

    A fresh :class:`Harness` per measurement so every repeat pays the
    full pipeline (compile, instantiate, execute) — that is the surface
    the speed layer optimizes and the one a regression would slow down.
    No ``cache_dir``: disk-cache hits would time the cache, not the code.
    """
    from repro.harness import Harness

    samples = []
    for i in range(warmup + repeats):
        harness = Harness(size=size, benchmarks=[bench])
        start = time.perf_counter()
        result = harness.run(bench, engine)
        elapsed = time.perf_counter() - start
        if result.trap:
            raise SystemExit(
                f"bench_wall: {bench}/{engine} trapped: {result.trap}")
        if i >= warmup:
            samples.append(elapsed)
    return {
        "median": statistics.median(samples),
        "repeats": samples,
        "warmup": warmup,
    }


def run_grid(grid, size, warmup, repeats, verbose=True) -> dict:
    from repro import speed

    report = {
        "schema": SCHEMA,
        "size": size,
        "speed_tier": speed.tier(),
        "calibration_seconds": calibrate(),
        "cells": {},
    }
    for bench, engine in grid:
        cell = time_cell(bench, engine, size, warmup, repeats)
        report["cells"]["%s/%s" % (bench, engine)] = cell
        if verbose:
            print("bench_wall: %-20s median %.4fs  (n=%d)"
                  % ("%s/%s" % (bench, engine), cell["median"], repeats))
    return report


def compare(report: dict, baseline: dict, threshold: float) -> int:
    """Gate ``report`` against ``baseline``; returns the exit code."""
    if baseline.get("schema") != SCHEMA:
        print("bench_wall: baseline has schema %r, expected %r"
              % (baseline.get("schema"), SCHEMA), file=sys.stderr)
        return 2
    cal_base = baseline.get("calibration_seconds")
    if not cal_base or cal_base <= 0:
        print("bench_wall: baseline lacks a calibration sample",
              file=sys.stderr)
        return 2
    scale = report["calibration_seconds"] / cal_base
    print("bench_wall: machine calibration ratio %.3f "
          "(now %.4fs / baseline %.4fs)"
          % (scale, report["calibration_seconds"], cal_base))

    regressions = []
    for key, cell in sorted(report["cells"].items()):
        base_cell = baseline["cells"].get(key)
        if base_cell is None:
            print("bench_wall: %-20s NEW CELL (no baseline; skipped)" % key)
            continue
        allowed = base_cell["median"] * scale * (1.0 + threshold)
        delta = cell["median"] / (base_cell["median"] * scale) - 1.0
        verdict = "ok" if cell["median"] <= allowed else "REGRESSION"
        print("bench_wall: %-20s %+6.1f%% vs baseline (%.4fs, allowed "
              "%.4fs) %s" % (key, delta * 100.0, cell["median"], allowed,
                             verdict))
        if cell["median"] > allowed:
            regressions.append((key, delta))

    if regressions:
        print()
        print("bench_wall: FAIL — %d cell(s) regressed more than %d%%:"
              % (len(regressions), round(threshold * 100)))
        for key, delta in regressions:
            print("  %-20s +%.1f%%" % (key, delta * 100.0))
        print()
        print("If this slowdown is intentional (or the baseline is stale),")
        print("refresh the committed baseline and explain why in the PR:")
        print()
        print("    python scripts/bench_wall.py --quick "
              "--out BENCH_baseline.json")
        print("    git add BENCH_baseline.json")
        return 1
    print("bench_wall: all %d cell(s) within %d%% of baseline"
          % (len(report["cells"]), round(threshold * 100)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_wall.py",
        description="Wall-clock benchmark grid with regression gating.")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized subset of the grid")
    parser.add_argument("--size", default="test",
                        help="benchmark input size (default: test)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="untimed runs per cell (default: 1)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed runs per cell (default: 5)")
    parser.add_argument("--out", default="BENCH_wall.json",
                        help="output JSON path (default: BENCH_wall.json)")
    parser.add_argument("--baseline", metavar="JSON",
                        help="compare against this baseline; exit 1 on "
                             "any >threshold median regression")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional regression per cell "
                             "(default: 0.25)")
    parser.add_argument("--speed-tier", type=int, default=None, metavar="T",
                        help="pin the repro.speed tier (0=reference, "
                             "2=closures); default: REPRO_SPEED")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.warmup < 0:
        parser.error("--repeats must be >= 1 and --warmup >= 0")
    if args.speed_tier is not None:
        from repro import speed
        if args.speed_tier not in speed.TIERS:
            parser.error("--speed-tier must be one of %s"
                         % (speed.TIERS,))
        speed.set_tier(args.speed_tier)

    grid = QUICK_GRID if args.quick else FULL_GRID
    report = run_grid(grid, args.size, args.warmup, args.repeats)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("bench_wall: wrote %s (%d cells)" % (args.out,
                                               len(report["cells"])))

    if args.baseline:
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except FileNotFoundError:
            print("bench_wall: baseline %s: no such file" % args.baseline,
                  file=sys.stderr)
            return 2
        except ValueError as exc:
            print("bench_wall: baseline %s: invalid JSON: %s"
                  % (args.baseline, exc), file=sys.stderr)
            return 2
        return compare(report, baseline, args.threshold)
    return 0


if __name__ == "__main__":
    sys.exit(main())
