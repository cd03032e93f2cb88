"""Process-pool scheduler: fan (benchmark, engine, -O, AOT) cells out
across workers and merge the results deterministically.

Each cell is an independent pure computation, so the only coordination
needed is transport: workers return serialized :class:`RunResult`s (plus
their cache-stats deltas), and the parent inserts them into its result
cache in sorted cell order.  Workers share the parent's on-disk artifact
store when one is configured, so a parallel run also warms the cache for
every later serial run — and because every modeled counter is a pure
function of the cache key, parallel output is byte-identical to serial.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional, Sequence, Tuple

from ..errors import HarnessError, ReproError
from ..registry import WASMER_BACKEND_ENGINES as _WASMER_BACKENDS
from ..runtimes import RunResult
from .cache import CacheStats

#: One schedulable unit: (benchmark, engine, opt level, aot).
Cell = Tuple[str, str, int, bool]

# Experiments whose runs are fully covered by the default-opt
# (benchmark x engine) grid that fig1 establishes.
_DEFAULT_GRID = ("fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                 "fig13", "fig14", "table5")
_OPT_LEVELS = (0, 1, 2, 3)


def plan_cells(harness, experiment_ids: Sequence[str]) -> List[Cell]:
    """Every cell the given experiments will ask the harness for.

    The plan mirrors the drivers in :mod:`repro.harness.experiments`; an
    experiment not listed here (e.g. the static ``metrics`` report) simply
    contributes no cells and runs serially from whatever is cached.
    """
    from .runner import ENGINES, JIT_RUNTIMES

    cells: List[Cell] = []
    seen = set()

    def add(name: str, engine: str, opt: int, aot: bool = False) -> None:
        cell = (name, engine, opt, aot)
        if cell not in seen:
            seen.add(cell)
            cells.append(cell)

    opt = harness.default_opt
    for experiment_id in experiment_ids:
        for name in harness.benchmark_names:
            if experiment_id in _DEFAULT_GRID:
                for engine in ENGINES:
                    add(name, engine, opt)
            elif experiment_id in ("fig2", "fig11"):
                for engine in _WASMER_BACKENDS:
                    add(name, engine, opt)
            elif experiment_id in ("fig3", "fig12", "table4"):
                for rt in JIT_RUNTIMES:
                    add(name, rt, opt)
                    add(name, rt, opt, aot=True)
            elif experiment_id == "fig4":
                for engine in ENGINES:
                    for level in _OPT_LEVELS:
                        add(name, engine, level)
    return cells


# -- worker side ------------------------------------------------------------

_WORKER_HARNESS = None


def _worker_init(size: str, opt_level: int, cache_dir: Optional[str],
                 speed_tier: Optional[int] = None) -> None:
    global _WORKER_HARNESS
    from .runner import Harness
    if speed_tier is not None:
        # A --speed-tier override set in the parent never reaches the
        # pool through the environment; hand it over explicitly.
        from .. import speed
        speed.set_tier(speed_tier)
    _WORKER_HARNESS = Harness(size=size, opt_level=opt_level,
                              cache_dir=cache_dir)


def _worker_run(cell: Cell):
    """Run one cell; returns (cell, result-JSON | None, error | None,
    cache-stats delta)."""
    name, engine, opt, aot = cell
    harness = _WORKER_HARNESS
    before = CacheStats.from_dict(harness.cache_stats.to_dict())
    payload = error = None
    try:
        payload = harness.run(name, engine, opt=opt, aot=aot).to_json()
    except ReproError as exc:
        error = _cell_error(cell, exc)
    after = harness.cache_stats
    delta = CacheStats(
        hits={k: v - before.hits.get(k, 0)
              for k, v in after.hits.items()},
        misses={k: v - before.misses.get(k, 0)
                for k, v in after.misses.items()},
        recompute_seconds=(after.recompute_seconds -
                           before.recompute_seconds))
    return cell, payload, error, delta.to_dict()


def _cell_error(cell: Cell, exc: ReproError) -> str:
    """The one-line report of a failed cell."""
    return f"{cell[0]} on {cell[1]}: {type(exc).__name__}: {exc}"


def _worker_run_batch(batch: Sequence[Cell]):
    """Run a chunk of cells in one dispatch (amortizes pool transport;
    consecutive cells reuse the worker's warm module/closure caches)."""
    return [_worker_run(cell) for cell in batch]


# -- parent side ------------------------------------------------------------


def start_pool(jobs: int, workers: int, initializer, initargs: tuple,
               stats: Optional[CacheStats] = None):
    """A process pool of ``workers`` workers, or None when the platform
    cannot start one (e.g. sandboxed semaphores) and the caller must run
    serially.

    Results are byte-identical either way, but a silent fallback makes
    ``--jobs`` look slow for no visible reason, so a fallback prints one
    warning line and sets ``stats.parallel_fallback``.
    """
    try:
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor(max_workers=workers,
                                   initializer=initializer,
                                   initargs=initargs)
    except (ImportError, OSError) as exc:
        print(f"wabench: warning: --jobs {jobs} unavailable "
              f"({type(exc).__name__}: {exc}); running serially",
              file=sys.stderr)
        if stats is not None:
            stats.parallel_fallback = True
        return None


def run_cells(harness, cells: Sequence[Cell], jobs: int = 1) -> None:
    """Populate ``harness._result_cache`` for every cell.

    With ``jobs > 1`` the cells fan out over a process pool; results are
    merged in sorted cell order so the parent's state never depends on
    worker completion order.  Falls back to serial execution when the
    platform cannot start a pool (:func:`start_pool`).  A cell
    that fails with any :class:`ReproError` never stops the others: once
    every cell has run, one :class:`HarnessError` reports each failure
    on its own line.
    """
    pending = [c for c in cells
               if (c[0], c[1], c[2], c[3], harness.size)
               not in harness._result_cache]
    if not pending:
        return
    if jobs <= 1 or len(pending) == 1:
        _run_serial(harness, pending)
        return

    from .. import speed

    cache_dir = harness.disk_cache.root if harness.disk_cache else None
    workers = min(jobs, len(pending), os.cpu_count() or 1)
    executor = start_pool(jobs, workers, _worker_init,
                          (harness.size, harness.default_opt, cache_dir,
                           speed.tier()),
                          stats=harness.cache_stats)
    if executor is None:
        _run_serial(harness, pending)
        return

    # Batch several cells per dispatch: plan order is benchmark-major,
    # so a chunk's cells mostly share one module and hit the worker's
    # warm decoded-module/closure caches; the transport round-trips drop
    # by the chunk factor.  Merge order below is sorted, so chunking
    # cannot affect results.
    chunk = max(1, -(-len(pending) // (workers * 4)))
    batches = [pending[i:i + chunk] for i in range(0, len(pending), chunk)]
    outcomes = []
    with executor:
        for batch_outcomes in executor.map(_worker_run_batch, batches):
            outcomes.extend(batch_outcomes)

    errors = []
    merged: List[Tuple[Cell, RunResult]] = []
    for cell, payload, error, stats in sorted(outcomes,
                                              key=lambda o: repr(o[0])):
        harness.cache_stats.merge(CacheStats.from_dict(stats))
        if error is not None:
            errors.append(error)
            continue
        merged.append((cell, RunResult.from_json(payload)))
    for (name, engine, opt, aot), result in merged:
        harness._result_cache[(name, engine, opt, aot, harness.size)] = result
    if errors:
        raise HarnessError("\n".join(errors))


def _run_serial(harness, cells: Sequence[Cell]) -> None:
    errors = []
    for cell in cells:
        name, engine, opt, aot = cell
        try:
            harness.run(name, engine, opt=opt, aot=aot)
        except ReproError as exc:
            errors.append(_cell_error(cell, exc))
    if errors:
        raise HarnessError("\n".join(errors))
