"""Fuzz campaigns: generate N programs, oracle-check each, minimize hits.

A campaign is a pure function of ``(base_seed, budget, size_budget,
engines, opt_levels)``: program ``i`` uses
:func:`~repro.fuzz.generator.derive_seed`\\ ``(base_seed, i)``, so the
same invocation always generates, checks, and reports the same cells in
the same order — whether it runs serially or fanned out over a process
pool (results are merged in program order, like ``wabench --jobs``).

Divergences are minimized with the delta-debugging reducer when
requested and persisted to the corpus for regression replay.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..harness.cache import ArtifactCache, CacheStats
from ..harness.parallel import start_pool
from ..obs import NULL_TRACER
from .corpus import Corpus
from .engines import (DEFAULT_ENGINES, DEFAULT_OPT_LEVELS, CellRunner,
                      is_builtin_engine, validate_engines)
from .generator import (DEFAULT_SIZE_BUDGET, GeneratedProgram,
                        derive_seed, generate_program)
from .oracle import Divergence, check_program
from .perf import PerfBaseline
from .reduce import count_statements, reduce_divergence

DEFAULT_BUDGET = 50


@dataclass
class ProgramVerdict:
    """One generated program's pass/fail summary."""

    index: int
    seed: int
    statements: int
    cells: int
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class ReducedReproducer:
    """A minimized diverging program, as saved to the corpus."""

    entry_id: str
    seed: int
    signature: tuple
    statements: int
    source: str


@dataclass
class CampaignReport:
    """Everything one campaign produced."""

    base_seed: int
    budget: int
    engines: Sequence[str]
    opt_levels: Sequence[int]
    verdicts: List[ProgramVerdict] = field(default_factory=list)
    reproducers: List[ReducedReproducer] = field(default_factory=list)
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: Metric the perf-differential oracle gated on (None = perf off).
    perf_metric: Optional[str] = None

    @property
    def programs_run(self) -> int:
        return len(self.verdicts)

    @property
    def cells_run(self) -> int:
        return sum(v.cells for v in self.verdicts)

    @property
    def divergences(self) -> List[Divergence]:
        out: List[Divergence] = []
        for verdict in self.verdicts:
            out.extend(verdict.divergences)
        return out

    @property
    def ok(self) -> bool:
        return not self.divergences

    def render(self, verbose: bool = False) -> str:
        perf = f" perf={self.perf_metric}" if self.perf_metric else ""
        lines = [f"fuzz campaign: seed={self.base_seed} "
                 f"budget={self.budget} "
                 f"engines={','.join(self.engines)} "
                 f"opts={','.join(f'-O{o}' for o in self.opt_levels)}"
                 f"{perf}"]
        for verdict in self.verdicts:
            if verbose or not verdict.ok:
                status = "ok" if verdict.ok else \
                    f"DIVERGES x{len(verdict.divergences)}"
                lines.append(f"  [{verdict.index:3d}] "
                             f"seed={verdict.seed} "
                             f"stmts={verdict.statements} "
                             f"cells={verdict.cells} {status}")
            for divergence in verdict.divergences:
                lines.append(f"        {divergence.describe()}")
        for repro in self.reproducers:
            kind = repro.signature[0]
            if len(repro.signature) > 3:      # perf: append direction
                kind = f"{kind}:{repro.signature[3]}"
            lines.append(f"  minimized {repro.signature[1]} "
                         f"-O{repro.signature[2]} [{kind}] "
                         f"to {repro.statements} statement(s) -> "
                         f"corpus id {repro.entry_id}")
        lines.append(f"{self.programs_run} program(s), "
                     f"{self.cells_run} cells, "
                     f"{len(self.divergences)} divergence(s)")
        return "\n".join(lines)


def _check_one(index: int, base_seed: int, size_budget: int,
               engines: Sequence[str], opt_levels: Sequence[int],
               runner: CellRunner,
               perf_baseline: Optional[PerfBaseline] = None
               ) -> ProgramVerdict:
    seed = derive_seed(base_seed, index)
    program: GeneratedProgram = generate_program(seed, size_budget)
    report = check_program(program.source, engines=engines,
                           opt_levels=opt_levels, runner=runner,
                           seed=seed, perf_baseline=perf_baseline)
    return ProgramVerdict(index=index, seed=seed,
                          statements=program.statement_count,
                          cells=report.cells_run,
                          divergences=report.divergences)


# -- worker side (one process of the --jobs pool) ---------------------------

_WORKER_STATE = None
_WORKER_PERF = None


def _worker_init(cache_dir: Optional[str],
                 perf_data: Optional[dict] = None) -> None:
    global _WORKER_STATE, _WORKER_PERF
    cache = ArtifactCache(cache_dir) if cache_dir else None
    _WORKER_STATE = CellRunner(cache=cache)
    _WORKER_PERF = PerfBaseline.from_dict(perf_data) if perf_data else None


def _worker_check(task):
    index, base_seed, size_budget, engines, opt_levels = task
    before = CacheStats.from_dict(_WORKER_STATE.stats.to_dict())
    verdict = _check_one(index, base_seed, size_budget, engines,
                         opt_levels, _WORKER_STATE,
                         perf_baseline=_WORKER_PERF)
    after = _WORKER_STATE.stats
    delta = CacheStats(
        hits={k: v - before.hits.get(k, 0)
              for k, v in after.hits.items()},
        misses={k: v - before.misses.get(k, 0)
                for k, v in after.misses.items()},
        recompute_seconds=(after.recompute_seconds -
                           before.recompute_seconds))
    return index, verdict, delta.to_dict()


def run_campaign(base_seed: int,
                 budget: int = DEFAULT_BUDGET,
                 size_budget: int = DEFAULT_SIZE_BUDGET,
                 engines: Sequence[str] = DEFAULT_ENGINES,
                 opt_levels: Sequence[int] = DEFAULT_OPT_LEVELS,
                 minimize: bool = False,
                 corpus: Optional[Corpus] = None,
                 cache_dir: Optional[str] = None,
                 jobs: int = 1,
                 progress=None,
                 tracer=None,
                 perf_baseline: Optional[PerfBaseline] = None
                 ) -> CampaignReport:
    """Run one differential-fuzzing campaign.

    ``jobs > 1`` fans whole programs out across worker processes;
    engines registered in this process only (fault injection) force a
    serial run because workers cannot see them.  Reduction always runs
    serially in the parent, against an uncached runner so candidate
    programs never pollute the artifact store.

    ``perf_baseline`` switches on the performance-differential oracle
    (:mod:`repro.fuzz.perf`): every cell's slowdown ratio over the
    reference engine is gated against the baseline's expected ratios,
    and outliers become ``kind="perf"`` divergences minimized and filed
    exactly like behavioral ones.  The baseline is serialized into each
    worker, so parallel campaigns flag byte-identically to serial ones.

    ``tracer`` (a :class:`repro.obs.Tracer`) receives campaign-level
    metrics — programs/cells checked, divergences, reproducers — and a
    wall-clock session span per campaign stage.  It never influences the
    report, so traced and untraced campaigns render identically.
    """
    obs = tracer if tracer is not None else NULL_TRACER
    validate_engines(engines)
    opt_levels = sorted(set(opt_levels))
    cache = ArtifactCache(cache_dir) if cache_dir else None
    runner = CellRunner(cache=cache)
    report = CampaignReport(base_seed=base_seed, budget=budget,
                            engines=tuple(engines),
                            opt_levels=tuple(opt_levels),
                            cache_stats=runner.stats,
                            perf_metric=(perf_baseline.metric
                                         if perf_baseline else None))

    all_builtin = all(is_builtin_engine(e) for e in engines)
    use_pool = jobs > 1 and budget > 1 and all_builtin
    verdicts: List[Optional[ProgramVerdict]] = [None] * budget

    if use_pool:
        executor = start_pool(
            jobs, min(jobs, budget, os.cpu_count() or 1), _worker_init,
            (cache_dir, perf_baseline.to_dict() if perf_baseline else None),
            stats=report.cache_stats)
        use_pool = executor is not None
    with obs.span("check", budget=budget, jobs=jobs if use_pool else 1):
        if use_pool:
            tasks = [(i, base_seed, size_budget, tuple(engines),
                      tuple(opt_levels)) for i in range(budget)]
            with executor:
                for index, verdict, stats in executor.map(_worker_check,
                                                          tasks):
                    verdicts[index] = verdict
                    report.cache_stats.merge(CacheStats.from_dict(stats))
                    if progress is not None:
                        progress(verdict)
        else:
            for index in range(budget):
                verdicts[index] = _check_one(index, base_seed, size_budget,
                                             engines, opt_levels, runner,
                                             perf_baseline=perf_baseline)
                if progress is not None:
                    progress(verdicts[index])

    report.verdicts = [v for v in verdicts if v is not None]
    obs.metrics.inc("fuzz.programs", report.programs_run)
    obs.metrics.inc("fuzz.cells", report.cells_run)
    obs.metrics.inc("fuzz.divergences", len(report.divergences))

    if minimize and not report.ok:
        reduction_runner = CellRunner(cache=None)
        corpus = corpus if corpus is not None else Corpus()
        seen_signatures = set()
        with obs.span("minimize", divergences=len(report.divergences)):
            for divergence in report.divergences:
                if divergence.signature() in seen_signatures:
                    continue
                seen_signatures.add(divergence.signature())
                result = reduce_divergence(divergence, engines, opt_levels,
                                           runner=reduction_runner,
                                           perf_baseline=perf_baseline)
                if result is None:
                    continue
                signature = {"kind": divergence.signature()[0],
                             "engine": divergence.signature()[1],
                             "opt": divergence.signature()[2]}
                if divergence.direction:
                    signature["direction"] = divergence.direction
                meta = {
                    "seed": divergence.seed,
                    "base_seed": base_seed,
                    "signature": signature,
                    "detail": divergence.detail,
                    "engines": list(engines),
                    "opt_levels": list(opt_levels),
                    "statements": result.statement_count,
                }
                if divergence.kind == "perf" and perf_baseline is not None:
                    # Embed the baseline slice this entry was judged
                    # against: replay stays self-contained across
                    # future PERF_baseline.json refreshes.
                    meta["perf"] = perf_baseline.subset(
                        engines, opt_levels).to_dict()
                entry_id = corpus.save_reproducer(result.source, meta)
                report.reproducers.append(ReducedReproducer(
                    entry_id=entry_id, seed=divergence.seed or 0,
                    signature=divergence.signature(),
                    statements=result.statement_count,
                    source=result.source))
        obs.metrics.inc("fuzz.reproducers", len(report.reproducers))

    if corpus is not None:
        corpus.record_campaign(base_seed, budget, engines, opt_levels,
                               len(report.divergences))
    return report
