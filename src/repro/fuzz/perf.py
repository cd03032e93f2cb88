"""Performance-differential oracle: WarpDiff-style ratio outlier tests.

The behavioral oracles in :mod:`repro.fuzz.oracle` only establish that
every engine computes the *same answer*; nothing notices when a
modeling or optimization PR silently makes one engine's modeled cost
drift.  Jiang et al. ("Revealing Performance Issues in Server-side
WebAssembly Runtimes via Differential Testing", WarpDiff) show that the
*relative* cost between engines is a stable signal: for a population of
programs, the slowdown ratio of engine B over engine A clusters
tightly, and a program whose ratio is an outlier localizes a real
performance bug.  This module is that oracle over our modeled metrics:

* **metrics** — the per-cell integer vector extracted by
  :func:`repro.obs.cell_metrics` (instructions, cycles, LLC misses —
  see :data:`repro.registry.PERF_ORACLE_METRICS`); the baseline gates
  on one of them (cycles by default, the metric that integrates
  instruction count with branch/cache stall behavior).
* **benchmark classes** — expected ratios shift with workload size
  (spawn/compile costs amortize as programs grow), so the baseline is
  kept per size class of the reference cell
  (:func:`size_class`, bounds in :data:`repro.registry.PERF_CLASS_BOUNDS`).
* **baseline** — ``PERF_baseline.json``: for every
  ``class|engine|-O`` pair, the median log2 slowdown ratio over the
  committed corpus campaign, its MAD dispersion, and an explicit
  tolerance that covers the baseline sample itself (so re-running the
  exact baseline campaign is green by construction, while a
  fault-injected or modeling-drift skew on one engine is flagged).
* **divergences** — a cell whose log2 ratio deviates from the expected
  median by more than the pair's tolerance becomes a ``kind="perf"``
  divergence whose signature carries the *deviation direction*
  (``slow``/``fast``) in addition to the engine pair, so delta-
  debugging reduction must preserve the anomaly — the outlier engine
  and the direction of the skew — not merely "some perf flag".

Determinism: ratios are compared in log2 space rounded to
:data:`ROUND` decimals, and every stored statistic is rounded the same
way; combined with the 5% + 1e-6 tolerance margin this keeps verdicts
(and therefore reports) byte-identical across repeat, warm-cache, and
``--jobs`` runs, and immune to last-ulp libm differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import HarnessError
from ..registry import (PERF_CLASS_BOUNDS, PERF_CLASS_TOP,
                        PERF_ORACLE_METRICS)
from .engines import (DEFAULT_ENGINES, DEFAULT_OPT_LEVELS, CellRunner,
                      validate_engines)
from .generator import (DEFAULT_SIZE_BUDGET, GENERATOR_VERSION,
                        derive_seed, generate_program)

#: Baseline file schema stamp.
PERF_SCHEMA = "wabench-perf-baseline/1"

#: Where ``wabench fuzz --perf`` looks for the committed baseline.
DEFAULT_BASELINE_PATH = "PERF_baseline.json"

#: The metric the baseline gates on by default.
DEFAULT_METRIC = "cycles"

#: Tolerance = max(K * MAD, FLOOR, observed-max-deviation * 1.05 + 1e-6),
#: all in log2 units.  FLOOR = 0.35 is ~1.27x — relative-cost noise below
#: that is modeling jitter, not a perf bug worth a reproducer.
DEFAULT_TOLERANCE_K = 4.0
DEFAULT_TOLERANCE_FLOOR = 0.35

#: Decimal places every stored/compared log2 quantity is rounded to.
ROUND = 6


def size_class(ref_instructions: int) -> str:
    """The benchmark class of a program: the size bucket of its
    reference cell's dynamic instruction count."""
    for name, bound in PERF_CLASS_BOUNDS:
        if ref_instructions < bound:
            return name
    return PERF_CLASS_TOP


def log2_ratio(value: int, reference: int) -> float:
    """Rounded log2 slowdown of ``value`` over ``reference``."""
    return round(math.log2(value / reference), ROUND)


@dataclass
class PairStats:
    """Expected ratio statistics for one ``class|engine|-O`` pair."""

    median_log2: float          #: expected log2 slowdown ratio
    mad_log2: float             #: median absolute deviation (dispersion)
    tol_log2: float             #: flag when |deviation| exceeds this
    samples: int                #: baseline sample count behind the stats

    def to_dict(self) -> Dict:
        return {"median_log2": self.median_log2,
                "mad_log2": self.mad_log2,
                "tol_log2": self.tol_log2,
                "samples": self.samples}

    @classmethod
    def from_dict(cls, data: Dict) -> "PairStats":
        return cls(median_log2=float(data["median_log2"]),
                   mad_log2=float(data["mad_log2"]),
                   tol_log2=float(data["tol_log2"]),
                   samples=int(data["samples"]))


def _median(sorted_values: Sequence[float]) -> float:
    n = len(sorted_values)
    mid = n // 2
    if n % 2:
        return sorted_values[mid]
    return (sorted_values[mid - 1] + sorted_values[mid]) / 2.0


def pair_stats(samples: Sequence[float],
               k: float = DEFAULT_TOLERANCE_K,
               floor: float = DEFAULT_TOLERANCE_FLOOR) -> PairStats:
    """Median/MAD/tolerance over one pair's log2-ratio samples.

    The tolerance explicitly covers the sample's own maximum deviation
    (with a 5% + 1e-6 margin absorbing the rounding of the stored
    median), so replaying the campaign a baseline was built from never
    flags — only a ratio that moved beyond everything the baseline
    population exhibited does.
    """
    if not samples:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(samples)
    median = _median(ordered)
    deviations = sorted(abs(s - median) for s in ordered)
    mad = _median(deviations)
    max_dev = deviations[-1]
    tol = max(k * mad, floor, max_dev * 1.05 + 1e-6)
    return PairStats(median_log2=round(median, ROUND),
                     mad_log2=round(mad, ROUND),
                     tol_log2=round(tol, ROUND),
                     samples=len(ordered))


class PerfBaseline:
    """Expected cross-engine slowdown ratios, per pair and class."""

    def __init__(self, metric: str, reference: str,
                 pairs: Dict[str, PairStats],
                 meta: Optional[Dict] = None):
        if metric not in PERF_ORACLE_METRICS:
            raise HarnessError(
                f"unknown perf metric {metric!r}; known: "
                f"{', '.join(PERF_ORACLE_METRICS)}")
        self.metric = metric
        self.reference = reference
        self.pairs = pairs
        self.meta = dict(meta or {})

    @staticmethod
    def key(cls_name: str, engine: str, opt: int) -> str:
        return f"{cls_name}|{engine}|{opt}"

    def lookup(self, cls_name: str, engine: str,
               opt: int) -> Optional[PairStats]:
        return self.pairs.get(self.key(cls_name, engine, opt))

    def subset(self, engines: Sequence[str],
               opt_levels: Sequence[int]) -> "PerfBaseline":
        """The baseline slice covering one engine/opt grid (every class).

        Corpus reproducers embed this slice in their ``meta.json`` so a
        perf divergence replays self-contained — a later baseline
        refresh cannot silently change what the saved entry asserts.
        """
        engines = set(engines)
        opts = {str(o) for o in opt_levels}
        pairs = {}
        for key, stats in self.pairs.items():
            _cls, engine, opt = key.rsplit("|", 2)
            if engine in engines and opt in opts:
                pairs[key] = stats
        return PerfBaseline(self.metric, self.reference, pairs,
                            meta=self.meta)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict:
        payload = {
            "schema": PERF_SCHEMA,
            "metric": self.metric,
            "reference": self.reference,
            "pairs": {key: stats.to_dict()
                      for key, stats in sorted(self.pairs.items())},
        }
        payload.update(self.meta)
        return payload

    def to_json(self) -> str:
        """Canonical text form (the bytes committed as the baseline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict) -> "PerfBaseline":
        if data.get("schema") != PERF_SCHEMA:
            raise HarnessError(
                f"perf baseline schema {data.get('schema')!r} != "
                f"{PERF_SCHEMA!r} (refresh with "
                "wabench golden update perf)")
        meta = {k: v for k, v in data.items()
                if k not in ("schema", "metric", "reference", "pairs")}
        return cls(metric=data["metric"], reference=data["reference"],
                   pairs={key: PairStats.from_dict(stats)
                          for key, stats in data["pairs"].items()},
                   meta=meta)

    @classmethod
    def from_file(cls, path: str) -> "PerfBaseline":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise HarnessError(
                f"perf baseline {path!r} not found (generate with "
                "wabench golden update perf)")
        except (OSError, ValueError) as exc:
            raise HarnessError(f"perf baseline {path!r} unreadable: {exc}")
        return cls.from_dict(data)


# -- the oracle --------------------------------------------------------------


def program_class(observations, reference: str,
                  opt_levels: Sequence[int]) -> Optional[str]:
    """The benchmark class of one checked program, or None when the
    reference cell is unusable (missing, trapped, or zero-cost)."""
    for opt in sorted(opt_levels):
        obs = observations.get((reference, opt))
        if obs is None:
            continue
        if obs.trap_kind is not None:
            return None
        instructions = obs.metrics.get("instructions", 0)
        if instructions <= 0:
            return None
        return size_class(instructions)
    return None


def perf_divergences(observations, baseline: Optional[PerfBaseline],
                     seed: Optional[int] = None,
                     source: str = "") -> List:
    """Apply the ratio-outlier test to one program's observations.

    For every non-reference cell, the slowdown ratio over the reference
    engine *at the same -O level* is compared against the baseline's
    expected ratio for this program's class; a deviation beyond the
    pair's tolerance is one ``kind="perf"`` divergence.  Cells with no
    baseline coverage (unknown pair, trapped cell, zero metric) are
    skipped: the oracle only speaks where the baseline has data.
    """
    from .oracle import Divergence

    if baseline is None:
        return []
    opt_levels = sorted({opt for _eng, opt in observations})
    cls_name = program_class(observations, baseline.reference, opt_levels)
    if cls_name is None:
        return []
    out: List[Divergence] = []
    for (engine, opt), obs in observations.items():
        if engine in (baseline.reference, "static"):
            continue
        ref = observations.get((baseline.reference, opt))
        if ref is None or obs.trap_kind is not None \
                or ref.trap_kind is not None:
            continue
        value = obs.metrics.get(baseline.metric, 0)
        ref_value = ref.metrics.get(baseline.metric, 0)
        if value <= 0 or ref_value <= 0:
            continue
        stats = baseline.lookup(cls_name, engine, opt)
        if stats is None:
            continue
        deviation = round(log2_ratio(value, ref_value)
                          - stats.median_log2, ROUND)
        if abs(deviation) <= stats.tol_log2:
            continue
        direction = "slow" if deviation > 0 else "fast"
        out.append(Divergence(
            kind="perf", cell=(engine, opt),
            reference_cell=(baseline.reference, opt),
            detail=(f"{baseline.metric} ratio {value / ref_value:.2f}x "
                    f"vs expected {2 ** stats.median_log2:.2f}x "
                    f"(class {cls_name}, log2 deviation {deviation:+.3f} "
                    f"beyond tolerance {stats.tol_log2:.3f}, {direction})"),
            seed=seed, source=source, direction=direction))
    return out


# -- baseline construction ---------------------------------------------------


def build_baseline(base_seed: int, budget: int,
                   size_budget: int = DEFAULT_SIZE_BUDGET,
                   engines: Sequence[str] = DEFAULT_ENGINES,
                   opt_levels: Sequence[int] = DEFAULT_OPT_LEVELS,
                   metric: str = DEFAULT_METRIC,
                   k: float = DEFAULT_TOLERANCE_K,
                   floor: float = DEFAULT_TOLERANCE_FLOOR,
                   runner: Optional[CellRunner] = None,
                   progress=None) -> PerfBaseline:
    """Derive a :class:`PerfBaseline` from one seeded corpus campaign.

    Runs the same program population a campaign with the same
    ``(base_seed, budget, size_budget)`` would fuzz, collects every
    cell's log2 slowdown ratio over the reference engine (``engines[0]``)
    at the same -O level, and summarizes per ``class|engine|-O`` pair.
    Pure function of its arguments — rebuilding on another machine
    byte-reproduces the committed ``PERF_baseline.json``.
    """
    if not engines:
        raise ValueError("need at least one engine")
    if metric not in PERF_ORACLE_METRICS:
        raise HarnessError(
            f"unknown perf metric {metric!r}; known: "
            f"{', '.join(PERF_ORACLE_METRICS)}")
    validate_engines(engines)
    opt_levels = sorted(set(opt_levels))
    runner = runner if runner is not None else CellRunner()
    reference = engines[0]
    samples: Dict[str, List[float]] = {}

    from ..obs import cell_metrics

    for index in range(budget):
        seed = derive_seed(base_seed, index)
        program = generate_program(seed, size_budget)
        cells: Dict[Tuple[str, int], Dict[str, int]] = {}
        trapped = False
        for engine in engines:
            for opt in opt_levels:
                result = runner.run_cell(program.source, engine, opt)
                if result.trap is not None:
                    trapped = True
                cells[(engine, opt)] = cell_metrics(result)
        if trapped:
            # A trapping program has no meaningful steady-state cost;
            # the behavioral oracles own that case.
            continue
        ref_instr = cells[(reference, opt_levels[0])]["instructions"]
        if ref_instr <= 0:
            continue
        cls_name = size_class(ref_instr)
        for engine in engines[1:]:
            for opt in opt_levels:
                value = cells[(engine, opt)].get(metric, 0)
                ref_value = cells[(reference, opt)].get(metric, 0)
                if value <= 0 or ref_value <= 0:
                    continue
                key = PerfBaseline.key(cls_name, engine, opt)
                samples.setdefault(key, []).append(
                    log2_ratio(value, ref_value))
        if progress is not None:
            progress(index, cls_name)

    pairs = {key: pair_stats(values, k=k, floor=floor)
             for key, values in samples.items()}
    meta = {
        "base_seed": base_seed,
        "budget": budget,
        "size_budget": size_budget,
        "engines": list(engines),
        "opt_levels": list(opt_levels),
        "generator": GENERATOR_VERSION,
        "tolerance_k": k,
        "tolerance_floor": floor,
    }
    return PerfBaseline(metric=metric, reference=reference, pairs=pairs,
                        meta=meta)
