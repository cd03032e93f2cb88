"""Committed references: one registry and one cold/warm/``--jobs`` gate.

Every model-time finding the repo pins is a committed text file plus the
function that reproduces its bytes.  :data:`GOLDENS` names them;
``wabench golden check|update [NAME...]`` runs each producer in three
legs:

* **cold** — against a fresh artifact-cache directory;
* **warm** — against that same, now populated, directory;
* **jobs** — against a second fresh directory with ``jobs=2``.

The process-wide decoded-module cache and closure code memo are cleared
before every leg, so a leg reuses only what its cache directory holds.
The three texts must be byte-identical.  ``check`` then compares them
with the committed file; ``update`` rewrites the file, and refuses to
write anything when the legs disagree or a producer fails.

Producers import what they run inside their own bodies: this module is
loaded only by the ``wabench golden`` command, and nothing it names
should cost other commands start-up time.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Dict, List, Sequence

from ..errors import HarnessError, ReproError

#: The legs every producer runs, in order: (leg, cache subdir, jobs).
LEGS = (("cold", "cold", 1), ("warm", "cold", 1), ("jobs", "jobs", 2))

#: Size and -O every golden is produced at.
SIZE = "test"
OPT = 2


@dataclass(frozen=True)
class Golden:
    """A committed reference file and the producer of its bytes."""

    name: str
    path: str
    produce: Callable[[str, int], str]  # (cache_dir, jobs) -> text


def _serve(cache_dir: str, jobs: int) -> str:
    """The default ``wabench serve --seed 0`` grid report."""
    from ..serve import report_json
    from .cli import build_parser, serve_report

    args = build_parser().parse_args(
        ["serve", "--seed", "0", "--size", SIZE, "--cache-dir", cache_dir,
         "--jobs", str(jobs)])
    report, _harness = serve_report(args)
    return report_json(report)


def _io(cache_dir: str, jobs: int) -> str:
    """stdout, exit code and per-syscall profile of every io-class
    benchmark on every Wasm engine."""
    from ..bench import io_names
    from ..registry import ALL_RUNTIME_NAMES
    from .runner import Harness

    benches = list(io_names())
    harness = Harness(size=SIZE, opt_level=OPT, benchmarks=benches,
                      cache_dir=cache_dir)
    if jobs > 1:
        harness.prewarm([(bench, engine, OPT, False) for bench in benches
                         for engine in ALL_RUNTIME_NAMES], jobs=jobs)
    profiles = {}
    for bench in benches:
        profiles[bench] = {}
        for engine in ALL_RUNTIME_NAMES:
            result = harness.run(bench, engine)
            profiles[bench][engine] = {"stdout": result.stdout_text(),
                                       "exit_code": result.exit_code,
                                       "wasi": result.wasi_calls}
    report = {"schema": "wabench-io/1", "size": SIZE,
              "engines": list(ALL_RUNTIME_NAMES), "profiles": profiles}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _perf(cache_dir: str, jobs: int) -> str:
    """The perf-oracle ratio baseline of the seed-42, budget-50 campaign.
    ``build_baseline`` runs serially, so the jobs leg is a second cold
    run."""
    from ..fuzz.engines import CellRunner
    from ..fuzz.perf import build_baseline
    from .cache import ArtifactCache

    cache = ArtifactCache(cache_dir)
    return build_baseline(42, 50, runner=CellRunner(cache=cache)).to_json()


def _audit(cache_dir: str, jobs: int) -> str:
    """Expected diagnostics and mix deviations of all 50 benchmarks.
    The baseline dict leaves stack bounds out, so a violated bound
    fails here instead of being written."""
    from ..analysis.audit import run_suite_audit

    suite = run_suite_audit(SIZE, OPT, cache_dir=cache_dir, jobs=jobs)
    violated = [record["name"] for record in suite.records
                if not record["stack_bound_ok"]]
    if violated:
        raise HarnessError("static stack bound violated in: "
                           + ", ".join(violated))
    return json.dumps(suite.baseline_dict(), indent=1,
                      sort_keys=True) + "\n"


def _trace(cache_dir: str, jobs: int) -> str:
    """The ``wabench run gemm --size test --trace`` file, all six
    engines, schema-validated."""
    from ..obs import TraceSchemaError, Tracer, trace_lines, validate_trace
    from .runner import ENGINES, Harness

    tracer = Tracer()
    harness = Harness(size=SIZE, opt_level=OPT, benchmarks=["gemm"],
                      cache_dir=cache_dir, tracer=tracer)
    if jobs > 1:
        harness.prewarm([("gemm", engine, OPT, False)
                         for engine in ENGINES], jobs=jobs)
    for engine in ENGINES:
        harness.run("gemm", engine)
    lines = trace_lines(tracer.runs, config={"size": SIZE, "opt": OPT})
    try:
        validate_trace(lines)
    except TraceSchemaError as exc:
        raise HarnessError(str(exc))
    return "\n".join(lines) + "\n"


GOLDENS: Dict[str, Golden] = {golden.name: golden for golden in (
    Golden("serve", "SERVE_golden.json", _serve),
    Golden("io", "IO_golden.json", _io),
    Golden("perf", "PERF_baseline.json", _perf),
    Golden("audit", "AUDIT_baseline.json", _audit),
    Golden("trace", "TRACE_golden.jsonl", _trace),
)}


def _reset_process_memos() -> None:
    from .. import speed

    speed.module_cache.clear()
    speed.memo_clear()


def _difference(what: str, want_label: str, want: str, got_label: str,
                got: str, hint: str) -> str:
    """``what``, then the first line where ``want`` and ``got`` differ
    (``<end of file>`` past the shorter one), then ``hint``."""
    pairs = zip_longest(want.splitlines(keepends=True),
                        got.splitlines(keepends=True),
                        fillvalue="<end of file>")
    lineno, a, b = next((n, a.rstrip("\n"), b.rstrip("\n"))
                        for n, (a, b) in enumerate(pairs, 1) if a != b)
    width = max(len(want_label), len(got_label))
    return (f"{what} at line {lineno}\n"
            f"  {want_label:{width}s} | {a}\n"
            f"  {got_label:{width}s} | {b}\n"
            f"  {hint}")


def _run_legs(golden: Golden) -> str:
    """The producer's text once its three legs agree.

    Raises :class:`HarnessError` naming the leg that failed or diverged.
    """
    root = tempfile.mkdtemp(prefix=f"wabench-golden-{golden.name}-")
    texts: Dict[str, str] = {}
    try:
        for leg, subdir, jobs in LEGS:
            _reset_process_memos()
            try:
                texts[leg] = golden.produce(os.path.join(root, subdir),
                                            jobs)
            except ReproError as exc:
                raise HarnessError(f"the {leg} leg failed: {exc}")
    finally:
        _reset_process_memos()
        shutil.rmtree(root, ignore_errors=True)
    cold = texts["cold"]
    for leg, _subdir, _jobs in LEGS[1:]:
        if texts[leg] != cold:
            raise HarnessError(_difference(
                f"the {leg} leg differs from the cold leg", "cold", cold,
                leg, texts[leg],
                f"legs that disagree are a determinism bug; `wabench "
                f"golden update {golden.name}` writes nothing until they "
                f"agree"))
    return cold


def _check(golden: Golden, text: str) -> str:
    try:
        with open(golden.path) as fh:
            committed = fh.read()
    except FileNotFoundError:
        raise HarnessError(f"{golden.path} does not exist; create it "
                           f"with: wabench golden update {golden.name}")
    if committed != text:
        raise HarnessError(_difference(
            f"the legs agree but differ from {golden.path}", golden.path,
            committed, "produced", text,
            f"if the change is intended, refresh with: wabench golden "
            f"update {golden.name}"))
    return f"ok (cold, warm and jobs legs match {golden.path})"


def _update(golden: Golden, text: str) -> str:
    with open(golden.path, "w") as fh:
        fh.write(text)
    return f"wrote {golden.path}"


def run(action: str, names: Sequence[str]) -> int:
    """``wabench golden check|update``: 0 when every named golden
    matched (``check``) or was written (``update``), else 1."""
    finish = _check if action == "check" else _update
    failed: List[str] = []
    for name in names:
        golden = GOLDENS[name]
        try:
            print(f"golden {name}: {finish(golden, _run_legs(golden))}")
        except HarnessError as exc:
            kept = f" ({golden.path} left unchanged)" \
                if action == "update" else ""
            print(f"golden {name}: FAILED{kept}: {exc}")
            failed.append(name)
    if failed:
        print(f"wabench golden {action}: failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0
