"""One pass of a hostbench workload, in a fresh interpreter.

``run.py`` starts ``python hostbench/passes.py SPEC`` with
``PYTHONPATH=src`` and times it from outside.  The pass prints
``READY`` once its imports and the Harness are set up, does the
workload's work, and prints ``RESULT <json>`` with the digest of every
modeled output and the cells that failed.  SPEC is a JSON object:

``kind``
    ``"fuzz"``: ``run_campaign(base_seed, budget, cache_dir=store,
    jobs=jobs)`` with the default engines and ``-O0,2``.
    ``"grid"``: ``plan_cells(experiments)`` over ``programs`` at
    ``size``, then ``run_cells(jobs)``, into ``store`` when one is given.
``trace_dir``
    When set, :mod:`layers` wrappers are installed before READY and
    every process of the pass writes its spans there.
``setup_only``
    When true, the pass exits right after READY, printing no result.
"""

from __future__ import annotations

import hashlib
import json
import sys


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_id(name: str, engine: str, opt: int, aot: bool) -> str:
    return f"{name}/{engine}/O{opt}" + ("/aot" if aot else "")


def _fuzz(spec: dict, ready) -> dict:
    from repro.fuzz import campaign
    ready()
    report = campaign.run_campaign(spec["base_seed"], budget=spec["budget"],
                                   cache_dir=spec["store"],
                                   jobs=spec["jobs"])
    failed = sorted({f"{d.seed}/{d.cell[0]}/O{d.cell[1]}"
                     for d in report.divergences})
    stats = report.cache_stats
    return {"cells": report.cells_run, "failed": failed,
            "digests": {"campaign": digest(report.render(verbose=True))},
            "cache_hits": stats.total_hits, "cache_lookups": stats.total}


def _grid(spec: dict, ready) -> dict:
    from repro.errors import HarnessError
    from repro.harness import parallel
    from repro.harness.runner import Harness
    harness = Harness(size=spec["size"], benchmarks=spec["programs"],
                      cache_dir=spec["store"])
    cells = parallel.plan_cells(harness, spec["experiments"])
    ready()
    try:
        parallel.run_cells(harness, cells, spec["jobs"])
    except HarnessError:
        pass    # every failing cell raises again below and is counted
    failed, digests, stdout = [], {}, {}
    for name, engine, opt, aot in cells:
        key = cell_id(name, engine, opt, aot)
        try:
            result = harness.run(name, engine, opt=opt, aot=aot)
        except HarnessError:
            failed.append(key)
            continue
        digests[key] = digest(result.to_json())
        stdout[key] = result.stdout
    # Every engine must print what the native binary printed.
    for name, engine, opt, aot in cells:
        key = cell_id(name, engine, opt, aot)
        native = stdout.get(cell_id(name, "native", opt, False))
        if key in stdout and native is not None and stdout[key] != native:
            failed.append(key)
    stats = harness.cache_stats
    return {"cells": len(cells), "failed": sorted(set(failed)),
            "digests": digests, "cache_hits": stats.total_hits,
            "cache_lookups": stats.total}


def main(argv) -> int:
    spec = json.loads(argv[1])
    recorder = None
    if spec.get("trace_dir"):
        import layers
        recorder = layers.Recorder(spec["trace_dir"], spec["pass_id"])

    def ready():
        if recorder is not None:
            recorder.install()
        print("READY", flush=True)
        if spec.get("setup_only"):
            sys.exit(0)

    result = (_fuzz if spec["kind"] == "fuzz" else _grid)(spec, ready)
    print("RESULT " + json.dumps(result, sort_keys=True), flush=True)
    if recorder is not None:
        recorder.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
