#!/usr/bin/env python3
"""Lint every WABench benchmark source with the MiniC sanitizer.

Every benchmark source goes through the sanitizer
(:mod:`repro.analysis.sanitizer`) with its test-size defines and must be
clean.  Prints one line per finding and exits non-zero when any
benchmark has findings — suitable as a pre-commit gate for the bench
suite.  The compiled modules' Wasm diagnostics are pinned exactly by
``wabench golden check audit``.

Usage::

    PYTHONPATH=src python scripts/lint_bench.py [name ...]
"""

import os
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.analysis import analyze_source  # noqa: E402
from repro.bench import ALL_BENCHMARKS     # noqa: E402


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    selected = set(argv)
    benches = [b for b in ALL_BENCHMARKS
               if not selected or b.name in selected]
    unknown = selected - {b.name for b in benches}
    if unknown:
        print(f"lint_bench: unknown benchmark(s): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2

    total = 0
    for bench in benches:
        findings = analyze_source(bench.source,
                                  defines=bench.defines_for("test"))
        for finding in findings:
            print(finding.format(f"{bench.suite}/{bench.name}"))
        total += len(findings)

    print(f"lint_bench: {len(benches)} benchmark(s), {total} finding(s)")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
