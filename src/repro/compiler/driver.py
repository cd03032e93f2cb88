"""``wasicc`` — the MiniC-to-WebAssembly compiler driver.

The reproduction's equivalent of the WASI SDK's ``clang --target=wasm32-
wasi``: it runs the frontend on the program behind the MiniC libc (parsing
only the libc declarations the program reaches, see
:class:`~repro.minic.prelude.Prelude`), the -O-gated midend, Wasm code
generation, the Wasm-level peephole pass, validation, and binary encoding.

``-O`` levels match the paper's experiment axis (Fig. 4):
  -O0  everything in memory, no optimization
  -O1  fold/simplify + peephole
  -O2  + strength reduction and inlining          (the paper's default)
  -O3  + loop unrolling
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import CompileError
from ..minic import analyze, parse
from ..obs import NULL_TRACER
from ..minic.ast import TranslationUnit
from ..minic.sema import SemanticAnalyzer
from ..wasm import Module, encode_module, validate_module
from . import midend
from .libc import LIBC_PRELUDE, LIBC_SOURCE
from .peephole import peephole_module
from .wasmgen import CodeGenerator

DEFAULT_OPT_LEVEL = 2

#: Bump whenever codegen, the midend, or the peephole pass changes in a way
#: that alters emitted binaries; it invalidates every on-disk artifact.
COMPILER_VERSION = "wasicc-1"

_LIBC_DIGEST = hashlib.sha256(LIBC_SOURCE.encode()).hexdigest()


def config_fingerprint(opt_level: int,
                       defines: Optional[Dict[str, str]] = None,
                       include_libc: bool = True,
                       entry: str = "main") -> str:
    """Stable hash of everything (besides the source text) that changes
    compilation output: the -O level, the preprocessor defines, whether the
    program is compiled behind the libc (and its exact text), the entry
    symbol, and the compiler version stamp.  Used as part of on-disk
    artifact cache keys."""
    payload = json.dumps({
        "compiler": COMPILER_VERSION,
        "opt": opt_level,
        "defines": sorted((defines or {}).items()),
        "libc": _LIBC_DIGEST if include_libc else None,
        "entry": entry,
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CompileResult:
    """Everything the harness wants to know about one compile."""

    wasm_bytes: bytes
    module: Module
    unit: TranslationUnit
    analyzer: SemanticAnalyzer
    opt_level: int
    midend_stats: Dict[str, int] = field(default_factory=dict)
    peephole_removed: int = 0

    @property
    def binary_size(self) -> int:
        return len(self.wasm_bytes)

    @property
    def instruction_count(self) -> int:
        return self.module.body_size()

    @property
    def function_count(self) -> int:
        return len(self.module.functions)


def compile_source(source: str, opt_level: int = DEFAULT_OPT_LEVEL,
                   defines: Optional[Dict[str, str]] = None,
                   include_libc: bool = True,
                   entry: str = "main",
                   tracer=None) -> CompileResult:
    """Compile MiniC source text to a WebAssembly binary.

    ``tracer`` (a :class:`repro.obs.Tracer`) gets one wall-clock session
    span per driver phase — frontend (parse + semantic analysis), midend
    (the -O-gated optimization pipeline), backend (codegen, peephole,
    validation, encoding) — the compile-side half of the phase-resolved
    measurement story.
    """
    obs = tracer if tracer is not None else NULL_TRACER
    if not 0 <= opt_level <= 3:
        raise CompileError(f"invalid optimization level -O{opt_level}")
    all_defines = {"TARGET_NATIVE": "0"}
    all_defines.update(defines or {})
    with obs.span("frontend", opt=opt_level) as span:
        unit = parse(source, all_defines,
                     prelude=LIBC_PRELUDE if include_libc else None,
                     roots=(entry,))
        analyzer = analyze(unit, force_locals_to_memory=(opt_level == 0))
        span.attrs["functions"] = len(unit.functions)
    with obs.span("midend", opt=opt_level) as span:
        midend_stats = midend.optimize(unit, opt_level)
        span.attrs.update(midend_stats)
    with obs.span("backend", opt=opt_level) as span:
        module = CodeGenerator(unit, analyzer, entry).generate()
        removed = peephole_module(module) if opt_level >= 1 else 0
        validate_module(module)
        wasm_bytes = encode_module(module)
        span.attrs["binary_size"] = len(wasm_bytes)
        span.attrs["peephole_removed"] = removed
    return CompileResult(wasm_bytes=wasm_bytes, module=module, unit=unit,
                         analyzer=analyzer, opt_level=opt_level,
                         midend_stats=midend_stats,
                         peephole_removed=removed)


# ---------------------------------------------------------------------------
# Command-line driver (console script: ``wasicc``)
# ---------------------------------------------------------------------------


def _parse_defines(items: Optional[List[str]]) -> Dict[str, str]:
    defines: Dict[str, str] = {}
    for item in items or []:
        name, _, value = item.partition("=")
        defines[name] = value if value else "1"
    return defines


def _rebase_error(exc: CompileError, include_libc: bool) -> str:
    """Point frontend error lines into the user's file: the frontend
    numbers a program's lines as if the libc stood in front of it."""
    msg = str(exc)
    line = getattr(exc, "line", 0)
    offset = LIBC_PRELUDE.line_offset
    if not include_libc or line <= offset:
        return msg
    return msg.replace(str(line), str(line - offset), 1)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wasicc",
        description="MiniC-to-WebAssembly compiler driver")
    parser.add_argument("source", help="MiniC source file")
    parser.add_argument("-o", "--output",
                        help="output wasm path (default: <source>.wasm)")
    parser.add_argument("-O", dest="opt", type=int,
                        default=DEFAULT_OPT_LEVEL, metavar="LEVEL",
                        help="optimization level 0-3 (default 2)")
    parser.add_argument("-D", dest="defines", action="append",
                        metavar="NAME[=VALUE]", help="preprocessor define")
    parser.add_argument("--no-libc", action="store_true",
                        help="compile without the MiniC libc")
    parser.add_argument("--analyze", action="store_true",
                        help="run the sanitizer instead of compiling; "
                             "exits 1 when findings are reported")
    parser.add_argument("--metrics", action="store_true",
                        help="compile and print a static-metrics report "
                             "instead of writing a binary")
    parser.add_argument("--audit", action="store_true",
                        help="compile and print the static audit (call "
                             "graph, cost model, lint diagnostics) "
                             "instead of writing a binary; exits 1 when "
                             "diagnostics are reported")
    parser.add_argument("--timings", action="store_true",
                        help="print per-phase (frontend/midend/backend) "
                             "wall times after compiling")
    args = parser.parse_args(argv)

    try:
        with open(args.source, "r") as fh:
            source = fh.read()
    except OSError as exc:
        print(f"wasicc: cannot read {args.source}: {exc}", file=sys.stderr)
        return 2
    defines = _parse_defines(args.defines)

    if args.analyze:
        from ..analysis.sanitizer import analyze_source
        try:
            findings = analyze_source(source, defines=defines,
                                      include_libc=not args.no_libc)
        except CompileError as exc:
            print(f"wasicc: {_rebase_error(exc, not args.no_libc)}",
                  file=sys.stderr)
            return 2
        for finding in findings:
            print(finding.format(args.source))
        if findings:
            print(f"wasicc: {len(findings)} finding(s)", file=sys.stderr)
            return 1
        return 0

    tracer = None
    if args.timings:
        from ..obs import Tracer
        tracer = Tracer()
    try:
        result = compile_source(source, opt_level=args.opt, defines=defines,
                                include_libc=not args.no_libc,
                                tracer=tracer)
    except CompileError as exc:
        print(f"wasicc: {_rebase_error(exc, not args.no_libc)}",
              file=sys.stderr)
        return 2
    if tracer is not None:
        for span in tracer.session_spans:
            print(f"wasicc: [{span.name:8s}] {span.wall_seconds * 1e3:8.2f} "
                  f"ms wall")

    if args.metrics:
        from ..analysis.metrics import module_report, render_report
        print(render_report(module_report(result.module), args.source))
        return 0

    if args.audit:
        from ..analysis.audit import audit_wasm
        # Audit the encoded bytes (not the in-memory module) so the
        # report also covers encoding-level findings such as WA006.
        audit = audit_wasm(result.wasm_bytes, name=args.source)
        print(audit.render())
        return 1 if audit.diagnostics else 0

    output = args.output or (args.source.rsplit(".", 1)[0] + ".wasm")
    with open(output, "wb") as fh:
        fh.write(result.wasm_bytes)
    print(f"wasicc: wrote {output} ({result.binary_size} bytes, "
          f"-O{result.opt_level})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
