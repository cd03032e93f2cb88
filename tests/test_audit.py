"""Static auditor: lints, golden reports, LEB128 minimality, the
static-vs-dynamic cross-checks, and the fuzz static pre-oracle."""

import json
import os

import pytest

from repro.analysis.audit import (DynamicProfile, audit_benchmark,
                                  audit_wasm, dynamic_profile,
                                  run_suite_audit)
from repro.analysis.callgraph import build_call_graph
from repro.bench import get as get_bench
from repro.compiler import compile_source
from repro.wasm import leb128
from repro.wasm.decoder import decode_module_with_stats

AUDIT_BASELINE = os.path.join(os.path.dirname(__file__), "..",
                              "AUDIT_baseline.json")
GOLDEN_BENCHES = ("quicksort", "sha", "gemm")


def _bench_wasm(name, opt=2, size="test"):
    bench = get_bench(name)
    return compile_source(bench.source, opt_level=opt,
                          defines=bench.defines_for(size)).wasm_bytes


# -- golden lint reports ----------------------------------------------------


@pytest.mark.parametrize("name", GOLDEN_BENCHES)
def test_golden_lint_report(name):
    """The static diagnostics of three fixed benchmarks match their
    entries in the committed AUDIT_baseline.json, which ``wabench
    golden update audit`` refreshes after an intended analyzer change
    (``wabench golden check audit`` sweeps all 50 benchmarks)."""
    audit = audit_wasm(_bench_wasm(name), name=name)
    with open(AUDIT_BASELINE) as f:
        expected = json.load(f)["benchmarks"][name]["diagnostics"]
    assert [d.key() for d in audit.diagnostics] == expected


# -- LEB128 minimality ------------------------------------------------------


def test_decode_u_ex_flags_non_minimal():
    assert leb128.decode_u_ex(b"\x00", 0) == (0, 1, True)
    assert leb128.decode_u_ex(b"\x80\x00", 0) == (0, 2, False)
    assert leb128.decode_u_ex(b"\xff\x01", 0) == (255, 2, True)
    assert leb128.decode_u_ex(b"\xff\x81\x00", 0) == (255, 3, False)


def test_decode_s_ex_flags_non_minimal():
    assert leb128.decode_s_ex(b"\x7f", 0) == (-1, 1, True)
    assert leb128.decode_s_ex(b"\xff\x7f", 0) == (-1, 2, False)
    assert leb128.decode_s_ex(b"\x3f", 0) == (63, 1, True)
    assert leb128.decode_s_ex(b"\xbf\x00", 0) == (63, 2, False)
    # 0x40 has the sign bit set in 7 bits, so two bytes ARE minimal.
    assert leb128.decode_s_ex(b"\xc0\x00", 0) == (64, 2, True)


def test_encoder_emits_minimal_lebs():
    """Round numbers: everything wasicc emits must decode with zero
    non-minimal LEB128 sites (values the encoder itself produced)."""
    for name in GOLDEN_BENCHES:
        _, stats = decode_module_with_stats(_bench_wasm(name))
        assert stats.non_minimal == ()


def _patch_section_size_non_minimal(wasm):
    """Rewrite the first section's size LEB to a 2-byte form.

    Byte 8 is the first section id, byte 9 its (single-byte) size; the
    padded form keeps the value, so the module still decodes.
    """
    size = wasm[9]
    assert size < 0x80
    return wasm[:9] + bytes([size | 0x80, 0x00]) + wasm[10:]


def test_non_minimal_module_regression():
    wasm = _bench_wasm("quicksort")
    patched = _patch_section_size_non_minimal(wasm)

    module, stats = decode_module_with_stats(patched)
    assert stats.non_minimal == (9,)
    clean_module, clean_stats = decode_module_with_stats(wasm)
    assert clean_stats.non_minimal == ()
    # Decoding is unaffected; only the stats record the padded site.
    assert len(module.functions) == len(clean_module.functions)

    audit = audit_wasm(patched, name="patched")
    wa006 = [d for d in audit.diagnostics if d.id == "WA006"]
    assert len(wa006) == 1
    assert "offset(s) 9" in wa006[0].message


# -- suite audit: cross-checks, determinism ---------------------------------


def test_audit_benchmark_record():
    record = audit_benchmark("quicksort", "test", 2)
    assert record["stack_bound_ok"]
    assert record["deviations"] == []
    assert record["dynamic_ops"] > 0
    shares = sum(record["dynamic_mix"].values())
    assert shares == pytest.approx(1.0, abs=0.01)
    assert any(d.startswith("WA001") for d in record["diagnostics"])


def test_audit_benchmark_deterministic():
    first = audit_benchmark("quicksort", "test", 2)
    second = audit_benchmark("quicksort", "test", 2)
    assert first == second


def test_suite_audit_json_deterministic():
    one = run_suite_audit("test", 2, benchmarks=["quicksort"])
    two = run_suite_audit("test", 2, benchmarks=["quicksort"])
    assert one.to_json() == two.to_json()
    assert "quicksort" in one.render()


def test_committed_baseline_matches_quicksort():
    """The committed AUDIT_baseline.json matches the current analyzer
    output exactly (spot check on one benchmark; ``wabench golden check
    audit`` sweeps all 50)."""
    with open(AUDIT_BASELINE) as f:
        baseline = json.load(f)
    suite = run_suite_audit("test", 2, benchmarks=["quicksort"])
    assert all(r["stack_bound_ok"] for r in suite.records)
    got = suite.baseline_dict()
    for key in ("audit_version", "size", "opt", "tolerance"):
        assert got[key] == baseline[key], key
    assert got["benchmarks"]["quicksort"] == \
        baseline["benchmarks"]["quicksort"]


# -- static max-stack bound vs the instrumented interpreter -----------------


from .conftest import fuzz_seeds  # noqa: E402


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", fuzz_seeds(5, salt=81))
@pytest.mark.parametrize("opt", [0, 2])
def test_static_stack_bound_dominates_observed(seed, opt):
    """The per-function static bound is sound: no dispatch of the
    reference loop ever observes a deeper operand stack."""
    from repro.fuzz.generator import generate_program
    from repro.runtimes.interpreters import Wasm3Runtime

    program = generate_program(seed)
    wasm = compile_source(program.source, opt_level=opt).wasm_bytes
    module, _stats = decode_module_with_stats(wasm)
    graph = build_call_graph(module)

    profile = dynamic_profile(wasm)
    assert profile.total_ops > 0
    for index, observed in profile.max_stack.items():
        bound = graph.max_stack[index]
        assert bound is not None
        assert observed <= bound, \
            f"{graph.names[index]}: observed {observed} > bound {bound}"


def test_dynamic_profile_matches_plain_run_behavior():
    """Attaching the observer must not change modeled execution."""
    from repro.runtimes.interpreters import Wasm3Runtime

    wasm = _bench_wasm("quicksort")
    plain = Wasm3Runtime().run(wasm)
    rt = Wasm3Runtime()
    rt.instr_profile = DynamicProfile()
    instrumented = rt.run(wasm)
    assert instrumented.to_json() == plain.to_json()


# -- fuzz static pre-oracle -------------------------------------------------


def test_compute_static_findings_clean_on_compiler_output():
    from repro.fuzz.engines import compute_static_findings
    assert compute_static_findings(_bench_wasm("quicksort")) == []


def test_compute_static_findings_flags_non_minimal():
    from repro.fuzz.engines import compute_static_findings
    patched = _patch_section_size_non_minimal(_bench_wasm("quicksort"))
    findings = compute_static_findings(patched)
    assert any("non-minimal" in f for f in findings)
    # The padded byte also breaks the byte-identical round-trip.
    assert any("round-trip" in f for f in findings)


def test_compute_static_findings_rejects_garbage():
    from repro.fuzz.engines import compute_static_findings
    findings = compute_static_findings(b"\x00asm\x01\x00\x00\x00\xff")
    assert findings and "decoder rejected" in findings[0]


def test_check_program_runs_static_oracle(tmp_path):
    from repro.fuzz.engines import CellRunner
    from repro.fuzz.generator import generate_program
    from repro.fuzz.oracle import check_program
    from repro.harness.cache import ArtifactCache

    runner = CellRunner(cache=ArtifactCache(str(tmp_path)))
    source = generate_program(42).source
    report = check_program(source, engines=("native", "wasm3"),
                           opt_levels=(0, 2), runner=runner,
                           check_determinism=False)
    assert report.ok
    assert [k for k in runner.stats.misses if k == "fuzz-static"]
    # Second check served from the cache.
    check_program(source, engines=("native", "wasm3"), opt_levels=(0, 2),
                  runner=runner, check_determinism=False)
    assert [k for k in runner.stats.hits if k == "fuzz-static"]


def test_static_divergence_reported(tmp_path, monkeypatch):
    """A static finding surfaces as a kind='static' divergence."""
    from repro.fuzz import engines as fuzz_engines
    from repro.fuzz.engines import CellRunner
    from repro.fuzz.oracle import check_program

    monkeypatch.setattr(fuzz_engines, "compute_static_findings",
                        lambda wasm: ["injected analyzer crash"])
    report = check_program("int main() { return 0; }",
                           engines=("native",), opt_levels=(0,),
                           runner=CellRunner(), check_determinism=False)
    static = [d for d in report.divergences if d.kind == "static"]
    assert len(static) == 1
    assert static[0].cell == ("static", 0)
    assert "injected" in static[0].detail
