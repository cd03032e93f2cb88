"""Trap equivalence: every engine raises the same trap for the same sin.

The Wasm specification fixes the trap conditions; the paper's runtimes
(and our native baseline, which shares the ISA-level operator
semantics) must agree not just on results but on *failures*: integer
divide-by-zero, out-of-bounds loads and stores, indirect-call type
mismatches, null indirect calls, and the overflow of converting an
infinity to an integer must produce the same trap kind on
the native model, the classic and threaded interpreters, every JIT
tier, and AOT images.  Trap messages carry engine-specific detail (the
faulting function's mangled name), so comparison uses
:func:`repro.fuzz.oracle.normalize_trap`.
"""

import pytest

from repro.fuzz import CellRunner, normalize_trap

#: Native baseline, both interpreter designs, all three JIT tiers
#: (Wasmtime=Cranelift, WAVM=LLVM, Wasmer x singlepass/cranelift/llvm),
#: and the AOT path of each AOT-capable runtime.
TRAP_ENGINES = ("native", "wamr", "wasm3",
                "wasmtime", "wavm", "wasmer",
                "wasmer-singlepass", "wasmer-llvm",
                "wasmtime-aot", "wavm-aot", "wasmer-aot")

TRAP_PROGRAMS = {
    "div-by-zero": ("""
        int main(void) {
            int zero = 0;
            print_i(7 / zero); print_nl();
            return 0;
        }
    """, "integer divide by zero"),
    "mod-by-zero": ("""
        int main(void) {
            int zero = 0;
            print_i(7 % zero); print_nl();
            return 0;
        }
    """, "integer divide by zero"),
    "oob-load": ("""
        int arr[4];
        int main(void) {
            int i = 100000000;
            print_i(arr[i]); print_nl();
            return 0;
        }
    """, "out of bounds memory access"),
    "oob-store": ("""
        int main(void) {
            int *p = (int *)(200 * 1024 * 1024);
            *p = 42;
            return 0;
        }
    """, "out of bounds memory access"),
    "indirect-type-mismatch": ("""
        double fadd(double a, double b) { return a + b; }
        int main(void) {
            int (*fp)(int, int);
            fp = (int (*)(int, int))fadd;
            print_i(fp(1, 2)); print_nl();
            return 0;
        }
    """, "indirect call type mismatch"),
    "null-indirect-call": ("""
        int main(void) {
            int (*fp)(int, int);
            fp = (int (*)(int, int))0;
            print_i(fp(1, 2)); print_nl();
            return 0;
        }
    """, "uninitialized element"),
    "stack-exhaustion": ("""
        int spin(int n) { return spin(n + 1) + n; }
        int main(void) {
            print_i(spin(0)); print_nl();
            return 0;
        }
    """, "call stack exhausted"),
    "trunc-inf": ("""
        int main(void) {
            double z = 0.0;
            double big = 1.0 / z;
            print_i((int)big); print_nl();
            return 0;
        }
    """, "integer overflow"),
    # The next two trap in the middle of a loop body, once the loop has
    # run long enough for tier 2 to move it into its closure with the
    # L1I warm, so the closure's trap site must also write back the L1I
    # ticks it defers to the end of a run of ops.
    "warm-div": ("""
        int main(void) {
            int t = 0;
            for (int i = 100; i >= 0; i--) {
                t += 1000 / i;
                t ^= i;
            }
            print_i(t); print_nl();
            return 0;
        }
    """, "integer divide by zero"),
    "warm-oob-load": ("""
        int arr[4];
        int main(void) {
            int t = 0;
            for (int i = 0; i < 100000000; i += 1024) {
                t += arr[i] + 1;
                t ^= i;
            }
            print_i(t); print_nl();
            return 0;
        }
    """, "out of bounds memory access"),
}


@pytest.fixture(scope="module")
def runner():
    return CellRunner()


@pytest.mark.parametrize("engine", TRAP_ENGINES)
@pytest.mark.parametrize("name", sorted(TRAP_PROGRAMS))
def test_trap_kind_matches_everywhere(name, engine, runner):
    source, expected_kind = TRAP_PROGRAMS[name]
    result = runner.run_cell(source, engine, opt=2, use_cache=False)
    assert normalize_trap(result.trap) == expected_kind, (
        f"{name} on {engine}: expected trap {expected_kind!r}, "
        f"got {result.trap!r} (exit={result.exit_code})")


@pytest.mark.parametrize("name", sorted(TRAP_PROGRAMS))
def test_trap_identical_across_opt_levels(name, runner):
    """A trap must not appear or vanish with optimization level."""
    source, expected_kind = TRAP_PROGRAMS[name]
    for opt in (0, 1, 2, 3):
        result = runner.run_cell(source, "wasmtime", opt,
                                 use_cache=False)
        assert normalize_trap(result.trap) == expected_kind, (
            f"{name} at -O{opt}: got {result.trap!r}")


def test_trapping_stdout_agrees():
    """Output buffered before the trap must match across engines too
    (stdout is flushed on exit, so a trap drops buffered output the
    same way everywhere)."""
    source = """
        int main(void) {
            int zero = 0;
            print_s("before");
            print_i(1 / zero); print_nl();
            return 0;
        }
    """
    runner = CellRunner()
    outs = {engine: runner.run_cell(source, engine, 2,
                                    use_cache=False).stdout
            for engine in ("native", "wamr", "wasmtime")}
    assert len(set(outs.values())) == 1, outs
