"""Compiler tests: language semantics verified by executing compiled code.

Each test compiles a MiniC program and checks its observable output on
the cheapest runtime (and, where interesting, at several -O levels —
optimization must never change results).
"""

import pytest

from repro.bench import ALL_BENCHMARKS, IO_BENCHMARKS, SERVICE_BENCHMARKS
from repro.bench import get as get_benchmark
from repro.compiler import compile_source
from repro.compiler.driver import main as wasicc_main
from repro.compiler.libc import LIBC_PRELUDE, LIBC_SOURCE
from repro.errors import CompileError
from repro.fuzz.generator import generate_program
from repro.harness import Harness
from tests.conftest import fuzz_seeds, run_native_quick, run_wamr


def out(source, **kw):
    res = run_wamr(source, **kw)
    assert res.trap is None, res.trap
    return res.stdout_text()


class TestArithmetic:
    def test_integer_ops(self):
        assert out("""
            int main(void) {
                int a = 17, b = 5;
                print_i(a + b); print_nl();
                print_i(a - b); print_nl();
                print_i(a * b); print_nl();
                print_i(a / b); print_nl();
                print_i(a % b); print_nl();
                return 0;
            }
        """) == "22\n12\n85\n3\n2\n"

    def test_negative_division_truncates(self):
        assert out("""
            int main(void) {
                print_i(-7 / 2); print_nl();
                print_i(-7 % 2); print_nl();
                print_i(7 / -2); print_nl();
                return 0;
            }
        """) == "-3\n-1\n-3\n"

    def test_unsigned_arithmetic(self):
        assert out("""
            int main(void) {
                unsigned int big = 0xFFFFFFF0u;
                big = big + 0x20u;   /* wraps */
                print_u(big); print_nl();
                print_u(big / 2u); print_nl();
                return 0;
            }
        """) == "16\n8\n"

    def test_signed_overflow_wraps(self):
        assert out("""
            int main(void) {
                int x = 2147483647;
                x = x + 1;
                print_i(x); print_nl();
                return 0;
            }
        """) == "-2147483648\n"

    def test_long_arithmetic(self):
        assert out("""
            int main(void) {
                long a = 4000000000l;
                long b = a * 3l;
                print_l(b); print_nl();
                print_l(b >> 4); print_nl();
                return 0;
            }
        """) == "12000000000\n750000000\n"

    def test_shifts_and_masks(self):
        assert out("""
            int main(void) {
                int x = -16;
                print_i(x >> 2); print_nl();          /* arithmetic */
                print_u((unsigned int)x >> 2); print_nl();  /* logical */
                print_x(0xABCD1234u & 0xFFFFu); print_nl();
                return 0;
            }
        """) == "-4\n1073741820\n1234\n"

    def test_char_wrapping(self):
        assert out("""
            int main(void) {
                char c = (char)200;
                unsigned char u = (unsigned char)200;
                print_i(c); print_nl();
                print_i(u); print_nl();
                return 0;
            }
        """) == "-56\n200\n"

    def test_float_double(self):
        text = out("""
            int main(void) {
                double d = 1.5;
                float f = 0.25;
                print_f(d * 2.0 + (double)f); print_nl();
                print_f(1.0 / 3.0); print_nl();
                return 0;
            }
        """)
        assert text == "3.250000\n0.333333\n"

    def test_comparison_chain(self):
        assert out("""
            int main(void) {
                int a = 3, b = 7;
                print_i(a < b); print_i(a > b); print_i(a == 3);
                print_i(a != b); print_i(b >= 7); print_i(b <= 6);
                print_nl();
                return 0;
            }
        """) == "101110\n"

    def test_ternary_and_logical(self):
        assert out("""
            int check(int x) { return x > 10 ? 100 : -100; }
            int main(void) {
                print_i(check(20)); print_nl();
                print_i(check(5)); print_nl();
                print_i(1 && 2); print_i(0 || 3); print_i(!5); print_i(!0);
                print_nl();
                return 0;
            }
        """) == "100\n-100\n1101\n"

    def test_short_circuit_side_effects(self):
        assert out("""
            int calls = 0;
            int bump(void) { calls++; return 1; }
            int main(void) {
                int r = 0 && bump();
                r = 1 || bump();
                print_i(calls); print_nl();
                r = 1 && bump();
                r = 0 || bump();
                print_i(calls); print_nl();
                return 0;
            }
        """) == "0\n2\n"


class TestControlFlow:
    def test_nested_loops(self):
        assert out("""
            int main(void) {
                int total = 0;
                int i, j;
                for (i = 0; i < 5; i++)
                    for (j = 0; j <= i; j++)
                        total += j;
                print_i(total); print_nl();
                return 0;
            }
        """) == "20\n"

    def test_break_continue(self):
        assert out("""
            int main(void) {
                int total = 0, i;
                for (i = 0; i < 100; i++) {
                    if (i % 2 == 0) continue;
                    if (i > 10) break;
                    total += i;
                }
                print_i(total); print_nl();
                return 0;
            }
        """) == "25\n"

    def test_do_while(self):
        assert out("""
            int main(void) {
                int n = 0;
                do { n++; } while (n < 5);
                print_i(n); print_nl();
                do { n++; } while (0);
                print_i(n); print_nl();
                return 0;
            }
        """) == "5\n6\n"

    def test_switch_dense(self):
        assert out("""
            char *name(int d) {
                switch (d) {
                case 0: return "zero";
                case 1: return "one";
                case 2: return "two";
                case 3: return "three";
                default: return "many";
                }
            }
            int main(void) {
                int i;
                for (i = 0; i < 5; i++) { print_s(name(i)); print_nl(); }
                return 0;
            }
        """) == "zero\none\ntwo\nthree\nmany\n"

    def test_switch_fallthrough(self):
        assert out("""
            int main(void) {
                int count = 0;
                int x = 1;
                switch (x) {
                case 0: count += 1;
                case 1: count += 10;
                case 2: count += 100; break;
                case 3: count += 1000;
                }
                print_i(count); print_nl();
                return 0;
            }
        """) == "110\n"

    def test_switch_sparse(self):
        assert out("""
            int f(int x) {
                switch (x) {
                case 1: return 10;
                case 100: return 20;
                case 10000: return 30;
                }
                return -1;
            }
            int main(void) {
                print_i(f(1) + f(100) + f(10000) + f(5)); print_nl();
                return 0;
            }
        """) == "59\n"

    def test_deep_recursion(self):
        assert out("""
            int depth(int n) {
                if (n == 0) return 0;
                return 1 + depth(n - 1);
            }
            int main(void) { print_i(depth(300)); print_nl(); return 0; }
        """) == "300\n"

    def test_goto_free_state_machine(self):
        assert out("""
            int main(void) {
                int state = 0, steps = 0;
                while (state != 3) {
                    if (state == 0) state = 2;
                    else if (state == 2) state = 1;
                    else state = 3;
                    steps++;
                }
                print_i(steps); print_nl();
                return 0;
            }
        """) == "3\n"


class TestMemoryAndPointers:
    def test_global_arrays(self):
        assert out("""
            int grid[4][8];
            int main(void) {
                int i, j, total = 0;
                for (i = 0; i < 4; i++)
                    for (j = 0; j < 8; j++)
                        grid[i][j] = i * 10 + j;
                for (i = 0; i < 4; i++) total += grid[i][7];
                print_i(total); print_nl();
                return 0;
            }
        """) == "88\n"

    def test_pointer_arithmetic(self):
        assert out("""
            int data[5] = {10, 20, 30, 40, 50};
            int main(void) {
                int *p = data;
                print_i(*(p + 2)); print_nl();
                p += 4;
                print_i(*p); print_nl();
                print_i((int)(p - data)); print_nl();
                return 0;
            }
        """) == "30\n50\n4\n"

    def test_address_of_local(self):
        assert out("""
            void set(int *p, int v) { *p = v; }
            int main(void) {
                int x = 1;
                set(&x, 42);
                print_i(x); print_nl();
                return 0;
            }
        """) == "42\n"

    def test_local_array_init_list(self):
        assert out("""
            int main(void) {
                int v[4] = {3, 1, 4, 1};
                int i, total = 0;
                for (i = 0; i < 4; i++) total = total * 10 + v[i];
                print_i(total); print_nl();
                return 0;
            }
        """) == "3141\n"

    def test_string_operations(self):
        assert out("""
            int main(void) {
                char buf[32];
                strcpy(buf, "hello");
                strcat(buf, ", world");
                print_i((int)strlen(buf)); print_nl();
                print_s(buf); print_nl();
                print_i(strcmp(buf, "hello, world")); print_nl();
                return 0;
            }
        """) == "12\nhello, world\n0\n"

    def test_malloc_free_reuse(self):
        assert out("""
            int main(void) {
                int *a = (int *)malloc(64);
                int i;
                for (i = 0; i < 16; i++) a[i] = i;
                print_i(a[15]); print_nl();
                free((void *)a);
                {
                    int *b = (int *)malloc(32);
                    /* first-fit reuses the freed block */
                    print_i((int)(b == a)); print_nl();
                    b[0] = 7;
                    print_i(b[0]); print_nl();
                }
                return 0;
            }
        """) == "15\n1\n7\n"

    def test_calloc_zeroes_recycled(self):
        assert out("""
            int main(void) {
                int *a = (int *)malloc(64);
                a[0] = 12345;
                free((void *)a);
                {
                    int *b = (int *)calloc(16, 4);
                    print_i(b[0]); print_nl();
                }
                return 0;
            }
        """) == "0\n"

    def test_memcpy_memcmp_memset(self):
        assert out("""
            char a[16];
            char b[16];
            int main(void) {
                memset((void *)a, 7, 16);
                memcpy((void *)b, (void *)a, 16);
                print_i(memcmp((void *)a, (void *)b, 16)); print_nl();
                b[9] = 8;
                print_i(memcmp((void *)a, (void *)b, 16) < 0); print_nl();
                return 0;
            }
        """) == "0\n1\n"

    def test_2d_array_through_pointer(self):
        assert out("""
            double m[3][3];
            int main(void) {
                int i, j;
                for (i = 0; i < 3; i++)
                    for (j = 0; j < 3; j++)
                        m[i][j] = (double)(i * 3 + j);
                print_f(m[2][2] + m[1][0]); print_nl();
                return 0;
            }
        """) == "11.000000\n"

    def test_memmove_overlap(self):
        assert out("""
            char buf[16] = "abcdefgh";
            int main(void) {
                memmove((void *)(buf + 2), (void *)buf, 6);
                buf[8] = 0;
                print_s(buf); print_nl();
                return 0;
            }
        """) == "ababcdef\n"


class TestScratchSlots:
    """A compound assignment to memory keeps its target's address in a
    scratch local while its value is generated; a value that itself
    increments or compound-assigns through memory (every variable lives
    in memory at -O0) must not reuse that local."""

    SOURCE = """
        int a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        int b[8] = {0, 10, 20, 30, 40, 50, 60, 70};
        int main(void) {
            int t = 0;
            int *p = a;
            int i = 0;
            int n = 8;
            %s
            print_i(t); print_nl();
            return 0;
        }
    """

    @pytest.mark.parametrize("opt", [0, 1, 2, 3])
    @pytest.mark.parametrize("body, expected", [
        ("while (n--) t += *p++;", "36"),
        ("while (n--) t += *(p++);", "36"),
        ("while (n--) t += a[i++];", "36"),
        ("while (n--) t -= *p++;", "-36"),
        # Agreement across -O levels cannot catch this one: before the
        # fix every level stored the sum into a[j] and printed 280.
        ("for (int j = 0; j < 8; j++) { b[j] += (a[j] += 1); t += b[j]; }",
         "324"),
    ], ids=["deref-postinc", "paren-postinc", "index-postinc",
            "minus-postinc", "nested-compound"])
    def test_value_with_side_effects(self, everywhere, body, expected, opt):
        results = everywhere(self.SOURCE % body, opt_level=opt)
        for name, res in results.items():
            assert res.trap is None, (name, res.trap)
            assert res.stdout_text() == expected + "\n", name


class TestFunctionPointers:
    def test_qsort_with_comparator(self):
        assert out("""
            int values[8] = {42, 7, 19, 3, 88, 1, 55, 26};
            int cmp_int(void *a, void *b) {
                return *(int *)a - *(int *)b;
            }
            int main(void) {
                int i;
                qsort((void *)values, 8u, 4u, cmp_int);
                for (i = 0; i < 8; i++) { print_i(values[i]); putchar(' '); }
                print_nl();
                return 0;
            }
        """) == "1 3 7 19 26 42 55 88 \n"

    def test_function_pointer_dispatch(self):
        assert out("""
            int add(int a, int b) { return a + b; }
            int mul(int a, int b) { return a * b; }
            int apply(int (*op)(int, int), int x, int y) {
                return op(x, y);
            }
            int main(void) {
                int (*f)(int, int) = add;
                print_i(apply(f, 3, 4)); print_nl();
                f = mul;
                print_i(apply(f, 3, 4)); print_nl();
                print_i(apply(add, 10, apply(mul, 2, 5))); print_nl();
                return 0;
            }
        """) == "7\n12\n20\n"

    def test_function_pointer_table(self):
        assert out("""
            int inc(int x) { return x + 1; }
            int dec(int x) { return x - 1; }
            int dbl(int x) { return x * 2; }
            int (*ops[3])(int);
            int main(void) {
                int v = 10, i;
                ops[0] = inc; ops[1] = dbl; ops[2] = dec;
                for (i = 0; i < 3; i++) v = ops[i](v);
                print_i(v); print_nl();
                return 0;
            }
        """) == "21\n"


class TestLibm:
    def test_sqrt_pow_exp_log(self):
        text = out("""
            int main(void) {
                print_f(sqrt(16.0)); print_nl();
                print_f(pow(2.0, 10.0)); print_nl();
                print_f(pow(2.0, 0.5)); print_nl();
                print_f(exp(0.0)); print_nl();
                print_f(log(exp(3.0))); print_nl();
                return 0;
            }
        """)
        lines = text.splitlines()
        assert lines[0] == "4.000000"
        assert lines[1] == "1024.000000"
        assert abs(float(lines[2]) - 2 ** 0.5) < 1e-5
        assert lines[3] == "1.000000"
        assert abs(float(lines[4]) - 3.0) < 5e-5

    def test_trig(self):
        import math
        text = out("""
            int main(void) {
                print_f(sin(0.5)); print_nl();
                print_f(cos(0.5)); print_nl();
                print_f(atan(1.0)); print_nl();
                print_f(atan2(1.0, -1.0)); print_nl();
                return 0;
            }
        """)
        values = [float(x) for x in text.split()]
        assert abs(values[0] - math.sin(0.5)) < 1e-6
        assert abs(values[1] - math.cos(0.5)) < 1e-6
        assert abs(values[2] - math.pi / 4) < 1e-6
        assert abs(values[3] - 3 * math.pi / 4) < 1e-6

    def test_floor_ceil_fmod(self):
        assert out("""
            int main(void) {
                print_f(floor(2.7)); print_nl();
                print_f(ceil(2.1)); print_nl();
                print_f(fmod(7.5, 2.0)); print_nl();
                print_f(fabs(-3.25)); print_nl();
                return 0;
            }
        """) == "2.000000\n3.000000\n1.500000\n3.250000\n"

    def test_rand_deterministic(self):
        text = out("""
            int main(void) {
                int i;
                srand(42);
                for (i = 0; i < 3; i++) { print_i(rand()); putchar(' '); }
                print_nl();
                return 0;
            }
        """)
        assert text == out("""
            int main(void) {
                int i;
                srand(42);
                for (i = 0; i < 3; i++) { print_i(rand()); putchar(' '); }
                print_nl();
                return 0;
            }
        """)


class TestFileIO:
    def test_read_input_file(self):
        text = out("""
            int main(void) {
                char buf[64];
                int fd = open_read("input.txt");
                int n = read_bytes(fd, buf, 63);
                buf[n] = 0;
                print_i(n); print_nl();
                print_s(buf); print_nl();
                close_fd(fd);
                return 0;
            }
        """, files={"input.txt": b"hello file"})
        assert text == "10\nhello file\n"

    def test_write_then_read_back(self):
        assert out("""
            int main(void) {
                char buf[16];
                int fd = open_write("out.bin");
                write_bytes(fd, "abc", 3);
                close_fd(fd);
                fd = open_read("out.bin");
                {
                    int n = read_bytes(fd, buf, 16);
                    buf[n] = 0;
                    print_s(buf); print_nl();
                }
                return 0;
            }
        """) == "abc\n"

    def test_seek(self):
        assert out("""
            int main(void) {
                char buf[8];
                int fd = open_read("data.txt");
                seek_fd(fd, 6l, 0);
                {
                    int n = read_bytes(fd, buf, 5);
                    buf[n] = 0;
                    print_s(buf); print_nl();
                }
                return 0;
            }
        """, files={"data.txt": b"01234567890"}) == "67890\n"

    def test_missing_file(self):
        assert out("""
            int main(void) {
                print_i(open_read("nope.txt")); print_nl();
                return 0;
            }
        """) == "-1\n"


class TestOptimizationSoundness:
    SOURCE = """
        int poly[6] = {3, -1, 4, 1, -5, 9};
        unsigned int hash = 2166136261u;
        int main(void) {
            int i;
            long total = 0l;
            for (i = 0; i < 6; i++) {
                total += (long)(poly[i] * poly[(i + 1) % 6]);
                hash = (hash ^ (unsigned int)poly[i]) * 16777619u;
            }
            total += (long)(10 * 4 + 3);   /* const-foldable */
            total *= 8l;                    /* strength-reducible */
            print_l(total); print_nl();
            print_x(hash); print_nl();
            return 0;
        }
    """

    @pytest.mark.parametrize("opt", [0, 1, 2, 3])
    def test_same_output_at_every_level(self, opt):
        reference = run_native_quick(self.SOURCE, opt_level=2).stdout
        assert run_native_quick(self.SOURCE, opt_level=opt).stdout == reference
        assert run_wamr(self.SOURCE, opt_level=opt).stdout == reference

    def test_o2_emits_fewer_instructions_than_o0(self):
        o0 = compile_source(self.SOURCE, opt_level=0)
        o2 = compile_source(self.SOURCE, opt_level=2)
        assert o2.instruction_count < o0.instruction_count

    def test_unrolling_applies_at_o3(self):
        source = """
            int a[4];
            int main(void) {
                int total = 0;
                for (int i = 0; i < 4; i++) { total += i * 2; }
                print_i(total); print_nl();
                return 0;
            }
        """
        r3 = compile_source(source, opt_level=3)
        assert r3.midend_stats["unroll"] >= 1
        assert run_wamr(source, opt_level=3).stdout_text() == "12\n"


class TestDiagnostics:
    def test_undefined_function_is_link_error(self):
        with pytest.raises(CompileError):
            compile_source("int main(void) { return missing(); }")

    def test_unreachable_undefined_function_ok(self):
        # Declared but never called: fine (libc itself declares plenty).
        compile_source("int helper(int); int main(void) { return 0; }")

    def test_entry_required(self):
        with pytest.raises(CompileError):
            compile_source("int helper(void) { return 1; }")

    def test_bad_opt_level(self):
        with pytest.raises(CompileError):
            compile_source("int main(void){return 0;}", opt_level=7)


# ---------------------------------------------------------------------------
# libc prelude: a compile parses only the libc declarations the program
# reaches, and must come out exactly as if the libc text stood in front
# of the program (the ``include_libc=False`` whole-text path).
# ---------------------------------------------------------------------------

TARGETS = {"wasm": {}, "native": {"TARGET_NATIVE": "1"}}


def _outcome(source, opt_level, defines, **kw):
    try:
        result = compile_source(source, opt_level, defines, **kw)
    except CompileError as exc:
        return type(exc).__name__, str(exc)
    return result.wasm_bytes, result.module


def assert_prelude_matches_whole_text(source, opt_level=2, defines=None,
                                      entry="main"):
    got = _outcome(source, opt_level, defines, entry=entry)
    want = _outcome(LIBC_SOURCE + "\n" + source, opt_level, defines,
                    entry=entry, include_libc=False)
    assert got == want


def _sized(bench, size, target):
    return {**bench.defines_for(size), **TARGETS[target]}


@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("opt", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ["quicksort", "gemm", "fscan_io",
                                  "state_svc"])
def test_prelude_matches_whole_text(name, opt, target):
    bench = get_benchmark(name)
    assert_prelude_matches_whole_text(bench.source, opt,
                                      _sized(bench, "test", target))


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", fuzz_seeds(20, salt=14))
def test_prelude_matches_whole_text_fuzz(seed):
    source = generate_program(seed).source
    for opt in (0, 2):
        for target in TARGETS.values():
            assert_prelude_matches_whole_text(source, opt, target)


EDGE_PROGRAMS = {
    # Same name, other signature / same signature: the libc's
    # declaration must be parsed for sema to reject the program's.
    "conflicting-libc-function": """
        int strlen(char *s) { return 0; }
        int main(void) { return strlen("x"); }
    """,
    "redefined-libc-function": """
        unsigned int strlen(char *s) { return 0u; }
        int main(void) { return (int)strlen("x"); }
    """,
    "libc-function-only-by-address": """
        int main(void) {
            double (*f)(double) = sqrt;
            int (*g)(int) = &abs;
            print_f(f(2.0)); print_i(g(-3)); print_nl();
            return 0;
        }
    """,
    # A global named like a libc function changes what that name means
    # in every libc function that calls it, reached or not.
    "global-shadows-libc-function": """
        int strlen = 5;
        int main(void) { return strlen; }
    """,
    "function-shadows-builtin": """
        void __builtin_sqrt(void) {}
        int main(void) { print_i(7); print_nl(); return 0; }
    """,
    # A macro that calloc's text expands, changed by the program itself.
    "program-redefines-libc-macro": """
        #define TARGET_NATIVE 1
        int main(void) { char *p = calloc(4u, 8u); return p != 0; }
    """,
    "program-undefines-libc-macro": """
        #undef TARGET_NATIVE
        int main(void) { char *p = calloc(4u, 8u); return p != 0; }
    """,
    "lexer-error": "int main(void) { return 0 @ 1; }",
    "undeclared-identifier": "int main(void) {\n    return nope;\n}",
}


@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
def test_prelude_matches_whole_text_edge_programs(name, target):
    assert_prelude_matches_whole_text(EDGE_PROGRAMS[name],
                                      defines=TARGETS[target])


def test_prelude_matches_whole_text_non_main_entry():
    source = "int start(void) { print_i(7); print_nl(); return 0; }"
    assert_prelude_matches_whole_text(source, entry="start")
    assert_prelude_matches_whole_text(source, entry="print_nl")


@pytest.mark.parametrize("extra", [[], ["--analyze"]])
def test_wasicc_reports_errors_at_the_user_line(tmp_path, capsys, extra):
    source = "int main(void) {\n    int x = 1\n    return x;\n}\n"
    path = tmp_path / "broken.c"
    path.write_text(source)
    assert wasicc_main([str(path)] + extra) == 2
    assert capsys.readouterr().err == \
        "wasicc: 3:5: expected ';', got kw 'return'\n"
    # The frontend numbers the program's lines behind the libc.
    with pytest.raises(CompileError) as whole:
        compile_source(LIBC_SOURCE + "\n" + source, include_libc=False)
    assert str(whole.value) == \
        f"{3 + LIBC_PRELUDE.line_offset}:5: expected ';', got kw 'return'"


def test_libc_split_ignores_size_defines():
    relevant = LIBC_PRELUDE.relevant({"TARGET_NATIVE": "0", "N": "64",
                                      "ITERATIONS": "3"})
    assert relevant == (("TARGET_NATIVE", "0"),)


def test_compile_parses_only_reached_libc_declarations():
    source = "int main(void) { print_i(strlen(\"ab\")); return 0; }"
    names = {f.name for f in compile_source(source).unit.functions}
    assert {"main", "strlen", "print_i", "__libc_init",
            "__libc_shutdown"} <= names
    assert not names & {"qsort", "malloc", "sin", "open_read"}


@pytest.mark.slow
@pytest.mark.parametrize("bench", ALL_BENCHMARKS + IO_BENCHMARKS +
                         SERVICE_BENCHMARKS, ids=lambda b: b.name)
def test_prelude_matches_whole_text_full_suite(bench):
    for size in ("test", "small"):
        for opt in (0, 1, 2, 3):
            for target in sorted(TARGETS):
                assert_prelude_matches_whole_text(
                    bench.source, opt, _sized(bench, size, target))


@pytest.mark.slow
@pytest.mark.parametrize("bench", ALL_BENCHMARKS + IO_BENCHMARKS +
                         SERVICE_BENCHMARKS, ids=lambda b: b.name)
def test_native_stdout_agrees_across_opt_levels(bench):
    """Optimization must never change what a program prints."""
    harness = Harness(size="test", benchmarks=[bench.name])
    stdout = {opt: harness.run(bench.name, "native", opt).stdout
              for opt in (0, 1, 2, 3)}
    assert len(set(stdout.values())) == 1, stdout
