"""Differential harness for the closure-compiled tier (REPRO_SPEED=2).

The closure tier is a template JIT of the model itself, so its failure
mode is the worst kind: plausible numbers that are subtly wrong.  Every
check here is therefore *differential* — the closure tier must produce
byte-identical ``RunResult.to_json()`` output (counters, traps, stdout,
span trees) to the ``REPRO_SPEED=0`` reference, across engines, ``-O``
levels, fuzz-generated programs, and the trap seed set.  Tier 2 runs
the reference loop until a function is hot, so the sweeps also run it
in two forced modes (:func:`forced`): *eager* compiles every function
at its first call, *OSR* never promotes on calls and moves every frame
from the reference loop into its closure at its first backward branch.
Guards check that tier 0 and observed runs never leave the reference
loop, and that only hot functions are predecoded and compiled.  Plus
the artifacts ``--jobs`` workers share through the store and strict
parsing of the tier knob.

Run the sweep locally with a different seed base:
``REPRO_FUZZ_SEED=1234 python -m pytest tests/test_closures.py``.
"""

import contextlib
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import speed
from repro.analysis.audit import DynamicProfile
from repro.bench import get as get_bench, io_names
from repro.compiler import compile_source
from repro.errors import HarnessError, Trap
from repro.fuzz import CellRunner, normalize_trap
from repro.fuzz.campaign import run_campaign
from repro.fuzz.generator import generate_module, generate_program
from repro.harness import Harness
from repro.harness.cli import main as wabench_main
from repro.harness.parallel import run_cells
from repro.hw import BranchConfig, CPUModel, MachineConfig
from repro.isa.memory import LinearMemory
from repro.runtimes import make_runtime
from repro.runtimes.base import RunPipeline
from repro.runtimes.interp.engine import (THREADED_PROFILE, Interpreter,
                                          prepare_function)
from repro.speed import closures, modcache
from repro.speed.modcache import ModuleCache, ModuleEntry

from .conftest import fuzz_seeds
from .test_trap_equivalence import TRAP_PROGRAMS

#: Tier-2 hotness modes every forced sweep runs besides the default.
FORCED_MODES = ("eager", "osr")


@contextlib.contextmanager
def forced(mode):
    """Run tier 2 with every function compiled at its first call
    (``eager``) or entered only by OSR at a frame's first backward
    branch (``osr``)."""
    with pytest.MonkeyPatch.context() as mp:
        if mode == "eager":
            mp.setattr(modcache, "HOT_CALLS", 1)
        else:
            mp.setattr(modcache, "HOT_CALLS", math.inf)
            mp.setattr(modcache, "HOT_BACKEDGES", 1)
        yield


@pytest.fixture(autouse=True)
def _closure_layer_reset():
    """Each test starts at the closure tier with a cold module cache and
    an empty code memo, so a test that counts compiles starts cold."""
    def reset():
        speed.set_tier(2)
        speed.module_cache.clear()
        speed.memo_clear()
    reset()
    yield
    reset()


# ---------------------------------------------------------------------------
# Interpreter-level equivalence: reference vs closures on seeded random
# Wasm modules, down to every modeled counter.
# ---------------------------------------------------------------------------


def _counters_dict(cpu):
    c = cpu.counters
    d = {"instructions": c.instructions, "stall_cycles": c.stall_cycles,
         "branches": c.branches, "branch_misses": c.branch_misses}
    for name in ("l1i", "l1d", "l2", "l3"):
        stats = getattr(c, name)
        d[name] = (stats.refs, stats.misses)
    return d


def _model_state(cpu):
    """The whole model state a run leaves behind, which no RunResult
    field shows: every cache set's line-to-tick map and each cache's
    clock, the gshare table and history, and the indirect predictor's
    target history and BTB, ITC and chooser tables (plus the RAS).  A
    closure defers L1I tick stores to the end of a run of ops, so this
    is what catches a trap site that forgets to write them."""
    caches = cpu.caches
    branches = cpu.branches
    state = {name: ({index: dict(lines) for index, lines
                     in getattr(caches, name).sets.items() if lines},
                    getattr(caches, name).tick)
             for name in ("l1i", "l1d", "l2", "l3")}
    state["gshare"] = (bytes(branches._gshare), branches._history)
    state["indirect"] = (branches._target_history, list(branches._btb),
                         list(branches._itc), list(branches._meta))
    state["ras"] = list(branches._ras)
    return state


@contextlib.contextmanager
def pipeline_states():
    """Record the model state (:func:`_model_state`) every
    ``RunPipeline`` leaves behind, in run order."""
    states = []
    run = RunPipeline.run

    def spy(self):
        result = run(self)
        states.append(_model_state(self.cpu))
        return result
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RunPipeline, "run", spy)
        yield states


def _interp_run(module, args, tier):
    prepared = []
    for i, func in enumerate(module.functions):
        prepared.append(("wasm", prepare_function(module, func, i)))
    cpu = CPUModel()
    mem = LinearMemory(1)
    interp = Interpreter(THREADED_PROFILE, cpu, mem, [], [], prepared)
    interp.set_signatures(module)
    if tier >= 2:
        entry = ModuleEntry("test", module, None)
        entry.prepared = prepared
        interp.closure_code = ModuleCache().closure_code(
            entry, THREADED_PROFILE, cpu)
    trap = None
    value = None
    try:
        value = interp.call_index(0, args)
    except Trap as exc:
        trap = str(exc)
    return (value, trap, bytes(mem.data[:4096]), _counters_dict(cpu),
            _model_state(cpu))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       a=st.integers(min_value=0, max_value=2**32 - 1),
       b=st.integers(min_value=0, max_value=2**32 - 1))
def test_interp_equivalence_hypothesis(seed, a, b):
    module = generate_module(seed)
    ref = _interp_run(module, (a, b), tier=0)
    closure = _interp_run(module, (a, b), tier=2)
    assert closure == ref
    for mode in FORCED_MODES:
        with forced(mode):
            assert _interp_run(module, (a, b), tier=2) == ref, mode


@pytest.mark.parametrize("seed", fuzz_seeds(8, salt=0xC105))
def test_interp_equivalence_seeded(seed):
    module = generate_module(seed)
    ref = _interp_run(module, (7, 13), tier=0)
    closure = _interp_run(module, (7, 13), tier=2)
    assert closure == ref
    for mode in FORCED_MODES:
        with forced(mode):
            assert _interp_run(module, (7, 13), tier=2) == ref, mode


# ---------------------------------------------------------------------------
# Pipeline-level differential sweep: fuzz-generated MiniC programs,
# engines x -O levels x tiers, full RunResult byte-identity.
# ---------------------------------------------------------------------------

SWEEP_ENGINES = ("wasm3", "wamr", "wasmtime")
SWEEP_OPTS = (0, 2)


def _tier_result(runner, source, engine, opt, tier):
    """The cell's RunResult JSON and the model state it left."""
    speed.set_tier(tier)
    speed.module_cache.clear()
    try:
        with pipeline_states() as states:
            result = runner.run_cell(source, engine, opt, use_cache=False)
        return result.to_json(), states[-1]
    finally:
        speed.set_tier(2)


@pytest.mark.parametrize("seed", fuzz_seeds(6, salt=0xD1FF))
def test_differential_sweep_generated_programs(seed):
    source = generate_program(seed, size_budget=16).source
    runner = CellRunner()
    for engine in SWEEP_ENGINES:
        for opt in SWEEP_OPTS:
            ref = _tier_result(runner, source, engine, opt, tier=0)
            closure = _tier_result(runner, source, engine, opt, tier=2)
            assert closure == ref, f"{engine} -O{opt} tier 2 diverged"


@pytest.mark.parametrize("name", sorted(TRAP_PROGRAMS))
def test_differential_trap_programs(name):
    """The trap seed set: same trap kind AND byte-identical results and
    model state on the interpreters where the closure tier runs."""
    source, expected_kind = TRAP_PROGRAMS[name]
    runner = CellRunner()
    for engine in ("wasm3", "wamr"):
        ref = _tier_result(runner, source, engine, 2, tier=0)
        closure = _tier_result(runner, source, engine, 2, tier=2)
        assert closure == ref, f"{name} on {engine} diverged"
        for mode in FORCED_MODES:
            with forced(mode):
                closure = _tier_result(runner, source, engine, 2, tier=2)
            assert closure == ref, f"{name} on {engine} ({mode}) diverged"
        result = runner.run_cell(source, engine, 2, use_cache=False)
        assert normalize_trap(result.trap) == expected_kind


@pytest.mark.slow
@pytest.mark.parametrize("engine", ("wasm3", "wamr"))
def test_full_suite_equivalence(engine):
    """Every WABench program, byte-identical between the reference and
    tier 2 in forced-OSR mode, where every looping frame starts in the
    reference loop and finishes in its closure (the fast sweeps above
    cover the other modes), down to the whole model state."""
    def suite(tier):
        speed.set_tier(tier)
        speed.module_cache.clear()
        harness = Harness(size="test")
        out = {}
        for name in harness.benchmark_names:
            with pipeline_states() as states:
                result = harness.run(name, engine).to_json()
            out[name] = (result, states[-1])
        return out

    ref = suite(0)
    with forced("osr"):
        closure = suite(2)
    diverged = [n for n in ref if closure[n][0] != ref[n][0]]
    assert not diverged, f"tier 2 (osr) diverged on: {diverged}"
    diverged = [n for n in ref if closure[n][1] != ref[n][1]]
    assert not diverged, f"tier 2 (osr) model state diverged on: {diverged}"


@pytest.mark.parametrize("engine", SWEEP_ENGINES)
def test_io_suite_equivalence(engine):
    """The I/O-bound WABench class, byte-identical between tiers 0 and
    2 in every hotness mode.  These programs are WASI-heavy, so any tier
    that priced or ordered host calls differently would diverge here
    first."""
    def suite(tier):
        speed.set_tier(tier)
        speed.module_cache.clear()
        harness = Harness(size="test", benchmarks=list(io_names()))
        return {name: harness.run(name, engine).to_json()
                for name in io_names()}

    ref = suite(0)
    closure = suite(2)
    diverged = [n for n in ref if closure[n] != ref[n]]
    assert not diverged, f"tier 2 diverged on: {diverged}"
    for mode in FORCED_MODES:
        with forced(mode):
            closure = suite(2)
        diverged = [n for n in ref if closure[n] != ref[n]]
        assert not diverged, f"tier 2 ({mode}) diverged on: {diverged}"


#: (indirect_bits, gshare_bits, history_bits): the default geometry,
#: the predictor ablation's two other table sizes, and a non-default
#: gshare.
GEOMETRIES = ((10, 14, 12), (7, 14, 12), (14, 14, 12), (10, 11, 9))


def test_closure_tables_follow_predictor_geometry():
    """One module run in one process under several predictor geometries,
    as ``benchmarks/test_ablation_predictor.py`` does.  The generated
    code holds the predictor masks as literals, so each geometry needs
    its own closure table; every run must equal tier 0 in every hotness
    mode."""
    bench = get_bench("quicksort")
    wasm = compile_source(bench.source, opt_level=2,
                          defines=bench.defines_for("test")).wasm_bytes

    def run(tier, geometry):
        indirect, gshare, history = geometry
        config = MachineConfig(branch=BranchConfig(
            indirect_bits=indirect, gshare_bits=gshare,
            history_bits=history))
        speed.set_tier(tier)
        try:
            with pipeline_states() as states:
                result = make_runtime("wasm3").run(wasm, config=config)
        finally:
            speed.set_tier(2)
        return result.to_json(), states[-1]

    refs = {geometry: run(0, geometry) for geometry in GEOMETRIES}
    for mode in ("default",) + FORCED_MODES:
        speed.module_cache.clear()
        with contextlib.ExitStack() as stack:
            if mode != "default":
                stack.enter_context(forced(mode))
            for geometry in GEOMETRIES:
                assert run(2, geometry) == refs[geometry], (mode, geometry)
        tables = [table for entry in speed.module_cache._mem.values()
                  for table in entry._closures.values()]
        assert any(table._code for table in tables), mode


# ---------------------------------------------------------------------------
# Lazy compilation: only hot functions are predecoded and get a closure,
# a kernel called once reaches its closure by OSR, and nothing leaves the
# reference loop at tier 0 or under an observer.
# ---------------------------------------------------------------------------


def test_fuzz_campaign_compiles_fewer_functions_than_it_runs(monkeypatch):
    predecoded = []

    def spy(prepared, profile, line_shift):
        predecoded.extend((id(entry[1]), profile.name, line_shift)
                          for entry in prepared if entry is not None)
        return predecode(prepared, profile, line_shift)

    predecode = closures.predecode_functions
    monkeypatch.setattr(closures, "predecode_functions", spy)
    report = run_campaign(3, budget=1)
    assert report.cells_run
    tables = [table for entry in speed.module_cache._mem.values()
              for table in entry._closures.values()]
    ran = sum(len(t._calls) for t in tables)
    compiled = sorted((id(t._prepared[index][1]), t._profile.name,
                       t._line_shift)
                      for t in tables for index in t._code)
    assert 0 < len(compiled) < ran, (len(compiled), ran)
    # Predecoding ran once per compiled function, and for no other.
    assert sorted(predecoded) == compiled


def test_gemm_small_reaches_its_closure_by_osr(monkeypatch):
    """``kernel_gemm`` is called once from ``main``: only OSR gets its
    loop nest out of the reference loop."""
    entered = []

    def spy(interp, func, *rest):
        entered.append((interp.closure_code, func.index))
        return osr(interp, func, *rest)

    osr = Interpreter._osr
    monkeypatch.setattr(Interpreter, "_osr", spy)
    Harness(size="small", benchmarks=["gemm"]).run("gemm", "wasm3")
    called_once = [index for code, index in entered
                   if code._calls[index] == 1]
    assert called_once, entered


@pytest.mark.parametrize("engine", ("wasm3", "wamr"))
def test_reference_runs_stay_in_the_reference_loop(engine, monkeypatch):
    """At tier 0, and at tier 2 with an opcode observer attached, no
    closure is bound and no frame moves by OSR; the same ``gemm`` run
    at tier 2 without the observer does both."""
    entered = []

    def spy(name, fn):
        def wrapper(*args):
            entered.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(closures, "bind_bundle",
                        spy("bind", closures.bind_bundle))
    monkeypatch.setattr(Interpreter, "_osr", spy("osr", Interpreter._osr))
    bench = get_bench("gemm")
    wasm = compile_source(bench.source, opt_level=2,
                          defines=bench.defines_for("small")).wasm_bytes

    speed.set_tier(0)
    make_runtime(engine).run(wasm)
    speed.set_tier(2)
    observed = make_runtime(engine)
    observed.instr_profile = DynamicProfile()
    observed.run(wasm)
    assert entered == []

    make_runtime(engine).run(wasm)
    assert "bind" in entered and "osr" in entered, entered


# ---------------------------------------------------------------------------
# The code memo: closure source names no function index, so one body
# compiles once per process and binds per module.
# ---------------------------------------------------------------------------


def _wasm_compiles(monkeypatch):
    """The filenames of the Wasm closures ``compile()`` is called for
    from now on."""
    calls = []

    def counting_compile(*args):
        if args[1] == "<speed-closure>":
            calls.append(args[1])
        return compile(*args)

    monkeypatch.setattr(speed, "compile", counting_compile, raising=False)
    return calls


@contextlib.contextmanager
def bound_closures():
    """Every Wasm closure ``bind_bundle`` returns, in bind order."""
    bound = []
    bind = closures.bind_bundle

    def spy(bundle):
        code = bind(bundle)
        bound.extend(code.values())
        return code
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(closures, "bind_bundle", spy)
        yield bound


def test_rebuilt_module_binds_memoized_code(monkeypatch):
    """A module decoded again (as every fuzz program's libc is) binds
    the code its first closures compiled: the second run calls
    compile() for no Wasm closure."""
    calls = _wasm_compiles(monkeypatch)
    first = Harness(size="test").run("crc32", "wasm3").to_json()
    assert calls
    calls.clear()
    speed.module_cache.clear()
    second = Harness(size="test").run("crc32", "wasm3").to_json()
    assert calls == [] and second == first


def test_fuzz_campaign_compiles_each_closure_source_once(monkeypatch):
    """The budget-8 campaign at base seed 49 (hostbench's ``fuzz_cold``
    at seed 1) binds 104 Wasm closures whose index-free sources are 22
    distinct texts, mostly libc functions that every program shares."""
    calls = _wasm_compiles(monkeypatch)
    with bound_closures() as bound:
        run_campaign(49, budget=8)
    assert len(calls) <= 22 < len(bound), (len(calls), len(bound))


#: One function body (``NAME``) in two modules.  The second defines
#: ``bump`` ahead of it, so there it sits one function index later, under
#: another name, and its last call walks out of memory inside it, while
#: two of its frames are on the RAS (``deep`` calls back into it) and its
#: ``call_indirect`` reaches another function through table slot 1.
SHARED_BODY = """
int NAME(int *p, int n, int d, int (*f)(int));
int mix(int x) { int y = x * 31; return y + 7; }
int deep(int *p, int n, int d, int (*f)(int)) {
    int s = NAME(p, n, d, f);
    return s + 1;
}
EXTRA
int NAME(int *p, int n, int d, int (*f)(int)) {
    int s = 0;
    int i;
    if (d > 0) s = deep(p, n, d - 1, f);
    for (i = 0; i < n; i++) s = f(mix(s)) ^ p[i * 16];
    return s;
}
int data[256];
int main(void) {
    int t = 0;
    int k;
    for (k = 0; k < 12; k++) t = t + NAME(data, 16, 2, FP);
    print_i(t); print_nl();
    print_i(NAME(data, LIMIT, 2, FP)); print_nl();
    return 0;
}
"""
SHARED_PAIR = {
    "a": (SHARED_BODY.replace("NAME", "scan").replace("EXTRA", "")
          .replace("FP", "mix").replace("LIMIT", "16"), "scan"),
    "b": (SHARED_BODY.replace("NAME", "walk")
          .replace("EXTRA", "int bump(int x) { int y = x + 5; "
                   "return y ^ 3; }")
          .replace("FP", "bump").replace("LIMIT", str(1 << 20)), "walk"),
}


def _engine_name(source, name):
    """The name engines give MiniC function ``name`` (a compiled module
    has no name section): ``f`` and its function index."""
    module = compile_source(source, opt_level=2).module
    names = [func.name for func in module.functions]
    return f"f{module.num_imported_funcs + names.index(name)}"


def _closure_named(bound, name):
    return next(fn for fn in bound if fn.__globals__["FN"] == name)


def test_function_body_compiles_once_at_two_indices(monkeypatch):
    """The shared body binds one code object in both modules, and each
    module calls compile() once per code object the memo lacked."""
    names = {key: _engine_name(*SHARED_PAIR[key]) for key in SHARED_PAIR}
    assert names["a"] != names["b"]
    calls = _wasm_compiles(monkeypatch)
    seen, shared = set(), {}
    for key in ("a", "b"):
        wasm = compile_source(SHARED_PAIR[key][0], opt_level=2).wasm_bytes
        calls.clear()
        with bound_closures() as bound:
            make_runtime("wasm3").run(wasm)
        codes = {fn.__code__ for fn in bound}
        assert len(calls) == len(codes - seen), key
        seen |= codes
        shared[key] = _closure_named(bound, names[key]).__code__
    assert shared["b"] is shared["a"]


@pytest.mark.parametrize("mode", ("default",) + FORCED_MODES)
def test_shared_code_binds_per_module(mode):
    """Module B binds the code compiled for module A's copy of the body
    and traps out of bounds inside it: the trap text names B's function,
    and B's result and whole model state, the RAS included, equal
    tier 0's."""
    runner = CellRunner()
    (source_a, name_a), (source_b, name_b) = (SHARED_PAIR["a"],
                                              SHARED_PAIR["b"])
    ref = _tier_result(runner, source_b, "wasm3", 2, tier=0)
    assert f"{_engine_name(source_b, name_b)}: load at" in ref[0]
    with contextlib.ExitStack() as stack:
        if mode != "default":
            stack.enter_context(forced(mode))
        bound = stack.enter_context(bound_closures())
        _tier_result(runner, source_a, "wasm3", 2, tier=2)
        shared = _closure_named(bound, _engine_name(source_a, name_a))
        bound.clear()
        got = _tier_result(runner, source_b, "wasm3", 2, tier=2)
    assert got == ref
    assert _closure_named(bound, _engine_name(source_b, name_b)).__code__ \
        is shared.__code__


# ---------------------------------------------------------------------------
# Cross-worker sharing: pool workers must read the compiled modules from
# the shared store instead of recompiling them per process.
# ---------------------------------------------------------------------------

SHARING_BENCHES = ("gemm", "crc32", "quicksort")
SHARING_CELLS = [(b, e, 2, False)
                 for b in SHARING_BENCHES for e in ("wasm3", "wamr")]


def _drop_results(harness):
    """Delete only the cached RunResults so cells re-execute (and the
    compiled modules get read from the store again)."""
    dropped = 0
    for name, engine, opt, aot in SHARING_CELLS:
        key = harness.artifact_key("result", name, opt,
                                   engine=engine, aot=aot)
        path = harness.disk_cache._path(key)
        if os.path.exists(path):
            os.unlink(path)
            dropped += 1
    assert dropped == len(SHARING_CELLS), \
        "expected every cached result to drop"


def test_cross_worker_artifact_sharing(tmp_path):
    cache_dir = str(tmp_path / "cache")
    serial = Harness(size="test", benchmarks=list(SHARING_BENCHES))
    expected = {cell: serial.run(cell[0], cell[1]).to_json()
                for cell in SHARING_CELLS}

    # Cold parallel run populates the store (compiled modules).
    speed.module_cache.clear()
    h1 = Harness(size="test", benchmarks=list(SHARING_BENCHES),
                 cache_dir=cache_dir)
    run_cells(h1, SHARING_CELLS, jobs=4)

    # Second parallel run against the warm store: results are dropped so
    # every cell re-executes, and the in-process caches are cleared so
    # even the serial fallback path must go through the disk store.
    _drop_results(h1)
    speed.module_cache.clear()
    h2 = Harness(size="test", benchmarks=list(SHARING_BENCHES),
                 cache_dir=cache_dir)
    run_cells(h2, SHARING_CELLS, jobs=4)

    stats = h2.cache_stats
    assert stats.hits.get("wasm", 0) > 0, stats
    assert stats.misses.get("wasm", 0) == 0, stats
    # The store holds only the harness's own artifact kinds: nothing of
    # the speed layer is written to or read from it.
    for harness in (h1, h2):
        touched = set(harness.cache_stats.hits) | \
            set(harness.cache_stats.misses)
        assert touched <= {"wasm", "native", "aot", "result"}, touched

    for cell in SHARING_CELLS:
        key = (cell[0], cell[1], cell[2], cell[3], "test")
        assert h1._result_cache[key].to_json() == expected[cell]
        assert h2._result_cache[key].to_json() == expected[cell]


# ---------------------------------------------------------------------------
# The tier knob: strict parsing, runtime override, CLI validation.
# ---------------------------------------------------------------------------


def test_repro_speed_env_parsed_strictly(monkeypatch):
    for raw, expected in (("0", 0), ("2", 2)):
        monkeypatch.setenv("REPRO_SPEED", raw)
        speed._tier = None
        assert speed.tier() == expected
    for raw in ("1", "3", "on", "yes", "", " 2", "02"):
        monkeypatch.setenv("REPRO_SPEED", raw)
        speed._tier = None
        with pytest.raises(HarnessError) as excinfo:
            speed.tier()
        assert "REPRO_SPEED" in str(excinfo.value)
    monkeypatch.delenv("REPRO_SPEED", raising=False)
    speed._tier = None
    assert speed.tier() == 2  # default


def test_set_tier_validates():
    with pytest.raises(HarnessError):
        speed.set_tier(3)
    with pytest.raises(HarnessError):
        speed.set_tier("2")
    with pytest.raises(HarnessError):
        speed.set_tier(1)
    speed.set_tier(2)
    assert speed.tier() == 2 and speed.enabled()
    speed.set_tier(0)
    assert not speed.enabled()
    speed.set_tier(2)
    assert speed.tier() == 2


def test_cli_rejects_bad_speed_tier(tmp_path, capsys):
    rc = wabench_main(["run", "gemm", "--size", "test",
                       "--speed-tier", "7", "--no-cache"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--speed-tier" in err and err.count("\n") == 1


def test_cli_speed_tier_override(tmp_path, capsys, monkeypatch):
    """--speed-tier 0 runs the reference path and produces the same
    output as the default closure tier."""
    monkeypatch.setattr(speed, "_tier", 2)
    out_dir = str(tmp_path / "out")
    rc = wabench_main(["run", "gemm", "--size", "test", "--no-cache",
                       "--speed-tier", "0", "--out", out_dir])
    assert rc == 0
    assert speed.tier() == 0
    assert os.environ.get("REPRO_SPEED") == "0"
    monkeypatch.delenv("REPRO_SPEED", raising=False)
