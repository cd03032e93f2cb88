"""Differential harness for the closure-compiled tier (REPRO_SPEED=2).

The closure tier is a template JIT of the model itself, so its failure
mode is the worst kind: plausible numbers that are subtly wrong.  Every
check here is therefore *differential* — the closure tier must produce
byte-identical ``RunResult.to_json()`` output (counters, traps, stdout,
span trees) to the ``REPRO_SPEED=0`` reference, across engines, ``-O``
levels, fuzz-generated programs, and the trap seed set; the
interpreter-level checks also hold the fastloop, tier 2's warm-up
tier, to the same reference.  Tier 2 compiles a function only once it is hot, so
the sweeps also run it in two forced modes (:func:`forced`): *eager*
compiles every function at its first call, *OSR* never promotes on
calls and moves every frame into its closure at its first backward
branch.  Plus the sharing contract of the decoded-module artifacts and
strict parsing of the tier knob.

Run the sweep locally with a different seed base:
``REPRO_FUZZ_SEED=1234 python -m pytest tests/test_closures.py``.
"""

import contextlib
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import speed
from repro.bench import io_names
from repro.errors import HarnessError, Trap
from repro.fuzz import CellRunner, normalize_trap
from repro.fuzz.campaign import run_campaign
from repro.fuzz.generator import generate_module, generate_program
from repro.harness import Harness
from repro.harness.cli import main as wabench_main
from repro.harness.parallel import run_cells
from repro.hw import CPUModel
from repro.isa.memory import LinearMemory
from repro.runtimes.interp.engine import (THREADED_PROFILE, Interpreter,
                                          prepare_function)
from repro.speed import fastloop, modcache
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
            mp.setattr(fastloop, "HOT_BACKEDGES", 1)
        yield


@pytest.fixture(autouse=True)
def _closure_layer_reset():
    """Each test starts at the closure tier with cold, detached caches."""
    def reset():
        speed.set_tier(2)
        speed.module_cache.clear()
        speed.module_cache.attach_disk(None)
        speed.wasm_memo_clear()
    reset()
    yield
    reset()


# ---------------------------------------------------------------------------
# Interpreter-level equivalence: reference vs fastloop vs closures on
# seeded random Wasm modules, down to every modeled counter.
# ---------------------------------------------------------------------------


def _counters_dict(cpu):
    c = cpu.counters
    d = {"instructions": c.instructions, "stall_cycles": c.stall_cycles,
         "branches": c.branches, "branch_misses": c.branch_misses}
    for name in ("l1i", "l1d", "l2", "l3"):
        stats = getattr(c, name)
        d[name] = (stats.refs, stats.misses)
    return d


def _interp_run(module, args, tier):
    prepared = []
    for i, func in enumerate(module.functions):
        prepared.append(("wasm", prepare_function(module, func, i)))
    cpu = CPUModel()
    mem = LinearMemory(1)
    interp = Interpreter(THREADED_PROFILE, cpu, mem, [], [], prepared)
    interp.set_signatures(module)
    line_shift = cpu.caches.line_shift
    if tier >= 1:
        entry = ModuleEntry("test", module, None)
        entry.prepared = prepared
        entry.total_ops = sum(len(f.body) for f in module.functions)
        fast = entry.fast_code(THREADED_PROFILE, line_shift)
        assert fast, "predecode produced no fast code"
        interp.fast_code = fast
    if tier >= 2:
        interp.closure_code = ModuleCache().closure_code(
            entry, THREADED_PROFILE, line_shift)
    trap = None
    value = None
    try:
        value = interp.call_index(0, args)
    except Trap as exc:
        trap = str(exc)
    return value, trap, bytes(mem.data[:4096]), _counters_dict(cpu)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       a=st.integers(min_value=0, max_value=2**32 - 1),
       b=st.integers(min_value=0, max_value=2**32 - 1))
def test_interp_equivalence_hypothesis(seed, a, b):
    module = generate_module(seed)
    ref = _interp_run(module, (a, b), tier=0)
    fast = _interp_run(module, (a, b), tier=1)
    closure = _interp_run(module, (a, b), tier=2)
    assert closure == ref
    assert fast == ref
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
    speed.set_tier(tier)
    speed.module_cache.clear()
    try:
        return runner.run_cell(source, engine, opt,
                               use_cache=False).to_json()
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
    """The trap seed set: same trap kind AND byte-identical results on
    the interpreters where the closure tier runs."""
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
    fastloop and finishes in its closure (the fast sweeps above cover
    tier 1 and the other modes)."""
    def suite(tier):
        speed.set_tier(tier)
        speed.module_cache.clear()
        harness = Harness(size="test")
        return {name: harness.run(name, engine).to_json()
                for name in harness.benchmark_names}

    ref = suite(0)
    with forced("osr"):
        closure = suite(2)
    diverged = [n for n in ref if closure[n] != ref[n]]
    assert not diverged, f"tier 2 (osr) diverged on: {diverged}"


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


# ---------------------------------------------------------------------------
# Lazy compilation: only hot functions get a closure, and a kernel called
# once reaches its closure by OSR.
# ---------------------------------------------------------------------------


def test_fuzz_campaign_compiles_fewer_functions_than_it_runs():
    report = run_campaign(3, budget=1)
    assert report.cells_run
    tables = [table for entry in speed.module_cache._mem.values()
              for table in entry._closures.values()]
    ran = sum(len(t._calls) for t in tables)
    compiled = sum(len(t._code) for t in tables)
    assert 0 < compiled < ran, (compiled, ran)


def test_gemm_small_reaches_its_closure_by_osr(monkeypatch):
    """``kernel_gemm`` is called once from ``main``: only OSR gets its
    loop nest out of the fastloop."""
    entered = []

    def spy(interp, func, *rest):
        entered.append((interp.closure_code, func.index))
        return osr(interp, func, *rest)

    osr = fastloop._osr
    monkeypatch.setattr(fastloop, "_osr", spy)
    Harness(size="small", benchmarks=["gemm"]).run("gemm", "wasm3")
    called_once = [index for code, index in entered
                   if code._calls[index] == 1]
    assert called_once, entered


# ---------------------------------------------------------------------------
# Cross-worker sharing: pool workers must hit the shared decoded-module
# artifacts instead of re-deriving them per process.
# ---------------------------------------------------------------------------

SHARING_BENCHES = ("gemm", "crc32", "quicksort")
SHARING_CELLS = [(b, e, 2, False)
                 for b in SHARING_BENCHES for e in ("wasm3", "wamr")]


def _drop_results(harness):
    """Delete only the cached RunResults so cells re-execute (and the
    decoded-module artifacts get consulted again)."""
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

    # Cold parallel run populates the store (decoded modules).
    speed.module_cache.clear()
    h1 = Harness(size="test", benchmarks=list(SHARING_BENCHES),
                 cache_dir=cache_dir)
    run_cells(h1, SHARING_CELLS, jobs=4)

    # Second parallel run against the warm store: results are dropped so
    # every cell re-executes, and the in-process caches are cleared so
    # even the serial fallback path must go through the disk store.
    _drop_results(h1)
    speed.module_cache.clear()
    speed.wasm_memo_clear()
    h2 = Harness(size="test", benchmarks=list(SHARING_BENCHES),
                 cache_dir=cache_dir)
    run_cells(h2, SHARING_CELLS, jobs=4)

    hits = h2.cache_stats.hits
    assert hits.get("speed-module", 0) > 0, hits

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
    speed.set_enabled(True)
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
