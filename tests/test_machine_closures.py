"""Differential harness for the machine-closure tier (REPRO_SPEED=2).

Every native, JIT and AOT run executes machine code, first in the
:class:`~repro.isa.machine.Machine` loop and, once a function is hot,
in its machine closure (:mod:`repro.speed.mclosures`).  The closure
must leave the model exactly where the loop would: the same return
value, memory image, globals, counters and trap text, including the
loop's quirks (a trapping ``BINF``/``UNF`` op leaves the shadowed
stall, branch and reference counts unflushed).  Each check runs the
reference (``REPRO_SPEED=0``, the loop only) against tier 2 at its
default hotness and in two forced modes (:func:`forced`): *eager*
compiles every function at its first call, *osr* never compiles at a
call and moves every looping frame into its closure at its first
backward branch.

Run the seeded sweeps with a different seed base:
``REPRO_FUZZ_SEED=1234 python -m pytest tests/test_machine_closures.py``.
"""

import contextlib
import functools
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import speed
from repro.fuzz import CellRunner
from repro.fuzz.campaign import run_campaign
from repro.fuzz.generator import generate_module
from repro.harness import Harness
from repro.hw import CPUModel
from repro.isa import MFunction, MProgram, ops
from repro.isa.machine import Machine
from repro.runtimes.interp.engine import THREADED_PROFILE, prepare_function
from repro.speed import closures, mclosures

from .conftest import fuzz_seeds
from .test_trap_equivalence import TRAP_ENGINES, TRAP_PROGRAMS

MODES = ("default", "eager", "osr")


@contextlib.contextmanager
def forced(mode):
    """Tier-2 hotness mode ``mode`` (see the module docstring)."""
    with pytest.MonkeyPatch.context() as mp:
        if mode != "default":
            mp.setattr(speed, "HOT_WORK", 0)
        if mode == "osr":
            mp.setattr(Machine, "_enter_hot", lambda self, func: None)
        yield


@pytest.fixture(autouse=True)
def _machine_tier_reset():
    """Each test starts at tier 2 with an empty code memo."""
    def reset():
        speed.set_tier(2)
        speed.module_cache.clear()
        speed.memo_clear()
    reset()
    yield
    reset()


# ---------------------------------------------------------------------------
# ISA-level programs: a seeded generator of terminating machine code that
# uses every opcode class, run straight on a Machine.
# ---------------------------------------------------------------------------

I32 = (0, 1, 2, 3, 4, 5)
I64 = (6, 7)
F64 = (8, 9)
COUNTERS = (10, 11, 12)
ADDR, TMP = 13, 14
NUM_REGS = 16

I32_BIN = [o for o in range(ops.NUM_BIN) if ops.NAME[o].endswith("32")
           and not ops.NAME[o].startswith(("div", "rem"))
           and "f" not in ops.NAME[o]]
I64_BIN = [o for o in range(ops.NUM_BIN) if ops.NAME[o].endswith("64")
           and not ops.NAME[o].startswith(("div", "rem"))
           and "f" not in ops.NAME[o]]
F_BIN = [o for o in range(ops.NUM_BIN) if "f" in ops.NAME[o]]
DIVS = (ops.DIVS32, ops.DIVU32, ops.REMS32, ops.REMU32)
DIVS64 = (ops.DIVS64, ops.DIVU64, ops.REMS64, ops.REMU64)
I32_UN = (ops.CLZ32, ops.CTZ32, ops.POPCNT32, ops.EQZ32)
F_UN = (ops.ABSF64, ops.NEGF64, ops.CEILF64, ops.FLOORF64, ops.TRUNCF64,
        ops.NEARESTF64, ops.SQRTF64, ops.NEARESTF32, ops.SQRTF32,
        ops.DEMOTE, ops.PROMOTE, ops.NEGF32)
#: (op, destination class, source class)
CONVERSIONS = (
    (ops.EXTENDS32, I64, I32), (ops.EXTENDU32, I64, I32),
    (ops.WRAP64, I32, I64), (ops.CLZ64, I64, I64), (ops.POPCNT64, I64, I64),
    (ops.EQZ64, I32, I64), (ops.CVTS32F64, F64, I32),
    (ops.CVTU32F64, F64, I32), (ops.CVTS64F64, F64, I64),
    (ops.CVTU64F32, F64, I64), (ops.CVTS32F32, F64, I32),
    (ops.TRUNCF64S32, I32, F64), (ops.TRUNCF64U64, I64, F64),
    (ops.RI64F64, I64, F64), (ops.RF64I64, F64, I64))
LOADS = ((ops.LOAD8_S, I32), (ops.LOAD8_U, I32), (ops.LOAD16_S, I32),
         (ops.LOAD16_U, I32), (ops.LOAD32, I32), (ops.LOAD32_S64, I64),
         (ops.LOAD32_U64, I64), (ops.LOAD64, I64), (ops.LOADF32, F64),
         (ops.LOADF64, F64), (ops.LOAD8_S64, I64), (ops.LOAD16_S64, I64))
STORES = ((ops.STORE8, I32), (ops.STORE16, I32), (ops.STORE32, I32),
          (ops.STORE64, I64), (ops.STOREF64, F64))
FLOATS = (0.5, -1.25, 3e9, -0.0, float("inf"), float("-inf"),
          float("nan"), 1e300, 7.0)


class _Code:
    """Machine code under construction, with forward-patched labels."""

    def __init__(self, rng, depth_budget):
        self.rng = rng
        self.code = []
        self.budget = depth_budget

    def emit(self, *ins):
        self.code.append(list(ins))
        return len(self.code) - 1

    @property
    def here(self):
        return len(self.code)

    def patch(self, at, field, value):
        self.code[at][field] = value

    def pick(self, cls):
        return self.rng.choice(cls)

    # -- statements ------------------------------------------------------

    def stmts(self, n, depth, calls=True):
        for _ in range(n):
            self.stmt(depth, calls)

    def stmt(self, depth, calls):
        rng = self.rng
        kinds = ["alu"] * 6 + ["li", "mov", "select", "un", "conv",
                                "load", "load", "store", "store",
                                "global", "spill", "check", "memsize"]
        if depth < self.budget:
            kinds += ["if", "loop", "loop", "table"]
        if calls:
            kinds += ["call", "host", "ind"]
        kind = rng.choice(kinds)
        if kind == "alu":
            cls = rng.choice((I32, I32, I64, F64))
            if cls is F64:
                op = rng.choice(F_BIN)
                dst = I32 if ops.NAME[op][:2] in ("eq", "ne", "lt", "gt",
                                                  "le", "ge") else F64
                self.emit(op, self.pick(dst), self.pick(F64),
                          self.pick(F64))
            elif rng.random() < 0.15:
                divs = DIVS if cls is I32 else DIVS64
                divisor = self.pick(cls)
                if rng.random() < 0.8:      # usually a nonzero divisor
                    self.emit(ops.LI, TMP, rng.choice((3, 7, -1 & ops.M32)))
                    divisor = TMP
                self.emit(rng.choice(divs), self.pick(cls), self.pick(cls),
                          divisor)
            else:
                op = rng.choice(I32_BIN if cls is I32 else I64_BIN)
                name = ops.NAME[op]
                dst = I32 if name[:2] in ("eq", "ne", "lt", "gt", "le",
                                          "ge") else cls
                self.emit(op, self.pick(dst), self.pick(cls),
                          self.pick(cls))
        elif kind == "li":
            cls = rng.choice((I32, I64, F64))
            if cls is F64:
                value = rng.choice(FLOATS)
            else:
                value = rng.getrandbits(32 if cls is I32 else 64)
            self.emit(ops.LI, self.pick(cls), value)
        elif kind == "mov":
            cls = rng.choice((I32, I64, F64))
            self.emit(ops.MOV, self.pick(cls), self.pick(cls))
        elif kind == "select":
            cls = rng.choice((I32, F64))
            self.emit(ops.SELECT, self.pick(cls), self.pick(I32),
                      self.pick(cls), self.pick(cls))
        elif kind == "un":
            if rng.random() < 0.5:
                self.emit(rng.choice(I32_UN), self.pick(I32), self.pick(I32))
            else:
                self.emit(rng.choice(F_UN), self.pick(F64), self.pick(F64))
        elif kind == "conv":
            op, dst, src = rng.choice(CONVERSIONS)
            self.emit(op, self.pick(dst), self.pick(src))
        elif kind in ("load", "store"):
            if rng.random() < 0.03:
                self.emit(ops.LI, ADDR, 65530)      # out of bounds
            else:
                self.emit(ops.LI, TMP, 0x3FF)
                self.emit(ops.AND32, ADDR, self.pick(I32), TMP)
            offset = rng.randrange(0, 64)
            if kind == "load":
                op, cls = rng.choice(LOADS)
                self.emit(op, self.pick(cls), ADDR, offset)
            else:
                op, cls = rng.choice(STORES)
                self.emit(op, ADDR, offset, self.pick(cls))
        elif kind == "global":
            index = rng.randrange(3)
            cls = F64 if index == 2 else I32
            if rng.random() < 0.5:
                self.emit(ops.GGET, self.pick(cls), index)
            else:
                self.emit(ops.GSET, index, self.pick(cls))
        elif kind == "spill":
            self.emit(rng.choice((ops.SPILL, ops.RELOAD)), rng.randrange(4))
        elif kind == "check":
            self.emit(ops.CHECK)
        elif kind == "memsize":
            if rng.random() < 0.2:
                self.emit(ops.LI, TMP, 1)
                self.emit(ops.MEMGROW, self.pick(I32), TMP)
            else:
                self.emit(ops.MEMSIZE, self.pick(I32))
        elif kind == "if":
            br = self.emit(rng.choice((ops.BRZ, ops.BRNZ)), self.pick(I32),
                           None)
            self.stmts(rng.randrange(1, 4), depth + 1, calls)
            if rng.random() < 0.1:
                self.emit(ops.TRAP_OP, "unreachable")
            jmp = self.emit(ops.JMP, None)
            self.patch(br, 2, self.here)
            self.stmts(rng.randrange(0, 3), depth + 1, calls)
            self.patch(jmp, 1, self.here)
        elif kind == "loop":
            counter = COUNTERS[min(depth, len(COUNTERS) - 1)]
            self.emit(ops.LI, counter, rng.randrange(1, 6))
            if rng.random() < 0.5:          # bottom-tested
                head = self.here
                self.stmts(rng.randrange(1, 4), depth + 1, calls)
                self.emit(ops.LI, TMP, 1)
                self.emit(ops.SUB32, counter, counter, TMP)
                self.emit(ops.BRNZ, counter, head)
            else:                           # top-tested, jmp back
                head = self.emit(ops.BRZ, counter, None)
                self.stmts(rng.randrange(1, 4), depth + 1, calls)
                self.emit(ops.LI, TMP, 1)
                self.emit(ops.SUB32, counter, counter, TMP)
                self.emit(ops.JMP, head)
                self.patch(head, 2, self.here)
        elif kind == "table":
            self.emit(ops.LI, TMP, 3)
            self.emit(ops.AND32, ADDR, self.pick(I32), TMP)
            table = self.emit(ops.BR_TABLE, ADDR, None, None)
            cases, ends = [], []
            for _ in range(3):
                cases.append(self.here)
                self.stmts(rng.randrange(0, 3), depth + 1, calls)
                ends.append(self.emit(ops.JMP, None))
            self.patch(table, 2, tuple(cases[:rng.randrange(1, 4)]))
            self.patch(table, 3, cases[-1])
            for end in ends:
                self.patch(end, 1, self.here)
        elif kind == "call":
            self.emit(ops.CALL, self.pick(I32), 1,
                      (self.pick(I32), self.pick(I32)))
        elif kind == "host":
            self.emit(ops.CALL_HOST, rng.choice((-1, self.pick(I32))), 0,
                      (self.pick(I32),))
        elif kind == "ind":
            self.emit(ops.LI, ADDR, rng.choice((0, 0, 0, 1, 5)))
            self.emit(ops.CALL_IND, self.pick(I32),
                      rng.choice((1, 1, 1, 1, 2)), ADDR,
                      (self.pick(I32), self.pick(I32)))

    def finish(self):
        return [tuple(ins) for ins in self.code]


def _host(machine, args):
    """Reads the counters, so every pending count must be flushed
    before a host call, and charges some work of its own."""
    c = machine.cpu.counters
    c.instructions += 7
    return (c.instructions + 3 * c.stall_cycles + 5 * c.branches +
            7 * c.l1i.refs + 11 * c.l1d.refs + 13 * c.branch_misses +
            args[0]) & ops.M32


def _program(seed):
    """A two-function program (``entry``, and ``helper`` reached by
    direct and indirect calls) drawn from ``seed``."""
    rng = random.Random(seed)
    prog = MProgram(memory_pages=1, host_imports=["h"],
                    globals_init=[0, 5, 0.0], table=[1, -1])
    entry = _Code(rng, depth_budget=3)
    for reg in F64:
        entry.emit(ops.LI, reg, rng.choice(FLOATS))
    entry.stmts(rng.randrange(4, 14), 0)
    entry.emit(ops.RET, rng.choice(I32))
    helper = _Code(rng, depth_budget=2)
    helper.stmts(rng.randrange(2, 8), 0, calls=False)
    helper.emit(ops.RET, rng.choice(I32))
    prog.add_function(MFunction("entry", 2, NUM_REGS, entry.finish(),
                                returns_value=True))
    prog.add_function(MFunction("helper", 2, NUM_REGS, helper.finish(),
                                sig_id=1, returns_value=True))
    prog.exports["entry"] = 0
    return prog.finalize(code_base=0x0100_0000)


def _canon(value):
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return value


def _observe(build, args, tier, mode="default"):
    """Everything a run leaves behind in the model."""
    speed.set_tier(tier)
    with forced(mode):
        cpu = CPUModel()
        machine = Machine(build(), cpu, host={"h": _host})
        value = trap = None
        try:
            value = machine.run_export("entry", args)
        except Exception as exc:   # a Trap, or a Python error in ops
            trap = f"{type(exc).__name__}: {exc}"
    caches = cpu.caches
    return {"value": _canon(value), "trap": trap,
            "memory": bytes(machine.memory.data),
            "touched": sorted(machine.memory.touched),
            "globals": [_canon(g) for g in machine.globals],
            "counters": cpu.counters.snapshot(),
            "occupancy": [caches.l1i.occupancy, caches.l1d.occupancy,
                          caches.l2.occupancy],
            # Not part of a RunResult, but the loop hands its frame
            # over to a closure without writing any of these back.
            "shadowed": (cpu.branches._history,
                         cpu.branches._target_history, caches.l1i.tick,
                         caches.l1d.tick)}


def _assert_identical(build, args):
    ref = _observe(build, args, 0)
    for mode in MODES:
        got = _observe(build, args, 2, mode)
        diff = [key for key in ref if got[key] != ref[key]]
        assert not diff, (mode, diff, {k: (ref[k], got[k]) for k in diff
                                       if k not in ("memory",)})
    return ref


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       a=st.integers(min_value=0, max_value=2**32 - 1),
       b=st.integers(min_value=0, max_value=2**32 - 1))
def test_isa_equivalence_hypothesis(seed, a, b):
    _assert_identical(lambda: _program(seed), (a, b))


@pytest.mark.parametrize("seed", fuzz_seeds(24, salt=0x3AC4))
def test_isa_equivalence_seeded(seed):
    _assert_identical(lambda: _program(seed), (7, 13))


def test_generator_covers_traps_and_clean_exits():
    """The seeded programs trap sometimes and return normally too, so
    both the flush-at-trap and the flush-at-return paths are compared."""
    traps = set()
    for seed in range(40):
        result = _observe(lambda: _program(seed), (7, 13), 0)
        traps.add(result["trap"].split(":")[2] if result["trap"] else None)
    assert None in traps and len(traps) >= 3, traps


def _one_function(code, num_params):
    """A program whose only function, ``entry``, is ``code``."""
    prog = MProgram(memory_pages=1)
    prog.add_function(MFunction("entry", num_params, 4, code,
                                returns_value=True))
    prog.exports["entry"] = 0
    return prog.finalize(code_base=0x0100_0000)


#: ``entry(n)``: one loop whose header is pc 0.
LOOP_AT_PC0 = [(ops.LI, 2, 3), (ops.MUL32, 1, 1, 2), (ops.ADD32, 1, 1, 0),
               (ops.STORE32, 3, 64, 1),
               (ops.LI, 2, 1), (ops.SUB32, 0, 0, 2), (ops.BRNZ, 0, 0),
               (ops.RET, 1)]


def test_osr_into_loop_header_at_pc0(monkeypatch):
    """A frame that enters its closure at a loop header at pc 0 must not
    charge the entry block a second time."""
    entered = []
    osr = Machine._osr

    def spy(self, func, pc):
        fn = osr(self, func, pc)
        entered.append((pc, fn is not None))
        return fn

    monkeypatch.setattr(Machine, "_osr", spy)
    build = functools.partial(_one_function, LOOP_AT_PC0, 1)
    ref = _observe(build, (50,), 0)
    got = _observe(build, (50,), 2, "osr")
    assert entered and entered[0] == (0, True), entered
    assert got == ref
    _assert_identical(build, (50,))


def test_deep_branch_chain_splits_into_roots():
    """Inline blocks nest one level per taken branch; past the nesting
    CPython accepts, the generator must start new roots instead."""
    code = []
    for k in range(mclosures._MAX_INDENT + 20):
        code += [(ops.BRZ, 0, 2 * k + 2), (ops.RET, 1)]  # taken: go on
    code.append((ops.RET, 0))
    build = functools.partial(_one_function, code, 2)
    source = mclosures.generate(build().functions[0])
    assert source is not None and compile(source, "deep", "exec")
    for args in ((0, 5), (3, 5)):
        _assert_identical(build, args)


def test_function_that_runs_off_its_end_stays_in_the_loop():
    prog = _one_function([(ops.LI, 0, 1)], 0)
    assert mclosures.generate(prog.functions[0]) is None
    with forced("eager"):
        with pytest.raises(IndexError):
            Machine(prog, CPUModel()).run_export("entry")


# ---------------------------------------------------------------------------
# Pipeline level: the trap seed set on every machine engine, full RunResult.
# ---------------------------------------------------------------------------

MACHINE_ENGINES = tuple(e for e in TRAP_ENGINES
                        if e not in ("wasm3", "wamr"))


def _cell(source, engine, tier, mode="default"):
    speed.set_tier(tier)
    speed.module_cache.clear()
    with forced(mode):
        return CellRunner().run_cell(source, engine, 2,
                                     use_cache=False).to_json()


@pytest.mark.parametrize("name", sorted(TRAP_PROGRAMS))
def test_trap_programs_identical_on_machine_engines(name):
    """Covers the unflushed ``BINF`` trap (div/mod by zero) and stack
    exhaustion on native, every JIT backend and every AOT image."""
    source, _kind = TRAP_PROGRAMS[name]
    for engine in MACHINE_ENGINES:
        ref = _cell(source, engine, 0)
        for mode in MODES:
            assert _cell(source, engine, 2, mode) == ref, (engine, mode)


# ---------------------------------------------------------------------------
# Laziness and the code memo.
# ---------------------------------------------------------------------------


def test_fuzz_campaign_compiles_fewer_functions_than_it_runs(monkeypatch):
    """Most fuzz programs are too short for any function to get hot;
    base seed 8 is one whose campaign has some that do."""
    ran, compiled = set(), set()
    exec_, factory = Machine._exec, speed.MachineCode.factory

    def spy_exec(self, func, args, frame_base):
        ran.add((id(self.program), func.index))
        return exec_(self, func, args, frame_base)

    def spy_factory(self, func):
        compiled.add((id(self), func.index))
        return factory(self, func)

    monkeypatch.setattr(Machine, "_exec", spy_exec)
    monkeypatch.setattr(speed.MachineCode, "factory", spy_factory)
    report = run_campaign(8, budget=1)
    assert report.cells_run
    assert 0 < len(compiled) < len(ran), (len(compiled), len(ran))


def test_rebuilt_program_binds_memoized_code(monkeypatch):
    """A JIT run compiles a new MProgram every time; the second run of
    the same module generates identical source and calls compile()
    zero times."""
    calls = []

    def counting_compile(*args):
        calls.append(args[1])
        return compile(*args)

    monkeypatch.setattr(speed, "compile", counting_compile, raising=False)
    first = Harness(size="test").run("crc32", "wasmtime").to_json()
    assert calls
    calls.clear()
    second = Harness(size="test").run("crc32", "wasmtime").to_json()
    assert calls == [] and second == first


def test_memo_is_bounded(monkeypatch):
    """Both closure tiers fill one bounded memo: the Wasm closures bound
    last evict the machine code compiled first."""
    monkeypatch.setattr(speed, "_MEMO_CAPACITY", 3)

    def tiers():
        return {code.co_filename.strip("<>").split()[0]
                for code in speed._memo.values()}

    for seed in range(8):
        prog = _program(seed)
        for func in prog.functions:
            mclosures.factory_for(func)
    assert len(speed._memo) == 3 and tiers() == {"mclosure"}
    for seed in range(4):
        module = generate_module(seed)
        prepared = [("wasm", prepare_function(module, func, index))
                    for index, func in enumerate(module.functions)]
        fcode = closures.predecode_functions(prepared, THREADED_PROFILE, 6)
        closures.bind_bundle(closures.compile_bundle(
            prepared, fcode, 6, fcode, (10, 14, 12)))
    assert len(speed._memo) == 3 and tiers() == {"speed-closure"}


# ---------------------------------------------------------------------------
# The full suite (slow): every WABench program on every JIT-style engine.
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("engine", ("native", "wasmtime", "wavm", "wasmer"))
def test_full_suite_equivalence(engine):
    """Every WABench program at --size test, byte-identical between the
    loop-only reference and forced-OSR tier 2, where every looping
    frame starts in the loop and finishes in its closure."""
    def suite(tier, mode="default"):
        speed.set_tier(tier)
        speed.module_cache.clear()
        with forced(mode):
            harness = Harness(size="test")
            return {name: harness.run(name, engine).to_json()
                    for name in harness.benchmark_names}

    ref = suite(0)
    got = suite(2, "osr")
    diverged = [n for n in ref if got[n] != ref[n]]
    assert not diverged, f"tier 2 (osr) diverged on: {diverged}"
