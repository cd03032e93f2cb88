"""The repro.speed contract: faster wall clock, byte-identical model.

Three families of checks (PERFORMANCE.md documents the contract; the
interpreter-level and closure sweeps live in tests/test_closures.py):

* **Pipeline equivalence** — the full harness pipeline produces a
  byte-identical serialized :class:`RunResult` (counters, stdout, traps,
  phase spans) with the speed layer enabled and disabled.
* **Lexer differential** — the regex scanner agrees token-for-token
  (including line/column bookkeeping) with ``_tokenize_reference`` on
  every benchmark source and on hypothesis-generated soup.
* **Decoded-module cache** — hit, miss and LRU eviction.

Plus a guard for :func:`repro.obs.export.canonical_lines`, which the
determinism checks depend on to strip exactly the wall field and
nothing else.
"""

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import speed
from repro.harness import Harness
from repro.minic.lexer import _tokenize_reference, tokenize
from repro.obs.export import canonical_lines
from repro.speed.modcache import ModuleCache


@pytest.fixture(autouse=True)
def _speed_layer_reset():
    """Each test starts at the closure tier with a cold module cache."""
    speed.set_tier(2)
    speed.module_cache.clear()
    yield
    speed.set_tier(2)
    speed.module_cache.clear()


# ---------------------------------------------------------------------------
# Pipeline equivalence: speed on == speed off, byte for byte.
# ---------------------------------------------------------------------------

EQUIVALENCE_CELLS = [
    ("gemm", "wasm3", False),
    ("gemm", "wasmtime", False),
    ("gemm", "wasmtime", True),
    ("crc32", "wamr", False),
    ("quicksort", "wasmer", False),
]


def _run_cell(bench, engine, aot, tier):
    speed.module_cache.clear()
    speed.set_tier(tier)
    try:
        harness = Harness(size="test", benchmarks=[bench])
        return harness.run(bench, engine, aot=aot).to_json()
    finally:
        speed.set_tier(2)


@pytest.mark.parametrize("bench,engine,aot", EQUIVALENCE_CELLS)
def test_pipeline_equivalence(bench, engine, aot):
    slow = _run_cell(bench, engine, aot, tier=0)
    fast = _run_cell(bench, engine, aot, tier=2)
    assert fast == slow


def test_pipeline_equivalence_warm_cache_rerun():
    """A warm in-process rerun (module cache hot) is also byte-identical."""
    reference = _run_cell("gemm", "wasm3", False, tier=0)
    speed.module_cache.clear()
    speed.set_tier(2)
    harness = Harness(size="test", benchmarks=["gemm"])
    cold = harness.run("gemm", "wasm3").to_json()
    # A second harness re-executes (no shared result cache) but hits the
    # process-wide decoded-module cache.
    warm = Harness(size="test", benchmarks=["gemm"]).run(
        "gemm", "wasm3").to_json()
    assert cold == reference
    assert warm == reference
    assert speed.module_cache.hits > 0


# ---------------------------------------------------------------------------
# Lexer differential: regex scanner vs reference scanner.
# ---------------------------------------------------------------------------


def test_lexer_matches_reference_on_all_benchmarks():
    from repro.bench import ALL_BENCHMARKS

    for bench in ALL_BENCHMARKS:
        defines = bench.defines_for("test")
        assert tokenize(bench.source, defines) == \
            _tokenize_reference(bench.source, defines), bench.name


_SOUP = st.text(
    alphabet=st.sampled_from(
        list("abcxyz_019 \t\n+-*/%<>=!&|^~(){}[];,.\"'\\#")),
    max_size=200)


@settings(max_examples=200, deadline=None)
@given(source=_SOUP)
def test_lexer_matches_reference_on_soup(source):
    """Both scanners agree on arbitrary input: same tokens or the same
    rejection."""
    from repro.errors import MiniCSyntaxError

    try:
        expected = _tokenize_reference(source)
    except MiniCSyntaxError:
        with pytest.raises(MiniCSyntaxError):
            tokenize(source)
        return
    assert tokenize(source) == expected


def test_lexer_token_fields():
    tokens = tokenize("int main() { return 42; }\n")
    assert [t.kind for t in tokens[:3]] == ["kw", "id", "op"]
    first = tokens[0]
    assert (first.line, first.col) == (1, 1)
    assert tokens[-1].kind == "eof"


# ---------------------------------------------------------------------------
# Decoded-module cache: hit / miss / eviction.
# ---------------------------------------------------------------------------


def _tiny_module_bytes():
    from repro.compiler import compile_source

    return compile_source("int main() { return 0; }\n").wasm_bytes


def _decode(wasm_bytes):
    from repro.wasm import decode_module_with_stats

    return decode_module_with_stats(wasm_bytes)


def test_module_cache_memory_hit_and_miss():
    cache = ModuleCache()
    wasm = _tiny_module_bytes()
    assert cache.lookup(wasm) is None
    assert cache.misses == 1

    module, stats = _decode(wasm)
    entry = cache.register(wasm, module, stats)
    assert not entry.validated
    assert cache.entry_for(module) is entry

    hit = cache.lookup(wasm)
    assert hit is entry
    assert cache.hits == 1


def test_module_cache_eviction_keeps_id_index_sound():
    cache = ModuleCache(capacity=2)
    entries = []
    for value in range(3):
        wasm = _tiny_module_bytes() + bytes([0])  # same module...
        # ...but distinct cache identities via the custom section trick
        # would require re-encoding; key on synthetic bytes instead.
        wasm = b"%d-" % value + wasm
        module, stats = _decode(_tiny_module_bytes())
        entries.append(cache.register(wasm, module, stats))
    # Capacity 2: the first entry was evicted, and its id mapping with it.
    assert len(cache._mem) == 2
    assert cache.entry_for(entries[0].module) is None
    assert cache.entry_for(entries[2].module) is entries[2]


def test_pickle_roundtrip_of_decoded_module():
    """A decoded module survives a pickle cycle with behavior intact —
    guards against unpicklable state sneaking into Module."""
    wasm = _tiny_module_bytes()
    module, stats = _decode(wasm)
    module2, stats2 = pickle.loads(pickle.dumps((module, stats)))
    assert module2.num_funcs == module.num_funcs
    assert stats2.instructions == stats.instructions


# ---------------------------------------------------------------------------
# canonical_lines guard.
# ---------------------------------------------------------------------------


def test_canonical_lines_strips_exactly_wall():
    lines = [
        json.dumps({"kind": "run", "wall": 1.23, "bench": "gemm"}),
        "",  # blank lines are skipped
        json.dumps({"kind": "span", "phase": "execute", "ops": 7}),
    ]
    out = canonical_lines(lines)
    assert len(out) == 2
    assert all("wall" not in json.loads(line) for line in out)
    assert json.loads(out[0])["bench"] == "gemm"
    assert json.loads(out[1])["ops"] == 7

    # Two traces differing only in wall canonicalize identically...
    other = [json.dumps({"kind": "run", "wall": 9.87, "bench": "gemm"}),
             json.dumps({"kind": "span", "phase": "execute", "ops": 7})]
    assert canonical_lines(other) == out

    # ...and any modeled-field difference still shows through.
    diverged = [json.dumps({"kind": "run", "wall": 1.23, "bench": "gemm"}),
                json.dumps({"kind": "span", "phase": "execute", "ops": 8})]
    assert canonical_lines(diverged) != out
