"""Tests for the on-disk artifact cache and the parallel scheduler:
cold/warm equivalence, key sensitivity, corruption recovery, and
serial-vs-parallel byte-identity of CLI artifacts."""

import glob
import os

import pytest

from repro.compiler import compile_source, config_fingerprint
from repro.harness import Harness
from repro.harness.cache import ArtifactCache, cache_key
from repro.harness.cli import main as cli_main
from repro.harness.parallel import plan_cells, run_cells
from repro.runtimes import RunResult, make_runtime


BENCH = "quicksort"


def _result_fields(result):
    return (result.runtime, result.stdout, result.exit_code, result.trap,
            result.seconds, result.cycles, result.mrss_bytes,
            result.counters, result.compile_seconds, result.execute_seconds,
            result.memory_breakdown, result.code_bytes)


class TestArtifactCacheStore:
    def test_roundtrip_bytes(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = cache_key("wasm", x=1)
        assert cache.get_bytes(key) is None
        cache.put_bytes(key, b"\x00asm payload")
        assert cache.get_bytes(key) == b"\x00asm payload"
        assert cache.contains(key)
        assert cache.object_count() == 1

    def test_truncated_object_is_a_miss_and_evicted(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = cache_key("wasm", x=2)
        cache.put_bytes(key, b"x" * 100)
        path = cache._path(key)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        assert cache.get_bytes(key) is None
        assert not os.path.exists(path)

    def test_bitflip_detected(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = cache_key("wasm", x=3)
        cache.put_bytes(key, b"payload-bytes")
        path = cache._path(key)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        assert cache.get_bytes(key) is None

    def test_pickle_corruption_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = cache_key("native", x=4)
        # Checksum-valid payload that is not a pickle at all.
        cache.put_bytes(key, b"not a pickle")
        assert cache.get_pickle(key) is None

    def test_key_is_order_insensitive_and_kind_sensitive(self):
        assert cache_key("wasm", a=1, b=2) == cache_key("wasm", b=2, a=1)
        assert cache_key("wasm", a=1) != cache_key("native", a=1)


class TestRunResultJson:
    def test_roundtrip_preserves_every_field(self):
        artifact = compile_source("int main() { return 0; }", 2)
        result = make_runtime("wamr").run(artifact.wasm_bytes)
        back = RunResult.from_json(result.to_json())
        assert _result_fields(back) == _result_fields(result)
        # Numeric types survive: int counters stay int, floats stay float.
        for key, value in result.counters.items():
            assert type(back.counters[key]) is type(value), key


class TestHarnessDiskCache:
    def test_cold_then_warm_results_identical(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = Harness(size="test", benchmarks=[BENCH], cache_dir=cache_dir)
        r_cold = cold.run(BENCH, "wamr")
        assert cold.cache_stats.total_hits == 0
        assert cold.cache_stats.misses["result"] == 1

        warm = Harness(size="test", benchmarks=[BENCH], cache_dir=cache_dir)
        r_warm = warm.run(BENCH, "wamr")
        assert _result_fields(r_warm) == _result_fields(r_cold)
        assert warm.cache_stats.total_misses == 0
        assert warm.cache_stats.hits["result"] == 1

    def test_warm_run_performs_zero_compiles(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = Harness(size="test", benchmarks=[BENCH], cache_dir=cache_dir)
        cold.run(BENCH, "native")
        cold.run(BENCH, "wasmtime", aot=True)

        warm = Harness(size="test", benchmarks=[BENCH], cache_dir=cache_dir)
        warm.run(BENCH, "native")
        warm.run(BENCH, "wasmtime", aot=True)
        # Artifact hits only — native binary, wasm, aot image never rebuilt.
        assert warm.cache_stats.total_misses == 0
        assert warm.cache_stats.hits == {"result": 2}

    def test_wasm_and_native_artifacts_cached(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        h1 = Harness(size="test", benchmarks=[BENCH], cache_dir=cache_dir)
        wasm = h1.wasm_for(BENCH)
        h1.native_binary(BENCH)
        h2 = Harness(size="test", benchmarks=[BENCH], cache_dir=cache_dir)
        assert h2.wasm_for(BENCH) == wasm
        assert h2.native_binary(BENCH).code_bytes == \
            h1.native_binary(BENCH).code_bytes
        assert h2.cache_stats.hits == {"wasm": 1, "native": 1}

    def test_key_sensitivity_opt_size_defines(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        h = Harness(size="test", benchmarks=[BENCH], cache_dir=cache_dir)
        h.wasm_for(BENCH, opt=2)
        # Different -O level: distinct key, so a recompile (miss).
        h2 = Harness(size="test", benchmarks=[BENCH], cache_dir=cache_dir)
        h2.wasm_for(BENCH, opt=0)
        assert h2.cache_stats.misses.get("wasm") == 1
        # Different size: distinct key too.
        h3 = Harness(size="small", benchmarks=[BENCH], cache_dir=cache_dir)
        h3.wasm_for(BENCH, opt=2)
        assert h3.cache_stats.misses.get("wasm") == 1
        # Same config again: hit.
        h4 = Harness(size="test", benchmarks=[BENCH], cache_dir=cache_dir)
        h4.wasm_for(BENCH, opt=2)
        assert h4.cache_stats.hits.get("wasm") == 1

    def test_config_fingerprint_tracks_defines_and_opt(self):
        base = config_fingerprint(2, defines={"N": "10"})
        assert base == config_fingerprint(2, defines={"N": "10"})
        assert base != config_fingerprint(3, defines={"N": "10"})
        assert base != config_fingerprint(2, defines={"N": "11"})
        assert base != config_fingerprint(2, defines={"N": "10"},
                                          include_libc=False)

    def test_corrupt_result_falls_back_to_recompute(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = Harness(size="test", benchmarks=[BENCH], cache_dir=cache_dir)
        expect = cold.run(BENCH, "wamr")
        # Truncate every cached object.
        for path in glob.glob(os.path.join(cache_dir, "objects", "*", "*")):
            with open(path, "rb") as fh:
                blob = fh.read()
            with open(path, "wb") as fh:
                fh.write(blob[:max(1, len(blob) // 3)])
        warm = Harness(size="test", benchmarks=[BENCH], cache_dir=cache_dir)
        again = warm.run(BENCH, "wamr")
        assert _result_fields(again) == _result_fields(expect)
        assert warm.cache_stats.misses["result"] == 1

    def test_in_memory_caches_key_on_size(self):
        # Regression: size was missing from the artifact cache keys, so
        # two sizes sharing one Harness silently reused the wrong binary.
        h = Harness(size="test", benchmarks=[BENCH])
        small_wasm = h.wasm_for(BENCH)
        h.size = "small"
        assert h.wasm_for(BENCH) != small_wasm
        assert set(k[2] for k in h._wasm_cache) == {"test", "small"}


class TestParallel:
    def test_plan_cells_covers_default_grid(self):
        h = Harness(size="test", benchmarks=["gemm", BENCH])
        cells = plan_cells(h, ["fig6"])
        assert len(cells) == 2 * 6  # 2 benchmarks x (native + 5 runtimes)
        aot_cells = plan_cells(h, ["fig3"])
        assert (BENCH, "wasmtime", 2, True) in aot_cells
        assert plan_cells(h, ["metrics"]) == []

    def test_parallel_matches_serial(self, tmp_path):
        serial = Harness(size="test", benchmarks=[BENCH])
        parallel = Harness(size="test", benchmarks=[BENCH],
                           cache_dir=str(tmp_path / "cache"))
        cells = [(BENCH, engine, 2, False)
                 for engine in ("native", "wamr", "wasm3")]
        run_cells(serial, cells, jobs=1)
        run_cells(parallel, cells, jobs=2)
        for cell in cells:
            key = cell + ("test",)
            assert _result_fields(parallel._result_cache[key]) == \
                _result_fields(serial._result_cache[key])

    def test_parallel_error_propagates(self, tmp_path):
        from repro.errors import HarnessError
        h = Harness(size="test", benchmarks=[BENCH])
        with pytest.raises(HarnessError):
            run_cells(h, [(BENCH, "native", 2, True),
                          (BENCH, "wamr", 2, False)], jobs=2)

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_cell_errors_one_line_each(self, monkeypatch, jobs):
        """Any ReproError in a cell (the pool forks with this patch in
        place) becomes one line naming the cell; the other cells' results
        are kept."""
        from repro.errors import HarnessError, ReproError, Trap
        real_run = Harness.run

        def run(self, name, engine, opt=None, aot=False):
            if engine == "wamr":
                raise ReproError("closure codegen: unhandled kind 99")
            if engine == "wasm3":
                raise Trap("unreachable")
            return real_run(self, name, engine, opt=opt, aot=aot)

        monkeypatch.setattr(Harness, "run", run)
        h = Harness(size="test", benchmarks=[BENCH])
        cells = [(BENCH, e, 2, False) for e in ("native", "wamr", "wasm3")]
        with pytest.raises(HarnessError) as excinfo:
            run_cells(h, cells, jobs=jobs)
        assert str(excinfo.value).splitlines() == [
            f"{BENCH} on wamr: ReproError: closure codegen: unhandled kind 99",
            f"{BENCH} on wasm3: Trap: trap: unreachable"]
        assert (BENCH, "native", 2, False, "test") in h._result_cache


class TestCliParallelByteIdentity:
    def test_jobs_artifacts_byte_identical_to_serial(self, tmp_path,
                                                     capsys):
        out1 = str(tmp_path / "par")
        out2 = str(tmp_path / "ser")
        base = ["fig6", "--size", "test", "--benchmarks",
                f"{BENCH},gemm"]
        assert cli_main(base + ["--jobs", "2", "--out", out1,
                                "--cache-dir",
                                str(tmp_path / "c1")]) == 0
        assert cli_main(base + ["--jobs", "1", "--out", out2,
                                "--cache-dir",
                                str(tmp_path / "c2")]) == 0
        par = open(os.path.join(out1, "fig6.txt"), "rb").read()
        ser = open(os.path.join(out2, "fig6.txt"), "rb").read()
        assert par == ser

    def test_warm_cli_rerun_is_all_hits(self, tmp_path, capsys):
        argv = ["fig6", "--size", "test", "--benchmarks", BENCH,
                "--cache-dir", str(tmp_path / "cache")]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "100.0%, warm" in out

    def test_no_cache_disables_store(self, tmp_path, capsys):
        argv = ["fig6", "--size", "test", "--benchmarks", BENCH,
                "--no-cache", "--cache-dir", str(tmp_path / "cache")]
        assert cli_main(argv) == 0
        assert not os.path.exists(str(tmp_path / "cache"))
