"""``wabench golden``: one cold/warm/--jobs gate over every committed
reference (``repro.harness.golden``).

* every golden fails ``check`` on a seeded one-line drift, naming the
  line and the refresh command;
* ``update`` writes nothing when the legs disagree or the audit sees a
  static stack-bound violation;
* the legs run cold, warm and with two jobs, each after the process
  memos are cleared;
* the real ``serve``, ``io`` and ``trace`` goldens reproduce their
  committed files (``perf`` and ``audit`` take minutes and run only in
  CI's ``golden`` matrix job).
"""

from dataclasses import replace

import pytest

from repro import speed
from repro.analysis import audit
from repro.harness.cli import main as wabench
from repro.harness.golden import GOLDENS, Golden


@pytest.mark.parametrize("name", list(GOLDENS))
def test_seeded_drift_fails_check(name, monkeypatch, capsys):
    golden = GOLDENS[name]
    with open(golden.path) as f:
        lines = f.read().splitlines(keepends=True)
    index = len(lines) // 2
    drifted = lines[index].rstrip("\n") + " drifted"
    lines[index] = drifted + "\n"
    text = "".join(lines)
    monkeypatch.setitem(GOLDENS, name,
                        replace(golden, produce=lambda cache_dir, jobs: text))

    assert wabench(["golden", "check", name]) == 1
    out = capsys.readouterr().out
    assert f"golden {name}: FAILED" in out
    assert f"differ from {golden.path} at line {index + 1}" in out
    assert drifted in out
    assert f"wabench golden update {name}" in out


@pytest.mark.parametrize("leg,call", [("warm", 1), ("jobs", 2)])
def test_update_refuses_when_legs_disagree(leg, call, tmp_path,
                                           monkeypatch, capsys):
    path = tmp_path / "golden.json"
    path.write_bytes(b"committed\n")
    calls = []

    def produce(cache_dir, jobs):
        calls.append(jobs)
        return "diverged\n" if len(calls) - 1 == call else "agreed\n"

    monkeypatch.setitem(GOLDENS, "io", Golden("io", str(path), produce))
    assert wabench(["golden", "update", "io"]) == 1
    assert path.read_bytes() == b"committed\n"
    out = capsys.readouterr().out
    assert f"the {leg} leg differs from the cold leg at line 1" in out
    assert "left unchanged" in out


def test_update_audit_refuses_stack_bound_violation(tmp_path, monkeypatch,
                                                    capsys):
    real = audit.run_suite_audit

    def one_violation(size, opt, **kwargs):
        suite = real(size, opt, benchmarks=["quicksort"])
        suite.records[0]["stack_bound_ok"] = False
        return suite

    monkeypatch.setattr(audit, "run_suite_audit", one_violation)
    path = tmp_path / "AUDIT_baseline.json"
    path.write_bytes(b"committed\n")
    monkeypatch.setitem(GOLDENS, "audit",
                        replace(GOLDENS["audit"], path=str(path)))
    assert wabench(["golden", "update", "audit"]) == 1
    assert path.read_bytes() == b"committed\n"
    out = capsys.readouterr().out
    assert "the cold leg failed: static stack bound violated in: " \
           "quicksort" in out


def test_update_then_check_all_by_default(tmp_path, monkeypatch):
    legs = {}
    for name in list(GOLDENS):
        def produce(cache_dir, jobs, name=name):
            assert speed.module_cache.lookup(b"probe") is None
            speed.module_cache.register(b"probe", object(), None)
            legs.setdefault(name, []).append((cache_dir, jobs))
            return f"{name}\n"
        monkeypatch.setitem(GOLDENS, name, Golden(
            name, str(tmp_path / f"{name}.txt"), produce))

    assert wabench(["golden", "update"]) == 0
    assert wabench(["golden", "check"]) == 0
    for name, golden in GOLDENS.items():
        with open(golden.path) as f:
            assert f.read() == f"{name}\n"
        for (cold, cold_jobs), (warm, warm_jobs), (fanned, jobs) in \
                zip(legs[name][0::3], legs[name][1::3], legs[name][2::3]):
            assert (cold_jobs, warm_jobs, jobs) == (1, 1, 2)
            assert warm == cold != fanned

    with pytest.raises(SystemExit) as exc:
        wabench(["golden", "check", "nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", ["serve", "io", "trace"])
def test_real_check(name):
    assert wabench(["golden", "check", name]) == 0
