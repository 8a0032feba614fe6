"""Unit tests for the benchmark ledger driver (``benchmarks/bench_ledger.py``)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_ledger.py"
_SPEC = importlib.util.spec_from_file_location("bench_ledger", _PATH)
assert _SPEC is not None and _SPEC.loader is not None
ledger = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ledger)


def fake_runner(calls):
    """A runner that records its calls and returns perfbench-shaped records."""

    def run(workload, seed, seconds):
        calls.append((workload, seed, seconds))
        return {
            "correct": workload != "lint-tree",
            "attempted": 10,
            "failed": 0,
            "digest": f"digest-{workload}",
            "metrics": {
                "wall_s": {"value": 2.0, "unit": "s"},
                "setup_s": {"value": 0.5, "unit": "s"},
            },
            "provenance": {
                "commit": "abc123",
                "source_sha256": "f00d",
                "python": "3.11.7",
                "numpy": "2.4.6",
                "cpu": "Test CPU",
                "nproc": 2,
                "platform": "Linux-test",
                "workload": workload,
            },
        }

    return run


WORKLOADS = ("fig8-profile", "table1-search", "lint-tree")


def test_row_covers_every_workload_once():
    calls = []
    row = ledger.build_row(
        fake_runner(calls), WORKLOADS, seed=3, seconds=5, note="n"
    )
    assert calls == [(w, 3, 5) for w in WORKLOADS]
    assert row["commit"] == row["base_commit"] == "abc123"
    assert row["source_sha256"] == "f00d"
    assert row["machine"] == {"cpu": "Test CPU", "nproc": 2, "platform": "Linux-test"}
    assert (row["python"], row["numpy"]) == ("3.11.7", "2.4.6")
    assert (row["seed"], row["seconds"], row["note"]) == (3, 5, "n")
    assert sorted(row["workloads"]) == sorted(WORKLOADS)
    table1 = row["workloads"]["table1-search"]
    assert table1["metrics"] == {"setup_s": 0.5, "wall_s": 2.0}
    assert table1["digest"] == "digest-table1-search"
    assert row["workloads"]["lint-tree"]["correct"] is False


def test_uncommitted_row_has_no_commit():
    row = ledger.build_row(
        fake_runner([]), WORKLOADS, seed=0, seconds=1, uncommitted=True
    )
    assert row["commit"] is None
    assert row["base_commit"] == "abc123"


def test_uncommitted_changes_are_detected(tmp_path):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", "src")
    git("commit", "-q", "-m", "init")
    assert not ledger.has_uncommitted_changes(tmp_path)
    # Files outside src/ and perfbench/ (the ledger itself) do not count.
    (tmp_path / "BENCH_trajectory.json").write_text("[]\n")
    assert not ledger.has_uncommitted_changes(tmp_path)
    (tmp_path / "src" / "m.py").write_text("x = 2\n")
    assert ledger.has_uncommitted_changes(tmp_path)


def test_append_creates_then_extends(tmp_path):
    path = tmp_path / "BENCH_trajectory.json"
    first = ledger.build_row(fake_runner([]), WORKLOADS, seed=0, seconds=1)
    second = dict(first, note="after")
    assert ledger.append_row(path, first) == 1
    assert ledger.append_row(path, second) == 2
    rows = json.loads(path.read_text())
    assert [r["note"] for r in rows] == [None, "after"]
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_trajectory.json"]


def test_append_refuses_a_non_list_ledger(tmp_path):
    path = tmp_path / "BENCH_trajectory.json"
    path.write_text('{"rows": []}\n')
    with pytest.raises(ValueError, match="JSON list"):
        ledger.append_row(path, {"note": None})
    assert path.read_text() == '{"rows": []}\n'


def test_committed_ledger_rows_are_well_formed():
    root = _PATH.parents[1]
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    declared = sorted(w["name"] for w in benchmark["workloads"])
    rows = json.loads((root / "BENCH_trajectory.json").read_text())
    assert rows
    for row in rows:
        assert row["base_commit"]
        assert row["commit"] in (None, row["base_commit"])
        assert sorted(row["workloads"]) == declared
        for entry in row["workloads"].values():
            assert {"setup_s", "wall_s", "items_per_s", "peak_rss_mb"} <= set(
                entry["metrics"]
            )
