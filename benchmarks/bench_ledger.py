"""Append one row to the benchmark ledger, ``BENCH_trajectory.json``.

    PYTHONPATH=src python benchmarks/bench_ledger.py [--repo DIR] [--seed N]
        [--note TEXT]

Runs ``perfbench/run.py`` untraced once for every workload that
``BENCHMARK.json`` declares, for its ``run_seconds``, in the checkout at
``--repo`` (default: this one), and appends one row to the ledger at the
repository root: the measured commit and source hash, the machine
fingerprint, the Python and numpy versions, and every workload's
end-to-end metrics with its correctness verdict and output digest.
Point ``--repo`` at a clone of an older commit to record a "before" row
with the same benchmark settings.  A checkout whose ``src`` or
``perfbench`` differs from its HEAD is not that commit: its row gets
``commit: null``, and ``base_commit`` names the HEAD it was changed from.

The ledger is the committed before/after record of performance work.
Rows are comparable only when their machine fingerprints match, and
perfbench's own advice holds: the host's speed drifts, so a claimed gain
rests on interleaved pairs of runs, and one row per side is a summary,
not the evidence.  ``repro run`` wall-clock rows are not recorded here.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.serialization import atomic_write_text

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "BENCH_trajectory.json"

#: One perfbench invocation: (workload, seed, seconds) -> the record
#: written by ``perfbench/run.py --out`` (result plus provenance).
Runner = Callable[[str, int, int], dict[str, Any]]


def perfbench_runner(repo: Path) -> Runner:
    """A runner invoking ``perfbench/run.py`` of the checkout ``repo``."""

    def run(workload: str, seed: int, seconds: int) -> dict[str, Any]:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "record.json"
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0", "--out", str(out)],
                cwd=repo, stdout=subprocess.DEVNULL, check=False,
            )
            if not out.is_file():
                raise RuntimeError(
                    f"perfbench {workload} wrote no record (exit {proc.returncode})"
                )
            record: dict[str, Any] = json.loads(out.read_text())
        return record

    return run


def has_uncommitted_changes(repo: Path) -> bool:
    """Whether ``src`` or ``perfbench`` of the checkout differ from HEAD."""
    proc = subprocess.run(
        ["git", "status", "--porcelain", "--", "src", "perfbench"],
        cwd=repo, capture_output=True, text=True, check=True,
    )
    return bool(proc.stdout.strip())


def build_row(
    runner: Runner,
    workloads: Sequence[str],
    seed: int,
    seconds: int,
    note: Optional[str] = None,
    uncommitted: bool = False,
) -> dict[str, Any]:
    """Run every workload once and fold the records into one ledger row.

    ``uncommitted`` marks a measurement of a changed tree: its ``commit``
    is null, since HEAD (kept as ``base_commit``) is not what ran.
    """
    results: dict[str, Any] = {}
    provenance: dict[str, Any] = {}
    for workload in workloads:
        record = runner(workload, seed, seconds)
        provenance = record.get("provenance", {})
        results[workload] = {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "digest": record.get("digest"),
            "metrics": {
                name: metric["value"]
                for name, metric in sorted(record["metrics"].items())
            },
        }
    head = provenance.get("commit")
    return {
        "commit": None if uncommitted else head,
        "base_commit": head,
        "source_sha256": provenance.get("source_sha256"),
        "machine": {
            key: provenance.get(key) for key in ("cpu", "nproc", "platform")
        },
        "python": provenance.get("python"),
        "numpy": provenance.get("numpy"),
        "seed": seed,
        "seconds": seconds,
        "note": note,
        "workloads": results,
    }


def append_row(ledger: Path, row: dict[str, Any]) -> int:
    """Append ``row`` to the ledger (created if absent); returns the row count."""
    rows: list[dict[str, Any]] = []
    if ledger.exists():
        loaded = json.loads(ledger.read_text())
        if not isinstance(loaded, list):
            raise ValueError(f"{ledger}: expected a JSON list of rows")
        rows = loaded
    rows.append(row)
    atomic_write_text(ledger, json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return len(rows)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repo", type=Path, default=ROOT)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--note")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    repo = args.repo.resolve()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    row = build_row(
        perfbench_runner(repo),
        [workload["name"] for workload in benchmark["workloads"]],
        args.seed,
        int(benchmark["run_seconds"]),
        args.note,
        has_uncommitted_changes(repo),
    )
    count = append_row(LEDGER, row)
    label = row["commit"] or f"uncommitted, based on {row['base_commit']}"
    print(f"appended row {count} ({label}) to {LEDGER}")
    return 0 if all(w["correct"] for w in row["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
