"""The repository benchmark: one or every workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--out RESULT.json] [--spans SPANS.jsonl]

Run from the repository root; ``--workload all`` runs every workload in
turn.  A workload runs in a fresh child process (``workloads.py``) with
every ``REPRO_*`` variable removed from its environment, so a stray
``REPRO_JOURNAL``, ``REPRO_ENGINE``, ``REPRO_WORKERS`` or ``REPRO_SCALE``
cannot reroute it, and its peak RSS and set-up time are its own.  A few
more children only set up and exit; ``setup_s`` is the median over all
of them, from spawn to ready.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (from spans recorded around each layer's public calls).
Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every output check passed.  ``--out`` also writes the full
record, with provenance, to the given path; nothing else is written
outside a temporary work directory that is removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig8-profile", "fig9-oracle-resume", "table1-search", "lint-tree")
#: Set-ups measured per untraced run (the workload's own plus the rest).
SETUP_SAMPLES = 3
#: Hard limit on one invocation, children included.
DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, int, list[str]]:
    """(spawn time, exit code, stdout lines) of one workload child."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - started),
    )
    return started, proc.returncode, proc.stdout.splitlines()


def last_json(lines: list[str]) -> Optional[dict[str, Any]]:
    if not lines:
        return None
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


def provenance(record: dict[str, Any], workload: str, seed: int) -> dict[str, Any]:
    """Where a result came from: code, interpreter, machine, inputs."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True,
        )
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "python": record["python"],
        "numpy": record["numpy"],
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="also write the full record here")
    parser.add_argument("--spans", help="write the traced run's spans here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all" and (args.out or args.spans):
        parser.error("--out and --spans take one workload")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run(args, args.workload)
    return max(run(args, workload) for workload in WORKLOADS)


def run(args: argparse.Namespace, workload: str) -> int:
    """One workload: set-ups, the measured child, checks and output."""
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(args.seed),
              "--work-dir", str(work)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                started, code, lines = spawn(common + ["--setup-only"], deadline)
                ready = last_json(lines)
                if code != 0 or ready is None:
                    print("error: set-up failed", file=sys.stderr)
                    return 1
                setups.append(ready["ready"] - started)
        extra = ["--spans", str(Path(args.spans).resolve())] if args.spans else []
        started, code, lines = spawn(
            common + ["--seconds", str(args.seconds), "--trace",
                      str(args.trace)] + extra,
            deadline,
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload exceeded {DEADLINE_S:g}s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    record = last_json(lines)
    for line in lines[:-1] if record is not None else lines:
        print(line)
    if record is None:
        print(f"error: workload exited {code} without a result",
              file=sys.stderr)
        return 1
    setups.append(record["ready"] - started)

    values: dict[str, tuple[float, str, str]]
    if args.trace:
        values = {k: tuple(v) for k, v in record["layers"].items()}
    else:
        values = {
            "setup_s": (statistics.median(setups), "s",
                        f"median of {len(setups)} set-ups"),
            "wall_s": (record["wall_s"], "s",
                       f"median of {len(record['walls'])} repetition(s)"),
            "items_per_s": (record["items_per_s"], "1/s",
                            f"{record['unit']}_per_s over "
                            f"{record['items']} {record['unit']}"),
            "peak_rss_mb": (record["peak_rss_mb"], "MB", ""),
        }
    correct = code == 0 and not record["problems"]
    print(f"workload {workload} seed {args.seed} trace {args.trace}: "
          f"{record['attempted']} attempted, {record['failed']} failed")
    for name, (value, unit, note) in values.items():
        print(f"  {name:36} {value:14.6g} {unit:6} {note}")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {'ok' if correct else 'FAILED'}")
    print(f"digest: {record['digest']}")
    for line in record["accuracy"]:
        print(f"accuracy (information only): {line}")
    origin = provenance(record, workload, args.seed)
    print(f"provenance: {json.dumps(origin)}")

    full = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in values.items()
        },
    }
    if args.out:
        detail = dict(full, notes={k: v[2] for k, v in values.items()})
        detail.update(
            digest=record["digest"], problems=record["problems"],
            accuracy=record["accuracy"], walls=record["walls"],
            setups=setups, provenance=origin,
        )
        Path(args.out).write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(full))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
