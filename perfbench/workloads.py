"""One benchmark workload, run in a fresh process by ``run.py``.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work-dir DIR [--setup-only] [--spans PATH]

Set-up (imports, building the inputs) ends when the process prints its
``ready`` clock; ``--setup-only`` stops there.  Otherwise the workload's
timed body is repeated while another repetition still fits in
``--seconds`` (at least once), its outputs are checked outside the timed
region, and the last line of stdout is one JSON record for ``run.py``.
With ``--trace 1`` one untraced repetition is followed by one traced
repetition, and the record carries the per-layer metrics instead.

The workloads, and why each one was chosen:

* ``fig8-profile`` -- the flagship Fig. 8 grid (U=0.4, profile
  predictor) through the sweep path on the batch engine, no journal.
  Almost all time is the batch core and the per-lane profile bin walk.
* ``fig9-oracle-resume`` -- the Fig. 9 grid (U=0.8, oracle predictor)
  through the journaled sweep path: pass 1 journals half the seeds, pass
  2 reopens the journal and runs the whole grid, half of it as hits.
  Same batch core without the profile walk, plus the journal's fsync'd
  writes and its recovery scan.
* ``table1-search`` -- Table 1's minimum-capacity bisections, entirely on
  the scalar simulator and ``analysis.capacity``; the batch core idles.
* ``lint-tree`` -- ``repro.lint`` over the CI default paths, then the
  baseline gate; no simulation at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy
from spans import NullTracer, Tracer, digest, p50, tail

ROOT = Path(__file__).resolve().parent.parent

#: The inputs are pinned here rather than read from the program, so a
#: change to the program's defaults cannot silently change the workload.
FRACTIONS = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0)
REFERENCE_CAPACITY = {0.4: 250.0, 0.8: 1000.0}
SCHEDULERS = ("lsa", "ea-dvfs")
HORIZON = 2000.0
#: Task-set seeds per (capacity, scheduler) cell; the workload seed picks
#: the block ``[seed * N_SEEDS, (seed + 1) * N_SEEDS)``.
N_SEEDS = 48
TABLE1_UTILIZATIONS = (0.2, 0.4, 0.6, 0.8)
TABLE1_N_SETS = 2
TABLE1_INITIAL = 20.0
TABLE1_REL_TOL = 0.02
LINT_PATHS = ("src", "benchmarks", "examples", "tests")

COUNTERS = (
    "released_count", "completed_count", "missed_count", "judged_count",
    "switch_count", "stall_count", "per_task_released", "per_task_missed",
)
FLOATS = (
    "harvested_energy", "drawn_energy", "overflow_energy", "leaked_energy",
    "final_stored", "idle_time", "stall_time",
)
#: Batch and scalar energies may differ by at most this, relative to
#: max(1, |value|); counters must match exactly.
ENERGY_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ENERGY_TOL * max(1.0, abs(a), abs(b))


def result_line(spec: Any, result: Any) -> str:
    """Every simulated statistic of one cell, floats at full precision."""
    fields = [
        spec.scheduler_name, repr(spec.utilization), repr(spec.capacity),
        str(spec.seed),
    ]
    fields += [repr(getattr(result, name)) for name in COUNTERS]
    fields += [repr(getattr(result, name)) for name in FLOATS]
    fields.append(repr(sorted(result.busy_time_profile.items())))
    return "|".join(fields)


def result_mismatches(batch: Any, scalar: Any) -> list[str]:
    """Fields on which a batch result disagrees with its scalar re-run."""
    bad = [n for n in COUNTERS if getattr(batch, n) != getattr(scalar, n)]
    bad += [
        n for n in FLOATS if not _close(getattr(batch, n), getattr(scalar, n))
    ]
    bp, sp = batch.busy_time_profile, scalar.busy_time_profile
    if sorted(bp) != sorted(sp) or not all(_close(bp[k], sp[k]) for k in bp):
        bad.append("busy_time_profile")
    return bad


def mean_reduction(specs: list[Any], outcomes: list[Any]) -> float:
    """Mean relative miss-rate cut of EA-DVFS vs LSA where LSA misses."""
    missed: dict[tuple[float, str], list[int]] = {}
    for spec, result in zip(specs, outcomes):
        pair = missed.setdefault((spec.capacity, spec.scheduler_name), [0, 0])
        pair[0] += result.missed_count
        pair[1] += result.judged_count
    cuts = []
    for capacity in sorted({c for c, _ in missed}):
        lsa_m, lsa_j = missed[(capacity, "lsa")]
        ea_m, ea_j = missed[(capacity, "ea-dvfs")]
        lsa = lsa_m / lsa_j if lsa_j else 0.0
        ea = ea_m / ea_j if ea_j else 0.0
        if lsa > 0:
            cuts.append(1.0 - ea / lsa)
    return sum(cuts) / len(cuts) if cuts else 0.0


@dataclass
class Outcome:
    """What one repetition of a timed body produced."""

    value: Any
    #: Work units done (simulated cells, or linted source lines).
    items: int
    #: Seconds the work units took (the whole body for simulations, the
    #: lint pass alone for lint-tree).
    item_s: float = 0.0


class Workload:
    """Defaults shared by the workloads below."""

    unit = "cells"

    def attempted(self, outcome: Outcome) -> int:
        return outcome.items

    def failed(self, outcome: Outcome) -> int:
        return 0

    def accuracy(self, outcome: Outcome) -> list[str]:
        """Error against the paper, for information only."""
        return []

    def layer_facts(self, outcome: Outcome) -> dict[str, float]:
        """Per-layer metrics read from the outputs rather than spans."""
        return {}

    def appends(self, outcome: Outcome) -> int:
        """Journal appends the run must have made (checked when traced)."""
        return 0


class SweepWorkload(Workload):
    """A capacity grid through the journaled sweep path on the batch engine."""

    def __init__(self, seed: int, work_dir: Path, utilization: float,
                 predictor: str, paper: str) -> None:
        from repro.analysis.parallel import RunFailure, RunSpec
        from repro.experiments.common import PaperSetup
        from repro.runtime.journal import ResultJournal
        from repro.runtime.sweep import run_journaled_sweep

        self._failure_type = RunFailure
        self._journal_type = ResultJournal
        self._sweep = run_journaled_sweep
        self.seed = seed
        self.work_dir = work_dir
        self.utilization = utilization
        self.paper = paper
        setup = PaperSetup(horizon=HORIZON, predictor_kind=predictor)
        self.seeds = range(seed * N_SEEDS, (seed + 1) * N_SEEDS)
        c_ref = REFERENCE_CAPACITY[utilization]
        self.specs = [
            RunSpec(
                scheduler_name=name, utilization=utilization,
                capacity=fraction * c_ref, seed=s, setup=setup,
            )
            for fraction in FRACTIONS
            for name in SCHEDULERS
            for s in self.seeds
        ]

    def sweep(self, specs: list[Any], journal: Any) -> Any:
        return self._sweep(specs, journal=journal, max_workers=1, engine="batch")

    def results(self, report: Any) -> list[Any]:
        return list(report.outcomes)

    def failed(self, outcome: Outcome) -> int:
        return sum(
            1 for r in self.results(outcome.value)
            if r is None or isinstance(r, self._failure_type)
        )

    def check(self, outcome: Outcome) -> list[str]:
        """Re-run one cell per (capacity, scheduler) on the scalar engine."""
        results = self.results(outcome.value)
        if self.failed(outcome):
            return [f"{self.failed(outcome)} cell(s) failed or did not run"]
        problems = []
        for group in range(len(self.specs) // N_SEEDS):
            i = group * N_SEEDS + (group * 5 + self.seed) % N_SEEDS
            spec = self.specs[i]
            scalar = spec.setup.run(
                spec.scheduler_name, spec.utilization, spec.capacity, spec.seed
            )
            bad = result_mismatches(results[i], scalar)
            if bad:
                problems.append(
                    f"batch vs scalar differ on {spec.scheduler_name} "
                    f"cap={spec.capacity:g} seed={spec.seed}: {bad}"
                )
        return problems

    def digest(self, outcome: Outcome) -> str:
        results = self.results(outcome.value)
        return digest(result_line(s, r) for s, r in zip(self.specs, results))

    def accuracy(self, outcome: Outcome) -> list[str]:
        cut = mean_reduction(self.specs, self.results(outcome.value))
        return [
            f"mean miss-rate reduction of EA-DVFS vs LSA at "
            f"U={self.utilization}: {cut:.1%} (paper: {self.paper})"
        ]


class Fig8Profile(SweepWorkload):
    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir, 0.4, "profile", "over 50% on average")

    def run(self, tracer: Any) -> Outcome:
        report = self.sweep(self.specs, journal=None)
        return Outcome(report, report.executed)


@dataclass
class ResumeRun:
    first: Any
    second: Any
    journal: Path


class Fig9OracleResume(SweepWorkload):
    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir, 0.8, "oracle", "close to LSA")
        self.first_seeds = set(self.seeds[: N_SEEDS // 2])
        self.first_specs = [s for s in self.specs if s.seed in self.first_seeds]
        self._runs = 0

    def run(self, tracer: Any) -> Outcome:
        self._runs += 1
        path = self.work_dir / f"fig9-{self._runs}.journal"
        path.unlink(missing_ok=True)
        # Pass 1 journals half the grid and closes, as a killed sweep
        # leaves it; pass 2 reopens it (recovery scan) and runs it all.
        journal = self._journal_type(path)
        try:
            first = self.sweep(self.first_specs, journal)
        finally:
            journal.close()
        journal = self._journal_type(path)
        try:
            second = self.sweep(self.specs, journal)
        finally:
            journal.close()
        return Outcome(
            ResumeRun(first, second, path), first.executed + second.executed
        )

    def results(self, report: Any) -> list[Any]:
        return list(report.second.outcomes)

    def check(self, outcome: Outcome) -> list[str]:
        run = outcome.value
        n, half = len(self.specs), len(self.first_specs)
        problems = []
        if (run.first.executed, run.first.journal_hits) != (half, 0):
            problems.append(
                f"pass 1 executed {run.first.executed} with "
                f"{run.first.journal_hits} hit(s); expected {half} and 0"
            )
        if (run.second.journal_hits, run.second.executed) != (half, n - half):
            problems.append(
                f"pass 2 had {run.second.journal_hits} hit(s) and executed "
                f"{run.second.executed}; expected {half} and {n - half}"
            )
        with self._journal_type(run.journal, create=False) as journal:
            info = journal.info()
        if (info.records, info.results, info.torn_bytes_discarded) != (n, n, 0):
            problems.append(
                f"journal holds {info.records} record(s), {info.results} "
                f"result(s), {info.torn_bytes_discarded} torn byte(s); "
                f"expected {n}, {n}, 0"
            )
        first = {
            result_line(s, r)
            for s, r in zip(self.first_specs, run.first.outcomes)
        }
        resumed = {
            result_line(s, r)
            for s, r in zip(self.specs, run.second.outcomes)
            if s.seed in self.first_seeds
        }
        if first != resumed:
            problems.append("journal hits differ from the pass-1 results")
        return problems + super().check(outcome)

    def appends(self, outcome: Outcome) -> int:
        return outcome.items

    def layer_facts(self, outcome: Outcome) -> dict[str, float]:
        run = outcome.value
        with self._journal_type(run.journal, create=False) as journal:
            info = journal.info()
        return {
            "runtime.journal.hit_frac":
                run.second.journal_hits / len(run.second.outcomes),
            "runtime.journal.bytes_per_record":
                info.size_bytes / max(1, info.records),
        }


class Table1Search(Workload):
    """Table 1's bisections on the scalar simulator (no seed: the task
    sets are ``range(n_sets)``, fixed by ``run_table1`` itself)."""

    def __init__(self, seed: int, work_dir: Path) -> None:
        from repro.analysis.capacity import find_min_capacity
        from repro.analysis.sweep import run_replications
        from repro.experiments.common import PaperSetup
        from repro.experiments.table1 import PAPER_TABLE1_RATIOS, run_table1

        self._find = find_min_capacity
        self._replicate = run_replications
        self._table1 = run_table1
        self._paper = PAPER_TABLE1_RATIOS
        self.setup = PaperSetup(horizon=HORIZON)

    def run(self, tracer: Any) -> Outcome:
        result = self._table1(
            self.setup,
            utilizations=TABLE1_UTILIZATIONS,
            n_sets=TABLE1_N_SETS,
            initial_capacity=TABLE1_INITIAL,
            rel_tol=TABLE1_REL_TOL,
        )
        probes = sum(
            len(row.lsa_search.probes) + len(row.ea_search.probes)
            for row in result.rows
        )
        return Outcome(result, probes * TABLE1_N_SETS)

    def searches(self, outcome: Outcome) -> list[tuple[float, str, Any]]:
        return [
            (row.utilization, name, search)
            for row in outcome.value.rows
            for name, search in (("lsa", row.lsa_search),
                                 ("ea-dvfs", row.ea_search))
        ]

    def check(self, outcome: Outcome) -> list[str]:
        """Replay each probe sequence; re-simulate both bracket ends."""
        problems = []
        seeds = range(TABLE1_N_SETS)
        for utilization, name, search in self.searches(outcome):
            label = f"U={utilization} {name}"
            rates = dict(search.probes)
            replay = self._find(
                rates.__getitem__, initial=TABLE1_INITIAL,
                rel_tol=TABLE1_REL_TOL,
            )
            if (replay.probes, replay.min_capacity) != (
                search.probes, search.min_capacity
            ):
                problems.append(f"{label}: probe sequence does not replay")
            factory = self.setup.factory(utilization)
            ends = [(search.min_capacity, rates.get(search.min_capacity))]
            if search.last_missing_capacity > 0:
                ends.append((search.last_missing_capacity,
                             search.last_missing_rate))
            for capacity, recorded in ends:
                rate = self._replicate(
                    factory, name, capacity, seeds
                ).metrics.pooled_miss_rate
                if rate != recorded:
                    problems.append(
                        f"{label}: miss rate at {capacity:g} re-simulates "
                        f"as {rate!r}, search recorded {recorded!r}"
                    )
            if rates.get(search.min_capacity) != 0.0:
                problems.append(f"{label}: Cmin {search.min_capacity:g} misses")
        return problems

    def digest(self, outcome: Outcome) -> str:
        return digest(
            f"{u!r}|{name}|{search.probes!r}|{search.min_capacity!r}"
            for u, name, search in self.searches(outcome)
        )

    def accuracy(self, outcome: Outcome) -> list[str]:
        return [
            f"Cmin,LSA/Cmin,EA-DVFS at U={row.utilization}: {row.ratio:.2f} "
            f"(paper {self._paper.get(row.utilization, float('nan')):.2f})"
            for row in outcome.value.rows
        ]


@dataclass
class LintRun:
    report: Any
    comparison: Any


class LintTree(Workload):
    """``repro.lint`` over the CI default paths plus the baseline gate."""

    unit = "lines"

    def __init__(self, seed: int, work_dir: Path) -> None:
        from repro.lint import Baseline, all_rules, lint_paths

        all_rules()  # imports the rule modules, which is set-up work
        self._baseline = Baseline
        self._lint = lint_paths
        self.paths = [str(ROOT / p) for p in LINT_PATHS]
        self._lines: Optional[tuple[int, int]] = None

    def run(self, tracer: Any) -> Outcome:
        with tracer.span("lint.lint_paths"):
            started = time.perf_counter()
            report = self._lint(self.paths, root=ROOT, jobs=1)
            lint_s = time.perf_counter() - started
        with tracer.span("lint.baseline"):
            comparison = self._baseline.load(
                ROOT / "lint-baseline.json"
            ).compare(report)
        return Outcome(LintRun(report, comparison), self.tree()[1], lint_s)

    def tree(self) -> tuple[int, int]:
        """(python files, source lines) under the linted paths."""
        if self._lines is None:
            files = [
                f for p in LINT_PATHS for f in sorted((ROOT / p).rglob("*.py"))
            ]
            lines = sum(
                len(f.read_text(encoding="utf-8").splitlines()) for f in files
            )
            self._lines = (len(files), lines)
        return self._lines

    def attempted(self, outcome: Outcome) -> int:
        return outcome.value.report.files_checked

    def failed(self, outcome: Outcome) -> int:
        """Files that did not parse."""
        return sum(
            1 for d in outcome.value.report.diagnostics if d.code == "RPR901"
        )

    def check(self, outcome: Outcome) -> list[str]:
        run = outcome.value
        problems = []
        if not run.comparison.ok:
            problems.append("baseline gate failed:\n" + run.comparison.format_text())
        if run.report.stale_suppressions:
            problems.append(
                f"{len(run.report.stale_suppressions)} stale suppression(s)"
            )
        if run.report.files_checked != self.tree()[0]:
            problems.append(
                f"linted {run.report.files_checked} file(s), the tree has "
                f"{self.tree()[0]}"
            )
        return problems

    def digest(self, outcome: Outcome) -> str:
        report = outcome.value.report
        return digest(
            f"{d.path}|{d.line}|{d.col}|{d.code}|{d.message}"
            for d in list(report.diagnostics) + list(report.stale_suppressions)
        )

    def layer_facts(self, outcome: Outcome) -> dict[str, float]:
        report = outcome.value.report
        return {
            "lint.files": report.files_checked,
            "lint.lines": self.tree()[1],
            "lint.findings": len(report.diagnostics),
        }


WORKLOADS = {
    "fig8-profile": Fig8Profile,
    "fig9-oracle-resume": Fig9OracleResume,
    "table1-search": Table1Search,
    "lint-tree": LintTree,
}


def install(tracer: Tracer) -> None:
    """Wrap each layer's public calls on the name its caller resolves."""
    import repro.energy.vectorized as energy_vectorized
    import repro.experiments.common as common
    import repro.experiments.table1 as table1
    import repro.lint.dataflow as lint_dataflow
    import repro.lint.engine as lint_engine
    import repro.lint.index as lint_index
    import repro.lint.purity as lint_purity
    import repro.lint.rules_purity as lint_rules_purity
    import repro.runtime.journal as journal
    import repro.runtime.supervisor as supervisor
    import repro.runtime.sweep as sweep
    import repro.sim.batch as batch

    counts = tracer.counts

    def batch_done(args: tuple, result: Any) -> None:
        counts["sim.batch.cells"] += len(args[0])
        counts["sim.batch.fallbacks"] += sum(result[1].values())

    tracer.wrap(sweep, "run_supervised", "runtime.supervisor")
    tracer.wrap(journal.ResultJournal, "__init__", "runtime.journal.open")
    tracer.wrap(journal.ResultJournal, "append", "runtime.journal.append")
    tracer.wrap(journal.ResultJournal, "get", "runtime.journal.get")
    tracer.wrap(supervisor, "journal_key", "runtime.journal.key")
    tracer.wrap(batch, "execute_runspecs", "sim.batch", on_result=batch_done)
    tracer.wrap(batch, "batch_decide", "sched.vectorized.decide")
    tracer.wrap(batch, "batch_profile_predict", "energy.vectorized.predict")
    tracer.wrap(batch, "batch_span_predict", "energy.vectorized.predict")
    tracer.wrap(batch, "batch_profile_observe", "energy.vectorized.observe")
    tracer.patch(
        energy_vectorized, "profile_segments",
        tracer.counted(energy_vectorized.profile_segments,
                       "energy.vectorized.walk"),
    )
    tracer.wrap(common.PaperSetup, "run", "sim.simulator.run")

    find = table1.find_min_capacity

    def traced_find(miss_fn: Any, *args: Any, **kwargs: Any) -> Any:
        probe = tracer.traced(miss_fn, "analysis.capacity.probe")
        return find(probe, *args, **kwargs)

    tracer.patch(
        table1, "find_min_capacity",
        tracer.traced(traced_find, "analysis.capacity.search"),
    )
    tracer.wrap(lint_engine, "load_modules", "lint.parse")
    tracer.wrap(lint_index, "build_index", "lint.index")
    tracer.wrap(lint_dataflow, "analyze_module", "lint.dataflow")
    tracer.wrap(lint_dataflow, "analyze_arrays", "lint.dataflow")
    tracer.wrap(lint_purity, "build_call_graph", "lint.callgraph")
    tracer.wrap(lint_rules_purity, "analyze", "lint.purity")


def layer_metrics(
    tracer: Tracer, facts: dict[str, float], overhead: float
) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics as ``name -> (value, unit, note)``."""
    out: dict[str, tuple[float, str, str]] = {}

    def put(name: str, value: float, unit: str, note: str = "") -> None:
        out[name] = (value, unit, note)

    def durations(name: str, scale: float) -> list[float]:
        return [s.duration * scale for s in tracer.named(name)]

    def timing(prefix: str, samples: list[float], unit: str) -> None:
        pct, value, beyond = tail(samples)
        put(prefix + "_p50", p50(samples), unit, f"n={len(samples)}")
        put(prefix + "_tail", value, unit,
            f"p{pct:g} of n={len(samples)}, {beyond} beyond")

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    put("runtime.supervisor.self_s",
        tracer.self_total("runtime.supervisor"), "s")
    put("runtime.journal.open_s", tracer.total("runtime.journal.open"), "s")
    appends = durations("runtime.journal.append", 1e6)
    put("runtime.journal.append_calls", len(appends), "count")
    timing("runtime.journal.append_us", appends, "us")
    put("runtime.journal.key_s", tracer.total("runtime.journal.key"), "s")
    put("runtime.journal.hit_frac",
        facts.get("runtime.journal.hit_frac", 0.0), "frac")
    put("runtime.journal.bytes_per_record",
        facts.get("runtime.journal.bytes_per_record", 0.0), "bytes")

    cells = tracer.counts["sim.batch.cells"]
    batch_s = tracer.total("sim.batch")
    put("sim.batch.calls", len(tracer.named("sim.batch")), "count")
    put("sim.batch.cells", cells, "count")
    put("sim.batch.s", batch_s, "s")
    put("sim.batch.self_s", tracer.self_total("sim.batch"), "s")
    put("sim.batch.ms_per_cell", per(batch_s * 1e3, cells), "ms")
    put("sim.batch.fallback_frac",
        per(tracer.counts["sim.batch.fallbacks"], cells), "frac")
    put("sched.vectorized.decide_calls",
        len(tracer.named("sched.vectorized.decide")), "count")
    put("sched.vectorized.decide_s",
        tracer.total("sched.vectorized.decide"), "s")
    for kind in ("predict", "observe"):
        name = f"energy.vectorized.{kind}"
        put(f"{name}_calls", len(tracer.named(name)), "count")
        put(f"{name}_s", tracer.total(name), "s")
    put("energy.vectorized.walk_calls",
        tracer.counts["energy.vectorized.walk"], "count")

    scalar = durations("sim.simulator.run", 1e3)
    put("sim.simulator.cells", len(scalar), "count")
    put("sim.simulator.s", tracer.total("sim.simulator.run"), "s")
    timing("sim.simulator.ms_per_cell", scalar, "ms")

    probes = durations("analysis.capacity.probe", 1e3)
    put("analysis.capacity.searches",
        len(tracer.named("analysis.capacity.search")), "count")
    put("analysis.capacity.probes", len(probes), "count")
    timing("analysis.capacity.probe_ms", probes, "ms")
    put("analysis.capacity.self_s",
        tracer.self_total("analysis.capacity.search"), "s")

    for name in ("lint.files", "lint.lines", "lint.findings"):
        put(name, facts.get(name, 0), "count")
    for name in ("parse", "index", "dataflow", "callgraph", "purity"):
        put(f"lint.{name}_s", tracer.self_total(f"lint.{name}"), "s")
    put("lint.rules_self_s", tracer.self_total("lint.lint_paths"), "s")
    put("lint.baseline_s", tracer.total("lint.baseline"), "s")
    put("trace.overhead_frac", overhead, "frac")
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    stray = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if stray:
        print(f"error: environment must not set {stray}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, Path(args.work_dir))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    walls: list[float] = []
    outcomes: list[Outcome] = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcome = workload.run(NullTracer())
        walls.append(time.perf_counter() - t0)
        outcomes.append(outcome)
        if len(walls) == 1:
            # Later repetitions can keep the earlier one's garbage alive,
            # so the peak is taken where every run has one repetition.
            peak_rss = _peak_rss_mb()
        elapsed = time.perf_counter() - started
        if args.trace or elapsed + statistics.median(walls) > args.seconds:
            break

    problems: list[str] = []
    layers = None
    if args.trace:
        tracer = Tracer(run_id=f"{args.workload}/seed{args.seed}/traced")
        install(tracer)
        try:
            t0 = time.perf_counter()
            traced = workload.run(tracer)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        outcomes.append(traced)
        if args.spans:
            tracer.write_jsonl(args.spans)
        layers = layer_metrics(
            tracer, workload.layer_facts(traced), traced_wall / walls[0] - 1.0
        )
        appends = len(tracer.named("runtime.journal.append"))
        if appends != workload.appends(traced):
            problems.append(
                f"{appends} journal append(s), expected "
                f"{workload.appends(traced)}"
            )

    first = outcomes[0]
    problems += workload.check(first)
    digests = {workload.digest(o) for o in outcomes}
    if len(digests) > 1:
        problems.append(
            f"{len(digests)} different outputs over {len(outcomes)} "
            "repetitions"
        )
    item_s = [o.item_s or w for o, w in zip(outcomes[: len(walls)], walls)]
    failed = workload.failed(first)

    record = {
        "ready": ready,
        "walls": walls,
        "wall_s": statistics.median(walls),
        "items": first.items,
        "unit": workload.unit,
        "items_per_s": first.items / statistics.median(item_s),
        "peak_rss_mb": peak_rss,
        "attempted": workload.attempted(first),
        "failed": failed,
        "problems": problems,
        "digest": min(digests),
        "accuracy": [] if failed else workload.accuracy(first),
        "layers": layers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print(json.dumps(record))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
