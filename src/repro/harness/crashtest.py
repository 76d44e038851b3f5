"""Randomized crash-recovery validation sweeps.

An operational tool (``silo-repro crashtest``) rather than a paper
figure: for each design it injects power failures at randomly chosen
points of a workload — including exactly-at-commit strikes — recovers,
and checks the atomic-durability invariant word by word.  This is the
same oracle the property-based tests use, packaged for large sweeps.

Crash points are drawn from a seeded RNG *before* any cell runs, so
the campaign is a fixed list of independent cells: the executor fans
them out across processes (each worker runs engine + recovery +
oracle and ships back only the verdict) and the sweep's verdicts are
identical at any ``--jobs`` count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.harness.executor import (
    CellSpec,
    Executor,
    WorkloadSpec,
    raise_on_failures,
    repro_command,
)
from repro.harness.report import format_table
from repro.sim.crash import CrashPlan
from repro.trace.trace import Trace

DEFAULT_SCHEMES: Tuple[str, ...] = (
    "base",
    "fwb",
    "morlog",
    "wrap",
    "redu",
    "proteus",
    "lad",
    "silo",
    "aglog",
    "quadra1f",
    "trinity2f",
    "redolog4f",
)


@dataclass
class CrashTestResult:
    """Outcome of one sweep."""

    runs: int = 0
    failures: int = 0
    #: ``(scheme, workload, crash_point, first mismatches)`` per failure.
    failure_details: List[Tuple[str, str, str, list]] = field(default_factory=list)
    #: One copy-pasteable replay command per failure, same order: a
    #: failing randomized cell is re-runnable in isolation.
    failure_commands: List[str] = field(default_factory=list)
    per_scheme: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def format_report(self) -> str:
        rows = [
            [scheme, runs, fails, "PASS" if fails == 0 else "FAIL"]
            for scheme, (runs, fails) in sorted(self.per_scheme.items())
        ]
        table = format_table(
            ["scheme", "crash points", "violations", "verdict"],
            rows,
            title="Crash-recovery validation sweep (atomic durability)",
        )
        if self.failure_details:
            lines = [table, "", "first failures:"]
            commands = self.failure_commands + [None] * len(self.failure_details)
            for (scheme, workload, point, mism), command in list(
                zip(self.failure_details, commands)
            )[:5]:
                lines.append(f"  {scheme}/{workload} @ {point}: {mism[:2]}")
                if command:
                    lines.append(f"    replay: {command}")
            return "\n".join(lines)
        return table


def _total_ops(trace: Trace) -> int:
    return sum(
        len(tx.ops) + 2 for thread in trace.threads for tx in thread.transactions
    )


def run(
    workloads: Sequence[str] = ("hash", "btree"),
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    points_per_pair: int = 20,
    threads: int = 2,
    transactions: int = 8,
    seed: int = 0,
    config: Optional[SystemConfig] = None,
    executor: Optional[Executor] = None,
) -> CrashTestResult:
    """Sweep crash points over every (scheme, workload) pair."""
    rng = random.Random(seed)
    result = CrashTestResult()

    cells: List[CellSpec] = []
    labels: List[Tuple[str, str, str]] = []  # (workload, scheme, point label)
    for workload in workloads:
        # The plan draw needs the trace's op count; the build lands in
        # the executor's memo, so serial runs pay it exactly once.
        wspec = WorkloadSpec.make(workload, threads=threads, transactions=transactions)
        ops = _total_ops(wspec.build())
        plans: List[Tuple[str, CrashPlan]] = []
        for _ in range(points_per_pair):
            if rng.random() < 0.25:
                tid = rng.randrange(threads)
                index = rng.randrange(transactions)
                plans.append(
                    (f"commit({tid},{index})", CrashPlan(at_commit_of=(tid, index)))
                )
            else:
                at = rng.randrange(ops)
                plans.append((f"op {at}", CrashPlan(at_op=at)))

        for scheme in schemes:
            for label, plan in plans:
                cells.append(
                    CellSpec(
                        workload=wspec,
                        scheme=scheme,
                        cores=threads,
                        config=config,
                        crash_plan=plan,
                        verify=True,
                    )
                )
                labels.append((workload, scheme, label))

    outcomes = (executor if executor is not None else Executor(jobs=1)).run(cells)
    raise_on_failures(outcomes)

    for (workload, scheme, label), outcome in zip(labels, outcomes):
        runs, fails = result.per_scheme.get(scheme, (0, 0))
        result.runs += 1
        runs += 1
        if outcome.mismatches:
            result.failures += 1
            fails += 1
            result.failure_details.append(
                (scheme, workload, label, outcome.mismatches)
            )
            if outcome.spec.config is None:
                result.failure_commands.append(repro_command(outcome.spec))
        result.per_scheme[scheme] = (runs, fails)
    return result
