"""``silo-repro trace``: capture Chrome/Perfetto traces of real runs.

Runs one obs-enabled cell per requested scheme (``--scheme all`` covers
every registered design), writes a Chrome trace-event JSON per run —
loadable in ``chrome://tracing`` or https://ui.perfetto.dev — and
prints a per-phase cycle-attribution profile from the metrics registry.

The cells flow through the shared :class:`Executor`, so traces are
cached, parallelizable and addressed by their obs-enabled spec (which
never collides with the plain cells of the figure campaigns).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.designs.scheme import SchemeRegistry
from repro.harness.executor import (
    CellSpec,
    Executor,
    WorkloadSpec,
    raise_on_failures,
)
from repro.harness.report import format_table
from repro.obs import ObsConfig
from repro.obs.export import format_phase_profile, write_chrome_trace
from repro.sim.results import RunResult

#: Default grid: small enough to trace in seconds, big enough that
#: every event family (stalls, overflows, evictions) actually fires.
DEFAULT_WORKLOAD = "hash"
DEFAULT_TRANSACTIONS = 100
DEFAULT_CORES = 2


@dataclass
class TraceRun:
    """One captured trace: the run plus where its JSON landed."""

    scheme: str
    workload: str
    result: RunResult
    path: str


@dataclass
class TraceCmdResult:
    """Everything ``silo-repro trace`` produced."""

    runs: List[TraceRun]

    def format_report(self) -> str:
        rows = [
            [
                run.scheme,
                run.workload,
                run.result.end_cycle,
                len(run.result.events or ()),
                run.result.events_dropped,
                run.path,
            ]
            for run in self.runs
        ]
        parts = [
            format_table(
                ["scheme", "workload", "end_cycle", "events", "dropped", "trace"],
                rows,
                title="trace — Chrome trace-event captures "
                "(open in chrome://tracing or ui.perfetto.dev)",
            )
        ]
        for run in self.runs:
            if run.result.metrics is None:
                continue
            parts.append(
                format_phase_profile(
                    run.result.metrics,
                    title=f"{run.scheme}/{run.workload} — cycle attribution by phase",
                )
            )
        return "\n\n".join(parts)


def _trace_path(template: str, scheme: str, multiple: bool) -> str:
    """``TRACE.json`` -> ``TRACE_silo.json`` when tracing many schemes."""
    if not multiple:
        return template
    root, ext = os.path.splitext(template)
    return f"{root}_{scheme}{ext or '.json'}"


def run(
    scheme: str = "silo",
    workload: str = DEFAULT_WORKLOAD,
    transactions: int = DEFAULT_TRANSACTIONS,
    cores: int = DEFAULT_CORES,
    output: str = "TRACE.json",
    executor: Optional[Executor] = None,
) -> TraceCmdResult:
    """Capture one trace per scheme (``scheme="all"`` = every design)."""
    schemes: Sequence[str]
    if scheme == "all":
        schemes = SchemeRegistry.names()
    else:
        schemes = [scheme]
    obs = ObsConfig(events=True, metrics=True)
    wspec = WorkloadSpec.make(workload, cores, transactions)
    cells = [
        CellSpec(workload=wspec, scheme=s, cores=cores, obs=obs)
        for s in schemes
    ]
    executor = executor or Executor(jobs=1)
    outcomes = executor.run(cells)
    raise_on_failures(outcomes)
    runs = []
    multiple = len(schemes) > 1
    for outcome in outcomes:
        path = _trace_path(output, outcome.spec.scheme, multiple)
        write_chrome_trace(outcome.result, path)
        runs.append(
            TraceRun(
                scheme=outcome.spec.scheme,
                workload=workload,
                result=outcome.result,
                path=path,
            )
        )
    return TraceCmdResult(runs=runs)
