"""Hot-path throughput benchmark: simulator ops/sec per scheme x cores.

Unlike the figure harnesses (which report *simulated* metrics), this
benchmark measures the *simulator itself*: how many trace operations
per wall-clock second the engine sustains on the write-heavy ycsb/tpcc
workloads.  It is the perf-regression guard for the engine's inner
loop — run it before and after touching `engine.py`, `memctrl.py`,
the cache hierarchy or the stats layer.

Each cell reruns the identical trace ``repeats`` times (default 3,
``--repeats`` on the CLI) and reports the best wall time as
``ops_per_sec`` plus the sample spread, so the perf trajectory in
``BENCH_hotpath.json`` separates real regressions from scheduler
noise.  Each cell also records the run's ``end_cycle``: the simulated
timing must be bit-identical across perf-only changes, so a changed
``end_cycle`` in this file flags an (intended or accidental) model
change, not just a speed change.

Cells execute through the shared executor, so ``--jobs``/caching
apply; a cache-served cell replays the wall times recorded when it
actually ran.

Modes::

    python -m repro.harness bench            # full grid
    python -m repro.harness bench --smoke    # CI budget (<60 s)
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.executor import (
    CellSpec,
    Executor,
    WorkloadSpec,
    aggregate_outcome_metrics,
    raise_on_failures,
)
from repro.harness.experiments.presentation import format_phase_table
from repro.harness.report import format_table
from repro.obs import ObsConfig

#: The hot-path workloads: large write sets (tpcc) and skewed
#: read-modify-writes (ycsb) keep every simulator layer busy.
DEFAULT_WORKLOADS: Tuple[str, ...] = ("ycsb", "tpcc")
DEFAULT_SCHEMES: Tuple[str, ...] = ("base", "fwb", "morlog", "lad", "silo")
DEFAULT_CORES: Tuple[int, ...] = (1, 8)
DEFAULT_TRANSACTIONS = 120
DEFAULT_REPEATS = 3


def machine_fingerprint() -> str:
    """A coarse identity of the machine a benchmark ran on.

    Wall-clock throughput is only comparable between runs on the same
    hardware; the CI baseline checker gates the ops/sec tolerance on
    this fingerprint matching and falls back to exactness-only checks
    (end_cycle, committed) across machines.
    """
    return "|".join(
        (
            platform.system(),
            platform.machine(),
            platform.python_implementation(),
            str(os.cpu_count() or 0),
        )
    )


@dataclass(frozen=True)
class HotpathCell:
    """One (workload, scheme, cores) measurement.

    ``seconds``/``ops_per_sec`` are the best of ``samples``;
    ``ops_per_sec_spread`` is the best-to-worst throughput delta
    across the samples (the noise band of this measurement).
    """

    workload: str
    scheme: str
    cores: int
    ops: int
    seconds: float
    ops_per_sec: float
    end_cycle: int
    committed: int
    samples: Tuple[float, ...] = ()
    ops_per_sec_spread: float = 0.0
    #: Fraction of ops the columnar engine ran through fused kernels
    #: (``None`` for the exact engine, which has no fast path).
    fast_fraction: Optional[float] = None
    #: Why ops left the fast path: ``{reason: op count}`` from
    #: ``engine_stats()`` (``None`` for the exact engine).
    fallback_reasons: Optional[Dict[str, int]] = None


@dataclass
class HotpathBenchResult:
    """All cells of one benchmark invocation."""

    transactions: int
    repeats: int
    smoke: bool
    #: Execution engine the cells ran under (``exact`` or ``columnar``).
    engine: str = "exact"
    cells: List[HotpathCell] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    machine: str = field(default_factory=machine_fingerprint)
    #: Executor parallelism the cells ran under.  Parallel workers
    #: contend for cores, so wall-clock numbers are only comparable
    #: between runs at the same ``jobs`` setting.
    jobs: int = 1
    #: Aggregated per-phase cycle attribution (``--profile`` only):
    #: ``{phase: simulated cycles}`` summed across the profiled cells.
    phases: Optional[Dict[str, int]] = None

    def cell(self, workload: str, scheme: str, cores: int) -> HotpathCell:
        for c in self.cells:
            if (c.workload, c.scheme, c.cores) == (workload, scheme, cores):
                return c
        raise KeyError((workload, scheme, cores))

    def ops_per_sec(self, cores: int) -> float:
        """Aggregate simulator throughput at one core count (total ops
        over total time, across workloads and schemes)."""
        picked = [c for c in self.cells if c.cores == cores]
        total_seconds = sum(c.seconds for c in picked)
        if not total_seconds:
            return 0.0
        return sum(c.ops for c in picked) / total_seconds

    def format_report(self) -> str:
        rows = [
            [
                c.workload,
                c.scheme,
                c.cores,
                c.ops,
                f"{c.seconds * 1e3:.1f}ms",
                f"{c.ops_per_sec:,.0f}",
                f"±{c.ops_per_sec_spread:,.0f}",
                c.end_cycle,
            ]
            for c in self.cells
        ]
        title = "Simulator hot-path throughput (trace ops per wall-clock second)"
        if self.smoke:
            title += " [smoke]"
        text = format_table(
            [
                "workload",
                "scheme",
                "cores",
                "ops",
                "wall",
                "ops/sec",
                "spread",
                "end_cycle",
            ],
            rows,
            title=title,
        )
        if self.phases:
            profile = format_table(
                ["phase", "cycles", "share"],
                format_phase_table(self.phases),
                title="Per-phase simulated-cycle attribution "
                "(aggregated across profiled cells)",
            )
            text = f"{text}\n\n{profile}"
        return text

    def to_json(self) -> dict:
        record = {
            "benchmark": "hotpath",
            "engine": self.engine,
            "transactions": self.transactions,
            "repeats": self.repeats,
            "smoke": self.smoke,
            "python": platform.python_version(),
            "machine": self.machine,
            "jobs": self.jobs,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "cells": [asdict(c) for c in self.cells],
        }
        if self.phases is not None:
            record["phases"] = dict(sorted(self.phases.items()))
        return record

    def write_json(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def run(
    core_counts: Sequence[int] = DEFAULT_CORES,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    transactions: int = DEFAULT_TRANSACTIONS,
    repeats: int = DEFAULT_REPEATS,
    smoke: bool = False,
    output: Optional[str] = "BENCH_hotpath.json",
    executor: Optional[Executor] = None,
    profile: bool = False,
    engine: str = "exact",
) -> HotpathBenchResult:
    """Measure ops/sec for every (workload, scheme, cores) cell.

    Each cell reruns the identical trace on a fresh system ``repeats``
    times and keeps the fastest wall time (the standard way to strip
    scheduler noise from a deterministic benchmark), reporting the
    best-to-worst spread alongside.  ``smoke`` shrinks the grid to a
    <60 s CI budget.

    ``profile`` enables the obs metrics registry on every cell and
    reports aggregated per-phase simulated-cycle attribution.  The
    instrumented path is slightly slower, so profiled ops/sec numbers
    are not comparable with the plain baseline — use ``--profile`` to
    see *where* cycles go, not to gate regressions.
    """
    if smoke:
        core_counts = (8,)
        if schemes is DEFAULT_SCHEMES:
            schemes = ("base", "silo")
        transactions = min(transactions, 40)
        repeats = min(repeats, 2)
    repeats = max(1, repeats)

    obs = ObsConfig(metrics=True) if profile else None
    cells: List[CellSpec] = []
    for cores in core_counts:
        for workload in workloads:
            wspec = WorkloadSpec.make(
                workload, threads=cores, transactions=transactions
            )
            for scheme in schemes:
                cells.append(
                    CellSpec(
                        workload=wspec,
                        scheme=scheme,
                        cores=cores,
                        repeats=repeats,
                        obs=obs,
                        engine=engine,
                    )
                )
    exe = executor if executor is not None else Executor(jobs=1)
    outcomes = exe.run(cells)
    raise_on_failures(outcomes)

    result = HotpathBenchResult(
        transactions=transactions,
        repeats=repeats,
        smoke=smoke,
        engine=engine,
        cache_hits=sum(1 for o in outcomes if o.cached),
        cache_misses=sum(1 for o in outcomes if not o.cached),
        jobs=exe.jobs,
    )
    if profile:
        aggregated = aggregate_outcome_metrics(outcomes)
        result.phases = (
            {k: int(v) for k, v in aggregated.phases.items()}
            if aggregated is not None
            else {}
        )
    at = iter(outcomes)
    for cores in core_counts:
        for workload in workloads:
            for scheme in schemes:
                outcome = next(at)
                run_result = outcome.result
                ops = sum(
                    len(tx.ops) + 2
                    for thread in outcome.spec.workload.build().threads
                    for tx in thread.transactions
                )
                best = min(outcome.seconds)
                worst = max(outcome.seconds)
                estats = outcome.engine_stats
                result.cells.append(
                    HotpathCell(
                        workload=workload,
                        scheme=scheme,
                        cores=cores,
                        ops=ops,
                        seconds=best,
                        ops_per_sec=ops / best if best else 0.0,
                        end_cycle=run_result.end_cycle,
                        committed=run_result.committed_count,
                        samples=tuple(outcome.seconds),
                        ops_per_sec_spread=(
                            ops / best - ops / worst if best and worst else 0.0
                        ),
                        fast_fraction=(
                            estats["fast_fraction"] if estats else None
                        ),
                        fallback_reasons=(
                            dict(estats.get("fallback_reasons", {}))
                            if estats
                            else None
                        ),
                    )
                )
    if output:
        result.write_json(output)
    return result


# ----------------------------------------------------------------------
# Dispatch overhead: batching + shared trace artifacts
# ----------------------------------------------------------------------
def measure_batching(
    jobs: int = 2, smoke: bool = True, repeats: int = 5
) -> Dict[str, float]:
    """Wall-clock of the experiment catalog under the two dispatch
    stacks: **per-cell dispatch** — one cell per pool task, no trace
    artifacts, worker pool torn down after every campaign (the
    pre-batching executor, reproducible today with ``--batch 1`` on a
    fresh executor per campaign) — versus **batched dispatch** —
    auto-sized cell batches over a shared trace-artifact store on one
    persistent worker pool spanning the whole catalog.

    Both passes run cacheless with ``jobs`` workers, so the delta
    isolates exactly what the dispatch layers removed: per-campaign
    worker spawn + imports, per-cell IPC round-trips, and redundant
    per-process trace synthesis.  The two stacks are timed as
    ``repeats`` back-to-back *pairs* and the reported speedup is the
    **median of the per-pair ratios**: machine noise on a shared host
    is mostly drift (throttling, noisy neighbours) that lands on both
    halves of a pair, so pair ratios damp it where independent
    best-of minima cannot.  The batched passes share one store
    directory — only the first pays the cold build, so the
    steady-state pairs reflect the warm store every real campaign
    after the first runs in.
    """
    import statistics
    import tempfile
    import time

    from repro.harness.experiments import load_all, run_campaign
    from repro.harness.traceartifacts import TraceArtifactStore

    specs = load_all().specs()

    def per_cell_seconds() -> float:
        """Pre-batching stack: fresh pool per campaign, task per cell."""
        started = time.perf_counter()
        for spec in specs:
            with Executor(jobs=jobs, batch=1) as executor:
                run_campaign(spec, executor=executor, smoke=smoke)
        return time.perf_counter() - started

    def batched_seconds(store_dir: str) -> float:
        """This executor's stack: one pool, batches, trace artifacts."""
        started = time.perf_counter()
        with Executor(
            jobs=jobs, trace_store=TraceArtifactStore(store_dir)
        ) as executor:
            for spec in specs:
                run_campaign(spec, executor=executor, smoke=smoke)
        return time.perf_counter() - started

    percell_samples = []
    batched_samples = []
    ratios = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(max(1, repeats)):
            b1 = per_cell_seconds()
            bd = batched_seconds(tmp)
            percell_samples.append(b1)
            batched_samples.append(bd)
            if bd:
                ratios.append(b1 / bd)
    return {
        "jobs": float(jobs),
        "batch1_seconds": min(percell_samples),
        "batched_seconds": min(batched_samples),
        "speedup": statistics.median(ratios) if ratios else 0.0,
    }


# ----------------------------------------------------------------------
# Engine comparison: exact vs columnar on the same grid
# ----------------------------------------------------------------------
@dataclass
class EngineCompareCell:
    """One (workload, scheme, cores) cell measured under both engines."""

    workload: str
    scheme: str
    cores: int
    ops: int
    exact_ops_per_sec: float
    columnar_ops_per_sec: float
    speedup: float
    fast_fraction: float
    end_cycle: int
    identical: bool
    #: Why ops left the columnar fast path (``{reason: op count}``).
    fallback_reasons: Dict[str, int] = field(default_factory=dict)


@dataclass
class EngineBenchResult:
    """Exact-vs-columnar comparison over the hot-path grid.

    ``identical`` summarizes the bit-identity tripwire: every cell's
    ``end_cycle``/``committed`` must match between engines (the
    executor cache keys engines separately, so both runs are real).
    ``full_fallback_cells`` counts cells the columnar engine ran
    entirely through the exact path (``fast_fraction == 0``) — the
    silent-fallback gate fails the benchmark when more than half the
    grid does.
    """

    transactions: int
    repeats: int
    smoke: bool
    cells: List[EngineCompareCell] = field(default_factory=list)
    machine: str = field(default_factory=machine_fingerprint)
    jobs: int = 1
    #: Wall-clock of the smoke experiment catalog dispatched one cell
    #: per task versus auto-batched over shared trace artifacts (see
    #: :func:`measure_batching`); ``None`` when the probe was skipped.
    batching: Optional[Dict[str, float]] = None

    @property
    def identical(self) -> bool:
        return all(c.identical for c in self.cells)

    @property
    def full_fallback_cells(self) -> int:
        return sum(1 for c in self.cells if c.fast_fraction == 0.0)

    @property
    def aggregate_speedup(self) -> float:
        """Total-ops-over-total-time ratio across the whole grid."""
        exact = sum(c.ops / c.exact_ops_per_sec for c in self.cells if c.exact_ops_per_sec)
        col = sum(c.ops / c.columnar_ops_per_sec for c in self.cells if c.columnar_ops_per_sec)
        return exact / col if col else 0.0

    @property
    def per_scheme(self) -> Dict[str, dict]:
        """Kernel-coverage roll-up: ops-weighted ``fast_fraction`` and
        summed fallback-reason counts per scheme, so a fused-stepper
        regression is visible in the trajectory even when the cell list
        changes shape."""
        acc: Dict[str, dict] = {}
        for c in self.cells:
            d = acc.setdefault(
                c.scheme, {"ops": 0, "fast": 0.0, "reasons": {}}
            )
            d["ops"] += c.ops
            d["fast"] += c.fast_fraction * c.ops
            for reason, count in c.fallback_reasons.items():
                d["reasons"][reason] = d["reasons"].get(reason, 0) + count
        return {
            scheme: {
                "fast_fraction": d["fast"] / d["ops"] if d["ops"] else 0.0,
                "fallback_reasons": dict(sorted(d["reasons"].items())),
            }
            for scheme, d in sorted(acc.items())
        }

    def format_report(self) -> str:
        rows = [
            [
                c.workload,
                c.scheme,
                c.cores,
                f"{c.exact_ops_per_sec:,.0f}",
                f"{c.columnar_ops_per_sec:,.0f}",
                f"{c.speedup:.2f}x",
                f"{c.fast_fraction:.3f}",
                "ok" if c.identical else "MISMATCH",
            ]
            for c in self.cells
        ]
        title = "Engine comparison (exact vs columnar, best-of-N ops/sec)"
        if self.smoke:
            title += " [smoke]"
        text = format_table(
            [
                "workload",
                "scheme",
                "cores",
                "exact ops/s",
                "columnar ops/s",
                "speedup",
                "fast_frac",
                "bit-identical",
            ],
            rows,
            title=title,
        )
        text = (
            f"{text}\n\naggregate speedup: {self.aggregate_speedup:.2f}x | "
            f"full fallbacks: {self.full_fallback_cells}/{len(self.cells)}"
        )
        for scheme, d in self.per_scheme.items():
            reasons = d["fallback_reasons"]
            detail = (
                " ".join(f"{k}={v}" for k, v in reasons.items())
                if reasons
                else "no fallbacks"
            )
            text += (
                f"\n  {scheme}: fast_fraction {d['fast_fraction']:.3f} "
                f"({detail})"
            )
        if self.batching:
            b = self.batching
            text += (
                f"\nbatching probe (smoke catalog, jobs={b['jobs']:.0f}): "
                f"per-cell dispatch {b['batch1_seconds']:.1f}s -> "
                f"batched+pooled+artifacts {b['batched_seconds']:.1f}s "
                f"({b['speedup']:.2f}x median pair ratio)"
            )
        return text

    def to_json(self) -> dict:
        return {
            "benchmark": "engine",
            "transactions": self.transactions,
            "repeats": self.repeats,
            "smoke": self.smoke,
            "python": platform.python_version(),
            "machine": self.machine,
            "jobs": self.jobs,
            "identical": self.identical,
            "aggregate_speedup": self.aggregate_speedup,
            "full_fallback_cells": self.full_fallback_cells,
            "per_scheme": self.per_scheme,
            "batching": self.batching,
            "cells": [asdict(c) for c in self.cells],
        }

    def write_json(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def run_engine_comparison(
    core_counts: Sequence[int] = DEFAULT_CORES,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    transactions: int = DEFAULT_TRANSACTIONS,
    repeats: int = DEFAULT_REPEATS,
    smoke: bool = False,
    output: Optional[str] = "BENCH_engine.json",
    executor: Optional[Executor] = None,
    batching_probe: bool = True,
) -> EngineBenchResult:
    """Run the hot-path grid under both engines and compare.

    ``batching_probe`` additionally times the smoke experiment catalog
    under per-cell dispatch versus batching + persistent pool + shared
    trace artifacts and records the ratio (see
    :func:`measure_batching`).

    Raises :class:`~repro.common.errors.ExecutionError` when any cell's
    simulated results diverge between engines, or when the columnar
    engine silently fell back to the exact path on more than half the
    grid — both are regressions the CI bench job must catch, not
    record.
    """
    from repro.common.errors import ExecutionError

    if smoke and schemes is DEFAULT_SCHEMES:
        # One policy-assembled design rides along in the smoke grid so
        # the fused policy kernel's full coverage stays baseline-gated
        # next to the other fused kernels.
        schemes = ("base", "silo", "aglog")
    common = dict(
        core_counts=core_counts,
        workloads=workloads,
        schemes=schemes,
        transactions=transactions,
        repeats=repeats,
        smoke=smoke,
        output=None,
        executor=executor,
    )
    exact = run(engine="exact", **common)
    columnar = run(engine="columnar", **common)

    result = EngineBenchResult(
        transactions=exact.transactions,
        repeats=exact.repeats,
        smoke=exact.smoke,
        jobs=exact.jobs,
    )
    for e, c in zip(exact.cells, columnar.cells):
        identical = (
            e.end_cycle == c.end_cycle and e.committed == c.committed
        )
        result.cells.append(
            EngineCompareCell(
                workload=e.workload,
                scheme=e.scheme,
                cores=e.cores,
                ops=e.ops,
                exact_ops_per_sec=e.ops_per_sec,
                columnar_ops_per_sec=c.ops_per_sec,
                speedup=(
                    c.ops_per_sec / e.ops_per_sec if e.ops_per_sec else 0.0
                ),
                fast_fraction=c.fast_fraction or 0.0,
                end_cycle=e.end_cycle,
                identical=identical,
                fallback_reasons=dict(c.fallback_reasons or {}),
            )
        )
    if batching_probe:
        result.batching = measure_batching(jobs=2)
    if output:
        result.write_json(output)
    if not result.identical:
        bad = [
            f"{c.workload}/{c.scheme}/{c.cores}"
            for c in result.cells
            if not c.identical
        ]
        raise ExecutionError(
            "columnar engine diverged from exact on: " + ", ".join(bad)
        )
    if result.full_fallback_cells * 2 > len(result.cells):
        raise ExecutionError(
            f"columnar engine silently fell back to exact on "
            f"{result.full_fallback_cells}/{len(result.cells)} cells"
        )
    return result
