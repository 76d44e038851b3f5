"""Exact-vs-columnar equivalence gate over the experiment catalog.

The columnar engine is only admissible because it is *bit-identical*:
every campaign must produce the same simulated results under either
engine.  This module runs the full experiment registry (smoke
parameters by default) under both engines and compares three layers:

* **Manifests** — the campaign manifests must be byte-equal after
  normalization.  A manifest records each cell's content address and
  cache status; the engine is deliberately part of the address (so
  both engines really execute) and cache status depends on run order,
  so the comparison strips exactly those two fields — ``engine``
  inside each cell spec and the per-cell ``cached`` flag — and then
  requires byte equality of the canonical JSON encoding.
* **Result payloads** — each experiment's assembled figure/table
  payload (``to_json_payload()``), compared byte-for-byte with no
  normalization at all.
* **Cell results** — per-cell ``end_cycle``, committed set and the
  full stats counter mapping, compared value-for-value.

It also accounts the columnar engine's fused coverage: a cell whose
``fast_fraction`` is zero ran entirely through the exact path, and a
catalog where more than half the simulated cells silently fall back
fails the gate (the fast engine would be decorative).

Beyond the catalog, the gate runs dedicated **stress cells** for the
paths smoke campaigns barely touch: an eviction-storm workload (arena
far larger than its shrunken caches, so dirty L3 victims — open
transactions' lines included — and on-PM-buffer writeback storms
dominate), a finalize-heavy one (large dirty-line tails drained at end
of run) and a policy-catalog one (staging spills under every
granularity and fence schedule).  Those cells must be bit-identical
*and* fully fused (``fast_fraction == 1.0``) — eviction storms or
policy designs falling back to the exact path is exactly the coverage
regression this gate exists to catch.

CI entry point::

    PYTHONPATH=src python -m repro.harness.equivalence
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.harness.executor import Executor
from repro.harness.experiments import load_all, run_campaign


def normalized_manifest(manifest: Dict[str, Any]) -> str:
    """Canonical JSON of a campaign manifest with the two
    engine-dependent fields removed (see module docstring)."""
    clean = json.loads(json.dumps(manifest, sort_keys=True))
    for cell in clean.get("cells", []):
        cell.pop("cached", None)
        spec = cell.get("spec")
        if isinstance(spec, dict):
            spec.pop("engine", None)
    return json.dumps(clean, sort_keys=True)


@dataclass
class EquivalenceReport:
    """Outcome of one exact-vs-columnar catalog comparison."""

    smoke: bool
    experiments: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    simulated_cells: int = 0
    full_fallback_cells: int = 0
    delegated_cells: int = 0
    stress_cells: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.excessive_fallback

    @property
    def excessive_fallback(self) -> bool:
        return self.full_fallback_cells * 2 > max(1, self.simulated_cells)

    def format_report(self) -> str:
        lines = [
            f"engine equivalence over {len(self.experiments)} experiments "
            f"({'smoke' if self.smoke else 'full'} catalog): "
            f"{self.simulated_cells} simulated cells, "
            f"{self.full_fallback_cells} full fallbacks, "
            f"{self.delegated_cells} delegated, "
            f"{self.stress_cells} stress cells",
        ]
        if self.excessive_fallback:
            lines.append(
                "FAIL: columnar engine silently fell back on more than "
                "half the catalog"
            )
        for m in self.mismatches:
            lines.append(f"MISMATCH: {m}")
        if self.ok:
            lines.append("OK: manifests, payloads and cell results match")
        return "\n".join(lines)


def check_engine_equivalence(
    smoke: bool = True,
    jobs: int = 1,
    names: Optional[List[str]] = None,
) -> EquivalenceReport:
    """Run the experiment catalog under both engines and compare.

    Uses cacheless executors: a cache hit would compare an engine
    against a stored copy of itself and prove nothing.
    """
    registry = load_all()
    specs = (
        registry.specs()
        if names is None
        else [registry.get(name) for name in names]
    )
    report = EquivalenceReport(smoke=smoke)
    for spec in specs:
        report.experiments.append(spec.name)
        result_exact, campaign_exact = run_campaign(
            spec, executor=Executor(jobs=jobs), smoke=smoke, engine="exact"
        )
        result_col, campaign_col = run_campaign(
            spec, executor=Executor(jobs=jobs), smoke=smoke, engine="columnar"
        )

        if normalized_manifest(campaign_exact.manifest()) != normalized_manifest(
            campaign_col.manifest()
        ):
            report.mismatches.append(f"{spec.name}: manifest differs")
        payload_exact = json.dumps(
            result_exact.to_json_payload(), sort_keys=True, default=repr
        )
        payload_col = json.dumps(
            result_col.to_json_payload(), sort_keys=True, default=repr
        )
        if payload_exact != payload_col:
            report.mismatches.append(f"{spec.name}: result payload differs")

        for (point, oe), (_, oc) in zip(
            campaign_exact.cells(), campaign_col.cells()
        ):
            re_, rc = oe.result, oc.result
            report.simulated_cells += 1
            stats = oc.engine_stats or {}
            if stats.get("delegated"):
                report.delegated_cells += 1
            elif stats.get("fast_fraction", 0.0) == 0.0:
                report.full_fallback_cells += 1
            if not hasattr(re_, "end_cycle"):
                continue  # trace-statistics cells carry no run result
            where = f"{spec.name} {point}"
            if re_.end_cycle != rc.end_cycle:
                report.mismatches.append(
                    f"{where}: end_cycle {re_.end_cycle} != {rc.end_cycle}"
                )
            if re_.committed != rc.committed:
                report.mismatches.append(f"{where}: committed differs")
            if dict(re_.stats.counters) != dict(rc.stats.counters):
                report.mismatches.append(f"{where}: stats counters differ")
    return report


#: Stress cells for the fused paths the smoke catalog barely touches:
#: ``(label, synthetic-trace kwargs, schemes, must_fuse, caches)``,
#: where ``caches`` is ``None`` (the Table II hierarchy) or the
#: ``(l1, l2, l3)`` capacities in bytes.  The eviction-heavy cell's
#: arena (512 KiB of words) dwarfs its 2/4/8 KiB caches, so dirty L3
#: victims surface mid-transaction — including lines of open
#: transactions, which the redo designs must drop — and on-PM-buffer
#: writeback storms dominate; the finalize-heavy cell leaves each core
#: hundreds of dirty lines to drain at end of run.
#: ``must_fuse`` demands ``fast_fraction == 1.0``: these schemes have
#: fused eviction/finalize kernels, and silently losing them is the
#: coverage regression this gate exists to catch.
STRESS_CELLS = (
    (
        "eviction-heavy",
        dict(
            threads=4,
            transactions_per_thread=20,
            write_set_words=64,
            rewrite_fraction=0.1,
            silent_fraction=0.0,
            loads_per_store=1.0,
            arena_words=65536,
            seed=5,
        ),
        (
            "base",
            "morlog",
            "fwb",
            "lad",
            "silo",
            "swlog",
            "wrap",
            "aglog",
            "quadra1f",
            "trinity2f",
            "redolog4f",
        ),
        True,
        (2 << 10, 4 << 10, 8 << 10),
    ),
    (
        "morlog-finalize-heavy",
        dict(
            threads=2,
            transactions_per_thread=10,
            write_set_words=200,
            rewrite_fraction=0.0,
            silent_fraction=0.0,
            loads_per_store=0.0,
            arena_words=8192,
            seed=9,
        ),
        ("morlog", "fwb"),
        True,
        None,
    ),
    # Policy-assembled catalog entries: staging spills, every
    # granularity and fence schedule, all on the fused policy kernel.
    (
        "policy-catalog",
        dict(
            threads=2,
            transactions_per_thread=12,
            write_set_words=96,
            rewrite_fraction=0.2,
            silent_fraction=0.0,
            loads_per_store=0.5,
            arena_words=16384,
            seed=13,
        ),
        ("aglog", "quadra1f", "trinity2f", "redolog4f"),
        True,
        None,
    ),
)


def check_stress_cells(report: EquivalenceReport) -> None:
    """Run the stress cells under both engines; append any divergence
    or lost fusion to ``report.mismatches``."""
    from dataclasses import replace

    from repro.common.config import SystemConfig
    from repro.designs.scheme import SchemeRegistry
    from repro.sim.columnar import ColumnarEngine
    from repro.sim.engine import TransactionEngine
    from repro.sim.system import System
    from repro.trace.synthetic import SyntheticTraceConfig, synthetic_trace

    for label, kwargs, schemes, must_fuse, caches in STRESS_CELLS:
        trace = synthetic_trace(SyntheticTraceConfig(**kwargs))
        config = SystemConfig.table2(kwargs["threads"])
        if caches is not None:
            l1, l2, l3 = caches
            config = replace(
                config,
                l1=replace(config.l1, size_bytes=l1),
                l2=replace(config.l2, size_bytes=l2),
                l3=replace(config.l3, size_bytes=l3),
            )
        for scheme_name in schemes:
            report.stress_cells += 1
            where = f"stress {label}/{scheme_name}"
            sys_exact = System(config)
            exact = TransactionEngine(
                sys_exact, SchemeRegistry.create(scheme_name, sys_exact), trace
            ).run()
            sys_col = System(config)
            engine = ColumnarEngine(
                sys_col, SchemeRegistry.create(scheme_name, sys_col), trace
            )
            col = engine.run()
            if exact.end_cycle != col.end_cycle:
                report.mismatches.append(
                    f"{where}: end_cycle {exact.end_cycle} != {col.end_cycle}"
                )
            if exact.committed != col.committed:
                report.mismatches.append(f"{where}: committed differs")
            if dict(exact.stats.counters) != dict(col.stats.counters):
                report.mismatches.append(f"{where}: stats counters differ")
            stats = engine.engine_stats()
            if must_fuse and stats["fast_fraction"] != 1.0:
                report.mismatches.append(
                    f"{where}: fast_fraction {stats['fast_fraction']:.3f} "
                    f"!= 1.0 (fallbacks: {stats['fallback_reasons']})"
                )


#: Crash-point boundary cells: ``at_op=0`` (power fails before any
#: operation executes) and ``at_op == total_ops`` (power fails after
#: the last operation retires, before the clean end-of-run drain).
#: The PR-6 drain/crash end_cycle contract only pins interior crash
#: points; these two pin the boundary semantics — both engines must
#: produce bit-identical results (the columnar engine delegates
#: crash-plan runs, and that delegation must cover the boundaries) and
#: recovery must satisfy atomic durability at each.
BOUNDARY_SCHEMES = (
    "base",
    "fwb",
    "morlog",
    "silo",
    "swlog",
    "aglog",
    "quadra1f",
    "redolog4f",
)


def check_boundary_cells(report: EquivalenceReport) -> None:
    """Run the two crash-point boundary cells under both engines;
    append any divergence or oracle violation to ``report.mismatches``."""
    from repro.common.config import SystemConfig
    from repro.designs.scheme import SchemeRegistry
    from repro.sim.columnar import ColumnarEngine
    from repro.sim.crash import CrashPlan
    from repro.sim.engine import TransactionEngine
    from repro.sim.system import System
    from repro.sim.verify import check_atomic_durability
    from repro.workloads.registry import build_workload

    trace = build_workload("hash", threads=2, transactions=4)
    total_ops = sum(
        len(tx.ops) + 2 for th in trace.threads for tx in th.transactions
    )
    for at_op in (0, total_ops):
        for scheme_name in BOUNDARY_SCHEMES:
            report.stress_cells += 1
            where = f"boundary at_op={at_op}/{scheme_name}"
            results = {}
            for engine_name, engine_cls in (
                ("exact", TransactionEngine),
                ("columnar", ColumnarEngine),
            ):
                system = System(SystemConfig.table2(2))
                result = engine_cls(
                    system,
                    SchemeRegistry.create(scheme_name, system),
                    trace,
                    crash_plan=CrashPlan(at_op=at_op),
                ).run()
                if not result.crashed:
                    report.mismatches.append(
                        f"{where}: {engine_name} engine did not crash"
                    )
                if check_atomic_durability(system, trace, result.committed):
                    report.mismatches.append(
                        f"{where}: {engine_name} engine violated atomic "
                        "durability"
                    )
                results[engine_name] = result
            exact, col = results["exact"], results["columnar"]
            if exact.end_cycle != col.end_cycle:
                report.mismatches.append(
                    f"{where}: end_cycle {exact.end_cycle} != {col.end_cycle}"
                )
            if exact.committed != col.committed:
                report.mismatches.append(f"{where}: committed differs")
            if dict(exact.stats.counters) != dict(col.stats.counters):
                report.mismatches.append(f"{where}: stats counters differ")
            if exact.recovery != col.recovery:
                report.mismatches.append(f"{where}: recovery report differs")


def main(argv: Optional[List[str]] = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    smoke = "--full" not in args
    report = check_engine_equivalence(smoke=smoke)
    check_stress_cells(report)
    check_boundary_cells(report)
    print(report.format_report())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
