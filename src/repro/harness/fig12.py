"""Fig. 12: transaction throughput, normalized to Base.

Expected shape: Base slowest (synchronous per-store log+data
persists); FWB above Base; MorLog above FWB (fewer log writes to wait
for); LAD high (no logs) but paying its Prepare-phase line flushes;
Silo highest, with the gap growing with core count because its commit
path has no persist ordering to queue behind.
"""

from __future__ import annotations

from repro.harness.executor import CellSpec, WorkloadSpec
from repro.harness.experiments import (
    REGISTRY,
    Axis,
    ExperimentSpec,
    NormalizedGridsResult,
    grids_from_campaign,
)
from repro.harness.fig11 import (
    DEFAULT_SCHEMES,
    DEFAULT_TRANSACTIONS,
    DEFAULT_WORKLOADS,
)


class Fig12Result(NormalizedGridsResult):
    """Normalized throughput per core count."""

    metric = "throughput_tx_per_sec"
    report_title = "Fig. 12 — normalized transaction throughput"
    chart_title = "fig12 — average normalized throughput"


SPEC = REGISTRY.register(
    ExperimentSpec(
        name="fig12",
        figure="Fig. 12",
        description="Transaction throughput, normalized to Base",
        params=dict(
            core_counts=(1, 2, 4, 8),
            schemes=DEFAULT_SCHEMES,
            workloads=DEFAULT_WORKLOADS,
            transactions=DEFAULT_TRANSACTIONS,
        ),
        smoke_params=dict(
            core_counts=(1,),
            schemes=("base", "silo"),
            workloads=("hash",),
            transactions=15,
        ),
        axes=lambda p: (
            Axis("cores", p["core_counts"]),
            Axis("workload", p["workloads"]),
            Axis("scheme", p["schemes"]),
        ),
        cell=lambda p, pt: CellSpec(
            workload=WorkloadSpec.make(
                pt["workload"], threads=pt["cores"], transactions=p["transactions"]
            ),
            scheme=pt["scheme"],
            cores=pt["cores"],
        ),
        assemble=lambda p, c: Fig12Result(grids=grids_from_campaign(c)),
    )
)
