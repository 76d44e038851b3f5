"""Fig. 11: write traffic to the PM physical media, normalized to Base.

One sub-experiment per core count (the paper shows 1, 2, 4 and 8
cores).  Expected shape: Base worst; MorLog clearly below FWB
(intermediate-redo elimination); LAD and Silo lowest and close to each
other (Silo writes no logs in failure-free runs and coalesces its
word-granular in-place updates in the on-PM buffer).
"""

from __future__ import annotations

from typing import Tuple

from repro.harness.executor import CellSpec, WorkloadSpec
from repro.harness.experiments import (
    REGISTRY,
    Axis,
    ExperimentSpec,
    NormalizedGridsResult,
    grids_from_campaign,
)

#: The evaluated designs, in the paper's plotting order.
DEFAULT_SCHEMES: Tuple[str, ...] = ("base", "fwb", "morlog", "lad", "silo")

#: The Fig. 11/12 benchmarks, in the paper's plotting order.
DEFAULT_WORKLOADS: Tuple[str, ...] = (
    "array",
    "btree",
    "hash",
    "queue",
    "rbtree",
    "tpcc",
    "ycsb",
)

#: Default transactions per thread: large enough for stable ratios,
#: small enough that the full grid runs in minutes of Python.
DEFAULT_TRANSACTIONS = 200


class Fig11Result(NormalizedGridsResult):
    """Normalized media writes per core count."""

    metric = "media_writes"
    report_title = "Fig. 11 — normalized PM media write traffic"
    chart_title = "fig11 — average normalized write traffic"


SPEC = REGISTRY.register(
    ExperimentSpec(
        name="fig11",
        figure="Fig. 11",
        description="PM media write traffic, normalized to Base",
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
        assemble=lambda p, c: Fig11Result(grids=grids_from_campaign(c)),
    )
)
