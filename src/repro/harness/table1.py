"""Table I: the hardware overhead of Silo."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.battery import hardware_overhead
from repro.harness.experiments import (
    REGISTRY,
    ExperimentSpec,
    TableData,
    TabularResult,
)


@dataclass
class Table1Result(TabularResult):
    rows: Dict[str, str]

    def tables(self) -> List[TableData]:
        return [
            TableData.make(
                ["component", "type and size"],
                [[k, v] for k, v in self.rows.items()],
                title="Table I — hardware overhead of Silo",
            )
        ]


SPEC = REGISTRY.register(
    ExperimentSpec(
        name="table1",
        figure="Table I",
        description="Hardware overhead of Silo (analytic)",
        params=dict(cores=8),
        # Analytic: no axes, no cells — assemble computes directly.
        axes=lambda p: (),
        cell=lambda p, pt: None,
        assemble=lambda p, c: Table1Result(
            rows=hardware_overhead(cores=p["cores"])
        ),
    )
)
