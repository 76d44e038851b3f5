"""Experiment drivers regenerating every table and figure of the paper.

Every study is an :class:`~repro.harness.experiments.ExperimentSpec`
registered in :data:`~repro.harness.experiments.REGISTRY`; each module
declares its ``SPEC`` plus the result dataclass whose
``format_report`` prints the rows or series the paper reports.  Run
one from Python with ``run_experiment(<module>.SPEC, **overrides)`` or
from the shell with ``silo-repro exp run <name>``.  The verification
campaigns (``bench``, ``crashtest``, ``faultsweep``, ``litmus``,
``chaos``, ``trace``) keep their own ``run(...)`` entry points; the
CLI (``silo-repro``) and the ``benchmarks/`` suite are thin wrappers
around all of these.
"""

from repro.harness import (
    bench,
    crashtest,
    experiments,
    faultsweep,
    fig4,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    mcsweep,
    recovery_cost,
    replay,
    table1,
    table4,
)

__all__ = [
    "bench",
    "crashtest",
    "experiments",
    "faultsweep",
    "fig4",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "mcsweep",
    "recovery_cost",
    "replay",
    "table1",
    "table4",
]
