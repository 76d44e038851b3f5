"""The benchmark's three campaign workloads, driven through the public
entry points users run them by.

* ``litmus`` — :func:`repro.harness.litmus.run`: the full pattern
  catalog x every crash point x all 13 designs, shrinking on.
* ``catalog`` — :func:`repro.harness.experiments.engine.run_campaign`
  on the registered ``catalog`` spec, paper-sized, columnar engine.
* ``faultsweep`` — :func:`repro.harness.faultsweep.run` over hash,
  btree and tpcc at 4 threads x 16 transactions, 12 crash/fault points
  per pair, 12 designs.

Inputs come from the seed.  A seed selects one of :data:`INPUT_SETS`
input sets; set 0 is the registry's own campaign, bit for bit.  Set
``i > 0`` adds ``i`` to every workload builder's default seed (catalog
and faultsweep) and, for faultsweep, picks the crash/fault RNG seed
(see :meth:`FaultSweep.rng_seed`).  ``litmus`` has no random input:
every seed runs the same campaign.

Every finished campaign is checked (:func:`check`): each cell ``ok``,
zero oracle failures, the expected cell count, and a digest of every
cell's simulated result equal to the one recorded in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import ExecutionError
from repro.harness import faultsweep, litmus
from repro.harness.crashtest import DEFAULT_SCHEMES
from repro.harness.executor import CellOutcome, CellSpec, WorkloadSpec
from repro.harness.experiments import load_all
from repro.harness.experiments.engine import run_campaign
from repro.workloads.registry import WORKLOADS

#: Distinct input sets a seed can select (``seed % INPUT_SETS``).
INPUT_SETS = 16

#: Media bytes per counted media write (one 64-byte sector, Fig. 11).
SECTOR_BYTES = 64

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def builder_seed(workload: str, index: int) -> int:
    """Workload builder seed of input set ``index``: the builder's own
    default shifted by the set index."""
    default = inspect.signature(WORKLOADS[workload]).parameters["seed"].default
    return default + index


def seeded(wspec: WorkloadSpec, index: int) -> WorkloadSpec:
    """``wspec`` with input set ``index``'s builder seed (set 0 keeps
    the recipe untouched, so its cells are the registry's own)."""
    if index == 0:
        return wspec
    kwargs = dict(wspec.kwargs)
    kwargs["seed"] = builder_seed(wspec.name, index)
    return WorkloadSpec.make(wspec.name, wspec.threads, wspec.transactions, **kwargs)


# ----------------------------------------------------------------------
# Executor stand-ins the entry points accept (they only call run())
# ----------------------------------------------------------------------
class Lowered(Exception):
    """Raised by :class:`Lowering` once the entry point has built its
    cell list, to stop it before anything runs."""


class Lowering:
    """Captures the cells an entry point dispatches, and runs none."""

    def __init__(self) -> None:
        self.cells: List[CellSpec] = []

    def run(self, cells: Sequence[CellSpec]) -> List[CellOutcome]:
        self.cells = list(cells)
        raise Lowered


class Capture:
    """Runs cells on a real executor and keeps every outcome."""

    def __init__(self, executor: Any) -> None:
        self.executor = executor
        self.outcomes: List[CellOutcome] = []

    def run(self, cells: Sequence[CellSpec]) -> List[CellOutcome]:
        outcomes = self.executor.run(cells)
        self.outcomes.extend(outcomes)
        return outcomes


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Campaign:
    """One workload at one input set."""

    name = ""
    expected_cells = 0
    #: Cells per pool task (``None``: the executor's auto batching, as
    #: the CLI runs campaigns).
    batch: Optional[int] = None

    def __init__(self, index: int) -> None:
        self.index = index

    @property
    def digest_key(self) -> str:
        return str(self.index)

    def call(self, executor: Any) -> Any:
        """Run the campaign through its public entry point."""
        raise NotImplementedError

    def oracle_failures(self, result: Any) -> int:
        raise NotImplementedError

    def use_record(self, record: Dict[str, Any]) -> None:
        """Take recorded inputs from ``digests.json`` (none by default)."""

    def lower(self) -> List[CellSpec]:
        """The cells the entry point would run, without running them."""
        lowering = Lowering()
        try:
            self.call(lowering)
        except Lowered:
            return lowering.cells
        raise RuntimeError(f"{self.name}: the entry point ran no cells")


class Litmus(Campaign):
    name = "litmus"
    expected_cells = 3965

    @property
    def digest_key(self) -> str:
        return "all"

    def call(self, executor: Any) -> Any:
        return litmus.run(executor=executor, shrink=True)

    def oracle_failures(self, result: Any) -> int:
        return len(result.violations) + len(result.disagreements)


class Catalog(Campaign):
    name = "catalog"
    expected_cells = 182
    #: One cell per task.  Auto batching sizes tasks by threads x
    #: transactions, which ignores how much a workload costs per op, so
    #: a few large 4-core tasks finish last and set the wall time:
    #: 22.4-24.8 s a campaign against 17.1-21.5 s with one cell per
    #: task, on the same input sets on a 2-core machine.
    batch = 1

    def spec(self):
        spec = load_all().get("catalog")
        if self.index == 0:
            return spec
        index = self.index

        def cell(params, point):
            made = spec.cell(params, point)
            return replace(made, workload=seeded(made.workload, index))

        return replace(spec, cell=cell)

    def call(self, executor: Any) -> Any:
        return run_campaign(self.spec(), executor=executor, engine="columnar")[0]

    def oracle_failures(self, result: Any) -> int:
        return 0  # clean cells carry no oracle


class _SeededWorkloadSpec:
    """Stands in for ``WorkloadSpec`` inside the faultsweep module, so
    the campaign draws its crash points on the seeded traces."""

    def __init__(self, index: int) -> None:
        self.index = index

    def make(self, name: str, threads: int, transactions: int, **kwargs: Any) -> WorkloadSpec:
        return seeded(WorkloadSpec.make(name, threads, transactions, **kwargs), self.index)


class FaultSweep(Campaign):
    name = "faultsweep"
    expected_cells = 432
    #: A non-default input set keeps the first RNG seed whose total
    #: crash depth is within this share of the default campaign's.
    DEPTH_TOLERANCE = 0.02
    SEEDS_PER_SET = 1000

    def __init__(self, index: int) -> None:
        super().__init__(index)
        self._rng_seed: Optional[int] = None

    def _call(self, executor: Any, rng_seed: int) -> Any:
        saved = faultsweep.WorkloadSpec
        faultsweep.WorkloadSpec = _SeededWorkloadSpec(self.index)
        try:
            return faultsweep.run(
                workloads=("hash", "btree", "tpcc"),
                schemes=DEFAULT_SCHEMES,
                points_per_pair=12,
                threads=4,
                transactions=16,
                seed=rng_seed,
                executor=executor,
            )
        finally:
            faultsweep.WorkloadSpec = saved

    def _depth(self, rng_seed: int) -> float:
        """Ops executed before the crash, summed over the campaign's
        distinct (workload, crash point) plans: what a run costs."""
        lowering = Lowering()
        try:
            self._call(lowering, rng_seed)
        except Lowered:
            pass
        plans = {(c.workload, c.crash_plan) for c in lowering.cells}
        depth = 0.0
        for wspec, crash in plans:
            trace = wspec.build()
            ops = sum(len(tx.ops) + 2 for t in trace.threads for tx in t.transactions)
            if crash.at_op is not None:
                depth += crash.at_op
            else:
                depth += ops * (crash.at_commit_of[1] + 1) / wspec.transactions
        return depth

    def use_record(self, record: Dict[str, Any]) -> None:
        self._rng_seed = record["totals"][self.name][self.digest_key]["rng_seed"]

    def rng_seed(self) -> int:
        """The crash/fault RNG seed of this input set.

        Set 0 uses faultsweep's default seed 0.  Crash points are drawn
        uniformly, so with only 36 (workload, point) plans per campaign
        the total work of a random seed varies by about 14% (quartile
        spread).  Set ``i`` therefore takes the first seed from
        ``i * SEEDS_PER_SET`` on whose total crash depth matches the
        default campaign's within :data:`DEPTH_TOLERANCE`; the points
        themselves stay random.  ``record_digests.py`` runs the search
        and records the seed; a run reads it (:meth:`use_record`), so
        set-up time does not depend on how long the search took.
        """
        if self._rng_seed is None:
            if self.index == 0:
                self._rng_seed = 0
            else:
                target = FaultSweep(0)._depth(0)
                start = self.index * self.SEEDS_PER_SET
                for candidate in range(start, start + self.SEEDS_PER_SET):
                    if abs(self._depth(candidate) / target - 1) <= self.DEPTH_TOLERANCE:
                        self._rng_seed = candidate
                        break
                else:
                    raise RuntimeError(f"no RNG seed matches input set {self.index}")
        return self._rng_seed

    def call(self, executor: Any) -> Any:
        return self._call(executor, self.rng_seed())

    def oracle_failures(self, result: Any) -> int:
        return result.violations + result.silent


WORKLOADS_BY_NAME = {cls.name: cls for cls in (Litmus, Catalog, FaultSweep)}


def make_campaign(name: str, seed: int, record: Dict[str, Any]) -> Campaign:
    campaign = WORKLOADS_BY_NAME[name](seed % INPUT_SETS)
    campaign.use_record(record)
    return campaign


# ----------------------------------------------------------------------
# Running and checking one campaign
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One finished campaign: what ran, what it produced, what failed."""

    cells: int = 0
    #: Wall time of the entry-point call.
    seconds: float = 0.0
    failed_cells: int = 0
    oracle_failures: int = 0
    sim_cycles: int = 0
    pm_write_bytes: int = 0
    digest: str = ""
    result: Any = None
    outcomes: List[CellOutcome] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def failed_fraction(self) -> float:
        return self.failed_cells / self.cells if self.cells else 1.0

    def release(self) -> "Outcome":
        """Drop the cell outcomes, keeping the totals: a later campaign
        in this process must not pay collections over this one's heap."""
        self.outcomes = []
        self.result = None
        return self


def cell_digest(outcome: CellOutcome) -> str:
    """Digest of one cell's simulated result: end cycle, committed
    transactions, every stats counter and the recovery report."""
    result = outcome.result
    payload = {
        "end_cycle": result.end_cycle,
        "committed": sorted(result.committed),
        "stats": sorted(result.stats.items()),
        "recovery": asdict(result.recovery) if result.recovery is not None else None,
    }
    return hashlib.sha256(json.dumps(payload, default=repr).encode()).hexdigest()


def campaign_digest(outcomes: Sequence[CellOutcome]) -> str:
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(cell_digest(outcome).encode())
    return digest.hexdigest()


def execute(campaign: Campaign, executor: Any, wrap: Any = None) -> Outcome:
    """Run ``campaign`` on ``executor`` and summarize it (unchecked).

    ``wrap(capture)`` may return another stand-in for the executor the
    entry point sees (the traced run's phase spans)."""
    capture = Capture(executor)
    outcome = Outcome()
    started = time.perf_counter()
    try:
        outcome.result = campaign.call(wrap(capture) if wrap else capture)
    except ExecutionError as error:
        outcome.problems.append(str(error).splitlines()[0])
    outcome.seconds = time.perf_counter() - started
    outcome.outcomes = capture.outcomes
    outcome.cells = len(capture.outcomes)
    ok = [o for o in capture.outcomes if o.ok]
    outcome.failed_cells = outcome.cells - len(ok)
    if outcome.result is not None:
        outcome.oracle_failures = campaign.oracle_failures(outcome.result)
    outcome.sim_cycles = sum(o.result.end_cycle for o in ok)
    outcome.pm_write_bytes = SECTOR_BYTES * sum(
        int(o.result.stats.get("media.sector_writes")) for o in ok
    )
    if not outcome.failed_cells:
        outcome.digest = campaign_digest(capture.outcomes)
    return outcome


def load_record(path: str = DIGESTS_PATH) -> Dict[str, Any]:
    """``digests.json``: per workload and input set, the digest
    (``digests``) and the totals and inputs it was recorded with
    (``totals``)."""
    with open(path) as handle:
        return json.load(handle)


def check(campaign: Campaign, outcome: Outcome, digests: Dict[str, Dict[str, str]]) -> List[str]:
    """Every reason ``outcome`` is wrong; empty when it is right."""
    problems = list(outcome.problems)
    if outcome.cells != campaign.expected_cells:
        problems.append(f"{outcome.cells} cells ran, expected {campaign.expected_cells}")
    if outcome.failed_cells:
        problems.append(f"{outcome.failed_cells} cells not ok")
    if outcome.oracle_failures:
        problems.append(f"{outcome.oracle_failures} oracle failures")
    recorded = digests.get(campaign.name, {}).get(campaign.digest_key)
    if recorded is None:
        problems.append(f"no digest recorded for {campaign.name} input set {campaign.digest_key}")
    elif outcome.digest != recorded:
        problems.append(
            f"simulated results differ from the recorded digest "
            f"({outcome.digest[:12] or 'none'} != {recorded[:12]})"
        )
    return problems
