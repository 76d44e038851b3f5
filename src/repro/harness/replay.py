"""Replay one campaign cell in isolation.

``silo-repro replay --spec '<json>'`` re-executes exactly the cell a
failing campaign (crashtest, faultsweep, litmus, or a ``--partial``
experiment hole) printed — same workload recipe, scheme, crash point
and fault plan — in the calling process, bypassing the result cache,
then prints the full verdict (recovery report, injected/reported fault
accounting, oracle mismatches).  This is the debugging entry point for
randomized sweeps: a failure is reproducible without re-running the
campaign.  A malformed ``--spec`` is a one-line
:class:`~repro.common.errors.ConfigError` (exit 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.executor import (
    CellOutcome,
    CellSpec,
    cell_spec_from_json,
    run_cells,
)


@dataclass
class ReplayResult:
    """One replayed cell plus its verdict."""

    spec: CellSpec
    outcome: CellOutcome

    @property
    def passed(self) -> bool:
        if not self.outcome.ok:
            return False
        if self.outcome.fault_verdict is not None:
            return self.outcome.fault_verdict.ok
        return not self.outcome.mismatches

    def format_report(self) -> str:
        spec = self.spec
        lines = [
            "replayed cell:",
            f"  workload   : {spec.workload.name} "
            f"(threads={spec.workload.threads}, "
            f"transactions={spec.workload.transactions})",
            f"  scheme     : {spec.scheme}",
            f"  crash plan : {spec.crash_plan}",
            f"  fault plan : {spec.fault_plan}",
        ]
        outcome = self.outcome
        if not outcome.ok:
            lines.append("cell raised:")
            lines.append(outcome.error.rstrip())
            return "\n".join(lines)
        result = outcome.result
        lines.append(
            f"  committed  : {result.committed_count}"
            f"/{result.total_transactions} transactions"
        )
        report = result.recovery
        if report is not None:
            lines.append(
                f"  recovery   : scanned={report.scanned} "
                f"replayed={report.replayed} revoked={report.revoked} "
                f"rejected(torn={report.rejected_torn}, "
                f"dropped={report.rejected_dropped}, "
                f"checksum={report.rejected_checksum}, "
                f"tuples={report.rejected_tuples}) "
                f"salvaged={report.words_salvaged}w "
                f"poisoned={report.media_poisoned} "
                f"healed={report.poison_healed}"
            )
        verdict = outcome.fault_verdict
        if verdict is not None:
            lines.append(f"  injected   : {verdict.injected}")
            lines.append(f"  reported   : {verdict.reported}")
            lines.append(
                f"  mismatches : {len(verdict.mismatches)} total, "
                f"{len(verdict.unattributed)} unattributed"
            )
            if verdict.silent:
                lines.append(f"  SILENT     : {verdict.silent}")
        elif outcome.mismatches is not None:
            lines.append(f"  mismatches : {len(outcome.mismatches)}")
            for addr, got, want in outcome.mismatches[:5]:
                lines.append(
                    f"    {addr:#x}: got {got:#x}, want {want:#x}"
                )
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def run(spec_json: str) -> ReplayResult:
    """Execute the cell encoded in ``spec_json`` in-process, bypassing
    the cache so the failure actually re-runs.  A cell that raises is
    reported with its traceback in the verdict, not re-raised."""
    spec = cell_spec_from_json(spec_json)
    (outcome,) = run_cells([spec], jobs=1)
    return ReplayResult(spec=spec, outcome=outcome)
