"""Exhaustive litmus campaigns (``silo-repro litmus``).

For every pattern in the :mod:`repro.litmus.patterns` catalog, this
harness runs one cell per ``(crash point, design)`` — *every*
``at_op`` in ``[0, total_ops]``, both boundaries included — through
the parallel executor (cache, ``--jobs``, retries, ``--resume`` all
apply), captures the recovered PM image of each cell and judges it
with the declarative persistency-model oracle
(:func:`repro.litmus.oracle.check_litmus`).

Every cell also runs the exact PR-3 oracle (``verify=True``); the two
verdicts are cross-checked on every single cell, so an oracle
divergence — a bug in either checker — fails the campaign just like a
persistency violation does.

Each violation is **shrunk** in-process (drop threads, transactions,
ops; re-enumerate the narrower crash window) to a 1-minimal cell and
reported as a copy-pasteable ``silo-repro replay --spec`` one-liner;
the JSON report carries the minimized spec list for CI artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.executor import (
    CellSpec,
    Executor,
    WorkloadSpec,
    cell_spec_to_json,
    execute_cell,
    raise_on_failures,
    repro_command,
)
from repro.harness.report import format_table
from repro.litmus.oracle import LitmusVerdict, check_litmus
from repro.litmus.patterns import Pattern, enumerate_patterns
from repro.litmus.shrink import shrink_pattern
from repro.sim.crash import CrashPlan

#: All thirteen registered designs, in registry order: the nine
#: legacy designs plus the policy-assembled catalog entries.
LITMUS_SCHEMES: Tuple[str, ...] = (
    "aglog",
    "base",
    "fwb",
    "lad",
    "morlog",
    "proteus",
    "quadra1f",
    "redolog4f",
    "redu",
    "silo",
    "swlog",
    "trinity2f",
    "wrap",
)

#: Shrinking budget: minimize at most this many distinct failing
#: (scheme, pattern) pairs per campaign — one minimized cell per bug
#: is what a regression test needs; hundreds would just be slow.
MAX_SHRINKS = 5


def pattern_spec(pattern: Pattern) -> WorkloadSpec:
    """The executor recipe for one pattern."""
    return WorkloadSpec.make(
        "litmus",
        threads=pattern.cores,
        transactions=pattern.total_txs,
        pattern=pattern.key,
    )


def litmus_cell(pattern: Pattern, scheme: str, at_op: int) -> CellSpec:
    """One (pattern x crash point x design) cell.

    ``capture_image`` feeds the declarative oracle; ``verify`` runs
    the exact oracle alongside for the continuous cross-check.
    """
    return CellSpec(
        workload=pattern_spec(pattern),
        scheme=scheme,
        cores=pattern.cores,
        crash_plan=CrashPlan(at_op=at_op),
        verify=True,
        capture_image=True,
    )


@dataclass
class LitmusResult:
    """Outcome of one exhaustive litmus campaign."""

    patterns: int = 0
    cells: int = 0
    #: ``scheme -> (cells, violations)``.
    per_scheme: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: ``family -> (cells, violations)``.
    per_family: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Cells where the declarative and the exact oracle disagreed —
    #: a checker bug; always fails the campaign.
    disagreements: List[str] = field(default_factory=list)
    #: One record per violating cell (pre-shrink).
    violations: List[Dict[str, object]] = field(default_factory=list)
    #: Minimized ``replay --spec`` one-liners, one per shrunk bug.
    minimized: List[Dict[str, object]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations and not self.disagreements

    def format_report(self) -> str:
        rows = [
            [scheme, cells, violations, "PASS" if violations == 0 else "FAIL"]
            for scheme, (cells, violations) in sorted(self.per_scheme.items())
        ]
        table = format_table(
            ["scheme", "litmus cells", "violations", "verdict"],
            rows,
            title="Persistency-model litmus sweep "
            "(exhaustive crash-point enumeration)",
        )
        lines = [
            table,
            "",
            f"patterns: {self.patterns} | cells: {self.cells} "
            f"(pattern x crash point x design) | "
            f"oracle disagreements: {len(self.disagreements)}",
        ]
        if self.disagreements:
            lines.append("ORACLE DISAGREEMENTS (checker bug):")
            lines += [f"  {text}" for text in self.disagreements[:5]]
        if self.violations:
            lines += ["", f"violations: {len(self.violations)}"]
            for record in self.violations[:5]:
                lines.append(
                    f"  {record['scheme']} @ {record['pattern']} "
                    f"at_op={record['at_op']}: {record['verdict']}"
                )
        if self.minimized:
            lines += ["", "minimized cells:"]
            for record in self.minimized:
                lines.append(
                    f"  {record['scheme']} @ {record['pattern']} "
                    f"at_op={record['at_op']} [{record['kind']}]"
                )
                lines.append(f"    replay: {record['replay']}")
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "patterns": self.patterns,
            "cells": self.cells,
            "passed": self.passed,
            "per_scheme": {
                scheme: {"cells": c, "violations": v}
                for scheme, (c, v) in sorted(self.per_scheme.items())
            },
            "per_family": {
                family: {"cells": c, "violations": v}
                for family, (c, v) in sorted(self.per_family.items())
            },
            "disagreements": list(self.disagreements),
            "violations": list(self.violations),
            "minimized": list(self.minimized),
            "minimized_specs": [r["spec"] for r in self.minimized],
        }


def judge_cell(outcome) -> LitmusVerdict:
    """Apply the declarative oracle to one completed cell, against the
    trace the cell executed (the per-process memo already holds it)."""
    trace = outcome.spec.workload.build()
    return check_litmus(trace, outcome.result.committed, outcome.image)


def _exhaustive_fail_point(pattern: Pattern, scheme: str) -> Optional[int]:
    """Smallest failing ``at_op`` of a (pattern, scheme) pair under
    in-process exhaustive re-enumeration, or ``None`` — the shrinker's
    re-judge predicate."""
    for at_op in range(pattern.total_ops + 1):
        outcome = execute_cell(litmus_cell(pattern, scheme, at_op))
        if not judge_cell(outcome).ok:
            return at_op
    return None


def run(
    schemes: Sequence[str] = LITMUS_SCHEMES,
    smoke: bool = False,
    executor: Optional[Executor] = None,
    output: Optional[str] = None,
    shrink: bool = True,
    max_patterns: Optional[int] = None,
) -> LitmusResult:
    """Run one exhaustive litmus campaign.

    ``smoke`` selects the CI-sized pattern catalog (still well over
    500 cells); ``max_patterns`` further truncates the catalog (test
    hook).  ``output`` writes the JSON report (LITMUS.json in CI).
    ``shrink=False`` skips minimization (the raw violations and their
    replay commands are still reported).
    """
    patterns = enumerate_patterns(smoke=smoke)
    if max_patterns is not None:
        patterns = patterns[:max_patterns]
    result = LitmusResult(patterns=len(patterns))

    cells: List[CellSpec] = []
    labels: List[Tuple[Pattern, str, int]] = []
    for pattern in patterns:
        for at_op in range(pattern.total_ops + 1):
            for scheme in schemes:
                cells.append(litmus_cell(pattern, scheme, at_op))
                labels.append((pattern, scheme, at_op))

    outcomes = (executor if executor is not None else Executor(jobs=1)).run(cells)
    raise_on_failures(outcomes)
    result.cells = len(cells)

    failing: Dict[Tuple[str, str], Tuple[Pattern, int, LitmusVerdict]] = {}
    for (pattern, scheme, at_op), outcome in zip(labels, outcomes):
        verdict = judge_cell(outcome)
        scheme_cells, scheme_bad = result.per_scheme.get(scheme, (0, 0))
        family_cells, family_bad = result.per_family.get(pattern.family, (0, 0))
        scheme_cells += 1
        family_cells += 1
        exact_ok = not outcome.mismatches
        if verdict.ok != exact_ok:
            result.disagreements.append(
                f"{scheme} @ {pattern.key} at_op={at_op}: declarative "
                f"verdict {verdict} but exact oracle found "
                f"{len(outcome.mismatches or [])} mismatch(es)"
            )
        if not verdict.ok:
            scheme_bad += 1
            family_bad += 1
            result.violations.append(
                {
                    "scheme": scheme,
                    "pattern": pattern.key,
                    "at_op": at_op,
                    "kind": verdict.kind,
                    "verdict": str(verdict),
                    "replay": repro_command(outcome.spec),
                }
            )
            key = (scheme, pattern.key)
            if key not in failing:
                failing[key] = (pattern, at_op, verdict)
        result.per_scheme[scheme] = (scheme_cells, scheme_bad)
        result.per_family[pattern.family] = (family_cells, family_bad)

    if shrink:
        for (scheme, _), (pattern, at_op, verdict) in list(failing.items())[
            :MAX_SHRINKS
        ]:
            minimal, minimal_at = shrink_pattern(
                pattern,
                at_op,
                lambda candidate: _exhaustive_fail_point(candidate, scheme),
            )
            spec = litmus_cell(minimal, scheme, minimal_at)
            final = judge_cell(execute_cell(spec))
            result.minimized.append(
                {
                    "scheme": scheme,
                    "pattern": minimal.key,
                    "at_op": minimal_at,
                    "kind": (final if not final.ok else verdict).kind,
                    "spec": cell_spec_to_json(spec),
                    "replay": repro_command(spec),
                }
            )

    if output:
        with open(output, "w") as handle:
            json.dump(result.to_json_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return result
