"""Declarative experiment specifications and their campaign results.

An :class:`ExperimentSpec` states *what* a study is — its parameter
defaults, the axes its cells span, how one axis point lowers to a
:class:`~repro.harness.executor.CellSpec`, and how the finished
:class:`Campaign` assembles into the study's result object.  The
generic engine (:mod:`repro.harness.experiments.engine`) is the only
*how*: every registered experiment runs through the same lowering,
fan-out, caching and presentation machinery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ConfigError
from repro.harness.executor import (
    CellOutcome,
    CellSpec,
    aggregate_outcome_metrics,
    spec_key,
)

#: One coordinate assignment, ``{axis name: value}``.
Point = Dict[str, Any]

#: Parameters that count things: an override must be a positive
#: integer (every element, for a tuple-valued parameter).
_COUNT_PARAMS = frozenset({"transactions", "threads", "cores", "core_counts"})


def _coerce_override(experiment: str, name: str, default: Any, value: Any) -> Any:
    """Shape and validate one ``--set`` override against its default.

    A tuple-valued parameter given a bare value (``schemes=silo``)
    becomes a 1-tuple instead of being iterated character by
    character; a list becomes a tuple.  Counts must be positive
    integers, so ``transactions=-5`` is a :class:`ConfigError` rather
    than a table of zeros.
    """
    if isinstance(default, tuple) and not isinstance(value, tuple):
        value = tuple(value) if isinstance(value, list) else (value,)
    if name in _COUNT_PARAMS:
        items = value if isinstance(value, tuple) else (value,)
        if not items or any(
            isinstance(item, bool) or not isinstance(item, int) or item < 1
            for item in items
        ):
            raise ConfigError(
                f"parameter {name!r} of experiment {experiment!r} expects "
                f"positive integers, got {value!r}"
            )
    return value


@dataclass(frozen=True)
class Axis:
    """One named experiment axis (schemes, workloads, cores, ...)."""

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered study, declared as data plus three pure hooks.

    ``axes(params)`` names the cell grid; the engine takes the
    Cartesian product in axis order.  ``cell(params, point)`` lowers
    one point to a :class:`CellSpec` (or ``None`` for analytic points
    that run no simulation — Table I/IV).  ``assemble(params,
    campaign)`` builds the study's result object, whose
    ``format_report()`` must stay byte-identical to the historical
    module's.
    """

    name: str
    #: The paper artefact this reproduces ("Fig. 11", "Table IV", or
    #: "extension" for studies beyond the paper's evaluation).
    figure: str
    description: str
    axes: Callable[[Mapping[str, Any]], Sequence[Axis]]
    cell: Callable[[Mapping[str, Any], Point], Optional[CellSpec]]
    assemble: Callable[[Mapping[str, Any], "Campaign"], Any]
    #: Default run parameters; overrides must name a known key.
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Parameter overrides applied by ``--smoke`` (tiny CI grids).
    smoke_params: Mapping[str, Any] = field(default_factory=dict)

    def merged_params(
        self, smoke: bool = False, overrides: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        overrides = dict(overrides or {})
        unknown = sorted(set(overrides) - set(self.params))
        if unknown:
            raise ConfigError(
                f"unknown parameter(s) {', '.join(unknown)} for experiment "
                f"{self.name!r}; known: {', '.join(sorted(self.params))}"
            )
        merged = dict(self.params)
        if smoke:
            merged.update(self.smoke_params)
        for name, value in overrides.items():
            merged[name] = _coerce_override(
                self.name, name, self.params[name], value
            )
        return merged


@dataclass
class Campaign:
    """One executed campaign: every axis point with its outcome.

    ``outcomes`` aligns with ``points`` (the axes' product order);
    analytic points carry ``None``.
    """

    spec: ExperimentSpec
    params: Dict[str, Any]
    axes: Tuple[Axis, ...]
    points: List[Point]
    outcomes: List[Optional[CellOutcome]]

    def cells(self) -> List[Tuple[Point, CellOutcome]]:
        """Simulated (point, outcome) pairs in product order."""
        return [
            (point, outcome)
            for point, outcome in zip(self.points, self.outcomes)
            if outcome is not None
        ]

    def holes(self) -> List[Tuple[Point, CellOutcome]]:
        """Simulated points whose final outcome is not ok — the cells
        a partial (graceful-degradation) assembly must render as
        explicit gaps rather than silently dropping."""
        return [
            (point, outcome)
            for point, outcome in zip(self.points, self.outcomes)
            if outcome is not None and not outcome.ok
        ]

    def outcome(self, **coords: Any) -> CellOutcome:
        """The outcome at the axis coordinates given (all must match)."""
        for point, outcome in zip(self.points, self.outcomes):
            if outcome is not None and all(
                point.get(k) == v for k, v in coords.items()
            ):
                return outcome
        raise KeyError(coords)

    def run_result(self, **coords: Any):
        return self.outcome(**coords).result

    def metrics(self):
        """Per-experiment obs roll-up: the merged
        :class:`~repro.obs.MetricsRegistry` of every cell that carried
        one, or ``None`` when the campaign ran without obs."""
        return aggregate_outcome_metrics([o for o in self.outcomes if o is not None])

    def manifest(self) -> Dict[str, Any]:
        """JSON-able record of exactly what this campaign ran: the
        resolved parameters, the axes, and every cell's canonical spec
        (the executor's content address) with its cache status."""
        cells: List[Dict[str, Any]] = []
        for point, outcome in zip(self.points, self.outcomes):
            record: Dict[str, Any] = {"coords": _json_safe(point)}
            if outcome is None:
                record["analytic"] = True
            else:
                record["spec"] = json.loads(spec_key(outcome.spec))
                record["cached"] = outcome.cached
                record["ok"] = outcome.ok
                if outcome.kind != "ok":
                    # Emitted only for degraded cells, so every fully-
                    # green manifest keeps its historical shape.
                    record["kind"] = outcome.kind
            cells.append(record)
        return {
            "experiment": self.spec.name,
            "figure": self.spec.figure,
            "params": _json_safe(self.params),
            "axes": [
                {"name": axis.name, "values": _json_safe(list(axis.values))}
                for axis in self.axes
            ],
            "cells": cells,
        }


def _json_safe(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and value != value:
        return None
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)
