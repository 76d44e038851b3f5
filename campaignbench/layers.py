"""Per-layer attribution for the campaign benchmark, taken from outside
the program.

Nothing under ``src/`` is instrumented.  Instead this module

* wraps the public call at each layer boundary (``System(...)``,
  ``SchemeRegistry.create``, the engine constructor and ``run()``, the
  created scheme's ``recover()``, the oracles, ``check_litmus``,
  ``WorkloadSpec.build`` and the trace store) in span timers, for one
  in-process campaign, and restores every patched name afterwards;
* times garbage collections through :data:`gc.callbacks`, as spans of
  their own, so a pause is not charged to the call it interrupted;
* folds a :mod:`cProfile` profile into self time per package, crediting
  builtins and the standard library to the package that called them.

A span's *self* time is its duration minus the time its child spans
cover, so the self times of all spans add up to the traced wall time
(less the benchmark's own loop).
"""

from __future__ import annotations

import cProfile
import gc
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name -> [calls, total seconds, self seconds].
SpanTotals = Dict[str, List[float]]


class Spans:
    """A stack of open spans and the per-name totals of closed ones."""

    def __init__(self) -> None:
        self.totals: SpanTotals = {}
        #: Open spans: [name, start, seconds covered by children].
        self._stack: List[List[Any]] = []

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> float:
        now = time.perf_counter()
        name, start, children = self._stack.pop()
        duration = now - start
        record = self.totals.setdefault(name, [0, 0.0, 0.0])
        record[0] += 1
        record[1] += duration
        record[2] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def switch(self, name: str) -> None:
        """Close the innermost span and open ``name`` in its place."""
        self.end()
        self.begin(name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return timed

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])


class GcSpans:
    """``gc.callbacks`` hook that records every collection as a ``gc``
    span nested in whatever span was open when it started."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.collections = 0
        self.full = 0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self.spans.begin("gc")
            return
        self.spans.end()
        self.collections += 1
        if info.get("generation") == 2:
            self.full += 1

    def __enter__(self) -> "GcSpans":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self)


class Patches:
    """Attribute replacements on modules and classes, undone in reverse
    order.  The raw ``__dict__`` entry is saved, so a classmethod comes
    back as the classmethod it was."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.undo()


def instrument(spans: Spans, cell_seconds: List[float]) -> Patches:
    """Wrap every layer boundary of the in-process cell path in spans.

    Each cell is a ``harness.cell`` span whose duration is also
    appended to ``cell_seconds``, in execution order.  Returns the
    :class:`Patches` to undo.
    """
    from repro.designs.scheme import SchemeRegistry
    from repro.harness import executor, litmus
    from repro.harness.traceartifacts import TraceArtifactStore

    patches = Patches()
    patches.set(executor, "System", spans.wrap("sim.system_build", executor.System))
    create = SchemeRegistry.create

    def create_scheme(name, system):
        spans.begin("designs.create")
        try:
            scheme = create(name, system)
        finally:
            spans.end()
        scheme.recover = spans.wrap("designs.recover", scheme.recover)
        return scheme

    patches.set(SchemeRegistry, "create", staticmethod(create_scheme))

    def engine_factory(engine_cls):
        def make(*args, **kwargs):
            spans.begin("sim.engine_init")
            try:
                engine = engine_cls(*args, **kwargs)
            finally:
                spans.end()
            engine.run = spans.wrap("sim.run", engine.run)
            return engine

        return make

    for name in ("TransactionEngine", "ColumnarEngine"):
        patches.set(executor, name, engine_factory(getattr(executor, name)))
    for name in ("check_atomic_durability", "check_fault_aware_durability"):
        patches.set(executor, name, spans.wrap("sim.verify", getattr(executor, name)))
    patches.set(litmus, "check_litmus", spans.wrap("litmus.judge", litmus.check_litmus))
    patches.set(
        executor.WorkloadSpec,
        "build",
        spans.wrap("trace.build", executor.WorkloadSpec.build),
    )
    patches.set(
        TraceArtifactStore, "build", spans.wrap("trace.build", TraceArtifactStore.build)
    )
    cell = executor.execute_cell

    def timed_cell(spec):
        spans.begin("harness.cell")
        try:
            return cell(spec)
        finally:
            cell_seconds.append(spans.end())

    patches.set(executor, "execute_cell", timed_cell)
    return patches


# ----------------------------------------------------------------------
# Profiler self time per package
# ----------------------------------------------------------------------
def package_of(filename: str) -> Optional[str]:
    """The repo package a source file belongs to, or ``None`` outside
    ``repro``.  ``repro/sim`` is split by module (``sim.engine``,
    ``sim.columnar``, ``sim.verify``, ...), every other package is
    one layer."""
    path = filename.replace("\\", "/")
    at = path.rfind("/repro/")
    if at < 0:
        return None
    parts = path[at + len("/repro/") :].split("/")
    if len(parts) == 1:
        return "repro"
    if parts[0] == "sim":
        return "sim." + parts[1].rsplit(".", 1)[0]
    return parts[0]


def package_self_time(profile: cProfile.Profile) -> Dict[str, float]:
    """Self time per package of one profile.

    A function outside ``repro`` (a builtin, the standard library, the
    benchmark's own wrappers) has its self time split over its callers
    in proportion to the time each call edge spent in it, and from a
    caller outside ``repro`` on up to the nearest ``repro`` frame.
    Time with no ``repro`` frame above it is ``python``.
    """
    profile.create_stats()
    stats = profile.stats
    memo: Dict[Any, Dict[str, float]] = {}

    def owners(func, active) -> Dict[str, float]:
        """Share of ``func``'s time each package is responsible for."""
        package = package_of(func[0])
        if package is not None:
            return {package: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {c: edge[3] for c, edge in callers.items() if c not in active}
        total = sum(weights.values())
        if total <= 0:
            result = {"python": 1.0}
        else:
            result: Dict[str, float] = {}
            active = active | {func}
            for caller, weight in weights.items():
                for owner, share in owners(caller, active).items():
                    result[owner] = result.get(owner, 0.0) + share * weight / total
        memo[func] = result
        return result

    totals: Dict[str, float] = {}
    for func, (_, _, inline, _, _) in stats.items():
        for owner, share in owners(func, frozenset()).items():
            totals[owner] = totals.get(owner, 0.0) + share * inline
    return totals
