"""``--trace 1``: the per-layer metrics of one workload.

Four passes over the same campaign, after one set-up:

A. untraced on the jobs-2 executor, as ``--trace 0`` measures it;
B. untraced in-process (jobs 1): the baseline for tracing overhead;
C. in-process with span timers at every layer boundary and GC
   callbacks (:mod:`layers`); its wall time minus B's is the overhead;
D. profiled: the entry point with every cell replayed from C (lowering,
   dispatch and assembly at full size), plus every
   ``PROFILE_STRIDE``-th cell executed under the profiler and scaled to
   the whole campaign by C's cell times.  Package shares of the
   combined profile are reported as seconds of B's wall time.

Counts come from C's cell results.  A layer table goes to standard
error and to ``results/trace-<workload>-seed<n>.md``.
"""

from __future__ import annotations

import cProfile
import os
import sys
from typing import Any, Dict, List

from campaigns import check, execute
from layers import GcSpans, Patches, Spans, instrument, package_self_time
from support import JOBS, RESULTS, emit, run_record, setup

#: The traced run profiles every PROFILE_STRIDE-th cell (coprime with
#: the 12 crash points and 13 designs, so the sample cycles through
#: both) and scales their profile to the whole campaign.
PROFILE_STRIDE = 5

#: The profiler's package labels reported as ``<package>.self_s``;
#: everything else is ``other.self_s``.
PACKAGES = (
    "cache", "mc", "mem", "hwlog", "designs", "core", "sim.columnar",
    "sim.engine", "sim.verify", "sim.system", "obs", "faults", "harness",
    "trace", "workloads", "litmus", "common", "python",
)

#: Span name -> the per-layer metric reporting its self time.
SPAN_METRICS = {
    "harness.lower": "harness.lower_s",
    "harness.dispatch": "harness.dispatch_s",
    "harness.assemble": "harness.assemble_s",
    "harness.cell": "harness.cell_s",
    "trace.build": "trace.build_s",
    "sim.system_build": "sim.system_build_s",
    "designs.create": "designs.create_s",
    "sim.engine_init": "sim.engine_init_s",
    "sim.run": "sim.run_s",
    "designs.recover": "designs.recover_s",
    "sim.verify": "sim.verify_s",
    "litmus.judge": "litmus.judge_s",
    "gc": "gc.pause_s",
}


class Phases:
    """Executor stand-in that splits the entry point's wall time into
    lowering (before dispatch), dispatch and assembly (after it)."""

    def __init__(self, executor: Any, spans: Spans) -> None:
        self.executor = executor
        self.spans = spans

    def run(self, cells):
        self.spans.switch("harness.dispatch")
        try:
            return self.executor.run(cells)
        finally:
            self.spans.switch("harness.assemble")


def stat_totals(outcomes) -> Dict[str, float]:
    """Simulated-event counts summed over every cell's stats."""
    totals: Dict[str, float] = {}
    for outcome in outcomes:
        for key, value in outcome.result.stats.items():
            parts = key.split(".")
            if parts[0] in ("l1", "logbuf") and len(parts) == 3:
                key = f"{parts[0]}.{parts[2]}"  # fold the per-core counters
            totals[key] = totals.get(key, 0) + value
    return totals


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def fallback_buckets(outcomes) -> Dict[str, int]:
    buckets = {"unfused_design": 0, "per_op": 0, "other": 0}
    for outcome in outcomes:
        reasons = (outcome.engine_stats or {}).get("fallback_reasons", {})
        for tag, ops in reasons.items():
            if tag.startswith("core:unfused_design:"):
                buckets["unfused_design"] += ops
            elif tag.startswith("op:"):
                buckets["per_op"] += ops
            else:
                buckets["other"] += ops
    return buckets


def trace_ops(outcomes) -> int:
    return sum(
        len(tx.ops) + 2
        for outcome in outcomes
        for thread in outcome.spec.workload.build().threads
        for tx in thread.transactions
    )


def profile_packages(campaign, serial, outcomes, cell_seconds, wall):
    """Pass D: seconds of ``wall`` per package, and the factor that
    scaled the sampled cells' profile to the whole campaign."""
    from repro.harness import executor as executor_module

    replay = iter(outcomes)

    def replayed(spec):
        outcome = next(replay)
        if outcome.spec != spec:
            raise RuntimeError("replayed cell differs from the dispatched one")
        return outcome

    rest = cProfile.Profile()
    with Patches() as patches:
        patches.set(executor_module, "execute_cell", replayed)
        rest.enable()
        try:
            campaign.call(serial)
        finally:
            rest.disable()
    sampled = cProfile.Profile()
    first = PROFILE_STRIDE // 2
    sampled.enable()
    try:
        for outcome in outcomes[first::PROFILE_STRIDE]:
            executor_module.execute_cell(outcome.spec)
    finally:
        sampled.disable()
    scale = ratio(sum(cell_seconds), sum(cell_seconds[first::PROFILE_STRIDE]))
    profiled = package_self_time(rest)
    for package, seconds in package_self_time(sampled).items():
        profiled[package] = profiled.get(package, 0.0) + scale * seconds
    total = sum(profiled.values())
    return {package: wall * ratio(seconds, total) for package, seconds in profiled.items()}, scale


def traced_run(args, campaign, digests, work) -> int:
    from repro.harness.executor import Executor

    load_before = list(os.getloadavg())
    setup_spans = Spans()
    pool, store, recipes = setup(campaign, work, spans=setup_spans)
    problems: List[str] = []
    try:
        parallel = execute(campaign, pool)
        problems += check(campaign, parallel, digests)
        parallel.release()
    finally:
        pool.close()
    serial = Executor(jobs=1, trace_store=store)
    untraced = execute(campaign, serial)
    problems += check(campaign, untraced, digests)
    untraced.release()

    # Pass C: spans.
    spans = Spans()
    cell_seconds: List[float] = []
    with instrument(spans, cell_seconds), GcSpans(spans) as gc_spans:
        spans.begin("harness.lower")
        try:
            traced = execute(campaign, serial, wrap=lambda capture: Phases(capture, spans))
        finally:
            spans.end()
    problems += check(campaign, traced, digests)
    outcomes = traced.outcomes

    package_s, scale = profile_packages(campaign, serial, outcomes, cell_seconds, untraced.seconds)

    metrics = layer_metrics(
        campaign, parallel, untraced, traced, spans, setup_spans, gc_spans,
        cell_seconds, recipes, package_s,
    )
    units = {name: unit for name, (_, unit) in metrics.items()}
    values = {name: value for name, (value, _) in metrics.items()}
    report = layer_table(args, campaign, traced, spans, setup_spans, package_s, values)
    print(report, file=sys.stderr)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"trace-{campaign.name}-seed{args.seed}.md"), "w") as handle:
        handle.write(report)
    record = run_record(
        args, campaign, load_before,
        {"problems": problems, "profile_stride": PROFILE_STRIDE, "profile_scale": scale},
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    attempted = parallel.cells + untraced.cells + traced.cells
    failed = parallel.failed_cells + untraced.failed_cells + traced.failed_cells
    return emit(not problems, attempted, failed, values, units, record)


def layer_metrics(
    campaign, parallel, untraced, traced, spans, setup_spans, gc_spans,
    cell_seconds, recipes, package_s,
) -> Dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    outcomes = traced.outcomes
    metrics: Dict[str, tuple] = {}
    for span, name in SPAN_METRICS.items():
        metrics[name] = (spans.self_s(span), "s")
    # Set-up synthesizes and loads every recipe; pass C only hits the memo.
    metrics["trace.build_s"] = (metrics["trace.build_s"][0] + setup_spans.self_s("trace.build"), "s")
    metrics["trace.recipes"] = (len(recipes), "count")
    metrics["sim.system_builds"] = (spans.calls("sim.system_build"), "count")
    metrics["gc.collections"] = (gc_spans.collections, "count")
    metrics["gc.full_collections"] = (gc_spans.full, "count")
    metrics["harness.parallel_efficiency"] = (
        ratio(sum(cell_seconds), JOBS * parallel.seconds), "ratio"
    )
    run_seconds = sum(sum(o.seconds) for o in outcomes)
    metrics["sim.ops_per_s"] = (ratio(trace_ops(outcomes), run_seconds), "ops/s")
    fast = sum((o.engine_stats or {}).get("fast_ops", 0) for o in outcomes)
    exact = sum((o.engine_stats or {}).get("exact_ops", 0) for o in outcomes)
    metrics["sim.fast_fraction"] = (ratio(fast, fast + exact), "ratio")
    for bucket, ops in fallback_buckets(outcomes).items():
        metrics[f"sim.fallback_ops.{bucket}"] = (ops, "ops")

    reports = [o.result.recovery for o in outcomes if o.result.recovery is not None]
    metrics["designs.recovery_scanned"] = (sum(r.scanned for r in reports), "entries")
    metrics["designs.recovery_rejected"] = (
        sum(r.rejected_torn + r.rejected_dropped + r.rejected_checksum + r.rejected_tuples for r in reports),
        "entries",
    )
    result = traced.result
    injected = getattr(result, "injected", None) or {}
    reported = getattr(result, "reported", None) or {}
    metrics["faults.injected"] = (sum(injected.values()), "count")
    metrics["faults.reported"] = (sum(reported.values()), "count")

    known = 0.0
    for package in PACKAGES:
        seconds = package_s.get(package, 0.0)
        known += seconds
        metrics[f"{package}.self_s"] = (seconds, "s")
    metrics["other.self_s"] = (sum(package_s.values()) - known, "s")

    stats = stat_totals(outcomes)
    accesses = stats.get("l1.hits", 0) + stats.get("l1.misses", 0)
    metrics["cache.accesses"] = (accesses, "count")
    metrics["cache.l1_hit_ratio"] = (ratio(stats.get("l1.hits", 0), accesses), "ratio")
    metrics["mc.writes"] = (stats.get("mc.writes", 0), "count")
    metrics["mem.media_word_writes"] = (stats.get("media.word_writes", 0), "count")
    metrics["mem.onpm_coalesced_words"] = (stats.get("onpm.coalesced_words", 0), "count")
    metrics["hwlog.log_entries"] = (stats.get("loggen.entries", 0), "count")
    metrics["hwlog.ignored_ratio"] = (
        ratio(stats.get("loggen.ignored", 0), stats.get("loggen.stores_seen", 0)), "ratio"
    )
    metrics["hwlog.logbuf_merged"] = (stats.get("logbuf.merged", 0), "count")
    metrics["cache.ns_per_access"] = (1e9 * ratio(package_s.get("cache", 0.0), accesses), "ns")
    metrics["mc.ns_per_write"] = (1e9 * ratio(package_s.get("mc", 0.0), metrics["mc.writes"][0]), "ns")
    metrics["hwlog.ns_per_entry"] = (
        1e9 * ratio(package_s.get("hwlog", 0.0), metrics["hwlog.log_entries"][0]), "ns"
    )

    metrics["traced.wall_s"] = (traced.seconds, "s")
    metrics["traced.untraced_wall_s"] = (untraced.seconds, "s")
    metrics["traced.overhead"] = (ratio(traced.seconds, untraced.seconds) - 1, "ratio")
    metrics["traced.parallel_wall_s"] = (parallel.seconds, "s")
    metrics["failed_fraction"] = (traced.failed_fraction, "ratio")
    metrics["oracle_failures"] = (traced.oracle_failures, "count")
    return metrics


def layer_table(args, campaign, traced, spans, setup_spans, package_s, values) -> str:
    """The per-workload layer table, as Markdown."""
    wall = traced.seconds
    lines = [
        f"## {campaign.name} (seed {args.seed}, input set {campaign.index})",
        "",
        f"Traced in-process wall {wall:.3f} s; untraced in-process wall "
        f"{values['traced.untraced_wall_s']:.3f} s; tracing overhead "
        f"{100 * values['traced.overhead']:.1f}%.  Jobs-{JOBS} wall "
        f"{values['traced.parallel_wall_s']:.3f} s, parallel efficiency "
        f"{values['harness.parallel_efficiency']:.3f}.  Set-up trace synthesis "
        f"{setup_spans.self_s('trace.build'):.3f} s.",
        "",
        "| span | calls | self s | share of traced wall |",
        "|---|---:|---:|---:|",
    ]
    for name, (calls, _, self_s) in sorted(spans.totals.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"| {name} | {int(calls)} | {self_s:.3f} | {100 * self_s / wall:.1f}% |")
    total = sum(package_s.values())
    lines += [
        "",
        "| package (profiler self time) | s of untraced wall | share |",
        "|---|---:|---:|",
    ]
    for package, seconds in sorted(package_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"| {package} | {seconds:.3f} | {100 * seconds / total:.1f}% |")
    return "\n".join(lines) + "\n"
