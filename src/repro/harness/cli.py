"""Command-line entry point: one ``argparse`` tree for every campaign.

Examples::

    silo-repro exp list                  # the declarative registry
    silo-repro exp run fig11             # paper-sized campaign
    silo-repro exp run fig12 --smoke     # CI-sized campaign
    silo-repro exp run --all --smoke --jobs 2
    silo-repro exp run fig14 --set transactions=80 --json
    silo-repro fig4                      # same as: exp run fig4
    silo-repro all --jobs 8              # same as: exp run --all --jobs 8
    silo-repro bench --smoke --engine both
    silo-repro litmus --scheme quadra1f
    silo-repro replay --spec '<cell json>'
    silo-repro cache stats

Each subcommand owns only its own flags, so a flag meant for another
command is a usage error, never silently ignored.  A registered
experiment name (or ``all``) in first position is shorthand for
``exp run <name>`` (``exp run --all``): the argument list is rewritten
before parsing, so both spellings run the same code with the spec's
parameters as the only defaults (``--set KEY=VALUE`` overrides them).

Exit codes are uniform across all subcommands: 0 on success, 1 when
a campaign fails (a raised cell or an oracle violation), 2 on a usage
or configuration error (unknown experiment, bad ``--set`` key,
malformed flags or ``--spec``), 3 when a ``--partial`` run completed
with holes (results rendered, but cells are missing), and 130 when a
campaign was interrupted (SIGINT) and drained gracefully — its journal
is flushed and ``--resume`` continues where it stopped.

Every campaign fans its cells out through
:class:`repro.harness.executor.Executor`, configured by the shared
executor flags: ``--jobs N`` worker processes (default: all CPUs;
``--jobs 1`` is the serial in-process path) over the content-addressed
result cache in ``.repro-cache/`` (keyed by cell spec + a source
fingerprint, so any simulator edit invalidates it automatically).
Results are bit-identical at any jobs count and cache state.  A cell
that fails is reported with its worker traceback, the rest of the
campaign completes, and the exit status is nonzero.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.common.errors import ConfigError, ExecutionError
from repro.designs.scheme import SchemeRegistry
from repro.harness import bench, crashtest, faultsweep, litmus, replay, tracecmd
from repro.harness.executor import CampaignInterrupted, Executor, spec_key
from repro.harness.experiments import load_all, render, run_campaign
from repro.harness.experiments.engine import PartialCampaignResult
from repro.harness.journal import CampaignJournal
from repro.harness.resultcache import ResultCache
from repro.harness.traceartifacts import TraceArtifactStore

#: Uniform exit codes for every subcommand.
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
#: A --partial campaign rendered, but with missing cells.
EXIT_PARTIAL = 3
#: SIGINT drained gracefully (128 + SIGINT, the shell convention).
EXIT_INTERRUPTED = 130

CACHE_DIR_HELP = "cache directory (default: $SILO_CACHE_DIR or .repro-cache)"

#: One campaign of a command: its name, its journal key (``None``: not
#: journaled) and the call running it, given ``executor=``.
CampaignRun = Tuple[str, Optional[str], Callable[..., Any]]


# ----------------------------------------------------------------------
# Argument types: bad values are usage errors (exit 2) at the boundary
# ----------------------------------------------------------------------
def _count(text: str) -> int:
    """argparse type for counts: an integer >= 1, else a usage error
    (exit 2) instead of a plausible-looking table of zeros."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _non_negative(text: str) -> int:
    """argparse type for ``--retries``: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _cell_timeout(text: str):
    """argparse type for ``--cell-timeout``: ``auto``, ``0`` (off, as
    ``None``) or a positive finite number of seconds."""
    if text == "auto":
        return "auto"
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if seconds == 0:
        return None
    if not (seconds > 0 and math.isfinite(seconds)):
        raise argparse.ArgumentTypeError(
            f"expected 'auto', 0 (off) or a positive number of seconds, "
            f"got {text!r}"
        )
    return seconds


def _executor_flags() -> argparse.ArgumentParser:
    """The parent parser of every command that runs cells."""
    parent = argparse.ArgumentParser(add_help=False)
    flag = parent.add_argument_group("executor").add_argument
    flag("--jobs", type=_count, help="worker processes (default: all CPUs; 1 = serial)")
    flag("--no-cache", action="store_true", help="neither read nor write the cache")
    flag("--fresh", action="store_true", help="recompute every cell, refresh the cache")
    flag("--cache-dir", help=CACHE_DIR_HELP)
    flag("--batch", type=_count, help="cells per worker task (default: auto-sized)")
    flag(
        "--cell-timeout",
        type=_cell_timeout,
        metavar="SECONDS",
        help="per-cell watchdog: seconds, 'auto' (calibrated) or 0 (off, default)",
    )
    flag(
        "--retries",
        type=_non_negative,
        default=0,
        help="re-run cells whose worker died or timed out, up to N times (default 0)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="silo-repro",
        description="Regenerate the tables and figures of the Silo paper (HPCA "
        "2023) on the trace-driven simulator.  A registered experiment name "
        "(or 'all') as the first argument is shorthand for 'exp run NAME' "
        "('exp run --all').",
    )
    version = f"silo-repro {__version__}"
    parser.add_argument("--version", action="version", version=version)
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    executor = _executor_flags()
    resume = argparse.ArgumentParser(add_help=False)
    resume.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted campaign from its journal (needs the cache)",
    )

    def command(name, help_text, handler, parents=()):
        sub = commands.add_parser(name, help=help_text, parents=list(parents))
        sub.set_defaults(handler=handler)
        return sub.add_argument

    def output(add, flag, default):
        add(flag, default=default, help=f"report file (default: {default})")

    # exp list | run
    p_exp = commands.add_parser("exp", help="list or run the registered experiments")
    p_exp.add_argument("--version", action="version", version=version)
    exp = p_exp.add_subparsers(dest="exp_command", required=True)
    p_list = exp.add_parser("list", help="list the registered experiments")
    p_list.add_argument("--json", action="store_true", help="machine-readable listing")
    p_list.set_defaults(handler=_exp_list)
    p_run = exp.add_parser(
        "run", parents=[executor, resume], help="run one or more experiments"
    )
    p_run.set_defaults(handler=_exp_run, fmt="report")
    add = p_run.add_argument
    add("names", nargs="*", metavar="NAME", help="see 'silo-repro exp list'")
    add("--all", action="store_true", help="run every registered experiment")
    fmt = p_run.add_mutually_exclusive_group()
    for name in ("json", "csv", "chart"):
        fmt.add_argument(
            f"--{name}", dest="fmt", action="store_const", const=name,
            help=f"render results as {name.upper()} instead of the text report",
        )
    add("--smoke", action="store_true", help="the spec's small, CI-sized parameters")
    add(
        "--engine",
        choices=("exact", "columnar"),
        default="exact",
        help="engine for every simulated cell (columnar: bit-identical, batched)",
    )
    add(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a spec parameter (VALUE is a Python literal or a string); "
        "may repeat; with --all it applies only to the specs that declare KEY",
    )
    add(
        "--partial",
        action="store_true",
        help="render failed cells as holes with replay one-liners (exit 3)",
    )

    add = command("bench", "hot-path throughput benchmark", _bench, [executor])
    add("--smoke", action="store_true", help="shrink the grid to a <60s CI budget")
    add(
        "--repeats",
        type=_count,
        default=bench.DEFAULT_REPEATS,
        help=f"wall-clock samples per cell (default {bench.DEFAULT_REPEATS})",
    )
    add(
        "--engine",
        choices=("exact", "columnar", "both"),
        default="exact",
        help="engine to measure; 'both' checks bit-identity and records speedups",
    )
    add("--bench-output", help="one-engine record (default: BENCH_hotpath.json)")
    add("--engine-output", help="--engine both record (default: BENCH_engine.json)")
    add(
        "--profile",
        action="store_true",
        help="one-engine runs: report per-phase simulated-cycle attribution",
    )

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument(
        "--crash-points",
        type=_count,
        default=20,
        help="crash points per (scheme, workload) pair (default 20)",
    )
    sweep.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    command("crashtest", "randomized crash sweep", _crashtest, [executor, sweep])
    add = command(
        "faultsweep", "fault injection", _faultsweep, [executor, sweep, resume]
    )
    add("--smoke", action="store_true", help="shrink the sweep to a <60s CI budget")
    output(add, "--fault-output", "FAULTSWEEP.json")
    add("--trace-output", help="also write a Chrome trace of one faulted cell")

    add = command(
        "litmus", "exhaustive small-scope crash checking", _litmus, [executor, resume]
    )
    add("--smoke", action="store_true", help="the CI-sized pattern catalog")
    add("--scheme", default="all", help="one design, or 'all' (default)")
    output(add, "--litmus-output", "LITMUS.json")

    add = command("chaos", "self-test the executor under injected faults", _chaos)
    add("--smoke", action="store_true", help="its only size; kept for CI symmetry")
    add("--jobs", type=_count, default=2, help="workers (at least 2 are used)")
    add("--seed", type=int, default=0, help="which random faults fire (default 0)")
    output(add, "--chaos-output", "CHAOS.json")

    add = command("trace", "capture Chrome/Perfetto traces", _trace, [executor])
    add("--scheme", default="silo", help="one design, or 'all' (default: silo)")
    add(
        "--workload",
        default=tracecmd.DEFAULT_WORKLOAD,
        help=f"workload to trace (default: {tracecmd.DEFAULT_WORKLOAD})",
    )
    add(
        "--transactions",
        type=_count,
        default=tracecmd.DEFAULT_TRANSACTIONS,
        help=f"transactions per thread (default {tracecmd.DEFAULT_TRANSACTIONS})",
    )
    add(
        "--trace-out",
        default="TRACE.json",
        help="output file; --scheme all appends the design (default: TRACE.json)",
    )

    add = command("replay", "re-run one cell from its --spec JSON", _replay)
    add("--spec", required=True, help="the cell JSON a failing campaign printed")

    add = command("cache", "result-cache and trace-store stats or cleanup", _cache)
    add("action", nargs="?", choices=("stats", "clear"), default="stats")
    add("--cache-dir", help=CACHE_DIR_HELP)
    return parser


def expand_aliases(argv: Sequence[str]) -> List[str]:
    """Rewrite the figure shorthands: ``NAME ...`` for a registered
    experiment becomes ``exp run NAME ...``, ``all ...`` becomes
    ``exp run --all ...``; anything else is returned unchanged."""
    argv = list(argv)
    if argv[:1] == ["all"]:
        return ["exp", "run", "--all"] + argv[1:]
    if argv and argv[0] in load_all():
        return ["exp", "run"] + argv
    return argv


# ----------------------------------------------------------------------
# Shared campaign plumbing
# ----------------------------------------------------------------------
def _executor(args, progress: bool) -> Executor:
    """The one executor of an invocation, from the shared flags."""
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    trace_store = None if args.no_cache else TraceArtifactStore(args.cache_dir)
    return Executor(
        jobs=args.jobs,
        cache=cache,
        fresh=args.fresh,
        progress=progress,
        batch=args.batch,
        trace_store=trace_store,
        cell_timeout=args.cell_timeout,
        retries=args.retries,
    )


def _journal(args, campaign_key: Optional[str]) -> Optional[CampaignJournal]:
    """The checkpoint journal for one campaign identity, honoring
    ``--resume`` (keep it) vs. a fresh run (discard any leftover).
    Resilience flags never join the key: they change scheduling, not
    which cells the campaign contains."""
    resume = getattr(args, "resume", False)
    if campaign_key is None:
        return None
    if args.no_cache:
        if resume:
            raise ConfigError("--resume needs the result cache (drop --no-cache)")
        return None
    journal = CampaignJournal(args.cache_dir, campaign=campaign_key)
    if not resume:
        journal.discard()
    return journal


def _report_interrupted(exc: CampaignInterrupted, name: str) -> int:
    """Render a graceful partial stop: flush the journal's partial
    manifest, say how to continue, exit 130 — never a stack trace."""
    records = [
        {
            "spec": json.loads(spec_key(outcome.spec)),
            "ok": outcome.ok,
            "kind": outcome.kind,
            "cached": outcome.cached,
        }
        for outcome in exc.outcomes
    ]
    print(f"[{name} interrupted] {exc}", file=sys.stderr)
    if exc.journal is not None:
        path = exc.journal.write_partial_manifest(records)
        if path:
            print(f"[{name}] partial manifest: {path}", file=sys.stderr)
    return EXIT_INTERRUPTED


def _print_report(name: str, result: Any) -> int:
    """Print a campaign's report; validation campaigns (and replayed
    cells) fail the run on a failed verdict, not only on raised cells."""
    print(result.format_report())
    if getattr(result, "passed", True) is False:
        print(f"[{name} FAILED]", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _run_campaigns(
    args,
    campaigns: Sequence[CampaignRun],
    emit: Callable[[str, Any], int] = _print_report,
    progress: bool = True,
) -> int:
    """Run each campaign on one executor built from the shared flags.

    ``emit(name, result)`` renders a finished campaign and returns its
    status.  A failed campaign (``ExecutionError``) is reported and the
    next one still runs (exit 1); an interrupt stops everything (exit
    130); a partial render is exit 3.  ``ConfigError`` propagates to
    :func:`main` (exit 2).
    """
    failed = holes = False
    with _executor(args, progress) as executor:
        for name, campaign_key, run in campaigns:
            executor.journal = _journal(args, campaign_key)
            started = time.time()
            try:
                result = run(executor=executor)
            except CampaignInterrupted as exc:
                return _report_interrupted(exc, name)
            except ExecutionError as exc:
                print(f"[{name} FAILED]\n{exc}", file=sys.stderr)
                failed = True
                continue
            if executor.journal is not None:
                # Clean completion: the checkpoint has served its purpose
                # (reusable outcomes live on in the result cache).
                executor.journal.discard()
            status = emit(name, result)
            failed |= status == EXIT_FAILURE
            holes |= status == EXIT_PARTIAL
            if progress:
                stats = executor.stats
                journal_text = (
                    f", {stats.journal_hits} journal-served"
                    if stats.journal_hits
                    else ""
                )
                print(
                    f"[{name} completed in {time.time() - started:.1f}s; "
                    f"campaign: {stats.cells} cells, {stats.cache_hits} cached"
                    f"{journal_text}, {executor.jobs} jobs]\n"
                )
    if failed:
        return EXIT_FAILURE
    return EXIT_PARTIAL if holes else EXIT_OK


# ----------------------------------------------------------------------
# Command handlers
# ----------------------------------------------------------------------
def _parse_overrides(pairs: List[str]) -> Dict[str, object]:
    overrides: Dict[str, object] = {}
    for text in pairs:
        key, eq, raw = text.partition("=")
        if not eq or not key:
            raise ConfigError(f"--set expects KEY=VALUE, got {text!r}")
        try:
            overrides[key] = ast.literal_eval(raw)
        except (SyntaxError, ValueError):
            overrides[key] = raw
    return overrides


def _exp_list(args) -> int:
    specs = load_all().specs()
    if args.json:
        payload = [
            {
                "name": spec.name,
                "figure": spec.figure,
                "description": spec.description,
                "params": {k: repr(v) for k, v in spec.params.items()},
            }
            for spec in specs
        ]
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    name_w = max(len(s.name) for s in specs)
    fig_w = max(len(s.figure) for s in specs)
    for spec in specs:
        print(f"{spec.name:<{name_w}}  {spec.figure:<{fig_w}}  {spec.description}")
    return EXIT_OK


def _exp_run(args) -> int:
    registry = load_all()
    if args.all and args.names:
        raise ConfigError("give experiment names or --all, not both")
    if not args.all and not args.names:
        raise ConfigError(
            "nothing to run: give experiment names or --all "
            "(see 'silo-repro exp list')"
        )
    overrides = _parse_overrides(args.overrides)
    # Resolve every name before running anything: an unknown experiment
    # is a usage error, not a partial campaign.
    specs = registry.specs() if args.all else [registry.get(n) for n in args.names]

    def campaign(spec) -> CampaignRun:
        applicable = (
            {k: v for k, v in overrides.items() if k in spec.params}
            if args.all
            else overrides
        )
        campaign_key = (
            f"exp|{spec.name}|smoke={args.smoke}|engine={args.engine}|"
            + json.dumps(applicable, sort_keys=True, default=repr)
        )
        run = partial(
            run_campaign,
            spec,
            smoke=args.smoke,
            engine=args.engine,
            partial=args.partial,
            **applicable,
        )
        return spec.name, campaign_key, run

    json_docs: Dict[str, object] = {}

    def emit(name: str, ran) -> int:
        result, finished = ran
        is_partial = isinstance(result, PartialCampaignResult)
        if args.fmt == "json":
            json_docs[name] = {
                "manifest": finished.manifest(),
                "tables": (
                    result.to_json_dict() if is_partial else result.to_json_payload()
                ),
            }
        else:
            print(render(result, args.fmt))
        return EXIT_PARTIAL if is_partial else EXIT_OK

    status = _run_campaigns(
        args, [campaign(spec) for spec in specs], emit, progress=args.fmt == "report"
    )
    if status != EXIT_INTERRUPTED and json_docs:
        if len(json_docs) == 1 and not args.all:
            (payload,) = json_docs.values()
            print(json.dumps(payload, indent=2))
        else:
            print(json.dumps(json_docs, indent=2))
    return status


def _bench(args) -> int:
    both = args.engine == "both"
    if both and (args.profile or args.bench_output):
        raise ConfigError(
            "--profile and --bench-output apply to one-engine runs; "
            "--engine both writes --engine-output"
        )
    if not both and args.engine_output:
        raise ConfigError("--engine-output applies only to --engine both")
    common = dict(smoke=args.smoke, repeats=args.repeats)
    if both:
        output = args.engine_output or "BENCH_engine.json"
        run = partial(bench.run_engine_comparison, output=output, **common)
    else:
        output = args.bench_output or "BENCH_hotpath.json"
        run = partial(
            bench.run, output=output, profile=args.profile, engine=args.engine, **common
        )
    return _run_campaigns(args, [("bench", None, run)])


def _crashtest(args) -> int:
    run = partial(crashtest.run, points_per_pair=args.crash_points, seed=args.seed)
    return _run_campaigns(args, [("crashtest", None, run)])


def _faultsweep(args) -> int:
    key = f"faultsweep|seed={args.seed}|points={args.crash_points}|smoke={args.smoke}"
    run = partial(
        faultsweep.run,
        points_per_pair=args.crash_points,
        seed=args.seed,
        output=args.fault_output,
        smoke=args.smoke,
        trace_output=args.trace_output,
    )
    return _run_campaigns(args, [("faultsweep", key, run)])


def _litmus(args) -> int:
    """``--scheme``: one registered design, or ``all``.  An unknown name
    is a did-you-mean :class:`ConfigError` (exit 2), never a silent run
    of every design."""
    if args.scheme == "all":
        schemes, key = litmus.LITMUS_SCHEMES, f"litmus|smoke={args.smoke}"
    elif args.scheme in SchemeRegistry.names():
        schemes = (args.scheme,)
        key = f"litmus|smoke={args.smoke}|scheme={args.scheme}"
    else:
        raise SchemeRegistry.unknown_scheme_error(args.scheme)
    run = partial(
        litmus.run, schemes=schemes, smoke=args.smoke, output=args.litmus_output
    )
    return _run_campaigns(args, [("litmus", key, run)])


def _trace(args) -> int:
    run = partial(
        tracecmd.run,
        scheme=args.scheme,
        workload=args.workload,
        transactions=args.transactions,
        output=args.trace_out,
    )
    return _run_campaigns(args, [("trace", None, run)])


def _chaos(args) -> int:
    from repro.harness import chaos

    result = chaos.run(
        smoke=args.smoke, jobs=args.jobs, seed=args.seed, output=args.chaos_output
    )
    return _print_report("chaos", result)


def _replay(args) -> int:
    return _print_report("replay", replay.run(args.spec))


def _cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    traces = TraceArtifactStore(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        removed_traces = traces.clear()
        print(f"removed {removed} cache entries from {cache.root}")
        print(f"removed {removed_traces} trace artifacts from {traces.root}")
    else:
        print(cache.format_stats())
        print(traces.format_stats())
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(expand_aliases(argv))
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"silo-repro: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ExecutionError as exc:
        print(f"silo-repro: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
