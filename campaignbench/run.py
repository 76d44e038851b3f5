#!/usr/bin/env python3
"""Campaign benchmark: litmus, catalog and faultsweep end to end.

Run from the repository root::

    python3 campaignbench/run.py --workload litmus --seed 0 --seconds 20 --trace 0

``--trace 0`` sets up, then runs whole campaigns of the workload on
``Executor(jobs=2)`` (result cache off, trace-artifact store filled
during set-up) until they have taken ``--seconds`` in all.  It
checks every campaign (see ``campaigns.check``) and prints the
end-to-end metrics.  ``--trace 1`` prints the per-layer metrics
instead and writes a layer table; see ``METRICS.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every check passed; it is 2, with no result printed,
when the program's sources are not there.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from support import (  # noqa: E402
    SRC,
    WORK,
    emit,
    probe_setup,
    run_record,
    setup,
    worker_peak_rss_mb,
)

#: Set-ups per run: this process plus SETUP_PROBES fresh interpreters.
SETUP_PROBES = 4

END_TO_END_UNITS = {
    "cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "pm_write_bytes": "B",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def measure(args, campaign, digests, work):
    from campaigns import check, execute

    load_before = list(os.getloadavg())
    executor, _, _ = setup(campaign, work)
    setup_samples = [time.perf_counter() - STARTED]
    for _ in range(SETUP_PROBES):
        setup_samples.append(probe_setup(args.workload, args.seed))

    seconds, rates, cells, failed, problems = [], [], 0, 0, []
    oracle_failures, deterministic = 0, set()
    try:
        while True:
            outcome = execute(campaign, executor)
            seconds.append(outcome.seconds)
            rates.append(outcome.cells / outcome.seconds)
            cells += outcome.cells
            failed += outcome.failed_cells
            oracle_failures += outcome.oracle_failures
            deterministic.add((outcome.sim_cycles, outcome.pm_write_bytes))
            problems += check(campaign, outcome, digests)
            outcome.release()
            if problems:
                break
            if sum(seconds) >= args.seconds:
                break
        peak_rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, worker_peak_rss_mb())
    finally:
        executor.close()
    if len(deterministic) > 1:
        problems.append("simulated totals differ between campaigns of one run")

    sim_cycles, pm_write_bytes = sorted(deterministic)[0]
    metrics = {
        "cells_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss,
        "sim_cycles": sim_cycles,
        "pm_write_bytes": pm_write_bytes,
    }
    extra = {
        "campaigns": len(seconds),
        "campaign_s": seconds,
        "setup_samples_s": setup_samples,
        "failed_fraction": failed / cells if cells else 1.0,
        "oracle_failures": oracle_failures,
        "problems": problems,
    }
    record = run_record(args, campaign, load_before, extra)
    print(f"failed_fraction {extra['failed_fraction']:.6g} ratio | oracle_failures {oracle_failures} count")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return emit(not problems, cells, failed, metrics, END_TO_END_UNITS, record)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"campaignbench: {SRC}/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    from campaigns import WORKLOADS_BY_NAME, load_record, make_campaign

    if args.workload not in WORKLOADS_BY_NAME:
        print(f"campaignbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    record = load_record()
    campaign = make_campaign(args.workload, args.seed, record)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        if args.setup_probe:
            executor, _, _ = setup(campaign, work)
            elapsed = time.perf_counter() - STARTED
            executor.close()
            print(json.dumps({"setup_s": elapsed}))
            return 0
        digests = record["digests"]
        if args.trace:
            from traced import traced_run

            return traced_run(args, campaign, digests, work)
        return measure(args, campaign, digests, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
