#!/usr/bin/env python3
"""Record the simulated-result digest of every workload and input set.

Run from the repository root::

    python3 campaignbench/record_digests.py [--workload NAME ...]

Each campaign runs once on ``Executor(jobs=2)``; a campaign with a cell
that is not ``ok`` or an oracle failure is not recorded.  The digests
land in ``campaignbench/digests.json``, which ``run.py`` checks every
campaign against.  Re-record only for a change that is meant to alter
simulated results, and say so in the change.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: all three")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from campaigns import DIGESTS_PATH, INPUT_SETS, WORKLOADS_BY_NAME, execute
    from repro.harness.executor import Executor
    from repro.harness.traceartifacts import TraceArtifactStore

    try:
        with open(DIGESTS_PATH) as handle:
            recorded = json.load(handle)
    except FileNotFoundError:
        recorded = {"digests": {}, "totals": {}}
    work = tempfile.mkdtemp(dir=HERE)
    try:
        with Executor(jobs=2, trace_store=TraceArtifactStore(work)) as executor:
            for name in args.workload or sorted(WORKLOADS_BY_NAME):
                cls = WORKLOADS_BY_NAME[name]
                sets = [0] if cls(0).digest_key == "all" else range(INPUT_SETS)
                for index in sets:
                    campaign = cls(index)
                    outcome = execute(campaign, executor)
                    if outcome.failed_cells or outcome.oracle_failures or outcome.problems:
                        print(f"{name} set {index}: not recorded ({outcome.problems})", file=sys.stderr)
                        return 1
                    key = campaign.digest_key
                    recorded["digests"].setdefault(name, {})[key] = outcome.digest
                    totals = {
                        "cells": outcome.cells,
                        "sim_cycles": outcome.sim_cycles,
                        "pm_write_bytes": outcome.pm_write_bytes,
                    }
                    if name == "faultsweep":
                        totals["rng_seed"] = campaign.rng_seed()
                    recorded["totals"].setdefault(name, {})[key] = totals
                    print(f"{name} set {key}: {outcome.seconds:.1f} s {totals}", flush=True)
                    with open(DIGESTS_PATH, "w") as handle:
                        json.dump(recorded, handle, indent=1, sort_keys=True)
                        handle.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
