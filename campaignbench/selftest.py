#!/usr/bin/env python3
"""Self-test of the benchmark's output check, at tiny sizes (~2 s).

Run from the repository root::

    python3 campaignbench/selftest.py

It runs a two-pattern, two-design litmus campaign and a one-workload
catalog campaign in-process, then shows that :func:`campaigns.check`

* accepts each campaign against its own digest,
* rejects a tampered recorded digest,
* rejects a tampered simulated result (one cell's ``end_cycle``),
* rejects a missing record and a wrong cell count,

and that ``run.py`` exits 2 without a result where the program's
sources are missing.  Exits 0 when every case behaves.
"""

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from campaigns import Catalog, Litmus, campaign_digest, check, execute  # noqa: E402
from repro.harness import litmus  # noqa: E402
from repro.harness.executor import Executor  # noqa: E402
from repro.harness.experiments.engine import run_campaign  # noqa: E402


class TinyLitmus(Litmus):
    expected_cells = 0

    def call(self, executor):
        return litmus.run(schemes=("base", "silo"), executor=executor, max_patterns=2)


class TinyCatalog(Catalog):
    expected_cells = 0

    def call(self, executor):
        return run_campaign(
            self.spec(), executor=executor, engine="columnar",
            core_counts=(1,), workloads=("hash",), schemes=("base", "silo"), transactions=10,
        )[0]


def expect(condition, what):
    print(("ok   " if condition else "FAIL ") + what)
    return condition


def main() -> int:
    good = True
    executor = Executor(jobs=1)
    for campaign in (TinyLitmus(0), TinyCatalog(1)):
        outcome = execute(campaign, executor)
        campaign.expected_cells = outcome.cells
        name = campaign.name
        record = {name: {campaign.digest_key: outcome.digest}}
        good &= expect(outcome.cells > 0 and not check(campaign, outcome, record),
                       f"{name}: accepted against its own digest ({outcome.cells} cells)")
        tampered = {name: {campaign.digest_key: "0" * 64}}
        good &= expect(bool(check(campaign, outcome, tampered)), f"{name}: tampered digest rejected")
        outcome.outcomes[0].result.end_cycle += 1
        outcome.digest = campaign_digest(outcome.outcomes)
        good &= expect(bool(check(campaign, outcome, record)), f"{name}: tampered end_cycle rejected")
        good &= expect(bool(check(campaign, outcome, {})), f"{name}: missing record rejected")
        outcome.digest = record[name][campaign.digest_key]
        campaign.expected_cells += 1
        good &= expect(bool(check(campaign, outcome, record)), f"{name}: wrong cell count rejected")

    with tempfile.TemporaryDirectory() as empty:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "litmus",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=60,
        )
    good &= expect(done.returncode == 2 and not done.stdout.strip(),
                   "run.py without sources: exit 2, no result")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
