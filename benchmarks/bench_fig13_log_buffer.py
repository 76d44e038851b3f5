"""Fig. 13 — total vs remaining on-chip log entries per transaction.

Expected shape: log ignorance + merging remove a large share of naive
logs (paper: 64.3% on average, ~90% for Array); the remaining-entry
counts motivate a small (20-entry) log buffer.
"""

from conftest import run_once

from repro.harness import fig13
from repro.harness.experiments import run_experiment


def test_fig13_log_reduction(benchmark, bench_tx):
    result = run_once(
        benchmark,
        lambda: run_experiment(fig13.SPEC, threads=4, transactions=bench_tx),
    )
    print()
    print(result.format_report())

    counts = result.counts
    # Array's element swaps rewrite identical padding: most logs
    # ignored (paper: 90.4%).
    assert counts["array"].reduction > 0.8
    # Substantial average reduction across the suite.
    assert result.average_reduction > 0.25
    # Remaining counts stay far below the naive store counts for the
    # locality-heavy workloads.
    assert counts["ycsb"].reduction > 0.5
    # Every workload keeps remaining <= total.
    for name, c in counts.items():
        assert c.mean_remaining <= c.mean_total
