"""Fig. 4 — write size (bytes) per transaction, all eleven workloads.

Expected shape: every workload writes well under 0.5 KB per
transaction (the small-write-set observation motivating the 20-entry
log buffer, Section II-E).
"""

from conftest import run_once

from repro.harness import fig4
from repro.harness.experiments import run_experiment


def test_fig4_write_sizes(benchmark, bench_tx):
    result = run_once(
        benchmark,
        lambda: run_experiment(fig4.SPEC, threads=2, transactions=bench_tx),
    )
    print()
    print(result.format_report())

    # Paper shape: small write sets everywhere.
    for name, size in result.write_sizes.items():
        assert size < 512, f"{name} writes {size}B per transaction"
    assert result.average < 256
