"""Fig. 14 — Silo processing large (overflowing) transactions.

Expected shape: no aborts; throughput dips only moderately at 16x
write sets (the paper reports -7.4%; our Python substrate saturates
media bandwidth earlier, so the locality-poor workloads dip more —
see EXPERIMENTS.md); write traffic grows but stays within ~2x per
operation (paper: up to 1.9x on average); Array and TPCC/YCSB stay
essentially flat thanks to ignorance and locality.
"""

from conftest import run_once

from repro.harness import fig14
from repro.harness.experiments import run_experiment


def test_fig14_large_transactions(benchmark, bench_tx):
    result = run_once(
        benchmark,
        lambda: run_experiment(
            fig14.SPEC, threads=4, transactions=max(bench_tx // 2, 30)
        ),
    )
    print()
    print(result.format_report())

    mults = result.multipliers
    top = mults[-1]
    # Stable workloads: ignorance (array) and locality (tpcc, ycsb).
    assert result.throughput["array"][top] > 0.75
    assert result.throughput["tpcc"][top] > 0.75
    # Average write amplification bounded (paper: up to 1.9x).
    assert result.average(result.write_traffic, top) < 2.5
    # Throughput never collapses: overflow is handled without aborts.
    for name, row in result.throughput.items():
        assert row[top] > 0.2, f"{name} collapsed at {top}x"
