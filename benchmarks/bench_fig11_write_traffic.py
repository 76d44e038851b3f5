"""Fig. 11 — normalized PM media write traffic for all five designs.

Expected shape (paper, 8 cores): Base worst (log + cacheline flushed
per write); FWB below Base; MorLog ~0.7x FWB (intermediate-redo
elimination); LAD and Silo lowest and close to each other; Silo cuts
roughly three quarters of MorLog's writes (paper: 76.5%).
"""

import pytest
from conftest import run_once

from repro.harness import fig11
from repro.harness.experiments import run_experiment


def _average(norm):
    return norm["average"]


@pytest.mark.parametrize("cores", [1, 8])
def test_fig11_write_traffic(benchmark, bench_tx, cores):
    result = run_once(
        benchmark,
        lambda: run_experiment(
            fig11.SPEC, core_counts=(cores,), transactions=bench_tx
        ),
    )
    print()
    print(result.format_report())

    avg = _average(result.normalized(cores))
    # Base is the normalization target and the worst design.
    assert avg["base"] == 1.0
    assert max(avg.values()) == 1.0
    # Ordering: base >= fwb > morlog > {lad, silo}.
    assert avg["fwb"] <= 1.0
    assert avg["morlog"] < avg["fwb"]
    assert avg["silo"] < avg["morlog"]
    assert avg["lad"] < avg["morlog"]
    # Silo ~= LAD (the paper's "approximate write traffic with LAD").
    assert avg["silo"] <= avg["lad"] * 1.6
    # Silo removes the majority of MorLog's writes (paper: 76.5%).
    assert avg["silo"] < 0.55 * avg["morlog"]
