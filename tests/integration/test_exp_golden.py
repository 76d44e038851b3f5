"""Golden equality tests for the experiment registry port.

The ten per-figure harness modules were captured *before* being ported
onto :mod:`repro.harness.experiments` (``python
tests/integration/test_exp_golden.py capture`` regenerates the files
under ``tests/data/golden/``).  Every migrated experiment must keep
producing byte-identical reports and metric values: the simulator is
deterministic, so any drift here is a real behaviour change in the
port, not noise.
"""

import json
import os

import pytest

from repro.harness.experiments import run_experiment

GOLDEN_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "data", "golden"
)


def _fig4():
    from repro.harness import fig4

    result = run_experiment(
        fig4.SPEC, threads=1, transactions=20, workloads=("hash", "bank", "tatp")
    )
    return result, {"write_sizes": result.write_sizes, "average": result.average}


def _fig11():
    from repro.harness import fig11

    result = run_experiment(
        fig11.SPEC,
        core_counts=(1, 2),
        schemes=("base", "fwb", "silo"),
        workloads=("hash", "queue"),
        transactions=15,
    )
    return result, {
        "normalized": {cores: result.normalized(cores) for cores in (1, 2)},
        "chart": result.format_chart(),
    }


def _fig12():
    from repro.harness import fig12

    result = run_experiment(
        fig12.SPEC,
        core_counts=(1, 2),
        schemes=("base", "fwb", "silo"),
        workloads=("hash", "queue"),
        transactions=15,
    )
    return result, {
        "normalized": {cores: result.normalized(cores) for cores in (1, 2)},
        "chart": result.format_chart(),
    }


def _fig13():
    from repro.harness import fig13

    result = run_experiment(
        fig13.SPEC, threads=1, transactions=15, workloads=("array", "hash")
    )
    return result, {
        "counts": {
            name: [c.mean_total, c.mean_remaining, c.max_remaining, c.reduction]
            for name, c in result.counts.items()
        },
        "average_reduction": result.average_reduction,
        "overall_max_remaining": result.overall_max_remaining,
    }


def _fig14():
    from repro.harness import fig14

    result = run_experiment(
        fig14.SPEC,
        threads=1, transactions=10, workloads=("hash", "queue"), multipliers=(1, 2, 4)
    )
    return result, {
        "throughput": result.throughput,
        "write_traffic": result.write_traffic,
        "multipliers": list(result.multipliers),
    }


def _fig15():
    from repro.harness import fig15

    result = run_experiment(
        fig15.SPEC,
        threads=1, transactions=15, workloads=("hash",), latencies=(8, 32, 64)
    )
    return result, {
        "throughput": result.throughput,
        "latencies": list(result.latencies),
        "worst_degradation": result.worst_degradation(),
    }


def _table1():
    from repro.harness import table1

    result = run_experiment(table1.SPEC)
    return result, {"rows": result.rows}


def _table4():
    from repro.harness import table4

    result = run_experiment(table4.SPEC)
    return result, {
        "rows": {
            name: [
                req.flush_size_kb,
                req.flush_energy_uj,
                req.cap_volume_mm3,
                req.cap_area_mm2,
                req.li_volume_mm3,
                req.li_area_mm2,
            ]
            for name, req in result.rows.items()
        }
    }


def _mcsweep():
    from repro.harness import mcsweep

    result = run_experiment(
        mcsweep.SPEC,
        threads=2, transactions=30, workloads=("hash", "queue"), channels=(1, 2)
    )
    return result, {
        "speedup": result.speedup,
        "channels": list(result.channels),
        "min_advantage": result.min_advantage(),
    }


def _recovery_cost():
    from repro.harness import recovery_cost

    result = run_experiment(
        recovery_cost.SPEC, workload="hash", threads=2, transactions=40
    )
    return result, {
        "workload": result.workload,
        "crash_at": result.crash_at,
        "rows": [
            [
                row.scheme,
                row.scanned,
                row.replayed,
                row.revoked,
                row.discarded,
                row.estimated_us,
                row.consistent,
            ]
            for row in result.rows
        ],
    }


GOLDEN_RUNS = {
    "fig4": _fig4,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _fig13,
    "fig14": _fig14,
    "fig15": _fig15,
    "table1": _table1,
    "table4": _table4,
    "mcsweep": _mcsweep,
    "recovery_cost": _recovery_cost,
}


def _values_json(values) -> str:
    return json.dumps(values, sort_keys=True, indent=2, default=repr) + "\n"


def _paths(name):
    return (
        os.path.join(GOLDEN_DIR, f"{name}.report.txt"),
        os.path.join(GOLDEN_DIR, f"{name}.values.json"),
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_equality(name):
    report_path, values_path = _paths(name)
    assert os.path.exists(report_path), (
        f"golden files for {name!r} missing; run "
        "`python tests/integration/test_exp_golden.py capture`"
    )
    result, values = GOLDEN_RUNS[name]()
    with open(report_path) as handle:
        expected_report = handle.read()
    with open(values_path) as handle:
        expected_values = handle.read()
    assert result.format_report() + "\n" == expected_report
    assert _values_json(values) == expected_values


def capture() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, runner in GOLDEN_RUNS.items():
        result, values = runner()
        report_path, values_path = _paths(name)
        with open(report_path, "w") as handle:
            handle.write(result.format_report() + "\n")
        with open(values_path, "w") as handle:
            handle.write(_values_json(values))
        print(f"captured {name}")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["capture"]:
        capture()
    else:
        raise SystemExit("usage: test_exp_golden.py capture")
