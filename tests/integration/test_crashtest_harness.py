"""Tests for the crashtest validation sweep."""

import pytest

from repro.harness import crashtest


class TestCrashTest:
    def test_sweep_passes_for_all_designs(self):
        result = crashtest.run(
            workloads=("hash",),
            points_per_pair=6,
            threads=2,
            transactions=4,
            seed=1,
        )
        assert result.passed
        assert result.runs == 6 * len(crashtest.DEFAULT_SCHEMES)
        assert all(fails == 0 for _, fails in result.per_scheme.values())

    def test_report_lists_verdicts(self):
        result = crashtest.run(
            workloads=("queue",), points_per_pair=3, transactions=3, seed=2
        )
        report = result.format_report()
        assert "PASS" in report
        assert "silo" in report

    def test_includes_commit_strikes(self):
        """With enough points, some plans target commits directly."""
        result = crashtest.run(
            workloads=("hash",),
            schemes=("silo",),
            points_per_pair=30,
            transactions=4,
            seed=3,
        )
        assert result.passed

    def test_deterministic_for_seed(self):
        kwargs = dict(
            workloads=("hash",), schemes=("silo",), points_per_pair=5,
            transactions=3, seed=7,
        )
        a = crashtest.run(**kwargs)
        b = crashtest.run(**kwargs)
        assert a.runs == b.runs
        assert a.failures == b.failures


class TestCLIIntegration:
    def test_cli_crashtest(self, capsys):
        from repro.harness.cli import main

        assert main(["crashtest", "--crash-points", "3"]) == 0
        out = capsys.readouterr().out
        assert "atomic durability" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--cores", "0", "--smoke"],
            ["--cores", "1", "-2"],
            ["--crash-points", "0"],
        ],
    )
    def test_cli_crashtest_rejects_non_positive_counts(self, capsys, argv):
        from repro.harness.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["crashtest", *argv])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert argv[0] in captured.err
        assert "atomic durability" not in captured.out
