"""Integration tests for the experiment harness (tiny configurations)."""

import pytest

from repro.harness import fig4, fig11, fig12, fig13, fig14, fig15, table1, table4
from repro.harness.cli import main as cli_main
from repro.harness.report import format_table
from repro.harness.runner import add_average, normalize_to, run_grid

TINY = dict(transactions=15)
TWO_WORKLOADS = ("hash", "queue")


class TestRunner:
    def test_grid_runs_all_pairs(self):
        grid = run_grid(
            cores=1, schemes=("base", "silo"), workloads=TWO_WORKLOADS, **TINY
        )
        assert set(grid.results) == set(TWO_WORKLOADS)
        assert grid.schemes() == ["base", "silo"]

    def test_normalize_to_base(self):
        grid = run_grid(
            cores=1, schemes=("base", "silo"), workloads=("hash",), **TINY
        )
        norm = normalize_to(grid, "media_writes")
        assert norm["hash"]["base"] == 1.0
        assert 0 < norm["hash"]["silo"] < 1.0

    def test_add_average_row(self):
        norm = {"a": {"x": 1.0, "y": 3.0}, "b": {"x": 2.0, "y": 5.0}}
        out = add_average(norm)
        assert out["average"] == {"x": 1.5, "y": 4.0}


class TestFigureDrivers:
    def test_fig4(self):
        result = fig4.run(threads=1, transactions=20, workloads=("hash", "bank"))
        assert set(result.write_sizes) == {"hash", "bank"}
        assert "Fig. 4" in result.format_report()

    def test_fig11(self):
        result = fig11.run(
            core_counts=(1,), schemes=("base", "silo"), workloads=("hash",),
            transactions=15,
        )
        norm = result.normalized(1)
        assert norm["hash"]["silo"] < norm["hash"]["base"] == 1.0
        assert "write traffic" in result.format_report()

    def test_fig12(self):
        result = fig12.run(
            core_counts=(1,), schemes=("base", "silo"), workloads=("hash",),
            transactions=15,
        )
        norm = result.normalized(1)
        assert norm["hash"]["silo"] > 1.0
        assert "throughput" in result.format_report()

    def test_fig13(self):
        result = fig13.run(threads=1, transactions=15, workloads=("array", "hash"))
        assert result.counts["array"].reduction > 0.5
        assert result.counts["hash"].max_remaining > 0
        assert "remaining" in result.format_report()

    def test_fig14(self):
        result = fig14.run(
            threads=1, transactions=10, workloads=("hash",), multipliers=(1, 4)
        )
        assert result.write_traffic["hash"][1] == 1.0
        assert "Fig. 14" in result.format_report()

    def test_fig15(self):
        result = fig15.run(
            threads=1, transactions=15, workloads=("hash",), latencies=(8, 64)
        )
        assert result.throughput["hash"][8] == 1.0
        assert result.worst_degradation() < 0.5
        assert "latency" in result.format_report()

    def test_table1(self):
        result = table1.run()
        assert "Log buffer" in result.format_report()

    def test_table4(self):
        result = table4.run()
        report = result.format_report()
        assert "eADR" in report and "Silo" in report


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 0.5]], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len({len(l) for l in lines[2:]}) <= 2  # consistent width

    def test_float_formatting(self):
        text = format_table(["v"], [[0.001], [12345.0], [0.5]])
        assert "1.00e-03" in text
        assert "12,345" in text


class TestCLI:
    def test_cli_table4(self, capsys):
        assert cli_main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out

    def test_cli_fig4_small(self, capsys):
        assert cli_main(["fig4", "--transactions", "10"]) == 0
        assert "write size" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["-5", "0"])
    def test_cli_fig4_rejects_non_positive_transactions(self, capsys, count):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["fig4", "--transactions", count])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--transactions" in captured.err
        assert "write size" not in captured.out

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            cli_main(["nope"])

    def test_cli_cache_stats(self, capsys):
        assert cli_main(["cache"]) == 0
        assert "cache" in capsys.readouterr().out

    def test_cli_cache_clear(self, capsys):
        # Populate via a cached experiment run, then clear.
        assert cli_main(["fig4", "--transactions", "10", "--jobs", "1"]) == 0
        assert cli_main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out

    def test_cli_second_run_hits_cache(self, capsys):
        assert cli_main(["fig4", "--transactions", "10", "--jobs", "1"]) == 0
        first = capsys.readouterr().out
        assert "0 cached" in first
        assert cli_main(["fig4", "--transactions", "10", "--jobs", "1"]) == 0
        assert "11 cached" in capsys.readouterr().out

    def test_cli_rejects_action_without_cache(self):
        with pytest.raises(SystemExit):
            cli_main(["fig4", "clear"])

    def test_cli_parallel_jobs(self, capsys):
        assert (
            cli_main(
                ["fig4", "--transactions", "10", "--jobs", "2", "--no-cache"]
            )
            == 0
        )
        assert "write size" in capsys.readouterr().out
