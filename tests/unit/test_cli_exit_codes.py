"""CLI contract tests: the parser tree, ``--version``, the figure
shorthands, and the uniform exit codes (0 ok, 1 campaign failure, 2
usage/config error) across every subcommand."""

from __future__ import annotations

import json
import shlex

import pytest

from repro import __version__
from repro.common.errors import ConfigError, ExecutionError
from repro.harness import cli
from repro.harness.cli import (
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    build_parser,
    expand_aliases,
    main,
)
from repro.harness.executor import (
    CellSpec,
    WorkloadSpec,
    cell_spec_from_json,
    repro_command,
    run_cells,
)
from repro.harness.experiments import CATALOG_MODULES, load_all
from repro.sim.crash import CrashPlan


def exit_code(argv) -> int:
    """``main``'s exit status, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_exp_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["exp", "--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestParserTree:
    def test_exit_code_constants(self):
        assert (EXIT_OK, EXIT_FAILURE, EXIT_USAGE) == (0, 1, 2)
        # Partial renders distinguish themselves from both clean runs
        # and hard failures; 130 is the shell's 128+SIGINT convention.
        assert EXIT_PARTIAL == 3
        assert EXIT_INTERRUPTED == 130

    @pytest.mark.parametrize(
        "argv",
        [
            ["exp", "list"],
            ["exp", "run", "table1"],
            ["bench"],
            ["crashtest"],
            ["faultsweep"],
            ["litmus"],
            ["chaos"],
            ["trace"],
            ["replay", "--spec", "{}"],
            ["cache"],
        ],
    )
    def test_every_command_has_a_handler(self, argv):
        assert callable(build_parser().parse_args(argv).handler)

    def test_every_registered_experiment_is_an_exp_run_shorthand(self):
        for name in load_all().names():
            assert expand_aliases([name, "--smoke"]) == [
                "exp", "run", name, "--smoke",
            ]

    def test_all_is_exp_run_all(self):
        assert expand_aliases(["all", "--jobs", "8"]) == [
            "exp", "run", "--all", "--jobs", "8",
        ]

    def test_other_commands_are_not_rewritten(self):
        assert expand_aliases(["bench", "--smoke"]) == ["bench", "--smoke"]
        assert expand_aliases([]) == []

    def test_registry_covers_the_full_catalog(self):
        registry = load_all()
        assert registry.names()[: len(CATALOG_MODULES)] == list(CATALOG_MODULES)

    @pytest.mark.parametrize(
        "command",
        [
            "exp list",
            "exp run --all --smoke --jobs 2",
            "bench --smoke --engine both",
            "bench --smoke --jobs 2",
            "litmus --jobs 2",
            "faultsweep --smoke --jobs 2 --trace-output FAULTSWEEP_trace.json",
            "chaos --smoke --jobs 2 --chaos-output CHAOS.json",
            "cache stats",
        ],
    )
    def test_ci_command_lines_parse(self, command):
        build_parser().parse_args(expand_aliases(shlex.split(command)))


class TestAliasEquivalence:
    def test_figure_shorthand_prints_what_exp_run_prints(self, capsys):
        flags = ["--smoke", "--json", "--no-cache", "--jobs", "1"]
        assert main(["fig4", *flags]) == EXIT_OK
        shorthand = capsys.readouterr().out
        assert main(["exp", "run", "fig4", *flags]) == EXIT_OK
        assert capsys.readouterr().out == shorthand
        assert json.loads(shorthand)["manifest"]["experiment"] == "fig4"

    def test_figure_defaults_are_the_spec_params(self, monkeypatch, capsys):
        seen = {}

        def _capture(spec, executor, **kwargs):
            seen.update(kwargs, name=spec.name)
            raise ExecutionError("captured")

        monkeypatch.setattr(cli, "run_campaign", _capture)
        assert main(["fig14", "--no-cache"]) == EXIT_FAILURE
        # No parameter override: the campaign runs on the spec's params.
        assert seen == {
            "name": "fig14", "smoke": False, "engine": "exact", "partial": False,
        }


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["nope"])
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--transactions", "0"],
            ["trace", "--transactions", "ten"],
            ["crashtest", "--crash-points", "-1"],
            ["faultsweep", "--crash-points", "0"],
            ["bench", "--repeats", "0"],
            ["chaos", "--jobs", "0"],
        ],
    )
    def test_non_positive_counts_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--litmus-output", "x.json"],
            ["fig4", "--scheme", "nosuch"],
            ["litmus", "--repeats", "3"],
            ["chaos", "--crash-points", "3"],
            ["table1", "--transactions", "5"],
            ["fig11", "--cores", "1", "8"],
            ["replay", "--jobs", "1", "--spec", "{}"],
            ["cache", "stats", "--jobs", "2"],
            ["crashtest", "--smoke"],
        ],
    )
    def test_flag_of_another_command_is_a_usage_error(self, argv, capsys):
        assert exit_code(argv) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--engine", "both", "--profile"],
            ["bench", "--engine", "both", "--bench-output", "x.json"],
            ["bench", "--engine-output", "x.json"],
        ],
    )
    def test_bench_output_flags_match_the_engine_mode(self, argv, capsys):
        assert main(argv + ["--no-cache"]) == EXIT_USAGE
        assert "--engine both" in capsys.readouterr().err

    def test_exp_without_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["exp"])
        assert excinfo.value.code == EXIT_USAGE

    def test_exp_run_conflicting_formats(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["exp", "run", "table1", "--json", "--csv"])
        assert excinfo.value.code == EXIT_USAGE

    def test_exp_run_without_names(self, capsys):
        assert main(["exp", "run"]) == EXIT_USAGE
        assert "nothing to run" in capsys.readouterr().err

    def test_exp_run_names_and_all(self, capsys):
        assert main(["exp", "run", "table1", "--all"]) == EXIT_USAGE

    def test_exp_run_unknown_name(self, capsys):
        assert main(["exp", "run", "nonesuch"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown experiment" in err and "fig11" in err

    def test_exp_run_malformed_set(self, capsys):
        assert main(["exp", "run", "table1", "--set", "noequals"]) == EXIT_USAGE
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_exp_run_unknown_set_key(self, capsys):
        assert main(["exp", "run", "table1", "--set", "bogus=1"]) == EXIT_USAGE
        assert "unknown parameter" in capsys.readouterr().err

    def test_exp_run_non_positive_count_override(self, capsys):
        assert (
            main(["exp", "run", "fig4", "--set", "transactions=-5", "--no-cache"])
            == EXIT_USAGE
        )
        assert "positive integers" in capsys.readouterr().err

    def test_exp_run_missing_normalization_baseline(self, capsys):
        argv = ["exp", "run", "fig11", "--smoke", "--no-cache", "--jobs", "1"]
        assert main(argv + ["--set", "schemes=silo"]) == EXIT_USAGE
        assert "normalized to 'base'" in capsys.readouterr().err

    def test_litmus_unknown_scheme(self, capsys):
        assert main(["litmus", "--scheme", "nosuch", "--no-cache"]) == EXIT_USAGE
        assert "unknown scheme 'nosuch'" in capsys.readouterr().err

    def test_litmus_scheme_typo_suggests(self, capsys):
        assert main(["litmus", "--scheme", "aglogg", "--no-cache"]) == EXIT_USAGE
        assert "did you mean 'aglog'" in capsys.readouterr().err

    def test_exp_run_unknown_workload(self, capsys):
        argv = ["exp", "run", "fig4", "--smoke", "--no-cache", "--jobs", "1"]
        assert main(argv + ["--set", "workloads=nosuch"]) == EXIT_USAGE
        assert "unknown workload 'nosuch'" in capsys.readouterr().err

    def test_exp_run_workload_typo_suggests(self, capsys):
        argv = ["fig4", "--smoke", "--no-cache", "--jobs", "1"]
        assert main(argv + ["--set", "workloads=('hash','hahs')"]) == EXIT_USAGE
        assert "did you mean 'hash'" in capsys.readouterr().err

    def test_campaign_config_error_maps_to_usage(self, monkeypatch, capsys):
        def _boom(**kwargs):
            raise ConfigError("bad knob")

        monkeypatch.setattr(cli.crashtest, "run", _boom)
        assert main(["crashtest", "--no-cache"]) == EXIT_USAGE
        assert "bad knob" in capsys.readouterr().err


class TestReplay:
    @pytest.mark.parametrize(
        "spec, message",
        [
            ("{bad", "not valid JSON"),
            ("[]", "must be a JSON object"),
            ('{"scheme": "silo", "cores": 1}', "missing field 'workload'"),
            (
                '{"workload": {"name": "hash", "threads": 1, "transactions": 2},'
                ' "scheme": "silo", "cores": 1, "bogus": 1}',
                "unknown spec field(s) bogus",
            ),
            (
                '{"workload": {"name": "hash", "threads": 1, "transactions": 2,'
                ' "seed": 3}, "scheme": "silo", "cores": 1}',
                "unknown workload field(s) seed",
            ),
            (
                '{"workload": {"name": "hahs", "threads": 1, "transactions": 2},'
                ' "scheme": "silo", "cores": 1}',
                "did you mean 'hash'",
            ),
        ],
    )
    def test_malformed_spec_is_a_one_line_usage_error(self, spec, message, capsys):
        assert main(["replay", "--spec", spec]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_failing_cells_one_liner_parses_and_replays(self, capsys):
        # A crash plan past the end of the trace raises inside the cell.
        spec = CellSpec(
            workload=WorkloadSpec.make("hash", threads=2, transactions=8),
            scheme="silo",
            cores=2,
            crash_plan=CrashPlan(at_op=10**9),
        )
        assert not run_cells([spec], jobs=1)[0].ok
        tokens = shlex.split(repro_command(spec))
        argv = tokens[tokens.index("repro.harness") + 1:]
        args = build_parser().parse_args(argv)
        assert args.command == "replay"
        assert cell_spec_from_json(args.spec) == spec
        assert main(argv) == EXIT_FAILURE
        assert "cell raised" in capsys.readouterr().out


class TestResilienceFlags:
    def test_exp_resume_requires_the_cache(self, capsys):
        assert (
            main(["exp", "run", "table1", "--resume", "--no-cache"])
            == EXIT_USAGE
        )
        assert "--resume needs the result cache" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["crashtest", "bench", "trace"])
    def test_resume_is_only_for_journaled_campaigns(self, command):
        assert exit_code([command, "--resume"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags",
        [
            ["--jobs", "0"],
            ["--jobs", "-3"],
            ["--batch", "0"],
            ["--retries", "-1"],
            ["--retries", "two"],
            ["--cell-timeout", "-5"],
            ["--cell-timeout", "soon"],
            ["--cell-timeout", "inf"],
            ["--cell-timeout", "nan"],
        ],
    )
    @pytest.mark.parametrize("command", [["exp", "run", "table1"], ["table1"]])
    def test_executor_flags_out_of_range(self, command, flags, capsys):
        assert exit_code(command + flags) == EXIT_USAGE
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, parsed", [("auto", "auto"), ("0", None), ("2.5", 2.5)]
    )
    def test_cell_timeout_values(self, text, parsed):
        args = build_parser().parse_args(["crashtest", "--cell-timeout", text])
        assert args.cell_timeout == parsed

    def test_resilience_flags_accepted_on_a_clean_run(self, capsys):
        assert (
            main(
                [
                    "exp", "run", "table1",
                    "--retries", "2",
                    "--cell-timeout", "auto",
                    "--no-cache",
                ]
            )
            == EXIT_OK
        )


class TestFailures:
    def test_exp_run_execution_error(self, monkeypatch, capsys):
        def _boom(spec, **kw):
            raise ExecutionError("cell exploded")

        monkeypatch.setattr(cli, "run_campaign", _boom)
        assert main(["exp", "run", "table1"]) == EXIT_FAILURE
        assert "cell exploded" in capsys.readouterr().err

    def test_campaign_execution_error(self, monkeypatch, capsys):
        def _boom(**kwargs):
            raise ExecutionError("cell exploded")

        monkeypatch.setattr(cli.crashtest, "run", _boom)
        assert main(["crashtest", "--no-cache"]) == EXIT_FAILURE
        assert "[crashtest FAILED]" in capsys.readouterr().err


class _Report:
    passed = True

    def format_report(self):
        return "stub report"


class TestSchemeFlag:
    """``--scheme`` selects the designs of litmus and trace."""

    def _capture(self, monkeypatch, module):
        seen = {}

        def _run(**kwargs):
            seen.update(kwargs)
            return _Report()

        monkeypatch.setattr(module, "run", _run)
        return seen

    def test_litmus_runs_one_design(self, monkeypatch, capsys):
        seen = self._capture(monkeypatch, cli.litmus)
        assert main(["litmus", "--scheme", "quadra1f", "--no-cache"]) == EXIT_OK
        assert seen["schemes"] == ("quadra1f",)

    @pytest.mark.parametrize("argv", [[], ["--scheme", "all"]])
    def test_litmus_defaults_to_every_design(self, monkeypatch, capsys, argv):
        seen = self._capture(monkeypatch, cli.litmus)
        assert main(["litmus", "--no-cache", *argv]) == EXIT_OK
        assert seen["schemes"] == cli.litmus.LITMUS_SCHEMES
        assert len(seen["schemes"]) == 13

    def test_trace_keeps_silo_default(self, monkeypatch, capsys):
        seen = self._capture(monkeypatch, cli.tracecmd)
        assert main(["trace", "--no-cache"]) == EXIT_OK
        assert seen["scheme"] == "silo"


class TestSuccess:
    def test_exp_list_shows_the_full_catalog(self, capsys):
        assert main(["exp", "list"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in CATALOG_MODULES:
            assert name in out

    def test_exp_list_json(self, capsys):
        assert main(["exp", "list", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in payload] == list(CATALOG_MODULES)
        assert all(entry["description"] for entry in payload)

    def test_exp_run_analytic(self, capsys):
        assert main(["exp", "run", "table1"]) == EXIT_OK
        assert "Table I" in capsys.readouterr().out

    def test_exp_run_json_payload(self, capsys):
        assert main(["exp", "run", "table4", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"]["experiment"] == "table4"
        assert payload["tables"][0]["headers"][0] == "system"

    def test_exp_run_set_override(self, capsys):
        assert main(["exp", "run", "table1", "--set", "cores=4"]) == EXIT_OK

    def test_exp_run_bare_scheme_override(self, capsys):
        """``schemes=silo`` is one design, not four one-letter ones."""
        assert (
            main(
                [
                    "exp", "run", "catalog", "--smoke", "--no-cache",
                    "--jobs", "1", "--set", "schemes=silo",
                ]
            )
            == EXIT_OK
        )
        out = capsys.readouterr().out
        assert "workload | silo" in out
        assert "| s " not in out

    def test_exp_run_simulated_smoke(self, capsys):
        assert (
            main(["exp", "run", "fig4", "--smoke", "--no-cache", "--jobs", "1"])
            == EXIT_OK
        )
        assert "Fig. 4" in capsys.readouterr().out


def _doc_checker():
    import importlib.util
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    path = root / "benchmarks" / "check_experiments_doc.py"
    spec = importlib.util.spec_from_file_location("check_experiments_doc", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocumentedCommands:
    """benchmarks/check_experiments_doc.py parses the docs' command
    lines through this parser."""

    def test_every_documented_command_parses(self):
        checked, problems = _doc_checker().check_commands(load_all())
        assert checked > 50
        assert problems == []

    def test_extracts_spans_and_continued_fence_lines(self):
        text = (
            "Run `silo-repro fig4\n--smoke` or `python -m repro.harness.equivalence`.\n"
            "```\n"
            "PYTHONPATH=src python -m repro.harness faultsweep --smoke \\\n"
            "  --jobs 2   # comment\n"
            "```\n"
        )
        assert _doc_checker().command_lines(text) == [
            (1, "silo-repro fig4 --smoke"),
            (4, "PYTHONPATH=src python -m repro.harness faultsweep --smoke "
                "--jobs 2   # comment"),
        ]

    @pytest.mark.parametrize(
        "command",
        [
            "silo-repro fig4 --transactions 5",
            "silo-repro recovery",
            "silo-repro exp run nosuch",
            "python -m repro.harness replay --jobs 1 --spec '{}'",
        ],
    )
    def test_rejected_command_is_reported(self, command):
        assert _doc_checker().check_command(command, load_all())

    @pytest.mark.parametrize(
        "command",
        ["silo-repro litmus --help", "PYTHONPATH=src python -m repro.harness cache"],
    )
    def test_accepted_command_passes(self, command):
        assert _doc_checker().check_command(command, load_all()) == ""
