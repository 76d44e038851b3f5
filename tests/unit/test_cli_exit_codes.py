"""CLI contract tests: the dispatch table, ``--version``, and the
uniform exit codes (0 ok, 1 experiment failure, 2 usage/config error)
across the legacy and ``exp`` subcommands."""

from __future__ import annotations

import json

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
    _EXPERIMENTS,
    main,
)
from repro.harness.experiments import CATALOG_MODULES, load_all


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


class TestDispatchTable:
    def test_exit_code_constants(self):
        assert (EXIT_OK, EXIT_FAILURE, EXIT_USAGE) == (0, 1, 2)
        # Partial renders distinguish themselves from both clean runs
        # and hard failures; 130 is the shell's 128+SIGINT convention.
        assert EXIT_PARTIAL == 3
        assert EXIT_INTERRUPTED == 130

    def test_every_legacy_entry_is_callable(self):
        assert _EXPERIMENTS
        for name, runner in _EXPERIMENTS.items():
            assert callable(runner), name

    def test_every_registered_experiment_has_a_legacy_route(self):
        # The flat parser kept its historical names; ``recovery`` is the
        # legacy alias of the registered ``recovery_cost``.
        aliases = {"recovery_cost": "recovery"}
        registry = load_all()
        for name in registry.names():
            assert aliases.get(name, name) in _EXPERIMENTS, name

    def test_registry_covers_the_full_catalog(self):
        registry = load_all()
        assert registry.names()[: len(CATALOG_MODULES)] == list(CATALOG_MODULES)


class TestUsageErrors:
    def test_unknown_legacy_experiment(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["nope"])
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig4", "--transactions", "0"],
            ["fig11", "--cores", "1", "0"],
            ["crashtest", "--crash-points", "-1"],
            ["bench", "--repeats", "0"],
            ["fig4", "--transactions", "ten"],
        ],
    )
    def test_non_positive_counts_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE

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

    def test_legacy_config_error_maps_to_usage(self, monkeypatch, capsys):
        def _boom(args, ex):
            raise ConfigError("bad knob")

        monkeypatch.setitem(_EXPERIMENTS, "table1", _boom)
        assert main(["table1"]) == EXIT_USAGE
        assert "bad knob" in capsys.readouterr().err


class TestResilienceFlags:
    def test_exp_resume_requires_the_cache(self, capsys):
        assert (
            main(["exp", "run", "table1", "--resume", "--no-cache"])
            == EXIT_USAGE
        )
        assert "--resume needs the result cache" in capsys.readouterr().err

    def test_legacy_resume_is_faultsweep_only(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig13", "--resume"])
        assert excinfo.value.code == EXIT_USAGE

    def test_exp_bad_cell_timeout(self, capsys):
        assert (
            main(["exp", "run", "table1", "--cell-timeout", "soon"])
            == EXIT_USAGE
        )
        assert "--cell-timeout" in capsys.readouterr().err

    def test_legacy_bad_cell_timeout(self, capsys):
        assert main(["table1", "--cell-timeout", "soon"]) == EXIT_USAGE

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

    def test_legacy_execution_error(self, monkeypatch, capsys):
        def _boom(args, ex):
            raise ExecutionError("cell exploded")

        monkeypatch.setitem(_EXPERIMENTS, "table1", _boom)
        assert main(["table1"]) == EXIT_FAILURE


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
