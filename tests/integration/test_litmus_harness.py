"""Tests for the exhaustive litmus campaign harness."""

import json

from repro.harness import litmus, replay
from repro.harness.executor import (
    Executor,
    cell_spec_from_json,
    cell_spec_to_json,
    execute_cell,
)
from repro.litmus.oracle import LitmusVerdict
from repro.litmus.patterns import decode_pattern


class TestLitmusCampaign:
    def test_smoke_subset_passes_for_all_designs(self, tmp_path):
        out = tmp_path / "litmus.json"
        result = litmus.run(smoke=True, max_patterns=3, output=str(out))
        assert result.passed
        assert result.patterns == 3
        assert result.cells == sum(
            len(litmus.LITMUS_SCHEMES) * c
            for c in (5, 6, 7)  # total_ops + 1 of the first three chains
        )
        assert not result.disagreements
        for scheme, (cells, violations) in result.per_scheme.items():
            assert violations == 0, scheme
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["cells"] == result.cells
        assert payload["minimized_specs"] == []

    def test_parallel_matches_serial(self):
        kwargs = dict(smoke=True, max_patterns=2, schemes=("base", "silo"))
        serial = litmus.run(**kwargs)
        parallel = litmus.run(executor=Executor(jobs=2), **kwargs)
        assert serial.cells == parallel.cells
        assert serial.per_scheme == parallel.per_scheme
        assert serial.violations == parallel.violations

    def test_every_crash_point_enumerated_inclusive(self):
        result = litmus.run(smoke=True, max_patterns=1, schemes=("silo",))
        pattern = decode_pattern("chain/s8.s9")
        # at_op 0 .. total_ops inclusive: both boundaries are cells.
        assert result.cells == pattern.total_ops + 1

    def test_litmus_cell_spec_replays(self):
        pattern = decode_pattern("multitx/s8;s9")
        spec = litmus.litmus_cell(pattern, "silo", 3)
        text = cell_spec_to_json(spec)
        assert cell_spec_from_json(text) == spec
        replayed = replay.run(text)
        assert replayed.passed
        assert "verdict: PASS" in replayed.format_report()


class TestShrinkingPipeline:
    def test_injected_bug_is_found_minimized_and_replayable(self, monkeypatch):
        """Wire a fake bug through the whole campaign: a verdict that
        condemns any cell whose pattern stores slot 9, at every crash
        point.  The campaign must report the violations, shrink the
        first to the single-op pattern, and emit a replayable spec."""
        real_judge = litmus.judge_cell

        def fake_judge(outcome):
            pattern = decode_pattern(dict(outcome.spec.workload.kwargs)["pattern"])
            if any(
                op == ("s", 9)
                for thread in pattern.body
                for tx in thread
                for op in tx
            ):
                return LitmusVerdict("atomicity", "injected for testing")
            return real_judge(outcome)

        monkeypatch.setattr(litmus, "judge_cell", fake_judge)
        result = litmus.run(
            smoke=True, max_patterns=1, schemes=("silo",), output=None
        )
        assert not result.passed
        assert result.violations
        assert all(v["kind"] == "atomicity" for v in result.violations)
        # chain/s8.s9 shrinks to the lone slot-9 store at crash point 0.
        assert len(result.minimized) == 1
        record = result.minimized[0]
        assert record["pattern"] == "chain/s9"
        assert record["at_op"] == 0
        assert "replay" in record["replay"] and "--spec" in record["replay"]
        spec = cell_spec_from_json(record["spec"])
        assert spec.workload.name == "litmus"
        # The minimized spec replays cleanly under the *real* oracle
        # (the bug was injected), proving the emitted one-liner runs.
        assert replay.run(record["spec"]).passed

    def test_report_mentions_minimized_cells(self, monkeypatch):
        monkeypatch.setattr(
            litmus,
            "judge_cell",
            lambda outcome: LitmusVerdict("durability", "injected"),
        )
        result = litmus.run(
            smoke=True, max_patterns=1, schemes=("base",), shrink=True
        )
        report = result.format_report()
        assert "FAIL" in report
        assert "minimized cells" in report
        assert "replay:" in report

    def test_shrink_false_skips_minimization(self, monkeypatch):
        monkeypatch.setattr(
            litmus,
            "judge_cell",
            lambda outcome: LitmusVerdict("durability", "injected"),
        )
        result = litmus.run(
            smoke=True, max_patterns=1, schemes=("base",), shrink=False
        )
        assert not result.passed
        assert result.violations
        assert result.minimized == []


class TestOracleCrossCheck:
    def test_judge_checks_the_executed_trace(self, monkeypatch):
        """The oracle judges the very trace object the cell ran (the
        per-process memo's), not a fresh lowering of the pattern."""
        seen = []
        real_check = litmus.check_litmus

        def spy(trace, committed, image):
            seen.append(trace)
            return real_check(trace, committed, image)

        monkeypatch.setattr(litmus, "check_litmus", spy)
        spec = litmus.litmus_cell(decode_pattern("multitx/s8;s9"), "silo", 2)
        outcome = execute_cell(spec)
        assert litmus.judge_cell(outcome).ok
        assert len(seen) == 1 and seen[0] is spec.workload.build()

    def test_disagreement_fails_the_campaign(self, monkeypatch):
        """A declarative verdict of 'ok' on a cell the exact oracle
        condemns (or vice versa) is a checker bug and must fail the
        run even with zero violations."""
        monkeypatch.setattr(
            litmus,
            "check_litmus",
            lambda trace, committed, image: LitmusVerdict(
                "durability", "injected disagreement"
            ),
        )
        result = litmus.run(
            smoke=True, max_patterns=1, schemes=("silo",), shrink=False
        )
        assert result.disagreements
        assert not result.passed


class TestCLIIntegration:
    def test_cli_litmus_smoke(self, capsys, tmp_path):
        from repro.harness.cli import main

        out = tmp_path / "LITMUS.json"
        assert (
            main(
                [
                    "litmus",
                    "--smoke",
                    "--jobs",
                    "1",
                    "--no-cache",
                    "--litmus-output",
                    str(out),
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        assert "Persistency-model litmus sweep" in stdout
        assert "FAIL" not in stdout
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["cells"] >= 500
