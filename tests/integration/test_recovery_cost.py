"""Tests for the recovery-cost experiment and the timing model."""

import pytest

from repro.core.recovery import RecoveryReport
from repro.harness import recovery_cost
from repro.harness.experiments import run_experiment


class TestRecoveryReportModel:
    def test_estimated_ns_combines_scan_and_apply(self):
        report = RecoveryReport(replayed=2, revoked=1, scanned=10)
        assert report.estimated_ns == pytest.approx(10 * 50 + 3 * 150)

    def test_empty_recovery_is_free(self):
        assert RecoveryReport().estimated_ns == 0

    def test_merge_accumulates_scanned(self):
        a = RecoveryReport(scanned=3)
        a.merge(RecoveryReport(scanned=4, replayed=1))
        assert a.scanned == 7
        assert a.replayed == 1


class TestRecoveryCostExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            recovery_cost.SPEC, workload="hash", threads=2, transactions=40
        )

    def test_every_design_recovers_consistently(self, result):
        assert all(row.consistent for row in result.rows)

    def test_silo_scans_orders_of_magnitude_less_than_fwb(self, result):
        silo = result.row("silo")
        fwb = result.row("fwb")
        assert fwb.scanned > 20 * max(silo.scanned, 1)
        assert silo.estimated_us < fwb.estimated_us

    def test_lad_scans_nothing_without_fallbacks(self, result):
        assert result.row("lad").scanned == 0

    def test_base_truncates_aggressively(self, result):
        """Base truncates per commit: it scans only the open
        transactions' logs."""
        assert result.row("base").scanned < 30

    def test_report_renders(self, result):
        text = result.format_report()
        assert "Recovery cost" in text
        assert "consistent" in text

    def test_unknown_scheme_row_raises(self, result):
        with pytest.raises(KeyError):
            result.row("nope")


class TestLogTruncation:
    def test_fwb_truncates_at_finalize(self):
        from repro.common.config import SystemConfig
        from repro.sim.engine import run_trace
        from repro.sim.system import System
        from repro.designs.scheme import SchemeRegistry
        from repro.sim.engine import TransactionEngine
        from repro.workloads import build_workload

        trace = build_workload("hash", threads=1, transactions=20)
        system = System(SystemConfig.table2(1))
        engine = TransactionEngine(
            system, SchemeRegistry.create("fwb", system), trace
        )
        engine.run()
        # After finalize, every committed transaction's logs are gone.
        assert system.region.total_persisted() == 0

    def test_morlog_truncates_at_finalize(self):
        from repro.common.config import SystemConfig
        from repro.designs.scheme import SchemeRegistry
        from repro.sim.engine import TransactionEngine
        from repro.sim.system import System
        from repro.workloads import build_workload

        trace = build_workload("hash", threads=1, transactions=20)
        system = System(SystemConfig.table2(1))
        engine = TransactionEngine(
            system, SchemeRegistry.create("morlog", system), trace
        )
        engine.run()
        assert system.region.total_persisted() == 0
