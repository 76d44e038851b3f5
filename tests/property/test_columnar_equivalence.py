"""Columnar engine equivalence: bit-identity against the exact engine.

The batched columnar engine is only admissible because it produces
*exactly* the results of the cycle-accurate :class:`TransactionEngine`
— not approximately, not statistically.  For randomly generated
transaction mixes, core counts and every registered scheme, both
engines must agree on the end cycle, the committed set, the per-
transaction log counts and the **entire** stats counter mapping,
including runs where a crash plan forces the columnar engine down its
exact-delegation path.
"""

import json
import pathlib
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.core.silo import SiloScheme
from repro.designs.base import BaseScheme
from repro.designs.catalog import Quadra1FScheme
from repro.designs.fwb import FWBScheme
from repro.designs.lad import LADScheme
from repro.designs.morlog import MorLogScheme
from repro.designs.scheme import SchemeRegistry
from repro.designs.swlog import SoftwareLogScheme
from repro.designs.wrap import WrAPScheme
from repro.harness.fingerprints import CRASH_FRACTIONS, WORKLOADS
from repro.sim.columnar import ColumnarEngine
from repro.sim.crash import CrashPlan
from repro.sim.engine import TransactionEngine
from repro.sim.system import System
from repro.trace.synthetic import SyntheticTraceConfig, synthetic_trace
from repro.trace.trace import ThreadTrace, Trace, Transaction
from repro.workloads.registry import build_workload

ALL_SCHEMES = tuple(sorted(SchemeRegistry.names()))

trace_params = st.fixed_dictionaries(
    {
        "threads": st.integers(1, 2),
        "transactions_per_thread": st.integers(1, 5),
        "write_set_words": st.integers(1, 40),
        "rewrite_fraction": st.floats(0, 1),
        "silent_fraction": st.floats(0, 0.6),
        "seed": st.integers(0, 2**16),
    }
)

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run(engine_cls, scheme, params, crash_plan=None):
    trace = synthetic_trace(
        SyntheticTraceConfig(arena_words=128, loads_per_store=0.2, **params)
    )
    system = System(SystemConfig.table2(max(params["threads"], 1)))
    engine = engine_cls(
        system,
        SchemeRegistry.create(scheme, system),
        trace,
        crash_plan=crash_plan,
    )
    return engine, engine.run()


def assert_bit_identical(scheme, params, crash_plan=None):
    _, exact = _run(TransactionEngine, scheme, params, crash_plan)
    columnar_engine, columnar = _run(
        ColumnarEngine, scheme, params, crash_plan
    )
    where = f"{scheme} params={params}"
    assert exact.end_cycle == columnar.end_cycle, (
        f"{where}: end_cycle {exact.end_cycle} != {columnar.end_cycle}"
    )
    assert exact.committed == columnar.committed, f"{where}: committed"
    assert exact.crashed == columnar.crashed, f"{where}: crashed flag"
    assert exact.tx_log_counts == columnar.tx_log_counts, (
        f"{where}: tx_log_counts"
    )
    assert dict(exact.stats.counters) == dict(columnar.stats.counters), (
        f"{where}: stats counters"
    )
    return columnar_engine


class TestColumnarBitIdentity:
    """Randomized traces, every scheme, no failure injection."""

    @_SETTINGS
    @given(params=trace_params, scheme=st.sampled_from(ALL_SCHEMES))
    def test_random_scheme(self, params, scheme):
        assert_bit_identical(scheme, params)

    def test_every_scheme_fixed_workload(self):
        """Deterministic all-nine sweep: sampling above may skip a
        scheme within one hypothesis run; this one never does."""
        params = {
            "threads": 2,
            "transactions_per_thread": 4,
            "write_set_words": 12,
            "rewrite_fraction": 0.4,
            "silent_fraction": 0.2,
            "seed": 7,
        }
        for scheme in ALL_SCHEMES:
            assert_bit_identical(scheme, params)

    def test_fast_path_actually_engaged(self):
        """The equivalence above must not be vacuous: on a plain
        multi-transaction workload the WAL kernel (base) runs fused."""
        params = {
            "threads": 1,
            "transactions_per_thread": 6,
            "write_set_words": 8,
            "rewrite_fraction": 0.25,
            "silent_fraction": 0.0,
            "seed": 3,
        }
        engine = assert_bit_identical("base", params)
        stats = engine.engine_stats()
        assert not stats["delegated"]
        assert stats["fast_fraction"] > 0.5, stats


#: A word-aligned address just past the 48-bit log-entry field: the
#: fused kernels cannot prove such a store identical (log entries
#: truncate the address), so it must fall back per-op.  Silo completes
#: it exactly when the store is *silent* (old == new: the generator
#: ignores it before building a log entry), which makes it the one
#: kind-5 store a run survives — and thus the perfect probe for the
#: mid-epoch fallback path.
_BIG_ADDR = 1 << 48
_BIG_VAL = 0xD00D


def _addr48_trace(lead, trail, txs, seed):
    """Two threads of random-store transactions; thread 0's first
    transaction hides one silent out-of-range store mid-stream."""
    rng = random.Random(seed)
    arena = [8 * i for i in range(64)]
    threads = []
    for tid in range(2):
        transactions = []
        for t in range(txs):
            tx = Transaction()
            for _ in range(lead):
                tx.store(rng.choice(arena), rng.randrange(1, 1 << 32))
            if tid == 0 and t == 0:
                tx.store(_BIG_ADDR, _BIG_VAL)
            for _ in range(trail):
                tx.store(rng.choice(arena), rng.randrange(1, 1 << 32))
            transactions.append(tx)
        threads.append(ThreadTrace(tid, transactions))
    return Trace(threads, initial_image={_BIG_ADDR: _BIG_VAL}, name="addr48")


class TestColumnarPerOpFallback:
    """Mid-epoch per-op fallback in the buffered stepper: one op the
    fast path cannot prove identical is handed to the exact engine,
    then fused stepping resumes on the very next op."""

    @_SETTINGS
    @given(
        lead=st.integers(1, 8),
        trail=st.integers(1, 8),
        txs=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_mid_epoch_fallback_bit_identical(self, lead, trail, txs, seed):
        trace = _addr48_trace(lead, trail, txs, seed)

        def run(engine_cls):
            system = System(SystemConfig.table2(2))
            engine = engine_cls(
                system, SchemeRegistry.create("silo", system), trace
            )
            return engine, engine.run()

        _, exact = run(TransactionEngine)
        engine, columnar = run(ColumnarEngine)
        assert exact.end_cycle == columnar.end_cycle
        assert exact.committed == columnar.committed
        assert exact.tx_log_counts == columnar.tx_log_counts
        assert dict(exact.stats.counters) == dict(columnar.stats.counters)

        stats = engine.engine_stats()
        assert not stats["delegated"]
        # Both cores run the fused silo kernel; exactly the one
        # out-of-range store fell back, correctly attributed.
        assert stats["fused_cores"] == stats["total_cores"] == 2
        assert stats["exact_ops"] == 1
        assert stats["fast_ops"] > 0
        assert 0.0 < stats["fast_fraction"] < 1.0
        assert stats["fallback_reasons"] == {"op:addr48": 1}


class TestColumnarCrashDelegation:
    """A crash plan forces whole-run delegation to the exact engine;
    the results must still be bit-identical (shared code path)."""

    @_SETTINGS
    @given(
        params=trace_params,
        scheme=st.sampled_from(ALL_SCHEMES),
        crash=st.floats(0, 1),
    )
    def test_crashed_runs_agree(self, params, scheme, crash):
        trace = synthetic_trace(
            SyntheticTraceConfig(
                arena_words=128, loads_per_store=0.2, **params
            )
        )
        total_ops = sum(
            len(tx.ops) + 2
            for thread in trace.threads
            for tx in thread.transactions
        )
        at_op = min(int(crash * total_ops), total_ops - 1)
        engine = assert_bit_identical(
            scheme, params, crash_plan=CrashPlan(at_op=at_op)
        )
        assert engine.delegated
        assert engine.delegated_reason == "crash_plan"


# ----------------------------------------------------------------------
# The fused policy kernel (aglog, quadra1f, trinity2f, redolog4f)
# ----------------------------------------------------------------------
POLICY_DESIGNS = ("aglog", "quadra1f", "trinity2f", "redolog4f")

_FINGERPRINTS = (
    pathlib.Path(__file__).resolve().parent.parent
    / "data"
    / "golden"
    / "design_fingerprints.json"
)


class _HookOverride(Quadra1FScheme):
    """Own policy-profile spec, but an overridden lifecycle hook: its
    hot-path behaviour is unknown to the fused kernel."""

    name = "quadra1f-override"
    spec = replace(Quadra1FScheme.spec, name="quadra1f-override")

    def on_store(self, core, tid, txid, addr, old, new, now, access):
        return super().on_store(core, tid, txid, addr, old, new, now, access)


class _InheritedSpec(Quadra1FScheme):
    """The profile must be declared on the class's own spec."""

    name = "quadra1f-inherited"


class _UnprofiledSpec(Quadra1FScheme):
    name = "quadra1f-unprofiled"
    spec = replace(
        Quadra1FScheme.spec, name="quadra1f-unprofiled", columnar_profile=None
    )


def _run_policy(engine_cls, scheme_cls, trace):
    system = System(SystemConfig.table2(2))
    engine = engine_cls(system, scheme_cls(system), trace)
    return engine, engine.run()


class TestPolicyKernel:
    """The spec-driven designs run fully fused and reproduce the
    exact engine's golden fingerprints bit-for-bit."""

    @pytest.mark.parametrize("design", POLICY_DESIGNS)
    def test_clean_fingerprints_fully_fused(self, design):
        expected = json.loads(_FINGERPRINTS.read_text())["designs"][design]
        clean = [name for name, fraction in CRASH_FRACTIONS if fraction < 0]
        for workload, params in WORKLOADS:
            for crash_name in clean:
                cell = f"{workload}.{crash_name}"
                trace = synthetic_trace(SyntheticTraceConfig(**params))
                system = System(
                    SystemConfig.table2(max(int(params["threads"]), 1))
                )
                engine = ColumnarEngine(
                    system, SchemeRegistry.create(design, system), trace
                )
                result = engine.run()
                exp = expected[cell]
                assert result.end_cycle == exp["end_cycle"], cell
                assert sorted(map(list, result.committed)) == exp["committed"]
                assert dict(sorted(result.stats.as_dict().items())) == (
                    exp["stats"]
                ), cell
                stats = engine.engine_stats()
                assert stats["fast_fraction"] == 1.0, (cell, stats)
                assert stats["fallback_reasons"] == {}

    @pytest.mark.parametrize(
        "scheme_cls", [_HookOverride, _InheritedSpec, _UnprofiledSpec]
    )
    def test_unfusable_subclass_falls_back(self, scheme_cls):
        trace = synthetic_trace(
            SyntheticTraceConfig(
                threads=2,
                transactions_per_thread=4,
                write_set_words=12,
                rewrite_fraction=0.3,
                silent_fraction=0.1,
                arena_words=128,
                loads_per_store=0.2,
                seed=11,
            )
        )
        _, exact = _run_policy(TransactionEngine, scheme_cls, trace)
        engine, columnar = _run_policy(ColumnarEngine, scheme_cls, trace)
        assert exact.end_cycle == columnar.end_cycle
        assert dict(exact.stats.counters) == dict(columnar.stats.counters)
        stats = engine.engine_stats()
        assert stats["fast_fraction"] == 0.0
        assert set(stats["fallback_reasons"]) == {
            f"core:unfused_design:{scheme_cls.name}"
        }

    @pytest.mark.parametrize("design", POLICY_DESIGNS)
    def test_addr48_probe_falls_back_per_op(self, design):
        """A store beyond the 48-bit field reaches the exact engine
        mid-epoch, which raises from ``LogEntry`` validation exactly as
        an all-exact run does; the hand-back is attributed ``op:addr48``."""
        trace = _addr48_trace(3, 3, 2, seed=21)
        errors = []
        for engine_cls in (TransactionEngine, ColumnarEngine):
            system = System(SystemConfig.table2(2))
            engine = engine_cls(
                system, SchemeRegistry.create(design, system), trace
            )
            with pytest.raises(ValueError) as err:
                engine.run()
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert engine.fallback_reasons == {"op:addr48": 1}


#: The scheme classes behind the seven fused legacy profiles.
LEGACY_KERNEL_CLASSES = (
    BaseScheme,
    FWBScheme,
    SiloScheme,
    MorLogScheme,
    LADScheme,
    SoftwareLogScheme,
    WrAPScheme,
)


def _slower(parent, hook):
    """A subclass of ``parent`` with its own spec whose ``hook`` costs
    10,000 more cycles (enough to outlast the end-of-run drain): the
    fused kernel cannot know about the change."""
    name = f"{parent.name}-slow-{hook}"
    inherited = getattr(parent, hook)

    def slow(self, *args):
        return inherited(self, *args) + 10_000

    return type(
        f"Slow{parent.__name__}",
        (parent,),
        {"name": name, "spec": replace(parent.spec, name=name), hook: slow},
    )


def _inherited_spec(parent):
    return type(
        f"Inherited{parent.__name__}", (parent,), {"name": parent.name + "-inh"}
    )


def _both_engines(make_scheme, trace, cores=2, prepare=None, config=None):
    """Run ``trace`` on both engines; returns ``(exact, columnar,
    engine_stats)`` after asserting bit-identity."""
    results = []
    for engine_cls in (TransactionEngine, ColumnarEngine):
        system = System(config or SystemConfig.table2(cores))
        if prepare is not None:
            prepare(system)
        engine = engine_cls(system, make_scheme(system), trace)
        results.append((engine, engine.run()))
    (_, exact), (engine, columnar) = results
    assert exact.end_cycle == columnar.end_cycle
    assert exact.committed == columnar.committed
    assert exact.tx_log_counts == columnar.tx_log_counts
    assert dict(exact.stats.counters) == dict(columnar.stats.counters)
    return exact, columnar, engine.engine_stats()


class TestCoreFallbackTags:
    """Every ``core:<why>`` tag a whole core can fall back under is
    pinned: the tag is part of ``engine_stats()``, and the fallen-back
    run must still be bit-identical to the exact engine."""

    @pytest.mark.parametrize("hook", ["on_store", "on_tx_end"])
    @pytest.mark.parametrize(
        "parent", LEGACY_KERNEL_CLASSES, ids=lambda c: c.name
    )
    def test_hook_override_falls_back(self, parent, hook):
        """A subclass with its own spec keeps its parent's columnar
        profile, but overrides a hook the parent's kernel inlines: it
        must run on the exact engine, attributed to the design."""
        scheme_cls = _slower(parent, hook)
        trace = build_workload("hash", threads=2, transactions=6)
        exact, _, stats = _both_engines(scheme_cls, trace)
        system = System(SystemConfig.table2(2))
        plain = TransactionEngine(system, parent(system), trace).run()
        assert exact.end_cycle > plain.end_cycle  # the override counts
        assert stats["fast_fraction"] == 0.0
        assert set(stats["fallback_reasons"]) == {
            f"core:unfused_design:{scheme_cls.name}"
        }

    @pytest.mark.parametrize(
        "parent", LEGACY_KERNEL_CLASSES, ids=lambda c: c.name
    )
    def test_inherited_spec_falls_back(self, parent):
        scheme_cls = _inherited_spec(parent)
        trace = build_workload("hash", threads=2, transactions=6)
        _, _, stats = _both_engines(scheme_cls, trace)
        assert stats["fast_fraction"] == 0.0
        assert set(stats["fallback_reasons"]) == {
            f"core:unfused_scheme:{scheme_cls.__name__}"
        }

    def test_silo_ablation(self):
        trace = build_workload("hash", threads=2, transactions=6)
        _, _, stats = _both_engines(
            lambda system: SiloScheme(system, merging=False), trace
        )
        assert stats["fast_fraction"] == 0.0
        assert set(stats["fallback_reasons"]) == {"core:silo_ablation"}

    def test_log_cursor_in_use(self):
        """Base's static log layout needs a virgin log area: a thread
        whose cursor has already moved runs on the exact engine; the
        other core stays fused."""

        def used_log(system):
            system.region.persist_commit_tuple(0, 1)

        trace = build_workload("hash", threads=2, transactions=6)
        _, _, stats = _both_engines(
            lambda system: BaseScheme(system), trace, prepare=used_log
        )
        assert stats["fused_cores"] == 1
        assert 0.0 < stats["fast_fraction"] < 1.0
        assert set(stats["fallback_reasons"]) == {"core:log_cursor_in_use"}

    @pytest.mark.parametrize(
        "design, tag",
        [
            ("redu", "core:unfused_scheme:ReDUScheme"),
            ("proteus", "core:unfused_scheme:ProteusScheme"),
        ],
    )
    def test_unfused_designs(self, design, tag):
        trace = build_workload("hash", threads=2, transactions=6)
        _, _, stats = _both_engines(
            lambda system: SchemeRegistry.create(design, system), trace
        )
        assert stats["fast_fraction"] == 0.0
        assert set(stats["fallback_reasons"]) == {tag}


class TestWalKernel:
    @pytest.mark.parametrize("design", ["base", "fwb"])
    def test_fuses_addr48_stores(self, design):
        """The WAL kernel's log layout is static for stores beyond the
        48-bit field too, so it fuses them (every other kernel hands
        them back): a trace placed wholly above the log area runs at
        fast_fraction 1.0, bit-identical."""
        rng = random.Random(3)
        threads = []
        for tid in range(2):
            transactions = []
            for t in range(3):
                tx = Transaction()
                for _ in range(4):
                    tx.store(
                        0x4_0000_0000 + 8 * rng.randrange(64),
                        rng.randrange(1, 1 << 32),
                    )
                if t == 1:
                    tx.store(_BIG_ADDR + 8 * tid, 0x1234)
                    tx.store(_BIG_ADDR + 8 * tid, 0x5678)
                transactions.append(tx)
            threads.append(ThreadTrace(tid, transactions))
        trace = Trace(threads, initial_image={}, name="wal-addr48")
        _, _, stats = _both_engines(
            lambda system: SchemeRegistry.create(design, system), trace
        )
        assert stats["fast_fraction"] == 1.0
        assert stats["fallback_reasons"] == {}


@pytest.mark.parametrize("line_size", [32, 128])
@pytest.mark.parametrize("design", ALL_SCHEMES)
def test_non_default_line_size(design, line_size):
    """Cache lines other than 64 bytes: silo's log-buffer overflow
    posts its new data per 64-byte line while commit groups by the L1
    line, and the fused kernel must keep that split."""
    config = SystemConfig.table2(2)
    config = replace(
        config,
        l1=replace(config.l1, line_size=line_size),
        l2=replace(config.l2, line_size=line_size),
        l3=replace(config.l3, line_size=line_size),
    )
    trace = synthetic_trace(
        SyntheticTraceConfig(
            threads=2,
            transactions_per_thread=6,
            write_set_words=60,
            rewrite_fraction=0.1,
            silent_fraction=0.0,
            arena_words=4096,
            seed=4,
        )
    )
    _both_engines(
        lambda system: SchemeRegistry.create(design, system),
        trace,
        config=config,
    )
