"""Property: the declarative litmus oracle and the exact PR-3 oracle
never disagree on their overlap (clean crashes, no injected faults).

The two checkers compute the same judgment from opposite directions —
``check_atomic_durability`` rebuilds the one expected image and diffs
words; ``check_litmus`` enumerates the legal per-thread prefix images
and asks which one the recovered state is.  Under word isolation
(which both the pattern decoder and the synthetic-trace generator
guarantee) the verdicts must be identical on every (trace, scheme,
crash point) cell; a divergence is a bug in one of the oracles.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.designs.scheme import SchemeRegistry
from repro.harness.executor import execute_cell
from repro.harness.litmus import LITMUS_SCHEMES, judge_cell, litmus_cell
from repro.litmus.oracle import check_litmus
from repro.litmus.patterns import enumerate_patterns
from repro.sim.crash import CrashPlan
from repro.sim.engine import TransactionEngine
from repro.sim.system import System
from repro.sim.verify import check_atomic_durability
from repro.trace.synthetic import SyntheticTraceConfig, synthetic_trace

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_PATTERNS = enumerate_patterns(smoke=False)


class TestOracleAgreementOnPatterns:
    @_SETTINGS
    @given(
        index=st.integers(0, len(_PATTERNS) - 1),
        scheme=st.sampled_from(LITMUS_SCHEMES),
        fraction=st.floats(0, 1),
    )
    def test_verdicts_agree_at_every_crash_point(
        self, index, scheme, fraction
    ):
        pattern = _PATTERNS[index]
        at_op = min(int(fraction * (pattern.total_ops + 1)), pattern.total_ops)
        outcome = execute_cell(litmus_cell(pattern, scheme, at_op))
        assert outcome.ok, outcome.error
        verdict = judge_cell(outcome)
        assert verdict.ok == (not outcome.mismatches), (
            f"{scheme} @ {pattern.key} at_op={at_op}: litmus says "
            f"{verdict}, exact oracle found {outcome.mismatches}"
        )


class TestOracleAgreementOnSyntheticTraces:
    """The overlap beyond hand-written patterns: random word-isolated
    multi-transaction traces, judged by both oracles after a crash."""

    @_SETTINGS
    @given(
        p=st.fixed_dictionaries(
            {
                "threads": st.integers(1, 2),
                "transactions_per_thread": st.integers(1, 4),
                "write_set_words": st.integers(1, 12),
                "rewrite_fraction": st.floats(0, 1),
                "seed": st.integers(0, 9999),
            }
        ),
        scheme=st.sampled_from(("base", "fwb", "morlog", "silo", "swlog")),
        fraction=st.floats(0, 1),
    )
    def test_verdicts_agree_on_random_traces(self, p, scheme, fraction):
        trace = synthetic_trace(SyntheticTraceConfig(arena_words=32, **p))
        total_ops = sum(
            len(tx.ops) + 2 for th in trace.threads for tx in th.transactions
        )
        at_op = min(int(fraction * (total_ops + 1)), total_ops)
        system = System(SystemConfig.table2(p["threads"]))
        engine = TransactionEngine(
            system,
            SchemeRegistry.create(scheme, system),
            trace,
            crash_plan=CrashPlan(at_op=at_op),
        )
        result = engine.run()
        mismatches = check_atomic_durability(system, trace, result.committed)
        media = system.pm.media
        image = {
            addr: media.read_word(addr) for addr in trace.touched_words()
        }
        verdict = check_litmus(trace, result.committed, image)
        assert verdict.ok == (not mismatches), (
            f"{scheme} seed={p['seed']} at_op={at_op}: litmus says "
            f"{verdict}, exact oracle found {mismatches}"
        )
