"""New catalog entries: designs assembled purely from policy specs.

Each class here is a :class:`~repro.designs.policy.PolicyScheme` whose
entire behaviour — staging, spill, eviction handling, commit fencing,
in-place update, recovery — comes from its :class:`DesignSpec`.  The
catalog grows by declaring a spec, not by writing a scheme body; the
crash-point property suite exercises every (granularity × fence
schedule) combination, so a new spec is durable by construction or it
does not merge.

The fence ladder (1f / 2f / 4f) spans the durabletx design space the
paper positions itself against; the adaptive-granularity entry trades
log write amplification against fence-drain latency per operation.
"""

from __future__ import annotations

from repro.designs.policy import (
    AdaptiveGranularity,
    DesignSpec,
    FOUR_FENCE,
    ONE_FENCE,
    PageGranularity,
    PolicyScheme,
    RecoveryWalk,
    TWO_FENCE,
    WordGranularity,
)
from repro.designs.scheme import SchemeRegistry


@SchemeRegistry.register
class AGLogScheme(PolicyScheme):
    """Adaptive-granularity redo WAL.

    Each flushed cacheline run is logged in whichever format writes
    fewer bytes: a run of three or more words becomes one coarse run
    record (8 B header + 8 B/word), shorter runs stay individual
    16-byte redo entries.  Two fences (logs, then tuple); recovery is
    a data-comparison-write replay, so an interrupted commit whose
    in-place data partially survived is not rewritten word-for-word.
    """

    name = "aglog"
    spec = DesignSpec(
        name="aglog",
        summary="adaptive word/page redo WAL with DCW replay",
        granularity=AdaptiveGranularity(threshold=3),
        fences=TWO_FENCE,
        recovery=RecoveryWalk.dcw(),
        columnar_profile="policy",
    )


@SchemeRegistry.register
class Quadra1FScheme(PolicyScheme):
    """Single-fence word-granular redo WAL.

    The commit tuple is the only fence: the memory controller's
    per-channel FIFO write path already orders the transaction's log
    writes ahead of the tuple on the same channel, so the explicit
    log fence of the classic protocol is redundant — the fence-ladder
    catalog's lowest rung.
    """

    name = "quadra1f"
    spec = DesignSpec(
        name="quadra1f",
        summary="word redo WAL; single fence on the commit tuple",
        granularity=WordGranularity(),
        fences=ONE_FENCE,
        recovery=RecoveryWalk.redo_only(),
        columnar_profile="policy",
    )


@SchemeRegistry.register
class Trinity2FScheme(PolicyScheme):
    """Two-fence page-granular redo WAL.

    Every flushed cacheline run becomes one coarse run record; commit
    fences the logs and then the tuple (the classic redo commit
    rule).  Against ``quadra1f`` it isolates the cost of the log
    fence; against ``aglog`` the cost of never falling back to word
    entries for short runs.
    """

    name = "trinity2f"
    spec = DesignSpec(
        name="trinity2f",
        summary="page-run redo WAL; log fence then tuple fence",
        granularity=PageGranularity(),
        fences=TWO_FENCE,
        recovery=RecoveryWalk.redo_only(),
        columnar_profile="policy",
    )


@SchemeRegistry.register
class RedoLog4FScheme(PolicyScheme):
    """Four-fence word-granular redo WAL — the fence-ladder's top.

    Logs, commit tuple, in-place data and the truncation marker are
    each synchronously fenced, the fully conservative software-style
    protocol.  The catalog's upper bound on commit-path ordering
    cost, with the same log traffic as ``quadra1f``.
    """

    name = "redolog4f"
    spec = DesignSpec(
        name="redolog4f",
        summary="word redo WAL; logs/tuple/data/truncate all fenced",
        granularity=WordGranularity(),
        fences=FOUR_FENCE,
        recovery=RecoveryWalk.redo_only(),
        columnar_profile="policy",
    )
