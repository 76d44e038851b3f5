"""The batched columnar epoch engine (bit-identical fast path).

:class:`ColumnarEngine` runs the same trace/scheme/system as
:class:`~repro.sim.engine.TransactionEngine` but replaces the
one-op-per-heap-pop scheduler with *epoch batching*: it decodes each
core's op stream into flat columns (op kind / address / value) once,
then advances a whole run of one core's operations in a single fused
kernel call, yielding only when the core's clock crosses the next
core's scheduled time.

Epoch rule.  The exact engine's schedule is a min-heap of
``(core_time, core_index)`` with ties toward the lowest index.  After
core ``i`` executes one op at time ``t`` and advances to ``now``, the
exact engine re-runs core ``i`` next if and only if

    ``now < limit_t  or  (now == limit_t and i < limit_i)``

where ``(limit_t, limit_i)`` is the heap minimum among the *other*
cores — which cannot change while core ``i`` runs, because only the
running core's clock moves.  The columnar engine therefore executes
core ``i``'s ops back-to-back while that predicate holds and pushes
the core back into the heap when it fails.  The resulting global op
order is *identical* to the exact engine's, so every timestamped
side effect (WPQ admission, bank scheduling, on-PM buffer LRU, cache
evictions, scheme state) is reproduced bit-for-bit.

Fused kernels.  Per core, a scheme-specialized stepper executes the
Store/Load/TxBegin/TxEnd hot paths with the per-op call tree of the
exact engine flattened into straight-line code over hoisted locals:
the L1-hit probe, the MC write path (WPQ prune/admit, channel bus,
bank heap), the on-PM buffer fast paths and the media's
data-comparison-write run inline against the *live* simulator state.
Cacheline eviction storms (dirty L3 victims surfacing mid-epoch) run
through a fused eviction kernel instead of the exact ``on_evictions``
hook, and the morlog/fwb end-of-run ``finalize`` data flushes run
through :func:`_fused_finalize` before ``TransactionEngine._finish``
(leaving the schemes' own finalize a natural no-op over
already-cleared state).  All of them submit through one shared factory
of fused MC+PM helpers, :func:`_make_submit_kernel`.
Counter increments are accumulated in closure integers and flushed
once at the end of the run; every flush is value-guarded so the final
counter key set matches the exact engine's exactly (a
``collections.Counter`` creates a key even for ``+= 0``).

Exact-engine fallback.  Three levels:

* **Run delegation** — a crash plan, fault plan, enabled observability
  layer or poisoned media delegates the entire run to the wrapped
  exact engine (``delegated_reason`` records why).  Crash/fault
  windows and observability hooks are timing-sensitive rare paths
  that batching must not touch.
* **Core fallback** — a core whose scheme is not one of the eleven
  fused designs (base, fwb, silo, morlog, lad, swlog, wrap, and the
  spec-driven aglog, quadra1f, trinity2f, redolog4f), whose silo
  ablation flags are non-default, or whose thread id has no valid log
  area runs entirely through ``TransactionEngine._step`` (same global
  order, same results, no speedup).  ``unfused_design:<name>`` is left
  for a new policy spec without the ``policy`` columnar profile, or a
  :class:`PolicyScheme` subclass that overrides a lifecycle hook.
* **Op fallback** — a fused stepper returns the op to
  ``TransactionEngine._step`` unconsumed when it cannot prove the
  fast path identical (op outside a transaction, address outside the
  48-bit log-entry field, a write-through request whose on-PM buffer
  line is already resident and must coalesce, unknown op kinds).
  Paths where the exact engine would raise are also routed here so
  the exception (and its message) comes from the exact code.

Every fallback is tallied under a reason tag — ``core:<why>`` when a
whole core runs generic (the stepper factories return the reason
string instead of a kernel), ``op:<why>`` keyed off the op kind for
mid-epoch per-op fallbacks — exposed as ``fallback_reasons`` in
:meth:`ColumnarEngine.engine_stats` so kernel-coverage regressions
are visible in benchmarks and CI.

Determinism argument.  The fused kernels mutate the same objects the
exact engine would (media image, on-PM buffer, WPQ/bank heaps, cache
hierarchy, region cursors/sequence, scheme state) in the same global
op order with the same arithmetic; accumulated counters commute with
live increments because counter addition is associative.  The only
state intentionally skipped is the region's structured recovery
*records* for fused designs — they are observable only through crash
and recovery paths, which always delegate to the exact engine — with
the thread's (empty) record bucket recreated at flush time to match
the exact engine's post-truncation end state.
"""

from __future__ import annotations

import gc
from heapq import heapify, heappop, heappush, heapreplace
from itertools import islice
from typing import Optional
from weakref import WeakKeyDictionary

from repro.common.constants import ONPM_LINE_SIZE, OVERFLOW_BATCH_ENTRIES, WORD_MASK
from repro.common.errors import AddressError
from repro.core.silo import _CONTROLLER_QUEUE_CYCLES
from repro.designs.fwb import FWB_INTERVAL_CYCLES, FWBScheme
from repro.designs.lad import CAPTURE_LINES, PREPARE_CYCLES_PER_LINE
from repro.designs.morlog import MORPH_BUFFER_ENTRIES, MorLogScheme
from repro.designs.policy import SPILL_BATCH, STAGING_ENTRIES, PolicyScheme
from repro.designs.swlog import FENCE_CYCLES, LOG_BUILD_CYCLES
from repro.hwlog.entry import LogEntry
from repro.sim.engine import TransactionEngine
from repro.trace.ops import Load, Store, TxBegin, TxEnd

#: Payload-mix constants of :meth:`LogRegion.persist_word_log`.
_K1 = 0x9E3779B97F4A7C15
_K2 = 0xC2B2AE3D27D4EB4F
#: Largest address fitting the log entry's 48-bit field.
_A48 = (1 << 48) - 1
_M = WORD_MASK

# Stepper statuses.
_DONE = 0  #: the core has no ops left
_YIELD = 1  #: the core's clock crossed the epoch horizon
_EXACT = 2  #: current op NOT consumed; run it through the exact engine

_INF = float("inf")


# Static op kinds.  The trace analysis folds the transaction state
# machine and the old-value analysis into the kind column:
#   0 TxBegin             5 Store, address outside the 48-bit field
#   1 TxEnd               6 nested TxBegin (in_tx already set)
#   2 Store, static old   7 unmatched TxEnd (in_tx clear)
#   3 Load                8 exact-engine op (store outside tx /
#   4 Store, dynamic old     unknown op kind; the exact engine raises)

#: Fallback-reason tag per op kind, for ops a fused stepper hands back
#: to the exact engine mid-epoch (indexed by the kind column above).
_OP_REASON = (
    "op:tx_state",  # 0 TxBegin (silo regeneration guard)
    "op:tx_state",  # 1 TxEnd (silo commit without an open tx)
    "op:conflict",  # 2 store merging onto another tx's buffered entry
    "op:load",      # 3 loads are never handed back (placeholder)
    "op:conflict",  # 4 as kind 2, dynamic old value
    "op:addr48",    # 5 address outside the 48-bit log-entry field
    "op:tx_state",  # 6 nested TxBegin
    "op:tx_state",  # 7 unmatched TxEnd
    "op:illegal",   # 8 the exact engine raises
)


class _CorePre:
    """Per-core static columns."""

    __slots__ = ("kinds", "addrs", "vals", "olds", "log")

    def __init__(self, kinds, addrs, vals, olds):
        self.kinds = kinds
        self.addrs = addrs
        self.vals = vals
        self.olds = olds
        #: Lazily attached WAL layout: ``(lbase, larea, _LogPre|None)``
        #: — keyed by the area so a trace reused under a different
        #: memory layout recomputes (None = precondition failed).
        self.log = None


class _LogPre:
    """Static WAL log layout for one core (base/fwb only)."""

    __slots__ = ("la", "pre2", "cur_te", "end_cur", "media", "wear",
                 "n_static", "nz_static")

    def __init__(self, la, pre2, cur_te, end_cur, media, wear, n_static, nz):
        self.la = la  #: log address per store pc
        self.pre2 = pre2  #: payload missing only ``old*K1``, per dynamic pc
        self.cur_te = cur_te  #: cursor before the commit tuple, per TxEnd pc
        self.end_cur = end_cur  #: cursor after the whole trace
        self.media = media  #: {word addr: value} of all static entries
        self.wear = wear  #: {sector: writes} of all static entries
        self.n_static = n_static  #: static entry count (= media line writes)
        self.nz_static = nz  #: changed-word count of static entries


class _TracePre:
    """Whole-trace static analysis (memoized on the trace object)."""

    __slots__ = ("cores", "amin", "amax", "imin", "imax")

    def __init__(self, cores, amin, amax, imin, imax):
        self.cores = cores
        self.amin = amin  #: smallest trace address (stores and loads)
        self.amax = amax
        self.imin = imin  #: smallest initial-image word address
        self.imax = imax


_PRE_MEMO: "WeakKeyDictionary" = WeakKeyDictionary()


def _analyze(trace, cores):
    """Columnarize every core's op stream, fold transaction legality
    into the kind column, and resolve static old values through a
    global single-writer analysis.

    An address is *single-writer* when every store to it across the
    whole trace comes from one core: that core's overwritten values
    are then a pure function of the trace (its own previous store,
    else the initial image) because the exact engine's shadow map and
    media agree with the static chain at every interleaving.  Stores
    to multi-writer or out-of-48-bit-range addresses keep the live
    shadow map (the range limit keeps silo/lad's resumable exact-path
    stores — which the analysis cannot see — off every static chain).
    """
    decoded = []
    writers = {}
    amin = amax = None
    for idx, core in enumerate(cores):
        ops = core.ops
        n = len(ops)
        kinds = bytearray(n)
        addrs = [0] * n
        vals = [0] * n
        for i, op in enumerate(ops):
            t = type(op)
            if t is Store:
                a = op.addr
                kinds[i] = 2
                addrs[i] = a
                vals[i] = op.value
                w = writers.get(a)
                if w is None:
                    writers[a] = idx
                elif w != idx:
                    writers[a] = -2
                if amin is None or a < amin:
                    amin = a
                if amax is None or a > amax:
                    amax = a
            elif t is Load:
                a = op.addr
                kinds[i] = 3
                addrs[i] = a
                if amin is None or a < amin:
                    amin = a
                if amax is None or a > amax:
                    amax = a
            elif t is TxBegin:
                kinds[i] = 0
            elif t is TxEnd:
                kinds[i] = 1
            else:
                kinds[i] = 8
        decoded.append((kinds, addrs, vals))

    image = trace.initial_image
    image_get = image.get
    imin = min(image) if image else None
    imax = max(image) if image else None

    pres = []
    for idx, (kinds, addrs, vals) in enumerate(decoded):
        n = len(kinds)
        olds = [0] * n
        last = {}
        in_tx = False
        for i in range(n):
            k = kinds[i]
            if k == 2:
                a = addrs[i]
                if not in_tx:
                    # The exact engine raises SimulationError before
                    # touching any state; later ops are unreachable.
                    kinds[i] = 8
                    continue
                if 0 <= a <= _A48 and writers[a] == idx:
                    old = last.get(a)
                    if old is None:
                        old = image_get(a, 0)
                    olds[i] = old
                else:
                    kinds[i] = 4 if 0 <= a <= _A48 else 5
                last[a] = vals[i]
            elif k == 0:
                if in_tx:
                    kinds[i] = 6
                in_tx = True
            elif k == 1:
                if not in_tx:
                    kinds[i] = 7
                in_tx = False
        pres.append(_CorePre(bytes(kinds), addrs, vals, olds))
    return _TracePre(pres, amin, amax, imin, imax)


def _trace_pre(trace, cores):
    try:
        pre = _PRE_MEMO.get(trace)
    except TypeError:
        return _analyze(trace, cores)
    if pre is None or len(pre.cores) != len(cores):
        pre = _analyze(trace, cores)
        try:
            _PRE_MEMO[trace] = pre
        except TypeError:
            pass
    return pre


# ----------------------------------------------------------------------
# Decode export/import for the trace-artifact store
# ----------------------------------------------------------------------
#: Version of the exported decode columns.  Bump whenever the shape of
#: :class:`_CorePre`/:class:`_TracePre` (or the meaning of a kind code)
#: changes, so stale trace artifacts read as misses instead of feeding
#: the engine columns it would misinterpret.
DECODE_VERSION = 1


class _CoreOps:
    """Minimal core stand-in for :func:`_analyze` (needs ``.ops`` only)."""

    __slots__ = ("ops",)

    def __init__(self, ops):
        self.ops = ops


def precompute_trace(trace):
    """Run the columnar decode for ``trace`` and memoize it, exactly as
    the engine would on first run.  Returns the :class:`_TracePre`."""
    from repro.sim.engine import _flatten

    pre = _analyze(trace, [_CoreOps(ops) for ops in _flatten(trace)])
    try:
        _PRE_MEMO[trace] = pre
    except TypeError:
        pass
    return pre


def export_decode_columns(trace):
    """Flat, picklable decode columns for ``trace`` (building the decode
    if it is not memoized yet).  The WAL ``log`` layout is *not*
    exported — it depends on the memory configuration and is lazily
    recomputed per cell."""
    try:
        pre = _PRE_MEMO.get(trace)
    except TypeError:
        pre = None
    if pre is None:
        pre = precompute_trace(trace)
    return (
        DECODE_VERSION,
        [(c.kinds, c.addrs, c.vals, c.olds) for c in pre.cores],
        pre.amin,
        pre.amax,
        pre.imin,
        pre.imax,
    )


def seed_decode_columns(trace, columns):
    """Memoize previously exported decode columns for ``trace`` so the
    engine's first run skips :func:`_analyze` entirely.  Columns with a
    stale :data:`DECODE_VERSION` are ignored (the engine will simply
    re-analyze).  Returns ``True`` when the seed was accepted."""
    if not columns or columns[0] != DECODE_VERSION:
        return False
    version, cores, amin, amax, imin, imax = columns
    if len(cores) != len(trace.threads):
        return False
    pre = _TracePre(
        [_CorePre(kinds, addrs, vals, olds) for kinds, addrs, vals, olds in cores],
        amin,
        amax,
        imin,
        imax,
    )
    try:
        _PRE_MEMO[trace] = pre
    except TypeError:
        return False
    return True


def _log_pass(pre, cpre, tid, lbase, larea):
    """Static WAL log layout for one base/fwb core, or ``None`` when
    the *virgin log area* precondition fails.

    Precondition (conservative):

    * the thread's log cursor never wraps the area, and
    * no initial-image word lies inside the log area, and
    * every trace address stays a full on-PM-buffer line (256 bytes)
      away from the log area.

    The caller additionally requires the thread's cursor to start at
    zero (a reused system with leftover log-area media words always
    has a non-zero cursor, because nothing ever resets it).  Under
    the precondition every static log entry writes its words to
    virgin, exclusively-owned media (a word "changes" iff non-zero,
    and the first payload word is odd so the sector write is never
    redundant), no log line can ever be resident in the on-PM buffer
    (posted data lines are trace lines), and nothing reads a log word
    during the run (crash/recovery paths delegate) — so the entries'
    media words, wear and DCW outcome are pure trace functions,
    applied in bulk at flush time.
    """
    area_end = lbase + larea
    if pre.amin is not None and not (
        pre.amax + ONPM_LINE_SIZE <= lbase or pre.amin >= area_end + ONPM_LINE_SIZE
    ):
        return None
    if pre.imin is not None and not (pre.imax < lbase or pre.imin >= area_end):
        return None

    kinds = cpre.kinds
    addrs = cpre.addrs
    vals = cpre.vals
    olds = cpre.olds
    n = len(kinds)
    la_col = [0] * n
    pre2_col = [0] * n
    cur_te = [0] * n
    media = {}
    wear = {}
    n_static = 0
    nz = 0
    cur = 0
    txid = 0
    tx_index = 0
    for pc in range(n):
        k = kinds[pc]
        if k == 2 or k == 4 or k == 5:
            rem = cur & 63
            if rem:
                cur += 64 - rem
            la = lbase + cur
            la_col[pc] = la
            a = addrs[pc]
            if k == 2:
                p = (
                    (tid << 56)
                    ^ (txid << 40)
                    ^ a
                    ^ ((olds[pc] & _M) * _K1)
                    ^ ((vals[pc] & _M) * _K2)
                ) | 1
                w = p & _M
                if w:
                    media[la] = w
                    nz += 1
                w = (p + 1) & _M
                if w:
                    media[la + 8] = w
                    nz += 1
                w = (p + 2) & _M
                if w:
                    media[la + 16] = w
                    nz += 1
                w = (p + 3) & _M
                if w:
                    media[la + 24] = w
                    nz += 1
                n_static += 1
                sec = la >> 6
                wear[sec] = wear.get(sec, 0) + 1
            else:
                pre2_col[pc] = (
                    (tid << 56) ^ (txid << 40) ^ a ^ ((vals[pc] & _M) * _K2)
                )
            cur += 26
        elif k == 0 or k == 6:
            tx_index += 1
            txid = (tx_index % 65535) + 1
        elif k == 1 or k == 7:
            cur_te[pc] = cur
            rem = cur & 63
            if rem:
                cur += 64 - rem
            cur += 16  # the two-word commit tuple
        # kind 8 raises inside the exact engine, so ops after it are
        # unreachable and their (absent) log effects don't matter.
    if cur > larea:
        return None  # the cursor would wrap: log addresses get reused
    return _LogPre(la_col, pre2_col, cur_te, cur, media, wear, n_static, nz)


def _make_wal_stepper(exact, idx, core, cpre, pre, is_fwb):
    """Fused stepper for the per-store WAL designs (base, fwb) with a
    fully static log layout.

    Requires the virgin-log-area precondition (see :func:`_log_pass`)
    plus a zero starting cursor; otherwise returns a fallback-reason
    string and every op of the core runs through the exact engine
    (rare, correct, slow).
    Under it the per-store hot path is pure timing arithmetic: the
    static entries' media words/wear/counters are applied in bulk at
    flush time, and the log submit does not even need the entry's
    address (one four-word request to one virgin sector, always).

    Base additionally fuses the per-store data write-back: every base
    store cleans its cacheline immediately, loads never dirty lines
    and L3/L2 copies are therefore always clean, so the exact
    engine's ``writeback_line`` merge is statically the singleton
    ``{addr: value}`` of the store itself and the probe loop (plain
    ``get``, no LRU side effects) can be skipped.

    No fused op here ever falls back mid-core: kind-8 ops raise
    inside the exact engine before touching engine state, so the
    stepper's deferred cursor/sequence bookkeeping (synced before
    every bound ``persist_commit_tuple`` call and at every epoch
    boundary) never interleaves with exact-path log writes.
    """
    scheme = exact.scheme
    system = exact.system
    tid = core.tid
    region = system.region
    try:
        lbase, larea = region.layout.thread_log_area(tid)
    except AddressError:
        return "no_log_area"
    if region._cursor.get(tid, 0) != 0:
        return "log_cursor_in_use"
    cached = cpre.log
    if cached is not None and cached[0] == lbase and cached[1] == larea:
        lp = cached[2]
    else:
        lp = _log_pass(pre, cpre, tid, lbase, larea)
        cpre.log = (lbase, larea, lp)
    if lp is None:
        return "wal_layout"

    kinds = cpre.kinds
    addrs = cpre.addrs
    vals = cpre.vals
    la_col = lp.la
    pre2_col = lp.pre2
    cur_te = lp.cur_te
    n_ops = core.n_ops

    # ---------------------------------------------------------- hoists
    mc = system.mc
    chan = idx % mc.channels
    wpq_heap = mc._wpq_heaps[chan]
    wpq_cap = mc._wpq_capacity
    chfree = mc._channel_free
    banks = mc._bank_free[chan]
    BUS = mc._bus_overhead
    BEAT = mc._bus_beat
    WSERV = mc._write_service
    BUS1 = BUS + BEAT  # data singleton
    BUS2 = BUS + 2 * BEAT  # commit tuple
    BUS4 = BUS + 4 * BEAT  # log entry

    pm = system.pm
    onpm = pm.buffer
    onpm_lines = onpm._lines
    onpm_cap = onpm._capacity
    evict_lru = onpm._evict_lru
    media_words = pm.media._words
    media_get = media_words.get
    wear = pm.media._sector_wear
    wear_get = wear.get

    hier = system.hierarchy
    l1 = hier._l1[idx]
    l1_sets = l1._sets
    l1_shift = l1._line_shift
    l1_nsets = l1._num_sets
    k_l1_hits = l1._k_hits
    LAT_L1 = hier._lat_l1
    line_mask = hier._line_mask
    hier_store = exact._hier_store
    hier_load = exact._hier_load
    read_contention = exact._read_contention

    rcur = region._cursor
    records = region._records
    persist_commit_tuple = region.persist_commit_tuple

    counters = system.stats.counters
    current = exact._current
    current_get = current.get
    committed_add = exact._committed.add
    OPOV = exact._op_overhead
    M = WORD_MASK

    tld = scheme._tx_log_done
    if is_fwb:
        log_ready = scheme._log_ready
        lr_get = log_ready.get
        fwb_dirty_add = scheme._dirty_lines[idx].add
        owner = scheme._owner
        mfwb = scheme._maybe_force_writeback
        await_truncate_append = scheme._await_truncate.append

    # ------------------------------------------------- accumulators
    a_l1_hits = 0
    a_wpq_stall = 0
    a_med_lines = 0  # dynamic entries + commit tuples (static in bulk)
    a_med_words = 0
    a_med_redund = 0
    a_committed = 0
    ns = 0  # fused log entries (static + dynamic)
    n_te = 0  # fused commit tuples
    # Eviction storms (fwb; base lines are always clean) post each
    # dirty victim through the shared kernel.
    _, posted_submit, flush_submit = _make_submit_kernel(system, idx)
    posted_data = _make_posted_evict(posted_submit)

    def step(limit_t, limit_i):
        nonlocal a_l1_hits, a_wpq_stall
        nonlocal a_med_lines, a_med_words, a_med_redund
        nonlocal a_committed, ns, n_te
        pc = core.pc
        now = core.time
        in_tx = core.in_tx
        txid = core.txid
        tx_index = core.tx_index
        tldv = tld[idx]
        pend = 0  # region._seq increments deferred within this epoch
        lim = limit_t if idx < limit_i else limit_t - 1
        try:
            while True:
                if pc >= n_ops:
                    return _DONE
                if now > lim:
                    return _YIELD
                k = kinds[pc]
                cost = OPOV
                if k == 2 or k == 4 or k == 5:  # ------------- Store
                    a = addrs[pc]
                    v = vals[pc]
                    base = a & line_mask
                    bucket = l1_sets[(base >> l1_shift) % l1_nsets]
                    line = bucket.get(base)
                    if line is not None:
                        bucket.move_to_end(base)
                        a_l1_hits += 1
                        cost += LAT_L1
                        dw = line.dirty_words
                        dw[a] = v
                    else:
                        access = hier_store(idx, a, v)
                        cost += access.latency
                        if access.hit_level == "pm":
                            cost += read_contention(a, now, idx)
                        wbs = access.writebacks
                        if wbs:
                            cost += posted_data(now, wbs)
                        dw = bucket[base].dirty_words
                    if k == 2:
                        # Static entry: media words/wear precomputed
                        # (bulk-applied at flush).
                        pass
                    else:
                        old = current_get(a)
                        if old is None:
                            old = media_get(a, 0)
                        la = la_col[pc]
                        p = (pre2_col[pc] ^ ((old & M) * _K1)) | 1
                        # Virgin sector: a word changes iff non-zero,
                        # and the first payload word is odd.
                        media_words[la] = p & M
                        changed = 1
                        w = (p + 1) & M
                        if w:
                            media_words[la + 8] = w
                            changed += 1
                        w = (p + 2) & M
                        if w:
                            media_words[la + 16] = w
                            changed += 1
                        w = (p + 3) & M
                        if w:
                            media_words[la + 24] = w
                            changed += 1
                        a_med_lines += 1
                        a_med_words += changed
                        sec = la >> 6
                        wear[sec] = wear_get(sec, 0) + 1
                        current[a] = v
                    pend += 1
                    ns += 1
                    # Log submit: one 4-word request, one sector (plus
                    # capacity-victim sectors when the on-PM buffer is
                    # full — fwb's posted data lines; base never fills
                    # it).  The log line itself is never resident.
                    extra = 0
                    if onpm_lines and len(onpm_lines) >= onpm_cap:
                        extra = evict_lru()
                    while wpq_heap and wpq_heap[0] <= now:
                        heappop(wpq_heap)
                    if len(wpq_heap) < wpq_cap:
                        adm = now
                    else:
                        adm = wpq_heap[0]
                        a_wpq_stall += adm - now
                        cost += adm - now
                    busy = chfree[chan]
                    start = adm if adm > busy else busy
                    persisted = start + BUS4
                    chfree[chan] = persisted
                    log_done = persisted
                    for _ in range(extra + 1):
                        free = banks[0]
                        begin = persisted if persisted > free else free
                        log_done = begin + WSERV
                        heapreplace(banks, log_done)
                    heappush(wpq_heap, log_done)
                    if is_fwb:
                        if log_done > lr_get(base, 0):
                            log_ready[base] = log_done
                        if log_done > tldv:
                            tldv = log_done
                        fwb_dirty_add(base)
                        owner[base] = idx
                        if now - scheme._last_fwb >= FWB_INTERVAL_CYCLES:
                            # mfwb flushes lines and truncates records;
                            # it reads neither the seq nor the cursor,
                            # so the deferred sync can wait.
                            cost += mfwb(idx, now)
                    else:
                        # base: immediate write-through of the line's
                        # dirty words — statically {a: v}.
                        dw.clear()
                        if media_get(a, 0) != v:
                            media_words[a] = v
                            a_med_lines += 1
                            a_med_words += 1
                            sec = a >> 6
                            wear[sec] = wear_get(sec, 0) + 1
                            dsec = 1
                        else:
                            a_med_redund += 1
                            dsec = 0
                        extra = 0
                        if onpm_lines and len(onpm_lines) >= onpm_cap:
                            extra = evict_lru()
                        dsec += extra
                        while wpq_heap and wpq_heap[0] <= now:
                            heappop(wpq_heap)
                        if len(wpq_heap) < wpq_cap:
                            adm = now
                        else:
                            adm = wpq_heap[0]
                            a_wpq_stall += adm - now
                            cost += adm - now
                        busy = chfree[chan]
                        start = adm if adm > busy else busy
                        persisted = start + BUS1
                        chfree[chan] = persisted
                        media_done = persisted
                        if dsec:
                            for _ in range(dsec):
                                free = banks[0]
                                begin = (
                                    persisted if persisted > free else free
                                )
                                media_done = begin + WSERV
                                heapreplace(banks, media_done)
                        heappush(wpq_heap, media_done)
                        if log_done > tldv:
                            tldv = log_done
                elif k == 3:  # ------------------------------- Load
                    a = addrs[pc]
                    base = a & line_mask
                    bucket = l1_sets[(base >> l1_shift) % l1_nsets]
                    line = bucket.get(base)
                    if line is not None:
                        bucket.move_to_end(base)
                        a_l1_hits += 1
                        cost += LAT_L1
                    else:
                        access = hier_load(idx, a)
                        cost += access.latency
                        if access.hit_level == "pm":
                            cost += read_contention(a, now, idx)
                        wbs = access.writebacks
                        if wbs:
                            cost += posted_data(now, wbs)
                elif k == 0 or k == 6:  # ------------------- TxBegin
                    tx_index += 1
                    txid = (tx_index % 65535) + 1
                    in_tx = True
                elif k == 1 or k == 7:  # --------------------- TxEnd
                    stall = tldv - now
                    if stall < 0:
                        stall = 0
                    # Sync the deferred log state: the bound tuple
                    # call reads the global seq and this tid's cursor.
                    if pend:
                        region._seq += pend
                        pend = 0
                    rcur[tid] = cur_te[pc]
                    words = persist_commit_tuple(tid, txid)
                    t2 = now + stall
                    n_te += 1
                    wit = iter(words.items())
                    wa0, wv0 = next(wit)
                    wa1, wv1 = next(wit)
                    changed = 0
                    if wv0:
                        media_words[wa0] = wv0
                        changed = 1
                    if wv1:
                        media_words[wa1] = wv1
                        changed += 1
                    if changed:
                        a_med_lines += 1
                        a_med_words += changed
                        sec = wa0 >> 6
                        wear[sec] = wear_get(sec, 0) + 1
                        dsec = 1
                    else:
                        a_med_redund += 1
                        dsec = 0
                    extra = 0
                    if onpm_lines and len(onpm_lines) >= onpm_cap:
                        extra = evict_lru()
                    dsec += extra
                    while wpq_heap and wpq_heap[0] <= t2:
                        heappop(wpq_heap)
                    if len(wpq_heap) < wpq_cap:
                        adm = t2
                    else:
                        adm = wpq_heap[0]
                        a_wpq_stall += adm - t2
                        stall += adm - t2
                    busy = chfree[chan]
                    start = adm if adm > busy else busy
                    persisted = start + BUS2
                    chfree[chan] = persisted
                    media_done = persisted
                    if dsec:
                        for _ in range(dsec):
                            free = banks[0]
                            begin = persisted if persisted > free else free
                            media_done = begin + WSERV
                            heapreplace(banks, media_done)
                    heappush(wpq_heap, media_done)
                    stall += media_done - t2
                    tldv = 0
                    if is_fwb:
                        await_truncate_append((tid, txid))
                    # base: the exact engine's discard_tx here is a
                    # no-op on the fused path (no records created).
                    cost += stall
                    in_tx = False
                    committed_add((tid, tx_index))
                    a_committed += 1
                else:  # kind 8: exact raises SimulationError
                    return _EXACT
                pc += 1
                now += cost
        finally:
            core.pc = pc
            core.time = now
            core.in_tx = in_tx
            core.txid = txid
            core.tx_index = tx_index
            tld[idx] = tldv
            if pend:
                region._seq += pend

    def flush():
        c = counters
        if a_l1_hits:
            c[k_l1_hits] += a_l1_hits
        flush_submit(c)
        n_log = ns + n_te
        n_data = 0 if is_fwb else ns
        mcw = n_log + n_data
        if mcw:
            c["mc.writes"] += mcw
        if n_log:
            c["mc.writes.log"] += n_log
            c["pm.requests.log"] += n_log
            c["pm.request_bytes.log"] += 32 * ns + 16 * n_te
        if n_data:
            c["mc.writes.data"] += n_data
            c["pm.requests.data"] += n_data
            c["pm.request_bytes.data"] += 8 * n_data
        if a_wpq_stall:
            c["mc.wpq_stall_cycles"] += a_wpq_stall
        # Every fused write-through request hits the empty/absent fast
        # path (one buffer request, one immediate eviction; capacity
        # victims are accounted live by the bound ``_evict_lru``).
        onr = n_log + n_data
        if onr:
            c["onpm.requests"] += onr
            c["onpm.line_evictions"] += onr
        coal = 3 * ns + n_te
        if coal:
            c["onpm.coalesced_words"] += coal
        med_l = a_med_lines + lp.n_static
        if med_l:
            c["media.line_writes"] += med_l
            c["media.sector_writes"] += med_l
            c["media.word_writes"] += a_med_words + lp.nz_static
        if a_med_redund:
            c["media.redundant_line_writes"] += a_med_redund
        if a_committed:
            c["engine.committed"] += a_committed
        if ns:
            c["region.requests"] += ns
            c["region.entries.undo_redo"] += ns
            # The exact engine leaves the logging thread's record
            # table present but empty after truncation.
            records.setdefault(tid, {})
            media_words.update(lp.media)
            for sec2, cnt in lp.wear.items():
                wear[sec2] = wear_get(sec2, 0) + cnt
        if ns or n_te:
            rcur[tid] = lp.end_cur

    return step, flush


def _make_stepper(exact, idx, core, cpre, pre):
    """Build the fused ``(step, flush)`` pair for one core, or a
    fallback-reason string when the scheme/core combination is not
    eligible for fusion."""
    scheme = exact.scheme
    stype = type(scheme)
    # Dispatch on the design's declared columnar profile.  The spec
    # must be the class's *own* (``__dict__`` lookup): a subclass that
    # merely inherits a fused design's spec has unknown hot-path
    # behaviour and falls back to the exact engine.
    spec = stype.__dict__.get("spec")
    profile = spec.columnar_profile if spec is not None else None
    if profile == "wal_base" or profile == "wal_fwb":
        return _make_wal_stepper(exact, idx, core, cpre, pre,
                                 profile == "wal_fwb")
    if profile == "silo":
        # Ablation configurations take different exact-engine branches
        # (no merging / silent stores logged); only the paper's default
        # configuration is fused.
        if not all(b.merging for b in scheme._bufs):
            return "silo_ablation"
        if not all(g.ignore_silent for g in scheme._gens):
            return "silo_ablation"
        sk = 2
    elif profile == "morlog":
        sk = 3
    elif profile == "lad":
        sk = 4
    elif profile == "swlog":
        sk = 5
    elif profile == "wrap":
        sk = 6
    elif isinstance(scheme, PolicyScheme):
        if profile == "policy" and all(
            getattr(stype, hook) is getattr(PolicyScheme, hook)
            for hook in _POLICY_HOOKS
        ):
            return _make_policy_stepper(exact, idx, core, cpre)
        # A new spec without the policy profile, or a subclass that
        # overrides a lifecycle hook: attribute the fallback to the
        # catalog entry, not the shared class.
        return "unfused_design:" + scheme.name
    else:
        return "unfused_scheme:" + stype.__name__
    return _make_buffered_stepper(exact, idx, core, cpre, sk)


def _make_submit_kernel(system, idx):
    """Fused MC+PM submit helpers for core ``idx``, shared by every
    fused stepper and the fused finalize.

    Returns ``(wt_submit, posted_submit, flush)``.  Both submit helpers
    return an ``(admission_stall, completion)`` pair and accumulate the
    ``mc.*``/``pm.*``/``onpm.*``/``media.*`` counters they imply in
    closure integers; ``flush(counters)`` adds them once, value-guarded.

    A write-through request covers words of one 64-byte media sector
    (log entries are serialized on aligned cursors with <=52-byte
    spans, commit tuples are 16 bytes, cacheline flushes stay inside
    their line) or, when longer than eight words, of one on-PM buffer
    line (the policy designs' long run records).  A posted request
    covers words of one on-PM buffer line (data lines, silo's batched
    overflow request).  Either way it touches exactly one on-PM buffer
    line.
    """
    mc = system.mc
    chan = idx % mc.channels
    wpq_heap = mc._wpq_heaps[chan]
    wpq_cap = mc._wpq_capacity
    chfree = mc._channel_free
    banks = mc._bank_free[chan]
    BUS = mc._bus_overhead
    BEAT = mc._bus_beat
    WSERV = mc._write_service
    submit_write = mc.submit_write

    pm = system.pm
    onpm = pm.buffer
    onpm_lines = onpm._lines
    onpm_get = onpm_lines.get
    onpm_move = onpm_lines.move_to_end
    onpm_pop = onpm_lines.popitem
    onpm_cap = onpm._capacity
    onpm_mask = onpm._line_mask
    media_words = pm.media._words
    media_get = media_words.get
    wear = pm.media._sector_wear
    wear_get = wear.get

    # Every fused request is one MC write and one on-PM buffer request;
    # every write-through request and every victim is one line eviction
    # and (unless fully redundant) one media line write.
    a_mc_log = 0
    a_mc_data = 0
    a_posted = 0
    a_words_log = 0
    a_words_data = 0
    a_wpq_stall = 0
    a_onpm_coal = 0
    a_victims = 0
    a_med_lines = 0
    a_med_extra_secs = 0
    a_med_words = 0
    a_med_redund = 0

    def write_line(pending):
        """``PMMedia.write_line`` fused: apply one on-PM buffer line's
        words to the media with data-comparison-write.  Returns the
        sector count (a 256-byte line can span up to four 64-byte media
        sectors)."""
        nonlocal a_med_lines, a_med_extra_secs, a_med_words, a_med_redund
        changed = 0
        secs = set()
        secs_add = secs.add
        for wa, wv in pending.items():
            if media_get(wa, 0) != wv:
                media_words[wa] = wv
                changed += 1
                secs_add(wa >> 6)
        if changed:
            a_med_lines += 1
            a_med_words += changed
            nsec = len(secs)
            a_med_extra_secs += nsec - 1
            for sector in secs:
                wear[sector] = wear_get(sector, 0) + 1
            return nsec
        a_med_redund += 1
        return 0

    def evict1():
        """Fused LRU victim eviction of the oldest on-PM buffer line."""
        nonlocal a_victims
        a_victims += 1
        return write_line(onpm_pop(last=False)[1])

    def wt_submit(t, words, is_log=True):
        """Write-through submit.  Returns ``(admission_stall,
        media_done)``.  When the target on-PM buffer line is resident
        the request must coalesce with buffered words, so it re-runs
        through the bound ``submit_write`` (which accounts everything
        live and returns a ticket with the same two leading fields)."""
        nonlocal a_mc_log, a_mc_data, a_words_log, a_words_data
        nonlocal a_onpm_coal, a_med_lines, a_med_words, a_med_redund
        nonlocal a_wpq_stall
        a0 = next(iter(words))
        extra = 0
        if onpm_lines:
            if (a0 & onpm_mask) in onpm_lines:
                return submit_write(
                    t, words, kind="log" if is_log else "data",
                    write_through=True, channel=idx,
                )
            if len(onpm_lines) >= onpm_cap:
                extra = evict1()
        nw = len(words)
        if is_log:
            a_mc_log += 1
            a_words_log += nw
        else:
            a_mc_data += 1
            a_words_data += nw
        a_onpm_coal += nw - 1
        if nw > 8:
            sectors = extra + write_line(words)
        else:
            changed = 0
            for wa, wv in words.items():
                if media_get(wa, 0) != wv:
                    media_words[wa] = wv
                    changed += 1
            if changed:
                a_med_lines += 1
                a_med_words += changed
                sector = a0 >> 6
                wear[sector] = wear_get(sector, 0) + 1
                sectors = extra + 1
            else:
                a_med_redund += 1
                sectors = extra
        while wpq_heap and wpq_heap[0] <= t:
            heappop(wpq_heap)
        adm = t if len(wpq_heap) < wpq_cap else wpq_heap[0]
        if adm > t:
            a_wpq_stall += adm - t
        busy = chfree[chan]
        start = adm if adm > busy else busy
        persisted = start + BUS + BEAT * nw
        chfree[chan] = persisted
        if sectors == 1:
            free = banks[0]
            media_done = (persisted if persisted > free else free) + WSERV
            heapreplace(banks, media_done)
        else:
            media_done = persisted
            for _ in range(sectors):
                free = banks[0]
                begin = persisted if persisted > free else free
                media_done = begin + WSERV
                heapreplace(banks, media_done)
        heappush(wpq_heap, media_done)
        return adm - t, media_done

    def posted_submit(t, words, is_log=False):
        """Posted submit (no write-through): the line lingers in the
        on-PM buffer for coalescing.  Returns
        ``(admission_stall, persisted)``."""
        nonlocal a_mc_log, a_mc_data, a_words_log, a_words_data
        nonlocal a_posted, a_onpm_coal, a_wpq_stall
        nw = len(words)
        if is_log:
            a_mc_log += 1
            a_words_log += nw
        else:
            a_mc_data += 1
            a_words_data += nw
        a_posted += 1
        a0 = next(iter(words))
        b = a0 & onpm_mask
        pending = onpm_get(b)
        extra = 0
        if pending is None:
            if len(onpm_lines) >= onpm_cap:
                extra = evict1()
            onpm_lines[b] = dict(words)
            a_onpm_coal += nw - 1
        else:
            onpm_move(b)
            pending.update(words)
            a_onpm_coal += nw
        while wpq_heap and wpq_heap[0] <= t:
            heappop(wpq_heap)
        adm = t if len(wpq_heap) < wpq_cap else wpq_heap[0]
        if adm > t:
            a_wpq_stall += adm - t
        busy = chfree[chan]
        start = adm if adm > busy else busy
        persisted = start + BUS + BEAT * nw
        chfree[chan] = persisted
        media_done = persisted
        if extra:
            for _ in range(extra):
                free = banks[0]
                begin = persisted if persisted > free else free
                media_done = begin + WSERV
                heapreplace(banks, media_done)
        heappush(wpq_heap, media_done)
        return adm - t, persisted

    def flush(c):
        requests = a_mc_log + a_mc_data
        if requests:
            c["mc.writes"] += requests
            c["onpm.requests"] += requests
        if a_mc_log:
            c["mc.writes.log"] += a_mc_log
            c["pm.requests.log"] += a_mc_log
            c["pm.request_bytes.log"] += 8 * a_words_log
        if a_mc_data:
            c["mc.writes.data"] += a_mc_data
            c["pm.requests.data"] += a_mc_data
            c["pm.request_bytes.data"] += 8 * a_words_data
        if a_wpq_stall:
            c["mc.wpq_stall_cycles"] += a_wpq_stall
        if a_onpm_coal:
            c["onpm.coalesced_words"] += a_onpm_coal
        evictions = requests - a_posted + a_victims
        if evictions:
            c["onpm.line_evictions"] += evictions
        if a_med_lines:
            c["media.line_writes"] += a_med_lines
            c["media.sector_writes"] += a_med_lines + a_med_extra_secs
            c["media.word_writes"] += a_med_words
        if a_med_redund:
            c["media.redundant_line_writes"] += a_med_redund

    return wt_submit, posted_submit, flush


def _make_posted_evict(posted_submit, in_tx=(), lines=()):
    """Fused ``on_evictions``: post every dirty victim line as a data
    write (the default scheme hook).  The redo designs that keep
    uncommitted data out of PM (wrap and the policy designs) pass
    their open-transaction state: victims of lines written by an open
    transaction (``lines[c]`` while ``in_tx[c]``) are dropped."""

    def fused_evict(t, wbs):
        unc = set()
        for c, open_tx in enumerate(in_tx):
            if open_tx:
                unc |= lines[c]
        stall = 0
        for lb, words in wbs:
            if lb in unc:
                continue
            stall += posted_submit(t, words)[0]
        return stall

    return fused_evict


def _make_buffered_stepper(exact, idx, core, cpre, sk):
    """Fused stepper for the per-entry logging designs: silo
    (``sk == 2``), morlog (``sk == 3``), lad (``sk == 4``), swlog
    (``sk == 5``) and wrap (``sk == 6``)."""
    scheme = exact.scheme
    system = exact.system
    tid = core.tid
    fuse_ovf = True
    if sk != 2:
        # The fused log serializers need the thread's log area.
        try:
            lbase, larea = system.region.layout.thread_log_area(tid)
        except AddressError:
            return "no_log_area"
    else:
        # Silo only touches the region on overflow; without a valid
        # area the overflow falls back to the bound handler (which
        # raises from the exact serializer, like the exact engine).
        try:
            lbase, larea = system.region.layout.thread_log_area(tid)
        except AddressError:
            lbase = larea = 0
            fuse_ovf = False
    if not 0 <= tid < 256:
        # LogEntry.__new__ below bypasses the constructor's field
        # validation; an oversized tid must raise from the exact path.
        return "oversized_tid"

    kinds = cpre.kinds
    addrs = cpre.addrs
    vals = cpre.vals
    olds = cpre.olds
    n_ops = core.n_ops

    # ------------------------------------------------------------------
    # Hoisted live state (shared with the exact engine and all designs)
    # ------------------------------------------------------------------
    wt_submit, posted_submit, flush_submit = _make_submit_kernel(system, idx)
    submit_read = system.mc.submit_read
    media_get = system.pm.media._words.get

    hier = system.hierarchy
    l1 = hier._l1[idx]
    l1_sets = l1._sets
    l1_shift = l1._line_shift
    l1_nsets = l1._num_sets
    k_l1_hits = l1._k_hits
    LAT_L1 = hier._lat_l1
    line_mask = hier._line_mask
    hier_store = exact._hier_store
    hier_load = exact._hier_load
    writeback_line = hier.writeback_line
    read_contention = exact._read_contention
    on_evictions = exact._scheme_on_evictions

    region = system.region
    rcur = region._cursor
    rcur_get = rcur.get
    records = region._records
    persist_commit_tuple = region.persist_commit_tuple

    counters = system.stats.counters
    current = exact._current
    current_get = current.get
    committed_add = exact._committed.add
    OPOV = exact._op_overhead
    M = WORD_MASK
    new_entry = LogEntry.__new__

    # ------------------------------------------------------------------
    # Scheme-specific hoists
    # ------------------------------------------------------------------
    if sk == 2:
        gen = scheme._gens[idx]
        buf = scheme._bufs[idx]
        sentries = buf._entries
        sentries_get = sentries.get
        k_buf_merged = buf._k_merged
        k_buf_appended = buf._k_appended
        k_buf_peak = buf._k_peak
        SILO_CAP = scheme._buf_capacity
        BUF_LAT = scheme._buf_latency
        controller_free = scheme._controller_free
        last_store = scheme._last_store
        tx_total = scheme._tx_total
        overflowed = scheme._overflowed
        overflowed_add = overflowed.add
        handle_overflow = scheme._handle_overflow
        discard_tx = region.discard_tx
        tx_log_counts_append = scheme.tx_log_counts.append
        HANDSHAKE = system.config.commit_handshake_cycles
        spop = sentries.popitem
        OB = scheme._overflow_batch
        OLINE = ONPM_LINE_SIZE
        if OB > OVERFLOW_BATCH_ENTRIES:
            # A larger batch would serialize as several requests; keep
            # the single-request fusion for the paper configuration.
            fuse_ovf = False
    if sk == 3:
        mbuf = scheme._bufs[idx]
        mentries = mbuf._entries
        mentries_get = mentries.get
        mpop = mentries.popitem
        k_mbuf_merged = mbuf._k_merged
        k_mbuf_appended = mbuf._k_appended
        k_mbuf_peak = mbuf._k_peak
        flush_oldest = scheme._flush_oldest
        mlog_ready = scheme._log_ready
        mlr_get = mlog_ready.get
        ml_unpersisted_add = scheme._unpersisted_lines[idx].add
        ml_unpersisted_discard = scheme._unpersisted_lines[idx].discard
        ml_dirty_add = scheme._dirty_lines[idx].add
        await_truncate = scheme._await_truncate
    if sk == 4:
        slots = scheme._slots
        slots_discard = slots.discard
        captured = scheme._captured
        captured_pop = captured.pop
        tx_lines = scheme._tx_lines[idx]
        fb_lines = scheme._fallback_lines[idx]
        fb_txs = scheme._fallback_txs
        lad_in_tx = scheme._in_tx
        HANDSHAKE = system.config.commit_handshake_cycles
    if sk == 5:
        sw_data_done = scheme._tx_data_done
    if sk == 6:
        wr_log_done = scheme._tx_log_done
        wr_entries = scheme._tx_entries[idx]
        wr_entries_append = wr_entries.append
        wr_uncommitted = scheme._uncommitted_lines
        wr_my_unc = wr_uncommitted[idx]
        wr_my_unc_add = wr_my_unc.add
        wr_in_tx = scheme._in_tx

    # ------------------------------------------------------------------
    # Counter accumulators (flushed once, value-guarded)
    # ------------------------------------------------------------------
    a_l1_hits = 0
    a_committed = 0
    a_reg_req = 0
    a_reg_ur = 0
    a_reg_undo = 0
    logged_any = False
    # silo
    a_seen = 0
    a_ignored = 0
    a_entries = 0
    a_merged = 0
    a_appended = 0
    a_peak = 0
    a_flushdisc = 0
    a_inplace = 0
    a_ncommits = 0
    a_ovf = 0
    a_ovf_entries = 0
    # lad
    a_captured = 0
    a_fallbacks = 0
    # wrap
    a_reg_redo = 0
    a_wrap_reads = 0

    # ------------------------------------------------------------------
    # Fused eviction kernel.  Dirty L3 victims surfacing mid-epoch run
    # the scheme's ``on_evictions`` semantics inline: every fused
    # design posts its victim lines through ``posted_submit`` (the
    # exact hook's ``submit_write(kind="data")`` + admission stall),
    # with the scheme-specific twists replicated per ``sk``.
    # ------------------------------------------------------------------
    if sk == 2:
        # Silo additionally sets the flush bit on buffered entries
        # whose words just reached PM (live counters, like the exact
        # hook; all buffers are merging dicts in the fused config).
        silo_bufs = scheme._bufs

        def fused_evict(t, wbs):
            stall = 0
            for _lb, words in wbs:
                r = posted_submit(t, words)
                stall += r[0]
                for buf2 in silo_bufs:
                    entries2 = buf2._entries
                    if not entries2:
                        continue
                    marked = 0
                    lookup = entries2.get
                    for wa in words:
                        e2 = lookup(wa)
                        if e2 is not None and not e2.flush_bit:
                            e2.flush_bit = True
                            marked += 1
                    if marked:
                        counters[buf2._k_flush_bits] += marked
            return stall

    elif sk == 3:
        # Morlog must persist a victim line's buffered log entries
        # before its data leaves the cache domain (log-before-data);
        # that rare path runs the exact hook for the whole batch.
        ml_unpersisted_all = scheme._unpersisted_lines

        def fused_evict(t, wbs):
            for lb, _w in wbs:
                for s2 in ml_unpersisted_all:
                    if lb in s2:
                        return on_evictions(idx, t, wbs)
            stall = 0
            for _lb, words in wbs:
                r = posted_submit(t, words)
                stall += r[0]
            return stall

    elif sk == 4:
        # LAD absorbs victims of captured lines into the slot's merge
        # dict (no PM traffic, no stall).
        def fused_evict(t, wbs):
            stall = 0
            for lb, words in wbs:
                if lb in slots:
                    c2 = captured.get(lb)
                    if c2 is None:
                        captured[lb] = dict(words)
                    else:
                        c2.update(words)
                else:
                    r = posted_submit(t, words)
                    stall += r[0]
            return stall

    elif sk == 6:
        # WrAP drops victims of lines belonging to open transactions
        # (the redo log is the durable copy).
        fused_evict = _make_posted_evict(
            posted_submit, wr_in_tx, wr_uncommitted
        )

    else:
        # swlog: the default LoggingScheme hook.
        fused_evict = _make_posted_evict(posted_submit)

    # ------------------------------------------------------------------
    # The fused stepper
    # ------------------------------------------------------------------
    def step(limit_t, limit_i):
        nonlocal a_l1_hits
        nonlocal a_committed, a_reg_req, a_reg_ur, a_reg_undo, logged_any
        nonlocal a_seen, a_ignored, a_entries, a_merged, a_appended
        nonlocal a_peak, a_flushdisc, a_inplace, a_ncommits
        nonlocal a_ovf, a_ovf_entries
        nonlocal a_captured, a_fallbacks
        nonlocal a_reg_redo, a_wrap_reads
        pc = core.pc
        now = core.time
        in_tx = core.in_tx
        txid = core.txid
        tx_index = core.tx_index
        # Single-compare epoch horizon: yield when now > limit_t, or at
        # now == limit_t when this core loses the index tie.  Integer
        # times make the tie foldable into the bound (inf - 1 == inf
        # keeps the last remaining core unbounded).
        lim = limit_t if idx < limit_i else limit_t - 1
        try:
            while True:
                if pc >= n_ops:
                    return _DONE
                if now > lim:
                    return _YIELD
                k = kinds[pc]
                cost = OPOV
                if k == 2 or k == 4:  # --------------------------- Store
                    a = addrs[pc]
                    v = vals[pc]
                    if k == 2:
                        old = olds[pc]
                    else:
                        old = current_get(a)
                        if old is None:
                            old = media_get(a, 0)
                    base = a & line_mask
                    bucket = l1_sets[(base >> l1_shift) % l1_nsets]
                    line = bucket.get(base)
                    if line is not None:
                        bucket.move_to_end(base)
                        a_l1_hits += 1
                        cost += LAT_L1
                        line.dirty_words[a] = v
                    else:
                        access = hier_store(idx, a, v)
                        cost += access.latency
                        if access.hit_level == "pm":
                            cost += read_contention(a, now, idx)
                        wbs = access.writebacks
                        if wbs:
                            cost += fused_evict(now, wbs)

                    if sk == 2:  # silo
                        tx_total[idx] += 1
                        last_store[idx] = now
                        a_seen += 1
                        if old == v:
                            a_ignored += 1
                        else:
                            a_entries += 1
                            e = sentries_get(a)
                            if e is not None:
                                if e.tid != tid or e.txid != txid:
                                    return _EXACT  # exact raises
                                e.new = v & M
                                a_merged += 1
                            else:
                                if len(sentries) >= SILO_CAP:
                                    if fuse_ovf:
                                        # _handle_overflow fused: pop
                                        # the oldest batch, serialize
                                        # the undo halves as one
                                        # 256-byte-window posted log
                                        # request, post unflushed new
                                        # data per cacheline.
                                        cf = controller_free[idx]
                                        ostall = (
                                            cf - now
                                            - _CONTROLLER_QUEUE_CYCLES
                                        )
                                        if ostall < 0:
                                            ostall = 0
                                        start = now + ostall + BUF_LAT
                                        nb = len(sentries)
                                        if nb > OB:
                                            nb = OB
                                        new_data = {}
                                        cursor = rcur_get(tid, 0)
                                        rem = cursor % OLINE
                                        if rem:
                                            cursor += OLINE - rem
                                        words = {}
                                        for _ in range(nb):
                                            e2 = spop(last=False)[1]
                                            if not e2.flush_bit:
                                                new_data[e2.addr] = e2.new
                                                e2.flush_bit = True
                                            la = lbase + (cursor % larea)
                                            e2.log_addr = la
                                            p = (
                                                (e2.tid << 56)
                                                ^ (e2.txid << 40)
                                                ^ e2.addr
                                                ^ (e2.old * _K1)
                                                ^ (e2.new * _K2)
                                            ) | 1
                                            w = la & -8
                                            end = la + 18
                                            while w < end:
                                                words[w] = p & M
                                                p += 1
                                                w += 8
                                            cursor += 18
                                        rcur[tid] = cursor
                                        region._seq += nb
                                        a_reg_req += 1
                                        a_reg_undo += nb
                                        logged_any = True
                                        r = posted_submit(
                                            start, words, True
                                        )
                                        free = r[1]
                                        if free < start:
                                            free = start
                                        if new_data:
                                            grouped = {}
                                            for ea, ev in new_data.items():
                                                gb = ea & line_mask
                                                g = grouped.get(gb)
                                                if g is None:
                                                    grouped[gb] = {ea: ev}
                                                else:
                                                    g[ea] = ev
                                            for w2 in grouped.values():
                                                r = posted_submit(
                                                    start, w2
                                                )
                                                if r[1] > free:
                                                    free = r[1]
                                        back = free - BUF_LAT
                                        if back > controller_free[idx]:
                                            controller_free[idx] = back
                                        overflowed_add((tid, txid))
                                        a_ovf += 1
                                        a_ovf_entries += nb
                                        cost += ostall
                                    else:
                                        cost += handle_overflow(
                                            idx, tid, txid, now
                                        )
                                e = new_entry(LogEntry)
                                e.tid = tid
                                e.txid = txid
                                e.addr = a
                                e.old = old & M
                                e.new = v & M
                                e.flush_bit = False
                                e.log_addr = 0
                                sentries[a] = e
                                a_appended += 1
                                occ = len(sentries)
                                if occ > a_peak:
                                    a_peak = occ
                    elif sk == 3:  # morlog
                        e = mentries_get(a)
                        if e is not None:
                            if e.tid != tid or e.txid != txid:
                                return _EXACT  # exact raises
                            e.new = v & M
                            a_merged += 1
                        else:
                            if len(mentries) >= MORPH_BUFFER_ENTRIES:
                                # _flush_oldest fused: pop the two
                                # oldest, serialize as one 64-byte
                                # pair request, write through.
                                e0 = mpop(last=False)[1]
                                e1 = mpop(last=False)[1]
                                cursor = rcur_get(tid, 0)
                                rem = cursor & 63
                                if rem:
                                    cursor += 64 - rem
                                la = lbase + (cursor % larea)
                                p = (
                                    (e0.tid << 56)
                                    ^ (e0.txid << 40)
                                    ^ e0.addr
                                    ^ (e0.old * _K1)
                                    ^ (e0.new * _K2)
                                ) | 1
                                words = {
                                    la: p & M,
                                    la + 8: (p + 1) & M,
                                    la + 16: (p + 2) & M,
                                    la + 24: (p + 3) & M,
                                }
                                cursor += 26
                                la1 = lbase + (cursor % larea)
                                p1 = (
                                    (e1.tid << 56)
                                    ^ (e1.txid << 40)
                                    ^ e1.addr
                                    ^ (e1.old * _K1)
                                    ^ (e1.new * _K2)
                                ) | 1
                                w = la1 & -8
                                end = la1 + 26
                                while w < end:
                                    words[w] = p1 & M
                                    p1 += 1
                                    w += 8
                                cursor += 26
                                rcur[tid] = cursor
                                region._seq += 2
                                a_reg_req += 1
                                a_reg_ur += 2
                                logged_any = True
                                r = wt_submit(now, words)
                                cost += r[0]
                                fdone = r[1]
                                for e2 in (e0, e1):
                                    ln = e2.addr & -64
                                    if fdone > mlr_get(ln, 0):
                                        mlog_ready[ln] = fdone
                                    ml_unpersisted_discard(ln)
                            e = new_entry(LogEntry)
                            e.tid = tid
                            e.txid = txid
                            e.addr = a
                            e.old = old & M
                            e.new = v & M
                            e.flush_bit = False
                            e.log_addr = 0
                            mentries[a] = e
                            a_appended += 1
                            occ = len(mentries)
                            if occ > a_peak:
                                a_peak = occ
                        ml_unpersisted_add(base)
                        ml_dirty_add(base)
                    elif sk == 4:  # lad
                        if base not in tx_lines:
                            tx_lines.add(base)
                            if len(slots) < CAPTURE_LINES:
                                slots.add(base)
                                a_captured += 1
                            else:
                                fb_lines.add(base)
                                fb_txs.add((tid, txid))
                                a_fallbacks += 1
                                read_done = submit_read(
                                    now, base, channel=idx
                                )
                                cost += read_done - now
                        if base in fb_lines:
                            # one undo entry: aligned cursor, 18-byte
                            # slot -> three payload words
                            cursor = rcur_get(tid, 0)
                            rem = cursor & 63
                            if rem:
                                cursor += 64 - rem
                            la = lbase + (cursor % larea)
                            p = (
                                (tid << 56)
                                ^ (txid << 40)
                                ^ a
                                ^ ((old & M) * _K1)
                                ^ ((v & M) * _K2)
                            ) | 1
                            words = {
                                la: p & M,
                                la + 8: (p + 1) & M,
                                la + 16: (p + 2) & M,
                            }
                            rcur[tid] = cursor + 18
                            region._seq += 1
                            a_reg_req += 1
                            a_reg_undo += 1
                            logged_any = True
                            r = wt_submit(now, words)
                            cost += r[0] + (r[1] - now)
                    elif sk == 5:  # swlog
                        # Build the entry (inline CPU work), persist
                        # one 26-byte undo+redo record (span-64
                        # cursor -> the line's first four words),
                        # clwb+sfence it, then write the data line
                        # through and fence again.
                        stall = LOG_BUILD_CYCLES
                        cursor = rcur_get(tid, 0)
                        rem = cursor & 63
                        if rem:
                            cursor += 64 - rem
                        la = lbase + (cursor % larea)
                        p = (
                            (tid << 56)
                            ^ (txid << 40)
                            ^ a
                            ^ ((old & M) * _K1)
                            ^ ((v & M) * _K2)
                        ) | 1
                        words = {
                            la: p & M,
                            la + 8: (p + 1) & M,
                            la + 16: (p + 2) & M,
                            la + 24: (p + 3) & M,
                        }
                        rcur[tid] = cursor + 26
                        region._seq += 1
                        a_reg_req += 1
                        a_reg_ur += 1
                        logged_any = True
                        t2 = now + stall
                        r = wt_submit(t2, words)
                        stall += r[0] + (r[1] - t2) + FENCE_CYCLES
                        lw = writeback_line(idx, base)
                        if lw:
                            t2 = now + stall
                            r = wt_submit(t2, lw, False)
                            stall += r[0] + (r[1] - t2)
                        stall += FENCE_CYCLES
                        t2 = now + stall
                        if t2 > sw_data_done[idx]:
                            sw_data_done[idx] = t2
                        cost += stall
                    else:  # wrap
                        # One 18-byte redo record (span-64 cursor ->
                        # three words) written through; commit waits
                        # on the persist, the store itself only pays
                        # the admission stall.
                        cursor = rcur_get(tid, 0)
                        rem = cursor & 63
                        if rem:
                            cursor += 64 - rem
                        la = lbase + (cursor % larea)
                        p = (
                            (tid << 56)
                            ^ (txid << 40)
                            ^ a
                            ^ ((old & M) * _K1)
                            ^ ((v & M) * _K2)
                        ) | 1
                        words = {
                            la: p & M,
                            la + 8: (p + 1) & M,
                            la + 16: (p + 2) & M,
                        }
                        rcur[tid] = cursor + 18
                        region._seq += 1
                        a_reg_req += 1
                        a_reg_redo += 1
                        logged_any = True
                        r = wt_submit(now, words)
                        cost += r[0]
                        pd = r[1]
                        if pd > wr_log_done[idx]:
                            wr_log_done[idx] = pd
                        e = new_entry(LogEntry)
                        e.tid = tid
                        e.txid = txid
                        e.addr = a
                        e.old = old & M
                        e.new = v & M
                        e.flush_bit = False
                        e.log_addr = la
                        wr_entries_append(e)
                        wr_my_unc_add(base)
                    current[a] = v
                elif k == 3:  # ---------------------------------- Load
                    a = addrs[pc]
                    base = a & line_mask
                    bucket = l1_sets[(base >> l1_shift) % l1_nsets]
                    line = bucket.get(base)
                    if line is not None:
                        bucket.move_to_end(base)
                        a_l1_hits += 1
                        cost += LAT_L1
                    else:
                        access = hier_load(idx, a)
                        cost += access.latency
                        if access.hit_level == "pm":
                            cost += read_contention(a, now, idx)
                        wbs = access.writebacks
                        if wbs:
                            cost += fused_evict(now, wbs)
                elif k == 0 or k == 6:  # --------------------- TxBegin
                    if sk == 2 and (k == 6 or gen._txid is not None):
                        return _EXACT  # exact raises TransactionError
                    tx_index += 1
                    txid = (tx_index % 65535) + 1
                    in_tx = True
                    if sk == 2:
                        gen._txid_register = txid
                        gen._tid = tid
                        gen._txid = txid
                        tx_total[idx] = 0
                    elif sk == 4:
                        lad_in_tx[idx] = True
                    elif sk == 6:
                        wr_in_tx[idx] = True
                elif k == 1 or k == 7:  # ----------------------- TxEnd
                    if sk == 2:  # silo
                        if k == 7 or gen._txid is None:
                            return _EXACT  # exact raises
                        gen._tid = None
                        gen._txid = None
                        tx_log_counts_append(
                            (tx_total[idx], len(sentries))
                        )
                        stall = HANDSHAKE
                        cf = controller_free[idx]
                        backlog = cf - now
                        if backlog > _CONTROLLER_QUEUE_CYCLES:
                            stall += backlog - _CONTROLLER_QUEUE_CYCLES
                        drained = list(sentries.values())
                        sentries.clear()
                        discarded = 0
                        new_data = {}
                        for e in drained:
                            if e.flush_bit:
                                discarded += 1
                            else:
                                new_data[e.addr] = e.new
                        if discarded:
                            a_flushdisc += discarded
                        start = (now if now > cf else cf) + BUF_LAT
                        free = start
                        if new_data:
                            grouped = {}
                            for ea, ev in new_data.items():
                                gb = ea & line_mask
                                g = grouped.get(gb)
                                if g is None:
                                    grouped[gb] = {ea: ev}
                                else:
                                    g[ea] = ev
                            for w2 in grouped.values():
                                r = posted_submit(start, w2)
                                if r[1] > free:
                                    free = r[1]
                        back = free - BUF_LAT
                        if back > controller_free[idx]:
                            controller_free[idx] = back
                        a_inplace += len(new_data)
                        a_ncommits += 1
                        if (tid, txid) in overflowed:
                            overflowed.discard((tid, txid))
                            discard_tx(tid, txid)
                        cost += stall
                    elif sk == 3:  # morlog
                        drained = list(mentries.values())
                        mentries.clear()
                        flush_stall = 0
                        done = now
                        if drained:
                            cursor = rcur_get(tid, 0)
                            n = len(drained)
                            i2 = 0
                            while i2 < n:
                                e0 = drained[i2]
                                rem = cursor & 63
                                if rem:
                                    cursor += 64 - rem
                                la = lbase + (cursor % larea)
                                p = (
                                    (e0.tid << 56)
                                    ^ (e0.txid << 40)
                                    ^ e0.addr
                                    ^ (e0.old * _K1)
                                    ^ (e0.new * _K2)
                                ) | 1
                                words = {
                                    la: p & M,
                                    la + 8: (p + 1) & M,
                                    la + 16: (p + 2) & M,
                                    la + 24: (p + 3) & M,
                                }
                                cursor += 26
                                region._seq += 1
                                if i2 + 1 < n:
                                    e1 = drained[i2 + 1]
                                    la1 = lbase + (cursor % larea)
                                    p1 = (
                                        (e1.tid << 56)
                                        ^ (e1.txid << 40)
                                        ^ e1.addr
                                        ^ (e1.old * _K1)
                                        ^ (e1.new * _K2)
                                    ) | 1
                                    w = la1 & -8
                                    end = la1 + 26
                                    while w < end:
                                        words[w] = p1 & M
                                        p1 += 1
                                        w += 8
                                    cursor += 26
                                    region._seq += 1
                                r = wt_submit(now, words)
                                flush_stall += r[0]
                                pd = r[1]
                                if pd > done:
                                    done = pd
                                i2 += 2
                            rcur[tid] = cursor
                            a_reg_req += (n + 1) // 2
                            a_reg_ur += n
                            logged_any = True
                            for e0 in drained:
                                ln = e0.addr & -64
                                if done > mlr_get(ln, 0):
                                    mlog_ready[ln] = done
                                ml_unpersisted_discard(ln)
                        stall = flush_stall + (
                            done - now if done > now else 0
                        )
                        words = persist_commit_tuple(tid, txid)
                        t2 = now + stall
                        r = wt_submit(t2, words)
                        stall += r[0] + (r[1] - t2)
                        await_truncate.append((tid, txid))
                        cost += stall
                    elif sk == 4:  # lad
                        stall = 0
                        groups = []
                        for ln in sorted(tx_lines):
                            w2 = writeback_line(idx, ln)
                            merged2 = captured_pop(ln, None)
                            if w2 or merged2:
                                stall += PREPARE_CYCLES_PER_LINE
                                if merged2 is None:
                                    combined = w2
                                else:
                                    combined = dict(merged2)
                                    if w2:
                                        combined.update(w2)
                                groups.append(combined)
                        stall += HANDSHAKE
                        t2 = now + stall
                        for w2 in groups:
                            r = posted_submit(t2, w2)
                            stall += r[0]
                        for ln in tx_lines:
                            slots_discard(ln)
                        if (tid, txid) in fb_txs:
                            fb_txs.discard((tid, txid))
                            # discard_tx: no records on the fused path
                        tx_lines.clear()
                        fb_lines.clear()
                        lad_in_tx[idx] = False
                        cost += stall
                    elif sk == 5:  # swlog
                        # Everything already persisted per store; wait
                        # it out, seal the commit tuple, fence.
                        stall = sw_data_done[idx] - now
                        if stall < 0:
                            stall = 0
                        words = persist_commit_tuple(tid, txid)
                        t2 = now + stall
                        r = wt_submit(t2, words)
                        stall += r[0] + (r[1] - t2)
                        stall += FENCE_CYCLES
                        sw_data_done[idx] = 0
                        # discard_tx: no records on the fused path
                        cost += stall
                    else:  # wrap
                        # Redo commit rule: wait for the tx's logs,
                        # seal the tuple, then the background copier
                        # reads every log entry back and posts its
                        # data word (stall unaffected).
                        stall = wr_log_done[idx] - now
                        if stall < 0:
                            stall = 0
                        words = persist_commit_tuple(tid, txid)
                        t2 = now + stall
                        r = wt_submit(t2, words)
                        stall += r[0] + (r[1] - t2)
                        t3 = now + stall
                        for e in wr_entries:
                            submit_read(t3, e.log_addr, channel=idx)
                            a_wrap_reads += 1
                            posted_submit(t3, {e.addr: e.new})
                        # discard_tx: no records on the fused path
                        wr_entries.clear()
                        wr_my_unc.clear()
                        wr_in_tx[idx] = False
                        cost += stall
                    in_tx = False
                    committed_add((tid, tx_index))
                    a_committed += 1
                else:
                    # kind 5 (store outside the 48-bit field: LogEntry
                    # validation — or lad's and silo's silent handling
                    # of it — must come from the exact code) and kind 8
                    # (store outside tx / unknown op: exact raises).
                    return _EXACT
                pc += 1
                now += cost
        finally:
            core.pc = pc
            core.time = now
            core.in_tx = in_tx
            core.txid = txid
            core.tx_index = tx_index

    # ------------------------------------------------------------------
    # End-of-run counter flush.  Every add is value-guarded so the key
    # set matches the exact engine's (Counter creates keys on += 0);
    # silo.inplace_words is guarded on commits instead of value because
    # the exact engine creates that key unconditionally per commit.
    # ------------------------------------------------------------------
    def flush():
        c = counters
        if a_l1_hits:
            c[k_l1_hits] += a_l1_hits
        flush_submit(c)
        if a_committed:
            c["engine.committed"] += a_committed
        if a_reg_req:
            c["region.requests"] += a_reg_req
        if a_reg_ur:
            c["region.entries.undo_redo"] += a_reg_ur
        if a_reg_undo:
            c["region.entries.undo"] += a_reg_undo
        if a_reg_redo:
            c["region.entries.redo"] += a_reg_redo
        if logged_any:
            # The exact engine leaves the logging thread's record table
            # present but empty after commit/finalize truncation.
            records.setdefault(tid, {})
        if sk == 2:
            if a_seen:
                c["loggen.stores_seen"] += a_seen
            if a_ignored:
                c["loggen.ignored"] += a_ignored
            if a_entries:
                c["loggen.entries"] += a_entries
            if a_merged:
                c[k_buf_merged] += a_merged
            if a_appended:
                c[k_buf_appended] += a_appended
            if a_peak > c.get(k_buf_peak, 0):
                c[k_buf_peak] = a_peak
            if a_flushdisc:
                c["silo.flushbit_discarded"] += a_flushdisc
            if a_ovf:
                c["silo.overflows"] += a_ovf
                c["silo.overflow_entries"] += a_ovf_entries
            if a_ncommits:
                c["silo.inplace_words"] += a_inplace
        elif sk == 3:
            if a_merged:
                c[k_mbuf_merged] += a_merged
            if a_appended:
                c[k_mbuf_appended] += a_appended
            if a_peak > c.get(k_mbuf_peak, 0):
                c[k_mbuf_peak] = a_peak
        elif sk == 4:
            if a_captured:
                c["lad.captured_lines"] += a_captured
            if a_fallbacks:
                c["lad.fallbacks"] += a_fallbacks
        elif sk == 6:
            if a_wrap_reads:
                c["wrap.log_reads"] += a_wrap_reads

    return step, flush


#: The :class:`PolicyScheme` hooks the fused policy kernel replicates; a
#: subclass overriding any of them has unknown hot-path behaviour.
_POLICY_HOOKS = (
    "on_tx_begin",
    "on_store",
    "_spill",
    "_flush_entries",
    "on_evictions",
    "on_tx_end",
)


def _make_policy_stepper(exact, idx, core, cpre):
    """Fused stepper for the spec-driven :class:`PolicyScheme` designs
    (aglog, quadra1f, trinity2f, redolog4f), parameterized by the
    spec's granularity policy and fence schedule.

    The staging dict, ``_tx_new``, ``_tx_lines``, ``_in_tx`` and
    ``_tx_log_done`` stay live, so exact-engine per-op fallbacks and
    other cores' eviction hooks see the exact engine's state.  Flushes
    call ``spec.granularity.pack`` once and serialize the chunks inline
    with the region's arithmetic (cursor, sequence and counters; no
    recovery records, as for the other fused designs); the requests and
    the commit's fence schedule run through the shared submit kernel
    with the arithmetic of :meth:`PolicyScheme.on_tx_end`.
    """
    scheme = exact.scheme
    system = exact.system
    tid = core.tid
    region = system.region
    try:
        lbase, larea = region.layout.thread_log_area(tid)
    except AddressError:
        return "no_log_area"
    if not 0 <= tid < 256:
        return "oversized_tid"
    if larea % 64 or scheme._line_mask != -64 or system.pm.buffer._line_size % 64:
        # Fused requests must start on a sector of the log area, and
        # in-place groups must fit one 64-byte media sector, which must
        # fit one on-PM buffer line.
        return "log_layout"

    kinds = cpre.kinds
    addrs = cpre.addrs
    vals = cpre.vals
    olds = cpre.olds
    n_ops = core.n_ops

    spec = scheme.spec
    pack = spec.granularity.pack
    sched = spec.fences
    WAIT_LOG = sched.wait_log_persist
    INPLACE_FENCE = sched.inplace_fence
    TRUNCATE_FENCE = sched.truncate_fence
    FENCE = sched.fence_cycles

    staged = scheme._staged[idx]
    staged_get = staged.get
    staged_pop = staged.pop
    tx_new_all = scheme._tx_new
    tx_lines = scheme._tx_lines[idx]
    tx_lines_add = tx_lines.add
    tld = scheme._tx_log_done
    in_tx_all = scheme._in_tx

    wt_submit, posted_submit, flush_submit = _make_submit_kernel(system, idx)
    submit_write = system.mc.submit_write
    onpm_mask = system.pm.buffer._line_mask
    fused_evict = _make_posted_evict(
        posted_submit, in_tx_all, scheme._tx_lines
    )
    media_get = system.pm.media._words.get

    hier = system.hierarchy
    l1 = hier._l1[idx]
    l1_sets = l1._sets
    l1_shift = l1._line_shift
    l1_nsets = l1._num_sets
    k_l1_hits = l1._k_hits
    LAT_L1 = hier._lat_l1
    line_mask = hier._line_mask
    hier_store = exact._hier_store
    hier_load = exact._hier_load
    read_contention = exact._read_contention

    rcur = region._cursor
    rcur_get = rcur.get
    records = region._records
    persist_commit_tuple = region.persist_commit_tuple
    discard_tx = region.discard_tx

    counters = system.stats.counters
    current = exact._current
    current_get = current.get
    committed_add = exact._committed.add
    OPOV = exact._op_overhead
    M = WORD_MASK
    K1 = _K1
    K2 = _K2
    CAP = STAGING_ENTRIES
    BATCH = SPILL_BATCH
    entry_cls = LogEntry
    new_entry = LogEntry.__new__

    a_l1_hits = 0
    a_committed = 0
    a_staged = 0
    a_spills = 0
    a_inplace = 0
    a_reg_req = 0
    a_reg_redo = 0
    a_run_records = 0
    a_run_words = 0
    logged_any = False

    def flush_entries(entries, t):
        """``PolicyScheme._flush_entries`` fused: pack once, serialize
        each chunk as ``persist_run`` / ``persist_entries`` (two redo
        entries per 64-byte request) would, write every request
        through.  Returns ``(admission_stall, persist_completion)``."""
        nonlocal a_reg_req, a_reg_redo, a_run_records, a_run_words
        nonlocal logged_any
        logged_any = True
        stall = 0
        done = t
        cursor = rcur_get(tid, 0)
        for mode, chunk in pack(entries, counters):
            n = len(chunk)
            a_reg_redo += n
            if mode == "run":
                rem = cursor & 63
                if rem:
                    cursor += 64 - rem
                lo = cursor % larea
                la = lbase + lo
                e = chunk[0]
                words = {
                    la: (
                        (
                            (e.tid << 56)
                            ^ (e.txid << 40)
                            ^ (e.addr & -64)
                            ^ (n * K1)
                        )
                        | 1
                    ) & M
                }
                off = 8
                for e in chunk:
                    words[lbase + ((cursor + off) % larea)] = (
                        (
                            (e.tid << 56)
                            ^ (e.txid << 40)
                            ^ e.addr
                            ^ (e.old * K1)
                            ^ (e.new * K2)
                        )
                        | 1
                    ) & M
                    off += 8
                cursor += off
                a_reg_req += 1
                a_run_records += 1
                a_run_words += n
                if n < 8 or (
                    lo + 8 * n < larea
                    and (la & onpm_mask) == ((la + 8 * n) & onpm_mask)
                ):
                    # One sector, or several inside one on-PM buffer
                    # line with no wrap of the log area.
                    r = wt_submit(t, words)
                else:
                    r = submit_write(
                        t, words, kind="log", write_through=True, channel=idx
                    )
                stall += r[0]
                if r[1] > done:
                    done = r[1]
                continue
            i = 0
            while i < n:
                rem = cursor & 63
                if rem:
                    cursor += 64 - rem
                la = lbase + (cursor % larea)
                e = chunk[i]
                p = (
                    (e.tid << 56)
                    ^ (e.txid << 40)
                    ^ e.addr
                    ^ (e.old * K1)
                    ^ (e.new * K2)
                ) | 1
                words = {la: p & M, la + 8: (p + 1) & M, la + 16: (p + 2) & M}
                cursor += 18
                if i + 1 < n:
                    # The second entry starts mid-word at la + 18.
                    e = chunk[i + 1]
                    p = (
                        (e.tid << 56)
                        ^ (e.txid << 40)
                        ^ e.addr
                        ^ (e.old * K1)
                        ^ (e.new * K2)
                    ) | 1
                    words[la + 16] = p & M
                    words[la + 24] = (p + 1) & M
                    words[la + 32] = (p + 2) & M
                    cursor += 18
                i += 2
                a_reg_req += 1
                r = wt_submit(t, words)
                stall += r[0]
                if r[1] > done:
                    done = r[1]
        rcur[tid] = cursor
        region._seq += len(entries)
        return stall, done

    def step(limit_t, limit_i):
        nonlocal a_l1_hits, a_committed, a_staged, a_spills, a_inplace
        pc = core.pc
        now = core.time
        in_tx = core.in_tx
        txid = core.txid
        tx_index = core.tx_index
        tx_new = tx_new_all[idx]
        lim = limit_t if idx < limit_i else limit_t - 1
        try:
            while True:
                if pc >= n_ops:
                    return _DONE
                if now > lim:
                    return _YIELD
                k = kinds[pc]
                cost = OPOV
                if k == 2 or k == 4:  # --------------------------- Store
                    a = addrs[pc]
                    v = vals[pc]
                    if k == 2:
                        old = olds[pc]
                    else:
                        old = current_get(a)
                        if old is None:
                            old = media_get(a, 0)
                    base = a & line_mask
                    bucket = l1_sets[(base >> l1_shift) % l1_nsets]
                    line = bucket.get(base)
                    if line is not None:
                        bucket.move_to_end(base)
                        a_l1_hits += 1
                        cost += LAT_L1
                        line.dirty_words[a] = v
                    else:
                        access = hier_store(idx, a, v)
                        cost += access.latency
                        if access.hit_level == "pm":
                            cost += read_contention(a, now, idx)
                        wbs = access.writebacks
                        if wbs:
                            cost += fused_evict(now, wbs)
                    nv = v & M
                    e = staged_get(a)
                    if e is not None:
                        e.new = nv
                    else:
                        if len(staged) >= CAP:
                            # _spill: the oldest SPILL_BATCH entries.
                            batch = [
                                staged_pop(a2)
                                for a2 in list(islice(staged, BATCH))
                            ]
                            a_spills += 1
                            r = flush_entries(batch, now)
                            cost += r[0]
                            if r[1] > tld[idx]:
                                tld[idx] = r[1]
                        e = new_entry(entry_cls)
                        e.tid = tid
                        e.txid = txid
                        e.addr = a
                        e.old = old & M
                        e.new = nv
                        e.flush_bit = False
                        e.log_addr = 0
                        staged[a] = e
                        a_staged += 1
                    tx_new[a] = nv
                    tx_lines_add(base)
                    current[a] = v
                elif k == 3:  # ---------------------------------- Load
                    a = addrs[pc]
                    base = a & line_mask
                    bucket = l1_sets[(base >> l1_shift) % l1_nsets]
                    line = bucket.get(base)
                    if line is not None:
                        bucket.move_to_end(base)
                        a_l1_hits += 1
                        cost += LAT_L1
                    else:
                        access = hier_load(idx, a)
                        cost += access.latency
                        if access.hit_level == "pm":
                            cost += read_contention(a, now, idx)
                        wbs = access.writebacks
                        if wbs:
                            cost += fused_evict(now, wbs)
                elif k == 0 or k == 6:  # --------------------- TxBegin
                    tx_index += 1
                    txid = (tx_index % 65535) + 1
                    in_tx = True
                    in_tx_all[idx] = True
                elif k == 1 or k == 7:  # ----------------------- TxEnd
                    # PolicyScheme.on_tx_end, walking the fence schedule.
                    if staged:
                        entries = list(staged.values())
                        staged.clear()
                        stall, done = flush_entries(entries, now)
                    else:
                        stall = 0
                        done = now
                    if WAIT_LOG:
                        if tld[idx] > done:
                            done = tld[idx]
                        if done - now > stall:
                            stall = done - now
                        stall += FENCE
                    t2 = now + stall
                    r = wt_submit(t2, persist_commit_tuple(tid, txid))
                    stall += r[0] + (r[1] - t2) + FENCE
                    if tx_new:
                        grouped = {}
                        for ea, ev in tx_new.items():
                            gb = ea & -64
                            g = grouped.get(gb)
                            if g is None:
                                grouped[gb] = {ea: ev}
                            else:
                                g[ea] = ev
                        t2 = now + stall
                        if INPLACE_FENCE:
                            data_done = t2
                            for w2 in grouped.values():
                                r = wt_submit(t2, w2, False)
                                stall += r[0]
                                if r[1] > data_done:
                                    data_done = r[1]
                            stall += (data_done - t2) + FENCE
                        else:
                            for w2 in grouped.values():
                                stall += posted_submit(t2, w2)[0]
                        a_inplace += len(tx_new)
                        tx_new = tx_new_all[idx] = {}
                    if TRUNCATE_FENCE:
                        t2 = now + stall
                        r = wt_submit(t2, persist_commit_tuple(tid, txid))
                        stall += r[0] + (r[1] - t2) + FENCE
                    discard_tx(tid, txid)
                    tx_lines.clear()
                    tld[idx] = 0
                    in_tx_all[idx] = False
                    cost += stall
                    in_tx = False
                    committed_add((tid, tx_index))
                    a_committed += 1
                else:
                    # kind 5 (LogEntry validation raises from the exact
                    # code) and kind 8 (store outside tx / unknown op).
                    return _EXACT
                pc += 1
                now += cost
        finally:
            core.pc = pc
            core.time = now
            core.in_tx = in_tx
            core.txid = txid
            core.tx_index = tx_index

    def flush():
        c = counters
        if a_l1_hits:
            c[k_l1_hits] += a_l1_hits
        flush_submit(c)
        if a_committed:
            c["engine.committed"] += a_committed
        if a_staged:
            c["policy.staged_entries"] += a_staged
        if a_spills:
            c["policy.spills"] += a_spills
        if a_inplace:
            c["policy.inplace_words"] += a_inplace
        if a_reg_req:
            c["region.requests"] += a_reg_req
        if a_reg_redo:
            c["region.entries.redo"] += a_reg_redo
        if a_run_records:
            c["region.run_records"] += a_run_records
            c["region.run_words"] += a_run_words
        if logged_any:
            # The exact engine leaves the logging thread's record table
            # present but empty after commit truncation.
            records.setdefault(tid, {})

    return step, flush


def _fused_finalize(exact):
    """Fused morlog/fwb end-of-run finalize: flush every core's dirty
    lines as posted data writes and truncate the awaiting commits,
    exactly as the schemes' own ``finalize`` would at the same time
    (``end = max(core times)``, the value ``_finish`` passes it).

    Runs *before* ``TransactionEngine._finish``; the scheme's real
    ``finalize`` then iterates already-cleared dirty sets and an empty
    truncation list, returning ``now`` unchanged — a natural no-op —
    and ``mc.drain_completion()`` (computed afterwards) picks up the
    flushed writes.  Proof-of-identity conditions: the per-line flush
    order is the exact one (cores ascending, lines sorted), each
    victim line's words stay inside one 256-byte on-PM buffer line,
    and each goes through the shared kernel's ``posted_submit`` on the
    core's own channel (tickets are discarded by the exact finalize,
    so only counters and queue/bank state matter).
    """
    scheme = exact.scheme
    system = exact.system
    end = 0
    for c in exact._cores:
        if c.time > end:
            end = c.time
    writeback_line = system.hierarchy.writeback_line
    counters = system.stats.counters
    for core, lines in enumerate(scheme._dirty_lines):
        if not lines:
            continue
        _, posted_submit, flush_submit = _make_submit_kernel(system, core)
        for line in sorted(lines):
            words = writeback_line(core, line)
            if words:
                posted_submit(end, words)
        lines.clear()
        flush_submit(counters)
    scheme._truncate_awaiting()


class ColumnarEngine:
    """Batched columnar scheduler producing bit-identical results.

    Wraps a :class:`TransactionEngine` built from the same arguments;
    the fast path drives the exact engine's own core/scheme/system
    state through the epoch scheduler and finishes through
    ``TransactionEngine._finish``, so the :class:`RunResult` assembly
    (drain, finalize, committed set, tx_log_counts) is shared code.
    """

    def __init__(
        self,
        system,
        scheme,
        trace,
        crash_plan=None,
        fault_plan=None,
    ) -> None:
        self._exact = TransactionEngine(
            system, scheme, trace, crash_plan=crash_plan, fault_plan=fault_plan
        )
        self.system = system
        self.scheme = scheme
        self.trace = trace
        self.crash_plan = crash_plan
        self.fault_plan = fault_plan
        # Diagnostics (not part of RunResult): whether the whole run
        # was delegated to the exact engine, and the op/core mix.
        self.delegated = False
        self.delegated_reason: Optional[str] = None
        self.fast_ops = 0
        self.exact_ops = 0
        self.fused_cores = 0
        self.total_cores = len(self._exact._cores)
        #: ``reason tag -> exact-op count``: ``core:<why>`` for ops of
        #: cores that never got a fused kernel, ``op:<why>`` for
        #: mid-epoch per-op fallbacks of fused cores.
        self.fallback_reasons: dict = {}

    @property
    def fault_ledger(self):
        return self._exact.fault_ledger

    def _delegation_reason(self) -> Optional[str]:
        if self.crash_plan is not None:
            return "crash_plan"
        if self.fault_plan is not None:
            return "fault_plan"
        if self.system.obs is not None:
            return "observability"
        if self.system.pm.media._poisoned:
            return "poisoned_media"
        return None

    def engine_stats(self) -> dict:
        """Batching diagnostics for benchmarks and CI gates."""
        total = self.fast_ops + self.exact_ops
        return {
            "engine": "columnar",
            "delegated": self.delegated,
            "delegated_reason": self.delegated_reason,
            "fast_ops": self.fast_ops,
            "exact_ops": self.exact_ops,
            "fused_cores": self.fused_cores,
            "total_cores": self.total_cores,
            "fast_fraction": (self.fast_ops / total) if total else 0.0,
            "fallback_reasons": dict(self.fallback_reasons),
        }

    def run(self):
        reason = self._delegation_reason()
        if reason is not None:
            self.delegated = True
            self.delegated_reason = reason
            return self._exact.run()
        # Same collector pause as TransactionEngine.run (see there).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run_fast()
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run_fast(self):
        exact = self._exact
        self.system.install_image(self.trace.initial_image)
        cores = exact._cores
        pre = _trace_pre(self.trace, cores)
        steppers = []
        flushes = []
        tags = []
        for idx, c in enumerate(cores):
            made = _make_stepper(exact, idx, c, pre.cores[idx], pre)
            if isinstance(made, str):
                # No fused kernel: every op of the core runs through
                # the exact engine, attributed to this tag.
                tags.append("core:" + made)
                steppers.append(None)
            else:
                tags.append(None)
                steppers.append(made[0])
                flushes.append(made[1])
        self.fused_cores = len(flushes)

        total = sum(c.n_ops for c in cores)
        n_exact = 0
        fb = self.fallback_reasons
        pcores = pre.cores
        heap = [(c.time, i) for i, c in enumerate(cores) if c.pc < c.n_ops]
        heapify(heap)
        exact_step = exact._step
        EXACT = _EXACT
        while heap:
            # The running core stays at the heap root; the epoch limit
            # is the smaller of the root's children (the next-earliest
            # core, ties toward the lower index as tuples compare).
            i = heap[0][1]
            n = len(heap)
            if n > 2:
                a = heap[1]
                b = heap[2]
                limit_t, limit_i = a if a < b else b
            elif n == 2:
                limit_t, limit_i = heap[1]
            else:
                limit_t, limit_i = _INF, 0
            c = cores[i]
            step = steppers[i]
            if step is None:
                tag = tags[i]
                ran = 0
                try:
                    while True:
                        ran += 1
                        exact_step(i, c)
                        if c.pc >= c.n_ops:
                            st = _DONE
                            break
                        now = c.time
                        if now > limit_t or (now == limit_t and i > limit_i):
                            st = _YIELD
                            break
                finally:
                    fb[tag] = fb.get(tag, 0) + ran
                    n_exact += ran
            else:
                st = step(limit_t, limit_i)
            while st == EXACT:
                tag = _OP_REASON[pcores[i].kinds[c.pc]]
                fb[tag] = fb.get(tag, 0) + 1
                exact_step(i, c)
                n_exact += 1
                if c.pc >= c.n_ops:
                    st = _DONE
                    break
                now = c.time
                if now > limit_t or (now == limit_t and i > limit_i):
                    st = _YIELD
                    break
                st = step(limit_t, limit_i)
            if st == _YIELD:
                heapreplace(heap, (c.time, i))
            else:
                heappop(heap)

        for flush in flushes:
            flush()
        stype = type(self.scheme)
        if stype is MorLogScheme or stype is FWBScheme:
            _fused_finalize(exact)
        exact._global_op += total
        self.exact_ops = n_exact
        self.fast_ops = total - n_exact
        return exact._finish(False)
