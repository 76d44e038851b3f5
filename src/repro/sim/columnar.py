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

Fused kernels.  Per core, one op loop (:func:`_make_stepper`) runs
the Store/Load/TxBegin/TxEnd hot paths with the per-op call tree of
the exact engine flattened into straight-line code over hoisted
locals, against the *live* simulator state.  The loop is written once
and owns what every design shares: the epoch horizon, the L1-hit
probe and the hierarchy miss path, static and dynamic old values,
loads, the txid bookkeeping and the write-back of the core's state.
What a design does on top comes from its kernel, one per
``DesignSpec.columnar_profile`` (:data:`_KERNELS`: ``wal_base`` and
``wal_fwb``, ``silo``, ``morlog``, ``lad``, ``swlog``, ``wrap``,
``policy``): ``store``, ``commit``, ``evict`` and ``flush`` closures
plus an optional ``begin``, in which the MC write path (WPQ
prune/admit, channel bus, bank heap), the on-PM buffer fast paths and
the media's data-comparison-write run inline.  Cacheline eviction
storms (dirty L3 victims surfacing mid-epoch) run through the
kernel's ``evict`` instead of the exact ``on_evictions`` hook, and the
morlog/fwb end-of-run ``finalize`` data flushes run through
:func:`_fused_finalize` before ``TransactionEngine._finish`` (leaving
the schemes' own finalize a natural no-op over already-cleared
state).  All of them submit through one shared factory of fused MC+PM
helpers, :func:`_make_submit_kernel`; the WAL kernel keeps its own
static log layout (:func:`_log_pass`) and virgin-sector submits.
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
  order, same results, no speedup).  Each kernel names a reference
  class and the hooks and helpers of it that it inlines; a scheme
  class with its own spec that is not the reference class, or
  overrides one of those, falls back as ``unfused_design:<name>``, as
  does a :class:`PolicyScheme` spec without a fused profile.
* **Op fallback** — a fused kernel returns the op to
  ``TransactionEngine._step`` unconsumed when it cannot prove the
  fast path identical (op outside a transaction, address outside the
  48-bit log-entry field, unknown op kinds).  Paths where the exact
  engine would raise are also routed here so the exception (and its
  message) comes from the exact code.  A write-through request whose
  on-PM buffer line is already resident and must coalesce is not an
  op fallback: the submit kernel runs that one request through the
  exact memory-controller path.

Every fallback is tallied under a reason tag — ``core:<why>`` when a
whole core runs generic (:func:`_kernel_for` or the kernel factory
returns the reason string instead of closures), ``op:<why>`` keyed
off the op kind for mid-epoch per-op fallbacks — exposed as
``fallback_reasons`` in :meth:`ColumnarEngine.engine_stats` so
kernel-coverage regressions are visible in benchmarks and CI.

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
from functools import partial
from heapq import heapify, heappop, heappush, heapreplace
from itertools import islice
from typing import Callable, NamedTuple, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.common.constants import (
    LINE_SIZE,
    ONPM_LINE_SIZE,
    OVERFLOW_BATCH_ENTRIES,
    WORD_MASK,
)
from repro.common.errors import AddressError
from repro.core.silo import _CONTROLLER_QUEUE_CYCLES, SiloScheme
from repro.designs.base import BaseScheme
from repro.designs.fwb import FWB_INTERVAL_CYCLES, FWBScheme
from repro.designs.lad import CAPTURE_LINES, PREPARE_CYCLES_PER_LINE, LADScheme
from repro.designs.morlog import MORPH_BUFFER_ENTRIES, MorLogScheme
from repro.designs.policy import SPILL_BATCH, STAGING_ENTRIES, PolicyScheme
from repro.designs.swlog import FENCE_CYCLES, LOG_BUILD_CYCLES, SoftwareLogScheme
from repro.designs.wrap import WrAPScheme
from repro.hwlog.entry import LogEntry
from repro.mem.address import split_words_by_line
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

#: Fallback-reason tag per op kind, for ops the fused op loop hands back
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


def _make_submit_kernel(system, idx):
    """Fused MC+PM submit helpers for core ``idx``, shared by every
    fused kernel and the fused finalize.

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


# ----------------------------------------------------------------------
# Shared pieces of the per-design kernels
# ----------------------------------------------------------------------
def _log_area(system, tid):
    """``(lbase, larea)`` of the thread's log area, or the fallback
    reason when the kernel's serializers cannot run for ``tid``."""
    try:
        area = system.region.layout.thread_log_area(tid)
    except AddressError:
        return "no_log_area"
    if not 0 <= tid < 256:
        # The kernels build LogEntry objects by slot assignment,
        # bypassing the constructor's field validation; an oversized
        # tid must raise from the exact path.
        return "oversized_tid"
    return area


def _make_seal(region, tid, wt_submit):
    """``seal_commit_fence`` fused: ``seal(txid, t)`` writes the
    ``(tid, txid)`` tuple through at ``t`` and returns the fence stall
    (admission plus the wait for the tuple to persist)."""
    persist_commit_tuple = region.persist_commit_tuple

    def seal(txid, t):
        r = wt_submit(t, persist_commit_tuple(tid, txid))
        return r[0] + (r[1] - t)

    return seal


def _flush_region(c, region, tid, requests, kind, entries):
    """Value-guarded region counters of one fused core.  The exact
    engine leaves a logging thread's record table present but empty
    after commit/finalize truncation; the fused paths create no
    records, so the empty table is recreated here."""
    if requests:
        c["region.requests"] += requests
        c["region.entries." + kind] += entries
        region._records.setdefault(tid, {})


def _no_begin(k, txid):
    return 0


class _Ops(NamedTuple):
    """One core's kernel closures, called by the op loop of
    :func:`_make_stepper`.  ``store``, ``begin`` and ``commit`` return
    the op's extra cycles, or ``None`` to hand the op to the exact
    engine (``begin`` and ``commit`` must then not have changed any
    state)."""

    #: ``store(pc, addr, value, old, line_addr, now, txid)``, after
    #: the cache access.
    store: Callable
    #: ``commit(pc, kind, now, txid)`` at TxEnd.
    commit: Callable
    #: ``evict(now, writebacks)``: dirty L3 victims of an access.
    evict: Callable
    #: ``flush(counters)`` once at the end of the run, value-guarded.
    flush: Callable
    #: ``begin(kind, txid)`` at TxBegin, with the new txid.
    begin: Callable = _no_begin


# ----------------------------------------------------------------------
# The op loop
# ----------------------------------------------------------------------
def _make_stepper(exact, idx, core, cpre, pre, kernel):
    """Build the fused ``(step, flush)`` pair for one core from its
    design's :class:`_Kernel`, or return the kernel's fallback-reason
    string.

    The loop is written once for every design.  It owns the epoch
    horizon, the L1-hit probe and the hierarchy miss path, static and
    dynamic old values, loads, the txid bookkeeping, the write-back of
    the core's state and the ``l1_hits``/``engine.committed`` counters;
    the kernel's closures (:class:`_Ops`) add what the design does on
    top.  Kind-5 stores reach ``store`` only for kernels that fuse
    them; for every other kernel they go back to the exact engine
    before the cache is touched.
    """
    ops = kernel.make(exact, idx, core, cpre, pre)
    if isinstance(ops, str):
        return ops
    store, commit, evict, flush_kernel, begin = ops
    system = exact.system
    tid = core.tid
    kinds = cpre.kinds
    addrs = cpre.addrs
    vals = cpre.vals
    olds = cpre.olds
    n_ops = core.n_ops
    FUSE5 = kernel.fuse_k5

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

    counters = system.stats.counters
    current = exact._current
    current_get = current.get
    committed_add = exact._committed.add
    OPOV = exact._op_overhead

    a_l1_hits = 0
    a_committed = 0

    def step(limit_t, limit_i):
        nonlocal a_l1_hits, a_committed
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
                if k == 2 or k == 4 or (k == 5 and FUSE5):  # ------ Store
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
                            cost += evict(now, wbs)
                    extra = store(pc, a, v, old, base, now, txid)
                    if extra is None:
                        return _EXACT  # the exact engine raises here
                    cost += extra
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
                            cost += evict(now, wbs)
                elif k == 0 or k == 6:  # --------------------- TxBegin
                    extra = begin(k, ((tx_index + 1) % 65535) + 1)
                    if extra is None:
                        return _EXACT
                    cost += extra
                    tx_index += 1
                    txid = (tx_index % 65535) + 1
                    in_tx = True
                elif k == 1 or k == 7:  # ----------------------- TxEnd
                    extra = commit(pc, k, now, txid)
                    if extra is None:
                        return _EXACT
                    cost += extra
                    in_tx = False
                    committed_add((tid, tx_index))
                    a_committed += 1
                else:
                    # kind 5 of a kernel that does not fuse it (LogEntry
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

    def flush():
        # Every add is value-guarded so the key set matches the exact
        # engine's (Counter creates keys on += 0).
        c = counters
        if a_l1_hits:
            c[k_l1_hits] += a_l1_hits
        flush_kernel(c)
        if a_committed:
            c["engine.committed"] += a_committed

    return step, flush


# ----------------------------------------------------------------------
# The per-design kernels
# ----------------------------------------------------------------------
def _wal_kernel(exact, idx, core, cpre, pre, is_fwb):
    """The per-store WAL designs (base, fwb) over a fully static log
    layout.

    Requires the virgin-log-area precondition (see :func:`_log_pass`)
    plus a zero starting cursor; otherwise every op of the core runs
    through the exact engine.  Under it the per-store hot path is pure
    timing arithmetic: the static entries' media words/wear/counters
    are applied in bulk at flush time, and the log submit is one
    four-word request to one virgin sector, always.

    Base additionally fuses the per-store data write-back: every base
    store cleans its cacheline immediately, loads never dirty lines
    and L3/L2 copies are therefore always clean, so the exact
    engine's ``writeback_line`` merge is statically the singleton
    ``{addr: value}`` of the store itself.

    No fused op here ever falls back mid-core: kind-8 ops raise
    inside the exact engine before touching engine state, and kind-5
    stores are fused (their log addresses are static too), so the
    cursor — synced before every bound ``persist_commit_tuple`` call
    and at flush — never interleaves with exact-path log writes.
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
    la_col = lp.la
    pre2_col = lp.pre2
    cur_te = lp.cur_te

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

    l1 = system.hierarchy._l1[idx]
    l1_sets = l1._sets
    l1_shift = l1._line_shift
    l1_nsets = l1._num_sets

    rcur = region._cursor
    persist_commit_tuple = region.persist_commit_tuple
    M = WORD_MASK

    tld = scheme._tx_log_done
    if is_fwb:
        log_ready = scheme._log_ready
        lr_get = log_ready.get
        fwb_dirty_add = scheme._dirty_lines[idx].add
        owner = scheme._owner
        mfwb = scheme._maybe_force_writeback
        await_truncate_append = scheme._await_truncate.append

    a_wpq_stall = 0
    a_med_lines = 0  # dynamic entries + commit tuples (static in bulk)
    a_med_words = 0
    a_med_redund = 0
    ns = 0  # fused log entries (static + dynamic)
    n_te = 0  # fused commit tuples
    # Eviction storms (fwb; base lines are always clean) post each
    # dirty victim through the shared kernel.
    _, posted_submit, flush_submit = _make_submit_kernel(system, idx)

    def store(pc, a, v, old, base, now, txid):
        nonlocal a_wpq_stall, a_med_lines, a_med_words, a_med_redund, ns
        if kinds[pc] != 2:
            # Dynamic entry (static ones are bulk-applied at flush).
            # Virgin sector: a word changes iff non-zero (the first
            # payload word is odd, so the sector write is never
            # redundant).
            la = la_col[pc]
            p = (pre2_col[pc] ^ ((old & M) * _K1)) | 1
            changed = 0
            for off in range(4):
                w = (p + off) & M
                if w:
                    media_words[la + 8 * off] = w
                    changed += 1
            a_med_lines += 1
            a_med_words += changed
            sec = la >> 6
            wear[sec] = wear_get(sec, 0) + 1
        region._seq += 1
        ns += 1
        # Log submit: one 4-word request, one sector (plus the capacity
        # victim the on-PM buffer evicts when full — fwb's posted data
        # lines; base never fills it).  The log line itself is never
        # resident.
        cost = 0
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
            cost = adm - now
        busy = chfree[chan]
        start = adm if adm > busy else busy
        persisted = start + BUS4
        chfree[chan] = persisted
        log_done = persisted
        for _ in range(extra + 1):
            free = banks[0]
            log_done = (persisted if persisted > free else free) + WSERV
            heapreplace(banks, log_done)
        heappush(wpq_heap, log_done)
        if log_done > tld[idx]:
            tld[idx] = log_done
        if is_fwb:
            if log_done > lr_get(base, 0):
                log_ready[base] = log_done
            fwb_dirty_add(base)
            owner[base] = idx
            if now - scheme._last_fwb >= FWB_INTERVAL_CYCLES:
                cost += mfwb(idx, now)
            return cost
        # base: immediate write-through of the line's dirty words —
        # statically {a: v}.
        l1_sets[(base >> l1_shift) % l1_nsets][base].dirty_words.clear()
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
        if onpm_lines and len(onpm_lines) >= onpm_cap:
            dsec += evict_lru()
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
        for _ in range(dsec):
            free = banks[0]
            media_done = (persisted if persisted > free else free) + WSERV
            heapreplace(banks, media_done)
        heappush(wpq_heap, media_done)
        return cost

    def commit(pc, k, now, txid):
        nonlocal a_wpq_stall, a_med_lines, a_med_words, a_med_redund, n_te
        stall = tld[idx] - now
        if stall < 0:
            stall = 0
        # The bound tuple call reads this tid's cursor.
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
        if onpm_lines and len(onpm_lines) >= onpm_cap:
            dsec += evict_lru()
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
        for _ in range(dsec):
            free = banks[0]
            media_done = (persisted if persisted > free else free) + WSERV
            heapreplace(banks, media_done)
        heappush(wpq_heap, media_done)
        stall += media_done - t2
        tld[idx] = 0
        if is_fwb:
            await_truncate_append((tid, txid))
        # base: the exact engine's discard_tx here is a no-op on the
        # fused path (no records created).
        return stall

    def flush(c):
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
        if ns:
            _flush_region(c, region, tid, ns, "undo_redo", ns)
            media_words.update(lp.media)
            for sec2, cnt in lp.wear.items():
                wear[sec2] = wear_get(sec2, 0) + cnt
        if ns or n_te:
            rcur[tid] = lp.end_cur

    return _Ops(store, commit, _make_posted_evict(posted_submit), flush)


def _silo_kernel(exact, idx, core, cpre, pre):
    """Silo in the paper's configuration: entries merge per word in
    the core's log buffer, overflow spills the oldest batch's undo
    halves as one posted on-PM-buffer-line request, and commit is the
    controller handshake plus a background in-place flush."""
    scheme = exact.scheme
    system = exact.system
    tid = core.tid
    # Ablation configurations take different exact-engine branches
    # (no merging / silent stores logged); only the paper's default
    # configuration is fused.
    if not all(b.merging for b in scheme._bufs):
        return "silo_ablation"
    if not all(g.ignore_silent for g in scheme._gens):
        return "silo_ablation"
    if not 0 <= tid < 256:
        return "oversized_tid"
    # Silo only touches the region on overflow; without a valid area
    # the overflow falls back to the bound handler (which raises from
    # the exact serializer, like the exact engine).  A larger batch
    # would serialize as several requests; keep the single-request
    # fusion for the paper configuration.
    area = _log_area(system, tid)
    OB = scheme._overflow_batch
    fuse_ovf = not isinstance(area, str) and OB <= OVERFLOW_BATCH_ENTRIES
    lbase, larea = area if fuse_ovf else (0, 0)

    region = system.region
    rcur = region._cursor
    discard_tx = region.discard_tx
    line_size = system.config.l1.line_size
    counters = system.stats.counters
    gen = scheme._gens[idx]
    buf = scheme._bufs[idx]
    sentries = buf._entries
    sentries_get = sentries.get
    spop = sentries.popitem
    k_buf_merged = buf._k_merged
    k_buf_appended = buf._k_appended
    k_buf_peak = buf._k_peak
    SILO_CAP = scheme._buf_capacity
    BUF_LAT = scheme._buf_latency
    controller_free = scheme._controller_free
    last_store = scheme._last_store
    tx_total = scheme._tx_total
    overflowed = scheme._overflowed
    handle_overflow = scheme._handle_overflow
    tx_log_counts_append = scheme.tx_log_counts.append
    HANDSHAKE = system.config.commit_handshake_cycles
    M = WORD_MASK
    new_entry = LogEntry.__new__
    _, posted_submit, flush_submit = _make_submit_kernel(system, idx)

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

    def post_inplace(t, new_data, size, free):
        """Post new data per ``size``-byte line at ``t``; returns the
        latest persist time, at least ``free``."""
        for words in split_words_by_line(new_data, size).values():
            r = posted_submit(t, words)
            if r[1] > free:
                free = r[1]
        return free

    def overflow(now, txid):
        """``_handle_overflow`` fused: pop the oldest batch, serialize
        the undo halves as one 256-byte-window posted log request, post
        unflushed new data per cacheline.  Returns the stall."""
        nonlocal a_ovf, a_ovf_entries
        ostall = controller_free[idx] - now - _CONTROLLER_QUEUE_CYCLES
        if ostall < 0:
            ostall = 0
        start = now + ostall + BUF_LAT
        nb = len(sentries)
        if nb > OB:
            nb = OB
        new_data = {}
        cursor = rcur.get(tid, 0)
        rem = cursor % ONPM_LINE_SIZE
        if rem:
            cursor += ONPM_LINE_SIZE - rem
        words = {}
        for _ in range(nb):
            e = spop(last=False)[1]
            if not e.flush_bit:
                new_data[e.addr] = e.new
                e.flush_bit = True
            la = lbase + (cursor % larea)
            e.log_addr = la
            p = (
                (e.tid << 56)
                ^ (e.txid << 40)
                ^ e.addr
                ^ (e.old * _K1)
                ^ (e.new * _K2)
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
        free = posted_submit(start, words, True)[1]
        if free < start:
            free = start
        # Like the exact handler, overflow groups by the default
        # 64-byte line (commit groups by the L1 line).
        back = post_inplace(start, new_data, LINE_SIZE, free) - BUF_LAT
        if back > controller_free[idx]:
            controller_free[idx] = back
        overflowed.add((tid, txid))
        a_ovf += 1
        a_ovf_entries += nb
        return ostall

    def store(pc, a, v, old, base, now, txid):
        nonlocal a_seen, a_ignored, a_entries, a_merged, a_appended, a_peak
        tx_total[idx] += 1
        last_store[idx] = now
        a_seen += 1
        if old == v:
            a_ignored += 1
            return 0
        a_entries += 1
        e = sentries_get(a)
        if e is not None:
            if e.tid != tid or e.txid != txid:
                return None  # merging across transactions raises
            e.new = v & M
            a_merged += 1
            return 0
        cost = 0
        if len(sentries) >= SILO_CAP:
            if fuse_ovf:
                cost = overflow(now, txid)
            else:
                cost = handle_overflow(idx, tid, txid, now)
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
        return cost

    def begin(k, txid):
        if k == 6 or gen._txid is not None:
            return None  # the exact engine raises TransactionError
        gen._txid_register = txid
        gen._tid = tid
        gen._txid = txid
        tx_total[idx] = 0
        return 0

    def commit(pc, k, now, txid):
        nonlocal a_flushdisc, a_inplace, a_ncommits
        if k == 7 or gen._txid is None:
            return None  # the exact engine raises
        gen._tid = None
        gen._txid = None
        tx_log_counts_append((tx_total[idx], len(sentries)))
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
        back = post_inplace(start, new_data, line_size, start) - BUF_LAT
        if back > controller_free[idx]:
            controller_free[idx] = back
        a_inplace += len(new_data)
        a_ncommits += 1
        if (tid, txid) in overflowed:
            overflowed.discard((tid, txid))
            discard_tx(tid, txid)
        return stall

    # Evictions additionally set the flush bit on buffered entries
    # whose words just reached PM (live counters, like the exact hook;
    # all buffers are merging dicts in the fused config).
    silo_bufs = scheme._bufs

    def evict(t, wbs):
        stall = 0
        for _lb, words in wbs:
            stall += posted_submit(t, words)[0]
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

    def flush(c):
        flush_submit(c)
        _flush_region(c, region, tid, a_ovf, "undo", a_ovf_entries)
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
        # Guarded on commits, not value: the exact engine creates this
        # key unconditionally per commit.
        if a_ncommits:
            c["silo.inplace_words"] += a_inplace

    return _Ops(store, commit, evict, flush, begin)


def _morlog_kernel(exact, idx, core, cpre, pre):
    """MorLog: undo+redo entries merge in the core's morph buffer; a
    full buffer flushes its two oldest, commit flushes the rest (two
    entries per 64-byte request, written through) and seals the
    tuple."""
    scheme = exact.scheme
    system = exact.system
    tid = core.tid
    area = _log_area(system, tid)
    if isinstance(area, str):
        return area
    lbase, larea = area
    region = system.region
    rcur = region._cursor
    mbuf = scheme._bufs[idx]
    mentries = mbuf._entries
    mentries_get = mentries.get
    mpop = mentries.popitem
    k_mbuf_merged = mbuf._k_merged
    k_mbuf_appended = mbuf._k_appended
    k_mbuf_peak = mbuf._k_peak
    mlog_ready = scheme._log_ready
    mlr_get = mlog_ready.get
    ml_unpersisted_all = scheme._unpersisted_lines
    ml_unpersisted_add = ml_unpersisted_all[idx].add
    ml_unpersisted_discard = ml_unpersisted_all[idx].discard
    ml_dirty_add = scheme._dirty_lines[idx].add
    await_truncate_append = scheme._await_truncate.append
    on_evictions = exact._scheme_on_evictions
    M = WORD_MASK
    new_entry = LogEntry.__new__
    wt_submit, posted_submit, flush_submit = _make_submit_kernel(system, idx)
    seal = _make_seal(region, tid, wt_submit)

    a_merged = 0
    a_appended = 0
    a_peak = 0
    a_reg_req = 0
    a_reg_ur = 0

    def persist(t, entries):
        """``_persist_entries`` fused: serialize two entries per
        64-byte request (span-64 cursor; the second entry starts at
        byte 26 of the first's sector) and write each through.
        Returns ``(admission_stall, persist_completion)``."""
        nonlocal a_reg_req, a_reg_ur
        n = len(entries)
        if not n:
            return 0, t
        stall = 0
        done = t
        cursor = rcur.get(tid, 0)
        for i in range(0, n, 2):
            rem = cursor & 63
            if rem:
                cursor += 64 - rem
            la = lbase + (cursor % larea)
            e = entries[i]
            p = (
                (e.tid << 56)
                ^ (e.txid << 40)
                ^ e.addr
                ^ (e.old * _K1)
                ^ (e.new * _K2)
            ) | 1
            words = {
                la: p & M,
                la + 8: (p + 1) & M,
                la + 16: (p + 2) & M,
                la + 24: (p + 3) & M,
            }
            cursor += 26
            if i + 1 < n:
                e = entries[i + 1]
                la = lbase + (cursor % larea)
                p = (
                    (e.tid << 56)
                    ^ (e.txid << 40)
                    ^ e.addr
                    ^ (e.old * _K1)
                    ^ (e.new * _K2)
                ) | 1
                w = la & -8
                end = la + 26
                while w < end:
                    words[w] = p & M
                    p += 1
                    w += 8
                cursor += 26
            r = wt_submit(t, words)
            stall += r[0]
            if r[1] > done:
                done = r[1]
        rcur[tid] = cursor
        region._seq += n
        a_reg_req += (n + 1) // 2
        a_reg_ur += n
        for e in entries:
            ln = e.addr & -64
            if done > mlr_get(ln, 0):
                mlog_ready[ln] = done
            ml_unpersisted_discard(ln)
        return stall, done

    def store(pc, a, v, old, base, now, txid):
        nonlocal a_merged, a_appended, a_peak
        cost = 0
        e = mentries_get(a)
        if e is not None:
            if e.tid != tid or e.txid != txid:
                return None  # merging across transactions raises
            e.new = v & M
            a_merged += 1
        else:
            if len(mentries) >= MORPH_BUFFER_ENTRIES:
                # _flush_oldest: the two oldest entries, one request.
                oldest = [mpop(last=False)[1], mpop(last=False)[1]]
                cost = persist(now, oldest)[0]
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
        return cost

    def commit(pc, k, now, txid):
        drained = list(mentries.values())
        mentries.clear()
        flush_stall, done = persist(now, drained)
        stall = flush_stall + (done - now if done > now else 0)
        stall += seal(txid, now + stall)
        await_truncate_append((tid, txid))
        return stall

    def evict(t, wbs):
        # A victim line whose logs are still on chip must persist them
        # before its data leaves the cache domain (log-before-data);
        # that rare path runs the exact hook for the whole batch.
        for lb, _w in wbs:
            for s2 in ml_unpersisted_all:
                if lb in s2:
                    return on_evictions(idx, t, wbs)
        stall = 0
        for _lb, words in wbs:
            stall += posted_submit(t, words)[0]
        return stall

    def flush(c):
        flush_submit(c)
        _flush_region(c, region, tid, a_reg_req, "undo_redo", a_reg_ur)
        if a_merged:
            c[k_mbuf_merged] += a_merged
        if a_appended:
            c[k_mbuf_appended] += a_appended
        if a_peak > c.get(k_mbuf_peak, 0):
            c[k_mbuf_peak] = a_peak

    return _Ops(store, commit, evict, flush)


def _lad_kernel(exact, idx, core, cpre, pre):
    """LAD: every line a transaction writes claims a capture slot in
    the MC (or, with the slots full, falls back to per-store undo
    logging after a PM read); commit flushes the transaction's lines
    into the MC (Prepare) and posts them after the handshake."""
    scheme = exact.scheme
    system = exact.system
    tid = core.tid
    area = _log_area(system, tid)
    if isinstance(area, str):
        return area
    lbase, larea = area
    region = system.region
    rcur = region._cursor
    submit_read = system.mc.submit_read
    writeback_line = system.hierarchy.writeback_line
    slots = scheme._slots
    captured = scheme._captured
    tx_lines = scheme._tx_lines[idx]
    fb_lines = scheme._fallback_lines[idx]
    fb_txs = scheme._fallback_txs
    lad_in_tx = scheme._in_tx
    HANDSHAKE = system.config.commit_handshake_cycles
    M = WORD_MASK
    wt_submit, posted_submit, flush_submit = _make_submit_kernel(system, idx)

    a_captured = 0
    a_fallbacks = 0
    a_undo = 0

    def store(pc, a, v, old, base, now, txid):
        nonlocal a_captured, a_fallbacks, a_undo
        cost = 0
        if base not in tx_lines:
            tx_lines.add(base)
            if len(slots) < CAPTURE_LINES:
                slots.add(base)
                a_captured += 1
            else:
                fb_lines.add(base)
                fb_txs.add((tid, txid))
                a_fallbacks += 1
                cost = submit_read(now, base, channel=idx) - now
        if base in fb_lines:
            # One undo entry written through, waited for: aligned
            # cursor, 18-byte slot -> three payload words.
            cursor = rcur.get(tid, 0)
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
            words = {la: p & M, la + 8: (p + 1) & M, la + 16: (p + 2) & M}
            rcur[tid] = cursor + 18
            region._seq += 1
            a_undo += 1
            r = wt_submit(now, words)
            cost += r[0] + (r[1] - now)
        return cost

    def begin(k, txid):
        lad_in_tx[idx] = True
        return 0

    def commit(pc, k, now, txid):
        stall = 0
        groups = []
        for ln in sorted(tx_lines):
            w2 = writeback_line(idx, ln)
            merged2 = captured.pop(ln, None)
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
            stall += posted_submit(t2, w2)[0]
        for ln in tx_lines:
            slots.discard(ln)
        # discard_tx: no records on the fused path.
        fb_txs.discard((tid, txid))
        tx_lines.clear()
        fb_lines.clear()
        lad_in_tx[idx] = False
        return stall

    def evict(t, wbs):
        # Victims of captured lines are absorbed into the slot's merge
        # dict (no PM traffic, no stall).
        stall = 0
        for lb, words in wbs:
            if lb in slots:
                c2 = captured.get(lb)
                if c2 is None:
                    captured[lb] = dict(words)
                else:
                    c2.update(words)
            else:
                stall += posted_submit(t, words)[0]
        return stall

    def flush(c):
        flush_submit(c)
        _flush_region(c, region, tid, a_undo, "undo", a_undo)
        if a_captured:
            c["lad.captured_lines"] += a_captured
        if a_fallbacks:
            c["lad.fallbacks"] += a_fallbacks

    return _Ops(store, commit, evict, flush, begin)


def _swlog_kernel(exact, idx, core, cpre, pre):
    """The software WAL: per store the CPU builds one undo+redo entry,
    writes it through and fences, then writes the data line through
    and fences again; commit seals the tuple and fences."""
    scheme = exact.scheme
    system = exact.system
    tid = core.tid
    area = _log_area(system, tid)
    if isinstance(area, str):
        return area
    lbase, larea = area
    region = system.region
    rcur = region._cursor
    writeback_line = system.hierarchy.writeback_line
    sw_data_done = scheme._tx_data_done
    M = WORD_MASK
    wt_submit, posted_submit, flush_submit = _make_submit_kernel(system, idx)
    seal = _make_seal(region, tid, wt_submit)
    a_entries = 0

    def store(pc, a, v, old, base, now, txid):
        nonlocal a_entries
        # Build the entry (inline CPU work), persist one 26-byte
        # undo+redo record (span-64 cursor -> the line's first four
        # words), clwb+sfence it, then write the data line through and
        # fence again.
        stall = LOG_BUILD_CYCLES
        cursor = rcur.get(tid, 0)
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
        a_entries += 1
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
        return stall

    def commit(pc, k, now, txid):
        # Everything already persisted per store; wait it out, seal
        # the commit tuple, fence.  discard_tx: no records to drop.
        stall = sw_data_done[idx] - now
        if stall < 0:
            stall = 0
        stall += seal(txid, now + stall) + FENCE_CYCLES
        sw_data_done[idx] = 0
        return stall

    def flush(c):
        flush_submit(c)
        _flush_region(c, region, tid, a_entries, "undo_redo", a_entries)

    return _Ops(store, commit, _make_posted_evict(posted_submit), flush)


def _wrap_kernel(exact, idx, core, cpre, pre):
    """WrAP: one redo entry written through per store (the store pays
    only the admission stall); commit waits for the logs, seals the
    tuple, then the copier reads every entry back and posts its data
    word.  Victims of open transactions' lines are dropped."""
    scheme = exact.scheme
    system = exact.system
    tid = core.tid
    area = _log_area(system, tid)
    if isinstance(area, str):
        return area
    lbase, larea = area
    region = system.region
    rcur = region._cursor
    submit_read = system.mc.submit_read
    wr_log_done = scheme._tx_log_done
    wr_entries = scheme._tx_entries[idx]
    wr_entries_append = wr_entries.append
    wr_uncommitted = scheme._uncommitted_lines
    wr_my_unc = wr_uncommitted[idx]
    wr_my_unc_add = wr_my_unc.add
    wr_in_tx = scheme._in_tx
    M = WORD_MASK
    new_entry = LogEntry.__new__
    wt_submit, posted_submit, flush_submit = _make_submit_kernel(system, idx)
    seal = _make_seal(region, tid, wt_submit)
    a_entries = 0
    a_wrap_reads = 0

    def store(pc, a, v, old, base, now, txid):
        nonlocal a_entries
        # One 18-byte redo record (span-64 cursor -> three words)
        # written through; commit waits on the persist, the store
        # itself only pays the admission stall.
        cursor = rcur.get(tid, 0)
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
        words = {la: p & M, la + 8: (p + 1) & M, la + 16: (p + 2) & M}
        rcur[tid] = cursor + 18
        region._seq += 1
        a_entries += 1
        r = wt_submit(now, words)
        if r[1] > wr_log_done[idx]:
            wr_log_done[idx] = r[1]
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
        return r[0]

    def begin(k, txid):
        wr_in_tx[idx] = True
        return 0

    def commit(pc, k, now, txid):
        nonlocal a_wrap_reads
        # Redo commit rule: wait for the tx's logs, seal the tuple;
        # the background copier's reads and posts leave the stall
        # unaffected.  discard_tx: no records on the fused path.
        stall = wr_log_done[idx] - now
        if stall < 0:
            stall = 0
        stall += seal(txid, now + stall)
        t3 = now + stall
        for e in wr_entries:
            submit_read(t3, e.log_addr, channel=idx)
            a_wrap_reads += 1
            posted_submit(t3, {e.addr: e.new})
        wr_entries.clear()
        wr_my_unc.clear()
        wr_in_tx[idx] = False
        return stall

    def flush(c):
        flush_submit(c)
        _flush_region(c, region, tid, a_entries, "redo", a_entries)
        if a_wrap_reads:
            c["wrap.log_reads"] += a_wrap_reads

    evict = _make_posted_evict(posted_submit, wr_in_tx, wr_uncommitted)
    return _Ops(store, commit, evict, flush, begin)


def _policy_kernel(exact, idx, core, cpre, pre):
    """The spec-driven :class:`PolicyScheme` designs (aglog, quadra1f,
    trinity2f, redolog4f), parameterized by the spec's granularity
    policy and fence schedule.

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
    area = _log_area(system, tid)
    if isinstance(area, str):
        return area
    lbase, larea = area
    if larea % 64 or scheme._line_mask != -64 or system.pm.buffer._line_size % 64:
        # Fused requests must start on a sector of the log area, and
        # in-place groups must fit one 64-byte media sector, which must
        # fit one on-PM buffer line.
        return "log_layout"

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

    region = system.region
    rcur = region._cursor
    discard_tx = region.discard_tx
    wt_submit, posted_submit, flush_submit = _make_submit_kernel(system, idx)
    seal = _make_seal(region, tid, wt_submit)
    submit_write = system.mc.submit_write
    onpm_mask = system.pm.buffer._line_mask
    counters = system.stats.counters
    M = WORD_MASK
    new_entry = LogEntry.__new__
    CAP = STAGING_ENTRIES
    BATCH = SPILL_BATCH

    a_staged = 0
    a_spills = 0
    a_inplace = 0
    a_reg_req = 0
    a_reg_redo = 0
    a_run_records = 0
    a_run_words = 0

    def flush_entries(entries, t):
        """``PolicyScheme._flush_entries`` fused: pack once, serialize
        each chunk as ``persist_run`` / ``persist_entries`` (two redo
        entries per 64-byte request) would, write every request
        through.  Returns ``(admission_stall, persist_completion)``."""
        nonlocal a_reg_req, a_reg_redo, a_run_records, a_run_words
        stall = 0
        done = t
        cursor = rcur.get(tid, 0)
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
                            ^ (n * _K1)
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
                            ^ (e.old * _K1)
                            ^ (e.new * _K2)
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
                    ^ (e.old * _K1)
                    ^ (e.new * _K2)
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
                        ^ (e.old * _K1)
                        ^ (e.new * _K2)
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

    def store(pc, a, v, old, base, now, txid):
        nonlocal a_staged, a_spills
        cost = 0
        nv = v & M
        e = staged_get(a)
        if e is not None:
            e.new = nv
        else:
            if len(staged) >= CAP:
                # _spill: the oldest SPILL_BATCH entries.
                batch = [staged_pop(a2) for a2 in list(islice(staged, BATCH))]
                a_spills += 1
                cost, done = flush_entries(batch, now)
                if done > tld[idx]:
                    tld[idx] = done
            e = new_entry(LogEntry)
            e.tid = tid
            e.txid = txid
            e.addr = a
            e.old = old & M
            e.new = nv
            e.flush_bit = False
            e.log_addr = 0
            staged[a] = e
            a_staged += 1
        tx_new_all[idx][a] = nv
        tx_lines_add(base)
        return cost

    def begin(k, txid):
        in_tx_all[idx] = True
        return 0

    def commit(pc, k, now, txid):
        nonlocal a_inplace
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
        stall += seal(txid, now + stall) + FENCE
        tx_new = tx_new_all[idx]
        if tx_new:
            grouped = split_words_by_line(tx_new, 64)
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
            tx_new_all[idx] = {}
        if TRUNCATE_FENCE:
            stall += seal(txid, now + stall) + FENCE
        discard_tx(tid, txid)
        tx_lines.clear()
        tld[idx] = 0
        in_tx_all[idx] = False
        return stall

    def flush(c):
        flush_submit(c)
        if a_staged:
            c["policy.staged_entries"] += a_staged
        if a_spills:
            c["policy.spills"] += a_spills
        if a_inplace:
            c["policy.inplace_words"] += a_inplace
        _flush_region(c, region, tid, a_reg_req, "redo", a_reg_redo)
        if a_run_records:
            c["region.run_records"] += a_run_records
            c["region.run_words"] += a_run_words

    evict = _make_posted_evict(posted_submit, in_tx_all, scheme._tx_lines)
    return _Ops(store, commit, evict, flush, begin)


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
class _Kernel(NamedTuple):
    """One fused design.

    ``make(exact, idx, core, cpre, pre)`` builds a core's :class:`_Ops`
    (or returns a fallback reason).  The closures replicate ``ref``'s
    behaviour: a scheme class runs them only while every hook and
    helper named in ``inlines`` is ``ref``'s own, since an override
    would change what the replica must do.  ``fuse_k5``: the kernel
    also takes kind-5 stores.  ``finalize``: the run ends with
    :func:`_fused_finalize` in place of the scheme's flushes.
    """

    ref: type
    inlines: Tuple[str, ...]
    make: Callable
    fuse_k5: bool = False
    finalize: bool = False


#: The transaction-lifecycle hooks every kernel replicates.
_LIFECYCLE = ("on_tx_begin", "on_store", "on_evictions", "on_tx_end")

#: Fused kernel per :attr:`DesignSpec.columnar_profile`.
_KERNELS = {
    "wal_base": _Kernel(
        BaseScheme, _LIFECYCLE, partial(_wal_kernel, is_fwb=False), fuse_k5=True
    ),
    "wal_fwb": _Kernel(
        FWBScheme,
        _LIFECYCLE + ("finalize", "_flush_core_lines"),
        partial(_wal_kernel, is_fwb=True),
        fuse_k5=True,
        finalize=True,
    ),
    "silo": _Kernel(SiloScheme, _LIFECYCLE + ("_handle_overflow",), _silo_kernel),
    "morlog": _Kernel(
        MorLogScheme,
        _LIFECYCLE + ("_flush_oldest", "_persist_entries", "finalize"),
        _morlog_kernel,
        finalize=True,
    ),
    "lad": _Kernel(LADScheme, _LIFECYCLE, _lad_kernel),
    "swlog": _Kernel(SoftwareLogScheme, _LIFECYCLE, _swlog_kernel),
    "wrap": _Kernel(WrAPScheme, _LIFECYCLE, _wrap_kernel),
    "policy": _Kernel(
        PolicyScheme, _LIFECYCLE + ("_spill", "_flush_entries"), _policy_kernel
    ),
}


def _kernel_for(scheme):
    """The :class:`_Kernel` of ``scheme``, or the core fallback reason.

    Dispatch is on the columnar profile of the class's *own* spec
    (``__dict__`` lookup): a subclass that merely inherits a fused
    design's spec has unknown hot-path behaviour.  The class must then
    be the kernel's reference class, or a subclass that overrides none
    of what the kernel inlines.
    """
    stype = type(scheme)
    spec = stype.__dict__.get("spec")
    kernel = _KERNELS.get(spec.columnar_profile if spec is not None else None)
    if kernel is not None:
        ref = kernel.ref
        if issubclass(stype, ref) and all(
            getattr(stype, name) is getattr(ref, name) for name in kernel.inlines
        ):
            return kernel
    if kernel is not None or isinstance(scheme, PolicyScheme):
        # A fused design whose class changed an inlined hook, or a
        # policy spec without a fused profile: attribute the fallback
        # to the catalog entry, not the shared class.
        return "unfused_design:" + scheme.name
    return "unfused_scheme:" + stype.__name__


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
        kernel = _kernel_for(self.scheme)
        steppers = []
        flushes = []
        tags = []
        for idx, c in enumerate(cores):
            if isinstance(kernel, str):
                made = kernel
            else:
                made = _make_stepper(exact, idx, c, pre.cores[idx], pre, kernel)
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
        if not isinstance(kernel, str) and kernel.finalize:
            _fused_finalize(exact)
        exact._global_op += total
        self.exact_ops = n_exact
        self.fast_ops = total - n_exact
        return exact._finish(False)
