"""Content-addressed trace-artifact store: build a workload once per
campaign, share it across every worker process.

Every executor cell names its workload by *recipe* (a
:class:`~repro.harness.executor.WorkloadSpec`), and before this store
existed each worker process re-synthesized the trace — RNG draws, data
-structure modeling, op-object construction — and re-ran the columnar
engine's whole-trace decode, once per process per recipe.  Campaign
wall-clock at scale is dominated by exactly that redundant pre-work.

This store lifts both out of the per-cell path:

* an **artifact** is the trace serialized as flat columns (per-thread
  op kinds / addresses / values plus transaction lengths and the
  initial PM image) together with the columnar engine's exported
  decode columns (:func:`repro.sim.columnar.export_decode_columns`);
* artifacts are **content-addressed** by the canonical JSON of the
  workload recipe plus a fingerprint of the trace-affecting sources
  (``repro/trace`` + ``repro/workloads`` + ``repro/litmus``) and the
  decode format
  version — an edit to the simulator proper does *not* invalidate
  them, an edit to a workload builder or the columnar decode does;
* loading is **zero-parse**: ops are rebuilt by slot assignment
  (their invariants were validated when the artifact was built) and
  the decode columns are seeded straight into the engine's memo, so
  the first columnar run of a loaded trace skips analysis entirely.

The executor builds every distinct pending recipe once in the parent
before fanning out, so workers only ever *load*.  Artifacts live under
``<cache-root>/traces/`` with the result cache's sharded layout;
``silo-repro cache stats`` / ``cache clear`` account for and manage
both stores.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional

from repro.harness.resultcache import (
    MISS,
    clear_objects,
    content_digest,
    default_cache_dir,
    load_pickle_hardened,
    objects_footprint,
    write_pickle_atomic,
)
from repro.sim.columnar import (
    DECODE_VERSION,
    export_decode_columns,
    precompute_trace,
    seed_decode_columns,
)
from repro.trace.ops import Load, Store
from repro.trace.trace import ThreadTrace, Trace, Transaction
from repro.workloads.registry import build_workload

#: Bump to orphan every artifact after an incompatible layout change.
_FORMAT_VERSION = 1

_FINGERPRINT_MEMO: Dict[str, str] = {}


def trace_source_fingerprint() -> str:
    """SHA-256 over the sources that determine a built trace and its
    decode: ``repro/trace``, ``repro/workloads``, ``repro/litmus``
    (pattern lowering) and the columnar decode version.

    Deliberately *narrower* than the result cache's whole-package
    fingerprint: a timing-model edit changes every simulated result
    but not the traces, so artifacts survive it.
    """
    import repro

    root = Path(repro.__file__).parent
    memo = _FINGERPRINT_MEMO.get(str(root))
    if memo is not None:
        return memo
    digest = hashlib.sha256()
    digest.update(f"decode-v{DECODE_VERSION}\0".encode())
    for sub in ("trace", "workloads", "litmus"):
        base = root / sub
        for path in sorted(base.rglob("*.py"), key=lambda p: str(p.relative_to(base))):
            digest.update(f"{sub}/{path.relative_to(base)}".encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    value = digest.hexdigest()
    _FINGERPRINT_MEMO[str(root)] = value
    return value


def _columns_from_trace(trace: Trace) -> dict:
    """Flatten a trace into picklable columns (no op objects)."""
    tids = []
    tx_lens = []
    kinds = []
    addrs = []
    vals = []
    for thread in trace.threads:
        tids.append(thread.tid)
        lens = []
        k = bytearray()
        a = []
        v = []
        for tx in thread.transactions:
            lens.append(len(tx.ops))
            for op in tx.ops:
                if type(op) is Store:
                    k.append(1)
                    a.append(op.addr)
                    v.append(op.value)
                else:  # Load — traces carry no other op kinds
                    k.append(0)
                    a.append(op.addr)
                    v.append(0)
        tx_lens.append(lens)
        kinds.append(bytes(k))
        addrs.append(a)
        vals.append(v)
    return {
        "version": _FORMAT_VERSION,
        "name": trace.name,
        "tids": tids,
        "tx_lens": tx_lens,
        "kinds": kinds,
        "addrs": addrs,
        "vals": vals,
        "image": dict(trace.initial_image),
        "decode": export_decode_columns(trace),
    }


def _trace_from_columns(columns: dict) -> Trace:
    """Rebuild the trace by slot assignment — no validation re-runs
    (the builder validated once, at artifact-build time)."""
    store_new = Store.__new__
    load_new = Load.__new__
    threads = []
    for tid, lens, kinds, addrs, vals in zip(
        columns["tids"],
        columns["tx_lens"],
        columns["kinds"],
        columns["addrs"],
        columns["vals"],
    ):
        i = 0
        transactions = []
        for n in lens:
            ops = []
            append = ops.append
            for j in range(i, i + n):
                if kinds[j]:
                    op = store_new(Store)
                    op.addr = addrs[j]
                    op.value = vals[j]
                else:
                    op = load_new(Load)
                    op.addr = addrs[j]
                append(op)
            i += n
            tx = Transaction.__new__(Transaction)
            tx.ops = ops
            transactions.append(tx)
        thread = ThreadTrace.__new__(ThreadTrace)
        thread.tid = tid
        thread.transactions = transactions
        threads.append(thread)
    trace = Trace.__new__(Trace)
    trace.threads = threads
    trace.initial_image = columns["image"]
    trace.name = columns["name"]
    return trace


class TraceArtifactStore:
    """Sharded pickle store of built+decoded workload traces.

    ``root`` is the *cache* root (the store nests under
    ``<root>/traces/``), so one ``--cache-dir`` governs both stores.
    """

    def __init__(
        self, root: Optional[str] = None, fingerprint: Optional[str] = None
    ) -> None:
        self.root = Path(root if root is not None else default_cache_dir()) / "traces"
        self.fingerprint = (
            fingerprint if fingerprint is not None else trace_source_fingerprint()
        )
        self.hits = 0
        self.misses = 0
        self.builds = 0

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    @staticmethod
    def key(spec: Any) -> str:
        """Canonical JSON of one workload recipe (duck-typed so the
        executor's :class:`WorkloadSpec` needs no import here)."""
        return json.dumps(
            {
                "name": spec.name,
                "threads": spec.threads,
                "transactions": spec.transactions,
                "kwargs": {k: v for k, v in spec.kwargs},
            },
            sort_keys=True,
            default=repr,
        )

    def digest(self, key: str) -> str:
        return content_digest(_FORMAT_VERSION, self.fingerprint, key)

    def _path(self, digest: str) -> Path:
        return self.root / "objects" / digest[:2] / f"{digest}.pkl"

    # ------------------------------------------------------------------
    # Load / build
    # ------------------------------------------------------------------
    def load(self, spec: Any) -> Optional[Trace]:
        """Load the artifact for ``spec``; ``None`` on miss.

        A truncated or corrupt pickle is quarantined (renamed to
        ``*.corrupt``) and treated as a miss, so the recipe is simply
        rebuilt; a well-formed artifact of a stale format version is a
        plain miss (it is overwritten in place by the rebuild)."""
        path = self._path(self.digest(self.key(spec)))
        columns = load_pickle_hardened(path, label="trace store")
        if columns is MISS:
            self.misses += 1
            return None
        if (
            not isinstance(columns, dict)
            or columns.get("version") != _FORMAT_VERSION
        ):
            self.misses += 1
            return None
        trace = _trace_from_columns(columns)
        seed_decode_columns(trace, columns["decode"])
        self.hits += 1
        return trace

    def put(self, spec: Any, trace: Trace) -> None:
        """Store the artifact (atomic rename, last wins)."""
        write_pickle_atomic(
            self._path(self.digest(self.key(spec))), _columns_from_trace(trace)
        )

    def ensure(self, spec: Any, trace: Trace) -> None:
        """Serialize an already-built ``trace`` for ``spec`` unless its
        artifact is already on disk (decode columns ride along)."""
        if self._path(self.digest(self.key(spec))).exists():
            return
        self.put(spec, trace)

    def build(self, spec: Any) -> Trace:
        """Load the artifact, or synthesize + decode + store it."""
        trace = self.load(spec)
        if trace is not None:
            return trace
        trace = build_workload(
            spec.name,
            threads=spec.threads,
            transactions=spec.transactions,
            **dict(spec.kwargs),
        )
        precompute_trace(trace)
        self.builds += 1
        self.put(spec, trace)
        return trace

    # ------------------------------------------------------------------
    # Management
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        entries, total_bytes, _ = objects_footprint(self.root / "objects")
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "fingerprint": self.fingerprint[:16],
        }

    def clear(self) -> int:
        return clear_objects(self.root / "objects")

    def format_stats(self) -> str:
        s = self.stats()
        requests = s["hits"] + s["misses"]
        rate = f"{s['hits'] / requests:.0%}" if requests else "n/a"
        return (
            f"traces {s['root']}: {s['entries']} artifacts, "
            f"{s['bytes'] / 1024:.1f} KiB, fingerprint {s['fingerprint']} "
            f"(this process: {s['hits']} hits / {s['misses']} misses, "
            f"hit rate {rate}, {s['builds']} built)"
        )
