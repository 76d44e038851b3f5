"""Content-addressed on-disk cache for experiment cell results.

Every simulation cell in this repo is a pure function of its fully
specified inputs (workload spec, scheme, core count, configuration,
crash plan) *and* of the simulator source itself.  The cache therefore
keys each stored outcome by

* a canonical JSON encoding of the cell spec (computed by the caller,
  see :func:`repro.harness.executor.spec_key`), and
* a **source fingerprint**: one SHA-256 over the contents of every
  ``.py`` file of the installed ``repro`` package.

Any edit to the simulator — a timing constant, a scheme, the engine —
changes the fingerprint and silently invalidates every entry, so a
cache hit is always safe to trust bit-for-bit.  Entries live under a
plain directory (default ``.repro-cache/`` in the working directory)
as pickled payloads fanned out over 256 prefix shards; ``silo-repro
cache stats`` / ``silo-repro cache clear`` manage it from the CLI.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Default cache directory, overridable via ``$SILO_CACHE_DIR``.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump to orphan every existing entry after an incompatible layout change.
_FORMAT_VERSION = 1

#: Sentinel distinguishing "miss" from a legitimately-``None`` value.
MISS = object()

_FINGERPRINT_MEMO: Dict[str, str] = {}

#: Store labels that already printed a quarantine warning this process.
_QUARANTINE_WARNED: set = set()


def quarantine(path: Path, label: str) -> None:
    """Move a corrupt object file aside as ``<name>.corrupt``.

    The bad bytes are preserved for post-mortems instead of being
    overwritten by the rebuild, and the rename takes the entry off the
    store's read path so it is reported exactly once.  One warning per
    store label per process — a campaign re-reading a damaged cache
    must not flood stderr.
    """
    target = Path(str(path) + ".corrupt")
    try:
        os.replace(path, target)
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
    if label not in _QUARANTINE_WARNED:
        _QUARANTINE_WARNED.add(label)
        print(
            f"[{label}] quarantined corrupt entry {path.name} -> "
            f"{target.name}; treating as a miss and rebuilding "
            "(further quarantines this run are silent)",
            file=sys.stderr,
            flush=True,
        )


def load_pickle_hardened(path: Path, label: str):
    """Load one pickled object file, surviving any corruption.

    A missing file is a plain miss.  Anything else that goes wrong —
    truncated pickle, garbage bytes, an unpicklable class after a
    refactor, even a ``MemoryError`` from a hostile length prefix —
    quarantines the file (see :func:`quarantine`) and reads as a miss,
    so a damaged store entry can never crash a campaign.  Returns the
    value or :data:`MISS`.
    """
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except FileNotFoundError:
        return MISS
    except Exception:
        quarantine(path, label)
        return MISS


def content_digest(version: int, fingerprint: str, key: str) -> str:
    """The address of one store entry: SHA-256 over the store's format
    ``version``, the source ``fingerprint`` and the canonical ``key``.
    Shared by the result cache, the trace store and the journal."""
    h = hashlib.sha256()
    h.update(f"v{version}\0".encode())
    h.update(fingerprint.encode())
    h.update(b"\0")
    h.update(key.encode())
    return h.hexdigest()


def write_pickle_atomic(path: Path, value) -> None:
    """Pickle ``value`` to ``path`` through a temporary file in the same
    directory and an atomic rename (last writer wins), so a killed
    writer never leaves a truncated entry behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def objects_footprint(objects: Path) -> Tuple[int, int, int]:
    """``(entries, bytes, quarantined)`` of a sharded ``objects/`` tree:
    live ``*.pkl`` entries, their total size, and ``*.corrupt`` files."""
    if not objects.is_dir():
        return 0, 0, 0
    entries = 0
    total_bytes = 0
    for path in objects.rglob("*.pkl"):
        try:
            total_bytes += path.stat().st_size
        except OSError:
            continue
        entries += 1
    quarantined = sum(1 for _ in objects.rglob("*.corrupt"))
    return entries, total_bytes, quarantined


def clear_objects(objects: Path) -> int:
    """Delete every entry of a sharded ``objects/`` tree (quarantined
    ones included) and its empty shards; returns how many live entries
    were removed."""
    if not objects.is_dir():
        return 0
    removed = 0
    for path in objects.rglob("*.pkl"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            continue
    for path in objects.rglob("*.corrupt"):
        try:
            path.unlink()
        except OSError:
            continue
    for shard in sorted(objects.glob("*"), reverse=True):
        try:
            shard.rmdir()
        except OSError:
            continue
    return removed


def source_fingerprint(package_root: Optional[str] = None) -> str:
    """SHA-256 over the source of the ``repro`` package.

    Hashes file *contents* (not mtimes), so rebuilding an identical
    tree keeps the fingerprint and any semantic edit changes it.  The
    result is memoized per process — the tree is ~160 small files.
    """
    if package_root is None:
        import repro

        package_root = str(Path(repro.__file__).parent)
    root = str(Path(package_root))
    memo = _FINGERPRINT_MEMO.get(root)
    if memo is not None:
        return memo
    digest = hashlib.sha256()
    base = Path(root)
    for path in sorted(base.rglob("*.py"), key=lambda p: str(p.relative_to(base))):
        digest.update(str(path.relative_to(base)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    value = digest.hexdigest()
    _FINGERPRINT_MEMO[root] = value
    return value


def default_cache_dir() -> str:
    return os.environ.get("SILO_CACHE_DIR", DEFAULT_CACHE_DIR)


class ResultCache:
    """Pickle-backed object store addressed by (key, fingerprint).

    ``get``/``put`` take an opaque canonical key string; the digest
    folds in the source fingerprint and the on-disk format version, so
    callers never need to reason about invalidation.  A corrupt or
    truncated entry (e.g. a killed writer) reads as a miss, never as
    an error.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.root = Path(root if root is not None else default_cache_dir())
        self.fingerprint = (
            fingerprint if fingerprint is not None else source_fingerprint()
        )
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def digest(self, key: str) -> str:
        return content_digest(_FORMAT_VERSION, self.fingerprint, key)

    def _path(self, digest: str) -> Path:
        return self.root / "objects" / digest[:2] / f"{digest}.pkl"

    # ------------------------------------------------------------------
    # Store / load
    # ------------------------------------------------------------------
    def get(self, key: str):
        """Return the stored value for ``key`` or :data:`MISS`.

        A truncated or corrupt entry is quarantined (renamed to
        ``*.corrupt``) and reads as a miss — the cell simply recomputes
        and rewrites the slot."""
        path = self._path(self.digest(key))
        value = load_pickle_hardened(path, label="result cache")
        if value is MISS:
            self.misses += 1
            return MISS
        self.hits += 1
        return value

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` (atomic rename, last wins)."""
        write_pickle_atomic(self._path(self.digest(key)), value)

    # ------------------------------------------------------------------
    # Management
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Entry count and footprint of the directory, plus this
        process's hit/miss counters."""
        entries, total_bytes, quarantined = objects_footprint(
            self.root / "objects"
        )
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "quarantined": quarantined,
            "hits": self.hits,
            "misses": self.misses,
            "fingerprint": self.fingerprint[:16],
        }

    def clear(self) -> int:
        """Delete every entry (quarantined ones included); returns how
        many live entries were removed."""
        return clear_objects(self.root / "objects")

    def format_stats(self) -> str:
        s = self.stats()
        quarantined = (
            f", {s['quarantined']} quarantined" if s["quarantined"] else ""
        )
        return (
            f"cache {s['root']}: {s['entries']} entries, "
            f"{s['bytes'] / 1024:.1f} KiB{quarantined}, "
            f"fingerprint {s['fingerprint']} "
            f"(this process: {s['hits']} hits / {s['misses']} misses)"
        )
