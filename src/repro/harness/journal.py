"""Campaign checkpoint journal: incremental, resumable cell outcomes.

A long campaign (a litmus sweep, a faultsweep storm, an overnight
capacity run) must survive being killed: SIGINT, an OOM'd parent, a
machine reboot.  The executor's result cache already makes *successful*
cells cheap to recompute, but it never records failed cells, and a
``--no-cache``-adjacent crash still restarts a campaign from zero
bookkeeping.  This journal is the missing checkpoint:

* every **completed** cell outcome — ``kind == "ok"`` *and*
  deterministic ``kind == "error"`` cells — is written incrementally,
  the moment the executor finishes it (an atomic rename per entry, so
  a crash mid-write can never corrupt an earlier checkpoint);
* ``timeout``/``infra`` outcomes are **not** journaled: they describe
  the infrastructure, not the cell, and a resumed campaign must re-run
  them;
* entries are **content-addressed** exactly like the result cache
  (canonical cell-spec key + the package source fingerprint), so a
  journal can never serve a stale outcome after a simulator edit;
* journals live under ``<cache-root>/journal/<campaign-digest>/``,
  one directory per campaign identity (experiment name + resolved
  flags), next to the result cache they complement;
* ``silo-repro exp run --resume`` / ``faultsweep --resume`` attach the
  surviving journal and skip every journaled cell; a clean completion
  discards the journal (the result cache keeps the reusable outcomes).

Loads go through the same hardened path as the result cache: a
truncated or corrupt entry is quarantined as ``*.corrupt`` and simply
re-run, never crashing the resumed campaign.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Dict, Optional

from repro.harness.resultcache import (
    MISS,
    content_digest,
    default_cache_dir,
    load_pickle_hardened,
    source_fingerprint,
    write_pickle_atomic,
)

#: Bump to orphan every journal after an incompatible layout change.
_FORMAT_VERSION = 1


class CampaignJournal:
    """Incremental on-disk journal of one campaign's completed cells.

    ``root`` is the *cache* root (the journal nests under
    ``<root>/journal/``, so one ``--cache-dir`` governs all three
    stores); ``campaign`` is a caller-chosen stable identity string
    (experiment name + the flags that shape its cell list).  Two runs
    with the same campaign string, fingerprint and spec keys share a
    journal — which is exactly what ``--resume`` needs.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        campaign: str = "default",
        fingerprint: Optional[str] = None,
    ) -> None:
        self.campaign = campaign
        self.fingerprint = (
            fingerprint if fingerprint is not None else source_fingerprint()
        )
        digest = hashlib.sha256(
            f"v{_FORMAT_VERSION}\0{self.fingerprint}\0{campaign}".encode()
        ).hexdigest()[:32]
        base = Path(root if root is not None else default_cache_dir())
        self.root = base / "journal" / digest
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # Addressing (same digest scheme as the result cache)
    # ------------------------------------------------------------------
    def digest(self, key: str) -> str:
        return content_digest(_FORMAT_VERSION, self.fingerprint, key)

    def _path(self, digest: str) -> Path:
        return self.root / f"{digest}.pkl"

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def get(self, key: str):
        """The journaled outcome for one cell key, or :data:`MISS`."""
        value = load_pickle_hardened(self._path(self.digest(key)), "journal")
        if value is MISS:
            self.misses += 1
            return MISS
        self.hits += 1
        return value

    def put(self, key: str, outcome) -> None:
        """Checkpoint one completed outcome (atomic rename)."""
        self.root.mkdir(parents=True, exist_ok=True)
        self._write_meta_once()
        write_pickle_atomic(self._path(self.digest(key)), outcome)
        self.writes += 1

    def _write_meta_once(self) -> None:
        meta = self.root / "meta.json"
        if meta.exists():
            return
        payload = {
            "campaign": self.campaign,
            "fingerprint": self.fingerprint[:16],
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        with open(meta, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # ------------------------------------------------------------------
    # Management
    # ------------------------------------------------------------------
    def entries(self) -> int:
        """Completed cells currently journaled."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.pkl"))

    def write_partial_manifest(self, records) -> Optional[str]:
        """Drop a human-readable ``manifest.partial.json`` next to the
        entries: what completed before the campaign was interrupted.
        ``records`` is a list of JSON-able per-cell dicts."""
        if not self.root.is_dir():
            return None
        path = self.root / "manifest.partial.json"
        payload = {
            "campaign": self.campaign,
            "completed": len(records),
            "cells": records,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return str(path)

    def discard(self) -> int:
        """Delete the whole journal (a cleanly finished campaign needs
        no checkpoint); returns how many entries were dropped."""
        if not self.root.is_dir():
            return 0
        removed = 0
        for path in sorted(self.root.iterdir()):
            try:
                if path.suffix == ".pkl":
                    removed += 1
                path.unlink()
            except OSError:
                continue
        try:
            self.root.rmdir()
        except OSError:
            pass
        return removed

    def stats(self) -> Dict[str, object]:
        return {
            "root": str(self.root),
            "campaign": self.campaign,
            "entries": self.entries(),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
        }
