"""Three-level cache hierarchy with per-core L1/L2 and a shared L3.

The hierarchy provides timing (hit level determines access latency),
write-back traffic (dirty L3 victims flow to the memory controller) and
crash semantics (everything here is volatile).  Values are only held
for dirty words — see :mod:`repro.cache.line`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.config import SystemConfig
from repro.common.stats import Stats
from repro.cache.line import CacheLine
from repro.cache.set_assoc import SetAssocCache


class AccessResult:
    """Outcome of one hierarchy access.

    A ``__slots__`` class rather than a dataclass: one result object is
    allocated per simulated memory access.
    """

    __slots__ = ("latency", "hit_level", "writebacks")

    def __init__(
        self,
        latency: int,
        hit_level: str,
        writebacks: Optional[List[Tuple[int, Dict[int, int]]]] = None,
    ) -> None:
        self.latency = latency
        self.hit_level = hit_level
        #: Dirty lines pushed out of the hierarchy, destined for the
        #: MC: ``[(line_base, {word_addr: value}), ...]``.
        self.writebacks = writebacks if writebacks is not None else []

    def __repr__(self) -> str:  # parity with the dataclass it replaced
        return (
            f"AccessResult(latency={self.latency}, "
            f"hit_level={self.hit_level!r}, writebacks={self.writebacks})"
        )


class CacheHierarchy:
    """L1D + L2 per core, shared L3; write-allocate, write-back."""

    def __init__(
        self,
        config: SystemConfig,
        stats: Optional[Stats] = None,
        obs=None,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else Stats()
        self._obs = obs
        self._l1 = [
            SetAssocCache(config.l1, f"l1.core{c}", self.stats)
            for c in range(config.cores)
        ]
        self._l2 = [
            SetAssocCache(config.l2, f"l2.core{c}", self.stats)
            for c in range(config.cores)
        ]
        self._l3 = SetAssocCache(config.l3, "l3", self.stats)
        self._line_mask = ~(config.l1.line_size - 1)
        self._lat_l1 = config.l1.latency_cycles
        self._lat_l2 = config.l2.latency_cycles
        self._lat_l3 = config.l3.latency_cycles
        self._lat_pm = config.pm_read_cycles
        #: Shared result for the L1-hit case.  An L1 hit can never
        #: produce writebacks and callers treat results as read-only,
        #: so the overwhelmingly common outcome needs no allocation.
        self._l1_hit = AccessResult(self._lat_l1, "l1", ())

    # ------------------------------------------------------------------
    # Core-facing accesses
    # ------------------------------------------------------------------
    def store(self, core: int, addr: int, value: int) -> AccessResult:
        """A CPU store of one word; allocates the line in L1."""
        base = addr & self._line_mask
        line, result = self._fetch_into_l1(core, base)
        line.write_word(addr, value)
        return result

    def load(self, core: int, addr: int) -> AccessResult:
        """A CPU load; allocates the line in L1 (timing only)."""
        _, result = self._fetch_into_l1(core, addr & self._line_mask)
        return result

    def _fetch_into_l1(
        self, core: int, base: int
    ) -> Tuple[CacheLine, AccessResult]:
        # L1 lookup() inlined: this runs once per simulated access and
        # the overwhelming majority of accesses end right here.
        l1 = self._l1[core]
        bucket = l1._sets[(base >> l1._line_shift) % l1._num_sets]
        resident = bucket.get(base)
        if resident is not None:
            bucket.move_to_end(base)
            l1._counters[l1._k_hits] += 1
            return resident, self._l1_hit
        l1._counters[l1._k_misses] += 1
        result = AccessResult(latency=self._lat_l1, hit_level="l1")

        line = self._l2[core].remove(base)
        if line is not None:
            result.latency += self._lat_l2
            result.hit_level = "l2"
        else:
            result.latency += self._lat_l2
            line = self._l3.remove(base)
            if line is not None:
                result.latency += self._lat_l3
                result.hit_level = "l3"
            else:
                result.latency += self._lat_l3 + self._lat_pm
                result.hit_level = "pm"
                line = CacheLine(base)

        victim = self._l1[core].insert(line)
        if victim is not None:
            self._demote_to_l2(core, victim, result)
        return line, result

    def _demote_to_l2(self, core: int, line: CacheLine, result: AccessResult) -> None:
        victim = self._l2[core].insert(line)
        if victim is not None:
            self._demote_to_l3(victim, result)

    def _demote_to_l3(self, line: CacheLine, result: AccessResult) -> None:
        victim = self._l3.insert(line)
        if victim is not None and victim.dirty:
            words = victim.clean()
            obs = self._obs
            if obs is not None:
                obs.cache_writeback(len(words))
            result.writebacks.append((victim.base, words))

    # ------------------------------------------------------------------
    # Design-driven flushes
    # ------------------------------------------------------------------
    def writeback_line(self, core: int, base: int) -> Optional[Dict[int, int]]:
        """Write back (but keep resident) the dirty words of one line.

        Merges dirty words across levels with L1 taking priority, clears
        all dirty state for the line and returns the merged words, or
        ``None`` if the line is clean/absent everywhere.
        """
        # probe() inlined and the three levels unrolled: this runs once
        # per transactional store in the per-store flush designs, and
        # in the common case only one level holds dirty words — its
        # clean() dict is returned without an extra merge copy.
        merged: Optional[Dict[int, int]] = None
        cache = self._l3
        line = cache._sets[(base >> cache._line_shift) % cache._num_sets].get(base)
        if line is not None and line.dirty_words:
            merged = line.clean()
        cache = self._l2[core]
        line = cache._sets[(base >> cache._line_shift) % cache._num_sets].get(base)
        if line is not None and line.dirty_words:
            if merged is None:
                merged = line.clean()
            else:
                merged.update(line.clean())
        cache = self._l1[core]
        line = cache._sets[(base >> cache._line_shift) % cache._num_sets].get(base)
        if line is not None and line.dirty_words:
            if merged is None:
                merged = line.clean()
            else:
                merged.update(line.clean())
        return merged

    def is_dirty_in_l1(self, core: int, base: int) -> bool:
        line = self._l1[core].probe(base)
        return line is not None and line.dirty

    def drop_all(self) -> None:
        """Discard every cached line (a crash: caches are volatile)."""
        for level in (*self._l1, *self._l2, self._l3):
            level.clear()
