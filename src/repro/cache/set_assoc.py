"""A set-associative, write-back, LRU cache level."""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import Iterator, Optional

from repro.common.config import CacheConfig
from repro.common.stats import Stats
from repro.cache.line import CacheLine


class SetAssocCache:
    """One cache level; eviction returns the victim line to the caller."""

    def __init__(
        self, config: CacheConfig, name: str = "cache", stats: Optional[Stats] = None
    ) -> None:
        self.config = config
        self.name = name
        self.stats = stats if stats is not None else Stats()
        # Set index -> LRU-ordered bucket, created on first index: a
        # cell touches a few dozen of the L3's 8192 sets, so eager
        # buckets would dominate System() and the crash drop.  Plain
        # ``_sets[index]`` stays valid for the inlined hot paths.
        self._sets = defaultdict(OrderedDict)
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._line_shift = config.line_size.bit_length() - 1
        # Counter names are precomputed: lookups run on the hottest
        # path of the simulator and f-strings per access dominate it.
        self._k_hits = f"{name}.hits"
        self._k_misses = f"{name}.misses"
        self._k_evictions = f"{name}.evictions"
        self._k_dirty_evictions = f"{name}.dirty_evictions"
        # The live counter mapping, hoisted once (the Stats backing
        # Counter is stable for the object's lifetime).
        self._counters = self.stats.counters

    def _set_for(self, base: int) -> "OrderedDict[int, CacheLine]":
        return self._sets[(base >> self._line_shift) % self._num_sets]

    # ------------------------------------------------------------------
    # Lookup / insert / remove
    # ------------------------------------------------------------------
    def lookup(self, base: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line at ``base`` (LRU-touched) or None."""
        bucket = self._sets[(base >> self._line_shift) % self._num_sets]
        line = bucket.get(base)
        if line is None:
            self._counters[self._k_misses] += 1
            return None
        if touch:
            bucket.move_to_end(base)
        self._counters[self._k_hits] += 1
        return line

    def probe(self, base: int) -> Optional[CacheLine]:
        """Like :meth:`lookup` but without LRU or hit/miss accounting;
        used by design-driven flushes that are not demand accesses."""
        return self._sets[(base >> self._line_shift) % self._num_sets].get(base)

    def insert(self, line: CacheLine) -> Optional[CacheLine]:
        """Make ``line`` resident; returns an evicted victim, if any."""
        bucket = self._sets[(line.base >> self._line_shift) % self._num_sets]
        victim: Optional[CacheLine] = None
        if line.base not in bucket and len(bucket) >= self._ways:
            _, victim = bucket.popitem(last=False)
            counters = self._counters
            counters[self._k_evictions] += 1
            if victim.dirty:
                counters[self._k_dirty_evictions] += 1
        existing = bucket.get(line.base)
        if existing is not None:
            # Merge: the incoming line's words are newer only when the
            # caller says so; in this simulator inserts of an existing
            # base only happen when folding an upper-level victim into
            # a lower level, where the victim's words are newest.
            existing.dirty_words.update(line.dirty_words)
            bucket.move_to_end(line.base)
            return victim
        bucket[line.base] = line
        return victim

    def remove(self, base: int) -> Optional[CacheLine]:
        """Remove and return the line at ``base`` without write-back."""
        return self._set_for(base).pop(base, None)

    # ------------------------------------------------------------------
    # Iteration / inspection
    # ------------------------------------------------------------------
    def iter_lines(self) -> Iterator[CacheLine]:
        """Resident lines in set-index order, LRU-first within a set."""
        sets = self._sets
        for index in sorted(sets):
            yield from sets[index].values()

    def dirty_lines(self) -> Iterator[CacheLine]:
        return (line for line in self.iter_lines() if line.dirty)

    def resident(self, base: int) -> bool:
        return base in self._set_for(base)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._sets.values())

    def clear(self) -> None:
        """Discard every line in place; references to ``_sets`` stay live."""
        self._sets.clear()
