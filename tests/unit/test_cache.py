"""Unit tests for the cache line, set-associative level and hierarchy."""

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.line import CacheLine
from repro.cache.set_assoc import SetAssocCache
from repro.common.config import CacheConfig, SystemConfig
from repro.common.stats import Stats
from repro.sim.system import System


class TestCacheLine:
    def test_clean_on_creation(self):
        line = CacheLine(0x1000)
        assert not line.dirty

    def test_write_word_marks_dirty(self):
        line = CacheLine(0x1000)
        line.write_word(0x1008, 42)
        assert line.dirty
        assert line.dirty_words == {0x1008: 42}

    def test_clean_returns_and_clears(self):
        line = CacheLine(0x1000)
        line.write_word(0x1000, 1)
        words = line.clean()
        assert words == {0x1000: 1}
        assert not line.dirty

    def test_repr_shows_state(self):
        line = CacheLine(0x1000)
        assert "clean" in repr(line)
        line.write_word(0x1000, 1)
        assert "dirty" in repr(line)


def small_cache(sets=2, ways=2):
    cfg = CacheConfig(size_bytes=sets * ways * 64, ways=ways, latency_cycles=1)
    return SetAssocCache(cfg, "t", Stats())


class TestSetAssocCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(0x1000) is None
        cache.insert(CacheLine(0x1000))
        assert cache.lookup(0x1000) is not None
        assert cache.stats.get("t.hits") == 1
        assert cache.stats.get("t.misses") == 1

    def test_lru_eviction_returns_victim(self):
        cache = small_cache(sets=1, ways=2)
        cache.insert(CacheLine(0x000))
        cache.insert(CacheLine(0x040))
        victim = cache.insert(CacheLine(0x080))
        assert victim is not None and victim.base == 0x000

    def test_lookup_refreshes_lru(self):
        cache = small_cache(sets=1, ways=2)
        cache.insert(CacheLine(0x000))
        cache.insert(CacheLine(0x040))
        cache.lookup(0x000)
        victim = cache.insert(CacheLine(0x080))
        assert victim.base == 0x040

    def test_dirty_eviction_counted(self):
        cache = small_cache(sets=1, ways=1)
        dirty = CacheLine(0x000)
        dirty.write_word(0x000, 1)
        cache.insert(dirty)
        cache.insert(CacheLine(0x040))
        assert cache.stats.get("t.dirty_evictions") == 1

    def test_remove_without_writeback(self):
        cache = small_cache()
        cache.insert(CacheLine(0x1000))
        line = cache.remove(0x1000)
        assert line.base == 0x1000
        assert cache.remove(0x1000) is None

    def test_probe_does_not_touch_stats(self):
        cache = small_cache()
        cache.insert(CacheLine(0x1000))
        cache.probe(0x1000)
        cache.probe(0x2000)
        assert cache.stats.get("t.hits") == 0
        assert cache.stats.get("t.misses") == 0

    def test_len_and_iter(self):
        cache = small_cache()
        cache.insert(CacheLine(0x000))
        cache.insert(CacheLine(0x040))
        assert len(cache) == 2
        assert {l.base for l in cache.iter_lines()} == {0x000, 0x040}

    def test_dirty_lines_filter(self):
        cache = small_cache()
        clean = CacheLine(0x000)
        dirty = CacheLine(0x040)
        dirty.write_word(0x040, 1)
        cache.insert(clean)
        cache.insert(dirty)
        assert [l.base for l in cache.dirty_lines()] == [0x040]


class TestLazySets:
    """Set buckets materialise on first touch; order and crash
    semantics are those of the eager one-bucket-per-set layout."""

    def test_fresh_system_has_no_buckets(self):
        h = System(SystemConfig.table2(8)).hierarchy
        for level in (*h._l1, *h._l2, h._l3):
            assert len(level._sets) == 0, level.name
            assert len(level) == 0

    def test_iteration_is_in_set_index_order(self):
        cache = small_cache(sets=4, ways=2)
        # Reverse set order: sets 3, 2, 1, 0, then a second way each.
        bases = [s * 64 for s in (3, 2, 1, 0)] + [(4 + s) * 64 for s in (3, 2, 1, 0)]
        for base in bases:
            line = CacheLine(base)
            line.write_word(base, base)
            cache.insert(line)
        expected = [0x000, 0x100, 0x040, 0x140, 0x080, 0x180, 0x0C0, 0x1C0]
        assert [l.base for l in cache.iter_lines()] == expected
        assert [l.base for l in cache.dirty_lines()] == expected

    def test_drop_all_clears_in_place(self):
        h = CacheHierarchy(SystemConfig.table2(cores=2), Stats())
        stats = h.stats
        held = [level._sets for level in (*h._l1, *h._l2, h._l3)]
        for core in (0, 1):
            for i in range(64):
                h.store(core, 0x10000 + i * 4096, i)
        before = stats.as_dict()
        assert any(len(level) for level in (*h._l1, *h._l2, h._l3))
        h.drop_all()
        assert h.stats is stats
        assert stats.as_dict() == before
        for ref, level in zip(held, (*h._l1, *h._l2, h._l3)):
            assert level._sets is ref
            assert len(ref) == 0 and len(level) == 0
        h.store(0, 0x1000, 1)
        assert len(held[0]) == 1  # the held reference sees new fills


class TestHierarchy:
    def make(self, cores=2):
        return CacheHierarchy(SystemConfig.table2(cores=cores), Stats())

    def test_first_store_misses_to_pm(self):
        h = self.make()
        result = h.store(0, 0x1000, 1)
        assert result.hit_level == "pm"
        assert result.latency >= 100  # includes the PM read

    def test_second_store_hits_l1(self):
        h = self.make()
        h.store(0, 0x1000, 1)
        result = h.store(0, 0x1008, 2)
        assert result.hit_level == "l1"
        assert result.latency == 4

    def test_load_timing_only(self):
        h = self.make()
        h.store(0, 0x1000, 1)
        result = h.load(0, 0x1000)
        assert result.hit_level == "l1"

    def test_private_l1_per_core(self):
        h = self.make()
        h.store(0, 0x1000, 1)
        result = h.load(1, 0x1000)
        assert result.hit_level != "l1"

    def test_writeback_line_merges_and_cleans(self):
        h = self.make()
        h.store(0, 0x1000, 1)
        h.store(0, 0x1008, 2)
        words = h.writeback_line(0, 0x1000)
        assert words == {0x1000: 1, 0x1008: 2}
        assert h.writeback_line(0, 0x1000) is None  # now clean

    def test_writeback_missing_line_is_none(self):
        h = self.make()
        assert h.writeback_line(0, 0xDEAD000 & ~63) is None

    def test_is_dirty_in_l1(self):
        h = self.make()
        h.store(0, 0x1000, 1)
        assert h.is_dirty_in_l1(0, 0x1000)
        h.writeback_line(0, 0x1000)
        assert not h.is_dirty_in_l1(0, 0x1000)

    def test_eviction_cascade_produces_writebacks(self):
        """Fill far more lines than L1+L2 can hold and verify dirty
        victims eventually leave the hierarchy."""
        cfg = SystemConfig(
            cores=1,
            l1=CacheConfig(2 * 64, 1, latency_cycles=4),
            l2=CacheConfig(4 * 64, 1, latency_cycles=12),
            l3=CacheConfig(8 * 64, 1, latency_cycles=28),
        )
        h = CacheHierarchy(cfg, Stats())
        writebacks = []
        for i in range(64):
            result = h.store(0, i * 64, i)
            writebacks.extend(result.writebacks)
        assert writebacks, "expected dirty L3 victims"
        base, words = writebacks[0]
        assert words  # dirty data travels with the victim

    def test_drop_all_clears_everything(self):
        h = self.make()
        h.store(0, 0x1000, 1)
        h.drop_all()
        assert h.writeback_line(0, 0x1000) is None
        result = h.load(0, 0x1000)
        assert result.hit_level == "pm"
