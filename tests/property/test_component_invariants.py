"""Property-based tests on the core data structures' invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from collections import Counter

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import CacheConfig, LogBufferConfig, SystemConfig
from repro.common.stats import Stats
from repro.hwlog.entry import LogEntry
from repro.hwlog.logbuffer import AppendResult, LogBuffer
from repro.mem.media import PMMedia
from repro.mem.onpm_buffer import OnPMBuffer

word_addr = st.integers(0, 1 << 20).map(lambda x: x * 8)
word_value = st.integers(0, (1 << 64) - 1)


class TestOnPMBufferFunctionalEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        writes=st.lists(st.tuples(word_addr, word_value), max_size=120),
        lines=st.integers(1, 8),
        through=st.lists(st.booleans(), max_size=120),
    )
    def test_buffer_plus_media_equals_direct_application(
        self, writes, lines, through
    ):
        """Whatever the buffer does (coalesce, evict, write through),
        after a drain the media must hold exactly the last value
        written to each word."""
        media = PMMedia(Stats())
        buffer = OnPMBuffer(media, lines=lines, stats=media.stats)
        expected = {}
        flags = through + [False] * (len(writes) - len(through))
        for (addr, value), wt in zip(writes, flags):
            buffer.write_words({addr: value}, write_through=wt)
            expected[addr] = value
        buffer.drain()
        for addr, value in expected.items():
            assert media.read_word(addr) == value

    @settings(max_examples=60, deadline=None)
    @given(writes=st.lists(st.tuples(word_addr, word_value), max_size=80))
    def test_sector_writes_never_exceed_requests_words(self, writes):
        media = PMMedia(Stats())
        buffer = OnPMBuffer(media, lines=4, stats=media.stats)
        for addr, value in writes:
            buffer.write_words({addr: value})
        buffer.drain()
        assert media.stats.get("media.sector_writes") <= len(writes)

    @settings(max_examples=40, deadline=None)
    @given(writes=st.lists(st.tuples(word_addr, word_value), max_size=60))
    def test_dcw_makes_replay_free(self, writes):
        """Re-applying the identical write stream must cost zero media
        sector writes (data-comparison-write)."""
        media = PMMedia(Stats())
        buffer = OnPMBuffer(media, lines=4, stats=media.stats)
        final = {}
        for addr, value in writes:
            buffer.write_words({addr: value})
            final[addr] = value
        buffer.drain()
        before = media.stats.get("media.sector_writes")
        buffer.write_words(final)
        buffer.drain()
        assert media.stats.get("media.sector_writes") == before


class TestLogBufferInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        stores=st.lists(
            st.tuples(st.integers(0, 30).map(lambda x: 0x1000 + 8 * x), word_value),
            min_size=1,
            max_size=60,
        ),
        capacity=st.integers(1, 24),
    )
    def test_at_most_one_entry_per_word_and_fifo_preserved(
        self, stores, capacity
    ):
        buf = LogBuffer(LogBufferConfig(entries=capacity), Stats())
        appended = []
        for addr, value in stores:
            entry = LogEntry(0, 1, addr, old=0, new=value)
            result = buf.offer(entry)
            if result is AppendResult.FULL:
                evicted = buf.pop_oldest(4)
                assert [e.addr for e in evicted] == appended[: len(evicted)]
                appended = appended[len(evicted):]
                assert buf.offer(entry) is not AppendResult.FULL
                appended.append(addr)
            elif result is AppendResult.APPENDED:
                appended.append(addr)
        addrs = [e.addr for e in buf.entries()]
        assert len(addrs) == len(set(addrs))  # one entry per word
        assert addrs == appended  # FIFO order intact
        assert len(buf) <= capacity

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(word_value, min_size=2, max_size=20),
    )
    def test_merge_keeps_oldest_old_and_newest_new(self, values):
        buf = LogBuffer(LogBufferConfig(entries=4), Stats())
        buf.offer(LogEntry(0, 1, 0x1000, old=values[0], new=values[1]))
        for prev, new in zip(values[1:], values[2:]):
            buf.offer(LogEntry(0, 1, 0x1000, old=prev, new=new))
        entry = buf.find(0x1000)
        assert entry.old == values[0]
        assert entry.new == values[-1]


class TestMediaInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        image=st.dictionaries(word_addr, word_value, max_size=40),
        rewrites=st.integers(1, 5),
    )
    def test_snapshot_reflects_last_writes(self, image, rewrites):
        media = PMMedia(Stats())
        for _ in range(rewrites):
            media.write_line(image)
        for addr, value in image.items():
            assert media.read_word(addr) == value

    @settings(max_examples=60, deadline=None)
    @given(image=st.dictionaries(word_addr, word_value, min_size=1, max_size=40))
    def test_diff_is_antisymmetric(self, image):
        a, b = PMMedia(Stats()), PMMedia(Stats())
        b.write_line(image)
        forward = a.diff(b)
        backward = b.diff(a)
        assert set(forward) == set(backward)
        for addr, (x, y) in forward.items():
            assert backward[addr] == (y, x)


#: Two cores over 2/4/8-set, 2-way levels: a few dozen lines conflict
#: in every set, so fills, evictions and write-backs all happen.
_SMALL_HIERARCHY = SystemConfig(
    cores=2,
    l1=CacheConfig(4 * 64, 2, latency_cycles=4),
    l2=CacheConfig(8 * 64, 2, latency_cycles=12),
    l3=CacheConfig(16 * 64, 2, latency_cycles=28),
)

cache_ops = st.lists(
    st.tuples(
        st.booleans(),  # store (else load)
        st.integers(0, 1),  # core
        st.integers(0, 47).map(lambda line: line * 64),
        st.integers(0, 7).map(lambda word: word * 8),
        word_value,
    ),
    max_size=120,
)


def _replay(hierarchy, ops):
    """Run ``ops``; return the access results and the stats delta."""
    before = Counter(hierarchy.stats.counters)
    results = []
    for is_store, core, base, offset, value in ops:
        if is_store:
            r = hierarchy.store(core, base + offset, value)
        else:
            r = hierarchy.load(core, base + offset)
        results.append((r.latency, r.hit_level, list(r.writebacks)))
    return results, Counter(hierarchy.stats.counters) - before


class TestCacheDropEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(fill=cache_ops, ops=cache_ops)
    def test_dropped_hierarchy_behaves_like_a_fresh_one(self, fill, ops):
        """A crash drop leaves no trace: after ``drop_all`` the same
        accesses see the same latencies, hit levels, write-backs and
        counter increments as on a freshly built hierarchy."""
        dropped = CacheHierarchy(_SMALL_HIERARCHY, Stats())
        _replay(dropped, fill)
        dropped.drop_all()
        fresh = CacheHierarchy(_SMALL_HIERARCHY, Stats())
        assert _replay(dropped, ops) == _replay(fresh, ops)
