"""Cross-cutting property-based tests on core invariants."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.ranges import ByteRange, RangeSet
from repro.core import BlockCache, TokenBucket
from repro.simcore import Simulator

ranges = st.tuples(
    st.integers(min_value=0, max_value=20_000),
    st.integers(min_value=1, max_value=3_000),
).map(lambda t: ByteRange(t[0], t[0] + t[1]))


@settings(max_examples=100, deadline=None)
@given(
    stores=st.lists(st.tuples(ranges, st.floats(0, 100)), max_size=20),
    query=ranges,
)
def test_cache_lookup_returns_only_stored_bytes(stores, query):
    """Every byte a lookup returns must have been stored, results must be
    disjoint, and all of them must lie inside the queried range."""
    cache = BlockCache(capacity_bytes=1 << 22, block_bytes=4096)
    stored = RangeSet()
    for rng, ts in stores:
        cache.store("f", rng, ts)
        stored.add(rng)
    hits = cache.lookup("f", query)
    seen = RangeSet()
    for rng, _ in hits:
        assert query.contains(rng)
        assert stored.contains(rng)
        assert not seen.overlaps(rng), "lookup results overlap"
        seen.add(rng)


@settings(max_examples=100, deadline=None)
@given(
    stores=st.lists(st.tuples(ranges, st.floats(0, 100)), max_size=20),
    query=ranges,
)
def test_cache_lookup_is_complete(stores, query):
    """A lookup returns *all* cached bytes of the query (no false misses),
    provided nothing was evicted (capacity is ample here)."""
    cache = BlockCache(capacity_bytes=1 << 22, block_bytes=4096)
    stored = RangeSet()
    for rng, ts in stores:
        cache.store("f", rng, ts)
        stored.add(rng)
    hits = cache.lookup("f", query)
    total_hit = sum(r.length for r, _ in hits)
    expected = query.length - sum(
        h.length for h in stored.missing_within(query)
    )
    assert total_hit == expected


@settings(max_examples=60, deadline=None)
@given(
    consumes=st.lists(st.integers(min_value=1, max_value=4_000), max_size=30),
    rate=st.floats(min_value=100.0, max_value=1e6),
)
def test_token_bucket_never_exceeds_budget(consumes, rate):
    """Tokens granted can never exceed burst + rate * elapsed."""
    sim = Simulator()
    burst = 5_000.0
    bucket = TokenBucket(sim, rate, burst_bytes=burst)
    granted = 0
    t = 0.0
    for i, nbytes in enumerate(consumes):
        t += 0.01
        sim.schedule_at(t, lambda: None)
        sim.run(until=t)
        if bucket.try_consume(nbytes):
            granted += nbytes
        assert granted <= burst + rate * t + 1e-6


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=1e-4, max_value=5.0), min_size=1, max_size=50))
def test_rto_estimator_stays_in_bounds(samples):
    from repro.common.rto import RtoEstimator

    est = RtoEstimator(min_rto_s=0.1, max_rto_s=10.0)
    for s in samples:
        est.on_sample(s)
        assert 0.1 <= est.rto_s <= 10.0
        assert est.srtt_s is not None and est.srtt_s > 0


# ----------------------------------------------------------------------
# Per-packet primitives against straightforward reference models.  The
# primitives carry fast paths (single-block stores, lazy lookup state,
# in-order SHR arrivals, one replenish per paced decision); each model
# below is the plain algorithm with no fast path, and must agree exactly.
# ----------------------------------------------------------------------


def _intervals(points: set) -> list[tuple[int, int]]:
    """Sorted maximal runs of ``points`` as half-open (start, end)."""
    out: list[tuple[int, int]] = []
    for p in sorted(points):
        if out and out[-1][1] == p:
            out[-1] = (out[-1][0], p + 1)
        else:
            out.append((p, p + 1))
    return out


class _RefBlock:
    def __init__(self, seq: int) -> None:
        self.points: set = set()
        self.origins: list = []  # ((start, end), ts, writer)
        self.tick = self.freq = 0
        self.seq = seq


class _RefCache:
    """BlockCache semantics over sets of byte offsets."""

    def __init__(self, capacity, block_bytes, eviction, max_origins):
        self.capacity = capacity
        self.bb = block_bytes
        self.eviction = eviction
        self.max_origins = max_origins
        self.blocks: dict = {}  # insertion order == LRU order
        self.ticks = 0
        self.stored = 0
        self.stats = dict(
            lookups=0, hits=0, partial_hits=0, insertions=0, evictions=0,
            lookup_bytes=0, hit_bytes=0, cross_hits=0, cross_hit_bytes=0,
        )

    def _touch(self, key):
        block = self.blocks.pop(key)
        self.blocks[key] = block
        self.ticks += 1
        block.tick = self.ticks
        block.freq += 1
        return block

    def _span(self, start, end):
        return range(start // self.bb, (end - 1) // self.bb + 1)

    def store(self, key, start, end, ts, writer):
        self.stats["insertions"] += 1
        for bidx in self._span(start, end):
            bkey = (key, bidx)
            if bkey not in self.blocks:
                self.blocks[bkey] = _RefBlock(0)
                self._touch(bkey)
                self.blocks[bkey].seq = self.ticks
            else:
                self._touch(bkey)
            block = self.blocks[bkey]
            lo = max(start, bidx * self.bb)
            hi = min(end, (bidx + 1) * self.bb)
            before = len(block.points)
            block.points |= set(range(lo, hi))
            self.stored += len(block.points) - before
            block.origins.append(((lo, hi), ts, writer))
            if len(block.origins) > self.max_origins:
                oldest = min(o[1] for o in block.origins)
                writers = {o[2] for o in block.origins}
                w = writers.pop() if len(writers) == 1 else None
                block.origins = [
                    (iv, oldest, w) for iv in _intervals(block.points)
                ]
        while self.stored > self.capacity and self.blocks:
            if self.eviction == "lfu":
                victim = min(
                    self.blocks,
                    key=lambda k: (self.blocks[k].freq, self.blocks[k].seq),
                )
            else:
                victim = next(iter(self.blocks))
            self.stored -= len(self.blocks.pop(victim).points)
            self.stats["evictions"] += 1

    def lookup(self, key, start, end, requester):
        self.stats["lookups"] += 1
        self.stats["lookup_bytes"] += end - start
        remaining = set(range(start, end))
        found, cross = [], 0
        for bidx in self._span(start, end):
            bkey = (key, bidx)
            if bkey not in self.blocks:
                continue
            block = self._touch(bkey)
            for (lo, hi), ts, writer in reversed(block.origins):
                got = remaining & set(range(max(lo, start), min(hi, end)))
                for sub in _intervals(got):
                    found.append((sub, ts))
                    if requester is not None and writer not in (None, requester):
                        cross += sub[1] - sub[0]
                remaining -= got
        if found:
            total = sum(e - s for (s, e), _ in found)
            self.stats["hit_bytes"] += total
            if cross:
                self.stats["cross_hits"] += 1
                self.stats["cross_hit_bytes"] += cross
            self.stats["hits" if total >= end - start else "partial_hits"] += 1
        return found


_cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["store", "lookup"]),
        st.sampled_from(["a", "b"]),                  # cache key
        st.integers(min_value=0, max_value=1_000),    # start
        st.integers(min_value=1, max_value=600),      # length
        st.sampled_from(["f1", "f2", None]),          # writer / requester
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@example(  # a newer piece clips an older one inside the looked-up range
    ops=[("store", "a", 0, 100, None), ("store", "a", 50, 100, None),
         ("lookup", "a", 0, 150, None)],
    capacity=3_000, block_bytes=1000, eviction="lru", max_origins=4,
)
@given(
    ops=_cache_ops,
    capacity=st.integers(min_value=200, max_value=3_000),
    block_bytes=st.sampled_from([64, 256, 1000]),
    eviction=st.sampled_from(["lru", "lfu"]),
    max_origins=st.integers(min_value=1, max_value=4),
)
def test_block_cache_matches_reference_model(
    ops, capacity, block_bytes, eviction, max_origins
):
    """Coverage, ``stored_bytes``, stats, eviction victims, compaction and
    lookup results all equal a set-based model, on overlapping
    multi-block ranges under memory pressure."""
    cache = BlockCache(capacity, block_bytes, eviction=eviction)
    cache.MAX_ORIGINS_PER_BLOCK = max_origins
    ref = _RefCache(capacity, block_bytes, eviction, max_origins)
    for i, (op, key, start, length, who) in enumerate(ops):
        rng = ByteRange(start, start + length)
        if op == "store":
            cache.store(key, rng, float(i), writer=who)
            ref.store(key, start, start + length, float(i), who)
        else:
            got = cache.lookup(key, rng, requester=who)
            want = ref.lookup(key, start, start + length, who)
            assert [((r.start, r.end), ts) for r, ts in got] == want
        assert cache.stored_bytes == ref.stored
        assert list(cache._blocks) == list(ref.blocks)
        for bkey, block in cache._blocks.items():
            rblock = ref.blocks[bkey]
            assert [(iv.start, iv.end) for iv in block.coverage] == (
                _intervals(rblock.points)
            )
            assert [((r.start, r.end), ts, w) for r, ts, w in block.origins] == (
                rblock.origins
            )
            assert (block.tick, block.freq, block.seq) == (
                rblock.tick, rblock.freq, rblock.seq
            )
        assert vars(cache.stats) == ref.stats


class _RefShr:
    """Algorithm 1 exactly as written: every arrival takes the general path."""

    def __init__(self, threshold, max_holes):
        self.threshold = threshold
        self.max_holes = max_holes
        self.last_byte = None
        self.holes: list = []  # [start, end, count]

    def on_packet(self, rs, re):
        announce, request = [], []
        if self.last_byte is None:
            self.last_byte = rs
        if rs > self.last_byte:
            announce.append((self.last_byte, rs))
            if len(self.holes) < self.max_holes:
                self.holes.append([self.last_byte, rs, 0])
        elif rs < self.last_byte:
            kept = []
            for hs, he, c in self.holes:
                if not (hs < re and rs < he):
                    kept.append([hs, he, c])
                    continue
                if hs < rs:
                    kept.append([hs, rs, c])
                if re < he:
                    kept.append([re, he, c])
            self.holes = kept
        still = []
        for hole in self.holes:
            if rs > hole[1]:
                hole[2] += 1
                if hole[2] > self.threshold:
                    request.append((hole[0], hole[1]))
                    continue
            still.append(hole)
        self.holes = still
        self.last_byte = max(self.last_byte, re)
        return announce, request


#: Arrival orders: mostly-in-order walks (steps of -2..+3 chunks give
#: reordering, duplicates and gaps) or arbitrary chunk sequences.
_arrivals = st.one_of(
    st.lists(st.integers(min_value=-2, max_value=3), max_size=60).map(
        lambda steps: [max(0, sum(steps[: i + 1])) for i in range(len(steps))]
    ),
    st.lists(st.integers(min_value=0, max_value=30), max_size=60),
)


@settings(max_examples=200, deadline=None)
@given(
    order=_arrivals,
    chunk=st.sampled_from([1, 100, 1400]),
    threshold=st.integers(min_value=1, max_value=4),
    max_holes=st.sampled_from([2, 1024]),
)
def test_shr_fast_path_matches_general_path(order, chunk, threshold, max_holes):
    """In-order arrivals skip the general path; actions, ``last_byte`` and
    open holes must be what the plain algorithm gives, and an empty action
    list must still compare equal to ``[]``."""
    from repro.core.shr import SeqHoleDetector

    shr = SeqHoleDetector(threshold, max_holes)
    ref = _RefShr(threshold, max_holes)
    for idx in order:
        rs, re = idx * chunk, (idx + 1) * chunk
        actions = shr.on_packet(ByteRange(rs, re))
        announce, request = ref.on_packet(rs, re)
        assert actions.announce == [ByteRange(*h) for h in announce]
        assert actions.request == [ByteRange(*h) for h in request]
        assert shr.last_byte == ref.last_byte
        assert [(h.start, h.end) for h in shr.open_holes] == [
            (hs, he) for hs, he, _ in ref.holes
        ]


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["consume", "delay", "rate", "peek"]),
            st.floats(min_value=0.0, max_value=0.05),      # time step
            st.integers(min_value=1, max_value=6_000),     # bytes
            st.floats(min_value=100.0, max_value=1e7),     # new rate
        ),
        max_size=50,
    ),
    rate=st.floats(min_value=100.0, max_value=1e7),
    burst=st.floats(min_value=1_000.0, max_value=10_000.0),
)
def test_token_bucket_matches_reference_model(ops, rate, burst):
    """Consume/delay/set_rate sequences give bit-identical answers to the
    textbook bucket that replenishes on every operation."""
    sim = Simulator()
    bucket = TokenBucket(sim, rate, burst_bytes=burst)
    tokens, last, ref_rate = burst, 0.0, rate

    def replenish(now):
        return min(burst, tokens + (now - last) * ref_rate), now

    for op, dt, nbytes, new_rate in ops:
        t = sim.now + dt
        sim.schedule_at(t, lambda: None)
        sim.run(until=t)
        now = sim.now
        if op == "peek":
            assert bucket.tokens_available == min(
                burst, tokens + (now - last) * ref_rate
            )
            continue
        tokens, last = replenish(now)
        if op == "consume":
            ok = tokens >= nbytes
            if ok:
                tokens -= nbytes
            assert bucket.try_consume(nbytes) is ok
        elif op == "delay":
            want = max((nbytes - tokens) / ref_rate, 0.0)
            assert bucket.delay_until_available(nbytes) == want
        else:
            bucket.set_rate(new_rate)
            ref_rate = new_rate
        assert bucket.tokens_available == tokens


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["add", "add", "remove"]), ranges), max_size=40,
))
def test_rangeset_add_returns_new_bytes(ops):
    """``add`` returns the bytes it newly covered (the growth of len)."""
    rs = RangeSet()
    for op, rng in ops:
        before = len(rs)
        if op == "add":
            missing = sum(h.length for h in rs.missing_within(rng))
            assert rs.add(rng) == missing == len(rs) - before
        else:
            rs.remove(rng)
