"""Property tests: the incremental decision structures match their naive twins.

The victim index must return the *exact* victim sequence the naive
filter-and-sort produces for every ordering mode (value density, cost_d,
LRU) under arbitrary add/remove/re-key interleavings, the epoch cost
cache must serve hits only while its invalidation contract says the
cached value is still current, and touches routed to the executors that
hold each block must leave every index exactly as stale as a broadcast
to every index would.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster.blocks import Block
from repro.cluster.cluster import Cluster
from repro.config import BlazeConfig, ClusterConfig, DiskConfig, GiB, MiB
from repro.core.cost_lineage import CostLineage
from repro.core.cost_model import CostModel
from repro.core.decision_cache import DecisionCostCache, VictimIndex
from repro.core.udl import BlazeCacheManager
from repro.metrics.collector import TaskMetrics


# ----------------------------------------------------------------------
# Victim index vs. the naive sort
# ----------------------------------------------------------------------
def _make_block(rdd_id: int, split: int, size: float, seq: int) -> Block:
    return Block(
        block_id=(rdd_id, split),
        data=[],
        size_bytes=size,
        policy_data={"seq": seq},
    )


def _naive_select(blocks, key_of, needed_bytes, incoming_rdd_id):
    """The reference: filter, full sort, greedy accumulate (udl naive path)."""
    eligible = [b for b in blocks.values() if b.rdd_id != incoming_rdd_id]
    eligible.sort(key=lambda b: (key_of(b), b.policy_data.get("seq", 0), b.block_id))
    victims, freed = [], 0.0
    for candidate in eligible:
        if freed >= needed_bytes:
            break
        victims.append(candidate)
        freed += candidate.size_bytes
    return victims if freed >= needed_bytes else None


# Each op is (kind, block_slot, payload); slots address a small universe of
# block ids so adds/removes/re-keys collide in interesting ways.
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "rekey", "rekey_unstable", "bump_version", "select"]),
        st.integers(min_value=0, max_value=11),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


def _run_mode(mode: str, ops) -> None:
    """Drive index + naive reference through one op sequence, comparing
    every selection.  Key semantics per mode:

    - ``blaze``:     key = value / size (value mutable, stability varies)
    - ``costaware``: key = cost_d (mutable, stability varies)
    - ``autocache``: key = last_access (always stable, touch-to-front)
    """
    universe = [(rdd, split) for rdd in range(4) for split in range(3)]
    values: dict = {}
    stables: dict = {}

    def key_fn(block):
        bid = block.block_id
        if mode == "autocache":
            return block.last_access, True
        if mode == "costaware":
            return values[bid], stables[bid]
        return values[bid] / block.size_bytes, stables[bid]

    index = VictimIndex(key_fn)
    live: dict = {}
    version, touch_count, seq, clock = 0, 0, 0, 0.0

    for kind, slot, payload in ops:
        bid = universe[slot]
        if kind == "add":
            if bid in live:
                continue
            seq += 1
            block = _make_block(bid[0], bid[1], size=10.0 + slot, seq=seq)
            values[bid] = payload
            stables[bid] = slot % 2 == 0
            live[bid] = block
            index.add(block)
            clock += 1.0
            block.touch(clock)  # the driver touches right after insertion
            touch_count += 1  # residency changed
        elif kind == "remove":
            if live.pop(bid, None) is None:
                continue
            index.remove(bid)
            touch_count += 1
        elif kind == "rekey":
            if bid not in live:
                continue
            if mode == "autocache":
                clock += 1.0
                live[bid].touch(clock)
            else:
                values[bid] = payload
            index.mark_block(bid)
            touch_count += 1
        elif kind == "rekey_unstable":
            # Contract: values that consulted an estimate may shift on ANY
            # touch without a per-block mark; ensure_current must re-stale
            # them off the touch counter alone.
            if mode == "autocache" or bid not in live or stables.get(bid, True):
                continue
            values[bid] = payload
            touch_count += 1
        elif kind == "bump_version":
            version += 1
        else:  # select
            needed = payload + 1.0
            index.ensure_current(version, touch_count)
            got, _scanned = index.select(needed, incoming_rdd_id=slot % 4)
            want = _naive_select(live, lambda b: key_fn(b)[0], needed, slot % 4)
            assert got == want, (mode, kind, slot, payload)

    index.ensure_current(version, touch_count)
    got, _ = index.select(5.0, incoming_rdd_id=-1)
    want = _naive_select(live, lambda b: key_fn(b)[0], 5.0, -1)
    assert got == want


@settings(max_examples=120, deadline=None)
@given(ops=ops_strategy)
def test_index_matches_naive_blaze_ordering(ops):
    _run_mode("blaze", ops)


@settings(max_examples=120, deadline=None)
@given(ops=ops_strategy)
def test_index_matches_naive_costaware_ordering(ops):
    _run_mode("costaware", ops)


@settings(max_examples=120, deadline=None)
@given(ops=ops_strategy)
def test_index_matches_naive_lru_ordering(ops):
    _run_mode("autocache", ops)


# ----------------------------------------------------------------------
# Epoch memo invalidation
# ----------------------------------------------------------------------
def _chain_cache(splits: int = 2):
    """Chain 0 -> 1 -> 2, all partitions observed, mutable residency."""
    lin = CostLineage()
    lin.register_rdd(0, (), splits)
    lin.register_rdd(1, (0,), splits)
    lin.register_rdd(2, (1,), splits)
    for rdd in range(3):
        for split in range(splits):
            lin.observe_partition(
                rdd, split, size_bytes=(rdd + 1) * 10 * MiB, compute_seconds=float(rdd + 1)
            )
    residency: dict = {}

    def state_fn(rdd_id, split):
        return residency.get((rdd_id, split), "gone")

    cache = DecisionCostCache(
        lin, CostModel(lin, DiskConfig()), state_fn, holders=lambda pair: ()
    )
    return lin, cache, residency


def test_memo_serves_hits_until_touch():
    lin, cache, residency = _chain_cache()
    first = cache.cost_r(2, 0)
    assert cache.cost_r(2, 0) == first  # second call is a pure memo hit
    assert (2, 0) in cache._cr

    # Residency of an ancestor partition changes: the dependent entry must
    # recompute and see the new state.
    residency[(1, 0)] = "mem"
    cache.touch(1, 0)
    assert cache.cost_r(2, 0) < first

    # The congruent partition of the *other* split never depended on
    # (1, 0); its entry must still validate.
    before = cache.cost_r(2, 1)
    residency[(1, 0)] = "gone"
    cache.touch(1, 0)
    assert cache.cost_r(2, 1) == before
    entry = cache._cr[(2, 1)]
    value, hit = cache._lookup(cache._cr, 2, 1)
    assert hit and value == entry[0]


def test_touch_invalidates_exactly_reachable_partitions():
    _lin, cache, _residency = _chain_cache()
    for rdd in range(3):
        for split in range(2):
            cache.cost_r(rdd, split)
    cache.touch(0, 1)
    # split 1 of every descendant is stale, split 0 everywhere still valid
    for rdd in range(3):
        assert cache._lookup(cache._cr, rdd, 0)[1]
        assert not cache._lookup(cache._cr, rdd, 1)[1]


def test_lineage_version_change_invalidates_everything():
    lin, cache, _residency = _chain_cache()
    cache.cost_r(2, 0)
    lin.register_rdd(3, (2,), 2)  # structure change bumps lineage.version
    assert not cache._lookup(cache._cr, 2, 0)[1]


def test_unobserved_estimates_are_volatile():
    lin = CostLineage()
    lin.register_rdd(0, (), 2)
    lin.register_rdd(1, (0,), 2)
    lin.observe_partition(0, 0, size_bytes=10 * MiB, compute_seconds=1.0)
    lin.observe_partition(1, 0, size_bytes=20 * MiB, compute_seconds=2.0)
    cache = DecisionCostCache(
        lin, CostModel(lin, DiskConfig()), lambda r, s: "gone",
        holders=lambda pair: (),
    )

    # (1, 1) is unobserved: its costs lean on estimates, so the entry is
    # stamped volatile and must die on a touch of an *unrelated* partition.
    cache.cost_r(1, 1)
    assert cache._cr[(1, 1)][3] is not None  # volatile stamp
    cache.touch(0, 0)
    assert not cache._lookup(cache._cr, 1, 1)[1]

    # The fully observed partition survives the same touch of a partition
    # outside its dependency cone.
    cache.cost_r(1, 0)
    assert cache._cr[(1, 0)][3] is None
    cache.touch(0, 1)
    assert cache._lookup(cache._cr, 1, 0)[1]


# ----------------------------------------------------------------------
# Holder-routed touch marks vs. the broadcast to every index
# ----------------------------------------------------------------------
class _BroadcastCache(DecisionCostCache):
    """Reference: the touch that marked every pair in every index."""

    def touch(self, rdd_id: int, split: int, residency: bool = False) -> None:
        self.touch_count += 1
        if self.consulted:
            pairs = self._affected_pairs(rdd_id, split)
            dirty = self._dirty
            for pair in pairs:
                dirty[pair] = dirty.get(pair, 0) + 1
        elif residency:
            return
        else:
            pairs = ((rdd_id, split),)
        for index in self.indexes.values():
            if index.sensitivity != "marks":
                for pair in pairs:
                    index.mark_block(pair)


#: (rdd, parents, splits): co-partitioned, widening and narrowing edges
_LINEAGE = ((0, (), 4), (1, (0,), 4), (2, (1,), 2), (3, (0, 2), 6), (4, (3,), 3))

#: full Blaze ("version" keys), +CostAware ("touch"), and a config whose
#: costs are never consulted (touches mark only the partition itself)
_MARK_CONFIGS = (
    BlazeConfig(),
    BlazeConfig(admission_enabled=False, ilp_enabled=False),
    BlazeConfig(
        admission_enabled=False, ilp_enabled=False,
        recompute_option_enabled=False,
    ),
)


class _World:
    """One cluster + incremental Blaze manager driven by the op sequence."""

    def __init__(self, config: BlazeConfig, broadcast: bool, directory_first: bool):
        self.cluster = Cluster(ClusterConfig(
            num_executors=3, slots_per_executor=1,
            memory_store_bytes=1 * MiB,
            disk=DiskConfig(capacity_bytes=1 * GiB),
        ))
        self.manager = BlazeCacheManager(config=config)
        self.manager.attach(self.cluster)
        for rdd_id, parents, splits in _LINEAGE:
            self.manager.lineage.register_rdd(rdd_id, parents, splits)
        self.broadcast = broadcast
        self.directory_first = directory_first
        self._patch()
        for executor in self.cluster.executors:
            self._order_listeners(executor)

    def _patch(self) -> None:
        if self.broadcast:
            self.manager._cache.__class__ = _BroadcastCache

    def _order_listeners(self, executor) -> None:
        """Optionally notify the directory *after* the decision layer, so
        a just-added block is marked before the directory knows it."""
        if not self.directory_first:
            listeners = executor.bm.residency_listeners
            listeners.remove(self.cluster.directory)
            listeners.append(self.cluster.directory)

    def apply(self, kind: str, eid: int, rdd_id: int, split: int) -> None:
        cluster, manager = self.cluster, self.manager
        executor = cluster.executors[eid % len(cluster.executors)]
        bm = executor.bm
        block_id = (rdd_id, split % _LINEAGE[rdd_id][2])
        where = bm.location_of(block_id)
        size = (100 + 37 * rdd_id + 11 * split) * 1024.0
        if kind == "admit" and where is None and bm.memory.fits(size):
            bm.insert_memory(Block(block_id=block_id, data=[], size_bytes=size))
        elif kind == "disk_insert" and where is None:
            bm.insert_disk(
                Block(block_id=block_id, data=[], size_bytes=size), TaskMetrics()
            )
        elif kind == "evict":
            victim = next(iter(bm.memory.blocks()), None)
            if victim is not None:
                bm.discard(victim.block_id, evicted=True)
        elif kind == "spill":
            victim = next(iter(bm.memory.blocks()), None)
            if victim is not None:
                bm.spill_to_disk(victim.block_id, TaskMetrics())
        elif kind == "promote":
            block = next(iter(bm.disk.blocks()), None)
            if block is not None:
                bm.promote_to_memory(block.block_id)
        elif kind == "lose" and where is not None:
            bm.purge_lost(block_id)
        elif kind == "observe":
            manager._cache.touch(*block_id)
        elif kind == "select":
            # a selection pass repairs and clears each index's stale set
            for index in manager._indexes.values():
                index._stale.clear()
        elif kind == "fleet_changed":
            manager.on_fleet_changed()
            self._patch()
        elif kind == "add_executor" and len(cluster.executors) < 5:
            new = cluster.activate_executor()
            manager.on_executor_added(new)
            self._order_listeners(new)

    def stale_sets(self) -> dict:
        return {
            eid: (set(index._blocks), set(index._stale))
            for eid, index in self.manager._indexes.items()
        }


mark_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["admit"] * 4 + ["evict", "spill", "promote", "disk_insert", "lose"]
            + ["observe"] * 2 + ["select"] * 2 + ["fleet_changed", "add_executor"]
        ),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=len(_LINEAGE) - 1),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(
    config=st.sampled_from(_MARK_CONFIGS),
    directory_first=st.booleans(),
    ops=mark_ops,
)
def test_routed_marks_match_broadcast(config, directory_first, ops):
    routed = _World(config, broadcast=False, directory_first=directory_first)
    reference = _World(config, broadcast=True, directory_first=directory_first)
    for op in ops:
        routed.apply(*op)
        reference.apply(*op)
        assert routed.stale_sets() == reference.stale_sets(), op


def test_mark_before_directory_knows_the_block_is_a_no_op():
    """Listener order: with the decision layer notified first, the touch
    of a just-added block cannot be routed (the directory has not seen
    it), and it need not be — ``VictimIndex.add`` already left it stale."""
    world = _World(BlazeConfig(), broadcast=False, directory_first=False)
    routed_to = []
    holders = world.manager._cache.holders

    def spy(pair):
        found = holders(pair)
        routed_to.append((pair, set(found)))
        return found

    world.manager._cache.holders = spy
    index = world.manager._indexes[0]
    block = Block(block_id=(0, 0), data=[], size_bytes=1024.0)
    world.cluster.executors[0].bm.insert_memory(block)
    assert ((0, 0), set()) in routed_to  # the directory could not route it
    assert (0, 0) in index._stale  # ...and the block is stale regardless
    assert world.cluster.directory.holders_of((0, 0)) == {0}


# ----------------------------------------------------------------------
# Affected-pair enumeration vs. the per-edge scan of every child split
# ----------------------------------------------------------------------
def _scan_affected(lineage: CostLineage, rdd_id: int, split: int) -> set:
    """Reference: test every child split against the parent splits."""
    affected = {rdd_id: {split}}
    worklist = [rdd_id]
    while worklist:
        current = worklist.pop()
        splits = affected[current]
        ns_current = max(lineage.num_splits_of(current), 1)
        for child in lineage.children_of(current):
            ns_child = max(lineage.num_splits_of(child), 1)
            if ns_child == ns_current:
                child_splits = set(splits)
            else:
                child_splits = {
                    s for s in range(ns_child) if s % ns_current in splits
                }
            existing = affected.get(child)
            if existing is None:
                affected[child] = child_splits
                worklist.append(child)
            elif not child_splits <= existing:
                existing |= child_splits
                worklist.append(child)
    return {(r, s) for r, splits in affected.items() for s in splits}


@settings(max_examples=150, deadline=None)
@given(
    splits=st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=7),
    edges=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12),
    touched=st.tuples(st.integers(0, 6), st.integers(0, 14)),
)
def test_affected_pairs_match_child_scan(splits, edges, touched):
    lin = CostLineage()
    n = len(splits)
    for child in range(n):
        # edges only point forward, so the graph stays acyclic
        parents = sorted({p % n for p, c in edges if c % n == child and p % n < child})
        lin.register_rdd(child, parents, splits[child])
    cache = DecisionCostCache(
        lin, CostModel(lin, DiskConfig()), lambda r, s: "gone",
        holders=lambda pair: (),
    )
    rdd_id, split = touched[0] % n, touched[1]
    pairs = cache._affected_pairs(rdd_id, split)
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == _scan_affected(lin, rdd_id, split)
