"""Shuffle manager: write/fetch semantics, combiners, cleanup."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.shuffle import ShuffleManager, merge_bucket_lists
from repro.config import ClusterConfig
from repro.dataflow.context import BlazeContext
from repro.dataflow.dependencies import ShuffleDependency
from repro.dataflow.partitioner import HashPartitioner, RangePartitioner
from repro.errors import ShuffleError
from repro.metrics.collector import TaskMetrics


@pytest.fixture
def shuffle_env(ctx):
    parent = ctx.parallelize([(i, 1) for i in range(8)], 2)
    manager = ShuffleManager(ClusterConfig())
    return manager, parent


def test_write_then_fetch_groups(shuffle_env):
    manager, parent = shuffle_env
    dep = ShuffleDependency(parent, HashPartitioner(2))
    manager.write(dep, 0, [("a", 1), ("a", 2), ("b", 3)], TaskMetrics(), job_id=0)
    manager.write(dep, 1, [("a", 4)], TaskMetrics(), job_id=0)
    records = {}
    for split in range(2):
        for k, vs in manager.fetch(dep, split, TaskMetrics()):
            records.setdefault(k, []).extend(vs)
    assert sorted(records["a"]) == [1, 2, 4]
    assert records["b"] == [3]


def test_combiner_merges_map_and_reduce_side(shuffle_env):
    manager, parent = shuffle_env
    dep = ShuffleDependency(parent, HashPartitioner(1), combiner=lambda a, b: a + b)
    manager.write(dep, 0, [("k", 1), ("k", 2)], TaskMetrics(), job_id=0)
    manager.write(dep, 1, [("k", 4)], TaskMetrics(), job_id=0)
    records = manager.fetch(dep, 0, TaskMetrics())
    assert records == [("k", 7)]


def test_fetch_incomplete_raises(shuffle_env):
    manager, parent = shuffle_env
    dep = ShuffleDependency(parent, HashPartitioner(1))
    manager.write(dep, 0, [("k", 1)], TaskMetrics(), job_id=0)
    with pytest.raises(ShuffleError):
        manager.fetch(dep, 0, TaskMetrics())
    assert manager.missing_map_splits(dep) == [1]


def test_completeness_tracking(shuffle_env):
    manager, parent = shuffle_env
    dep = ShuffleDependency(parent, HashPartitioner(1))
    assert not manager.is_complete(dep)
    for split in range(parent.num_partitions):
        manager.write(dep, split, [], TaskMetrics(), job_id=0)
    assert manager.is_complete(dep)


def test_cleanup_drops_old_jobs(shuffle_env):
    manager, parent = shuffle_env
    old = ShuffleDependency(parent, HashPartitioner(1))
    new = ShuffleDependency(parent, HashPartitioner(1))
    for split in range(2):
        manager.write(old, split, [], TaskMetrics(), job_id=0)
        manager.write(new, split, [], TaskMetrics(), job_id=3)
    dropped = manager.cleanup_older_than(2)
    assert old.shuffle_id in dropped
    assert not manager.is_complete(old)
    assert manager.is_complete(new)


def test_write_charges_time_and_bytes(shuffle_env):
    manager, parent = shuffle_env
    dep = ShuffleDependency(parent, HashPartitioner(2))
    tm = TaskMetrics()
    manager.write(dep, 0, [("a", 1)] * 10, tm, job_id=0)
    assert tm.shuffle_write_seconds > 0
    assert tm.shuffle_bytes > 0


def test_fetch_charges_network(shuffle_env):
    manager, parent = shuffle_env
    dep = ShuffleDependency(parent, HashPartitioner(1))
    for split in range(2):
        manager.write(dep, split, [("a", split)], TaskMetrics(), job_id=0)
    tm = TaskMetrics()
    manager.fetch(dep, 0, tm)
    assert tm.shuffle_read_seconds > 0


# ----------------------------------------------------------------------
# Per-reduce index vs the full-scan fetch it replaced
# ----------------------------------------------------------------------
def _scan_bucket_lists(manager, dep, reduce_split):
    """Reference: every map split's bucket for the split, empties included."""
    if not manager.is_complete(dep):
        raise ShuffleError(
            f"shuffle {dep.shuffle_id} fetch with missing map outputs: "
            f"{manager.missing_map_splits(dep)}"
        )
    per_map = manager._outputs[dep.shuffle_id]
    return [
        per_map[map_split].get(reduce_split, ())
        for map_split in range(dep.parent.num_partitions)
    ]


def _scan_fetch(manager, dep, reduce_split, tm):
    """Reference: the full-scan fetch (list, merge, count every map)."""
    bucket_lists = _scan_bucket_lists(manager, dep, reduce_split)
    merged = merge_bucket_lists(bucket_lists, dep.combiner)
    manager._charge_fetch_costs(dep, sum(len(b) for b in bucket_lists), tm)
    return merged


def _outcome(fn):
    try:
        return "ok", fn()
    except ShuffleError as exc:
        return "error", str(exc)


def _records(rng: random.Random, n: int) -> list:
    # few distinct keys over a wide reducer range: most buckets are empty
    return [(rng.randrange(-8, 200), rng.randrange(10)) for _ in range(n)]


def _check_fetches(manager, dep):
    """Every reduce split: fetch, charge_fetch and the bucket lists agree
    with the full scan (merge order, charged metrics, incomplete error)."""
    for split in range(dep.partitioner.num_partitions):
        ref_tm, tm, charged_tm = TaskMetrics(), TaskMetrics(), TaskMetrics()
        want = _outcome(lambda: _scan_fetch(manager, dep, split, ref_tm))
        assert _outcome(lambda: manager.fetch(dep, split, tm)) == want
        assert tm == ref_tm
        charged = _outcome(lambda: manager.charge_fetch(dep, split, charged_tm))
        assert charged[0] == want[0]
        assert charged_tm == ref_tm
        lists = _outcome(lambda: manager.bucket_lists_for(dep, split))
        if want[0] == "ok":
            ref_lists = _scan_bucket_lists(manager, dep, split)
            assert lists[1] == [b for b in ref_lists if b]
            assert merge_bucket_lists(lists[1], dep.combiner) == want[1]
        else:
            assert lists == charged == want


shuffle_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["write"] * 3 + ["complete"] * 3 + ["fetch"] * 4
            + ["drop_map", "drop_executor", "cleanup", "drop"]
        ),
        st.integers(min_value=0, max_value=1),  # which shuffle
        st.integers(min_value=0, max_value=2**16),  # slot / seed
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(
    maps=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    reducers=st.tuples(st.integers(1, 48), st.integers(1, 48)),
    combine=st.booleans(),
    range_partitioned=st.booleans(),
    fast_path=st.booleans(),
    ops=shuffle_ops,
)
def test_index_fetch_matches_full_scan(
    maps, reducers, combine, range_partitioned, fast_path, ops
):
    ctx = BlazeContext()
    manager = ShuffleManager(ClusterConfig())
    manager.fast_path = fast_path
    deps = []
    for i in range(2):
        parent = ctx.parallelize([], maps[i])
        partitioner = (
            RangePartitioner(reducers[i], key_space=200)
            if range_partitioned and i == 1
            else HashPartitioner(reducers[i])
        )
        deps.append(ShuffleDependency(
            parent, partitioner,
            combiner=(lambda a, b: a + b) if combine and i == 0 else None,
        ))

    def executor_for(split):
        return SimpleNamespace(executor_id=split % 3)

    for kind, which, arg in ops:
        dep = deps[which]
        n_maps = dep.parent.num_partitions
        rng = random.Random(arg)
        if kind == "write":
            # also re-writes a registered map output
            manager.write(
                dep, arg % n_maps, _records(rng, rng.randrange(0, 90)),
                TaskMetrics(), job_id=arg % 4,
            )
        elif kind == "complete":
            missing = manager.missing_map_splits(dep)
            rng.shuffle(missing)  # maps land out of order
            for map_split in missing:
                manager.write(
                    dep, map_split, _records(rng, rng.randrange(0, 90)),
                    TaskMetrics(), job_id=arg % 4,
                )
        elif kind == "drop_map":
            manager.drop_map_output(dep.shuffle_id, arg % n_maps)
        elif kind == "drop_executor":
            manager.drop_outputs_for_executor(arg % 3, executor_for)
        elif kind == "cleanup":
            manager.cleanup_older_than(arg % 5)
        elif kind == "drop":
            manager.drop(dep.shuffle_id)
        else:
            _check_fetches(manager, dep)
    for dep in deps:
        _check_fetches(manager, dep)
