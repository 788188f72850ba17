"""Admission when the freed space lands one ulp short of the block.

Victim selection sums victim sizes in plain floats and stops once they
cover ``size - free_bytes``; the memory store keeps its occupancy with
compensated summation, so after those evictions its own ``free_bytes`` can
still be one ulp below the block size.  Both admission paths must then
evict further victims (or keep the block off memory when none is left)
instead of letting ``BlockStore.put`` raise.
"""

from __future__ import annotations

import pytest

from repro.cluster.blocks import Block, BlockLocation
from repro.cluster.stores import BlockStore
from repro.config import BlazeConfig, ClusterConfig, DiskConfig, GiB, MiB
from repro.core.udl import BlazeCacheManager
from repro.dataflow.context import BlazeContext
from repro.experiments.runner import run_experiment
from repro.metrics.collector import TaskMetrics
from repro.workloads.base import replace_params
from repro.workloads.registry import make_workload

#: a 64 MiB store holding three blocks, in LRU order, and an incoming block
#: exactly as large as the free space plus the first block in plain floats
CAPACITY = 64 * MiB
RESIDENT = (19956265.2523581, 1284550.560717321, 2272267.5905839712)
INCOMING = 63552045.84869871


def _store_with(sizes) -> BlockStore:
    store = BlockStore(CAPACITY, "mem")
    for i, size in enumerate(sizes):
        store.put(Block(block_id=(1, i), data=[], size_bytes=size))
    return store


def test_case_is_one_ulp_short():
    """The numbers above are the case: the first block covers the plain-
    float shortfall, yet evicting it leaves the store one ulp short."""
    store = _store_with(RESIDENT)
    assert RESIDENT[0] >= INCOMING - store.free_bytes
    store.remove((1, 0))
    assert not store.fits(INCOMING)


def _lru_blaze(incremental: bool):
    """+AutoCache on one executor: victims go in LRU order, to disk."""
    config = BlazeConfig(
        incremental_decisions=incremental,
        cost_aware_enabled=False,
        recompute_option_enabled=False,
        admission_enabled=False,
        ilp_enabled=False,
    )
    manager = BlazeCacheManager(config=config)
    ctx = BlazeContext(
        ClusterConfig(
            num_executors=1,
            slots_per_executor=1,
            memory_store_bytes=CAPACITY,
            disk=DiskConfig(capacity_bytes=1 * GiB),
        ),
        manager,
        blaze_config=config,
    )
    return ctx, manager


def _fill(ctx, rdd_ids) -> None:
    bm = ctx.cluster.executors[0].bm
    for i, (rdd_id, size) in enumerate(zip(rdd_ids, RESIDENT)):
        block = Block(block_id=(rdd_id, i), data=[], size_bytes=size)
        bm.insert_memory(block)
        block.touch(float(i + 1))


@pytest.mark.parametrize("incremental", [True, False])
def test_admission_tops_up_the_evictions(incremental):
    ctx, manager = _lru_blaze(incremental)
    _fill(ctx, rdd_ids=(1, 2, 3))
    executor = ctx.cluster.executors[0]
    incoming = Block(block_id=(9, 0), data=[], size_bytes=INCOMING)
    manager._admit(executor, incoming, 1, TaskMetrics(), from_disk=False)
    bm = executor.bm
    assert bm.location_of((9, 0)) is BlockLocation.MEMORY
    # the planned victim and one more went to disk; the newest stays
    assert bm.location_of((1, 0)) is BlockLocation.DISK
    assert bm.location_of((2, 1)) is BlockLocation.DISK
    assert bm.location_of((3, 2)) is BlockLocation.MEMORY


@pytest.mark.parametrize("incremental", [True, False])
def test_no_victim_left_keeps_the_block_off_memory(incremental):
    ctx, manager = _lru_blaze(incremental)
    # the other residents share the incoming block's dataset: ineligible
    _fill(ctx, rdd_ids=(1, 9, 9))
    executor = ctx.cluster.executors[0]
    incoming = Block(block_id=(9, 5), data=[], size_bytes=INCOMING)
    manager._admit(executor, incoming, 1, TaskMetrics(), from_disk=False)
    bm = executor.bm
    assert bm.location_of((1, 0)) is BlockLocation.DISK
    assert bm.location_of((9, 5)) is BlockLocation.DISK  # the no_victims way
    assert len(bm.memory) == 2


def test_cc_pressure_seed_13_completes_on_blaze():
    """The paper-scale cc x12-partition, 4-iteration cell that raised
    ``StorageError: ... does not fit in ...B free`` on Blaze at seed 13."""
    base = make_workload("cc", "paper")
    workload = replace_params(
        base, num_partitions=base.num_partitions * 12, iterations=4
    )
    finals = {
        system: run_experiment(
            system, workload, scale="paper", seed=13
        ).workload_result.final_value
        for system in ("blaze", "spark_mem_disk")
    }
    assert finals["blaze"] == finals["spark_mem_disk"]
