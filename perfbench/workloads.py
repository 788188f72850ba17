"""The benchmark's four workloads, their correctness oracles and the
virtual (simulated-time) metrics read from their results.

A workload is a list of cells; a cell runs one application (or, for
``service``, one application stream) on one system preset through the
public entry points — :func:`repro.experiments.runner.run_experiment`,
:class:`repro.service.JobService` and
:class:`repro.dataflow.context.BlazeContext` — with every kill switch at
its default.  Workloads are built here and not imported from
``scripts/bench.py``, so edits to the per-suite bench script cannot move
this benchmark.  README.md in this directory says why each was chosen.

Every builder takes the seed: it seeds the generated data (graph,
points, ratings), the service's arrival process, and the synthetic
generator of ``wide-shuffle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.config import BlazeConfig, ClusterConfig, DiskConfig, GiB, MiB, ServiceConfig
from repro.core import profiler
from repro.dataflow.context import BlazeContext
from repro.dataflow.operators import OpCost
from repro.experiments.runner import run_experiment
from repro.service import JobService
from repro.systems.presets import make_system
from repro.workloads.base import Workload, WorkloadResult, replace_params
from repro.workloads.registry import make_workload

BLAZE = "blaze"
MEM_ONLY = "spark_mem_only"
MEM_DISK = "spark_mem_disk"

#: The six paper applications and the workload field that counts their
#: iterations (gbt counts boosting rounds).
PAPER_APPS = {
    "pr": "iterations",
    "cc": "iterations",
    "lr": "iterations",
    "kmeans": "iterations",
    "gbt": "rounds",
    "svdpp": "iterations",
}
#: Share of each paper app's iterations ``paper-grid`` runs (10 -> 4,
#: cc's 8 -> 3): the paper's data sizes and memory ratios with fewer
#: iterations, so one pass takes a few seconds and a run repeats it.
GRID_ITERATION_SHARE = 0.4


@dataclass
class CellResult:
    """What one cell produced; ``signature`` must repeat exactly."""

    app: str
    system: str
    final: Any
    #: simulated application completion time (profiling included); for a
    #: service stream, its makespan
    act_vsec: float
    tasks: int
    hits: int
    misses: int
    #: per-job submit -> finish latency in simulated seconds
    latencies: list[float]
    #: decision/service counters of the run, for the traced split
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def signature(self) -> tuple:
        return (
            self.final, self.act_vsec, self.tasks, self.hits, self.misses,
            tuple(self.latencies),
        )


@dataclass
class Cell:
    app: str
    system: str
    run: Callable[[], CellResult]

    @property
    def key(self) -> str:
        return f"{self.app}/{self.system}"


@dataclass
class BenchWorkload:
    """A named list of cells plus the oracle that judges their results."""

    name: str
    cells: list[Cell]
    #: ``check(results) -> {cell key: reason}`` for every cell that failed
    check: Callable[[dict[str, CellResult]], dict[str, str]]


# ----------------------------------------------------------------------
# Cell runners
# ----------------------------------------------------------------------
def _from_report(app: str, system: str, final: Any, act: float, report) -> CellResult:
    counters = dict(report.decision_counters)
    counters.update(report.service_counters)
    return CellResult(
        app=app,
        system=system,
        final=final,
        act_vsec=act,
        tasks=report.task_count,
        hits=report.access_counters["cache_hits"],
        misses=report.access_counters["cache_misses"],
        latencies=[r.latency for r in report.job_records],
        counters=counters,
    )


def experiment_cell(
    app: str,
    system: str,
    workload: Workload,
    seed: int,
    cluster: ClusterConfig | None,
    scale: str = "paper",
) -> Cell:
    def run() -> CellResult:
        r = run_experiment(
            system, workload, scale=scale, seed=seed, cluster_config=cluster
        )
        return _from_report(
            app, system, r.workload_result.final_value, r.act_seconds, r.report
        )

    return Cell(app, system, run)


def smoke_cluster() -> ClusterConfig:
    """The two-executor cluster the service stream runs on."""
    return ClusterConfig(
        num_executors=2,
        slots_per_executor=2,
        memory_store_bytes=24 * MiB,
        disk=DiskConfig(capacity_bytes=5 * GiB),
    )


# ----------------------------------------------------------------------
# paper-grid
# ----------------------------------------------------------------------
def paper_grid(seed: int, scale: str = "bench") -> BenchWorkload:
    """Six paper apps x {blaze, spark_mem_only, spark_mem_disk}."""
    cells = []
    for app, field_name in PAPER_APPS.items():
        if scale == "tiny":
            wl, wl_scale = make_workload(app, "tiny"), "tiny"
        else:
            wl, wl_scale = make_workload(app, "paper"), "paper"
            n = max(2, round(getattr(wl, field_name) * GRID_ITERATION_SHARE))
            wl = replace_params(wl, **{field_name: n})
        for system in (BLAZE, MEM_ONLY, MEM_DISK):
            cells.append(experiment_cell(app, system, wl, seed, None, wl_scale))
    return BenchWorkload("paper-grid", cells, same_final_per_app)


# ----------------------------------------------------------------------
# pressure
# ----------------------------------------------------------------------
#: (app, partition multiplier, iterations).  pr x8 is the 160-partition
#: pressure cell of the earlier per-suite benches; cc needs x12 because
#: at x8 some seeds converge an iteration early and the work halves.
PRESSURE_APPS = (("pr", 8, 4), ("cc", 12, 4))


def pressure(seed: int, scale: str = "bench") -> BenchWorkload:
    """pr and cc with partitions inflated past the memory store."""
    cells = []
    for app, multiplier, iterations in PRESSURE_APPS:
        if scale == "tiny":
            wl = replace_params(make_workload(app, "tiny"), num_partitions=24)
            cluster, wl_scale = smoke_cluster(), "tiny"
        else:
            base = make_workload(app, "paper")
            wl = replace_params(
                base,
                num_partitions=base.num_partitions * multiplier,
                iterations=iterations,
            )
            cluster, wl_scale = None, "paper"
        for system in (BLAZE, MEM_DISK):
            cells.append(experiment_cell(app, system, wl, seed, cluster, wl_scale))
    return BenchWorkload("pressure", cells, same_final_per_app)


def same_final_per_app(results: dict[str, CellResult]) -> dict[str, str]:
    """Caching never changes results: every preset of an app agrees."""
    by_app: dict[str, list[CellResult]] = {}
    for res in results.values():
        by_app.setdefault(res.app, []).append(res)
    failed = {}
    for app, cells in by_app.items():
        finals = [c.final for c in cells]
        if any(f != finals[0] for f in finals[1:]):
            detail = ", ".join(f"{c.system}={c.final!r}" for c in cells)
            for c in cells:
                failed[f"{app}/{c.system}"] = f"final values differ: {detail}"
    return failed


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
SERVICE_APP = "pr"
SERVICE_TENANTS = 3


@dataclass(frozen=True)
class ServiceShape:
    apps: int
    iterations: int


SERVICE_SHAPES = {"bench": ServiceShape(40, 5), "tiny": ServiceShape(4, 2)}


def _service_program(scale: str) -> Workload:
    shape = SERVICE_SHAPES[scale]
    return replace_params(make_workload(SERVICE_APP, "tiny"), iterations=shape.iterations)


def service_cell(system: str, seed: int, scale: str) -> Cell:
    wl = _service_program(scale)
    apps = SERVICE_SHAPES[scale].apps

    def app_fn(client):
        return wl.run(client).final_value

    def run() -> CellResult:
        spec = make_system(system)
        bcfg = BlazeConfig()
        profile = None
        if spec.needs_profile:
            # Looked up on the module at call time so the traced split
            # sees this call.
            profile = profiler.run_dependency_extraction(
                wl.profiling_run_fn(bcfg.profiling_sample_fraction), bcfg, seed=seed
            )
        service = JobService(
            smoke_cluster(),
            spec.build(profile=profile, blaze_config=bcfg),
            seed=seed,
            service_config=ServiceConfig(
                inter_job_policy="fair", arrival_seed=seed, arrival_rate_per_sec=1.0
            ),
        )
        try:
            for i in range(apps):
                service.submit(
                    app_fn, tenant=f"tenant{i % SERVICE_TENANTS}",
                    name=f"{SERVICE_APP}{i}",
                )
            handles = service.run()
            finals = tuple(h.result() for h in handles)
            report = handles[0].report()
            return _from_report("stream", system, finals, service.now, report)
        finally:
            service.shutdown()

    return Cell("stream", system, run)


def service(seed: int, scale: str = "bench") -> BenchWorkload:
    """A multi-tenant Poisson stream of identical pr apps per preset."""
    cells = [service_cell(system, seed, scale) for system in (BLAZE, MEM_DISK)]
    reference: list[Any] = []

    def check(results: dict[str, CellResult]) -> dict[str, str]:
        # One standalone single-app run of the same program and seed.
        if not reference:
            ctx = BlazeContext(seed=seed)
            try:
                reference.append(_service_program(scale).run(ctx).final_value)
            finally:
                ctx.stop()
        want = reference[0]
        failed = {}
        for key, res in results.items():
            wrong = [i for i, v in enumerate(res.final) if v != want]
            if wrong:
                failed[key] = f"apps {wrong[:5]} differ from standalone {want!r}"
        return failed

    return BenchWorkload("service", cells, check)


# ----------------------------------------------------------------------
# wide-shuffle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WideShape:
    executors: int
    maps: int
    reducers: int
    rows: int = 2
    iterations: int = 2


WIDE_SHAPES = {"bench": WideShape(64, 1024, 1024), "tiny": WideShape(8, 64, 64)}
#: distinct reduce keys; prime, above every shape's reducer count
WIDE_KEYS = 1031
#: inner-loop length of the per-row map
WIDE_HEAVY = 8


def wide_value(seed: int, split: int, j: int) -> int:
    return (split * 31 + j * 17 + seed) % 97


def _mix(seed: int, n: int) -> int:
    """Seeded multiplicative hash."""
    return (n + seed * 40503) * 2654435761 % 2**32


def wide_rows(seed: int, split: int, rows: int) -> int:
    """One split in 16, picked by the seed, holds an extra row: the map
    side's skew, and so the simulated times, differ between seeds while
    the work stays the same to within a percent."""
    return rows + (_mix(seed, split) % 16 == 0)


def wide_mapped(v: int) -> int:
    return sum((v * i) % 7 for i in range(WIDE_HEAVY))


@dataclass
class WideShuffleWorkload(Workload):
    """A cached synthetic source re-read by ``iterations`` all-to-all
    ``reduce_by_key`` shuffles; the final value is the sum of every
    reduced value."""

    seed: int = 0
    maps: int = 1024
    reducers: int = 1024
    rows: int = 2
    iterations: int = 2

    name = "wide-shuffle"

    def scaled(self, fraction: float) -> "WideShuffleWorkload":
        return replace_params(
            self,
            maps=max(int(self.maps * fraction), 1),
            reducers=max(int(self.reducers * fraction), 1),
        )

    def run(self, ctx) -> WorkloadResult:
        rows, seed = self.rows, self.seed
        src = ctx.source(
            lambda s, _rng: [
                (_mix(seed, s * (rows + 1) + j), wide_value(seed, s, j))
                for j in range(wide_rows(seed, s, rows))
            ],
            self.maps,
            name="rows",
        )
        base = src.map(
            lambda kv: (kv[0] % WIDE_KEYS, wide_mapped(kv[1])),
            op_cost=OpCost(per_element_in=1e-2),
        ).cache()
        total = 0
        for i in range(self.iterations):
            reduced = base.map_values(lambda v, i=i: v + i + 1).reduce_by_key(
                lambda a, b: a + b, num_partitions=self.reducers
            )
            total += sum(v for _k, v in reduced.collect())
        return WorkloadResult(self.name, self.iterations, total)


def wide_closed_form(seed: int, shape: WideShape) -> int:
    """The final value in plain Python, straight from the generator."""
    rows = [wide_rows(seed, s, shape.rows) for s in range(shape.maps)]
    base = sum(
        wide_mapped(wide_value(seed, s, j))
        for s in range(shape.maps)
        for j in range(rows[s])
    )
    n = sum(rows)
    return sum(base + n * (i + 1) for i in range(shape.iterations))


def wide_shuffle(seed: int, scale: str = "bench") -> BenchWorkload:
    """Many maps into many reducers: shuffle fetch is quadratic in width."""
    shape = WIDE_SHAPES[scale]
    wl = WideShuffleWorkload(
        seed=seed, maps=shape.maps, reducers=shape.reducers,
        rows=shape.rows, iterations=shape.iterations,
    )
    cluster = ClusterConfig(
        num_executors=shape.executors,
        slots_per_executor=2,
        memory_store_bytes=120_000,
        disk=DiskConfig(capacity_bytes=5 * GiB),
    )
    cells = [
        experiment_cell("wide", system, wl, seed, cluster)
        for system in (BLAZE, MEM_DISK)
    ]
    want = wide_closed_form(seed, shape)

    def check(results: dict[str, CellResult]) -> dict[str, str]:
        return {
            key: f"final {res.final!r} != closed form {want!r}"
            for key, res in results.items()
            if res.final != want
        }

    return BenchWorkload("wide-shuffle", cells, check)


#: Every workload ``run.py`` runs.  ``BENCHMARK.json`` gates all but
#: ``pressure``: its Blaze job latencies jump between two levels from one
#: seed to the next, and some seeds raise a ``StorageError`` in Blaze's
#: memory store (README.md), so it runs by hand only.
WORKLOADS: dict[str, Callable[[int, str], BenchWorkload]] = {
    "paper-grid": paper_grid,
    "pressure": pressure,
    "service": service,
    "wide-shuffle": wide_shuffle,
}


# ----------------------------------------------------------------------
# Virtual metrics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[rank - 1]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def virtual_metrics(results: list[CellResult]) -> dict[str, float]:
    """Blaze's simulated outcome, and its speed-up over the Spark presets.

    Speed-ups and job latencies are geometric means over the workload's
    apps (of ACT(spark preset) / ACT(blaze), and of each app's own job
    latency percentile): a percentile of the apps' pooled jobs would sit
    in the gap between two apps' job sizes and jump between seeds.
    ``service`` has one app, its stream, whose ACT is the makespan.
    """
    by_app: dict[str, dict[str, CellResult]] = {}
    for res in results:
        by_app.setdefault(res.app, {})[res.system] = res
    blaze = [cells[BLAZE] for cells in by_app.values()]
    hits = sum(r.hits for r in blaze)
    accesses = hits + sum(r.misses for r in blaze)
    out = {
        "blaze_act_vsec": sum(r.act_vsec for r in blaze),
        "blaze_hit_ratio": hits / accesses if accesses else 0.0,
        "blaze_job_latency_p50_vsec": geomean([percentile(r.latencies, 0.50) for r in blaze]),
        "blaze_job_latency_p95_vsec": geomean([percentile(r.latencies, 0.95) for r in blaze]),
    }
    for other, name in ((MEM_DISK, "blaze_speedup_vs_mem_disk"),
                        (MEM_ONLY, "blaze_speedup_vs_mem_only")):
        pairs = [cells for cells in by_app.values() if other in cells]
        if pairs:
            out[name] = geomean([c[other].act_vsec / c[BLAZE].act_vsec for c in pairs])
    return out
