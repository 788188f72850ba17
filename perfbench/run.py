"""The simulator's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload paper-grid --seed 3 --seconds 36 --trace 0

Runs the workload's cells (app x system preset) one after another in
this process, in as many passes as fit in ``--seconds`` (at least two,
so the simulated results can be compared between passes).  With
``--trace 0`` it reports the end-to-end metrics: host wall time of a pass
(median, scaled to a reference host speed, see :class:`SpeedMeter`),
simulated tasks per host second, peak RSS, set-up time, and Blaze's
simulated outcome.  With ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer split (see ``layers.py``) and the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  README.md in this
directory explains the workloads and the layer -> metric map.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: A cell that takes longer than this counts as failed.
CELL_BUDGET_S = 60.0
#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Iterations of the host-speed probe (:func:`host_speed_ms`).
PROBE_LOOPS = 5_000
#: Time between two host-speed probes while a pass runs.
PROBE_EVERY_S = 0.1
#: The probe's time on the host speed ``wall_s`` is scaled to: its
#: fastest (1st percentile of 2,000 probes) on the shared 2.1 GHz Xeon
#: VM the benchmark was built on.
PROBE_REF_MS = 0.9

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = [
    ("wall_s", "s"),
    ("sim_tasks_per_s", "tasks/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("blaze_act_vsec", "vsec"),
    ("blaze_speedup_vs_mem_disk", "x"),
    ("blaze_job_latency_p50_vsec", "vsec"),
    ("blaze_job_latency_p95_vsec", "vsec"),
]
#: Printed, not in the JSON line.  The speed-up over MEM_ONLY needs a
#: spark_mem_only cell (paper-grid only).  Blaze's hit ratio swings by a
#: third between seeds on ``service``, wider than any bound can be, so
#: it is gated nowhere and reported per layer (``core.udl.hit_ratio``).
#: The failure share is the JSON line's ``failed`` / ``attempted``.
EXTRA_UNITS = {
    "blaze_speedup_vs_mem_only": "x",
    "blaze_hit_ratio": "ratio",
    "failed_frac": "ratio",
}


def _timed(prefix: str) -> list[tuple[str, str]]:
    return [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]


#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = [
    *_timed("cluster.driver.run_job"),
    *_timed("cluster.driver.materialize"),
    ("cluster.driver.jobs_without_ilp_solve", "count"),
    *_timed("cluster.scheduler.run_stage"),
    ("cluster.scheduler.run_stage.self_us_per_call", "us"),
    *_timed("cluster.shuffle.write"),
    *_timed("cluster.shuffle.fetch"),
    ("cluster.shuffle.fetch.self_us_per_call", "us"),
    *_timed("cluster.shuffle.charge_fetch"),
    *_timed("core.udl.hooks"),
    ("core.udl.hit_ratio", "ratio"),
    *_timed("core.udl.handle_cache"),
    *_timed("core.udl.on_partition_computed"),
    *_timed("core.udl.on_job_submit"),
    *_timed("core.ilp.solve_partition_states"),
    ("core.ilp.nodes", "count"),
    ("core.ilp.nonexact_solves", "count"),
    ("core.decision_cache.cost_memo_hit_ratio", "ratio"),
    ("core.decision_cache.victims_scanned_per_selection", "count"),
    ("core.profiler.run_dependency_extraction.calls", "count"),
    ("core.profiler.run_dependency_extraction.total_s", "s"),
    *_timed("caching.manager.hooks"),
    ("caching.manager.hit_ratio", "ratio"),
    *_timed("dataflow.fusion.execute"),
    ("dataflow.fusion.chains_fused", "count"),
    ("dataflow.fusion.partitions_pipelined", "count"),
    *_timed("storage.kernels.run_chain"),
    ("storage.kernels.kernel_ratio", "ratio"),
    ("storage.kernels.fallbacks", "count"),
    *_timed("storage.backend.encode_for_cache"),
    ("storage.backend.encoded_ratio", "ratio"),
    *_timed("service.identity.build_signature"),
    ("service.identity.gids_deduped", "count"),
    ("service.identity.shared_hits", "count"),
    ("bench.unattributed_s", "s"),
    ("trace.spans", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("stamp.calibration_ms", "ms"),
    ("stamp.src_loc", "lines"),
    ("stamp.nproc", "count"),
]


def _require_source() -> None:
    """The benchmark runs the repository's own ``src/``; without it there
    is nothing to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no simulator source at {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


# ----------------------------------------------------------------------
# Machine and code stamp
# ----------------------------------------------------------------------
class _Probe:
    __slots__ = ("v",)

    def __init__(self, v: float) -> None:
        self.v = v


def _probe_step(o: _Probe, i: int) -> float:
    return o.v + i * 0.5


@functools.cache
def _probe_table() -> tuple[dict[int, float], list[int]]:
    """About 10 MiB of dict and floats, read at random by the probe: the
    simulator's object graph misses the CPU caches too, and a neighbour
    on the host that crowds the caches slows both."""
    table = {i * 7919 % 1_000_003: float(i) for i in range(100_000)}
    return table, list(table)[::13]


def host_speed_ms() -> float:
    """Time of a fixed pure-Python loop shaped like the simulator's own
    work — attribute reads, dict get/set, small calls, float math, and
    random reads of a table larger than the CPU caches: the host's speed
    at this moment, about 1 ms on an idle core."""
    table, keys = _probe_table()
    t0 = time.perf_counter()
    objs = [_Probe(float(i)) for i in range(64)]
    d: dict[int, float] = {}
    for i in range(PROBE_LOOPS):
        k = i % 509
        d[k] = d.get(k, 0.0) + _probe_step(objs[i & 63], i)
    acc = 0.0
    for j in range(PROBE_LOOPS // 5):
        acc += table[keys[(j * 2654435761) % len(keys)]]
    return (time.perf_counter() - t0) * 1e3


def git_commit() -> str:
    """HEAD's commit read from ``.git`` directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_loc() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
    )


def machine_stamp() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_loc": src_loc(),
    }


# ----------------------------------------------------------------------
# Set-up time: process start -> first job submitted
# ----------------------------------------------------------------------
def setup_probe(workload: str, seed: int, scale: str) -> None:
    """Child side: build the first cell and exit at its first job."""
    from repro.cluster.driver import Driver
    from workloads import WORKLOADS

    def first_job(*_args, **_kwargs):
        sys.stdout.write(f"{time.time()!r}\n")
        sys.stdout.flush()
        os._exit(0)

    Driver.run_job = first_job
    WORKLOADS[workload](seed, scale).cells[0].run()
    sys.stderr.write("perfbench: setup probe finished without submitting a job\n")
    os._exit(3)


def measure_setup(workload: str, seed: int, scale: str) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--scale", scale],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
class SpeedMeter(threading.Thread):
    """Probes the host's speed every ``PROBE_EVERY_S`` while a pass runs.

    The shared host's speed swings by up to 2x from one moment to the
    next and stays slow or fast for seconds to minutes, so a pass's raw
    time says as much about the host as about the code.  This thread
    wakes every ``PROBE_EVERY_S``, takes the interpreter lock from the
    workload for one probe (:func:`host_speed_ms`, about 1 ms), and
    sleeps again; the pass's time without the probes, scaled by
    ``PROBE_REF_MS`` over the probes' mean, is its time at the reference
    host speed.  Use as a context manager: the thread has ended when the
    block exits.
    """

    def __init__(self) -> None:
        super().__init__(name="perfbench-speed-meter")
        self.samples: list[float] = []
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(PROBE_EVERY_S):
            self.samples.append(host_speed_ms())

    def __enter__(self) -> "SpeedMeter":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._done.set()
        self.join()
        # A pass shorter than the probe interval still gets one sample.
        self.samples.append(host_speed_ms())

    def scaled_s(self, wall_s: float) -> float:
        """``wall_s`` (probes excluded) at the reference host speed."""
        return wall_s * PROBE_REF_MS / statistics.fmean(self.samples)


@dataclass
class Pass:
    traced: bool
    #: host time of the cells, probes excluded
    wall_s: float = 0.0
    #: ``wall_s`` at the reference host speed (:class:`SpeedMeter`)
    scaled_s: float = 0.0
    probes_ms: list[float] = field(default_factory=list)
    results: dict = field(default_factory=dict)
    #: cell key -> why it failed
    failures: dict[str, str] = field(default_factory=dict)
    split: dict[str, float] = field(default_factory=dict)


def run_pass(wl, tracer=None) -> Pass:
    """Every cell once, in order; a raising or overlong cell fails."""
    p = Pass(traced=tracer is not None)
    with SpeedMeter() as meter:
        t0 = time.perf_counter()
        for run_id, cell in enumerate(wl.cells):
            if tracer is not None:
                tracer.run_id = run_id
            c0 = time.perf_counter()
            try:
                res = cell.run()
            except Exception as exc:  # a failing cell is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                p.failures[cell.key] = f"raised {type(exc).__name__}: {exc}"
                continue
            elapsed = time.perf_counter() - c0
            if elapsed > CELL_BUDGET_S:
                p.failures[cell.key] = f"took {elapsed:.1f}s > {CELL_BUDGET_S}s budget"
            p.results[cell.key] = res
        wall = time.perf_counter() - t0
    p.wall_s = wall - sum(meter.samples[:-1]) / 1e3
    p.scaled_s = meter.scaled_s(p.wall_s)
    p.probes_ms = meter.samples
    return p


def traced_pass(wl):
    from layers import LayerTracer

    blaze_runs = {i for i, cell in enumerate(wl.cells) if cell.system == "blaze"}
    with LayerTracer() as tracer:
        p = run_pass(wl, tracer)
    p.split = tracer.split(blaze_runs)
    # A probe that interrupts a span counts in that span's time.
    elapsed = p.wall_s + sum(p.probes_ms[:-1]) / 1e3
    p.split["bench.unattributed_s"] = elapsed - p.split.pop("trace.root_s")
    return p


def judge(wl, passes: list[Pass]) -> None:
    """Apply the workload's oracle to every pass, and require each cell's
    simulated results to repeat exactly across passes."""
    first: dict[str, tuple] = {}
    for p in passes:
        for key, reason in wl.check(p.results).items():
            p.failures.setdefault(key, reason)
        for key, res in p.results.items():
            sig = first.setdefault(key, res.signature)
            if res.signature != sig:
                p.failures.setdefault(key, "simulated results differ between passes")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_metrics(results) -> dict[str, float]:
    """Per-layer counters summed over one pass's cells, and their ratios."""
    total: dict[str, float] = {}
    hits = {"blaze": [0, 0], "spark": [0, 0]}
    for res in results.values():
        for k, v in res.counters.items():
            total[k] = total.get(k, 0) + v
        side = hits["blaze" if res.system == "blaze" else "spark"]
        side[0] += res.hits
        side[1] += res.hits + res.misses

    c = total.get
    return {
        "core.udl.hit_ratio": ratio(*hits["blaze"]),
        "caching.manager.hit_ratio": ratio(*hits["spark"]),
        "core.decision_cache.cost_memo_hit_ratio": ratio(
            c("cost_memo_hits", 0), c("cost_memo_hits", 0) + c("cost_memo_misses", 0)),
        "core.decision_cache.victims_scanned_per_selection": ratio(
            c("victim_candidates_scanned", 0), c("victim_selections", 0)),
        "dataflow.fusion.chains_fused": c("chains_fused", 0),
        "dataflow.fusion.partitions_pipelined": c("partitions_pipelined", 0),
        "storage.kernels.kernel_ratio": ratio(
            c("kernel_partitions", 0), c("kernel_partitions", 0) + c("kernel_fallbacks", 0)),
        "storage.kernels.fallbacks": c("kernel_fallbacks", 0),
        "storage.backend.encoded_ratio": ratio(
            c("columnar_batches_encoded", 0),
            c("columnar_batches_encoded", 0) + c("columnar_encode_rejected", 0)),
        "service.identity.gids_deduped": c("gids_deduped", 0),
        "service.identity.shared_hits": c("shared_hits", 0),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """Warm up, run passes for ``seconds``, judge them; returns the record."""
    from layers import median_split
    from workloads import WORKLOADS, virtual_metrics

    build = WORKLOADS[name]
    if scale != "tiny":
        # Imports, lazily built tables and allocator growth settle on a
        # tiny copy of the same cells before anything is timed.
        run_pass(build(seed, "tiny"))
    wl = build(seed, scale)
    passes: list[Pass] = []
    t0 = time.perf_counter()
    # Passes fill ``seconds``: another starts only if a pass as long as
    # the last one still ends in time.
    while True:
        if trace and len(passes) % 2 == 1:
            passes.append(traced_pass(wl))
        else:
            passes.append(run_pass(wl))
        elapsed = time.perf_counter() - t0
        if len(passes) >= 2 and elapsed + passes[-1].wall_s > seconds:
            break
    judge(wl, passes)

    attempted = sum(len(wl.cells) for _ in passes)
    failed = sum(len(p.failures) for p in passes)
    untraced = [p for p in passes if not p.traced]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "cells": [c.key for c in wl.cells],
        "pass_walls_s": [p.wall_s for p in passes],
        "pass_scaled_s": [p.scaled_s for p in passes],
        "probes_ms": [p.probes_ms for p in passes],
        "attempted": attempted, "failed": failed,
        "failures": sorted({f"{k}: {v}" for p in passes for k, v in p.failures.items()}),
    }
    complete = [p for p in passes if len(p.results) == len(wl.cells)]
    virtual = virtual_metrics(list(complete[0].results.values())) if complete else {}
    tasks = sum(r.tasks for r in complete[0].results.values()) if complete else 0
    metrics = {
        "wall_s": statistics.median(p.scaled_s for p in untraced),
        "sim_tasks_per_s": statistics.median(tasks / p.scaled_s for p in untraced),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **virtual,
        "failed_frac": failed / attempted,
    }
    record["raw_wall_median_s"] = statistics.median(p.wall_s for p in untraced)
    record["wall_max_s"] = max(p.scaled_s for p in untraced)
    record["untraced_passes"] = len(untraced)
    if trace:
        traced = [p for p in passes if p.traced]
        split = median_split([p.split for p in traced])
        if complete:
            split.update(counter_metrics(complete[-1].results))
        for prefix in ("cluster.scheduler.run_stage", "cluster.shuffle.fetch"):
            split[f"{prefix}.self_us_per_call"] = ratio(
                split[f"{prefix}.self_s"] * 1e6, split[f"{prefix}.calls"]
            )
        traced_wall = statistics.median(p.scaled_s for p in traced)
        split["trace.untraced_wall_s"] = metrics["wall_s"]
        split["trace.traced_wall_s"] = traced_wall
        split["trace.overhead_frac"] = traced_wall / metrics["wall_s"] - 1.0
        record["per_layer"] = split
    record["metrics"] = metrics
    return record


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(record: dict, stamp: dict, trace: bool) -> dict:
    """Print the human-readable table; return the JSON line's object."""
    m = record["metrics"]
    print(f"# {record['workload']}  seed={record['seed']}  scale={record['scale']}  "
          f"passes={len(record['pass_walls_s'])}  cells/pass={len(record['cells'])}")
    print(f"#   stamp: calibration={stamp['calibration_ms']:.1f}ms nproc={stamp['nproc']} "
          f"python={stamp['python']} numpy={stamp['numpy']} commit={stamp['commit'][:12]} "
          f"src_loc={stamp['src_loc']}")
    for name, unit in END_TO_END + list(EXTRA_UNITS.items()):
        if name in m:
            note = ""
            if name == "wall_s":
                note = (f"  (median of {record['untraced_passes']} untraced passes at "
                        f"the reference host speed, max {record['wall_max_s']:.4g}; "
                        f"unscaled median {record['raw_wall_median_s']:.4g})")
            print(f"  {name:<32} {_fmt(m[name]):>12} {unit}{note}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if trace:
        print("  per-layer split (median over traced passes):")
        for name, unit in PER_LAYER:
            print(f"    {name:<52} {_fmt(record['per_layer'].get(name, 0)):>12} {unit}")
        chosen = [(n, u, record["per_layer"].get(n, 0)) for n, u in PER_LAYER]
    else:
        chosen = [(n, u, m.get(n, 0.0)) for n, u in END_TO_END]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, u, v in chosen},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                    help="tiny: shrunken cells for the benchmark's own tests")
    ap.add_argument("--out", type=Path, help="also write the full record as JSON here")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _require_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.scale)

    stamp = machine_stamp()
    setup = [] if args.trace else measure_setup(args.workload, args.seed, args.scale)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    if setup:
        record["metrics"]["setup_s"] = statistics.median(setup)
        record["setup_probes_s"] = setup
    stamp["calibration_ms"] = statistics.median(
        ms for p in record["probes_ms"] for ms in p
    )
    record["stamp"] = stamp
    if args.trace:
        for key in ("calibration_ms", "src_loc", "nproc"):
            record["per_layer"][f"stamp.{key}"] = stamp[key]
    line = report(record, stamp, bool(args.trace))
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
