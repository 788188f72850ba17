"""The benchmark's own tests: a tiny-scale smoke of every workload, the
correctness oracle's negative cases, and the refusal to run without the
simulator's source.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, wide_closed_form, WIDE_SHAPES  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # ``pressure`` runs by hand only (see README.md).
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in WORKLOADS if w != "pressure"
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_smoke_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 2 * len(WORKLOADS[workload](3, "tiny").cells)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in line["metrics"].items()} == dict(expected)
    for name, metric in line["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(line["metrics"][n]["value"] > 0 for n, _ in run.END_TO_END)


def _two_passes(name: str):
    wl = WORKLOADS[name](3, "tiny")
    return wl, [run.run_pass(wl), run.run_pass(wl)]


def test_oracle_counts_a_planted_wrong_final_value():
    wl, passes = _two_passes("pressure")
    run.judge(wl, passes)
    assert not any(p.failures for p in passes)

    wl, passes = _two_passes("pressure")
    victim = passes[1].results["pr/spark_mem_disk"]
    victim.final = victim.final + 1e-9
    run.judge(wl, passes)
    assert passes[0].failures == {}
    # Both presets of the app disagree now, and the planted cell no
    # longer repeats the first pass.
    assert set(passes[1].failures) == {"pr/blaze", "pr/spark_mem_disk"}


def test_oracle_checks_wide_shuffle_against_its_closed_form():
    wl, passes = _two_passes("wide-shuffle")
    assert passes[0].results["wide/blaze"].final == wide_closed_form(3, WIDE_SHAPES["tiny"])
    passes[1].results["wide/blaze"].final += 1
    run.judge(wl, passes)
    assert passes[0].failures == {}
    assert set(passes[1].failures) == {"wide/blaze"}
    assert "closed form" in passes[1].failures["wide/blaze"]


def test_oracle_checks_service_apps_against_a_standalone_run():
    wl, passes = _two_passes("service")
    res = passes[1].results["stream/blaze"]
    res.final = (res.final[0] * 2,) + res.final[1:]
    run.judge(wl, passes)
    assert passes[0].failures == {}
    assert set(passes[1].failures) == {"stream/blaze"}
    assert "standalone" in passes[1].failures["stream/blaze"]


def test_a_changed_simulated_result_between_passes_fails():
    wl, passes = _two_passes("paper-grid")
    passes[1].results["lr/blaze"].act_vsec += 1.0
    run.judge(wl, passes)
    assert passes[1].failures == {"lr/blaze": "simulated results differ between passes"}


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "service", "--seed", "3", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_meter_scales_work_time_by_the_probes(monkeypatch):
    monkeypatch.setattr(run, "host_speed_ms", lambda: 2 * run.PROBE_REF_MS)
    with run.SpeedMeter() as meter:
        time.sleep(2.5 * run.PROBE_EVERY_S)
    assert not meter.is_alive()
    # Two probes while the block ran, one as it ended.
    assert len(meter.samples) == 3
    # A host twice as slow as the reference: half the time at reference speed.
    assert meter.scaled_s(1.0) == pytest.approx(0.5)
