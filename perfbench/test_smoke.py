"""Smoke test of the benchmark: each workload at its smallest size, traced.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

NAMES = [w["name"] for w in SPEC["workloads"]]


def test_metric_names_fit_the_benchmark_contract():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += NAMES
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def _small_traced(workload):
    return run.run_workload(workload, seed=1, seconds=0, trace=True,
                            small=True)


@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_present_and_no_failures(workload):
    result, labels, end_to_end, per_layer = _small_traced(workload)
    assert result["correct"] and result["failed"] == 0
    assert labels["fail_ratio"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: unit for k, (_, unit) in end_to_end.items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert set(per_layer) == set(result["metrics"])
    assert all(v > 0 for v, _ in end_to_end.values())


@pytest.mark.parametrize("workload", NAMES)
def test_counts_repeat_exactly(workload):
    first = _small_traced(workload)[3]
    second = _small_traced(workload)[3]
    counts = [k for k, (_, unit) in first.items() if unit in ("count", "bytes")]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_wrapper_left_in_place_is_detected():
    tracer = run.fresh_import()[0]
    originals = tracer.originals()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tracer.unwrapped_problems(originals)
    finally:
        tr.uninstall()
    assert tracer.unwrapped_problems(originals) == []


def test_host_clock_scales_by_the_nearest_reference_runs():
    nominal = hostspeed.REF_NOMINAL_S
    near = hostspeed.NEAREST
    clock = hostspeed.HostClock()
    # the reference ran at half speed up to t = 10 and at double speed from
    # t = 20, with one slow outlier among the fast runs; an interval is
    # scaled by the runs nearest to it only
    clock._starts = [float(i) for i in range(near)] + \
        [20.0 + i for i in range(near)]
    clock._took = [2 * nominal] * near + [nominal / 2] * (near - 1) + [nominal * 9]
    assert clock.scale(near - 0.5, 1.0) == pytest.approx(0.5)
    assert clock.scale(19.0, 0.1) == pytest.approx(0.2)
    clock.sample()
    assert len(clock._took) == 2 * near + 1 and clock._took[-1] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", NAMES[0], "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
