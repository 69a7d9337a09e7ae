"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workload  # noqa: E402
from workload import pm  # noqa: E402

HERE = Path(__file__).resolve().parent


def test_pinned_monte_carlo_hits():
    for n, hits in workload.MC_PINNED.items():
        assert pm.monte_carlo_area(n, workload.MC_SAMPLES, 42).hits == hits


def test_replayed_points_match_monte_carlo():
    pts = workload.uniform_sphere(20_000, 7)
    for n in workload.SOLIDS:
        inside = pm.analytic_in_moduli_batch(n, pts)
        assert int(np.count_nonzero(inside)) == pm.monte_carlo_area(n, 20_000, 7).hits


def test_self_time_subtracts_direct_children():
    # round [0, 100] holds check [10, 60] holding two calls of 20 and 15
    spans = [["round", 0, 100, -1, 0, {}], ["check", 10, 60, 0, 1, {}],
             ["a.f", 12, 32, 1, 1, {}], ["b.g", 40, 55, 1, 1, {}]]
    assert workload.self_times(spans) == [50, 15, 20, 15]


def test_quantile_matches_statistics_median():
    xs = [5.0, 1.0, 4.0, 2.0]
    assert workload.quantile(xs, 0.5) == 3.0
    assert workload.quantile(xs, 0.0) == 1.0
    assert workload.quantile(xs, 1.0) == 5.0


def test_boundary_points_depend_only_on_seed():
    a = workload.boundary_points(4, 11)
    b = workload.boundary_points(4, 11)
    c = workload.boundary_points(4, 12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-15)
    # the points sit on or within 1e-5 rad of a division circle, vertex or curve
    div = pm.moduli.division(4)
    near_circle = np.abs(a @ div.normals.T).min(axis=1) <= 1.1e-5
    assert near_circle.sum() > len(a) // 2


def test_pinned_boundary_answers():
    for n, pinned in workload.BOUNDARY_PINNED.items():
        pts = workload.boundary_points(n, workload.BOUNDARY_PINNED_SEED)
        analytic = pm.analytic_in_moduli_batch(n, pts)
        oracle = pm.oracle_in_moduli_batch(n, pts)
        got = (workload._digest([analytic, oracle]), int(np.count_nonzero(analytic != oracle)))
        assert got == pinned


def test_points_per_s_weighs_every_n_alike():
    # n = 3 is always cheap; a slowdown of n = 5 alone must still show
    rounds = [[("p", 3, 10, 0.001), ("p", 5, 10, 0.010)]] * 4
    slower = [[("p", 3, 10, 0.001), ("p", 5, 10, 0.020)]] * 4
    assert workload.end_to_end(rounds)["points_per_s"] == pytest.approx(1 / 0.00055)
    assert workload.end_to_end(slower)["points_per_s"] == pytest.approx(1 / 0.00105)


def test_points_per_s_weighs_every_part_alike():
    # part "a" decides 100x more points per second than part "b"; halving
    # the rate of either part lowers points_per_s by the same factor
    base = [[("a", 3, 1000, 0.001), ("b", 3, 10, 0.001)]] * 4
    slow_a = [[("a", 3, 1000, 0.002), ("b", 3, 10, 0.001)]] * 4
    slow_b = [[("a", 3, 1000, 0.001), ("b", 3, 10, 0.002)]] * 4
    rate = workload.end_to_end(base)["points_per_s"]
    assert rate == pytest.approx(math.sqrt(1e6 * 1e4))
    assert workload.end_to_end(slow_a)["points_per_s"] == pytest.approx(rate / math.sqrt(2))
    assert workload.end_to_end(slow_b)["points_per_s"] == pytest.approx(rate / math.sqrt(2))


def test_fastest_mean_takes_a_share_of_the_samples():
    assert workload.fastest_mean([5.0, 1.0, 4.0, 2.0, 3.0]) == pytest.approx(2.0)
    assert workload.fastest_mean(list(range(100, 0, -1))) == pytest.approx(3.0)   # 5 of 100
    assert workload.fastest_mean([2.0]) == 2.0


def test_tracer_records_only_while_on():
    tr = workload.Tracer("t")
    assert tr.call("x.f", abs, -3) == 3
    assert tr.spans == []
    tr.on = True
    outer = tr.open("round")
    tr.call("x.f", abs, -3, n=1)
    tr.annotate(hits=2)
    tr.close(outer)
    assert [s[0] for s in tr.spans] == ["round", "x.f"]
    assert tr.spans[1][3] == 0 and tr.spans[1][5] == {"n": 1, "hits": 2}


def test_per_layer_reports_every_declared_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == workload.PER_LAYER_UNITS


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "batch",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.parametrize("name", ["batch", "interactive"])
def test_short_run_is_correct(name):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", "3", "--seconds", "1", "--trace", "1"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(workload.PER_LAYER_UNITS)
