"""Self-tests of the benchmark, on the quick case subsets.

    python -m pytest perfbench -q

They spawn workers like a real run, so they take about half a minute.
"""

import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import refcheck
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quick(workload, trace, seed=1, refs=None):
    return run.run_workload(workload, seed, 1, trace, quick=True, refs=refs, out=io.StringIO())


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run_reports_every_metric_with_its_unit(workload, trace):
    result = quick(workload, trace)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_work_counts_do_not_depend_on_the_seed():
    counts = ("paths.n_paths", "paths.nonzero_paths", "floors.n_diagrams")
    for workload in ("path-p2d5", "floor-ladder"):
        a, b = (quick(workload, 1, seed)["metrics"] for seed in (1, 2))
        assert [a[c]["value"] for c in counts] == [b[c]["value"] for c in counts]
        assert any(a[c]["value"] for c in counts)


def test_different_seeds_make_different_inputs():
    assert run.make_cases("path-p2d5", 1) != run.make_cases("path-p2d5", 2)
    assert run.make_cases("verify-sweep", 3) == run.make_cases("verify-sweep", 3)


@pytest.mark.parametrize("workload", ["path-p2d5", "floor-ladder"])
def test_corrupted_reference_is_reported_as_a_failure(workload):
    refs = copy.deepcopy(refcheck.load_references())
    spec, g = run.make_cases(workload, 1, quick=True)[0][0][:2]
    poly = refs["counts"][refcheck.count_key(spec, g)]["poly"]
    poly[0][1] = str(int(poly[0][1]) + 1)
    result = quick(workload, 0, refs=refs)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "solve_s" in result["metrics"]


def test_independent_references():
    assert [refcheck.kontsevich(d) for d in range(1, 7)] == [1, 1, 12, 620, 87304, 26312976]
    cubic = [[2, "1"], [0, "10"], [-2, "1"]]  # y + 10 + 1/y
    assert refcheck.evaluate(refcheck.poly_dict(cubic), -1) == 8
    assert refcheck.check_count({"counts": {}}, "P2:d=3", 0, [[0, "12"]]) == [
        "no recorded reference polynomial",
        "value at y=-1 is 12, Welschinger W_3 = 8",
    ]
    assert refcheck.p1xp1_mirror("P1xP1:d=4,r=5") == "P1xP1:d=5,r=4"


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    args = "--workload verify-sweep --seed 1 --seconds 1 --trace 0".split()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
