"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Cases `verify --max 40` reports per check.
TINY_VERIFY_CASES = {
    "route-equivalence": 151,
    "vanishing-7mod8": 5,
    "theta-identity": 41,
    "closed-R-tables": 48,
    "g-basis": 51,
    "cohen-scaling": 98,
    "dirichlet-vs-forms": 14,
}

TINY = {
    "series-table": lambda: workloads.series_table(1, sizes=(20, 40, 80)),
    "point-queries": lambda: workloads.point_queries(
        1, per_route=3, limits={"theorem": 2000, "cor2": 500, "theta": 60, "enum": 60}),
    "verify-sweep": lambda: workloads.verify_sweep(
        1, argv=("verify", "--max", "40"), cases=TINY_VERIFY_CASES),
}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert TINY.keys() == workloads.WORKLOADS.keys()


@pytest.mark.parametrize("name", ["series-table", "point-queries"])
def test_no_call_repeats_in_a_pass(name):
    ops = [tuple(argv) for argv in workloads.WORKLOADS[name](1).ops]
    assert len(set(ops)) == len(ops)


@pytest.mark.parametrize("name", list(TINY))
def test_smoke_reports_every_end_to_end_metric(name):
    result = run.measure(TINY[name](), SRC, seconds=0.1, trace=False)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: v["unit"] for k, v in metrics.items()}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("name", list(TINY))
def test_smoke_reports_every_per_layer_metric(name):
    result = run.measure(TINY[name](), SRC, seconds=0.1, trace=True)["result"]
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert metrics["cli.main.calls"] == len(TINY[name]().ops)
    # Layers the workload should leave idle read zero calls.
    idle = {"series-table": ("quadforms.", "arith."), "point-queries": ("qseries.",)}
    for prefix in idle.get(name, ()):
        calls = {k: v for k, v in metrics.items() if k.startswith(prefix) and k.endswith(".calls")}
        assert calls and not any(calls.values()), calls


def test_tracer_sees_from_imports():
    # cli binds hurwitz with `from .quadforms import`, and sc7 theorem calls
    # it once for the value (through eisenstein) and once for the extras.
    workload = workloads.Workload("one", [["sc7", "9", "--route", "theorem"]],
                                  lambda i, out: None, {})
    metrics = run.measure(workload, SRC, seconds=0.1, trace=True)["result"]["metrics"]
    assert metrics["quadforms.hurwitz.calls"]["value"] == 2
    assert metrics["quadforms.reduced_forms.calls"]["value"] == 2
    assert metrics["eisenstein.sc7_from_class_number.calls"]["value"] == 1


@pytest.mark.parametrize("name", list(TINY))
def test_corrupted_output_raises_error_rate(name, tmp_path):
    # A copy of the sources whose theta decomposition has a wrong weight:
    # theta rows, theta queries and verify's theta checks all go wrong.
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with (src / "sc7core" / "ternary.py").open("a") as f:
        f.write("\nDECOMPOSITION_WEIGHTS = (Fraction(1, 14), Fraction(-1, 7), Fraction(1, 13))\n")
    result = run.measure(TINY[name](), src, seconds=0.1, trace=False)["result"]
    assert not result["correct"]
    assert result["failed"] > 0


def test_checks_reject_corrupted_outputs():
    table = "n,route,value,D_n,H\n" + "".join(f"{n},{r},1,,\n" for n in range(3)
                                              for r in workloads.TABLE_ROUTES)
    assert workloads.check_table(table, 2) is None
    assert workloads.check_table(table.replace("2,eta,1", "2,eta,3"), 2)
    assert workloads.check_table(table, 3)
    lines = "".join(f"{k}: OK {v} cases\n" for k, v in TINY_VERIFY_CASES.items())
    assert workloads.check_verify(lines, TINY_VERIFY_CASES) is None
    assert workloads.check_verify(lines.replace("cases\n", "cases, eta 41 to n=40\n"),
                                  TINY_VERIFY_CASES) is None
    assert workloads.check_verify(lines.replace("OK 5 ", "OK 4 "), TINY_VERIFY_CASES)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "series-table",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
