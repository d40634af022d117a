"""Tests for the benchmark's own code.

Run from the repository root:

    python -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "count/sample", "count/token")


def bench(workload, seed=3, trace=1):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


def originals():
    found = {}
    for module_name, path, _label, _hook in tracing.WRAP_POINTS:
        owner = __import__(module_name, fromlist=["_"])
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        found[(module_name, path)] = vars(owner).get(attr)
    return found


def test_tracer_restores_every_wrapped_function_even_after_a_raise():
    before = originals()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert originals() != before
            raise RuntimeError("op failed")
    assert originals() == before


def test_traced_run_restores_wrappers():
    before = originals()
    bench("long_decode", trace=1)
    assert originals() == before


def test_missing_wrap_point_is_reported_absent():
    points = [("ckl.model", "CKLModel.no_such_layer", "model.gone", None)]
    with tracing.Tracer(points) as tracer:
        pass
    assert tracer.missing == ["ckl.model.CKLModel.no_such_layer"]
    assert tracer.calls({"train"}, "model.gone") == 0


def test_metric_names_and_units_are_well_formed():
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            assert NAME.fullmatch(metric["name"]), metric["name"]
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric["unit"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_passes_its_checks_and_reports_every_metric(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(workload, trace=trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in SPEC[group]}
        assert set(result["metrics"]) == set(units)
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name)
            assert metric["unit"] == units[name]


def test_exact_counts_repeat_across_runs():
    first, second = bench("overfit_train"), bench("overfit_train")
    counts = {k: v for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS}
    assert counts["training.samples_per_op"]["value"] == 32
    assert counts == {k: v for k, v in second["metrics"].items() if v["unit"] in COUNT_UNITS}


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "overfit_train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
