"""Self-test of the benchmark in --quick mode.

    python3 -m pytest perfbench/test_quick.py

Checks the result line against BENCHMARK.json, the run record's fields,
the span arithmetic, and that the benchmark refuses to run without the
program's sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [("q-sweep", 0), ("ensemble", 0),
                                            ("pipeline", 0), ("pipeline", 1)])
def test_result_line_matches_benchmark_json(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
        assert math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
    else:
        assert result["metrics"]["estimates.rows"]["value"] == 44

    with open(os.path.join(ROOT, ".perfbench", f"{workload}-seed0-trace{trace}-quick",
                           "record.json")) as fh:
        record = json.load(fh)
    assert record["seed"] == 0
    assert set(record["machine"]) == {"nproc", "cpu", "python", "numpy", "scipy", "git_rev"}
    assert record["inputs"] and all(len(h) == 40 for h in record["inputs"].values())


def test_spec_lists_what_the_runner_reports():
    import run
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER.items())
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_self_time_subtracts_children():
    spans = [["cli.main", 0.0, 10.0, -1, None],
             ["solver.evolve", 1.0, 7.0, 0, {"nsteps": 4, "newton_iters": 10}],
             ["linalg.solve", 2.0, 3.0, 1, None],
             ["linalg.solve", 4.0, 6.0, 1, None]]
    m = tracing.layer_metrics([{"spans": spans}])
    assert m["solver.evolve.self_s"] == 3.0
    assert m["cli.main.self_s"] == 4.0
    assert m["linalg.solve.calls"] == 2 and m["linalg.solve.s"] == 3.0
    assert m["solver.newton_per_step"] == 2.5


def test_import_breakdown_charges_dependencies_to_first_importer():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:        10 |        110 |     logdiff.geometry",
        "import time:       300 |        300 |         scipy.special",
        "import time:        50 |        350 |       scipy.integrate._quadpack_py",
        "import time:        20 |        370 |     logdiff.cutoff",
        "import time:         5 |        485 |   logdiff",
        "import time:         4 |        489 | logdiff.cli",
    ])
    b = tracing.import_breakdown(text)
    assert b["import.numpy_s"] == pytest.approx(100e-6)
    assert b["import.scipy_integrate_s"] == pytest.approx(350e-6)
    assert b["import.scipy_linalg_s"] == 0.0
    assert b["import.logdiff_self_s"] == pytest.approx(39e-6)
    assert b["import.total_s"] == pytest.approx(489e-6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("q-sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
