"""End-to-end checks of run.py and of the correctness gate."""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import spans
from workloads import WORKLOADS, check_level, load_references, make_workload

ROOT = run.ROOT
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_named_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"])
        assert m["name"] in done.stdout.replace(done.stdout.strip().splitlines()[-1], "")
    assert not (ROOT / ".perfbench_out").exists()


def test_declared_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_untraced_run_never_builds_a_tracer(monkeypatch, capsys):
    def refuse(self, *args, **kwargs):
        raise AssertionError("untraced run built a tracer")

    monkeypatch.setattr(spans.Tracer, "__init__", refuse)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    assert run.main(["--workload", "solve-vem", "--seconds", "0.1", "--size", "tiny"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "study-recover", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_gate_accepts_the_references_and_rejects_deviations():
    refs = load_references("study-recover", "full")
    key = ("conc-u", 8)
    good = dict(refs[key])
    assert check_level(key, good, 0, refs) is None
    # unstructured references hold only at the reference seed
    assert check_level(key, {**good, "vem": good["vem"] * 1.01}, 5, refs) is None
    assert "reference" in check_level(key, {**good, "vem": good["vem"] * (1 + 1e-8)}, 0, refs)
    # structured families ignore the seed, so their references hold at any seed
    hex_key = ("hex-s", 16)
    assert "reference" in check_level(
        hex_key, {**refs[hex_key], "rcp0": refs[hex_key]["rcp0"] * 1.01}, 5, refs)
    assert "exceeds" in check_level(key, {"vem": 1.0, "rcp1": 2.0}, 5, {})
    assert "finite" in check_level(key, {"vem": float("nan")}, 5, {})
    assert "finite" in check_level(key, {"vem": 0.0}, 5, {})


def test_every_full_workload_has_references():
    for name in WORKLOADS:
        refs = load_references(name, "full")
        assert set(make_workload(name, 0).expected_levels()) == set(refs)
