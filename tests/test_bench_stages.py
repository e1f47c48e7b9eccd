"""Smoke test of the stage benchmark script `tests/bench_stages.py`."""

import json
import subprocess
import sys
from pathlib import Path

from bench_stages import STAGES, _commit

ROOT = Path(__file__).resolve().parents[1]


def test_one_tree_one_round_writes_every_key(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "tests" / "bench_stages.py"), "--tree",
                    f"change={ROOT}", "-k", "1", "--n", "4", "--cli-args",
                    "--test b --family quad-s --levels 1 --methods vem", "--out", str(out)],
                   check=True, capture_output=True)
    result = json.loads(out.read_text())
    levels = ["conc-u/4", "quad-u/4", "hex-s/4", "tri-u/4", "poly-u/4"]
    assert list(result) == ["workload", "environment", "trees", "runs", "medians", "errors"]
    assert result["workload"]["levels"] == levels
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "blas_threads"} <= set(
        result["environment"])
    assert list(result["trees"]) == ["change"]
    assert set(result["trees"]["change"]) == {"commit", "dirty"}
    (run,) = result["runs"]
    assert run["round"] == 0 and run["tree"] == "change" and run["cli_s"] > 0.0
    assert list(run["levels"]) == levels
    for level in run["levels"].values():
        assert list(level["stages"]) == list(STAGES)
        assert all(t >= 0.0 for t in level["stages"].values())
        assert set(level["E"]) == {"E_vem", "E_rcp0", "E_rcp1"}
    assert list(result["medians"]["change"]["levels"]["poly-u/4"]) == list(STAGES)
    assert result["errors"]["change"]["poly-u/4"] == run["levels"]["poly-u/4"]["E"]


def test_dirty_flag_tracks_src_only(tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=bench", "-c",
                        "user.email=bench@example.com", "-c", "commit.gpgsign=false", *args],
                       check=True, capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("x = 1\n")
    (tmp_path / "README.md").write_text("docs\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "start")
    assert _commit(tmp_path)["dirty"] is False
    (tmp_path / "README.md").write_text("more docs\n")
    assert _commit(tmp_path)["dirty"] is False
    (tmp_path / "src" / "mod.py").write_text("x = 2\n")
    assert _commit(tmp_path)["dirty"] is True
