"""Stage benchmark: time each stage of a level on one or two source trees, alternated.

Run from the repository root, for example against a clone of the parent commit:

    python tests/bench_stages.py --tree parent=../parent --tree change=. -k 5 \
        --out BENCH_<topic>.json

Each tree is a checkout whose `src/` holds `vemrcp`. In every round each tree runs once,
in a fresh interpreter with `PYTHONPATH=<tree>/src` (the tree order alternates between
rounds). A run times, per level of case `b` with seed 0, `generate_mesh`,
`assemble_global`, `apply_dirichlet`, `solve_system`, `boundary_work` (the `work` stage),
`element_stresses`, `recover_field` for `rcp0` and `rcp1`, and `energy_error_norm` twice:
cold, with the quadrature rules built on the fresh mesh, and warm. The stresses and both
fits read the one W that the `work` stage gives, as `study.run_level` does. Then the CLI
(`--test b` by default) is timed end to end in another fresh interpreter. The JSON file
holds the environment, each tree's commit (and whether its `src/` has uncommitted edits),
every run, the per-tree medians and each level's E_*. The file is not a pytest module.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# The six levels of the ROADMAP stage table.
LEVELS = (("conc-u", 64), ("quad-u", 128), ("hex-s", 64), ("tri-u", 64), ("poly-u", 32),
          ("poly-u", 64))
STAGES = ("generate", "assemble", "dirichlet", "solve", "work", "stresses", "rcp0", "rcp1",
          "norm_cold", "norm_warm")
CASE, SEED = "b", 0


def run_levels(levels) -> dict:
    """Time every stage of each level in this interpreter; returns {"family/n": record}."""
    from functools import partial                   # imported here: only workers load a tree

    from vemrcp.cases import manufactured_case, sample
    from vemrcp.cli import StudyConfig
    from vemrcp.generators import generate_mesh
    from vemrcp.material import LameMaterial
    from vemrcp.recovery import evaluate_recovered_stress, recover_field
    from vemrcp.study import energy_error_norm
    from vemrcp.vem import (apply_dirichlet, assemble_global, boundary_work, element_stresses,
                            solve_system)

    defaults = StudyConfig()
    material = LameMaterial(defaults.lam, defaults.mu)
    case = manufactured_case(CASE, material)

    def level(family, n):
        times = {}

        def timed(stage, fn, *args):
            start = time.perf_counter()
            out = fn(*args)
            times[stage] = time.perf_counter() - start
            return out

        mesh = timed("generate", generate_mesh, family, n, SEED)
        K, f = timed("assemble", assemble_global, mesh, material, case.body_force)
        boundary = mesh.boundary_vertices()
        values = sample(case.displacement, mesh.vertices[boundary], 2, "boundary displacement")
        constrained = timed("dirichlet", apply_dirichlet, K, f, boundary, values)
        del K, f
        u = timed("solve", solve_system, constrained)
        work = timed("work", boundary_work, mesh, u)
        stresses = timed("stresses", element_stresses, mesh, material, work)
        fields = {"vem": lambda cells, points: stresses[cells]}
        for kind in ("rcp0", "rcp1"):
            field = timed(kind, recover_field, mesh, material, work, case.body_force, kind)
            fields[kind] = partial(evaluate_recovered_stress, field)
        errors = timed("norm_cold", energy_error_norm, mesh, material, case, fields)
        timed("norm_warm", energy_error_norm, mesh, material, case, fields)
        return {"cells": mesh.num_cells, "dofs": 2 * mesh.num_vertices, "stages": times,
                "E": {f"E_{m}": e for m, e in errors.items()}}

    level("quad-s", 2)             # untimed: first-call costs of numpy, scipy and vemrcp
    return {f"{family}/{n}": level(family, n) for family, n in levels}


def _commit(tree: Path) -> dict:
    def git(*args):
        done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    # Only edits under src/ change what a run measures; a docs edit leaves the tree clean.
    status = git("status", "--porcelain", "--untracked-files=no", "--", "src")
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def _environment() -> dict:
    import numpy
    import scipy

    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    cpu = next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")),
               platform.processor())
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": {v: os.environ.get(v) for v in threads}}


def _one_run(tree: Path, levels, cli_args) -> dict:
    """One round of one tree: the stage run and the CLI run, each in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    spec = json.dumps([list(level) for level in levels])
    done = subprocess.run([sys.executable, __file__, "--worker", spec], env=env, check=True,
                          capture_output=True, text=True)
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "vemrcp.cli", *cli_args, "--out", out], env=env,
                       check=True, capture_output=True)
        cli_s = time.perf_counter() - start
    return {"levels": json.loads(done.stdout), "cli_s": cli_s}


def _medians(runs) -> dict:
    first = runs[0]["levels"]
    return {"cli_s": statistics.median(r["cli_s"] for r in runs),
            "levels": {key: {stage: statistics.median(r["levels"][key]["stages"][stage]
                                                      for r in runs)
                             for stage in STAGES}
                       for key in first}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, metavar="NAME=PATH",
                        help="a source tree to time; give one or two")
    parser.add_argument("-k", type=int, default=5, help="rounds (default 5)")
    parser.add_argument("--n", type=int, help="run every level at this n instead")
    parser.add_argument("--cli-args", default=f"--test {CASE}",
                        help="arguments of the timed CLI run (default: %(default)s)")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    trees = dict(t.split("=", 1) for t in args.tree)
    if not 1 <= len(trees) <= 2 or args.k < 1:
        parser.error("give one or two --tree NAME=PATH and k >= 1")
    trees = {name: Path(path) for name, path in trees.items()}
    levels = LEVELS if args.n is None else tuple(dict.fromkeys((f, args.n) for f, _ in LEVELS))
    cli_args = shlex.split(args.cli_args)

    runs = []
    for r in range(args.k):
        for name in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
            print(f"round {r + 1}/{args.k}: {name}", file=sys.stderr, flush=True)
            runs.append({"round": r, "tree": name, **_one_run(trees[name], levels, cli_args)})
    result = {
        "workload": {"case": CASE, "seed": SEED, "levels": [f"{f}/{n}" for f, n in levels],
                     "stages": list(STAGES), "cli_args": cli_args, "k": args.k,
                     "unit": "s, wall clock (time.perf_counter)"},
        "environment": _environment(),
        "trees": {name: _commit(path) for name, path in trees.items()},
        "runs": runs,
        "medians": {name: _medians([r for r in runs if r["tree"] == name]) for name in trees},
        "errors": {name: {key: level["E"] for key, level in
                          next(r for r in runs if r["tree"] == name)["levels"].items()}
                   for name in trees},
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        print(json.dumps(run_levels(json.loads(sys.argv[2]))))
    else:
        sys.exit(main())
