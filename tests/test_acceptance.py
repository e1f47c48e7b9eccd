"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see every line; pytest shows
the lines of failing criteria regardless.

Criterion 4b compares patch recovery (rcp1) with single-cell recovery (rcp0)
by the observed convergence rate of each (case, family) pair of the grid, not
by wins level by level. At n = 8, 16, 32 a per-level count mostly records
where the two error curves cross. rcp1 wins every level of the unloaded case
a. In the loaded cases b and c its error starts up to 7x above rcp0's at
n = 8, and on 15 of those 16 pairs the ratio rcp1/rcp0 then falls by a
factor of 1.5-4.3 per level, so 21 of the 24 losing levels lie before the
crossover. rcp1's rate is the higher one on 23 of the 24 pairs, by at least
0.44. The exception is b/quad-s (the other 3 losing levels), where
single-cell recovery is superconvergent on the structured quadrilateral mesh
(rate 3.97 against 3.72). Part of rcp1's error in cases b and c comes from
the single patch-centroid sample of the load in the particular stress
(taken once per patch in `vemrcp.recovery.patch_systems`): a linear load sample lowers
rcp1's error 1.1-2.4x at every level and removes 6 of the 24 losing levels, but it
changes no pair's rate ordering. An rcp1 that used the single-cell patch would
tie rcp0 on every pair and fail here; a per-level `rcp1 <= rcp0` count passes it.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import shared_mesh
from oracles import cst_solve, fd_strain, fd_stress_divergence, mesh_cells, random_points_in_cell
import vemrcp
from vemrcp.cases import CASE_IDS, manufactured_case
from vemrcp.cli import StudyConfig, run
from vemrcp.material import LameMaterial, elastic_matrix
from vemrcp.mesh import GENERATED_FAMILIES, MeshFamily
from vemrcp.recovery import evaluate_recovered_stress, recover_field
from vemrcp.study import (
    observed_rate,
    run_convergence_study,
    run_patch_test,
)
from vemrcp.vem import element_stresses, solve_dirichlet_problem

MATERIAL = LameMaterial(1.0, 1.0)
GRID_TESTS = CASE_IDS                  # a, b, c
GRID_LEVELS = 3                        # n = 8, 16, 32
SEED = 0
# E_* (float.hex) and fallback cells of every grid level, as the current code computes them.
GRID_ERRORS = Path(__file__).parent / "data" / "grid_errors.json"


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)


def run_grid():
    """Run the 3-test x 8-family x 3-level study grid.

    Returns the records per (test, family), the wall time, and the pinned
    form of every level: one row with its E_* as float.hex strings and the
    fallback cells of each recovery kind.
    """
    t0 = time.perf_counter()
    records, rows = {}, []

    def pin(record, result):
        rows.append({
            "case": record.test,
            "family": record.family.value,
            "n": record.subdivisions,
            **{f"E_{m}": float.hex(e) for m, e in record.errors.items()},
            "fallback_cells": {m: list(f.fallback_cells) for m, f in result.recovered.items()},
        })

    for test in GRID_TESTS:
        for family in GENERATED_FAMILIES:
            records[(test, family)] = run_convergence_study(
                test, family, GRID_LEVELS, MATERIAL, seed=SEED, base_subdivisions=8,
                on_level=pin,
            )
    return records, time.perf_counter() - t0, rows


@pytest.fixture(scope="module")
def grid():
    """The grid used by criteria 4 and 5 and the pinned-grid check, on the session's
    shared meshes: each (family, n) serves all three cases."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vemrcp.study, "generate_mesh", shared_mesh)
        return run_grid()


class TestCriterion1PatchTest:
    def test_linear_field_on_all_families(self):
        t0 = time.perf_counter()
        results = run_patch_test(MATERIAL, subdivisions=8, seed=SEED)
        elapsed = time.perf_counter() - t0
        worst_disp = max(r.displacement_error for r in results)
        worst_energy = max(max(r.errors.values()) for r in results)
        ok = (
            len(results) == 8
            and worst_disp <= 1e-10
            and worst_energy <= 1e-18
            and elapsed < 10.0
        )
        report(
            1, "patch test", ok,
            f"disp {worst_disp:.2e}, E {worst_energy:.2e}, {elapsed:.1f} s",
        )
        assert worst_disp <= 1e-10
        assert worst_energy <= 1e-18
        assert elapsed < 10.0


class TestCriterion2CstOracle:
    def test_triangle_meshes_match_reference_fem(self):
        t0 = time.perf_counter()
        worst = 0.0
        for family in (MeshFamily.TRI_S, MeshFamily.TRI_U):
            mesh = shared_mesh(family, 8, SEED)
            case = manufactured_case("a", MATERIAL)
            u = solve_dirichlet_problem(
                mesh, MATERIAL, case.body_force, lambda x, y: case.displacement(x, y)
            )
            boundary = {
                int(v): tuple(case.displacement(*mesh.vertices[v]))
                for v in mesh.boundary_vertices()
            }
            u_ref, stress_ref = cst_solve(
                mesh.vertices,
                [list(map(int, c)) for c in mesh_cells(mesh)],
                elastic_matrix(MATERIAL),
                case.body_force,
                boundary,
            )
            stresses = element_stresses(mesh, MATERIAL, u)
            disp_err = np.abs(u - u_ref).max() / np.abs(u_ref).max()
            stress_err = np.abs(stresses - stress_ref).max() / np.abs(stress_ref).max()
            worst = max(worst, disp_err, stress_err)
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-10 and elapsed < 30.0
        report(2, "CST equivalence", ok, f"max rel {worst:.2e}, {elapsed:.1f} s")
        assert worst <= 1e-10
        assert elapsed < 30.0


class TestCriterion3ConvergenceRates:
    def test_vem_slope_two(self):
        t0 = time.perf_counter()
        slopes = {}
        for family in (MeshFamily.QUAD_S, MeshFamily.TRI_S):
            records = run_convergence_study(
                "a", family, 4, MATERIAL, methods=("vem",), seed=SEED,
                base_subdivisions=8,
            )
            assert len(records) == 4
            assert [r.subdivisions for r in records] == [8, 16, 32, 64]
            slopes[family.value] = observed_rate(records, "vem")
        elapsed = time.perf_counter() - t0
        ok = all(abs(s - 2.0) <= 0.3 for s in slopes.values()) and elapsed < 300.0
        report(
            3, "convergence rates", ok,
            ", ".join(f"{k}: {v:.3f}" for k, v in slopes.items()) + f", {elapsed:.0f} s",
        )
        for family, slope in slopes.items():
            assert slope == pytest.approx(2.0, abs=0.3), family
        assert elapsed < 300.0


class TestCriterion4RcpFavourability:
    def test_rcp1_never_worse_than_vem(self, grid):
        records, elapsed, _ = grid
        violations = []
        combos = 0
        for (test, family), recs in records.items():
            assert len(recs) == GRID_LEVELS, (test, family)
            for r in recs:
                combos += 1
                if r.errors["rcp1"] > r.errors["vem"]:
                    violations.append((test, family.value, r.subdivisions))
        ok = combos == 72 and not violations and elapsed < 1800.0
        report(
            4, "recovery vs projector stress", ok,
            f"{combos} combos, {len(violations)} violations, grid {elapsed:.0f} s",
        )
        assert combos == 72
        assert not violations, violations
        assert elapsed < 1800.0

    def test_rcp1_beats_rcp0_on_ninety_percent(self, grid):
        records, _, _ = grid
        slower = []
        level_wins = 0
        for (test, family), recs in records.items():
            assert len(recs) == GRID_LEVELS, (test, family)
            rate0 = observed_rate(recs, "rcp0")
            rate1 = observed_rate(recs, "rcp1")
            if not rate1 > rate0:
                slower.append((test, family.value, round(rate1, 2), round(rate0, 2)))
            level_wins += sum(r.errors["rcp1"] <= r.errors["rcp0"] for r in recs)
        pairs = len(records)
        share = (pairs - len(slower)) / pairs
        ok = pairs == 24 and share >= 0.9
        report(
            4, "patch vs single-cell recovery", ok,
            f"RCP1 converges faster than RCP0 on {pairs - len(slower)}/{pairs} = "
            f"{100 * share:.1f}% of the (case, family) pairs; "
            f"RCP1 <= RCP0 on {level_wins}/{pairs * GRID_LEVELS} levels",
        )
        assert pairs == 24
        assert share >= 0.9, (
            f"RCP1 converges faster than RCP0 on only {100 * share:.1f}% of the "
            f"(case, family) pairs; (case, family, rate RCP1, rate RCP0) where "
            f"it does not: {slower}"
        )


class TestCriterion5HexImprovement:
    def test_hex_ratio_and_triangle_neutrality(self, grid):
        records, _, _ = grid
        hex_ratios = [
            r.errors["rcp0"] / r.errors["vem"] for r in records[("a", MeshFamily.HEX_S)]
        ]
        tri_ratios = [
            r.errors["rcp0"] / r.errors["vem"] for r in records[("a", MeshFamily.TRI_S)]
        ]
        ok = all(r <= 0.9 for r in hex_ratios) and all(
            0.6 <= r <= 1.05 for r in tri_ratios
        )
        report(
            5, "hexagon gain, triangle neutrality", ok,
            f"hex {['%.3f' % r for r in hex_ratios]}, tri {['%.3f' % r for r in tri_ratios]}",
        )
        for r in hex_ratios:
            assert r <= 0.9
        for r in tri_ratios:
            assert 0.6 <= r <= 1.05


class TestPinnedGrid:
    def test_errors_and_fallbacks_match_recorded_grid(self, grid):
        # A change that moves E_* on purpose re-records the file with
        # `python tests/record_grid_errors.py` and lists old and new values.
        _, _, rows = grid
        pinned = json.loads(GRID_ERRORS.read_text())

        def key(row):
            return row["case"], row["family"], row["n"]

        assert [key(r) for r in rows] == [key(r) for r in pinned]
        for got, want in zip(rows, pinned):
            for m in ("vem", "rcp0", "rcp1"):
                np.testing.assert_allclose(float.fromhex(got[f"E_{m}"]),
                                           float.fromhex(want[f"E_{m}"]), rtol=1e-11,
                                           err_msg=f"{key(got)} E_{m}")
            assert got["fallback_cells"] == want["fallback_cells"], key(got)


class TestCriterion6Equilibrium:
    def test_recovered_fields_balance_sampled_force(self):
        rng = np.random.default_rng(616)
        worst = 0.0
        for test in GRID_TESTS:
            case = manufactured_case(test, MATERIAL)
            for family in GENERATED_FAMILIES:
                mesh = shared_mesh(family, 8, SEED)
                u = solve_dirichlet_problem(
                    mesh, MATERIAL, case.body_force,
                    lambda x, y: case.displacement(x, y),
                )
                for kind in ("rcp0", "rcp1"):
                    field = recover_field(mesh, MATERIAL, u, case.body_force, kind)
                    loads = case.body_force(*field.centers.T)
                    for ci in range(mesh.num_cells):
                        pts = random_points_in_cell(mesh, ci, rng, 10)
                        div = fd_stress_divergence(
                            lambda x, y: evaluate_recovered_stress(
                                field, ci, np.stack([x, y], axis=-1)
                            ),
                            pts[:, 0], pts[:, 1], h=1e-4,
                        )
                        resid = np.abs(div + loads[ci]).max()
                        worst = max(worst, resid)
        ok = worst <= 1e-8
        report(6, "recovered-stress equilibrium", ok, f"max residual {worst:.2e}")
        assert worst <= 1e-8

    def test_affine_divergence_balances_sampled_force_exactly(self):
        # Each cell's field is affine, so its divergence is read off the gradient rows:
        # (d sx/dx + d sxy/dy, d sxy/dx + d sy/dy). The load enters d sx/dx and d sy/dy
        # once, so the only residual is the rounding of those two sums. Measured: at
        # most 0.98 eps times the cell's largest gradient entry (exactly zero in case a).
        eps = np.finfo(float).eps
        worst = 0.0
        for test in GRID_TESTS:
            case = manufactured_case(test, MATERIAL)
            for family in GENERATED_FAMILIES:
                mesh = shared_mesh(family, 8, SEED)
                u = solve_dirichlet_problem(mesh, MATERIAL, case.body_force, case.displacement)
                for kind in ("rcp0", "rcp1"):
                    field = recover_field(mesh, MATERIAL, u, case.body_force, kind)
                    c = field.coefficients
                    div = np.column_stack([c[:, 1, 0] + c[:, 2, 2], c[:, 1, 2] + c[:, 2, 1]])
                    resid = np.abs(div + case.body_force(*field.centers.T)).max(axis=1)
                    unit = eps * np.abs(c[:, 1:]).max(axis=(1, 2))
                    ratio = np.divide(resid, unit, out=np.where(resid > 0, np.inf, 0.0),
                                      where=unit > 0)
                    worst = max(worst, ratio.max())
        ok = worst <= 2.0
        report(6, "exact equilibrium of the affine fields", ok,
               f"max residual {worst:.2f} eps x largest gradient entry")
        assert worst <= 2.0


class TestCriterion7ManufacturedConsistency:
    def test_finite_difference_residuals(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for test in GRID_TESTS:
            case = manufactured_case(test, MATERIAL)
            x, y = rng.uniform(0.02, 0.98, (2, 1000))
            strain_resid = np.abs(case.strain(x, y) - fd_strain(case.displacement, x, y)).max()
            stress_resid = np.abs(
                case.stress(x, y)
                - np.einsum("ij,mj->mi", elastic_matrix(MATERIAL), case.strain(x, y))
            ).max()
            force_resid = np.abs(
                case.body_force(x, y) + fd_stress_divergence(case.stress, x, y)
            ).max()
            worst = max(worst, strain_resid, stress_resid, force_resid)
        case_a = manufactured_case("a", MATERIAL)
        x, y = rng.uniform(0.0, 1.0, (2, 100))
        a_zero = np.abs(case_a.body_force(x, y)).max()
        ok = worst <= 1e-6 and a_zero == 0.0
        report(7, "manufactured-case consistency", ok, f"max residual {worst:.2e}")
        assert worst <= 1e-6
        assert a_zero == 0.0


class TestCriterion8Determinism:
    def test_bitwise_identical_csv(self, tmp_path):
        outputs = []
        for sub in ("run1", "run2"):
            out = tmp_path / sub
            config = StudyConfig(
                test="b",
                families=(MeshFamily.QUAD_S, MeshFamily.CONC_U),
                levels=2,
                seed=SEED,
                methods=("vem", "rcp0", "rcp1"),
                out_dir=out,
                clock=lambda: 0.0,
            )
            assert run(config) == 0
            outputs.append(
                [
                    (out / "b_quad-s.csv").read_bytes(),
                    (out / "b_conc-u.csv").read_bytes(),
                    (out / "b_quad-s.dat").read_bytes(),
                ]
            )
        ok = outputs[0] == outputs[1]
        report(8, "bitwise determinism", ok)
        assert ok

    def test_errors_independent_of_blas_thread_count(self):
        # c/poly-u n = 32 is a level whose norms differed in the last bits at 1 and 2
        # OpenBLAS threads while the final weighted sum was a BLAS dot product.
        script = (
            "from vemrcp import LameMaterial, generate_mesh, manufactured_case\n"
            "from vemrcp.study import run_level\n"
            "mat = LameMaterial(1.0, 1.0)\n"
            "mesh = generate_mesh('poly-u', 32, seed=0)\n"
            "errors = run_level(mesh, mat, manufactured_case('c', mat))[1]\n"
            "print(' '.join(float.hex(errors[m]) for m in ('vem', 'rcp0', 'rcp1')))\n"
        )
        src = str(Path(vemrcp.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout.split())
        ok = outputs[0] == outputs[1]
        report(8, "BLAS thread-count independence", ok, f"1: {outputs[0]}, 2: {outputs[1]}")
        assert ok
