"""Manufactured-case consistency, error-norm, and study-orchestration tests."""

import dataclasses
import re

import numpy as np
import pytest

from conftest import shared_mesh
from oracles import fd_strain, fd_stress_divergence, mesh_cells, mesh_from_cells
from vemrcp.cases import CASE_IDS, manufactured_case, sample
from vemrcp.generators import GenerationError, generate_mesh
from vemrcp.material import compliance_matrix, elastic_matrix
from vemrcp.mesh import MeshFamily
from vemrcp.quadrature import cell_quadrature
from vemrcp.recovery import evaluate_recovered_stress
from vemrcp.study import (
    METHODS,
    ConvergenceRecord,
    energy_error_norm,
    linear_patch_case,
    observed_rate,
    run_convergence_study,
    run_level,
    run_patch_test,
    run_study_level,
)


class TestManufacturedCases:
    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_strain_is_symmetric_gradient(self, case_id, mat, rng):
        case = manufactured_case(case_id, mat)
        x, y = rng.uniform(0.05, 0.95, (2, 1000))
        np.testing.assert_allclose(
            case.strain(x, y), fd_strain(case.displacement, x, y), atol=1e-7
        )

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_stress_is_elastic_matrix_times_strain(self, case_id, mat, rng):
        case = manufactured_case(case_id, mat)
        x, y = rng.uniform(0.0, 1.0, (2, 200))
        expected = np.einsum("ij,mj->mi", elastic_matrix(mat), case.strain(x, y))
        np.testing.assert_allclose(case.stress(x, y), expected, atol=1e-14)

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_body_force_balances_stress_divergence(self, case_id, mat, rng):
        case = manufactured_case(case_id, mat)
        x, y = rng.uniform(0.05, 0.95, (2, 1000))
        div = fd_stress_divergence(case.stress, x, y)
        np.testing.assert_allclose(case.body_force(x, y), -div, atol=1e-6)

    def test_case_a_has_identically_zero_body_force(self, mat, rng):
        case = manufactured_case("a", mat)
        x, y = rng.uniform(0.0, 1.0, (2, 50))
        np.testing.assert_array_equal(case.body_force(x, y), 0.0)

    def test_cases_b_c_vanish_on_boundary(self, mat):
        t = np.linspace(0.0, 1.0, 33)
        zero = np.zeros_like(t)
        for case_id in ("b", "c"):
            case = manufactured_case(case_id, mat)
            for xs, ys in ((t, zero), (t, zero + 1.0), (zero, t), (zero + 1.0, t)):
                np.testing.assert_allclose(case.displacement(xs, ys), 0.0, atol=1e-14)

    def test_case_c_uy_vanishes_everywhere(self, mat, rng):
        case = manufactured_case("c", mat)
        x, y = rng.uniform(0.0, 1.0, (2, 100))
        np.testing.assert_array_equal(case.displacement(x, y)[:, 1], 0.0)

    def test_unknown_case_rejected(self, mat):
        with pytest.raises(ValueError, match="unknown"):
            manufactured_case("d", mat)


class TestSample:
    """`cases.sample` calls a field once and holds it to (m, width)."""

    def test_one_call_gives_m_by_width_floats(self):
        calls = []

        def field(x, y):
            calls.append((x, y))
            return np.stack([x, y, x * y], axis=-1).astype(np.float32)

        pts = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        values = sample(field, pts, 3, "stress")
        assert values.dtype == float and values.shape == (3, 3)
        np.testing.assert_array_equal(values[:, 2], [0.0, 6.0, 20.0])
        [(x, y)] = calls
        np.testing.assert_array_equal(np.column_stack([x, y]), pts)

    @pytest.mark.parametrize("result, shape", [
        (lambda x, y: np.stack([x, y]), "(2, 3)"),
        (lambda x, y: np.stack([x, y], axis=-1)[:, :1], "(3, 1)"),
        (lambda x, y: x, "(3,)"),
        (lambda x, y: (1.0, 0.0), "(2,)"),
        (lambda x, y: 0.0, "()"),
    ], ids=["transposed", "column", "flat", "constant", "scalar"])
    def test_other_shapes_rejected(self, result, shape):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError, match=f"^load gave shape {re.escape(shape)} at 3 points$"):
            sample(result, pts, 2, "load")


class TestEnergyErrorNorm:
    def test_flat_exact_stress_rejected(self, mat):
        mesh = shared_mesh(MeshFamily.QUAD_S, 2)
        case = manufactured_case("a", mat)
        case = dataclasses.replace(case, stress=lambda x, y: x + y)
        m = sum(len(cell_quadrature(mesh, c)[1]) for c in range(mesh.num_cells))
        with pytest.raises(ValueError, match=rf"^exact stress gave shape \({m},\) at {m} points$"):
            energy_error_norm(mesh, mat, case, {"zero": lambda cells, pts: np.zeros((len(pts), 3))})

    @pytest.mark.parametrize("shape", ["m1", "3m", "scalar"])
    def test_method_stress_of_other_shape_rejected(self, mat, shape):
        # An (m, 1) column used to broadcast to the norm of a zero (m, 3) field, 22.4.
        mesh = shared_mesh(MeshFamily.QUAD_S, 3)
        case = manufactured_case("a", mat)
        result = {"m1": lambda m: np.zeros((m, 1)), "3m": lambda m: np.zeros((3, m)),
                  "scalar": lambda m: 0.0}[shape]
        m = sum(len(cell_quadrature(mesh, c)[1]) for c in range(mesh.num_cells))
        got = re.escape(str(np.shape(result(m))))
        with pytest.raises(ValueError, match=rf"^stress 'vem' gave shape {got} at {m} points$"):
            energy_error_norm(mesh, mat, case, {"vem": lambda cells, pts: result(len(pts))})

    def test_exact_provider_gives_zero(self, mat):
        for family in (MeshFamily.HEX_S, MeshFamily.CONC_S):
            mesh = shared_mesh(family, 3, seed=1)
            case = manufactured_case("a", mat)
            exact = {"exact": lambda cells, pts: case.stress(pts[:, 0], pts[:, 1])}
            err = energy_error_norm(mesh, mat, case, exact)
            assert err.keys() == {"exact"}
            assert err["exact"] == pytest.approx(0.0, abs=1e-12)

    def test_patch_test_error_below_1e18(self, mat):
        mesh = shared_mesh(MeshFamily.POLY_U, 3, seed=2)
        case = linear_patch_case(mat)
        _, errors = run_level(mesh, mat, case)
        assert all(e <= 1e-18 for e in errors.values()), errors

    @pytest.mark.parametrize(
        "family", [MeshFamily.POLY_U, MeshFamily.CONC_U], ids=lambda f: f.value
    )
    def test_one_pass_matches_per_cell_reference(self, family, mat):
        mesh = shared_mesh(family, 4, seed=0)
        case = manufactured_case("b", mat)
        result, errors = run_level(mesh, mat, case, methods=("vem", "rcp1"))
        rcp1 = result.recovered["rcp1"]
        # Each field takes one cell id or an array of them, so the same callables
        # serve the one-pass norm and the per-cell reference below.
        stresses = {
            "vem": lambda cells, pts: result.cell_stresses[cells],
            "rcp1": lambda cells, pts: evaluate_recovered_stress(rcp1, cells, pts),
            "exact": lambda cells, pts: case.stress(pts[:, 0], pts[:, 1]),
        }
        one_pass = energy_error_norm(mesh, mat, case, stresses)
        assert one_pass.keys() == stresses.keys()
        Cinv = compliance_matrix(mat)
        for name, stress_of in stresses.items():
            def integrand(x, y, ci):
                d = case.stress(x, y) - stress_of(ci, np.stack([x, y], axis=-1))
                return np.einsum("mi,ij,mj->m", d, Cinv, d)

            expected = 0.0
            for ci in range(mesh.num_cells):
                pts, w = cell_quadrature(mesh, ci)
                expected += w @ integrand(pts[:, 0], pts[:, 1], ci)
            got = one_pass[name]
            assert got == pytest.approx(expected, rel=1e-12), name
            if name in errors:
                assert errors[name] == got

    @pytest.mark.parametrize(
        "family", [MeshFamily.HEX_S, MeshFamily.CONC_U], ids=lambda f: f.value
    )
    def test_one_exact_stress_call_per_level(self, family, mat):
        mesh = shared_mesh(family, 4, seed=0)
        case = manufactured_case("b", mat)
        calls = []

        def stress(x, y):
            calls.append(len(x))
            return case.stress(x, y)

        _, errors = run_level(mesh, mat, dataclasses.replace(case, stress=stress))
        assert len(calls) == 1
        _, pair = run_level(mesh, mat, case, methods=("rcp1", "vem"))
        assert list(pair) == ["rcp1", "vem"]
        for method in ("vem", "rcp1"):
            assert errors[method] == pair[method]
        for method in METHODS:
            _, single = run_level(mesh, mat, case, methods=(method,))
            assert errors[method] == single[method]

    @pytest.mark.parametrize(
        "family", [MeshFamily.CONC_U, MeshFamily.POLY_U, MeshFamily.HEX_S], ids=lambda f: f.value
    )
    def test_matches_sum_over_each_cells_rule(self, family, mat):
        mesh = shared_mesh(family, 8, seed=0)
        case = manufactured_case("b", mat)
        result, errors = run_level(mesh, mat, case, methods=("vem",))
        Cinv = compliance_matrix(mat)
        expected = 0.0
        for ci in range(mesh.num_cells):
            pts, w = cell_quadrature(mesh, ci)
            d = case.stress(pts[:, 0], pts[:, 1]) - result.cell_stresses[ci]
            expected += sum(wq * dq @ Cinv @ dq for wq, dq in zip(w, d))
        assert errors["vem"] == pytest.approx(expected, rel=1e-13)

    def test_quad_refinement_ratio_near_four(self, mat):
        case = manufactured_case("a", mat)
        errs = []
        for n in (8, 16):
            mesh = shared_mesh(MeshFamily.QUAD_S, n)
            _, errors = run_level(mesh, mat, case, methods=("vem",))
            errs.append(errors["vem"])
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_invariant_under_cycle_rotation(self, mat):
        # rotating each cell's start vertex changes the ear-clip triangulation;
        # for the polynomial case the rule is exact, so the norms must agree
        mesh = shared_mesh(MeshFamily.CONC_U, 3, seed=5)
        rotated = mesh_from_cells(
            mesh.vertices.copy(),
            [np.roll(c, k % len(c)) for k, c in enumerate(mesh_cells(mesh))],
        )
        case = manufactured_case("a", mat)
        _, errors = run_level(mesh, mat, case, methods=("vem", "rcp1"))
        _, errors_rot = run_level(rotated, mat, case, methods=("vem", "rcp1"))
        assert errors["vem"] == pytest.approx(errors_rot["vem"], rel=1e-10)
        assert errors["rcp1"] == pytest.approx(errors_rot["rcp1"], rel=1e-10)

    def test_triangulation_sensitivity_bounded_for_trig_case(self, mat):
        # non-polynomial integrands see rule-level differences only
        mesh = shared_mesh(MeshFamily.CONC_U, 3, seed=5)
        rotated = mesh_from_cells(
            mesh.vertices.copy(),
            [np.roll(c, k % len(c)) for k, c in enumerate(mesh_cells(mesh))],
        )
        case = manufactured_case("b", mat)
        _, errors = run_level(mesh, mat, case, methods=("vem",))
        _, errors_rot = run_level(rotated, mat, case, methods=("vem",))
        assert errors["vem"] == pytest.approx(errors_rot["vem"], rel=1e-3)


class TestObservedRate:
    def _records(self, hs, errors):
        return [
            ConvergenceRecord(
                test="a", family=MeshFamily.QUAD_S, level=k, subdivisions=0,
                h=h, dofs=0, errors={"vem": e}, wall_time=0.0,
            )
            for k, (h, e) in enumerate(zip(hs, errors))
        ]

    def test_quadratic_data(self):
        hs = [0.2, 0.1, 0.05, 0.025]
        recs = self._records(hs, [h**2 for h in hs])
        assert observed_rate(recs, "vem") == pytest.approx(2.0, abs=1e-12)

    def test_quartic_data(self):
        hs = [0.2, 0.1, 0.05]
        recs = self._records(hs, [3.7 * h**4 for h in hs])
        assert observed_rate(recs, "vem") == pytest.approx(4.0, abs=1e-12)

    def test_non_monotone_flagged_but_returned(self, caplog):
        import logging

        recs = self._records([0.2, 0.1, 0.05], [1e-2, 2e-2, 1e-3])
        with caplog.at_level(logging.WARNING):
            slope = observed_rate(recs, "vem")
        assert np.isfinite(slope)
        assert any("non-monotone" in r.message for r in caplog.records)

    def test_needs_two_records(self):
        with pytest.raises(ValueError):
            observed_rate(self._records([0.1], [1.0]), "vem")


class TestRunStudy:
    def test_h_and_errors_decrease(self, mat):
        records = run_convergence_study(
            "a", MeshFamily.QUAD_S, 3, mat, base_subdivisions=4
        )
        assert len(records) == 3
        hs = [r.h for r in records]
        assert all(a > b for a, b in zip(hs, hs[1:]))
        for method in ("vem", "rcp0", "rcp1"):
            errs = [r.errors[method] for r in records]
            assert all(a > b for a, b in zip(errs, errs[1:])), (method, errs)

    def test_zero_levels_rejected(self, mat):
        with pytest.raises(ValueError, match="^levels must be >= 1$"):
            run_convergence_study("a", MeshFamily.QUAD_S, 0, mat)

    def test_vem_rate_near_two(self, mat):
        records = run_convergence_study(
            "a", MeshFamily.QUAD_S, 3, mat, methods=("vem",), base_subdivisions=4
        )
        assert observed_rate(records, "vem") == pytest.approx(2.0, abs=0.3)

    def test_failed_level_is_skipped(self, mat, monkeypatch):
        import vemrcp.study as study_mod

        original = study_mod.generate_mesh

        def flaky(family, n, seed=0):
            if n == 8:
                raise GenerationError("boom")
            return original(family, n, seed)

        monkeypatch.setattr(study_mod, "generate_mesh", flaky)
        records = run_convergence_study(
            "a", MeshFamily.QUAD_S, 3, mat, methods=("vem",), base_subdivisions=4
        )
        assert [r.subdivisions for r in records] == [4, 16]

    def test_programming_error_in_level_propagates(self, mat, monkeypatch):
        import vemrcp.study as study_mod

        def broken(*args):
            raise TypeError("bad call")

        monkeypatch.setattr(study_mod, "run_level", broken)
        with pytest.raises(TypeError, match="bad call"):
            run_convergence_study(
                "a", MeshFamily.QUAD_S, 2, mat, methods=("vem",), base_subdivisions=4
            )

    def test_clock_starts_before_the_mesh_is_made(self, mat):
        now = [0.0]

        def make_mesh():
            now[0] += 5.0
            return generate_mesh(MeshFamily.QUAD_S, 2)

        record = run_study_level(
            manufactured_case("a", mat), MeshFamily.QUAD_S, 0, 2, make_mesh, mat,
            methods=("vem",), clock=lambda: now[0],
        )
        assert record.wall_time == 5.0

    def test_deterministic_given_seed(self, mat):
        a = run_convergence_study(
            "b", MeshFamily.POLY_U, 2, mat, seed=3, base_subdivisions=4, clock=lambda: 0.0
        )
        b = run_convergence_study(
            "b", MeshFamily.POLY_U, 2, mat, seed=3, base_subdivisions=4, clock=lambda: 0.0
        )
        assert [r.errors for r in a] == [r.errors for r in b]

    def test_patch_test_runner(self, mat):
        results = run_patch_test(mat, families=(MeshFamily.HEX_S,), subdivisions=3)
        assert len(results) == 1
        assert results[0].passed()
