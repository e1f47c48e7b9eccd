"""Stress-mode, particular-stress, patch-system, and recovery tests."""

import dataclasses
import logging
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shared_mesh, single_cell_mesh
from oracles import (
    MODES,
    cell_coords,
    cell_ids,
    ear_clip_per_cell,
    fd_stress_divergence,
    mesh_cells,
    patch_edges,
    patch_systems_outer_edges,
    random_points_in_cell,
    shoelace,
    stress_modes_at,
    vertex_patch_per_cell,
)
from vemrcp.cases import manufactured_case, zero_body_force
from vemrcp.cli import _von_mises_fields
from vemrcp.material import LameMaterial, compliance_matrix
from vemrcp.mesh import GENERATED_FAMILIES, MeshError, MeshFamily, PolygonalMesh, load_mesh
from vemrcp.quadrature import TRI7_BARY, TRI7_WEIGHTS, cell_quadrature
from vemrcp.recovery import (
    _LINEAR,
    RECOVERY_KINDS,
    RecoveredStressField,
    RecoveryConditioningError,
    build_patch,
    evaluate_recovered_stress,
    patch_systems,
    recover_field,
    solve_patches,
)
from vemrcp.study import METHODS, linear_patch_case, run_level, run_patch_test
from vemrcp.vem import boundary_work, element_stresses, solve_dirichlet_problem


def centered_square_mesh(side=1.0):
    h = side / 2.0
    return single_cell_mesh([(-h, -h), (h, -h), (h, h), (-h, h)])


def bending_case(mat):
    """Quadratic displacement whose stress is linear, divergence-free,
    and inside the recovery mode span: u = (xy, -x^2/2 - kappa y^2/2)."""
    lam, mu = mat.lam, mat.mu
    kappa = lam / (lam + 2.0 * mu)

    def displacement(x, y):
        return np.stack([x * y, -0.5 * x**2 - 0.5 * kappa * y**2], axis=-1)

    sx_coeff = (lam + 2.0 * mu) - lam * kappa  # stress = (sx_coeff * y, 0, 0)

    def stress(x, y):
        y = np.asarray(y, dtype=float)
        return np.stack([sx_coeff * y, np.zeros_like(y), np.zeros_like(y)], axis=-1)

    return displacement, stress


def one_patch_system(mesh, mat, cell, kind, displacement, body_force=zero_body_force):
    """Centre, scale, load sample, constants, H and g of the one patch centred on `cell`."""
    system = patch_systems(mesh, mat, build_patch(mesh, [cell], kind),
                           boundary_work(mesh, displacement), body_force)
    return tuple(a[0] for a in system)


def particular_only(monkeypatch, *args):
    """`recover_field(*args)` with every mode coefficient zeroed: its particular stress."""
    import vemrcp.recovery as rec

    systems, solve = rec.patch_systems, rec.solve_patches

    def zero_constants(*system_args):
        *rest, constants, H, g = systems(*system_args)
        return (*rest, np.zeros_like(constants), H, g)

    def zero_linear(H, g):
        linear, failed, checks = solve(H, g)
        return np.zeros_like(linear), failed, checks

    monkeypatch.setattr(rec, "patch_systems", zero_constants)
    monkeypatch.setattr(rec, "solve_patches", zero_linear)
    return rec.recover_field(*args)


def exact_rank(rows) -> int:
    """Rank of a matrix of integers or fractions, by Gaussian elimination in exact arithmetic."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestStressModes:
    def test_linear_modes_span_the_divergence_free_linear_stresses(self):
        # A linear stress xi A + eta B (A, B: sx, sy, sxy) has divergence
        # (A[0] + B[2], A[2] + B[1]): a rank-2 operator on the 6 entries of (A, B), so the
        # divergence-free ones form a 4-dimensional space. _LINEAR's four modes, as the
        # columns (A, B), must lie in it and have rank 4.
        modes = [[Fraction(v) for v in column] for column in _LINEAR.reshape(6, 4).T]
        div = [[1, 0, 0, 0, 0, 1], [0, 0, 1, 0, 1, 0]]
        for mode in modes:
            assert [sum(d * v for d, v in zip(row, mode)) for row in div] == [0, 0], mode
        assert exact_rank(div) == 2
        assert exact_rank(modes) == 4

    def test_linear_modes_are_columns_three_to_six_of_the_mode_table(self):
        np.testing.assert_array_equal(_LINEAR, MODES[1:, :, 3:])

    def test_identity_block_at_center(self):
        center = np.array([0.3, -0.7])
        P = stress_modes_at(center, 2.0, center)
        np.testing.assert_allclose(P[:, :3], np.eye(3))
        np.testing.assert_allclose(P[:, 3:], 0.0)

    def test_column_six_pattern(self):
        P = stress_modes_at(np.zeros(2), 1.0, np.array([1.0, 2.0]))
        np.testing.assert_allclose(P[:, 5], [1.0, 0.0, -2.0])

    def test_columns_divergence_free(self, rng):
        center = np.array([0.4, 0.1])
        pts = rng.uniform(-1.0, 1.0, size=(100, 2))
        for col in range(7):
            def column_stress(x, y, col=col):
                return stress_modes_at(center, 0.37, np.stack([x, y], axis=-1))[..., :, col]

            div = fd_stress_divergence(column_stress, pts[:, 0], pts[:, 1])
            np.testing.assert_allclose(div, 0.0, atol=1e-8)

    def test_vectorized_shape(self):
        assert stress_modes_at(np.zeros(2), 1.0, np.zeros((5, 2))).shape == (5, 3, 7)
        assert stress_modes_at(np.zeros(2), 1.0, np.zeros(2)).shape == (3, 7)


class TestParticularSolution:
    def test_zero_force_gives_zero_field(self, mat, rng):
        mesh = shared_mesh(MeshFamily.QUAD_S, 2)
        load = RecordedField(zero_body_force)
        work = boundary_work(mesh, np.zeros(2 * mesh.num_vertices))
        field = recover_field(mesh, mat, work, load, "rcp1")
        assert len(load.calls) == 1
        np.testing.assert_array_equal(load.calls[0], field.centers)
        np.testing.assert_array_equal(field.coefficients, 0.0)
        pts = rng.uniform(0, 1, (4, 2))
        np.testing.assert_array_equal(evaluate_recovered_stress(field, 0, pts), 0.0)

    def test_constant_force_cell_at_origin(self, mat, monkeypatch):
        mesh = centered_square_mesh()

        def unit_x_force(x, y):
            return np.stack([np.ones_like(x), np.zeros_like(x)], axis=-1)

        load = RecordedField(unit_x_force)
        field = particular_only(monkeypatch, mesh, mat, boundary_work(mesh, np.zeros(8)), load,
                                "rcp0")
        np.testing.assert_allclose(field.centers[0], 0.0, atol=1e-15)
        assert len(load.calls) == 1
        np.testing.assert_array_equal(load.calls[0], field.centers)
        xs = np.array([[0.2, 0.1], [-0.3, 0.4]])
        sp = evaluate_recovered_stress(field, 0, xs)
        np.testing.assert_allclose(sp[:, 0], -xs[:, 0], atol=1e-15)
        np.testing.assert_allclose(sp[:, 1:], 0.0)

    def test_divergence_balances_sample_for_test_b(self, mat, monkeypatch):
        case = manufactured_case("b", mat)
        mesh = shared_mesh(MeshFamily.POLY_U, 3, seed=6)
        u = np.zeros(2 * mesh.num_vertices)
        load = RecordedField(case.body_force)
        field = particular_only(monkeypatch, mesh, mat, boundary_work(mesh, u), load, "rcp0")
        # one load call, at the patch centres
        assert len(load.calls) == 1
        np.testing.assert_array_equal(load.calls[0], field.centers)
        loads = case.body_force(*field.centers.T)
        for ci in range(mesh.num_cells):
            c = shoelace(cell_coords(mesh, ci))[1]
            # a single-cell patch samples the load at the cell centroid
            np.testing.assert_allclose(field.centers[ci], c, atol=1e-14)
            div = fd_stress_divergence(
                lambda x, y: evaluate_recovered_stress(field, ci, np.stack([x, y], axis=-1)),
                c[0], c[1], h=1e-4,
            )
            np.testing.assert_allclose(div + loads[ci], 0.0, atol=1e-10)


class TestPatchSystem:
    def test_h_constant_block_on_unit_square(self, mat):
        # The constant block lives only in the 7x7 reference; H is the linear block,
        # whose second moments on the unit square are diag(1/12, 1/12).
        mesh = centered_square_mesh()
        Cinv = compliance_matrix(mat)
        patches = build_patch(mesh, [0], "rcp0")
        *_, H7, _ = patch_systems_outer_edges(mesh, mat, patches, np.zeros(8), zero_body_force)
        np.testing.assert_allclose(H7[0, :3, :3], Cinv, atol=1e-14)
        *_, H, _ = one_patch_system(mesh, mat, 0, "rcp0", np.zeros(8))
        L = MODES[1:, :, 3:]
        expected = (L[0].T @ Cinv @ L[0] + L[1].T @ Cinv @ L[1]) / 12.0
        np.testing.assert_allclose(H, expected, atol=1e-14)

    def test_h_symmetric(self, mat):
        mesh = shared_mesh(MeshFamily.CONC_U, 2, seed=3)
        for ci in (0, 3):
            *_, H, _ = one_patch_system(
                mesh, mat, ci, "rcp1", np.zeros(2 * mesh.num_vertices)
            )
            np.testing.assert_allclose(H, H.T, atol=1e-13 * np.abs(H).max())

    def test_h_matches_refined_quadrature(self, mat):
        Cinv = compliance_matrix(mat)
        case = manufactured_case("b", mat)
        for family, seed in ((MeshFamily.POLY_U, 5), (MeshFamily.CONC_U, 2)):
            mesh = shared_mesh(family, 2, seed=seed)
            u = np.zeros(2 * mesh.num_vertices)
            center, scale, b, constants, H, g = one_patch_system(
                mesh, mat, 1, "rcp1", u, case.body_force
            )
            np.testing.assert_allclose(b, case.body_force(*center))

            def h_integrand(pts):
                P = stress_modes_at(center, scale, pts)
                return np.einsum("mia,ij,mjb->mab", P, Cinv, P)

            def load_integrand(pts):
                # particular stress (-bx (x - cx), -by (y - cy), 0) of the sampled force
                sp = np.zeros((len(pts), 3))
                sp[:, :2] = -b * (pts - center)
                return np.einsum("mia,ij,mj->ma", stress_modes_at(center, scale, pts), Cinv, sp)

            H_ref = np.zeros((7, 7))
            load_ref = np.zeros(7)
            area = 0.0
            for ci in vertex_patch_per_cell(mesh, 1):
                coords = cell_coords(mesh, ci)
                area += abs(shoelace(coords)[0])
                for tri in ear_clip_per_cell(coords):
                    corners = coords[list(tri)]
                    H_ref += _refined_triangle_integral(corners, h_integrand, depth=2)
                    load_ref += _refined_triangle_integral(corners, load_integrand, depth=2)
            # The 7x7 energy is blockdiag(|P| C^-1, H): the first moments vanish
            # about the patch centroid, so the off-diagonal block is rounding.
            np.testing.assert_allclose(H_ref[:3, :3], area * Cinv, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(H_ref[:3, 3:], 0.0, atol=1e-15)
            np.testing.assert_allclose(H, H_ref[3:, 3:], rtol=1e-12, atol=1e-15)
            # With zero displacement, g is minus the work of the particular stress
            # and the constants are zero. The particular stress does no work on the
            # constant modes (first moments about the centroid): only rounding there.
            atol = 1e-14 * np.abs(load_ref).max()
            np.testing.assert_array_equal(constants, 0.0)
            np.testing.assert_allclose(load_ref[:3], 0.0, atol=atol)
            np.testing.assert_allclose(-g, load_ref[3:], rtol=1e-12, atol=atol)

    def test_conditioning_guard(self, mat):
        # on a 1 x 1e-7 sliver the eta-linear modes are numerically invisible
        mesh = single_cell_mesh([(0.0, 0.0), (1.0, 0.0), (1.0, 1e-7), (0.0, 1e-7)])
        *_, constants, H, g = one_patch_system(mesh, mat, 0, "rcp0", np.ones(8))
        _, failed, _ = solve_patches(H[None], g[None])
        assert np.isfinite(constants).all()
        assert failed.tolist() == [True]
        with pytest.raises(RecoveryConditioningError):
            recover_field(mesh, mat, boundary_work(mesh, np.ones(8)), zero_body_force, "rcp0")


def _refined_triangle_integral(corners, integrand, depth):
    if depth == 0:
        pts = TRI7_BARY @ corners
        w = TRI7_WEIGHTS * abs(shoelace(corners)[0])
        return np.einsum("m,m...->...", w, integrand(pts))
    a, b, c = corners
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    return sum(
        _refined_triangle_integral(np.array(sub), integrand, depth - 1)
        for sub in ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))
    )


class TestComputeG:
    def test_zero_displacement_zero_force(self, mat):
        mesh = shared_mesh(MeshFamily.QUAD_S, 3)
        *_, constants, _, g = one_patch_system(
            mesh, mat, 4, "rcp1", np.zeros(2 * mesh.num_vertices)
        )
        np.testing.assert_array_equal(constants, 0.0)
        np.testing.assert_array_equal(g, 0.0)

    def test_rigid_translation_kills_constant_entries(self, mat):
        mesh = shared_mesh(MeshFamily.POLY_U, 3, seed=2)
        u = np.zeros(2 * mesh.num_vertices)
        u[0::2] = 1.0  # unit x translation everywhere
        *_, constants, _, g = one_patch_system(mesh, mat, 4, "rcp1", u)
        np.testing.assert_allclose(constants, 0.0, atol=1e-14)
        np.testing.assert_allclose(g, 0.0, atol=1e-14)


class TestSolvePatch:
    def test_zero_rhs(self, mat):
        mesh = centered_square_mesh()
        *_, constants, H, _ = one_patch_system(mesh, mat, 0, "rcp0", np.zeros(8))
        linear, failed, _ = solve_patches(H[None], np.zeros((1, 4)))
        assert linear.shape == (1, 4)
        np.testing.assert_array_equal(constants, 0.0)
        np.testing.assert_array_equal(linear, 0.0)
        assert not failed.any()

    def test_constant_stress_round_trip(self, mat):
        # A constant-stress state's displacement is linear, so its vertex values give
        # its trace exactly.
        sigma = np.array([1.7, -0.6, 0.8])
        eps = compliance_matrix(mat) @ sigma
        mesh = centered_square_mesh()
        x, y = mesh.vertices.T
        u = np.column_stack([eps[0] * x + 0.5 * eps[2] * y, eps[1] * y + 0.5 * eps[2] * x])
        *_, constants, H, g = one_patch_system(mesh, mat, 0, "rcp0", u.ravel())
        (linear,), failed, _ = solve_patches(H[None], g[None])
        assert not failed.any()
        np.testing.assert_allclose(constants, sigma, atol=1e-9)
        np.testing.assert_allclose(linear, 0.0, atol=1e-9)

    def test_linear_stress_in_span_round_trip(self, mat, rng):
        # The quadratic trace of the bending field reaches only the oracle, whose Gauss
        # rule integrates it exactly; TestBoundaryWork ties patch_systems to the oracle.
        displacement, stress = bending_case(mat)
        pts = 0.5 * np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)]) + np.array([0.25, -0.4])
        mesh = single_cell_mesh(pts)
        (center,), (scale,), _, (H,), (g,) = patch_systems_outer_edges(
            mesh, mat, build_patch(mesh, [0], "rcp0"), displacement, zero_body_force)
        (beta,), failed, _ = solve_patches(H[None], g[None])
        assert not failed.any()
        probe = rng.uniform(-0.2, 0.2, size=(20, 2)) + np.array([0.25, -0.4])
        recovered = stress_modes_at(center, scale, probe) @ beta
        np.testing.assert_allclose(recovered, stress(probe[:, 0], probe[:, 1]), atol=1e-9)


class TestRecoverField:
    @pytest.mark.parametrize("kind", ["rcp0", "rcp1"])
    @pytest.mark.parametrize(
        "family", [MeshFamily.HEX_S, MeshFamily.CONC_U], ids=lambda f: f.value
    )
    def test_patch_test_recovers_constant_stress(self, family, kind, mat, rng):
        mesh = shared_mesh(family, 3, seed=1)
        case = linear_patch_case(mat)
        u = solve_dirichlet_problem(mesh, mat, zero_body_force, case.displacement)
        field = recover_field(mesh, mat, boundary_work(mesh, u), zero_body_force, kind)
        expected = case.stress(0.0, 0.0)
        for ci in range(mesh.num_cells):
            pts = random_points_in_cell(mesh, ci, rng, 3)
            np.testing.assert_allclose(
                evaluate_recovered_stress(field, ci, pts),
                np.broadcast_to(expected, (3, 3)),
                atol=1e-9,
            )

    def test_rcp0_constant_part_equals_element_stress(self, mat):
        mesh = shared_mesh(MeshFamily.TRI_U, 4, seed=11)
        case = manufactured_case("a", mat)
        u = solve_dirichlet_problem(
            mesh, mat, case.body_force, lambda x, y: case.displacement(x, y)
        )
        stresses = element_stresses(mesh, mat, boundary_work(mesh, u))
        field = recover_field(mesh, mat, boundary_work(mesh, u), case.body_force, "rcp0")
        for ci in range(mesh.num_cells):
            # at the patch center the field is its constant-mode block
            np.testing.assert_allclose(field.coefficients[ci, 0], stresses[ci], atol=1e-9)
            # and on triangles the linear part vanishes identically. Case a has no load,
            # so the gradient times the patch scale holds the linear-mode coefficients.
            scale = np.sqrt(mesh.areas[ci])
            np.testing.assert_allclose(field.coefficients[ci, 1:] * scale, 0.0, atol=1e-9)

    @pytest.mark.parametrize("family", GENERATED_FAMILIES, ids=lambda f: f.value)
    def test_rcp0_constants_are_the_vem_stresses_bitwise(self, family, mat):
        # Both read row 0 of vem.boundary_work and apply C / |E| by one expression.
        mesh = shared_mesh(family, 8)
        for case_id in ("a", "b", "c"):
            case = manufactured_case(case_id, mat)
            u = solve_dirichlet_problem(mesh, mat, case.body_force, case.displacement)
            work = boundary_work(mesh, u)
            field = recover_field(mesh, mat, work, case.body_force, "rcp0")
            np.testing.assert_array_equal(field.coefficients[:, 0],
                                          element_stresses(mesh, mat, work))

    def test_unknown_kind_rejected(self, mat, unit_square_mesh):
        with pytest.raises(ValueError, match="kind"):
            recover_field(unit_square_mesh, mat, np.zeros((1, 3, 3)), zero_body_force, "vem")

    def test_fallback_to_single_cell_patch(self, mat, monkeypatch):
        import vemrcp.recovery as rec

        mesh = shared_mesh(MeshFamily.QUAD_S, 2)
        case = linear_patch_case(mat)
        u = solve_dirichlet_problem(mesh, mat, zero_body_force, case.displacement)
        original = rec.patch_systems

        def singular_H(mesh_, material, patches, work, body_force):
            system = original(mesh_, material, patches, work, body_force)
            # The full fit requests every cell in order, so patch 1 is centred on cell 1.
            if np.count_nonzero(patches.owner == 1) > 1:
                H = system[4]
                H[1, 3, :] = H[1, :, 3] = 0.0  # forced: mode 6 drops out
            return system

        monkeypatch.setattr(rec, "patch_systems", singular_H)
        field = rec.recover_field(mesh, mat, boundary_work(mesh, u), zero_body_force, "rcp1")
        assert field.fallback_cells == (1,)
        expected = case.stress(0.0, 0.0)
        np.testing.assert_allclose(field.coefficients[1, 0], expected, atol=1e-9)


class TestPatchMean:
    @pytest.mark.parametrize(
        "family", [MeshFamily.POLY_U, MeshFamily.CONC_S, MeshFamily.TRI_U, MeshFamily.HEX_S],
        ids=lambda f: f.value,
    )
    def test_centre_value_is_patch_mean_vem_stress(self, family, mat):
        # beta[:3] = C S[0] / |P| is the area-weighted mean of the VEM cell
        # stresses over the patch, and the particular stress vanishes at the centre.
        mesh = shared_mesh(family, 16, seed=0)
        cells = np.arange(mesh.num_cells)
        for case_id in ("a", "b", "c"):
            case = manufactured_case(case_id, mat)
            u = solve_dirichlet_problem(mesh, mat, case.body_force, case.displacement)
            stresses = element_stresses(mesh, mat, boundary_work(mesh, u))
            for kind in RECOVERY_KINDS:
                field = recover_field(mesh, mat, boundary_work(mesh, u), case.body_force, kind)
                owner, member = build_patch(mesh, cells, kind)
                weight = mesh.areas[member, None]
                mean = np.stack([np.bincount(owner, w) for w in (weight * stresses[member]).T], -1)
                mean /= np.bincount(owner, weight[:, 0])[:, None]
                got = evaluate_recovered_stress(field, cells, field.centers)
                err = np.abs(got - mean).max() / np.abs(mean).max()
                assert err <= 2e-14, (case_id, kind, err)


class RecordedField:
    """A vectorized field b(x, y) that records the (m, 2) points of every call."""

    def __init__(self, fn):
        self.fn, self.calls = fn, []

    def __call__(self, x, y):
        self.calls.append(np.column_stack([x, y]))
        return self.fn(x, y)


class TestFallbackMesh:
    """A saved external mesh whose vertex patch at cell 2 is too ill-conditioned to fit.

    B = [0, 1] x [-1, 0] (cell 0), a strip T = [0, 1] x [0, 1e-6] with two extra
    top vertices at x = 0.5 and 0.5 + 1e-5 (cell 1), and a square S of side 1e-5
    on top of them (cell 2). S's vertex patch is S and T, so rcp1 falls back to
    S's own cell. T's single-cell patch is ill-conditioned too, and rcp0 has no
    fallback.
    """

    @pytest.fixture
    def mesh(self):
        return load_mesh(Path(__file__).parent / "data" / "fallback.pmesh")

    @pytest.mark.parametrize("case_id", ["a", "b", "c"])
    def test_rcp1_falls_back_to_single_cell_fit(self, mesh, mat, case_id):
        case = manufactured_case(case_id, mat)
        load = RecordedField(case.body_force)
        result, errors = run_level(mesh, mat, dataclasses.replace(case, body_force=load),
                                   methods=("vem", "rcp1"))
        field = result.recovered["rcp1"]
        assert field.fallback_cells == (2,)
        assert np.isfinite(errors["rcp1"]) and errors["rcp1"] > 0.0
        # One call for the assembly, one per fit: every patch, then the fallback cell.
        assert [len(points) for points in load.calls] == [3, 3, 1]
        # Cell 2's record is its single-cell fit: the patch system of cell 2 alone, and
        # bit for bit the recovery on a mesh of that one cell.
        (center,), (scale,), (b,), (constants,), H, g = patch_systems(
            mesh, mat, build_patch(mesh, [2], "rcp0"), boundary_work(mesh, result.displacement),
            case.body_force)
        (linear,), failed, _ = solve_patches(H, g)
        assert not failed.any()
        beta = np.concatenate([constants, linear])
        np.testing.assert_array_equal(field.centers[2], center)
        ids = cell_ids(mesh, 2)
        cell = single_cell_mesh(mesh.vertices[ids])
        alone = recover_field(cell, mat,
                              boundary_work(cell, result.displacement.reshape(-1, 2)[ids].ravel()),
                              case.body_force, "rcp0")
        np.testing.assert_array_equal(alone.centers[0], center)
        np.testing.assert_array_equal(alone.coefficients[0], field.coefficients[2])
        pts = mesh.vertices[ids]
        want = stress_modes_at(center, scale, pts) @ beta
        want[:, :2] -= b * (pts - center)
        got = evaluate_recovered_stress(field, 2, pts)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())

    def test_fallback_warning_names_failed_check(self, mesh, mat, caplog):
        case = manufactured_case("a", mat)
        u = solve_dirichlet_problem(mesh, mat, case.body_force, case.displacement)
        with caplog.at_level(logging.WARNING, logger="vemrcp.recovery"):
            recover_field(mesh, mat, boundary_work(mesh, u), case.body_force, "rcp1")
        [message] = [r.getMessage() for r in caplog.records]
        assert re.fullmatch(r"cell 2: vertex patch failed \(condition number 2\.\d+e\+12 above "
                            r"1e\+12\), using single-cell patch", message), message

    def test_rcp0_has_no_fallback(self, mesh, mat):
        case = manufactured_case("b", mat)
        with pytest.raises(RecoveryConditioningError,
                           match=r"^patch at cell 1: condition number 2\.\d+e\+12 above 1e\+12$"):
            run_level(mesh, mat, case, methods=("vem", "rcp0"))


class TestSharedWork:
    """A study level reads the displacement once: one read-only `boundary_work` array W
    feeds the element stresses and every recovery fit, the rcp1 fallback refit included."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """Every W `boundary_work` gives, with a copy taken as it is made."""
        import vemrcp.vem

        original, made = vemrcp.vem.boundary_work, []

        def counted(mesh, u):
            work = original(mesh, u)
            made.append((work, work.copy()))
            return work

        for name, module in list(sys.modules.items()):
            if name.startswith("vemrcp") and getattr(module, "boundary_work", None) is original:
                monkeypatch.setattr(module, "boundary_work", counted)
        return made

    def check_one_evaluation(self, made, result):
        [(work, at_birth)] = made
        assert not work.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            work[0, 0, 0] = 1.0
        assert work.tobytes() == at_birth.tobytes()
        assert at_birth.tobytes() == boundary_work(result.mesh, result.displacement).tobytes()

    def test_one_evaluation_per_generated_level(self, evaluations, mat):
        mesh = shared_mesh(MeshFamily.CONC_U, 8)
        result, _ = run_level(mesh, mat, manufactured_case("b", mat), methods=METHODS)
        self.check_one_evaluation(evaluations, result)

    def test_one_evaluation_with_a_fallback_refit(self, evaluations, mat):
        mesh = load_mesh(Path(__file__).parent / "data" / "fallback.pmesh")
        result, _ = run_level(mesh, mat, manufactured_case("b", mat), methods=("vem", "rcp1"))
        assert result.recovered["rcp1"].fallback_cells == (2,)
        self.check_one_evaluation(evaluations, result)


class TestNearlyIncompressible:
    """The constant modes are solved in closed form, and no linear mode is purely
    volumetric, so the condition number of a patch's 4x4 system depends on its
    shape and not on lambda / mu. Up to lambda / mu = 1e14, where the VEM
    solution locks, no patch may fail, and the fallback mesh still falls back
    on cell 2 only."""

    @pytest.mark.parametrize("family", [MeshFamily.QUAD_S, MeshFamily.POLY_U, MeshFamily.CONC_U],
                             ids=lambda f: f.value)
    def test_no_failed_level_and_no_fallback(self, family):
        mesh = shared_mesh(family, 8, seed=0)
        for lam in (1e6, 1e12, 1e14):
            mat = LameMaterial(lam, 1.0)
            result, errors = run_level(mesh, mat, manufactured_case("a", mat))
            assert all(np.isfinite(e) and e > 0.0 for e in errors.values()), (lam, errors)
            assert [f.fallback_cells for f in result.recovered.values()] == [(), ()], lam

    def test_fallback_mesh_falls_back_on_cell_2(self):
        mesh = load_mesh(Path(__file__).parent / "data" / "fallback.pmesh")
        for lam in (1.0, 1e6, 1e12, 1e14):
            mat = LameMaterial(lam, 1.0)
            result, errors = run_level(mesh, mat, manufactured_case("a", mat),
                                       methods=("vem", "rcp1"))
            assert result.recovered["rcp1"].fallback_cells == (2,), lam
            assert np.isfinite(errors["rcp1"]) and errors["rcp1"] > 0.0, lam

    def test_non_finite_solve_names_backward_error(self, mat):
        mesh = centered_square_mesh()
        u = np.zeros(8)
        u[0] = np.nan
        with pytest.raises(RecoveryConditioningError,
                           match=r"^patch at cell 0: backward error nan above 1\.42e-14$"):
            recover_field(mesh, mat, boundary_work(mesh, u), zero_body_force, "rcp0")

    def test_backward_error_named_in_warning_and_error(self, mat, monkeypatch, caplog):
        # Forced: patch 1 of every fit fails its backward error.
        import vemrcp.recovery as rec

        mesh = shared_mesh(MeshFamily.QUAD_S, 2)
        u = solve_dirichlet_problem(mesh, mat, zero_body_force, linear_patch_case(mat).displacement)
        solve = rec.solve_patches

        def inaccurate(H, g):
            linear, failed, checks = solve(H, g)
            if len(g) > 1:
                checks[1, 1], failed[1] = 1.0, True
            return linear, failed, checks

        monkeypatch.setattr(rec, "solve_patches", inaccurate)
        reason = "backward error 1 above 1.42e-14"
        with caplog.at_level(logging.WARNING, logger="vemrcp.recovery"):
            field = rec.recover_field(mesh, mat, boundary_work(mesh, u), zero_body_force, "rcp1")
        assert field.fallback_cells == (1,)
        assert [r.getMessage() for r in caplog.records] == [
            f"cell 1: vertex patch failed ({reason}), using single-cell patch"]
        with pytest.raises(RecoveryConditioningError, match=rf"^patch at cell 1: {reason}$"):
            rec.recover_field(mesh, mat, boundary_work(mesh, u), zero_body_force, "rcp0")

    def test_non_finite_coefficient_after_conversion_named(self, mat, monkeypatch):
        # Forced: a zero patch scale makes the gradient of finite mode coefficients
        # non-finite, and only the conversion to x and y sees it.
        import vemrcp.recovery as rec

        systems = rec.patch_systems

        def zero_scales(*args):
            centers, scales, *rest = systems(*args)
            return (centers, np.zeros_like(scales), *rest)

        monkeypatch.setattr(rec, "patch_systems", zero_scales)
        mesh = centered_square_mesh()
        u = np.random.default_rng(3).standard_normal(8)
        with pytest.raises(RecoveryConditioningError,
                           match=r"^patch at cell 0: a mode coefficient is not finite$"):
            rec.recover_field(mesh, mat, boundary_work(mesh, u), zero_body_force, "rcp0")

    def test_overflowing_constants_named(self, rng):
        # The linear-mode system passes both checks; only the closed-form
        # constants C S[0] / |P| overflow.
        mat = LameMaterial(1e300, 1.0)
        u = 1e10 * rng.standard_normal(8)
        mesh = centered_square_mesh()
        with pytest.raises(RecoveryConditioningError,
                           match=r"^patch at cell 0: a mode coefficient is not finite$"):
            recover_field(mesh, mat, boundary_work(mesh, u), zero_body_force, "rcp0")


class TestLoadCalls:
    """Each load is sampled by one vectorized call per assembly and per fit."""

    def test_one_call_per_assembly_and_fit(self, mat):
        mesh = shared_mesh(MeshFamily.CONC_U, 8, seed=0)
        case = manufactured_case("b", mat)
        load, boundary = RecordedField(case.body_force), RecordedField(case.displacement)
        u = solve_dirichlet_problem(mesh, mat, load, boundary)
        assert len(boundary.calls) == 1
        np.testing.assert_array_equal(boundary.calls[0], mesh.vertices[mesh.boundary_vertices()])
        assert len(load.calls) == 1
        np.testing.assert_array_equal(load.calls[0], mesh.centroids)
        for kind in RECOVERY_KINDS:
            load.calls.clear()
            field = recover_field(mesh, mat, boundary_work(mesh, u), load, kind)
            assert len(load.calls) == 1
            assert len(load.calls[0]) == mesh.num_cells
            np.testing.assert_array_equal(load.calls[0], field.centers)

    def test_one_exact_stress_call_per_norm_and_export(self, mat):
        mesh = shared_mesh(MeshFamily.CONC_U, 8, seed=0)
        base = manufactured_case("b", mat)
        stress = RecordedField(base.stress)
        case = dataclasses.replace(base, stress=stress)
        result, _ = run_level(mesh, mat, case, methods=("vem", "rcp1"))
        assert len(stress.calls) == 1
        rules = [cell_quadrature(mesh, ci) for ci in range(mesh.num_cells)]
        np.testing.assert_array_equal(stress.calls[0], np.concatenate([p for p, _ in rules]))
        stress.calls.clear()
        fields = _von_mises_fields(result, mat, ("vem", "rcp1"))
        assert fields.keys() == {"vm_vem", "vm_rcp1", "vm_exact"}
        assert len(stress.calls) == 1
        np.testing.assert_array_equal(stress.calls[0], mesh.centroids)

    def test_patch_test_samples_the_displacement_once_per_use(self, mat, monkeypatch):
        recorded = []

        def recorded_case(material):
            case = linear_patch_case(material)
            recorded.append(RecordedField(case.displacement))
            return dataclasses.replace(case, displacement=recorded[-1])

        monkeypatch.setattr("vemrcp.study.linear_patch_case", recorded_case)
        [result] = run_patch_test(mat, [MeshFamily.HEX_S], subdivisions=3, methods=("vem",))
        assert result.passed()
        mesh = shared_mesh(MeshFamily.HEX_S, 3)
        # The boundary data of the solve, then the exact field at every vertex.
        [calls] = [r.calls for r in recorded]
        assert len(calls) == 2
        np.testing.assert_array_equal(calls[0], mesh.vertices[mesh.boundary_vertices()])
        np.testing.assert_array_equal(calls[1], mesh.vertices)


class TestCheckedInput:
    """Every field and vector `recover_field` reads has one shape; any other raises
    ValueError naming it. A cell id that is not a cell of the field is rejected."""

    @pytest.fixture(scope="class")
    def solved(self):
        mat = LameMaterial(1.0, 1.0)
        mesh = shared_mesh(MeshFamily.QUAD_S, 3)
        case = manufactured_case("b", mat)
        u = solve_dirichlet_problem(mesh, mat, case.body_force, case.displacement)
        return mat, mesh, case, u

    @pytest.mark.parametrize("kind", RECOVERY_KINDS)
    @pytest.mark.parametrize("load, shape", [
        (lambda x, y: np.ones((len(x), 1)), "(9, 1)"),
        (lambda x, y: 1.0, "()"),
        (lambda x, y: np.ones((2, len(x))), "(2, 9)"),
    ], ids=["column", "scalar", "transposed"])
    def test_malformed_load_rejected(self, solved, kind, load, shape):
        mat, mesh, _, u = solved
        with pytest.raises(ValueError, match=f"^body force gave shape {re.escape(shape)} at 9 points$"):
            recover_field(mesh, mat, boundary_work(mesh, u), load, kind)

    @pytest.mark.parametrize("kind", RECOVERY_KINDS)
    @pytest.mark.parametrize("extra", [2, -2], ids=["long", "short"])
    def test_dof_vector_of_wrong_length_rejected(self, solved, kind, extra):
        # The recovery reads u only through its `boundary_work`, which rejects the vector;
        # handed to a fit in W's place, the vector is rejected by its shape.
        mat, mesh, case, u = solved
        u = np.zeros(len(u) + extra)
        message = rf"^displacement has shape \({len(u)},\), not \(32,\) for 16 vertices$"
        with pytest.raises(ValueError, match=message):
            boundary_work(mesh, u)
        with pytest.raises(ValueError, match=rf"^boundary work has shape \({len(u)},\), "):
            recover_field(mesh, mat, u, case.body_force, kind)

    def test_callable_displacement_rejected(self, solved):
        # The displacement is read as the VEM gives it: vertex values.
        mat, mesh, case, _ = solved
        with pytest.raises(TypeError):
            boundary_work(mesh, case.displacement)
        with pytest.raises(TypeError):
            recover_field(mesh, mat, case.displacement, case.body_force, "rcp1")

    @pytest.mark.parametrize("shape", [(32,), (9, 3), (10, 3, 3)],
                             ids=["dof-vector", "rows", "extra-cell"])
    def test_work_of_other_shape_rejected(self, solved, shape):
        mat, mesh, case, _ = solved
        message = rf"^boundary work has shape {re.escape(str(shape))}, not \(9, 3, 3\)$"
        with pytest.raises(ValueError, match=message):
            element_stresses(mesh, mat, np.zeros(shape))
        for kind in RECOVERY_KINDS:
            with pytest.raises(ValueError, match=message):
                recover_field(mesh, mat, np.zeros(shape), case.body_force, kind)

    def test_own_field_kept_as_built(self, solved):
        mat, mesh, case, u = solved
        field = recover_field(mesh, mat, boundary_work(mesh, u), case.body_force, "rcp1")
        rebuilt = RecoveredStressField(field.centers, field.coefficients, field.fallback_cells)
        assert rebuilt.centers is field.centers and rebuilt.coefficients is field.coefficients

    @pytest.mark.parametrize("centers, coefficients", [
        ((2, 2), (3, 3, 3)),
        ((3, 2), (3, 3)),
        ((3, 3), (3, 3, 3)),
        ((3, 2), (3, 3, 2)),
        ((3, 2), ()),
    ], ids=["short-centers", "flat-coefficients", "wide-centers", "narrow-coefficients",
            "scalar-coefficients"])
    def test_hand_built_field_of_other_shape_rejected(self, centers, coefficients):
        message = (f"coefficients of shape {coefficients} and centers of shape {centers}: "
                   "expected (n, 3, 3) and (n, 2)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RecoveredStressField(np.zeros(centers), np.zeros(coefficients))

    @pytest.mark.parametrize("fallback, error, message", [
        ((3,), ValueError, "cell id 3 out of range for a mesh of 3 cells"),
        ((0, -1), ValueError, "cell id -1 out of range for a mesh of 3 cells"),
        ((1.0,), TypeError, "cell id 1.0 is not an integer"),
    ], ids=["past-end", "negative", "float"])
    def test_hand_built_fallback_cell_checked(self, fallback, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            RecoveredStressField(np.zeros((3, 2)), np.zeros((3, 3, 3)), fallback)

    @pytest.mark.parametrize("cell, error, message", [
        (-1, ValueError, "cell id -1 out of range for a mesh of 9 cells"),
        (9, ValueError, "cell id 9 out of range for a mesh of 9 cells"),
        (np.array([0, 9]), ValueError, "cell id 9 out of range for a mesh of 9 cells"),
        (2.0, TypeError, "cell id 2.0 is not an integer"),
        (True, TypeError, "cell id True is not an integer"),
    ])
    def test_bad_cell_id_rejected(self, solved, cell, error, message):
        mat, mesh, case, u = solved
        field = recover_field(mesh, mat, boundary_work(mesh, u), case.body_force, "rcp1")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            evaluate_recovered_stress(field, cell, np.full((2, 2), 0.5))


    @pytest.mark.parametrize("cell, points", [
        ([0, 1, 2], (4, 3)),
        ([0, 1, 2], (2, 2)),
        ([0, 1, 2], (2,)),
        (0, (4, 3)),
        (0, ()),
    ], ids=["wide-points", "fewer-points", "one-point", "one-id-wide-points", "scalar-point"])
    def test_ids_and_points_that_do_not_line_up_rejected(self, solved, cell, points):
        # Three ids against one (2,) point used to evaluate every cell at that point.
        mat, mesh, case, u = solved
        field = recover_field(mesh, mat, boundary_work(mesh, u), case.body_force, "rcp1")
        message = f"cell ids of shape {np.shape(cell)} and points of shape {points}: "
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            evaluate_recovered_stress(field, np.array(cell), np.full(points, 0.5))

class TestEvaluateRecovered:
    def test_unit_constant_mode(self, mat):
        field = RecoveredStressField(
            centers=np.array([[0.5, 0.5]]),
            coefficients=np.array([[[1.0, 0, 0], [0, 0, 0], [0, 0, 0]]]),
        )
        pts = np.array([[0.1, 0.9], [0.6, 0.4]])
        np.testing.assert_allclose(
            evaluate_recovered_stress(field, 0, pts),
            [[1, 0, 0], [1, 0, 0]],
        )

    def test_center_value_is_constant_coefficients(self, mat):
        mesh = shared_mesh(MeshFamily.HEX_S, 3)
        case = linear_patch_case(mat)
        u = solve_dirichlet_problem(mesh, mat, zero_body_force, case.displacement)
        field = recover_field(mesh, mat, boundary_work(mesh, u), zero_body_force, "rcp0")
        for ci in (0, 5):
            value = evaluate_recovered_stress(field, ci, field.centers[ci])
            np.testing.assert_allclose(value, field.coefficients[ci, 0], atol=1e-15)

    def test_cell_array_matches_per_cell_calls(self, mat, rng):
        mesh = shared_mesh(MeshFamily.CONC_U, 4, seed=0)
        case = manufactured_case("b", mat)
        u = solve_dirichlet_problem(mesh, mat, case.body_force, case.displacement)
        field = recover_field(mesh, mat, boundary_work(mesh, u), case.body_force, "rcp1")
        cells = rng.integers(0, mesh.num_cells, 200)
        pts = rng.uniform(0.0, 1.0, (200, 2))
        expected = [evaluate_recovered_stress(field, int(c), p) for c, p in zip(cells, pts)]
        np.testing.assert_allclose(
            evaluate_recovered_stress(field, cells, pts), expected, rtol=1e-14, atol=1e-14
        )

    def test_equilibrium_with_sampled_force(self, mat, rng):
        mesh = shared_mesh(MeshFamily.QUAD_U, 3, seed=4)
        case = manufactured_case("b", mat)
        u = solve_dirichlet_problem(
            mesh, mat, case.body_force, lambda x, y: case.displacement(x, y)
        )
        for kind in ("rcp0", "rcp1"):
            field = recover_field(mesh, mat, boundary_work(mesh, u), case.body_force, kind)
            loads = case.body_force(*field.centers.T)
            for ci in range(mesh.num_cells):
                pts = random_points_in_cell(mesh, ci, rng, 10)
                div = fd_stress_divergence(
                    lambda x, y: evaluate_recovered_stress(
                        field, ci, np.stack([x, y], axis=-1)
                    ),
                    pts[:, 0], pts[:, 1],
                )
                np.testing.assert_allclose(div + loads[ci], 0.0, atol=1e-8)

    @settings(derandomize=True, deadline=None)
    @given(
        family=st.sampled_from([MeshFamily.TRI_U, MeshFamily.QUAD_U, MeshFamily.POLY_U,
                                MeshFamily.CONC_U]),
        n=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equilibrium_on_random_unstructured_meshes(self, family, n, seed):
        mat = LameMaterial(1.0, 1.0)
        mesh = shared_mesh(family, n, seed)
        case = manufactured_case("b", mat)
        u = solve_dirichlet_problem(mesh, mat, case.body_force, case.displacement)
        cells = np.arange(mesh.num_cells)
        for kind in RECOVERY_KINDS:
            field = recover_field(mesh, mat, boundary_work(mesh, u), case.body_force, kind)
            div = fd_stress_divergence(
                lambda x, y: evaluate_recovered_stress(field, cells, np.stack([x, y], axis=-1)),
                *mesh.centroids.T, h=1e-4,
            )
            assert np.abs(div + case.body_force(*field.centers.T)).max() <= 1e-8, kind


class TestFrameInvariance:
    def test_translation_by_hundred(self, mat, rng):
        bending, _ = bending_case(mat)
        case = manufactured_case("b", mat)
        base = shared_mesh(MeshFamily.QUAD_U, 3, seed=9)
        shift = np.array([100.0, 100.0])
        shifted = PolygonalMesh(base.vertices + shift, base.offsets, base.indices)

        def shifted_fn(fn):
            return lambda x, y: fn(x - shift[0], y - shift[1])

        # The vertex values of an unloaded linear stress in the mode span, then those of
        # case b with its load; both meshes get the same values.
        loads = ((bending, zero_body_force), (case.displacement, case.body_force))
        for displacement, body_force in loads:
            u = displacement(*base.vertices.T).ravel()
            field_a = recover_field(base, mat, boundary_work(base, u), body_force, "rcp1")
            field_b = recover_field(shifted, mat, boundary_work(shifted, u),
                                    shifted_fn(body_force), "rcp1")
            for ci in range(base.num_cells):
                pts = random_points_in_cell(base, ci, rng, 4)
                sa = evaluate_recovered_stress(field_a, ci, pts)
                sb = evaluate_recovered_stress(field_b, ci, pts + shift)
                np.testing.assert_allclose(sa, sb, atol=1e-8)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        family=st.sampled_from(GENERATED_FAMILIES),
        kind=st.sampled_from(RECOVERY_KINDS),
        shift=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        scale=st.floats(1e-2, 1e2),
    )
    def test_similarity_moves_stress_by_the_scale_only(self, family, kind, shift, scale):
        # x -> scale x + shift with the same vertex displacements divides every strain by scale.
        mat = LameMaterial(1.0, 1.0)
        mesh = shared_mesh(family, 4, seed=0)
        moved = PolygonalMesh(scale * mesh.vertices + shift, mesh.offsets, mesh.indices)
        u = np.random.default_rng(7).standard_normal(2 * mesh.num_vertices)
        cells = np.arange(mesh.num_cells)
        before = evaluate_recovered_stress(recover_field(
            mesh, mat, boundary_work(mesh, u), zero_body_force, kind), cells, mesh.centroids)
        after = evaluate_recovered_stress(recover_field(
            moved, mat, boundary_work(moved, u), zero_body_force, kind), cells, moved.centroids)
        np.testing.assert_allclose(scale * after, before, rtol=0,
                                   atol=1e-9 * np.abs(before).max())


    @pytest.mark.parametrize("kind", RECOVERY_KINDS)
    def test_smallest_normal_moments_still_recover(self, kind):
        # Scaled by 1e-76, the quad-s n = 4 cells' central second moments (3.3e-308)
        # are still normal numbers, and the recovered stress is the unscaled one
        # divided by the scale (measured: within 1.9e-15). By 1e-77 they turn
        # subnormal (3.3e-312), and the mesh rejects them.
        mat = LameMaterial(1.0, 1.0)
        mesh = shared_mesh(MeshFamily.QUAD_S, 4)
        u = np.random.default_rng(7).standard_normal(2 * mesh.num_vertices)
        cells = np.arange(mesh.num_cells)
        before = evaluate_recovered_stress(recover_field(
            mesh, mat, boundary_work(mesh, u), zero_body_force, kind), cells, mesh.centroids)
        moved = PolygonalMesh(1e-76 * mesh.vertices, mesh.offsets, mesh.indices)
        field = recover_field(moved, mat, boundary_work(moved, u), zero_body_force, kind)
        assert field.fallback_cells == ()
        after = evaluate_recovered_stress(field, cells, moved.centroids)
        assert np.abs(1e-76 * after - before).max() <= 1e-14 * np.abs(before).max()
        with pytest.raises(MeshError, match="^cell 0 has moments that underflow$"):
            PolygonalMesh(1e-77 * mesh.vertices, mesh.offsets, mesh.indices)


class TestBoundaryWork:
    @pytest.mark.parametrize("family", GENERATED_FAMILIES, ids=lambda f: f.value)
    def test_member_sums_match_outer_edge_oracle(self, family, mat):
        # Per-cell work summed over the members against work over each patch's
        # outer edges, and the blocks against the oracle's coupled 7x7 system.
        mesh = shared_mesh(family, 8, seed=0)
        case = manufactured_case("b", mat)
        u = solve_dirichlet_problem(mesh, mat, case.body_force, case.displacement)
        bending, _ = bending_case(mat)
        bending = bending(*mesh.vertices.T).ravel()
        Cinv = compliance_matrix(mat)
        cells = np.arange(mesh.num_cells)
        for kind in RECOVERY_KINDS:
            for request in (cells, cells[::-3]):
                patches = build_patch(mesh, request, kind)
                for displacement, body_force in ((u, case.body_force), (bending, zero_body_force)):
                    *got, constants, H, g = patch_systems(
                        mesh, mat, patches, boundary_work(mesh, displacement), body_force)
                    *want, H7, g7 = patch_systems_outer_edges(mesh, mat, patches, displacement,
                                                              body_force)
                    for a, b in zip(got, want):                  # centers, scales, loads
                        np.testing.assert_array_equal(a, b)
                    # Relative to each patch's largest 7x7 entry: some entries cancel to rounding.
                    for name, a, full in (("H", H, H7), ("g", g, g7)):
                        b = full[:, 3:, 3:] if name == "H" else full[:, 3:]
                        a, b, full = (x.reshape(len(request), -1) for x in (a, b, full))
                        err = np.abs(a - b).max(axis=1) / np.abs(full).max(axis=1)
                        assert err.max() <= 1e-12, (kind, name, err.max())
                    # blockdiag(|P| C^-1, H), and the closed-form constants solve it.
                    area = np.bincount(patches.owner, mesh.areas[patches.member_cells])
                    err = np.abs(H7[:, :3, :3] - area[:, None, None] * Cinv).max(axis=(1, 2))
                    err /= area * np.abs(Cinv).max()
                    assert err.max() <= 1e-15, (kind, err.max())
                    off = np.abs(H7[:, :3, 3:]).max(axis=(1, 2)) / np.abs(H7).max(axis=(1, 2))
                    assert off.max() <= 1e-14, (kind, off.max())
                    beta7 = np.linalg.solve(H7, g7[..., None])[..., 0]
                    err = np.abs(constants - beta7[:, :3]).max(axis=1) / np.abs(beta7).max(axis=1)
                    assert err.max() <= 1e-13, (kind, err.max())


class TestOuterEdges:
    @pytest.mark.parametrize(
        "family", [MeshFamily.CONC_U, MeshFamily.POLY_U], ids=lambda f: f.value
    )
    def test_matches_brute_force_edge_map(self, family):
        mesh = shared_mesh(family, 8, seed=0)
        edge_map = {}                                   # (lo, hi) -> cells using the edge
        cells = mesh_cells(mesh)
        for ci, cell in enumerate(cells):
            for i, j in zip(cell.tolist(), np.roll(cell, -1).tolist()):
                edge_map.setdefault((min(i, j), max(i, j)), []).append(ci)
        owner, member = build_patch(mesh, np.arange(mesh.num_cells), "rcp1")
        patch, edge, outer = patch_edges(mesh, owner, member)
        patch, edge = patch[outer], edge[outer]
        first = np.cumsum([0] + [len(c) for c in cells[:-1]])
        expected = set()
        for k in range(mesh.num_cells):
            members = vertex_patch_per_cell(mesh, k).tolist()
            for ci in members:
                cell = cells[ci]
                for e in range(len(cell)):
                    i, j = sorted((int(cell[e]), int(cell[(e + 1) % len(cell)])))
                    users = edge_map[(i, j)]
                    if all(uc == ci or uc not in members for uc in users):
                        expected.add((k, int(first[ci]) + e))
        assert len(patch) == len(expected)
        assert set(zip(patch.tolist(), edge.tolist())) == expected
