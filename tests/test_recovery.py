"""Stress-mode, particular-stress, patch-system, and recovery tests."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import single_cell_mesh
from oracles import (
    cell_coords,
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
from vemrcp.generators import generate_mesh
from vemrcp.material import LameMaterial, compliance_matrix
from vemrcp.mesh import GENERATED_FAMILIES, MeshFamily, PolygonalMesh, load_mesh, validate_mesh
from vemrcp.quadrature import TRI7_BARY, TRI7_WEIGHTS
from vemrcp.recovery import (
    RECOVERY_KINDS,
    RecoveredStressField,
    RecoveryConditioningError,
    build_patch,
    evaluate_recovered_stress,
    patch_systems,
    recover_field,
    solve_patches,
)
from vemrcp.study import linear_patch_case, run_level
from vemrcp.vem import element_stresses, solve_dirichlet_problem


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
    """Centre, scale, load sample, H and g of the one patch centred on `cell`."""
    system = patch_systems(mesh, mat, build_patch(mesh, [cell], kind), displacement, body_force)
    return tuple(a[0] for a in system)


def particular_only(field):
    """The same field with every mode coefficient zeroed: its particular stress."""
    return dataclasses.replace(field, betas=np.zeros_like(field.betas))


class TestStressModes:
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
        mesh = generate_mesh(MeshFamily.QUAD_S, 2)
        field = recover_field(mesh, mat, np.zeros(2 * mesh.num_vertices), zero_body_force, "rcp1")
        np.testing.assert_array_equal(field.loads, 0.0)
        pts = rng.uniform(0, 1, (4, 2))
        np.testing.assert_array_equal(evaluate_recovered_stress(field, 0, pts), 0.0)

    def test_constant_force_cell_at_origin(self, mat):
        mesh = centered_square_mesh()

        def unit_x_force(x, y):
            return np.stack([np.ones_like(x), np.zeros_like(x)], axis=-1)

        field = particular_only(recover_field(mesh, mat, np.zeros(8), unit_x_force, "rcp0"))
        np.testing.assert_allclose(field.centers[0], 0.0, atol=1e-15)
        np.testing.assert_array_equal(field.loads[0], [1.0, 0.0])
        xs = np.array([[0.2, 0.1], [-0.3, 0.4]])
        sp = evaluate_recovered_stress(field, 0, xs)
        np.testing.assert_allclose(sp[:, 0], -xs[:, 0], atol=1e-15)
        np.testing.assert_allclose(sp[:, 1:], 0.0)

    def test_divergence_balances_sample_for_test_b(self, mat):
        case = manufactured_case("b", mat)
        mesh = generate_mesh(MeshFamily.POLY_U, 3, seed=6)
        u = np.zeros(2 * mesh.num_vertices)
        field = particular_only(recover_field(mesh, mat, u, case.body_force, "rcp0"))
        for ci in range(mesh.num_cells):
            c = shoelace(cell_coords(mesh, ci))[1]
            # a single-cell patch samples the load at the cell centroid
            np.testing.assert_allclose(field.centers[ci], c, atol=1e-14)
            np.testing.assert_allclose(field.loads[ci], case.body_force(*field.centers[ci]))
            div = fd_stress_divergence(
                lambda x, y: evaluate_recovered_stress(field, ci, np.stack([x, y], axis=-1)),
                c[0], c[1], h=1e-4,
            )
            np.testing.assert_allclose(div + field.loads[ci], 0.0, atol=1e-10)


class TestPatchSystem:
    def test_h_constant_block_on_unit_square(self, mat):
        mesh = centered_square_mesh()
        _, _, _, H, _ = one_patch_system(mesh, mat, 0, "rcp0", np.zeros(8))
        np.testing.assert_allclose(H[:3, :3], compliance_matrix(mat), atol=1e-14)

    def test_h_symmetric(self, mat):
        mesh = generate_mesh(MeshFamily.CONC_U, 2, seed=3)
        for ci in (0, 3):
            _, _, _, H, _ = one_patch_system(
                mesh, mat, ci, "rcp1", np.zeros(2 * mesh.num_vertices)
            )
            np.testing.assert_allclose(H, H.T, atol=1e-13 * np.abs(H).max())

    def test_h_matches_refined_quadrature(self, mat):
        Cinv = compliance_matrix(mat)
        case = manufactured_case("b", mat)
        for family, seed in ((MeshFamily.POLY_U, 5), (MeshFamily.CONC_U, 2)):
            mesh = generate_mesh(family, 2, seed=seed)
            u = np.zeros(2 * mesh.num_vertices)
            center, scale, b, H, g = one_patch_system(
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
            for ci in vertex_patch_per_cell(mesh, 1):
                coords = cell_coords(mesh, ci)
                for tri in ear_clip_per_cell(coords):
                    corners = coords[list(tri)]
                    H_ref += _refined_triangle_integral(corners, h_integrand, depth=2)
                    load_ref += _refined_triangle_integral(corners, load_integrand, depth=2)
            np.testing.assert_allclose(H, H_ref, rtol=1e-12, atol=1e-15)
            # With zero displacement, g is minus the work of the particular stress.
            # Its constant-mode entries vanish exactly (first moments about the
            # centroid), so both sides hold only rounding there.
            atol = 1e-14 * np.abs(load_ref).max()
            np.testing.assert_allclose(-g, load_ref, rtol=1e-12, atol=atol)

    def test_conditioning_guard(self, mat):
        # on a 1 x 1e-7 sliver the eta-linear modes are numerically invisible
        mesh = single_cell_mesh([(0.0, 0.0), (1.0, 0.0), (1.0, 1e-7), (0.0, 1e-7)])
        _, _, _, H, g = one_patch_system(mesh, mat, 0, "rcp0", np.ones(8))
        _, failed = solve_patches(H[None], g[None])
        assert failed.tolist() == [True]
        with pytest.raises(RecoveryConditioningError):
            recover_field(mesh, mat, np.ones(8), zero_body_force, "rcp0")


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
        mesh = generate_mesh(MeshFamily.QUAD_S, 3)
        *_, g = one_patch_system(
            mesh, mat, 4, "rcp1", np.zeros(2 * mesh.num_vertices)
        )
        np.testing.assert_array_equal(g, 0.0)

    def test_rigid_translation_kills_constant_entries(self, mat):
        mesh = generate_mesh(MeshFamily.POLY_U, 3, seed=2)
        u = np.zeros(2 * mesh.num_vertices)
        u[0::2] = 1.0  # unit x translation everywhere
        *_, g = one_patch_system(mesh, mat, 4, "rcp1", u)
        np.testing.assert_allclose(g[:3], 0.0, atol=1e-14)


class TestSolvePatch:
    def test_zero_rhs(self, mat):
        mesh = centered_square_mesh()
        _, _, _, H, _ = one_patch_system(mesh, mat, 0, "rcp0", np.zeros(8))
        betas, failed = solve_patches(H[None], np.zeros((1, 7)))
        np.testing.assert_array_equal(betas, 0.0)
        assert not failed.any()

    def test_constant_stress_round_trip(self, mat):
        # exact boundary displacement of a constant-stress state
        sigma = np.array([1.7, -0.6, 0.8])
        eps = compliance_matrix(mat) @ sigma

        def displacement(x, y):
            return np.stack(
                [eps[0] * x + 0.5 * eps[2] * y, eps[1] * y + 0.5 * eps[2] * x], axis=-1
            )

        mesh = centered_square_mesh()
        _, _, _, H, g = one_patch_system(mesh, mat, 0, "rcp0", displacement)
        (beta,), failed = solve_patches(H[None], g[None])
        assert not failed.any()
        np.testing.assert_allclose(beta[:3], sigma, atol=1e-9)
        np.testing.assert_allclose(beta[3:], 0.0, atol=1e-9)

    def test_linear_stress_in_span_round_trip(self, mat, rng):
        displacement, stress = bending_case(mat)
        pts = 0.5 * np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)]) + np.array([0.25, -0.4])
        mesh = single_cell_mesh(pts)
        center, scale, _, H, g = one_patch_system(mesh, mat, 0, "rcp0", displacement)
        (beta,), failed = solve_patches(H[None], g[None])
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
        mesh = generate_mesh(family, 3, seed=1)
        case = linear_patch_case(mat)
        u = solve_dirichlet_problem(mesh, mat, zero_body_force, case.displacement)
        field = recover_field(mesh, mat, u, zero_body_force, kind)
        expected = case.stress(0.0, 0.0)
        for ci in range(mesh.num_cells):
            pts = random_points_in_cell(mesh, ci, rng, 3)
            np.testing.assert_allclose(
                evaluate_recovered_stress(field, ci, pts),
                np.broadcast_to(expected, (3, 3)),
                atol=1e-9,
            )

    def test_rcp0_constant_part_equals_element_stress(self, mat):
        mesh = generate_mesh(MeshFamily.TRI_U, 4, seed=11)
        case = manufactured_case("a", mat)
        u = solve_dirichlet_problem(
            mesh, mat, case.body_force, lambda x, y: case.displacement(x, y)
        )
        stresses = element_stresses(mesh, mat, u)
        field = recover_field(mesh, mat, u, case.body_force, "rcp0")
        for ci in range(mesh.num_cells):
            # at the patch center the mode matrix reduces to the constant block
            np.testing.assert_allclose(field.betas[ci][:3], stresses[ci], atol=1e-9)
            # and on triangles the linear part vanishes identically
            np.testing.assert_allclose(field.betas[ci][3:], 0.0, atol=1e-9)

    def test_unknown_kind_rejected(self, mat, unit_square_mesh):
        with pytest.raises(ValueError, match="kind"):
            recover_field(unit_square_mesh, mat, np.zeros(8), zero_body_force, "vem")

    def test_fallback_to_single_cell_patch(self, mat, monkeypatch):
        import vemrcp.recovery as rec

        mesh = generate_mesh(MeshFamily.QUAD_S, 2)
        case = linear_patch_case(mat)
        u = solve_dirichlet_problem(mesh, mat, zero_body_force, case.displacement)
        original = rec.patch_systems

        def singular_H(mesh_, material, patches, displacement, body_force):
            system = original(mesh_, material, patches, displacement, body_force)
            # The full fit requests every cell in order, so patch 1 is centred on cell 1.
            if np.count_nonzero(patches.owner == 1) > 1:
                system.H[1, 6, :] = system.H[1, :, 6] = 0.0  # forced
            return system

        monkeypatch.setattr(rec, "patch_systems", singular_H)
        field = rec.recover_field(mesh, mat, u, zero_body_force, "rcp1")
        assert field.fallback_cells == (1,)
        expected = case.stress(0.0, 0.0)
        np.testing.assert_allclose(field.betas[1][:3], expected, atol=1e-9)


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
        mesh = load_mesh(Path(__file__).parent / "data" / "fallback.pmesh")
        assert validate_mesh(mesh) == []
        return mesh

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
        system = patch_systems(mesh, mat, build_patch(mesh, [2], "rcp0"), result.displacement,
                               case.body_force)
        betas, failed = solve_patches(system.H, system.g)
        assert not failed.any()
        want = (system.centers, system.scales, betas, system.loads)
        for got, expected in zip((field.centers, field.scales, field.betas, field.loads), want):
            np.testing.assert_array_equal(got[2], expected[0])

    def test_rcp0_has_no_fallback(self, mesh, mat):
        case = manufactured_case("b", mat)
        with pytest.raises(RecoveryConditioningError, match="patch at cell 1"):
            run_level(mesh, mat, case, methods=("vem", "rcp0"))


class TestLoadCalls:
    """Each load is sampled by one vectorized call per assembly and per fit."""

    def test_one_call_per_assembly_and_fit(self, mat):
        mesh = generate_mesh(MeshFamily.CONC_U, 8, seed=0)
        case = manufactured_case("b", mat)
        load, boundary = RecordedField(case.body_force), RecordedField(case.displacement)
        u = solve_dirichlet_problem(mesh, mat, load, boundary)
        assert len(boundary.calls) == 1
        np.testing.assert_array_equal(boundary.calls[0], mesh.vertices[mesh.boundary_vertices()])
        assert len(load.calls) == 1
        np.testing.assert_array_equal(load.calls[0], mesh.centroids)
        for kind in RECOVERY_KINDS:
            load.calls.clear()
            field = recover_field(mesh, mat, u, load, kind)
            assert len(load.calls) == 1
            assert len(load.calls[0]) == mesh.num_cells
            np.testing.assert_array_equal(load.calls[0], field.centers)


class TestEvaluateRecovered:
    def test_unit_constant_mode(self, mat):
        field = RecoveredStressField(
            centers=np.array([[0.5, 0.5]]),
            scales=np.array([1.0]),
            betas=np.array([[1.0, 0, 0, 0, 0, 0, 0]]),
            loads=np.zeros((1, 2)),
        )
        pts = np.array([[0.1, 0.9], [0.6, 0.4]])
        np.testing.assert_allclose(
            evaluate_recovered_stress(field, 0, pts),
            [[1, 0, 0], [1, 0, 0]],
        )

    def test_center_value_is_constant_coefficients(self, mat):
        mesh = generate_mesh(MeshFamily.HEX_S, 3)
        case = linear_patch_case(mat)
        u = solve_dirichlet_problem(mesh, mat, zero_body_force, case.displacement)
        field = recover_field(mesh, mat, u, zero_body_force, "rcp0")
        for ci in (0, 5):
            value = evaluate_recovered_stress(field, ci, field.centers[ci])
            np.testing.assert_allclose(value, field.betas[ci][:3], atol=1e-15)

    def test_cell_array_matches_per_cell_calls(self, mat, rng):
        mesh = generate_mesh(MeshFamily.CONC_U, 4, seed=0)
        case = manufactured_case("b", mat)
        u = solve_dirichlet_problem(mesh, mat, case.body_force, case.displacement)
        field = recover_field(mesh, mat, u, case.body_force, "rcp1")
        cells = rng.integers(0, mesh.num_cells, 200)
        pts = rng.uniform(0.0, 1.0, (200, 2))
        expected = [evaluate_recovered_stress(field, int(c), p) for c, p in zip(cells, pts)]
        np.testing.assert_allclose(
            evaluate_recovered_stress(field, cells, pts), expected, rtol=1e-14, atol=1e-14
        )

    def test_equilibrium_with_sampled_force(self, mat, rng):
        mesh = generate_mesh(MeshFamily.QUAD_U, 3, seed=4)
        case = manufactured_case("b", mat)
        u = solve_dirichlet_problem(
            mesh, mat, case.body_force, lambda x, y: case.displacement(x, y)
        )
        for kind in ("rcp0", "rcp1"):
            field = recover_field(mesh, mat, u, case.body_force, kind)
            for ci in range(mesh.num_cells):
                pts = random_points_in_cell(mesh, ci, rng, 10)
                div = fd_stress_divergence(
                    lambda x, y: evaluate_recovered_stress(
                        field, ci, np.stack([x, y], axis=-1)
                    ),
                    pts[:, 0], pts[:, 1],
                )
                np.testing.assert_allclose(div + field.loads[ci], 0.0, atol=1e-8)

    @settings(derandomize=True, deadline=None)
    @given(
        family=st.sampled_from([MeshFamily.TRI_U, MeshFamily.QUAD_U, MeshFamily.POLY_U,
                                MeshFamily.CONC_U]),
        n=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equilibrium_on_random_unstructured_meshes(self, family, n, seed):
        mat = LameMaterial(1.0, 1.0)
        mesh = generate_mesh(family, n, seed)
        case = manufactured_case("b", mat)
        u = solve_dirichlet_problem(mesh, mat, case.body_force, case.displacement)
        cells = np.arange(mesh.num_cells)
        for kind in RECOVERY_KINDS:
            field = recover_field(mesh, mat, u, case.body_force, kind)
            div = fd_stress_divergence(
                lambda x, y: evaluate_recovered_stress(field, cells, np.stack([x, y], axis=-1)),
                *mesh.centroids.T, h=1e-4,
            )
            assert np.abs(div + field.loads).max() <= 1e-8, kind


class TestFrameInvariance:
    def test_translation_by_hundred(self, mat, rng):
        bending, _ = bending_case(mat)
        case = manufactured_case("b", mat)
        base = generate_mesh(MeshFamily.QUAD_U, 3, seed=9)
        shift = np.array([100.0, 100.0])
        shifted = PolygonalMesh(base.vertices + shift, base.offsets, base.indices,
                                MeshFamily.EXTERNAL)

        def shifted_fn(fn):
            return lambda x, y: fn(x - shift[0], y - shift[1])

        # an unloaded linear stress in the mode span, then case b with its load
        loads = ((bending, zero_body_force), (case.displacement, case.body_force))
        for displacement, body_force in loads:
            field_a = recover_field(base, mat, displacement, body_force, "rcp1")
            field_b = recover_field(
                shifted, mat, shifted_fn(displacement), shifted_fn(body_force), "rcp1"
            )
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
        mesh = generate_mesh(family, 4, seed=0)
        moved = PolygonalMesh(scale * mesh.vertices + shift, mesh.offsets, mesh.indices,
                              mesh.family)
        u = np.random.default_rng(7).standard_normal(2 * mesh.num_vertices)
        cells = np.arange(mesh.num_cells)
        before = evaluate_recovered_stress(
            recover_field(mesh, mat, u, zero_body_force, kind), cells, mesh.centroids)
        after = evaluate_recovered_stress(
            recover_field(moved, mat, u, zero_body_force, kind), cells, moved.centroids)
        np.testing.assert_allclose(scale * after, before, rtol=0,
                                   atol=1e-9 * np.abs(before).max())


class TestBoundaryWork:
    @pytest.mark.parametrize("family", GENERATED_FAMILIES, ids=lambda f: f.value)
    def test_member_sums_match_outer_edge_oracle(self, family, mat):
        # Per-cell work summed over the members against work over each patch's outer edges.
        mesh = generate_mesh(family, 8, seed=0)
        case = manufactured_case("b", mat)
        u = solve_dirichlet_problem(mesh, mat, case.body_force, case.displacement)
        bending, _ = bending_case(mat)
        cells = np.arange(mesh.num_cells)
        for kind in RECOVERY_KINDS:
            for request in (cells, cells[::-3]):
                patches = build_patch(mesh, request, kind)
                for displacement, body_force in ((u, case.body_force), (bending, zero_body_force)):
                    got = patch_systems(mesh, mat, patches, displacement, body_force)
                    want = patch_systems_outer_edges(mesh, mat, patches, displacement,
                                                     body_force)
                    for name in ("centers", "scales", "loads"):
                        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
                    for name in ("H", "g"):
                        # Relative to each patch's largest entry: some entries cancel to rounding.
                        a, b = (getattr(s, name).reshape(len(request), -1) for s in (got, want))
                        err = np.abs(a - b).max(axis=1) / np.abs(b).max(axis=1)
                        assert err.max() <= 1e-12, (kind, name, err.max())


class TestOuterEdges:
    @pytest.mark.parametrize(
        "family", [MeshFamily.CONC_U, MeshFamily.POLY_U], ids=lambda f: f.value
    )
    def test_matches_brute_force_edge_map(self, family):
        mesh = generate_mesh(family, 8, seed=0)
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
