"""Element operators, assembly, Dirichlet handling, solve, and stress tests."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shared_mesh, single_cell_mesh
from oracles import (
    assemble_triplets,
    cell_coords,
    cst_solve,
    interleaved_stabilization,
    linear_complement_longdouble,
    mesh_cells,
    random_simple_polygon,
    shoelace,
    stabilization_complement_qr,
)
from vemrcp.cases import zero_body_force
from vemrcp.material import LameMaterial, elastic_matrix
from vemrcp.mesh import (
    GENERATED_FAMILIES,
    MeshError,
    MeshFamily,
    PolygonalMesh,
)
from vemrcp.study import linear_patch_case
from vemrcp.vem import (
    ConstrainedSystem,
    SolveError,
    apply_dirichlet,
    assemble_global,
    compute_B,
    element_matrices,
    element_stresses,
    linear_complement,
    solve_dirichlet_problem,
    solve_system,
)


def dof_vector_from(mesh, cell, u):
    """Sample a displacement field u(x, y) -> (2,) at the cell's vertices."""
    pts = cell_coords(mesh, cell)
    return np.array([u(x, y) for x, y in pts]).ravel()


def random_polygon_mesh(rng, n=6):
    while True:
        angles = np.sort(rng.uniform(0, 2 * np.pi, n))
        gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
        if gaps.min() > 0.1 and gaps.max() < np.pi - 0.1:
            break
    radii = rng.uniform(0.5, 1.0, n)
    pts = 0.3 * radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)]) + 0.5
    return single_cell_mesh(pts)


def cell_ops(mesh, mat):
    """(Kc, S) of the grouped kernel called on the one cell of a one-cell mesh."""
    Kc, S = element_matrices(cell_coords(mesh, 0)[None], mesh.areas[:1], [0], elastic_matrix(mat))
    return Kc[0], S[0]


def stiffness(Kc, S) -> np.ndarray:
    """Element stiffness Kc + S (x) I_2 of one cell or a stack."""
    return Kc + interleaved_stabilization(S)


def cell_B(mesh):
    return compute_B(cell_coords(mesh, 0)[None])[0]


def projector(mesh):
    """Pi_m = B / |E| of the one cell of a one-cell mesh, with the mesh's stored area."""
    return cell_B(mesh) / mesh.areas[0]


def constant_body_force(bx, by):
    """The vectorized constant load b(x, y) = (bx, by), shaped (..., 2) like x."""
    return lambda x, y: np.stack([np.full(np.shape(x), bx), np.full(np.shape(x), by)], axis=-1)


class TestComputeG:
    """G = |E| I, so the kernel needs only the area it divides B by: the mesh's stored area."""

    def test_unit_square(self, unit_square_mesh, mat):
        assert unit_square_mesh.areas[0] == pytest.approx(1.0, rel=1e-15)

    def test_half_area_cell(self, mat):
        mesh = single_cell_mesh([(0, 0), (1, 0), (0, 1)])
        assert mesh.areas[0] == pytest.approx(0.5, rel=1e-15)

    def test_matches_quadrature(self, rng, mat):
        from vemrcp.quadrature import cell_quadrature

        mesh = random_polygon_mesh(rng)
        pts, w = cell_quadrature(mesh, 0)
        # constant-strain basis is the identity, so the gram matrix is area * I
        assert mesh.areas[0] == pytest.approx(w.sum(), abs=1e-13)


class TestComputeB:
    def test_divergence_theorem_on_linear_field(self, unit_square_mesh):
        v = dof_vector_from(unit_square_mesh, 0, lambda x, y: (x, 0.0))
        np.testing.assert_allclose(cell_B(unit_square_mesh) @ v, [1, 0, 0], atol=1e-14)

    def test_rigid_translation_annihilated(self, rng):
        mesh = random_polygon_mesh(rng)
        v = dof_vector_from(mesh, 0, lambda x, y: (1.0, 0.0))
        np.testing.assert_allclose(cell_B(mesh) @ v, 0.0, atol=1e-14)

    def test_rigid_rotation_annihilated(self, rng):
        mesh = random_polygon_mesh(rng)
        v = dof_vector_from(mesh, 0, lambda x, y: (-y, x))
        np.testing.assert_allclose(cell_B(mesh) @ v, 0.0, atol=1e-13)


class TestProjector:
    def test_first_order_projector_is_scaled_B(self, rng, mat):
        # The kernel's Kc = |E| Pi_m^T C Pi_m, with Pi_m the B of the cell over its shoelace area.
        mesh = random_polygon_mesh(rng)
        area = shoelace(cell_coords(mesh, 0))[0]
        Pi = cell_B(mesh) / area
        Kc, _ = cell_ops(mesh, mat)
        np.testing.assert_allclose(Kc, area * Pi.T @ elastic_matrix(mat) @ Pi)

    def test_exact_on_constant_strain_field(self, rng, mat):
        mesh = random_polygon_mesh(rng)
        Pi = projector(mesh)
        v = dof_vector_from(mesh, 0, lambda x, y: (x, 0.0))
        np.testing.assert_allclose(Pi @ v, [1, 0, 0], atol=1e-12)

    def test_consistency_on_random_linear_fields(self, rng, mat):
        for _ in range(25):
            mesh = random_polygon_mesh(rng, n=int(rng.integers(3, 9)))
            Pi = projector(mesh)
            a = rng.uniform(-1, 1, 6)
            v = dof_vector_from(
                mesh, 0,
                lambda x, y: (a[0] + a[1] * x + a[2] * y, a[3] + a[4] * x + a[5] * y),
            )
            np.testing.assert_allclose(Pi @ v, [a[1], a[5], a[2] + a[4]], atol=1e-12)

    def test_rigid_motion_maps_to_zero(self, rng, mat):
        mesh = random_polygon_mesh(rng)
        Pi = projector(mesh)
        v = dof_vector_from(mesh, 0, lambda x, y: (2.0 - y, -1.0 + x))
        np.testing.assert_allclose(Pi @ v, 0.0, atol=1e-12)


class TestStiffness:
    def test_rigid_modes_in_kernel(self, mat, rng):
        mesh = random_polygon_mesh(rng)
        Kc, S = cell_ops(mesh, mat)
        for u in (lambda x, y: (1, 0), lambda x, y: (0, 1), lambda x, y: (-y, x)):
            v = dof_vector_from(mesh, 0, u)
            np.testing.assert_allclose(Kc @ v, 0.0, atol=1e-12)
            np.testing.assert_allclose(stiffness(Kc, S) @ v, 0.0, atol=1e-12)

    def test_kc_rank_three_on_hexagon(self, mat, rng):
        mesh = random_polygon_mesh(rng, n=6)
        sv = np.linalg.svd(cell_ops(mesh, mat)[0], compute_uv=False)
        assert np.sum(sv > 1e-10 * sv[0]) == 3

    def test_constant_strain_energy(self, unit_square_mesh, mat):
        # strain (1,0,0) on the unit square: v^T Kc v = (lambda + 2 mu) |E| = 3
        Kc, _ = cell_ops(unit_square_mesh, mat)
        v = dof_vector_from(unit_square_mesh, 0, lambda x, y: (x, 0.0))
        assert v @ Kc @ v == pytest.approx(3.0, rel=1e-13)

    def test_stabilization_kernel_on_linear_fields(self, mat, rng):
        mesh = random_polygon_mesh(rng)
        _, S = cell_ops(mesh, mat)
        for _ in range(10):
            a = rng.uniform(-2, 2, 6)
            v = dof_vector_from(
                mesh, 0,
                lambda x, y: (a[0] + a[1] * x + a[2] * y, a[3] + a[4] * x + a[5] * y),
            )
            # S acts on each displacement component alone: both components are linear.
            np.testing.assert_allclose(S @ v.reshape(-1, 2), 0.0, atol=1e-12)

    def test_triangle_has_zero_stabilization(self, mat):
        mesh = single_cell_mesh([(0, 0), (1, 0), (0.3, 0.8)])
        np.testing.assert_allclose(cell_ops(mesh, mat)[1], 0.0, atol=1e-12)

    def test_full_rank_on_hexagon(self, mat, rng):
        mesh = random_polygon_mesh(rng, n=6)
        sv = np.linalg.svd(stiffness(*cell_ops(mesh, mat)), compute_uv=False)
        assert np.sum(sv > 1e-10 * sv[0]) == 2 * 6 - 3

    def test_symmetry(self, mat, rng):
        mesh = random_polygon_mesh(rng, n=7)
        K = stiffness(*cell_ops(mesh, mat))
        assert np.max(np.abs(K - K.T)) <= 1e-13 * np.max(np.abs(K))


def assert_s_matches_qr(pts, area, centroid, cells, C):
    """S (x) I_2 of the stack is the former QR projector's to 1e-13 of each cell's tau."""
    Kc, S = element_matrices(pts, area, cells, C)
    tau = 0.5 * np.trace(Kc, axis1=1, axis2=2)
    expected = tau[:, None, None] * stabilization_complement_qr(pts, centroid)
    err = np.abs(interleaved_stabilization(S) - expected).max(axis=(1, 2))
    assert (err <= 1e-13 * tau).all(), (err / tau).max()


class TestStabilization:
    """The closed-form per-component projector against the six-column QR it replaced."""

    @pytest.mark.parametrize("family", GENERATED_FAMILIES, ids=lambda f: f.value)
    def test_matches_qr_projector_on_every_family(self, family, mat):
        mesh = shared_mesh(family, 8, seed=0)
        for cells, idx in mesh.groups:
            assert_s_matches_qr(mesh.vertices[idx], mesh.areas[cells], mesh.centroids[cells],
                                 cells, elastic_matrix(mat))

    def test_matches_qr_projector_on_random_polygons(self, mat, rng):
        polygons = [random_simple_polygon(rng) for _ in range(500)]
        for n in {len(p) for p in polygons}:
            pts = np.stack([p for p in polygons if len(p) == n])
            area, centroid = shoelace(pts)
            assert_s_matches_qr(pts, area, centroid, np.arange(len(pts)), elastic_matrix(mat))

    def test_closed_form_matches_longdouble_reference(self):
        mesh = shared_mesh(MeshFamily.QUAD_U, 64, seed=0)
        for cells, idx in mesh.groups:
            pts = mesh.vertices[idx]
            err = np.abs(linear_complement(pts, cells) - linear_complement_longdouble(pts)).max()
            assert err <= 1e-15


@st.composite
def star_shaped_cells(draw):
    """A ccw cell of 3-10 vertices, star-shaped about its centre and concave when radii vary.

    Every angular gap is below pi, so each edge stays inside its own sector: the
    cycle is simple and counterclockwise.
    """
    n = draw(st.integers(3, 10))
    gaps = np.array(draw(st.lists(st.floats(1.0, 1.8), min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
    angles = draw(st.floats(0.0, 2.0 * np.pi)) + 2.0 * np.pi * np.cumsum(gaps) / gaps.sum()
    centre = np.array(draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))))
    return centre + radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])


class TestStabilizationProperties:
    @settings(derandomize=True, deadline=None)
    @given(pts=star_shaped_cells())
    def test_kernel_and_spectrum(self, pts):
        n = len(pts)
        Kc, S = cell_ops(single_cell_mesh(pts), LameMaterial(1.0, 1.0))
        K = stiffness(Kc, S)
        tau = 0.5 * np.trace(Kc)
        x, y = pts.T
        one, zero = np.ones(n), np.zeros(n)

        def dofs(u, v):
            return np.column_stack([u, v]).ravel()

        for v in (dofs(one, zero), dofs(zero, one), dofs(-y, x)):
            assert np.abs(K @ v).max() <= 1e-12 * np.abs(K).max() * np.abs(v).max()
        # S acts on each displacement component alone: it annihilates 1, x and y at the vertices.
        for w in (one, x, y):
            assert np.abs(S @ w).max() <= 1e-12 * tau * np.abs(w).max()
        # S is tau times an orthogonal projector of rank n - 3: eigenvalues 0 and tau only.
        ev = np.linalg.eigvalsh(S) / tau
        assert np.minimum(np.abs(ev), np.abs(ev - 1.0)).max() <= 1e-12
        assert np.count_nonzero(ev > 0.5) == n - 3


class TestRankCheck:
    """A cell too flat to carry the linear fields is rejected by name; a thin one is not."""

    @staticmethod
    def square_and_sliver(height):
        # Cell 1 is a ccw triangle hanging below the square's bottom edge.
        vertices = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, -height)], dtype=float)
        return PolygonalMesh(vertices, [0, 4, 7], [0, 1, 2, 3, 0, 4, 1])

    def test_flat_sliver_raises(self, mat):
        with pytest.raises(MeshError) as info:
            assemble_global(self.square_and_sliver(1e-14), mat)
        assert str(info.value) == "cell 1: degenerate geometry, linear modes are rank deficient"

    def test_thin_sliver_assembles(self, mat):
        K, _ = assemble_global(self.square_and_sliver(1e-6), mat)
        assert np.isfinite(K.data).all()

    @pytest.mark.parametrize("scale", [1e-11, 1e14], ids=["1e-11", "1e14"])
    def test_scaled_squares_assemble(self, scale, mat):
        # r1 and r2 are lengths: the rank test must not compare them with the dimensionless sqrt(n).
        mesh = shared_mesh(MeshFamily.QUAD_S, 8)
        scaled = PolygonalMesh(scale * mesh.vertices, mesh.offsets, mesh.indices)
        assert np.isfinite(assemble_global(scaled, mat)[0].data).all()
        (cells, idx), = mesh.groups
        C = elastic_matrix(mat)
        ref = element_matrices(mesh.vertices[idx], mesh.areas[cells], cells, C)
        ops = element_matrices(scaled.vertices[idx], scaled.areas[cells], cells, C)

        def s_over_tau(m):
            Kc, S = m
            return S / (0.5 * np.trace(Kc, axis1=1, axis2=2))[:, None, None]

        np.testing.assert_allclose(s_over_tau(ops), s_over_tau(ref), rtol=0, atol=1e-12)


class TestLoadVector:
    """On a one-cell mesh the assembled right-hand side is the element load."""

    def test_zero_force(self, unit_square_mesh, mat):
        np.testing.assert_array_equal(
            assemble_global(unit_square_mesh, mat, zero_body_force)[1], np.zeros(8)
        )

    def test_unit_x_force_on_square(self, unit_square_mesh, mat):
        _, f = assemble_global(unit_square_mesh, mat, constant_body_force(1.0, 0.0))
        np.testing.assert_allclose(f[0::2], 0.25)
        np.testing.assert_allclose(f[1::2], 0.0)

    def test_unvectorized_constant_rejected(self, unit_square_mesh, mat):
        # One (2,) value for all cells would be read as one value per cell.
        for mesh in (unit_square_mesh, shared_mesh(MeshFamily.QUAD_S, 2)):
            with pytest.raises(ValueError, match="body force gave shape"):
                assemble_global(mesh, mat, lambda x, y: (1.0, 0.0))

    def test_total_load_equals_area_times_force(self, rng, mat):
        mesh = random_polygon_mesh(rng, n=5)
        b = lambda x, y: np.stack([1.3 * x - y, 0.4 + y], axis=-1)
        _, f = assemble_global(mesh, mat, b)
        area, (cx, cy) = shoelace(cell_coords(mesh, 0))
        expected = area * np.asarray(b(cx, cy))
        np.testing.assert_allclose([f[0::2].sum(), f[1::2].sum()], expected, atol=1e-14)


class TestAssemblyAndSolve:
    def test_single_cell_assembly_matches_element(self, unit_square_mesh, mat):
        K, _ = assemble_global(unit_square_mesh, mat)
        expected = stiffness(*cell_ops(unit_square_mesh, mat))
        np.testing.assert_allclose(K.toarray(), expected, atol=1e-15)

    def test_global_rigid_kernel(self, mat):
        mesh = shared_mesh(MeshFamily.POLY_U, 3, seed=8)
        K, _ = assemble_global(mesh, mat)
        for u in (lambda x, y: (1, 0), lambda x, y: (0, 1), lambda x, y: (-y, x)):
            v = np.array([u(x, y) for x, y in mesh.vertices]).ravel()
            np.testing.assert_allclose(K @ v, 0.0, atol=1e-12)

    def test_stiffness_unchanged_far_from_origin(self, mat):
        mesh = shared_mesh(MeshFamily.QUAD_U, 8)
        shifted = PolygonalMesh(mesh.vertices + [1e4, -1e4], mesh.offsets, mesh.indices)
        K = assemble_global(mesh, mat)[0].toarray()
        K_shifted = assemble_global(shifted, mat)[0].toarray()
        assert np.max(np.abs(K_shifted - K)) <= 1e-10 * np.max(np.abs(K))

    def test_global_symmetry(self, mat):
        mesh = shared_mesh(MeshFamily.CONC_U, 3, seed=8)
        K, _ = assemble_global(mesh, mat)
        diff = (K - K.T).toarray()
        assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(K.toarray()))

    def test_empty_dirichlet_rejected(self, unit_square_mesh, mat):
        K, f = assemble_global(unit_square_mesh, mat)
        with pytest.raises(ValueError, match="Dirichlet"):
            apply_dirichlet(K, f, [], np.zeros((0, 2)))

    @pytest.mark.parametrize("vertices, error, message", [
        ([99], ValueError, "vertex id 99 out of range for a mesh of 16 vertices"),
        ([3, -1], ValueError, "vertex id -1 out of range for a mesh of 16 vertices"),
        ([1.0], TypeError, "vertex id 1.0 is not an integer"),
        ([True], TypeError, "vertex id True is not an integer"),
        # A repeated id would otherwise keep the last of its values.
        ([0, 0, 5], ValueError, "vertex id 0 is listed more than once"),
        ([3, 5, 7, 5, 3], ValueError, "vertex id 5 is listed more than once"),
    ])
    def test_bad_dirichlet_vertex_named(self, mat, vertices, error, message):
        mesh = shared_mesh(MeshFamily.QUAD_S, 3)
        assert mesh.num_vertices == 16
        K, f = assemble_global(mesh, mat)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            apply_dirichlet(K, f, vertices, np.zeros((len(vertices), 2)))

    @pytest.mark.parametrize("vertices, values", [
        ([0, 1, 2], np.zeros((2, 3))), ([0, 1, 2], np.zeros((3, 1))), ([0, 1, 2], 0.0),
        ([[0, 1]], np.zeros((1, 2))), (5, np.zeros((1, 2))),
    ], ids=["2x3", "column", "scalar", "2-d-ids", "0-d-id"])
    def test_dirichlet_values_of_other_shape_rejected(self, mat, vertices, values):
        mesh = shared_mesh(MeshFamily.QUAD_S, 3)
        K, f = assemble_global(mesh, mat)
        message = (f"Dirichlet values have shape {np.shape(values)} for vertex ids of shape "
                   f"{np.shape(vertices)}: expected (m, 2) values for (m,) ids")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_dirichlet(K, f, vertices, values)

    def test_zero_boundary_keeps_rhs(self, mat):
        mesh = shared_mesh(MeshFamily.QUAD_S, 3)
        K, f = assemble_global(mesh, mat, constant_body_force(1.0, -2.0))
        boundary = mesh.boundary_vertices()
        constrained = apply_dirichlet(K, f, boundary, np.zeros((len(boundary), 2)))
        np.testing.assert_array_equal(constrained.rhs, f[constrained.free])

    def test_fully_constrained_single_cell(self, unit_square_mesh, mat):
        K, f = assemble_global(unit_square_mesh, mat)
        vertices = np.arange(4)
        constrained = apply_dirichlet(K, f, vertices, np.outer(vertices, [0.1, -0.2]))
        assert len(constrained.free) == 0
        u = solve_system(constrained)
        for v in range(4):
            np.testing.assert_allclose(u[2 * v : 2 * v + 2], [0.1 * v, -0.2 * v])

    def test_solve_leaves_constrained_system_untouched(self, mat):
        mesh = shared_mesh(MeshFamily.QUAD_U, 4)
        boundary = mesh.boundary_vertices()
        constrained = apply_dirichlet(
            *assemble_global(mesh, mat, constant_body_force(1.0, -2.0)), boundary,
            mesh.vertices[boundary] @ [[0.1, 0.3], [-0.2, 0.4]] + 1.0,
        )
        first, second = solve_system(constrained), solve_system(constrained)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(constrained.prescribed[constrained.free], 0.0)
        fixed = np.setdiff1d(np.arange(len(first)), constrained.free)
        np.testing.assert_array_equal(first[fixed], constrained.prescribed[fixed])

    def test_singular_block_fails_residual_check(self):
        constrained = ConstrainedSystem(
            matrix=sp.csr_matrix((2, 2)), rhs=np.ones(2), free=np.arange(2),
            prescribed=np.zeros(2),
        )
        with pytest.raises(SolveError, match="^factorisation failed: .*singular"):
            solve_system(constrained)

    def test_non_finite_rhs_fails_residual_check(self):
        constrained = ConstrainedSystem(
            matrix=sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]])), rhs=np.array([np.nan, 1.0]),
            free=np.arange(2), prescribed=np.zeros(2),
        )
        with pytest.raises(SolveError, match="residual nan exceeds 1e-10"):
            solve_system(constrained)

    def test_solves_with_the_block_itself(self):
        # The block is handed to SuperLU transposed; an unsymmetric one shows which is solved.
        matrix = np.array([[2.0, 1.0, 0.0], [0.5, 3.0, 1.0], [0.0, 0.25, 4.0]])
        rhs = np.array([1.0, 2.0, 3.0])
        constrained = ConstrainedSystem(
            matrix=sp.csr_matrix(matrix), rhs=rhs, free=np.array([0, 2, 3]),
            prescribed=np.array([0.0, 7.0, 0.0, 0.0]),
        )
        u = solve_system(constrained)
        np.testing.assert_allclose(u[[0, 2, 3]], np.linalg.solve(matrix, rhs), rtol=1e-14)
        assert u[1] == 7.0

    def test_zero_everything_gives_zero(self, mat):
        mesh = shared_mesh(MeshFamily.QUAD_S, 2)
        K, f = assemble_global(mesh, mat)
        boundary = mesh.boundary_vertices()
        constrained = apply_dirichlet(K, f, boundary, np.zeros((len(boundary), 2)))
        np.testing.assert_array_equal(solve_system(constrained), 0.0)


class TestGroupedAssembly:
    """Cells of several vertex counts: grouping must not mis-scatter any of them."""

    @pytest.fixture
    def poly_mesh(self):
        mesh = shared_mesh(MeshFamily.POLY_U, 5, seed=0)
        assert len(np.unique(np.diff(mesh.offsets))) >= 3
        return mesh

    def test_matches_scattered_single_cell_assemblies(self, poly_mesh, mat):
        from vemrcp.cases import manufactured_case

        mesh = poly_mesh
        case = manufactured_case("b", mat)
        K_global, f_global = assemble_global(mesh, mat, case.body_force)
        ndof = 2 * mesh.num_vertices
        K, f = np.zeros((ndof, ndof)), np.zeros(ndof)
        for ci, verts in enumerate(mesh_cells(mesh)):
            K_cell, f_cell = assemble_global(single_cell_mesh(cell_coords(mesh, ci)), mat,
                                             case.body_force)
            dofs = np.stack([2 * verts, 2 * verts + 1], axis=-1).ravel()
            K[np.ix_(dofs, dofs)] += K_cell.toarray()
            f[dofs] += f_cell
        np.testing.assert_allclose(K_global.toarray(), K, rtol=0, atol=1e-13 * np.abs(K).max())
        np.testing.assert_allclose(f_global, f, rtol=0, atol=1e-13 * np.abs(f).max())

    def test_element_stresses_are_projected_strains(self, poly_mesh, mat, rng):
        mesh = poly_mesh
        u = rng.standard_normal(2 * mesh.num_vertices)
        C = elastic_matrix(mat)
        expected = []
        for ci, verts in enumerate(mesh_cells(mesh)):
            B = compute_B(cell_coords(mesh, ci)[None])[0]
            u_cell = np.stack([u[2 * verts], u[2 * verts + 1]], axis=-1).ravel()
            expected.append(C @ (B / shoelace(cell_coords(mesh, ci))[0]) @ u_cell)
        got = element_stresses(mesh, mat, u)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.abs(expected).max())



class TestBlockAssembly:
    """The 2 x 2 vertex-block assembly gives the dof-level triplet sum's CSR matrix."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("family", GENERATED_FAMILIES, ids=lambda f: f.value)
    def test_matches_triplet_assembly(self, family, n):
        mat = LameMaterial(2.0, 0.5)  # lambda != mu: off-diagonal 2 x 2 blocks are not symmetric
        mesh = shared_mesh(family, n)
        K, _ = assemble_global(mesh, mat)
        ref = assemble_triplets(mesh, mat)
        assert K.format == "csr" and K.shape == ref.shape
        assert K.has_canonical_format
        np.testing.assert_array_equal(K.indptr, ref.indptr)
        np.testing.assert_array_equal(K.indices, ref.indices)
        np.testing.assert_allclose(K.data, ref.data, rtol=0, atol=1e-15 * np.abs(ref.data).max())

    def test_unreferenced_vertex_keeps_empty_rows(self, mat):
        # Four quads around the hole [1, 2]^2 of [0, 3]^2, and vertex 8, in the hole, in no
        # cell: V - E + F = 9 - 12 + 4 = 1. Each of the eight others couples to six vertices.
        vertices = np.array([(0, 0), (3, 0), (3, 3), (0, 3), (1, 1), (2, 1), (2, 2), (1, 2),
                             (1.5, 1.5)], dtype=float)
        quads = [[k, (k + 1) % 4, (k + 1) % 4 + 4, k + 4] for k in range(4)]
        mesh = PolygonalMesh(vertices, [0, 4, 8, 12, 16], np.concatenate(quads))
        K, _ = assemble_global(mesh, mat)
        assert K.shape == (18, 18)
        assert K.indptr[16] == K.indptr[18] == K.nnz == 8 * 6 * 4
        ref = assemble_triplets(mesh, mat)
        np.testing.assert_array_equal(K.indptr, ref.indptr)
        np.testing.assert_array_equal(K.indices, ref.indices)
        np.testing.assert_allclose(K.data, ref.data, rtol=0, atol=1e-15 * np.abs(ref.data).max())

    def test_memory_peak_bounded(self, mat):
        # Measured peaks: 6.1 MiB for the block assembly, 19.2 MiB for `assemble_triplets`' sum.
        mesh = shared_mesh(MeshFamily.QUAD_U, 64)
        assemble_global(mesh, mat)    # first-call imports and caches stay out of the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assemble_global(mesh, mat)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, f"assemble_global peaked at {peak / 2**20:.1f} MiB"


class TestPatchTestProperty:
    @pytest.mark.parametrize(
        "family", [MeshFamily.HEX_S, MeshFamily.CONC_S, MeshFamily.POLY_U, MeshFamily.CONC_U],
        ids=lambda f: f.value,
    )
    def test_linear_field_reproduced(self, family, mat):
        mesh = shared_mesh(family, 4, seed=3)
        case = linear_patch_case(mat)
        u = solve_dirichlet_problem(
            mesh, mat, zero_body_force, lambda x, y: case.displacement(x, y)
        )
        exact = case.displacement(mesh.vertices[:, 0], mesh.vertices[:, 1]).ravel()
        np.testing.assert_allclose(u, exact, atol=1e-10)
        # constant stress reproduced exactly on every cell
        stresses = element_stresses(mesh, mat, u)
        expected = case.stress(0.0, 0.0)
        np.testing.assert_allclose(stresses, np.broadcast_to(expected, stresses.shape), atol=1e-9)


class TestElementStress:
    def test_uniaxial_strain_stress(self, unit_square_mesh, mat):
        v = dof_vector_from(unit_square_mesh, 0, lambda x, y: (x, 0.0))
        np.testing.assert_allclose(
            element_stresses(unit_square_mesh, mat, v), [[3, 1, 0]], atol=1e-13
        )

    def test_rigid_motion_stress_free(self, mat, rng):
        mesh = random_polygon_mesh(rng)
        v = dof_vector_from(mesh, 0, lambda x, y: (1 - 2 * y, 0.5 + 2 * x))
        np.testing.assert_allclose(element_stresses(mesh, mat, v), 0.0, atol=1e-12)


class TestCheckedInput:
    """The boundary data and the dof vector have one shape; any other raises ValueError."""

    def test_transposed_boundary_data_rejected(self, mat):
        # np.stack([u, v]) is (2, m); reshaped to (m, 2) it would pair (u0, u1), (u2, u3), ...
        mesh = shared_mesh(MeshFamily.QUAD_S, 3)
        m = len(mesh.boundary_vertices())
        message = rf"^boundary displacement gave shape \(2, {m}\) at {m} points$"
        with pytest.raises(ValueError, match=message):
            solve_dirichlet_problem(mesh, mat, zero_body_force, lambda x, y: np.stack([x, y]))

    @pytest.mark.parametrize("extra", [2, -2], ids=["long", "short"])
    def test_dof_vector_of_wrong_length_rejected(self, extra, mat):
        mesh = shared_mesh(MeshFamily.QUAD_S, 3)
        u = np.zeros(2 * mesh.num_vertices + extra)
        message = rf"^displacement has shape \({len(u)},\), not \(32,\) for 16 vertices$"
        with pytest.raises(ValueError, match=message):
            element_stresses(mesh, mat, u)


class TestTriangleEquivalence:
    """On triangle meshes the scheme coincides with linear-triangle FEM."""

    @pytest.mark.parametrize("family", [MeshFamily.TRI_S, MeshFamily.TRI_U], ids=lambda f: f.value)
    def test_matches_reference_fem(self, family, mat):
        from vemrcp.cases import manufactured_case

        mesh = shared_mesh(family, 6, seed=21)
        case = manufactured_case("a", mat)
        u = solve_dirichlet_problem(
            mesh, mat, case.body_force, lambda x, y: case.displacement(x, y)
        )
        boundary = {
            int(v): tuple(case.displacement(*mesh.vertices[v]))
            for v in mesh.boundary_vertices()
        }
        u_ref, stress_ref = cst_solve(
            mesh.vertices, [list(map(int, c)) for c in mesh_cells(mesh)],
            elastic_matrix(mat), case.body_force, boundary,
        )
        scale = np.abs(u_ref).max()
        np.testing.assert_allclose(u, u_ref, atol=1e-10 * scale)
        stresses = element_stresses(mesh, mat, u)
        np.testing.assert_allclose(
            stresses, stress_ref, atol=1e-10 * np.abs(stress_ref).max()
        )

    def test_matches_reference_fem_with_body_force(self, mat):
        from vemrcp.cases import manufactured_case

        mesh = shared_mesh(MeshFamily.TRI_S, 5)
        case = manufactured_case("b", mat)
        u = solve_dirichlet_problem(
            mesh, mat, case.body_force, lambda x, y: case.displacement(x, y)
        )
        boundary = {
            int(v): tuple(case.displacement(*mesh.vertices[v]))
            for v in mesh.boundary_vertices()
        }
        u_ref, _ = cst_solve(
            mesh.vertices, [list(map(int, c)) for c in mesh_cells(mesh)],
            elastic_matrix(mat), case.body_force, boundary,
        )
        np.testing.assert_allclose(u, u_ref, atol=1e-10 * np.abs(u_ref).max())
