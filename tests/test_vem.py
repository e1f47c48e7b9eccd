"""Element operators, assembly, Dirichlet handling, solve, and stress tests."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import MatrixRankWarning

from conftest import single_cell_mesh
from oracles import cst_solve
from vemrcp.generators import generate_mesh
from vemrcp.material import elastic_matrix
from vemrcp.mesh import MeshFamily, shoelace
from vemrcp.study import linear_patch_case
from vemrcp.vem import (
    ConstrainedSystem,
    ElementMatrices,
    SolveError,
    apply_dirichlet,
    assemble_global,
    compute_B,
    element_matrices,
    element_stresses,
    solve_dirichlet_problem,
    solve_system,
)


def dof_vector_from(mesh, cell, u):
    """Sample a displacement field u(x, y) -> (2,) at the cell's vertices."""
    pts = mesh.cell_coords(cell)
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


def cell_ops(mesh, mat, stabilization_scale=1.0) -> ElementMatrices:
    """The grouped kernel called on the one cell of a one-cell mesh."""
    ops = element_matrices(
        mesh.cell_coords(0)[None], [0], elastic_matrix(mat), stabilization_scale
    )
    return ElementMatrices(*(a[0] for a in ops))


def cell_B(mesh):
    return compute_B(mesh.cell_coords(0)[None])[0]


class TestComputeG:
    """G = |E| I, so the kernel keeps only the area it divides B by."""

    def test_unit_square(self, unit_square_mesh, mat):
        assert cell_ops(unit_square_mesh, mat).area == pytest.approx(1.0, rel=1e-15)

    def test_half_area_cell(self, mat):
        mesh = single_cell_mesh([(0, 0), (1, 0), (0, 1)])
        assert cell_ops(mesh, mat).area == pytest.approx(0.5, rel=1e-15)

    def test_matches_quadrature(self, rng, mat):
        from vemrcp.quadrature import cell_quadrature

        mesh = random_polygon_mesh(rng)
        pts, w = cell_quadrature(mesh, 0)
        # constant-strain basis is the identity, so the gram matrix is area * I
        assert cell_ops(mesh, mat).area == pytest.approx(w.sum(), abs=1e-13)


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
        mesh = random_polygon_mesh(rng)
        np.testing.assert_allclose(cell_ops(mesh, mat).Pi_m, cell_B(mesh) / shoelace(mesh.cell_coords(0))[0])

    def test_exact_on_constant_strain_field(self, rng, mat):
        mesh = random_polygon_mesh(rng)
        Pi = cell_ops(mesh, mat).Pi_m
        v = dof_vector_from(mesh, 0, lambda x, y: (x, 0.0))
        np.testing.assert_allclose(Pi @ v, [1, 0, 0], atol=1e-12)

    def test_consistency_on_random_linear_fields(self, rng, mat):
        for _ in range(25):
            mesh = random_polygon_mesh(rng, n=int(rng.integers(3, 9)))
            Pi = cell_ops(mesh, mat).Pi_m
            a = rng.uniform(-1, 1, 6)
            v = dof_vector_from(
                mesh, 0,
                lambda x, y: (a[0] + a[1] * x + a[2] * y, a[3] + a[4] * x + a[5] * y),
            )
            np.testing.assert_allclose(Pi @ v, [a[1], a[5], a[2] + a[4]], atol=1e-12)

    def test_rigid_motion_maps_to_zero(self, rng, mat):
        mesh = random_polygon_mesh(rng)
        Pi = cell_ops(mesh, mat).Pi_m
        v = dof_vector_from(mesh, 0, lambda x, y: (2.0 - y, -1.0 + x))
        np.testing.assert_allclose(Pi @ v, 0.0, atol=1e-12)


class TestStiffness:
    def test_rigid_modes_in_kernel(self, mat, rng):
        mesh = random_polygon_mesh(rng)
        ops = cell_ops(mesh, mat)
        for u in (lambda x, y: (1, 0), lambda x, y: (0, 1), lambda x, y: (-y, x)):
            v = dof_vector_from(mesh, 0, u)
            np.testing.assert_allclose(ops.Kc @ v, 0.0, atol=1e-12)
            np.testing.assert_allclose((ops.Kc + ops.Ks) @ v, 0.0, atol=1e-12)

    def test_kc_rank_three_on_hexagon(self, mat, rng):
        mesh = random_polygon_mesh(rng, n=6)
        sv = np.linalg.svd(cell_ops(mesh, mat).Kc, compute_uv=False)
        assert np.sum(sv > 1e-10 * sv[0]) == 3

    def test_constant_strain_energy(self, unit_square_mesh, mat):
        # strain (1,0,0) on the unit square: v^T Kc v = (lambda + 2 mu) |E| = 3
        ops = cell_ops(unit_square_mesh, mat)
        v = dof_vector_from(unit_square_mesh, 0, lambda x, y: (x, 0.0))
        assert v @ ops.Kc @ v == pytest.approx(3.0, rel=1e-13)

    def test_stabilization_kernel_on_linear_fields(self, mat, rng):
        mesh = random_polygon_mesh(rng)
        ops = cell_ops(mesh, mat)
        for _ in range(10):
            a = rng.uniform(-2, 2, 6)
            v = dof_vector_from(
                mesh, 0,
                lambda x, y: (a[0] + a[1] * x + a[2] * y, a[3] + a[4] * x + a[5] * y),
            )
            np.testing.assert_allclose(ops.Ks @ v, 0.0, atol=1e-12)

    def test_triangle_has_zero_stabilization(self, mat):
        mesh = single_cell_mesh([(0, 0), (1, 0), (0.3, 0.8)])
        np.testing.assert_allclose(cell_ops(mesh, mat).Ks, 0.0, atol=1e-12)

    def test_full_rank_on_hexagon(self, mat, rng):
        mesh = random_polygon_mesh(rng, n=6)
        ops = cell_ops(mesh, mat)
        sv = np.linalg.svd(ops.Kc + ops.Ks, compute_uv=False)
        assert np.sum(sv > 1e-10 * sv[0]) == 2 * 6 - 3

    def test_symmetry(self, mat, rng):
        mesh = random_polygon_mesh(rng, n=7)
        ops = cell_ops(mesh, mat)
        K = ops.Kc + ops.Ks
        assert np.max(np.abs(K - K.T)) <= 1e-13 * np.max(np.abs(K))


class TestLoadVector:
    """On a one-cell mesh the assembled right-hand side is the element load."""

    def test_zero_force(self, unit_square_mesh, mat):
        np.testing.assert_array_equal(
            assemble_global(unit_square_mesh, mat, None).rhs, np.zeros(8)
        )

    def test_unit_x_force_on_square(self, unit_square_mesh, mat):
        f = assemble_global(unit_square_mesh, mat, lambda x, y: (1.0, 0.0)).rhs
        np.testing.assert_allclose(f[0::2], 0.25)
        np.testing.assert_allclose(f[1::2], 0.0)

    def test_total_load_equals_area_times_force(self, rng, mat):
        mesh = random_polygon_mesh(rng, n=5)
        b = lambda x, y: np.stack([1.3 * x - y, 0.4 + y], axis=-1)
        f = assemble_global(mesh, mat, b).rhs
        area, (cx, cy) = shoelace(mesh.cell_coords(0))
        expected = area * np.asarray(b(cx, cy))
        np.testing.assert_allclose([f[0::2].sum(), f[1::2].sum()], expected, atol=1e-14)


class TestAssemblyAndSolve:
    def test_single_cell_assembly_matches_element(self, unit_square_mesh, mat):
        system = assemble_global(unit_square_mesh, mat)
        ops = cell_ops(unit_square_mesh, mat)
        np.testing.assert_allclose(system.matrix.toarray(), ops.Kc + ops.Ks, atol=1e-15)

    def test_global_rigid_kernel(self, mat):
        mesh = generate_mesh(MeshFamily.POLY_U, 3, seed=8)
        system = assemble_global(mesh, mat)
        for u in (lambda x, y: (1, 0), lambda x, y: (0, 1), lambda x, y: (-y, x)):
            v = np.array([u(x, y) for x, y in mesh.vertices]).ravel()
            np.testing.assert_allclose(system.matrix @ v, 0.0, atol=1e-12)

    def test_global_symmetry(self, mat):
        mesh = generate_mesh(MeshFamily.CONC_U, 3, seed=8)
        K = assemble_global(mesh, mat).matrix
        diff = (K - K.T).toarray()
        assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(K.toarray()))

    def test_empty_dirichlet_rejected(self, unit_square_mesh, mat):
        system = assemble_global(unit_square_mesh, mat)
        with pytest.raises(ValueError, match="Dirichlet"):
            apply_dirichlet(system, [], np.zeros((0, 2)))

    def test_zero_boundary_keeps_rhs(self, mat):
        mesh = generate_mesh(MeshFamily.QUAD_S, 3)
        body = lambda x, y: (1.0, -2.0)
        system = assemble_global(mesh, mat, body)
        boundary = mesh.boundary_vertices()
        constrained = apply_dirichlet(system, boundary, np.zeros((len(boundary), 2)))
        np.testing.assert_array_equal(constrained.rhs, system.rhs[constrained.free])

    def test_fully_constrained_single_cell(self, unit_square_mesh, mat):
        system = assemble_global(unit_square_mesh, mat)
        vertices = np.arange(4)
        constrained = apply_dirichlet(system, vertices, np.outer(vertices, [0.1, -0.2]))
        assert len(constrained.free) == 0
        u = solve_system(constrained)
        for v in range(4):
            np.testing.assert_allclose(u[2 * v : 2 * v + 2], [0.1 * v, -0.2 * v])

    def test_singular_block_fails_residual_check(self):
        constrained = ConstrainedSystem(
            matrix=sp.csr_matrix((2, 2)), rhs=np.ones(2), free=np.arange(2),
            fixed=np.arange(0), fixed_values=np.zeros(0), ndof=2,
        )
        with pytest.warns(MatrixRankWarning), pytest.raises(SolveError, match="residual"):
            solve_system(constrained)

    def test_zero_everything_gives_zero(self, mat):
        mesh = generate_mesh(MeshFamily.QUAD_S, 2)
        system = assemble_global(mesh, mat)
        boundary = mesh.boundary_vertices()
        constrained = apply_dirichlet(system, boundary, np.zeros((len(boundary), 2)))
        np.testing.assert_array_equal(solve_system(constrained), 0.0)


class TestGroupedAssembly:
    """Cells of several vertex counts: grouping must not mis-scatter any of them."""

    @pytest.fixture
    def poly_mesh(self):
        mesh = generate_mesh(MeshFamily.POLY_U, 5, seed=0)
        assert len({len(c) for c in mesh.cells}) >= 3
        return mesh

    def test_matches_scattered_single_cell_assemblies(self, poly_mesh, mat):
        from vemrcp.cases import manufactured_case

        mesh = poly_mesh
        case = manufactured_case("b", mat)
        system = assemble_global(mesh, mat, case.body_force)
        ndof = 2 * mesh.num_vertices
        K, f = np.zeros((ndof, ndof)), np.zeros(ndof)
        for ci, verts in enumerate(mesh.cells):
            local = assemble_global(single_cell_mesh(mesh.cell_coords(ci)), mat, case.body_force)
            dofs = np.stack([2 * verts, 2 * verts + 1], axis=-1).ravel()
            K[np.ix_(dofs, dofs)] += local.matrix.toarray()
            f[dofs] += local.rhs
        np.testing.assert_allclose(system.matrix.toarray(), K, rtol=0, atol=1e-13 * np.abs(K).max())
        np.testing.assert_allclose(system.rhs, f, rtol=0, atol=1e-13 * np.abs(f).max())

    def test_element_stresses_are_projected_strains(self, poly_mesh, mat, rng):
        mesh = poly_mesh
        u = rng.standard_normal(2 * mesh.num_vertices)
        C = elastic_matrix(mat)
        expected = []
        for ci, verts in enumerate(mesh.cells):
            B = compute_B(mesh.cell_coords(ci)[None])[0]
            u_cell = np.stack([u[2 * verts], u[2 * verts + 1]], axis=-1).ravel()
            expected.append(C @ (B / shoelace(mesh.cell_coords(ci))[0]) @ u_cell)
        got = element_stresses(mesh, assemble_global(mesh, mat), mat, u)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.abs(expected).max())


class TestPatchTestProperty:
    @pytest.mark.parametrize(
        "family", [MeshFamily.HEX_S, MeshFamily.CONC_S, MeshFamily.POLY_U, MeshFamily.CONC_U],
        ids=lambda f: f.value,
    )
    def test_linear_field_reproduced(self, family, mat):
        mesh = generate_mesh(family, 4, seed=3)
        case = linear_patch_case(mat)
        u, system = solve_dirichlet_problem(
            mesh, mat, None, lambda x, y: case.displacement(x, y)
        )
        exact = case.displacement(mesh.vertices[:, 0], mesh.vertices[:, 1]).ravel()
        np.testing.assert_allclose(u, exact, atol=1e-10)
        # constant stress reproduced exactly on every cell
        stresses = element_stresses(mesh, system, mat, u)
        expected = case.stress(0.0, 0.0)
        np.testing.assert_allclose(stresses, np.broadcast_to(expected, stresses.shape), atol=1e-9)

    def test_solution_independent_of_stabilization_scale(self, mat):
        mesh = generate_mesh(MeshFamily.POLY_U, 3, seed=2)
        case = linear_patch_case(mat)
        solutions = []
        for scale in (0.1, 1.0, 10.0):
            u, _ = solve_dirichlet_problem(
                mesh, mat, None, lambda x, y: case.displacement(x, y),
                stabilization_scale=scale,
            )
            solutions.append(u)
        np.testing.assert_allclose(solutions[0], solutions[1], atol=1e-10)
        np.testing.assert_allclose(solutions[2], solutions[1], atol=1e-10)


class TestElementStress:
    def test_uniaxial_strain_stress(self, unit_square_mesh, mat):
        v = dof_vector_from(unit_square_mesh, 0, lambda x, y: (x, 0.0))
        system = assemble_global(unit_square_mesh, mat)
        np.testing.assert_allclose(
            element_stresses(unit_square_mesh, system, mat, v), [[3, 1, 0]], atol=1e-13
        )

    def test_rigid_motion_stress_free(self, mat, rng):
        mesh = random_polygon_mesh(rng)
        v = dof_vector_from(mesh, 0, lambda x, y: (1 - 2 * y, 0.5 + 2 * x))
        system = assemble_global(mesh, mat)
        np.testing.assert_allclose(element_stresses(mesh, system, mat, v), 0.0, atol=1e-12)


class TestTriangleEquivalence:
    """On triangle meshes the scheme coincides with linear-triangle FEM."""

    @pytest.mark.parametrize("family", [MeshFamily.TRI_S, MeshFamily.TRI_U], ids=lambda f: f.value)
    def test_matches_reference_fem(self, family, mat):
        from vemrcp.cases import manufactured_case

        mesh = generate_mesh(family, 6, seed=21)
        case = manufactured_case("a", mat)
        u, system = solve_dirichlet_problem(
            mesh, mat, case.body_force, lambda x, y: case.displacement(x, y)
        )
        boundary = {
            int(v): tuple(case.displacement(*mesh.vertices[v]))
            for v in mesh.boundary_vertices()
        }
        u_ref, stress_ref = cst_solve(
            mesh.vertices, [list(map(int, c)) for c in mesh.cells],
            elastic_matrix(mat), case.body_force, boundary,
        )
        scale = np.abs(u_ref).max()
        np.testing.assert_allclose(u, u_ref, atol=1e-10 * scale)
        stresses = element_stresses(mesh, system, mat, u)
        np.testing.assert_allclose(
            stresses, stress_ref, atol=1e-10 * np.abs(stress_ref).max()
        )

    def test_matches_reference_fem_with_body_force(self, mat):
        from vemrcp.cases import manufactured_case

        mesh = generate_mesh(MeshFamily.TRI_S, 5)
        case = manufactured_case("b", mat)
        u, _ = solve_dirichlet_problem(
            mesh, mat, case.body_force, lambda x, y: case.displacement(x, y)
        )
        boundary = {
            int(v): tuple(case.displacement(*mesh.vertices[v]))
            for v in mesh.boundary_vertices()
        }
        u_ref, _ = cst_solve(
            mesh.vertices, [list(map(int, c)) for c in mesh.cells],
            elastic_matrix(mat), case.body_force, boundary,
        )
        np.testing.assert_allclose(u, u_ref, atol=1e-10 * np.abs(u_ref).max())
