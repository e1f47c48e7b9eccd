import math
import re

import numpy as np
import pytest

from oracles import cell_coords, mesh_from_cells, quadrature_rules_per_cell, shoelace
from vemrcp.generators import generate_mesh
from vemrcp.mesh import GENERATED_FAMILIES, MeshError, MeshFamily, ear_clip
from vemrcp.quadrature import TRI7_BARY, TRI7_WEIGHTS, cell_quadrature


def assert_rules_match_oracle(mesh):
    expected = quadrature_rules_per_cell(mesh)
    for ci in range(mesh.num_cells):
        for got, want in zip(cell_quadrature(mesh, ci), expected[ci]):
            assert np.array_equal(got, want), f"cell {ci}"
            assert got.dtype == want.dtype and got.flags.c_contiguous


class TestTriangleRule:
    def test_weights_sum_to_one(self):
        assert TRI7_WEIGHTS.sum() == pytest.approx(1.0, abs=1e-15)

    def test_degree_five_exactness_on_reference_triangle(self):
        # exact integral of x^p y^q over the unit reference triangle
        pts = TRI7_BARY @ np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        w = TRI7_WEIGHTS * 0.5
        for p in range(6):
            for q in range(6 - p):
                exact = (
                    math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)
                )
                approx = float(np.dot(w, pts[:, 0] ** p * pts[:, 1] ** q))
                assert approx == pytest.approx(exact, abs=1e-13)


class TestPolygonQuadrature:
    def test_constant_gives_area(self):
        for fam in (MeshFamily.HEX_S, MeshFamily.CONC_U):
            mesh = generate_mesh(fam, 3, seed=1)
            for ci in range(mesh.num_cells):
                pts, w = cell_quadrature(mesh, ci)
                area = shoelace(cell_coords(mesh, ci))[0]
                assert w.sum() == pytest.approx(area, abs=1e-13)

    def test_x2y2_over_unit_square(self, unit_square_mesh):
        pts, w = cell_quadrature(unit_square_mesh, 0)
        val = w @ (pts[:, 0]**2 * pts[:, 1]**2)
        assert val == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_sine_product_single_cell_and_refined(self, unit_square_mesh):
        exact = 4.0 / np.pi**2

        def f(x, y):
            return np.sin(np.pi * x) * np.sin(np.pi * y)

        pts, w = cell_quadrature(unit_square_mesh, 0)
        coarse = w @ f(pts[:, 0], pts[:, 1])
        assert abs(coarse - exact) < 5e-3  # one cell: only rule-level accuracy
        mesh = generate_mesh(MeshFamily.QUAD_S, 8)
        rules = [cell_quadrature(mesh, ci) for ci in range(mesh.num_cells)]
        refined = sum(w @ f(pts[:, 0], pts[:, 1]) for pts, w in rules)
        assert refined == pytest.approx(exact, abs=1e-6)

    def test_cache_returns_same_arrays(self, unit_square_mesh):
        a = cell_quadrature(unit_square_mesh, 0)
        b = cell_quadrature(unit_square_mesh, 0)
        assert a[0] is b[0] and a[1] is b[1]

    @pytest.mark.parametrize("family", GENERATED_FAMILIES, ids=lambda f: f.value)
    def test_rules_match_per_cell_oracle(self, family):
        for n in [*range(1, 17), 32]:
            for seed in range(3):
                assert_rules_match_oracle(generate_mesh(family, n, seed=seed))

    def test_rules_match_oracle_when_a_collinear_vertex_emits_no_triangle(self):
        # Cells 1 and 2 form the five-vertex group; cell 2 is the square [20, 22]^2 with a
        # vertex in the middle of its bottom side, so one of its three ear-clip steps is
        # empty. The convex pentagon lies to its left, the triangle on top of it and the
        # quad to its right: one connected mesh.
        vertices = np.array([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2), (3, 0), (3, 2), (1, 3),
                             (-1, 0), (-1, 2), (-1.5, 1)], dtype=float) + 20.0
        cells = [[4, 3, 7], [8, 0, 4, 9, 10], [0, 1, 2, 3, 4], [2, 5, 6, 3]]
        mesh = mesh_from_cells(vertices, cells)
        assert_rules_match_oracle(mesh)
        assert [len(cell_quadrature(mesh, ci)[1]) for ci in range(4)] == [7, 21, 14, 14]

    def test_rules_are_read_only(self, unit_square_mesh):
        pts, w = cell_quadrature(unit_square_mesh, 0)
        with pytest.raises(ValueError):
            pts[0, 0] = 0.5
        with pytest.raises(ValueError):
            w[0] = 0.5

    def test_clip_failure_names_the_mesh_cell(self, monkeypatch, unit_square_mesh):
        # A stack of mesh cells 1 and 2, five vertices each; cell 2 is not simple. (The mesh
        # constructor rejects such a cell, so only a direct call can hand one in.)
        pentagon = np.array([(0, 0), (2, 0), (3, 1.5), (1, 3), (-1, 1.5)]) + 20.0
        crossed = np.array([(0, 4), (2, 4), (0, 0), (5, 1), (0, 3)], dtype=float)
        with pytest.raises(MeshError, match="^cell 2: ear clipping failed"):
            ear_clip(np.stack([pentagon, crossed]), np.array([1, 2]))

        def fail(points, cells):
            raise MeshError(f"cell {cells[0]}: ear clipping failed")

        # A failed fill caches nothing, so asking again fails again.
        monkeypatch.setattr("vemrcp.quadrature.ear_clip", fail)
        for _ in range(2):
            with pytest.raises(MeshError, match="^cell 0: ear clipping failed"):
                cell_quadrature(unit_square_mesh, 0)
        assert unit_square_mesh._quadrature_cache == {}

    @pytest.mark.parametrize("cell, error, message", [
        (-1, ValueError, "cell id -1 out of range for a mesh of 9 cells"),
        (9, ValueError, "cell id 9 out of range for a mesh of 9 cells"),
        (2.5, TypeError, "cell id 2.5 is not an integer"),
    ])
    def test_bad_cell_id_rejected_before_the_fill(self, cell, error, message):
        mesh = generate_mesh(MeshFamily.QUAD_S, 3)       # a cold cache: 9 cells, none filled
        assert mesh.num_cells == 9
        for _ in range(2):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                cell_quadrature(mesh, cell)
        assert mesh._quadrature_cache == {}

    @pytest.mark.parametrize("cell, error, message", [
        (-1, ValueError, "cell id -1 out of range for a mesh of 9 cells"),
        (9, ValueError, "cell id 9 out of range for a mesh of 9 cells"),
        (np.int64(9), ValueError, "cell id 9 out of range for a mesh of 9 cells"),
        (2.0, TypeError, "cell id 2.0 is not an integer"),
        (True, TypeError, "cell id True is not an integer"),
        (np.True_, TypeError, "cell id True is not an integer"),
        ([1, 2], TypeError, "one cell id expected, got an array of shape (2,)"),
    ])
    def test_bad_cell_id_rejected_on_a_warm_cache(self, cell, error, message):
        # 2.0 and True hash like the keys 2 and 1, so only the hit path's type check stops them.
        mesh = generate_mesh(MeshFamily.QUAD_S, 3)
        cell_quadrature(mesh, 0)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            cell_quadrature(mesh, cell)

    def test_numpy_integer_id_gets_the_same_rule(self):
        mesh = generate_mesh(MeshFamily.QUAD_S, 3)
        for cell in (np.int64(4), np.uint8(4), np.array(4)):
            pts, w = cell_quadrature(mesh, cell)          # the first is a cold miss
            assert pts is cell_quadrature(mesh, 4)[0] and w is cell_quadrature(mesh, 4)[1]
