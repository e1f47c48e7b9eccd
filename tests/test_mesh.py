"""Geometry, generator, patch, validation, and file-format tests."""

import logging
import re
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Voronoi

from conftest import shared_mesh, single_cell_mesh
from oracles import (
    cell_coords,
    clip_to_unit_square_per_polygon,
    ear_clip_per_cell,
    hex_structured_per_polygon,
    is_simple_polygon,
    mesh_cells,
    mesh_from_cells,
    poisson_disk_per_candidate,
    random_simple_polygon,
    shoelace,
    vertex_patch_per_cell,
)
from vemrcp.generators import (
    GenerationError,
    _by_angle,
    _clip_to_unit_square,
    _clipped_regions,
    _merge_points,
    _poisson_disk,
    generate_mesh,
)
from vemrcp.mesh import (
    GENERATED_FAMILIES,
    MeshError,
    MeshFamily,
    MeshFormatError,
    MeshValidationError,
    PolygonalMesh,
    cycle_successor,
    ear_clip,
    load_mesh,
    polygon_moments,
    save_mesh,
)
from vemrcp.quadrature import cell_quadrature
from vemrcp.recovery import build_patch
from vemrcp.vem import compute_B

ALL_FAMILIES = list(GENERATED_FAMILIES)


def cell_moments(mesh, ci):
    """Signed area and centroid of one cell from the package's ragged-cycle kernel."""
    pts = cell_coords(mesh, ci)
    area, centroid = polygon_moments(pts, np.array([0, len(pts)]))
    return area[0], centroid[0]


def cell_area(mesh, ci):
    return cell_moments(mesh, ci)[0]


def cell_centroid(mesh, ci):
    return cell_moments(mesh, ci)[1]


def clip_one(coords):
    """Local triangles of one polygon from the stacked clipper, as index triples."""
    local, emitted = ear_clip(np.asarray(coords, dtype=float)[None], [0])
    return [tuple(t) for t in local[0][emitted[0]].tolist()]


def vertex_normals(mesh, ci):
    """Per-vertex weights of compute_B: half the sum of the scaled outward
    normals of the two edges that meet at each vertex, as (n, 2)."""
    B = compute_B(cell_coords(mesh, ci)[None])[0]
    return np.column_stack([B[0, 0::2], B[1, 1::2]])


class TestPolygonGeometry:
    def test_unit_square_area(self, unit_square_mesh):
        assert cell_area(unit_square_mesh, 0) == pytest.approx(1.0)

    def test_triangle_area(self):
        mesh = single_cell_mesh([(0, 0), (1, 0), (0, 1)])
        assert cell_area(mesh, 0) == pytest.approx(0.5)

    def test_concave_quad_area_matches_triangulation(self):
        # concave quad scaled into the unit domain
        coords = 0.4 * np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 0.5), (0.0, 2.0)])
        mesh = single_cell_mesh(coords)
        tri_sum = 0.0
        for tri in clip_one(coords):
            a, b, c = coords[list(tri)]
            tri_sum += 0.5 * abs(
                (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            )
        assert cell_area(mesh, 0) == pytest.approx(tri_sum, rel=1e-12)

    def test_square_centroid(self, unit_square_mesh):
        np.testing.assert_allclose(cell_centroid(unit_square_mesh, 0), [0.5, 0.5])

    def test_triangle_centroid(self):
        mesh = single_cell_mesh([(0, 0), (1, 0), (0, 1)])
        np.testing.assert_allclose(cell_centroid(mesh, 0), [1 / 3, 1 / 3])

    def test_l_shape_centroid_matches_triangulation(self):
        coords = 0.5 * np.array(
            [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)]
        )
        mesh = single_cell_mesh(coords)
        total_area = 0.0
        weighted = np.zeros(2)
        for tri in clip_one(coords):
            a, b, c = coords[list(tri)]
            area = 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
            total_area += area
            weighted += area * (a + b + c) / 3.0
        np.testing.assert_allclose(cell_centroid(mesh, 0), weighted / total_area, atol=1e-14)
        np.testing.assert_allclose(cell_centroid(mesh, 0), [5 / 12, 5 / 12])


class TestPolygonMoments:
    """The ragged-cycle kernel against the absolute-coordinate shoelace reference."""

    def test_matches_shoelace_reference(self, rng):
        polygons = [random_simple_polygon(rng) for _ in range(500)]
        offsets = np.concatenate([[0], np.cumsum([len(p) for p in polygons])])
        area, centroid = polygon_moments(np.concatenate(polygons), offsets)
        ref = [shoelace(p) for p in polygons]
        np.testing.assert_allclose(area, [a for a, _ in ref], rtol=1e-12)
        np.testing.assert_allclose(centroid, [c for _, c in ref], rtol=0, atol=1e-13)

    def test_empty_and_zero_area_cycles(self):
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        flat = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
        # cycles: empty, square, empty, one point, two points, flat, clockwise square, empty
        xy = np.array([*square, (3.0, 3.0), (0.0, 0.0), (1.0, 0.0), *flat, *square[::-1]])
        offsets = np.array([0, 0, 4, 4, 5, 7, 10, 14, 14])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            area, centroid = polygon_moments(xy, offsets)
        np.testing.assert_array_equal(area, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0])
        np.testing.assert_array_equal(centroid[[1, 6]], [[0.5, 0.5], [0.5, 0.5]])
        assert not np.isfinite(centroid[[0, 2, 3, 4, 5, 7]]).any()

    def test_no_corners(self):
        area, centroid = polygon_moments(np.empty((0, 2)), np.array([0, 0, 0]))
        np.testing.assert_array_equal(area, [0.0, 0.0])
        assert centroid.shape == (2, 2)


class TestCellMoments:
    """The closed-form moments stored at construction."""

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_match_shoelace_and_quadrature(self, family):
        mesh = shared_mesh(family, 8, seed=0)
        for cells, idx in mesh.groups:
            area, centroid = shoelace(mesh.vertices[idx])
            np.testing.assert_allclose(mesh.areas[cells], area, rtol=1e-12)
            np.testing.assert_allclose(mesh.centroids[cells], centroid, rtol=0, atol=1e-12)
        for ci in range(mesh.num_cells):
            pts, w = cell_quadrature(mesh, ci)
            area = w.sum()
            centroid = w @ pts / area
            d = pts - centroid
            second = np.einsum("m,mi,mj->ij", w, d, d)
            assert mesh.areas[ci] == pytest.approx(area, rel=1e-14)
            np.testing.assert_allclose(mesh.centroids[ci], centroid, rtol=0,
                                       atol=1e-13 * np.sqrt(area))
            np.testing.assert_allclose(mesh.second_moments[ci], second, rtol=0,
                                       atol=1e-12 * np.abs(second).max())

    def test_l_shape_second_moments(self):
        # Three unit squares with centres c_k, each with central moments diag(1/12, 1/12):
        # about the centroid c = (5/6, 5/6), I = sum_k (diag(1/12, 1/12) + (c_k - c)(c_k - c)^T).
        coords = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
        mesh = single_cell_mesh(coords)
        ixx, ixy = 3 / 12 + 6 / 9, -1 / 3
        np.testing.assert_allclose(mesh.centroids[0], [5 / 6, 5 / 6], atol=1e-15)
        np.testing.assert_allclose(mesh.second_moments[0], [[ixx, ixy], [ixy, ixx]], atol=1e-14)

    def test_far_origin_costs_no_digits(self):
        mesh = shared_mesh(MeshFamily.QUAD_U, 8, seed=0)
        shift = np.array([1e4, -1e4])
        far = PolygonalMesh(mesh.vertices + shift, mesh.offsets, mesh.indices)
        np.testing.assert_allclose(far.areas, mesh.areas, rtol=1e-9)
        np.testing.assert_allclose(far.centroids - shift, mesh.centroids, rtol=0, atol=1e-10)
        np.testing.assert_allclose(far.second_moments, mesh.second_moments, rtol=0,
                                   atol=1e-9 * np.abs(mesh.second_moments).max())

    def test_read_only(self):
        mesh = generate_mesh(MeshFamily.CONC_U, 2, seed=0)
        for arr in (mesh.areas, mesh.centroids, mesh.second_moments):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestOutwardNormal:
    """Orientation of the scaled outward edge normals that vem.compute_B pairs with the trace."""

    def test_bottom_edge(self, unit_square_mesh):
        # the bottom edge gives both its end vertices y-weight -1/2: outward is down
        np.testing.assert_allclose(vertex_normals(unit_square_mesh, 0)[[0, 1], 1], -0.5)

    def test_right_edge(self, unit_square_mesh):
        np.testing.assert_allclose(vertex_normals(unit_square_mesh, 0)[[1, 2], 0], 0.5)

    def test_diagonal_edge(self):
        # on a triangle the weight of the vertex opposite an edge is minus half
        # that edge's scaled outward normal; the cell lies left of (0,0) -> (1,1)
        mesh = single_cell_mesh([(0, 0), (1, 1), (0, 1)])
        expected = np.array([1.0, -1.0])  # |e| = sqrt(2) times the unit normal
        np.testing.assert_allclose(-2.0 * vertex_normals(mesh, 0)[2], expected)

    def test_points_away_from_centroid_on_convex_cells(self, rng):
        mesh = shared_mesh(MeshFamily.HEX_S, 3)
        for ci in range(mesh.num_cells):
            pts = cell_coords(mesh, ci)
            center = cell_centroid(mesh, ci)
            for w, p in zip(vertex_normals(mesh, ci), pts):
                assert np.dot(w, p - center) > 0.0

    def test_closed_polygon_normal_integral_vanishes(self):
        for fam in ALL_FAMILIES:
            mesh = shared_mesh(fam, 3, seed=5)
            for ci in range(mesh.num_cells):
                total = vertex_normals(mesh, ci).sum(axis=0)
                np.testing.assert_allclose(total, 0.0, atol=1e-12)


class TestTriangulation:
    def test_triangle_is_itself(self):
        mesh = single_cell_mesh([(0, 0), (1, 0), (0, 1)])
        assert clip_one(cell_coords(mesh, 0)) == [(0, 1, 2)]

    def test_convex_quad_two_triangles(self, unit_square_mesh):
        tris = clip_one(cell_coords(unit_square_mesh, 0))
        assert len(tris) == 2
        total = sum(
            abs(shoelace(unit_square_mesh.vertices[list(t)])[0]) for t in tris
        )
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_concave_hexagon(self):
        coords = np.array(
            [(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (2.0, 1.0), (1.0, 3.0), (0.0, 3.0)]
        )
        mesh = single_cell_mesh(coords / 4.0)
        tris = clip_one(cell_coords(mesh, 0))
        total = sum(shoelace(mesh.vertices[list(t)])[0] for t in tris)
        assert total == pytest.approx(cell_area(mesh, 0), rel=1e-12)

    def test_thousand_random_simple_polygons(self, rng):
        for _ in range(1000):
            coords = random_simple_polygon(rng)
            mesh = single_cell_mesh(coords)
            total = sum(
                shoelace(mesh.vertices[list(t)])[0] for t in clip_one(cell_coords(mesh, 0))
            )
            assert total == pytest.approx(cell_area(mesh, 0), rel=1e-12)

    @pytest.mark.parametrize(
        "coords, expected",
        [
            ([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)], [(4, 0, 2), (2, 3, 4)]),
            ([(0, 0), (1, 0), (1, 0.5), (1, 1), (0.5, 1), (0, 1)], [(5, 0, 1), (1, 3, 5)]),
        ],
        ids=["one-collinear", "two-collinear"],
    )
    def test_collinear_vertex_clipped_without_triangle(self, coords, expected):
        assert clip_one(coords) == expected

    def test_clockwise_square_fails(self):
        clockwise = np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)])
        with pytest.raises(MeshError, match="ear clipping failed"):
            ear_clip(clockwise[None], [0])

    def test_failure_names_the_cell(self):
        square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        with pytest.raises(MeshError, match="cell 7: ear clipping failed"):
            ear_clip(np.stack([square, square[::-1], square]), np.array([4, 7, 2]))

    @pytest.mark.parametrize(
        "family", ["quad-s", "quad-u", "hex-s", "tri-u", "poly-u", "conc-s"],
    )
    def test_strictly_convex_cell_is_fan_from_last_vertex(self, family):
        # Every cell of these families is strictly convex, but only the convex half of conc-s.
        mesh = shared_mesh(family, 8, seed=0)
        convex_cells = 0
        for cells, idx in mesh.groups:
            pts = mesh.vertices[idx]
            side = np.roll(pts, -1, axis=1) - pts
            nxt = np.roll(side, -1, axis=1)
            convex = (side[..., 0] * nxt[..., 1] - side[..., 1] * nxt[..., 0] > 0.0).all(axis=1)
            n = idx.shape[1]
            fan = np.stack([np.full(n - 2, n - 1), np.arange(n - 2), np.arange(1, n - 1)], axis=1)
            fan[-1] = (n - 3, n - 2, n - 1)
            local, emitted = ear_clip(pts[convex], cells[convex])
            assert emitted.all()
            np.testing.assert_array_equal(local, np.broadcast_to(fan, local.shape))
            convex_cells += convex.sum()
        assert convex_cells == mesh.num_cells // (2 if family == "conc-s" else 1)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_stack_matches_per_cell_reference(self, family):
        mesh = shared_mesh(family, 8, seed=0)
        for cells, idx in mesh.groups:
            coords = mesh.vertices[idx]
            local, emitted = ear_clip(coords, cells)
            for k in range(len(cells)):
                expected = [list(t) for t in ear_clip_per_cell(coords[k])]
                assert local[k][emitted[k]].tolist() == expected

    def test_random_polygon_stacks_match_per_cell_reference(self, rng):
        polygons = [random_simple_polygon(rng) for _ in range(2000)]
        for n in {len(p) for p in polygons}:
            coords = np.array([p for p in polygons if len(p) == n])
            local, emitted = ear_clip(coords, np.arange(len(coords)))
            for k in range(len(coords)):
                expected = [list(t) for t in ear_clip_per_cell(coords[k])]
                assert local[k][emitted[k]].tolist() == expected


class TestGenerators:
    def test_by_angle_matches_per_region_loop(self):
        seeds = np.random.default_rng(3).uniform(0.05, 0.95, size=(40, 2))
        vor = Voronoi(seeds)
        qhull = [vor.regions[vor.point_region[k]] for k in range(len(seeds))]
        qhull = [r for r in qhull if -1 not in r]
        area = np.array([shoelace(vor.vertices[r])[0] for r in qhull])
        assert (area > 0).any() and (area < 0).any()                # qhull's cycles: ccw and cw
        # ... and each cycle reversed, and rotated to start at another vertex
        regions = (qhull + [r[::-1] for r in qhull]
                   + [r[k % len(r):] + r[:k % len(r)] for k, r in enumerate(qhull, 1)])
        counts = np.array([len(r) for r in regions])
        sorted_xy = _by_angle(vor.vertices[np.concatenate(regions)], counts)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        assert len(np.unique(counts)) > 1
        for k, region in enumerate(regions):
            coords = vor.vertices[region]
            center = coords.mean(axis=0)
            order = np.argsort(np.arctan2(coords[:, 1] - center[1], coords[:, 0] - center[0]))
            np.testing.assert_array_equal(sorted_xy[offsets[k]:offsets[k + 1]], coords[order])

    @pytest.mark.parametrize("n", [4, 8])
    def test_lloyd_sweeps_see_qhull_regions_as_angle_cycles(self, monkeypatch, n):
        # _clipped_regions clips each region in qhull's order: that order must be the angle
        # order, ccw or cw, from some vertex. Checked on the diagram of every sweep.
        diagrams = []

        def recording(points):
            diagrams.append(Voronoi(points))
            return diagrams[-1]

        monkeypatch.setattr("vemrcp.generators.Voronoi", recording)
        for seed in range(3):
            generate_mesh(MeshFamily.POLY_U, n, seed=seed)
        assert len(diagrams) == 3 * 31
        orientations = set()
        for vor in diagrams:
            for k in range(n * n):
                region = np.array(vor.regions[vor.point_region[k]])
                d = vor.vertices[region] - vor.vertices[region].mean(axis=0)
                ccw = region[np.argsort(np.arctan2(d[:, 1], d[:, 0]))]
                rolled = np.roll(region, -np.flatnonzero(region == ccw[0])[0])
                if np.array_equal(rolled, ccw):
                    orientations.add("ccw")
                else:
                    np.testing.assert_array_equal(rolled, np.roll(ccw[::-1], 1))
                    orientations.add("cw")
        assert orientations == {"ccw", "cw"}

    @pytest.mark.parametrize("family", [MeshFamily.HEX_S, MeshFamily.POLY_U], ids=lambda f: f.value)
    def test_clip_keeps_each_cycle_whatever_its_orientation(self, monkeypatch, family):
        # The clipper's inputs: hex-s's lattice corners (ccw) and poly-u's raw Voronoi regions.
        inputs = []

        def recording(points, counts):
            inputs.append((points, counts))
            return _clip_to_unit_square(points, counts)

        monkeypatch.setattr("vemrcp.generators._clip_to_unit_square", recording)
        generate_mesh(family, 8, seed=0)
        assert len(inputs) == (1 if family == MeshFamily.HEX_S else 31)
        for points, counts in inputs:
            offsets = np.concatenate([[0], np.cumsum(counts)])
            cell = np.repeat(np.arange(len(counts)), counts)
            reverse = offsets[cell] + offsets[cell + 1] - 1 - np.arange(offsets[-1])
            kept, kept_counts = _clip_to_unit_square(points, counts)
            flipped, flipped_counts = _clip_to_unit_square(points[reverse], counts)
            np.testing.assert_array_equal(flipped_counts, kept_counts)
            out = np.concatenate([[0], np.cumsum(kept_counts)])
            area, centroid = polygon_moments(kept, out)
            flipped_area, flipped_centroid = polygon_moments(flipped, out)
            np.testing.assert_allclose(flipped_area, -area, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(flipped_centroid, centroid, rtol=0.0, atol=1e-15)
            for a, b in zip(np.split(kept, out[1:-1]), np.split(flipped, out[1:-1])):
                gap = np.abs(a[:, None] - b[None]).max(axis=-1)       # the same point set
                assert len(a) == 0 or max(gap.min(0).max(), gap.min(1).max()) <= 1e-15

    def test_unbounded_region_named(self, monkeypatch):
        monkeypatch.setattr("vemrcp.generators._FAR_SITES", np.empty((0, 2)))
        seeds = np.random.default_rng(3).uniform(size=(12, 2))
        with pytest.raises(GenerationError, match="unbounded or degenerate Voronoi region"):
            _clipped_regions(seeds)

    @pytest.mark.parametrize("n", [8, 32])
    def test_clipped_regions_match_full_mirror(self, n):
        # Unrelaxed seeds; the oracle mirrors every seed across every side (PolyMesher).
        def mirrored(seeds):
            return Voronoi(np.vstack([seeds, seeds * [-1.0, 1.0], seeds * [-1.0, 1.0] + [2.0, 0.0],
                                      seeds * [1.0, -1.0], seeds * [1.0, -1.0] + [0.0, 2.0]]))

        for seed in range(3):
            seeds = np.random.default_rng(seed).uniform(0.05, 0.95, size=(n * n, 2))
            points, offsets = _clipped_regions(seeds)
            vor = mirrored(seeds)
            regions = [vor.regions[vor.point_region[k]] for k in range(n * n)]
            ref_counts = np.array([len(r) for r in regions])
            assert min(min(r) for r in regions) >= 0
            ref = _by_angle(vor.vertices[np.concatenate(regions)], ref_counts)
            ref_offsets = np.concatenate([[0], np.cumsum(ref_counts)])
            np.testing.assert_array_equal(offsets, ref_offsets)
            np.testing.assert_allclose(_by_angle(points, np.diff(offsets)), ref,
                                       rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(polygon_moments(points, offsets)[1],
                                       polygon_moments(ref, ref_offsets)[1], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 8])
    def test_poly_u_cells_start_at_smallest_angle(self, n):
        # ear_clip triangulates from vertex 0, so the start of each cycle sets the norms.
        for seed in (0, 1):
            mesh = generate_mesh(MeshFamily.POLY_U, n, seed=seed)
            for ci in range(mesh.num_cells):
                coords = mesh.vertices[mesh.indices[mesh.offsets[ci]:mesh.offsets[ci + 1]]]
                d = coords - coords.mean(axis=0)
                assert np.argmin(np.arctan2(d[:, 1], d[:, 0])) == 0, (seed, ci)

    @pytest.mark.parametrize("n", [*range(1, 17), 23, 32])
    def test_poisson_disk_matches_sequential_darts(self, n):
        for seed in range(5 if n < 32 else 1):
            darts = _poisson_disk(n, np.random.default_rng([seed, n]))
            np.testing.assert_array_equal(darts, poisson_disk_per_candidate(
                n, np.random.default_rng([seed, n])))

    def test_poisson_disk_breaks_exact_ties_like_sequential_darts(self):
        # Candidates on the r = 1/4 lattice and one ulp off it: their distances to the boundary
        # points and to each other round either side of r, inside and across chunks.
        rng = np.random.default_rng(5)
        lattice = np.stack(np.meshgrid(np.arange(1, 4), np.arange(1, 4)), axis=-1).reshape(-1, 2)
        lattice = lattice / 4.0
        near = [lattice, np.nextafter(lattice, 0.0), np.nextafter(lattice, 1.0),
                np.nextafter(lattice, [[0.0, 1.0]]), np.nextafter(lattice, [[1.0, 0.0]])]
        darts = np.vstack([rng.permutation(np.vstack(near)), rng.uniform(size=(435, 2))])
        fixed = types.SimpleNamespace(uniform=lambda low, high, size: darts.reshape(size))
        np.testing.assert_array_equal(_poisson_disk(4, fixed), poisson_disk_per_candidate(4, fixed))

    def test_quad_s_n2(self):
        mesh = generate_mesh(MeshFamily.QUAD_S, 2, seed=0)
        assert mesh.num_cells == 4
        assert mesh.num_vertices == 9
        for ci in range(4):
            assert cell_area(mesh, ci) == pytest.approx(0.25)
            sides = np.linalg.norm(
                np.roll(cell_coords(mesh, ci), -1, axis=0) - cell_coords(mesh, ci), axis=1
            )
            np.testing.assert_allclose(sides, 0.5)

    def test_tri_s_n2(self):
        mesh = generate_mesh(MeshFamily.TRI_S, 2, seed=0)
        assert mesh.num_cells == 8
        total = sum(cell_area(mesh, ci) for ci in range(mesh.num_cells))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_poly_u_n4_seed42(self):
        mesh = generate_mesh(MeshFamily.POLY_U, 4, seed=42)
        total = sum(cell_area(mesh, ci) for ci in range(mesh.num_cells))
        assert total == pytest.approx(1.0, abs=1e-10)
        # A 16-cell tessellation certainly has interior edges, each run by two cell edges.
        assert len(mesh.edges) < len(mesh.indices)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_all_families_validate(self, family):
        for n, seed in ((1, 0), (3, 0), (6, 7)):
            generate_mesh(family, n, seed)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_area_and_euler(self, family):
        mesh = generate_mesh(family, 4, seed=3)
        total = sum(cell_area(mesh, ci) for ci in range(mesh.num_cells))
        assert total == pytest.approx(1.0, abs=1e-10)
        euler = mesh.num_vertices - len(mesh.edges) + mesh.num_cells
        assert euler == 1

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_incidence_matches_edge_dict(self, family):
        mesh = generate_mesh(family, 8, seed=1)
        users = {}                                   # (lo, hi) -> [(cell, global edge id)]
        for ci, cell in enumerate(mesh_cells(mesh)):
            for k, (i, j) in enumerate(zip(cell.tolist(), np.roll(cell, -1).tolist())):
                users.setdefault((min(i, j), max(i, j)), []).append((ci, mesh.offsets[ci] + k))
        boundary = np.zeros(mesh.num_vertices, dtype=bool)
        for (i, j), used in users.items():
            boundary[[i, j]] |= len(used) == 1
        np.testing.assert_array_equal(mesh.boundary_vertex_flags, boundary)
        np.testing.assert_array_equal(mesh.edges, list(users))

    @pytest.mark.parametrize("n", [*range(1, 17), 23, 32, 64])
    def test_hex_s_matches_per_polygon_build(self, n):
        mesh = generate_mesh(MeshFamily.HEX_S, n)
        vertices, cells = hex_structured_per_polygon(n)
        np.testing.assert_array_equal(mesh.vertices, vertices)
        assert len(mesh_cells(mesh)) == len(cells)
        assert all(np.array_equal(a, b) for a, b in zip(mesh_cells(mesh), cells))

    def test_stacked_clip_cases(self):
        inside = np.array([(0.2, 0.2), (0.6, 0.2), (0.4, 0.7)])
        outside = np.array([(1.2, 0.2), (1.6, 0.2), (1.6, 0.6), (1.2, 0.6)])
        corner = np.array([(0.3, 0.0), (0.0, 0.3), (-0.3, 0.0), (0.0, -0.3)]) + [1e-3, 2e-3]
        sliver = np.array([(-0.5, 0.2), (0.0, 0.2), (0.0, 0.6)])   # meets the square in a segment
        points, counts = _clip_to_unit_square(np.vstack([inside, outside, corner, sliver]),
                                              np.array([3, 4, 4, 3]))
        np.testing.assert_array_equal(counts, [3, 0, 5, 0])
        np.testing.assert_array_equal(points[:3], inside)
        np.testing.assert_array_equal(points[3:], clip_to_unit_square_per_polygon(corner))
        assert any(np.array_equal(p, [0.0, 0.0]) for p in points[3:])

    def test_merge_points_keeps_first_of_each_cluster(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (1e-12, 0.0), (1.0, 1e-10), (2.0, 0.0), (1.0, 2e-9)])
        kept, ids = _merge_points(pts)
        np.testing.assert_array_equal(kept, pts[[0, 1, 4, 5]])
        np.testing.assert_array_equal(ids, [0, 1, 0, 1, 2, 3])

    def test_deterministic_for_fixed_inputs(self):
        a = generate_mesh(MeshFamily.POLY_U, 3, seed=11)
        b = generate_mesh(MeshFamily.POLY_U, 3, seed=11)
        np.testing.assert_array_equal(a.vertices, b.vertices)
        assert all((x == y).all() for x, y in zip(mesh_cells(a), mesh_cells(b)))

    def test_structured_families_ignore_seed(self):
        for fam in (MeshFamily.TRI_S, MeshFamily.QUAD_S, MeshFamily.HEX_S, MeshFamily.CONC_S):
            a = generate_mesh(fam, 3, seed=0)
            b = generate_mesh(fam, 3, seed=99)
            np.testing.assert_array_equal(a.vertices, b.vertices)

    def test_family_given_by_name(self):
        np.testing.assert_array_equal(generate_mesh("quad-s", 2).vertices,
                                      generate_mesh(MeshFamily.QUAD_S, 2).vertices)

    @pytest.mark.parametrize(
        "cells, message",
        [([[0, 1, 1, 2]], "cell 0 repeats a vertex"),
         ([[0, 1, 2], [0, 1, 3]], "edge (0,1): traversed twice in the same direction"),
         ([[0, 1, 3]], "Euler characteristic V-E+F = 2, expected 1"),
         ([[0, 1, 3, 2]], "cell areas sum to 0.5, expected 1.0")],
        ids=["constructor", "edge", "euler", "validation"],
    )
    def test_invalid_builder_output_names_family_n_and_seed(self, monkeypatch, cells, message):
        verts = np.array([(0, 0), (1, 0), (0, 1), (0.5, 0.5)], dtype=float)
        monkeypatch.setattr("vemrcp.generators._quad_structured",
                            lambda n, rng: (verts, [0, *np.cumsum([len(c) for c in cells])],
                                            np.concatenate(cells)))
        message = re.escape(f"quad-s (n=2, seed=5): {message}")
        with pytest.raises(GenerationError, match=f"^{message}$"):
            generate_mesh(MeshFamily.QUAD_S, 2, seed=5)

    def test_degenerate_delaunay_triangle_named(self, monkeypatch):
        # The first three Poisson-disk points are the bottom side's (0, 0), (0.5, 0) and (1, 0).
        collinear = types.SimpleNamespace(simplices=np.array([[0, 1, 3], [0, 1, 2]]))
        monkeypatch.setattr("vemrcp.generators.Delaunay", lambda pts: collinear)
        message = r"^tri-u: degenerate Delaunay triangle \[0 1 2\]$"
        with pytest.raises(GenerationError, match=message):
            generate_mesh(MeshFamily.TRI_U, 2)

    def test_dropped_region_named(self, monkeypatch):
        def drop_second(points, counts):
            kept = np.arange(len(counts)) != 1
            return points[np.repeat(kept, counts)], counts * kept

        monkeypatch.setattr("vemrcp.generators._clip_to_unit_square", drop_second)
        message = "^poly-u: clipping dropped the region of seed 1$"
        with pytest.raises(GenerationError, match=message):
            generate_mesh(MeshFamily.POLY_U, 2)

    @pytest.mark.parametrize("family, n", [("quad-s", 3.0), ("poly-u", 2.5)])
    def test_non_integer_subdivisions_named(self, family, n):
        with pytest.raises(TypeError, match=rf"^subdivisions must be an integer, got {n}$"):
            generate_mesh(family, n)

    @pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_bool_count_and_seed_rejected(self, flag):
        with pytest.raises(TypeError, match=rf"^subdivisions must be an integer, got {flag!r}$"):
            generate_mesh("quad-s", flag)
        with pytest.raises(TypeError, match=rf"^seed must be an integer, got {flag!r}$"):
            generate_mesh("quad-u", 3, seed=flag)

    def test_non_integer_seed_named(self):
        with pytest.raises(TypeError, match=r"^seed must be an integer, got 1\.5$"):
            generate_mesh("quad-u", 3, seed=1.5)

    @pytest.mark.parametrize("family, n, seed", [("poly-u", np.int32(3), np.int64(5)),
                                                 ("tri-u", np.uint8(5), np.int16(-3))],
                             ids=["int32-int64", "uint8-int16"])
    def test_numpy_integer_arguments_match_python_ints(self, family, n, seed):
        a = generate_mesh(family, n, seed=seed)
        b = generate_mesh(family, int(n), seed=int(seed))
        np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_unsupported_family(self):
        with pytest.raises(ValueError, match="unsupported"):
            generate_mesh(MeshFamily.EXTERNAL, 2, 0)
        with pytest.raises(ValueError):
            generate_mesh(MeshFamily.QUAD_S, 0, 0)

    def test_conc_families_have_reflex_vertices(self):
        for fam in (MeshFamily.CONC_S, MeshFamily.CONC_U):
            mesh = generate_mesh(fam, 3, seed=2)
            reflex = 0
            for ci in range(mesh.num_cells):
                pts = cell_coords(mesh, ci)
                k = len(pts)
                for v in range(k):
                    a, b, c = pts[v - 1], pts[v], pts[(v + 1) % k]
                    if (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]) < 0:
                        reflex += 1
            assert reflex > 0


def test_cycle_successor_with_empty_cycle():
    # cycles [0, 1, 2], [], [3, 4], []
    np.testing.assert_array_equal(cycle_successor(np.array([0, 3, 3, 5, 5])), [1, 2, 0, 4, 3])
    assert len(cycle_successor(np.array([0, 0]))) == 0


class TestAverageEdgeLength:
    def test_single_square(self, unit_square_mesh):
        assert unit_square_mesh.average_edge_length == pytest.approx(1.0)

    def test_quad_s_n2(self):
        assert shared_mesh(MeshFamily.QUAD_S, 2).average_edge_length == pytest.approx(0.5)

    def test_tri_s_n2(self):
        # 12 axis-aligned edges of 0.5 plus 4 diagonals of sqrt(2)/2
        expected = (12 * 0.5 + 4 * np.sqrt(2.0) / 2.0) / 16.0
        mesh = shared_mesh(MeshFamily.TRI_S, 2)
        assert mesh.average_edge_length == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.5517766952966369)


def patch_member_sets(mesh, cells, kind="rcp1"):
    """Member cell sets of the patches centred on `cells`, in request order."""
    owner, member = build_patch(mesh, cells, kind)
    return [set(member[owner == k].tolist()) for k in range(len(cells))]


class TestPatches:
    @pytest.mark.parametrize("kind", ["rcp0", "rcp1"])
    @pytest.mark.parametrize("cell, error, message", [
        (-1, ValueError, "cell id -1 out of range for a mesh of 9 cells"),
        (9, ValueError, "cell id 9 out of range for a mesh of 9 cells"),
        (2.5, TypeError, "cell id 2.5 is not an integer"),
    ])
    def test_bad_cell_id_rejected(self, kind, cell, error, message):
        mesh = generate_mesh(MeshFamily.QUAD_S, 3)
        assert mesh.num_cells == 9
        # The first bad id is named; in a float array every id is one.
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build_patch(mesh, [cell, 4], kind)

    def test_patch0(self):
        mesh = shared_mesh(MeshFamily.QUAD_S, 3)
        patch = build_patch(mesh, [4], "rcp0")
        assert patch.owner.tolist() == [0]
        assert patch.member_cells.tolist() == [4]

    def test_interior_patch1_is_full_neighborhood(self):
        mesh = shared_mesh(MeshFamily.QUAD_S, 3)
        central = 4  # middle cell of the 3x3 grid
        patch = build_patch(mesh, [central], "rcp1")
        cells = mesh_cells(mesh)
        brute = {
            ci
            for ci in range(mesh.num_cells)
            if set(map(int, cells[ci])) & set(map(int, cells[central]))
        }
        assert patch.owner.tolist() == [0] * len(patch.member_cells)
        assert set(patch.member_cells.tolist()) == brute
        assert len(patch.member_cells) == 9

    def test_corner_patch1_keeps_kind_and_holds_touching_cells(self):
        mesh = shared_mesh(MeshFamily.QUAD_S, 3)
        patch = build_patch(mesh, [0], "rcp1")
        cells = mesh_cells(mesh)
        brute = {
            ci
            for ci in range(mesh.num_cells)
            if set(map(int, cells[ci])) & set(map(int, cells[0]))
        }
        assert patch.owner.tolist() == [0] * len(patch.member_cells)
        assert set(patch.member_cells.tolist()) == brute
        assert len(patch.member_cells) == 4

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_vertex_patches_match_brute_force(self, family):
        mesh = shared_mesh(family, 8, seed=0)
        members = patch_member_sets(mesh, np.arange(mesh.num_cells))
        vertex_sets = [set(cell.tolist()) for cell in mesh_cells(mesh)]
        for ci in range(mesh.num_cells):
            assert all(ci in members[cj] for cj in members[ci])
            brute = {cj for cj, vs in enumerate(vertex_sets) if vs & vertex_sets[ci]}
            assert members[ci] == brute

    def test_adjacency_symmetry(self):
        mesh = shared_mesh(MeshFamily.POLY_U, 4, seed=9)
        members = patch_member_sets(mesh, np.arange(mesh.num_cells))
        for a in range(mesh.num_cells):
            for b in members[a]:
                assert a in members[b]

    @staticmethod
    def assert_matches_per_cell_reference(mesh, cells):
        owner, member = build_patch(mesh, cells, "rcp1")
        expected = [vertex_patch_per_cell(mesh, ci) for ci in cells]
        sizes = [len(m) for m in expected]
        assert owner.dtype == member.dtype == np.int64
        np.testing.assert_array_equal(owner, np.repeat(np.arange(len(cells)), sizes))
        np.testing.assert_array_equal(member, np.concatenate(expected))

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_all_cells_match_per_cell_reference(self, family):
        mesh = shared_mesh(family, 8, seed=0)
        self.assert_matches_per_cell_reference(mesh, np.arange(mesh.num_cells))

    def test_shuffled_subset_follows_request_order(self, rng):
        mesh = shared_mesh(MeshFamily.CONC_U, 8, seed=0)
        subset = rng.permutation(mesh.num_cells)[:40]
        self.assert_matches_per_cell_reference(mesh, subset)
        # A repeated cell gets one patch per request.
        self.assert_matches_per_cell_reference(mesh, np.concatenate([[3, 1, 3, 0], subset]))

    def test_rcp0_is_identity_pairs(self, rng):
        mesh = shared_mesh(MeshFamily.POLY_U, 8, seed=0)
        cells = rng.permutation(mesh.num_cells)
        owner, member = build_patch(mesh, cells, "rcp0")
        np.testing.assert_array_equal(owner, np.arange(mesh.num_cells))
        np.testing.assert_array_equal(member, cells)


class TestConstructorChecks:
    SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]

    @pytest.mark.parametrize(
        "cells, message",
        [
            ([[0, 1, 2, 3], [0, 1]], "cell 1 has fewer than 3 vertices"),
            ([[0, 1, 2, 3], []], "cell 1 has fewer than 3 vertices"),
            ([[0, 1, 2, 3], [0, 1, 1, 2]], "cell 1 repeats a vertex"),
            ([[0, 1, 2, 3], [0, 1, 4]], "cell 1 references a vertex out of range"),
            ([[0, 1, 2, 3], [0, -1, 2]], "cell 1 references a vertex out of range"),
            ([[0, 1, 2, 3], [0, 2, 1]], "cell 1 is not counterclockwise"),
            ([[0, 1, 2, 3], [0, 2, 1], [0, 1, 1, 2], [0, 1]], "cell 1 is not counterclockwise"),
        ],
        ids=["short", "empty", "repeat", "high", "negative", "clockwise", "first-of-several"],
    )
    def test_first_bad_cell_named(self, cells, message):
        with pytest.raises(MeshError, match=f"^{message}$"):
            mesh_from_cells(np.array(self.SQUARE, dtype=float), cells)

    def test_non_finite_vertex_rejected(self):
        verts = np.array(self.SQUARE, dtype=float)
        verts[2, 1] = np.nan
        with pytest.raises(MeshError, match="^non-finite vertex coordinates$"):
            mesh_from_cells(verts, [[0, 1, 2, 3]])

    @pytest.mark.parametrize(
        "scale, cells, message",
        [(1e200, [[0, 1, 2, 3]], "cell 0 has moments that overflow"),
         (1e78, [[0, 1, 2, 3]], "cell 0 has moments that overflow"),
         (1e200, [[0, 1, 2, 3], [4, 5, 6, 7]], "cell 1 has moments that overflow"),
         (1e-78, [[0, 1, 2, 3]], "cell 0 has moments that underflow")],
        ids=["area", "second-moments", "second-cell", "subnormal-second-moments"],
    )
    def test_overflowing_moments_rejected(self, scale, cells, message):
        # The last cell is the square scaled by `scale`; the first of two is the unit square.
        square = np.array(self.SQUARE, dtype=float)
        verts = square * scale if len(cells) == 1 else np.vstack([square, square * scale])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match=f"^{message}$"):
                mesh_from_cells(verts, cells)

    @pytest.mark.parametrize(
        "offsets, indices",
        [([1, 4], [0, 1, 2, 3]), ([0, 3], [0, 1, 2, 3]), ([0, 3, 2, 4], [0, 1, 2, 3]),
         ([], []), ([0, 4], [[0, 1], [2, 3]])],
        ids=["late-start", "short-end", "falling", "empty", "2-d-indices"],
    )
    def test_from_ragged_rejects_bad_offsets(self, offsets, indices):
        with pytest.raises(MeshError, match="^offsets must rise from 0"):
            PolygonalMesh(np.array(self.SQUARE, dtype=float), offsets, indices)

    @pytest.mark.parametrize(
        "offsets, indices, message",
        [([0, 4], [0, 1.5, 2, 3], "indices"), ([0, 4], [0, np.nan, 2, 3], "indices"),
         ([0, 4.5], [0, 1, 2, 3], "offsets"), ([0, np.nan], [0, 1, 2, 3], "offsets")],
        ids=["fractional-index", "nan-index", "fractional-offset", "nan-offset"],
    )
    def test_non_whole_indices_rejected(self, offsets, indices, message):
        # A cast to int64 would turn the fractional index into a unit square and warn on nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match=f"^{message} must hold whole numbers$"):
                PolygonalMesh(np.array(self.SQUARE, dtype=float), offsets, indices)

    def test_whole_valued_float_indices_accepted(self):
        mesh = PolygonalMesh(np.array(self.SQUARE, dtype=float), [0.0, 4.0], [0.0, 1.0, 2.0, 3.0])
        assert mesh.indices.dtype == mesh.offsets.dtype == np.int64
        np.testing.assert_array_equal(mesh.indices, [0, 1, 2, 3])

    @pytest.mark.parametrize("vertices", [np.zeros(8), np.zeros((4, 3))], ids=["flat", "3-d"])
    def test_vertices_must_be_nv_by_2(self, vertices):
        with pytest.raises(MeshError, match=r"^vertices must be an \(nv, 2\) array$"):
            PolygonalMesh(vertices, [0, 3], [0, 1, 2])

    def test_cells_without_vertices_rejected(self):
        with pytest.raises(MeshError, match="^mesh has no vertices$"):
            PolygonalMesh(np.empty((0, 2)), [0, 3], [0, 1, 2])

    def test_topology_arrays_are_read_only(self):
        # The vertex-count groups too: each cell once, in the group of its count, ids ascending.
        meshes = [generate_mesh(f, 4, seed=0) for f in GENERATED_FAMILIES]
        meshes.append(load_mesh(Path(__file__).parent / "data" / "fallback.pmesh"))
        for mesh in meshes:
            for arr in (mesh.vertices, mesh.offsets, mesh.indices, mesh.edge_ends, mesh.edges,
                        mesh.boundary_vertex_flags, *(a for group in mesh.groups for a in group)):
                assert not arr.flags.writeable
            counts = [idx.shape[1] for _, idx in mesh.groups]
            assert counts == sorted(set(counts))
            ids = np.concatenate([cells for cells, _ in mesh.groups])
            assert np.array_equal(np.sort(ids), np.arange(mesh.num_cells))
            for cells, idx in mesh.groups:
                assert np.all(np.diff(cells) > 0) and len(idx) == len(cells)
                for c, row in zip(cells, idx):
                    assert np.array_equal(row, mesh.indices[mesh.offsets[c]:mesh.offsets[c + 1]])


class TestValidation:
    OVERLAPPING = np.array([(0, 0), (1, 0), (1, 1), (0, 1)] * 2, dtype=float)
    FAN = np.array([(0, 0), (1, 0), (0.5, 1), (0.5, -1), (1.5, 1)], dtype=float)

    def test_overlapping_cells_fail(self, monkeypatch):
        # A generated family with two copies of one square: the constructor's Euler check
        # fires before generate_mesh's unit-square tiling check could.
        cells = [[0, 1, 2, 3], [4, 5, 6, 7]]
        monkeypatch.setattr("vemrcp.generators._quad_structured",
                            lambda n, rng: (self.OVERLAPPING, [0, 4, 8], np.concatenate(cells)))
        with pytest.raises(MeshError, match="areas sum|Euler"):
            generate_mesh(MeshFamily.QUAD_S, 1)

    def test_overlapping_external_cells_fail_topologically(self):
        message = r"^Euler characteristic V-E\+F = 2, expected 1$"
        with pytest.raises(MeshError, match=message):
            mesh_from_cells(self.OVERLAPPING, [[0, 1, 2, 3], [4, 5, 6, 7]])

    def test_dangling_edge_fails(self):
        with pytest.raises(MeshError, match="shared by 3|same direction"):
            mesh_from_cells(self.FAN, [[0, 1, 2], [0, 3, 1], [0, 1, 4]])

    def test_edge_of_three_cells_fails_validation(self):
        with pytest.raises(MeshError, match=r"^edge \(0,1\): shared by 3 cells$"):
            mesh_from_cells(self.FAN, [[0, 1, 2], [0, 3, 1], [0, 1, 4]])

    def test_first_bad_edge_in_order_of_appearance(self):
        # Cell 0 runs (0,2) before (0,1): the same-direction (0,2) is named, not the lower key.
        verts = np.array([(0, 0), (1, 0), (0, 1), (0.5, 0.2), (0.5, -1), (0.5, 0.5)], dtype=float)
        cells = [[2, 0, 1], [2, 0, 3], [0, 4, 1], [0, 1, 5]]
        message = r"^edge \(0,2\): traversed twice in the same direction$"
        with pytest.raises(MeshError, match=message):
            mesh_from_cells(verts, cells)

    def test_self_intersecting_cell_reported(self):
        # ccw by signed area, but the last two edges cross the bottom edge
        pts = np.array([(0, 0), (3, 0), (3, 3), (0, 3), (2, -1)], dtype=float) / 3.0
        with pytest.raises(MeshError, match="^cell 0: self-intersecting boundary$"):
            single_cell_mesh(pts)

    def test_simplicity_matches_pairwise_reference(self, rng):
        # random vertex cycles, many of them self-intersecting, oriented ccw
        for _ in range(300):
            pts = rng.uniform(0.0, 1.0, size=(int(rng.integers(4, 9)), 2))
            if shoelace(pts)[0] < 0.0:
                pts = pts[::-1]
            if is_simple_polygon(pts):
                single_cell_mesh(pts)
            else:
                message = "^cell 0: self-intersecting boundary$"
                with pytest.raises(MeshError, match=message):
                    single_cell_mesh(pts)

    def test_same_direction_edge_reported(self):
        verts = np.array([(0, 0), (1, 0), (0.5, 1), (0.5, 0.5)], dtype=float)
        message = r"^edge \(0,1\): traversed twice in the same direction$"
        with pytest.raises(MeshError, match=message):
            mesh_from_cells(verts, [[0, 1, 2], [0, 1, 3]])

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_generator_round_trip(self, family):
        generate_mesh(family, 5, seed=13)


_PMESH = "pmesh 1\n4 2\n0 0\n1 0\n1 1\n0 1\n3 0 1 2\n3 0 2 3\n"
_TOKENS = st.sampled_from(
    ["-1", "0", "1", "2", "3", "4", "0.5", "1e400", "nan", "x", "#", "pmesh",
     "99999999999999999999", "\u00e9"]
)


@st.composite
def mutated_pmesh(draw) -> bytes:
    """A valid two-triangle file with tokens replaced, lines inserted, deleted or
    repeated after the header, and sometimes a few stray bytes."""
    lines = [line.split() for line in _PMESH.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, len(lines) - 1))
        action = draw(st.sampled_from(("token", "token", "insert", "delete", "repeat")))
        if action == "token" and lines[k]:
            lines[k][draw(st.integers(0, len(lines[k]) - 1))] = draw(_TOKENS)
        elif action == "insert":
            lines.insert(k, draw(st.lists(_TOKENS, max_size=4)))
        elif action == "delete" and len(lines) > 2:
            del lines[k]
        elif action == "repeat":
            lines.insert(k, list(lines[k]))
    data = "\n".join(" ".join(line) for line in lines).encode()
    if draw(st.booleans()):
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.binary(min_size=1, max_size=2)) + data[k:]
    return data


class TestMeshFile:
    def test_round_trip(self, tmp_path):
        for family in ALL_FAMILIES:
            mesh = shared_mesh(family, 8, seed=4)
            path = tmp_path / f"{family.value}.pmesh"
            save_mesh(mesh, path)
            loaded = load_mesh(path)
            np.testing.assert_array_equal(loaded.vertices, mesh.vertices)
            assert all((a == b).all() for a, b in zip(mesh_cells(loaded), mesh_cells(mesh)))

    def test_single_cell_file(self, tmp_path):
        path = tmp_path / "square.pmesh"
        path.write_text("pmesh 1\n4 1\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 3\n")
        mesh = load_mesh(path)
        assert mesh.num_cells == 1
        assert cell_area(mesh, 0) == pytest.approx(1.0)

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "square.pmesh"
        path.write_text(
            "# a comment\npmesh 1\n4 1 # counts\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 3\n"
        )
        assert load_mesh(path).num_cells == 1

    def test_clockwise_cell_corrected_with_warning(self, tmp_path, caplog):
        path = tmp_path / "cw.pmesh"
        path.write_text("pmesh 1\n4 1\n0 0\n1 0\n1 1\n0 1\n4 0 3 2 1\n")
        with caplog.at_level(logging.WARNING):
            mesh = load_mesh(path)
        assert cell_area(mesh, 0) == pytest.approx(1.0)
        assert any("counterclockwise" in r.message for r in caplog.records)

    def test_mixed_orientation_cells_reversed_one_by_one(self, tmp_path, caplog):
        mesh = shared_mesh(MeshFamily.POLY_U, 4, seed=1)
        flip = np.random.default_rng(0).random(mesh.num_cells) < 0.5
        records = [f"{len(c)} " + " ".join(map(str, c[::-1] if f else c))
                   for c, f in zip(mesh_cells(mesh), flip)]
        path = tmp_path / "mixed.pmesh"
        path.write_text(f"pmesh 1\n{mesh.num_vertices} {mesh.num_cells}\n"
                        + "".join(f"{x!r} {y!r}\n" for x, y in mesh.vertices.tolist())
                        + "\n".join(records) + "\n")
        with caplog.at_level(logging.WARNING):
            loaded = load_mesh(path)
        np.testing.assert_array_equal(loaded.offsets, mesh.offsets)
        np.testing.assert_array_equal(loaded.indices, mesh.indices)
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: cell {k} was clockwise; reversed to counterclockwise"
            for k in np.flatnonzero(flip)
        ]

    def test_vertex_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.pmesh"
        path.write_text("pmesh 1\n4 1\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 7\n")
        with pytest.raises(MeshFormatError, match=r"cell 0 references vertex 7"):
            load_mesh(path)

    def test_negative_vertex_count(self, tmp_path):
        path = tmp_path / "bad.pmesh"
        path.write_text("pmesh 1\n-1 2\n3 0 1 2\n")
        with pytest.raises(MeshFormatError, match="line 2"):
            load_mesh(path)

    def test_negative_cell_count(self, tmp_path):
        path = tmp_path / "bad.pmesh"
        path.write_text("pmesh 1\n4 -1\n0 0\n1 0\n1 1\n")
        with pytest.raises(MeshFormatError, match="line 2"):
            load_mesh(path)

    def test_non_ascii_byte(self, tmp_path):
        path = tmp_path / "bad.pmesh"
        path.write_bytes(b"pmesh 1\n4 1\n0 0\n1 0\n1 1\n0 1 \xe9\n4 0 1 2 3\n")
        with pytest.raises(MeshFormatError, match="line 6"):
            load_mesh(path)

    def test_zero_cells(self, tmp_path):
        path = tmp_path / "empty.pmesh"
        path.write_text("pmesh 1\n0 0\n")
        with pytest.raises(MeshError, match="no cells"):
            load_mesh(path)

    @settings(derandomize=True, deadline=None)
    @given(data=mutated_pmesh())
    def test_mutated_file_loads_or_raises_mesh_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.pmesh"
        path.write_bytes(data)
        try:
            load_mesh(path)
        except (MeshFormatError, MeshValidationError):
            pass

    @settings(derandomize=True, deadline=None)
    @given(data=mutated_pmesh())
    def test_near_degenerate_cells_give_finite_moments(self, tmp_path_factory, data):
        # The fuzzed two-triangle files include slivers and cells with 1e20 coordinates.
        path = tmp_path_factory.getbasetemp() / "moments.pmesh"
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                mesh = load_mesh(path)
            except (MeshFormatError, MeshValidationError):
                return
        assert (mesh.areas > 0.0).all()
        assert np.isfinite(mesh.centroids).all() and np.isfinite(mesh.second_moments).all()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.pmesh"
        path.write_text("mesh 2\n")
        with pytest.raises(MeshFormatError, match="line 1"):
            load_mesh(path)

    def test_vertex_line_needs_two_coordinates(self, tmp_path):
        path = tmp_path / "bad.pmesh"
        path.write_text("pmesh 1\n3 1\n0 0\n1 0 0\n0 1\n3 0 1 2\n")
        message = re.escape(f"{path}: line 4: expected 'x y'")
        with pytest.raises(MeshFormatError, match=f"^{message}$"):
            load_mesh(path)

    def test_validation_failure_reported(self, tmp_path):
        path = tmp_path / "dup.pmesh"
        path.write_text(
            "pmesh 1\n8 2\n0 0\n1 0\n1 1\n0 1\n0 0\n1 0\n1 1\n0 1\n"
            "4 0 1 2 3\n4 4 5 6 7\n"
        )
        with pytest.raises(MeshValidationError):
            load_mesh(path)

    @pytest.mark.parametrize(
        "vertices, cell, message",
        [
            ("0 0\n1 0\n1 1\n0 1\n", "4 0 1 1 2", "cell 0 repeats a vertex"),
            ("0 0\n1 0\n1 nan\n0 1\n", "4 0 1 2 3", "non-finite vertex coordinates"),
            ("0 0\n1 0\n1 1\n0 1\n", "2 0 1", "cell 0 has fewer than 3 vertices"),
        ],
        ids=["repeated-vertex", "nan-coordinate", "two-vertex-cell"],
    )
    def test_constructor_error_names_the_file(self, tmp_path, vertices, cell, message):
        path = tmp_path / "bad.pmesh"
        path.write_text(f"pmesh 1\n4 1\n{vertices}{cell}\n")
        with pytest.raises(MeshValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_mesh(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("5 3\n0 0\n1 0\n0.5 1\n0.5 -1\n1.5 1\n3 0 1 2\n3 0 3 1\n3 0 1 4\n",
             "edge (0,1): shared by 3 cells"),
            ("4 2\n0 0\n1 0\n0.5 1\n0.5 0.5\n3 0 1 2\n3 0 1 3\n",
             "edge (0,1): traversed twice in the same direction"),
            ("5 1\n0 0\n3 0\n3 3\n0 3\n2 -1\n5 0 1 2 3 4\n", "cell 0: self-intersecting boundary"),
            ("6 2\n0 0\n1 0\n0 1\n2 0\n3 0\n2 1\n3 0 1 2\n3 3 4 5\n",
             "Euler characteristic V-E+F = 2, expected 1"),
            # Edges are checked before cell boundaries cross, so the bad edge is named.
            ("6 2\n0 0\n1 0\n0.5 1\n3 -3\n3 3\n1.5 -1\n3 0 1 2\n5 0 1 3 4 5\n",
             "edge (0,1): traversed twice in the same direction"),
        ],
        ids=["three-users", "same-direction", "self-intersecting", "euler", "edge-first"],
    )
    def test_violation_names_the_file(self, tmp_path, body, message):
        path = tmp_path / "bad.pmesh"
        path.write_text(f"pmesh 1\n{body}")
        with pytest.raises(MeshValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_mesh(path)

    def test_boundary_flags_recomputed(self, tmp_path):
        mesh = shared_mesh(MeshFamily.QUAD_S, 2)
        path = tmp_path / "m.pmesh"
        save_mesh(mesh, path)
        loaded = load_mesh(path)
        # 3x3 grid of vertices: all but the center are on the boundary
        assert loaded.boundary_vertex_flags.sum() == 8
        assert not loaded.boundary_vertex_flags[4]
