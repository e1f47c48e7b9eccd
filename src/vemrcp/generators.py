"""Generators for the eight mesh families on the unit square.

Structured families (tri-s, quad-s, hex-s, conc-s) are fully deterministic
and ignore the seed; unstructured ones (tri-u, quad-u, poly-u, conc-u) are
deterministic for a fixed (family, subdivisions, seed) triple. The mesh
constructor checks every generated mesh, and `generate_mesh` adds the one
check that only a generator can promise: the cell areas sum to 1, the area
of the unit square. hex-s and poly-u clip all their convex cells at once,
one array step per side of the square.
"""

from __future__ import annotations

import itertools
import numbers

import numpy as np
from scipy.spatial import Delaunay, Voronoi, cKDTree

from .mesh import (
    GENERATED_FAMILIES,
    MeshError,
    MeshFamily,
    PolygonalMesh,
    cycle_successor,
    polygon_moments,
)


class GenerationError(MeshError):
    """A generator produced an invalid mesh or could not finish."""


_FAMILY_CODE = {fam: k for k, fam in enumerate(GENERATED_FAMILIES)}
_FAR_SITES = np.array([[-10.0, -10.0], [11.0, -10.0], [11.0, 11.0], [-10.0, 11.0]])   # poly-u

# What every family builder returns: vertices (nv, 2) and the ragged cell pair offsets, indices.
MeshArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


def generate_mesh(family: MeshFamily, subdivisions: int, seed: int = 0) -> PolygonalMesh:
    """Build a mesh of the requested family with ~`subdivisions` cells per side."""
    for name, value in (("subdivisions", subdivisions), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    subdivisions, seed = int(subdivisions), int(seed)        # numpy integers would overflow
    if subdivisions < 1:
        raise ValueError("subdivisions must be >= 1")
    if isinstance(family, str):
        family = MeshFamily(family)
    if family not in _FAMILY_CODE:
        raise ValueError(f"unsupported mesh family: {family!r}")
    rng = np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, subdivisions, _FAMILY_CODE[family]])
    )
    builder = {
        MeshFamily.TRI_S: _tri_structured,
        MeshFamily.QUAD_S: _quad_structured,
        MeshFamily.HEX_S: _hex_structured,
        MeshFamily.CONC_S: _conc_structured,
        MeshFamily.TRI_U: _tri_unstructured,
        MeshFamily.QUAD_U: _quad_unstructured,
        MeshFamily.POLY_U: _poly_unstructured,
        MeshFamily.CONC_U: _conc_unstructured,
    }[family]
    arrays = builder(subdivisions, rng)
    try:
        mesh = PolygonalMesh(*arrays)
        area_sum = float(mesh.areas.sum())          # the cells must tile the unit square
        if abs(area_sum - 1.0) > 1e-10:
            raise MeshError(f"cell areas sum to {area_sum!r}, expected 1.0")
    except MeshError as exc:
        raise GenerationError(f"{family.value} (n={subdivisions}, seed={seed}): {exc}") from exc
    return mesh


def _merge_points(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge every point lying within 1e-9 (max-norm) of an earlier one.

    The first point of each cluster is kept, in order of first appearance;
    returns the kept points and the new index of every input point.
    """
    pairs = cKDTree(points).query_pairs(1e-9, p=np.inf, output_type="ndarray")
    first = np.arange(len(points))
    np.minimum.at(first, pairs[:, 1], pairs[:, 0])
    keep = first == np.arange(len(points))
    return points[keep], (np.cumsum(keep) - 1)[first]


# ---------------------------------------------------------------------------
# structured families
# ---------------------------------------------------------------------------

def _grid(n: int) -> np.ndarray:
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="xy")
    return np.column_stack([xv.ravel(), yv.ravel()])


def _rows(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ragged pair (offsets, indices) of a (k, m) array of cells with m vertices each."""
    return np.arange(len(cells) + 1) * cells.shape[1], cells.ravel()


def _squares(n: int):
    """Corner ids a, b, c, d (ccw from bottom left) of the grid squares, row by row."""
    k = np.arange(n * n)
    a = k + k // n                                   # (n + 1) j + i for square (i, j)
    return a, a + 1, a + n + 2, a + n + 1


def _quad_structured(n: int, rng) -> MeshArrays:
    return _grid(n), *_rows(np.stack(_squares(n), axis=1))


def _tri_structured(n: int, rng) -> MeshArrays:
    # every square split along the same (bottom-left to top-right) diagonal
    a, b, c, d = _squares(n)
    return _grid(n), *_rows(np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3))


def _conc_structured(n: int, rng) -> MeshArrays:
    """Each square split by a bent diagonal into a convex and a dart-shaped quad.

    The mid vertex of the diagonal is pushed off-center, alternating sides in
    a checkerboard so the darts form a chevron pattern.
    """
    verts = _grid(n)
    a, b, c, d = _squares(n)
    h = 1.0 / n
    diag = verts[c] - verts[a]
    perp = np.column_stack([-diag[:, 1], diag[:, 0]]) / np.hypot(diag[:, 0], diag[:, 1])[:, None]
    j, i = np.divmod(np.arange(n * n), n)
    side = np.where((i + j) % 2 == 0, 1.0, -1.0)
    mid = 0.5 * (verts[a] + verts[c]) + (side * 0.2 * h * np.sqrt(2.0))[:, None] * perp
    m = len(verts) + np.arange(n * n)
    # the half the mid vertex leans into becomes the dart
    cells = np.stack([a, b, c, m, a, m, c, d], axis=1).reshape(-1, 4)
    return np.vstack([verts, mid]), *_rows(cells)


def _hex_structured(n: int, rng) -> MeshArrays:
    """Regular flat-top hexagon tiling clipped to the square.

    The lattice is shifted a quarter row upward so that no hexagon vertex or
    edge falls exactly on a clip line; boundary cells become pentagons or
    quads after clipping.
    """
    radius = 1.0 / (1.5 * n)
    row_h = np.sqrt(3.0) * radius
    shift = 0.25 * row_h
    angles = np.deg2rad(np.arange(0.0, 360.0, 60.0))
    hex_offsets = radius * np.column_stack([np.cos(angles), np.sin(angles)])

    i_max = int(np.ceil(1.0 / (1.5 * radius))) + 1
    j_max = int(np.ceil(1.0 / row_h)) + 1
    i, j = np.meshgrid(np.arange(-1, i_max + 1), np.arange(-1, j_max + 1), indexing="ij")
    cy = row_h * j + np.where(i % 2, 0.5 * row_h, 0.0) + shift
    corners = np.stack([1.5 * radius * i, cy], axis=-1).reshape(-1, 1, 2) + hex_offsets
    points, counts, _ = _clip_to_unit_square(corners.reshape(-1, 2), np.full(len(corners), 6))
    points, ids = _merge_points(points)
    return points, np.concatenate([[0], np.cumsum(counts[counts > 0])]), ids


def _clip_to_unit_square(points: np.ndarray, counts: np.ndarray):
    """Sutherland-Hodgman clip of convex polygons (runs of `counts` rows of `points`).

    Returns the runs clipped to [0,1]^2 in the same form, each keeping its orientation, cw or
    ccw; a polygon left with fewer than three vertices or an |area| below 1e-14 gets count 0.
    Also returns the centroids (kept, 2) of the kept polygons, from the `polygon_moments`
    call of that area test.
    """
    offsets = np.concatenate([[0], np.cumsum(counts)])
    for axis, level, keep in ((0, 0.0, np.greater_equal), (0, 1.0, np.less_equal),
                              (1, 0.0, np.greater_equal), (1, 1.0, np.less_equal)):
        succ = cycle_successor(offsets)
        inside = keep(points[:, axis], level)
        crossing = inside != inside[succ]
        # Each vertex emits itself if inside, then the cut of its outgoing edge if that crosses.
        first = np.concatenate([[0], np.cumsum(inside.astype(np.int64) + crossing)])
        cur, nxt = points[crossing], points[succ[crossing]]
        cut = cur + ((level - cur[:, axis]) / (nxt[:, axis] - cur[:, axis]))[:, None] * (nxt - cur)
        cut[:, axis] = level
        clipped = np.empty((first[-1], 2))
        clipped[first[:-1][inside]] = points[inside]
        clipped[(first[:-1] + inside)[crossing]] = cut
        points, offsets = clipped, first[offsets]
    counts = np.diff(offsets)
    area, centroids = polygon_moments(points, offsets)
    kept = (counts >= 3) & (np.abs(area) >= 1e-14)
    return points[np.repeat(kept, counts)], np.where(kept, counts, 0), centroids[kept]


# ---------------------------------------------------------------------------
# unstructured families
# ---------------------------------------------------------------------------

def _jittered_grid(n: int, rng) -> np.ndarray:
    verts = _grid(n)
    h = 1.0 / n
    j, i = np.divmod(np.arange(len(verts)), n + 1)
    interior = (i > 0) & (i < n) & (j > 0) & (j < n)
    jitter = rng.uniform(-0.25 * h, 0.25 * h, size=(int(interior.sum()), 2))
    verts[interior] += jitter
    return verts


def _quad_unstructured(n: int, rng) -> MeshArrays:
    return _jittered_grid(n, rng), *_quad_structured(n, rng)[1:]


def _conc_unstructured(n: int, rng) -> MeshArrays:
    """Each jittered quad split into two concave hexagons by a zig-zag cut."""
    verts = _jittered_grid(n, rng)
    ia, ib, ic, id_ = _squares(n)
    a, b, c, d = verts[ia], verts[ib], verts[ic], verts[id_]
    p = 0.5 * (a + b)
    q = 0.5 * (c + d)
    axis = q - p
    length = np.hypot(axis[:, 0], axis[:, 1])[:, None]
    perp = np.column_stack([-axis[:, 1], axis[:, 0]]) / length
    delta = 0.15 * length
    z1 = p + axis / 3.0 + delta * perp
    z2 = p + 2.0 * axis / 3.0 - delta * perp
    # Neighbouring quads emit their shared edge midpoint twice; merging keeps the first.
    points, ids = _merge_points(np.vstack([verts, np.stack([z1, z2, p, q], axis=1).reshape(-1, 2)]))
    z1, z2, ip, iq = ids[len(verts):].reshape(-1, 4).T
    cells = np.stack([ia, ip, z1, z2, iq, id_, ip, ib, ic, iq, z2, z1], axis=1)
    return points, *_rows(cells.reshape(-1, 6))


def _poisson_disk(n: int, rng) -> np.ndarray:
    """Boundary-conforming Poisson-disk sample of the unit square, radius ~1/n, by dart throwing."""
    r, lo, hi = 1.0 / n, (1.0 - 1e-9) / n, (1.0 + 1e-9) / n
    grid = _grid(n).reshape(n + 1, n + 1, 2)
    pts = np.vstack([grid[0], grid[-1], grid[1:-1, 0], grid[1:-1, -1]])

    def close(d):                  # the sequential test, so the sample is the same bit for bit
        return d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] < r * r

    candidates = rng.uniform(0.0, 1.0, size=(30 * n * n, 2))
    for chunk in np.array_split(candidates, min(16, 2 * n * n)):    # 15 n^2 / 8 each from n = 3
        tree = cKDTree(pts)
        dist = tree.query(chunk)[0]
        # Only a nearest distance within 1e-9 r of r can round either way: re-test those.
        unsure = np.flatnonzero((dist >= lo) & (dist <= hi))
        near = cKDTree(chunk[unsure]).sparse_distance_matrix(tree, hi, output_type="ndarray")
        dist[unsure[near["i"][close(chunk[unsure][near["i"]] - pts[near["j"]])]]] = 0.0
        chunk = chunk[dist >= lo]
        pairs = cKDTree(chunk).query_pairs(hi, output_type="ndarray")        # i < j
        i, j = pairs[close(chunk[pairs[:, 0]] - chunk[pairs[:, 1]])].T
        # In candidate order: state 1 kept, -1 dropped by an earlier kept one, 0 open.
        state = np.zeros(len(chunk), dtype=np.int8)
        while not state.all():
            kept_before, open_before = (np.bincount(j[state[i] == s], minlength=len(chunk)) > 0
                                        for s in (1, 0))
            state[(state == 0) & kept_before] = -1
            state[(state == 0) & ~open_before] = 1
        pts = np.vstack([pts, chunk[state == 1]])
    return pts


def _tri_unstructured(n: int, rng) -> MeshArrays:
    pts = _poisson_disk(n, rng)
    simplices = Delaunay(pts).simplices
    area = polygon_moments(pts[simplices].reshape(-1, 2), 3 * np.arange(len(simplices) + 1))[0]
    degenerate = np.abs(area) < 1e-14
    if degenerate.any():
        raise GenerationError(
            f"tri-u: degenerate Delaunay triangle {simplices[np.argmax(degenerate)]}"
        )
    return pts, *_rows(np.where(area[:, None] > 0, simplices, simplices[:, ::-1]))


def _poly_unstructured(n: int, rng) -> MeshArrays:
    """Voronoi tessellation of Lloyd-relaxed random seeds, cut to the square.

    The sweeps clip qhull's cycles, cw or ccw, as they come, and move each seed to the centroid
    of its clipped region that the clipper's sliver test computed. Only the final cycles are
    sorted by angle (ccw, from vertex 0, where `ear_clip` starts), then their shared points merged.
    """
    seeds = rng.uniform(0.05, 0.95, size=(n * n, 2))
    for _ in range(30):
        seeds = np.clip(_clipped_regions(seeds)[2], 1e-9, 1.0 - 1e-9)
    points, offsets, _ = _clipped_regions(seeds)
    points, ids = _merge_points(_by_angle(points, np.diff(offsets)))
    return points, offsets, ids


def _clipped_regions(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Voronoi regions of the seeds (in [0,1]^2) next to `_FAR_SITES`, clipped as qhull cycles them.

    The far sites' hull holds the square, so every region is bounded. For p in the square no far
    site is within 10, every seed is within sqrt(2), and no image of a seed t across a side is
    nearer than t, which is on p's side: so the clipped regions are those of PolyMesher's full
    mirror. Returns (points, offsets, centroids), the centroids from the clipper; an unbounded,
    degenerate or lost region is a GenerationError.
    """
    vor = Voronoi(np.vstack([seeds, _FAR_SITES]))
    regions = list(map(vor.regions.__getitem__, vor.point_region[:len(seeds)]))
    counts = np.fromiter(map(len, regions), dtype=np.int64, count=len(seeds))
    ids = np.fromiter(itertools.chain.from_iterable(regions), dtype=np.int64, count=counts.sum())
    if (counts < 3).any() or (ids < 0).any():
        bad = np.union1d(np.flatnonzero(counts < 3),
                         np.repeat(np.arange(len(seeds)), counts)[ids < 0])
        raise GenerationError(f"poly-u: unbounded or degenerate Voronoi region for seed {bad[0]}")
    points, counts, centroids = _clip_to_unit_square(vor.vertices[ids], counts)
    if not counts.all():
        raise GenerationError(f"poly-u: clipping dropped the region of seed {np.argmin(counts)}")
    return points, np.concatenate([[0], np.cumsum(counts)]), centroids


def _by_angle(xy: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs of `counts` (each >= 1) rows of `xy`, sorted by angle about their means from -pi."""
    cell = np.repeat(np.arange(len(counts)), counts)
    d = xy - (np.add.reduceat(xy, np.cumsum(counts) - counts) / counts[:, None])[cell]
    return xy[np.lexsort((np.arctan2(d[:, 1], d[:, 0]), cell))]
