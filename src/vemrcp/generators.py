"""Generators for the eight mesh families on the unit square.

Structured families (tri-s, quad-s, hex-s, conc-s) are fully deterministic
and ignore the seed; unstructured ones (tri-u, quad-u, poly-u, conc-u) are
deterministic for a fixed (family, subdivisions, seed) triple. Every
generated mesh is validated before it is returned.
"""

from __future__ import annotations

import operator

import numpy as np
from scipy.spatial import Delaunay, Voronoi, cKDTree

from .mesh import (
    GENERATED_FAMILIES,
    MeshError,
    MeshFamily,
    PolygonalMesh,
    shoelace,
    validate_mesh,
)


class GenerationError(MeshError):
    """A generator produced an invalid mesh or could not finish."""


_FAMILY_CODE = {fam: k for k, fam in enumerate(GENERATED_FAMILIES)}


def generate_mesh(family: MeshFamily, subdivisions: int, seed: int = 0) -> PolygonalMesh:
    """Build a mesh of the requested family with ~`subdivisions` cells per side."""
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
    vertices, cells = builder(subdivisions, rng)
    mesh = PolygonalMesh(vertices, cells, family)
    report = validate_mesh(mesh)
    if not report.ok:
        raise GenerationError(
            f"{family.value} (n={subdivisions}, seed={seed}): {report.first_error()}"
        )
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


def _squares(n: int):
    """Corner ids a, b, c, d (ccw from bottom left) of the grid squares, row by row."""
    k = np.arange(n * n)
    a = k + k // n                                   # (n + 1) j + i for square (i, j)
    return a, a + 1, a + n + 2, a + n + 1


def _quad_structured(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    return _grid(n), np.stack(_squares(n), axis=1)


def _tri_structured(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    # every square split along the same (bottom-left to top-right) diagonal
    a, b, c, d = _squares(n)
    return _grid(n), np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)


def _conc_structured(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
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
    return np.vstack([verts, mid]), cells


def _hex_structured(n: int, rng) -> tuple[np.ndarray, list]:
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

    polygons = []
    i_max = int(np.ceil(1.0 / (1.5 * radius))) + 1
    j_max = int(np.ceil(1.0 / row_h)) + 1
    for i in range(-1, i_max + 1):
        cx = 1.5 * radius * i
        y_off = 0.5 * row_h if i % 2 else 0.0
        for j in range(-1, j_max + 1):
            cy = row_h * j + y_off + shift
            poly = np.array([cx, cy]) + hex_offsets
            clipped = _clip_to_unit_square(poly)
            if clipped is None or len(clipped) < 3:
                continue
            polygons.append(clipped)
    points, ids = _merge_points(np.concatenate(polygons))
    return points, np.split(ids, np.cumsum([len(p) for p in polygons])[:-1])


def _clip_to_unit_square(poly: np.ndarray):
    """Sutherland-Hodgman clip of a convex ccw polygon against [0,1]^2."""
    pts = list(poly)
    for axis, level, keep in ((0, 0.0, operator.ge), (0, 1.0, operator.le),
                              (1, 0.0, operator.ge), (1, 1.0, operator.le)):
        out = []
        for cur, nxt in zip(pts, pts[1:] + pts[:1]):
            cur_in = keep(cur[axis], level)
            if cur_in:
                out.append(cur)
            if cur_in != keep(nxt[axis], level):
                cut = cur + (level - cur[axis]) / (nxt[axis] - cur[axis]) * (nxt - cur)
                cut[axis] = level
                out.append(cut)
        pts = out
        if not pts:
            return None
    arr = np.array(pts)
    if abs(shoelace(arr)[0]) < 1e-14:
        return None
    return arr


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


def _quad_unstructured(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    verts = _jittered_grid(n, rng)
    _, cells = _quad_structured(n, rng)
    return verts, cells


def _conc_unstructured(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
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
    return points, cells.reshape(-1, 6)


def _poisson_disk(n: int, rng) -> np.ndarray:
    """Boundary-conforming Poisson-disk sample of the unit square, radius ~1/n."""
    r = 1.0 / n
    side = np.linspace(0.0, 1.0, n + 1)
    pts = [np.array([x, 0.0]) for x in side]
    pts += [np.array([x, 1.0]) for x in side]
    pts += [np.array([0.0, y]) for y in side[1:-1]]
    pts += [np.array([1.0, y]) for y in side[1:-1]]

    cell = r / np.sqrt(2.0)
    grid: dict = {}

    def key(p):
        return (int(p[0] / cell), int(p[1] / cell))

    def far_enough(p):
        kx, ky = key(p)
        for dx in range(-2, 3):
            for dy in range(-2, 3):
                for idx in grid.get((kx + dx, ky + dy), ()):
                    d = pts[idx] - p
                    if d[0] * d[0] + d[1] * d[1] < r * r:
                        return False
        return True

    for idx, p in enumerate(pts):
        grid.setdefault(key(p), []).append(idx)

    candidates = rng.uniform(0.0, 1.0, size=(30 * n * n, 2))
    for cand in candidates:
        if far_enough(cand):
            grid.setdefault(key(cand), []).append(len(pts))
            pts.append(cand)
    return np.array(pts)


def _tri_unstructured(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    pts = _poisson_disk(n, rng)
    simplices = Delaunay(pts).simplices
    area = shoelace(pts[simplices])[0]
    degenerate = np.abs(area) < 1e-14
    if degenerate.any():
        raise GenerationError(
            f"tri-u: degenerate Delaunay triangle {simplices[np.argmax(degenerate)]}"
        )
    return pts, np.where(area[:, None] > 0, simplices, simplices[:, ::-1])


def _poly_unstructured(n: int, rng) -> tuple[np.ndarray, list]:
    """Voronoi tessellation of Lloyd-relaxed random seeds.

    Seeds are mirrored across the four boundary lines before each Voronoi
    construction, which makes the interior cells finite and clips them to the
    square exactly.
    """
    num = n * n
    seeds = rng.uniform(0.05, 0.95, size=(num, 2))
    for _ in range(30):
        vor = _mirrored_voronoi(seeds)
        new_seeds = np.empty_like(seeds)
        for k in range(num):
            region = vor.regions[vor.point_region[k]]
            if -1 in region or not region:
                raise GenerationError("poly-u: unbounded Voronoi region during relaxation")
            new_seeds[k] = shoelace(_ordered_region(vor, region))[1]
        seeds = np.clip(new_seeds, 1e-9, 1.0 - 1e-9)

    vor = _mirrored_voronoi(seeds)
    used: dict[int, int] = {}
    points: list[np.ndarray] = []
    cells = []
    for k in range(num):
        region = vor.regions[vor.point_region[k]]
        if -1 in region or len(region) < 3:
            raise GenerationError(f"poly-u: degenerate region for seed {k}")
        order = _region_order(vor.vertices[region])
        cell = []
        for local in order:
            vid = region[local]
            if vid not in used:
                used[vid] = len(points)
                points.append(vor.vertices[vid])
            cell.append(used[vid])
        cells.append(cell)
    return np.array(points), cells


def _mirrored_voronoi(seeds: np.ndarray) -> Voronoi:
    left = seeds * [-1.0, 1.0]
    right = seeds * [-1.0, 1.0] + [2.0, 0.0]
    bottom = seeds * [1.0, -1.0]
    top = seeds * [1.0, -1.0] + [0.0, 2.0]
    return Voronoi(np.vstack([seeds, left, right, bottom, top]))


def _region_order(coords: np.ndarray) -> np.ndarray:
    center = coords.mean(axis=0)
    ang = np.arctan2(coords[:, 1] - center[1], coords[:, 0] - center[0])
    return np.argsort(ang)


def _ordered_region(vor: Voronoi, region: list) -> np.ndarray:
    coords = vor.vertices[region]
    return coords[_region_order(coords)]
