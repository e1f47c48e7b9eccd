"""Generators for the eight mesh families on the unit square.

Structured families (tri-s, quad-s, hex-s, conc-s) are fully deterministic
and ignore the seed; unstructured ones (tri-u, quad-u, poly-u, conc-u) are
deterministic for a fixed (family, subdivisions, seed) triple. Every
generated mesh is validated before it is returned.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay, Voronoi

from .mesh import (
    GENERATED_FAMILIES,
    MeshError,
    MeshFamily,
    PolygonalMesh,
    shoelace,
    signed_area,
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


class _VertexPool:
    """Deduplicates nearly coincident points via a quantized spatial hash."""

    def __init__(self, tol: float = 1e-9):
        self.tol = tol
        self.points: list[np.ndarray] = []
        self._grid: dict = {}

    def add(self, p) -> int:
        x, y = float(p[0]), float(p[1])
        ix, iy = int(round(x / self.tol)), int(round(y / self.tol))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for idx in self._grid.get((ix + dx, iy + dy), ()):
                    q = self.points[idx]
                    if abs(q[0] - x) <= self.tol and abs(q[1] - y) <= self.tol:
                        return idx
        idx = len(self.points)
        self.points.append(np.array([x, y]))
        self._grid.setdefault((ix, iy), []).append(idx)
        return idx

    def array(self) -> np.ndarray:
        return np.array(self.points)


# ---------------------------------------------------------------------------
# structured families
# ---------------------------------------------------------------------------

def _grid(n: int):
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="xy")
    verts = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    return verts, vid


def _quad_structured(n: int, rng) -> tuple[np.ndarray, list]:
    verts, vid = _grid(n)
    cells = []
    for j in range(n):
        for i in range(n):
            cells.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return verts, cells


def _tri_structured(n: int, rng) -> tuple[np.ndarray, list]:
    # every square split along the same (bottom-left to top-right) diagonal
    verts, vid = _grid(n)
    cells = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            cells.append([a, b, c])
            cells.append([a, c, d])
    return verts, cells


def _conc_structured(n: int, rng) -> tuple[np.ndarray, list]:
    """Each square split by a bent diagonal into a convex and a dart-shaped quad.

    The mid vertex of the diagonal is pushed off-center, alternating sides in
    a checkerboard so the darts form a chevron pattern.
    """
    verts, vid = _grid(n)
    pool = _VertexPool()
    for p in verts:
        pool.add(p)
    cells = []
    h = 1.0 / n
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            pa, pc = verts[a], verts[c]
            diag = pc - pa
            perp = np.array([-diag[1], diag[0]]) / np.hypot(diag[0], diag[1])
            side = 1.0 if (i + j) % 2 == 0 else -1.0
            m = pool.add(0.5 * (pa + pc) + side * 0.2 * h * np.sqrt(2.0) * perp)
            # the half the mid vertex leans into becomes the dart
            cells.append([a, b, c, m])
            cells.append([a, m, c, d])
    return pool.array(), cells


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

    pool = _VertexPool()
    cells = []
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
            cells.append([pool.add(p) for p in clipped])
    return pool.array(), cells


def _clip_to_unit_square(poly: np.ndarray):
    """Sutherland-Hodgman clip of a convex ccw polygon against [0,1]^2."""
    def clip(points, inside, intersect):
        out = []
        for k in range(len(points)):
            cur, nxt = points[k], points[(k + 1) % len(points)]
            cur_in, nxt_in = inside(cur), inside(nxt)
            if cur_in:
                out.append(cur)
                if not nxt_in:
                    out.append(intersect(cur, nxt))
            elif nxt_in:
                out.append(intersect(cur, nxt))
        return out

    def x_cut(level):
        def f(p, q):
            t = (level - p[0]) / (q[0] - p[0])
            return np.array([level, p[1] + t * (q[1] - p[1])])
        return f

    def y_cut(level):
        def f(p, q):
            t = (level - p[1]) / (q[1] - p[1])
            return np.array([p[0] + t * (q[0] - p[0]), level])
        return f

    pts = list(poly)
    pts = clip(pts, lambda p: p[0] >= 0.0, x_cut(0.0))
    if not pts:
        return None
    pts = clip(pts, lambda p: p[0] <= 1.0, x_cut(1.0))
    if not pts:
        return None
    pts = clip(pts, lambda p: p[1] >= 0.0, y_cut(0.0))
    if not pts:
        return None
    pts = clip(pts, lambda p: p[1] <= 1.0, y_cut(1.0))
    if not pts:
        return None
    arr = np.array(pts)
    if abs(signed_area(arr)) < 1e-14:
        return None
    return arr


# ---------------------------------------------------------------------------
# unstructured families
# ---------------------------------------------------------------------------

def _jittered_grid(n: int, rng) -> np.ndarray:
    verts, vid = _grid(n)
    verts = verts.copy()
    h = 1.0 / n
    interior = np.ones(len(verts), dtype=bool)
    for j in (0, n):
        for i in range(n + 1):
            interior[vid(i, j)] = False
            interior[vid(j, i)] = False
    jitter = rng.uniform(-0.25 * h, 0.25 * h, size=(int(interior.sum()), 2))
    verts[interior] += jitter
    return verts


def _quad_unstructured(n: int, rng) -> tuple[np.ndarray, list]:
    verts = _jittered_grid(n, rng)
    _, cells = _quad_structured(n, rng)
    return verts, cells


def _conc_unstructured(n: int, rng) -> tuple[np.ndarray, list]:
    """Each jittered quad split into two concave hexagons by a zig-zag cut."""
    verts = _jittered_grid(n, rng)
    _, quads = _quad_structured(n, rng)
    pool = _VertexPool()
    for p in verts:
        pool.add(p)
    cells = []
    for quad in quads:
        a, b, c, d = (verts[k] for k in quad)
        ia, ib, ic, id_ = quad
        p = 0.5 * (a + b)
        q = 0.5 * (c + d)
        axis = q - p
        perp = np.array([-axis[1], axis[0]]) / np.hypot(axis[0], axis[1])
        delta = 0.15 * np.hypot(axis[0], axis[1])
        z1 = pool.add(p + axis / 3.0 + delta * perp)
        z2 = pool.add(p + 2.0 * axis / 3.0 - delta * perp)
        ip, iq = pool.add(p), pool.add(q)
        cells.append([ia, ip, z1, z2, iq, id_])
        cells.append([ip, ib, ic, iq, z2, z1])
    return pool.array(), cells


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


def _tri_unstructured(n: int, rng) -> tuple[np.ndarray, list]:
    pts = _poisson_disk(n, rng)
    tri = Delaunay(pts)
    cells = []
    for simplex in tri.simplices:
        coords = pts[simplex]
        a = signed_area(coords)
        if abs(a) < 1e-14:
            raise GenerationError(f"tri-u: degenerate Delaunay triangle {simplex}")
        cells.append(simplex if a > 0 else simplex[::-1])
    return pts, cells


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
