"""Polygonal meshes of the unit square: storage, geometry queries, patches, text IO.

Vertices are rows of an (nv, 2) float array; a cell is a counterclockwise
cycle of vertex indices. Vertex coordinates and cells do not change after
construction, but derived topology (edge incidence and neighbors, vertex-to-cell
map) and the per-cell quadrature rules are built lazily and cached on the
instance, so a mesh is not safe to share between threads without a lock.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


class MeshFormatError(MeshError):
    """Unreadable or inconsistent mesh file."""


class MeshValidationError(MeshError):
    """A mesh failed its structural invariants."""


class MeshFamily(Enum):
    TRI_S = "tri-s"
    QUAD_S = "quad-s"
    HEX_S = "hex-s"
    CONC_S = "conc-s"
    TRI_U = "tri-u"
    QUAD_U = "quad-u"
    POLY_U = "poly-u"
    CONC_U = "conc-u"
    EXTERNAL = "external"


STRUCTURED_FAMILIES = (
    MeshFamily.TRI_S,
    MeshFamily.QUAD_S,
    MeshFamily.HEX_S,
    MeshFamily.CONC_S,
)
GENERATED_FAMILIES = tuple(f for f in MeshFamily if f is not MeshFamily.EXTERNAL)


class PatchKind(Enum):
    PATCH0 = "patch0"
    PATCH1 = "patch1"
    PATCH1B = "patch1b"


@dataclass(frozen=True)
class ElementPatch:
    """A central cell plus the neighbor set used for stress recovery."""

    central_cell: int
    member_cells: tuple[int, ...]
    kind: PatchKind


class PolygonalMesh:
    """Conforming polygonal tessellation with counterclockwise cells.

    Boundary vertex flags are always recomputed from edge incidence, never
    taken on trust from a file or generator.
    """

    def __init__(self, vertices: np.ndarray, cells: list, family: MeshFamily):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("non-finite vertex coordinates")
        self.vertices = vertices
        self.vertices.setflags(write=False)
        self.cells = [np.asarray(c, dtype=np.int64) for c in cells]
        self.family = family
        nv = len(vertices)
        for ci, cell in enumerate(self.cells):
            if len(cell) < 3:
                raise MeshError(f"cell {ci} has fewer than 3 vertices")
            if len(np.unique(cell)) != len(cell):
                raise MeshError(f"cell {ci} repeats a vertex")
            if cell.min() < 0 or cell.max() >= nv:
                raise MeshError(f"cell {ci} references a vertex out of range")
            if signed_area(vertices[cell]) <= 0.0:
                raise MeshError(f"cell {ci} is not counterclockwise")
        self._edge_map: dict | None = None
        self._vertex_cells: list | None = None
        self._edge_neighbors: np.ndarray | None = None
        self._quadrature_cache: dict = {}
        self.boundary_vertex_flags = self._compute_boundary_flags()
        self.average_edge_length = average_edge_length(self)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def cell_coords(self, cell: int) -> np.ndarray:
        return self.vertices[self.cells[cell]]

    @property
    def edge_map(self) -> dict:
        """Map (lo, hi) vertex pair -> list of (cell, local_edge, reversed)."""
        if self._edge_map is None:
            emap: dict = {}
            for ci, cell in enumerate(self.cells):
                nxt = np.roll(cell, -1)
                for k, (i, j) in enumerate(zip(cell, nxt)):
                    key = (int(i), int(j)) if i < j else (int(j), int(i))
                    emap.setdefault(key, []).append((ci, k, i > j))
            self._edge_map = emap
        return self._edge_map

    @property
    def edge_neighbors(self) -> np.ndarray:
        """Cell across every cell edge, or -1 on the boundary.

        Edges are numbered globally in cell order: local edge k of cell ci
        (from vertex k to vertex k + 1) has id sum(len(cells[:ci])) + k.
        """
        if self._edge_neighbors is None:
            counts = np.array([len(c) for c in self.cells])
            first = np.cumsum(counts) - counts
            nb = np.full(counts.sum(), -1, dtype=np.int64)
            for users in self.edge_map.values():
                if len(users) == 2:
                    (c0, k0, _), (c1, k1, _) = users
                    nb[first[c0] + k0], nb[first[c1] + k1] = c1, c0
            nb.setflags(write=False)
            self._edge_neighbors = nb
        return self._edge_neighbors

    @property
    def vertex_cells(self) -> list:
        """For each vertex, the cells incident to it (in cell order)."""
        if self._vertex_cells is None:
            v2c: list = [[] for _ in range(self.num_vertices)]
            for ci, cell in enumerate(self.cells):
                for v in cell:
                    v2c[int(v)].append(ci)
            self._vertex_cells = v2c
        return self._vertex_cells

    def _compute_boundary_flags(self) -> np.ndarray:
        flags = np.zeros(self.num_vertices, dtype=bool)
        for (i, j), users in self.edge_map.items():
            if len(users) == 1:
                flags[i] = True
                flags[j] = True
        flags.setflags(write=False)
        return flags

    def boundary_vertices(self) -> np.ndarray:
        return np.nonzero(self.boundary_vertex_flags)[0]


# ---------------------------------------------------------------------------
# elementary polygon geometry
# ---------------------------------------------------------------------------

def signed_area(points: np.ndarray) -> float:
    """Shoelace area of a closed polygon given as an (n, 2) vertex cycle."""
    x, y = points[:, 0], points[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def polygon_area(mesh: PolygonalMesh, cell: int) -> float:
    return signed_area(mesh.cell_coords(cell))


def shoelace(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Area and area-weighted centroid of ccw polygons given as (..., n, 2) vertex cycles.

    Valid for concave simple polygons; a stack of k cells with n vertices each
    gives areas (k,) and centroids (k, 2).
    """
    x, y = points[..., 0], points[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum(axis=-1)
    cx = ((x + xn) * cross).sum(axis=-1) / (6.0 * area)
    cy = ((y + yn) * cross).sum(axis=-1) / (6.0 * area)
    return area, np.stack([cx, cy], axis=-1)


def polygon_centroid(mesh: PolygonalMesh, cell: int) -> np.ndarray:
    return shoelace(mesh.cell_coords(cell))[1]


def vertex_count_groups(mesh: PolygonalMesh) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cells grouped by vertex count n: (cell ids (k,), vertex indices (k, n)) per n."""
    counts = np.array([len(c) for c in mesh.cells])
    groups = [np.flatnonzero(counts == n) for n in np.unique(counts)]
    return [(cells, np.stack([mesh.cells[ci] for ci in cells])) for cells in groups]


def edge_outward_normal(mesh: PolygonalMesh, cell: int, edge: int) -> np.ndarray:
    """Unit normal of local edge `edge` pointing out of the (ccw) cell."""
    pts = mesh.cell_coords(cell)
    a = pts[edge]
    b = pts[(edge + 1) % len(pts)]
    t = b - a
    length = float(np.hypot(t[0], t[1]))
    if length == 0.0:
        raise MeshError(f"cell {cell} edge {edge} has zero length")
    return np.array([t[1], -t[0]]) / length


def _segments_properly_intersect(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != d2 and d3 != d4


def is_simple_polygon(points: np.ndarray) -> bool:
    """True when no two non-adjacent polygon edges cross."""
    n = len(points)
    for i in range(n):
        a1, a2 = points[i], points[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_properly_intersect(a1, a2, points[j], points[(j + 1) % n]):
                return False
    return True


def ear_clip(points: np.ndarray) -> list[tuple[int, int, int]]:
    """Triangulate a simple ccw polygon by ear clipping; returns local index triples.

    Collinear vertices (zero-area ears) are clipped eagerly, which keeps the
    routine robust on cells whose boundary runs straight through a vertex.
    """
    n = len(points)
    if n == 3:
        return [(0, 1, 2)]
    scale = float(np.ptp(points, axis=0).max())
    eps = 1e-12 * scale * scale
    remaining = list(range(n))
    triangles: list[tuple[int, int, int]] = []

    def cross_at(k: int) -> float:
        a = points[remaining[k - 1]]
        b = points[remaining[k]]
        c = points[remaining[(k + 1) % len(remaining)]]
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def ear_is_empty(k: int) -> bool:
        ia = remaining[k - 1]
        ib = remaining[k]
        ic = remaining[(k + 1) % len(remaining)]
        a, b, c = points[ia], points[ib], points[ic]
        for idx in remaining:
            if idx in (ia, ib, ic):
                continue
            p = points[idx]
            d1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            d2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
            d3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
            if d1 > -eps and d2 > -eps and d3 > -eps:
                return False
        return True

    while len(remaining) > 3:
        clipped = False
        # degenerate (collinear) ears first: removing them never changes geometry
        for k in range(len(remaining)):
            if abs(cross_at(k)) <= eps:
                remaining.pop(k)
                clipped = True
                break
        if clipped:
            continue
        for k in range(len(remaining)):
            if cross_at(k) > eps and ear_is_empty(k):
                ia = remaining[k - 1]
                ib = remaining[k]
                ic = remaining[(k + 1) % len(remaining)]
                triangles.append((ia, ib, ic))
                remaining.pop(k)
                clipped = True
                break
        if not clipped:
            raise MeshError("ear clipping failed: polygon is not simple")
    triangles.append(tuple(remaining))
    return triangles


def triangulate_polygon(mesh: PolygonalMesh, cell: int) -> list[tuple[int, int, int]]:
    """Partition a cell into triangles of global vertex indices."""
    cell_idx = mesh.cells[cell]
    local = ear_clip(mesh.cell_coords(cell))
    return [tuple(int(cell_idx[i]) for i in tri) for tri in local]


def average_edge_length(mesh: PolygonalMesh) -> float:
    """Arithmetic mean length over unique mesh edges."""
    total = 0.0
    for (i, j) in mesh.edge_map:
        d = mesh.vertices[j] - mesh.vertices[i]
        total += float(np.hypot(d[0], d[1]))
    return total / len(mesh.edge_map)


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------

def build_patch(mesh: PolygonalMesh, cell: int, kind: PatchKind) -> ElementPatch:
    """Assemble the recovery patch for `cell`.

    PATCH0 is the degenerate single-cell patch. PATCH1 collects every cell
    sharing at least one vertex with the central one and is relabelled
    PATCH1B whenever the central cell touches the domain boundary.
    """
    if kind is PatchKind.PATCH0:
        return ElementPatch(cell, (cell,), PatchKind.PATCH0)
    members = {cell}
    for v in mesh.cells[cell]:
        members.update(mesh.vertex_cells[int(v)])
    touches_boundary = bool(mesh.boundary_vertex_flags[mesh.cells[cell]].any())
    out_kind = PatchKind.PATCH1B if touches_boundary else PatchKind.PATCH1
    return ElementPatch(cell, tuple(sorted(members)), out_kind)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    ok: bool
    errors: list[str]

    def first_error(self) -> str:
        return self.errors[0] if self.errors else ""


def validate_mesh(mesh: PolygonalMesh, domain_area: float | None = None) -> ValidationReport:
    """Check the structural mesh invariants and report the violations found.

    For generated families the cells must tile the unit square; externally
    loaded meshes are checked topologically (edge incidence, orientation
    consistency, Euler characteristic of a simply connected tessellation).
    """
    errors: list[str] = []
    if not np.all(np.isfinite(mesh.vertices)):
        errors.append("non-finite vertex coordinates")

    area_sum = 0.0
    for ci in range(mesh.num_cells):
        pts = mesh.cell_coords(ci)
        a = signed_area(pts)
        if a <= 0.0:
            errors.append(f"cell {ci}: non-positive signed area {a:g}")
            continue
        area_sum += a
        if not is_simple_polygon(pts):
            errors.append(f"cell {ci}: self-intersecting boundary")

    for (i, j), users in mesh.edge_map.items():
        if len(users) > 2:
            errors.append(f"edge ({i},{j}): shared by {len(users)} cells")
        elif len(users) == 2:
            if users[0][2] == users[1][2]:
                errors.append(f"edge ({i},{j}): traversed twice in the same direction")

    num_edges = len(mesh.edge_map)
    euler = mesh.num_vertices - num_edges + mesh.num_cells
    if euler != 1:
        errors.append(f"Euler characteristic V-E+F = {euler}, expected 1")

    if domain_area is None and mesh.family is not MeshFamily.EXTERNAL:
        domain_area = 1.0
    if domain_area is not None:
        if abs(area_sum - domain_area) > 1e-10 * max(domain_area, 1.0):
            errors.append(
                f"cell areas sum to {area_sum!r}, expected {domain_area!r}"
            )

    return ValidationReport(ok=not errors, errors=errors)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_MAGIC = "pmesh 1"


def load_mesh(path) -> PolygonalMesh:
    """Read a mesh from the line-oriented text format.

    Clockwise cells are reoriented (with a warning); boundary flags come from
    the reconstructed edge incidence. Raises MeshFormatError with the
    offending line, or MeshValidationError naming the first broken invariant.
    """
    path = Path(path)
    tokens: list[tuple[int, list[str]]] = []
    with open(path, "r", encoding="ascii") as fh:
        for ln, raw in enumerate(fh, start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                tokens.append((ln, body.split()))

    if not tokens or " ".join(tokens[0][1]) != _MAGIC:
        raise MeshFormatError(f"{path}: line 1: expected header '{_MAGIC}'")
    if len(tokens) < 2 or len(tokens[1][1]) != 2:
        raise MeshFormatError(f"{path}: line {tokens[1][0] if len(tokens) > 1 else 1}: "
                              "expected vertex and cell counts")
    try:
        nv, nc = int(tokens[1][1][0]), int(tokens[1][1][1])
    except ValueError as exc:
        raise MeshFormatError(f"{path}: line {tokens[1][0]}: bad counts") from exc
    if len(tokens) != 2 + nv + nc:
        raise MeshFormatError(
            f"{path}: expected {2 + nv + nc} content lines, found {len(tokens)}"
        )

    vertices = np.empty((nv, 2))
    for k in range(nv):
        ln, parts = tokens[2 + k]
        if len(parts) != 2:
            raise MeshFormatError(f"{path}: line {ln}: expected 'x y'")
        try:
            vertices[k] = [float(parts[0]), float(parts[1])]
        except ValueError as exc:
            raise MeshFormatError(f"{path}: line {ln}: bad coordinate") from exc

    cells = []
    for k in range(nc):
        ln, parts = tokens[2 + nv + k]
        try:
            count = int(parts[0])
            idx = [int(p) for p in parts[1:]]
        except ValueError as exc:
            raise MeshFormatError(f"{path}: line {ln}: bad cell record") from exc
        if len(idx) != count:
            raise MeshFormatError(
                f"{path}: line {ln}: cell {k} declares {count} vertices, lists {len(idx)}"
            )
        bad = [i for i in idx if i < 0 or i >= nv]
        if bad:
            raise MeshFormatError(
                f"{path}: line {ln}: cell {k} references vertex {bad[0]} out of range"
            )
        arr = np.asarray(idx, dtype=np.int64)
        if signed_area(vertices[arr]) < 0.0:
            logger.warning("%s: cell %d was clockwise; reversed to counterclockwise", path, k)
            arr = arr[::-1].copy()
        cells.append(arr)

    mesh = PolygonalMesh(vertices, cells, MeshFamily.EXTERNAL)
    report = validate_mesh(mesh)
    if not report.ok:
        raise MeshValidationError(f"{path}: {report.first_error()}")
    return mesh


def save_mesh(mesh: PolygonalMesh, path) -> None:
    """Write the text format produced by load_mesh (12+ significant digits)."""
    path = Path(path)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_MAGIC}\n{mesh.num_vertices} {mesh.num_cells}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.15g} {y:.15g}\n")
        for cell in mesh.cells:
            fh.write(f"{len(cell)} " + " ".join(str(int(i)) for i in cell) + "\n")
