"""Polygonal meshes of the unit square: storage, geometry queries, text IO.

Vertices are rows of an (nv, 2) float array. The cells are one ragged pair of
index arrays, as in PolyMesher: cell ci is the counterclockwise vertex cycle
indices[offsets[ci]:offsets[ci + 1]], and the cell edge from its k-th vertex
to the next has the global id offsets[ci] + k. The mesh is built from that
pair alone. The vertex-to-cell map is a second such pair: the cells around
vertex v, in cell order, are vertex_cell_ids[vertex_offsets[v]:vertex_offsets[v + 1]].
All derived topology (edge incidence, boundary flags, the vertex-to-cell
map) and the cell moments of degree <= 2 (area, centroid, central second
moments, in closed form from the vertices) are built once at construction.
Areas and centroids of ragged cycles come from one kernel, `polygon_moments`,
which the generators and `load_mesh` use too. Only the per-cell quadrature
rules are cached lazily on the instance, so a mesh is not safe to share
between threads without a lock.
"""

from __future__ import annotations

import logging
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


GENERATED_FAMILIES = tuple(f for f in MeshFamily if f is not MeshFamily.EXTERNAL)


_CELL_CHECKS = (
    "has fewer than 3 vertices",
    "repeats a vertex",
    "references a vertex out of range",
    "is not counterclockwise",
    "has moments that overflow",
)


class PolygonalMesh:
    """Conforming polygonal tessellation with counterclockwise cells.

    The cells are the ragged pair `offsets` (ncells + 1, rising from 0) and
    `indices`, and the vertex-to-cell map the pair `vertex_offsets`,
    `vertex_cell_ids` (see the module docstring). The given arrays are kept,
    not copied, where their dtypes allow, and made read-only. Per global edge
    id, `edge_ends` is the end vertex. Per unique edge, in order of first
    appearance, `edges` holds the (lo, hi) vertex pair and `edge_uses` how
    many cell edges run lo -> hi and hi -> lo. Boundary vertex flags are
    always recomputed from edge incidence, never taken on trust from a file
    or generator. Per cell, `areas`, `centroids` and `second_moments` (the
    2x2 integral of (x - c)(x - c)^T about the centroid c) are exact. A bad
    cell raises MeshError naming the first one.
    """

    def __init__(self, vertices: np.ndarray, offsets: np.ndarray, indices: np.ndarray,
                 family: MeshFamily):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("non-finite vertex coordinates")
        offsets, idx = np.asarray(offsets), np.asarray(indices)
        for name, a in (("offsets", offsets), ("indices", idx)):  # the cast would truncate 1.5
            if a.dtype.kind == "f" and not np.all((np.abs(a) < 2.0**63) & (a == np.trunc(a))):
                raise MeshError(f"{name} must hold whole numbers")
        offsets, idx = offsets.astype(np.int64, copy=False), idx.astype(np.int64, copy=False)
        if (offsets.ndim != 1 or idx.ndim != 1 or len(offsets) == 0 or offsets[0] != 0
                or offsets[-1] != len(idx) or np.any(np.diff(offsets) < 0)):
            raise MeshError("offsets must rise from 0 to the length of the 1-D indices")
        if len(offsets) == 1:
            raise MeshError("mesh has no cells")
        if len(vertices) == 0:
            raise MeshError("mesh has no vertices")
        self.vertices, self.offsets, self.indices = vertices, offsets, idx
        self.family = family
        counts = np.diff(offsets)
        nc, nv = len(counts), len(vertices)
        cell_of = np.repeat(np.arange(nc), counts)
        succ = cycle_successor(self.offsets)

        # All cell checks at once; the error names the first bad cell and its first failed check.
        out_of_range = (idx < 0) | (idx >= nv)
        order = np.lexsort((idx, cell_of))
        same = (np.diff(idx[order]) == 0) & (np.diff(cell_of[order]) == 0)
        xy = vertices[np.where(out_of_range, 0, idx)]
        nonempty = counts > 0
        # Finite coordinates can still overflow the edge sums; the last check catches that.
        with np.errstate(over="ignore", invalid="ignore"):
            area, centroids = polygon_moments(xy, offsets)
            # Central second moments: edge sums like those of the area, relative to the centroid.
            x, y = (xy - centroids[cell_of]).T
            xn, yn = x[succ], y[succ]
            terms = np.column_stack([2.0 * (x * x + x * xn + xn * xn),
                                     x * yn + 2.0 * (x * y + xn * yn) + xn * y,
                                     2.0 * (y * y + y * yn + yn * yn)])
            second = np.zeros((nc, 3))
            second[nonempty] = np.add.reduceat((x * yn - xn * y)[:, None] * terms,
                                               offsets[:-1][nonempty]) / 24.0
        failed = np.zeros((len(_CELL_CHECKS), nc), dtype=bool)
        failed[0] = counts < 3
        failed[1, cell_of[order][1:][same]] = True
        failed[2, cell_of[out_of_range]] = True
        failed[3] = area <= 0.0
        failed[4] = ~np.isfinite(np.column_stack([area, centroids, second])).all(axis=1)
        if failed.any():
            ci = int(np.argmax(failed.any(axis=0)))
            raise MeshError(f"cell {ci} {_CELL_CHECKS[np.argmax(failed[:, ci])]}")
        self.areas, self.centroids = area, centroids
        self.second_moments = second[:, [0, 1, 1, 2]].reshape(nc, 2, 2)

        # Edge incidence: one unique pass over the sorted (lo, hi) key of every cell edge.
        self.edge_ends = ends = idx[succ]
        lo, hi = np.minimum(idx, ends), np.maximum(idx, ends)
        _, first, edge_of, users = np.unique(
            lo * nv + hi, return_index=True, return_inverse=True, return_counts=True
        )
        on_boundary = users[edge_of] == 1
        self.boundary_vertex_flags = np.zeros(nv, dtype=bool)
        self.boundary_vertex_flags[idx[on_boundary]] = True
        self.boundary_vertex_flags[ends[on_boundary]] = True
        appearance = np.argsort(first)
        self.edges = np.column_stack([lo, hi])[first[appearance]]
        reverse = np.bincount(edge_of[idx > ends], minlength=len(users))
        self.edge_uses = np.column_stack([users - reverse, reverse])[appearance]
        d = vertices[self.edges[:, 1]] - vertices[self.edges[:, 0]]
        self.average_edge_length = float(np.hypot(d[:, 0], d[:, 1]).mean())

        self.vertex_offsets = np.concatenate([[0], np.cumsum(np.bincount(idx, minlength=nv))])
        self.vertex_cell_ids = cell_of[np.argsort(idx, kind="stable")]
        for arr in (self.vertices, self.offsets, idx, ends, self.boundary_vertex_flags,
                    self.edges, self.edge_uses, self.vertex_offsets, self.vertex_cell_ids,
                    self.areas, self.centroids, self.second_moments):
            arr.setflags(write=False)
        self._quadrature_cache: dict = {}

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_cells(self) -> int:
        return len(self.offsets) - 1

    def boundary_vertices(self) -> np.ndarray:
        return np.nonzero(self.boundary_vertex_flags)[0]


# ---------------------------------------------------------------------------
# elementary polygon geometry
# ---------------------------------------------------------------------------

def cycle_successor(offsets: np.ndarray) -> np.ndarray:
    """Position of the next vertex in the same cycle, per vertex of ragged (maybe empty) cycles."""
    succ = np.arange(1, offsets[-1] + 1)
    nonempty = offsets[1:] > offsets[:-1]
    succ[offsets[1:][nonempty] - 1] = offsets[:-1][nonempty]
    return succ


def polygon_moments(xy: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed area (k,) and centroid (k, 2) of k ragged vertex cycles.

    Cycle c has the corners xy[offsets[c]:offsets[c + 1]], counterclockwise for
    a positive area; cycles may be empty or concave. The edge sums run on
    coordinates local to each cycle's first corner, so a far origin costs no
    digits. An empty cycle has area 0; a cycle of area 0 gets a non-finite
    centroid, without a warning.
    """
    counts = np.diff(offsets)
    nonempty = counts > 0
    first = offsets[:-1][nonempty]
    origin = np.zeros((len(counts), 2))
    origin[nonempty] = xy[first]
    local = xy - np.repeat(origin, counts, axis=0)
    succ = cycle_successor(offsets)
    cross = local[:, 0] * local[succ, 1] - local[succ, 0] * local[:, 1]
    area, moment = np.zeros(len(counts)), np.zeros((len(counts), 2))
    area[nonempty] = 0.5 * np.add.reduceat(np.append(cross, 0.0), first)
    moment[nonempty] = np.add.reduceat((local + local[succ]) * cross[:, None], first)
    with np.errstate(divide="ignore", invalid="ignore"):
        return area, origin + moment / (6.0 * area[:, None])


def vertex_count_groups(mesh: PolygonalMesh) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cells grouped by vertex count n: (cell ids (k,), vertex indices (k, n)) per n."""
    counts = np.diff(mesh.offsets)
    groups = []
    for n in np.unique(counts):
        cells = np.flatnonzero(counts == n)
        groups.append((cells, mesh.indices[mesh.offsets[cells, None] + np.arange(n)]))
    return groups


def _crossing_cells(pts: np.ndarray) -> np.ndarray:
    """Flag the cells of a (k, n, 2) stack in which two non-adjacent edges properly cross."""
    n = pts.shape[1]
    i, j = np.triu_indices(n, 2)
    keep = (i > 0) | (j < n - 1)
    p1, p2 = pts[:, i[keep]], pts[:, (i[keep] + 1) % n]
    q1, q2 = pts[:, j[keep]], pts[:, (j[keep] + 1) % n]

    def orient(a, b, c):
        return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
            b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])

    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
    crossing = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != d2) & (d3 != d4)
    return crossing.any(axis=1)


def ear_clip(points: np.ndarray, cells) -> tuple[np.ndarray, np.ndarray]:
    """Triangulate a (k, n, 2) stack of simple ccw polygons by ear clipping, all cells at once.

    Each step removes one vertex from the current cycle of every cell: its
    first collinear vertex (a zero-area ear, clipped without a triangle), else
    its first convex ear that holds no other remaining vertex. Returns local
    vertex ids (k, n - 2, 3) and the (k, n - 2) mask of emitted triangles.
    `cells` names the k cells of the stack: a cell with no ear left raises
    MeshError naming its id.
    """
    k, n, _ = points.shape
    scale = np.ptp(points, axis=1).max(axis=1)
    eps = (1e-12 * scale * scale)[:, None]
    rows = np.arange(k)[:, None]
    remaining = np.tile(np.arange(n), (k, 1))
    tris = np.empty((k, n - 2, 3), dtype=np.int64)
    emitted = np.ones((k, n - 2), dtype=bool)
    for step, m in enumerate(range(n, 3, -1)):
        j = np.arange(m)
        ear = np.stack([j - 1, j, (j + 1) % m], axis=-1)        # positions of (a, b, c) per ear
        p = points[rows, remaining]
        a, b, c = np.moveaxis(p[:, ear], 2, 0)
        # turn[s, :, i, q]: cross product of side s of ear i with remaining vertex q.
        start, d = np.stack([a, b, c]), np.stack([b - a, c - b, a - c])
        turn = (d[..., 0, None] * (p[:, None, :, 1] - start[..., 1, None])
                - d[..., 1, None] * (p[:, None, :, 0] - start[..., 0, None]))
        cross = turn[0][:, j, (j + 1) % m]
        others = (j - j[:, None] + 1) % m > 2
        holds = ((turn > -eps[..., None]).all(axis=0) & others).any(axis=-1)
        collinear = np.abs(cross) <= eps
        convex = (cross > eps) & ~holds
        flat = collinear.any(axis=1)
        stuck = ~flat & ~convex.any(axis=1)
        if stuck.any():
            cell = np.asarray(cells)[np.argmax(stuck)]
            raise MeshError(f"cell {cell}: ear clipping failed: polygon is not simple")
        pick = np.where(flat, collinear.argmax(axis=1), convex.argmax(axis=1))
        tris[:, step] = remaining[rows, ear[pick]]
        emitted[:, step] = ~flat
        remaining = remaining[j != pick[:, None]].reshape(k, m - 1)
    tris[:, -1] = remaining
    return tris, emitted


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_mesh(mesh: PolygonalMesh) -> list[str]:
    """Check the structural mesh invariants; return the violations found, empty if none.

    For generated families the cells must tile the unit square; externally
    loaded meshes are checked topologically (edge incidence, orientation
    consistency, Euler characteristic of a simply connected tessellation).
    """
    errors: list[str] = []
    # Cell areas are positive: the constructor rejects any other cell.
    area_sum = float(mesh.areas.sum())
    groups = vertex_count_groups(mesh)
    crossing = np.concatenate([cells[_crossing_cells(mesh.vertices[idx])] for cells, idx in groups])
    for ci in np.sort(crossing):
        errors.append(f"cell {ci}: self-intersecting boundary")

    users = mesh.edge_uses.sum(axis=1)
    for e in np.flatnonzero((users > 2) | ((users == 2) & (mesh.edge_uses[:, 0] != 1))):
        i, j = mesh.edges[e]
        if users[e] > 2:
            errors.append(f"edge ({i},{j}): shared by {users[e]} cells")
        else:
            errors.append(f"edge ({i},{j}): traversed twice in the same direction")

    euler = mesh.num_vertices - len(mesh.edges) + mesh.num_cells
    if euler != 1:
        errors.append(f"Euler characteristic V-E+F = {euler}, expected 1")

    if mesh.family is not MeshFamily.EXTERNAL and abs(area_sum - 1.0) > 1e-10:
        errors.append(f"cell areas sum to {area_sum!r}, expected 1.0")

    return errors


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
    for ln, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            body = raw.decode("ascii").split("#", 1)[0].strip()
        except UnicodeDecodeError as exc:
            raise MeshFormatError(f"{path}: line {ln}: non-ASCII byte") from exc
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
    if nv < 0 or nc < 0:
        raise MeshFormatError(f"{path}: line {tokens[1][0]}: negative counts")
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

    counts, flat = np.zeros(nc, dtype=np.int64), []
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
        counts[k] = count
        flat += idx
    offsets = np.concatenate([[0], np.cumsum(counts)])
    flat, pos = np.asarray(flat, dtype=np.int64), np.arange(offsets[-1])
    start, end = np.repeat(offsets[:-1], counts), np.repeat(offsets[1:], counts)
    with np.errstate(all="ignore"):           # non-finite vertices: the constructor raises
        clockwise = polygon_moments(vertices[flat], offsets)[0] < 0.0
    for k in np.flatnonzero(clockwise):
        logger.warning("%s: cell %d was clockwise; reversed to counterclockwise", path, k)
    flat = flat[np.where(np.repeat(clockwise, counts), start + end - 1 - pos, pos)]
    mesh = PolygonalMesh(vertices, offsets, flat, MeshFamily.EXTERNAL)
    errors = validate_mesh(mesh)
    if errors:
        raise MeshValidationError(f"{path}: {errors[0]}")
    return mesh


def save_mesh(mesh: PolygonalMesh, path) -> None:
    """Write the text format read by load_mesh; 17 significant digits load back exactly."""
    path = Path(path)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_MAGIC}\n{mesh.num_vertices} {mesh.num_cells}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        fh.write("\n".join(cell_records(mesh)) + "\n")


def cell_records(mesh: PolygonalMesh) -> list[str]:
    """One 'n i0 i1 ... i(n-1)' line per cell, as in the text format and in legacy VTK."""
    counts = np.diff(mesh.offsets)
    tokens = np.insert(mesh.indices, mesh.offsets[:-1], counts).astype(str)
    bounds = (mesh.offsets + np.arange(mesh.num_cells + 1)).tolist()
    return [" ".join(tokens[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
