"""Independent reference implementations and helpers used only by the tests.

The linear-triangle FEM here is written from the classical B-matrix formulas,
deliberately sharing no code with the package's element routines.
"""

from __future__ import annotations

import operator

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from vemrcp.generators import _merge_points
from vemrcp.material import compliance_matrix, elastic_matrix
from vemrcp.mesh import MeshError, MeshFamily, PolygonalMesh, ear_clip, vertex_count_groups
from vemrcp.quadrature import TRI7_BARY, TRI7_WEIGHTS
from vemrcp.recovery import _GAUSS2, MODES, PatchSystems, _ragged_ranges, _sum_by
from vemrcp.vem import element_matrices


# ---------------------------------------------------------------------------
# cells one at a time
# ---------------------------------------------------------------------------

def mesh_from_cells(vertices, cells, family=MeshFamily.EXTERNAL) -> PolygonalMesh:
    """A mesh from a list of vertex-index sequences, one per cell."""
    offsets = np.concatenate([[0], np.cumsum([len(c) for c in cells])])
    return PolygonalMesh(vertices, offsets, np.concatenate(cells), family)


def mesh_cells(mesh) -> list[np.ndarray]:
    """The vertex-index cycle of every cell, as a list of views."""
    bounds = mesh.offsets.tolist()
    return [mesh.indices[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def cell_ids(mesh, cell) -> np.ndarray:
    """The vertex indices of one cell, counterclockwise."""
    return mesh.indices[mesh.offsets[cell]:mesh.offsets[cell + 1]]


def cell_coords(mesh, cell) -> np.ndarray:
    """The (n, 2) vertex coordinates of one cell, counterclockwise."""
    return mesh.vertices[cell_ids(mesh, cell)]


def shoelace(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Area and area-weighted centroid of ccw polygons given as (..., n, 2) vertex cycles.

    Valid for concave simple polygons; a stack of k cells with n vertices each
    gives areas (k,) and centroids (k, 2). The edge sums run on absolute
    coordinates; this is the reference for `vemrcp.mesh.polygon_moments`.
    """
    x, y = points[..., 0], points[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum(axis=-1)
    cx = ((x + xn) * cross).sum(axis=-1) / (6.0 * area)
    cy = ((y + yn) * cross).sum(axis=-1) / (6.0 * area)
    return area, np.stack([cx, cy], axis=-1)


def cst_element(coords: np.ndarray, C: np.ndarray):
    """Stiffness and strain matrix of one linear (constant-strain) triangle."""
    x = coords[:, 0]
    y = coords[:, 1]
    area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]]) / (2.0 * area)
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]]) / (2.0 * area)
    B = np.zeros((3, 6))
    B[0, 0::2] = b
    B[1, 1::2] = c
    B[2, 0::2] = c
    B[2, 1::2] = b
    return area * B.T @ C @ B, B, area


def cst_solve(vertices, triangles, C, body_force, boundary_values):
    """Assemble and solve the reference constant-strain-triangle model.

    body_force(x, y) -> (2,) is lumped as area/3 per vertex from the centroid
    sample; boundary_values maps vertex -> (u, v), eliminated strongly.
    Returns the full dof vector and the per-triangle stresses.
    """
    nv = len(vertices)
    ndof = 2 * nv
    K = sp.lil_matrix((ndof, ndof))
    f = np.zeros(ndof)
    B_mats = []
    for tri in triangles:
        coords = vertices[list(tri)]
        Ke, B, area = cst_element(coords, C)
        B_mats.append(B)
        dofs = np.array([[2 * v, 2 * v + 1] for v in tri]).ravel()
        K[np.ix_(dofs, dofs)] += Ke
        cx, cy = coords.mean(axis=0)
        load = np.asarray(body_force(cx, cy), dtype=float).reshape(2)
        for v in tri:
            f[2 * v : 2 * v + 2] += load * (area / 3.0)
    K = K.tocsr()

    fixed = np.zeros(ndof, dtype=bool)
    values = np.zeros(ndof)
    for v, (uv, vv) in boundary_values.items():
        fixed[2 * v] = fixed[2 * v + 1] = True
        values[2 * v] = uv
        values[2 * v + 1] = vv
    free = ~fixed
    u = values.copy()
    rhs = f[free] - K[free][:, fixed] @ values[fixed]
    u[free] = spsolve(K[free][:, free], rhs)

    stresses = np.empty((len(triangles), 3))
    for k, tri in enumerate(triangles):
        dofs = np.array([[2 * v, 2 * v + 1] for v in tri]).ravel()
        stresses[k] = C @ (B_mats[k] @ u[dofs])
    return u, stresses


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def fd_gradient(f, x, y, h=1e-6):
    """Central-difference (df/dx, df/dy) of a vectorized scalar-stack field."""
    return (
        (np.asarray(f(x + h, y)) - np.asarray(f(x - h, y))) / (2.0 * h),
        (np.asarray(f(x, y + h)) - np.asarray(f(x, y - h))) / (2.0 * h),
    )


def fd_strain(displacement, x, y, h=1e-6):
    dx, dy = fd_gradient(displacement, x, y, h)
    return np.stack([dx[..., 0], dy[..., 1], dy[..., 0] + dx[..., 1]], axis=-1)


def fd_stress_divergence(stress, x, y, h=1e-6):
    """(d sx/dx + d t/dy, d t/dx + d sy/dy) by central differences."""
    dx, dy = fd_gradient(stress, x, y, h)
    return np.stack([dx[..., 0] + dy[..., 2], dx[..., 2] + dy[..., 1]], axis=-1)


# ---------------------------------------------------------------------------
# random geometry
# ---------------------------------------------------------------------------

def random_simple_polygon(rng, max_vertices=10):
    """Star-shaped (hence simple, ccw) polygon with random radii, often concave.

    Angular gaps are kept inside (0.05, pi - 0.1) so every chord stays within
    its own sector: that guarantees simplicity and a counterclockwise cycle.
    """
    n = int(rng.integers(3, max_vertices + 1))
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
        if gaps.min() > 0.05 and gaps.max() < np.pi - 0.1:
            break
    radii = rng.uniform(0.2, 1.0, n)
    center = rng.uniform(-2.0, 2.0, 2)
    return center + radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])


def is_simple_polygon(points) -> bool:
    """True when no two non-adjacent edges of the (n, 2) cycle properly cross (pairwise loop)."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    n = len(points)
    for i in range(n):
        p1, p2 = points[i], points[(i + 1) % n]
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            q1, q2 = points[j], points[(j + 1) % n]
            d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
            d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
            if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != d2 and d3 != d4:
                return False
    return True


def ear_clip_per_cell(points: np.ndarray) -> list[tuple[int, int, int]]:
    """Triangulate one simple ccw polygon by ear clipping; returns local index triples.

    The one-cell loop that `vemrcp.mesh.ear_clip` replaced, kept as its reference.

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


def random_points_in_cell(mesh, cell, rng, count):
    """Uniform interior samples via the cell's ear-clip triangulation."""
    coords = cell_coords(mesh, cell)
    tris = [coords[list(t)] for t in ear_clip_per_cell(coords)]
    areas = np.array([abs(shoelace(t)[0]) for t in tris])
    choice = rng.choice(len(tris), size=count, p=areas / areas.sum())
    pts = np.empty((count, 2))
    for k, t_idx in enumerate(choice):
        a, b, c = tris[t_idx]
        r1, r2 = rng.uniform(size=2)
        s = np.sqrt(r1)
        pts[k] = (1.0 - s) * a + s * (1.0 - r2) * b + s * r2 * c
    return pts


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def quadrature_rules_per_cell(mesh) -> dict:
    """Every cell's composite degree-5 rule, copied out of the stacked ear clip one cell at a time."""
    rules = {}
    for cells, idx in vertex_count_groups(mesh):
        coords = mesh.vertices[idx]
        local, emitted = ear_clip(coords, cells)
        tris = coords[np.arange(len(cells))[:, None, None], local]
        e1, e2 = tris[..., 1, :] - tris[..., 0, :], tris[..., 2, :] - tris[..., 0, :]
        area = 0.5 * np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
        pts, w = TRI7_BARY @ tris, area[..., None] * TRI7_WEIGHTS
        for ci, keep, p, wk in zip(cells.tolist(), emitted, pts, w):
            rules[ci] = p[keep].reshape(-1, 2), wk[keep].ravel()
    return rules


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def clip_to_unit_square_per_polygon(poly: np.ndarray):
    """Sutherland-Hodgman clip of one convex ccw polygon against [0,1]^2; None if nothing is left.

    The per-polygon clipper that `vemrcp.generators._clip_to_unit_square` replaced, kept as its
    reference.
    """
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


def hex_structured_per_polygon(n: int):
    """The hex-s vertices and cells built one lattice hexagon at a time (reference build)."""
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
            clipped = clip_to_unit_square_per_polygon(poly)
            if clipped is None or len(clipped) < 3:
                continue
            polygons.append(clipped)
    points, ids = _merge_points(np.concatenate(polygons))
    return points, np.split(ids, np.cumsum([len(p) for p in polygons])[:-1])


def poisson_disk_per_candidate(n: int, rng) -> np.ndarray:
    """Dart throwing one candidate at a time against a dict grid of cells of side r / sqrt(2).

    The sequential sampler that `vemrcp.generators._poisson_disk` replaced, kept as its
    reference.
    """
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


# ---------------------------------------------------------------------------
# recovery patches
# ---------------------------------------------------------------------------

def vertex_patch_per_cell(mesh, cell) -> np.ndarray:
    """Cells sharing at least one vertex with `cell`, ascending, from the vertex-to-cell map.

    The per-cell loop that `vemrcp.recovery.build_patch` replaced, kept as its reference.
    """
    around = mesh.vertex_offsets
    return np.unique(np.concatenate(
        [mesh.vertex_cell_ids[around[v]:around[v + 1]] for v in cell_ids(mesh, cell)]
    ))


def stress_modes_at(center, scale: float, points) -> np.ndarray:
    """Evaluate the 3x7 mode matrix at one point or a stack of points."""
    local = (np.asarray(points, dtype=float) - center) / scale
    return MODES[0] + local[..., 0, None, None] * MODES[1] + local[..., 1, None, None] * MODES[2]


def edge_neighbors(mesh) -> np.ndarray:
    """Per global edge id, the cell across it; -1 on the boundary or on an edge of more than two cells."""
    idx, ends = mesh.indices, mesh.edge_ends
    key = np.minimum(idx, ends) * mesh.num_vertices + np.maximum(idx, ends)
    _, edge_of, users = np.unique(key, return_inverse=True, return_counts=True)
    by_edge = np.argsort(edge_of, kind="stable")
    pair = (np.cumsum(users) - users)[users == 2]
    e0, e1 = by_edge[pair], by_edge[pair + 1]
    cell_of = np.repeat(np.arange(mesh.num_cells), np.diff(mesh.offsets))
    neighbors = np.full(len(idx), -1, dtype=np.int64)
    neighbors[e0], neighbors[e1] = cell_of[e1], cell_of[e0]
    return neighbors


def patch_edges(mesh, owner: np.ndarray, member: np.ndarray):
    """Edges of the member cells of patches given as (patch, member cell) pairs.

    Returns (patch, global edge id, outer flag) arrays, ordered by pair and
    then by local edge. An edge is outer when the cell across it is the domain
    exterior or not a member of the same patch; its outward normal (w.r.t. the
    member cell) then points out of the patch.
    """
    pair, edge = _ragged_ranges(mesh.offsets[member], np.diff(mesh.offsets)[member])
    patch, nb, nc = owner[pair], edge_neighbors(mesh)[edge], mesh.num_cells
    outer = (nb < 0) | ~np.isin(patch * nc + nb, owner * nc + member)
    return patch, edge, outer


def patch_systems_outer_edges(mesh, material, patches, displacement, body_force) -> PatchSystems:
    """The patch systems of `vemrcp.recovery.patch_systems`, with the boundary work taken
    over each patch's outer edges.

    The outer-edge pass that the per-cell work sums replaced, kept as their
    reference; frames, moments and the particular stress are built as there.
    """
    owner, member = patches
    npatch = int(owner[-1]) + 1
    area, centroid, second = mesh.areas, mesh.centroids, mesh.second_moments
    patch_area = np.bincount(owner, area[member], minlength=npatch)
    centers = _sum_by(owner, area[member, None] * centroid[member], npatch)
    centers /= patch_area[:, None]
    scales = np.sqrt(patch_area)

    s = scales[owner, None]
    phi = np.column_stack([np.ones(len(member)), (centroid[member] - centers[owner]) / s])
    cell_m = area[member, None, None] * phi[:, :, None] * phi[:, None, :]
    cell_m[:, 1:, 1:] += second[member] / (s * s)[:, :, None]
    M = _sum_by(owner, cell_m, npatch)
    Cinv = compliance_matrix(material)
    H = np.einsum("pab,abkl->pkl", M, np.einsum("aik,ij,bjl->abkl", MODES, Cinv, MODES))

    edge_owner, edge, outer = patch_edges(mesh, owner, member)
    edge_owner, outer = edge_owner[outer], edge[outer]
    ia, ib = mesh.indices[outer], mesh.edge_ends[outer]
    a = mesh.vertices[ia]
    t = mesh.vertices[ib] - a
    S = np.zeros((npatch, 3, 3))
    for gp in _GAUSS2:
        x = a + gp * t
        if callable(displacement):
            u = np.asarray(displacement(x[:, 0], x[:, 1]), dtype=float)
        else:
            uv = np.asarray(displacement, dtype=float).reshape(-1, 2)
            u = (1.0 - gp) * uv[ia] + gp * uv[ib]
        pair = 0.5 * np.column_stack(
            [t[:, 1] * u[:, 0], -t[:, 0] * u[:, 1], t[:, 1] * u[:, 1] - t[:, 0] * u[:, 0]]
        )
        local = (x - centers[edge_owner]) / scales[edge_owner, None]
        for d, factor in enumerate((1.0, local[:, 0, None], local[:, 1, None])):
            S[:, d] += _sum_by(edge_owner, factor * pair, npatch)

    loads = np.array(body_force(centers[:, 0], centers[:, 1]), dtype=float)
    V = np.zeros((npatch, 3, 3))
    V[:, 1, 0] = -loads[:, 0] * scales
    V[:, 2, 1] = -loads[:, 1] * scales
    g = np.einsum("aik,pai->pk", MODES, S - (M @ V) @ Cinv)
    return PatchSystems(centers, scales, loads, H, g)


# ---------------------------------------------------------------------------
# VEM stabilisation and assembly
# ---------------------------------------------------------------------------

def stabilization_complement_qr(pts: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """I - q q^T from one QR of the six vertex-sampled linear vector fields, (k, 2n, 2n).

    The 2n x 6 mode matrix and QR that `vemrcp.vem.linear_complement` replaced,
    kept as its reference; dofs are interleaved (u1, v1, ..., un, vn).
    """
    k, n, _ = pts.shape
    # Columns: the rigid modes (1, 0), (0, 1), (-y, x), then (x, 0), (0, y), (y, x).
    xh, yh = np.moveaxis(pts - centroid[:, None, :], -1, 0)
    one, zero = np.ones_like(xh), np.zeros_like(xh)
    L = np.stack([
        np.stack([one, zero, -yh, xh, zero, yh], axis=-1),
        np.stack([zero, one, xh, zero, yh, xh], axis=-1),
    ], axis=2).reshape(k, 2 * n, 6)
    q, _ = np.linalg.qr(L)
    return np.eye(2 * n) - q @ np.swapaxes(q, 1, 2)


def linear_complement_longdouble(pts: np.ndarray) -> np.ndarray:
    """I - P_s onto span{1, x, y} at the vertices, by Gram-Schmidt in np.longdouble, (k, n, n)."""
    k, n, _ = pts.shape
    c = pts.astype(np.longdouble)
    c = c - c.mean(axis=1, keepdims=True)
    q1 = c[..., 0] / np.sqrt((c[..., 0] ** 2).sum(axis=1, keepdims=True))
    y = c[..., 1] - (q1 * c[..., 1]).sum(axis=1, keepdims=True) * q1
    q2 = y / np.sqrt((y ** 2).sum(axis=1, keepdims=True))
    outer = q1[:, :, None] * q1[:, None, :] + q2[:, :, None] * q2[:, None, :]
    return np.eye(n, dtype=np.longdouble) - np.longdouble(1) / n - outer


def interleaved_stabilization(S: np.ndarray) -> np.ndarray:
    """S (x) I_2 of one cell's (n, n) or a stack's (k, n, n) S, in interleaved dof order."""
    return np.kron(S, np.eye(2))


def assemble_triplets(mesh, material) -> sp.csr_matrix:
    """Global stiffness summed from dof-level (row, col, value) triplets through a COO matrix.

    The assembly that `vemrcp.vem.assemble_global` replaced with 2 x 2 vertex
    blocks, kept as its reference.
    """
    ndof = 2 * mesh.num_vertices
    C = elastic_matrix(material)
    rows, cols, vals = [], [], []
    for cells, idx in vertex_count_groups(mesh):
        Kc, S = element_matrices(mesh.vertices[idx], mesh.areas[cells], cells, C)
        dofs = np.stack([2 * idx, 2 * idx + 1], axis=-1).reshape(len(cells), -1)
        m = dofs.shape[1]
        rows.append(np.repeat(dofs, m, axis=1).ravel())
        cols.append(np.tile(dofs, m).ravel())
        vals.append((Kc + interleaved_stabilization(S)).ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ndof, ndof),
    ).tocsr()
