"""Independent reference implementations and helpers used only by the tests.

The linear-triangle FEM here is written from the classical B-matrix formulas,
deliberately sharing no code with the package's element routines.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from vemrcp.mesh import MeshError, shoelace


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
        if body_force is not None:
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
    coords = mesh.cell_coords(cell)
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
