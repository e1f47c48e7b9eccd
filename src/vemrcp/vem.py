"""First-order virtual element operators for plane elasticity.

Element displacements live at the vertices in interleaved (u1, v1, ..., un, vn)
order. The strain projector maps those degrees of freedom to the constant
strain (eps_x, eps_y, gamma_xy); only the piecewise-linear boundary trace of
the displacement enters its construction, so no interior shape functions are
ever evaluated. The Gram matrix of the constant-strain basis is G = |E| I,
so the projector is Pi_m = B / |E|.

Every kernel works on all cells of one vertex count n at once: cells are
grouped by n (`vertex_count_groups`) and a group of k cells is a stack of
(k, n, 2) vertex coordinates, (k, 3, 2n) projectors and (k, 2n, 2n)
stiffness matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .material import LameMaterial, elastic_matrix
from .mesh import MeshError, PolygonalMesh, shoelace, vertex_count_groups


class SolveError(Exception):
    """Linear solver failed to reach the required residual."""


class ElementMatrices(NamedTuple):
    """Geometry and matrices of a group of k cells with n vertices each."""

    area: np.ndarray                  # (k,)
    centroid: np.ndarray              # (k, 2)
    Pi_m: np.ndarray                  # (k, 3, 2n) strain projector
    Kc: np.ndarray                    # (k, 2n, 2n) consistency stiffness
    Ks: np.ndarray                    # (k, 2n, 2n) stabilization stiffness


def compute_B(pts: np.ndarray) -> np.ndarray:
    """Boundary pairing of constant strains with the linear displacement trace.

    `pts` holds the vertex cycles of k cells as (k, n, 2); the result is
    (k, 3, 2n). Each edge contributes half its scaled outward normal to both
    endpoint vertices; the result is exact because the trace is linear per
    edge. For a dof vector sampled from displacement u this realizes the
    divergence theorem: B @ v = integral over the cell of the symmetric
    gradient of u whenever u is linear.
    """
    k, n, _ = pts.shape
    tang = np.roll(pts, -1, axis=1) - pts
    scaled_normals = np.stack([tang[..., 1], -tang[..., 0]], axis=-1)  # |e| * outward unit
    w = 0.5 * (scaled_normals + np.roll(scaled_normals, 1, axis=1))
    B = np.zeros((k, 3, 2 * n))
    B[:, 0, 0::2] = w[..., 0]
    B[:, 1, 1::2] = w[..., 1]
    B[:, 2, 0::2] = w[..., 1]
    B[:, 2, 1::2] = w[..., 0]
    return B


def element_matrices(
    pts: np.ndarray, cells, C: np.ndarray, stabilization_scale: float = 1.0
) -> ElementMatrices:
    """Projector and stiffness of k cells with n vertices each, `pts` (k, n, 2).

    Kc = |E| Pi_m^T C Pi_m carries the constant-strain energy exactly. Ks
    projects dof space onto the span of the six vertex-sampled rigid and
    linear vector fields and penalizes the orthogonal complement with half the
    trace of Kc; it vanishes on linear fields, and on triangles, which have no
    complement. `cells` names the cells in the rank-check error.
    """
    k, n, _ = pts.shape
    area, centroid = shoelace(pts)
    Pi_m = compute_B(pts) / area[:, None, None]
    Kc = area[:, None, None] * np.swapaxes(Pi_m, 1, 2) @ C @ Pi_m
    # Columns: the rigid modes (1, 0), (0, 1), (-y, x), then (x, 0), (0, y), (y, x).
    xh, yh = np.moveaxis(pts - centroid[:, None, :], -1, 0)
    one, zero = np.ones_like(xh), np.zeros_like(xh)
    L = np.stack([
        np.stack([one, zero, -yh, xh, zero, yh], axis=-1),
        np.stack([zero, one, xh, zero, yh, xh], axis=-1),
    ], axis=2).reshape(k, 2 * n, 6)
    q, r = np.linalg.qr(L)
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    deficient = diag.min(axis=1) <= 1e-12 * diag.max(axis=1)
    if deficient.any():
        cell = np.asarray(cells)[np.argmax(deficient)]
        raise MeshError(f"cell {cell}: degenerate geometry, linear modes are rank deficient")
    tau = 0.5 * np.trace(Kc, axis1=1, axis2=2) * stabilization_scale
    Ks = tau[:, None, None] * (np.eye(2 * n) - q @ np.swapaxes(q, 1, 2))
    return ElementMatrices(area, centroid, Pi_m, Kc, Ks)


@dataclass
class GlobalSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    groups: list = field(repr=False)  # (cell ids (k,), dofs (k, 2n), Pi_m (k, 3, 2n)) per n

    @property
    def ndof(self) -> int:
        return self.matrix.shape[0]


@dataclass
class ConstrainedSystem:
    matrix: sp.csr_matrix        # restricted to the free dofs
    rhs: np.ndarray
    free: np.ndarray             # free dof indices
    fixed: np.ndarray            # constrained dof indices
    fixed_values: np.ndarray
    ndof: int


def assemble_global(
    mesh: PolygonalMesh,
    material: LameMaterial,
    body_force=None,
    stabilization_scale: float = 1.0,
) -> GlobalSystem:
    """Assemble stiffness and load one vertex-count group at a time.

    `body_force` is None or a vectorized callable b(x, y) -> (m, 2); a
    constant (2,) result is broadcast. It is called once, at all cell
    centroids, and each cell's b |E| is spread evenly over its vertices. The
    projectors are kept on the system for the stress evaluation.
    """
    ndof = 2 * mesh.num_vertices
    C = elastic_matrix(material)
    rows, cols, vals, groups = [], [], [], []
    for cells, idx in vertex_count_groups(mesh):
        ops = element_matrices(mesh.vertices[idx], cells, C, stabilization_scale)
        dofs = np.stack([2 * idx, 2 * idx + 1], axis=-1).reshape(len(cells), -1)
        m = dofs.shape[1]
        rows.append(np.repeat(dofs, m, axis=1).ravel())
        cols.append(np.tile(dofs, m).ravel())
        vals.append((ops.Kc + ops.Ks).ravel())
        groups.append((cells, dofs, ops.Pi_m))
    K = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ndof, ndof),
    ).tocsr()
    f = np.zeros(ndof)
    if body_force is not None:
        centroid = mesh.centroids
        b = np.asarray(body_force(centroid[:, 0], centroid[:, 1]), dtype=float)
        b = np.broadcast_to(b, (mesh.num_cells, 2))
        for cells, dofs, _ in groups:
            n = dofs.shape[1] // 2
            np.add.at(f, dofs, np.tile(b[cells] * (mesh.areas[cells, None] / n), n))
    return GlobalSystem(matrix=K, rhs=f, groups=groups)


def apply_dirichlet(system: GlobalSystem, vertices, values) -> ConstrainedSystem:
    """Eliminate prescribed vertex displacements from the assembled system.

    `vertices` is an index array and `values` the (m, 2) prescribed (u, v)
    of each. The right-hand side of the remaining free block absorbs the
    coupling term.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if len(vertices) == 0:
        raise ValueError("empty Dirichlet set leaves the rigid modes unconstrained")
    ndof = system.ndof
    dofs = np.stack([2 * vertices, 2 * vertices + 1], axis=-1)
    fixed_mask = np.zeros(ndof, dtype=bool)
    fixed_mask[dofs] = True
    prescribed = np.zeros(ndof)
    prescribed[dofs] = values
    fixed = np.nonzero(fixed_mask)[0]
    free = np.nonzero(~fixed_mask)[0]
    K = system.matrix
    rhs = system.rhs[free] - K[free][:, fixed] @ prescribed[fixed]
    return ConstrainedSystem(
        matrix=K[free][:, free].tocsr(),
        rhs=rhs,
        free=free,
        fixed=fixed,
        fixed_values=prescribed[fixed],
        ndof=ndof,
    )


def solve_system(constrained: ConstrainedSystem) -> np.ndarray:
    """Direct sparse solve of the free block; returns the full dof vector."""
    u = np.zeros(constrained.ndof)
    u[constrained.fixed] = constrained.fixed_values
    if len(constrained.free) == 0:
        return u
    x = spsolve(constrained.matrix, constrained.rhs, permc_spec="MMD_AT_PLUS_A")
    residual = np.linalg.norm(constrained.matrix @ x - constrained.rhs)
    denom = np.linalg.norm(constrained.rhs)
    rel = residual / denom if denom > 0.0 else residual
    if not np.isfinite(rel) or rel > 1e-10:
        raise SolveError(f"solver residual {rel:.3e} exceeds 1e-10")
    u[constrained.free] = x
    return u


def element_stresses(mesh: PolygonalMesh, system: GlobalSystem, material: LameMaterial,
                     u: np.ndarray) -> np.ndarray:
    """Constant stress C Pi_m u of every cell as an (ncells, 3) array."""
    C = elastic_matrix(material)
    out = np.empty((mesh.num_cells, 3))
    for cells, dofs, Pi_m in system.groups:
        out[cells] = np.einsum("ij,kjd,kd->ki", C, Pi_m, u[dofs])
    return out


def solve_dirichlet_problem(
    mesh: PolygonalMesh,
    material: LameMaterial,
    body_force,
    boundary_displacement,
    stabilization_scale: float = 1.0,
) -> tuple[np.ndarray, GlobalSystem]:
    """Assemble, constrain every boundary vertex, and solve.

    body_force is None or a vectorized callable b(x, y) -> (m, 2), called once
    at all cell centroids (see `assemble_global`). boundary_displacement is a
    vectorized callable u(x, y) -> (m, 2) too, called once at all boundary
    vertices.
    """
    system = assemble_global(mesh, material, body_force, stabilization_scale)
    boundary = mesh.boundary_vertices()
    x, y = mesh.vertices[boundary].T
    values = np.asarray(boundary_displacement(x, y), dtype=float).reshape(-1, 2)
    constrained = apply_dirichlet(system, boundary, values)
    return solve_system(constrained), system
