"""First-order virtual element operators for plane elasticity.

Element displacements live at the vertices in interleaved (u1, v1, ..., un, vn)
order. The strain projector maps those degrees of freedom to the constant
strain (eps_x, eps_y, gamma_xy); only the piecewise-linear boundary trace of
the displacement enters its construction, so no interior shape functions are
ever evaluated. The Gram matrix of the constant-strain basis is G = |E| I,
so the projector is Pi_m = B / |E|.

Every kernel works on all cells of one vertex count n at once: cells are
grouped by n (`vertex_count_groups`) and a group of k cells is a stack of
(k, n, 2) vertex coordinates, (k, 3, 2n) projectors, (k, 2n, 2n) consistency
stiffnesses and (k, n, n) per-component stabilizations. The global stiffness
is summed in 2 x 2 blocks, one per vertex pair of a cell, then expanded to CSR.

The layer hands on plain arrays: `element_matrices` returns (Kc, S) and
`assemble_global` (K, f). A body force is always a vectorized callable
b(x, y) -> (m, 2), `cases.zero_body_force` when there is none. The
displacement is all the solve hands on: the element stress C Pi_m u is
computed from the mesh, the material and u alone, and the Dirichlet data
travels as one full-length `prescribed` vector that is zero at the free dofs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .cases import zero_body_force
from .material import LameMaterial, elastic_matrix
from .mesh import MeshError, PolygonalMesh, vertex_count_groups


class SolveError(Exception):
    """Linear solver failed to reach the required residual."""


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


def linear_complement(pts: np.ndarray, cells) -> np.ndarray:
    """I - P_s for k cells with n vertices each, `pts` (k, n, 2); the result is (k, n, n).

    P_s is the orthogonal projector onto span{1, x, y} sampled at the vertices.
    The vertices are centred on their mean twice (the second pass removes the
    rounding left in the first mean), so 1/sqrt(n), q1 = x / r1 and q2, the
    part of y orthogonal to q1 scaled by its norm r2, form an orthonormal
    basis. A cell is rank deficient when min(r1, r2) is at most 1e-12 times
    max(r1, r2), or either is not finite; both are lengths, so the test does
    not depend on the mesh's scale. `cells` names the cells in that error.
    """
    n = pts.shape[1]
    # Non-finite or collinear vertices give a NaN or zero in r1 or r2, checked below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x, y = (v - v.mean(axis=1, keepdims=True) for v in np.moveaxis(pts, -1, 0))
        x, y = (v - v.mean(axis=1, keepdims=True) for v in (x, y))
        r1 = np.sqrt(np.einsum("ki,ki->k", x, x))
        q1 = x / r1[:, None]
        y -= np.einsum("ki,ki->k", q1, y)[:, None] * q1
        r2 = np.sqrt(np.einsum("ki,ki->k", y, y))
        q2 = y / r2[:, None]
    # The comparison is False whenever r1 or r2 is NaN or infinite.
    deficient = ~(np.minimum(r1, r2) > 1e-12 * np.maximum(r1, r2))
    if deficient.any():
        cell = np.asarray(cells)[np.argmax(deficient)]
        raise MeshError(f"cell {cell}: degenerate geometry, linear modes are rank deficient")
    out = np.eye(n) - 1.0 / n - q1[:, :, None] * q1[:, None, :]
    out -= q2[:, :, None] * q2[:, None, :]
    return out


def element_matrices(
    pts: np.ndarray, area: np.ndarray, cells, C: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stiffness (Kc, S) of k cells with n vertices each, `pts` (k, n, 2).

    `area` (k,) is the mesh's stored cell area. The consistency stiffness
    Kc = |E| Pi_m^T C Pi_m, (k, 2n, 2n), carries the constant-strain energy
    exactly. The six vertex-sampled linear vector fields are span{1, x, y} in
    each displacement component, so the stabilization S = tau (I - P_s),
    (k, n, n), acts on each one alone, with P_s the projector of
    `linear_complement` and tau half the trace of Kc.
    `assemble_global` adds S (x) I_2 to Kc: S on the diagonal of each 2 x 2
    vertex block. S vanishes on 1, x and y, and on triangles, which have no
    complement. `cells` names the cells in the rank-check error.
    """
    Pi_m = compute_B(pts) / area[:, None, None]
    Kc = area[:, None, None] * np.swapaxes(Pi_m, 1, 2) @ C @ Pi_m
    tau = 0.5 * np.trace(Kc, axis1=1, axis2=2)
    return Kc, tau[:, None, None] * linear_complement(pts, cells)


@dataclass
class ConstrainedSystem:
    matrix: sp.csr_matrix        # restricted to the free dofs
    rhs: np.ndarray
    free: np.ndarray             # free dof indices
    prescribed: np.ndarray       # (ndof,) Dirichlet values, zero at the free dofs


def assemble_global(
    mesh: PolygonalMesh, material: LameMaterial, body_force=zero_body_force
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Assemble the stiffness K (CSR) and load f, one vertex-count group at a time.

    Each vertex pair (i, j) of a cell adds its 2 x 2 block of Kc + S (x) I_2
    under the key i * nv + j. One sort of the keys gives the block pattern, one
    bincount per block entry sums the blocks, and the block matrix is
    expanded to the canonical ndof x ndof CSR; vertices in no cell keep
    empty rows.

    `body_force` is a vectorized callable b(x, y) -> (m, 2). It is called
    once, at all cell centroids, and each cell's b |E| is spread evenly over
    its vertices. Any other result shape raises ValueError: a constant (2,)
    would otherwise be indexed as if it held one value per cell.
    """
    nv = mesh.num_vertices
    ndof = 2 * nv
    C = elastic_matrix(material)
    f = np.zeros(ndof)
    b = np.asarray(body_force(*mesh.centroids.T), dtype=float)
    if b.shape != (mesh.num_cells, 2):
        raise ValueError(f"body force gave shape {b.shape} at {mesh.num_cells} centroids")
    keys, blocks = [], []
    for cells, idx in vertex_count_groups(mesh):
        k, n = idx.shape
        np.add.at(f.reshape(nv, 2), idx, (b[cells] * (mesh.areas[cells, None] / n))[:, None])
        Kc, S = element_matrices(mesh.vertices[idx], mesh.areas[cells], cells, C)
        Kc[:, 0::2, 0::2] += S
        Kc[:, 1::2, 1::2] += S
        del S                         # only Kc is held while it is reordered
        # Row 2a + b holds entry (a, b) of the 2 x 2 block of each vertex pair (i, j) of a cell.
        blocks.append(Kc.reshape(k, n, 2, n, 2).transpose(2, 4, 0, 1, 3).reshape(4, -1))
        keys.append((idx[:, :, None] * nv + idx[:, None, :]).ravel())
    del Kc                            # the last group's, before the sort
    pattern, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    blocks = np.concatenate(blocks, axis=1)   # frees the per-group list before the sums
    blocks = np.stack([np.bincount(inverse, row, len(pattern)) for row in blocks], axis=-1)
    indptr = np.searchsorted(pattern, nv * np.arange(nv + 1))
    K = sp.bsr_matrix((blocks.reshape(-1, 2, 2), pattern % nv, indptr), shape=(ndof, ndof)).tocsr()
    return K, f


def apply_dirichlet(K: sp.csr_matrix, f: np.ndarray, vertices, values) -> ConstrainedSystem:
    """Eliminate prescribed vertex displacements from the assembled system K u = f.

    `vertices` is an index array and `values` the (m, 2) prescribed (u, v)
    of each. The right-hand side of the remaining free block absorbs the
    coupling term K[free] @ prescribed.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if len(vertices) == 0:
        raise ValueError("empty Dirichlet set leaves the rigid modes unconstrained")
    ndof = len(f)
    dofs = np.stack([2 * vertices, 2 * vertices + 1], axis=-1)
    fixed_mask = np.zeros(ndof, dtype=bool)
    fixed_mask[dofs] = True
    prescribed = np.zeros(ndof)
    prescribed[dofs] = values
    free = np.nonzero(~fixed_mask)[0]
    free_rows = K[free]
    return ConstrainedSystem(
        matrix=free_rows[:, free].tocsr(),
        rhs=f[free] - free_rows @ prescribed,
        free=free,
        prescribed=prescribed,
    )


def solve_system(constrained: ConstrainedSystem) -> np.ndarray:
    """Direct sparse solve of the free block; returns a copy of `prescribed` with it filled in."""
    u = constrained.prescribed.copy()
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


def element_stresses(mesh: PolygonalMesh, material: LameMaterial, u: np.ndarray) -> np.ndarray:
    """Constant stress C Pi_m u of every cell as an (ncells, 3) array; Pi_m = B / |E|."""
    C = elastic_matrix(material)
    uv = u.reshape(-1, 2)
    out = np.empty((mesh.num_cells, 3))
    for cells, idx in vertex_count_groups(mesh):
        Pi_m = compute_B(mesh.vertices[idx]) / mesh.areas[cells, None, None]
        out[cells] = np.einsum("ij,kjd,kd->ki", C, Pi_m, uv[idx].reshape(len(cells), -1))
    return out


def solve_dirichlet_problem(
    mesh: PolygonalMesh,
    material: LameMaterial,
    body_force,
    boundary_displacement,
) -> np.ndarray:
    """Assemble, constrain every boundary vertex, and solve.

    body_force is a vectorized callable b(x, y) -> (m, 2), called once at all
    cell centroids (see `assemble_global`). boundary_displacement is a
    vectorized callable u(x, y) -> (m, 2) too, called once at all boundary
    vertices. K and f go straight into `apply_dirichlet`, so the full
    stiffness is released before the factorisation.
    """
    boundary = mesh.boundary_vertices()
    x, y = mesh.vertices[boundary].T
    values = np.asarray(boundary_displacement(x, y), dtype=float).reshape(-1, 2)
    constrained = apply_dirichlet(*assemble_global(mesh, material, body_force), boundary, values)
    return solve_system(constrained)
