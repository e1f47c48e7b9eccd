"""First-order virtual element operators for plane elasticity.

Element displacements live at the vertices in interleaved (u1, v1, ..., un, vn)
order. The strain projector maps those degrees of freedom to the constant
strain (eps_x, eps_y, gamma_xy); only the piecewise-linear boundary trace of
the displacement enters its construction, so no interior shape functions are
ever evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .material import LameMaterial, elastic_matrix
from .mesh import MeshError, PolygonalMesh, centroid_of, signed_area

_RIGID_AND_LINEAR = (
    lambda x, y: (1.0, 0.0),
    lambda x, y: (0.0, 1.0),
    lambda x, y: (-y, x),
    lambda x, y: (x, 0.0),
    lambda x, y: (0.0, y),
    lambda x, y: (y, x),
)


class SolveError(Exception):
    """Linear solver failed to reach the required residual."""


@dataclass
class ElementOperators:
    """Per-cell matrices of the first-order scheme."""

    cell: int
    n: int
    G: np.ndarray
    B: np.ndarray
    Pi_m: np.ndarray
    Kc: np.ndarray
    Ks: np.ndarray
    K: np.ndarray


def compute_G(mesh: PolygonalMesh, cell: int) -> np.ndarray:
    """Gram matrix of the constant-strain basis: |E| times the identity."""
    return signed_area(mesh.cell_coords(cell)) * np.eye(3)


def compute_B(mesh: PolygonalMesh, cell: int) -> np.ndarray:
    """Boundary pairing of constant strains with the linear displacement trace.

    Each edge contributes half its scaled outward normal to both endpoint
    vertices; the result is exact because the trace is linear per edge. For a
    dof vector sampled from displacement u this realizes the divergence
    theorem: B @ v = integral over the cell of the symmetric gradient of u
    whenever u is linear.
    """
    pts = mesh.cell_coords(cell)
    n = len(pts)
    tang = np.roll(pts, -1, axis=0) - pts
    scaled_normals = np.column_stack([tang[:, 1], -tang[:, 0]])  # |e| * outward unit
    w = 0.5 * (scaled_normals + np.roll(scaled_normals, 1, axis=0))
    B = np.zeros((3, 2 * n))
    B[0, 0::2] = w[:, 0]
    B[1, 1::2] = w[:, 1]
    B[2, 0::2] = w[:, 1]
    B[2, 1::2] = w[:, 0]
    return B


def compute_Pi_m(G: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Strain projector: solve G X = B column-wise."""
    try:
        return np.linalg.solve(G, B)
    except np.linalg.LinAlgError as exc:
        raise MeshError("singular strain Gram matrix (degenerate cell)") from exc


def consistency_stiffness(Pi_m: np.ndarray, C: np.ndarray, area: float) -> np.ndarray:
    """Rank-3 stiffness carrying the constant-strain energy exactly."""
    return area * Pi_m.T @ C @ Pi_m


def stabilization_stiffness(
    mesh: PolygonalMesh, cell: int, Kc: np.ndarray, scale: float = 1.0
) -> np.ndarray:
    """Complementary stiffness vanishing on linear displacement fields.

    Projects dof space onto the span of the six vertex-sampled linear vector
    fields and penalizes the orthogonal complement with half the trace of the
    consistency stiffness. Triangles have no complement, so their term is
    numerically zero.
    """
    pts = mesh.cell_coords(cell)
    n = len(pts)
    center = centroid_of(pts)
    xh = pts[:, 0] - center[0]
    yh = pts[:, 1] - center[1]
    L = np.zeros((2 * n, 6))
    for col, mode in enumerate(_RIGID_AND_LINEAR):
        ux, uy = mode(xh, yh)
        L[0::2, col] = ux
        L[1::2, col] = uy
    q, r = np.linalg.qr(L)
    if np.abs(np.diag(r)).min() <= 1e-12 * np.abs(np.diag(r)).max():
        raise MeshError(f"cell {cell}: degenerate geometry, linear modes are rank deficient")
    tau = 0.5 * np.trace(Kc) * scale
    return tau * (np.eye(2 * n) - q @ q.T)


def element_operators(
    mesh: PolygonalMesh,
    cell: int,
    material: LameMaterial,
    stabilization_scale: float = 1.0,
) -> ElementOperators:
    area = signed_area(mesh.cell_coords(cell))
    G = compute_G(mesh, cell)
    B = compute_B(mesh, cell)
    Pi_m = compute_Pi_m(G, B)
    C = elastic_matrix(material)
    Kc = consistency_stiffness(Pi_m, C, area)
    Ks = stabilization_stiffness(mesh, cell, Kc, stabilization_scale)
    return ElementOperators(
        cell=cell, n=len(mesh.cells[cell]), G=G, B=B, Pi_m=Pi_m, Kc=Kc, Ks=Ks, K=Kc + Ks
    )


def element_load_vector(mesh: PolygonalMesh, cell: int, body_force) -> np.ndarray:
    """Centroid-sampled body force, spread evenly over the vertex dofs."""
    n = len(mesh.cells[cell])
    if body_force is None:
        return np.zeros(2 * n)
    pts = mesh.cell_coords(cell)
    area = signed_area(pts)
    cx, cy = centroid_of(pts)
    b = np.asarray(body_force(cx, cy), dtype=float).reshape(2)
    return np.tile(b * (area / n), n)


def cell_dofs(mesh: PolygonalMesh, cell: int) -> np.ndarray:
    verts = mesh.cells[cell]
    dofs = np.empty(2 * len(verts), dtype=np.int64)
    dofs[0::2] = 2 * verts
    dofs[1::2] = 2 * verts + 1
    return dofs


@dataclass
class GlobalSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    element_ops: list = field(repr=False)

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
    """Scatter element stiffness and load contributions in cell order.

    The element operators are kept on the system for the stress evaluation.
    """
    ndof = 2 * mesh.num_vertices
    rows, cols, vals = [], [], []
    f = np.zeros(ndof)
    ops_list = []
    for ci in range(mesh.num_cells):
        ops = element_operators(mesh, ci, material, stabilization_scale)
        dofs = cell_dofs(mesh, ci)
        m = len(dofs)
        rows.append(np.repeat(dofs, m))
        cols.append(np.tile(dofs, m))
        vals.append(ops.K.ravel())
        f[dofs] += element_load_vector(mesh, ci, body_force)
        ops_list.append(ops)
    K = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ndof, ndof),
    ).tocsr()
    return GlobalSystem(matrix=K, rhs=f, element_ops=ops_list)


def apply_dirichlet(system: GlobalSystem, boundary_values: dict) -> ConstrainedSystem:
    """Eliminate prescribed vertex displacements from the assembled system.

    boundary_values maps vertex index -> (u, v). The right-hand side of the
    remaining free block absorbs the coupling term.
    """
    if not boundary_values:
        raise ValueError("empty Dirichlet set leaves the rigid modes unconstrained")
    ndof = system.ndof
    fixed_mask = np.zeros(ndof, dtype=bool)
    values = np.zeros(ndof)
    for v, (u_val, v_val) in boundary_values.items():
        fixed_mask[2 * v] = fixed_mask[2 * v + 1] = True
        values[2 * v] = u_val
        values[2 * v + 1] = v_val
    fixed = np.nonzero(fixed_mask)[0]
    free = np.nonzero(~fixed_mask)[0]
    K = system.matrix
    rhs = system.rhs[free] - K[free][:, fixed] @ values[fixed]
    return ConstrainedSystem(
        matrix=K[free][:, free].tocsr(),
        rhs=rhs,
        free=free,
        fixed=fixed,
        fixed_values=values[fixed],
        ndof=ndof,
    )


def solve_system(constrained: ConstrainedSystem) -> np.ndarray:
    """Direct sparse solve of the free block; returns the full dof vector."""
    u = np.zeros(constrained.ndof)
    u[constrained.fixed] = constrained.fixed_values
    if len(constrained.free) == 0:
        return u
    x = spsolve(constrained.matrix, constrained.rhs)
    residual = np.linalg.norm(constrained.matrix @ x - constrained.rhs)
    denom = np.linalg.norm(constrained.rhs)
    rel = residual / denom if denom > 0.0 else residual
    if not np.isfinite(rel) or rel > 1e-10:
        raise SolveError(f"solver residual {rel:.3e} exceeds 1e-10")
    u[constrained.free] = x
    return u


def element_stress_vem(Pi_m: np.ndarray, C: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Constant element stress from the projected strain."""
    return C @ (Pi_m @ v)


def element_stresses(mesh: PolygonalMesh, system: GlobalSystem, material: LameMaterial,
                     u: np.ndarray) -> np.ndarray:
    """Stress of every cell as an (ncells, 3) array."""
    C = elastic_matrix(material)
    out = np.empty((mesh.num_cells, 3))
    for ci, ops in enumerate(system.element_ops):
        out[ci] = element_stress_vem(ops.Pi_m, C, u[cell_dofs(mesh, ci)])
    return out


def solve_dirichlet_problem(
    mesh: PolygonalMesh,
    material: LameMaterial,
    body_force,
    boundary_displacement,
    stabilization_scale: float = 1.0,
) -> tuple[np.ndarray, GlobalSystem]:
    """Assemble, constrain every boundary vertex, and solve.

    boundary_displacement(x, y) must return the prescribed (u, v) pair; it is
    evaluated at each boundary vertex.
    """
    system = assemble_global(mesh, material, body_force, stabilization_scale)
    values = {}
    for v in mesh.boundary_vertices():
        x, y = mesh.vertices[v]
        values[int(v)] = np.asarray(boundary_displacement(x, y), dtype=float).reshape(2)
    constrained = apply_dirichlet(system, values)
    return solve_system(constrained), system
