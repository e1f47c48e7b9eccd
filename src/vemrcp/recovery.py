"""Equilibrated stress recovery by patch-wise complementary energy minimization.

On each patch the recovered stress is a linear combination of seven
self-equilibrated modes (three constants plus four divergence-free linear
fields) added to a particular stress that balances the body force sampled at
the patch centre. The mode coefficients minimize the patch complementary
energy, in which the computed displacement enters only through its trace on
the outer patch boundary: exactly the data a virtual element solution
provides.

Modes are expressed in patch-local coordinates (xi, eta), shifted to the
area-weighted patch centroid and scaled by the diagonal of the patch's
bounding box, to keep the 7x7 systems uniformly conditioned. There the mode matrix is
P = MODES[0] + xi MODES[1] + eta MODES[2], so the moments of (1, xi, eta)
over a patch, summed from per-cell area, centroid and central second moments
by the parallel-axis identity, give the compliance matrix H and the
particular-stress work exactly. The boundary work uses two Gauss points per
outer edge, and all patches of a mesh are solved as one stack.

The recovered field of a cell always comes from the patch centered on it:
"rcp0" uses the degenerate single-cell patch, "rcp1" the vertex-neighbor
patch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .material import LameMaterial, compliance_matrix
from .mesh import PatchKind, PolygonalMesh, build_patch
from .quadrature import cell_quadrature

logger = logging.getLogger(__name__)

_GAUSS2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))

RECOVERY_KINDS = ("rcp0", "rcp1")

# Coefficients of 1, xi and eta in the 3x7 mode matrix (rows sx, sy, sxy):
# modes 3-6 are (eta, 0, 0), (0, xi, 0), (xi, 0, -eta) and (0, eta, -xi).
MODES = np.zeros((3, 3, 7))
MODES[0, :, :3] = np.eye(3)
MODES[1, [1, 0, 2], [4, 5, 6]] = (1.0, 1.0, -1.0)
MODES[2, [0, 2, 1], [3, 5, 6]] = (1.0, -1.0, 1.0)


class RecoveryConditioningError(Exception):
    """A patch system was too ill-conditioned to trust."""


@dataclass
class RecoveredStressField:
    """Recovered stress of every cell: modes of its patch plus the particular stress."""

    mesh: PolygonalMesh
    kind: str
    centers: np.ndarray               # (ncells, 2) patch centre, also the load sample point
    scales: np.ndarray                # (ncells,) patch bounding-box diagonal
    betas: np.ndarray                 # (ncells, 7) mode coefficients
    loads: np.ndarray                 # (ncells, 2) body force sampled at the centre
    fallback_cells: tuple = ()


class PatchSystems(NamedTuple):
    """The 7x7 systems H beta = g of a list of patches, with their frames."""

    centers: np.ndarray               # (npatch, 2)
    scales: np.ndarray                # (npatch,)
    loads: np.ndarray                 # (npatch, 2)
    H: np.ndarray                     # (npatch, 7, 7)
    g: np.ndarray                     # (npatch, 7)


def stress_modes_at(center, scale: float, points) -> np.ndarray:
    """Evaluate the 3x7 mode matrix at one point or a stack of points."""
    local = (np.asarray(points, dtype=float) - center) / scale
    return MODES[0] + local[..., 0, None, None] * MODES[1] + local[..., 1, None, None] * MODES[2]


def _sum_by(owner: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of `values` that share an `owner` index in [0, n)."""
    flat = values.reshape(len(owner), -1)
    sums = [np.bincount(owner, col, minlength=n) for col in flat.T]
    return np.stack(sums, axis=-1).reshape((n,) + values.shape[1:])


def _cell_moments(mesh: PolygonalMesh):
    """Area, centroid and central second moments (2x2) of every cell, exact by the cell rule."""
    nc = mesh.num_cells
    rules = [cell_quadrature(mesh, ci) for ci in range(nc)]
    cell = np.repeat(np.arange(nc), [len(w) for _, w in rules])
    pts = np.concatenate([p for p, _ in rules])
    w = np.concatenate([w for _, w in rules])
    area = np.bincount(cell, w, minlength=nc)
    centroid = _sum_by(cell, w[:, None] * pts, nc) / area[:, None]
    d = pts - centroid[cell]
    second = _sum_by(cell, w[:, None, None] * d[:, :, None] * d[:, None, :], nc)
    return area, centroid, second


def patch_edges(mesh: PolygonalMesh, owner: np.ndarray, member: np.ndarray):
    """Edges of the member cells of patches given as (patch, member cell) pairs.

    Returns (patch, global edge id, outer flag) arrays (see
    `PolygonalMesh.edge_neighbors`), ordered by pair and then by local edge.
    An edge is outer when the cell across it is the domain exterior or not a
    member of the same patch; its outward normal (w.r.t. the member cell)
    then points out of the patch.
    """
    first = mesh.offsets[member]                   # global id of each member's local edge 0
    n = mesh.offsets[member + 1] - first
    pair = np.repeat(np.arange(len(member)), n)
    edge = first[pair] + np.arange(n.sum()) - (np.cumsum(n) - n)[pair]
    patch, nb, nc = owner[pair], mesh.edge_neighbors[edge], mesh.num_cells
    outer = (nb < 0) | ~np.isin(patch * nc + nb, owner * nc + member)
    return patch, edge, outer


def patch_systems(
    mesh: PolygonalMesh,
    material: LameMaterial,
    patches: list,
    displacement,
    body_force,
) -> PatchSystems:
    """Assemble the complementary-energy system of every patch in `patches`.

    `displacement` is either the global dof vector (its trace is interpolated
    linearly per edge) or a callable u(x, y) -> (m, 2) evaluated at the Gauss
    points. `body_force` is None or a vectorized callable b(x, y) -> (m, 2).
    """
    npatch = len(patches)
    area, centroid, second = _cell_moments(mesh)
    owner = np.repeat(np.arange(npatch), [len(p.member_cells) for p in patches])
    member = np.concatenate([p.member_cells for p in patches])

    # The edges of a patch are contiguous; their start vertices are its member vertices.
    edge_owner, edge, outer = patch_edges(mesh, owner, member)
    pts = mesh.vertices[mesh.indices[edge]]
    start = np.searchsorted(edge_owner, np.arange(npatch))
    box = np.maximum.reduceat(pts, start) - np.minimum.reduceat(pts, start)
    scales = np.hypot(box[:, 0], box[:, 1])
    centers = _sum_by(owner, area[member, None] * centroid[member], npatch)
    centers /= np.bincount(owner, area[member], minlength=npatch)[:, None]

    # Moments of (1, xi, eta) by the parallel-axis identity.
    s = scales[owner, None]
    phi = np.column_stack([np.ones(len(member)), (centroid[member] - centers[owner]) / s])
    cell_m = area[member, None, None] * phi[:, :, None] * phi[:, None, :]
    cell_m[:, 1:, 1:] += second[member] / (s * s)[:, :, None]
    M = _sum_by(owner, cell_m, npatch)

    Cinv = compliance_matrix(material)
    H = np.einsum("pab,abkl->pkl", M, np.einsum("aik,ij,bjl->abkl", MODES, Cinv, MODES))

    # Work of each mode's traction on the displacement trace: S[p, a] sums
    # phi_a * (weight * traction pair) over the Gauss points of the outer edges.
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
        # Gauss weight |e|/2 times the unit outer normal is (t_y, -t_x) / 2.
        pair = 0.5 * np.column_stack(
            [t[:, 1] * u[:, 0], -t[:, 0] * u[:, 1], t[:, 1] * u[:, 1] - t[:, 0] * u[:, 0]]
        )
        local = (x - centers[edge_owner]) / scales[edge_owner, None]
        for d, factor in enumerate((1.0, local[:, 0, None], local[:, 1, None])):
            S[:, d] += _sum_by(edge_owner, factor * pair, npatch)

    # Particular stress (-bx (x - cx), -by (y - cy), 0) = xi V[1] + eta V[2].
    loads = np.zeros((npatch, 2))
    if body_force is not None:
        loads[:] = body_force(centers[:, 0], centers[:, 1])
    V = np.zeros((npatch, 3, 3))
    V[:, 1, 0] = -loads[:, 0] * scales
    V[:, 2, 1] = -loads[:, 1] * scales
    # g = sum_a MODES[a]^T (S[a] - C^-1 sum_b M[a, b] V[b])
    g = np.einsum("aik,pai->pk", MODES, S - (M @ V) @ Cinv)
    return PatchSystems(centers, scales, loads, H, g)


def solve_patches(H: np.ndarray, g: np.ndarray):
    """Solve the stacked systems; returns (betas, failed).

    A patch fails when its condition number exceeds 1e12 or its solve leaves
    a residual above 1e-12 |g|; its betas are then not to be used.
    """
    cond = np.linalg.cond(H)
    failed = ~(np.isfinite(cond) & (cond <= 1e12))
    betas = np.zeros(g.shape)
    betas[~failed] = np.linalg.solve(H[~failed], g[~failed, :, None])[..., 0]
    residual = np.linalg.norm(np.einsum("pab,pb->pa", H, betas) - g, axis=1)
    failed |= ~np.isfinite(betas).all(axis=1)
    failed |= residual > 1e-12 * np.linalg.norm(g, axis=1) + 1e-300
    return betas, failed


def recover_field(
    mesh: PolygonalMesh,
    material: LameMaterial,
    displacement,
    body_force,
    kind: str,
) -> RecoveredStressField:
    """Run the patch recovery centered on every cell.

    An ill-conditioned vertex-neighbor patch falls back to its single-cell
    patch; the affected cells are flagged on the returned field.
    """

    def fit(cells, patch_kind):
        patches = [build_patch(mesh, int(ci), patch_kind) for ci in cells]
        system = patch_systems(mesh, material, patches, displacement, body_force)
        betas, failed = solve_patches(system.H, system.g)
        return (system.centers, system.scales, betas, system.loads), failed

    if kind not in RECOVERY_KINDS:
        raise ValueError(f"unknown recovery kind {kind!r}")
    patch_kind = PatchKind.PATCH0 if kind == "rcp0" else PatchKind.PATCH1
    cells = np.arange(mesh.num_cells)
    arrays, failed = fit(cells, patch_kind)
    fallback = cells[failed] if patch_kind is PatchKind.PATCH1 else cells[:0]
    if len(fallback):
        logger.warning("cells %s: vertex patch ill-conditioned, using single-cell patch",
                       fallback.tolist())
        single, failed[fallback] = fit(fallback, PatchKind.PATCH0)
        for full, part in zip(arrays, single):
            full[fallback] = part
    if failed.any():
        raise RecoveryConditioningError(
            f"patch at cell {np.argmax(failed)}: condition number above 1e12 or inaccurate solve"
        )
    return RecoveredStressField(mesh, kind, *arrays, fallback_cells=tuple(fallback.tolist()))


def evaluate_recovered_stress(field: RecoveredStressField, cell, points) -> np.ndarray:
    """Recovered stress of `cell` at one point or an (m, 2) stack.

    `cell` is one cell id, or an int array aligned with the (m, 2) points
    that names the cell of each point.
    """
    pts = np.asarray(points, dtype=float)
    cell = np.asarray(cell)
    center = field.centers[cell]
    local = (pts - center) / field.scales[cell][..., None]
    # coef[..., a, :] = MODES[a] @ beta: the stress coefficients of 1, xi and eta.
    coef = np.einsum("aik,...k->...ai", MODES, field.betas[cell])
    out = coef[..., 0, :] + np.einsum("...a,...ai->...i", local, coef[..., 1:, :])
    out[..., :2] -= field.loads[cell] * (pts - center)
    return out
