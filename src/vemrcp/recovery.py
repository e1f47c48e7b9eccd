"""Equilibrated stress recovery by patch-wise complementary energy minimization.

On each patch the recovered stress is a linear combination of seven
self-equilibrated modes (three constants plus four divergence-free linear
fields) added to a particular stress that balances the body force sampled at
the patch centre. The mode coefficients minimize the patch complementary
energy, in which the computed displacement enters only through its trace on
the outer patch boundary: exactly the data a virtual element solution
provides.

Modes are expressed in patch-local coordinates (xi, eta), shifted to the
area-weighted patch centroid and scaled by the square root of the patch area,
to keep the 7x7 systems uniformly conditioned. There the mode matrix is
P = MODES[0] + xi MODES[1] + eta MODES[2], so the moments of (1, xi, eta)
over a patch give the compliance matrix H and the particular-stress work
exactly. They are summed by the parallel-axis identity from the closed-form
area, centroid and central second moments that the mesh stores per cell, so
recovery needs no quadrature and no triangulation. The boundary work is
summed the same way from each cell's own work, taken once with two Gauss
points per cell edge: the work on an edge between two cells of a patch
cancels. All patches of a mesh are solved as one stack.

The recovered field of a cell always comes from the patch centered on it:
"rcp0" uses the degenerate single-cell patch, "rcp1" the vertex-neighbor
patch. The patches of a fit are one array of (patch, member cell) pairs,
built in one pass over the mesh's flat vertex-to-cell map.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .material import LameMaterial, compliance_matrix
from .mesh import PolygonalMesh
# Unused here; kept only because the benchmark's span tracer wraps recovery.cell_quadrature.
from .quadrature import cell_quadrature  # noqa: F401

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

    centers: np.ndarray               # (ncells, 2) patch centre, also the load sample point
    scales: np.ndarray                # (ncells,) square root of the patch area
    betas: np.ndarray                 # (ncells, 7) mode coefficients
    loads: np.ndarray                 # (ncells, 2) body force sampled at the centre
    fallback_cells: tuple = ()


class Patches(NamedTuple):
    """(patch, member cell) pairs, grouped by patch in request order, members ascending."""

    owner: np.ndarray                 # (npair,) patch index in [0, npatch)
    member_cells: np.ndarray          # (npair,) cell id


class PatchSystems(NamedTuple):
    """The 7x7 systems H beta = g of a list of patches, with their frames."""

    centers: np.ndarray               # (npatch, 2)
    scales: np.ndarray                # (npatch,)
    loads: np.ndarray                 # (npatch, 2)
    H: np.ndarray                     # (npatch, 7, 7)
    g: np.ndarray                     # (npatch, 7)


def _sum_by(owner: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of `values` that share an `owner` index in [0, n)."""
    flat = values.reshape(len(owner), -1)
    sums = [np.bincount(owner, col, minlength=n) for col in flat.T]
    return np.stack(sums, axis=-1).reshape((n,) + values.shape[1:])


def _ragged_ranges(starts: np.ndarray, counts: np.ndarray):
    """Expand the ranges [starts[k], starts[k] + counts[k]) into (k, position) pairs, in order."""
    group = np.repeat(np.arange(len(counts)), counts)
    return group, starts[group] + np.arange(counts.sum()) - (np.cumsum(counts) - counts)[group]


def build_patch(mesh: PolygonalMesh, cells, kind: str) -> Patches:
    """The recovery patches centred on `cells`, one per requested cell, in request order.

    "rcp0" is the cell alone; "rcp1" is every cell sharing at least one
    vertex with it.
    """
    cells = np.asarray(cells, dtype=np.int64)
    if kind not in RECOVERY_KINDS:
        raise ValueError(f"unknown recovery kind {kind!r}")
    if kind == "rcp0":
        return Patches(np.arange(len(cells)), cells)
    patch, corner = _ragged_ranges(mesh.offsets[cells], np.diff(mesh.offsets)[cells])
    vertex = mesh.indices[corner]
    pair, slot = _ragged_ranges(mesh.vertex_offsets[vertex], np.diff(mesh.vertex_offsets)[vertex])
    nc = mesh.num_cells
    owner, member = np.divmod(np.unique(patch[pair] * nc + mesh.vertex_cell_ids[slot]), nc)
    return Patches(owner, member)


def patch_systems(
    mesh: PolygonalMesh,
    material: LameMaterial,
    patches: Patches,
    displacement,
    body_force,
) -> PatchSystems:
    """Assemble the complementary-energy system of every patch in `patches`.

    `patches` holds (patch, member cell) pairs as `build_patch` returns them.

    `displacement` is either the global dof vector (its trace is interpolated
    linearly per edge) or a callable u(x, y) -> (m, 2) evaluated at the Gauss
    points. `body_force` is a vectorized callable b(x, y) -> (m, 2), called
    once at all patch centres.
    """
    owner, member = patches
    npatch = int(owner[-1]) + 1
    area, centroid, second = mesh.areas, mesh.centroids, mesh.second_moments
    patch_area = np.bincount(owner, area[member], minlength=npatch)
    centers = _sum_by(owner, area[member, None] * centroid[member], npatch)
    centers /= patch_area[:, None]
    scales = np.sqrt(patch_area)

    # Moments of (1, xi, eta) by the parallel-axis identity.
    s = scales[owner, None]
    shift = centroid[member] - centers[owner]
    phi = np.column_stack([np.ones(len(member)), shift / s])
    cell_m = area[member, None, None] * phi[:, :, None] * phi[:, None, :]
    cell_m[:, 1:, 1:] += second[member] / (s * s)[:, :, None]
    M = _sum_by(owner, cell_m, npatch)

    Cinv = compliance_matrix(material)
    H = np.einsum("pab,abkl->pkl", M, np.einsum("aik,ij,bjl->abkl", MODES, Cinv, MODES))

    # Work of each mode's traction on the displacement trace over the boundary
    # of every cell: W[c, 0] sums the weighted traction pairs at the Gauss
    # points and W[c, 1:] their first moments about the centroid of c.
    a = mesh.vertices[mesh.indices]
    t = mesh.vertices[mesh.edge_ends] - a
    edge_cell = np.repeat(np.arange(mesh.num_cells), np.diff(mesh.offsets))
    work = np.zeros((len(a), 3, 3))
    for gp in _GAUSS2:
        x = a + gp * t
        if callable(displacement):
            u = np.asarray(displacement(x[:, 0], x[:, 1]), dtype=float)
        else:
            uv = np.asarray(displacement, dtype=float).reshape(-1, 2)
            u = (1.0 - gp) * uv[mesh.indices] + gp * uv[mesh.edge_ends]
        # Gauss weight |e|/2 times the unit outer normal is (t_y, -t_x) / 2.
        pair = 0.5 * np.column_stack(
            [t[:, 1] * u[:, 0], -t[:, 0] * u[:, 1], t[:, 1] * u[:, 1] - t[:, 0] * u[:, 0]]
        )
        arm = np.column_stack([np.ones(len(x)), x - centroid[edge_cell]])
        work += arm[:, :, None] * pair[:, None, :]
    W = _sum_by(edge_cell, work, mesh.num_cells)[member]
    # A patch's work is its members' sum: on an edge between two members both
    # sides see one trace at the same Gauss points with opposite normals, so
    # they cancel. The moments move to the patch frame as those of M do.
    W[:, 1:] = (W[:, 1:] + shift[:, :, None] * W[:, :1]) / s[:, :, None]
    S = _sum_by(owner, W, npatch)

    # Particular stress (-bx (x - cx), -by (y - cy), 0) = xi V[1] + eta V[2].
    # A copy, not a view of the callable's result: the rcp1 fallback writes into it.
    loads = np.array(body_force(centers[:, 0], centers[:, 1]), dtype=float)
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
    lam = np.linalg.eigvalsh(H)          # H is a symmetric Gram matrix: cond = lam_max / lam_min
    failed = ~(np.isfinite(lam).all(axis=1) & (lam[:, 0] > 0) & (lam[:, -1] <= 1e12 * lam[:, 0]))
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
    patch; the affected cells are flagged on the returned field. A
    single-cell patch has no fallback: it raises RecoveryConditioningError.
    """

    def fit(cells, patch_kind):
        patches = build_patch(mesh, cells, patch_kind)
        system = patch_systems(mesh, material, patches, displacement, body_force)
        betas, failed = solve_patches(system.H, system.g)
        return (system.centers, system.scales, betas, system.loads), failed

    cells = np.arange(mesh.num_cells)
    arrays, failed = fit(cells, kind)
    fallback = cells[failed] if kind == "rcp1" else cells[:0]
    if len(fallback):
        logger.warning("cells %s: vertex patch ill-conditioned, using single-cell patch",
                       fallback.tolist())
        single, failed[fallback] = fit(fallback, "rcp0")
        for full, part in zip(arrays, single):
            full[fallback] = part
    if failed.any():
        raise RecoveryConditioningError(
            f"patch at cell {np.argmax(failed)}: condition number above 1e12 or inaccurate solve"
        )
    return RecoveredStressField(*arrays, fallback_cells=tuple(fallback.tolist()))


def evaluate_recovered_stress(field: RecoveredStressField, cell, points) -> np.ndarray:
    """Recovered stress of `cell` at one point or an (m, 2) stack.

    `cell` is one cell id, or an int array aligned with the (m, 2) points
    that names the cell of each point.
    """
    pts = np.asarray(points, dtype=float)
    cell = np.asarray(cell)
    center = field.centers[cell]
    local = (pts - center) / field.scales[cell][..., None]
    # coef[c, a] = MODES[a] @ beta_c: the stress coefficients of 1, xi and eta, once per cell.
    coef = np.einsum("aik,ck->cai", MODES, field.betas)[cell]
    out = coef[..., 0, :] + local[..., :1] * coef[..., 1, :] + local[..., 1:] * coef[..., 2, :]
    out[..., :2] -= field.loads[cell] * (pts - center)
    return out
