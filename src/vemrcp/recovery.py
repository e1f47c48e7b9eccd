"""Equilibrated stress recovery by patch-wise complementary energy minimization.

On each patch the recovered stress is a linear combination of seven
self-equilibrated modes (three constants plus four divergence-free linear
fields) added to a particular stress that balances the body force sampled at
the patch centre. The mode coefficients minimize the patch complementary
energy, in which the computed displacement enters only through its trace on
the outer patch boundary: exactly the data a virtual element solution
provides, its vertex values, linear along each edge. Modes and particular
stress are affine, so a fit hands on each cell's stress as one affine field:
its value at the patch centre and its x and y derivatives.

Modes are expressed in coordinates (xi, eta) centred on the patch's area
centroid and scaled by the square root of its area. The first moments of
(1, xi, eta) vanish there, so the two kinds of mode decouple: the constants
are C S[0] / |P|, the patch mean of the VEM cell stresses (S[0] is the work of
the constant modes), and the four linear modes, whose xi and eta coefficients
are `_LINEAR`, solve a 4x4 system built from the patch's central second
moment. That moment is the parallel-axis sum of the cell moments the mesh
stores; the boundary work sums each member's own work, in closed form per
edge since the trace is linear there (on an edge between two members it
cancels). All patches are solved as one stack, and only that 4x4 solve is
checked.

The recovered field of a cell always comes from the patch centered on it:
"rcp0" uses the degenerate single-cell patch, "rcp1" the vertex-neighbor
patch. The patches of a fit are one array of (patch, member cell) pairs: for
rcp1, the sparsity pattern of A A^T, with A the cell-vertex incidence matrix.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .cases import sample
from .material import LameMaterial, compliance_matrix, elastic_matrix
from .mesh import PolygonalMesh, checked_ids
# Unused here; kept only because the benchmark's span tracer wraps recovery.cell_quadrature.
from .quadrature import cell_quadrature  # noqa: F401
from .vem import vertex_pairs

logger = logging.getLogger(__name__)

RECOVERY_KINDS = ("rcp0", "rcp1")

# The xi and eta coefficients (rows sx, sy, sxy) of the four linear modes
# (eta, 0, 0), (0, xi, 0), (xi, 0, -eta) and (0, eta, -xi).
_LINEAR = np.array([[[0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0]],
                    [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]]])


class RecoveryConditioningError(Exception):
    """A patch system was too ill-conditioned, or its solve too inaccurate, to trust."""


@dataclass
class RecoveredStressField:
    """Recovered stress of every cell, affine in x and y: at (x, y) in cell c it is
    coefficients[c, 0] + (x - cx) coefficients[c, 1] + (y - cy) coefficients[c, 2],
    (cx, cy) = centers[c]. The particular stress of the load is included."""

    centers: np.ndarray               # (ncells, 2) patch centre, also the load sample point
    coefficients: np.ndarray          # (ncells, 3, 3) stress at the centre, d/dx, d/dy
    fallback_cells: tuple = ()


class Patches(NamedTuple):
    """(patch, member cell) pairs, grouped by patch in request order, members ascending."""

    owner: np.ndarray                 # (npair,) patch index in [0, npatch)
    member_cells: np.ndarray          # (npair,) cell id


def _sum_by(owner: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of `values` that share an `owner` index in [0, n)."""
    flat = values.reshape(len(owner), -1)
    sums = [np.bincount(owner, col, minlength=n) for col in flat.T]
    return np.stack(sums, axis=-1).reshape((n,) + values.shape[1:])


def build_patch(mesh: PolygonalMesh, cells, kind: str) -> Patches:
    """The recovery patches centred on `cells`, one per requested cell, in request order.

    "rcp0" is the cell alone; "rcp1" is every cell sharing at least one
    vertex with it: the pattern of row c of A A^T, where A is the cell-vertex
    incidence matrix. An id that is not a cell raises TypeError or ValueError.
    """
    cells = checked_ids(cells, mesh.num_cells, "cell")
    if kind not in RECOVERY_KINDS:
        raise ValueError(f"unknown recovery kind {kind!r}")
    if kind == "rcp0":
        return Patches(np.arange(len(cells)), cells)
    A = sp.csr_matrix((np.ones(len(mesh.indices)), mesh.indices, mesh.offsets),
                      shape=(mesh.num_cells, mesh.num_vertices))
    shared = A[cells] @ A.T
    shared.sort_indices()
    return Patches(np.repeat(np.arange(len(cells)), np.diff(shared.indptr)),
                   shared.indices.astype(np.int64))


def patch_systems(
    mesh: PolygonalMesh,
    material: LameMaterial,
    patches: Patches,
    displacement,
    body_force,
) -> tuple[np.ndarray, ...]:
    """The constant-mode coefficients and the linear-mode system H x = g of every patch.

    `patches` holds (patch, member cell) pairs as `build_patch` returns them.
    Returns (centers (npatch, 2), scales (npatch,), loads (npatch, 2),
    constants (npatch, 3), H (npatch, 4, 4), g (npatch, 4)).

    `displacement` is the global dof vector, one (u, v) pair per vertex, read
    by `vem.vertex_pairs`: its trace is linear along each edge, so the work on
    it is integrated in closed form. `body_force` is a vectorized callable
    b(x, y) -> (m, 2), sampled once at all patch centres by `cases.sample`. A
    dof vector of another length or a load of another shape raises
    ValueError; a callable displacement raises TypeError.
    """
    owner, member = patches
    npatch = int(owner[-1]) + 1
    area, centroid, second = mesh.areas, mesh.centroids, mesh.second_moments
    patch_area = np.bincount(owner, area[member], minlength=npatch)
    centers = _sum_by(owner, area[member, None] * centroid[member], npatch) / patch_area[:, None]
    # Scaling xi and eta by sqrt|P| keeps H, g and the linear coefficients at the
    # size of the stress rather than stress / length; without it the norms in
    # `solve_patches` overflow on a mesh at a 1e-76 scale.
    scales = np.sqrt(patch_area)

    # Central second moment J of (xi, eta) by the parallel-axis identity.
    s = scales[owner, None]
    shift = centroid[member] - centers[owner]
    phi = shift / s
    cell_j = area[member, None, None] * phi[:, :, None] * phi[:, None, :]
    J = _sum_by(owner, cell_j + second[member] / (s * s)[:, :, None], npatch)

    Cinv = compliance_matrix(material)
    H = np.einsum("pab,abkl->pkl", J, np.einsum("aik,ij,bjl->abkl", _LINEAR, Cinv, _LINEAR))

    # Work of each mode's traction on the displacement trace over the boundary
    # of every cell, in closed form. On the edge a + s t, 0 <= s <= 1, the trace
    # runs linearly from u_a to u_b, and (t_y, -t_x) ds is the outer normal
    # times arc length. With P = `pair`, W[c, 0] sums P((u_a + u_b) / 2) over
    # the edges of c, and W[c, 1:], the first moments about its centroid c,
    # sums (a - c) P((u_a + u_b) / 2) + t P(u_a / 6 + u_b / 3).
    uv = vertex_pairs(mesh, displacement)
    ua, ub = uv[mesh.indices], uv[mesh.edge_ends]
    a = mesh.vertices[mesh.indices]
    t = mesh.vertices[mesh.edge_ends] - a
    edge_cell = np.repeat(np.arange(mesh.num_cells), np.diff(mesh.offsets))

    def pair(u):                         # u paired with the scaled outer normal (t_y, -t_x)
        return np.column_stack(
            [t[:, 1] * u[:, 0], -t[:, 0] * u[:, 1], t[:, 1] * u[:, 1] - t[:, 0] * u[:, 0]])

    mean = pair(0.5 * (ua + ub))
    work = np.concatenate([mean[:, None], (a - centroid[edge_cell])[:, :, None] * mean[:, None]
                           + t[:, :, None] * pair(ua / 6.0 + ub / 3.0)[:, None]], axis=1)
    W = _sum_by(edge_cell, work, mesh.num_cells)[member]
    # A patch's work is its members' sum: on an edge between two members both
    # sides see one trace with opposite normals, so they cancel. The first
    # moments move to the patch frame as J does.
    W[:, 1:] = (W[:, 1:] + shift[:, :, None] * W[:, :1]) / s[:, :, None]
    S = _sum_by(owner, W, npatch)
    with np.errstate(all="ignore"):      # an overflow fails the patch in `recover_field`
        constants = S[:, 0] @ elastic_matrix(material) / patch_area[:, None]

    # Particular stress (-bx (x - cx), -by (y - cy), 0) = xi V[0] + eta V[1].
    loads = sample(body_force, centers, 2, "body force")
    V = (loads * scales[:, None])[:, :, None] * -np.eye(2, 3)
    # g = sum_a _LINEAR[a]^T (S[a + 1] - C^-1 sum_b J[a, b] V[b])
    g = np.einsum("aik,pai->pk", _LINEAR, S[:, 1:] - (J @ V) @ Cinv)
    return centers, scales, loads, constants, H, g


# A patch fails when the condition number of its 4x4 H or the normwise backward
# error of its solve is above these limits. No linear mode is purely volumetric,
# so cond(H) does not grow with lambda / mu, and the solve is backward stable
# (at most 0.84 eps over the 72-level acceptance grid).
_CHECKS = ("condition number", "backward error")
_LIMITS = (1e12, 64 * np.finfo(float).eps)


def solve_patches(H: np.ndarray, g: np.ndarray):
    """Solve the stacked linear-mode systems H x = g; returns (linear, failed, checks).

    `linear` (npatch, 4) holds the coefficients of the four linear modes.
    `checks` (npatch, 2) holds cond(H) and the normwise backward error
    ||H x - g|| / (||H||_F ||x|| + ||g||) of the solve (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, 7.1). A patch fails when either is
    above its limit in `_LIMITS` or not a number; its `linear` is then not to be used.
    """
    lam = np.linalg.eigvalsh(H)          # H is a symmetric Gram matrix: cond = lam_max / lam_min
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(lam[:, 0] > 0.0, lam[:, -1] / lam[:, 0], np.inf)
    solved = cond <= _LIMITS[0]          # False for NaN too
    linear = np.zeros(g.shape)
    linear[solved] = np.linalg.solve(H[solved], g[solved, :, None])[..., 0]
    residual = np.linalg.norm(np.einsum("pab,pb->pa", H, linear) - g, axis=1)
    size = (np.linalg.norm(H, axis=(1, 2)) * np.linalg.norm(linear, axis=1)
            + np.linalg.norm(g, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        backward = np.where(residual == 0.0, 0.0, residual / size)
    checks = np.column_stack([cond, backward])
    return linear, ~(checks <= _LIMITS).all(axis=1), checks


def _reason(checks: np.ndarray) -> str:
    """A failed patch's first failed check and its value, else a coefficient not finite."""
    j = int(np.argmax(~(checks <= _LIMITS)))             # a NaN value fails its check too
    return (f"{_CHECKS[j]} {checks[j]:.3g} above {_LIMITS[j]:.3g}"
            if not checks[j] <= _LIMITS[j] else "a mode coefficient is not finite")


def recover_field(
    mesh: PolygonalMesh,
    material: LameMaterial,
    displacement,
    body_force,
    kind: str,
) -> RecoveredStressField:
    """Run the patch recovery centered on every cell.

    A vertex-neighbor patch that fails a check of `solve_patches`, or whose field is not
    finite, falls back to its single-cell patch; a warning names each such cell and its
    failed check, and the field flags them. A single-cell patch has no fallback: it raises RecoveryConditioningError
    naming the first failed check and its value, or that a coefficient is not finite.
    """

    def fit(cells, patch_kind):
        patches = build_patch(mesh, cells, patch_kind)
        centers, scales, loads, constants, *system = patch_systems(
            mesh, material, patches, displacement, body_force)
        linear, failed, checks = solve_patches(*system)
        # The constants are the stress at the centre; _LINEAR[a] @ linear is its derivative
        # in xi or eta, and d/dx = d/dxi / scale. The particular stress adds -bx to d sx/dx
        # and -by to d sy/dy.
        with np.errstate(all="ignore"):                  # a non-finite one fails the patch
            gradient = np.einsum("aik,pk->pai", _LINEAR, linear) / scales[:, None, None]
            coefficients = np.concatenate([constants[:, None], gradient], axis=1)
            coefficients[:, [1, 2], [0, 1]] -= loads
        return centers, coefficients, failed | ~np.isfinite(coefficients).all(axis=(1, 2)), checks

    centers, coefficients, failed, checks = fit(np.arange(mesh.num_cells), kind)
    fallback = np.flatnonzero(failed) if kind == "rcp1" else np.arange(0)
    for c in fallback:
        logger.warning("cell %d: vertex patch failed (%s), using single-cell patch",
                       c, _reason(checks[c]))
    if len(fallback):
        (centers[fallback], coefficients[fallback], failed[fallback],
         checks[fallback]) = fit(fallback, "rcp0")
    if failed.any():
        c = int(np.argmax(failed))
        raise RecoveryConditioningError(f"patch at cell {c}: {_reason(checks[c])}")
    return RecoveredStressField(centers, coefficients, tuple(fallback.tolist()))


def evaluate_recovered_stress(field: RecoveredStressField, cell, points) -> np.ndarray:
    """Recovered stress of `cell` at one point or an (m, 2) stack. `cell` is one cell id,
    or an int array aligned with the (m, 2) points that names the cell of each point;
    an id that is not a cell of the field raises TypeError or ValueError."""
    cell = checked_ids(cell, len(field.coefficients), "cell")
    coef = field.coefficients[cell]
    d = np.asarray(points, dtype=float) - field.centers[cell]
    return coef[..., 0, :] + d[..., :1] * coef[..., 1, :] + d[..., 1:] * coef[..., 2, :]
