"""Degree-5 quadrature on polygonal cells via ear-clip triangulation.

The first rule asked of a mesh fills the rules of all its cells, one stacked
ear clip per vertex-count group, and caches them on the mesh by cell id, so
repeated integrations (error norms of several methods) reuse them.
"""

from __future__ import annotations

import numpy as np

from .mesh import PolygonalMesh, ear_clip, vertex_count_groups

_SQRT15 = np.sqrt(15.0)

# 7-point rule, exact for polynomials of total degree 5 on a triangle
TRI7_BARY = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [(9.0 - 2.0 * _SQRT15) / 21.0, (6.0 + _SQRT15) / 21.0, (6.0 + _SQRT15) / 21.0],
        [(6.0 + _SQRT15) / 21.0, (9.0 - 2.0 * _SQRT15) / 21.0, (6.0 + _SQRT15) / 21.0],
        [(6.0 + _SQRT15) / 21.0, (6.0 + _SQRT15) / 21.0, (9.0 - 2.0 * _SQRT15) / 21.0],
        [(9.0 + 2.0 * _SQRT15) / 21.0, (6.0 - _SQRT15) / 21.0, (6.0 - _SQRT15) / 21.0],
        [(6.0 - _SQRT15) / 21.0, (9.0 + 2.0 * _SQRT15) / 21.0, (6.0 - _SQRT15) / 21.0],
        [(6.0 - _SQRT15) / 21.0, (6.0 - _SQRT15) / 21.0, (9.0 + 2.0 * _SQRT15) / 21.0],
    ]
)
TRI7_WEIGHTS = np.array(
    [9.0 / 40.0]
    + [(155.0 + _SQRT15) / 1200.0] * 3
    + [(155.0 - _SQRT15) / 1200.0] * 3
)


def cell_quadrature(mesh: PolygonalMesh, cell: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule over the ear-clip triangulation of a cell; a miss fills every cell."""
    cache = mesh._quadrature_cache
    if cell not in cache:
        for cells, idx in vertex_count_groups(mesh):
            coords = mesh.vertices[idx]                                  # (k, n, 2)
            local, emitted = ear_clip(coords, cells)
            tris = coords[np.arange(len(cells))[:, None, None], local]   # (k, n - 2, 3, 2)
            e1, e2 = tris[..., 1, :] - tris[..., 0, :], tris[..., 2, :] - tris[..., 0, :]
            area = 0.5 * np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
            pts, w = TRI7_BARY @ tris, area[..., None] * TRI7_WEIGHTS
            for ci, keep, p, wk in zip(cells.tolist(), emitted, pts, w):
                cache[ci] = p[keep].reshape(-1, 2), wk[keep].ravel()
    return cache[cell]


def polygon_quadrature(mesh: PolygonalMesh, cell: int, integrand) -> float:
    """Integrate integrand(x, y) over a cell; x and y arrive as arrays."""
    pts, w = cell_quadrature(mesh, cell)
    return float(np.dot(w, np.asarray(integrand(pts[:, 0], pts[:, 1]), dtype=float)))
