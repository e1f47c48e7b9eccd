"""Degree-5 quadrature on polygonal cells via ear-clip triangulation.

The per-cell point/weight arrays are cached on the mesh, so repeated
integrations (stiffness checks, recovery systems, error norms) reuse them.
"""

from __future__ import annotations

import numpy as np

from .mesh import PolygonalMesh, ear_clip

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
    """Composite rule over the ear-clip triangulation of a cell (cached)."""
    cached = mesh._quadrature_cache.get(cell)
    if cached is not None:
        return cached
    coords = mesh.cell_coords(cell)
    tris = coords[np.array(ear_clip(coords))]                 # (t, 3, 2), all triangles at once
    e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    rule = (TRI7_BARY @ tris).reshape(-1, 2), (area[:, None] * TRI7_WEIGHTS).ravel()
    mesh._quadrature_cache[cell] = rule
    return rule


def polygon_quadrature(mesh: PolygonalMesh, cell: int, integrand) -> float:
    """Integrate integrand(x, y) over a cell; x and y arrive as arrays."""
    pts, w = cell_quadrature(mesh, cell)
    return float(np.dot(w, np.asarray(integrand(pts[:, 0], pts[:, 1]), dtype=float)))
