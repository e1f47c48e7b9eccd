"""Degree-5 quadrature on polygonal cells via ear-clip triangulation.

The first rule asked of a mesh fills the rules of all its cells, one stacked
ear clip per vertex-count group. Each group's points and weights become two
flat read-only arrays in cell-major order, and a cell's rule is a pair of
slice views into them, cached on the mesh by cell id, so repeated
integrations (error norms of several methods) reuse them. A fill that fails
caches nothing.
"""

from __future__ import annotations

import numpy as np

from .mesh import PolygonalMesh, checked_ids, ear_clip

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
    """Composite rule over the ear-clip triangulation of a cell; a miss fills every cell.

    The hit path takes a Python int only: any other id (2.0 and True hash like
    the int keys) goes through `checked_ids`, so on a cold or a warm cache an
    id that is not one cell raises the same TypeError or ValueError, and a
    miss on it fills nothing.
    """
    cache = mesh._quadrature_cache
    if type(cell) is not int or cell not in cache:
        ids = checked_ids(cell, mesh.num_cells, "cell")
        if ids.ndim:
            raise TypeError(f"one cell id expected, got an array of shape {ids.shape}")
        cell = ids.item()
    if not cache:
        rules = {}
        for cells, idx in mesh.groups:
            coords = mesh.vertices[idx]                                  # (k, n, 2)
            local, emitted = ear_clip(coords, cells)
            tris = coords[np.arange(len(cells))[:, None, None], local]   # (k, n - 2, 3, 2)
            e1, e2 = tris[..., 1, :] - tris[..., 0, :], tris[..., 2, :] - tris[..., 0, :]
            area = 0.5 * np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
            pts, w = TRI7_BARY @ tris, area[..., None] * TRI7_WEIGHTS
            pts, w = pts[emitted].reshape(-1, 2), w[emitted].ravel()    # emitted triangles, cell-major
            pts.setflags(write=False)
            w.setflags(write=False)
            bounds = np.concatenate([[0], np.cumsum(7 * emitted.sum(axis=1))]).tolist()
            for ci, a, b in zip(cells.tolist(), bounds[:-1], bounds[1:]):
                rules[ci] = pts[a:b], w[a:b]
        cache.update(rules)
    return cache[cell]

