"""Manufactured displacement fields with their exact strains, stresses, loads.

All fields are vectorized over x and y and return component stacks on the
last axis: called with the two (m,) coordinate columns of m points, a field
gives (m, width) values. Every caller samples a field through `sample`, which
holds it to that contract. Body forces are hand-differentiated closed forms;
the test suite cross-checks them against finite differences of the stresses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .material import LameMaterial, elastic_matrix

CASE_IDS = ("a", "b", "c")


@dataclass(frozen=True)
class ManufacturedCase:
    id: str
    displacement: object   # u(x, y) -> (..., 2)
    strain: object         # eps(x, y) -> (..., 3) engineering components
    stress: object         # sigma(x, y) -> (..., 3)
    body_force: object     # b(x, y) -> (..., 2)


def sample(field, points: np.ndarray, width: int, name: str) -> np.ndarray:
    """`field` called once at the (m, 2) `points`, as (m, width) floats.

    Any other result shape raises ValueError naming the field: a (2, m) stack
    would be re-paired, and a constant or an (m, 1) column broadcast.
    """
    values = np.asarray(field(points[:, 0], points[:, 1]), dtype=float)
    if values.shape != (len(points), width):
        raise ValueError(f"{name} gave shape {values.shape} at {len(points)} points")
    return values


def stress_from_strain(material: LameMaterial, strain):
    """The stress field C eps(x, y) of a vectorized strain field."""
    C = elastic_matrix(material)

    def stress(x, y):
        return np.einsum("ij,...j->...i", C, strain(x, y))
    return stress


def zero_body_force(x, y):
    """b = 0 as a (..., 2) stack shaped like x."""
    return np.zeros(np.shape(x) + (2,))


def manufactured_case(case_id: str, material: LameMaterial) -> ManufacturedCase:
    if case_id not in CASE_IDS:
        raise ValueError(f"unknown manufactured case {case_id!r}")
    lam, mu = material.lam, material.mu

    if case_id == "a":
        # cubic harmonic-conjugate pair: zero body force for any material
        def displacement(x, y):
            return np.stack([x**3 - 3.0 * x * y**2, y**3 - 3.0 * x**2 * y], axis=-1)

        def strain(x, y):
            return np.stack(
                [3.0 * x**2 - 3.0 * y**2, 3.0 * y**2 - 3.0 * x**2, -12.0 * x * y], axis=-1
            )

        body_force = zero_body_force

    elif case_id == "b":
        def displacement(x, y):
            s = np.sin(np.pi * x) * np.sin(np.pi * y)
            return np.stack([s, s], axis=-1)

        def strain(x, y):
            sx, cx = np.sin(np.pi * x), np.cos(np.pi * x)
            sy, cy = np.sin(np.pi * y), np.cos(np.pi * y)
            return np.stack(
                [np.pi * cx * sy, np.pi * sx * cy, np.pi * (sx * cy + cx * sy)], axis=-1
            )

        def body_force(x, y):
            sx, cx = np.sin(np.pi * x), np.cos(np.pi * x)
            sy, cy = np.sin(np.pi * y), np.cos(np.pi * y)
            component = np.pi**2 * ((lam + 3.0 * mu) * sx * sy - (lam + mu) * cx * cy)
            return np.stack([component, component], axis=-1)

    else:
        # u_x separates into f(x) g(y) with f(t) = g(t) = t sin(pi t); u_y = 0
        def _f(t):
            return t * np.sin(np.pi * t)

        def _fp(t):
            return np.sin(np.pi * t) + np.pi * t * np.cos(np.pi * t)

        def _fpp(t):
            return 2.0 * np.pi * np.cos(np.pi * t) - np.pi**2 * t * np.sin(np.pi * t)

        def displacement(x, y):
            ux = _f(x) * _f(y)
            return np.stack([ux, np.zeros_like(ux)], axis=-1)

        def strain(x, y):
            ex = _fp(x) * _f(y)
            return np.stack([ex, np.zeros_like(ex), _f(x) * _fp(y)], axis=-1)

        def body_force(x, y):
            bx = -((lam + 2.0 * mu) * _fpp(x) * _f(y) + mu * _f(x) * _fpp(y))
            by = -(lam + mu) * _fp(x) * _fp(y)
            return np.stack([bx, by], axis=-1)

    return ManufacturedCase(
        id=case_id,
        displacement=displacement,
        strain=strain,
        stress=stress_from_strain(material, strain),
        body_force=body_force,
    )
