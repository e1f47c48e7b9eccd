"""Plane-strain isotropic elasticity in Lamé parameters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LameMaterial:
    lam: float
    mu: float

    def __post_init__(self):
        ok = self.mu > 0.0 and self.lam + self.mu > 0.0          # false for a nan too
        with np.errstate(all="ignore"):
            ok = ok and np.isfinite([elastic_matrix(self), compliance_matrix(self)]).all()
        if not ok:
            raise ValueError(f"material (lambda={self.lam}, mu={self.mu}) is not positive "
                             "definite with finite elastic and compliance matrices")

    @property
    def poisson(self) -> float:
        return self.lam / (2.0 * (self.lam + self.mu))


def elastic_matrix(material: LameMaterial) -> np.ndarray:
    """3x3 matrix mapping engineering strain (eps_x, eps_y, gamma_xy) to stress."""
    lam, mu = material.lam, material.mu
    return np.array(
        [
            [lam + 2.0 * mu, lam, 0.0],
            [lam, lam + 2.0 * mu, 0.0],
            [0.0, 0.0, mu],
        ]
    )


def compliance_matrix(material: LameMaterial) -> np.ndarray:
    """Closed-form inverse of the elastic matrix."""
    lam, mu = np.float64(material.lam), np.float64(material.mu)    # a det of 0 gives inf
    a = lam + 2.0 * mu
    det = 4.0 * mu * (lam + mu)                  # a^2 - lam^2, which cancels for lam >> mu
    return np.array(
        [
            [a / det, -lam / det, 0.0],
            [-lam / det, a / det, 0.0],
            [0.0, 0.0, 1.0 / mu],
        ]
    )


def von_mises(stress, material: LameMaterial) -> np.ndarray:
    """Equivalent stress including the plane-strain out-of-plane component.

    Accepts a single (sx, sy, txy) triple or an (..., 3) stack.
    """
    s = np.asarray(stress, dtype=float)
    sx, sy, txy = s[..., 0], s[..., 1], s[..., 2]
    sz = material.poisson * (sx + sy)
    return np.sqrt(
        sx * sx + sy * sy + sz * sz - sx * sy - sy * sz - sz * sx + 3.0 * txy * txy
    )
