from fractions import Fraction

import numpy as np
import pytest

from vemrcp.material import LameMaterial, compliance_matrix, elastic_matrix, von_mises


class TestElasticMatrix:
    def test_reference_material(self, mat):
        np.testing.assert_allclose(
            elastic_matrix(mat), [[3, 1, 0], [1, 3, 0], [0, 0, 1]]
        )

    def test_zero_lambda(self):
        np.testing.assert_allclose(
            elastic_matrix(LameMaterial(0.0, 1.0)), [[2, 0, 0], [0, 2, 0], [0, 0, 1]]
        )

    def test_positive_definite_for_random_materials(self, rng):
        for _ in range(100):
            mu = rng.uniform(0.1, 10.0)
            lam = rng.uniform(-mu + 0.05, 10.0)
            eig = np.linalg.eigvalsh(elastic_matrix(LameMaterial(lam, mu)))
            assert np.all(eig > 0.0)

    def test_invalid_material_rejected(self):
        with pytest.raises(ValueError):
            LameMaterial(1.0, 0.0)
        with pytest.raises(ValueError):
            LameMaterial(-2.0, 1.0)

    @pytest.mark.parametrize("lam, mu", [(1.0, np.inf), (np.nan, 1.0), (1e308, 1e308),
                                         (0.0, 1e-200)])
    def test_material_not_finite_rejected(self, lam, mu):
        with pytest.raises(ValueError, match="finite elastic and compliance matrices"):
            LameMaterial(lam, mu)

    @pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (0.0, 1.0), (2.0, 0.5), (-0.5, 1.0)])
    def test_finite_material_accepted(self, lam, mu):
        material = LameMaterial(lam, mu)
        assert np.isfinite(compliance_matrix(material)).all()


class TestComplianceMatrix:
    def test_reference_material(self, mat):
        np.testing.assert_allclose(
            compliance_matrix(mat),
            [[3 / 8, -1 / 8, 0], [-1 / 8, 3 / 8, 0], [0, 0, 1]],
        )

    def test_zero_lambda(self):
        np.testing.assert_allclose(
            compliance_matrix(LameMaterial(0.0, 1.0)), np.diag([0.5, 0.5, 1.0])
        )

    def test_product_is_identity(self, mat):
        prod = elastic_matrix(mat) @ compliance_matrix(mat)
        np.testing.assert_allclose(prod, np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("ratio", [1e10, 1e12])
    def test_exact_for_lambda_much_larger_than_mu(self, ratio):
        # Against rational arithmetic on the same float inputs: a^2 - lambda^2 cancels here.
        lam, mu = Fraction(ratio), Fraction(1.0)
        det = (lam + 2 * mu) ** 2 - lam ** 2
        exact = [[(lam + 2 * mu) / det, -lam / det, 0], [-lam / det, (lam + 2 * mu) / det, 0],
                 [0, 0, 1 / mu]]
        np.testing.assert_allclose(compliance_matrix(LameMaterial(ratio, 1.0)),
                                   np.array(exact, dtype=float), rtol=1e-15, atol=0.0)

    def test_mutual_inverses_random(self, rng):
        for _ in range(100):
            mu = rng.uniform(0.1, 10.0)
            lam = rng.uniform(-mu + 0.05, 10.0)
            m = LameMaterial(lam, mu)
            np.testing.assert_allclose(
                elastic_matrix(m) @ compliance_matrix(m), np.eye(3), atol=1e-13
            )


class TestVonMises:
    def test_zero_stress(self, mat):
        assert von_mises((0.0, 0.0, 0.0), mat) == 0.0

    def test_hydrostatic(self, mat):
        # nu = 0.25 for lambda = mu, so sz = p/2 and the result is p/2
        p = 3.7
        assert mat.poisson == pytest.approx(0.25)
        assert von_mises((p, p, 0.0), mat) == pytest.approx(p / 2.0)

    def test_pure_shear(self, mat):
        tau = -1.3
        assert von_mises((0.0, 0.0, tau), mat) == pytest.approx(np.sqrt(3.0) * abs(tau))

    def test_rotation_invariance(self, mat, rng):
        s = np.array([2.1, -0.7, 0.9])
        base = von_mises(s, mat)
        for _ in range(50):
            t = rng.uniform(0.0, 2.0 * np.pi)
            c, sn = np.cos(t), np.sin(t)
            # tensor rotation of (sx, sy, txy)
            sx = s[0] * c**2 + s[1] * sn**2 + 2.0 * s[2] * sn * c
            sy = s[0] * sn**2 + s[1] * c**2 - 2.0 * s[2] * sn * c
            txy = (s[1] - s[0]) * sn * c + s[2] * (c**2 - sn**2)
            assert von_mises((sx, sy, txy), mat) == pytest.approx(base, abs=1e-12)

    def test_vectorized(self, mat):
        stresses = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
        np.testing.assert_allclose(
            von_mises(stresses, mat), [np.sqrt(3.0), 2.0 * np.sqrt(3.0)]
        )
