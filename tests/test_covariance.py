import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from mnsurv import (
    log_mvn_density,
    make_weights,
    quad_form,
    sigma_inverse_matrix,
    sigma_matrix,
)
from mnsurv.checks import random_weights
from oracles import bilinear_form


class TestClosedForms:
    def test_scalar_case(self):
        w = make_weights([0.5])
        assert sigma_inverse_matrix(w)[0, 0] == pytest.approx(4.0, rel=1e-15, abs=0.0)

    def test_two_cell_entries(self):
        inverse = sigma_inverse_matrix(make_weights([0.3, 0.3]))
        assert inverse[0, 0] == pytest.approx(35 / 6, rel=1e-14, abs=0.0)
        assert inverse[0, 1] == pytest.approx(2.5, rel=1e-15, abs=0.0)
        assert (inverse == inverse.T).all()

    def test_inverse_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            w = make_weights(random_weights(rng, d))
            gap = np.max(np.abs(sigma_matrix(w) @ sigma_inverse_matrix(w) - np.eye(d)))
            assert gap <= 1e-10

    def test_determinant_identity_random(self):
        # dense LU elimination is the independent oracle here
        rng = np.random.default_rng(12)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            w = make_weights(random_weights(rng, d))
            closed = float(np.prod(w.p_full))
            dense = float(np.linalg.det(sigma_matrix(w)))
            assert abs(dense - closed) / closed <= 1e-10

    def test_determinant_identity_up_to_eight_cells(self):
        rng = np.random.default_rng(19)
        for d in range(1, 9):
            for _ in range(10):
                w = make_weights(random_weights(rng, d))
                closed = float(np.prod(w.p_full))
                dense = float(np.linalg.det(sigma_matrix(w)))
                assert abs(dense - closed) / closed <= 1e-12


class TestQuadForm:
    def test_zero(self):
        w = make_weights([0.3, 0.3])
        assert quad_form(w, [0.0, 0.0]) == 0.0

    def test_scalar(self):
        w = make_weights([0.5])
        assert quad_form(w, [0.1]) == pytest.approx(0.04, rel=1e-14, abs=0.0)

    def test_antisymmetric_vector(self):
        w = make_weights([0.3, 0.3])
        assert quad_form(w, [0.1, -0.1]) == pytest.approx(1 / 15, rel=1e-14, abs=0.0)

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            w = make_weights(random_weights(rng, d))
            x = rng.normal(size=d)
            oracle = x @ sigma_inverse_matrix(w) @ x
            assert quad_form(w, x) == pytest.approx(oracle, rel=1e-12, abs=0.0)
            y = rng.normal(size=d)
            oracle_b = x @ sigma_inverse_matrix(w) @ y
            assert bilinear_form(w, x, y) == pytest.approx(oracle_b, rel=1e-11, abs=1e-13)

    def test_positive_definite(self):
        rng = np.random.default_rng(14)
        w = make_weights(random_weights(rng, 4))
        for _ in range(200):
            x = rng.normal(size=4)
            assert quad_form(w, x) > 0.0

    def test_batch_shape(self):
        w = make_weights([0.3, 0.3])
        x = np.zeros((5, 2))
        assert np.asarray(quad_form(w, x)).shape == (5,)


class TestLogDensity:
    def test_scalar_value(self):
        # ln(1/sqrt(2*pi*0.25)) for the d = 1 variance p(1-p) = 0.25
        w = make_weights([0.5])
        assert log_mvn_density(w, [0.0]) == pytest.approx(-0.22579135264472744, abs=1e-15)

    def test_two_cell_value(self):
        w = make_weights([0.3, 0.3])
        expected = -0.5 * (2 * np.log(2 * np.pi) + np.log(0.036))
        assert log_mvn_density(w, [0.0, 0.0]) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_maximum_at_origin(self):
        rng = np.random.default_rng(15)
        w = make_weights([0.2, 0.3, 0.25])
        peak = log_mvn_density(w, np.zeros(3))
        xs = rng.normal(scale=0.3, size=(1000, 3))
        assert np.all(np.asarray(log_mvn_density(w, xs)) <= peak)

    def test_matches_scipy(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            w = make_weights(random_weights(rng, d))
            x = rng.normal(scale=0.2, size=d)
            oracle = scipy.stats.multivariate_normal(np.zeros(d), sigma_matrix(w)).logpdf(x)
            assert log_mvn_density(w, x) == pytest.approx(oracle, rel=1e-10, abs=1e-10)

    def test_normalization(self):
        w1 = make_weights([0.5])
        val, _ = scipy.integrate.quad(lambda x: np.exp(log_mvn_density(w1, [x])), -8, 8)
        assert val == pytest.approx(1.0, rel=1e-8, abs=0.0)
        w2 = make_weights([0.3, 0.3])
        val2, _ = scipy.integrate.dblquad(
            lambda y, x: np.exp(log_mvn_density(w2, [x, y])), -4, 4, -4, 4
        )
        assert val2 == pytest.approx(1.0, rel=1e-6, abs=0.0)
