import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from snodep.distributions import (
    LAMBDA_MIN,
    SIGMA_MIN,
    DiagNormal,
    LogNormalD,
    PoissonD,
    kl_divergence,
    positive_rate,
    positive_sigma,
)
from snodep.tensor import DomainError, Tensor, backward
from snodep import tensor as T
from tests.conftest import at_index


class TestNormal:
    def test_log_prob_matches_scipy(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(size=(4, 3))
        sigma = 0.2 + rng.random((4, 3))
        x = rng.normal(size=(4, 3))
        lp = DiagNormal(mu, sigma).log_prob(x)
        ref = scipy.stats.norm.logpdf(x, mu, sigma).sum(axis=1)
        np.testing.assert_allclose(lp.values, ref, rtol=1e-12)
        assert lp.shape == (4,)

    def test_sample_is_affine_in_noise(self):
        d = DiagNormal(np.array([[1.0, 2.0]]), np.array([[0.5, 2.0]]))
        s = d.sample(np.array([[1.0, -1.0]]))
        np.testing.assert_allclose(s.values, [[1.5, 0.0]])

    def test_sample_gradient_flows(self):
        mu = Tensor(np.zeros((1, 2)), requires_grad=True)
        s = DiagNormal(mu, Tensor(np.ones((1, 2)))).sample(np.ones((1, 2)))
        backward(T.tsum(s))
        np.testing.assert_allclose(mu.grad, np.ones((1, 2)))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(DomainError):
            DiagNormal(np.zeros((1, 2)), np.array([[1.0, 0.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            DiagNormal(np.zeros((1, 2)), np.ones((1, 3)))


class TestLogNormal:
    def test_log_prob_matches_scipy(self):
        rng = np.random.default_rng(1)
        mu = rng.normal(size=(3, 2))
        sigma = 0.2 + rng.random((3, 2))
        x = np.exp(rng.normal(size=(3, 2)))
        lp = LogNormalD(mu, sigma).log_prob(x)
        ref = scipy.stats.lognorm.logpdf(x, s=sigma, scale=np.exp(mu)).sum(axis=1)
        np.testing.assert_allclose(lp.values, ref, rtol=1e-12)

    def test_sample_is_exp_of_normal_sample(self):
        d = LogNormalD(np.array([[0.3]]), np.array([[0.7]]))
        s = d.sample(np.array([[1.2]]))
        assert s.values.item() == pytest.approx(math.exp(0.3 + 0.7 * 1.2), rel=1e-12)

    def test_zero_noise_sample_is_exp_mu(self):
        d = LogNormalD(np.array([[0.3, -1.0]]), np.array([[0.7, 0.2]]))
        np.testing.assert_allclose(d.sample(np.zeros((1, 2))).values,
                                   np.exp([[0.3, -1.0]]))

    def test_rejects_nonpositive_input(self):
        with pytest.raises(DomainError):
            LogNormalD(np.zeros((1, 1)), np.ones((1, 1))).log_prob(np.array([[0.0]]))


class TestPoisson:
    def test_anchor_k0_lambda1(self):
        lp = PoissonD(np.array([[1.0]])).log_prob(np.array([[0.0]]))
        assert lp.values.item() == pytest.approx(-1.0, abs=1e-12)

    def test_anchor_k2_lambda3(self):
        # 2 ln 3 - 3 - ln 2
        lp = PoissonD(np.array([[3.0]])).log_prob(np.array([[2.0]]))
        assert lp.values.item() == pytest.approx(
            2.0 * math.log(3.0) - 3.0 - math.log(2.0), abs=1e-12)

    def test_log_prob_matches_scipy(self):
        rng = np.random.default_rng(2)
        lam = 0.1 + 5.0 * rng.random((4, 3))
        k = rng.poisson(3.0, size=(4, 3)).astype(np.float64)
        lp = PoissonD(lam).log_prob(k)
        ref = scipy.stats.poisson.logpmf(k, lam).sum(axis=1)
        np.testing.assert_allclose(lp.values, ref, rtol=1e-12)

    def test_rate_gradient_matches_scipy_derivative(self):
        lam = Tensor(np.array([[2.5]]), requires_grad=True)
        backward(PoissonD(lam).log_prob(np.array([[4.0]])))
        # d/dlam (k log lam - lam) = k/lam - 1
        assert lam.grad.item() == pytest.approx(4.0 / 2.5 - 1.0, rel=1e-12)

    def test_rejects_bad_counts(self):
        d = PoissonD(np.array([[1.0]]))
        with pytest.raises(DomainError):
            d.log_prob(np.array([[1.5]]))
        with pytest.raises(DomainError):
            d.log_prob(np.array([[-1.0]]))

    def test_rejects_infinite_count(self):
        d = PoissonD(np.full((2, 2), 2.5))
        with pytest.raises(DomainError, match="invalid count " + at_index(1, 0)):
            d.log_prob(np.array([[1.0, 2.0], [np.inf, 3.0]]))

    def test_rejects_infinite_count_at_unit_rate(self):
        # k * log(lam) is inf * 0 here, so inf must be rejected before it is formed
        d = PoissonD(np.ones((2, 2)))
        with pytest.raises(DomainError, match="invalid count " + at_index(1, 0)):
            d.log_prob(np.array([[1.0, 2.0], [np.inf, 3.0]]))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(DomainError):
            PoissonD(np.array([[0.0]]))

    def test_no_sampling_path(self):
        assert not hasattr(PoissonD(np.array([[1.0]])), "sample")


class TestKL:
    def test_anchor_identical_is_zero(self):
        d = DiagNormal(np.zeros((1, 1)), np.ones((1, 1)))
        assert abs(kl_divergence(d, d).values.item()) < 1e-12

    def test_anchor_shifted_mean_is_half(self):
        p = DiagNormal(np.ones((1, 1)), np.ones((1, 1)))
        q = DiagNormal(np.zeros((1, 1)), np.ones((1, 1)))
        assert kl_divergence(p, q).values.item() == pytest.approx(0.5, abs=1e-12)

    def test_matches_quadrature(self):
        cases = [(0.4, 0.7, -0.3, 1.5), (1.0, 0.3, 0.0, 0.3), (-2.0, 2.0, 1.0, 0.5)]
        for mp, sp, mq, sq in cases:
            kl = kl_divergence(
                DiagNormal(np.array([[mp]]), np.array([[sp]])),
                DiagNormal(np.array([[mq]]), np.array([[sq]]))).values.item()
            ref, _ = scipy.integrate.quad(
                lambda x: scipy.stats.norm.pdf(x, mp, sp)
                * (scipy.stats.norm.logpdf(x, mp, sp)
                   - scipy.stats.norm.logpdf(x, mq, sq)),
                mp - 12 * sp, mp + 12 * sp)
            assert kl == pytest.approx(ref, abs=1e-8)

    def test_sums_over_last_axis(self):
        p = DiagNormal(np.ones((2, 3)), np.ones((2, 3)))
        q = DiagNormal(np.zeros((2, 3)), np.ones((2, 3)))
        np.testing.assert_allclose(kl_divergence(p, q).values, [1.5, 1.5])

    def test_lognormal_equals_underlying_normal(self):
        mu_p, s_p = np.array([[0.2, -1.0]]), np.array([[0.5, 1.2]])
        mu_q, s_q = np.array([[0.0, 0.3]]), np.array([[1.0, 0.8]])
        kl_ln = kl_divergence(LogNormalD(mu_p, s_p), LogNormalD(mu_q, s_q))
        kl_n = kl_divergence(DiagNormal(mu_p, s_p), DiagNormal(mu_q, s_q))
        np.testing.assert_allclose(kl_ln.values, kl_n.values, rtol=1e-12)

    def test_family_mismatch(self):
        n = DiagNormal(np.zeros((1, 1)), np.ones((1, 1)))
        ln = LogNormalD(np.zeros((1, 1)), np.ones((1, 1)))
        with pytest.raises(TypeError):
            kl_divergence(n, ln)

    def test_gradient_matches_closed_form(self):
        mu = Tensor(np.array([[0.8]]), requires_grad=True)
        p = DiagNormal(mu, Tensor(np.ones((1, 1))))
        q = DiagNormal(np.zeros((1, 1)), np.ones((1, 1)))
        backward(kl_divergence(p, q))
        # d/dmu of mu^2/2 = mu
        assert mu.grad.item() == pytest.approx(0.8, rel=1e-12)


class TestPositiveHeads:
    def test_sigma_floor(self):
        out = positive_sigma(Tensor(np.array([-1e4, 0.0])))
        assert out.values[0] == pytest.approx(SIGMA_MIN, abs=1e-15)
        assert out.values[1] == pytest.approx(SIGMA_MIN + math.log(2.0), abs=1e-12)

    def test_rate_floor(self):
        out = positive_rate(Tensor(np.array([-1e4])))
        assert out.values.item() == pytest.approx(LAMBDA_MIN, abs=1e-15)

    def test_gradient_flows(self):
        raw = Tensor(np.array([0.0]), requires_grad=True)
        backward(T.tsum(positive_sigma(raw)))
        assert raw.grad.item() == pytest.approx(0.5, abs=1e-12)
