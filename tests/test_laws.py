"""Jump laws, Poisson weights and quadrature nodes against closed forms."""

import math

import numpy as np
from scipy.integrate import trapezoid
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypricer import Exponential, Fixed, Lognormal, UnsupportedLaw
from levypricer.laws import (
    jump_sum_nodes,
    poisson_cutoff,
    poisson_weight,
    poisson_weights,
    product_law_shift,
    product_nodes,
)

ALL_LAWS = [Exponential(1000.0), Fixed(0.001), Lognormal(-0.01, 0.05)]


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


class TestTransforms:
    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.kind)
    def test_mgf_at_zero(self, law):
        assert law.mgf(0.0) == pytest.approx(1.0, abs=1e-12)
        assert abs(law.mgf_prime(0.0) - law.mean()) < 1e-12

    def test_exponential_closed_forms(self):
        law = Exponential(1000.0)
        u = -0.4
        assert law.mgf(u) == pytest.approx(1000.0 / (1000.0 - u), rel=1e-14)
        assert law.mgf_prime(u) == pytest.approx(1000.0 / (1000.0 - u) ** 2, rel=1e-14)
        with pytest.raises(ValueError):
            law.mgf(1000.0)

    def test_lognormal_mgf_domain(self):
        law = Lognormal(0.0, 0.1)
        with pytest.raises(ValueError):
            law.mgf(0.5)
        # Against a brute-force integral of the lognormal density.
        u = -2.0
        x = np.linspace(1e-9, 10.0, 400_001)
        pdf = np.exp(-((np.log(x) - 0.0) ** 2) / (2 * 0.1**2)) / (x * 0.1 * math.sqrt(2 * math.pi))
        brute = trapezoid(np.exp(u * x) * pdf, x)
        assert law.mgf(u) == pytest.approx(brute, rel=1e-6)

    @pytest.mark.parametrize("method", ["mgf", "mgf_prime"])
    def test_lognormal_mgf_rejects_complex(self, method):
        # A real cast would drop the imaginary part and return the value at -1.
        with pytest.raises(UnsupportedLaw):
            getattr(Lognormal(0.0, 0.1), method)(np.array([-1.0 + 1.0j]))

    @settings(max_examples=50, deadline=None)
    @given(law=st.one_of(st.builds(Fixed, st.floats(0.5, 2.0)),
                         st.builds(Lognormal, st.floats(-0.5, 0.5), st.floats(0.0, 0.5))),
           u=st.floats(-50.0, 50.0))
    def test_log_cf_property(self, law, u):
        assert law.log_cf(0.0) == 1.0
        assert law.log_cf(-u) == pytest.approx(np.conj(law.log_cf(u)), rel=1e-15, abs=1e-300)
        # E[Y^{i(-i)}] = E[Y]: the fold's asset factor at -i is the compensator's mean.
        assert law.log_cf(-1j) == pytest.approx(law.mean(), rel=1e-12)

    def test_exponential_has_no_log_cf(self):
        for method in (lambda law: law.log_cf(1.0), lambda law: law.log_step()):
            with pytest.raises(UnsupportedLaw, match="no n-fold product form"):
                method(Exponential(5.0))
        with pytest.raises(UnsupportedLaw, match="strictly positive"):
            Fixed(0.0).log_cf(1.0)

    def test_kind_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            Exponential(1.0, "fixed")
        assert [law.kind for law in ALL_LAWS] == ["exponential", "fixed", "lognormal"]

    @settings(max_examples=50, deadline=None)
    @given(theta=st.floats(1.0, 1e4), u_frac=st.floats(-5.0, 0.99))
    def test_exponential_mgf_property(self, theta, u_frac):
        law = Exponential(theta)
        u = u_frac * theta
        assert law.mgf(0.0) == 1.0
        assert law.mgf(u) == pytest.approx(theta / (theta - u), rel=1e-12)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


class TestSamplers:
    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.kind)
    def test_sample_mean_within_4_stderr(self, law):
        rng = np.random.default_rng(1234)
        draws = law.sample(1_000_000, rng)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - law.mean()) <= max(4 * se, 1e-15)

    def test_sample_sum_matches_counts(self):
        rng = np.random.default_rng(7)
        counts = np.array([0, 1, 5, 0, 2])
        law = Fixed(0.25)
        assert np.allclose(law.sample_sum(counts, rng), counts * 0.25)
        exp_law = Exponential(10.0)
        sums = exp_law.sample_sum(counts, rng)
        assert sums[0] == 0.0 and sums[3] == 0.0 and (sums[[1, 2, 4]] > 0).all()

    def test_log_product_lognormal_law(self):
        rng = np.random.default_rng(99)
        law = Lognormal(0.02, 0.1)
        counts = np.full(200_000, 3)
        logs = law.sample_log_product(counts, rng)
        assert logs.mean() == pytest.approx(3 * 0.02, abs=4 * 0.1 * math.sqrt(3) / math.sqrt(counts.size))
        assert logs.std(ddof=1) == pytest.approx(0.1 * math.sqrt(3), rel=0.02)


# ---------------------------------------------------------------------------
# Poisson weights
# ---------------------------------------------------------------------------


class TestPoissonWeights:
    def test_zero_horizon(self):
        assert poisson_weight(1.0, 0.0, 0) == 1.0
        assert poisson_weight(1.0, 0.0, 3) == 0.0

    def test_direct_factorial_value(self):
        # (1*1)^2 e^{-1} / 2! evaluated directly
        assert poisson_weight(1.0, 1.0, 2) == pytest.approx(0.18393972058572116, rel=1e-14)

    def test_large_n_finite(self):
        w = poisson_weight(2.0, 30.0, 500)
        assert 0.0 <= w < 1.0 and math.isfinite(w)

    @settings(max_examples=50, deadline=None)
    @given(rate=st.floats(0.0, 5.0), tau=st.floats(0.0, 3.0))
    def test_partial_sums_reach_one(self, rate, tau):
        w = poisson_weights(rate, tau, 60)
        assert w.sum() >= 1.0 - 1e-10
        assert (w >= 0.0).all()

    def test_cutoff_matches_mass(self):
        n = poisson_cutoff(1.0, 1.0, 1e-10)
        w = poisson_weights(1.0, 1.0, n)
        assert w.sum() >= 1.0 - 1e-10
        assert poisson_weights(1.0, 1.0, n - 1).sum() < 1.0 - 1e-10


# ---------------------------------------------------------------------------
# Jump-sum quadrature (Erlang closed moments as oracle)
# ---------------------------------------------------------------------------


class TestJumpSumNodes:
    def test_fixed_single_node(self):
        nodes, weights = jump_sum_nodes(Fixed(0.001), 3)
        assert np.allclose(nodes, [0.003]) and np.allclose(weights, [1.0])

    @pytest.mark.parametrize("l,expected", [(1, 0.001), (5, 0.005)])
    def test_exponential_mean(self, l, expected):
        nodes, weights = jump_sum_nodes(Exponential(1000.0), l)
        tol = 1e-12 if l == 1 else 1e-10
        assert abs(weights @ nodes - expected) < tol

    @pytest.mark.parametrize("l", range(1, 11))
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_gamma_moments(self, l, p):
        theta = 1000.0
        nodes, weights = jump_sum_nodes(Exponential(theta), l)
        approx = weights @ nodes**p
        exact = math.gamma(l + p) / (math.gamma(l) * theta**p)
        assert abs(approx / exact - 1.0) < 1e-8

    def test_lognormal_rejected(self):
        with pytest.raises(UnsupportedLaw):
            jump_sum_nodes(Lognormal(0.0, 0.1), 2)

    def test_l_zero_rejected(self):
        with pytest.raises(ValueError):
            jump_sum_nodes(Fixed(0.001), 0)


# ---------------------------------------------------------------------------
# Product law shift
# ---------------------------------------------------------------------------


class TestProductLawShift:
    def test_fixed_power(self):
        law = product_law_shift(Fixed(1.01), 7)
        assert isinstance(law, Fixed)
        assert law.c == pytest.approx(1.01**7, rel=1e-15)

    @pytest.mark.parametrize("base", ALL_LAWS, ids=lambda l: l.kind)
    def test_zero_is_constant_one(self, base):
        law = product_law_shift(base, 0)
        assert isinstance(law, Fixed) and law.c == 1.0

    def test_lognormal_parameters_add(self):
        law = product_law_shift(Lognormal(0.0, 0.1), 4)
        assert isinstance(law, Lognormal)
        assert law.mu_j == pytest.approx(0.0)
        assert law.sigma_j == pytest.approx(0.2)  # variance 4 * 0.01

    def test_exponential_product_rejected(self):
        with pytest.raises(UnsupportedLaw):
            product_law_shift(Exponential(5.0), 2)

    def test_product_nodes_reproduce_mean(self):
        # E[prod Y] = E[Y]^n for i.i.d. factors
        law = Lognormal(0.01, 0.08)
        nodes, weights = product_nodes(law, 5)
        assert weights @ nodes == pytest.approx(law.mean() ** 5, rel=1e-10)
