"""Bond loadings against the Riccati ODE and the classical CIR closed form."""

import math

import numpy as np
from scipy.integrate import trapezoid
import pytest

from levypricer import Exponential, Fixed, Lognormal, RateParams, bond_price, cir_bond_price
from levypricer.bond import bond_loading, integral_of_G, loading_A, loading_G


def _rate(k=2.0, a=0.05, sigma_r=0.05, lam=1.0, x_law=None):
    return RateParams(k=k, a=a, sigma_r=sigma_r, lam=lam,
                      x_law=x_law if x_law is not None else Exponential(1000.0))


def _solve_g_ode(k: float, sigma_r: float, s: float, n: int = 20_000) -> float:
    """Independent fourth-order integration of dG/ds = -1 - kG + (1/2) s_r^2 G^2."""
    f = lambda g: -1.0 - k * g + 0.5 * sigma_r**2 * g * g
    h = s / n
    g = 0.0
    for _ in range(n):
        k1 = f(g)
        k2 = f(g + 0.5 * h * k1)
        k3 = f(g + 0.5 * h * k2)
        k4 = f(g + h * k3)
        g += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return g


class TestLoadingG:
    def test_zero_maturity(self):
        assert loading_G(_rate(), 0.0) == 0.0

    def test_long_maturity_limit(self):
        p = _rate()
        assert abs(loading_G(p, 50.0) - (-2.0 / (p.k + p.m))) < 1e-10

    def test_matches_riccati_ode(self):
        g = loading_G(_rate(), 1.0)
        assert abs(g - _solve_g_ode(2.0, 0.05, 1.0)) < 1e-10

    def test_strictly_decreasing_and_bounded(self):
        p = _rate()
        s = np.linspace(0.0, 10.0, 200)
        g = loading_G(p, s)
        assert (np.diff(g) < 0).all()
        assert (g >= -2.0 / (p.k + p.m) - 1e-15).all()

    def test_small_s_series(self):
        # G = -s + k s^2/2 + O(s^3)
        for s in (1e-10, 1e-8, 1e-4):
            assert loading_G(_rate(), s) == pytest.approx(-s, rel=1e-3, abs=1e-20)

    def test_ode_residual_on_grid(self):
        # Centered finite differences of the closed form against the ODE.
        p = _rate()
        s = np.linspace(0.01, 3.0, 100)
        h = 1e-5
        dg = (loading_G(p, s + h) - loading_G(p, s - h)) / (2 * h)
        g = loading_G(p, s)
        residual = dg - (-1.0 - p.k * g + 0.5 * p.sigma_r**2 * g * g)
        assert np.max(np.abs(residual)) < 1e-6


class TestLoadingA:
    def test_zero_maturity(self):
        assert loading_A(_rate(), 0.0) == 0.0

    def test_reduces_to_cir_without_jumps(self):
        for k in (0.5, 2.0):
            for sigma_r in (0.05, 0.3):
                p = _rate(k=k, sigma_r=sigma_r, lam=0.0)
                for tau in (0.25, 1.0, 3.0):
                    ours = bond_price(p, 0.03, tau)
                    cir = cir_bond_price(k, 0.05, sigma_r, 0.03, tau)
                    assert abs(ours / cir - 1.0) < 1e-10

    def test_node_doubling_converged(self):
        p = _rate()
        a64 = loading_A(p, 1.0, n_nodes=64, check=False)
        a128 = loading_A(p, 1.0, n_nodes=128, check=False)
        assert abs(a64 - a128) < 1e-12

    def test_residual_of_a_ode(self):
        # dA/ds = (k a - lam C_X) G(s) + lam (mgf(G(s)) - 1)
        p = _rate()
        h = 1e-5
        for s in (0.3, 1.0, 2.5):
            da = (loading_A(p, s + h) - loading_A(p, s - h)) / (2 * h)
            g = loading_G(p, s)
            rhs = (p.k * p.a - p.lam * p.c_x) * g + p.lam * (float(p.x_law.mgf(g)) - 1.0)
            assert abs(da - rhs) < 1e-6

    def test_integral_of_g_against_quadrature(self):
        p = _rate(k=0.7, sigma_r=0.2)
        s = 2.0
        grid = np.linspace(0.0, s, 200_001)
        brute = trapezoid(loading_G(p, grid), grid)
        assert integral_of_G(p, s) == pytest.approx(brute, abs=1e-9)

    def test_sigma_r_zero_branch(self):
        p = _rate(sigma_r=0.0, lam=0.0)
        s = 1.3
        expected = -(s - (1 - math.exp(-p.k * s)) / p.k) / p.k
        assert integral_of_G(p, s) == pytest.approx(expected, rel=1e-13)

    def test_lognormal_jump_integral(self):
        # Numeric-law path: same integral via dense trapezoid as oracle.
        p = _rate(lam=0.8, x_law=Lognormal(-7.0, 0.3))
        s = 1.0
        grid = np.linspace(1e-9, s, 20_001)
        g = loading_G(p, grid)
        phi = np.array([float(p.x_law.mgf(gi)) - 1.0 for gi in g])
        brute = (p.k * p.a - p.lam * p.c_x) * integral_of_G(p, s) + p.lam * trapezoid(phi, grid)
        assert loading_A(p, s) == pytest.approx(brute, abs=1e-8)


class TestBondPrice:
    def test_unit_at_maturity(self):
        for r in (-0.01, 0.0, 0.03, 0.2):
            assert bond_price(_rate(), r, 0.0) == 1.0

    def test_in_unit_interval_and_decreasing_in_r(self):
        p = _rate()
        rs = np.linspace(0.0, 0.15, 30)
        prices = np.array([bond_price(p, r, 1.0) for r in rs])
        assert ((prices > 0.0) & (prices <= 1.0)).all()
        assert (np.diff(prices) < 0).all()

    def test_loading_bundle(self):
        p = _rate()
        loadings = bond_loading(p)
        assert loadings.G(0.0) == 0.0
        assert loadings.A(0.0) == 0.0
        assert loadings.m == p.m
        assert loadings.G(1.0) == loading_G(p, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_mean_reversion_no_volatility(self):
        # k = sigma_r = 0 gives m = 0, where both closed forms are 0/0:
        # the limits G = -s and int G = -s^2/2 leave b = exp(-r s).
        p = RateParams(k=0.0, a=0.03, sigma_r=0.0, lam=0.0, x_law=Fixed(0.0))
        s = np.array([0.0, 0.5, 2.0])
        assert np.array_equal(loading_G(p, s), -s)
        assert np.array_equal(integral_of_G(p, s), -0.5 * s * s)
        for r in (0.0, 0.03, 0.2):
            assert abs(bond_price(p, r, 1.5) - math.exp(-r * 1.5)) <= 1e-14

    def test_fixed_jump_law_closed_form(self):
        # Fixed(c): jump integral is e^{G c} - 1 in closed form; compare
        # against dense quadrature of the same integrand.
        p = _rate(lam=1.5, x_law=Fixed(0.002))
        s = 1.0
        grid = np.linspace(0.0, s, 100_001)
        g = loading_G(p, grid)
        brute = (p.k * p.a - p.lam * p.c_x) * integral_of_G(p, s) \
            + p.lam * trapezoid(np.exp(g * 0.002) - 1.0, grid)
        assert loading_A(p, s) == pytest.approx(brute, abs=1e-10)
