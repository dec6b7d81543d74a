"""Characteristic function: series vs independent ODE integration.

The power-series path and the fixed-step Riccati integration are fully
independent code paths; their agreement on a frequency grid carries the
correctness weight here, together with the martingale identity
f(-i) * bond = S that pins the sign conventions.
"""

import cmath
import math

import numpy as np
import pytest

from levypricer import (
    AssetParams,
    DegenerateVolatility,
    DenominatorVanishing,
    Exponential,
    Fixed,
    RadiusExceeded,
    RateParams,
    bond_price,
    charfn_eval,
    coeff_recurrence,
    make_expansion,
    radius_bound,
    riccati_oracle,
)
from levypricer.bond import gauss_legendre, loading_G
from levypricer import charfn
from levypricer.charfn import D_eval, B_eval, bd_ode_many, bd_series_many

from conftest import BENCH_R0, BENCH_SPOT, BENCH_TAU


def _rate(k=2.0, a=0.05, sigma_r=0.05, lam=1.0, theta=1000.0):
    return RateParams(k=k, a=a, sigma_r=sigma_r, lam=lam, x_law=Exponential(theta))


# ---------------------------------------------------------------------------
# Convergence radius
# ---------------------------------------------------------------------------


class TestRadiusBound:
    def test_benchmark_regression_value(self):
        # Direct evaluation of (1/m) sqrt(ln((m-k)/(m+k))^2 + pi^2) at
        # m = sqrt(4 + 2 * 0.0025), frozen at 30-digit precision.
        assert radius_bound(_rate()) == pytest.approx(4.32797749665386, rel=1e-13)

    def test_degenerate_volatility(self):
        with pytest.raises(DegenerateVolatility):
            radius_bound(_rate(sigma_r=0.0))

    def test_zero_mean_reversion(self):
        # k = 0: m = sqrt(2) sigma_r, log term vanishes -> pi / (sqrt(2) sigma_r).
        p = RateParams(k=0.0, a=0.05, sigma_r=1.0, lam=0.0, x_law=Fixed(0.0))
        assert radius_bound(p) == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-14)

    def test_root_test_confirms_radius(self):
        # |a_n|^(-1/n) estimates the true convergence radius of the
        # denominator series; it must approach the bound formula.
        p = _rate()
        coeffs = coeff_recurrence(p, 3.0, 120)
        mags = np.abs(coeffs[2:])
        n = np.arange(2, 121)
        estimates = mags[-30:] ** (-1.0 / n[-30:])
        assert np.median(estimates) == pytest.approx(radius_bound(p), rel=0.05)

    def test_guard_raises_beyond_bound(self):
        p = _rate()
        bad_tau = radius_bound(p) + 0.1
        with pytest.raises(RadiusExceeded):
            D_eval(p, coeff_recurrence(p, 1.0, 10), bad_tau)
        asset = AssetParams(sigma=0.05, lambda1=0.0, y_law=Fixed(1.0))
        with pytest.raises(RadiusExceeded):
            charfn_eval(p, asset, 1.0, bad_tau, math.log(100.0), 0.03)


# ---------------------------------------------------------------------------
# Recurrence coefficients
# ---------------------------------------------------------------------------


class TestCoefficients:
    def test_first_terms(self):
        p = _rate()
        phi = 3.0
        coeffs = coeff_recurrence(p, phi, 6)
        assert coeffs[0] == 1.0
        assert coeffs[1] == 0.0
        # Hand expansion at n = 0: only the i phi sigma_r^2 m a_0 term
        # survives, so a_2 = -i phi sigma_r^2 / 4.
        assert coeffs[2] == pytest.approx(-1j * phi * p.sigma_r**2 / 4.0, rel=1e-14)

    def test_zero_frequency_collapses(self):
        coeffs = coeff_recurrence(_rate(), 0.0, 12)
        assert np.allclose(coeffs[2:], 0.0)

    def test_sigma_r_zero_rejected(self):
        with pytest.raises(DegenerateVolatility):
            coeff_recurrence(_rate(sigma_r=0.0), 1.0, 8)

    def test_expansion_record(self):
        p = _rate()
        asset = AssetParams(sigma=0.05, lambda1=1.0, y_law=Fixed(1.01))
        exp_rec = make_expansion(p, asset, 2.0, 1.0)
        assert exp_rec.coeffs[0] == 1.0 and exp_rec.coeffs[1] == 0.0
        assert exp_rec.converged
        assert exp_rec.N + 1 == exp_rec.coeffs.shape[0]
        # c_j = m^j / j!
        assert exp_rec.c[3] == pytest.approx(p.m**3 / 6.0, rel=1e-14)

    def test_expansion_builds_one_table(self, monkeypatch):
        p = _rate()
        asset = AssetParams(sigma=0.05, lambda1=1.0, y_law=Fixed(1.01))
        table = charfn._coeff_table
        calls = []
        monkeypatch.setattr(charfn, "_coeff_table",
                            lambda *args, **kw: calls.append(1) or table(*args, **kw))
        for phi in (2.0, 0.5 - 1j):
            calls.clear()
            rec = make_expansion(p, asset, phi, 1.0)
            assert len(calls) == 1
            assert rec.B == B_eval(p, asset, phi, 1.0)
            assert rec.D == D_eval(p, rec.coeffs, 1.0)


# ---------------------------------------------------------------------------
# D and B loadings
# ---------------------------------------------------------------------------


class TestLoadings:
    def test_d_zero_tau(self):
        p = _rate()
        assert D_eval(p, coeff_recurrence(p, 2.0, 10), 0.0) == 0.0

    def test_d_small_tau_slope(self):
        # D ~ i phi tau - (k/2) i phi tau^2 + O(tau^3)
        p = _rate()
        phi, tau = 4.0, 1e-4
        d = D_eval(p, coeff_recurrence(p, phi, 10), tau)
        assert abs(d - 1j * phi * tau) <= 0.6 * p.k * phi * tau**2

    def test_b_zero_cases(self, bench_asset):
        p = _rate()
        assert B_eval(p, bench_asset, 2.0, 0.0) == 0.0
        assert abs(B_eval(p, bench_asset, 0.0, 1.0)) < 1e-14

    def test_denominator_vanishing_guard(self):
        p = _rate()
        coeffs = np.zeros(4, dtype=complex)  # contrived: h identically 0
        with pytest.raises(DenominatorVanishing):
            D_eval(p, coeffs, 1.0)

    @pytest.mark.parametrize("tau", [0.1, 1.0, 3.5])
    def test_matmul_evaluation_matches_horner(self, tau):
        # polyval's Horner scheme on the same tables, at the B integral's nodes
        # and at tau.  At tau = 3.5 the h' series cancels ~1e3-fold at large
        # phi, which leaves either evaluation ~1e-13 from the exact sum; both
        # are held to the sum of the terms' moduli, the bound any summation
        # order obeys, and h, which does not cancel, also to 1e-13 of itself.
        polyval = np.polynomial.polynomial.polyval
        x, _ = gauss_legendre(charfn.TIME_NODES)
        phis = np.linspace(0.05, 200.0, 400)
        for shifted in (phis.astype(complex), phis - 1j):
            table, converged = charfn._coeff_table(_rate(), shifted, tau)
            assert converged.all()
            slope = table[1:] * np.arange(1, table.shape[0])[:, None]
            for t in (0.5 * tau * (x + 1.0), tau):
                h, hp = charfn._h_and_deriv(table, t)
                assert h.shape == hp.shape == (phis.size,) + np.shape(t)
                ref = polyval(t, table)
                assert np.max(np.abs(h - ref) / np.abs(ref)) <= 1e-13
                assert np.max(np.abs(h - ref) / polyval(t, np.abs(table))) <= 1e-14
                assert np.max(np.abs(hp - polyval(t, slope)) / polyval(t, np.abs(slope))) <= 1e-14

    def test_matmul_evaluation_beyond_float_powers(self):
        # Radius ~97: at tau = 50 the 200-term table's a_n tau^n are finite
        # though tau^200 is not; Horner's scheme never forms tau^n.
        p = RateParams(k=0.05, a=0.05, sigma_r=0.01, lam=0.0, x_law=Fixed(0.0))
        coeffs = coeff_recurrence(p, 2.0, 200)
        polyval = np.polynomial.polynomial.polyval
        slope = polyval(50.0, coeffs[1:] * np.arange(1, 201))
        horner = -2.0 * slope / (p.sigma_r**2 * polyval(50.0, coeffs))
        assert abs(D_eval(p, coeffs, 50.0) - horner) <= 1e-12 * abs(horner)

    def test_scalar_time_shapes(self):
        p = _rate()
        coeffs = coeff_recurrence(p, 2.0, 10)
        h, hp = charfn._h_and_deriv(coeffs, 1.0)
        assert np.ndim(h) == np.ndim(hp) == 0
        assert charfn._h_and_deriv(coeffs, np.array([0.5, 1.0]))[0].shape == (2,)
        assert charfn._h_and_deriv(coeffs[:, None], 1.0)[1].shape == (1,)
        assert np.ndim(D_eval(p, coeffs, 1.0)) == 0
        rec = make_expansion(p, AssetParams(sigma=0.05, lambda1=1.0, y_law=Fixed(1.01)), 2.0, 1.0)
        assert type(rec.D) is complex and type(rec.B) is complex


# ---------------------------------------------------------------------------
# Series vs the independent integration
# ---------------------------------------------------------------------------


class TestSeriesVsOracle:
    def test_grid_agreement(self, bench_rate, bench_asset):
        phis = np.linspace(0.1, 100.0, 200)
        b_s, d_s = bd_series_many(bench_rate, bench_asset.sigma, phis.astype(complex), 1.0)
        b_o, d_o = bd_ode_many(bench_rate, bench_asset.sigma, phis.astype(complex), 1.0)
        z, r = math.log(BENCH_SPOT), BENCH_R0
        f_s = np.exp(b_s + d_s * r + 1j * phis * z)
        f_o = np.exp(b_o + d_o * r + 1j * phis * z)
        assert np.max(np.abs(f_s - f_o)) < 1e-8

    def test_point_values(self, bench_rate, bench_asset):
        z, r = math.log(BENCH_SPOT), BENCH_R0
        for phi in (1.0, 5.0, 20.0):
            f_s = charfn_eval(bench_rate, bench_asset, phi, 1.0, z, r)
            f_o = riccati_oracle(bench_rate, bench_asset, phi, 1.0, z, r)
            assert abs(f_s - f_o) < 1e-8

    def test_oracle_linear_case(self):
        # sigma_r = 0, lam = 0: D = i phi (1 - e^{-k tau}) / k exactly.
        p = _rate(sigma_r=0.0, lam=0.0)
        asset = AssetParams(sigma=0.05, lambda1=0.0, y_law=Fixed(1.0))
        phi, tau = 3.0, 1.0
        _, d = bd_ode_many(p, asset.sigma, np.array([phi], dtype=complex), tau)
        expected = 1j * phi * (1 - math.exp(-p.k * tau)) / p.k
        assert abs(d[0] - expected) < 1e-10

    def test_oracle_error_estimate(self, bench_rate, bench_asset):
        val, err = riccati_oracle(bench_rate, bench_asset, 5.0, 1.0,
                                  math.log(BENCH_SPOT), BENCH_R0, return_error=True)
        assert err < 1e-10
        assert abs(val) <= 1.0 + 1e-12

    def test_oracle_normalisation(self, bench_rate, bench_asset):
        assert riccati_oracle(bench_rate, bench_asset, 0.0, 1.0,
                              math.log(BENCH_SPOT), BENCH_R0) == 1.0 + 0.0j


# ---------------------------------------------------------------------------
# Characteristic-function properties
# ---------------------------------------------------------------------------


class TestCharFnProperties:
    def test_normalisation(self, bench_rate, bench_asset):
        assert charfn_eval(bench_rate, bench_asset, 0.0, 1.0, math.log(100.0), 0.03) == 1.0 + 0.0j

    def test_modulus_bounded(self, bench_rate, bench_asset):
        phis = np.linspace(0.0, 200.0, 101)[1:]
        b, d = bd_series_many(bench_rate, bench_asset.sigma, phis.astype(complex), 1.0)
        f = np.exp(b + d * BENCH_R0 + 1j * phis * math.log(BENCH_SPOT))
        assert (np.abs(f) <= 1.0 + 1e-12).all()

    def test_hermitian_symmetry(self, bench_rate, bench_asset):
        z, r = math.log(BENCH_SPOT), BENCH_R0
        for phi in (0.5, 3.0, 17.0):
            f_pos = charfn_eval(bench_rate, bench_asset, phi, 1.0, z, r)
            f_neg = charfn_eval(bench_rate, bench_asset, -phi, 1.0, z, r)
            assert f_neg == pytest.approx(f_pos.conjugate(), rel=1e-12)

    def test_sigma_r_zero_falls_back_to_ode(self):
        p = _rate(sigma_r=0.0, lam=0.0, a=BENCH_R0)
        asset = AssetParams(sigma=0.05, lambda1=0.0, y_law=Fixed(1.0))
        # Flat rate: f is exactly the lognormal characteristic function.
        phi, tau, z, r = 2.0, 1.0, math.log(BENCH_SPOT), BENCH_R0
        f = charfn_eval(p, asset, phi, tau, z, r)
        mean = z + (r - 0.5 * asset.sigma**2) * tau
        expected = cmath.exp(1j * phi * mean - 0.5 * phi**2 * asset.sigma**2 * tau)
        assert abs(f - expected) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_mean_reversion_no_volatility(self):
        # k = sigma_r = 0 holds r fixed: f is the lognormal one at drift r.
        p = _rate(k=0.0, sigma_r=0.0, lam=0.0, a=BENCH_R0)
        asset = AssetParams(sigma=0.05, lambda1=0.0, y_law=Fixed(1.0))
        phi, tau, z, r = 2.0, 1.0, math.log(BENCH_SPOT), BENCH_R0
        f = charfn_eval(p, asset, phi, tau, z, r)
        mean = z + (r - 0.5 * asset.sigma**2) * tau
        expected = cmath.exp(1j * phi * mean - 0.5 * phi**2 * asset.sigma**2 * tau)
        assert abs(f - expected) < 1e-12


# ---------------------------------------------------------------------------
# Martingale identity f(-i) * bond = spot
# ---------------------------------------------------------------------------


def _jensen_gap(rate: RateParams, tau: float) -> float:
    """Closed-form gap of the identity for an Exponential jump law.

    The auxiliary model folds the rate jumps into a drift; the residual
    on ln(f(-i) b / S) is -lam * int_0^tau G^2/(theta - G)^2 du.
    """
    x, w = gauss_legendre(200)
    u = 0.5 * tau * (x + 1.0)
    g = loading_G(rate, u)
    theta = rate.x_law.theta
    return -rate.lam * 0.5 * tau * float(np.sum(w * g * g / (theta - g) ** 2))


class TestMartingaleIdentity:
    def test_benchmark_value_and_gap(self, bench_rate, bench_asset, bench_state):
        tau, r, spot = bench_state.tau, bench_state.r, bench_state.spot
        f_mi = charfn_eval(bench_rate, bench_asset, -1j, tau, math.log(spot), r)
        b = bond_price(bench_rate, r, tau)
        rel = f_mi.real * b / spot - 1.0
        assert abs(rel) < 1e-6
        # The residual is not zero: it equals the drift-substitution gap.
        assert rel == pytest.approx(_jensen_gap(bench_rate, tau), rel=1e-3, abs=1e-12)

    def test_parameter_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            rate = RateParams(
                k=rng.uniform(0.8, 3.0),
                a=rng.uniform(0.01, 0.08),
                sigma_r=rng.uniform(0.02, 0.2),
                lam=rng.uniform(0.0, 1.5),
                x_law=Exponential(rng.uniform(1000.0, 5000.0)),
            )
            asset = AssetParams(sigma=rng.uniform(0.05, 0.4), lambda1=0.0, y_law=Fixed(1.0))
            spot = rng.uniform(50.0, 150.0)
            r0 = rng.uniform(0.005, 0.08)
            for tau in (0.25, 0.5, 1.0):
                f_mi = charfn_eval(rate, asset, -1j, tau, math.log(spot), r0)
                b = bond_price(rate, r0, tau)
                assert abs(f_mi.real * b - spot) / spot < 1e-6
