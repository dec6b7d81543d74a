"""sigma_r = 0 loadings: the closed form D = -i phi G against the RK4 oracle.

At sigma_r = 0 the Riccati equation is linear, D' = i phi - k D, so
D = -i phi G(u) exactly and B is the same 64-node Gauss-Legendre
integral as on the series path.  The fourth-order integration
``bd_ode_many`` stays the independent oracle; no pricer may need it.
"""

import cmath
import math

import numpy as np
import pytest

from levypricer import (
    AssetParams,
    BasketParams,
    Exponential,
    Fixed,
    GeometricWeights,
    MarketState,
    RateParams,
    basket_price,
    black_scholes_reference,
    charfn_eval,
    merton_reference,
    option_price,
    w_price,
)
from levypricer import B_eval, D_eval, DegenerateVolatility, RadiusExceeded, make_expansion
from levypricer import charfn, fourier
from levypricer.bond import integral_of_G
from levypricer.charfn import bd_ode_many, bd_series_many, radius_bound

from conftest import BENCH_R0, BENCH_SPOT, BENCH_STRIKE, BENCH_TAU

PHIS = np.linspace(0.1, 100.0, 25)
FREQS = np.concatenate([PHIS, PHIS - 1j]).astype(complex)  # phi and phi - i


def _flat(lam=0.0, x_law=Fixed(0.0), a=0.05):
    return RateParams(k=2.0, a=a, sigma_r=0.0, lam=lam, x_law=x_law)


@pytest.mark.parametrize("x_law", [Exponential(1000.0), Fixed(0.002)], ids=["exp", "fixed"])
@pytest.mark.parametrize("tau", [0.5, 1.0, 5.0])
def test_closed_form_matches_rk4_oracle(x_law, tau):
    rate = _flat(lam=1.0, x_law=x_law)
    b_s, d_s, ok = bd_series_many(rate, 0.2, FREQS, tau, return_converged=True)
    # Rounding, not truncation, limits the oracle here: its default 10,000
    # steps agree to ~2e-13 in D, 20,000 steps to ~2.4e-13.
    b_o, d_o = bd_ode_many(rate, 0.2, FREQS, tau)
    assert ok.all()
    assert np.max(np.abs(d_s - d_o)) <= 1e-11
    # The oracle's B accumulates ~3e-13 relative rounding over its steps.
    assert np.all(np.abs(b_s - b_o) <= 1e-11 * (1.0 + np.abs(b_o)))


@pytest.mark.parametrize("tau", [0.5, 1.0, 5.0])
def test_closed_form_b_is_exact_without_jumps(tau):
    rate, sigma = _flat(), 0.2
    b, d = bd_series_many(rate, sigma, FREQS, tau)
    exact_b = (rate.k * rate.a * (-1j * FREQS) * integral_of_G(rate, tau)
               - 0.5 * sigma**2 * (FREQS**2 + 1j * FREQS) * tau)
    assert np.max(np.abs(b - exact_b)) <= 1e-13
    exact_d = 1j * FREQS * (1.0 - math.exp(-rate.k * tau)) / rate.k
    assert np.max(np.abs(d - exact_d)) <= 1e-13


def test_sigma_r_zero_pricers_never_call_the_oracle(monkeypatch):
    def oracle_called(*args, **kwargs):
        raise AssertionError("a pricer called the RK4 oracle")

    monkeypatch.setattr(charfn, "bd_ode_many", oracle_called)
    fourier.call_transform.cache_clear()
    rate = _flat(a=BENCH_R0)
    state = MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=BENCH_TAU, strike=BENCH_STRIKE)
    plain = AssetParams(sigma=0.05, lambda1=0.0, y_law=Fixed(1.0))
    jumpy = AssetParams(sigma=0.05, lambda1=1.0, y_law=Fixed(1.01))

    bs = black_scholes_reference(BENCH_SPOT, BENCH_STRIKE, 0.05, BENCH_R0, BENCH_TAU,
                                 forward=True)
    assert w_price(rate, plain, state).value == pytest.approx(bs, abs=1e-8)
    merton = merton_reference(BENCH_SPOT, BENCH_STRIKE, 0.05, BENCH_R0, BENCH_TAU,
                              1.0, Fixed(1.01))
    assert option_price(rate, jumpy, state).value == pytest.approx(merton, abs=1e-8)

    # rho = 1 with equal assets: the geometric basket is the single asset
    # at the geometric spot.
    basket = BasketParams(asset1=plain, asset2=plain, rho=1.0, weights=GeometricWeights(0.6))
    spots = (110.0, 100.0)
    geo = MarketState(spot=110.0**0.6 * 100.0**0.4, r=BENCH_R0, tau=BENCH_TAU,
                      strike=BENCH_STRIKE)
    got = basket_price(rate, basket, MarketState(spot=spots, r=BENCH_R0, tau=BENCH_TAU,
                                                 strike=BENCH_STRIKE)).value
    assert got == pytest.approx(option_price(rate, plain, geo).value, abs=1e-8)

    # Flat rate: f is the lognormal characteristic function.
    phi, z = 2.0, math.log(BENCH_SPOT)
    mean = z + (BENCH_R0 - 0.5 * 0.05**2) * BENCH_TAU
    expected = cmath.exp(1j * phi * mean - 0.5 * phi**2 * 0.05**2 * BENCH_TAU)
    assert abs(charfn_eval(rate, plain, phi, BENCH_TAU, z, BENCH_R0) - expected) < 1e-12


def test_single_frequency_wrappers_at_sigma_r_zero(monkeypatch):
    # B is a loading and takes the closed form; D_eval and make_expansion
    # are series objects and refuse before building any coefficient.
    rate, asset = _flat(), AssetParams(sigma=0.2, lambda1=0.0, y_law=Fixed(1.0))
    b, _ = bd_series_many(rate, 0.2, np.array([2.0 + 0j]), 1.0)
    assert B_eval(rate, asset, 2.0, 1.0) == b[0]

    def table_built(*args, **kwargs):
        raise AssertionError("coefficient table built before the guard")

    monkeypatch.setattr(charfn, "_coeff_table", table_built)
    with pytest.raises(DegenerateVolatility):
        D_eval(rate, np.array([1.0, 0.0]), 1.0)
    with pytest.raises(DegenerateVolatility):
        make_expansion(rate, asset, 2.0, 1.0)
    series_rate = RateParams(k=2.0, a=0.05, sigma_r=0.1, lam=0.0, x_law=Fixed(0.0))
    with pytest.raises(RadiusExceeded):
        make_expansion(series_rate, asset, 2.0, radius_bound(series_rate) + 0.1)
