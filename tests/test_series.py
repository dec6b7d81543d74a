"""Poisson series pricers: collapses, oracles and convergence behaviour."""

import math

import numpy as np
import pytest

from levypricer import (
    ArithmeticWeights,
    AssetParams,
    BasketParams,
    Exponential,
    Fixed,
    GeometricWeights,
    Lognormal,
    MarketState,
    RateParams,
    SimSpec,
    UnsupportedBasket,
    UnsupportedLaw,
    black_scholes_reference,
    bond_price,
    convergence_study,
    f_single,
    g_basket,
    basket_price,
    mc_option_price,
    merton_reference,
    option_price,
    w_price,
)
from levypricer.bond import gauss_legendre, loading_G

from conftest import BENCH_R0, BENCH_SPOT, BENCH_STRIKE, BENCH_TAU


class TestPoissonCollapse:
    def test_no_jumps_reduces_to_w(self, bench_state):
        rate = RateParams(k=2.0, a=0.05, sigma_r=0.05, lam=0.0, x_law=Exponential(1000.0))
        asset = AssetParams(sigma=0.05, lambda1=0.0, y_law=Fixed(1.01))
        res, report = f_single(rate, asset, bench_state)
        w = w_price(rate, asset, bench_state)
        assert res.value == w.value  # bitwise: only the (0, 0) term survives
        assert res.terms_used == (0, 0)
        assert len(report.partial_sums) == 1

    def test_unit_asset_jump_is_no_jump(self, bench_rate, bench_state):
        # Y = 1: every n-term equals the n = 0 term and the n-mass sums
        # to 1 up to the truncation tolerance.
        asset_unit = AssetParams(sigma=0.05, lambda1=1.0, y_law=Fixed(1.0))
        asset_none = AssetParams(sigma=0.05, lambda1=0.0, y_law=Fixed(1.0))
        res_unit, _ = f_single(bench_rate, asset_unit, bench_state)
        res_none, _ = f_single(bench_rate, asset_none, bench_state)
        assert res_unit.value == pytest.approx(res_none.value, abs=1e-8)

    def test_zero_rate_intensity_collapses_l(self, bench_state, bench_asset):
        rate = RateParams(k=2.0, a=0.05, sigma_r=0.05, lam=0.0, x_law=Exponential(1000.0))
        res, report = f_single(rate, bench_asset, bench_state)
        assert res.terms_used[0] == 0
        assert all(idx[0] == 0 for idx in report.indices)


class TestDegenerateOracles:
    def test_black_scholes(self, flat_rate, no_jump_asset, bench_state):
        from levypricer import black_scholes_reference

        res, _ = f_single(flat_rate, no_jump_asset, bench_state)
        fwd = black_scholes_reference(BENCH_SPOT, BENCH_STRIKE, no_jump_asset.sigma,
                                      BENCH_R0, BENCH_TAU, forward=True)
        assert abs(res.value - fwd) < 1e-8

    def test_merton_fixed_amplitude(self, flat_rate, bench_asset, bench_state):
        res, _ = f_single(flat_rate, bench_asset, bench_state)
        ours = math.exp(-BENCH_R0 * BENCH_TAU) * res.value
        merton = merton_reference(BENCH_SPOT, BENCH_STRIKE, bench_asset.sigma, BENCH_R0,
                                  BENCH_TAU, bench_asset.lambda1, bench_asset.y_law)
        assert abs(ours - merton) < 1e-8

    def test_merton_lognormal(self, flat_rate, bench_state):
        y_law = Lognormal(-0.02, 0.08)
        asset = AssetParams(sigma=0.05, lambda1=1.0, y_law=y_law)
        res, _ = f_single(flat_rate, asset, bench_state)
        ours = math.exp(-BENCH_R0 * BENCH_TAU) * res.value
        merton = merton_reference(BENCH_SPOT, BENCH_STRIKE, 0.05, BENCH_R0,
                                  BENCH_TAU, 1.0, y_law)
        assert abs(ours - merton) < 1e-8

    def test_merton_reference_limits(self):
        # No jumps: plain Black-Scholes.  Unit jumps: same for any intensity.
        from levypricer import black_scholes_reference

        bs = black_scholes_reference(110.0, 100.0, 0.05, 0.03, 1.0)
        assert merton_reference(110.0, 100.0, 0.05, 0.03, 1.0, 0.0, Fixed(1.01)) == pytest.approx(bs, rel=1e-12)
        assert merton_reference(110.0, 100.0, 0.05, 0.03, 1.0, 3.0, Fixed(1.0)) == pytest.approx(bs, rel=1e-9)


class TestOptionPrice:
    def test_zero_maturity_payoff(self, bench_rate, bench_asset):
        state = MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=0.0, strike=BENCH_STRIKE)
        res = option_price(bench_rate, bench_asset, state)
        assert res.value == BENCH_SPOT - BENCH_STRIKE

    def test_discounting_applied(self, bench_rate, bench_asset, bench_state):
        f_res, _ = f_single(bench_rate, bench_asset, bench_state)
        u = option_price(bench_rate, bench_asset, bench_state)
        b = bond_price(bench_rate, BENCH_R0, BENCH_TAU)
        assert u.value == pytest.approx(b * f_res.value, rel=1e-14)

    def test_converged_is_python_bool(self, bench_rate, bench_asset, bench_state):
        basket = BasketParams(asset1=AssetParams(sigma=0.2, lambda1=0.0, y_law=Fixed(1.0)),
                              asset2=AssetParams(sigma=0.3, lambda1=0.0, y_law=Fixed(1.0)),
                              rho=0.5, weights=GeometricWeights(0.6))
        state2 = MarketState(spot=(110.0, 100.0), r=BENCH_R0, tau=1.0, strike=100.0)
        results = [
            option_price(bench_rate, bench_asset, bench_state),
            basket_price(bench_rate, basket, state2),
            w_price(bench_rate, bench_asset, bench_state),
            mc_option_price(bench_rate, bench_asset, bench_state, SimSpec(1000, 16, seed=0)),
        ]
        for res in results:
            assert type(res.converged) is bool

    def test_tiny_strike_matches_jump_shift_identity(self, bench_rate, bench_asset):
        # For K -> 0 the series price of the asset has the closed form
        # S * exp(lam tau (mgf_X(-G) - 1) + gap): the raw jump shifts are
        # not compensated inside the series, so the martingale identity
        # holds only up to that factor.  Pinning the factor documents it.
        tau = BENCH_TAU
        state = MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=tau, strike=1e-4)
        res, _ = f_single(bench_rate, bench_asset, state)
        b = bond_price(bench_rate, BENCH_R0, tau)
        g_tau = loading_G(bench_rate, tau)
        theta = bench_rate.x_law.theta
        x, w = gauss_legendre(200)
        u = 0.5 * tau * (x + 1.0)
        g = loading_G(bench_rate, u)
        gap = -bench_rate.lam * 0.5 * tau * float(np.sum(w * g * g / (theta - g) ** 2))
        factor = math.exp(bench_rate.lam * tau * (theta / (theta - (-g_tau)) - 1.0) + gap)
        assert res.value * b / BENCH_SPOT == pytest.approx(factor, abs=2e-6)


class TestTermStructure:
    def test_terms_nonnegative_and_monotone(self, bench_rate, bench_asset, bench_state):
        _, report = f_single(bench_rate, bench_asset, bench_state)
        sums = np.array(report.partial_sums)
        assert (np.diff(sums) >= -1e-12).all()
        assert (sums >= 0.0).all()

    def test_unsupported_laws(self, bench_state):
        rate_bad = RateParams(k=2.0, a=0.05, sigma_r=0.05, lam=1.0,
                              x_law=Lognormal(0.0, 0.1))
        asset = AssetParams(sigma=0.05, lambda1=1.0, y_law=Fixed(1.01))
        with pytest.raises(UnsupportedLaw):
            f_single(rate_bad, asset, bench_state)
        rate = RateParams(k=2.0, a=0.05, sigma_r=0.05, lam=1.0, x_law=Exponential(1000.0))
        asset_bad = AssetParams(sigma=0.05, lambda1=1.0, y_law=Exponential(5.0))
        with pytest.raises(UnsupportedLaw):
            f_single(rate, asset_bad, bench_state)


class TestConvergenceStudy:
    def test_first_difference_is_first_partial(self, bench_rate, bench_asset, bench_state):
        report = convergence_study("f", bench_rate, bench_asset, bench_state, 4)
        assert report.abs_diffs[0] == report.partial_sums[0]

    def test_w_series_magnitude(self, bench_rate, bench_asset, bench_state):
        report = convergence_study("w", bench_rate, bench_asset, bench_state, 12)
        # Difference between the order-10 and order-11 truncations.
        assert report.indices[11] == (11,)
        d_10_11 = report.abs_diffs[11]
        assert d_10_11 <= 5e-4
        assert d_10_11 > 1e-6  # order 1e-4, not already converged to zero

    def test_f_series_magnitude(self, bench_rate, bench_asset, bench_state):
        report = convergence_study("f", bench_rate, bench_asset, bench_state, 9)
        assert report.indices[8] == (8, 8)
        d_77_88 = report.abs_diffs[8]
        assert d_77_88 <= 5e-4
        assert d_77_88 > 1e-6

    def test_selector_validation(self, bench_rate, bench_asset, bench_state):
        with pytest.raises(ValueError):
            convergence_study("q", bench_rate, bench_asset, bench_state, 3)
        with pytest.raises(TypeError):
            convergence_study("basket", bench_rate, bench_asset, bench_state, 3)


class TestBasket:
    def _basket(self, rho=0.5, alpha=0.6, lam1=0.0, lam2=0.0, sig1=0.2, sig2=0.3):
        a1 = AssetParams(sigma=sig1, lambda1=lam1, y_law=Fixed(1.01))
        a2 = AssetParams(sigma=sig2, lambda1=lam2, y_law=Fixed(1.02))
        return BasketParams(asset1=a1, asset2=a2, rho=rho,
                            weights=GeometricWeights(alpha))

    def test_alpha_one_reduces_to_single_asset(self, bench_rate):
        basket = self._basket(alpha=1.0, lam1=1.0, lam2=0.0)
        state2 = MarketState(spot=(110.0, 95.0), r=BENCH_R0, tau=1.0, strike=100.0)
        g_res, _ = g_basket(bench_rate, basket, state2)
        single, _ = f_single(bench_rate, basket.asset1,
                             MarketState(spot=110.0, r=BENCH_R0, tau=1.0, strike=100.0))
        assert g_res.value == pytest.approx(single.value, rel=1e-12)

    def test_perfect_correlation_collapse(self, bench_rate):
        basket = self._basket(rho=1.0, alpha=0.6, sig1=0.2, sig2=0.2)
        state2 = MarketState(spot=(110.0, 100.0), r=BENCH_R0, tau=1.0, strike=100.0)
        g_res, _ = g_basket(bench_rate, basket, state2)
        geo_spot = 110.0**0.6 * 100.0**0.4
        single, _ = f_single(bench_rate, AssetParams(sigma=0.2, lambda1=0.0, y_law=Fixed(1.0)),
                             MarketState(spot=geo_spot, r=BENCH_R0, tau=1.0, strike=100.0))
        assert abs(g_res.value - single.value) < 1e-8

    def test_arithmetic_routed_to_monte_carlo(self, bench_rate):
        a = AssetParams(sigma=0.2, lambda1=0.0, y_law=Fixed(1.0))
        basket = BasketParams(asset1=a, asset2=a, rho=0.0,
                              weights=ArithmeticWeights((0.5, 0.5)))
        state2 = MarketState(spot=(100.0, 100.0), r=BENCH_R0, tau=1.0, strike=100.0)
        with pytest.raises(UnsupportedBasket):
            g_basket(bench_rate, basket, state2)

    def test_basket_price_discounts(self, bench_rate):
        basket = self._basket()
        state2 = MarketState(spot=(110.0, 100.0), r=BENCH_R0, tau=1.0, strike=100.0)
        g_res, _ = g_basket(bench_rate, basket, state2)
        px = basket_price(bench_rate, basket, state2)
        assert px.value == pytest.approx(bond_price(bench_rate, BENCH_R0, 1.0) * g_res.value,
                                         rel=1e-14)

    def test_triple_series_with_jumps_converges(self, bench_rate):
        basket = self._basket(lam1=1.0, lam2=1.0)
        state2 = MarketState(spot=(110.0, 100.0), r=BENCH_R0, tau=1.0, strike=100.0)
        res, report = g_basket(bench_rate, basket, state2)
        assert res.converged
        assert report.abs_diffs[-1] < 1e-6


class TestAnalyticBoundary:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_mean_reversion_no_volatility(self, no_jump_asset, bench_state):
        # k = sigma_r = 0 with no rate jumps holds r fixed: Black-Scholes at r.
        rate = RateParams(k=0.0, a=0.03, sigma_r=0.0, lam=0.0, x_law=Fixed(0.0))
        ref = black_scholes_reference(BENCH_SPOT, BENCH_STRIKE, no_jump_asset.sigma,
                                      BENCH_R0, BENCH_TAU)
        res = option_price(rate, no_jump_asset, bench_state)
        assert res.converged
        assert abs(res.value - ref) < 1e-8

    def test_invalid_inputs_rejected(self, bench_rate, bench_asset):
        from levypricer import InvalidParameter, p_terms

        good = MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=BENCH_TAU, strike=BENCH_STRIKE)
        bad_asset = AssetParams(sigma=-0.05, lambda1=1.0, y_law=Fixed(1.01))
        bad_states = [MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=BENCH_TAU, strike=-10.0),
                      MarketState(spot=float("nan"), r=BENCH_R0, tau=BENCH_TAU,
                                  strike=BENCH_STRIKE)]
        for pricer in (option_price, f_single, w_price, p_terms):
            with pytest.raises(InvalidParameter):
                pricer(bench_rate, bad_asset, good)
            for state in bad_states:
                with pytest.raises(InvalidParameter):
                    pricer(bench_rate, bench_asset, state)
        leg = AssetParams(sigma=0.2, lambda1=0.0, y_law=Fixed(1.0))
        bad_basket = BasketParams(asset1=leg, asset2=bad_asset, rho=0.5,
                                  weights=GeometricWeights(0.6))
        good2 = MarketState(spot=(110.0, 100.0), r=BENCH_R0, tau=1.0, strike=100.0)
        bad2 = MarketState(spot=(110.0, float("nan")), r=BENCH_R0, tau=1.0, strike=100.0)
        basket = BasketParams(asset1=leg, asset2=leg, rho=0.5, weights=GeometricWeights(0.6))
        for pricer in (basket_price, g_basket):
            with pytest.raises(InvalidParameter):
                pricer(bench_rate, bad_basket, good2)
            with pytest.raises(InvalidParameter):
                pricer(bench_rate, basket, bad2)

    def test_coefficient_cap_reaches_converged_flag(self, bench_rate, bench_asset):
        # At tau = 4.0 the coefficient table is cut at COEFF_CAP below the
        # 4.328 radius; at 3.5 it converges within it.
        for tau, expected in ((3.5, True), (4.0, False)):
            state = MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=tau, strike=BENCH_STRIKE)
            assert option_price(bench_rate, bench_asset, state).converged is expected
            assert w_price(bench_rate, bench_asset, state).converged is expected
        leg = AssetParams(sigma=0.2, lambda1=0.0, y_law=Fixed(1.0))
        basket = BasketParams(asset1=leg, asset2=leg, rho=0.5, weights=GeometricWeights(0.6))
        state2 = MarketState(spot=(110.0, 100.0), r=BENCH_R0, tau=4.0, strike=100.0)
        assert basket_price(bench_rate, basket, state2).converged is False
