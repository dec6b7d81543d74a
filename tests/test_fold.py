"""The folded jump series against the explicit sum over jump-shifted states.

The pricers fold both Poisson jump streams into the transform and invert
once.  The oracle here rebuilds the route they replaced from its parts:
Poisson weights, generalized Gauss-Laguerre nodes for the Erlang sums of
exponential rate jumps, Gauss-Hermite nodes for n-fold lognormal asset
products, and one call value W per (spot, r) state from ``w_values``,
each state a row of one inversion at the base state.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.special import roots_genlaguerre, roots_hermite

from levypricer import (
    AssetParams,
    BasketParams,
    Exponential,
    Fixed,
    GeometricWeights,
    Lognormal,
    MarketState,
    RateParams,
    f_single,
    g_basket,
    merton_reference,
    option_price,
    w_values,
)
from levypricer.fourier import JumpFold
from levypricer.laws import poisson_weights

from conftest import BENCH_R0, BENCH_SPOT, BENCH_STRIKE, BENCH_TAU


def _sum_nodes(x_law, l):
    """Nodes/weights for E[g(X_1 + ... + X_l)]."""
    if l == 0:
        return np.zeros(1), np.ones(1)
    if isinstance(x_law, Fixed):
        return np.array([l * x_law.c]), np.ones(1)
    assert isinstance(x_law, Exponential)
    x, w = roots_genlaguerre(32, l - 1)  # Gamma(l, theta) density
    return x / x_law.theta, w / math.gamma(l)


def _log_product_nodes(y_law, n):
    """Nodes/weights for E[g(ln(Y_1 ... Y_n))]."""
    if n == 0:
        return np.zeros(1), np.ones(1)
    if isinstance(y_law, Fixed):
        return np.array([n * math.log(y_law.c)]), np.ones(1)
    t, w = roots_hermite(64)
    return n * y_law.mu_j + math.sqrt(2.0 * n) * y_law.sigma_j * t, w / math.sqrt(math.pi)


def _state_sum(rate, sigma, spot, state, legs, tops):
    """E[W] as the weighted sum of W over every jump-shifted (spot, r) state.

    ``legs`` pairs each asset with its weight in the log price; ``tops``
    lists the Poisson truncation of the rate stream, then of each leg.
    Each state is one row of a state fold at the base state: a shift of
    (dz, dr) multiplies the transform by exp(D dr + i u dz).
    """
    tau = state.tau
    intensities = [rate.lam] + [a.lambda1 for a, _ in legs]
    p = [poisson_weights(lam, tau, top) for lam, top in zip(intensities, tops)]
    comp = math.exp(-tau * sum(alpha * a.lambda1 * (a.y_law.mean() - 1.0) for a, alpha in legs))
    dzs, drs, weights = [], [], []
    for counts in itertools.product(*(range(top + 1) for top in tops)):
        xn, xw = _sum_nodes(rate.x_law, counts[0])
        logs, yw = np.zeros(1), np.ones(1)
        for (asset, alpha), n in zip(legs, counts[1:]):
            ln, lw = _log_product_nodes(asset.y_law, n)
            logs = (logs[:, None] + alpha * ln[None, :]).ravel()
            yw = (yw[:, None] * lw[None, :]).ravel()
        mass = math.prod(pk[c] for pk, c in zip(p, counts))
        dzs.append(np.tile(logs, xn.size))
        drs.append(np.repeat(xn, logs.size))
        weights.append(mass * np.repeat(xw, logs.size) * np.tile(yw, xn.size))
    dz, dr = np.concatenate(dzs), np.concatenate(drs)

    def psi(u, d):  # one row per state: exp(d dr + i u dz)
        rows = np.multiply.outer(dr, d)
        rows += np.multiply.outer(1j * dz, u)
        return np.exp(rows, out=rows)

    w, _, _ = w_values(rate, sigma, tau, state.strike, spot * comp, state.r,
                       fold=JumpFold(psi, float(np.max(np.abs(dz)))))
    return float(np.concatenate(weights) @ w)


class TestFoldAgainstStateSum:
    def test_benchmark_fixed_jumps(self, bench_rate, bench_asset, bench_state):
        res, _ = f_single(bench_rate, bench_asset, bench_state)
        oracle = _state_sum(bench_rate, bench_asset.sigma, BENCH_SPOT, bench_state,
                            [(bench_asset, 1.0)], res.terms_used)
        assert abs(res.value - oracle) <= 1e-9 * BENCH_SPOT

    def test_lognormal_asset_jumps(self, bench_rate, bench_state):
        asset = AssetParams(sigma=0.05, lambda1=1.0, y_law=Lognormal(-0.02, 0.08))
        res, _ = f_single(bench_rate, asset, bench_state, _force_tops=(3, 3))
        assert res.terms_used == (3, 3)
        oracle = _state_sum(bench_rate, asset.sigma, BENCH_SPOT, bench_state,
                            [(asset, 1.0)], (3, 3))
        assert abs(res.value - oracle) <= 1e-8 * BENCH_SPOT

    def test_geometric_basket_jumps_on_both_legs(self, bench_rate):
        a1 = AssetParams(sigma=0.2, lambda1=1.0, y_law=Fixed(1.01))
        a2 = AssetParams(sigma=0.3, lambda1=0.7, y_law=Lognormal(-0.02, 0.08))
        alpha, rho = 0.6, 0.5
        basket = BasketParams(asset1=a1, asset2=a2, rho=rho, weights=GeometricWeights(alpha))
        state2 = MarketState(spot=(110.0, 100.0), r=BENCH_R0, tau=1.0, strike=100.0)
        res, _ = g_basket(bench_rate, basket, state2, _force_tops=(2, 3, 3))
        # The geometric basket is a single log-normal diffusion with
        # variance var_h and a drift deficit delta.
        beta = 1.0 - alpha
        var_h = (alpha * a1.sigma) ** 2 + (beta * a2.sigma) ** 2 \
            + 2.0 * rho * alpha * beta * a1.sigma * a2.sigma
        delta = 0.5 * (alpha * a1.sigma**2 + beta * a2.sigma**2) - 0.5 * var_h
        spot_h = 110.0**alpha * 100.0**beta * math.exp(-delta * state2.tau)
        oracle = _state_sum(bench_rate, math.sqrt(var_h), spot_h, state2,
                            [(a1, alpha), (a2, beta)], (2, 3, 3))
        assert abs(res.value - oracle) <= 1e-8 * 110.0

    def test_partial_sums_are_truncated_state_sums(self, bench_rate, bench_asset, bench_state):
        _, report = f_single(bench_rate, bench_asset, bench_state, _force_tops=(4, 2))
        for idx, partial in zip(report.indices, report.partial_sums):
            oracle = _state_sum(bench_rate, bench_asset.sigma, BENCH_SPOT, bench_state,
                                [(bench_asset, 1.0)], idx)
            assert abs(partial - oracle) <= 1e-9 * BENCH_SPOT


def test_merton_lognormal_strikes_and_intensities(flat_rate):
    # Flat rate, lognormal asset jumps: the classic series is exact.  The
    # state route needed 64 Hermite states per jump count for each quote.
    y_law = Lognormal(-0.02, 0.08)
    for lambda1 in (1.0, 4.0):
        asset = AssetParams(sigma=0.05, lambda1=lambda1, y_law=y_law)
        for strike in (80.0, BENCH_STRIKE, 125.0):
            state = MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=BENCH_TAU, strike=strike)
            ours = option_price(flat_rate, asset, state)
            ref = merton_reference(BENCH_SPOT, strike, 0.05, BENCH_R0, BENCH_TAU, lambda1, y_law)
            assert ours.converged
            assert ours.value == pytest.approx(ref, abs=1e-8)


def test_rate_law_unused_without_rate_jumps(bench_asset, bench_state):
    # With lam = 0 no rate jump is counted, so a law whose mgf is infinite
    # at the loadings D must not matter.
    prices = [option_price(RateParams(k=2.0, a=0.05, sigma_r=0.05, lam=0.0, x_law=law),
                           bench_asset, bench_state).value
              for law in (Exponential(1000.0), Exponential(0.3), Lognormal(0.0, 0.1))]
    assert prices[0] == prices[1] == prices[2]
