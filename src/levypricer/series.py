"""Poisson-weighted series pricers for the full jump models.

Single asset: the forward-measure expectation is expanded over the two
jump counts,

    F(S, r, tau) = sum_l sum_n P_l(tau; lam) P_n(tau; lambda1)
                   E_{l,n}[ W(S prod_{i<=n} Y_i e^{-lambda1 C_Y tau},
                             r + sum_{i<=l} X_i, tau) ],

and the option price is U = b(tau, r) * F.  The inner expectation
factorises over the independent X and Y streams: the l-fold sum of
Exponential magnitudes is Erlang (generalized Gauss-Laguerre nodes),
the n-fold product of Lognormal factors is again lognormal
(Gauss-Hermite in log space), and Fixed laws collapse to single points.

Two assets: the same expansion with a third Poisson stream, where the
geometric basket H = S1^alpha S2^(1-alpha) reduces exactly to the
one-dimensional pricer with effective volatility sigma_H and a drift
deficit delta absorbed into the spot argument.  Arithmetic baskets have
no such reduction and are routed to the Monte Carlo engine.

Merton's classic flat-rate series is kept as the degenerate-case
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .bond import bond_price
from .errors import UnsupportedBasket, UnsupportedLaw
from .fourier import w_values
from .laws import (
    Exponential,
    Fixed,
    JumpLaw,
    Lognormal,
    jump_sum_nodes,
    poisson_cutoff,
    poisson_weights,
    product_nodes,
)
from .params import (
    AssetParams,
    BasketParams,
    GeometricWeights,
    MarketState,
    PriceResult,
    QuadratureSpec,
    RateParams,
    SeriesTruncation,
)

__all__ = [
    "ConvergenceReport",
    "f_single",
    "option_price",
    "merton_reference",
    "g_basket",
    "basket_price",
    "convergence_study",
]

HARD_CAP = 60  # Poisson series hard cap, shared with poisson_cutoff
X_NODES = 32
Y_NODES = 64  # n-fold lognormal products spread with sqrt(n); 32 is not enough


@dataclass(frozen=True)
class ConvergenceReport:
    """Partial sums at increasing symmetric truncations.

    ``indices`` holds the truncation index tuple per row ((n,), (l, n)
    or (l, n, m)); ``abs_diffs[0]`` is the first partial sum itself
    (difference against the empty sum).
    """

    indices: tuple[tuple[int, ...], ...]
    partial_sums: tuple[float, ...]
    abs_diffs: tuple[float, ...]
    final_terms: tuple[int, ...]

    def rows(self):
        return list(zip(self.indices, self.partial_sums, self.abs_diffs))


def _diffs(partials: list[float]) -> list[float]:
    return [abs(p - q) for p, q in zip(partials, [0.0] + partials[:-1])]


def _check_x_law(x_law: JumpLaw) -> None:
    if not isinstance(x_law, (Exponential, Fixed)):
        raise UnsupportedLaw(
            f"rate jump law {type(x_law).__name__} has no jump-sum quadrature; "
            "use the Monte Carlo engine"
        )


def _check_y_law(y_law: JumpLaw) -> None:
    if not isinstance(y_law, (Fixed, Lognormal)):
        raise UnsupportedLaw(
            f"asset jump law {type(y_law).__name__} has no n-fold product form; "
            "use the Monte Carlo engine"
        )


def _x_blocks(x_law: JumpLaw, l_top: int, n_nodes: int) -> list[tuple[np.ndarray, np.ndarray]]:
    blocks = [(np.zeros(1), np.ones(1))]
    blocks += [jump_sum_nodes(x_law, l, n_nodes) for l in range(1, l_top + 1)]
    return blocks


def _y_blocks(y_law: JumpLaw, n_top: int, n_nodes: int) -> list[tuple[np.ndarray, np.ndarray]]:
    return [product_nodes(y_law, n, n_nodes) for n in range(n_top + 1)]


def _tops(lam: float, tau: float, cap: int, mass_tol: float,
          force: int | None) -> tuple[int, bool]:
    """Truncation index and whether the Poisson mass criterion was met."""
    cap = min(cap, HARD_CAP)
    if force is not None:
        top = min(force, HARD_CAP)
    else:
        top = poisson_cutoff(lam, tau, mass_tol, cap)
    mass_ok = bool(poisson_weights(lam, tau, top).sum() >= 1.0 - mass_tol)
    return top, mass_ok


def f_single(
    rate: RateParams,
    asset: AssetParams,
    state: MarketState,
    trunc: SeriesTruncation = SeriesTruncation(),
    spec: QuadratureSpec = QuadratureSpec(),
    x_nodes: int = X_NODES,
    y_nodes: int = Y_NODES,
    _force_tops: tuple[int, int] | None = None,
) -> tuple[PriceResult, ConvergenceReport]:
    """Double Poisson series for the forward-measure call value F.

    Returns the price (undiscounted; multiply by the bond for U) and a
    diagonal-truncation convergence report.
    """
    _check_x_law(rate.x_law)
    _check_y_law(asset.y_law)
    (spot,) = state.spots()
    tau, r = state.tau, state.r

    force_l, force_n = _force_tops if _force_tops else (None, None)
    l_top, l_mass_ok = _tops(rate.lam, tau, trunc.l_max, trunc.mass_tol, force_l)
    n_top, n_mass_ok = _tops(asset.lambda1, tau, trunc.n_max, trunc.mass_tol, force_n)
    p_l = poisson_weights(rate.lam, tau, l_top)
    p_n = poisson_weights(asset.lambda1, tau, n_top)

    x_blocks = _x_blocks(rate.x_law, l_top, x_nodes)
    y_blocks = _y_blocks(asset.y_law, n_top, y_nodes)
    comp = math.exp(-asset.lambda1 * asset.c_y * tau)

    spots_all, rs_all, weights_all, slices = [], [], [], {}
    pos = 0
    for l, (xn, xw) in enumerate(x_blocks):
        for n, (yn, yw) in enumerate(y_blocks):
            sp = spot * yn * comp
            spots_all.append(np.tile(sp, xn.size))
            rs_all.append(np.repeat(r + xn, yn.size))
            weights_all.append(np.repeat(xw, yn.size) * np.tile(yw, xn.size))
            size = xn.size * yn.size
            slices[(l, n)] = slice(pos, pos + size)
            pos += size

    w, tail = w_values(rate, asset.sigma, tau, state.strike,
                       np.concatenate(spots_all), np.concatenate(rs_all),
                       spec=spec)
    weights_flat = np.concatenate(weights_all)
    terms = np.empty((l_top + 1, n_top + 1))
    for (l, n), sl in slices.items():
        terms[l, n] = float(weights_flat[sl] @ w[sl])
    weighted = p_l[:, None] * p_n[None, :] * terms

    diag_top = max(l_top, n_top)
    partials = [float(weighted[: min(j, l_top) + 1, : min(j, n_top) + 1].sum())
                for j in range(diag_top + 1)]
    diffs = _diffs(partials)
    report = ConvergenceReport(
        indices=tuple((min(j, l_top), min(j, n_top)) for j in range(diag_top + 1)),
        partial_sums=tuple(partials),
        abs_diffs=tuple(diffs),
        final_terms=(l_top, n_top),
    )
    # Tail is controlled either by the Poisson mass criterion or by the
    # last two successive differences falling below term_tol.
    term_ok = len(diffs) >= 2 and max(diffs[-2:]) <= trunc.term_tol
    converged = (l_mass_ok and n_mass_ok) or term_ok
    result = PriceResult(value=partials[-1], terms_used=(l_top, n_top),
                         quad_error=tail, converged=converged)
    return result, report


def option_price(
    rate: RateParams,
    asset: AssetParams,
    state: MarketState,
    trunc: SeriesTruncation = SeriesTruncation(),
    spec: QuadratureSpec = QuadratureSpec(),
) -> PriceResult:
    """Full option price U = b(tau, r) * F; collapses to the payoff at tau = 0."""
    f_res, _ = f_single(rate, asset, state, trunc, spec)
    b = bond_price(rate, state.r, state.tau)
    return PriceResult(value=b * f_res.value, terms_used=f_res.terms_used,
                       quad_error=b * f_res.quad_error, converged=f_res.converged)


def merton_reference(
    spot: float,
    strike: float,
    sigma: float,
    rate: float,
    tau: float,
    lambda1: float,
    y_law: JumpLaw,
    mass_tol: float = 1e-10,
) -> float:
    """Flat-rate jump-diffusion call by the classic Poisson-weighted series.

    Conditional on n jumps the terminal log price is Gaussian, so each
    term is a Black-Scholes value with jump-adjusted forward and total
    variance; the compensator e^{-lambda1 C_Y tau} keeps the asset a
    martingale.  Oracle for the degenerate flat-rate case.
    """
    _check_y_law(y_law)
    if tau == 0.0:
        return max(spot - strike, 0.0)
    c_y = y_law.mean() - 1.0
    n_top = poisson_cutoff(lambda1, tau, mass_tol, cap=200)
    weights = poisson_weights(lambda1, tau, n_top)
    disc = math.exp(-rate * tau)
    base_fwd = spot * math.exp((rate - lambda1 * c_y) * tau)

    total = 0.0
    for n, p in enumerate(weights):
        if isinstance(y_law, Fixed):
            fwd = base_fwd * y_law.c**n
            var = sigma**2 * tau
        else:
            fwd = base_fwd * math.exp(n * y_law.mu_j + 0.5 * n * y_law.sigma_j**2)
            var = sigma**2 * tau + n * y_law.sigma_j**2
        if var <= 0.0:
            total += p * max(fwd - strike, 0.0)
            continue
        sd = math.sqrt(var)
        d1 = (math.log(fwd / strike) + 0.5 * var) / sd
        total += p * (fwd * norm.cdf(d1) - strike * norm.cdf(d1 - sd))
    return disc * total


def _geometric_reduction(basket: BasketParams) -> tuple[float, float]:
    """(sigma_H, delta) for ln H = alpha ln S1 + (1-alpha) ln S2."""
    w = basket.weights
    a1, a2 = basket.asset1, basket.asset2
    alpha, beta = w.alpha, 1.0 - w.alpha
    var_h = (alpha * a1.sigma) ** 2 + (beta * a2.sigma) ** 2 \
        + 2.0 * basket.rho * alpha * beta * a1.sigma * a2.sigma
    sigma_h = math.sqrt(max(var_h, 0.0))
    delta = 0.5 * (alpha * a1.sigma**2 + beta * a2.sigma**2) - 0.5 * var_h
    return sigma_h, delta


def g_basket(
    rate: RateParams,
    basket: BasketParams,
    state2: MarketState,
    trunc: SeriesTruncation = SeriesTruncation(),
    spec: QuadratureSpec = QuadratureSpec(),
    x_nodes: int = X_NODES,
    y_nodes: int = Y_NODES,
    _force_tops: tuple[int, int, int] | None = None,
) -> tuple[PriceResult, ConvergenceReport]:
    """Triple Poisson series for the geometric two-asset basket.

    Each (l, n, m) term shifts the two spots and the rate, then prices
    through the exact one-dimensional reduction of the geometric basket.
    Arithmetic baskets are rejected: they have no tractable transform
    and belong to the Monte Carlo engine.
    """
    if not isinstance(basket.weights, GeometricWeights):
        raise UnsupportedBasket(
            "arithmetic baskets are priced by Monte Carlo only; use mc_basket_price"
        )
    _check_x_law(rate.x_law)
    _check_y_law(basket.asset1.y_law)
    _check_y_law(basket.asset2.y_law)
    if len(state2.spots()) != 2:
        raise UnsupportedBasket("basket pricing needs a two-spot MarketState")
    s1, s2 = state2.spots()
    tau, r = state2.tau, state2.r
    a1, a2 = basket.asset1, basket.asset2
    alpha, beta = basket.weights.alpha, 1.0 - basket.weights.alpha
    sigma_h, delta = _geometric_reduction(basket)

    force_l, force_n, force_m = _force_tops if _force_tops else (None, None, None)
    l_top, l_ok = _tops(rate.lam, tau, trunc.l_max, trunc.mass_tol, force_l)
    n_top, n_ok = _tops(a1.lambda1, tau, trunc.n_max, trunc.mass_tol, force_n)
    m_top, m_ok = _tops(a2.lambda1, tau, trunc.m_max, trunc.mass_tol, force_m)
    p_l = poisson_weights(rate.lam, tau, l_top)
    p_n = poisson_weights(a1.lambda1, tau, n_top)
    p_m = poisson_weights(a2.lambda1, tau, m_top)

    x_blocks = _x_blocks(rate.x_law, l_top, x_nodes)
    y1_blocks = _y_blocks(a1.y_law, n_top, y_nodes)
    y2_blocks = _y_blocks(a2.y_law, m_top, y_nodes)
    leg1 = s1 * math.exp(-a1.lambda1 * a1.c_y * tau)
    leg2 = s2 * math.exp(-a2.lambda1 * a2.c_y * tau)
    drift_shift = math.exp(-delta * tau)

    spots_all, rs_all, weights_all, slices = [], [], [], {}
    pos = 0
    for l, (xn, xw) in enumerate(x_blocks):
        for n, (y1n, y1w) in enumerate(y1_blocks):
            for m, (y2n, y2w) in enumerate(y2_blocks):
                h = (leg1 * y1n[:, None]) ** alpha * (leg2 * y2n[None, :]) ** beta
                h = (h * drift_shift).ravel()  # y1-major
                yw = (y1w[:, None] * y2w[None, :]).ravel()
                spots_all.append(np.tile(h, xn.size))
                rs_all.append(np.repeat(r + xn, h.size))
                weights_all.append(np.repeat(xw, h.size) * np.tile(yw, xn.size))
                size = xn.size * h.size
                slices[(l, n, m)] = slice(pos, pos + size)
                pos += size

    w, tail = w_values(rate, sigma_h, tau, state2.strike,
                       np.concatenate(spots_all), np.concatenate(rs_all),
                       spec=spec)
    weights_flat = np.concatenate(weights_all)
    terms = np.empty((l_top + 1, n_top + 1, m_top + 1))
    for (l, n, m), sl in slices.items():
        terms[l, n, m] = float(weights_flat[sl] @ w[sl])
    weighted = p_l[:, None, None] * p_n[None, :, None] * p_m[None, None, :] * terms

    diag_top = max(l_top, n_top, m_top)
    partials = [
        float(weighted[: min(j, l_top) + 1, : min(j, n_top) + 1, : min(j, m_top) + 1].sum())
        for j in range(diag_top + 1)
    ]
    diffs = _diffs(partials)
    report = ConvergenceReport(
        indices=tuple((min(j, l_top), min(j, n_top), min(j, m_top))
                      for j in range(diag_top + 1)),
        partial_sums=tuple(partials),
        abs_diffs=tuple(diffs),
        final_terms=(l_top, n_top, m_top),
    )
    term_ok = len(diffs) >= 2 and max(diffs[-2:]) <= trunc.term_tol
    converged = (l_ok and n_ok and m_ok) or term_ok
    result = PriceResult(value=partials[-1], terms_used=(l_top, n_top, m_top),
                         quad_error=tail, converged=converged)
    return result, report


def basket_price(
    rate: RateParams,
    basket: BasketParams,
    state2: MarketState,
    trunc: SeriesTruncation = SeriesTruncation(),
    spec: QuadratureSpec = QuadratureSpec(),
) -> PriceResult:
    """Discounted basket option price b(tau, r) * G."""
    g_res, _ = g_basket(rate, basket, state2, trunc, spec)
    b = bond_price(rate, state2.r, state2.tau)
    return PriceResult(value=b * g_res.value, terms_used=g_res.terms_used,
                       quad_error=b * g_res.quad_error, converged=g_res.converged)


def convergence_study(
    selector: str,
    rate: RateParams,
    asset_or_basket: AssetParams | BasketParams,
    state: MarketState,
    max_terms: int,
    spec: QuadratureSpec = QuadratureSpec(),
) -> ConvergenceReport:
    """Partial sums at increasing symmetric truncations.

    ``selector`` picks the series: "w" varies the truncation order of
    the power series behind the transform (evaluated at the base state,
    no jump terms), "f" and "basket" vary the Poisson truncation along
    the (l, n[, m]) diagonal.
    """
    if max_terms < 1:
        raise ValueError("convergence_study requires max_terms >= 1")
    if selector == "w":
        if not isinstance(asset_or_basket, AssetParams):
            raise TypeError("selector 'w' studies the single-asset transform")
        (spot,) = state.spots()
        partials = []
        # Row n truncates the denominator series at order n (terms a_0..a_n).
        for n in range(max_terms + 1):
            w, _ = w_values(rate, asset_or_basket.sigma, state.tau, state.strike,
                            np.array([spot]), np.array([state.r]),
                            spec=spec, max_terms=n + 1)
            partials.append(float(w[0]))
        return ConvergenceReport(
            indices=tuple((n,) for n in range(max_terms + 1)),
            partial_sums=tuple(partials),
            abs_diffs=tuple(_diffs(partials)),
            final_terms=(max_terms,),
        )
    if selector == "f":
        if not isinstance(asset_or_basket, AssetParams):
            raise TypeError("selector 'f' studies the single-asset series")
        _, report = f_single(rate, asset_or_basket, state,
                             spec=spec, _force_tops=(max_terms, max_terms))
        return report
    if selector == "basket":
        if not isinstance(asset_or_basket, BasketParams):
            raise TypeError("selector 'basket' studies the two-asset series")
        _, report = g_basket(rate, asset_or_basket, state,
                             spec=spec, _force_tops=(max_terms, max_terms, max_terms))
        return report
    raise ValueError(f"unknown convergence selector {selector!r}")
