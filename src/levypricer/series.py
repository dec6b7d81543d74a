"""Poisson-weighted series pricers for the full jump models.

Single asset: the forward-measure expectation is expanded over the two
jump counts,

    F(S, r, tau) = sum_l sum_n P_l(tau; lam) P_n(tau; lambda1)
                   E_{l,n}[ W(S prod_{i<=n} Y_i e^{-lambda1 C_Y tau},
                             r + sum_{i<=l} X_i, tau) ],

and the option price is U = b(tau, r) * F.  The expectation folds into
one Fourier inversion at the compensated spot (see ``fourier``), with one
factor per jump stream, truncated at the same Poisson tops as the sum
over states it replaces:

    Psi_X(D) = sum_{l<=l_top} P_l mgf_X(D)^l,
    Psi_Y(u) = sum_{n<=n_top} P_n E[Y^{iu}]^n,

E[Y^{iu}] from the asset law (``JumpLaw.log_cf``).  Rows of j-truncated
factors give the diagonal partial sums of the convergence report from the
same panels.  The jumps widen the integrand's log spread by n_top times
the law's ``log_step``.

Two assets: the same expansion with a third Poisson stream, where the
geometric basket H = S1^alpha S2^(1-alpha) reduces exactly to the
one-dimensional pricer with effective volatility sigma_H and a drift
deficit delta absorbed into the spot argument; its asset factor is
Psi_Y1(alpha u) Psi_Y2((1-alpha) u).  Arithmetic baskets have no such
reduction and are routed to the Monte Carlo engine.

Merton's classic flat-rate series is kept as the degenerate-case
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .bond import bond_price
from .errors import UnsupportedBasket, UnsupportedLaw
from .fourier import JumpFold, w_values
# jump_sum_nodes, product_nodes: unused, but perfbench/spans.py wraps them here.
from .laws import (  # noqa: F401
    Fixed,
    JumpLaw,
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
    validate,
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


def _rate_mgf(x_law: JumpLaw, d):
    """mgf_X(d) = E[exp(d X)] for the rate factor; infinite is UnsupportedLaw."""
    try:
        return x_law.mgf(d)
    except ValueError as err:  # Exponential: Re d at or above theta
        raise UnsupportedLaw(
            f"E[exp(D X)] is infinite for rate jumps {x_law}: Re D reaches "
            f"{np.max(np.real(d)):.4g}, not below theta; use the Monte Carlo engine "
            "(mc_option_price / mc_basket_price)"
        ) from err


def _check_laws(rate: RateParams, assets: list[AssetParams]) -> None:
    """Raise UnsupportedLaw before any work for a law the fold cannot read."""
    if rate.lam > 0:  # an empty complex probe asks the mgf for its domain only
        rate.x_law.mgf(np.empty(0, dtype=complex))
    for asset in assets:
        asset.y_law.log_step()


def _truncations(weights: np.ndarray, base) -> np.ndarray:
    """Rows sum_{n<=j} P_n base^n for j = 0..top, each shaped like base."""
    n = np.arange(weights.size).reshape((-1,) + (1,) * np.ndim(base))
    return np.cumsum(weights.reshape(n.shape) * np.power(base, n), axis=0)


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


def _jump_series(rate: RateParams, sigma: float, spot: float, state: MarketState,
                 legs: list[tuple[AssetParams, float]], caps: tuple[int, ...],
                 trunc: SeriesTruncation, spec: QuadratureSpec,
                 force: tuple[int, ...] | None) -> tuple[PriceResult, ConvergenceReport]:
    """Poisson series over the rate jumps and each leg's asset jumps, where
    ``legs`` pairs each asset with its weight in the log price of ``spot``
    (1, or alpha and 1 - alpha); ``caps``/``force`` list the rate first."""
    tau = state.tau
    intensities = [rate.lam] + [asset.lambda1 for asset, _ in legs]
    tops, mass_ok = zip(*(_tops(lam, tau, cap, trunc.mass_tol, f)
                          for lam, cap, f in zip(intensities, caps, force or [None] * len(caps))))
    weights = [poisson_weights(lam, tau, top) for lam, top in zip(intensities, tops)]
    rows = np.arange(max(tops) + 1)
    x_rows, *y_rows = [np.minimum(rows, top) for top in tops]

    def psi(u, d):  # E[exp(d sum X + i u sum ln Y)], one row per diagonal truncation
        # Without a rate jump counted only P_0 enters, and mgf_X(d) may be infinite.
        x_base = _rate_mgf(rate.x_law, d) if tops[0] else np.ones_like(d)
        out = _truncations(weights[0], x_base)[x_rows]
        for (asset, alpha), p, pick in zip(legs, weights[1:], y_rows):
            out = out * _truncations(p, asset.y_law.log_cf(alpha * u))[pick]
        return out

    comp = math.exp(-tau * sum(alpha * a.lambda1 * a.c_y for a, alpha in legs))
    spread = sum(alpha * top * a.y_law.log_step() for (a, alpha), top in zip(legs, tops[1:]))
    w, tail, loadings_ok = w_values(rate, sigma, tau, state.strike, np.array([spot * comp]),
                                    np.array([state.r]), spec, None, JumpFold(psi, spread))

    partials = [float(v) for v in w]
    diffs = _diffs(partials)
    report = ConvergenceReport(
        indices=tuple(tuple(min(j, top) for top in tops) for j in rows.tolist()),
        partial_sums=tuple(partials),
        abs_diffs=tuple(diffs),
        final_terms=tops,
    )
    # Tail is controlled either by the Poisson mass criterion or by the
    # last two successive differences falling below term_tol.
    term_ok = len(diffs) >= 2 and max(diffs[-2:]) <= trunc.term_tol
    converged = (all(mass_ok) or term_ok) and loadings_ok
    result = PriceResult(value=partials[-1], terms_used=tops,
                         quad_error=tail, converged=converged)
    return result, report


def f_single(
    rate: RateParams,
    asset: AssetParams,
    state: MarketState,
    trunc: SeriesTruncation = SeriesTruncation(),
    spec: QuadratureSpec = QuadratureSpec(),
    _force_tops: tuple[int, int] | None = None,
) -> tuple[PriceResult, ConvergenceReport]:
    """Double Poisson series for the forward-measure call value F.

    Returns the price (undiscounted; multiply by the bond for U) and a
    diagonal-truncation convergence report.
    """
    validate(asset)
    validate(state)
    _check_laws(rate, [asset])
    (spot,) = state.spots()
    return _jump_series(rate, asset.sigma, spot, state, [(asset, 1.0)],
                        (trunc.l_max, trunc.n_max), trunc, spec, _force_tops)


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
    y_law.log_step()  # UnsupportedLaw where Y has no n-fold product
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
        total += p * (fwd * ndtr(d1) - strike * ndtr(d1 - sd))
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
    _force_tops: tuple[int, int, int] | None = None,
) -> tuple[PriceResult, ConvergenceReport]:
    """Triple Poisson series for the geometric two-asset basket.

    The jump-free basket prices through the exact one-dimensional
    reduction of the geometric basket, with both assets' jump streams
    folded in at their weights.  Arithmetic baskets are rejected: they
    have no tractable transform and belong to the Monte Carlo engine.
    """
    validate(basket)
    validate(state2)
    if not isinstance(basket.weights, GeometricWeights):
        raise UnsupportedBasket(
            "arithmetic baskets are priced by Monte Carlo only; use mc_basket_price"
        )
    _check_laws(rate, [basket.asset1, basket.asset2])
    if len(state2.spots()) != 2:
        raise UnsupportedBasket("basket pricing needs a two-spot MarketState")
    s1, s2 = state2.spots()
    alpha, beta = basket.weights.alpha, 1.0 - basket.weights.alpha
    sigma_h, delta = _geometric_reduction(basket)
    spot_h = s1**alpha * s2**beta * math.exp(-delta * state2.tau)
    return _jump_series(rate, sigma_h, spot_h, state2,
                        [(basket.asset1, alpha), (basket.asset2, beta)],
                        (trunc.l_max, trunc.n_max, trunc.m_max), trunc, spec, _force_tops)


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
            w, _, _ = w_values(rate, asset_or_basket.sigma, state.tau, state.strike,
                               np.array([spot]), np.array([state.r]),
                               spec=spec, max_terms=n + 1)
            partials.append(float(w[0]))
        return ConvergenceReport(
            indices=tuple((n,) for n in range(max_terms + 1)),
            partial_sums=tuple(partials),
            abs_diffs=tuple(_diffs(partials)),
            final_terms=(max_terms,),
        )
    series = {"f": (f_single, AssetParams, 2, "single-asset"),
              "basket": (g_basket, BasketParams, 3, "two-asset")}
    if selector not in series:
        raise ValueError(f"unknown convergence selector {selector!r}")
    pricer, params_type, streams, what = series[selector]
    if not isinstance(asset_or_basket, params_type):
        raise TypeError(f"selector {selector!r} studies the {what} series")
    _, report = pricer(rate, asset_or_basket, state, spec=spec,
                       _force_tops=(max_terms,) * streams)
    return report
