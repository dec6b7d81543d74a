"""European call value of the continuous auxiliary model by Fourier inversion.

W(S, r, tau) = f(-i) P1 - K P2 with the two exercise probabilities

    P2 = 1/2 + (1/pi) int_0^inf Re[ e^{-i phi ln K} f(phi)      / (i phi)        ] dphi,
    P1 = 1/2 + (1/pi) int_0^inf Re[ e^{-i phi ln K} f(phi - i)  / (i phi f(-i)) ] dphi,

and f(-i) = S / b the forward price.  The integrals run over successive
Gauss-Legendre panels; the integrand has a finite phi -> 0 limit and
open panel nodes never touch phi = 0.

Jumps fold into the same inversion: W is linear in f, and
f = exp(B + D r + i u z) is exponential in the state, so the expectation
of W over jump shifts of (z, r) inverts f * psi, with the per-frequency
factor psi(u, D) = E[exp(D sum X + i u sum ln Y)] built by ``series``:

    E[W] = Re[f(-i) psi(-i)] P1 - K psi(0) P2,

P1 normalised by f(-i) psi(-i), P2 by the mass psi(0) (below 1 when the
Poisson series is truncated).  The integrand oscillates with period
2 pi / (|ln(S/K)| + 0.1 + the jumps' log spread); the panel width keeps
the radians per node within what the nodes resolve to machine precision,
rounded down to panel_width / 2^j so a transform holds one grid per
halving.  The (B, D) loadings depend only on (rate params, sigma, tau),
so one cached transform serves every strike; one whose series loadings
were cut at ``charfn.COEFF_CAP`` reports itself not converged.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from . import charfn
from .bond import gauss_legendre
from .errors import TailNotDecayed
from .params import AssetParams, MarketState, PriceResult, QuadratureSpec, RateParams, validate

__all__ = ["p_terms", "w_price", "w_values", "black_scholes_reference", "call_transform"]

_ODE_STEPS_ENGINE = 4000  # sigma_r = 0 fallback inside the pricing engine
_RADIANS_PER_NODE = 0.6  # n-node Gauss-Legendre holds ~1e-14 up to ~0.75 rad/node


@dataclass(frozen=True)
class JumpFold:
    """psi(u, d) with shape (rows,) + u.shape, one row per truncation of the
    jump series, and the largest log shift ``spread`` the jumps add to S."""

    psi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    spread: float


@dataclass
class _Grid:
    """Panelised phi grid with the state-independent loadings on it."""

    width: float
    n_panels: int
    phis: np.ndarray  # (n_panels, nodes)
    weights: np.ndarray
    b2: np.ndarray
    d2: np.ndarray
    b1: np.ndarray  # at phi - i
    d1: np.ndarray


class _CallTransform:
    """Loadings and grids for one (rate, sigma, tau, spec) combination."""

    def __init__(self, rate: RateParams, sigma: float, tau: float,
                 spec: QuadratureSpec, max_terms: int | None = None):
        self.rate = rate
        self.sigma = sigma
        self.tau = tau
        self.spec = spec
        self.max_terms = max_terms
        self.series_mode = rate.sigma_r > 0.0
        if self.series_mode:
            charfn._check_tau(rate, tau)  # RadiusExceeded / DegenerateVolatility guard
        self.converged = True  # every series loading so far passed its own test
        bm, dm = self._bd(np.array([-1j]))
        self.b_minus_i = complex(bm[0])
        self.d_minus_i = complex(dm[0])
        self._grids: dict[int, _Grid] = {}

    def _bd(self, phis: np.ndarray):
        if self.series_mode:
            b, d, ok = charfn.bd_series_many(self.rate, self.sigma, phis, self.tau,
                                             max_terms=self.max_terms, return_converged=True)
            self.converged = self.converged and bool(ok.all())
            return b, d
        return charfn.bd_ode_many(self.rate, self.sigma, phis, self.tau,
                                  n_steps=_ODE_STEPS_ENGINE)

    def _grid(self, freq: float) -> _Grid:
        """The widest grid of panel_width / 2^j that resolves oscillation ``freq``."""
        spec = self.spec
        fit = 2.0 * _RADIANS_PER_NODE * spec.nodes_per_panel / freq
        halvings = max(0, math.ceil(math.log2(spec.panel_width / fit)))
        if halvings not in self._grids:
            width = spec.panel_width / 2**halvings
            n_panels = int(math.ceil(spec.phi_max_cap / width))
            x, w = gauss_legendre(spec.nodes_per_panel)
            offsets = width * np.arange(n_panels)[:, None]
            phis = offsets + 0.5 * width * (x + 1.0)[None, :]
            flat = phis.ravel().astype(complex)
            b2, d2 = self._bd(flat)
            b1, d1 = self._bd(flat - 1j)
            shape = phis.shape
            self._grids[halvings] = _Grid(
                width=width,
                n_panels=n_panels,
                phis=phis,
                weights=np.broadcast_to(0.5 * width * w, shape).copy(),
                b2=b2.reshape(shape),
                d2=d2.reshape(shape),
                b1=b1.reshape(shape),
                d1=d1.reshape(shape),
            )
        return self._grids[halvings]

    def invert(self, spots, rs, strike, fold: JumpFold | None = None):
        """(forward, mass, P1, P2, tail) per state, or per row of ``fold`` for
        one jump-free state; W = forward * P1 - strike * mass * P2."""
        z = np.log(np.atleast_1d(np.asarray(spots, dtype=float)))
        rs = np.atleast_1d(np.asarray(rs, dtype=float))
        log_k = math.log(strike)
        forward = np.exp(self.b_minus_i + self.d_minus_i * rs + z).real
        # Oscillation frequency of the integrand in phi; the 0.1 margin
        # covers the drift-induced phase of f itself.
        freq = float(np.max(np.abs(z - log_k))) + 0.1 + (fold.spread if fold else 0.0)
        grid = self._grid(freq)
        mass = 1.0
        if fold is not None:
            # Jump rows on the grid, normalised like P1 (forward) and P2 (mass).
            psi_fwd = fold.psi(np.array(-1j), np.array(self.d_minus_i))
            mass = fold.psi(np.array(0j), np.array(0j)).real
            forward = (forward * psi_fwd).real
            psi2 = fold.psi(grid.phis, grid.d2) / mass[:, None, None]
            psi1 = fold.psi(grid.phis - 1j, grid.d1) / psi_fwd[:, None, None]
        panel_tol = self.spec.tail_tol * grid.width / self.spec.panel_width

        p1 = p2 = 0.5
        tail = math.inf
        calm_panels = 0
        for panel in range(grid.n_panels):
            phis = grid.phis[panel]
            phase = np.exp(-1j * phis * log_k) / (1j * phis)
            q2 = grid.weights[panel] * np.exp(grid.b2[panel]) * phase
            q1 = grid.weights[panel] * np.exp(grid.b1[panel] - self.b_minus_i) * phase
            # States enter only through exp(D r + i phi z).
            e2 = np.exp(np.outer(rs, grid.d2[panel]) + np.outer(z, 1j * phis))
            e1 = np.exp(np.outer(rs, grid.d1[panel] - self.d_minus_i) + np.outer(z, 1j * phis))
            if fold is not None:
                e2 = e2 * psi2[:, panel]
                e1 = e1 * psi1[:, panel]
            c2 = (e2 @ q2).real / math.pi
            c1 = (e1 @ q1).real / math.pi
            p2 = p2 + c2
            p1 = p1 + c1
            tail = max(float(np.max(np.abs(c1))), float(np.max(np.abs(c2))))
            calm_panels = calm_panels + 1 if tail < panel_tol else 0
            if calm_panels >= 2:
                return forward, mass, p1, p2, tail
        raise TailNotDecayed(
            f"panel contribution {tail:.3e} still above {panel_tol:.1e} "
            f"at phi = {self.spec.phi_max_cap}"
        )


@lru_cache(maxsize=64)
def call_transform(rate: RateParams, sigma: float, tau: float,
                   spec: QuadratureSpec = QuadratureSpec(),
                   max_terms: int | None = None) -> _CallTransform:
    """Cached transform; parameters are frozen dataclasses, hence hashable.
    Callers pass all five arguments positionally: one transform, one key."""
    return _CallTransform(rate, sigma, tau, spec, max_terms)


def w_values(
    rate: RateParams,
    sigma: float,
    tau: float,
    strike: float,
    spots: np.ndarray,
    rs: np.ndarray,
    spec: QuadratureSpec = QuadratureSpec(),
    max_terms: int | None = None,
    fold: JumpFold | None = None,
) -> tuple[np.ndarray, float, bool]:
    """Call values W for a batch of (spot, r) states sharing (tau, strike).

    With ``fold``, one jump-free state and one value per truncation row of
    the folded jump expectation.  Returns (values, quadrature error proxy
    = last panel contribution, whether the loadings converged).  Values
    are floored at zero: far out of the money the inversion can come back
    a few ulps negative.
    """
    if tau == 0.0:
        w = np.maximum(np.atleast_1d(np.asarray(spots, dtype=float)) - strike, 0.0)
        if fold is not None:  # one payoff per truncation row, times its mass
            w = w * fold.psi(np.array(0j), np.array(0j)).real
        return w, 0.0, True
    tr = call_transform(rate, sigma, tau, spec, max_terms)
    fwd, mass, p1, p2, tail = tr.invert(spots, rs, strike, fold)
    return np.maximum(fwd * p1 - strike * mass * p2, 0.0), tail, tr.converged


def p_terms(
    rate: RateParams,
    asset: AssetParams,
    state: MarketState,
    spec: QuadratureSpec = QuadratureSpec(),
) -> tuple[float, float]:
    """Exercise probabilities (P1, P2) under the two pricing measures.

    Both lie in [0, 1] up to quadrature noise; the f(-i) forward factor
    is applied by w_price, not here.
    """
    validate(asset)
    validate(state)
    (spot,) = state.spots()
    tr = call_transform(rate, asset.sigma, state.tau, spec, None)
    _, _, p1, p2, _ = tr.invert(np.array([spot]), np.array([state.r]), state.strike)
    return float(p1[0]), float(p2[0])


def w_price(
    rate: RateParams,
    asset: AssetParams,
    state: MarketState,
    spec: QuadratureSpec = QuadratureSpec(),
) -> PriceResult:
    """Forward-measure call value W = f(-i) P1 - K P2 of the auxiliary model."""
    validate(asset)
    validate(state)
    (spot,) = state.spots()
    w, tail, converged = w_values(rate, asset.sigma, state.tau, state.strike,
                                  np.array([spot]), np.array([state.r]), spec, None)
    return PriceResult(value=float(w[0]), terms_used=None, quad_error=tail,
                       converged=converged and tail < spec.tail_tol)


def black_scholes_reference(
    spot: float, strike: float, sigma: float, rate: float, tau: float,
    forward: bool = False,
) -> float:
    """Black-Scholes call; ``forward`` returns the undiscounted value.

    The forward variant is E[max(S(T) - K, 0)] under a lognormal with
    drift ``rate``, i.e. the discounted price times e^{rate tau}.
    """
    if spot <= 0 or strike <= 0:
        raise ValueError("black_scholes_reference requires spot > 0 and strike > 0")
    vol = sigma * math.sqrt(tau)
    if vol <= 0:
        disc = max(spot - strike * math.exp(-rate * tau), 0.0)
    else:
        d1 = (math.log(spot / strike) + (rate + 0.5 * sigma**2) * tau) / vol
        d2 = d1 - vol
        disc = spot * ndtr(d1) - strike * math.exp(-rate * tau) * ndtr(d2)
    return disc * math.exp(rate * tau) if forward else disc
