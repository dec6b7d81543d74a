"""European call value of the continuous auxiliary model by Fourier inversion.

W(S, r, tau) = f(-i) P1 - K P2 with the two exercise probabilities

    P2 = 1/2 + (1/pi) int_0^inf Re[ e^{-i phi ln K} f(phi)      / (i phi)        ] dphi,
    P1 = 1/2 + (1/pi) int_0^inf Re[ e^{-i phi ln K} f(phi - i)  / (i phi f(-i)) ] dphi,

and f(-i) = S / b the forward price.  The integrals run over successive
Gauss-Legendre panels; the integrand has a finite phi -> 0 limit and
open panel nodes never touch phi = 0.

One inversion prices one (spot, r) state, jumps folded in: W is linear
in f, and f = exp(B + D r + i u z) is exponential in the state, so the
expectation of W over jump shifts of (z, r) inverts f * psi, with the
per-frequency factor psi(u, D) = E[exp(D sum X + i u sum ln Y)] built by
``series``:

    E[W] = Re[f(-i) psi(-i)] P1 - K psi(0) P2,

P1 normalised by f(-i) psi(-i), P2 by the mass psi(0) (below 1 when the
Poisson series is truncated).  A fold's rows are truncations of that
series, or shifted states with psi = exp(D dr + i u dz).  The integrand
oscillates with period 2 pi / (|ln(S/K)| + 0.1 + the rows' log spread);
the panel width keeps the radians per node within what the nodes resolve
to machine precision, rounded down to panel_width / 2^j so a transform
holds one grid per halving.  The (B, D) loadings depend only on (rate
params, sigma, tau), so one cached transform serves every strike.  A grid
fills them on demand, in fixed chunks of panels [0, 8), [8, 16), [16, 32)
and [32, n), and a quote's ``converged`` covers what it read (phi = -i and
the chunks its loop reached): False where that series was cut at
``charfn.COEFF_CAP``.
"""

from __future__ import annotations

import math
import threading
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

_RADIANS_PER_NODE = 0.6  # n-node Gauss-Legendre holds ~1e-14 up to ~0.75 rad/node
_CHUNK_STARTS = (0, 8, 16, 32)  # first panel of each loadings chunk


@dataclass(frozen=True)
class JumpFold:
    """psi(u, d) with shape (rows,) + u.shape, one row per value an inversion
    returns, and the largest log shift ``spread`` a row adds to S."""

    psi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    spread: float


NO_JUMPS = JumpFold(lambda u, d: np.ones((1,) + np.shape(u)), 0.0)  # one row of ones


@dataclass
class _Grid:
    """Panelised phi grid with the state-independent loadings on it, filled
    chunk by chunk in panel order, one converged flag per filled chunk."""

    width: float
    phis: np.ndarray  # (n_panels, nodes)
    weights: np.ndarray  # (nodes,), the same on every panel
    bounds: list[int]  # chunk c covers panels [bounds[c], bounds[c + 1])
    bd: np.ndarray  # (4, n_panels, nodes): B and D at phi, then at phi - i
    chunks_ok: list[bool]


class _CallTransform:
    """Loadings and grids for one (rate, sigma, tau, spec) combination."""

    def __init__(self, rate: RateParams, sigma: float, tau: float,
                 spec: QuadratureSpec, max_terms: int | None = None):
        self.rate = rate
        self.sigma = sigma
        self.tau = tau
        self.spec = spec
        self.max_terms = max_terms
        self._lock = threading.Lock()  # serialises chunk fills, and with them _cut
        self._cut = False
        bm, dm = self._bd(np.array([-1j]))  # raises RadiusExceeded beyond the series radius
        self.b_minus_i = complex(bm[0])
        self.d_minus_i = complex(dm[0])
        self.minus_i_converged = not self._cut
        self._grids: dict[int, _Grid] = {}

    def _bd(self, phis: np.ndarray):
        """(B, D) at ``phis``; sets ``_cut`` if cut at the cap (an override need not)."""
        b, d, ok = charfn.bd_series_many(self.rate, self.sigma, phis, self.tau,
                                         max_terms=self.max_terms, return_converged=True)
        self._cut = self._cut or not ok.all()
        return b, d

    def _grid(self, freq: float) -> _Grid:
        """The widest grid of panel_width / 2^j that resolves oscillation ``freq``."""
        spec = self.spec
        fit = 2.0 * _RADIANS_PER_NODE * spec.nodes_per_panel / freq
        halvings = max(0, math.ceil(math.log2(spec.panel_width / fit)))
        if halvings not in self._grids:
            width = spec.panel_width / 2**halvings
            n_panels = int(math.ceil(spec.phi_max_cap / width))
            x, w = gauss_legendre(spec.nodes_per_panel)
            phis = width * np.arange(n_panels)[:, None] + 0.5 * width * (x + 1.0)[None, :]
            bounds = [start for start in _CHUNK_STARTS if start < n_panels] + [n_panels]
            self._grids[halvings] = _Grid(width, phis, 0.5 * width * w, bounds,
                                          np.empty((4,) + phis.shape, dtype=complex), [])
        return self._grids[halvings]

    def _fill(self, grid: _Grid, index: int, start: int, stop: int) -> bool:
        """Build chunk ``index`` (panels [start, stop)) once; whether it converged."""
        with self._lock:
            if index == len(grid.chunks_ok):
                flat = grid.phis[start:stop].ravel().astype(complex)
                self._cut = False
                for row, phis in ((0, flat), (2, flat - 1j)):
                    grid.bd[row : row + 2, start:stop] = np.reshape(self._bd(phis),
                                                                   (2, stop - start, -1))
                grid.chunks_ok.append(not self._cut)
        return grid.chunks_ok[index]

    def invert(self, spot: float, r: float, strike: float, fold: JumpFold):
        """(forward, mass, P1, P2, tail, converged) for the one state (spot, r),
        per row of ``fold`` (jump truncations or shifted states);
        W = forward * P1 - strike * mass * P2, and ``converged`` covers the
        loadings this inversion read."""
        z = np.log(spot)
        log_k = math.log(strike)
        # Oscillation frequency of the integrand in phi; the 0.1 margin
        # covers the drift-induced phase of f itself.
        grid = self._grid(abs(z - log_k) + 0.1 + fold.spread)
        # Rows on the grid, normalised like P1 (forward) and P2 (mass).
        psi_fwd = fold.psi(np.array(-1j), np.array(self.d_minus_i))
        mass = fold.psi(np.array(0j), np.array(0j)).real
        forward = (np.exp(self.b_minus_i + self.d_minus_i * r + z).real * psi_fwd).real
        panel_tol = self.spec.tail_tol * grid.width / self.spec.panel_width

        p1 = p2 = 0.5
        tail = math.inf
        calm_panels = 0
        converged = self.minus_i_converged
        for index, (start, stop) in enumerate(zip(grid.bounds, grid.bounds[1:])):
            converged = self._fill(grid, index, start, stop) and converged
            b2, d2, b1, d1 = grid.bd[:, start:stop]
            psi2 = fold.psi(grid.phis[start:stop], d2) / mass[:, None, None]
            psi1 = fold.psi(grid.phis[start:stop] - 1j, d1) / psi_fwd[:, None, None]
            for j, phis in enumerate(grid.phis[start:stop]):
                phase = np.exp(-1j * phis * log_k) / (1j * phis)
                q2 = grid.weights * np.exp(b2[j]) * phase
                q1 = grid.weights * np.exp(b1[j] - self.b_minus_i) * phase
                # The state enters only through exp(D r + i phi z).
                e2 = np.exp(r * d2[j] + z * (1j * phis)) * psi2[:, j]
                e1 = np.exp(r * (d1[j] - self.d_minus_i) + z * (1j * phis)) * psi1[:, j]
                c2 = (e2 @ q2).real / math.pi
                c1 = (e1 @ q1).real / math.pi
                p2 = p2 + c2
                p1 = p1 + c1
                tail = max(float(np.max(np.abs(c1))), float(np.max(np.abs(c2))))
                calm_panels = calm_panels + 1 if tail < panel_tol else 0
                if calm_panels >= 2:
                    return forward, mass, p1, p2, tail, converged
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
    spots: float,
    r: float,
    spec: QuadratureSpec = QuadratureSpec(),
    max_terms: int | None = None,
    fold: JumpFold = NO_JUMPS,
) -> tuple[np.ndarray, float, bool]:
    """Call values W at the one state (``spots``, r), one per row of ``fold``:
    truncations of the folded jump series, or shifted states.

    Returns (values, quadrature error proxy = last panel contribution,
    whether the loadings read converged).  Values are floored at zero: far
    out of the money the inversion can come back a few ulps negative.  At
    tau = 0 no jump arrives: each row is the payoff times the row's mass.
    """
    if tau == 0.0:
        return max(spots - strike, 0.0) * fold.psi(np.array(0j), np.array(0j)).real, 0.0, True
    tr = call_transform(rate, sigma, tau, spec, max_terms)
    fwd, mass, p1, p2, tail, converged = tr.invert(spots, r, strike, fold)
    return np.maximum(fwd * p1 - strike * mass * p2, 0.0), tail, converged


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
    validate(rate, asset, state, spec)
    (spot,) = state.spots()
    if state.tau == 0.0:  # both probabilities are the indicator of S > K, 1/2 at S = K
        p = 1.0 if spot > state.strike else 0.5 if spot == state.strike else 0.0
        return p, p
    tr = call_transform(rate, asset.sigma, state.tau, spec, None)
    _, _, (p1,), (p2,), _, _ = tr.invert(spot, state.r, state.strike, NO_JUMPS)
    return float(p1), float(p2)


def w_price(
    rate: RateParams,
    asset: AssetParams,
    state: MarketState,
    spec: QuadratureSpec = QuadratureSpec(),
) -> PriceResult:
    """Forward-measure call value W = f(-i) P1 - K P2 of the auxiliary model."""
    validate(rate, asset, state, spec)
    (spot,) = state.spots()
    (w,), tail, converged = w_values(rate, asset.sigma, state.tau, state.strike,
                                     spot, state.r, spec, None)
    return PriceResult(value=float(w), terms_used=None, quad_error=tail,
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
