"""Forward-measure characteristic function of the auxiliary log price.

With the jumps of the short rate folded into a tilted drift, the log
price Z = ln S of the continuous auxiliary model has the affine
characteristic function

    f(phi; tau, z, r) = exp(B(phi, tau) + D(phi, tau) r + i phi z),

where D solves the Riccati equation

    D' = i phi - k D + sigma_r^2 G(s) D + (1/2) sigma_r^2 D^2,  D(0) = 0,

with G the bond loading, and

    B(tau) = int_0^tau D(u) [k a + lam (mgf_X'(G(u)) - C_X)] du
             - (1/2) sigma^2 (phi^2 + i phi) tau.

The substitution D = -(2/sigma_r^2) h'/h linearizes the Riccati to

    h'' - (sigma_r^2 G - k) h' + (i phi sigma_r^2 / 2) h = 0,

and multiplying through by the denominator of G turns this into a
power-series recurrence for h = sum a_n tau^n with a_0 = 1, a_1 = 0 and
c_j = m^j / j!:

    a_{n+2} = -I_n / (2 m (n+1)(n+2)),
    I_n = 2 k m (n+1) a_{n+1} + i phi sigma_r^2 m a_n
          + (k+m)               sum_{j=1..n} (n+2-j)(n+1-j) c_j a_{n+2-j}
          + (k^2 + k m + 2 sigma_r^2) sum_{j=1..n} (n+1-j)   c_j a_{n+1-j}
          + (i phi sigma_r^2 (k+m)/2) sum_{j=1..n}           c_j a_{n-j}.

The series converges for tau below the distance to the nearest complex
zero of G's denominator,

    tau* = (1/m) sqrt(ln((m-k)/(m+k))^2 + pi^2),

which requires sigma_r > 0.  At sigma_r = 0 the Riccati equation is
linear, D' = i phi - k D, and D = -i phi G exactly (G' = -1 - k G), with
no radius.  ``bd_series_many`` takes that closed form there and the
series otherwise; both feed the same Gauss-Legendre rule for B, the series
through one real matmul of a Vandermonde matrix in t / tau by the terms
a_n tau^n (``_h_and_deriv``).  A
classical fourth-order integration of the system (``bd_ode_many``) is
the independent oracle only; no pricing path calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bond import gauss_legendre, loading_G
from .errors import DegenerateVolatility, DenominatorVanishing, RadiusExceeded, StepCountExceeded
from .params import AssetParams, MarketState, RateParams, validate

__all__ = [
    "radius_bound",
    "coeff_recurrence",
    "CharFnExpansion",
    "make_expansion",
    "D_eval",
    "B_eval",
    "charfn_eval",
    "riccati_oracle",
    "bd_series_many",
    "bd_ode_many",
]

COEFF_CAP = 200
SERIES_RTOL = 1e-16
MAX_ODE_STEPS = 2_000_000
TIME_NODES = 64  # Gauss-Legendre nodes of the B integral


def radius_bound(params: RateParams) -> float:
    """Convergence radius of the denominator series in time to maturity.

    Raises DegenerateVolatility when sigma_r = 0 (m = k puts the nearest
    singularity at infinity along one branch and the bound formula
    degenerates; the loadings take their closed form there).
    """
    m, k = params.m, params.k
    if params.sigma_r == 0.0 or m <= k:
        raise DegenerateVolatility("radius bound undefined for sigma_r = 0")
    return (1.0 / m) * math.sqrt(math.log((m - k) / (m + k)) ** 2 + math.pi**2)


def _coeff_table(params: RateParams, phis: np.ndarray, tau: float, cap: int = COEFF_CAP):
    """Recurrence coefficients a_n for a batch of frequencies.

    Returns (table, converged) where table has shape (N+1, len(phis)).
    For tau > 0 the order N is grown only until the last two terms of
    every h(tau) series fall below SERIES_RTOL relative to the running
    sum; the cap leaves the offending frequencies flagged converged =
    False.  tau = 0 fills the table to ``cap``.
    """
    m, k, sig2 = params.m, params.k, params.sigma_r**2
    phis = np.atleast_1d(np.asarray(phis, dtype=complex))
    n_phi = phis.size
    iphi = 1j * phis

    c = np.empty(cap + 2)
    c[0] = 1.0
    for j in range(1, cap + 2):
        c[j] = c[j - 1] * m / j

    a = np.zeros((cap + 1, n_phi), dtype=complex)
    a[0] = 1.0  # a[1] stays 0
    partial = np.ones(n_phi, dtype=complex)  # h(tau) truncated at current order
    small_streak = np.zeros(n_phi, dtype=int)
    done_at = np.full(n_phi, -1, dtype=int)
    adaptive = tau > 0.0

    top = cap
    for n in range(cap - 1):
        i_hat = 2.0 * k * m * (n + 1) * a[n + 1] + iphi * sig2 * m * a[n]
        if n >= 1:
            j = np.arange(1, n + 1)
            w1 = (n + 2 - j) * (n + 1 - j) * c[j]
            w2 = (n + 1 - j) * c[j]
            i_hat = i_hat + (k + m) * (w1 @ a[2 : n + 2][::-1])  # a_{n+2-j}
            i_hat = i_hat + (k * k + k * m + 2.0 * sig2) * (w2 @ a[1 : n + 1][::-1])  # a_{n+1-j}
            i_hat = i_hat + 0.5 * iphi * sig2 * (k + m) * (c[j] @ a[0:n][::-1])  # a_{n-j}
        a[n + 2] = -i_hat / (2.0 * m * (n + 1) * (n + 2))

        if adaptive:
            term = a[n + 2] * tau ** (n + 2)
            partial = partial + term
            small = np.abs(term) < SERIES_RTOL * np.maximum(np.abs(partial), 1e-300)
            small_streak = np.where(small, small_streak + 1, 0)
            newly_done = (small_streak >= 2) & (done_at < 0)
            done_at[newly_done] = n + 2
            if np.all(done_at >= 0):
                top = n + 2
                break

    converged = (done_at >= 0) if adaptive else np.ones(n_phi, dtype=bool)
    return a[: top + 1], converged


def coeff_recurrence(params: RateParams, phi: complex, n_order: int) -> np.ndarray:
    """Coefficients a_0..a_{n_order} of the denominator series for one phi.

    The recurrence is polynomial in phi, so complex-shifted arguments
    (phi - i) are evaluated exactly by the same code path.
    """
    if n_order < 2:
        raise ValueError("coeff_recurrence requires order >= 2")
    if params.sigma_r == 0.0:
        raise DegenerateVolatility("series coefficients undefined for sigma_r = 0")
    table, _ = _coeff_table(params, np.array([phi]), tau=0.0, cap=n_order)
    return table[: n_order + 1, 0]


@dataclass(frozen=True)
class CharFnExpansion:
    """Truncated power-series data for one (phi, tau)."""

    phi: complex
    tau: float
    coeffs: np.ndarray
    c: np.ndarray
    D: complex
    B: complex
    N: int
    converged: bool


def _check_tau(params: RateParams, tau: float) -> None:
    bound = radius_bound(params)  # DegenerateVolatility at sigma_r = 0
    if tau >= bound:
        raise RadiusExceeded(f"tau={tau} is not below the series convergence bound {bound:.6f}")


def _h_and_deriv(coeffs: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """h(t), h'(t) for table (N+1,) or (N+1, n_phi), shaped coeffs.shape[1:] + t.shape:
    rows x^n and n x^(n-1) in x = t / s, s = max t, times the terms a_n s^n
    in one real matmul.  s^n = (2 f)^n 2^(n (e - 1)) for s = f 2^e stays
    finite where a_n s^n is, as it is where Horner's scheme works."""
    t = np.asarray(t, dtype=float)
    s = float(t.max()) or 1.0
    n = np.arange(coeffs.shape[0], dtype=np.intc)  # ldexp's native exponent type
    powers = (t.reshape(-1, 1) / s) ** n
    slopes = n * np.roll(powers, 1, axis=1)  # n x^(n-1); x^N lands on n = 0
    f, e = np.frexp(s)
    terms = np.asarray(coeffs, dtype=complex).reshape(n.size, -1) * ((2.0 * f) ** n)[:, None]
    terms = np.ldexp(terms.view(float), (n * (e - 1))[:, None])  # real, imaginary parts
    hv = (np.vstack([powers, slopes]) @ terms).view(complex)
    shape = coeffs.shape[1:] + t.shape
    return hv[: t.size].T.reshape(shape)[()], (hv[t.size :].T / s).reshape(shape)[()]


def _d_from_h(params: RateParams, coeffs: np.ndarray, tau):
    """D = -2 h'(tau) / (sigma_r^2 h(tau)), guarded against a vanishing h."""
    h, hp = _h_and_deriv(coeffs, tau)
    if np.min(np.abs(h)) < 1e-12:
        raise DenominatorVanishing(f"|h| = {np.min(np.abs(h)):.3e} < 1e-12 at the evaluated times")
    return -2.0 * hp / (params.sigma_r**2 * h)


def D_eval(params: RateParams, coeffs: np.ndarray, tau: float) -> complex:
    """Loading on r from the series coefficients: D = -2 h'(tau) / (sigma_r^2 h(tau)).

    Raises DegenerateVolatility at sigma_r = 0, where no series exists.
    """
    _check_tau(params, tau)
    return _d_from_h(params, np.asarray(coeffs), tau)


def B_eval(params: RateParams, asset: AssetParams, phi: complex, tau: float) -> complex:
    """Constant loading B(phi, tau); B(0, tau) = 0 and B(phi, 0) = 0.

    Defined at every sigma_r >= 0, like ``bd_series_many``.
    """
    if tau == 0.0:
        return 0.0 + 0.0j
    b, _ = bd_series_many(params, asset.sigma, np.array([phi], dtype=complex), tau)
    return complex(b[0])


def make_expansion(
    params: RateParams, asset: AssetParams, phi: complex, tau: float
) -> CharFnExpansion:
    """Assemble the power-series record for one (phi, tau); raises, as
    ``D_eval`` does, before building any coefficient."""
    _check_tau(params, tau)
    phis = np.array([phi], dtype=complex)
    table, converged = _coeff_table(params, phis, tau)
    (b,), (d,) = _loadings(params, asset.sigma, phis, tau, table)
    coeffs = table[:, 0]
    n_order = coeffs.shape[0] - 1
    c = np.array([params.m**j / math.factorial(j) for j in range(n_order + 1)])
    return CharFnExpansion(phi, tau, coeffs, c, complex(d), complex(b), n_order, bool(converged[0]))


def _jump_drift(params: RateParams, g: np.ndarray) -> np.ndarray:
    """lam * int x (e^{g x} - 1) f_r(x) dx = lam (mgf'(g) - C_X)."""
    if params.lam == 0.0:
        return np.zeros_like(g)
    return params.lam * (np.real(params.x_law.mgf_prime(g)) - params.c_x)


def bd_series_many(
    params: RateParams,
    sigma: float,
    phis: np.ndarray,
    tau: float,
    max_terms: int | None = None,
    return_converged: bool = False,
):
    """(B, D) arrays over a batch of (possibly complex) frequencies.

    For sigma_r > 0, D comes from the power series inside its radius;
    ``max_terms`` truncates the h series to its first ``max_terms``
    coefficients, which is what the convergence study varies.  For
    sigma_r = 0, D = -i phi G exactly and every frequency converges.
    With ``return_converged`` the per-frequency flag of the coefficient
    table (False where it was cut at COEFF_CAP) is returned third.
    """
    phis = np.asarray(phis, dtype=complex)
    if params.sigma_r == 0.0:
        table, converged = None, np.ones(phis.shape, dtype=bool)
    else:
        _check_tau(params, tau)
        table, converged = _coeff_table(params, phis, tau)
        if max_terms is not None:
            table = table[:max_terms]
    b, d_tau = _loadings(params, sigma, phis, tau, table)
    return (b, d_tau, converged) if return_converged else (b, d_tau)


def _loadings(params: RateParams, sigma: float, phis: np.ndarray, tau: float, table):
    """(B, D(tau)) from a coefficient table, or from D = -i phi G if it is None."""
    x, w = gauss_legendre(TIME_NODES)
    u = 0.5 * tau * (x + 1.0)
    g = loading_G(params, u)
    if table is None:
        d_tau = -1j * phis * loading_G(params, tau)
        d_nodes = np.multiply.outer(-1j * phis, g)
    else:
        d_tau = _d_from_h(params, table, tau)
        d_nodes = _d_from_h(params, table, u)  # (n_phi, n_nodes)
    drift = params.k * params.a + _jump_drift(params, g)  # (n_nodes,)
    b = 0.5 * tau * (d_nodes @ (w * drift)) - 0.5 * sigma**2 * (phis**2 + 1j * phis) * tau
    return b, d_tau


def bd_ode_many(
    params: RateParams,
    sigma: float,
    phis: np.ndarray,
    tau: float,
    n_steps: int = 10_000,
) -> tuple[np.ndarray, np.ndarray]:
    """(B, D) for a batch of frequencies by classical fourth-order stepping.

    Works for sigma_r = 0 as well; independent of the series path.
    """
    if n_steps > MAX_ODE_STEPS:
        raise StepCountExceeded(f"n_steps={n_steps} exceeds cap {MAX_ODE_STEPS}")
    phis = np.asarray(phis, dtype=complex)
    iphi = 1j * phis
    sig2 = params.sigma_r**2
    k, ka = params.k, params.k * params.a
    if tau == 0.0:
        z = np.zeros_like(phis)
        return z.copy(), z.copy()
    h = tau / n_steps
    grid = np.linspace(0.0, tau, 2 * n_steps + 1)  # stage points at h/2 spacing
    g_all = loading_G(params, grid)
    drift_all = ka + _jump_drift(params, g_all)
    b_const = -0.5 * sigma**2 * (phis**2 + iphi)

    d = np.zeros_like(phis)
    b = np.zeros_like(phis)
    for i in range(n_steps):
        g0, gm, g1 = g_all[2 * i], g_all[2 * i + 1], g_all[2 * i + 2]
        dr0, drm, dr1 = drift_all[2 * i], drift_all[2 * i + 1], drift_all[2 * i + 2]

        def f_d(g, y):
            return iphi - k * y + sig2 * g * y + 0.5 * sig2 * y * y

        k1 = f_d(g0, d)
        k2 = f_d(gm, d + 0.5 * h * k1)
        k3 = f_d(gm, d + 0.5 * h * k2)
        k4 = f_d(g1, d + h * k3)
        # B' = D * drift + b_const; evaluate on the same stages.
        l1 = d * dr0 + b_const
        l2 = (d + 0.5 * h * k1) * drm + b_const
        l3 = (d + 0.5 * h * k2) * drm + b_const
        l4 = (d + h * k3) * dr1 + b_const
        d = d + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        b = b + h / 6.0 * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
    return b, d


def charfn_eval(
    params: RateParams,
    asset: AssetParams,
    phi: complex,
    tau: float,
    z: float,
    r: float,
) -> complex:
    """f(phi; tau, z, r) = exp(B + D r + i phi z), loadings from ``bd_series_many``."""
    validate(params, asset, MarketState(spot=1.0, r=r, tau=tau, strike=1.0))
    if tau == 0.0:
        return complex(np.exp(1j * phi * z))
    b, d = bd_series_many(params, asset.sigma, np.array([phi], dtype=complex), tau)
    return complex(np.exp(b[0] + d[0] * r + 1j * phi * z))


def riccati_oracle(
    params: RateParams,
    asset: AssetParams,
    phi: complex,
    tau: float,
    z: float,
    r: float,
    n_steps: int = 10_000,
    return_error: bool = False,
):
    """Independent evaluation of f by fixed-step integration of the system.

    With ``return_error`` the difference against a half-step run is
    reported as an error estimate.
    """
    b, d = bd_ode_many(params, asset.sigma, np.array([phi], dtype=complex), tau, n_steps)
    value = complex(np.exp(b[0] + d[0] * r + 1j * phi * z))
    if not return_error:
        return value
    b2, d2 = bd_ode_many(params, asset.sigma, np.array([phi], dtype=complex), tau, max(1, n_steps // 2))
    coarse = complex(np.exp(b2[0] + d2[0] * r + 1j * phi * z))
    return value, abs(value - coarse)
