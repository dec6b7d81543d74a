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

which requires sigma_r > 0; for sigma_r = 0 the engine falls back to a
classical fourth-order integration of the Riccati system, which also
serves as the independent oracle for the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bond import gauss_legendre, loading_G
from .errors import DegenerateVolatility, DenominatorVanishing, RadiusExceeded, StepCountExceeded
from .params import AssetParams, RateParams

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


def radius_bound(params: RateParams) -> float:
    """Convergence radius of the denominator series in time to maturity.

    Raises DegenerateVolatility when sigma_r = 0 (m = k puts the nearest
    singularity at infinity along one branch and the bound formula
    degenerates; the series path is disabled there anyway).
    """
    m, k = params.m, params.k
    if params.sigma_r == 0.0 or m <= k:
        raise DegenerateVolatility("radius bound undefined for sigma_r = 0; use the ODE path")
    return (1.0 / m) * math.sqrt(math.log((m - k) / (m + k)) ** 2 + math.pi**2)


def _coeff_table(
    params: RateParams,
    phis: np.ndarray,
    tau: float,
    cap: int = COEFF_CAP,
    full: bool = False,
):
    """Recurrence coefficients a_n for a batch of frequencies.

    Returns (table, converged) where table has shape (N+1, len(phis)).
    Unless ``full``, the order N is grown only until the last two terms
    of every h(tau) series fall below SERIES_RTOL relative to the
    running sum; the cap leaves the offending frequencies flagged
    converged = False.
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
    adaptive = tau > 0.0 and not full

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
    table, _ = _coeff_table(params, np.array([phi]), tau=0.0, cap=n_order, full=True)
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
    if params.sigma_r == 0.0:
        raise DegenerateVolatility("series form undefined for sigma_r = 0; use the ODE path")
    if tau >= radius_bound(params):
        raise RadiusExceeded(
            f"tau={tau} is not below the series convergence bound {radius_bound(params):.6f}"
        )


def _h_and_deriv(coeffs: np.ndarray, tau) -> tuple[np.ndarray, np.ndarray]:
    """h(tau) and h'(tau) for coefficient table (N+1,) or (N+1, n_phi)."""
    h = np.polynomial.polynomial.polyval(tau, coeffs)
    if coeffs.shape[0] == 1:
        return h, np.zeros_like(h)
    n = np.arange(coeffs.shape[0])
    deriv = coeffs[1:] * n[1:, None] if coeffs.ndim > 1 else coeffs[1:] * n[1:]
    return h, np.polynomial.polynomial.polyval(tau, deriv)


def D_eval(params: RateParams, coeffs: np.ndarray, tau: float) -> complex:
    """Loading on r: D = -2 h'(tau) / (sigma_r^2 h(tau))."""
    _check_tau(params, tau)
    h, hp = _h_and_deriv(np.asarray(coeffs), tau)
    if np.min(np.abs(h)) < 1e-12:
        raise DenominatorVanishing(f"|h(tau)| = {np.min(np.abs(h)):.3e} < 1e-12")
    return -2.0 * hp / (params.sigma_r**2 * h)


def B_eval(
    params: RateParams,
    asset: AssetParams,
    phi: complex,
    tau: float,
    n_time_nodes: int = 64,
) -> complex:
    """Constant loading B(phi, tau); B(0, tau) = 0 and B(phi, 0) = 0."""
    _check_tau(params, tau)
    if tau == 0.0:
        return 0.0 + 0.0j
    b, _ = bd_series_many(params, asset.sigma, np.array([phi], dtype=complex), tau,
                          n_time_nodes=n_time_nodes)
    return complex(b[0])


def make_expansion(
    params: RateParams, asset: AssetParams, phi: complex, tau: float
) -> CharFnExpansion:
    """Assemble the full expansion record for one (phi, tau)."""
    _check_tau(params, tau)
    table, converged = _coeff_table(params, np.array([phi], dtype=complex), tau)
    coeffs = table[:, 0]
    d = D_eval(params, coeffs, tau) if tau > 0 else 0.0 + 0.0j
    b = B_eval(params, asset, phi, tau)
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
    n_time_nodes: int = 64,
    max_terms: int | None = None,
    return_converged: bool = False,
):
    """(B, D) arrays over a batch of (possibly complex) frequencies.

    ``max_terms`` truncates the h series to its first ``max_terms``
    coefficients, which is what the convergence study varies.  With
    ``return_converged`` the per-frequency flag of the coefficient table
    (False where it was cut at COEFF_CAP) is returned third.
    """
    _check_tau(params, tau)
    phis = np.asarray(phis, dtype=complex)
    table, converged = _coeff_table(params, phis, tau)
    if max_terms is not None:
        table = table[:max_terms]
    sig2 = params.sigma_r**2

    def d_at(t):
        h, hp = _h_and_deriv(table, t)
        if np.min(np.abs(h)) < 1e-12:
            raise DenominatorVanishing("denominator series vanishes inside [0, tau]")
        return -2.0 * hp / (sig2 * h)

    d_tau = d_at(tau)
    x, w = gauss_legendre(n_time_nodes)
    u = 0.5 * tau * (x + 1.0)
    g = loading_G(params, u)
    drift = params.k * params.a + _jump_drift(params, g)  # (n_nodes,)
    d_nodes = d_at(u)  # (n_phi, n_nodes) via polyval broadcasting
    b = 0.5 * tau * (d_nodes @ (w * drift)) - 0.5 * sigma**2 * (phis**2 + 1j * phis) * tau
    return (b, d_tau, converged) if return_converged else (b, d_tau)


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
    """f(phi; tau, z, r) = exp(B + D r + i phi z) via the series.

    Falls back to the fourth-order Riccati integration when sigma_r = 0,
    where the series form is undefined.
    """
    if tau == 0.0:
        return complex(np.exp(1j * phi * z))
    if params.sigma_r == 0.0:
        b, d = bd_ode_many(params, asset.sigma, np.array([phi], dtype=complex), tau)
    else:
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
