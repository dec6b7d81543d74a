"""Zero-coupon bond under the jump-extended square-root short rate.

The bond price is exponential-affine, b(s, r) = exp(A(s) + G(s) r) with
s the time to maturity, where G solves the Riccati equation

    dG/ds = -1 - k G + (1/2) sigma_r^2 G^2,   G(0) = 0,

whose closed form is

    G(s) = -2 (e^{m s} - 1) / (2 m + (k + m)(e^{m s} - 1)),
    m    = sqrt(k^2 + 2 sigma_r^2),

and

    A(s) = (k a - lam C_X) * int_0^s G(u) du
           + lam * int_0^s (mgf_X(G(u)) - 1) du,   A(0) = 0.

The G-integral has a closed form; the jump integral is Gauss-Legendre
for every law, checked against a rerun at twice the node count.  The
classical square-root-diffusion bond formula is kept as an independent
degenerate-case oracle for lam = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import QuadratureNotConverged
from .params import MarketState, RateParams, validate

__all__ = [
    "BondLoading",
    "bond_loading",
    "loading_G",
    "integral_of_G",
    "loading_A",
    "bond_price",
    "cir_bond_price",
]

@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def loading_G(params: RateParams, s):
    """Loading on r, continuous at s = 0 and bounded below by -2/(k+m).

    Accepts a scalar or an array of times to maturity.  Written in terms
    of e^{-m s} so it neither overflows for large s nor loses precision
    near s = 0 (the expm1 form reproduces the -s + O(s^2) series there).
    At m = 0 (k = sigma_r = 0) it takes its limit G = -s.
    """
    m = params.m
    s = np.asarray(s, dtype=float)
    if m == 0.0:
        out = -s
    else:
        one = -np.expm1(-m * s)  # 1 - e^{-m s}
        out = -2.0 * one / (2.0 * m * np.exp(-m * s) + (params.k + m) * one)
    return float(out) if out.ndim == 0 else out


def integral_of_G(params: RateParams, s):
    """Closed form of int_0^s G(u) du.

    Algebraically equal to
        -2 s/(k+m) - 4/(m^2-k^2) * log1p((m-k) (e^{-m s} - 1) / (2 m)),
    with a series branch for m -> k (sigma_r -> 0) where the log1p
    argument vanishes, and the limit -s^2/2 at m = 0 (k = sigma_r = 0).
    """
    m, k = params.m, params.k
    s = np.asarray(s, dtype=float)
    em = np.expm1(-m * s)  # e^{-m s} - 1
    if m == 0.0:
        out = -0.5 * s * s
    elif m > k:
        # log1p(x)/(m-k) is stable: x carries the (m-k) factor exactly.
        x = (m - k) * em / (2.0 * m)
        out = -2.0 * s / (m + k) - 4.0 / ((m - k) * (m + k)) * np.log1p(x)
    else:
        # sigma_r = 0 limit (m == k in double precision).
        out = -2.0 * s / (m + k) - 2.0 * em / (m * (m + k))
    return float(out) if out.ndim == 0 else out


def loading_A(
    params: RateParams,
    s: float,
    n_nodes: int = 64,
    check: bool = True,
    check_tol: float = 1e-9,
) -> float:
    """Constant loading A(s); A(0) = 0.

    The jump part integrates mgf_X(G(u)) - 1 over [0, s] with n_nodes
    Gauss-Legendre points.  With ``check`` the rule is re-run at twice
    the node count and QuadratureNotConverged is raised if the two
    results disagree beyond ``check_tol``.
    """
    if s < 0:
        raise ValueError("loading_A requires s >= 0")
    drift_part = (params.k * params.a - params.lam * params.c_x) * integral_of_G(params, s)
    if params.lam == 0.0 or s == 0.0:
        return float(drift_part)

    def jump_integral(n: int) -> float:
        x, w = gauss_legendre(n)
        u = 0.5 * s * (x + 1.0)
        g = loading_G(params, u)
        phi = np.real(params.x_law.mgf(g)) - 1.0
        return 0.5 * s * float(w @ phi)

    jump_part = jump_integral(n_nodes)
    if check:
        refined = jump_integral(2 * n_nodes)
        if abs(refined - jump_part) > check_tol:
            raise QuadratureNotConverged(
                f"loading_A jump integral moved by {abs(refined - jump_part):.3e} "
                f"when refining {n_nodes} -> {2 * n_nodes} nodes"
            )
        jump_part = refined
    return float(drift_part + params.lam * jump_part)


def bond_price(params: RateParams, r: float, s: float, **kwargs) -> float:
    """Zero-coupon bond price exp(A(s) + G(s) r); equals 1 at s = 0."""
    validate(params, MarketState(spot=1.0, r=r, tau=s, strike=1.0))
    return math.exp(loading_A(params, s, **kwargs) + loading_G(params, s) * r)


@dataclass(frozen=True)
class BondLoading:
    """Both affine loadings as functions of time to maturity, plus m.

    G(0) = 0 and A(0) = 0; G decreases towards -2/(k+m).
    """

    G: Callable[[float], float]
    A: Callable[[float], float]
    m: float


def bond_loading(params: RateParams) -> BondLoading:
    """Bundle the loading functions for one parameter set."""
    return BondLoading(
        G=lambda s: loading_G(params, s),
        A=lambda s: loading_A(params, s),
        m=params.m,
    )


def cir_bond_price(k: float, a: float, sigma_r: float, r: float, tau: float) -> float:
    """Classical square-root diffusion bond price (no jumps), textbook form.

    P = A(tau) e^{-B(tau) r} with gamma = sqrt(k^2 + 2 sigma_r^2),
    B = 2(e^{gamma tau}-1) / (2 gamma + (k+gamma)(e^{gamma tau}-1)) and
    A = (2 gamma e^{(k+gamma) tau/2} / same denominator)^{2 k a / sigma_r^2}.
    Used as the degenerate-case oracle; requires sigma_r > 0.
    """
    if sigma_r <= 0:
        raise ValueError("cir_bond_price requires sigma_r > 0")
    gamma = math.sqrt(k * k + 2.0 * sigma_r * sigma_r)
    one = -math.expm1(-gamma * tau)  # 1 - e^{-gamma tau}
    log_denom = gamma * tau + math.log((k + gamma) + (gamma - k) * math.exp(-gamma * tau))
    b_load = 2.0 * one / (2.0 * gamma * math.exp(-gamma * tau) + (k + gamma) * one)
    log_a = (2.0 * k * a / sigma_r**2) * (
        math.log(2.0 * gamma) + 0.5 * (k + gamma) * tau - log_denom
    )
    return math.exp(log_a - b_load * r)
