"""Jump-magnitude laws, Poisson weights and quadrature node generation.

Rate jumps X >= 0 enter additively (r -> r + sum X_i), asset jumps Y > 0
multiplicatively (S -> S * prod Y_i).  Every law exposes its mean, the
transforms

    mgf(u)       = E[exp(u X)]                   rate jumps
    mgf_prime(u) = E[X exp(u X)]
    log_cf(u)    = E[Y^{iu}] = E[exp(i u ln Y)]   asset jumps, complex u
    log_step()   = |ln c| or |mu_j|              log shift of one asset jump

where they are defined (UnsupportedLaw elsewhere), ``violations()``, its
configuration name ``kind`` (``JUMP_LAWS``), and samplers driven by an
explicit ``numpy.random.Generator`` so concurrent use stays deterministic.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np
from scipy.special import gammaln, roots_genlaguerre, roots_hermite

from .errors import UnsupportedLaw

__all__ = [
    "JumpLaw",
    "Exponential",
    "Fixed",
    "Lognormal",
    "JUMP_LAWS",
    "poisson_weight",
    "poisson_weights",
    "poisson_cutoff",
    "jump_sum_nodes",
    "product_law_shift",
    "product_nodes",
]

_HERMITE_NODES_DEFAULT = 64
_NO_PRODUCT = "asset jump law %s has no n-fold product form; use the Monte Carlo engine"


class JumpLaw(ABC):
    """Distribution of a single jump magnitude."""

    kind: ClassVar[str]
    # Field a configuration file may give instead as ``mean`` = 1 / field.
    mean_key: ClassVar[str | None] = None

    @abstractmethod
    def mean(self) -> float:
        """E[X]."""

    @abstractmethod
    def mgf(self, u):
        """E[exp(u X)] for u in the law's finite domain."""

    @abstractmethod
    def mgf_prime(self, u):
        """E[X exp(u X)] for u in the law's finite domain."""

    @abstractmethod
    def violations(self) -> list[str]:
        """Broken invariants as "field: constraint" entries; empty when valid."""

    def log_cf(self, u):
        """E[Y^{iu}] = E[exp(i u ln Y)] at complex u, for a multiplicative jump."""
        raise UnsupportedLaw(_NO_PRODUCT % type(self).__name__)

    def log_step(self) -> float:
        """Typical log shift |ln Y| of one multiplicative jump, for the panel width."""
        raise UnsupportedLaw(_NO_PRODUCT % type(self).__name__)

    @abstractmethod
    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` i.i.d. magnitudes."""

    @abstractmethod
    def sample_sum(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw sum_{i=1}^{counts[j]} X_i for each entry of ``counts``."""

    @abstractmethod
    def sample_log_product(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw log(prod_{i=1}^{counts[j]} X_i) for each entry of ``counts``."""


def _sum_by_counts(draws: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum a flat array of draws into per-entry totals given jump counts."""
    out = np.zeros(counts.shape, dtype=float)
    if draws.size:
        idx = np.repeat(np.arange(counts.size), counts.ravel())
        out = np.bincount(idx, weights=draws, minlength=counts.size).reshape(counts.shape)
    return out


@dataclass(frozen=True)
class Exponential(JumpLaw):
    """Exponential law with rate ``theta`` (mean 1/theta), support [0, inf).

    mgf(u) = theta / (theta - u) for u < theta.
    """

    theta: float
    kind: ClassVar[str] = "exponential"
    mean_key: ClassVar[str] = "theta"

    def mean(self) -> float:
        return 1.0 / self.theta

    def violations(self):
        return [] if self.theta > 0 else ["theta: must be > 0"]

    def mgf(self, u):
        u = np.asarray(u)
        if np.any(np.real(u) >= self.theta):
            raise ValueError(f"mgf of Exponential(theta={self.theta}) requires u < theta")
        return self.theta / (self.theta - u)

    def mgf_prime(self, u):
        u = np.asarray(u)
        if np.any(np.real(u) >= self.theta):
            raise ValueError(f"mgf of Exponential(theta={self.theta}) requires u < theta")
        return self.theta / (self.theta - u) ** 2

    def sample(self, size, rng):
        return rng.exponential(1.0 / self.theta, size)

    def sample_sum(self, counts, rng):
        # Sum of n Exp(theta) draws is Gamma(n, theta); counts are mostly
        # zero at simulation step sizes, so draw only where needed.
        counts = np.asarray(counts)
        out = np.zeros(counts.shape, dtype=float)
        nz = counts > 0
        if nz.any():
            out[nz] = rng.standard_gamma(counts[nz]) / self.theta
        return out

    def sample_log_product(self, counts, rng):
        counts = np.asarray(counts)
        draws = np.log(self.sample(int(counts.sum()), rng))
        return _sum_by_counts(draws, counts)


@dataclass(frozen=True)
class Fixed(JumpLaw):
    """Deterministic jump of size ``c`` >= 0."""

    c: float
    kind: ClassVar[str] = "fixed"

    def mean(self) -> float:
        return self.c

    def violations(self):
        return [] if self.c >= 0 else ["c: must be >= 0"]

    def _log_c(self) -> float:
        if self.c <= 0.0:
            raise UnsupportedLaw("multiplicative jumps require a strictly positive magnitude")
        return math.log(self.c)

    def log_cf(self, u):
        return np.exp(1j * u * self._log_c())

    def log_step(self):
        return abs(self._log_c())

    def mgf(self, u):
        return np.exp(np.asarray(u) * self.c)

    def mgf_prime(self, u):
        return self.c * np.exp(np.asarray(u) * self.c)

    def sample(self, size, rng):
        return np.full(size, self.c)

    def sample_sum(self, counts, rng):
        return np.asarray(counts, dtype=float) * self.c

    def sample_log_product(self, counts, rng):
        return np.asarray(counts, dtype=float) * self._log_c()


@dataclass(frozen=True)
class Lognormal(JumpLaw):
    """Lognormal law: ln X ~ N(mu_j, sigma_j^2), support (0, inf).

    The mgf E[exp(u X)] is finite only for u <= 0 and has no closed form;
    it is evaluated by Gauss-Hermite quadrature in log space, at real u only.
    """

    mu_j: float
    sigma_j: float
    kind: ClassVar[str] = "lognormal"

    def mean(self) -> float:
        return math.exp(self.mu_j + 0.5 * self.sigma_j**2)

    def violations(self):
        return [] if self.sigma_j >= 0 else ["sigma_j: must be >= 0"]

    def log_cf(self, u):
        return np.exp(1j * u * self.mu_j - 0.5 * u * u * self.sigma_j**2)

    def log_step(self):
        return abs(self.mu_j)

    def _tilted(self, u):
        """(exp(u x), x, w) on the Hermite nodes x, for real u <= 0 only."""
        if np.iscomplexobj(u):
            raise UnsupportedLaw("rate jump law Lognormal has no mgf at complex arguments; "
                                 "use the Monte Carlo engine")
        u = np.asarray(u, dtype=float)
        if np.any(u > 0):
            raise ValueError("mgf of a Lognormal law is finite only for u <= 0")
        t, w = _hermite_cache(_HERMITE_NODES_DEFAULT)
        x = np.exp(self.mu_j + math.sqrt(2.0) * self.sigma_j * t)
        return np.exp(np.multiply.outer(u, x)), x, w / math.sqrt(math.pi)

    def mgf(self, u):
        tilt, _, w = self._tilted(u)
        return tilt @ w

    def mgf_prime(self, u):
        tilt, x, w = self._tilted(u)
        return tilt @ (w * x)

    def sample(self, size, rng):
        return rng.lognormal(self.mu_j, self.sigma_j, size)

    def sample_sum(self, counts, rng):
        counts = np.asarray(counts)
        return _sum_by_counts(self.sample(int(counts.sum()), rng), counts)

    def sample_log_product(self, counts, rng):
        counts = np.asarray(counts)
        # Sum of n i.i.d. N(mu, sigma^2) draws collapses to one normal;
        # draw only where a jump actually arrived.
        out = np.zeros(counts.shape, dtype=float)
        nz = counts > 0
        if nz.any():
            c = counts[nz].astype(float)
            out[nz] = rng.normal(c * self.mu_j, self.sigma_j * np.sqrt(c))
        return out


JUMP_LAWS: dict[str, type[JumpLaw]] = {law.kind: law for law in (Exponential, Fixed, Lognormal)}


# ---------------------------------------------------------------------------
# Poisson weights
# ---------------------------------------------------------------------------


def poisson_weight(rate: float, tau: float, n: int) -> float:
    """Probability of n arrivals: (rate*tau)^n exp(-rate*tau) / n!.

    Evaluated in log space so weights stay finite for large n.
    """
    if rate < 0 or tau < 0 or n < 0:
        raise ValueError("poisson_weight requires rate >= 0, tau >= 0, n >= 0")
    rt = rate * tau
    if rt == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(rt) - rt - math.lgamma(n + 1))


def poisson_weights(rate: float, tau: float, n_max: int) -> np.ndarray:
    """Weights for n = 0..n_max as one array (log-space evaluation)."""
    rt = rate * tau
    n = np.arange(n_max + 1)
    if rt == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    return np.exp(n * math.log(rt) - rt - gammaln(n + 1))


def poisson_cutoff(rate: float, tau: float, mass_tol: float = 1e-10, cap: int = 60) -> int:
    """Smallest N whose cumulative weight reaches 1 - mass_tol, capped."""
    w = poisson_weights(rate, tau, cap)
    cum = np.cumsum(w)
    hit = np.nonzero(cum >= 1.0 - mass_tol)[0]
    return int(hit[0]) if hit.size else cap


# ---------------------------------------------------------------------------
# Quadrature nodes for jump-sum and jump-product expectations
# ---------------------------------------------------------------------------

_hermite_cache = lru_cache(maxsize=None)(roots_hermite)


@lru_cache(maxsize=None)
def _laguerre_cache(n_nodes: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_genlaguerre(n_nodes, l - 1)
    return x, w / math.gamma(l)


def jump_sum_nodes(x_law: JumpLaw, l: int, n_nodes: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights so that sum w_i g(node_i) ~= E[g(X_1 + ... + X_l)].

    Exponential(theta): the l-fold sum is Gamma(l, theta), handled by
    generalized Gauss-Laguerre with exponent l-1 mapped by 1/theta.
    Fixed(c): a single node l*c with weight 1.
    """
    if l < 1:
        raise ValueError("jump_sum_nodes requires l >= 1")
    if isinstance(x_law, Fixed):
        return np.array([l * x_law.c]), np.array([1.0])
    if isinstance(x_law, Exponential):
        x, w = _laguerre_cache(n_nodes, l)
        return x / x_law.theta, w
    raise UnsupportedLaw(
        f"no jump-sum quadrature for {type(x_law).__name__}; use the Monte Carlo engine"
    )


def product_law_shift(y_law: JumpLaw, n: int) -> JumpLaw:
    """Law of the n-fold product prod_{i=1}^n Y_i.

    Fixed(y0) -> Fixed(y0^n); Lognormal(mu, sigma) -> Lognormal(n mu,
    sqrt(n) sigma); n = 0 -> the constant 1.
    """
    if n < 0:
        raise ValueError("product_law_shift requires n >= 0")
    if n == 0:
        return Fixed(1.0)
    if isinstance(y_law, Fixed):
        return Fixed(y_law.c**n)
    if isinstance(y_law, Lognormal):
        return Lognormal(n * y_law.mu_j, math.sqrt(n) * y_law.sigma_j)
    raise UnsupportedLaw(
        "an Exponential multiplicative jump has no closed n-fold product; "
        "integrating against the n-fold density is not provided"
    )


def product_nodes(y_law: JumpLaw, n: int, n_nodes: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for E[g(prod_{i=1}^n Y_i)] via the shifted product law."""
    law = product_law_shift(y_law, n)
    if isinstance(law, Fixed):
        return np.array([law.c]), np.array([1.0])
    t, w = _hermite_cache(n_nodes)
    nodes = np.exp(law.mu_j + math.sqrt(2.0) * law.sigma_j * t)
    return nodes, w / math.sqrt(math.pi)
