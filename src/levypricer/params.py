"""Parameter containers shared by every pricer, plus their validator.

All containers are frozen dataclasses: cheap to hash (they key internal
caches) and safe to share between threads.  Construction does not
validate; each container lists its broken invariants in ``violations()``.
``validate(*containers)`` raises at the first container with any, with all
of its violations (what the CLI surfaces to users), then checks that the
state holds one spot for an asset and two for a basket.  The basket
weights also own their payoff ``level`` and their series ``exponents``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import ClassVar

from .errors import InvalidParameter, UnsupportedBasket
from .laws import JumpLaw

__all__ = [
    "RateParams",
    "AssetParams",
    "GeometricWeights",
    "ArithmeticWeights",
    "BasketParams",
    "MarketState",
    "PriceResult",
    "SeriesTruncation",
    "QuadratureSpec",
    "SimSpec",
    "validate",
]


def _failed(*rules: tuple[bool, str, str]) -> list[str]:
    """"field: constraint" for each (holds, field, constraint) rule that does not hold."""
    return [f"{name}: {constraint}" for holds, name, constraint in rules if not holds]


def _whole(value, low: int) -> bool:
    """Whether ``value`` is an integer (numpy's included) >= ``low``."""
    return isinstance(value, Integral) and value >= low


def _law_violations(law: JumpLaw, prefix: str) -> list[str]:
    if not isinstance(law, JumpLaw):
        return [f"{prefix}: unknown jump law {type(law).__name__}"]
    return [f"{prefix}.{item}" for item in law.violations()]


@dataclass(frozen=True)
class RateParams:
    """Jump-extended square-root short-rate dynamics.

    Attributes
    ==========
    k:
        Mean-reversion speed (1/time), k >= 0.
    a:
        Long-run rate level, a > 0.
    sigma_r:
        Rate volatility coefficient on sqrt(r), sigma_r >= 0.
    lam:
        Intensity of the compound-Poisson rate jumps (1/time), lam >= 0.
        Spelled ``lambda`` in configuration files.
    x_law:
        Law of the nonnegative jump magnitudes X.
    """

    k: float
    a: float
    sigma_r: float
    lam: float
    x_law: JumpLaw

    @property
    def m(self) -> float:
        """Discriminant sqrt(k^2 + 2 sigma_r^2) of the bond-loading Riccati.

        This is the constant for which exp(A + G r) solves the bond
        equation; it degenerates to k when sigma_r = 0.
        """
        return math.sqrt(self.k**2 + 2.0 * self.sigma_r**2)

    @property
    def c_x(self) -> float:
        """Mean jump size E[X]."""
        return self.x_law.mean()

    def violations(self) -> list[str]:
        return _failed((self.k >= 0, "k", "must be >= 0"),
                       (self.a > 0, "a", "must be > 0"),
                       (self.sigma_r >= 0, "sigma_r", "must be >= 0"),
                       (self.lam >= 0, "lambda", "must be >= 0")) \
            + _law_violations(self.x_law, "x_law")


@dataclass(frozen=True)
class AssetParams:
    """Jump-diffusion asset dynamics under the risk-neutral measure.

    Attributes
    ==========
    sigma:
        Diffusion volatility (1/sqrt(time)), sigma > 0.
    lambda1:
        Intensity of the multiplicative asset jumps, lambda1 >= 0.
    y_law:
        Law of the positive jump factors Y; C_Y = E[Y] - 1 is the
        compensator that keeps the discounted asset a martingale.
    """

    sigma: float
    lambda1: float
    y_law: JumpLaw

    @property
    def c_y(self) -> float:
        """Compensator mean E[Y] - 1."""
        return self.y_law.mean() - 1.0

    def violations(self) -> list[str]:
        v = _failed((0 < self.sigma < math.inf, "sigma", "must be finite and > 0"),
                    (self.lambda1 >= 0, "lambda1", "must be >= 0")) \
            + _law_violations(self.y_law, "y_law")
        return v or _failed((math.isfinite(self.c_y), "y_law", "E[Y] - 1 must be finite"))


@dataclass(frozen=True)
class GeometricWeights:
    """Geometric basket H = S1^alpha * S2^(1-alpha), alpha in [0, 1]."""

    alpha: float
    kind: ClassVar[str] = "geometric"

    def violations(self) -> list[str]:
        return _failed((0.0 <= self.alpha <= 1.0, "alpha", "must lie in [0, 1]"))

    def level(self, s1, s2):
        """Basket level H of the asset levels (floats or arrays)."""
        return s1**self.alpha * s2 ** (1.0 - self.alpha)

    def exponents(self) -> tuple[float, float]:
        """(alpha, 1 - alpha): ln H = alpha ln S1 + (1 - alpha) ln S2."""
        return self.alpha, 1.0 - self.alpha


@dataclass(frozen=True)
class ArithmeticWeights:
    """Arithmetic basket H = w1 S1 + w2 S2 with nonnegative weights summing to 1."""

    weights: tuple[float, float]
    kind: ClassVar[str] = "arithmetic"

    def violations(self) -> list[str]:
        return _failed((all(x >= 0 for x in self.weights), "weights", "must be nonnegative"),
                       (abs(sum(self.weights) - 1.0) < 1e-12, "weights", "must sum to 1"))

    def level(self, s1, s2):
        """Basket level H of the asset levels (floats or arrays)."""
        return self.weights[0] * s1 + self.weights[1] * s2

    def exponents(self) -> tuple[float, float]:
        """No log-linear form: the series cannot price an arithmetic basket."""
        raise UnsupportedBasket("arithmetic baskets are priced by Monte Carlo only; "
                                "use mc_basket_price")


@dataclass(frozen=True)
class BasketParams:
    """Two assets with correlated diffusions and independent jump streams."""

    asset1: AssetParams
    asset2: AssetParams
    rho: float
    weights: GeometricWeights | ArithmeticWeights = field(default_factory=lambda: GeometricWeights(0.5))

    def violations(self) -> list[str]:
        v = [f"{prefix}.{item}" for prefix, asset in (("asset1", self.asset1), ("asset2", self.asset2))
             for item in asset.violations()]
        v += _failed((-1.0 <= self.rho <= 1.0, "rho", "must lie in [-1, 1]"))
        if not isinstance(self.weights, (GeometricWeights, ArithmeticWeights)):
            return v + [f"weights: unknown basket selector {type(self.weights).__name__}"]
        return v + self.weights.violations()


@dataclass(frozen=True)
class MarketState:
    """Current market snapshot: spot(s), short rate, maturity and strike.

    ``spot`` is a single price for one asset or a pair for a basket.  The
    short rate may be slightly negative: the jump-compensated square-root
    dynamics can dip below zero in simulation.
    """

    spot: float | tuple[float, float]
    r: float
    tau: float
    strike: float

    def spots(self) -> tuple[float, ...]:
        return self.spot if isinstance(self.spot, tuple) else (self.spot,)

    def violations(self) -> list[str]:
        return _failed((all(0 < s < math.inf for s in self.spots()), "spot", "must be finite and > 0"),
                       (math.isfinite(self.r), "r", "must be finite"),
                       (0 <= self.tau < math.inf, "tau", "must be finite and >= 0"),
                       (0 < self.strike < math.inf, "strike", "must be finite and > 0"))


@dataclass(frozen=True)
class PriceResult:
    """A price plus the diagnostics needed to judge it.

    ``terms_used`` holds the (l, n[, m]) truncation indices for series
    prices and is None for quadrature/Monte Carlo results; ``stderr`` is
    set only by the Monte Carlo engine.
    """

    value: float
    terms_used: tuple[int, ...] | None = None
    quad_error: float = 0.0
    converged: bool = True
    stderr: float | None = None


@dataclass(frozen=True)
class SeriesTruncation:
    """Caps and tolerances for the Poisson-weighted series."""

    l_max: int = 60
    n_max: int = 60
    m_max: int = 60
    mass_tol: float = 1e-10
    term_tol: float = 1e-10

    def violations(self) -> list[str]:
        return _failed((_whole(self.l_max, 0), "l_max", "must be an integer >= 0"),
                       (_whole(self.n_max, 0), "n_max", "must be an integer >= 0"),
                       (_whole(self.m_max, 0), "m_max", "must be an integer >= 0"),
                       (0 < self.mass_tol < 1, "mass_tol", "must lie in (0, 1)"),
                       (0 < self.term_tol < math.inf, "term_tol", "must be finite and > 0"))


@dataclass(frozen=True)
class QuadratureSpec:
    """Panel-based Gauss-Legendre settings for the Fourier inversion."""

    panel_width: float = 5.0
    nodes_per_panel: int = 20
    phi_max_cap: float = 200.0
    tail_tol: float = 1e-10

    def violations(self) -> list[str]:
        return _failed((0 < self.panel_width < math.inf, "panel_width", "must be finite and > 0"),
                       (_whole(self.nodes_per_panel, 1), "nodes_per_panel", "must be an integer >= 1"),
                       (0 < self.phi_max_cap < math.inf, "phi_max_cap", "must be finite and > 0"),
                       (0 < self.tail_tol < math.inf, "tail_tol", "must be finite and > 0"))


@dataclass(frozen=True)
class SimSpec:
    """Monte Carlo run settings; ``n_steps`` counts steps per unit time."""

    n_paths: int = 100_000
    n_steps: int = 252
    seed: int = 0
    antithetic: bool = True

    def violations(self) -> list[str]:
        return _failed((_whole(self.n_paths, 1), "n_paths", "must be an integer >= 1"),
                       (_whole(self.n_steps, 1), "n_steps", "must be an integer >= 1"),
                       (_whole(self.seed, 0), "seed", "must be an integer >= 0"))


_CONTAINERS = (RateParams, AssetParams, BasketParams, MarketState,
               SeriesTruncation, QuadratureSpec, SimSpec)


def validate(*containers) -> None:
    """Check every invariant of each parameter container, in the order given,
    then that the state holds as many spots as the assets priced on it.

    Raises
    ======
    InvalidParameter
        At the first container with a violation, carrying one entry per
        violated invariant of that container, named by field; or naming
        ``spot`` when a single asset comes with a two-spot state.
    UnsupportedBasket
        When a basket comes with a one-spot state.
    TypeError
        For an argument that is not a parameter container.
    """
    for container in containers:
        if not isinstance(container, _CONTAINERS):
            raise TypeError(f"validate does not handle {type(container).__name__}")
        entries = container.violations()
        if entries:
            raise InvalidParameter(entries)
    spots = {len(c.spots()) for c in containers if isinstance(c, MarketState)}
    if spots - {1} and any(isinstance(c, AssetParams) for c in containers):
        raise InvalidParameter(["spot: must be one price for a single asset"])
    if spots - {2} and any(isinstance(c, BasketParams) for c in containers):
        raise UnsupportedBasket("basket pricing needs a two-spot MarketState")
