"""Parameter containers shared by every pricer, plus their validator.

All containers are frozen dataclasses: cheap to hash (they key internal
caches) and safe to share between threads.  Construction does not
validate; ``validate`` checks every invariant at once and reports all
violations together, which is what the CLI surfaces to users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

from .errors import InvalidParameter
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


@dataclass(frozen=True)
class GeometricWeights:
    """Geometric basket H = S1^alpha * S2^(1-alpha), alpha in [0, 1]."""

    alpha: float
    kind: ClassVar[str] = "geometric"


@dataclass(frozen=True)
class ArithmeticWeights:
    """Arithmetic basket H = w1 S1 + w2 S2 with nonnegative weights summing to 1."""

    weights: tuple[float, float]
    kind: ClassVar[str] = "arithmetic"


@dataclass(frozen=True)
class BasketParams:
    """Two assets with correlated diffusions and independent jump streams."""

    asset1: AssetParams
    asset2: AssetParams
    rho: float
    weights: GeometricWeights | ArithmeticWeights = field(default_factory=lambda: GeometricWeights(0.5))


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


@dataclass(frozen=True)
class QuadratureSpec:
    """Panel-based Gauss-Legendre settings for the Fourier inversion."""

    panel_width: float = 5.0
    nodes_per_panel: int = 20
    phi_max_cap: float = 200.0
    tail_tol: float = 1e-10


@dataclass(frozen=True)
class SimSpec:
    """Monte Carlo run settings; ``n_steps`` counts steps per unit time."""

    n_paths: int = 100_000
    n_steps: int = 252
    seed: int = 0
    antithetic: bool = True


def _check(violations: list[str], ok: bool, name: str, constraint: str) -> None:
    if not ok:
        violations.append(f"{name}: {constraint}")


def _law_violations(law: JumpLaw, prefix: str) -> list[str]:
    if not isinstance(law, JumpLaw):
        return [f"{prefix}: unknown jump law {type(law).__name__}"]
    return [f"{prefix}.{item}" for item in law.violations()]


def validate(params) -> None:
    """Check every invariant of a parameter container; raise on violation.

    Raises
    ======
    InvalidParameter
        Carrying one entry per violated invariant, named by field.
    """
    v: list[str] = []
    if isinstance(params, RateParams):
        _check(v, params.k >= 0, "k", "must be >= 0")
        _check(v, params.a > 0, "a", "must be > 0")
        _check(v, params.sigma_r >= 0, "sigma_r", "must be >= 0")
        _check(v, params.lam >= 0, "lambda", "must be >= 0")
        v += _law_violations(params.x_law, "x_law")
    elif isinstance(params, AssetParams):
        _check(v, 0 < params.sigma < math.inf, "sigma", "must be finite and > 0")
        _check(v, params.lambda1 >= 0, "lambda1", "must be >= 0")
        v += _law_violations(params.y_law, "y_law")
        if not v:
            _check(v, math.isfinite(params.c_y), "y_law", "E[Y] - 1 must be finite")
    elif isinstance(params, BasketParams):
        for prefix, asset in (("asset1", params.asset1), ("asset2", params.asset2)):
            try:
                validate(asset)
            except InvalidParameter as err:
                v.extend(f"{prefix}.{item}" for item in err.violations)
        _check(v, -1.0 <= params.rho <= 1.0, "rho", "must lie in [-1, 1]")
        w = params.weights
        if isinstance(w, GeometricWeights):
            _check(v, 0.0 <= w.alpha <= 1.0, "alpha", "must lie in [0, 1]")
        elif isinstance(w, ArithmeticWeights):
            _check(v, all(x >= 0 for x in w.weights), "weights", "must be nonnegative")
            _check(v, abs(sum(w.weights) - 1.0) < 1e-12, "weights", "must sum to 1")
        else:
            v.append(f"weights: unknown basket selector {type(w).__name__}")
    elif isinstance(params, MarketState):
        _check(v, all(0 < s < math.inf for s in params.spots()), "spot", "must be finite and > 0")
        _check(v, math.isfinite(params.r), "r", "must be finite")
        _check(v, 0 <= params.tau < math.inf, "tau", "must be finite and >= 0")
        _check(v, 0 < params.strike < math.inf, "strike", "must be finite and > 0")
    else:
        raise TypeError(f"validate does not handle {type(params).__name__}")
    if v:
        raise InvalidParameter(v)
