"""Exception types shared across the pricing modules."""

from __future__ import annotations


class LevyPricerError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParameter(LevyPricerError):
    """A parameter container violates one or more of its invariants.

    Carries the full list of violations so callers can report them all at
    once instead of fixing one field at a time.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class UnsupportedLaw(LevyPricerError):
    """The requested operation has no quadrature/closed form for this law."""


class UnsupportedBasket(LevyPricerError):
    """Basket payoff not supported by the series pricer (use Monte Carlo)."""


class RadiusExceeded(LevyPricerError):
    """Time to maturity lies outside the power-series convergence radius."""


class DenominatorVanishing(LevyPricerError):
    """The series denominator is numerically indistinguishable from zero."""


class DegenerateVolatility(LevyPricerError):
    """sigma_r = 0 makes the series form undefined; the loadings take the
    closed form D = -i phi G there, and the RK4 integration is the oracle only."""


class QuadratureNotConverged(LevyPricerError):
    """Refining a quadrature rule moved the result beyond tolerance."""


class TailNotDecayed(LevyPricerError):
    """A Fourier integral tail was still above tolerance at the cap."""


class StepCountExceeded(LevyPricerError):
    """An ODE integration was asked for more steps than the hard cap."""
