"""Invalid inputs and infinite transforms raise named errors at the boundary."""

import math

import pytest

from levypricer import (
    AssetParams,
    BasketParams,
    Exponential,
    Fixed,
    InvalidParameter,
    MarketState,
    RateParams,
    UnsupportedLaw,
    basket_price,
    bond_price,
    charfn_eval,
    option_price,
    validate,
)

from conftest import BENCH_R0, BENCH_SPOT, BENCH_STRIKE, BENCH_TAU

RATE = RateParams(k=2.0, a=0.05, sigma_r=0.05, lam=1.0, x_law=Exponential(1000.0))
ASSET = AssetParams(sigma=0.05, lambda1=1.0, y_law=Fixed(1.01))


def _state(spot=BENCH_SPOT, r=BENCH_R0, tau=BENCH_TAU, strike=BENCH_STRIKE):
    return MarketState(spot=spot, r=r, tau=tau, strike=strike)


def _vol(sigma):
    return AssetParams(sigma=sigma, lambda1=0.0, y_law=Fixed(1.0))


INVALID = {
    "bond_price tau=-1": lambda: bond_price(RATE, BENCH_R0, -1.0),
    "bond_price tau=nan": lambda: bond_price(RATE, BENCH_R0, math.nan),
    "bond_price r=nan": lambda: bond_price(RATE, math.nan, 1.0),
    "charfn_eval sigma=-0.05": lambda: charfn_eval(RATE, _vol(-0.05), 1.0, 1.0, 4.7, BENCH_R0),
    "charfn_eval tau=-1": lambda: charfn_eval(RATE, ASSET, 1.0, -1.0, 4.7, BENCH_R0),
    "option_price r=inf": lambda: option_price(RATE, ASSET, _state(r=math.inf)),
    "option_price spot=inf": lambda: option_price(RATE, ASSET, _state(spot=math.inf)),
    "option_price strike=inf": lambda: option_price(RATE, ASSET, _state(strike=math.inf)),
    "option_price tau=inf": lambda: option_price(RATE, ASSET, _state(tau=math.inf)),
    "option_price sigma=inf": lambda: option_price(RATE, _vol(math.inf), _state()),
    "validate sigma=inf": lambda: validate(_vol(math.inf)),
}


@pytest.mark.parametrize("case", INVALID)
def test_invalid_input_raises_invalid_parameter(case):
    with pytest.raises(InvalidParameter):
        INVALID[case]()


def test_negative_short_rate_stays_valid():
    assert math.isfinite(bond_price(RATE, -0.01, 1.0))
    assert math.isfinite(option_price(RATE, ASSET, _state(r=-0.01)).value)


def test_infinite_rate_jump_mgf_is_unsupported_law():
    # E[exp(D X)] with X ~ Exp(0.3) is infinite at D(-i) ~ 0.432 on the bench rate.
    rate = RateParams(k=2.0, a=0.05, sigma_r=0.05, lam=1.0, x_law=Exponential(0.3))
    with pytest.raises(UnsupportedLaw, match=r"theta=0\.3.*Monte Carlo"):
        option_price(rate, ASSET, _state())


def test_invalid_rate_jump_law_raises_invalid_parameter():
    # Exp(-1) has no mgf anywhere; the rate is validated before any loading.
    rate = RateParams(k=2.0, a=0.05, sigma_r=0.05, lam=1.0, x_law=Exponential(-1.0))
    basket = BasketParams(asset1=ASSET, asset2=_vol(0.2), rho=0.5)
    pricers = {
        "option_price": lambda: option_price(rate, ASSET, _state()),
        "basket_price": lambda: basket_price(rate, basket, _state(spot=(BENCH_SPOT, 100.0))),
        "bond_price": lambda: bond_price(rate, BENCH_R0, 1.0),
    }
    for price in pricers.values():
        with pytest.raises(InvalidParameter, match="theta"):
            price()
