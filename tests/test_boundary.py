"""Invalid inputs and infinite transforms raise named errors at the boundary."""

import math

import numpy as np
import pytest

from levypricer import (
    ArithmeticWeights,
    AssetParams,
    BasketParams,
    Exponential,
    Fixed,
    GeometricWeights,
    InvalidParameter,
    Lognormal,
    MarketState,
    QuadratureSpec,
    RateParams,
    SeriesTruncation,
    SimSpec,
    UnsupportedBasket,
    UnsupportedLaw,
    basket_price,
    bond_price,
    charfn_eval,
    convergence_study,
    f_single,
    g_basket,
    mc_basket_price,
    mc_bond_price,
    mc_option_price,
    option_price,
    p_terms,
    simulate_paths,
    validate,
    w_price,
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


def _rate(**kw):
    base = dict(k=2.0, a=0.05, sigma_r=0.05, lam=1.0, x_law=Exponential(1000.0))
    return RateParams(**{**base, **kw})


def _basket(weights=GeometricWeights(0.6), **kw):
    return BasketParams(**{**dict(asset1=ASSET, asset2=_vol(0.2), rho=0.5, weights=weights), **kw})


# Every violation entry, pinned to its exact text: one per field of each
# container and basket weights, plus the two entries for an unknown type.
GOLDEN = [
    (_rate(k=-1.0), ["k: must be >= 0"]),
    (_rate(a=0.0), ["a: must be > 0"]),
    (_rate(sigma_r=-0.1), ["sigma_r: must be >= 0"]),
    (_rate(lam=-1.0), ["lambda: must be >= 0"]),
    (_rate(x_law=Exponential(-1.0)), ["x_law.theta: must be > 0"]),
    (_rate(x_law="exponential"), ["x_law: unknown jump law str"]),
    (_vol(0.0), ["sigma: must be finite and > 0"]),
    (AssetParams(sigma=0.2, lambda1=-1.0, y_law=Fixed(1.0)), ["lambda1: must be >= 0"]),
    (AssetParams(sigma=0.2, lambda1=1.0, y_law=Lognormal(0.0, -0.1)),
     ["y_law.sigma_j: must be >= 0"]),
    (AssetParams(sigma=0.2, lambda1=1.0, y_law=Fixed(math.inf)),
     ["y_law: E[Y] - 1 must be finite"]),
    (_basket(asset1=_vol(-0.2)), ["asset1.sigma: must be finite and > 0"]),
    (_basket(asset2=AssetParams(sigma=0.2, lambda1=1.0, y_law=Fixed(-1.0))),
     ["asset2.y_law.c: must be >= 0"]),
    (_basket(rho=1.5), ["rho: must lie in [-1, 1]"]),
    (_basket(weights=GeometricWeights(1.2)), ["alpha: must lie in [0, 1]"]),
    (_basket(weights=ArithmeticWeights((1.5, -0.5))), ["weights: must be nonnegative"]),
    (_basket(weights=ArithmeticWeights((0.6, 0.6))), ["weights: must sum to 1"]),
    (_basket(weights=(0.6, 0.4)), ["weights: unknown basket selector tuple"]),
    (_state(spot=(110.0, 0.0)), ["spot: must be finite and > 0"]),
    (_state(r=math.nan), ["r: must be finite"]),
    (_state(tau=-1.0), ["tau: must be finite and >= 0"]),
    (_state(strike=0.0), ["strike: must be finite and > 0"]),
]


@pytest.mark.parametrize("container,entries", GOLDEN, ids=lambda x: str(x)[:48])
def test_violation_text_is_pinned(container, entries):
    with pytest.raises(InvalidParameter) as err:
        validate(container)
    assert err.value.violations == entries


def test_all_entries_of_the_first_failing_container_are_reported():
    with pytest.raises(InvalidParameter, match=r"^k: must be >= 0; a: must be > 0$"):
        validate(_rate(k=-1.0, a=0.0), _state(tau=-1.0))
    with pytest.raises(InvalidParameter, match=r"^tau: must be finite and >= 0$"):
        validate(_rate(), ASSET, _state(tau=-1.0), SimSpec(n_paths=0))
    with pytest.raises(TypeError, match="validate does not handle str"):
        validate(_rate(), "state")


# Control containers: each rule, and every entry point that takes the container.
CONTROL = {
    "l_max=-1": (SeriesTruncation(l_max=-1), "l_max: must be an integer >= 0"),
    "n_max=2.5": (SeriesTruncation(n_max=2.5), "n_max: must be an integer >= 0"),
    "m_max=-1": (SeriesTruncation(m_max=-1), "m_max: must be an integer >= 0"),
    "mass_tol=2": (SeriesTruncation(mass_tol=2.0), "mass_tol: must lie in (0, 1)"),
    "mass_tol=0": (SeriesTruncation(mass_tol=0.0), "mass_tol: must lie in (0, 1)"),
    "term_tol=inf": (SeriesTruncation(term_tol=math.inf), "term_tol: must be finite and > 0"),
    "panel_width=-1": (QuadratureSpec(panel_width=-1.0), "panel_width: must be finite and > 0"),
    "nodes_per_panel=0": (QuadratureSpec(nodes_per_panel=0),
                          "nodes_per_panel: must be an integer >= 1"),
    "phi_max_cap=0": (QuadratureSpec(phi_max_cap=0.0), "phi_max_cap: must be finite and > 0"),
    "tail_tol=nan": (QuadratureSpec(tail_tol=math.nan), "tail_tol: must be finite and > 0"),
    "n_paths=0": (SimSpec(n_paths=0), "n_paths: must be an integer >= 1"),
    "n_steps=-5": (SimSpec(n_steps=-5), "n_steps: must be an integer >= 1"),
    "seed=-1": (SimSpec(seed=-1), "seed: must be an integer >= 0"),
    "seed=0.5": (SimSpec(seed=0.5), "seed: must be an integer >= 0"),
}


@pytest.mark.parametrize("case", CONTROL)
def test_control_container_rules(case):
    container, entry = CONTROL[case]
    with pytest.raises(InvalidParameter) as err:
        validate(container)
    assert err.value.violations == [entry]


def test_control_containers_accept_numpy_integers():
    validate(SeriesTruncation(l_max=np.int64(3), n_max=np.int32(3), m_max=np.uint8(3)),
             QuadratureSpec(nodes_per_panel=np.int64(20)),
             SimSpec(n_paths=np.int64(1000), n_steps=np.int16(16), seed=np.uint64(7)))
    spec = SimSpec(n_paths=1000, n_steps=16, seed=7)
    numpy_spec = SimSpec(n_paths=np.int64(1000), n_steps=np.int64(16), seed=np.int64(7))
    assert mc_option_price(RATE, ASSET, _state(), numpy_spec) == \
        mc_option_price(RATE, ASSET, _state(), spec)


STATE2 = _state(spot=(BENCH_SPOT, 100.0))
BAD_TRUNC = SeriesTruncation(l_max=-1)
BAD_QUAD = QuadratureSpec(nodes_per_panel=0)
BAD_SIM = SimSpec(n_steps=-5)
CONTROL_ENTRY_POINTS = {
    "f_single trunc": lambda: f_single(RATE, ASSET, _state(), BAD_TRUNC),
    "f_single spec": lambda: f_single(RATE, ASSET, _state(), spec=BAD_QUAD),
    "option_price trunc": lambda: option_price(RATE, ASSET, _state(), BAD_TRUNC),
    "option_price spec": lambda: option_price(RATE, ASSET, _state(), spec=BAD_QUAD),
    "g_basket trunc": lambda: g_basket(RATE, _basket(), STATE2, BAD_TRUNC),
    "basket_price spec": lambda: basket_price(RATE, _basket(), STATE2, spec=BAD_QUAD),
    "w_price spec": lambda: w_price(RATE, ASSET, _state(), BAD_QUAD),
    "p_terms spec": lambda: p_terms(RATE, ASSET, _state(), BAD_QUAD),
    "convergence_study w spec": lambda: convergence_study("w", RATE, ASSET, _state(), 3, BAD_QUAD),
    "convergence_study f spec": lambda: convergence_study("f", RATE, ASSET, _state(), 3, BAD_QUAD),
    "mc_option_price": lambda: mc_option_price(RATE, ASSET, _state(), BAD_SIM),
    "mc_bond_price": lambda: mc_bond_price(RATE, BENCH_R0, 1.0, BAD_SIM),
    "mc_basket_price": lambda: mc_basket_price(RATE, _basket(), STATE2, BAD_SIM),
    "simulate_paths": lambda: simulate_paths(RATE, None, _state(), SimSpec(n_paths=0)),
}


@pytest.mark.parametrize("case", CONTROL_ENTRY_POINTS)
def test_entry_points_validate_control_containers(case):
    with pytest.raises(InvalidParameter):
        CONTROL_ENTRY_POINTS[case]()


def test_control_containers_are_checked_after_the_others():
    with pytest.raises(InvalidParameter, match=r"^sigma: "):
        option_price(RATE, _vol(-0.05), _state(), BAD_TRUNC, BAD_QUAD)
    with pytest.raises(InvalidParameter, match=r"^spot: must be finite"):
        mc_option_price(RATE, ASSET, _state(spot=-1.0), BAD_SIM)


# convergence_study("w") validates what it reads, like the other selectors.
W_STUDY_INVALID = {
    "a=-0.05": (_rate(a=-0.05), ASSET, _state()),
    "k=-1": (_rate(k=-1.0), ASSET, _state()),
    "sigma=-0.05": (RATE, _vol(-0.05), _state()),
    "strike=-100": (RATE, ASSET, _state(strike=-100.0)),
    "tau=-1": (RATE, ASSET, _state(tau=-1.0)),
    "r=nan": (RATE, ASSET, _state(r=math.nan)),
}


@pytest.mark.parametrize("case", W_STUDY_INVALID)
def test_w_convergence_study_validates(case):
    with pytest.raises(InvalidParameter):
        convergence_study("w", *W_STUDY_INVALID[case], 4)


# A state's spot count must match what is priced on it.
SINGLE_ASSET_TWO_SPOTS = {
    "f_single": lambda: f_single(RATE, ASSET, STATE2),
    "option_price": lambda: option_price(RATE, ASSET, STATE2),
    "w_price": lambda: w_price(RATE, ASSET, STATE2),
    "p_terms": lambda: p_terms(RATE, ASSET, STATE2),
    "convergence_study w": lambda: convergence_study("w", RATE, ASSET, STATE2, 3),
    "mc_option_price": lambda: mc_option_price(RATE, ASSET, STATE2, SimSpec(1000, 16, seed=1)),
}


@pytest.mark.parametrize("case", SINGLE_ASSET_TWO_SPOTS)
def test_single_asset_rejects_two_spots(case):
    with pytest.raises(InvalidParameter) as err:
        SINGLE_ASSET_TWO_SPOTS[case]()
    assert [v.split(":")[0] for v in err.value.violations] == ["spot"]


BASKET_ONE_SPOT = {
    "mc_basket_price": lambda: mc_basket_price(RATE, _basket(), _state(), SimSpec(1000, 16, seed=1)),
    "simulate_paths": lambda: simulate_paths(RATE, _basket(), _state(), SimSpec(4, 8, seed=1)),
}


@pytest.mark.parametrize("case", BASKET_ONE_SPOT)
def test_basket_rejects_one_spot(case):
    with pytest.raises(UnsupportedBasket, match="^basket pricing needs a two-spot MarketState$"):
        BASKET_ONE_SPOT[case]()


@pytest.mark.parametrize("spot,expected", [(110.0, 1.0), (90.0, 0.0), (100.0, 0.5)])
def test_p_terms_at_zero_maturity_is_the_limit(spot, expected):
    assert p_terms(RATE, ASSET, _state(spot=spot, tau=0.0, strike=100.0)) == (expected, expected)
