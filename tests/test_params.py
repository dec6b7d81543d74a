"""Parameter validation: every invariant violation is reported by name."""

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
    RateParams,
    validate,
)


def _rate(**kw):
    base = dict(k=2.0, a=0.05, sigma_r=0.05, lam=1.0, x_law=Exponential(1000.0))
    base.update(kw)
    return RateParams(**base)


class TestValidate:
    def test_benchmark_rate_ok(self):
        validate(_rate())  # no raise

    def test_negative_k_reports_field(self):
        with pytest.raises(InvalidParameter) as err:
            validate(_rate(k=-1.0))
        assert any(v.startswith("k:") for v in err.value.violations)

    def test_rho_out_of_range(self):
        asset = AssetParams(sigma=0.2, lambda1=0.0, y_law=Fixed(1.0))
        basket = BasketParams(asset1=asset, asset2=asset, rho=1.5,
                              weights=GeometricWeights(0.5))
        with pytest.raises(InvalidParameter) as err:
            validate(basket)
        assert any(v.startswith("rho:") for v in err.value.violations)

    def test_all_violations_reported_together(self):
        with pytest.raises(InvalidParameter) as err:
            validate(_rate(k=-1.0, a=-2.0, lam=-0.5))
        fields = {v.split(":")[0] for v in err.value.violations}
        assert {"k", "a", "lambda"} <= fields

    def test_asset_invariants(self):
        with pytest.raises(InvalidParameter):
            validate(AssetParams(sigma=0.0, lambda1=0.0, y_law=Fixed(1.0)))
        validate(AssetParams(sigma=0.2, lambda1=1.0, y_law=Fixed(1.01)))

    def test_arithmetic_weights_must_sum_to_one(self):
        asset = AssetParams(sigma=0.2, lambda1=0.0, y_law=Fixed(1.0))
        with pytest.raises(InvalidParameter) as err:
            validate(BasketParams(asset1=asset, asset2=asset, rho=0.0,
                                  weights=ArithmeticWeights((0.6, 0.6))))
        assert any(v.startswith("weights:") for v in err.value.violations)

    def test_geometric_alpha_range(self):
        asset = AssetParams(sigma=0.2, lambda1=0.0, y_law=Fixed(1.0))
        with pytest.raises(InvalidParameter):
            validate(BasketParams(asset1=asset, asset2=asset, rho=0.0,
                                  weights=GeometricWeights(1.2)))

    def test_market_state(self):
        validate(MarketState(spot=100.0, r=-0.001, tau=1.0, strike=90.0))
        with pytest.raises(InvalidParameter):
            validate(MarketState(spot=-1.0, r=0.03, tau=1.0, strike=90.0))

    def test_nested_basket_violations_prefixed(self):
        bad = AssetParams(sigma=-0.2, lambda1=0.0, y_law=Fixed(1.0))
        good = AssetParams(sigma=0.2, lambda1=0.0, y_law=Fixed(1.0))
        with pytest.raises(InvalidParameter) as err:
            validate(BasketParams(asset1=bad, asset2=good, rho=0.0,
                                  weights=GeometricWeights(0.5)))
        assert any(v.startswith("asset1.sigma") for v in err.value.violations)

    @pytest.mark.parametrize("law,entry", [
        (Exponential(-1.0), "y_law.theta: must be > 0"),
        (Fixed(-1.0), "y_law.c: must be >= 0"),
        (Lognormal(0.0, -0.1), "y_law.sigma_j: must be >= 0"),
        ("fixed", "y_law: unknown jump law str"),
    ])
    def test_law_violations_prefixed(self, law, entry):
        with pytest.raises(InvalidParameter) as err:
            validate(AssetParams(sigma=0.2, lambda1=1.0, y_law=law))
        assert err.value.violations == [entry]

    def test_weights_kind_is_not_a_constructor_argument(self):
        # A kind naming the other basket would be priced by one engine and
        # dispatched on by the other.
        with pytest.raises(TypeError):
            GeometricWeights(0.6, "arithmetic")
        assert (GeometricWeights(0.6).kind, ArithmeticWeights((0.6, 0.4)).kind) == \
            ("geometric", "arithmetic")

    def test_m_is_riccati_discriminant(self):
        p = _rate(k=2.0, sigma_r=0.05)
        assert p.m == pytest.approx((2.0**2 + 2 * 0.05**2) ** 0.5, rel=1e-15)
        assert p.m >= p.k
