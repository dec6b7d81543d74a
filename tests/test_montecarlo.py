"""Simulation engine: reproducibility, martingale diagnostics, oracles."""

import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from levypricer import (
    AssetParams,
    BasketParams,
    Exponential,
    Fixed,
    GeometricWeights,
    ArithmeticWeights,
    InvalidParameter,
    Lognormal,
    MarketState,
    RateParams,
    SimSpec,
    black_scholes_reference,
    cir_bond_price,
    mc_basket_price,
    mc_bond_price,
    mc_option_price,
    simulate_paths,
)
from levypricer import montecarlo

from conftest import BENCH_R0, BENCH_SPOT, BENCH_STRIKE


def _rate(**kw):
    base = dict(k=2.0, a=0.05, sigma_r=0.05, lam=1.0, x_law=Exponential(1000.0))
    base.update(kw)
    return RateParams(**base)


# float.hex of (value, stderr), and the sha256 of a path bundle's grids, as
# recorded with every rate Gaussian drawn on the calling thread one step at a
# time; keyed "<run>-<antithetic>".
GOLDEN_STREAMS = {
    "option-True": ("0x1.c26eb08d47731p+3", "0x1.201a8d79fd21fp-5"),
    "arithmetic-True": ("0x1.5c17041b2d16ap+3", "0x1.ccd576bf80674p-4"),
    "geometric-True": ("0x1.5157eb9bfc01bp+3", "0x1.c9b6201227bf2p-4"),
    "bond-True": ("0x1.eb4055bbb9be1p-1", "0x1.e179d55cc6543p-17"),
    "blocks-True": ("0x1.c005a0ef64966p+3", "0x1.1f1cc210e1eaap-8"),
    "paths-True":
        "12a40e703cbff4ff027c1df2b1d37f8c0cbeed3c2cbd7693e8367655eff370bf",
    "option-False": ("0x1.c3484d7235a51p+3", "0x1.01c56bf7e1c4cp-3"),
    "arithmetic-False": ("0x1.5e1eb4c69e3e1p+3", "0x1.b178363f23d16p-3"),
    "geometric-False": ("0x1.53e15e80e7a5ap+3", "0x1.add509a9e56f9p-3"),
    "bond-False": ("0x1.eb3b5bd161b93p-1", "0x1.1710a3516bde2p-14"),
    "blocks-False": ("0x1.c00f16520528ap+3", "0x1.fbc9280c21d7dp-7"),
    "paths-False":
        "ecc5bfb4e87465c110a60b5fd7ba1fb03182afe6e36393635f772afd50ce1859",
}


def _golden_runs(rate, asset, state, antithetic):
    spec = SimSpec(n_paths=2_000, n_steps=32, seed=41, antithetic=antithetic)
    asset2 = AssetParams(sigma=0.2, lambda1=1.0, y_law=Lognormal(-0.02, 0.08))
    state2 = MarketState(spot=(110.0, 100.0), r=BENCH_R0, tau=1.0, strike=100.0)
    basket = lambda w: BasketParams(asset1=asset, asset2=asset2, rho=0.5, weights=w)
    runs = {
        "option": mc_option_price(rate, asset, state, spec),
        "arithmetic": mc_basket_price(rate, basket(ArithmeticWeights((0.6, 0.4))), state2, spec),
        "geometric": mc_basket_price(rate, basket(GeometricWeights(0.6)), state2, spec),
        "bond": mc_bond_price(rate, BENCH_R0, 1.0, spec),
        "blocks": mc_option_price(rate, asset, state,
                                  SimSpec(2 * 65_536 + 2, 2, seed=41, antithetic=antithetic)),
    }
    out = {f"{name}-{antithetic}": (res.value.hex(), res.stderr.hex())
           for name, res in runs.items()}
    bundle = simulate_paths(rate, basket(GeometricWeights(0.6)), state2,
                            SimSpec(6, 16, seed=41, antithetic=antithetic))
    digest = hashlib.sha256()
    for grid in (bundle.t, bundle.r, bundle.s, bundle.s2, bundle.rate_jumps,
                 bundle.asset_jumps, bundle.asset2_jumps):
        digest.update(np.ascontiguousarray(grid, dtype="<f8").tobytes())
    out[f"paths-{antithetic}"] = digest.hexdigest()
    return out


def _in_threads(*fns, timeout=60.0):
    """Run each of ``fns`` on its own thread at once; one dict per call holds
    what it returned ("result") or raised ("error")."""
    boxes = [{} for _ in fns]

    def target(fn, box):
        try:
            box["result"] = fn()
        except Exception as err:  # handed back to the test thread
            box["error"] = err

    threads = [threading.Thread(target=target, args=pair, daemon=True)
               for pair in zip(fns, boxes)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), f"no result within {timeout} s"
    return boxes


class _FailingNormals:
    """A generator whose ``standard_normal`` raises on its fifth call."""

    def __init__(self, rng):
        self._rng, self._calls = rng, 0

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, *args, **kwargs):
        self._calls += 1
        if self._calls == 5:
            raise RuntimeError("draw failed")
        return self._rng.standard_normal(*args, **kwargs)


class TestReproducibility:
    def test_identical_spec_identical_result(self, bench_rate, bench_asset, bench_state):
        spec = SimSpec(n_paths=20_000, n_steps=64, seed=31)
        a = mc_option_price(bench_rate, bench_asset, bench_state, spec)
        b = mc_option_price(bench_rate, bench_asset, bench_state, spec)
        assert a.value == b.value and a.stderr == b.stderr

    def test_worker_count_invariance(self, bench_rate, bench_asset, bench_state):
        spec = SimSpec(n_paths=300_000, n_steps=16, seed=5)
        one = mc_option_price(bench_rate, bench_asset, bench_state, spec, workers=1)
        two = mc_option_price(bench_rate, bench_asset, bench_state, spec, workers=2)
        assert one.value == two.value and one.stderr == two.stderr

    def test_different_seeds_differ(self, bench_rate, bench_asset, bench_state):
        a = mc_option_price(bench_rate, bench_asset, bench_state, SimSpec(10_000, 32, seed=1))
        b = mc_option_price(bench_rate, bench_asset, bench_state, SimSpec(10_000, 32, seed=2))
        assert a.value != b.value

    def test_odd_antithetic_rejected(self, bench_rate, bench_asset, bench_state):
        with pytest.raises(InvalidParameter):
            mc_option_price(bench_rate, bench_asset, bench_state,
                            SimSpec(n_paths=10_001, n_steps=16, seed=1))

    def test_pipelined_draws_bit_identical(self, bench_rate, bench_asset, bench_state):
        runs = {}
        for antithetic in (True, False):
            runs.update(_golden_runs(bench_rate, bench_asset, bench_state, antithetic))
        assert runs == GOLDEN_STREAMS

    def test_failed_draw_raises_without_hang_or_leaked_thread(
            self, monkeypatch, bench_rate, bench_asset, bench_state):
        real_rng = montecarlo._rng
        monkeypatch.setattr(montecarlo, "_rng", lambda *key: _FailingNormals(real_rng(*key)))
        before = threading.active_count()
        # 2,000 pairs take 9 steps per hand-off: the fifth fails on the helper.
        (box,) = _in_threads(lambda: mc_option_price(bench_rate, bench_asset, bench_state,
                                                     SimSpec(n_paths=4000, n_steps=64, seed=1)),
                             timeout=10.0)
        assert list(box) == ["error"] and str(box["error"]) == "draw failed"
        assert isinstance(box["error"], RuntimeError)
        assert threading.active_count() == before

    def test_concurrent_callers_get_serial_results(self, bench_rate, bench_asset):
        asset2 = AssetParams(sigma=0.2, lambda1=1.0, y_law=Lognormal(-0.02, 0.08))
        basket = BasketParams(asset1=bench_asset, asset2=asset2, rho=0.5,
                              weights=ArithmeticWeights((0.6, 0.4)))
        state2 = MarketState(spot=(110.0, 100.0), r=BENCH_R0, tau=1.0, strike=100.0)
        specs = [SimSpec(n_paths=4_000, n_steps=64, seed=seed) for seed in (3, 4)]
        price = lambda spec: mc_basket_price(bench_rate, basket, state2, spec)
        serial = [price(spec) for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            boxes = _in_threads(*(lambda spec=spec: price(spec) for spec in specs))
        finally:
            sys.setswitchinterval(interval)
        assert boxes == [{"result": expected} for expected in serial]

    def test_invalid_inputs_rejected(self, bench_rate, bench_asset, bench_state):
        spec = SimSpec(n_paths=1000, n_steps=16, seed=1)
        bad_asset = AssetParams(sigma=-0.05, lambda1=1.0, y_law=Fixed(1.01))
        cases = [
            (bad_asset, bench_state),
            (bench_asset, MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=1.0, strike=-10.0)),
            (bench_asset, MarketState(spot=math.nan, r=BENCH_R0, tau=1.0, strike=BENCH_STRIKE)),
            (bench_asset, MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=-1.0, strike=BENCH_STRIKE)),
        ]
        for asset, state in cases:
            with pytest.raises(InvalidParameter):
                mc_option_price(bench_rate, asset, state, spec)
        basket = BasketParams(asset1=bench_asset, asset2=bad_asset, rho=0.0)
        state2 = MarketState(spot=(BENCH_SPOT, 95.0), r=BENCH_R0, tau=1.0, strike=BENCH_STRIKE)
        with pytest.raises(InvalidParameter):
            mc_basket_price(bench_rate, basket, state2, spec)
        with pytest.raises(InvalidParameter):
            mc_bond_price(bench_rate, BENCH_R0, -1.0, spec)
        with pytest.raises(InvalidParameter):
            simulate_paths(bench_rate, bad_asset, bench_state, spec)

    @pytest.mark.parametrize("bad", [dict(k=-1.0), dict(a=-0.05), dict(sigma_r=-0.05),
                                     dict(lam=-1.0), dict(x_law=Exponential(-1.0))],
                             ids=["k", "a", "sigma_r", "lam", "x_law"])
    def test_invalid_rate_rejected_by_every_simulation(self, bad, bench_asset, bench_state):
        # The analytic pricers raise InvalidParameter for the same rates.
        rate = _rate(**bad)
        spec = SimSpec(n_paths=1000, n_steps=16, seed=1)
        basket = BasketParams(asset1=bench_asset, asset2=bench_asset, rho=0.0)
        state2 = MarketState(spot=(BENCH_SPOT, 95.0), r=BENCH_R0, tau=1.0, strike=BENCH_STRIKE)
        for simulate in (lambda: mc_option_price(rate, bench_asset, bench_state, spec),
                         lambda: mc_bond_price(rate, BENCH_R0, 1.0, spec),
                         lambda: mc_basket_price(rate, basket, state2, spec),
                         lambda: simulate_paths(rate, bench_asset, bench_state, spec)):
            with pytest.raises(InvalidParameter):
                simulate()


class TestDegenerateCases:
    def test_zero_maturity(self, bench_rate, bench_asset):
        state = MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=0.0, strike=BENCH_STRIKE)
        res = mc_option_price(bench_rate, bench_asset, state, SimSpec(1000, 16, seed=0))
        assert res.value == BENCH_SPOT - BENCH_STRIKE and res.stderr == 0.0
        bond = mc_bond_price(bench_rate, BENCH_R0, 0.0, SimSpec(1000, 16, seed=0))
        assert bond.value == 1.0

    def test_deterministic_limit(self):
        # No noise at all: r follows the mean-reversion ODE, S compounds it.
        rate = _rate(sigma_r=0.0, lam=0.0, x_law=Fixed(0.0))
        asset = AssetParams(sigma=1e-12, lambda1=0.0, y_law=Fixed(1.0))
        state = MarketState(spot=BENCH_SPOT, r=0.03, tau=1.0, strike=BENCH_STRIKE)
        bundle = simulate_paths(rate, asset, state, SimSpec(2, 10_000, seed=1, antithetic=False))
        r_exact = 0.05 + (0.03 - 0.05) * math.exp(-2.0)
        int_r = 0.05 + (0.03 - 0.05) * (1 - math.exp(-2.0)) / 2.0
        assert abs(bundle.r[0, -1] - r_exact) < 1e-6
        assert abs(bundle.s[0, -1] / (BENCH_SPOT * math.exp(int_r)) - 1.0) < 1e-6

    def test_flat_rate_no_jump_matches_black_scholes(self, flat_rate, no_jump_asset):
        state = MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=1.0, strike=BENCH_STRIKE)
        res = mc_option_price(flat_rate, no_jump_asset, state,
                              SimSpec(n_paths=200_000, n_steps=8, seed=17))
        bs = black_scholes_reference(BENCH_SPOT, BENCH_STRIKE, no_jump_asset.sigma,
                                     BENCH_R0, 1.0)
        assert abs(res.value - bs) < 3 * res.stderr

    def test_bond_without_jumps_matches_cir(self):
        # Plain estimator: the antithetic one resolves below the Euler
        # discretization bias and would reject its own scheme.
        rate = _rate(lam=0.0)
        res = mc_bond_price(rate, 0.03, 1.0,
                            SimSpec(n_paths=100_000, n_steps=512, seed=23, antithetic=False))
        cir = cir_bond_price(2.0, 0.05, 0.05, 0.03, 1.0)
        assert abs(res.value - cir) < 3 * res.stderr


class TestMartingaleDiagnostics:
    def test_compensated_jumps_keep_rate_mean(self):
        # k = 0, sigma_r = 0: r is a compensated compound Poisson process,
        # so E[r(T)] = r0.
        rate = RateParams(k=0.0, a=0.05, sigma_r=0.0, lam=1.0, x_law=Exponential(1000.0))
        state = MarketState(spot=1.0, r=0.03, tau=1.0, strike=1.0)
        bundle = simulate_paths(rate, None, state, SimSpec(100_000, 64, seed=11))
        r_t = bundle.r[:, -1]
        se = r_t.std(ddof=1) / math.sqrt(r_t.size)
        assert abs(r_t.mean() - 0.03) <= 4 * se

    def test_discounted_asset_is_martingale(self, bench_rate, bench_asset, bench_state):
        # E[e^{-int r} S(T)] = S0 under the risk-neutral dynamics.  The
        # asset draw uses the same trapezoid rate integral that discounts,
        # so the identity holds at any step count, coarse grids included.
        state_k0 = MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=1.0, strike=1e-12)
        for n_steps in (512, 8):
            spec = SimSpec(n_paths=200_000, n_steps=n_steps, seed=29)
            res = mc_option_price(bench_rate, bench_asset, state_k0, spec)
            assert abs(res.value - BENCH_SPOT) <= 4 * res.stderr, n_steps
        # Basket leg on asset 2 alone (alpha = 0), with lognormal jumps.
        asset2 = AssetParams(sigma=0.2, lambda1=1.0, y_law=Lognormal(-0.02, 0.08))
        basket = BasketParams(asset1=bench_asset, asset2=asset2, rho=0.5,
                              weights=GeometricWeights(0.0))
        state2 = MarketState(spot=(BENCH_SPOT, 95.0), r=BENCH_R0, tau=1.0, strike=1e-12)
        res = mc_basket_price(bench_rate, basket, state2, SimSpec(200_000, 8, seed=29))
        assert abs(res.value - 95.0) <= 4 * res.stderr

    def test_antithetic_does_not_hurt(self, bench_rate, bench_asset, bench_state):
        anti = mc_option_price(bench_rate, bench_asset, bench_state,
                               SimSpec(100_000, 64, seed=3, antithetic=True))
        plain = mc_option_price(bench_rate, bench_asset, bench_state,
                                SimSpec(100_000, 64, seed=3, antithetic=False))
        assert anti.stderr <= plain.stderr


class TestBasketSimulation:
    def _basket(self, rho=0.4, alpha=1.0):
        a1 = AssetParams(sigma=0.05, lambda1=1.0, y_law=Fixed(1.01))
        a2 = AssetParams(sigma=0.30, lambda1=2.0, y_law=Fixed(0.95))
        return BasketParams(asset1=a1, asset2=a2, rho=rho, weights=GeometricWeights(alpha))

    def test_alpha_one_equals_single_asset_bitwise(self, bench_rate):
        # The rate and asset-1 streams are shared, so the degenerate
        # basket must reproduce the single-asset estimate exactly.
        basket = self._basket()
        state2 = MarketState(spot=(BENCH_SPOT, 95.0), r=BENCH_R0, tau=1.0, strike=BENCH_STRIKE)
        state1 = MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=1.0, strike=BENCH_STRIKE)
        spec = SimSpec(20_000, 64, seed=3)
        res2 = mc_basket_price(bench_rate, basket, state2, spec)
        res1 = mc_option_price(bench_rate, basket.asset1, state1, spec)
        assert res2.value == res1.value

    def test_perfect_correlation_collapses_to_geometric_spot(self, bench_rate):
        a = AssetParams(sigma=0.2, lambda1=0.0, y_law=Fixed(1.0))
        basket = BasketParams(asset1=a, asset2=a, rho=1.0, weights=GeometricWeights(0.6))
        state2 = MarketState(spot=(110.0, 100.0), r=BENCH_R0, tau=1.0, strike=100.0)
        spec = SimSpec(200_000, 64, seed=13)
        res2 = mc_basket_price(bench_rate, basket, state2, spec)
        geo = 110.0**0.6 * 100.0**0.4
        res1 = mc_option_price(bench_rate, a,
                               MarketState(spot=geo, r=BENCH_R0, tau=1.0, strike=100.0), spec)
        assert abs(res2.value - res1.value) <= 3 * math.hypot(res2.stderr, res1.stderr)

    def test_arithmetic_payoff_supported(self, bench_rate):
        a = AssetParams(sigma=0.2, lambda1=0.0, y_law=Fixed(1.0))
        basket = BasketParams(asset1=a, asset2=a, rho=0.3,
                              weights=ArithmeticWeights((0.5, 0.5)))
        state2 = MarketState(spot=(110.0, 100.0), r=BENCH_R0, tau=1.0, strike=100.0)
        res = mc_basket_price(bench_rate, basket, state2, SimSpec(50_000, 64, seed=19))
        assert res.value > 0 and res.stderr > 0


class TestPathBundle:
    def test_shapes_and_positivity(self, bench_rate, bench_asset, bench_state):
        bundle = simulate_paths(bench_rate, bench_asset, bench_state,
                                SimSpec(n_paths=10, n_steps=252, seed=2))
        assert bundle.t.shape == (253,)
        assert bundle.r.shape == (10, 253)
        assert bundle.s.shape == (10, 253)
        assert (bundle.s > 0).all()
        assert (np.diff(bundle.t) > 0).all()
        assert bundle.rate_jumps.shape == (10, 252)

    def test_jumps_recorded(self, bench_rate, bench_asset, bench_state):
        bundle = simulate_paths(bench_rate, bench_asset, bench_state,
                                SimSpec(n_paths=50, n_steps=252, seed=2))
        # Intensity 1 over one year: jumps happen on most paths.
        assert (bundle.rate_jumps > 0).any()
        assert (bundle.asset_jumps > 1.0).any()
        # Neutral steps carry the identity factor, not zero.
        assert not (bundle.asset_jumps == 0.0).any()
        # Each path has its own jump times once antithetic pairing is off.
        solo = simulate_paths(bench_rate, bench_asset, bench_state,
                              SimSpec(n_paths=2, n_steps=252, seed=12, antithetic=False))
        assert not np.array_equal(solo.rate_jumps[0], solo.rate_jumps[1])

    def test_two_asset_bundle(self, bench_rate):
        basket = BasketParams(
            asset1=AssetParams(sigma=0.2, lambda1=0.0, y_law=Fixed(1.0)),
            asset2=AssetParams(sigma=0.3, lambda1=0.0, y_law=Fixed(1.0)),
            rho=0.5, weights=GeometricWeights(0.5),
        )
        state2 = MarketState(spot=(100.0, 90.0), r=BENCH_R0, tau=0.5, strike=95.0)
        bundle = simulate_paths(bench_rate, basket, state2, SimSpec(4, 64, seed=8))
        assert bundle.s2 is not None and bundle.s2.shape == bundle.s.shape
        assert bundle.s[0, 0] == pytest.approx(100.0, rel=1e-12)
        assert bundle.s2[0, 0] == pytest.approx(90.0, rel=1e-12)


class TestAnalyticBrackets:
    def test_auxiliary_value_brackets_jump_rate_mc(self, bench_rate, bench_state):
        # Asset jumps off, rate jumps on: discounting the auxiliary call
        # value by the bond must bracket the simulated price (the drift
        # substitution error is far below the Monte Carlo resolution).
        from levypricer import w_price

        asset = AssetParams(sigma=0.05, lambda1=0.0, y_law=Fixed(1.0))
        w = w_price(bench_rate, asset, bench_state)
        from levypricer import bond_price

        analytic = bond_price(bench_rate, bench_state.r, bench_state.tau) * w.value
        mc = mc_option_price(bench_rate, asset, bench_state,
                             SimSpec(n_paths=1_000_000, n_steps=252, seed=101), workers=2)
        assert abs(analytic - mc.value) <= 3 * mc.stderr

    def test_merton_reference_brackets_exact_terminal_mc(self):
        # Flat rate makes the one-step log draw exact in distribution, so
        # ten million paths at a single step check the series cheaply.
        from levypricer import merton_reference

        rate = RateParams(k=2.0, a=0.03, sigma_r=0.0, lam=0.0, x_law=Fixed(0.0))
        asset = AssetParams(sigma=0.05, lambda1=1.0, y_law=Fixed(1.01))
        state = MarketState(spot=BENCH_SPOT, r=0.03, tau=1.0, strike=BENCH_STRIKE)
        mc = mc_option_price(rate, asset, state,
                             SimSpec(n_paths=10_000_000, n_steps=1, seed=55), workers=2)
        ref = merton_reference(BENCH_SPOT, BENCH_STRIKE, 0.05, 0.03, 1.0, 1.0, Fixed(1.01))
        assert abs(ref - mc.value) <= 3 * mc.stderr


class TestDiscretization:
    def test_halving_dt_within_one_stderr(self, flat_rate, no_jump_asset):
        # No-jump configuration at benchmark scale: the asset log step is
        # exact given the rate, so halving dt moves the estimate little.
        state = MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=1.0, strike=BENCH_STRIKE)
        spec_a = SimSpec(n_paths=1_000_000, n_steps=252, seed=7)
        spec_b = SimSpec(n_paths=1_000_000, n_steps=126, seed=7)
        res_a = mc_option_price(flat_rate, no_jump_asset, state, spec_a, workers=2)
        res_b = mc_option_price(flat_rate, no_jump_asset, state, spec_b, workers=2)
        assert abs(res_a.value - res_b.value) <= res_a.stderr
