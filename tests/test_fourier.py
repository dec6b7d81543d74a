"""Fourier inversion engine against limits, bounds and Black-Scholes."""

import math

import numpy as np
import pytest

from levypricer import (
    AssetParams,
    Fixed,
    MarketState,
    QuadratureSpec,
    RateParams,
    TailNotDecayed,
    black_scholes_reference,
    bond_price,
    p_terms,
    w_price,
    w_values,
)
from levypricer.fourier import JumpFold

from conftest import BENCH_R0, BENCH_SPOT, BENCH_STRIKE, BENCH_TAU


class TestBlackScholesReference:
    def test_at_the_money_zero_vol(self):
        assert black_scholes_reference(100.0, 100.0, 1e-14, 0.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_classical_value(self):
        # Frozen from a 30-digit erf evaluation of the closed form.
        got = black_scholes_reference(110.0, 100.0, 0.05, 0.03, 1.0)
        assert got == pytest.approx(12.96560004565555, rel=1e-12)
        fwd = black_scholes_reference(110.0, 100.0, 0.05, 0.03, 1.0, forward=True)
        assert fwd == pytest.approx(13.360461352473686, rel=1e-12)

    def test_tiny_strike_tends_to_spot(self):
        assert black_scholes_reference(110.0, 1e-12, 0.2, 0.0, 1.0) == pytest.approx(110.0, rel=1e-12)


class TestPTerms:
    def test_deep_in_the_money(self, bench_rate, bench_asset):
        state = MarketState(spot=1e4 * BENCH_STRIKE, r=BENCH_R0, tau=1.0, strike=BENCH_STRIKE)
        p1, p2 = p_terms(bench_rate, bench_asset, state)
        assert abs(p1 - 1.0) < 1e-6 and abs(p2 - 1.0) < 1e-6

    def test_deep_out_of_the_money(self, bench_rate, bench_asset):
        state = MarketState(spot=1e-4 * BENCH_STRIKE, r=BENCH_R0, tau=1.0, strike=BENCH_STRIKE)
        p1, p2 = p_terms(bench_rate, bench_asset, state)
        assert abs(p1) < 1e-6 and abs(p2) < 1e-6

    def test_probabilities_in_unit_interval(self, bench_rate, bench_asset, bench_state):
        p1, p2 = p_terms(bench_rate, bench_asset, bench_state)
        assert 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0
        # In the money: exercise more likely than not.
        assert p1 > 0.9 and p2 > 0.9


class TestWPrice:
    def test_black_scholes_degeneration(self, flat_rate, no_jump_asset, bench_state):
        res = w_price(flat_rate, no_jump_asset, bench_state)
        fwd = black_scholes_reference(BENCH_SPOT, BENCH_STRIKE, no_jump_asset.sigma,
                                      BENCH_R0, BENCH_TAU, forward=True)
        assert abs(res.value - fwd) < 1e-8

    def test_tiny_strike_is_forward(self, bench_rate, bench_asset):
        state = MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=1.0, strike=1e-4)
        res = w_price(bench_rate, bench_asset, state)
        fwd = BENCH_SPOT / bond_price(bench_rate, BENCH_R0, 1.0)
        assert abs(res.value / fwd - 1.0) < 1e-6

    def test_monotone_in_spot_and_strike(self, bench_rate, bench_asset):
        spots = np.linspace(70.0, 150.0, 17)
        vals = [w_price(bench_rate, bench_asset,
                        MarketState(spot=s, r=BENCH_R0, tau=1.0, strike=BENCH_STRIKE)).value
                for s in spots]
        assert (np.diff(vals) > 0).all()
        strikes = np.linspace(60.0, 160.0, 21)
        vals_k = [w_price(bench_rate, bench_asset,
                          MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=1.0, strike=k)).value
                  for k in strikes]
        assert (np.diff(vals_k) < 0).all()

    def test_convex_in_strike(self, bench_rate, bench_asset):
        strikes = np.linspace(60.0, 160.0, 20)
        vals = np.array([
            w_price(bench_rate, bench_asset,
                    MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=1.0, strike=k)).value
            for k in strikes
        ])
        second = np.diff(vals, 2)
        assert (second >= -1e-8).all()

    def test_node_doubling_self_consistency(self, bench_rate, bench_asset, bench_state):
        base = w_price(bench_rate, bench_asset, bench_state)
        fine = w_price(bench_rate, bench_asset, bench_state,
                       QuadratureSpec(nodes_per_panel=40))
        assert abs(base.value - fine.value) < 1e-8

    def test_no_arbitrage_bounds(self, bench_rate, bench_asset):
        # Strict against the model's own forward f(-i); the S/b version
        # holds up to the same drift-substitution gap as the martingale
        # identity (relative 1e-6), hence the tolerance.
        from levypricer import charfn_eval

        b = bond_price(bench_rate, BENCH_R0, 1.0)
        fwd_model = charfn_eval(bench_rate, bench_asset, -1j, 1.0,
                                math.log(BENCH_SPOT), BENCH_R0).real
        fwd_bond = BENCH_SPOT / b
        for strike in (60.0, 100.0, 140.0):
            state = MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=1.0, strike=strike)
            w = w_price(bench_rate, bench_asset, state).value
            assert max(fwd_model - strike, 0.0) - 1e-8 <= w <= fwd_model + 1e-8
            tol = 1e-6 * fwd_bond
            assert max(fwd_bond - strike, 0.0) - tol <= w <= fwd_bond + tol

    def test_zero_maturity_is_payoff(self, bench_rate, bench_asset):
        state = MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=0.0, strike=BENCH_STRIKE)
        assert w_price(bench_rate, bench_asset, state).value == BENCH_SPOT - BENCH_STRIKE

    def test_tail_guard(self):
        # A near-zero diffusion keeps the integrand from decaying before
        # the frequency cap.
        rate = RateParams(k=2.0, a=0.03, sigma_r=0.0, lam=0.0, x_law=Fixed(0.0))
        asset = AssetParams(sigma=0.01, lambda1=0.0, y_law=Fixed(1.0))
        state = MarketState(spot=100.0, r=0.03, tau=0.05, strike=100.0)
        with pytest.raises(TailNotDecayed):
            w_price(rate, asset, state, QuadratureSpec(phi_max_cap=60.0))


class TestStateFold:
    """A state shifted by (dz, dr) is the base state's transform times
    exp(D dr + i u dz), so shifted states invert as rows of one fold."""

    @staticmethod
    def _fold(dz, dr):
        def psi(u, d):
            shape = (-1,) + (1,) * np.ndim(u)
            return np.exp(np.reshape(dr, shape) * d + 1j * np.reshape(dz, shape) * u)

        return JumpFold(psi, float(np.max(np.abs(dz))))

    def test_rows_match_states_priced_one_by_one(self, bench_rate, bench_asset):
        spots, rates = np.meshgrid([95.0, BENCH_SPOT, 125.0], [0.01, BENCH_R0, 0.06])
        fold = self._fold(np.log(spots.ravel() / BENCH_SPOT), rates.ravel() - BENCH_R0)
        rows, _, converged = w_values(bench_rate, bench_asset.sigma, BENCH_TAU, BENCH_STRIKE,
                                      BENCH_SPOT, BENCH_R0, fold=fold)
        each = [w_price(bench_rate, bench_asset,
                        MarketState(spot=s, r=r, tau=BENCH_TAU, strike=BENCH_STRIKE)).value
                for s, r in zip(spots.ravel(), rates.ravel())]
        assert converged
        assert np.max(np.abs(rows - each)) <= 1e-9 * BENCH_SPOT

    def test_zero_shift_is_the_base_state(self, bench_rate, bench_asset, bench_state):
        (row,), _, _ = w_values(bench_rate, bench_asset.sigma, BENCH_TAU, BENCH_STRIKE,
                                BENCH_SPOT, BENCH_R0, fold=self._fold(np.zeros(1), np.zeros(1)))
        assert row == w_price(bench_rate, bench_asset, bench_state).value


class TestTransformCache:
    def test_one_transform_per_input(self, bench_rate, bench_asset, bench_state):
        from levypricer.fourier import call_transform

        call_transform.cache_clear()
        w_price(bench_rate, bench_asset, bench_state)
        p_terms(bench_rate, bench_asset, bench_state)
        info = call_transform.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_grids_bounded_by_halvings(self, bench_rate, bench_asset):
        from levypricer import option_price
        from levypricer.fourier import call_transform

        spec = QuadratureSpec()
        call_transform.cache_clear()
        tr = call_transform(bench_rate, bench_asset.sigma, 1.0, spec, None)
        for strike in np.linspace(1.0, 393.0, 57):
            option_price(bench_rate, bench_asset,
                         MarketState(spot=BENCH_SPOT, r=BENCH_R0, tau=1.0, strike=strike))
        # Moneyness far from 1 asks for narrower panels at every spot.
        spots = np.geomspace(1e-2, 1e4, 40)
        for spot in spots:
            w_price(bench_rate, bench_asset,
                    MarketState(spot=spot, r=BENCH_R0, tau=1.0, strike=BENCH_STRIKE))
        assert call_transform(bench_rate, bench_asset.sigma, 1.0, spec, None) is tr
        # Fastest oscillation: the largest |ln(S/K)| of either sweep, plus the
        # margin and the strike sweep's jump spread (12 jumps of ln 1.01).
        freq = max(math.log(BENCH_SPOT / 1.0), math.log(BENCH_STRIKE / spots[0])) \
            + 0.1 + 12 * math.log(1.01)
        narrowest = 2.0 * 0.6 * spec.nodes_per_panel / freq
        assert len(tr._grids) <= math.ceil(math.log2(spec.panel_width / narrowest)) + 1


class TestLazyGrid:
    """Loadings are built chunk by chunk, only as far as the panel loop reads."""

    @staticmethod
    def _quote(rate, sigma, tau, strike=100.0):
        from levypricer import option_price

        asset = AssetParams(sigma=sigma, lambda1=0.0, y_law=Fixed(1.0))
        return option_price(rate, asset, MarketState(spot=100.0, r=0.03, tau=tau, strike=strike))

    @staticmethod
    def _count_freqs(monkeypatch):
        from levypricer import charfn

        series = charfn.bd_series_many
        freqs = []

        def counting(params, sigma, phis, *args, **kwargs):
            freqs.append(np.size(phis))
            return series(params, sigma, phis, *args, **kwargs)

        monkeypatch.setattr(charfn, "bd_series_many", counting)
        return freqs

    def test_short_quote_reads_first_chunks_only(self, bench_rate, monkeypatch):
        from levypricer.fourier import call_transform

        call_transform.cache_clear()
        freqs = self._count_freqs(monkeypatch)
        res = self._quote(bench_rate, 0.2, 1.0)
        assert res.converged
        # phi = -i plus two 8-panel chunks at phi and phi - i; a grid built
        # whole would ask for 1 + 2 x 40 x 20 = 1,601.
        assert sum(freqs) <= 641

    def test_slow_decay_reads_every_panel(self, bench_rate, monkeypatch):
        from levypricer.fourier import call_transform

        call_transform.cache_clear()
        freqs = self._count_freqs(monkeypatch)
        res = self._quote(bench_rate, 0.1, 0.1)
        assert sum(freqs) == 1 + 2 * 40 * 20
        assert res.converged
        # Frozen from the grid that built all 40 panels' loadings up front.
        assert abs(res.value - 1.4255195697651952) <= 1e-14 * 100.0

    def test_quote_independent_of_cache_history(self, bench_rate):
        from levypricer.fourier import call_transform

        # At tau = 3.55 the coefficient table is cut at COEFF_CAP only for
        # phi above ~140; the at-the-money quote stops far below that.
        spec = QuadratureSpec()
        call_transform.cache_clear()
        fresh = self._quote(bench_rate, 0.1, 3.55)
        assert fresh.converged
        call_transform.cache_clear()
        self._quote(bench_rate, 0.1, 3.55, strike=100.0 * math.exp(5.0))  # narrower grid
        tr = call_transform(bench_rate, 0.1, 3.55, spec, None)
        grid = tr._grid(0.1)  # the at-the-money grid: fill every chunk
        for index, (start, stop) in enumerate(zip(grid.bounds, grid.bounds[1:])):
            tr._fill(grid, index, start, stop)
        assert sorted(tr._grids) == [0, 1]
        assert grid.chunks_ok == [True, True, False, False]
        again = self._quote(bench_rate, 0.1, 3.55)
        assert again.value == fresh.value and again.converged == fresh.converged

    def test_concurrent_quotes_fill_each_chunk_once(self, bench_rate):
        import sys
        import threading

        from levypricer.fourier import call_transform

        call_transform.cache_clear()
        serial = self._quote(bench_rate, 0.1, 0.1)  # reads every chunk
        call_transform.cache_clear()
        tr = call_transform(bench_rate, 0.1, 0.1, QuadratureSpec(), None)
        results = []

        def quote():
            results.append(self._quote(bench_rate, 0.1, 0.1))

        threads = [threading.Thread(target=quote) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [res.value for res in results] == [serial.value] * 8
        (grid,) = tr._grids.values()
        assert grid.chunks_ok == [True] * 4

    def test_cut_minus_i_loading_flags_every_quote(self, bench_rate):
        assert not self._quote(bench_rate, 0.1, 4.0).converged
