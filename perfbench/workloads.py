"""Inputs, operations and output checks of the three benchmark workloads.

Every workload draws its inputs from ``numpy.random.default_rng(seed)``;
``levypricer`` only ever sees the generated parameter objects.  Inputs
sit on fixed grids (rate, volatility, maturity, moneyness) so that each
price can be compared with a reference recorded once from the library
(``reference.json``, written by ``record_reference.py``).  Spots are
drawn freely: a price is homogeneous of degree one in (spot, strike), so
the references are stored as U / S at S = 100.

An op is a list of library calls named by (module, attribute), looked up
when the call is made, so the traced run sees the patched entry points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")

# The paper's benchmark rate: k=2, a=0.05, sigma_r=0.05, lam=1, X ~ Exp(1000).
RATE = dict(k=2.0, a=0.05, sigma_r=0.05, lam=1.0, theta=1000.0)
TAU = 1.0

STRIP_MONEYNESS = np.linspace(0.8, 1.2, 20)
STRIP_R0 = np.round(np.arange(0.010, 0.0505, 0.001), 3)  # 41 short rates
TINY_STRIP = (0, 5, 10, 15, 19)  # strike indices of a smoke-size strip

TERM_SIGMA = np.round(np.arange(0.10, 0.4005, 0.01), 2)  # 31 volatilities
# 69 maturities.  3.5 is the last grid maturity at which the series'
# coefficient table passes its own convergence test within charfn.COEFF_CAP
# (selfcheck.py verifies this); from 3.55 the table is cut at the cap, below
# the 4.328 radius, and the price is a truncated one whatever flag it carries.
TERM_TAU_MAX = 3.5
TERM_TAU = np.round(np.arange(0.10, TERM_TAU_MAX + 0.0005, 0.05), 2)
CAP_PROBE_TAU = 4.0  # beyond the cap: selfcheck.py shows the checks catch it
TERM_MONEYNESS = (0.9, 1.0, 1.1)
TERM_R0 = 0.03
TERM_STRATA = 10  # one op per maturity stratum per block

MC_PATHS = 100_000
MC_TINY_PATHS = 4_000
MC_STEPS = 252
MC_SPOT = 110.0
MC_SPOTS = (110.0, 100.0)
MC_R0 = 0.03
MC_STRIKE = 100.0
MC_REFERENCE_SEED = 2**40 + 1  # disjoint from every per-op seed below 2**40

# 1000 x the library's own mass_tol / tail_tol (1e-10), relative to spot:
# a refactor may move prices by ~mass_tol x price, a thousandth of a cent
# per 100 of spot is a defect.
ANALYTIC_RTOL = 1e-7
MARTINGALE_RTOL = 1e-6
# A full two-set check compares ~1,300 Monte Carlo prices; at 5 combined
# standard errors a correct engine trips one with probability ~1e-3.  The
# run mean is held to the same multiple of its own, smaller standard error,
# so a bias of about a cent still fails.
MC_SIGMAS = 5.0


@dataclass
class Op:
    """One closed-loop request: library calls timed back to back."""

    calls: list  # [(module, attribute, args)]
    key: tuple  # grid indices the checks need
    spot: float
    group: int = 0  # strike_strip: strip number
    results: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    error: str | None = None


def _load_reference(name: str):
    with REFERENCE.open() as fh:
        return json.load(fh)[name]


def _rate(lp):
    return lp.params.RateParams(k=RATE["k"], a=RATE["a"], sigma_r=RATE["sigma_r"],
                                lam=RATE["lam"], x_law=lp.laws.Exponential(RATE["theta"]))


def _bench_asset(lp):
    return lp.params.AssetParams(sigma=0.05, lambda1=1.0, y_law=lp.laws.Fixed(1.01))


def _bounds_failure(lp, rate, op: Op, r0: float, tau: float) -> str | None:
    """No-arbitrage bounds max(S - K b, 0) <= U <= S, up to ANALYTIC_RTOL * S."""
    state = op.calls[0][2][2]  # option_price(rate, asset, state)
    u = op.results[0].value
    b = lp.bond.bond_price(rate, r0, tau)
    tol = ANALYTIC_RTOL * op.spot
    lower = max(op.spot - state.strike * b, 0.0)
    if not lower - tol <= u <= op.spot + tol:
        return f"U={u!r} outside [{lower!r}, {op.spot!r}]"
    return None


def _reference_failure(op: Op, ref: float) -> str | None:
    u = op.results[0].value
    if abs(u / op.spot - ref) > ANALYTIC_RTOL:
        return f"U/S={u / op.spot!r} differs from reference {ref!r}"
    return None


class StrikeStrip:
    """Live quote desk: a new market state per pass, 20 strikes priced on it.

    The transform depends only on (rate, sigma, tau), so after warm-up
    every quote is a call_transform hit and the panel loop does the work.
    """

    name = "strike_strip"

    def __init__(self, lp, seed: int, tiny: bool = False):
        self.lp = lp
        self.rng = np.random.default_rng(seed)
        self.rate = _rate(lp)
        self.asset = _bench_asset(lp)
        self.strikes = TINY_STRIP if tiny else range(len(STRIP_MONEYNESS))
        self.passes = 0

    def warmup(self) -> None:
        state = self.lp.params.MarketState(spot=110.0, r=0.03, tau=TAU, strike=100.0)
        self.lp.series.option_price(self.rate, self.asset, state)

    def next_block(self) -> list[Op]:
        spot = float(self.rng.uniform(95.0, 125.0))
        ri = int(self.rng.integers(len(STRIP_R0)))
        self.passes += 1
        ops = []
        for j in self.strikes:
            state = self.lp.params.MarketState(spot=spot, r=float(STRIP_R0[ri]), tau=TAU,
                                               strike=float(STRIP_MONEYNESS[j]) * spot)
            ops.append(Op(calls=[(self.lp.series, "option_price", (self.rate, self.asset, state))],
                          key=(ri, j), spot=spot, group=self.passes))
        return ops

    def check(self, ops: list[Op]) -> dict[int, str]:
        ref = _load_reference(self.name)
        failures = {}
        for i, op in enumerate(ops):
            ri, j = op.key
            reason = (_bounds_failure(self.lp, self.rate, op, float(STRIP_R0[ri]), TAU)
                      or _reference_failure(op, ref[ri][j]))
            if reason:
                failures[i] = reason
        # Each strip must fall and be convex in K.
        by_group: dict[int, list[int]] = {}
        for i, op in enumerate(ops):
            by_group.setdefault(op.group, []).append(i)
        for idx in by_group.values():
            u = [ops[i].results[0].value for i in idx]
            tol = ANALYTIC_RTOL * ops[idx[0]].spot
            for a in range(1, len(u)):
                if u[a] > u[a - 1] + tol:
                    failures.setdefault(idx[a], f"strip rises in K: {u[a - 1]!r} -> {u[a]!r}")
            for a in range(1, len(u) - 1):
                if u[a - 1] - 2.0 * u[a] + u[a + 1] < -tol:
                    failures.setdefault(idx[a], "strip not convex in K")
        return failures


class TermSurface:
    """Calibration sweep: fresh (sigma, tau) every op, so every op builds a transform.

    Rate jumps stay on, the asset has none.  Op time grows steeply with
    tau, so a block takes one maturity from each of TERM_STRATA strata,
    cycling through each stratum's grid values in a seeded order: every
    run sees the same mix of maturities.  No (sigma, tau) pair repeats
    within a run.
    """

    name = "term_surface"

    def __init__(self, lp, seed: int, tiny: bool = False):
        self.lp = lp
        self.rng = np.random.default_rng(seed)
        self.rate = _rate(lp)
        self.used: set[tuple[int, int]] = set()
        edges = np.linspace(0, len(TERM_TAU), TERM_STRATA + 1).astype(int)
        self.strata = [np.arange(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        self.queues: list[list[int]] = [[] for _ in self.strata]

    def _asset(self, sigma: float):
        return self.lp.params.AssetParams(sigma=sigma, lambda1=0.0, y_law=self.lp.laws.Fixed(1.0))

    def warmup(self) -> None:
        state = self.lp.params.MarketState(spot=100.0, r=TERM_R0, tau=TAU, strike=100.0)
        self.lp.series.option_price(self.rate, self._asset(0.2), state)

    def next_block(self) -> list[Op]:
        ops = []
        for stratum, queue in zip(self.strata, self.queues):
            if not queue:
                queue.extend(int(t) for t in self.rng.permutation(stratum))
            ti = queue.pop()
            si = int(self.rng.integers(len(TERM_SIGMA)))
            while (si, ti) in self.used:
                si = int(self.rng.integers(len(TERM_SIGMA)))
            self.used.add((si, ti))
            mi = int(self.rng.integers(len(TERM_MONEYNESS)))
            spot = float(self.rng.uniform(95.0, 125.0))
            state = self.lp.params.MarketState(spot=spot, r=TERM_R0, tau=float(TERM_TAU[ti]),
                                               strike=TERM_MONEYNESS[mi] * spot)
            asset = self._asset(float(TERM_SIGMA[si]))
            ops.append(Op(calls=[(self.lp.series, "option_price", (self.rate, asset, state))],
                          key=(si, ti, mi), spot=spot))
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def check(self, ops: list[Op]) -> dict[int, str]:
        ref = _load_reference(self.name)
        failures = {}
        for i, op in enumerate(ops):
            si, ti, mi = op.key
            tau = float(TERM_TAU[ti])
            reason = (_bounds_failure(self.lp, self.rate, op, TERM_R0, tau)
                      or _reference_failure(op, ref[si][ti][mi]))
            if reason is None:
                # Martingale identity f(-i) b = S of the forward-measure transform.
                asset = op.calls[0][2][1]  # option_price(rate, asset, state)
                f = self.lp.charfn.charfn_eval(self.rate, asset, -1j, tau, math.log(op.spot),
                                               TERM_R0)
                b = self.lp.bond.bond_price(self.rate, TERM_R0, tau)
                gap = abs(f.real * b / op.spot - 1.0)
                if not gap <= MARTINGALE_RTOL:
                    reason = f"martingale identity off by {gap:.2e} relative at tau={tau}"
            if reason:
                failures[i] = reason
        return failures


class McOracle:
    """Quotes only simulation serves: a single-asset call and an arithmetic basket.

    One op runs both at 1e5 antithetic paths x 252 steps per year; each
    op gets its own SimSpec.seed derived from the workload seed.
    """

    name = "mc_oracle"

    def __init__(self, lp, seed: int, tiny: bool = False):
        self.lp = lp
        self.seed = seed
        self.n_paths = MC_TINY_PATHS if tiny else MC_PATHS
        self.count = 0
        p = lp.params
        self.rate = _rate(lp)
        self.asset = _bench_asset(lp)
        self.basket = p.BasketParams(
            asset1=self.asset,
            asset2=p.AssetParams(sigma=0.2, lambda1=1.0, y_law=lp.laws.Lognormal(-0.02, 0.08)),
            rho=0.5,
            weights=p.ArithmeticWeights((0.6, 0.4)),
        )
        self.state = p.MarketState(spot=MC_SPOT, r=MC_R0, tau=TAU, strike=MC_STRIKE)
        self.state2 = p.MarketState(spot=MC_SPOTS, r=MC_R0, tau=TAU, strike=MC_STRIKE)

    def _op(self, spec) -> Op:
        mc = self.lp.montecarlo
        return Op(calls=[(mc, "mc_option_price", (self.rate, self.asset, self.state, spec)),
                         (mc, "mc_basket_price", (self.rate, self.basket, self.state2, spec))],
                  key=(), spot=MC_SPOT)

    def warmup(self) -> None:
        # No cache to fill: one small op runs the code path once.
        spec = self.lp.params.SimSpec(n_paths=MC_TINY_PATHS, n_steps=MC_STEPS, seed=0)
        for module, attr, args in self._op(spec).calls:
            getattr(module, attr)(*args)

    def next_block(self) -> list[Op]:
        spec = self.lp.params.SimSpec(n_paths=self.n_paths, n_steps=MC_STEPS,
                                      seed=self.seed * 100_003 + self.count, antithetic=True)
        self.count += 1
        return [self._op(spec)]

    def check(self, ops: list[Op]) -> dict[int, str]:
        ref = _load_reference(self.name)
        failures = {}
        for i, op in enumerate(ops):
            for res, (value, stderr) in zip(op.results, (ref["option"], ref["basket"])):
                if not (res.stderr and res.stderr > 0.0):
                    failures[i] = f"stderr {res.stderr!r} is not positive"
                    break
                limit = MC_SIGMAS * math.hypot(res.stderr, stderr)
                if abs(res.value - value) > limit:
                    failures[i] = f"MC {res.value!r} is {abs(res.value - value):.4f} from reference {value!r} (> {limit:.4f})"
                    break
        good = [op for i, op in enumerate(ops) if i not in failures]
        for k, (label, (value, stderr)) in enumerate(zip(("option", "basket"),
                                                         (ref["option"], ref["basket"]))):
            if not good:
                break
            mean = sum(op.results[k].value for op in good) / len(good)
            mean_se = math.sqrt(sum(op.results[k].stderr ** 2 for op in good)) / len(good)
            limit = MC_SIGMAS * math.hypot(mean_se, stderr)
            if abs(mean - value) > limit:
                for i in range(len(ops)):
                    failures.setdefault(i, f"run mean {label} {mean!r} is {abs(mean - value):.4f} from reference {value!r} (> {limit:.4f})")
        return failures


WORKLOADS = {cls.name: cls for cls in (StrikeStrip, TermSurface, McOracle)}
