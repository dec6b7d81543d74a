"""Risk-neutral simulation of the full jump models, the validation oracle.

Rate step (mean reversion integrated exactly over the step, full
truncation at r+ = max(r, 0) in drift and diffusion):

    r'  = r + (k a - lam C_X - k r+) h + sigma_r sqrt(r+ dt) xi
            + (rate jumps arriving in the step),    h = (1 - e^{-k dt}) / k

with h = dt when k = 0.  Rate jump counts per step are Poisson; they are
realised by drawing each path's total jump count over [0, tau], a
uniform step index per jump and i.i.d. magnitudes, which has exactly the
per-step Poisson law and keeps the hot loop free of per-step count draws.

The assets' Brownian motions and jumps are independent of the rate's, so
given the rate integral I over an interval of length T the log asset
move is exact in law:

    ln S' - ln S = I + (-lambda1 C_Y - sigma^2/2) T + sigma sqrt(T) Z + sum ln Y

I is the trapezoid rule on the rate grid, the same integral that
discounts, so e^{-I} S_tau is an exact martingale at any step count.
Pricing draws one interval, [0, tau]; ``simulate_paths`` draws one per
step.  Only the rate is stepped in time.

Randomness is stream-splittable (PCG64 seeded through SeedSequence
spawn keys), split per block and per component (rate / asset 1 /
asset 2).  Draw order per block: the rate stream draws its jump schedule
(counts, step indices, magnitudes), then one Gaussian vector per step;
each asset stream draws its Gaussians for all intervals, then its
Poisson counts for all intervals, then the log jump sums.  Asset 2 mixes
asset 1's Gaussians in through the correlation and reads only its own
stream, so results are bit-for-bit reproducible for a given SimSpec,
independent of worker count, and the asset-1 draws of a basket run
coincide with a single-asset run under the same seed.  Antithetic pairs
negate every Gaussian (rate and assets) and share every jump draw.
Blocks are embarrassingly parallel; ``workers`` > 1 fans them out to
processes and reduces in block order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .params import (AssetParams, BasketParams, MarketState, PriceResult, RateParams, SimSpec,
                     validate)

__all__ = ["PathBundle", "simulate_paths", "mc_option_price", "mc_bond_price", "mc_basket_price"]

_BLOCK = 1 << 16  # entities (paths, or pairs when antithetic) per block


@dataclass(frozen=True)
class PathBundle:
    """Materialised simulation grid for path inspection and CSV dumps."""

    t: np.ndarray  # (n_steps + 1,)
    r: np.ndarray  # (n_paths, n_steps + 1)
    s: np.ndarray | None  # same shape, per asset
    s2: np.ndarray | None
    rate_jumps: np.ndarray  # (n_paths, n_steps), jump sum landing in each step (0 = none)
    asset_jumps: np.ndarray | None  # multiplicative jump factor per step (1 = none)
    asset2_jumps: np.ndarray | None


def _rng(seed: int, block: int, component: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block, component))
    return np.random.Generator(np.random.PCG64(ss))


def _n_steps_total(spec: SimSpec, tau: float) -> int:
    return max(1, math.ceil(spec.n_steps * tau))


def _blocks(spec: SimSpec) -> list[tuple[int, int]]:
    """(block index, entities in block); entities are pairs when antithetic."""
    if spec.antithetic:
        if spec.n_paths % 2:
            raise ValueError("antithetic simulation requires an even n_paths")
        total = spec.n_paths // 2
    else:
        total = spec.n_paths
    out = []
    idx = 0
    while total > 0:
        take = min(total, _BLOCK)
        out.append((idx, take))
        total -= take
        idx += 1
    return out


def _rate_jumps(rate: RateParams, n_entities: int, n_steps: int, tau: float,
                rng: np.random.Generator):
    """One block's rate jumps as (steps, owners, sizes), sorted by step."""
    if rate.lam <= 0:
        return np.empty(0, int), np.empty(0, int), np.empty(0)
    counts = rng.poisson(rate.lam * tau, n_entities)
    total = int(counts.sum())
    steps = rng.integers(0, n_steps, total)
    sizes = rate.x_law.sample(total, rng)
    order = np.argsort(steps, kind="stable")
    return steps[order], np.repeat(np.arange(n_entities), counts)[order], sizes[order]


def _asset_logs(assets, rho, spots, integrals, dt, rngs, antithetic):
    """Log asset levels at the ends of the observation intervals.

    ``integrals`` (lead, entities, intervals) holds the rate integral over
    each interval of length ``dt``.  Returns, per asset, the log levels
    (same shape) and the log jump sums (entities, intervals).
    """
    _, n_entities, n_obs = integrals.shape
    rho_c = math.sqrt(max(1.0 - rho * rho, 0.0))
    logs, jumps = [], []
    z1 = None
    for asset, spot, rng in zip(assets, spots, rngs):
        z = rng.standard_normal((n_entities, n_obs))
        if z1 is None:
            z1 = z
        else:
            z = rho * z1 + rho_c * z
        if antithetic:
            z = np.stack([z, -z])
        if asset.lambda1 > 0:
            counts = rng.poisson(asset.lambda1 * dt, (n_entities, n_obs))
            log_y = asset.y_law.sample_log_product(counts, rng)
        else:
            log_y = np.zeros((n_entities, n_obs))
        drift = (-asset.lambda1 * asset.c_y - 0.5 * asset.sigma**2) * dt
        steps = integrals + drift + (asset.sigma * math.sqrt(dt)) * z + log_y
        logs.append(math.log(spot) + np.cumsum(steps, axis=-1))
        jumps.append(log_y)
    return logs, jumps


def _simulate_block(
    rate: RateParams,
    assets: tuple[AssetParams, ...],
    rho: float,
    state: MarketState,
    block: int,
    n_entities: int,
    spec: SimSpec,
    keep_paths: bool = False,
):
    """Advance one block of paths; returns terminal levels or full grids.

    The time loop steps only the rate; the assets are then drawn over
    [0, tau] when pricing, or over each step when ``keep_paths``.
    """
    tau = state.tau
    n_steps = _n_steps_total(spec, tau)
    dt = tau / n_steps
    sqrt_dt = math.sqrt(dt)
    rngs = [_rng(spec.seed, block, c) for c in range(1 + len(assets))]
    lead = 2 if spec.antithetic else 1

    j_steps, j_owners, j_sizes = _rate_jumps(rate, n_entities, n_steps, tau, rngs[0])
    bounds = np.searchsorted(j_steps, np.arange(n_steps + 1)).tolist()

    r0 = float(state.r)
    r = np.full((lead, n_entities), r0)
    r_running = np.zeros((lead, n_entities))  # sum of step-start rates
    h = -math.expm1(-rate.k * dt) / rate.k if rate.k > 0 else dt
    drift_const = (rate.k * rate.a - rate.lam * rate.c_x) * h
    if keep_paths:
        r_path = np.empty((lead, n_entities, n_steps + 1))
        r_path[..., 0] = r

    for step in range(n_steps):
        xi = rngs[0].standard_normal(n_entities)
        xi_r = np.stack([xi, -xi]) if spec.antithetic else xi[None, :]
        r_running += r
        r_plus = np.maximum(r, 0.0)
        r = r + drift_const - (rate.k * h) * r_plus \
            + (rate.sigma_r * sqrt_dt) * np.sqrt(r_plus) * xi_r
        lo, hi = bounds[step], bounds[step + 1]
        if hi > lo:
            np.add.at(r, (slice(None), j_owners[lo:hi]), j_sizes[lo:hi])
        if keep_paths:
            r_path[..., step + 1] = r

    if keep_paths:
        integrals, obs_dt = 0.5 * (r_path[..., :-1] + r_path[..., 1:]) * dt, dt
    else:  # trapezoid of r on the grid from the running sum of step starts
        integrals, obs_dt = ((r_running + 0.5 * (r - r0)) * dt)[..., None], tau
    logs, log_jumps = _asset_logs(assets, rho, state.spots(), integrals, obs_dt,
                                  rngs[1:], spec.antithetic)
    if not keep_paths:
        return [np.exp(ls[..., 0]) for ls in logs], integrals[..., 0]

    rj_path = np.zeros((lead, n_entities, n_steps))
    np.add.at(rj_path, (slice(None), j_owners, j_steps), j_sizes)
    s_paths = [np.exp(np.pad(ls, ((0, 0), (0, 0), (1, 0)), constant_values=math.log(s0)))
               for s0, ls in zip(state.spots(), logs)]
    aj_paths = [np.broadcast_to(np.exp(lj), (lead, *lj.shape)) for lj in log_jumps]
    flat = lambda arr: arr.reshape(-1, arr.shape[-1])
    return flat(r_path), [flat(sp) for sp in s_paths], flat(rj_path), [flat(aj) for aj in aj_paths]


def _payoff(payoff, s):
    """Undiscounted payoff of terminal levels ``s`` (floats or arrays).

    ``payoff`` is None for the bond, else (strike, weights) with weights
    None for a single-asset call.
    """
    if payoff is None:
        return 1.0
    strike, w = payoff
    level = s[0] if w is None else w.level(*s)
    return np.maximum(level - strike, 0.0)


def _block_values(rate, assets, rho, state, block, n_entities, spec, payoff) -> np.ndarray:
    s_list, integral = _simulate_block(rate, assets, rho, state, block, n_entities, spec)
    vals = np.exp(-integral) * _payoff(payoff, s_list)
    return vals.mean(axis=0)  # antithetic pair average


def _run(rate, assets, rho, state, spec, payoff, workers: int = 1) -> PriceResult:
    """Discounted-payoff estimate over all blocks, reduced in block order."""
    if state.tau == 0.0:
        return PriceResult(value=float(_payoff(payoff, state.spots())), terms_used=None,
                           quad_error=0.0, converged=True, stderr=0.0)

    blocks = _blocks(spec)
    if workers > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_block_values, rate, assets, rho, state, b, n, spec, payoff)
                for b, n in blocks
            ]
            chunks = [f.result() for f in futures]  # block order
    else:
        chunks = [_block_values(rate, assets, rho, state, b, n, spec, payoff)
                  for b, n in blocks]

    total = sum(float(c.sum()) for c in chunks)
    total_sq = sum(float((c * c).sum()) for c in chunks)
    count = sum(c.size for c in chunks)
    mean = total / count
    if count > 1:
        var = max(total_sq - count * mean * mean, 0.0) / (count - 1)
        stderr = math.sqrt(var / count)
    else:
        stderr = 0.0
    return PriceResult(value=mean, terms_used=None, quad_error=0.0,
                       converged=True, stderr=stderr)


def mc_option_price(
    rate: RateParams, asset: AssetParams, state: MarketState, spec: SimSpec,
    workers: int = 1,
) -> PriceResult:
    """Discounted single-asset call estimate with its standard error."""
    validate(rate, asset, state, spec)
    return _run(rate, (asset,), 0.0, state, spec, (state.strike, None), workers)


def mc_bond_price(rate: RateParams, r0: float, tau: float, spec: SimSpec,
                  workers: int = 1) -> PriceResult:
    """Estimate of E[exp(-int r)] for the jump-extended square-root rate."""
    state = MarketState(spot=1.0, r=r0, tau=tau, strike=1.0)
    validate(rate, state, spec)
    return _run(rate, (), 0.0, state, spec, None, workers)


def mc_basket_price(
    rate: RateParams, basket: BasketParams, state2: MarketState, spec: SimSpec,
    workers: int = 1,
) -> PriceResult:
    """Discounted basket call estimate; the only route for arithmetic baskets."""
    validate(rate, basket, state2, spec)
    return _run(rate, (basket.asset1, basket.asset2), basket.rho, state2, spec,
                (state2.strike, basket.weights), workers)


def simulate_paths(
    rate: RateParams,
    assets: AssetParams | BasketParams | None,
    state: MarketState,
    spec: SimSpec,
) -> PathBundle:
    """Materialise full path grids (meant for small path counts).

    ``assets`` may be a single AssetParams, a BasketParams for two
    correlated assets, or None for rate-only paths.
    """
    validate(rate, *([] if assets is None else [assets]), state, spec)
    if isinstance(assets, BasketParams):
        asset_tuple: tuple[AssetParams, ...] = (assets.asset1, assets.asset2)
        rho = assets.rho
    elif isinstance(assets, AssetParams):
        asset_tuple, rho = (assets,), 0.0
    else:
        asset_tuple, rho = (), 0.0

    n_steps = _n_steps_total(spec, state.tau)
    parts = [_simulate_block(rate, asset_tuple, rho, state, block, n_entities, spec,
                             keep_paths=True)
             for block, n_entities in _blocks(spec)]
    join = lambda arrays: np.concatenate(arrays)[: spec.n_paths]
    s_all = [join([p[1][i] for p in parts]) for i in range(len(asset_tuple))]
    aj_all = [join([p[3][i] for p in parts]) for i in range(len(asset_tuple))]
    return PathBundle(
        t=np.linspace(0.0, state.tau, n_steps + 1),
        r=join([p[0] for p in parts]),
        s=s_all[0] if asset_tuple else None,
        s2=s_all[1] if len(asset_tuple) > 1 else None,
        rate_jumps=join([p[2] for p in parts]),
        asset_jumps=aj_all[0] if asset_tuple else None,
        asset2_jumps=aj_all[1] if len(asset_tuple) > 1 else None,
    )
