"""Record the reference prices the benchmark checks against.

Run once from the repository root, at the commit whose prices are the
reference:

    python3 perfbench/record_reference.py

It prices every grid point the analytic workloads can draw (at S = 100,
stored as U / S) and runs the two Monte Carlo quotes of ``mc_oracle``
with 40x the workload's path count, then writes ``reference.json``.
Takes about twenty-five minutes on one core.

``term_surface`` references take the (B, D) loadings from the library's
independent fourth-order Riccati integration (``charfn.bd_ode_many``)
instead of the series, so they do not share a truncation with the code
they check; the two agree to ~1e-12 in price where the series converges.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import workloads as wl
from run import ROOT, import_levypricer

REFERENCE_PATHS = 40 * wl.MC_PATHS


def ode_transform(lp):
    """call_transform replacement whose loadings come from the RK4 oracle."""

    class OdeTransform(lp.fourier._CallTransform):
        def _bd(self, phis):
            steps = math.ceil(1000 * self.tau) + 100  # ~1e-13 in price
            return lp.charfn.bd_ode_many(self.rate, self.sigma, phis, self.tau, n_steps=steps)

    cache = {}

    def call_transform(rate, sigma, tau, spec=lp.params.QuadratureSpec(), max_terms=None):
        key = (rate, sigma, tau, spec)
        if key not in cache:
            cache.clear()
            cache[key] = OdeTransform(rate, sigma, tau, spec)
        return cache[key]

    return call_transform


def main() -> int:
    lp = import_levypricer()
    p = lp.params
    started = time.perf_counter()

    strip = wl.StrikeStrip(lp, seed=0)
    strike_strip = [
        [lp.series.option_price(strip.rate, strip.asset,
                                p.MarketState(spot=100.0, r=float(r0), tau=wl.TAU,
                                              strike=100.0 * float(m))).value / 100.0
         for m in wl.STRIP_MONEYNESS]
        for r0 in wl.STRIP_R0
    ]
    print(f"strike_strip done at {time.perf_counter() - started:.0f}s", flush=True)

    term = wl.TermSurface(lp, seed=0)
    lp.fourier.call_transform = ode_transform(lp)
    term_surface = []
    for sigma in wl.TERM_SIGMA:
        asset = term._asset(float(sigma))
        term_surface.append([
            [lp.series.option_price(term.rate, asset,
                                    p.MarketState(spot=100.0, r=wl.TERM_R0, tau=float(tau),
                                                  strike=100.0 * m)).value / 100.0
             for m in wl.TERM_MONEYNESS]
            for tau in wl.TERM_TAU
        ])
    print(f"term_surface done at {time.perf_counter() - started:.0f}s", flush=True)

    mc = wl.McOracle(lp, seed=0)
    spec = p.SimSpec(n_paths=REFERENCE_PATHS, n_steps=wl.MC_STEPS, seed=wl.MC_REFERENCE_SEED)
    option = lp.montecarlo.mc_option_price(mc.rate, mc.asset, mc.state, spec)
    basket = lp.montecarlo.mc_basket_price(mc.rate, mc.basket, mc.state2, spec)
    print(f"mc_oracle done at {time.perf_counter() - started:.0f}s", flush=True)

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    out = {
        "recorded_at_commit": commit,
        "strike_strip": strike_strip,
        "term_surface": term_surface,
        "mc_oracle": {
            "paths": REFERENCE_PATHS,
            "option": [option.value, option.stderr],
            "basket": [basket.value, basket.stderr],
        },
    }
    wl.REFERENCE.write_text(json.dumps(out) + "\n")
    print(f"wrote {wl.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
