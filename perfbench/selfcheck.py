"""The benchmark's own checks.  Run from the repository root:

    python3 perfbench/selfcheck.py

1. A smoke-size run of each workload, untraced and traced, emits every
   metric named in BENCHMARK.json, each a finite number.
2. The checker is not vacuous: with every price shifted by one cent plus
   ten standard errors, or flagged not converged, every op counts as
   failed.
3. ``term_surface`` stays where the series converges: at its longest
   maturity the coefficient table passes the library's own convergence
   test within ``charfn.COEFF_CAP``.  At ``CAP_PROBE_TAU``, beyond the
   cap, the series price is compared with the RK4-loading price and the
   gap is reported against the analytic tolerance.

Exits 0 when all hold.  Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import numpy as np

import run
import workloads as wl
from record_reference import ode_transform


def cap_probe() -> list[str]:
    """Series convergence at TERM_TAU_MAX, and the truncated price at CAP_PROBE_TAU."""
    lp = run.import_levypricer()
    term = wl.TermSurface(lp, seed=0)
    table = lp.charfn._coeff_table
    cut = []

    def recording(*args, **kwargs):
        a, converged = table(*args, **kwargs)
        cut.append(not np.all(converged))
        return a, converged

    def prices(tau):
        # sigma does not enter the coefficient table; moneyness sets the phi grid.
        return [lp.series.option_price(
                    term.rate, term._asset(0.1),
                    lp.params.MarketState(spot=100.0, r=wl.TERM_R0, tau=tau, strike=100.0 * m))
                for m in wl.TERM_MONEYNESS]

    problems = []
    lp.charfn._coeff_table = recording
    try:
        for tau in (wl.TERM_TAU_MAX, wl.CAP_PROBE_TAU):
            cut.clear()
            capped = prices(tau)  # the last loop leaves CAP_PROBE_TAU's
            print(f"term_surface tau={tau}: coefficient table cut at COEFF_CAP="
                  f"{lp.charfn.COEFF_CAP} in {sum(cut)} of {len(cut)} calls")
            if tau == wl.TERM_TAU_MAX and any(cut):
                problems.append(f"term_surface reaches tau={tau}, where the series is cut at its cap")
    finally:
        lp.charfn._coeff_table = table
    lp.fourier.call_transform = ode_transform(lp)
    for m, s, o in zip(wl.TERM_MONEYNESS, capped, prices(wl.CAP_PROBE_TAU)):
        gap = abs(s.value - o.value) / 100.0
        verdict = "the checks fail it" if gap > wl.ANALYTIC_RTOL or not bool(s.converged) else "within tolerance"
        print(f"  K/S={m}: series {s.value!r} (converged={bool(s.converged)}) vs RK4 {o.value!r}, "
              f"gap {gap:.2e} S against {wl.ANALYTIC_RTOL:.0e} S: {verdict}")
    return problems


def main() -> int:
    run.pin_threads()
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    shifted = lambda r: dataclasses.replace(r, value=r.value + run.CENT + 10.0 * (r.stderr or 0.0))
    unconverged = lambda r: dataclasses.replace(r, converged=False)
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            rec = run.measure(name, seed=1, seconds=1.0, trace=bool(trace), tiny=True)
            got = rec["metrics"]
            missing = [m for m in wanted[trace] if m not in got]
            bad = [m for m in wanted[trace]
                   if m in got and not math.isfinite(got[m]["value"])]
            print(f"{name} trace={trace}: {rec['attempted']} ops, {rec['failed']} failed, "
                  f"missing {missing or 'none'}, not finite {bad or 'none'}")
            if missing or bad:
                problems.append(f"{name} trace={trace}: metrics missing {missing}, not finite {bad}")
        for label, perturb in (("shifted", shifted), ("unconverged", unconverged)):
            rec = run.measure(name, seed=2, seconds=1.0, trace=False, tiny=True, perturb=perturb)
            print(f"{name} {label}: {rec['failed']} of {rec['attempted']} ops failed")
            if rec["failed"] != rec["attempted"]:
                problems.append(f"{name} {label}: only {rec['failed']} of {rec['attempted']} failed")
    problems += cap_probe()
    for p in problems:
        print("PROBLEM", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
