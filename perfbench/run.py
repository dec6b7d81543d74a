"""Benchmark harness for levypricer: one caller, closed loop, workers=1.

Run from the repository root:

    python3 perfbench/run.py --workload strike_strip --seed 1 --seconds 30 --trace 0

Workloads: strike_strip, term_surface, mc_oracle (see workloads.py and
README.md).  Each run imports ``levypricer`` from ``src/`` of this
checkout SETUP_ROUNDS times with empty caches plus one untimed warm-up
op (set-up), then sends ops back to back for ``--seconds`` and stops at
the end of the current block (a strip, a maturity sweep or an MC pair).
Every timed result is checked afterwards.  ``--trace 1`` runs the first
half untraced and the second half with the layer entry points wrapped,
and reports per-layer numbers instead of the end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit and the environment.  A full record (environment,
all metrics, failures, spans) goes to ``perfbench/results/``.

Seed HOLDOUT_SEED is reserved for confirming a claimed gain: do not use
it while developing the change.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MODULES = ("params", "laws", "bond", "charfn", "fourier", "series", "montecarlo")
SETUP_ROUNDS = 5
HOLDOUT_SEED = 917_203
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
CENT = 0.01
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "mc_time_to_1c_s": "s",
}
PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in ("fourier", "charfn", "series", "laws", "bond",
                                               "montecarlo")},
    "fourier.states": "count",
    "fourier.transform_hit_ratio": "1",
    "charfn.calls": "count",
    "charfn.freqs": "count",
    "series.terms": "count",
    "laws.calls": "count",
    "bond.calls": "count",
    "montecarlo.path_steps": "count",
    "trace.op_ms": "ms",
    "trace.overhead_ratio": "1",
}


def pin_threads() -> None:
    """One compute thread unless the caller chose otherwise; call before numpy loads."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")


def import_levypricer() -> SimpleNamespace:
    """Import levypricer from this checkout's src/, every module-level cache empty."""
    if not (SRC / "levypricer" / "__init__.py").is_file():
        raise FileNotFoundError(f"no levypricer sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "levypricer" or n.startswith("levypricer.")]:
        del sys.modules[name]
    package = importlib.import_module("levypricer")
    if Path(package.__file__).resolve().parent != (SRC / "levypricer").resolve():
        raise ImportError(f"levypricer imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"levypricer.{m}") for m in MODULES})


def os_threads() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "os_threads": os_threads(),
        "workers": 1,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_ops(workload, seconds: float, tracer=None, perturb=None) -> tuple[list, float]:
    """Closed loop: next op only after the previous one; stop at a block end."""
    ops = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in workload.next_block():
            if tracer is None:
                _call(op, perturb)
            else:
                with tracer.span("op"):
                    _call(op, perturb)
                tracer.n_ops += 1
            ops.append(op)
    return ops, time.perf_counter() - start


def _call(op, perturb) -> None:
    for module, attr, args in op.calls:
        t0 = time.perf_counter()
        try:
            result = getattr(module, attr)(*args)
        except Exception:  # the loop keeps running; the op counts as failed
            op.seconds.append(time.perf_counter() - t0)
            op.error = traceback.format_exc(limit=4)
            return
        op.seconds.append(time.perf_counter() - t0)
        op.results.append(perturb(result) if perturb else result)


def failures(workload, ops: list) -> dict[int, str]:
    """Op index -> reason, for ops that raised, did not converge or fail a check."""
    bad = {}
    for i, op in enumerate(ops):
        if op.error:
            bad[i] = op.error.strip().splitlines()[-1]
        elif not all(bool(r.converged) for r in op.results):  # may be np.True_
            bad[i] = "converged is false"
    passed = [i for i in range(len(ops)) if i not in bad]
    for j, reason in workload.check([ops[i] for i in passed]).items():
        bad[passed[j]] = reason
    return bad


def end_to_end(ops: list, elapsed: float, setup: list[float]) -> tuple[dict, dict]:
    latency = sorted(sum(op.seconds) for op in ops)
    n = len(latency)
    k = max(n - TAIL_BEYOND - 1, 0)
    # Projected time to a one-cent standard error: a Monte Carlo call scales
    # with its variance, an analytic call is already far below a cent.
    to_1c = [sum(t * ((r.stderr / CENT) ** 2 if r.stderr is not None else 1.0)
                 for t, r in zip(op.seconds, op.results))
             for op in ops]
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": n / elapsed,
        "latency_p50_ms": statistics.median(latency) * 1e3,
        "latency_tail_ms": latency[k] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mc_time_to_1c_s": statistics.median(to_1c),
    }
    detail = {"latency_tail_percentile": 100.0 * (k + 1) / n, "latency_samples": n,
              "setup_rounds_s": setup, "op_ms": [sum(op.seconds) * 1e3 for op in ops]}
    return metrics, detail


def traced(lp, workload, seconds: float) -> tuple[list, dict, list]:
    """Half the time untraced, half traced; per-layer metrics of the traced half."""
    from spans import Tracer, patched

    plain, plain_elapsed = run_ops(workload, seconds / 2)
    tracer = Tracer()
    before = lp.fourier.call_transform.cache_info()
    with patched(tracer, lp):
        wrapped, wrapped_elapsed = run_ops(workload, seconds / 2, tracer)
    after = lp.fourier.call_transform.cache_info()
    lookups = (after.hits - before.hits) + (after.misses - before.misses)
    metrics = tracer.layer_metrics()
    metrics["fourier.transform_hit_ratio"] = (after.hits - before.hits) / lookups if lookups else 0.0
    metrics["trace.overhead_ratio"] = ((len(wrapped) / wrapped_elapsed)
                                       / (len(plain) / plain_elapsed))
    return plain + wrapped, metrics, tracer.spans


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            perturb=None) -> dict:
    """Set up SETUP_ROUNDS times, run the workload, check it; returns the full record."""
    from workloads import WORKLOADS

    setup = []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        lp = import_levypricer()
        workload = WORKLOADS[name](lp, seed, tiny=tiny)
        workload.warmup()
        setup.append(time.perf_counter() - t0)

    spans = None
    if trace:
        ops, metrics, spans = traced(lp, workload, seconds)
        detail = {}
    else:
        ops, elapsed = run_ops(workload, seconds, perturb=perturb)
        metrics, detail = end_to_end(ops, elapsed, setup)
    bad = failures(workload, ops)
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": len(ops),
        "failed": len(bad),
        "failed_ratio": len(bad) / len(ops),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        "detail": detail,
        "failures": [{"op": i, "key": ops[i].key, "reason": reason}
                     for i, reason in sorted(bad.items())[:50]],
        "spans": spans,
    }


def main(argv=None) -> int:
    pin_threads()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "levypricer" / "__init__.py").is_file():
        print(f"error: no levypricer sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = environment()
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    env["os_threads_after"] = os_threads()
    record["environment"] = env

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {record['attempted']} ops, "
          f"{record['failed']} failed (failed_ratio {record['failed_ratio']:.4g} 1)")
    for key, m in record["metrics"].items():
        print(f"  {key:<28} {m['value']:.6g} {m['unit']}")
    if record["detail"]:
        d = record["detail"]
        print(f"  latency_tail_ms is p{d['latency_tail_percentile']:.1f} "
              f"of {d['latency_samples']} ops")
    for f in record["failures"][:5]:
        print(f"  failed op {f['op']}: {f['reason']}")
    print("environment " + json.dumps(env))
    print(f"record {os.path.relpath(out, ROOT)}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
