"""Spans and counts at the boundaries of levypricer's layers.

The traced run replaces, for its duration, the names that the calling
modules bind (``series.w_values``, ``charfn.bd_series_many``, the
``JumpLaw.sample*`` methods, ...) with wrappers that record a span
(name, start, end, parent) and the layer's work counts.  Nothing under
``src/`` changes, and the untraced run calls the library unwrapped.

A layer's self time is the time of its spans minus the time of their
child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("fourier", "charfn", "series", "laws", "bond", "montecarlo")
COUNTS = ("fourier.states", "charfn.calls", "charfn.freqs", "series.terms",
          "laws.calls", "bond.calls", "montecarlo.path_steps")


class Tracer:
    """Spans kept in memory as (id, parent, op, name, start_ns, end_ns, self_ns)."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.n_ops = 0
        self._open: list[list[int]] = []  # [span id, start_ns, child_ns]

    @property
    def active(self) -> bool:
        return bool(self._open)

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1][0] if self._open else None
        frame = [span_id, time.perf_counter_ns(), 0]
        self._open.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            duration = end - frame[1]
            if self._open:
                self._open[-1][2] += duration
            self.spans[span_id] = (span_id, parent, self.n_ops, name, frame[1], end,
                                   duration - frame[2])

    def layer_metrics(self) -> dict[str, float]:
        """Per-op self time of each layer, traced op time and per-op counts."""
        n = max(self.n_ops, 1)
        self_ns = Counter()
        op_ns = 0
        for _, _, _, name, start, end, own in self.spans:
            self_ns[name.split(".")[0]] += own
            if name == "op":
                op_ns += end - start
        out = {f"{layer}.self_ms": self_ns[layer] / n / 1e6 for layer in LAYERS}
        out["trace.op_ms"] = op_ns / n / 1e6
        out.update({key: self.counts[key] / n for key in COUNTS})
        return out


def _wrap(tracer: Tracer, fn, name: str, count):
    layer = name.split(".")[0]
    signature = inspect.signature(fn) if count else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:  # called by the harness's own checks
            return fn(*args, **kwargs)
        with tracer.span(name):
            out = fn(*args, **kwargs)
        tracer.counts[f"{layer}.calls"] += 1
        if count:
            tracer.counts.update(count(signature.bind(*args, **kwargs).arguments, out))
        return out

    return traced


def _terms(args, out):
    return {"series.terms": math.prod(t + 1 for t in out.terms_used)} if out.terms_used else {}


def _states(args, out):
    return {"fourier.states": np.size(args["spots"])}


def _freqs(args, out):
    return {"charfn.freqs": np.size(args["phis"])}


def _path_steps(args, out):
    spec = args["spec"]
    tau = (args.get("state") or args["state2"]).tau
    return {"montecarlo.path_steps": spec.n_paths * max(1, math.ceil(spec.n_steps * tau))}


def entry_points(lp) -> list[tuple]:
    """(owner, attribute, span name, counter) for every wrapped name."""
    s, c, m = lp.series, lp.charfn, lp.montecarlo
    points = [
        (s, "option_price", "series.option_price", _terms),
        (s, "w_values", "fourier.w_values", _states),
        (s, "bond_price", "bond.bond_price", None),
        (c, "loading_G", "bond.loading_G", None),
        (s, "jump_sum_nodes", "laws.jump_sum_nodes", None),
        (s, "product_nodes", "laws.product_nodes", None),
        (s, "poisson_weights", "laws.poisson_weights", None),
        (s, "poisson_cutoff", "laws.poisson_cutoff", None),
        (c, "bd_series_many", "charfn.bd_series_many", _freqs),
        (c, "bd_ode_many", "charfn.bd_ode_many", _freqs),
        (m, "mc_option_price", "montecarlo.mc_option_price", _path_steps),
        (m, "mc_basket_price", "montecarlo.mc_basket_price", _path_steps),
    ]
    for law in (lp.laws.Exponential, lp.laws.Fixed, lp.laws.Lognormal):
        for method in ("sample", "sample_sum", "sample_log_product"):
            points.append((law, method, f"laws.{law.__name__}.{method}", None))
    return points


@contextmanager
def patched(tracer: Tracer, lp):
    """Wrap every entry point for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, name, count in entry_points(lp):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, count))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
