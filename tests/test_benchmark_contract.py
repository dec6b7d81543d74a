"""The names the benchmark harness under perfbench/ relies on.

The harness wraps library names in place for its traced runs and swaps
the cached transform for one with ODE loadings when it records
references.  These checks import its modules read-only and fail when a
change to ``src`` would break either.
"""

import importlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from levypricer import option_price

from conftest import BENCH_SPOT

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    # The package as already imported, not run.import_levypricer(), which
    # would re-import it under the rest of the suite.
    lp = SimpleNamespace(**{m: importlib.import_module(f"levypricer.{m}") for m in run.MODULES})
    return lp, importlib.import_module("spans"), importlib.import_module("record_reference")


def test_wrapped_names_are_bound(harness):
    lp, spans, _ = harness
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spans.entry_points(lp) if attr not in vars(owner)]
    assert not missing


def test_coefficient_table_is_patchable(harness, bench_rate):
    # selfcheck.py swaps charfn._coeff_table for a recorder that unpacks
    # (table, converged), and prints charfn.COEFF_CAP.
    lp, _, _ = harness
    assert "_coeff_table" in vars(lp.charfn) and type(lp.charfn.COEFF_CAP) is int
    table, converged = lp.charfn._coeff_table(bench_rate, np.array([1.0 + 0j]), 1.0)
    assert table.shape[1] == converged.shape[0] == 1


def test_transform_cache_is_inspectable(harness):
    lp, _, _ = harness
    assert lp.fourier.call_transform.cache_info().maxsize is not None


def test_benchmark_quote_is_one_folded_state(harness, bench_rate, bench_asset, bench_state):
    lp, spans, _ = harness
    tracer = spans.Tracer()
    with spans.patched(tracer, lp), tracer.span("op"):
        lp.series.option_price(bench_rate, bench_asset, bench_state)
    assert tracer.counts["fourier.states"] == 1
    assert tracer.counts["series.terms"] == 13 * 13


def test_ode_loadings_route_agrees(harness, monkeypatch, bench_rate, bench_asset, bench_state):
    lp, _, record_reference = harness
    series_route = option_price(bench_rate, bench_asset, bench_state)
    monkeypatch.setattr(lp.fourier, "call_transform", record_reference.ode_transform(lp))
    ode_route = option_price(bench_rate, bench_asset, bench_state)
    assert abs(ode_route.value - series_route.value) <= 1e-9 * BENCH_SPOT
