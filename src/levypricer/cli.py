"""Command-line front end: configs in, CSV out.

Flag precedence is flags > config file > defaults.  Exit codes: 0 on
success, 1 on a domain error (printed with the error name), 2 on usage
errors (argparse).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bond, charfn, config, fourier, montecarlo, series
from .errors import LevyPricerError
from .params import QuadratureSpec, SeriesTruncation, SimSpec, validate

__all__ = ["main", "run", "emit_csv"]

_FLOAT_FMT = "%.12g"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _FLOAT_FMT % value
    return str(value)


def emit_csv(header: list[str], rows: list[tuple], out: str | None = None) -> None:
    """Header plus rows, 12 significant digits, LF newlines, no locale."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fp:
            fp.write(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="parameter file (INI sections)")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="SECTION.KEY=VALUE", help="override a config value (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--steps", type=int, default=252, help="time steps per unit time")
    p.add_argument("--max-terms", type=int, default=12)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="Poisson mass / successive-term tolerance")
    p.add_argument("--phi-max", type=float, default=None, help="frequency integration cap")
    p.add_argument("--dump-config", action="store_true",
                   help="print the effective config and exit")


def _sections(args) -> config.Sections:
    return config.apply_overrides(config.load_config(args.config), args.overrides)


def _quad_spec(args) -> QuadratureSpec:
    if args.phi_max is None:
        return QuadratureSpec()
    return QuadratureSpec(phi_max_cap=args.phi_max)


def _trunc(args) -> SeriesTruncation:
    return SeriesTruncation(l_max=args.max_terms, n_max=args.max_terms,
                            m_max=args.max_terms, mass_tol=args.tol, term_tol=args.tol)


def _sim_spec(args) -> SimSpec:
    return SimSpec(n_paths=args.paths, n_steps=args.steps, seed=args.seed)


def _maybe_dump(args, sections) -> bool:
    if not args.dump_config:
        return False
    rate = config.rate_from_config(sections)
    asset = config.asset_from_config(sections) if "asset" in sections else None
    asset2 = config.asset_from_config(sections, "asset2") if "asset2" in sections else None
    basket = config.basket_from_config(sections) if "basket" in sections else None
    market = config.market_from_config(sections) if "market" in sections else None
    text = config.dump_config(config.params_to_config(rate, asset, market, asset2, basket))
    sys.stdout.write(text)
    return True


def _cmd_validate(args, sections) -> int:
    validate(config.rate_from_config(sections))
    if "asset" in sections:
        validate(config.asset_from_config(sections))
    if "basket" in sections:
        validate(config.basket_from_config(sections))
    if "market" in sections:
        validate(config.market_from_config(sections))
    validate(_trunc(args), _quad_spec(args), _sim_spec(args))
    print("ok")
    return 0


def _cmd_bond(args, sections) -> int:
    rate = config.rate_from_config(sections)
    market = config.market_from_config(sections)
    tau = market.tau
    g = bond.loading_G(rate, tau)
    a = bond.loading_A(rate, tau)
    b = bond.bond_price(rate, market.r, tau)
    emit_csv(["tau", "b", "A", "G"], [(tau, b, a, g)], args.out)
    return 0


def _cmd_price(args, sections) -> int:
    rate = config.rate_from_config(sections)
    asset = config.asset_from_config(sections)
    market = config.market_from_config(sections)
    res = series.option_price(rate, asset, market, _trunc(args), _quad_spec(args))
    l_used, n_used = res.terms_used
    emit_csv(["value", "quad_error", "l", "n", "converged"],
             [(res.value, res.quad_error, l_used, n_used, res.converged)], args.out)
    return 0


def _cmd_basket(args, sections) -> int:
    rate = config.rate_from_config(sections)
    basket = config.basket_from_config(sections)
    market = config.market_from_config(sections)
    res = series.basket_price(rate, basket, market, _trunc(args), _quad_spec(args))
    l_used, n_used, m_used = res.terms_used
    emit_csv(["value", "quad_error", "l", "n", "m", "converged"],
             [(res.value, res.quad_error, l_used, n_used, m_used, res.converged)], args.out)
    return 0


def _cmd_w_price(args, sections) -> int:
    rate = config.rate_from_config(sections)
    asset = config.asset_from_config(sections)
    market = config.market_from_config(sections)
    res = fourier.w_price(rate, asset, market, _quad_spec(args))
    (spot,) = market.spots()
    emit_csv(["S", "K", "tau", "W", "quad_error"],
             [(spot, market.strike, market.tau, res.value, res.quad_error)], args.out)
    return 0


def _cmd_charfn(args, sections) -> int:
    rate = config.rate_from_config(sections)
    asset = config.asset_from_config(sections)
    market = config.market_from_config(sections)
    (spot,) = market.spots()
    z, r, tau = float(np.log(spot)), market.r, market.tau
    phi_max = args.phi_max if args.phi_max is not None else 100.0
    phis = np.linspace(0.1, phi_max, args.grid)
    b_s, d_s = charfn.bd_series_many(rate, asset.sigma, phis.astype(complex), tau)
    b_o, d_o = charfn.bd_ode_many(rate, asset.sigma, phis.astype(complex), tau)
    f_series = np.exp(b_s + d_s * r + 1j * phis * z)
    f_oracle = np.exp(b_o + d_o * r + 1j * phis * z)
    rows = [
        (phi, fv.real, fv.imag, abs(fv - fo))
        for phi, fv, fo in zip(phis, f_series, f_oracle)
    ]
    emit_csv(["phi", "re_f", "im_f", "abs_series_minus_oracle"], rows, args.out)
    return 0


def _cmd_converge(args, sections) -> int:
    rate = config.rate_from_config(sections)
    market = config.market_from_config(sections)
    if args.series == "basket":
        target = config.basket_from_config(sections)
    else:
        target = config.asset_from_config(sections)
    report = series.convergence_study(args.series, rate, target, market,
                                      args.max_terms, _quad_spec(args))
    if args.series == "w":
        header = ["n", "partial_sum", "abs_diff"]
    elif args.series == "f":
        header = ["l", "n", "partial_sum", "abs_diff"]
    else:
        header = ["l", "n", "m", "partial_sum", "abs_diff"]
    rows = [(*idx, ps, d) for idx, ps, d in report.rows()]
    emit_csv(header, rows, args.out)
    return 0


def _cmd_mc(args, sections) -> int:
    rate = config.rate_from_config(sections)
    market = config.market_from_config(sections)
    spec = _sim_spec(args)
    if args.target == "bond":
        res = montecarlo.mc_bond_price(rate, market.r, market.tau, spec)
    elif args.target == "basket":
        res = montecarlo.mc_basket_price(rate, config.basket_from_config(sections),
                                         market, spec)
    else:
        res = montecarlo.mc_option_price(rate, config.asset_from_config(sections),
                                         market, spec)
    emit_csv(["value", "stderr", "n_paths"], [(res.value, res.stderr, spec.n_paths)], args.out)
    return 0


def _cmd_paths(args, sections) -> int:
    rate = config.rate_from_config(sections)
    market = config.market_from_config(sections)
    if "basket" in sections and len(market.spots()) == 2:
        assets = config.basket_from_config(sections)
    elif "asset" in sections:
        assets = config.asset_from_config(sections)
    else:
        assets = None
    spec = _sim_spec(args)
    bundle = montecarlo.simulate_paths(rate, assets, market, spec)
    two = bundle.s2 is not None
    header = ["path", "t", "r", "S"] + (["S2"] if two else [])
    rows = []
    for p in range(bundle.r.shape[0]):
        for j in range(1, bundle.t.size):  # long format, initial point omitted
            row = [p, bundle.t[j], bundle.r[p, j]]
            row.append(bundle.s[p, j] if bundle.s is not None else float("nan"))
            if two:
                row.append(bundle.s2[p, j])
            rows.append(tuple(row))
    emit_csv(header, rows, args.out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "bond": _cmd_bond,
    "price": _cmd_price,
    "basket": _cmd_basket,
    "w-price": _cmd_w_price,
    "charfn": _cmd_charfn,
    "converge": _cmd_converge,
    "mc": _cmd_mc,
    "paths": _cmd_paths,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levypricer",
        description="Option and bond pricing under jump-extended short-rate "
                    "and jump-diffusion asset dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name)
        _add_common(p)
        if name == "charfn":
            p.add_argument("--grid", type=int, default=200, help="number of phi points")
        if name == "converge":
            p.add_argument("--series", choices=["w", "f", "basket"], default="f")
        if name == "mc":
            p.add_argument("--target", choices=["option", "bond", "basket"],
                           default="option")
        p.set_defaults(func=fn)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse, dispatch and translate domain errors into exit code 1."""
    args = _build_parser().parse_args(argv)
    try:
        sections = _sections(args)
        if _maybe_dump(args, sections):
            return 0
        return args.func(args, sections)
    except LevyPricerError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
