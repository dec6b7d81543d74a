"""Key-value configuration files mapping onto the parameter containers.

Sections [rate], [asset], [asset2], [basket], [market] with field names
matching the container fields (``lambda`` in files maps to the ``lam``
attribute; jump laws use dotted keys like ``x_law.kind``,
``x_law.theta``).  Exponential laws accept ``theta`` or, explicitly,
``mean`` (theta = 1/mean) for mean-parameterised configs.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import fields

from .errors import InvalidParameter
from .laws import JUMP_LAWS, JumpLaw
from .params import (
    ArithmeticWeights,
    AssetParams,
    BasketParams,
    GeometricWeights,
    MarketState,
    RateParams,
)

__all__ = [
    "load_config",
    "apply_overrides",
    "rate_from_config",
    "asset_from_config",
    "basket_from_config",
    "market_from_config",
    "params_to_config",
    "dump_config",
]

Sections = dict[str, dict[str, str]]


def load_config(path: str) -> Sections:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)
    return {name: dict(parser[name]) for name in parser.sections()}


def apply_overrides(sections: Sections, overrides: list[str]) -> Sections:
    """Apply repeatable --set section.key=value pairs on top of the file."""
    out = {name: dict(vals) for name, vals in sections.items()}
    for item in overrides:
        try:
            key, value = item.split("=", 1)
            section, field = key.split(".", 1)
        except ValueError:
            raise ValueError(f"--set expects section.key=value, got {item!r}") from None
        out.setdefault(section, {})[field] = value
    return out


def _floats(section: dict[str, str], *names: str) -> list[float]:
    missing = [n for n in names if n not in section]
    if missing:
        raise InvalidParameter([f"{n}: missing" for n in missing])
    try:
        return [float(section[n]) for n in names]
    except ValueError as err:
        raise InvalidParameter([str(err)]) from None


def _section(sections: Sections, name: str) -> dict[str, str]:
    if name not in sections:
        raise InvalidParameter([f"{name}: section missing"])
    return sections[name]


def _law_from(section: dict[str, str], prefix: str) -> JumpLaw:
    law = JUMP_LAWS.get(section.get(f"{prefix}.kind", "").lower())
    if law is None:
        raise InvalidParameter([f"{prefix}.kind: must be exponential, fixed or lognormal"])
    if law.mean_key is not None and f"{prefix}.mean" in section:
        if f"{prefix}.{law.mean_key}" in section:
            raise InvalidParameter([f"{prefix}: give {law.mean_key} or mean, not both"])
        (mean,) = _floats(section, f"{prefix}.mean")
        return law(**{law.mean_key: 1.0 / mean})
    return law(*_floats(section, *(f"{prefix}.{f.name}" for f in fields(law))))


def rate_from_config(sections: Sections) -> RateParams:
    sec = _section(sections, "rate")
    k, a, sigma_r, lam = _floats(sec, "k", "a", "sigma_r", "lambda")
    return RateParams(k=k, a=a, sigma_r=sigma_r, lam=lam, x_law=_law_from(sec, "x_law"))


def asset_from_config(sections: Sections, section: str = "asset") -> AssetParams:
    sec = _section(sections, section)
    sigma, lambda1 = _floats(sec, "sigma", "lambda1")
    return AssetParams(sigma=sigma, lambda1=lambda1, y_law=_law_from(sec, "y_law"))


def basket_from_config(sections: Sections) -> BasketParams:
    sec = _section(sections, "basket")
    (rho,) = _floats(sec, "rho")
    kind = sec.get("kind", "geometric").lower()
    if kind == "geometric":
        (alpha,) = _floats(sec, "alpha")
        weights: GeometricWeights | ArithmeticWeights = GeometricWeights(alpha)
    elif kind == "arithmetic":
        raw = sec.get("weights", "")
        try:
            w1, w2 = (float(x) for x in raw.split(","))
        except ValueError:
            raise InvalidParameter(["weights: expected two comma-separated values"]) from None
        weights = ArithmeticWeights((w1, w2))
    else:
        raise InvalidParameter(["kind: must be geometric or arithmetic"])
    return BasketParams(
        asset1=asset_from_config(sections, "asset"),
        asset2=asset_from_config(sections, "asset2"),
        rho=rho,
        weights=weights,
    )


def market_from_config(sections: Sections) -> MarketState:
    sec = _section(sections, "market")
    r, tau, strike = _floats(sec, "r", "tau", "strike")
    raw_spot = sec.get("spot")
    if raw_spot is None:
        raise InvalidParameter(["spot: missing"])
    parts = [float(x) for x in raw_spot.split(",")]
    spot = parts[0] if len(parts) == 1 else (parts[0], parts[1])
    return MarketState(spot=spot, r=r, tau=tau, strike=strike)


def _law_to(prefix: str, law: JumpLaw) -> dict[str, str]:
    if not isinstance(law, JumpLaw):
        raise TypeError(f"cannot serialise law {type(law).__name__}")
    return {f"{prefix}.kind": law.kind,
            **{f"{prefix}.{f.name}": repr(getattr(law, f.name)) for f in fields(law)}}


def params_to_config(
    rate: RateParams,
    asset: AssetParams | None,
    market: MarketState | None,
    asset2: AssetParams | None = None,
    basket: BasketParams | None = None,
) -> Sections:
    """Serialise parameters back to sections; repr keeps floats lossless."""
    sections: Sections = {}
    sections["rate"] = {
        "k": repr(rate.k),
        "a": repr(rate.a),
        "sigma_r": repr(rate.sigma_r),
        "lambda": repr(rate.lam),
        **_law_to("x_law", rate.x_law),
    }
    for name, leg in (("asset", asset), ("asset2", asset2)):
        if leg is not None:
            sections[name] = {
                "sigma": repr(leg.sigma),
                "lambda1": repr(leg.lambda1),
                **_law_to("y_law", leg.y_law),
            }
    if basket is not None:
        sections["basket"] = {"rho": repr(basket.rho), "kind": basket.weights.kind}
        if isinstance(basket.weights, GeometricWeights):
            sections["basket"]["alpha"] = repr(basket.weights.alpha)
        else:
            sections["basket"]["weights"] = ",".join(repr(w) for w in basket.weights.weights)
    if market is not None:
        sections["market"] = {
            "spot": ",".join(repr(s) for s in market.spots()),
            "r": repr(market.r),
            "tau": repr(market.tau),
            "strike": repr(market.strike),
        }
    return sections


def dump_config(sections: Sections, fp=None) -> str:
    """Write sections as INI text; returns the text as well."""
    parser = configparser.ConfigParser()
    for name, values in sections.items():
        parser[name] = values
    buf = io.StringIO()
    parser.write(buf)
    text = buf.getvalue()
    if fp is not None:
        fp.write(text)
    return text
