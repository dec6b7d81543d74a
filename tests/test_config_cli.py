"""Configuration parsing, round-trips and the command-line surface."""

import math

import pytest

from levypricer import Exponential, Fixed, Lognormal, InvalidParameter, RateParams
from levypricer.cli import run
from levypricer.config import (
    apply_overrides,
    asset_from_config,
    basket_from_config,
    dump_config,
    load_config,
    market_from_config,
    params_to_config,
    rate_from_config,
)

DEMO_CFG = """
[rate]
k = 2.0
a = 0.05
sigma_r = 0.05
lambda = 1.0
x_law.kind = exponential
x_law.theta = 1000

[asset]
sigma = 0.05
lambda1 = 1.0
y_law.kind = fixed
y_law.c = 1.01

[asset2]
sigma = 0.05
lambda1 = 1.0
y_law.kind = fixed
y_law.c = 1.01

[basket]
rho = 0.5
kind = geometric
alpha = 0.5

[market]
spot = 110
r = 0.03
tau = 1.0
strike = 100
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(DEMO_CFG)
    return str(path)


class TestConfig:
    def test_full_parse(self, cfg_path):
        sections = load_config(cfg_path)
        rate = rate_from_config(sections)
        assert rate.k == 2.0 and rate.lam == 1.0
        assert isinstance(rate.x_law, Exponential) and rate.x_law.theta == 1000.0
        asset = asset_from_config(sections)
        assert isinstance(asset.y_law, Fixed) and asset.y_law.c == 1.01
        market = market_from_config(sections)
        assert market.spot == 110.0 and market.strike == 100.0
        basket = basket_from_config(sections)
        assert basket.rho == 0.5 and basket.weights.alpha == 0.5

    def test_mean_parameterised_exponential(self, cfg_path, tmp_path):
        sections = load_config(cfg_path)
        sections["rate"].pop("x_law.theta")
        sections["rate"]["x_law.mean"] = "0.001"
        rate = rate_from_config(sections)
        assert rate.x_law.theta == pytest.approx(1000.0)

    def test_theta_and_mean_conflict(self, cfg_path):
        sections = load_config(cfg_path)
        sections["rate"]["x_law.mean"] = "0.001"
        with pytest.raises(InvalidParameter):
            rate_from_config(sections)

    def test_lognormal_law(self, cfg_path):
        sections = load_config(cfg_path)
        sections["asset"]["y_law.kind"] = "lognormal"
        sections["asset"]["y_law.mu_j"] = "-0.01"
        sections["asset"]["y_law.sigma_j"] = "0.05"
        asset = asset_from_config(sections)
        assert isinstance(asset.y_law, Lognormal)

    def test_overrides(self, cfg_path):
        sections = apply_overrides(load_config(cfg_path), ["rate.k=3.5", "market.tau=0.5"])
        assert rate_from_config(sections).k == 3.5
        assert market_from_config(sections).tau == 0.5
        with pytest.raises(ValueError):
            apply_overrides(sections, ["nonsense"])

    def test_round_trip(self, cfg_path, tmp_path):
        sections = load_config(cfg_path)
        rate = rate_from_config(sections)
        asset = asset_from_config(sections)
        asset2 = asset_from_config(sections, "asset2")
        basket = basket_from_config(sections)
        market = market_from_config(sections)
        text = dump_config(params_to_config(rate, asset, market, asset2, basket))
        path = tmp_path / "dumped.cfg"
        path.write_text(text)
        reloaded = load_config(str(path))
        assert rate_from_config(reloaded) == rate
        assert asset_from_config(reloaded) == asset
        assert basket_from_config(reloaded) == basket
        assert market_from_config(reloaded) == market

    @pytest.mark.parametrize("law", [Exponential(250.0), Fixed(0.002), Lognormal(-7.0, 0.3)])
    def test_every_law_round_trips(self, law):
        rate = RateParams(k=2.0, a=0.05, sigma_r=0.05, lam=1.0, x_law=law)
        sections = params_to_config(rate, None, None)
        assert sections["rate"]["x_law.kind"] == law.kind
        assert rate_from_config(sections) == rate

    def test_law_key_missing_reported(self, cfg_path):
        sections = load_config(cfg_path)
        sections["asset"]["y_law.kind"] = "lognormal"
        sections["asset"]["y_law.mu_j"] = "-0.01"
        with pytest.raises(InvalidParameter) as err:
            asset_from_config(sections)
        assert err.value.violations == ["y_law.sigma_j: missing"]
        sections["asset"]["y_law.kind"] = "gamma"
        with pytest.raises(InvalidParameter) as err:
            asset_from_config(sections)
        assert err.value.violations == ["y_law.kind: must be exponential, fixed or lognormal"]

    def test_two_spot_market(self, cfg_path):
        sections = apply_overrides(load_config(cfg_path), ["market.spot=110, 95"])
        market = market_from_config(sections)
        assert market.spots() == (110.0, 95.0)

    def test_missing_field_reported(self, cfg_path):
        sections = load_config(cfg_path)
        sections["rate"].pop("k")
        with pytest.raises(InvalidParameter) as err:
            rate_from_config(sections)
        assert any(v.startswith("k:") for v in err.value.violations)


class TestEmitCsv:
    def test_three_rows_four_lines(self, capsys):
        from levypricer.cli import emit_csv

        emit_csv(["a", "b"], [(1, 2.0), (3, 4.0), (5, 0.1234567890123456)])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[0] == "a,b"
        assert lines[3] == "5,0.123456789012"  # 12 significant digits

    def test_writes_file_with_lf(self, tmp_path):
        from levypricer.cli import emit_csv

        out = tmp_path / "x.csv"
        emit_csv(["v"], [(True,), (False,)], str(out))
        assert out.read_bytes() == b"v\ntrue\nfalse\n"


class TestCli:
    def test_validate_ok(self, cfg_path, capsys):
        assert run(["validate", "--config", cfg_path]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_validate_bad_parameter(self, cfg_path, capsys):
        code = run(["validate", "--config", cfg_path, "--set", "rate.k=-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "InvalidParameter" in err
        assert "k:" in err  # message names the field

    def test_missing_config_file(self, capsys):
        assert run(["bond", "--config", "/nonexistent.cfg"]) == 1

    def test_bond_csv(self, cfg_path, capsys):
        assert run(["bond", "--config", cfg_path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "tau,b,A,G"
        tau, b, a, g = (float(x) for x in lines[1].split(","))
        assert 0 < b <= 1 and g < 0 and tau == 1.0

    def test_price_csv_shape(self, cfg_path, capsys):
        assert run(["price", "--config", cfg_path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "value,quad_error,l,n,converged"
        assert len(lines) == 2
        assert lines[1].endswith("true")

    def test_w_price_csv(self, cfg_path, capsys):
        assert run(["w-price", "--config", cfg_path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "S,K,tau,W,quad_error"

    def test_basket_csv(self, cfg_path, capsys):
        code = run(["basket", "--config", cfg_path, "--set", "market.spot=110, 95",
                    "--max-terms", "6"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "value,quad_error,l,n,m,converged"

    def test_converge_rows(self, cfg_path, capsys):
        assert run(["converge", "--config", cfg_path, "--series", "f",
                    "--max-terms", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "l,n,partial_sum,abs_diff"
        assert len(lines) == 5  # header + truncations (0,0)..(3,3)

    def test_charfn_grid(self, cfg_path, capsys):
        assert run(["charfn", "--config", cfg_path, "--grid", "7", "--phi-max", "50"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "phi,re_f,im_f,abs_series_minus_oracle"
        assert len(lines) == 8
        worst = max(float(line.split(",")[3]) for line in lines[1:])
        assert worst < 1e-8

    def test_mc_price_and_seed(self, cfg_path, capsys):
        assert run(["mc", "--config", cfg_path, "--paths", "4000", "--steps", "32",
                    "--seed", "9"]) == 0
        out1 = capsys.readouterr().out
        assert out1.splitlines()[0] == "value,stderr,n_paths"
        run(["mc", "--config", cfg_path, "--paths", "4000", "--steps", "32", "--seed", "9"])
        assert capsys.readouterr().out == out1  # identical bytes for same seed

    def test_mc_bond_target(self, cfg_path, capsys):
        assert run(["mc", "--config", cfg_path, "--target", "bond", "--paths", "4000",
                    "--steps", "32", "--seed", "9"]) == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[0])
        assert 0.9 < value < 1.0

    def test_paths_long_format(self, cfg_path, capsys):
        assert run(["paths", "--config", cfg_path, "--paths", "2", "--steps", "5",
                    "--seed", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "path,t,r,S"
        assert len(lines) == 11  # header + 2 paths x 5 steps

    def test_dump_config_round_trip(self, cfg_path, capsys, tmp_path):
        assert run(["price", "--config", cfg_path, "--dump-config"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "round.cfg"
        path.write_text(text)
        sections = load_config(str(path))
        assert rate_from_config(sections).k == 2.0
        assert market_from_config(sections).spot == 110.0

    def test_out_file(self, cfg_path, tmp_path):
        out = tmp_path / "bond.csv"
        assert run(["bond", "--config", cfg_path, "--out", str(out)]) == 0
        assert out.read_text().startswith("tau,b,A,G\n")

    def test_radius_guard_exit_code(self, cfg_path, capsys):
        code = run(["w-price", "--config", cfg_path, "--set", "market.tau=5.0"])
        assert code == 1
        assert "RadiusExceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flags,entry", [
        ("price", ["--tol", "2"], "mass_tol: must lie in (0, 1)"),
        ("price", ["--max-terms", "-1"], "l_max: must be an integer >= 0; "
         "n_max: must be an integer >= 0; m_max: must be an integer >= 0"),
        ("w-price", ["--phi-max", "0"], "phi_max_cap: must be finite and > 0"),
        ("mc", ["--paths", "0"], "n_paths: must be an integer >= 1"),
        ("validate", ["--tol", "2"], "mass_tol: must lie in (0, 1)"),
        ("validate", ["--paths", "0"], "n_paths: must be an integer >= 1"),
        ("validate", ["--phi-max", "-1"], "phi_max_cap: must be finite and > 0"),
    ])
    def test_invalid_control_flag_exit_code(self, cfg_path, capsys, command, flags, entry):
        assert run([command, "--config", cfg_path, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"InvalidParameter: {entry}\n"

    def test_odd_antithetic_path_count_reported(self, cfg_path, capsys):
        code = run(["paths", "--config", cfg_path, "--paths", "3", "--steps", "4"])
        assert code == 1
        assert "even" in capsys.readouterr().err

    def test_usage_error_exit_code(self, cfg_path):
        with pytest.raises(SystemExit) as exc:
            run(["no-such-command", "--config", cfg_path])
        assert exc.value.code == 2
