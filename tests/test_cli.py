import os
import re
import warnings

import numpy as np
import pytest

from mumimo import cli
from mumimo.closedform import (ModulationScheme, outage_exact, rate_exact,
                               ser_exact)
from mumimo.fading import (LargeScaleFading, SystemConfig, build_profile,
                           characteristic_coefficients, symmetric_fading)
from test_closedform import BREAKDOWN_GAINS, profile_system


def read_csv(path):
    header = {}
    rows = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    for ln in lines:
        if ln.startswith("# ") and "=" in ln:
            key, _, val = ln[2:].partition("=")
            header[key.strip()] = val.strip()
    cols = data[0].split(",")
    for ln in data[1:]:
        rows.append(dict(zip(cols, ln.split(","))))
    return header, cols, rows


def test_config_parse_and_unknown_keys():
    values = cli.parse_config_text("users = 5\nn_list = 10,20\n")
    assert values == {"users": 5, "n_list": (10, 20)}
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config_text("bogus = 1\nusers = x\nnoequals\n")
    text = str(err.value)
    # all three problems reported, not just the first
    assert "bogus" in text and "users" in text and "noequals" in text
    assert "valid keys: " in text and "psk_order" in text


def test_config_round_trip():
    resolved = cli.resolve_config({"n_list": (10, 20), "seed": 7})
    text = cli.serialize_config(resolved)
    again = cli.resolve_config(cli.parse_config_text(text))
    assert again == resolved


def test_resolve_collects_all_violations(tmp_path):
    from mumimo.fading import save_fading_text
    beta = tmp_path / "beta.txt"
    save_fading_text(symmetric_fading(2, 3, 1.0, 0.2), beta)
    with pytest.raises(cli.ConfigError) as err:
        cli.resolve_config({"n_list": (5,), "users": 10,
                            "mc_metric": "nope", "reuse_list": (2,),
                            "psk_order": 1, "drops": 0,
                            "fading_samples": 0, "user_index": -1,
                            "cell_index": 4, "beta_direct": 0.0,
                            "e_u": -1.0, "kappa_list": (2.0, 1.0),
                            "eta_list": (0.5, 1.0), "r_inf_list": (0.0,),
                            "fading_file": str(beta), "cell_radius": 50.0,
                            "path_loss_exponent": 2.0,
                            "shadow_sigma_db": -1.0, "bandwidth_hz": 0.0,
                            "useful_duration_s": 1e-3})
    text = str(err.value)
    assert "zero-forcing" in text and "mc_metric" in text and "reuse" in text
    for word in ("psk_order", "drops", "fading_samples",
                 "user_index", "cell_index", "beta_direct", "e_u", "kappa",
                 "eta", "r_inf_list", "fading_file has L, K = 2, 3",
                 "exclusion_radius < cell_radius", "path_loss_exponent",
                 "shadow_sigma_db", "bandwidth_hz",
                 "useful_duration_s <= symbol_duration_s"):
        assert word in text
    (tmp_path / "bad.txt").write_text("2 3\n0 0 1 1 1\n")
    with pytest.raises(cli.ConfigError, match="bad fading_file"):
        cli.resolve_config({"fading_file": str(tmp_path / "bad.txt")})


def test_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("users = 4\nn_list = 8\nseed = 1\n")
    out = tmp_path / "o"
    code = cli.main(["rate", "--config", str(cfg_file), "--seed", "9",
                     "--out", str(out), "--set", "snr_db_list=0"])
    assert code == 0
    header, _, rows = read_csv(out / "rate.csv")
    assert header["seed"] == "9"          # flag beat the file
    assert header["users"] == "4"         # file beat the default
    assert len(rows) == 1


def test_rate_mode_is_a_thin_wrapper(tmp_path):
    out = tmp_path / "o"
    code = cli.main(["rate", "--out", str(out), "--set", "snr_db_list=10",
                     "--set", "n_list=20", "--set", "cross_gain_list=0.1"])
    assert code == 0
    _, _, rows = read_csv(out / "rate.csv")
    cfg = SystemConfig(4, 10, 20, 10.0)
    fad = symmetric_fading(4, 10, 1.0, 0.1)
    exp = characteristic_coefficients(build_profile(cfg, fad, 0))
    want = rate_exact(cfg, fad, exp, 0, 0).value
    assert float(rows[0]["rate_per_user"]) == want


def test_db_conversion_happens_once_at_the_boundary(tmp_path):
    out = tmp_path / "o"
    cli.main(["rate", "--out", str(out), "--set", "snr_db_list=0",
              "--set", "n_list=10", "--set", "cells=1"])
    _, _, rows = read_csv(out / "rate.csv")
    # 0 dB means p_u = 1 exactly: E log2(1 + X), X ~ Exp(1)
    from mumimo.specfun import expint_en_scaled
    import math
    want = expint_en_scaled(1, 1.0) / math.log(2.0)
    np.testing.assert_allclose(float(rows[0]["rate_per_user"]), want,
                               rtol=1e-9)


def test_montecarlo_mode_emits_estimates(tmp_path):
    out = tmp_path / "o"
    code = cli.main(["montecarlo", "--out", str(out), "--seed", "3",
                     "--trials", "500", "--set", "n_list=12",
                     "--set", "users=4"])
    assert code == 0
    _, cols, rows = read_csv(out / "montecarlo.csv")
    assert {"estimate", "std_error", "trials",
            "closed_form_reference"} <= set(cols)
    est = float(rows[0]["estimate"])
    ref = float(rows[0]["closed_form_reference"])
    se = float(rows[0]["std_error"])
    assert abs(est - ref) < 5 * se
    assert int(rows[0]["trials"]) == 500


def test_montecarlo_mode_estimates_the_tagged_user(tmp_path):
    # users with own gains 1, 0.5, 0.1: the estimate is user_index's, not
    # the mean over users (2.365 here), which missed user 2's 1.0487
    from mumimo.fading import save_fading_text
    beta = np.full((2, 2, 3), 0.1)
    beta[0, 0] = beta[1, 1] = (1.0, 0.5, 0.1)
    path = tmp_path / "beta.txt"
    save_fading_text(LargeScaleFading(beta), path)
    out = tmp_path / "o"
    # exit 3: the reference's closed sum fell back to quadrature
    assert cli.main(["montecarlo", "--out", str(out), "--trials", "4000",
                     "--set", f"fading_file={path}", "--set", "cells=2",
                     "--set", "users=3", "--set", "n_list=6",
                     "--set", "user_index=2"]) in (0, 3)
    _, _, rows = read_csv(out / "montecarlo.csv")
    est = float(rows[0]["estimate"])
    ref = float(rows[0]["closed_form_reference"])
    assert abs(ref - 1.0487) < 1e-4
    assert abs(est - ref) < 5 * float(rows[0]["std_error"])


def test_byte_identical_across_threads_and_reruns(tmp_path):
    args = ["montecarlo", "--seed", "7", "--trials", "400",
            "--set", "n_list=12", "--set", "users=4"]
    outs = []
    for name, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / name
        assert cli.main(args + ["--out", str(out), "--threads",
                                threads]) == 0
        outs.append((out / "montecarlo.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_csv_columns_format_like_single_cells(tmp_path):
    values = np.array([0.1, 1 / 3, 2.0 ** 60, 5e-324, -0.0, 123456789.125])
    rows = [("a", 3, 1.5, np.float64(0.2), v) for v in values]
    path = cli._write_csv(str(tmp_path / "t.csv"), {}, "test", "abcde",
                          list(zip(*rows))[:4] + [values])
    body = open(path).read().split("a,b,c,d,e\n", 1)[1]
    assert body == "".join(",".join(cli._fmt(v) for v in row) + "\n"
                           for row in rows)


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    assert cli.main(["rate", "--set", "bogus=1", "--set", "users=x"]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "users: 'x'" in err and "valid keys" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_list = 5\nusers = 10\n")
    assert cli.main(["rate", "--config", str(bad)]) == 2
    assert cli.main(["rate", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()
    old = tmp_path / "old.cfg"
    old.write_text("batch_size = 8\n")
    assert cli.main(["ser", "--config", str(old)]) == 2
    assert "unknown key 'batch_size'" in capsys.readouterr().err


FLOAT_KEYS = [key for key, (parser, _, _) in cli.CONFIG_KEYS.items()
              if parser in (float, cli._parse_float_list)]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_every_float_key_must_be_finite(key, text):
    with pytest.raises(cli.ConfigError, match=key):
        cli.resolve_config(overrides={key: cli.CONFIG_KEYS[key][0](text)})


@pytest.mark.parametrize("mode, setting", [
    ("asymptotic", "e_u=inf"),
    ("rate", "beta_direct=inf"),
    ("scenario2", "shadow_sigma_db=nan"),
    ("scenario2", "bandwidth_hz=-1"),
    ("scenario2", "interference_horizon=inf"),
    ("scenario2", "cell_radius=nan"),
])
def test_bad_float_values_exit_2_before_any_csv(tmp_path, capsys, mode,
                                                setting):
    # unchecked, these wrote NaN or negative columns or raised a traceback
    out = tmp_path / "o"
    assert cli.main([mode, "--out", str(out), "--set", setting]) == 2
    err = capsys.readouterr().err
    assert setting.partition("=")[0] in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("snr_db", ["4000", "-4000"])
def test_snr_db_beyond_the_float_range_exits_2(tmp_path, capsys, snr_db):
    # 10^400 overflowed with a traceback; 10^-400 became p_u = 0
    out = tmp_path / "o"
    assert cli.main(["ser", "--out", str(out),
                     "--set", f"snr_db_list={snr_db}"]) == 2
    err = capsys.readouterr().err
    assert "snr_db_list" in err and "Traceback" not in err
    assert not out.exists()


def test_snr_db_whose_reciprocal_overflows_exits_2(tmp_path, capsys):
    # -3200 dB is p_u = 1e-320, subnormal: 1/p_u overflowed in the rate
    # integral, which ended in a traceback with exit 1
    out = tmp_path / "o"
    assert cli.main(["rate", "--out", str(out), "--set", "n_list=10",
                     "--set", "snr_db_list=-3200"]) == 2
    err = capsys.readouterr().err
    assert "snr_db_list" in err and "Traceback" not in err
    assert not out.exists()
    assert cli.main(["rate", "--out", str(out), "--set", "n_list=10",
                     "--set", "snr_db_list=-3000"]) in (0, 3)
    assert (out / "rate.csv").exists()


@pytest.mark.parametrize("settings", [
    ["r_inf_list=1100"],
    ["r_inf_list=1000", "beta_direct=1e-300"],
])
def test_r_inf_whose_energy_overflows_exits_2(tmp_path, capsys, settings):
    # 2^1100 overflowed with a traceback in the dof sweep
    out = tmp_path / "o"
    args = ["dof", "--out", str(out)]
    for setting in settings:
        args += ["--set", setting]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert "r_inf_list" in err and "Traceback" not in err
    assert not out.exists()


def test_dof_at_extreme_eta(tmp_path):
    # kappa = 1.13e13: the bisection found no bracket below 1e12 and raised
    out = tmp_path / "o"
    assert cli.main(["dof", "--out", str(out), "--set", "eta_list=0.99999999",
                     "--set", "r_inf_list=20",
                     "--set", "cross_gain_list=0.5"]) == 0
    _, _, rows = read_csv(out / "dof.csv")
    assert 1.13e13 < float(rows[0]["kappa_required"]) < 1.14e13


def test_exit_code_3_on_cancellation_guard(tmp_path):
    out = tmp_path / "o"
    code = cli.main(["rate", "--out", str(out), "--set", "n_list=500",
                     "--set", "snr_db_list=10"])
    assert code == 3
    _, _, rows = read_csv(out / "rate.csv")
    assert rows[0]["cancellation_flagged"] == "1"


def test_figure_unknown_id(tmp_path):
    assert cli.main(["figure", "99", "--out", str(tmp_path)]) == 2


def test_figure_4_reproduces_dof_curves(tmp_path):
    out = tmp_path / "o"
    code = cli.main(["figure", "4", "--out", str(out),
                     "--set", "r_inf_list=1,2,3"])
    assert code == 0
    _, _, rows = read_csv(out / "figure4.csv")
    # kappa monotone in r_inf for each (eta, a) curve
    curves = {}
    for row in rows:
        key = (row["eta"], row["cross_gain"])
        curves.setdefault(key, []).append(
            (float(row["r_inf"]), float(row["kappa_required"])))
    assert len(curves) == 4
    for pts in curves.values():
        ks = [k for _, k in sorted(pts)]
        assert all(b >= a for a, b in zip(ks, ks[1:]))


def test_scenario2_mode_emits_summary_and_samples(tmp_path):
    out = tmp_path / "o"
    code = cli.main(["scenario2", "--out", str(out), "--seed", "5",
                     "--set", "reuse_list=1", "--set", "n_list=20",
                     "--set", "drops=5", "--set", "fading_samples=5"])
    assert code == 0
    _, cols, rows = read_csv(out / "scenario2_summary.csv")
    assert {"likely95_bps", "mean_bps", "samples"} <= set(cols)
    assert int(rows[0]["samples"]) == 5 * 5 * 10
    samples_file = out / "scenario2_samples_r1_n20.csv"
    assert samples_file.exists()
    _, _, sample_rows = read_csv(samples_file)
    assert len(sample_rows) == 250


def test_run_experiment_validates_mode(tmp_path):
    values = cli.resolve_config({"n_list": (12,), "users": 4,
                                 "trials": 200, "out": str(tmp_path)})
    paths = cli.run_experiment("montecarlo", values)
    assert paths and paths[0].endswith("montecarlo.csv")
    with pytest.raises(cli.ConfigError):
        cli.run_experiment("bogus", values)
    with pytest.raises(cli.ConfigError):
        cli.run_experiment("figure", values)  # needs a figure id


def test_figure_emits_simulated_companion(tmp_path):
    out = tmp_path / "o"
    code = cli.main(["figure", "1", "--out", str(out), "--trials", "300",
                     "--set", "snr_db_list=10", "--set", "n_list=10,20"])
    assert code == 0
    assert (out / "figure1.csv").exists()
    _, cols, rows = read_csv(out / "figure1_sim.csv")
    assert "std_error" in cols and len(rows) == 2
    for row in rows:
        est, ref = float(row["estimate"]), float(row["closed_form_reference"])
        assert abs(est - ref) < 6 * float(row["std_error"])


def test_fading_file_key(tmp_path):
    from mumimo.fading import save_fading_text
    fad = symmetric_fading(2, 3, 1.0, 0.2)
    path = tmp_path / "beta.txt"
    save_fading_text(fad, path)
    out = tmp_path / "o"
    code = cli.main(["rate", "--out", str(out),
                     "--set", f"fading_file={path}",
                     "--set", "cells=2", "--set", "users=3",
                     "--set", "n_list=6"])
    assert code == 0
    cfg = SystemConfig(2, 3, 6, 10.0)
    exp = characteristic_coefficients(build_profile(cfg, fad, 0))
    want = rate_exact(cfg, fad, exp, 0, 0).value
    _, _, rows = read_csv(out / "rate.csv")
    assert float(rows[0]["rate_per_user"]) == want
    # figure 3 builds its systems the same way, so it reads the file too
    code = cli.main(["figure", "3", "--out", str(out),
                     "--set", f"fading_file={path}",
                     "--set", "cells=2", "--set", "users=3",
                     "--set", "n_list=6", "--set", "cross_gain_list=0.5"])
    assert code == 0
    _, _, rows = read_csv(out / "figure3.csv")
    assert rows[0]["power_scaling"] == "fixed"
    assert float(rows[0]["rate_per_user"]) == want


@pytest.mark.parametrize("mode, column, metric", [
    ("ser", "ser_exact", lambda cfg, fad, exp: ser_exact(
        cfg, fad, exp, ModulationScheme(4), 0, 0)),
    ("outage", "outage_exact", lambda cfg, fad, exp: outage_exact(
        cfg, fad, exp, 0, 0, 1.0)),
], ids=["ser", "outage"])
def test_fading_file_where_the_expansion_breaks_down(tmp_path, mode, column,
                                                     metric):
    # the SER and the outage read only the gains, so a profile whose
    # partial-fraction weights miss summing to 1 runs silent; the defaults
    # are its L=4, K=10, N=20, 10 dB
    from mumimo.fading import save_fading_text
    cfg, fad, exp = profile_system(4, 10, BREAKDOWN_GAINS, 20, 10.0)
    path = tmp_path / "beta.txt"
    save_fading_text(fad, path)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([mode, "--out", str(out),
                         "--set", f"fading_file={path}"])
    assert code == 0
    _, _, rows = read_csv(out / f"{mode}.csv")
    assert float(rows[0][column]) == metric(cfg, fad, exp)


@pytest.mark.parametrize("argv, mode", [
    (["asymptotic"], "asymptotic"), (["dof"], "dof"),
    (["scenario2"], "scenario2"), (["figure", "4"], "dof"),
    (["figure", "7"], "scenario2"), (["figure", "table1"], "scenario2"),
])
def test_fading_file_rejected_where_unused(tmp_path, capsys, argv, mode):
    from mumimo.fading import save_fading_text
    path = tmp_path / "beta.txt"
    save_fading_text(symmetric_fading(2, 3, 1.0, 0.2), path)
    out = tmp_path / "o"
    code = cli.main(argv + ["--out", str(out), "--set", f"fading_file={path}",
                            "--set", "cells=2", "--set", "users=3"])
    assert code == 2
    assert f"fading_file is not used by mode {mode!r}" in capsys.readouterr().err
    # run_experiment / run_figure raise before any point is computed
    assert not out.exists() or not os.listdir(out)


def readme_schema():
    """mode -> column list, read from README's CSV schema table."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        table = fh.read().split("### CSV schema", 1)[1]
    schema = {}
    for line in table.splitlines():
        match = re.match(r"\| ([\w+-]+) \| `([^`]*)`", line)
        if match:
            schema[match.group(1)] = match.group(2).split(", ")
    return schema


TINY = ["--trials", "50", "--set", "cells=2", "--set", "users=2",
        "--set", "n_list=4", "--set", "snr_db_list=10",
        "--set", "cross_gain_list=0.2", "--set", "gamma_th_list=1",
        "--set", "kappa_list=2", "--set", "eta_list=0.8",
        "--set", "r_inf_list=1", "--set", "reuse_list=1",
        "--set", "drops=2", "--set", "fading_samples=2"]

SAMPLES = "_samples_r1_n4.csv"

# argv -> {file written: mode named in its header}
SCHEMA_CASES = [
    (["rate"], {"rate.csv": "rate"}),
    (["ser"], {"ser.csv": "ser"}),
    (["outage"], {"outage.csv": "outage"}),
    (["asymptotic"], {"asymptotic.csv": "asymptotic"}),
    (["dof"], {"dof.csv": "dof"}),
    (["montecarlo"], {"montecarlo.csv": "montecarlo"}),
    (["scenario2"], {"scenario2_summary.csv": "scenario2",
                     "scenario2" + SAMPLES: "scenario2-samples"}),
    (["figure", "1"], {"figure1.csv": "rate", "figure1_sim.csv": "montecarlo"}),
    (["figure", "2"], {"figure2.csv": "rate", "figure2_sim.csv": "montecarlo"}),
    (["figure", "3"], {"figure3.csv": "rate+powerscaled"}),
    (["figure", "4"], {"figure4.csv": "dof"}),
    (["figure", "5"], {"figure5.csv": "ser", "figure5_sim.csv": "montecarlo"}),
    (["figure", "6"], {"figure6.csv": "ser"}),
    (["figure", "7"], {"figure7_summary.csv": "scenario2",
                       "figure7" + SAMPLES: "scenario2-samples"}),
    (["figure", "table1"], {"table1_summary.csv": "scenario2",
                            "table1" + SAMPLES: "scenario2-samples"}),
]


@pytest.mark.parametrize("argv, files", SCHEMA_CASES,
                         ids=["-".join(argv) for argv, _ in SCHEMA_CASES])
def test_every_mode_and_figure_writes_the_documented_schema(tmp_path, argv,
                                                            files):
    out = tmp_path / "o"
    assert cli.main(argv + TINY + ["--out", str(out)]) in (0, 3)
    assert sorted(os.listdir(out)) == sorted(files)
    schema = readme_schema()
    for name, mode in files.items():
        header, cols, rows = read_csv(out / name)
        assert header["mode"] == mode
        assert cols == schema[mode]
        assert rows
