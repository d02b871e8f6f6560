import os
import re

import numpy as np
import pytest

from mumimo import cli
from mumimo.closedform import rate_exact
from mumimo.fading import (SystemConfig, build_profile,
                           characteristic_coefficients, symmetric_fading)


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
                            "psk_order": 1, "batch_size": 0, "drops": 0,
                            "fading_samples": 0, "user_index": -1,
                            "cell_index": 4, "beta_direct": 0.0,
                            "e_u": -1.0, "kappa_list": (2.0, 1.0),
                            "eta_list": (0.5, 1.0), "r_inf_list": (0.0,),
                            "fading_file": str(beta)})
    text = str(err.value)
    assert "zero-forcing" in text and "mc_metric" in text and "reuse" in text
    for word in ("psk_order", "batch_size", "drops", "fading_samples",
                 "user_index", "cell_index", "beta_direct", "e_u", "kappa",
                 "eta", "ultimate rate", "fading_file has L, K = 2, 3"):
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


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    assert cli.main(["rate", "--set", "bogus=1", "--set", "users=x"]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "users: 'x'" in err and "valid keys" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_list = 5\nusers = 10\n")
    assert cli.main(["rate", "--config", str(bad)]) == 2
    assert cli.main(["rate", "--config", str(tmp_path / "missing.cfg")]) == 2


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
