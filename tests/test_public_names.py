"""The public names of `mumimo`: what the calculator runs, or what a named
user needs (README, "Public API")."""

import importlib
import types
from pathlib import Path

import mumimo

SRC = Path(__file__).resolve().parents[1] / "src" / "mumimo"

PUBLIC = {
    # fading
    "CharacteristicExpansion", "LargeScaleFading", "SystemConfig",
    "build_profile", "characteristic_coefficients", "load_fading_text",
    "save_fading_text", "symmetric_fading",
    # sinrdist
    "SinrModel", "make_sinr_model", "mgf_sinr", "mgf_sinr_high_snr",
    "sample_sinr", "sinr_cdf_quadrature",
    # closedform
    "ModulationScheme", "QualityLog", "RateResult", "cell_sum_rate",
    "log_outage_exact", "outage_exact", "outage_small_threshold",
    "rate_by_quadrature", "rate_exact", "rate_lower_bound", "ser_approx",
    "ser_exact", "ser_high_snr",
    # asymptotic
    "deterministic_sir", "kappa_to_antennas", "power_scaled_fixed_ratio_rate",
    "power_scaled_fixed_ratio_sinr", "power_scaled_limit_rate",
    "required_kappa",
    # montecarlo
    "ChannelRealization", "Estimate", "RankDeficiencyError", "TrialPlan",
    "estimate_outage", "estimate_rate", "estimate_ser", "sample_channels",
    "sinr_trials", "trial_rng", "zf_sinr",
    # cellnet
    "NetworkScenario", "OfdmParams", "RateDistribution", "UserDrop",
    "build_hex_grid", "drop_users", "net_rate_samples", "rate_distribution",
}


def test_package_exports_exactly_the_public_names():
    # the Erlang pdf/CDF, the KS helpers, the desired-power type and the
    # quadrature's spec and error are not among them
    names = {name for name, value in vars(mumimo).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


def test_every_all_entry_is_defined():
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "mumimo" if path.stem == "__init__" else f"mumimo.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{entry}" for entry in getattr(module, "__all__",
                                                           ())
                    if not hasattr(module, entry)]
    assert not missing
