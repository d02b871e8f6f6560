"""Command-line front end: experiment orchestration and CSV emission.

Every experiment is a (mode, flat key-value config) pair.  Configs come
from defaults, then an optional config file, then command-line overrides
(flags win).  Sweep points run in order; the Monte Carlo oracle threads
its own trials.  All randomness derives from the single `seed` key, and
reductions are merge-only, so a run is byte-identical on any machine.
`threads` is accepted and checked but has no effect.  dB-to-linear
conversion happens exactly once, at this boundary: APIs are linear-only.

Exit codes: 0 success, 2 configuration error, 3 numerical-quality flag
(a cancellation guard tripped somewhere; results fell back to quadrature).
"""

import argparse
import os
import sys
from functools import partial
from math import inf, isfinite

import numpy as np

from . import asymptotic, cellnet, closedform, montecarlo
from .closedform import ModulationScheme, QualityLog
from .fading import (build_profile, characteristic_coefficients,
                     load_fading_text, symmetric_fading, CharacteristicExpansion)
from .fading import SystemConfig

__all__ = ["main", "run_experiment", "run_figure", "parse_config_text",
           "serialize_config", "resolve_config", "ConfigError"]

MODES = ("rate", "ser", "outage", "asymptotic", "dof", "montecarlo",
         "scenario2", "figure")


class ConfigError(ValueError):
    """Raised with an exhaustive, newline-separated list of problems."""


def _parse_int(text):
    return int(text, 0)


def _parse_float_list(text):
    return tuple(float(v) for v in str(text).split(",") if v.strip() != "")


def _parse_int_list(text):
    return tuple(int(v) for v in str(text).split(",") if v.strip() != "")


# key -> (parser, default, help)
CONFIG_KEYS = {
    "seed": (_parse_int, 0, "base seed for all randomness"),
    "out": (str, "out", "output directory"),
    "threads": (_parse_int, 1, "accepted for compatibility; no effect"),
    "trials": (_parse_int, 10000, "Monte Carlo trials per point"),
    "cells": (_parse_int, 4, "number of cells L"),
    "users": (_parse_int, 10, "users per cell K"),
    "n_list": (_parse_int_list, (20,), "antenna counts to sweep"),
    "snr_db_list": (_parse_float_list, (10.0,), "transmit SNRs in dB"),
    "cross_gain_list": (_parse_float_list, (0.1,), "cross gains a"),
    "beta_direct": (float, 1.0, "direct-link large-scale gain"),
    "fading_file": (str, "", "optional fading tensor file "
                             "(overrides symmetric gains)"),
    "user_index": (_parse_int, 0, "tagged user index"),
    "cell_index": (_parse_int, 0, "home cell index"),
    "psk_order": (_parse_int, 4, "M for M-PSK"),
    "gamma_th_list": (_parse_float_list, (1.0,), "outage SINR thresholds"),
    "kappa_list": (_parse_float_list, (2.0, 5.0, 10.0), "antenna/user ratios"),
    "e_u": (float, 10.0, "fixed energy E_u for p_u = E_u/N limits"),
    "eta_list": (_parse_float_list, (0.8, 0.9), "target fractions of the "
                                                "ultimate rate"),
    "r_inf_list": (_parse_float_list, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                   "ultimate rates for the DoF antenna ratio"),
    "mc_metric": (str, "rate", "montecarlo mode: rate|ser|outage"),
    "ser_mode": (str, "semi_analytic", "semi_analytic|symbol"),
    "reuse_list": (_parse_int_list, (1, 3, 7), "frequency reuse factors"),
    "drops": (_parse_int, 200, "geometry drops for scenario2"),
    "fading_samples": (_parse_int, 100, "fading draws per drop"),
    "cell_radius": (float, 1000.0, "hexagon center-to-vertex, m"),
    "exclusion_radius": (float, 100.0, "min user-BS distance, m"),
    "interference_horizon": (float, 8000.0, "horizon, m"),
    "path_loss_exponent": (float, 3.8, "path loss exponent"),
    "shadow_sigma_db": (float, 8.0, "shadowing std, dB"),
    "bandwidth_hz": (float, 20e6, "total bandwidth, Hz"),
    "symbol_duration_s": (float, 71.4e-6, "OFDM symbol duration"),
    "useful_duration_s": (float, 66.7e-6, "OFDM useful duration"),
    "emit_samples": (_parse_int, 1, "scenario2: also write per-sample rates"),
}


def _parse_entries(entries):
    """Parse (where, 'key = value') pairs into typed values.  All problems
    are reported together."""
    values = {}
    errors = []
    unknown = False
    for where, line in entries:
        if "=" not in line:
            errors.append(f"{where}: expected 'key = value', got {line!r}")
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            errors.append(f"{where}: unknown key {key!r}")
            unknown = True
            continue
        parser = CONFIG_KEYS[key][0]
        try:
            values[key] = parser(val)
        except ValueError:
            errors.append(f"{where}: bad value for {key}: {val!r}")
    if unknown:
        errors.append("valid keys: " + ", ".join(sorted(CONFIG_KEYS)))
    if errors:
        raise ConfigError("\n".join(errors))
    return values


def parse_config_text(text, source="<config>"):
    """Parse 'key = value' lines; '#' starts a comment.  All problems are
    reported together."""
    lines = ((f"{source}:{lineno}", raw.split("#", 1)[0].strip())
             for lineno, raw in enumerate(text.splitlines(), 1))
    return _parse_entries((where, line) for where, line in lines if line)


def serialize_config(cfg):
    """Canonical text form; parse_config_text round-trips it exactly."""
    lines = []
    for key in sorted(cfg):
        val = cfg[key]
        if isinstance(val, tuple):
            val = ",".join(repr(v) for v in val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


# key -> open interval that each of its values must lie in
_OPEN_RANGES = {"threads": (0, inf), "trials": (0, inf), "users": (0, inf),
                "cells": (0, inf), "drops": (0, inf),
                "fading_samples": (0, inf), "psk_order": (1, inf),
                "beta_direct": (0, inf), "e_u": (0, inf),
                "bandwidth_hz": (0, inf), "path_loss_exponent": (2, inf),
                "cross_gain_list": (0, inf), "kappa_list": (1, inf),
                "eta_list": (0, 1), "r_inf_list": (0, inf)}


def resolve_config(file_values=None, overrides=None):
    merged = {k: spec[1] for k, spec in CONFIG_KEYS.items()}
    merged.update(file_values or {})
    merged.update(overrides or {})
    errors = []
    for key, bound in (("user_index", "users"), ("cell_index", "cells")):
        if not 0 <= merged[key] < merged[bound]:
            errors.append(f"{key} must lie in [0, {bound}), "
                          f"got {merged[key]}")
    for key, (parser, _, _) in CONFIG_KEYS.items():
        value = merged[key]
        if parser in (_parse_int_list, _parse_float_list) and not value:
            errors.append(f"{key} must not be empty")
        elif (parser in (float, _parse_float_list)
              and not np.isfinite(value).all()):
            errors.append(f"{key} must be finite, got {value}")
    for key, (low, high) in _OPEN_RANGES.items():
        value = merged[key]
        for v in value if isinstance(value, tuple) else (value,):
            if not low < v < high:
                errors.append(f"{key} must lie in ({low}, {high}), got {v}")
    for v in merged["snr_db_list"]:
        p_u = _db_to_linear(v)
        if isfinite(v) and not (0 < p_u < inf and 1.0 / p_u < inf):
            errors.append(f"snr_db_list value {v} dB must give a finite, "
                          f"positive linear SNR with a finite reciprocal")
    beta_direct = merged["beta_direct"]
    if 0 < beta_direct < inf:
        for r in merged["r_inf_list"]:
            if isfinite(r) and not _dof_energy(r, beta_direct) < inf:
                errors.append(f"r_inf_list value {r} must give a finite "
                              f"E_u = (2^r - 1)/beta_direct")
    if not (0 < merged["exclusion_radius"] < merged["cell_radius"]
            < merged["interference_horizon"]):
        errors.append("need 0 < exclusion_radius < cell_radius < "
                      "interference_horizon")
    if not merged["shadow_sigma_db"] >= 0:
        errors.append("shadow_sigma_db must be >= 0")
    if not 0 < merged["useful_duration_s"] <= merged["symbol_duration_s"]:
        errors.append("need 0 < useful_duration_s <= symbol_duration_s")
    for n in merged["n_list"]:
        if n < merged["users"]:
            errors.append(f"antennas {n} below users {merged['users']} "
                          f"(zero-forcing needs N >= K)")
    for r in merged["reuse_list"]:
        if r not in (1, 3, 7):
            errors.append(f"reuse factor must be 1, 3, or 7, got {r}")
    if merged["mc_metric"] not in ("rate", "ser", "outage"):
        errors.append(f"mc_metric must be rate|ser|outage, "
                      f"got {merged['mc_metric']!r}")
    if merged["ser_mode"] not in ("semi_analytic", "symbol"):
        errors.append(f"ser_mode must be semi_analytic|symbol, "
                      f"got {merged['ser_mode']!r}")
    if merged["fading_file"]:
        try:
            fad = load_fading_text(merged["fading_file"])
        except (OSError, ValueError) as exc:
            errors.append(f"bad fading_file: {exc}")
        else:
            shape = (fad.num_cells, fad.users_per_cell)
            if shape != (merged["cells"], merged["users"]):
                errors.append(f"fading_file has L, K = {shape[0]}, {shape[1]}"
                              f" but cells, users = {merged['cells']}, "
                              f"{merged['users']}")
    if errors:
        raise ConfigError("\n".join(errors))
    return merged


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _format_column(values):
    """Text of one CSV column; floats get 17 significant digits.  A float
    array is formatted in one pass over its Python floats."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return map("{:.17g}".format, values.tolist())
    return map(_fmt, values)


# keys that do not affect results; kept out of CSV headers so re-runs with
# a different `threads` or output path stay byte-identical
_NON_RESULT_KEYS = ("threads", "out")


def _write_csv(path, cfg, mode, names, columns):
    """Write `columns` (equal-length sequences, one per name in `names`)
    under the `#` header of the resolved config."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    header_cfg = {k: v for k, v in cfg.items() if k not in _NON_RESULT_KEYS}
    body = "\n".join(map(",".join, zip(*map(_format_column, columns))))
    with open(path, "w", newline="") as fh:
        fh.write(f"# mode = {mode}\n")
        for line in serialize_config(header_cfg).splitlines():
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        if body:
            fh.write(body + "\n")
    return path


def _db_to_linear(snr_db):
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return inf


def _dof_energy(r_inf, beta):
    """E_u = (2^r_inf - 1)/beta, whose ultimate rate is r_inf; inf where
    2^r_inf leaves the float range."""
    try:
        return (2.0 ** r_inf - 1.0) / beta
    except OverflowError:
        return inf


def _symmetric(cfg, a):
    return symmetric_fading(cfg["cells"], cfg["users"], cfg["beta_direct"], a)


def _system(cfg, n, a, p_u):
    """Build (SystemConfig, fading, expansion) for one sweep point; `p_u`
    is the linear transmit SNR."""
    sc = SystemConfig(cfg["cells"], cfg["users"], n, p_u)
    if cfg["fading_file"]:
        fad = load_fading_text(cfg["fading_file"])
    else:
        fad = _symmetric(cfg, a)
    profile = build_profile(sc, fad, cfg["cell_index"])
    expansion = (CharacteristicExpansion.empty() if profile.is_empty
                 else characteristic_coefficients(profile))
    return sc, fad, expansion


def _point_seed(base_seed, index):
    """Per-sweep-point seed: stable under threading and reordering."""
    return (int(base_seed) * 1_000_003 + index) % (1 << 63)


# ---------------------------------------------------------------------------
# per-point functions: (cfg, quality, index, point) -> list of CSV rows;
# `index` is the point's position in the grid and seeds its randomness
# ---------------------------------------------------------------------------

def _rate_point(cfg, quality, index, point):
    snr_db, n, a = point
    sc, fad, expansion = _system(cfg, n, a, _db_to_linear(snr_db))
    k, l = cfg["user_index"], cfg["cell_index"]
    exact = closedform.rate_exact(sc, fad, expansion, k, l, quality=quality)
    bound = closedform.rate_lower_bound(sc, fad, expansion, k, l)
    return [(snr_db, n, a, exact.value, sc.users_per_cell * exact.value,
             bound.value, exact.method, int(exact.cancellation_flagged))]


def _ser_point(cfg, quality, index, point):
    snr_db, n, a = point
    sc, fad, expansion = _system(cfg, n, a, _db_to_linear(snr_db))
    k, l = cfg["user_index"], cfg["cell_index"]
    modulation = ModulationScheme(cfg["psk_order"])
    exact = closedform.ser_exact(sc, fad, expansion, modulation, k, l)
    approx = closedform.ser_approx(sc, fad, expansion, modulation, k, l)
    floor = closedform.ser_high_snr(sc, fad, expansion, modulation, k, l)
    return [(snr_db, n, a, cfg["psk_order"], exact, approx, floor)]


def _outage_point(cfg, quality, index, point):
    snr_db, n, a, gth = point
    sc, fad, expansion = _system(cfg, n, a, _db_to_linear(snr_db))
    k, l = cfg["user_index"], cfg["cell_index"]
    exact = closedform.outage_exact(sc, fad, expansion, k, l, gth)
    asym = closedform.outage_small_threshold(sc, fad, expansion, k, l, gth)
    return [(snr_db, n, a, gth, exact, asym)]


def _asymptotic_point(cfg, quality, index, point):
    a, kappa = point
    fad = _symmetric(cfg, a)
    k, l, e_u = cfg["user_index"], cfg["cell_index"], cfg["e_u"]
    sir = asymptotic.deterministic_sir(fad, l, k, kappa)
    sinr = asymptotic.power_scaled_fixed_ratio_sinr(fad, l, k, e_u, kappa)
    rate = asymptotic.power_scaled_fixed_ratio_rate(fad, l, k, e_u, kappa)
    ult = asymptotic.power_scaled_limit_rate(fad, l, k, e_u)
    return [(a, kappa, e_u, sir, sinr, rate, ult)]


def _dof_point(cfg, quality, index, point):
    eta, a, r_inf = point
    fad = _symmetric(cfg, a)
    k, l = cfg["user_index"], cfg["cell_index"]
    e_u = _dof_energy(r_inf, fad.direct_gain(l, k))
    kappa = asymptotic.required_kappa(fad, l, k, e_u, eta)
    return [(eta, a, r_inf, e_u, kappa,
             asymptotic.kappa_to_antennas(kappa, cfg["users"]))]


def _montecarlo_point(cfg, quality, index, point):
    snr_db, n, a = point
    sc, fad, expansion = _system(cfg, n, a, _db_to_linear(snr_db))
    k, l, metric = cfg["user_index"], cfg["cell_index"], cfg["mc_metric"]
    plan = montecarlo.TrialPlan(cfg["trials"],
                                base_seed=_point_seed(cfg["seed"], index))
    if metric == "rate":
        est = montecarlo.estimate_rate(sc, fad, plan, home_cell=l, user=k)
        ref = closedform.rate_exact(sc, fad, expansion, k, l,
                                    quality=quality).value
    elif metric == "ser":
        modulation = ModulationScheme(cfg["psk_order"])
        est = montecarlo.estimate_ser(sc, fad, modulation, plan,
                                      home_cell=l, mode=cfg["ser_mode"],
                                      user=k)
        ref = closedform.ser_exact(sc, fad, expansion, modulation, k, l)
    else:
        gth = cfg["gamma_th_list"][0]
        est = montecarlo.estimate_outage(sc, fad, plan, gth, home_cell=l,
                                         user=k)
        ref = closedform.outage_exact(sc, fad, expansion, k, l, gth)
    return [(snr_db, n, a, metric, est.value, est.std_error, est.num_trials,
             ref)]


def _powerscaled_point(cfg, quality, index, point):
    """Fig.-3 style: rate at fixed p_u = E_u and at p_u = E_u/N."""
    n, a = point
    e_u = _db_to_linear(cfg["snr_db_list"][0])
    rows = []
    for scaling, p_u in (("fixed", e_u), ("one_over_n", e_u / n)):
        sc, fad, expansion = _system(cfg, n, a, p_u)
        res = closedform.rate_exact(sc, fad, expansion, cfg["user_index"],
                                    cfg["cell_index"], quality=quality)
        rows.append((n, a, scaling, p_u, res.value,
                     sc.users_per_cell * res.value, res.method))
    return rows


def _scenario2_point(cfg, quality, index, point):
    """One network rate distribution; its samples ride as the last field."""
    reuse, n = point
    snr_db = cfg["snr_db_list"][0]
    scenario = cellnet.NetworkScenario(
        cell_radius=cfg["cell_radius"],
        exclusion_radius=cfg["exclusion_radius"],
        interference_horizon=cfg["interference_horizon"],
        path_loss_exponent=cfg["path_loss_exponent"],
        shadow_sigma_db=cfg["shadow_sigma_db"],
        reuse_factor=reuse,
        users_per_cell=cfg["users"],
        antennas=n,
        transmit_snr=_db_to_linear(snr_db))
    ofdm = cellnet.OfdmParams(cfg["symbol_duration_s"],
                              cfg["useful_duration_s"], cfg["bandwidth_hz"])
    rng = np.random.default_rng(_point_seed(cfg["seed"], index))
    dist = cellnet.rate_distribution(scenario, ofdm, cfg["drops"],
                                     cfg["fading_samples"], rng)
    return [(reuse, n, snr_db, dist.likely_95, dist.mean,
             dist.percentile(50.0), dist.samples.size, dist.samples)]


_LINK_AXES = ("snr_db_list", "n_list", "cross_gain_list")

# mode -> (grid axes, CSV columns, per-point function)
_SWEEPS = {
    "rate": (_LINK_AXES, ("snr_db", "n", "cross_gain", "rate_per_user",
                          "sum_rate", "rate_lower_bound", "method",
                          "cancellation_flagged"), _rate_point),
    "ser": (_LINK_AXES, ("snr_db", "n", "cross_gain", "psk_order",
                         "ser_exact", "ser_approx", "ser_high_snr_floor"),
            _ser_point),
    "outage": (_LINK_AXES + ("gamma_th_list",),
               ("snr_db", "n", "cross_gain", "gamma_th", "outage_exact",
                "outage_small_threshold"), _outage_point),
    "asymptotic": (("cross_gain_list", "kappa_list"),
                   ("cross_gain", "kappa", "e_u", "deterministic_sir",
                    "power_scaled_sinr", "power_scaled_rate",
                    "ultimate_rate"), _asymptotic_point),
    "dof": (("eta_list", "cross_gain_list", "r_inf_list"),
            ("eta", "cross_gain", "r_inf", "e_u", "kappa_required",
             "antennas_required"), _dof_point),
    "montecarlo": (_LINK_AXES, ("snr_db", "n", "cross_gain", "metric",
                                "estimate", "std_error", "trials",
                                "closed_form_reference"), _montecarlo_point),
    "rate+powerscaled": (("n_list", "cross_gain_list"),
                         ("n", "cross_gain", "power_scaling", "p_u",
                          "rate_per_user", "sum_rate", "method"),
                         _powerscaled_point),
    "scenario2": (("reuse_list", "n_list"),
                  ("reuse", "n", "snr_db", "likely95_bps", "mean_bps",
                   "median_bps", "samples"), _scenario2_point),
}


# modes whose gains come from `cross_gain_list` or a drawn network, never
# from a fading file
_NO_FADING_FILE = ("asymptotic", "dof", "scenario2")


def _grid(cfg, axes):
    out = [()]
    for axis in axes:
        out = [row + (v,) for row in out for v in cfg[axis]]
    return out


def _sweep(mode, cfg, quality, stem):
    """Run `mode` over its grid and write `<out>/<stem>.csv`; returns the
    paths written.  Scenario 2 writes `<stem>_summary.csv` instead, plus
    one per-sample file per point when `emit_samples` is set."""
    if cfg["fading_file"] and mode in _NO_FADING_FILE:
        raise ConfigError(f"fading_file is not used by mode {mode!r} "
                          f"(output {stem}); unset it for this mode")
    axes, columns, point_fn = _SWEEPS[mode]
    points = _grid(cfg, axes)
    chunks = map(partial(point_fn, cfg, quality), range(len(points)), points)
    rows = [row for chunk in chunks for row in chunk]
    out_dir = cfg["out"]
    extra = []
    if mode == "scenario2":
        if cfg["emit_samples"]:
            for reuse, n, *_, samples in rows:
                path = os.path.join(out_dir,
                                    f"{stem}_samples_r{reuse}_n{n}.csv")
                extra.append(_write_csv(path, cfg, "scenario2-samples",
                                        ("net_rate_bps",), [samples]))
        rows = [row[:-1] for row in rows]
        stem += "_summary"
    path = _write_csv(os.path.join(out_dir, f"{stem}.csv"), cfg, mode,
                      columns, list(zip(*rows)))
    return [path] + extra


# figure presets: (mode, overrides, simulated-companion metric or None);
# figures whose captions include simulated curves get a second CSV with
# Monte Carlo estimates at a desk-scale default trial count
FIGURE_PRESETS = {
    "1": ("rate", {"snr_db_list": tuple(float(v) for v in range(-10, 32, 4)),
                   "n_list": (10, 20, 40, 60, 80, 100),
                   "cross_gain_list": (0.1,), "trials": 2000}, "rate"),
    "2": ("rate", {"snr_db_list": (10.0,),
                   "n_list": (10, 50, 100),
                   "cross_gain_list": tuple(round(0.05 * i, 2)
                                            for i in range(1, 21)),
                   "trials": 2000}, "rate"),
    "3": ("rate+powerscaled", {"n_list": (10, 20, 50, 100, 200, 500),
                               "cross_gain_list": (0.1, 0.3, 0.5)}, None),
    "4": ("dof", {"eta_list": (0.8, 0.9), "cross_gain_list": (0.1, 0.5),
                  "r_inf_list": tuple(0.5 * i for i in range(1, 13))}, None),
    "5": ("ser", {"snr_db_list": tuple(float(v) for v in range(0, 42, 2)),
                  "n_list": (15, 20), "cross_gain_list": (0.1,),
                  "trials": 2000}, "ser"),
    "6": ("ser", {"snr_db_list": (10.0,),
                  "n_list": tuple(range(10, 101, 10)),
                  "cross_gain_list": (0.1, 0.2, 0.3, 0.4)}, None),
    "7": ("scenario2", {"reuse_list": (1, 3, 7), "n_list": (20, 100)},
          None),
    "table1": ("scenario2", {"reuse_list": (1, 3, 7), "n_list": (20, 100)},
               None),
}


def run_experiment(mode, cfg=None, quality=None):
    """Run one experiment; returns the list of CSV paths written.

    `cfg` is a resolved config (defaults when None); the CSV is named after
    the mode.  Figures go through run_figure, which needs a figure id.
    """
    if mode not in _SWEEPS:
        hint = "; use run_figure with a figure id" if mode == "figure" else ""
        raise ConfigError(f"unknown mode {mode!r}{hint}; valid: "
                          + ", ".join(_SWEEPS))
    cfg = cfg if cfg is not None else resolve_config()
    quality = quality if quality is not None else QualityLog()
    return _sweep(mode, cfg, quality, mode)


def run_figure(figure_id, cfg, quality=None, explicit=None):
    """Reproduce one of the bundled reference figures (or the rate table).

    Presets fill the figure's grids; keys the caller set explicitly
    (`explicit`) still win over the preset.  The merged config is checked
    again, so a preset grid that clashes with the caller's keys raises
    ConfigError.
    """
    fid = str(figure_id)
    if fid not in FIGURE_PRESETS:
        raise ConfigError(f"unknown figure id {figure_id!r}; valid: "
                          + ", ".join(sorted(FIGURE_PRESETS)))
    mode, preset, sim_metric = FIGURE_PRESETS[fid]
    merged = resolve_config(cfg, {**preset, **(explicit or {})})
    quality = quality if quality is not None else QualityLog()
    stem = f"figure{fid}" if fid != "table1" else "table1"
    paths = _sweep(mode, merged, quality, stem)
    if sim_metric is not None:
        paths += _sweep("montecarlo", dict(merged, mc_metric=sim_metric),
                        quality, f"{stem}_sim")
    return paths


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mumimo",
        description="Closed-form and Monte Carlo uplink analysis of "
                    "multicell MU-MIMO with zero-forcing receivers.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--seed", type=_parse_int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; no effect")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override any config key (repeatable)")
        if mode == "figure":
            p.add_argument("figure_id",
                           help="1..7 or table1")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    quality = QualityLog()
    try:
        file_values = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}")
            file_values = parse_config_text(text, source=args.config)
        overrides = _parse_entries(("--set", token) for token in args.set)
        for flag in ("seed", "out", "trials", "threads"):
            value = getattr(args, flag)
            if value is not None:
                overrides[flag] = value
        cfg = resolve_config(file_values, overrides)
        if args.mode == "figure":
            paths = run_figure(args.figure_id, cfg, quality,
                               explicit=overrides)
        else:
            paths = run_experiment(args.mode, cfg, quality)
    except ConfigError as exc:
        print(f"configuration error(s):\n{exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(f"wrote {path}")
    if quality.tripped:
        print(f"numerical-quality flag: {len(quality.events)} cancellation "
              f"guard event(s); affected values used quadrature",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
