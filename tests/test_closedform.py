import itertools
import math
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mumimo import closedform as cf
from mumimo import sinrdist as sd
from mumimo import quadrature, specfun
from mumimo.fading import (CharacteristicExpansion, LargeScaleFading,
                           SystemConfig, build_profile, symmetric_fading)
from mumimo.quadrature import (QuadratureSpec, integrate,
                               integrate_semi_infinite)
from oracles import pdf_x
from test_fading import weight_terms
from test_sinrdist import mgf_closed, pdf_z


def scenario1(n, a, p_u=10.0, cells=4, k=10):
    cfg = SystemConfig(cells, k, n, p_u)
    fad = symmetric_fading(cells, k, 1.0, a)
    exp = build_profile(cfg, fad, 0)
    return cfg, fad, exp


def profile_system(cells, k, cross, n, p_u):
    """Direct gains 1; every base station sees the cross gains `cross`
    from the other cells in order, K per interfering cell."""
    chunks = np.reshape(cross, (cells - 1, k))
    beta = np.ones((cells, cells, k))
    for l in range(cells):
        others = iter(chunks)
        for i in range(cells):
            if i != l:
                beta[l, i] = next(others)
    cfg = SystemConfig(cells, k, n, p_u)
    fad = LargeScaleFading(beta)
    exp = build_profile(cfg, fad, 0)
    return cfg, fad, exp


def distinct_profile(n, p_u):
    """L=3, K=4 with the 8 cross gains geometric in [0.05, 0.5]."""
    return profile_system(3, 4, 0.05 * 10 ** (np.arange(8) / 7), n, p_u)


BREAKDOWN_GAINS = 0.05 * 4 ** (np.arange(30) / 29)  # geometric [0.05, 0.2]


def random_distinct_system(rng, cells=3, k=3, n_extra=6):
    """Random all-distinct-eigenvalue system with cross gains below the
    direct gain (the closed forms' domain)."""
    beta = np.ones((cells, cells, k))
    for l in range(cells):
        for i in range(cells):
            if i != l:
                beta[l, i, :] = 10 ** rng.uniform(-2.2, -0.4, size=k)
    n = k + int(rng.integers(1, n_extra))
    p_u = float(10 ** rng.uniform(-0.5, 1.5))
    cfg = SystemConfig(cells, k, n, p_u)
    fad = LargeScaleFading(beta)
    exp = build_profile(cfg, fad, 0)
    return cfg, fad, exp


def rate_2d_quadrature(cfg, fad, user, cell, rtol=1e-8):
    """Nested 2-D quadrature of E log2(1 + p_u x / (p_u z + 1)) against
    pdf_x pdf_z: the defining integral, fully numeric on both axes."""
    model = sd.make_sinr_model(cfg, fad, user, cell)
    p_u = cfg.transmit_snr
    x_scale = model.shape * model.scale
    inner_spec = QuadratureSpec(relative_tolerance=rtol / 10,
                                absolute_tolerance=1e-14)
    outer_spec = QuadratureSpec(relative_tolerance=rtol,
                                absolute_tolerance=1e-13)

    def inner(z):
        denom = p_u * z + 1.0
        return integrate_semi_infinite(
            lambda x: math.log1p(p_u * x / denom)
            * pdf_x(model, x), 0.0, inner_spec, scale=x_scale)

    if model.interference.is_empty:
        return inner(0.0) / math.log(2.0)
    z_scale = max(float(model.interference.rates().sum()), 0.1)
    val = integrate_semi_infinite(
        lambda z: inner(z) * pdf_z(model.interference, z), 0.0,
        outer_spec, scale=z_scale)
    return val / math.log(2.0)


# ---------------------------------------------------------------------------
# ergodic rate
# ---------------------------------------------------------------------------

def test_scenario1_reference_sum_rate_small_n():
    cfg, fad, exp = scenario1(10, 0.1)
    res = cf.rate_exact(cfg, fad, exp, 0, 0)
    assert res.method == "exact_general"
    np.testing.assert_allclose(10 * res.value, 3.76, rtol=0.01)


def test_rate_exact_matches_2d_quadrature_scenario1():
    cfg, fad, exp = scenario1(20, 0.1)
    res = cf.rate_exact(cfg, fad, exp, 0, 0)
    np.testing.assert_allclose(res.value, rate_2d_quadrature(cfg, fad, 0, 0),
                               rtol=1e-6)


def test_rate_exact_matches_2d_quadrature_random_configs():
    # 20 random configurations; both eigenvalue-multiplicity regimes
    rng = np.random.default_rng(2718)
    for trial in range(20):
        if trial % 2 == 0:
            cfg, fad, exp = random_distinct_system(rng)
        else:
            n = 10 + int(rng.integers(0, 10))
            a = float(10 ** rng.uniform(-1.5, -0.5))
            p_u = float(10 ** rng.uniform(-0.5, 1.5))
            cfg, fad, exp = scenario1(n, a, p_u=p_u)
        res = cf.rate_exact(cfg, fad, exp, 0, 0)
        ref = rate_2d_quadrature(cfg, fad, 0, 0)
        np.testing.assert_allclose(res.value, ref, rtol=1e-6)


def test_rate_no_interference_matches_quadrature():
    cfg = SystemConfig(1, 10, 20, 10.0)
    fad = symmetric_fading(1, 10)
    exp = CharacteristicExpansion.empty()
    res = cf.rate_exact(cfg, fad, exp, 0, 0)
    np.testing.assert_allclose(res.value, rate_2d_quadrature(cfg, fad, 0, 0),
                               rtol=1e-8)


def test_rate_guard_trips_at_large_n():
    cfg, fad, exp = scenario1(500, 0.1)
    quality = cf.QualityLog()
    res = cf.rate_exact(cfg, fad, exp, 0, 0, quality=quality)
    assert res.method == "quadrature_fallback"
    assert res.cancellation_flagged and quality.tripped
    # the fallback still reproduces the reference sum rate
    np.testing.assert_allclose(10 * res.value, 73.20, rtol=0.01)


def test_rate_fallback_finds_a_narrow_interference_density():
    # cross gain 1e-6: the interference mean is 3e-5, far below 1, and the
    # fallback must still resolve it; the rate lies between the Jensen bound
    # and the interference-free rate
    cfg, fad, exp = scenario1(20, 1e-6)
    res = cf.rate_exact(cfg, fad, exp, 0, 0)
    assert res.method == "quadrature_fallback"
    bound = cf.rate_lower_bound(cfg, fad, exp, 0, 0).value
    free = cf._rate_no_interference(cfg, 1.0)
    assert bound < res.value < free
    np.testing.assert_allclose(res.value, 6.7287, rtol=1e-4)


def test_rate_high_snr_saturation():
    # Remark-1: rate saturates as p_u grows when interference is present
    r4 = cf.rate_exact(*scenario1(20, 0.1, p_u=1e4), 0, 0).value
    r5 = cf.rate_exact(*scenario1(20, 0.1, p_u=1e5), 0, 0).value
    assert r5 - r4 < 0.01


def test_bound_below_exact_and_tight_for_many_antennas():
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = 10 + int(rng.integers(0, 40))
        a = float(10 ** rng.uniform(-1.5, -0.5))
        p_u = float(10 ** rng.uniform(-0.5, 1.5))
        cfg, fad, exp = scenario1(n, a, p_u=p_u)
        exact = cf.rate_exact(cfg, fad, exp, 0, 0).value
        bound = cf.rate_lower_bound(cfg, fad, exp, 0, 0).value
        assert bound <= exact
    cfg, fad, exp = scenario1(100, 0.1)
    exact = cf.rate_exact(cfg, fad, exp, 0, 0).value
    bound = cf.rate_lower_bound(cfg, fad, exp, 0, 0).value
    assert (exact - bound) / exact < 0.01


def test_bound_remark3_limit():
    # p_u = E_u/N with N >> K and no interference: bound -> log2(1 + E_u)
    cfg = SystemConfig(1, 10, 500, 10.0 / 500)
    fad = symmetric_fading(1, 10)
    bound = cf.rate_lower_bound(cfg, fad, CharacteristicExpansion.empty(),
                                0, 0).value
    np.testing.assert_allclose(bound, math.log2(11.0), rtol=0.01)


def bound_mpmath(mp, cfg, fad, p_u):
    """The Jensen bound at 30 digits, with E ln(1 + p_u Z) the integral
    over u = ln s of (1 - prod_m (1 + mu_m s)^-tau_m) e^{-s / p_u}."""
    profile = build_profile(cfg, fad, 0)
    with mp.workdps(30):
        mus = [mp.mpf(float(m)) for m in profile.mu]
        taus = [int(t) for t in profile.tau]
        t0 = 1 / mp.mpf(p_u)

        def f(u):
            s = mp.exp(u)
            log_mgf = mp.fsum(k * mp.log1p(m * s) for m, k in zip(mus, taus))
            return -mp.expm1(-log_mgf) * mp.exp(-s * t0)

        # beyond these ends the integrand is below e^-60 of its scale
        lo = -mp.log(mp.fsum(m * k for m, k in zip(mus, taus)) + t0)
        hi = mp.log(mp.mpf(p_u))
        log_interf = mp.quad(f, [lo - 60, lo - 30, lo, hi, hi + 5])
        beta = mp.mpf(fad.direct_gain(0, 0))
        return float(mp.log(1 + p_u * beta * mp.exp(
            mp.digamma(cfg.zf_shape) - log_interf), 2))


@pytest.mark.parametrize("system", [
    lambda: profile_system(4, 10, BREAKDOWN_GAINS, 20, 10.0),
    lambda: scenario1(20, 0.1, p_u=1e-6),
    lambda: scenario1(20, 0.1, p_u=1e6),
    lambda: distinct_profile(16, 1e-6),
    lambda: distinct_profile(16, 1e6),
], ids=["breakdown", "s1-1e-6", "s1-1e6", "distinct-1e-6", "distinct-1e6"])
def test_bound_matches_mpmath(system):
    # the breakdown profile's expansion misses summing to 1: a bound from
    # its coefficients gave 0.352 where the bound is 2.0637
    mp = pytest.importorskip("mpmath")
    cfg, fad, exp = system()
    got = cf.rate_lower_bound(cfg, fad, exp, 0, 0).value
    want = bound_mpmath(mp, cfg, fad, cfg.transmit_snr)
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_bound_needs_a_finite_transmit_power():
    # the rate, its fallback and its bound each weigh by e^{-s/p_u}; they
    # used to fail at p_u = inf with unrelated errors (a math domain error,
    # a NaN-to-integer conversion, and expint_en_scaled's z > 0 at L = 1)
    cfg, fad, exp = scenario1(20, 0.1)
    cfg_inf = replace(cfg, transmit_snr=math.inf)
    for fn in (cf.rate_lower_bound, cf.rate_exact, cf.rate_by_quadrature):
        with pytest.raises(ValueError, match="transmit_snr"):
            fn(cfg_inf, fad, exp, 0, 0)
    with pytest.raises(ValueError, match="transmit_snr"):
        cf.rate_exact(SystemConfig(1, 10, 20, math.inf), symmetric_fading(
            1, 10), CharacteristicExpansion.empty(), 0, 0)


def test_rate_needs_a_transmit_power_with_a_finite_reciprocal():
    # at a subnormal p_u, 1/p_u overflowed and the integration range became
    # "ValueError: Maximum allowed size exceeded" inside numpy
    cfg, fad, exp = scenario1(20, 0.1)
    cfg_tiny = replace(cfg, transmit_snr=1e-320)
    for fn in (cf.rate_lower_bound, cf.rate_exact, cf.rate_by_quadrature):
        with pytest.raises(ValueError, match="finite reciprocal"):
            fn(cfg_tiny, fad, exp, 0, 0)
    assert cf.rate_exact(replace(cfg, transmit_snr=1e-300), fad, exp, 0,
                         0).value > 0.0


def rate_mpmath(mp, cfg, fad, p_u):
    """The rate at 30 digits by Hamdi's lemma: R ln 2 is the integral over
    u = ln s of e^{-s / p_u} prod_m (1 + mu_m s)^-tau_m (1 - (1 + beta
    s)^-nu).  The product is formed directly: at 30 digits it loses
    nothing a double can show, and it is several times faster than a sum
    of logs over the 840 gains of a reuse-1 drop."""
    profile = build_profile(cfg, fad, 0)
    with mp.workdps(30):
        mus = [mp.mpf(float(m)) for m in profile.mu]
        taus = [int(t) for t in profile.tau]
        t0 = 1 / mp.mpf(p_u)
        beta, nu = mp.mpf(fad.direct_gain(0, 0)), cfg.zf_shape

        def f(u):
            s = mp.exp(u)
            mgf = mp.fprod((1 + m * s) ** -k for m, k in zip(mus, taus))
            return mgf * mp.exp(-s * t0) * -mp.expm1(-nu * mp.log1p(beta * s))

        # beyond these ends the integrand is below e^-60 of its scale
        lo = -mp.log(nu * beta + t0)
        hi = mp.log(mp.mpf(p_u))
        return float(mp.quad(f, [lo - 60, lo - 30, lo, hi, hi + 5])
                     / mp.log(2))


@pytest.mark.parametrize("system,method", [
    (lambda: scenario1(500, 0.1), "quadrature_fallback"),
    (lambda: scenario1(20, 0.1, p_u=1e-6), "quadrature_fallback"),
    (lambda: scenario1(20, 0.1, p_u=1e6), "exact_general"),
    # error estimate 7.2e-8: a closed sum 3.6e-9 off was once accepted
    (lambda: scenario1(10, 0.4), "quadrature_fallback"),
    (lambda: scenario1(20, 1e-6), "quadrature_fallback"),
    (lambda: profile_system(4, 10, BREAKDOWN_GAINS, 20, 10.0),
     "quadrature_fallback"),
    (lambda: profile_system(4, 10, np.repeat([0.1, 0.2, 0.3], 10), 20, 10.0),
     "quadrature_fallback"),
    (lambda: distinct_profile(16, 1e-6), "quadrature_fallback"),
    (lambda: distinct_profile(16, 1e6), "exact_distinct"),
    (lambda: network_drop_system(), "quadrature_fallback"),
    (lambda: network_drop_system(reuse=3, seed=1), "quadrature_fallback"),
    (lambda: network_drop_system(reuse=1, antennas=100, seed=0),
     "quadrature_fallback"),
], ids=["s1-N500", "s1-1e-6", "s1-1e6", "s1-N10-a0.4", "cross-1e-6",
        "breakdown", "0.1/0.2/0.3", "distinct-1e-6", "distinct-1e6",
        "reuse7-drop", "reuse3-drop", "reuse1-N100-drop"])
def test_rate_matches_mpmath(system, method):
    # the fallback used to integrate the partial-fraction density, and
    # raised QuadratureError on the broken profiles and on every drop
    mp = pytest.importorskip("mpmath")
    cfg, fad, exp = system()
    res = cf.rate_exact(cfg, fad, exp, 0, 0)
    assert res.method == method
    want = rate_mpmath(mp, cfg, fad, cfg.transmit_snr)
    np.testing.assert_allclose(res.value, want, rtol=1e-13)


def test_rate_fallback_runs_no_adaptive_integral(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called a refused function")

    for module in (quadrature, cf):
        monkeypatch.setattr(module, "integrate", refuse)
    for system in (scenario1(500, 0.1),
                   profile_system(4, 10, BREAKDOWN_GAINS, 20, 10.0),
                   network_drop_system()):
        res = cf.rate_exact(*system, 0, 0)
        assert res.method == "quadrature_fallback" and res.value > 0.0
    # and it reads the gains only: no partial-fraction weights
    monkeypatch.setattr(cf, "_partial_fractions", refuse)
    cfg, fad, exp = network_drop_system()
    assert cf.rate_by_quadrature(cfg, fad, exp, 0, 0) > 0.0


def test_rate_outside_the_kernel_domain_builds_no_weights(monkeypatch):
    # on this drop a cross gain exceeds the direct gain, so the closed sum
    # is rejected from the gains alone: the weights of its 840 gains were
    # built (40 ms) before the first term rejected the sum
    cfg, fad, exp = network_drop_system(reuse=1, antennas=20, seed=0)
    assert exp.mu[0] >= fad.direct_gain(0, 0)
    want = cf.rate_exact(cfg, fad, exp, 0, 0)
    assert want.method == "quadrature_fallback"

    def refuse(*args, **kwargs):
        raise AssertionError("built the partial-fraction weights")

    monkeypatch.setattr(cf, "_partial_fractions", refuse)
    assert cf.rate_exact(cfg, fad, exp, 0, 0) == want


@pytest.mark.parametrize("cross", [
    BREAKDOWN_GAINS, np.repeat([0.1, 0.2, 0.3], 10)],
    ids=["breakdown", "0.1/0.2/0.3"])
def test_rate_on_broken_weights_falls_back_with_one_event(cross):
    # the weights of these gains miss summing to 1; this warned, and the
    # sum then failed its guard; the miss is now the guard's input, logged
    # like any other trip, with no warning
    cfg, fad, exp = profile_system(4, 10, cross, 20, 10.0)
    quality = cf.QualityLog()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = cf.rate_exact(cfg, fad, exp, 0, 0, quality=quality)
    assert res.method == "quadrature_fallback" and res.cancellation_flagged
    assert len(quality.events) == 1
    assert res.value == cf.rate_by_quadrature(cfg, fad, exp, 0, 0)


def test_rate_at_low_snr_falls_back_without_overflowing():
    # e^{1/(beta p_u)} = e^{1e6} leaves the long-double range; the closed
    # sum used to compute it, with an overflow warning, before rejecting
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = cf.rate_exact(*scenario1(20, 0.1, p_u=1e-6), 0, 0)
    assert res.method == "quadrature_fallback"
    assert res.value == 1.586950262451365e-05


@pytest.mark.parametrize("reuse", (1, 3, 7))
def test_rate_on_network_drops_falls_back_between_its_bounds(reuse):
    # every drop tried trips the closed rate's guard; the fallback lies
    # between the Jensen bound and the interference-free rate
    for seed in (0, 1):
        cfg, fad, exp = network_drop_system(reuse=reuse, seed=seed)
        quality = cf.QualityLog()
        res = cf.rate_exact(cfg, fad, exp, 0, 0, quality=quality)
        assert res.method == "quadrature_fallback"
        assert res.cancellation_flagged and quality.tripped
        bound = cf.rate_lower_bound(cfg, fad, exp, 0, 0).value
        free = cf._rate_no_interference(cfg, fad.direct_gain(0, 0))
        assert bound < res.value < free


def test_cell_sum_rate_symmetric_shortcut():
    cfg, fad, exp = scenario1(20, 0.1)
    total = cf.cell_sum_rate(cfg, fad, 0, exp)
    single = cf.rate_exact(cfg, fad, exp, 0, 0).value
    np.testing.assert_allclose(total, 10 * single, rtol=1e-12)


@pytest.mark.parametrize("system", [
    lambda: scenario1(30, 0.1),
    lambda: random_distinct_system(np.random.default_rng(5), n_extra=30),
], ids=["scenario1", "distinct"])
def test_rate_sums_build_one_ei_moment_sequence_per_term(monkeypatch,
                                                         system):
    cfg, fad, exp = system()
    sequences, kernels = [], []
    build, closed = cf._ei_moment_sequence, cf._ei_moment_closed

    def counted_build(*args):
        sequences.append(args)
        return build(*args)

    def counted_closed(*args, **kwargs):
        kernels.append(args)
        return closed(*args, **kwargs)

    monkeypatch.setattr(cf, "_ei_moment_sequence", counted_build)
    monkeypatch.setattr(cf, "_ei_moment_closed", counted_closed)
    value, _, _ = cf._rate_general(cfg, fad.direct_gain(0, 0), exp)
    assert math.isfinite(value)
    terms = sum(1 for _, _, chi in weight_terms(exp) if chi != 0.0)
    big_j = cfg.zf_shape - 1
    assert len(sequences) == terms
    # one kernel per (term, w = J .. 0), each reading its term's sequence
    assert len(kernels) == terms * (big_j + 1)


# ---------------------------------------------------------------------------
# symbol error rate
# ---------------------------------------------------------------------------

def test_modulation_scheme_constants():
    mod = cf.ModulationScheme(4)
    assert mod.g_mpsk == pytest.approx(0.5)
    assert mod.theta_max == pytest.approx(3 * math.pi / 4)
    with pytest.raises(ValueError):
        cf.ModulationScheme(1)


def test_ser_zero_power_limit_is_uniform_guessing():
    mod = cf.ModulationScheme(4)
    cfg, fad, exp = scenario1(20, 0.1, p_u=1e-9)
    assert cf.ser_exact(cfg, fad, exp, mod, 0, 0) == pytest.approx(0.75,
                                                                   abs=1e-4)
    # the three-point approximation is documented to miss this limit:
    # it tends to Theta/pi - 1/6 instead of (M-1)/M
    approx = cf.ser_approx(cfg, fad, exp, mod, 0, 0)
    assert approx == pytest.approx(0.75 - 1.0 / 6.0, abs=1e-4)


def test_ser_decreasing_in_power_and_antennas():
    mod = cf.ModulationScheme(4)
    vals_p = [cf.ser_exact(*scenario1(15, 0.1, p_u=10 ** (db / 10)), mod,
                           0, 0) for db in (0, 10, 20)]
    assert vals_p[0] > vals_p[1] > vals_p[2]
    vals_n = [cf.ser_exact(*scenario1(n, 0.1), mod, 0, 0)
              for n in (15, 20, 30)]
    assert vals_n[0] > vals_n[1] > vals_n[2]


def test_ser_floor_matches_high_snr_run():
    mod = cf.ModulationScheme(4)
    for n, a in ((15, 0.1), (12, 0.2)):
        cfg_hi, fad, exp = scenario1(n, a, p_u=1e8)
        run = cf.ser_exact(cfg_hi, fad, exp, mod, 0, 0)
        floor = cf.ser_high_snr(cfg_hi, fad, exp, mod, 0, 0)
        np.testing.assert_allclose(run, floor, rtol=1e-3)


def test_ser_floor_decreases_with_antennas():
    mod = cf.ModulationScheme(4)
    floors = [cf.ser_high_snr(*scenario1(n, 0.1), mod, 0, 0)
              for n in (15, 20, 30)]
    assert floors[0] > floors[1] > floors[2]


def test_ser_approx_tracks_exact():
    # the three-node rule carries a few-percent intrinsic error at
    # concentrated SINR; +5.95% at N=20 and about +7% at N=30 (measured,
    # systematic, SNR-independent)
    mod = cf.ModulationScheme(4)
    cfg, fad, exp = scenario1(30, 0.1, p_u=100.0)
    ex = cf.ser_exact(cfg, fad, exp, mod, 0, 0)
    ap = cf.ser_approx(cfg, fad, exp, mod, 0, 0)
    assert abs(ap - ex) / ex < 0.08
    cfg, fad, exp = scenario1(15, 0.1, p_u=10.0)
    ex = cf.ser_exact(cfg, fad, exp, mod, 0, 0)
    ap = cf.ser_approx(cfg, fad, exp, mod, 0, 0)
    assert abs(ap - ex) / ex < 0.05


def test_ser_semi_analytic_cross_check():
    # frozen semi-analytic Monte Carlo at (4-PSK, N=20, K=10, a=0.1, 10 dB):
    # 200k draws, seed 77: 0.0712178 +- 1.1e-4
    mod = cf.ModulationScheme(4)
    cfg, fad, exp = scenario1(20, 0.1)
    got = cf.ser_exact(cfg, fad, exp, mod, 0, 0)
    assert abs(got - 0.0712178) < 0.02 * 0.0712178


def ser_theta_integral(mgf, modulation):
    """The paper's SER: adaptive theta quadrature of the closed-form MGF,
    (1/pi) int_0^Theta M(g / sin^2 theta) dtheta."""
    g, theta = modulation.g_mpsk, modulation.theta_max
    spec = QuadratureSpec(relative_tolerance=1e-9, absolute_tolerance=1e-15)
    return integrate(lambda t: mgf(g / math.sin(t) ** 2), 0.0, theta,
                     spec) / math.pi


@pytest.mark.parametrize("profile,n", [("scenario1", 15), ("scenario1", 20),
                                       ("scenario1", 50), ("distinct", 8),
                                       ("distinct", 16)])
def test_ser_matches_theta_integral_of_closed_mgf(profile, n):
    mod = cf.ModulationScheme(4)
    for snr_db in (10, 30):
        p_u = 10 ** (snr_db / 10)
        cfg, fad, exp = (scenario1(n, 0.1, p_u=p_u) if profile == "scenario1"
                         else distinct_profile(n, p_u))
        model = sd.make_sinr_model(cfg, fad, 0, 0, expansion=exp)
        np.testing.assert_allclose(
            cf.ser_exact(cfg, fad, exp, mod, 0, 0),
            ser_theta_integral(lambda s: mgf_closed(model, s), mod),
            rtol=1e-8)
    # the floor does not depend on p_u
    model_inf = replace(model, p_u=math.inf)
    np.testing.assert_allclose(
        cf.ser_high_snr(cfg, fad, exp, mod, 0, 0),
        ser_theta_integral(lambda s: mgf_closed(model_inf, s), mod),
        rtol=1e-8)


@pytest.mark.parametrize("psk_order", (2, 4, 8))
def test_theta_rule_matches_adaptive_integration(psk_order):
    # the conditional Erlang transform (1 + rho s)^-nu at conditional SNRs
    # rho from -90 dB to +90 dB: every SNR an SER average meets, the
    # interference tail at low p_u and the floor's X/Z at p_u = infinity
    mod = cf.ModulationScheme(psk_order)
    s, w = mod.theta_rule
    g, theta = mod.g_mpsk, mod.theta_max
    spec = QuadratureSpec(relative_tolerance=1e-13, absolute_tolerance=1e-300)
    for nu in (1, 11, 491):
        for snr_db in range(-90, 91, 15):
            rho = 10.0 ** (snr_db / 10)
            want = integrate(
                lambda t: np.exp(-nu * np.log1p(rho * g / np.sin(t) ** 2)),
                0.0, theta, spec) / math.pi
            got = float(np.exp(-nu * np.log1p(rho * s)) @ w)
            atol = 2.5e-10 if snr_db < -60 else 1e-12
            assert abs(got - want) <= atol + 1e-12 * want, (nu, snr_db)


class GainsOnly:
    """An expansion that holds the gains (mu, tau) and nothing else: reading
    any other attribute (is_empty, rates(), ...) fails the test."""

    def __init__(self, mu, tau):
        self.mu, self.tau = mu, tau

    def __getattr__(self, name):
        raise AssertionError(f"read expansion.{name}")


def gains_only(cfg, fad):
    profile = build_profile(cfg, fad, 0)
    return GainsOnly(profile.mu, profile.tau)


def test_ser_mgf_and_bound_run_no_integral_and_read_only_the_gains(
        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called a refused function")

    systems = [scenario1(20, 0.1), distinct_profile(16, 10.0)]
    drop = network_drop_system()
    mod = cf.ModulationScheme(4)
    fns = (cf.ser_exact, cf.ser_high_snr, cf.ser_approx)
    want = [[fn(*system, mod, 0, 0) for fn in fns]
            + [cf.rate_lower_bound(*system, 0, 0).value]
            for system in systems]
    # no adaptive integral (every one goes through quadrature.integrate),
    # no read of the partial-fraction weights, no node-by-node MGF
    for module, name in ((quadrature, "integrate"), (sd, "hyp2f0_neg"),
                         (sd, "expint_en_scaled")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(cf, "_partial_fractions", refuse)
    sd._cdf.cache_clear()
    for (cfg, fad, _), values in zip(systems, want):
        exp = gains_only(cfg, fad)
        got = [fn(cfg, fad, exp, mod, 0, 0) for fn in fns]
        got.append(cf.rate_lower_bound(cfg, fad, exp, 0, 0).value)
        assert got == values
        model = sd.make_sinr_model(cfg, fad, 0, 0, expansion=exp)
        for s in (0.5, 2.0):
            assert 0.0 < sd.mgf_sinr(model, s) < 1.0
            assert 0.0 < sd.mgf_sinr_high_snr(model, s) < 1.0
    model = sd.make_sinr_model(*drop[:2], 0, 0, expansion=drop[2])
    for gth in (0.03, 0.1):
        for outage in (cf.outage_exact, cf.outage_small_threshold):
            assert 0.0 < outage(*drop, 0, 0, gth) < 1.0
        assert 0.0 < sd.sinr_cdf_quadrature(model, gth) < 1.0


def ser_semi_analytic_monte_carlo(cfg, fad, exp, seed, draws=200_000):
    """Mean and standard error over SINR draws gamma of the QPSK
    conditional SER 2Q(sqrt(gamma)) - Q(sqrt(gamma))^2, which does not use
    the theta rule."""
    model = sd.make_sinr_model(cfg, fad, 0, 0, expansion=exp)
    gamma = sd.sample_sinr(model, np.random.default_rng(seed), size=draws)
    q = 0.5 * np.vectorize(math.erfc)(np.sqrt(gamma / 2.0))
    cond = 2.0 * q - q * q
    return cond.mean(), cond.std(ddof=1) / math.sqrt(cond.size)


@pytest.mark.parametrize("cross", [
    BREAKDOWN_GAINS, np.repeat([0.1, 0.2, 0.3], 10)],
    ids=["breakdown", "0.1/0.2/0.3"])
def test_ser_where_the_expansion_breaks_down_matches_monte_carlo(cross):
    # L=4, K=10, N=20, 10 dB: the partial-fraction expansion of these gains
    # misses summing to 1, and an SER integral over its density fails
    cfg, fad, exp = profile_system(4, 10, cross, 20, 10.0)
    assert abs(sum(c for _, _, c in weight_terms(exp)) - 1) \
        > cf.COEFFICIENT_SUM_TOL
    got = cf.ser_exact(cfg, fad, exp, cf.ModulationScheme(4), 0, 0)
    mean, sigma = ser_semi_analytic_monte_carlo(cfg, fad, exp, 2012)
    assert abs(got - mean) <= 5.0 * sigma


def network_drop_system(reuse=7, antennas=20, seed=3):
    """Hexagonal drop at 10 dB, by default reuse 7, N=20, seed 3: 120 cross
    gains spread over decades, whose expansion is garbage."""
    from mumimo import cellnet
    sc = cellnet.NetworkScenario(reuse_factor=reuse, antennas=antennas)
    drop = cellnet.drop_users(sc, cellnet.build_hex_grid(sc),
                              np.random.default_rng(seed))
    cells = drop.beta_home.shape[0]
    beta = np.ones((cells, cells, sc.users_per_cell))
    beta[0] = drop.beta_home
    cfg = SystemConfig(cells, sc.users_per_cell, sc.antennas,
                       sc.transmit_snr)
    fad = LargeScaleFading(beta)
    return cfg, fad, build_profile(cfg, fad, 0)


def test_ser_on_a_network_drop_matches_monte_carlo():
    cfg, fad, exp = network_drop_system()
    assert exp.mu.size == 120
    got = cf.ser_exact(cfg, fad, exp, cf.ModulationScheme(4), 0, 0)
    mean, sigma = ser_semi_analytic_monte_carlo(cfg, fad, exp, 7)
    assert abs(got - mean) <= 5.0 * sigma


@pytest.mark.parametrize("system", [
    lambda: profile_system(4, 10, BREAKDOWN_GAINS, 20, 10.0),
    network_drop_system], ids=["breakdown", "network-drop"])
def test_only_the_closed_rate_builds_the_expansion_weights(monkeypatch,
                                                           system):
    # the weights chi of these gains miss summing to 1; every metric but
    # the closed rate reads the gains only, so none of them builds chi
    built = []
    build = cf._partial_fractions

    def counted(expansion):
        built.append(expansion)
        return build(expansion)

    monkeypatch.setattr(cf, "_partial_fractions", counted)
    mod = cf.ModulationScheme(4)
    cfg, fad, exp = system()
    model = sd.make_sinr_model(cfg, fad, 0, 0, expansion=exp)
    for ser in (cf.ser_exact, cf.ser_approx, cf.ser_high_snr):
        assert 0.0 <= ser(cfg, fad, exp, mod, 0, 0) <= 1.0
    for outage in (cf.outage_exact, cf.outage_small_threshold):
        assert 0.0 <= outage(cfg, fad, exp, 0, 0, 1.0) <= 1.0
    assert cf.rate_lower_bound(cfg, fad, exp, 0, 0).value > 0.0
    for mgf in (sd.mgf_sinr, sd.mgf_sinr_high_snr):
        assert 0.0 <= mgf(model, 1.0) <= 1.0
    assert 0.0 <= sd.sinr_cdf_quadrature(model, 1.0) <= 1.0
    assert not built
    # the closed rate builds chi once per call, and its miss sends the
    # call to the fallback before any rate term
    res = cf.rate_exact(cfg, fad, exp, 0, 0)
    assert built == [exp] and res.method == "quadrature_fallback"


def ser_by_density(model, rule):
    """sum_j w_j E e^{-s_j gamma} as one adaptive integral of the
    conditional Erlang transform against the partial-fraction density of
    Z: the SER's former method, kept as an arbiter."""
    s, w = rule
    nu, beta, t0 = model.shape, model.scale, 1 / model.p_u

    def f(z):
        z = np.asarray(z, dtype=float)
        cond = np.exp(-nu * np.log1p(np.multiply.outer(beta / (z + t0), s)))
        return pdf_z(model.interference, z) * (cond @ w)

    return integrate_semi_infinite(
        f, 0.0, QuadratureSpec(relative_tolerance=1e-11,
                               absolute_tolerance=1e-300),
        scale=float(model.interference.rates().sum()))


@pytest.mark.parametrize("n,a,snr_db", [(100, 1e-3, 40), (60, 0.01, 30)])
def test_ser_at_high_sinr_matches_density_integral(n, a, snr_db):
    # the integrand's peak lies far above x = 1/g here: a march that only
    # went down from a fixed upper end missed it (8.99e-93 against
    # 1.21e-87 at the first point)
    mod = cf.ModulationScheme(4)
    cfg, fad, exp = scenario1(n, a, p_u=10 ** (snr_db / 10))
    model = sd.make_sinr_model(cfg, fad, 0, 0, expansion=exp)
    for fn, rule in ((cf.ser_exact, mod.theta_rule),
                     (cf.ser_approx, mod.three_point_rule)):
        np.testing.assert_allclose(fn(cfg, fad, exp, mod, 0, 0),
                                   ser_by_density(model, rule), rtol=1e-9)


def test_ser_on_a_wide_gain_profile_matches_monte_carlo():
    # 30 cross gains geometric in [0.01, 0.9] (N=20, 10 dB), where the
    # closed MGF is ill-conditioned; semi-analytic Monte Carlo with the
    # QPSK conditional SER 2Q(sqrt(gamma)) - Q(sqrt(gamma))^2, which does
    # not use the theta rule
    cfg, fad, exp = profile_system(4, 10, 0.01 * 90 ** (np.arange(30) / 29),
                                   20, 10.0)
    got = cf.ser_exact(cfg, fad, exp, cf.ModulationScheme(4), 0, 0)
    mean, sigma = ser_semi_analytic_monte_carlo(cfg, fad, exp, 2012)
    assert abs(got - mean) <= 5.0 * sigma


# ---------------------------------------------------------------------------
# outage probability
# ---------------------------------------------------------------------------

def test_outage_limits_and_monotonicity():
    cfg, fad, exp = scenario1(20, 0.1)
    assert cf.outage_exact(cfg, fad, exp, 0, 0, 1e-9) < 1e-12
    assert cf.outage_exact(cfg, fad, exp, 0, 0, 1e6) > 1.0 - 1e-9
    prev = -1.0
    for gth in np.linspace(0.1, 12.0, 30):
        val = cf.outage_exact(cfg, fad, exp, 0, 0, float(gth))
        assert val >= prev
        prev = val


def test_outage_matches_quadrature_cdf():
    # down to 4.9e-25 at N = 40: the arbiter's tolerance is relative only
    for n in (20, 40, 50):
        cfg, fad, exp = scenario1(n, 0.1)
        model = sd.make_sinr_model(cfg, fad, 0, 0, expansion=exp)
        for gth in (0.5, 1.0, 3.0, 6.0):
            np.testing.assert_allclose(
                cf.outage_exact(cfg, fad, exp, 0, 0, gth),
                sd.sinr_cdf_quadrature(model, gth), rtol=1e-9)


def _mp_outage(mp, nu, c, t0, pdf, edges, method="tanh-sinh"):
    """int_0^inf P{Gamma(nu, 1) <= c (z + t0)} pdf(z) dz with mpmath."""
    return mp.quad(lambda z: mp.gammainc(nu, 0, c * (z + t0),
                                         regularized=True) * pdf(z), edges,
                   method=method)


def _mp_gamma_pdf(mp, shape, scale):
    return lambda z: (z ** (shape - 1) * mp.exp(-z / scale)
                      / (mp.gamma(shape) * scale ** shape))


@pytest.mark.parametrize("n", (40, 50, 100))
def test_outage_tail_matches_mpmath(n):
    # Z ~ Gamma(30, 0.1) at scenario 1; outage from 1.4e-93 to 4.9e-15
    mp = pytest.importorskip("mpmath")
    cfg, fad, exp = scenario1(n, 0.1)
    with mp.workdps(30):
        pdf = _mp_gamma_pdf(mp, 30, mp.mpf(0.1))
        for gth in (0.5, 1.0, 2.0):
            ref = _mp_outage(mp, cfg.zf_shape, mp.mpf(gth), mp.mpf(0.1),
                             pdf, mp.linspace(0, 40, 81) + [mp.inf],
                             # tanh-sinh misses these deep tails by ~1e-13
                             method="gauss-legendre")
            np.testing.assert_allclose(
                cf.outage_exact(cfg, fad, exp, 0, 0, gth), float(ref),
                rtol=1e-12)


def test_outage_on_expansion_breakdown_matches_mpmath():
    # 30 cross gains geometric in [0.05, 0.2]: the partial-fraction
    # expansion of Z breaks down, the count law reads only the gains
    mp = pytest.importorskip("mpmath")
    gains = 0.05 * 4 ** (np.arange(30) / 29)
    cfg, fad, exp = profile_system(4, 10, gains, 20, 10.0)
    assert abs(sum(c for _, _, c in weight_terms(exp)) - 1) \
        > cf.COEFFICIENT_SUM_TOL
    with mp.workdps(80):
        mus = [mp.mpf(float(g)) for g in gains]
        chi = [mp.fprod(m / (m - j) for j in mus if j != m) for m in mus]

        def pdf(z):
            return mp.fsum(c * mp.exp(-z / m) / m for c, m in zip(chi, mus))

        mean = mp.fsum(mus)
        ref = _mp_outage(mp, cfg.zf_shape, mp.mpf(1), mp.mpf(0.1), pdf,
                         [0, mean / 4, mean, 4 * mean, 16 * mean, mp.inf])
    np.testing.assert_allclose(cf.outage_exact(cfg, fad, exp, 0, 0, 1.0),
                               float(ref), rtol=1e-12)


def test_outage_with_mean_count_beyond_double_range_matches_mpmath():
    # c t = 1000: e^{-ct} underflows, yet the outage is about one half
    mp = pytest.importorskip("mpmath")
    cfg, fad, exp = scenario1(1040, 0.1, p_u=0.01)
    with mp.workdps(30):
        ref = _mp_outage(mp, cfg.zf_shape, mp.mpf(10), mp.mpf(100),
                         _mp_gamma_pdf(mp, 30, mp.mpf(0.1)),
                         mp.linspace(0, 20, 41) + [mp.inf],
                         method="gauss-legendre")
    got = cf.outage_exact(cfg, fad, exp, 0, 0, 10.0)
    np.testing.assert_allclose(got, float(ref), rtol=1e-9)


def test_outage_with_stiff_cross_gain_matches_mpmath():
    # one cross gain 100 x the direct gain: geometric ratio 100/101 at
    # gamma_th = 1, so the count's tail runs far past 2 (N - K + 1)
    mp = pytest.importorskip("mpmath")
    cross = np.full(10, 0.1)
    cross[0] = 100.0
    cfg, fad, exp = profile_system(2, 10, cross, 100, 10.0)
    with mp.workdps(30):
        # Z = Exp(100) + Gamma(9, 0.1), by convolving the two densities
        rate = 10 - mp.mpf(1) / 100

        def pdf(z):
            return (mp.exp(-z / 100) / 100 * (10 / rate) ** 9
                    * mp.gammainc(9, 0, rate * z, regularized=True))

        for gth in (0.5, 1.0):
            ref = _mp_outage(mp, cfg.zf_shape, mp.mpf(gth), mp.mpf(0.1),
                             pdf, [0, 1, 10, 100, 1000, mp.inf])
            got = cf.outage_exact(cfg, fad, exp, 0, 0, gth)
            assert got < 0.5
            np.testing.assert_allclose(got, float(ref), rtol=1e-12)


def test_quadrature_cdf_at_tiny_transmit_power():
    # 1/p_u far above the interference mean: the arbiter must still find
    # the density (P{gamma <= 2 p_u} ~ 8.31e-6 for N - K + 1 = 11)
    for p_u in (1e-4, 1e-6, 1e-8):
        cfg, fad, exp = scenario1(20, 0.1, p_u=p_u)
        model = sd.make_sinr_model(cfg, fad, 0, 0, expansion=exp)
        want = cf.outage_exact(cfg, fad, exp, 0, 0, 2.0 * p_u)
        assert 8.3e-6 < want < 8.34e-6
        np.testing.assert_allclose(sd.sinr_cdf_quadrature(model, 2.0 * p_u),
                                   want, rtol=1e-8)


def test_outage_matches_quadrature_cdf_distinct():
    rng = np.random.default_rng(12)
    cfg, fad, exp = random_distinct_system(rng)
    model = sd.make_sinr_model(cfg, fad, 0, 0, expansion=exp)
    for q in (0.3, 1.0, 4.0):
        np.testing.assert_allclose(
            cf.outage_exact(cfg, fad, exp, 0, 0, q),
            sd.sinr_cdf_quadrature(model, q), atol=1e-9)


def assert_cdf_close(got, want, rtol=1e-12):
    """Relative rtol on P, or on 1 - P where P > 1/2 and 1 - P >= 1e-9,
    plus the rounding of such a P on both sides to a double below 1 (whose
    spacing is 1.1e-16)."""
    q = 1.0 - want if want > 0.5 and 1.0 - want >= 1e-9 else want
    assert abs(got - want) <= rtol * q + (q < want) * 2.3e-16, (got, want)


@pytest.mark.parametrize("reuse,antennas,seed", [
    (7, 20, 3), (3, 20, 1), (1, 100, 0)], ids=["reuse7", "reuse3", "reuse1"])
def test_quadrature_cdf_on_network_drops(reuse, antennas, seed):
    # 120, 300 and 840 gains whose partial-fraction density is garbage, so
    # only an arbiter that reads the gains can judge the count law here
    cfg, fad, exp = network_drop_system(reuse, antennas, seed)
    model = sd.make_sinr_model(cfg, fad, 0, 0, expansion=exp)
    for gth in (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0):
        assert_cdf_close(sd.sinr_cdf_quadrature(model, gth),
                         cf.outage_exact(cfg, fad, exp, 0, 0, gth))


def small_system(k, n, cells=2):
    """Cross gain 0.3 and p_u = 10, where at L = 2 the terms of a sum along
    the vertical line through the saddle point decay only like |u|^-(N + 2).
    """
    cfg = SystemConfig(cells, k, n, 10.0)
    fad = symmetric_fading(cells, k, 1.0, 0.3)
    return cfg, fad, build_profile(cfg, fad, 0)


@pytest.mark.parametrize("cells,k,n", [(2, 1, 1), (2, 1, 3), (2, 2, 2),
                                       (2, 2, 4)])
def test_quadrature_cdf_never_returns_an_unconverged_sum(cells, k, n):
    # |u|^-3 to |u|^-6 on the vertical line, where a sum along it raised
    # past its node budget at K = 1, N = 1 and 3 and K = 2, N = 2; the
    # parabola takes every threshold, and ln P with it
    cfg, fad, exp = small_system(k, n, cells)
    model = sd.make_sinr_model(cfg, fad, 0, 0, expansion=exp)
    for gth in (0.1, 1.0, 10.0):
        want = cf.outage_exact(cfg, fad, exp, 0, 0, gth)
        assert_cdf_close(sd.sinr_cdf_quadrature(model, gth), want)
        got = cf.log_outage_exact(cfg, fad, exp, 0, 0, gth)
        assert abs(got - math.log(want)) <= 1e-13, (gth, got, want)


def test_quadrature_cdf_does_not_call_the_count_law(monkeypatch):
    # the arbiter must judge the count law on every law, L = 1 included,
    # not be it
    systems = [(SystemConfig(1, 4, 8, 2.0), symmetric_fading(1, 4),
                CharacteristicExpansion.empty()), scenario1(20, 0.1)]
    want = [[cf.outage_exact(*system, 0, 0, gth) for gth in (0.5, 3.0)]
            for system in systems]

    def refuse(*args, **kwargs):
        raise AssertionError("the arbiter called the count law")

    monkeypatch.setattr(sd, "_count_tail", refuse)
    for system, values in zip(systems, want):
        model = sd.make_sinr_model(*system[:2], 0, 0, expansion=system[2])
        for gth, value in zip((0.5, 3.0), values):
            assert_cdf_close(sd.sinr_cdf_quadrature(model, gth), value)
            assert_cdf_close(math.exp(cf.log_outage_exact(*system, 0, 0, gth)),
                             value)


def run_isolated(call, timeout):
    """Run `call`, a call of a function of this module, in a fresh
    interpreter, so that one that never returns fails the suite after
    `timeout` seconds instead of hanging it."""
    here = pathlib.Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", f"import test_closedform as t; t.{call}"],
        env=env, capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr[-3000:]


STALL_GRID = [(n, a, p_u, float(gth)) for n in (300, 500, 800, 1000, 2000)
              for a in (0.1, 0.5) for p_u in (1.0, 10.0, 1e3, 1e6, math.inf)
              for gth in np.logspace(-2, 2, 9)]


def check_count_law_terminates(full=False):
    """The count law returns where the last entries of its convolution
    underflow.  Its 30 calls of STALL_GRID at N >= 800 and thresholds
    3.2-32 read the ratio of two subnormal entries as 1 and doubled the
    convolution without end, and so did the SER at N = 800 and 1000.  Where
    P is normal and below 1/2 it matches the arbiter's ln P within 1e-12:
    its ratio products lose about 1e-16 per term (3.4e-13 at N = 2000, where
    the arbiter is within 2e-14 of 40-digit mpmath)."""
    for n, a, p_u, gth in STALL_GRID:
        if not (full or n >= 800 and 3.0 < gth < 32.0):
            continue
        system = scenario1(n, a, p_u=p_u)
        got = cf.outage_exact(*system, 0, 0, gth)
        if np.finfo(float).tiny <= got < 0.5:
            ref = cf.log_outage_exact(*system, 0, 0, gth)
            assert abs(math.log(got) - ref) <= 1e-12, (n, a, p_u, gth)
    # N = 800 at threshold 10.09: the outage's count law, called directly
    tail = sd._count_tail(1.0085854899646869, np.array([30]),
                          np.array([1.0085854899646869]), 791)
    ref = cf.log_outage_exact(*scenario1(800, 0.1), 0, 0, 10.085854899646869)
    assert abs(math.log(tail) - ref) <= 1e-12
    for n in (800, 1000):
        ser = cf.ser_exact(*scenario1(n, 0.1), cf.ModulationScheme(4), 0, 0)
        assert 0.0 < ser < 1e-30


def test_count_law_terminates_where_its_entries_underflow():
    run_isolated("check_count_law_terminates()", timeout=120)


@pytest.mark.slow
def test_count_law_terminates_on_the_stall_grid():
    run_isolated("check_count_law_terminates(full=True)", timeout=300)


def arbiter_grid():
    """(system, threshold): L = 2 with K in {1, 2} and K <= N <= 4; L = 1
    with N - K in 0..20; scenario 1 at N = 20, 100 and 500; the reuse-7, 3
    and 1 drops; each at p_u in {1e-4, 10, inf} and 5 thresholds."""
    systems = [small_system(k, n) for k in (1, 2) for n in range(k, 5)]
    systems += [(SystemConfig(1, 4, 4 + m, 10.0), symmetric_fading(1, 4),
                 CharacteristicExpansion.empty()) for m in range(21)]
    systems += [scenario1(n, 0.1) for n in (20, 100, 500)]
    systems += [network_drop_system(*drop) for drop in ((7, 20, 3),
                                                        (3, 20, 1),
                                                        (1, 100, 0))]
    for cfg, fad, exp in systems:
        for p_u in (1e-4, 10.0, math.inf):
            for gth in (0.01, 0.1, 1.0, 10.0, 100.0):
                yield (replace(cfg, transmit_snr=p_u), fad, exp), gth


def check_arbiter(full=False):
    """The arbiter and ln P agree with the count law within 1e-13 on P (or
    on 1 - P) on every 26th case of `arbiter_grid`, or on all of it."""
    cases = itertools.islice(arbiter_grid(), 0, None, 1 if full else 26)
    for system, gth in cases:
        want = cf.outage_exact(*system, 0, 0, gth)
        model = sd.make_sinr_model(*system[:2], 0, 0, expansion=system[2])
        assert_cdf_close(sd.sinr_cdf_quadrature(model, gth), want, 1e-13)
        assert_cdf_close(math.exp(cf.log_outage_exact(*system, 0, 0, gth)),
                         want, 1e-13)


def test_quadrature_cdf_on_a_slice_of_its_grid():
    run_isolated("check_arbiter()", timeout=120)


@pytest.mark.slow
def test_quadrature_cdf_on_its_grid():
    run_isolated("check_arbiter(full=True)", timeout=300)


def test_log_outage_matches_references_below_the_double_range():
    # scenario 1 at N = 500, where outage_exact returns 0.0; 30-digit
    # references of the benchmark (benchmark/references.json)
    mp = pytest.importorskip("mpmath")
    cfg, fad, exp = scenario1(500, 0.1)
    for gth, ref in ((0.5, "1.14304637434526526749329e-602"),
                     (1.0, "2.280896757643280842970729e-465"),
                     (2.0, "3.265444163418191015582413e-337")):
        assert cf.outage_exact(cfg, fad, exp, 0, 0, gth) == 0.0
        got = cf.log_outage_exact(cfg, fad, exp, 0, 0, gth)
        assert abs(got - float(mp.log(mp.mpf(ref)))) <= 1e-12
    # P on either side of 1/2, and without interference (-inf at p_u = inf)
    cfg, fad, exp = scenario1(20, 0.1)
    cfg1, fad1 = SystemConfig(1, 4, 8, 2.0), symmetric_fading(1, 4)
    empty = CharacteristicExpansion.empty()
    for system, gth in (((cfg, fad, exp), 1.0), ((cfg, fad, exp), 6.0),
                        ((cfg1, fad1, empty), 1.0)):
        np.testing.assert_allclose(
            math.exp(cf.log_outage_exact(*system, 0, 0, gth)),
            cf.outage_exact(*system, 0, 0, gth), rtol=1e-12)
    assert cf.log_outage_exact(replace(cfg1, transmit_snr=math.inf), fad1,
                               empty, 0, 0, 1.0) == -math.inf


@pytest.mark.parametrize("cells,n,p_u,first", [
    (4, 20, 10.0, 18), (4, 20, 1e-3, 14), (1, 20, 10.0, 17), (1, 20, 1e-3, 14),
    (4, 500, 10.0, 20)])
def test_quadrature_cdf_is_one_where_one_minus_p_is_no_double(cells, n, p_u,
                                                              first):
    # at thresholds 10^first .. 10^307 the left saddle rounds to -1/beta:
    # the arbiter divided by zero in its slopes, or squared a = gth mu past
    # the double range (gth >= 1e154), where outage_exact returns 1.0
    cfg, fad, exp = scenario1(n, 0.1, p_u=p_u, cells=cells)
    model = sd.make_sinr_model(cfg, fad, 0, 0, expansion=exp)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for e in range(first, 308):
            gth = 10.0 ** e
            want = cf.outage_exact(cfg, fad, exp, 0, 0, gth)
            assert sd.sinr_cdf_quadrature(model, gth) == want == 1.0, e
            assert cf.log_outage_exact(cfg, fad, exp, 0, 0, gth) == 0.0, e


@pytest.mark.parametrize("name", ["outage_exact", "outage_small_threshold",
                                  "log_outage_exact", "sinr_cdf_quadrature",
                                  "mgf_sinr"])
def test_infinite_argument_is_the_limit_and_nan_names_itself(name):
    cfg, fad, exp = scenario1(20, 0.1)
    model = sd.make_sinr_model(cfg, fad, 0, 0, expansion=exp)
    call, at_inf, arg = {
        "outage_exact": (lambda v: cf.outage_exact(cfg, fad, exp, 0, 0, v),
                         1.0, "gamma_th"),
        "outage_small_threshold": (lambda v: cf.outage_small_threshold(
            cfg, fad, exp, 0, 0, v), 1.0, "gamma_th"),
        "log_outage_exact": (lambda v: cf.log_outage_exact(
            cfg, fad, exp, 0, 0, v), 0.0, "gamma_th"),
        "sinr_cdf_quadrature": (lambda v: sd.sinr_cdf_quadrature(model, v),
                                1.0, "threshold"),
        "mgf_sinr": (lambda v: sd.mgf_sinr(model, v), 0.0, "s"),
    }[name]
    assert call(math.inf) == at_inf
    with pytest.raises(ValueError, match=rf"\b{arg}\b"):
        call(math.nan)


def test_outage_no_interference_is_erlang_cdf():
    cfg = SystemConfig(1, 4, 8, 2.0)
    fad = symmetric_fading(1, 4)
    got = cf.outage_exact(cfg, fad, CharacteristicExpansion.empty(), 0, 0,
                          1.0)
    # P{p_u X <= 1} = P{X <= 0.5}, X ~ Erlang(5, 1): from mpmath, not the
    # count law, which the outage itself runs
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        want = float(mp.gammainc(5, 0, 0.5, regularized=True))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_outage_small_threshold_asymptote():
    cfg, fad, exp = scenario1(12, 0.3)
    asym = cf.outage_small_threshold(cfg, fad, exp, 0, 0, 0.5)
    cfg_hi, _, _ = scenario1(12, 0.3, p_u=1e8)
    hi = cf.outage_exact(cfg_hi, fad, exp, 0, 0, 0.5)
    np.testing.assert_allclose(asym, hi, rtol=1e-4)


def test_outage_asymptote_distinct_path_agrees():
    # the distinct-eigenvalue specialization is the same algorithm
    # restricted to simple eigenvalues; cross-check the p_u -> infinity run
    rng = np.random.default_rng(21)
    cfg, fad, exp = random_distinct_system(rng)
    hi_cfg = SystemConfig(cfg.num_cells, cfg.users_per_cell, cfg.antennas,
                          1e8)
    for gth in (0.2, 1.0):
        asym = cf.outage_small_threshold(cfg, fad, exp, 0, 0, gth)
        hi = cf.outage_exact(hi_cfg, fad, exp, 0, 0, gth)
        np.testing.assert_allclose(asym, hi, rtol=1e-6)


def test_distinct_profile_rate_is_labelled_exact_distinct():
    cfg, fad, exp = random_distinct_system(np.random.default_rng(5))
    assert np.all(exp.tau == 1)
    assert cf.rate_exact(cfg, fad, exp, 0, 0).method == "exact_distinct"


def test_rate_q_sum_runs_no_quadrature(monkeypatch):
    # U(n, n+d+1, z) is a terminating sum, so a closed rate integrates
    # nothing numerically, for simple and repeated eigenvalues alike
    def refuse(*args, **kwargs):
        raise AssertionError("the closed rate ran a quadrature")

    monkeypatch.setattr(specfun, "integrate_semi_infinite", refuse)
    for cfg, fad, exp in (scenario1(20, 0.1),
                          random_distinct_system(np.random.default_rng(5))):
        value, _, _ = cf._rate_general(cfg, fad.direct_gain(0, 0), exp)
        assert math.isfinite(value) and value > 0.0


def test_closed_rate_runs_no_quadrature(monkeypatch):
    # every Ei-moment kernel comes from its closed recursion, whatever its
    # condition: these calls accept the closed sum without integrating
    def refuse(*args, **kwargs):
        raise AssertionError("the closed rate ran a quadrature")

    monkeypatch.setattr(quadrature, "integrate", refuse)
    for system, method in ((scenario1(100, 0.1), "exact_general"),
                           (distinct_profile(40, 10.0), "exact_distinct")):
        assert cf.rate_exact(*system, 0, 0).method == method


def test_closed_rate_error_estimate_bounds_its_deviation():
    # wherever the guard accepts the closed sum, its propagated error
    # estimate (plus 1e-13 for the product-form arbiter's own error) bounds
    # the distance to the arbiter
    accepted = 0
    for k in (4, 10):
        for a in (0.05, 0.3, 0.5):
            for n in sorted({k + 1, 2 * k, 30, 60, 100}):
                for p_u in (0.1, 1.0, 10.0, 100.0):
                    cfg, fad, exp = scenario1(n, a, p_u=p_u, k=k)
                    value, _, est = cf._rate_general(cfg, 1.0, exp)
                    if not est <= cf._RATE_RELERR_LIMIT:
                        continue
                    accepted += 1
                    ref = cf.rate_by_quadrature(cfg, fad, exp, 0, 0)
                    assert abs(value - ref) <= (est + 1e-13) * ref, \
                        (k, a, n, p_u)
    assert accepted >= 20


def test_infinite_snr_paths_emit_no_runtime_warning():
    # 1/p_u = 0 must not reach log(0) or 0/0 anywhere, at nu = 11 and 36
    mod = cf.ModulationScheme(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n in (20, 45):
            cfg, fad, exp = scenario1(n, 0.1)
            assert 0.0 < cf.ser_high_snr(cfg, fad, exp, mod, 0, 0) < 1.0
            assert 0.0 < cf.outage_small_threshold(cfg, fad, exp, 0, 0,
                                                   1.0) < 1.0
        model = sd.make_sinr_model(cfg, fad, 0, 0)
        assert model.shape == 36
        for s in (0.5, 2.0, 50.0):
            assert 0.0 < sd.mgf_sinr_high_snr(model, s) < 1.0


def test_infinite_snr_is_the_finite_formula_at_infinity():
    cfg, fad, exp = scenario1(20, 0.1)
    cfg_inf = SystemConfig(4, 10, 20, math.inf)
    model = sd.make_sinr_model(cfg, fad, 0, 0)
    model_inf = sd.make_sinr_model(cfg_inf, fad, 0, 0)
    for s in (0.5, 2.0):
        assert sd.mgf_sinr_high_snr(model, s) == sd.mgf_sinr(model_inf, s)
    for gth in (0.5, 2.0):
        assert (cf.outage_small_threshold(cfg, fad, exp, 0, 0, gth)
                == cf.outage_exact(cfg_inf, fad, exp, 0, 0, gth))
    # without interference X/Z diverges: no outage and a zero MGF
    cfg1 = SystemConfig(1, 10, 20, 10.0)
    fad1 = symmetric_fading(1, 10)
    empty = CharacteristicExpansion.empty()
    assert cf.outage_small_threshold(cfg1, fad1, empty, 0, 0, 1.0) == 0.0
    assert sd.mgf_sinr_high_snr(sd.make_sinr_model(cfg1, fad1, 0, 0),
                                1.0) == 0.0


def test_quality_log_thread_safety_contract():
    log = cf.QualityLog()
    assert not log.tripped
    log.flag("event")
    assert log.tripped and log.events == ["event"]
