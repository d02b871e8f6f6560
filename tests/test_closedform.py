import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mumimo import closedform as cf
from mumimo import sinrdist as sd
from mumimo import quadrature, specfun
from mumimo.fading import (CharacteristicExpansion, LargeScaleFading,
                           SystemConfig, build_profile,
                           characteristic_coefficients, symmetric_fading)
from mumimo.quadrature import (QuadratureSpec, integrate,
                               integrate_semi_infinite)
from test_sinrdist import mgf_closed


def scenario1(n, a, p_u=10.0, cells=4, k=10):
    cfg = SystemConfig(cells, k, n, p_u)
    fad = symmetric_fading(cells, k, 1.0, a)
    exp = characteristic_coefficients(build_profile(cfg, fad, 0))
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
    exp = characteristic_coefficients(build_profile(cfg, fad, 0))
    return cfg, fad, exp


def distinct_profile(n, p_u):
    """L=3, K=4 with the 8 cross gains geometric in [0.05, 0.5]."""
    return profile_system(3, 4, 0.05 * 10 ** (np.arange(8) / 7), n, p_u)


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
    exp = characteristic_coefficients(build_profile(cfg, fad, 0))
    return cfg, fad, exp


def rate_2d_quadrature(cfg, fad, user, cell, rtol=1e-8):
    """Nested 2-D quadrature of E log2(1 + p_u x / (p_u z + 1)) against
    pdf_x pdf_z: the defining integral, fully numeric on both axes."""
    model = sd.make_sinr_model(cfg, fad, user, cell)
    p_u = cfg.transmit_snr
    x_scale = model.desired.shape * model.desired.scale
    inner_spec = QuadratureSpec(relative_tolerance=rtol / 10,
                                absolute_tolerance=1e-14)
    outer_spec = QuadratureSpec(relative_tolerance=rtol,
                                absolute_tolerance=1e-13)

    def inner(z):
        denom = p_u * z + 1.0
        return integrate_semi_infinite(
            lambda x: math.log1p(p_u * x / denom)
            * sd.pdf_x(model.desired, x), 0.0, inner_spec, scale=x_scale)

    if model.interference.is_zero:
        return inner(0.0) / math.log(2.0)
    z_scale = max(model.interference.mean, 0.1)
    val = integrate_semi_infinite(
        lambda z: inner(z) * sd.pdf_z(model.interference, z), 0.0,
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
    # fallback must still sample it; the rate lies between the Jensen bound
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


def test_cell_sum_rate_symmetric_shortcut():
    cfg, fad, exp = scenario1(20, 0.1)
    total = cf.cell_sum_rate(cfg, fad, 0, exp)
    single = cf.rate_exact(cfg, fad, exp, 0, 0).value
    np.testing.assert_allclose(total, 10 * single, rtol=1e-12)
    # the log goes to the exact rate only; the bound has no fallback
    bound = cf.cell_sum_rate(cfg, fad, 0, exp, method="bound",
                             quality=cf.QualityLog())
    assert bound == 10 * cf.rate_lower_bound(cfg, fad, exp, 0, 0).value


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
    terms = sum(1 for _, _, chi in exp.terms_hi() if chi != 0.0)
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


def test_ser_runs_one_integral_and_no_mgf_sinr(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an SER call evaluated the MGF node by node")

    for module, name in ((sd, "mgf_sinr"), (sd, "mgf_sinr_high_snr"),
                         (sd, "hyp2f0_neg"), (sd, "expint_en_scaled"),
                         (cf, "mgf_sinr"), (cf, "mgf_sinr_high_snr")):
        monkeypatch.setattr(module, name, refuse)
    calls = []
    plain = quadrature.integrate

    def counted(*args, **kwargs):
        calls.append(1)
        return plain(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", counted)
    mod = cf.ModulationScheme(4)
    for system in (scenario1(20, 0.1), distinct_profile(16, 10.0)):
        for fn in (cf.ser_exact, cf.ser_high_snr, cf.ser_approx):
            calls.clear()
            assert 0.0 < fn(*system, mod, 0, 0) < 1.0
            assert len(calls) == 1, fn.__name__


def test_ser_on_a_wide_gain_profile_matches_monte_carlo():
    # 30 cross gains geometric in [0.01, 0.9] (N=20, 10 dB), where the
    # closed MGF is ill-conditioned; semi-analytic Monte Carlo with the
    # QPSK conditional SER 2Q(sqrt(gamma)) - Q(sqrt(gamma))^2, which does
    # not use the theta rule
    cfg, fad, exp = profile_system(4, 10, 0.01 * 90 ** (np.arange(30) / 29),
                                   20, 10.0)
    got = cf.ser_exact(cfg, fad, exp, cf.ModulationScheme(4), 0, 0)
    model = sd.make_sinr_model(cfg, fad, 0, 0, expansion=exp)
    gamma = sd.sample_sinr(model, np.random.default_rng(2012), size=200_000)
    q = 0.5 * np.vectorize(math.erfc)(np.sqrt(gamma / 2.0))
    cond = 2.0 * q - q * q
    sigma = cond.std(ddof=1) / math.sqrt(cond.size)
    assert abs(got - cond.mean()) <= 5.0 * sigma


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
    cfg, fad, exp = scenario1(20, 0.1)
    model = sd.make_sinr_model(cfg, fad, 0, 0, expansion=exp)
    for gth in (0.5, 1.0, 3.0, 6.0):
        np.testing.assert_allclose(
            cf.outage_exact(cfg, fad, exp, 0, 0, gth),
            sd.sinr_cdf_quadrature(model, gth), atol=1e-10)


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


def test_outage_no_interference_is_erlang_cdf():
    cfg = SystemConfig(1, 4, 8, 2.0)
    fad = symmetric_fading(1, 4)
    got = cf.outage_exact(cfg, fad, CharacteristicExpansion.empty(), 0, 0,
                          1.0)
    want = sd.cdf_x(sd.DesiredPowerDist(5, 1.0), 0.5)
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
    # estimate (plus the arbiter's own 1e-9 tolerance) bounds the distance
    # to the quadrature arbiter
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
                    assert abs(value - ref) <= (est + 2e-9) * ref, \
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
        assert model.desired.shape == 36
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
