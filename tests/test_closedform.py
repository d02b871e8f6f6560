import math
import warnings

import numpy as np
import pytest

from mumimo import closedform as cf
from mumimo import sinrdist as sd
from mumimo import specfun
from mumimo.fading import (CharacteristicExpansion, LargeScaleFading,
                           SystemConfig, build_profile,
                           characteristic_coefficients, symmetric_fading)
from mumimo.quadrature import QuadratureSpec, integrate_semi_infinite


def scenario1(n, a, p_u=10.0, cells=4, k=10):
    cfg = SystemConfig(cells, k, n, p_u)
    fad = symmetric_fading(cells, k, 1.0, a)
    exp = characteristic_coefficients(build_profile(cfg, fad, 0))
    return cfg, fad, exp


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


def test_ser_respects_integration_spec():
    mod = cf.ModulationScheme(4)
    cfg, fad, exp = scenario1(15, 0.1)
    spec = QuadratureSpec(relative_tolerance=1e-6, absolute_tolerance=1e-9)
    a = cf.ser_exact(cfg, fad, exp, mod, 0, 0, integration=spec)
    b = cf.ser_exact(cfg, fad, exp, mod, 0, 0)
    np.testing.assert_allclose(a, b, rtol=1e-6)


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


def test_infinite_snr_paths_emit_no_runtime_warning():
    # 1/p_u = 0 must not reach log(0) or 0/0 anywhere; nu = 36 sends the
    # MGF to its quadrature, nu = 11 keeps it on the closed sum
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
