import math

import numpy as np
import pytest

from mumimo import closedform as cf
from mumimo import montecarlo as mc
from mumimo import sinrdist as sd
from mumimo.fading import (LargeScaleFading, SystemConfig,
                           build_profile, characteristic_coefficients,
                           symmetric_fading)


def scenario1(n=20, k=10, cells=4, a=0.1, p_u=10.0):
    cfg = SystemConfig(cells, k, n, p_u)
    fad = symmetric_fading(cells, k, 1.0, a)
    return cfg, fad


def test_fixed_seed_gives_bit_identical_realizations():
    cfg, fad = scenario1()
    r1 = mc.sample_channels(cfg, fad, 0, mc.trial_rng(42, 7))
    r2 = mc.sample_channels(cfg, fad, 0, mc.trial_rng(42, 7))
    assert np.array_equal(r1.g, r2.g)
    r3 = mc.sample_channels(cfg, fad, 0, mc.trial_rng(42, 8))
    assert not np.array_equal(r1.g, r3.g)


def test_channel_second_moment_matches_gains():
    cfg, fad = scenario1(n=8, k=2, cells=3)
    acc = np.zeros((3, 2))
    trials = 3000
    for t in range(trials):
        r = mc.sample_channels(cfg, fad, 0, mc.trial_rng(1, t))
        acc += (np.abs(r.g) ** 2).mean(axis=1)
    acc /= trials
    np.testing.assert_allclose(acc, fad.beta[0], rtol=0.05)


def test_home_channel_full_rank_in_all_trials():
    cfg, fad = scenario1(n=12, k=10)
    for t in range(50):
        r = mc.sample_channels(cfg, fad, 0, mc.trial_rng(5, t))
        gram = r.g[0].conj().T @ r.g[0]
        assert np.linalg.det(gram).real > 0


def test_single_user_single_cell_identity():
    cfg = SystemConfig(1, 1, 4, 2.0)
    fad = symmetric_fading(1, 1)
    r = mc.sample_channels(cfg, fad, 0, mc.trial_rng(3, 0))
    want = 2.0 * np.linalg.norm(r.g[0][:, 0]) ** 2
    np.testing.assert_allclose(mc.zf_sinr(r, 2.0)[0], want, rtol=1e-12)


def test_sinr_invariant_under_unitary_rotation():
    cfg, fad = scenario1(n=8, k=3, cells=2)
    r = mc.sample_channels(cfg, fad, 0, mc.trial_rng(11, 0))
    rng = np.random.default_rng(5)
    z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    q, _ = np.linalg.qr(z)
    rotated = mc.ChannelRealization(0, np.einsum("mn,ink->imk", q, r.g))
    np.testing.assert_allclose(mc.zf_sinr(rotated, cfg.transmit_snr),
                               mc.zf_sinr(r, cfg.transmit_snr), rtol=1e-9)


def test_rank_deficient_channel_raises():
    cfg = SystemConfig(1, 2, 4, 1.0)
    rng = mc.trial_rng(0, 0)
    col = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    g = np.concatenate([col, col], axis=1)[None]  # duplicated column
    with pytest.raises(mc.RankDeficiencyError):
        mc.zf_sinr(mc.ChannelRealization(0, g), 1.0)


def test_results_independent_of_chunk_schedule():
    cfg, fad = scenario1(n=12, k=4, cells=2)
    a = np.concatenate(list(mc.sinr_trials(
        cfg, fad, mc.TrialPlan(60, base_seed=5, batch_size=7))))
    b = np.concatenate(list(mc.sinr_trials(
        cfg, fad, mc.TrialPlan(60, base_seed=5, batch_size=60))))
    assert np.array_equal(a, b)


def test_matrix_sinr_matches_model_distribution():
    cfg, fad = scenario1()
    plan = mc.TrialPlan(10_000, base_seed=11, batch_size=1000)
    matrix = np.concatenate([g[:, 0] for g in mc.sinr_trials(cfg, fad, plan)])
    model = sd.make_sinr_model(cfg, fad, 0, 0)
    direct = sd.sample_sinr(model, np.random.default_rng(123), size=10_000)
    stat = mc.ks_two_sample(matrix, direct)
    assert stat < mc.ks_two_sample_critical(matrix.size, direct.size)


def test_mean_sinr_matches_model_sampling():
    cfg, fad = scenario1()
    plan = mc.TrialPlan(20_000, base_seed=17, batch_size=2000)
    matrix = np.concatenate([g.ravel()
                             for g in mc.sinr_trials(cfg, fad, plan)])
    model = sd.make_sinr_model(cfg, fad, 0, 0)
    direct = sd.sample_sinr(model, np.random.default_rng(31), size=200_000)
    np.testing.assert_allclose(matrix.mean(), direct.mean(), rtol=0.01)


def test_estimate_rate_matches_closed_form():
    cfg, fad = scenario1()
    exp = characteristic_coefficients(build_profile(cfg, fad, 0))
    exact = cf.rate_exact(cfg, fad, exp, 0, 0).value
    est = mc.estimate_rate(cfg, fad,
                           mc.TrialPlan(10_000, base_seed=2,
                                        batch_size=1000))
    assert est.agrees_with(exact, num_sigma=3.0)


def test_estimate_rate_single_cell_vs_quadrature():
    # L = 1, N = K: rate of log2(1 + p_u X) with X exponential
    cfg = SystemConfig(1, 4, 4, 5.0)
    fad = symmetric_fading(1, 4)
    from mumimo.specfun import expint_en_scaled
    want = expint_en_scaled(1, 1.0 / 5.0) / math.log(2.0)
    est = mc.estimate_rate(cfg, fad,
                           mc.TrialPlan(20_000, base_seed=6,
                                        batch_size=2000))
    assert est.agrees_with(want, num_sigma=3.0)


def test_estimate_rate_small_power_first_order():
    # rate -> p_u E{X} log2(e) to first order as p_u -> 0
    p_u = 1e-4
    cfg = SystemConfig(2, 3, 8, p_u)
    fad = symmetric_fading(2, 3, 1.0, 0.1)
    est = mc.estimate_rate(cfg, fad, mc.TrialPlan(4000, base_seed=13,
                                                  batch_size=1000))
    first_order = p_u * 6 * 1.0 / math.log(2.0)  # E X = (N-K+1) beta
    assert abs(est.value / first_order - 1.0) < 0.02


def test_estimate_outage_monotone_in_threshold():
    cfg, fad = scenario1(n=12, k=4, cells=2)
    plan = mc.TrialPlan(3000, base_seed=19, batch_size=1000)
    vals = [mc.estimate_outage(cfg, fad, plan, gth).value
            for gth in (1.0, 3.0, 9.0)]
    assert vals[0] <= vals[1] <= vals[2]


def test_estimate_ser_semi_analytic_vs_closed_form():
    cfg, fad = scenario1()
    exp = characteristic_coefficients(build_profile(cfg, fad, 0))
    mod = cf.ModulationScheme(4)
    ser = cf.ser_exact(cfg, fad, exp, mod, 0, 0)
    est = mc.estimate_ser(cfg, fad, mod,
                          mc.TrialPlan(10_000, base_seed=3, batch_size=1000))
    assert abs(est.value - ser) / ser < 0.02


def test_symbol_mode_agrees_with_semi_analytic():
    cfg, fad = scenario1()
    mod = cf.ModulationScheme(4)
    plan = mc.TrialPlan(4000, base_seed=3, batch_size=500)
    semi = mc.estimate_ser(cfg, fad, mod, plan)
    sym = mc.estimate_ser(cfg, fad, mod, plan, mode="symbol")
    sigma = math.hypot(semi.std_error, sym.std_error)
    assert abs(semi.value - sym.value) <= 3.0 * sigma
    with pytest.raises(ValueError):
        mc.estimate_ser(cfg, fad, mod, plan, mode="bogus")


def test_zero_sinr_conditional_ser_is_uniform_guess():
    mod = cf.ModulationScheme(4)
    val = mc._conditional_psk_ser(np.array([0.0]), mod)[0]
    np.testing.assert_allclose(val, 0.75, rtol=1e-6)


def test_conditional_ser_matches_qpsk_closed_form():
    # QPSK: (1/pi) int_0^{3pi/4} exp(-gamma / (2 sin^2 theta)) dtheta
    # = 2Q(sqrt(gamma)) - Q(sqrt(gamma))^2, down to gamma = 1e-6 (-60 dB)
    mod = cf.ModulationScheme(4)
    gamma = np.array([0.0, 1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0])
    q = np.array([0.5 * math.erfc(math.sqrt(v / 2.0)) for v in gamma])
    np.testing.assert_allclose(mc._conditional_psk_ser(gamma, mod),
                               2.0 * q - q * q, rtol=1e-12, atol=1e-10)


def test_estimate_outage_matches_closed_form():
    cfg, fad = scenario1()
    exp = characteristic_coefficients(build_profile(cfg, fad, 0))
    want = cf.outage_exact(cfg, fad, exp, 0, 0, 3.0)
    est = mc.estimate_outage(cfg, fad,
                             mc.TrialPlan(10_000, base_seed=4,
                                          batch_size=1000), 3.0)
    assert abs(est.value - want) < 0.01
    zero = mc.estimate_outage(cfg, fad,
                              mc.TrialPlan(200, base_seed=4), 0.0)
    assert zero.value == 0.0


def test_standard_error_scaling():
    # quadrupling the trials roughly halves the standard error
    cfg, fad = scenario1(n=12, k=4, cells=2)
    small = mc.estimate_rate(cfg, fad, mc.TrialPlan(2000, base_seed=9,
                                                    batch_size=500))
    large = mc.estimate_rate(cfg, fad, mc.TrialPlan(8000, base_seed=9,
                                                    batch_size=500))
    ratio = small.std_error / large.std_error
    assert 1.6 < ratio < 2.5


def test_ks_helpers():
    rng = np.random.default_rng(0)
    a = rng.normal(size=4000)
    b = rng.normal(size=4000)
    assert mc.ks_two_sample(a, b) < mc.ks_two_sample_critical(4000, 4000)
    shifted = b + 0.5
    assert mc.ks_two_sample(a, shifted) > mc.ks_two_sample_critical(4000,
                                                                    4000)
