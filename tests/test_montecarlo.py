import math
import threading

import numpy as np
import pytest

from mumimo import closedform as cf
from mumimo import montecarlo as mc
from mumimo import sinrdist as sd
from mumimo.fading import (LargeScaleFading, SystemConfig, build_profile,
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
    # symbol detection goes through the same front end: no minimum-norm
    # least-squares answer for a channel that cannot separate its users
    with pytest.raises(mc.RankDeficiencyError):
        mc._zf_front_end(g)[1](g[..., :1])


def _set_block_trials(monkeypatch, cfg, trials):
    """Patch the block budget to hold `trials` trials of cfg's channels."""
    trial = 16 * cfg.num_cells * cfg.antennas * cfg.users_per_cell
    monkeypatch.setattr(mc, "_BLOCK_BYTES", trials * trial)
    assert mc._block_trials(cfg) == trials


def test_block_budget_holds_whole_trials():
    assert mc._block_trials(SystemConfig(4, 10, 100, 10.0)) == 32
    assert mc._block_trials(SystemConfig(4, 10, 20, 10.0)) == 160
    # a trial larger than the budget still makes a block of its own
    assert mc._block_trials(SystemConfig(4, 10, 4000, 10.0)) == 1


def test_results_independent_of_chunk_schedule(monkeypatch):
    cfg, fad = scenario1(n=12, k=4, cells=2)
    rows = []
    for block in (1, 7, 60):
        _set_block_trials(monkeypatch, cfg, block)
        rows.append(np.concatenate(list(mc.sinr_trials(
            cfg, fad, mc.TrialPlan(60, base_seed=5)))))
    assert np.array_equal(rows[0], rows[1])
    assert np.array_equal(rows[0], rows[2])


def _all_estimates(cfg, fad, plan, gamma_th):
    rows = np.concatenate(list(mc.sinr_trials(cfg, fad, plan)))
    qpsk = cf.ModulationScheme(4)
    return (rows, mc.estimate_rate(cfg, fad, plan),
            mc.estimate_ser(cfg, fad, qpsk, plan),
            mc.estimate_outage(cfg, fad, plan, gamma_th),
            mc.estimate_ser(cfg, fad, qpsk, plan, mode="symbol"))


@pytest.mark.parametrize("n, gamma_th", [(20, 2.0), (100, 28.0)])
def test_results_independent_of_threads_and_block_size(monkeypatch, n,
                                                       gamma_th):
    cfg, fad = scenario1(n=n)
    want = None
    for workers in (1, 2, 3):
        monkeypatch.setattr(mc, "_WORKERS", workers)
        for block in (1, 7, 32, 512):
            _set_block_trials(monkeypatch, cfg, block)
            got = _all_estimates(cfg, fad, mc.TrialPlan(150, base_seed=31),
                                 gamma_th)
            if want is None:
                want = got
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]


# the estimates of the sequential 512-trial chunks that came before the
# block pool, which must not move; the symbol-counting SER (last) is that
# of its own serial trial loop, before it moved onto the block map
PINNED_ESTIMATES = {
    20: ("Estimate(value=2.162486500061064, std_error=0.0065896273590413685,"
         " num_trials=600)",
         "Estimate(value=0.07162838977401365, std_error=0.0008213827560437436,"
         " num_trials=600)",
         "Estimate(value=0.07083333333333333, std_error=0.003847244362615902,"
         " num_trials=600)",
         "Estimate(value=0.06849999999999999,"
         " std_error=0.0035755032801239274, num_trials=600)"),
    100: ("Estimate(value=4.936603508121262, std_error=0.0060022618566274305,"
          " num_trials=200)",
          "Estimate(value=9.939187028987039e-07,"
          " std_error=1.6509452231319355e-07, num_trials=200)",
          "Estimate(value=0.38400000000000006,"
          " std_error=0.010690718277385863, num_trials=200)",
          "Estimate(value=0.0, std_error=0.0, num_trials=200)"),
}


@pytest.mark.parametrize("n, trials, gamma_th", [(20, 600, 2.0),
                                                 (100, 200, 28.0)])
def test_estimates_pinned_at_scenario_1(n, trials, gamma_th):
    cfg, fad = scenario1(n=n)
    plan = mc.TrialPlan(trials, base_seed=2012)
    got = _all_estimates(cfg, fad, plan, gamma_th)[1:]
    assert tuple(map(repr, got)) == PINNED_ESTIMATES[n]


def test_closing_sinr_trials_early_stops_its_threads(monkeypatch):
    monkeypatch.setattr(mc, "_WORKERS", 2)
    cfg, fad = scenario1(n=12, k=4, cells=2)
    _set_block_trials(monkeypatch, cfg, 8)
    before = threading.active_count()
    trials = mc.sinr_trials(cfg, fad, mc.TrialPlan(640))
    assert next(trials).shape == (8, 4)
    trials.close()
    assert threading.active_count() == before


def test_sinr_trial_rows_are_single_realizations(monkeypatch):
    cfg, fad = scenario1(n=12, k=4, cells=3)
    _set_block_trials(monkeypatch, cfg, 4)
    rows = np.concatenate(list(mc.sinr_trials(
        cfg, fad, mc.TrialPlan(9, base_seed=21))))
    for t, row in enumerate(rows):
        one = mc.sample_channels(cfg, fad, 0, mc.trial_rng(21, t))
        assert np.array_equal(row, mc.zf_sinr(one, cfg.transmit_snr))


def test_cn_draw_is_the_paired_normal_formula():
    # unit gains: the channels are the CN(0, 1) draws themselves
    cfg, fad = SystemConfig(3, 5, 6, 10.0), symmetric_fading(3, 5, 1.0, 1.0)
    h = mc.trial_rng(4, 2).standard_normal((3, 6, 5, 2))
    want = (h[..., 0] + 1j * h[..., 1]) / math.sqrt(2.0)
    got = mc.sample_channels(cfg, fad, 1, mc.trial_rng(4, 2)).g
    assert np.array_equal(got, want)


def _philox_state(rng):
    st = rng.bit_generator.state
    return ([st["state"][k].tolist() for k in ("counter", "key")]
            + [st["buffer"].tolist()]
            + [st[k] for k in ("buffer_pos", "has_uint32", "uinteger")])


@pytest.mark.parametrize("seed, trial", [(0, 0), (21, 5), (-3, -1),
                                         (2 ** 70, 2 ** 64 + 7)])
def test_rekey_restarts_the_trial_stream(seed, trial):
    streams = mc._trial_streams(seed, range(trial - 1, trial + 1))
    rng = next(streams)
    assert _philox_state(rng) == _philox_state(mc.trial_rng(seed, trial - 1))
    rng.integers(0, 7, size=3, dtype=np.uint32)  # leave a buffered half word
    rng = next(streams)
    fresh = mc.trial_rng(seed, trial)
    assert _philox_state(rng) == _philox_state(fresh)
    assert np.array_equal(rng.standard_normal(5), fresh.standard_normal(5))


@pytest.mark.parametrize("home_cell, user", [(-1, None), (4, None),
                                             (0, -1), (0, 10)])
def test_estimators_reject_indices_outside_the_system(home_cell, user):
    # a negative home cell used to count itself as an interferer (rate
    # 0.819 against 2.146 at home_cell=3), and user=-1 read user K-1
    cfg, fad = scenario1()
    plan = mc.TrialPlan(64, base_seed=1)
    qpsk = cf.ModulationScheme(4)
    calls = [lambda: mc.estimate_rate(cfg, fad, plan, home_cell, user),
             lambda: mc.estimate_outage(cfg, fad, plan, 2.0, home_cell, user),
             lambda: mc.estimate_ser(cfg, fad, qpsk, plan, home_cell,
                                     user=user),
             lambda: mc.estimate_ser(cfg, fad, qpsk, plan, home_cell,
                                     mode="symbol", user=user)]
    if user is None:
        calls.append(lambda: mc.sinr_trials(cfg, fad, plan, home_cell))
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("home_cell", [-1, 2])
def test_zf_sinr_rejects_a_home_cell_outside_the_realization(home_cell):
    cfg, fad = scenario1(n=8, k=3, cells=2)
    g = mc.sample_channels(cfg, fad, 0, mc.trial_rng(2, 0)).g
    with pytest.raises(ValueError):
        mc.zf_sinr(mc.ChannelRealization(home_cell, g), cfg.transmit_snr)


def _every_entry(cfg, fad):
    """Every Monte Carlo entry point on (cfg, fad), as calls."""
    plan = mc.TrialPlan(64, base_seed=1)
    qpsk = cf.ModulationScheme(4)
    return [lambda: mc.sample_channels(cfg, fad, 0, mc.trial_rng(1, 0)),
            lambda: mc.sinr_trials(cfg, fad, plan),
            lambda: mc.estimate_rate(cfg, fad, plan),
            lambda: mc.estimate_outage(cfg, fad, plan, 2.0),
            lambda: mc.estimate_ser(cfg, fad, qpsk, plan),
            lambda: mc.estimate_ser(cfg, fad, qpsk, plan, mode="symbol")]


@pytest.mark.parametrize("shape", [(1, 1, 1), (4, 4, 5), (2, 2, 10)])
def test_monte_carlo_checks_the_fading_tensor_against_the_config(shape):
    # a (1, 1, 1) tensor used to broadcast: estimate_rate gave 0.4658 and
    # the symbol-counting SER 0.51875 at (L, K, N) = (4, 10, 20)
    fad = LargeScaleFading(np.ones(shape))
    for call in _every_entry(SystemConfig(4, 10, 20, 10.0), fad):
        with pytest.raises(ValueError, match="fading tensor"):
            call()


def test_monte_carlo_rejects_an_infinite_transmit_snr():
    # every SINR was inf/inf = NaN: the rate and the semi-analytic SER gave
    # NaN, the outage 0.0 and the symbol-counting SER 1.0
    for call in _every_entry(*scenario1(p_u=math.inf)):
        with pytest.raises(ValueError, match="transmit_snr"):
            call()


def test_estimate_outage_rejects_a_nan_threshold():
    cfg, fad = scenario1()
    with pytest.raises(ValueError):
        mc.estimate_outage(cfg, fad, mc.TrialPlan(64, base_seed=1), math.nan)


def _zf_sinr_einsum(g, home_cell, p_u):
    """ZF SINR of a (T, L, N, K) batch from einsum products: noise
    [(G^H G)^-1]_kk, interference the squared row norms of
    (G^H G)^-1 G^H G_i summed over the other cells."""
    gh = g[:, home_cell]
    inv = np.linalg.inv(np.einsum("tnk,tnj->tkj", gh.conj(), gh))
    noise = np.einsum("tkk->tk", inv).real
    interf = np.zeros_like(noise)
    for i in range(g.shape[1]):
        if i != home_cell:
            rows = inv @ np.einsum("tnk,tnj->tkj", gh.conj(), g[:, i])
            interf += (rows.real ** 2 + rows.imag ** 2).sum(axis=2)
    return p_u / (p_u * interf + noise)


@pytest.mark.parametrize("cells", [1, 3])
def test_zf_batch_matches_einsum_formula(cells):
    home, p_u = cells // 2, 3.0
    cfg = SystemConfig(cells, 4, 10, p_u)
    fad = symmetric_fading(cells, 4, 1.0, 0.2)
    g = np.stack([mc.sample_channels(cfg, fad, home, mc.trial_rng(8, t)).g
                  for t in range(12)])
    # trial 5: two nearly parallel users, past the Gram condition gate
    g[5, home, :, 1] = g[5, home, :, 0] + 1e-9 * g[5, home, :, 2]
    gram = g[5, home].conj().T @ g[5, home]
    assert np.linalg.cond(gram, 1) > mc._COND_GATE
    got = mc._zf_sinr_batch(g, home, p_u)
    good = np.arange(12) != 5
    np.testing.assert_allclose(got[good],
                               _zf_sinr_einsum(g[good], home, p_u),
                               rtol=1e-12, atol=0)
    # trial 5 takes the QR pseudo-inverse, for the SINR and for detection
    noise, pinv = mc._qr_pinv(g[5:6, home])
    rows = [pinv[0] @ g[5, i] for i in range(cells) if i != home]
    interf = sum((v.real ** 2 + v.imag ** 2).sum(axis=1) for v in rows)
    assert np.array_equal(got[5], p_u / (p_u * interf + noise[0]))
    # trial 7: user 3 is 1e-8 weaker, past the gate too but well posed;
    # trial 5's users 0, 1 and 2 are dependent to rounding (smallest
    # singular value 4.5e-17 of the largest), where lstsq's minimum-norm
    # answer is another solution than the QR one
    g[7, home, :, 3] *= 1e-8
    gram = g[7, home].conj().T @ g[7, home]
    assert np.linalg.cond(gram, 1) > mc._COND_GATE
    y = mc.trial_rng(9, 0).standard_normal((12, 10, 2)).view(complex)
    r = mc._zf_front_end(g[:, home])[1](y)[..., 0]
    for t in (5, 7):
        assert np.array_equal(r[t], mc._qr_pinv(g[t:t + 1, home])[1][0]
                              @ y[t, :, 0])
    solvable = np.arange(12) != 5
    want = [np.linalg.lstsq(g[t, home], y[t, :, 0], rcond=None)[0]
            for t in np.flatnonzero(solvable)]
    np.testing.assert_allclose(r[solvable], want, rtol=1e-12, atol=0)


def test_matrix_sinr_matches_model_distribution():
    cfg, fad = scenario1()
    plan = mc.TrialPlan(10_000, base_seed=11)
    matrix = np.concatenate([g[:, 0] for g in mc.sinr_trials(cfg, fad, plan)])
    model = sd.make_sinr_model(cfg, fad, 0, 0)
    direct = sd.sample_sinr(model, np.random.default_rng(123), size=10_000)
    stat = mc.ks_two_sample(matrix, direct)
    assert stat < mc.ks_two_sample_critical(matrix.size, direct.size)


def test_mean_sinr_matches_model_sampling():
    cfg, fad = scenario1()
    plan = mc.TrialPlan(20_000, base_seed=17)
    matrix = np.concatenate([g.ravel()
                             for g in mc.sinr_trials(cfg, fad, plan)])
    model = sd.make_sinr_model(cfg, fad, 0, 0)
    direct = sd.sample_sinr(model, np.random.default_rng(31), size=200_000)
    np.testing.assert_allclose(matrix.mean(), direct.mean(), rtol=0.01)


def test_estimate_rate_matches_closed_form():
    cfg, fad = scenario1()
    exp = build_profile(cfg, fad, 0)
    exact = cf.rate_exact(cfg, fad, exp, 0, 0).value
    est = mc.estimate_rate(cfg, fad,
                           mc.TrialPlan(10_000, base_seed=2))
    assert est.agrees_with(exact, num_sigma=3.0)


def test_estimate_rate_single_cell_vs_quadrature():
    # L = 1, N = K: rate of log2(1 + p_u X) with X exponential
    cfg = SystemConfig(1, 4, 4, 5.0)
    fad = symmetric_fading(1, 4)
    from mumimo.specfun import expint_en_scaled
    want = expint_en_scaled(1, 1.0 / 5.0) / math.log(2.0)
    est = mc.estimate_rate(cfg, fad,
                           mc.TrialPlan(20_000, base_seed=6))
    assert est.agrees_with(want, num_sigma=3.0)


def test_estimate_rate_small_power_first_order():
    # rate -> p_u E{X} log2(e) to first order as p_u -> 0
    p_u = 1e-4
    cfg = SystemConfig(2, 3, 8, p_u)
    fad = symmetric_fading(2, 3, 1.0, 0.1)
    est = mc.estimate_rate(cfg, fad, mc.TrialPlan(4000, base_seed=13))
    first_order = p_u * 6 * 1.0 / math.log(2.0)  # E X = (N-K+1) beta
    assert abs(est.value / first_order - 1.0) < 0.02


def test_estimate_outage_monotone_in_threshold():
    cfg, fad = scenario1(n=12, k=4, cells=2)
    plan = mc.TrialPlan(3000, base_seed=19)
    vals = [mc.estimate_outage(cfg, fad, plan, gth).value
            for gth in (1.0, 3.0, 9.0)]
    assert vals[0] <= vals[1] <= vals[2]


def test_estimate_ser_semi_analytic_vs_closed_form():
    cfg, fad = scenario1()
    exp = build_profile(cfg, fad, 0)
    mod = cf.ModulationScheme(4)
    ser = cf.ser_exact(cfg, fad, exp, mod, 0, 0)
    est = mc.estimate_ser(cfg, fad, mod,
                          mc.TrialPlan(10_000, base_seed=3))
    assert abs(est.value - ser) / ser < 0.02


def test_symbol_mode_agrees_with_semi_analytic():
    cfg, fad = scenario1()
    mod = cf.ModulationScheme(4)
    plan = mc.TrialPlan(4000, base_seed=3)
    semi = mc.estimate_ser(cfg, fad, mod, plan)
    sym = mc.estimate_ser(cfg, fad, mod, plan, mode="symbol")
    sigma = math.hypot(semi.std_error, sym.std_error)
    assert abs(semi.value - sym.value) <= 3.0 * sigma
    with pytest.raises(ValueError):
        mc.estimate_ser(cfg, fad, mod, plan, mode="bogus")


@pytest.mark.parametrize("mode", ["semi_analytic", "symbol"])
def test_one_user_ser_estimates_average_to_the_pooled_one(mode):
    # own gains 1, 0.5, 0.1: the users' SERs differ, and their mean over
    # the same trials is the estimate that pools users
    beta = np.full((2, 2, 3), 0.1)
    beta[0, 0] = beta[1, 1] = (1.0, 0.5, 0.1)
    cfg, fad = SystemConfig(2, 3, 6, 10.0), LargeScaleFading(beta)
    mod = cf.ModulationScheme(4)
    plan = mc.TrialPlan(400, base_seed=5)
    pooled = mc.estimate_ser(cfg, fad, mod, plan, mode=mode)
    each = [mc.estimate_ser(cfg, fad, mod, plan, mode=mode, user=k)
            for k in range(3)]
    assert each[0].value < each[2].value
    np.testing.assert_allclose(np.mean([e.value for e in each]),
                               pooled.value, rtol=1e-12)


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
    exp = build_profile(cfg, fad, 0)
    want = cf.outage_exact(cfg, fad, exp, 0, 0, 3.0)
    est = mc.estimate_outage(cfg, fad,
                             mc.TrialPlan(10_000, base_seed=4), 3.0)
    assert abs(est.value - want) < 0.01
    zero = mc.estimate_outage(cfg, fad,
                              mc.TrialPlan(200, base_seed=4), 0.0)
    assert zero.value == 0.0


def test_standard_error_scaling():
    # quadrupling the trials roughly halves the standard error
    cfg, fad = scenario1(n=12, k=4, cells=2)
    small = mc.estimate_rate(cfg, fad, mc.TrialPlan(2000, base_seed=9))
    large = mc.estimate_rate(cfg, fad, mc.TrialPlan(8000, base_seed=9))
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
