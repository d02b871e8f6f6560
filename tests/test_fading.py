import math

import numpy as np
import pytest

from mumimo import asymptotic as asym
from mumimo import closedform as cf
from mumimo import sinrdist as sd
from mumimo.fading import (CharacteristicExpansion, LargeScaleFading,
                           SystemConfig, build_profile,
                           characteristic_coefficients, load_fading_text,
                           save_fading_text, symmetric_fading)


def test_system_config_invariants():
    with pytest.raises(ValueError):
        SystemConfig(4, 10, 9, 1.0)   # N < K
    with pytest.raises(ValueError):
        SystemConfig(0, 10, 20, 1.0)
    with pytest.raises(ValueError):
        SystemConfig(4, 10, 20, 0.0)
    assert SystemConfig(4, 10, 20, 1.0).zf_shape == 11


@pytest.mark.parametrize("p_u", [float("nan"), 0.0, -1.0])
def test_system_config_rejects_a_nan_or_non_positive_transmit_snr(p_u):
    # NaN passed a `p_u <= 0` check, and every metric then computed with it
    with pytest.raises(ValueError, match="transmit_snr"):
        SystemConfig(4, 10, 20, p_u)
    assert SystemConfig(4, 10, 20, float("inf")).transmit_snr == float("inf")


def test_fading_tensor_validation():
    with pytest.raises(ValueError):
        LargeScaleFading(np.ones((2, 3, 4)))
    with pytest.raises(ValueError):
        LargeScaleFading(np.zeros((2, 2, 3)))


def test_symmetric_profile_single_eigenvalue():
    cfg = SystemConfig(4, 10, 10, 10.0)
    fad = symmetric_fading(4, 10, 1.0, 0.1)
    law = build_profile(cfg, fad, 0)
    np.testing.assert_array_equal(law.mu, [0.1])
    np.testing.assert_array_equal(law.tau, [30])


def test_single_cell_profile_is_empty():
    # L = 1 is the empty law, and every metric takes it as "no interference"
    cfg = SystemConfig(1, 4, 8, 10.0)
    fad = symmetric_fading(1, 4)
    law = build_profile(cfg, fad, 0)
    assert law.is_empty and law.rates().size == 0
    assert characteristic_coefficients(law) is law
    rate = cf.rate_exact(cfg, fad, law, 0, 0)
    assert rate.method == "exact_general" and rate.value > 0
    bound = cf.rate_lower_bound(cfg, fad, law, 0, 0).value
    assert 0 < bound <= rate.value
    assert 0 < cf.ser_exact(cfg, fad, law, cf.ModulationScheme(4), 0, 0) < 1
    assert 0 < cf.outage_exact(cfg, fad, law, 0, 0, 1.0) < 1


@pytest.mark.parametrize("mu,tau", [
    ([0.3], [1.5]),         # chi truncated tau to 1: rate 3.2237, not 2.8014
    ([0.3], [0]),           # raised IndexError
    ([0.3], [-1]),
    ([0.1, 0.2], [1, 1]),   # increasing: warned "nearly degenerate"
    ([0.2, 0.2], [1, 1]),
    ([0.2, 0.2 * (1 - 1e-13)], [1, 1]),  # one eigenvalue within CLUSTER_TOL
    ([0.3, -0.1], [1, 1]),
    ([np.inf], [1]),
    ([np.nan], [1]),
    ([0.3, 0.1], [1]),
    ([[0.3]], [[1]]),
], ids=["fractional-tau", "zero-tau", "negative-tau", "increasing", "equal",
        "within-cluster-tol", "negative-mu", "inf-mu", "nan-mu",
        "length-mismatch", "2-d"])
def test_malformed_law_raises(mu, tau):
    with pytest.raises(ValueError):
        CharacteristicExpansion(np.array(mu), np.array(tau))


def test_build_profile_checks_config_against_the_tensor():
    fad = symmetric_fading(4, 10, 1.0, 0.1)
    # the (L, K) = (2, 10) config silently gave tau = [10] and a Jensen bound
    # of 3.453 against 2.151 for the matching config
    for cfg in (SystemConfig(2, 10, 20, 10.0), SystemConfig(4, 5, 20, 10.0)):
        with pytest.raises(ValueError, match="fading tensor"):
            build_profile(cfg, fad, 0)
    for cell in (-1, 4):
        with pytest.raises(ValueError, match="home_cell"):
            build_profile(SystemConfig(4, 10, 20, 10.0), fad, cell)


def test_grouping_of_repeated_gains():
    # cross gains {0.1, 0.2, 0.2, 0.3} -> mu (0.3, 0.2, 0.1), tau (1, 2, 1)
    beta = np.ones((2, 2, 4))
    beta[0, 1, :] = [0.1, 0.2, 0.2, 0.3]
    prof = build_profile(SystemConfig(2, 4, 8, 1.0), LargeScaleFading(beta),
                         0)
    np.testing.assert_allclose(prof.mu, [0.3, 0.2, 0.1])
    np.testing.assert_array_equal(prof.tau, [1, 2, 1])


@pytest.mark.parametrize("cell,user", [(0, -1), (0, 10), (-1, 0), (4, 0)],
                         ids=["user-1", "user-K", "cell-1", "cell-L"])
def test_indices_outside_the_system_raise(cell, user):
    # user -1 read user K-1's gain and gave its rate, bound, outage and SER;
    # cell -1 gave a deterministic SIR of 0.833 where cell 0 gives 10; user
    # K raised IndexError
    cfg = SystemConfig(4, 10, 20, 10.0)
    fad = symmetric_fading(4, 10, 1.0, 0.1)
    law = build_profile(cfg, fad, 0)
    mod = cf.ModulationScheme(4)
    calls = [
        lambda: fad.direct_gain(cell, user),
        lambda: cf.rate_exact(cfg, fad, law, user, cell),
        lambda: cf.rate_by_quadrature(cfg, fad, law, user, cell),
        lambda: cf.rate_lower_bound(cfg, fad, law, user, cell),
        lambda: cf.ser_exact(cfg, fad, law, mod, user, cell),
        lambda: cf.outage_exact(cfg, fad, law, user, cell, 1.0),
        lambda: cf.outage_exact(cfg, fad, law, user, cell, math.inf),
        lambda: cf.log_outage_exact(cfg, fad, law, user, cell, 0.0),
        lambda: sd.make_sinr_model(cfg, fad, user, cell, expansion=law),
        lambda: asym.deterministic_sir(fad, cell, user, 2.0),
        lambda: asym.power_scaled_limit_rate(fad, cell, user, 10.0),
        lambda: asym.power_scaled_fixed_ratio_rate(fad, cell, user, 10.0,
                                                   2.0),
        lambda: asym.required_kappa(fad, cell, user, 10.0, 0.9),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="outside"):
            call()
    assert fad.direct_gain(3, 9) == 1.0


def weight_terms(law):
    """(mu_m, n, chi_mn) over every term of the closed rate sum's
    partial-fraction weights, in extended precision."""
    for mu_m, chi_m in zip(law.mu.astype(np.longdouble),
                           cf._partial_fractions(law)):
        for n, chi in enumerate(chi_m, 1):
            yield mu_m, n, chi


def mgf_by_weights(law, s):
    """E e^{sZ} as the partial-fraction sum of chi_mn (1 - mu_m s)^-n."""
    return float(sum(chi * (1 - mu_m * s) ** -n
                     for mu_m, n, chi in weight_terms(law)))


def mgf_product(law, s):
    """E e^{sZ} = prod_m (1 - mu_m s)^-tau_m in extended precision: the
    reference, which reads no weights."""
    ld = np.longdouble
    return float(np.prod((1 - law.mu.astype(ld) * ld(s))
                         ** -law.tau.astype(ld)))


def test_single_eigenvalue_expansion_is_trivial():
    exp = CharacteristicExpansion(np.array([0.4]), np.array([7]))
    chi = cf._partial_fractions(exp)[0]
    assert chi[-1] == pytest.approx(1.0)
    np.testing.assert_allclose(chi[:-1], 0.0, atol=1e-30)


def test_distinct_case_matches_product_formula():
    vals = np.array([3.0, 1.7, 0.4, 0.09])
    exp = CharacteristicExpansion(vals, np.ones(4, dtype=int))
    for m in range(4):
        direct = np.prod([1.0 / (1.0 - vals[j] / vals[m])
                          for j in range(4) if j != m])
        np.testing.assert_allclose(cf._partial_fractions(exp)[m][0], direct,
                                   rtol=1e-12)


def test_mixed_multiplicity_reproduces_mgf_at_probe_points():
    # mu = (2, 1), tau = (2, 1): reconstruction at s in {-1, -0.3, 0.2}
    exp = CharacteristicExpansion(np.array([2.0, 1.0]), np.array([2, 1]))
    for s in (-1.0, -0.3, 0.2):
        np.testing.assert_allclose(mgf_by_weights(exp, s),
                                   mgf_product(exp, s), rtol=1e-10)


def _draw_profile(rng):
    """Random well-separated profile whose expansion is representable in
    double precision (the reconstruction identity is only checkable up to
    eps * sum|chi|)."""
    while True:
        hits = int(rng.integers(2, 6))
        vals = np.sort(10 ** rng.uniform(-1.5, 0.5, size=hits))[::-1]
        gaps = (vals[:-1] - vals[1:]) / vals[:-1]
        if gaps.min() < 0.3:
            continue
        reps = rng.integers(1, 4, size=hits)
        exp = CharacteristicExpansion(vals, reps)
        if sum(abs(c) for _, _, c in weight_terms(exp)) < 1e5:
            return exp


def test_mgf_reconstruction_over_random_profiles():
    rng = np.random.default_rng(20240201)
    for _ in range(50):
        exp = _draw_profile(rng)
        smax = 1.0 / exp.mu.max()
        for s in rng.uniform(-2.0 * smax, 0.9 * smax, size=20):
            np.testing.assert_allclose(mgf_by_weights(exp, float(s)),
                                       mgf_product(exp, float(s)),
                                       rtol=1e-10)


def test_coefficients_sum_to_one():
    rng = np.random.default_rng(8)
    for _ in range(50):
        exp = _draw_profile(rng)
        total = np.longdouble(0.0)
        for _, _, chi in weight_terms(exp):
            total += chi
        assert abs(float(total) - 1.0) < 1e-12


def test_general_algorithm_matches_distinct_formula():
    rng = np.random.default_rng(77)
    for _ in range(20):
        vals = np.sort(10 ** rng.uniform(-1, 1, size=5))[::-1]
        if ((vals[:-1] - vals[1:]) / vals[:-1]).min() < 0.05:
            continue
        exp = CharacteristicExpansion(vals, np.ones(5, dtype=int))
        for m in range(5):
            direct = np.prod([1.0 / (1.0 - vals[j] / vals[m])
                              for j in range(5) if j != m])
            np.testing.assert_allclose(cf._partial_fractions(exp)[m][0],
                                       direct, rtol=1e-12)


def _cross_gain_fading(cross, cells=4, users=10):
    """Direct gains 1; every base station sees `cross` from the other cells,
    `users` gains per cell in order."""
    beta = np.ones((cells, cells, users))
    for l in range(cells):
        others = [i for i in range(cells) if i != l]
        for j, i in enumerate(others):
            beta[l, i, :] = cross[j * users:(j + 1) * users]
    return SystemConfig(cells, users, 20, 10.0), LargeScaleFading(beta)


def test_coefficient_sum_rejects_the_closed_rate_on_a_broken_expansion(
        monkeypatch):
    # these two sum to 1 + 9.2e-3 and 1 + 3.0e-4, which once only warned;
    # the miss now rejects the closed sum before any of its terms is built
    def refuse(*args, **kwargs):
        raise AssertionError("built a term of a rejected sum")

    monkeypatch.setattr(cf, "tricomi_u", refuse)
    geometric = 0.05 * 4.0 ** (np.arange(30) / 29)
    for cross in (geometric, np.repeat([0.1, 0.2, 0.3], 10)):
        cfg, fad = _cross_gain_fading(cross)
        exp = build_profile(cfg, fad, 0)
        miss = float(sum(c for _, _, c in weight_terms(exp)) - 1)
        assert miss > cf.COEFFICIENT_SUM_TOL
        value, cond, err = cf._rate_general(cfg, 1.0, exp)
        assert math.isnan(value) and cond == err == math.inf
    # scenario 1 and an all-distinct profile sum to 1
    distinct = 0.05 * 10.0 ** (np.arange(8) / 7)
    for cfg, fad in (_cross_gain_fading([0.1] * 30),
                     _cross_gain_fading(distinct, cells=3, users=4)):
        exp = build_profile(cfg, fad, 0)
        assert abs(sum(c for _, _, c in weight_terms(exp)) - 1) < 1e-12


def test_rates_expand_the_diagonal():
    beta = np.ones((2, 2, 3))
    beta[0, 1, :] = [0.5, 0.2, 0.5]
    exp = build_profile(SystemConfig(2, 3, 6, 1.0), LargeScaleFading(beta), 0)
    np.testing.assert_array_equal(exp.rates(), [0.5, 0.5, 0.2])


def test_fading_file_round_trip(tmp_path):
    fad = symmetric_fading(3, 4, 1.0, 0.25)
    path = tmp_path / "beta.txt"
    save_fading_text(fad, path)
    back = load_fading_text(path)
    np.testing.assert_array_equal(back.beta, fad.beta)


def test_fading_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n0 0 1 1 1\n")
    with pytest.raises(ValueError):
        load_fading_text(path)
    path.write_text("")
    with pytest.raises(ValueError):
        load_fading_text(path)
    path.write_text("1 2\n0 5 1 1\n")  # cell index outside the 1x1 grid
    with pytest.raises(ValueError, match="outside"):
        load_fading_text(path)
