import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mumimo.fading import (CharacteristicExpansion, InterferenceProfile,
                           LargeScaleFading, SystemConfig, build_profile,
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
    prof = build_profile(cfg, fad, 0)
    assert prof.diagonal.size == 30
    np.testing.assert_array_equal(prof.mu, [0.1])
    np.testing.assert_array_equal(prof.tau, [30])


def test_single_cell_profile_is_empty():
    cfg = SystemConfig(1, 4, 8, 1.0)
    prof = build_profile(cfg, symmetric_fading(1, 4), 0)
    assert prof.is_empty
    with pytest.raises(ValueError):
        characteristic_coefficients(prof)


def test_grouping_of_repeated_gains():
    # cross gains {0.1, 0.2, 0.2, 0.3} -> mu (0.3, 0.2, 0.1), tau (1, 2, 1)
    beta = np.ones((2, 2, 4))
    beta[0, 1, :] = [0.1, 0.2, 0.2, 0.3]
    prof = build_profile(SystemConfig(2, 4, 8, 1.0), LargeScaleFading(beta),
                         0)
    np.testing.assert_allclose(prof.mu, [0.3, 0.2, 0.1])
    np.testing.assert_array_equal(prof.tau, [1, 2, 1])


def test_single_eigenvalue_expansion_is_trivial():
    prof = InterferenceProfile(0, np.full(7, 0.4), np.array([0.4]),
                               np.array([7]))
    exp = characteristic_coefficients(prof)
    chi = exp.chi[0]
    assert chi[-1] == pytest.approx(1.0)
    np.testing.assert_allclose(chi[:-1], 0.0, atol=1e-30)


def test_distinct_case_matches_product_formula():
    vals = np.array([3.0, 1.7, 0.4, 0.09])
    prof = InterferenceProfile(0, vals, vals, np.ones(4, dtype=int))
    exp = characteristic_coefficients(prof)
    for m in range(4):
        direct = np.prod([1.0 / (1.0 - vals[j] / vals[m])
                          for j in range(4) if j != m])
        np.testing.assert_allclose(exp.chi[m][0], direct, rtol=1e-12)


def test_mixed_multiplicity_reproduces_mgf_at_probe_points():
    # mu = (2, 1), tau = (2, 1): reconstruction at s in {-1, -0.3, 0.2}
    prof = InterferenceProfile(0, np.array([2.0, 2.0, 1.0]),
                               np.array([2.0, 1.0]), np.array([2, 1]))
    exp = characteristic_coefficients(prof)
    for s in (-1.0, -0.3, 0.2):
        np.testing.assert_allclose(exp.mgf(s), exp.mgf_exact(s), rtol=1e-10)


def test_concurrent_first_reads_of_chi_agree():
    # chi is cached without a lock, so threads that read it at once may
    # each build it; every reader must still get the same weights
    prof = InterferenceProfile(0, np.repeat([0.4, 0.25, 0.1], [3, 2, 4]),
                               np.array([0.4, 0.25, 0.1]), np.array([3, 2, 4]))
    want = characteristic_coefficients(prof).chi
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(20):
                exp = characteristic_coefficients(prof)
                reads = list(pool.map(lambda _: exp.chi, range(16),
                                      timeout=30))
                for chi in reads + [exp.chi]:
                    for got, ref in zip(chi, want, strict=True):
                        np.testing.assert_array_equal(got, ref)
    finally:
        sys.setswitchinterval(interval)


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
        prof = InterferenceProfile(0, np.repeat(vals, reps), vals, reps)
        exp = characteristic_coefficients(prof)
        if sum(abs(c) for _, _, c in exp.terms()) < 1e5:
            return prof, exp


def test_mgf_reconstruction_over_random_profiles():
    rng = np.random.default_rng(20240201)
    for _ in range(50):
        prof, exp = _draw_profile(rng)
        smax = 1.0 / prof.mu.max()
        for s in rng.uniform(-2.0 * smax, 0.9 * smax, size=20):
            np.testing.assert_allclose(exp.mgf(float(s)),
                                       exp.mgf_exact(float(s)), rtol=1e-10)


def test_coefficients_sum_to_one():
    rng = np.random.default_rng(8)
    for _ in range(50):
        _, exp = _draw_profile(rng)
        total = np.longdouble(0.0)
        for _, _, chi in exp.terms():
            total += chi
        assert abs(float(total) - 1.0) < 1e-12


def test_general_algorithm_matches_distinct_formula():
    rng = np.random.default_rng(77)
    for _ in range(20):
        vals = np.sort(10 ** rng.uniform(-1, 1, size=5))[::-1]
        if ((vals[:-1] - vals[1:]) / vals[:-1]).min() < 0.05:
            continue
        prof = InterferenceProfile(0, vals, vals, np.ones(5, dtype=int))
        exp = characteristic_coefficients(prof)
        for m in range(5):
            direct = np.prod([1.0 / (1.0 - vals[j] / vals[m])
                              for j in range(5) if j != m])
            np.testing.assert_allclose(exp.chi[m][0], direct, rtol=1e-12)


def test_near_degenerate_warning():
    vals = np.array([1.0, 1.0 + 1e-8, 0.1])
    prof = InterferenceProfile(0, vals, np.sort(vals)[::-1],
                               np.ones(3, dtype=int))
    exp = characteristic_coefficients(prof)
    with pytest.warns(RuntimeWarning):
        exp.chi  # the weights, and their warnings, come on first read


def _cross_gain_fading(cross, cells=4, users=10):
    """Direct gains 1; every base station sees `cross` from the other cells,
    `users` gains per cell in order."""
    beta = np.ones((cells, cells, users))
    for l in range(cells):
        others = [i for i in range(cells) if i != l]
        for j, i in enumerate(others):
            beta[l, i, :] = cross[j * users:(j + 1) * users]
    return SystemConfig(cells, users, 20, 10.0), LargeScaleFading(beta)


def test_coefficient_sum_warns_when_the_expansion_breaks_down():
    # these two sum to 1 + 9.2e-3 and 1 + 3.0e-4
    geometric = 0.05 * 4.0 ** (np.arange(30) / 29)
    for cross in (geometric, np.repeat([0.1, 0.2, 0.3], 10)):
        cfg, fad = _cross_gain_fading(cross)
        exp = characteristic_coefficients(build_profile(cfg, fad, 0))
        with pytest.warns(RuntimeWarning, match="sum to 1"):
            exp.chi
    # scenario 1 and an all-distinct profile stay silent
    distinct = 0.05 * 10.0 ** (np.arange(8) / 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cfg, fad in (_cross_gain_fading([0.1] * 30),
                         _cross_gain_fading(distinct, cells=3, users=4)):
            exp = characteristic_coefficients(build_profile(cfg, fad, 0))
            assert abs(sum(c for _, _, c in exp.terms()) - 1) < 1e-12


def test_rates_expand_the_diagonal():
    prof = InterferenceProfile(0, np.array([0.5, 0.5, 0.2]),
                               np.array([0.5, 0.2]), np.array([2, 1]))
    exp = characteristic_coefficients(prof)
    np.testing.assert_allclose(np.sort(exp.rates()),
                               np.sort(prof.diagonal))


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
