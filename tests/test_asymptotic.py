import math

import numpy as np
import pytest

from mumimo import asymptotic as asym
from mumimo.fading import symmetric_fading


def test_deterministic_sir_symmetric_closed_form():
    # gamma_bar = (kappa - 1) / ((L - 1) a)
    fad = symmetric_fading(4, 10, 1.0, 0.1)
    np.testing.assert_allclose(asym.deterministic_sir(fad, 0, 0, 10.0),
                               9.0 / 0.3, rtol=1e-14)


def test_deterministic_sir_monotone_in_kappa_and_infinite_without_interference():
    fad = symmetric_fading(4, 10, 1.0, 0.2)
    vals = [asym.deterministic_sir(fad, 0, 0, k) for k in (2, 5, 20, 100)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    single = symmetric_fading(1, 10)
    assert asym.deterministic_sir(single, 0, 0, 5.0) == math.inf
    with pytest.raises(ValueError):
        asym.deterministic_sir(fad, 0, 0, 1.0)


def test_power_scaled_limit_rate():
    fad = symmetric_fading(4, 10, 1.0, 0.1)
    np.testing.assert_allclose(asym.power_scaled_limit_rate(fad, 0, 0, 10.0),
                               math.log2(11.0), rtol=1e-14)
    assert asym.power_scaled_limit_rate(fad, 0, 0, 1e-9) < 2e-9


def test_power_scaled_fixed_ratio_sinr_example():
    # beta = 1, E_u = 10, L = 4, a = 0.1, kappa = 5: 8 / (2 * 0.3 + 1) = 5
    fad = symmetric_fading(4, 10, 1.0, 0.1)
    got = asym.power_scaled_fixed_ratio_sinr(fad, 0, 0, 10.0, 5.0)
    np.testing.assert_allclose(got, 5.0, rtol=1e-14)


def test_fixed_ratio_sinr_approaches_ultimate_value():
    fad = symmetric_fading(4, 10, 1.0, 0.1)
    want = 10.0  # beta E_u
    got = asym.power_scaled_fixed_ratio_sinr(fad, 0, 0, 10.0, 1e7)
    np.testing.assert_allclose(got, want, rtol=1e-5)


def test_required_kappa_monotone_and_residual():
    fad01 = symmetric_fading(4, 10, 1.0, 0.1)
    fad05 = symmetric_fading(4, 10, 1.0, 0.5)
    for eta in (0.8, 0.9):
        prev = {0.1: 0.0, 0.5: 0.0}
        for r_inf in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            e_u = 2.0 ** r_inf - 1.0
            k01 = asym.required_kappa(fad01, 0, 0, e_u, eta)
            k05 = asym.required_kappa(fad05, 0, 0, e_u, eta)
            assert k01 >= prev[0.1] and k05 >= prev[0.5]
            prev = {0.1: k01, 0.5: k05}
            # more interference needs more degrees of freedom
            assert k05 > k01
            # plugged back, the inequality binds within 1e-5 relative
            achieved = asym.power_scaled_fixed_ratio_rate(fad01, 0, 0, e_u,
                                                          k01)
            assert abs(achieved - eta * r_inf) <= 1e-5 * (eta * r_inf)


def test_required_kappa_matches_grid_scan():
    fad = symmetric_fading(4, 10, 1.0, 0.1)
    eta, r_inf = 0.8, 3.0
    e_u = (2.0 ** r_inf - 1.0)
    kappa = asym.required_kappa(fad, 0, 0, e_u, eta)
    grid = np.linspace(1.0 + 1e-6, 4 * kappa, 300_000)
    rates = np.log2(1.0 + 1.0 * e_u * (1 - 1 / grid)
                    / (e_u / grid * 0.3 + 1.0))
    first = grid[np.argmax(rates >= eta * r_inf)]
    assert abs(kappa - first) < 2 * (grid[1] - grid[0])


def test_required_kappa_small_eta_tends_to_one():
    fad = symmetric_fading(4, 10, 1.0, 0.1)
    assert asym.required_kappa(fad, 0, 0, 10.0, 1e-9) < 1.0 + 1e-5
    with pytest.raises(ValueError):
        asym.required_kappa(fad, 0, 0, 10.0, 1.0)


@pytest.mark.parametrize("a", (0.1, 0.5))
def test_required_kappa_matches_mpmath(a):
    # the root kappa = E_u (beta + g T) / (beta E_u - g), g = (1 + beta
    # E_u)^eta - 1, at 50 digits; the bisection it replaced was up to
    # 2.8e-8 off, and found no bracket at eta = 1 - 1e-8, R_inf = 20
    mp = pytest.importorskip("mpmath")
    fad = symmetric_fading(4, 10, 1.0, a)
    with mp.workdps(50):
        trace = sum(mp.fsum(mp.mpf(float(b)) for b in fad.beta[0, i])
                    / fad.users_per_cell for i in (1, 2, 3))
        for eta in (1e-9, 0.8, 0.9, 0.99, 0.9999, 0.99999999):
            for r_inf in (0.5, 1.0, 3.0, 6.0, 12.0, 20.0):
                e_u = 2.0 ** r_inf - 1.0
                got = asym.required_kappa(fad, 0, 0, e_u, eta)
                e, g = mp.mpf(e_u), (1 + mp.mpf(e_u)) ** mp.mpf(eta) - 1
                want = e * (1 + g * trace) / (e - g)
                assert abs(got / want - 1) <= 1e-13, (eta, r_inf)


def test_required_kappa_rejects_bad_energy():
    fad = symmetric_fading(4, 10, 1.0, 0.1)
    for e_u in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="e_u"):
            asym.required_kappa(fad, 0, 0, e_u, 0.8)


def test_kappa_to_antennas():
    assert asym.kappa_to_antennas(4.2, 10) == 42
    assert asym.kappa_to_antennas(4.01, 10) == 41


@pytest.mark.parametrize("kappa", [math.inf, math.nan, 1e308])
def test_kappa_to_antennas_rejects_a_count_that_is_not_finite(kappa):
    with pytest.raises(ValueError, match="not finite"):
        asym.kappa_to_antennas(kappa, 10)
