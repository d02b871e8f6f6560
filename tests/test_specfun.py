import math

import numpy as np
import pytest

from mumimo import specfun as sf
from mumimo.quadrature import QuadratureSpec, integrate_semi_infinite

ORACLE = QuadratureSpec(relative_tolerance=1e-11, absolute_tolerance=1e-300)


# ---------------------------------------------------------------------------
# quadrature oracles for the defining integrals (independent of the closed
# forms under test)
# ---------------------------------------------------------------------------

def ei_oracle(x):
    # Ei(x) = int_{-inf}^x e^t/t dt, x < 0, via t = x - y
    return integrate_semi_infinite(lambda y: math.exp(x - y) / (x - y), 0.0,
                                   ORACLE, scale=1.0 + abs(x))


def en_oracle(n, z):
    return integrate_semi_infinite(lambda t: t ** (-n) * math.exp(-z * t),
                                   1.0, ORACLE, scale=max(1.0 / z, 0.1))


def gamma_oracle(a, x):
    return integrate_semi_infinite(
        lambda t: t ** (a - 1) * math.exp(-t), x, ORACLE,
        scale=max(float(a), 1.0))


def euler_gamma_oracle():
    # Euler-Maclaurin: gamma = H_N - ln N - 1/(2N) + 1/(12N^2) - 1/(120N^4)
    n = 200
    h = sum(1.0 / k for k in range(1, n + 1))
    return (h - math.log(n) - 1 / (2 * n) + 1 / (12 * n ** 2)
            - 1 / (120 * n ** 4) + 1 / (252 * n ** 6))


def hyp2f0_oracle(n, p, x):
    # (1/Gamma(n)) int e^-u u^{n-1} (1 + x u)^-p du (substituted variable)
    lg = math.lgamma(n)

    def f(u):
        if u <= 0:
            return 1.0 if n == 1 else 0.0
        return math.exp(-u + (n - 1) * math.log(u)
                        - p * math.log1p(x * u) - lg)

    return integrate_semi_infinite(f, 0.0, ORACLE, scale=float(n))


# ---------------------------------------------------------------------------
# exponential integrals
# ---------------------------------------------------------------------------

def test_ei_reference_value():
    np.testing.assert_allclose(sf.expint_ei(-1.0), -0.2193839343955203,
                               rtol=1e-12)


@pytest.mark.parametrize("x", [-0.05, -0.5, -1.0, -1.5, -4.0, -20.0])
def test_ei_matches_quadrature(x):
    np.testing.assert_allclose(sf.expint_ei(x), ei_oracle(x), rtol=1e-9)


def test_ei_tail_limit_and_sign():
    prev = sf.expint_ei(-1.0)
    for x in (-5.0, -20.0, -80.0):
        val = sf.expint_ei(x)
        assert prev < val < 0.0
        prev = val
    assert sf.expint_ei(-700.0) == pytest.approx(0.0, abs=1e-300)


def test_ei_domain():
    with pytest.raises(ValueError):
        sf.expint_ei(0.0)
    with pytest.raises(ValueError):
        sf.expint_ei(1.0)


def test_ei_en_identity():
    for x in (0.3, 0.9, 1.7, 6.0):
        np.testing.assert_allclose(sf.expint_ei(-x), -sf.expint_en(1, x),
                                   rtol=1e-12)


def test_en_closed_form_order_zero():
    np.testing.assert_allclose(sf.expint_en(0, 1.0), math.exp(-1.0),
                               rtol=1e-14)


def test_en_reference_value():
    np.testing.assert_allclose(sf.expint_en(1, 1.0), 0.2193839343955203,
                               rtol=1e-12)


@pytest.mark.parametrize("n,z", [(1, 0.3), (2, 0.01), (3, 0.5), (5, 2.0),
                                 (10, 7.0), (0, 4.0)])
def test_en_matches_quadrature(n, z):
    np.testing.assert_allclose(sf.expint_en(n, z), en_oracle(n, z),
                               rtol=1e-9)


def test_en_recurrence():
    # E_{n+1}(z) = (e^-z - z E_n(z)) / n to 1e-12 relative
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(1, 21))
        z = float(10 ** rng.uniform(-2, math.log10(50)))
        lhs = sf.expint_en(n + 1, z)
        rhs = (math.exp(-z) - z * sf.expint_en(n, z)) / n
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_en_scaled_stays_finite():
    val = sf.expint_en_scaled(3, 900.0)
    assert 0.0 < val < 1.0 / 900.0
    np.testing.assert_allclose(sf.expint_en_scaled(2, 0.5),
                               math.exp(0.5) * sf.expint_en(2, 0.5),
                               rtol=1e-13)


def test_en_domain():
    with pytest.raises(ValueError):
        sf.expint_en(-1, 1.0)
    with pytest.raises(ValueError):
        sf.expint_en(2, 0.0)


# ---------------------------------------------------------------------------
# incomplete gamma, digamma
# ---------------------------------------------------------------------------

def test_upper_gamma_trivial_cases():
    for x in (0.2, 1.0, 7.0):
        np.testing.assert_allclose(sf.upper_gamma(1, x), math.exp(-x),
                                   rtol=1e-12)
    np.testing.assert_allclose(sf.upper_gamma(3, 0.0), 2.0, rtol=1e-12)


def test_upper_gamma_reference_value():
    np.testing.assert_allclose(sf.upper_gamma(2, 1.0), 0.7357588823428847,
                               rtol=1e-12)


@pytest.mark.parametrize("a,x", [(2, 1.0), (5, 0.3), (6, 4.0), (12, 20.0),
                                 (40, 2.0)])
def test_upper_gamma_matches_quadrature(a, x):
    np.testing.assert_allclose(sf.upper_gamma(a, x), gamma_oracle(a, x),
                               rtol=1e-9)


def test_upper_gamma_scaled():
    for a, x in ((3, 0.7), (7, 12.0)):
        np.testing.assert_allclose(sf.upper_gamma_scaled(a, x),
                                   math.exp(x) * sf.upper_gamma(a, x),
                                   rtol=1e-12)


def test_upper_gamma_domain():
    with pytest.raises(ValueError):
        sf.upper_gamma(0, 1.0)
    with pytest.raises(ValueError):
        sf.upper_gamma(2, -0.5)


def test_digamma_against_high_precision_constant():
    np.testing.assert_allclose(sf.digamma_int(1), -euler_gamma_oracle(),
                               rtol=1e-13)


def test_digamma_recurrence_and_asymptotics():
    assert sf.digamma_int(2) - sf.digamma_int(1) == pytest.approx(1.0)
    for n in (3, 7, 20):
        np.testing.assert_allclose(sf.digamma_int(n + 1) - sf.digamma_int(n),
                                   1.0 / n, rtol=1e-12)
    assert abs(sf.digamma_int(1000) - math.log(1000)) < 6e-4
    with pytest.raises(ValueError):
        sf.digamma_int(0)


# ---------------------------------------------------------------------------
# Tricomi U and 2F0
# ---------------------------------------------------------------------------

def test_tricomi_u_identities():
    z = 2.0
    np.testing.assert_allclose(sf.tricomi_u(1, 1, z),
                               math.exp(z) * sf.expint_en(1, z), rtol=1e-10)
    np.testing.assert_allclose(sf.tricomi_u(3, 4, 0.5), 8.0, rtol=1e-10)


def test_tricomi_u_negative_b_reference():
    # frozen from adaptive quadrature of the defining integral
    np.testing.assert_allclose(sf.tricomi_u(2, -1, 1.5),
                               0.04809979609621291, rtol=1e-9)


@pytest.mark.parametrize("a,b,z", [(2, 1, 1.0), (3, -2, 0.7), (4, 6, 2.5),
                                   (2, 0, 5.0), (5, 3, 0.2)])
def test_tricomi_u_kummer_recurrence(a, b, z):
    lhs = (sf.tricomi_u(a - 1, b, z)
           + (b - 2 * a - z) * sf.tricomi_u(a, b, z)
           + a * (a - b + 1) * sf.tricomi_u(a + 1, b, z))
    assert abs(lhs) < 1e-9 * abs(sf.tricomi_u(a, b, z))


def _refuse_quadrature(*args, **kwargs):
    raise AssertionError("ran a quadrature")


def test_tricomi_u_terminating_sum_matches_mpmath():
    # U(a, a+m+1, z) = z^-a sum_{k<=m} C(m,k) (a)_k z^-k, all terms positive
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    for a in (1, 2, 5, 30):
        for m in (0, 1, 2, 7, 30, 89, 200, 490):
            for z in (1e-3, 0.05, 0.5, 1.0, 3.7, 33.3, 250.0, 1e3):
                got = sf.tricomi_u(a, a + m + 1, z)
                with mp.workdps(30):
                    ref = mp.hyperu(a, a + m + 1, mp.mpf(z))
                if ref > mp.mpf("1.8e308"):
                    assert got == math.inf
                elif ref > mp.mpf("1e-300"):
                    worst = max(worst, float(abs(got - ref) / ref))
    assert worst < 1e-12


def test_tricomi_u_terminating_case_runs_no_quadrature(monkeypatch):
    monkeypatch.setattr(sf, "integrate_semi_infinite", _refuse_quadrature)
    for a, m, z in ((1, 0, 2.0), (3, 4, 0.5), (30, 490, 250.0)):
        assert sf.tricomi_u(a, a + m + 1, z) > 0.0
    with pytest.raises(AssertionError):  # b < a + 1 still integrates
        sf.tricomi_u(2, -1, 1.5)


def test_tricomi_u_order_one_is_scaled_upper_gamma():
    # z^{m+1} U(1, m+2, z) = e^z Gamma(m+1, z)
    for m in (0, 1, 5, 40, 120):
        for z in (0.01, 0.7, 5.0, 60.0, 400.0):
            log_zm = (m + 1) * math.log(z)
            if max(abs(log_zm), math.lgamma(m + 1) - log_zm) > 700.0:
                continue  # z^{m+1} or U leaves the double range
            np.testing.assert_allclose(
                z ** (m + 1) * sf.tricomi_u(1, m + 2, z),
                sf.upper_gamma_scaled(m + 1, z), rtol=1e-12)


def test_tricomi_u_domain():
    with pytest.raises(ValueError):
        sf.tricomi_u(0, 1, 1.0)
    with pytest.raises(ValueError):
        sf.tricomi_u(2, 1, 0.0)


def test_hyp2f0_empty_product():
    for n, x in ((1, 0.5), (4, 2.0)):
        assert sf.hyp2f0_neg(n, 0, x) == 1.0


def test_hyp2f0_e_p_identity():
    # 2F0(1, p; --; -x) = (1/x) e^{1/x} E_p(1/x)
    p, x = 3, 0.7
    np.testing.assert_allclose(
        sf.hyp2f0_neg(1, p, x),
        (1.0 / x) * math.exp(1.0 / x) * sf.expint_en(p, 1.0 / x),
        rtol=1e-10)


@pytest.mark.parametrize("n,p,x", [(2, 3, 0.4), (4, 2, 1.3), (2, 5, 0.05),
                                   (3, 1, 9.0), (6, 4, 0.2)])
def test_hyp2f0_matches_independent_integral(n, p, x):
    np.testing.assert_allclose(sf.hyp2f0_neg(n, p, x), hyp2f0_oracle(n, p, x),
                               rtol=1e-9)


def test_hyp2f0_tiny_argument_asymptote():
    val = sf.hyp2f0_neg(3, 2, 1e-12)
    np.testing.assert_allclose(val, 1.0 - 6e-12, rtol=1e-13)


# ---------------------------------------------------------------------------
# log-moment kernel
# ---------------------------------------------------------------------------

def test_log_moment_zero_slope():
    assert sf.log_moment_kernel(2, 1.0, 0.0) == 0.0


def test_log_moment_n1_identity():
    # int ln(1+az) e^{-z/mu} dz = mu e^{1/(a mu)} E_1(1/(a mu))
    a, mu = 1.0, 2.0
    np.testing.assert_allclose(sf.log_moment_kernel(1, mu, a),
                               mu * sf.expint_e1_scaled(1.0 / (a * mu)),
                               rtol=1e-12)


@pytest.mark.parametrize("n,mu,a", [(3, 0.5, 4.0), (30, 0.1, 10.0),
                                    (10, 2.0, 0.01), (30, 0.1, 0.001),
                                    (50, 0.05, 5.0), (2, 1.0, 1.0)])
def test_log_moment_closed_equals_quadrature(n, mu, a):
    np.testing.assert_allclose(sf.log_moment_kernel(n, mu, a),
                               sf.log_moment_quadrature(n, mu, a),
                               rtol=1e-9)


# (n, z = 1/(a mu)) grid for the log-moment kernel; mu is fixed and
# a = 1/(z mu)
LOG_MOMENT_GRID = [(n, z) for n in (1, 2, 5, 10, 30, 100, 300, 500)
                   for z in (1.0, 1.5, 3.7, 10.0, 33.3, 100.0, 250.0, 499.5,
                             1e3, 5e3, 1e4)]
LOG_MOMENT_MU = 0.5


def test_log_moment_matches_quadrature_on_grid():
    for n, z in LOG_MOMENT_GRID:
        a = 1.0 / (z * LOG_MOMENT_MU)
        np.testing.assert_allclose(
            sf._log_moment_normalized(n, LOG_MOMENT_MU, a),
            sf.log_moment_quadrature(n, LOG_MOMENT_MU, a, normalized=True),
            rtol=1e-10)


def test_log_moment_needs_no_quadrature(monkeypatch):
    monkeypatch.setattr(sf, "integrate_semi_infinite", _refuse_quadrature)
    for n, z in LOG_MOMENT_GRID:
        a = 1.0 / (z * LOG_MOMENT_MU)
        assert sf._log_moment_normalized(n, LOG_MOMENT_MU, a) > 0.0


def test_scaled_en_sum_matches_mpmath():
    mp = pytest.importorskip("mpmath")

    def oracle(n, z):
        # e^z sum_{k<=n} E_k(z) = int_0^inf e^-v (1 - (1 + v/z)^-n) / v dv
        with mp.workdps(30):
            z = mp.mpf(z)

            def f(v):
                if v == 0:
                    return n / z
                return -mp.exp(-v) * mp.expm1(-n * mp.log1p(v / z)) / v

            return float(mp.quad(f, [0, min(z, 1), 1, 10, 40, mp.inf]))

    for n in (1, 5, 30, 100, 500):
        for z in (0.01, 0.5, 1.0, 3.7, 33.3, 250.0, 1e4):
            np.testing.assert_allclose(sf._scaled_en_sum(n, z),
                                       oracle(n, z), rtol=1e-14)


# ---------------------------------------------------------------------------
# Ei-moment kernel I_{m,n}(a, b, alpha)
# ---------------------------------------------------------------------------

def test_ei_moment_reference_values():
    # frozen from adaptive quadrature of the defining integral; negative
    # since Ei(-(ax+b)) < 0
    np.testing.assert_allclose(sf.ei_moment_kernel(0, 0, 1.0, 1.0, 1.0),
                               -0.086458564735431, rtol=1e-9)
    np.testing.assert_allclose(sf.ei_moment_kernel(2, 1, 0.5, 2.0, 1.3),
                               -0.035973878782127, rtol=1e-8)


def test_ei_moment_decays_in_alpha():
    vals = [abs(sf.ei_moment_kernel(1, 1, 1.0, 1.0, al)) for al in (1, 10, 100)]
    assert vals[0] > vals[1] > vals[2]


@pytest.mark.parametrize("m,n,a,b,alpha", [
    (0, 0, 1.0, 1.0, 1.0),
    (1, 2, 2.0, 0.3, 0.8),
    (3, 3, 1.5, 1.2, 2.0),
    (2, 1, 0.5, 2.0, 1.3),
    (0, 5, 1.0, 0.1, 9.0),
    (4, 0, 0.7, 0.6, 3.0),
])
def test_ei_moment_closed_equals_quadrature(m, n, a, b, alpha):
    np.testing.assert_allclose(sf.ei_moment_kernel(m, n, a, b, alpha),
                               sf.ei_moment_quadrature(m, n, a, b, alpha),
                               rtol=1e-8)


def test_ei_moment_falls_back_when_recursion_cancels():
    # mu0 = alpha/a = 1 amplifies the recursion error by p per step; the
    # kernel must still agree with the integral because of the fallback
    m, n, a, b, alpha = 2, 12, 1.0, 0.1, 1.0
    _, cond = sf._ei_moment_closed(m, n, a, b, alpha)
    np.testing.assert_allclose(sf.ei_moment_kernel(m, n, a, b, alpha),
                               sf.ei_moment_quadrature(m, n, a, b, alpha),
                               rtol=1e-8)


def ei_moment_sequence_from_scratch(pmax, a, b, alpha):
    """The J_p recursion with every K_p summed term by term from q = 0, as
    the sequence was first written (O(p) work per K_p)."""
    ld = np.longdouble
    mu = alpha / a
    ei_b = sf.expint_ei(-b)
    arg2 = (mu + 1.0) * b
    ei_2 = sf.expint_ei(-float(arg2)) if arg2 < 700 else 0.0
    j = (-ld(ei_2) + np.exp(ld(-b * mu)) * ld(ei_b)) / ld(mu)
    j_abs = (abs(ld(ei_2)) + np.exp(ld(-b * mu)) * abs(ld(ei_b))) / ld(mu)
    js, js_abs = [j], [j_abs]
    for p in range(1, pmax + 1):
        t1 = np.exp(ld(-b * mu)) * ld(b) ** p / ld(mu) * ld(ei_b)
        term = ld(b) ** (p - 1) / ld(mu + 1.0)
        acc = term
        for q in range(1, p):
            term = term * ld(p - q) / (ld(b) * ld(mu + 1.0))
            acc += term
        t2 = np.exp(ld(-b * (mu + 1.0))) / ld(mu) * acc
        gain = ld(p) / ld(mu)
        j = t1 + t2 + gain * j
        j_abs = abs(t1) + abs(t2) + gain * j_abs
        js.append(j)
        js_abs.append(j_abs)
    return js, js_abs


@pytest.mark.parametrize("b", [0.1, 10.0, 50.0])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 9.0, 30.0])
def test_ei_moment_shared_sequence_matches_recursion_from_scratch(b, alpha):
    # (m, n) as the rate sums use them: m = multiplicity - 1 <= 29,
    # n = w <= N - K = 490
    a = 1.0
    grid = [(m, n) for m in (0, 1, 9, 29) for n in (0, 1, 5, 20, 70, 200, 490)]
    pmax = max(m + n for m, n in grid)
    shared = sf._ei_moment_sequence(pmax, a, b, alpha)
    scratch = ei_moment_sequence_from_scratch(pmax, a, b, alpha)
    eps_ld = float(np.finfo(np.longdouble).eps)
    for m, n in grid:
        own = sf._ei_moment_closed(m, n, a, b, alpha)
        # reading a prefix of a longer sequence changes nothing
        assert sf._ei_moment_closed(m, n, a, b, alpha, seq=shared) == own
        # the two K_p evaluations round differently in extended precision;
        # the recursion amplifies that by its own condition estimate
        want = sf._ei_moment_closed(m, n, a, b, alpha, seq=scratch)
        if not math.isfinite(want[0]):
            # past double range both are rejected; the sign is noise
            assert not math.isfinite(own[0]) and own[1] == math.inf
            continue
        rtol = 1e-15 + 16 * eps_ld * want[1]
        np.testing.assert_allclose(own, want, rtol=rtol, atol=0.0)


def test_ei_moment_domain():
    with pytest.raises(ValueError):
        sf.ei_moment_kernel(-1, 0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sf.ei_moment_kernel(0, 0, 1.0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# randomized closed-form-vs-oracle sweeps (the layer-wide contract)
# ---------------------------------------------------------------------------

def test_randomized_sweep_exponential_integrals():
    rng = np.random.default_rng(314159)
    for _ in range(100):
        x = -float(10 ** rng.uniform(-2, 1.3))
        np.testing.assert_allclose(sf.expint_ei(x), ei_oracle(x), rtol=1e-8)
        n = int(rng.integers(0, 9))
        z = float(10 ** rng.uniform(-2, 1.3))
        np.testing.assert_allclose(sf.expint_en(n, z), en_oracle(n, z),
                                   rtol=1e-8)


def test_randomized_sweep_gamma_and_2f0():
    rng = np.random.default_rng(271828)
    for _ in range(100):
        a = int(rng.integers(1, 25))
        x = float(10 ** rng.uniform(-2, 1.5))
        np.testing.assert_allclose(sf.upper_gamma(a, x), gamma_oracle(a, x),
                                   rtol=1e-8)
        n = int(rng.integers(1, 7))
        p = int(rng.integers(0, 7))
        xx = float(10 ** rng.uniform(-1.5, 0.8))
        np.testing.assert_allclose(sf.hyp2f0_neg(n, p, xx),
                                   hyp2f0_oracle(n, p, xx), rtol=1e-8)


def test_randomized_sweep_kernels():
    rng = np.random.default_rng(161803)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        mu = float(10 ** rng.uniform(-1.5, 0.8))
        a = float(10 ** rng.uniform(-1.5, 1.2))
        np.testing.assert_allclose(sf.log_moment_kernel(n, mu, a),
                                   sf.log_moment_quadrature(n, mu, a),
                                   rtol=1e-8)
        m = int(rng.integers(0, 5))
        nn = int(rng.integers(0, 5))
        aa = float(10 ** rng.uniform(-0.7, 0.7))
        b = float(10 ** rng.uniform(-1, 0.7))
        alpha = float(10 ** rng.uniform(-0.5, 1.0))
        np.testing.assert_allclose(sf.ei_moment_kernel(m, nn, aa, b, alpha),
                                   sf.ei_moment_quadrature(m, nn, aa, b, alpha),
                                   rtol=1e-8)
