import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mumimo import sinrdist as sd
from mumimo.fading import (CharacteristicExpansion, LargeScaleFading,
                           SystemConfig, symmetric_fading)
from mumimo.quadrature import integrate_semi_infinite
from mumimo.specfun import expint_en_scaled, hyp2f0_neg
from oracles import ks_two_sample, pdf_x
from test_fading import weight_terms


def scenario1_model(n=20, k=10, cells=4, a=0.1, p_u=10.0):
    cfg = SystemConfig(cells, k, n, p_u)
    fad = symmetric_fading(cells, k, 1.0, a)
    return cfg, fad, sd.make_sinr_model(cfg, fad, 0, 0)


# ---------------------------------------------------------------------------
# the paper's closed-form MGF, kept as a reference for the one-node integral
# ---------------------------------------------------------------------------

_CANCEL_LIMIT = 1e12


def mgf_closed_sum(model, s):
    """The paper's MGF, a binomial sum of 2F0 terms over the expansion;
    returns (value, condition_estimate).

    The binomial sum's terms total at least (1 + |ratio|)^nu in absolute
    value (times slowly-varying 2F0 factors), so when that alone exceeds
    the guard the expensive per-term evaluation is skipped outright.
    """
    nu = model.shape
    beta = model.scale
    cp = beta * s + 1.0 / model.p_u
    ratio = -beta * s / cp  # -1 in the high-SNR limit 1/p_u = 0
    # skip a little before the guard itself would reject: near the
    # boundary the per-term evaluation is pure wasted work
    if nu * math.log1p(abs(ratio)) > math.log(_CANCEL_LIMIT / 100.0):
        return math.nan, math.inf
    ld = np.longdouble
    distinct = bool(np.all(model.interference.tau == 1))
    total = ld(0.0)
    total_abs = ld(0.0)
    for mu, n, chi in weight_terms(model.interference):
        if chi == 0.0:
            continue
        lbin = ld(0.0)  # log C(nu, p) running
        for p in range(nu + 1):
            if p > 0:
                lbin += np.log(ld(nu - p + 1)) - np.log(ld(p))
            if distinct:
                # order-1 eigenvalues: 2F0(1, p; --; -x) reduces to scaled E_p
                zz = cp / float(mu)
                f = ld(zz) * ld(expint_en_scaled(p, zz))
            else:
                f = ld(hyp2f0_neg(n, p, float(mu) / cp))
            term = np.exp(lbin + p * np.log(ld(abs(ratio)))) * chi * f \
                if ratio != 0 else (chi * f if p == 0 else ld(0.0))
            if ratio < 0 and p % 2 == 1:
                term = -term
            total += term
            total_abs += abs(term)
    value = float(total)
    if not math.isfinite(value) or value == 0.0:
        return value, math.inf
    return value, float(total_abs) / abs(value)


def mgf_closed(model, s):
    """E{e^{-s gamma}} from the closed sum; the one-node integral where the
    sum's condition estimate reaches the guard."""
    if s < 0:
        raise ValueError("requires s >= 0")
    if s == 0:
        return 1.0
    if model.interference.is_empty:
        return (1.0 + model.scale * model.p_u * s) ** -model.shape
    value, cond = mgf_closed_sum(model, s)
    if cond < _CANCEL_LIMIT:
        return min(1.0, max(0.0, value))
    return min(1.0, max(0.0, sd.mgf_weighted_sum(model, [s], [1.0])))


def pdf_z(dist, z):
    """Density of the interference power from the closed rate sum's
    partial-fraction weights: the reference density of the defining
    integrals."""
    if dist.is_empty:
        raise ValueError("no interference (L = 1): Z is identically zero")
    z = np.asarray(z, dtype=float)
    out = np.zeros(z.shape, dtype=np.longdouble)
    pos = z > 0
    zp = z[pos]
    for mu, n, chi in weight_terms(dist):
        term = np.exp(-zp / mu + (n - 1) * np.log(zp / mu)
                      - np.longdouble(math.lgamma(n))) / mu
        out[pos] += chi * term
        if n == 1:
            out = np.where(z == 0, out + chi / mu, out)
    out = out.astype(float)
    return float(out) if out.ndim == 0 else out


def erlang(shape, scale):
    """A model whose desired power X is Erlang(shape, scale), with no
    interference."""
    return sd.SinrModel(shape, scale, CharacteristicExpansion.empty(), 1.0)


def erlang_cdf(shape, scale, x):
    """The CDF of X, P{X <= x} = P{Poisson(x / scale) >= shape}: the count
    law's Poisson tail with no gains, as `outage_exact` runs it at L = 1."""
    no_gains = np.empty(0)
    return sd._count_tail(x / scale, no_gains, no_gains, shape)


def test_desired_power_dist_validation():
    with pytest.raises(ValueError, match="shape"):
        erlang(0, 1.0)
    with pytest.raises(ValueError, match="scale"):
        erlang(3, 0.0)


def test_sinr_model_rejects_a_nan_or_non_positive_transmit_snr():
    _, _, model = scenario1_model()
    for p_u in (math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="p_u"):
            replace(model, p_u=p_u)
    assert replace(model, p_u=math.inf).p_u == math.inf


def test_pdf_x_exponential_when_shape_one():
    dist = erlang(1, 2.0)
    for x in (0.0, 0.4, 3.0):
        np.testing.assert_allclose(pdf_x(dist, x),
                                   math.exp(-x / 2.0) / 2.0, rtol=1e-12)


def test_pdf_x_mode():
    dist = erlang(5, 1.5)  # mode at (shape-1)*scale
    xs = np.linspace(0.01, 30, 4000)
    vals = pdf_x(dist, xs)
    assert abs(xs[np.argmax(vals)] - 4 * 1.5) < 0.02


def test_pdf_x_normalizes():
    dist = erlang(11, 1.0)  # (N, K) = (20, 10)
    total = integrate_semi_infinite(lambda x: pdf_x(dist, x), 0.0,
                                    scale=11.0)
    np.testing.assert_allclose(total, 1.0, rtol=1e-9)


def test_cdf_x_limits_and_shape_one():
    assert erlang_cdf(1, 2.0, 0.0) == 0.0
    np.testing.assert_allclose(erlang_cdf(1, 2.0, 1.0), 1 - math.exp(-0.5),
                               rtol=1e-12)


def test_cdf_x_matches_quadrature_of_pdf():
    dist = erlang(4, 2.0)  # N - K = 3, beta = 2, x = 5
    got = erlang_cdf(4, 2.0, 5.0)
    want = integrate_semi_infinite(lambda x: pdf_x(dist, x), 0.0,
                                   scale=8.0) \
        - integrate_semi_infinite(lambda x: pdf_x(dist, x), 5.0,
                                  scale=8.0)
    np.testing.assert_allclose(got, want, rtol=1e-8)


def test_cdf_x_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    for nu in (1, 10, 91):
        for y in (1e-3, 0.5, 5.0, 50.0):
            with mp.workdps(30):
                ref = mp.gammainc(nu, 0, y, regularized=True)
            got = erlang_cdf(nu, 2.0, 2.0 * y)
            if ref < 1e-300:  # 1.3e-413 at nu = 91, y = 1e-3
                assert got == 0.0
            else:
                np.testing.assert_allclose(got, float(ref), rtol=1e-13)


def test_pdf_z_single_term_is_erlang():
    _, _, model = scenario1_model()
    dist = model.interference
    z = 1.7
    mu, j = 0.1, 30
    want = math.exp(-z / mu + (j - 1) * math.log(z / mu)
                    - math.lgamma(j)) / mu
    np.testing.assert_allclose(pdf_z(dist, z), want, rtol=1e-10)


def test_pdf_z_normalizes_and_mean_matches_trace():
    _, _, model = scenario1_model()
    dist = model.interference
    total = integrate_semi_infinite(lambda z: pdf_z(dist, z), 0.0,
                                    scale=3.0)
    mean = integrate_semi_infinite(lambda z: z * pdf_z(dist, z), 0.0,
                                   scale=3.0)
    np.testing.assert_allclose(total, 1.0, rtol=1e-8)
    np.testing.assert_allclose(mean, 30 * 0.1, rtol=1e-8)  # trace of A_l


def test_pdf_z_normalizes_for_random_profiles():
    rng = np.random.default_rng(5)
    for _ in range(5):
        k, cells = 3, 3
        beta = np.ones((cells, cells, k))
        beta[0, 1, :] = 10 ** rng.uniform(-2, -0.3, size=k)
        beta[0, 2, :] = 10 ** rng.uniform(-2, -0.3, size=k)
        cfg = SystemConfig(cells, k, 2 * k, 1.0)
        model = sd.make_sinr_model(cfg, LargeScaleFading(beta), 0, 0)
        total = integrate_semi_infinite(
            lambda z: pdf_z(model.interference, z), 0.0,
            scale=float(model.interference.rates().sum()))
        np.testing.assert_allclose(total, 1.0, rtol=1e-8)


def test_mgf_normalization_at_zero():
    _, _, model = scenario1_model()
    assert sd.mgf_sinr(model, 0.0) == 1.0


def test_mgf_no_interference_is_erlang_transform():
    cfg = SystemConfig(1, 10, 20, 10.0)
    model = sd.make_sinr_model(cfg, symmetric_fading(1, 10), 0, 0)
    for s in (0.1, 1.0, 7.0):
        np.testing.assert_allclose(sd.mgf_sinr(model, s),
                                   (1.0 + 10.0 * s) ** -11, rtol=1e-12)


def test_mgf_closed_matches_quadrature_scenario1():
    # tolerance: inner 2F0 quadratures run at 1e-11 and the binomial sum
    # amplifies by its condition number (~1e2 here)
    _, _, model = scenario1_model()
    for s in (0.2, 1.0, 5.0):
        np.testing.assert_allclose(mgf_closed(model, s),
                                   sd.mgf_weighted_sum(model, [s], [1.0]),
                                   rtol=5e-9)


def test_mgf_quadrature_finds_a_narrow_interference_density():
    # cross gain 1e-8: the interference mean (3e-7) is far below 1/p_u
    _, _, model = scenario1_model(a=1e-8)
    closed, cond = mgf_closed_sum(model, 0.1)
    assert cond < 1e6
    np.testing.assert_allclose(closed, 4.8829e-4, rtol=1e-4)
    np.testing.assert_allclose(sd.mgf_weighted_sum(model, [0.1], [1.0]),
                               closed, rtol=1e-9)


def test_mgf_against_frozen_monte_carlo():
    # 10^6 draws of (X, Z) at (N, K, a, p_u) = (20, 10, 0.1, 10), s = 1,
    # seed 12345: mean 0.0478354, standard error 5.13e-05 (frozen).
    _, _, model = scenario1_model()
    closed = sd.mgf_sinr(model, 1.0)
    assert abs(closed - 0.0478354) < 3.0 * 5.13e-05


def test_mgf_completely_monotone_on_grid():
    _, _, model = scenario1_model()
    ss = np.linspace(0.0, 5.0, 26)
    vals = np.array([sd.mgf_sinr(model, float(s)) for s in ss])
    diffs = np.diff(vals)
    assert np.all(diffs <= 1e-14)          # decreasing
    assert np.all(np.diff(diffs) >= -1e-12)  # convex


def test_mgf_distinct_profile_reduced_path():
    beta = np.ones((3, 3, 4))
    beta[0, 1, :] = [0.31, 0.12, 0.052, 0.68]
    beta[0, 2, :] = [0.21, 0.09, 0.44, 0.033]
    cfg = SystemConfig(3, 4, 9, 3.0)
    model = sd.make_sinr_model(cfg, LargeScaleFading(beta), 0, 0)
    for s in (0.3, 1.0, 4.0):
        np.testing.assert_allclose(mgf_closed(model, s),
                                   sd.mgf_weighted_sum(model, [s], [1.0]),
                                   rtol=1e-9)


DISTINCT_GAINS = 0.05 * 10 ** (np.arange(8) / 7)  # geometric in [0.05, 0.5]


def test_mgf_sinr_matches_mpmath():
    # L=3, K=4, the 8 cross gains all distinct; the closed sum is off by
    # 1.6e-8 (N=16, s=1) and 5.9e-6 (N=16, s=5) here
    mp = pytest.importorskip("mpmath")
    beta = np.ones((3, 3, 4))
    beta[0, 1:] = np.reshape(DISTINCT_GAINS, (2, 4))
    for n in (8, 16):
        model = sd.make_sinr_model(SystemConfig(3, 4, n, 10.0),
                                   LargeScaleFading(beta), 0, 0)
        for s in (1.0, 5.0):
            with mp.workdps(40):
                # partial-fraction density of Z, a sum of exponentials of
                # means mu_m: sum_m chi_m e^{-z/mu_m} / mu_m
                mus = [mp.mpf(float(g)) for g in DISTINCT_GAINS]
                chi = [mp.fprod(m / (m - j) for j in mus if j != m)
                       for m in mus]
                t0 = 1 / mp.mpf(10.0)

                def f(z):
                    pdf = mp.fsum(c * mp.exp(-z / m) / m
                                  for c, m in zip(chi, mus))
                    return pdf * (1 + mp.mpf(s) / (z + t0)) ** (3 - n)

                mean = mp.fsum(mus)
                ref = float(mp.quad(f, [0, mean / 4, mean, 4 * mean,
                                        16 * mean, mp.inf]))
            np.testing.assert_allclose(sd.mgf_sinr(model, s), ref,
                                       rtol=1e-12)


def test_sample_sinr_zero_power_limit():
    cfg, fad, _ = scenario1_model()
    tiny = SystemConfig(4, 10, 20, 1e-12)
    model = sd.make_sinr_model(tiny, fad, 0, 0)
    draws = sd.sample_sinr(model, np.random.default_rng(0), size=1000)
    assert draws.max() < 1e-9


def test_sample_sinr_no_interference_mean():
    cfg = SystemConfig(1, 10, 20, 10.0)
    model = sd.make_sinr_model(cfg, symmetric_fading(1, 10), 0, 0)
    draws = sd.sample_sinr(model, np.random.default_rng(1), size=200_000)
    np.testing.assert_allclose(draws.mean(), 10.0 * 1.0 * 11, rtol=0.01)


def _ks_upper_bound_vs_cdf(draws, cdf, grid_points=1024):
    """Rigorous upper bound on the one-sample KS statistic: the monotone CDF
    is bracketed between its values at consecutive grid points, so the
    bound can only overstate the true statistic."""
    x = np.sort(draws)
    n = x.size
    grid = np.quantile(x, np.linspace(0.0, 1.0, grid_points))
    grid = np.unique(grid)
    f_grid = np.array([cdf(g) for g in grid])
    f_grid = np.maximum.accumulate(f_grid)
    j = np.clip(np.searchsorted(grid, x, side="right") - 1, 0,
                grid.size - 2)
    f_lo, f_hi = f_grid[j], f_grid[j + 1]
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(np.maximum(np.abs(upper[:, None] - np.c_[f_lo, f_hi]),
                            np.abs(lower[:, None] - np.c_[f_lo, f_hi])
                            ).max())


def test_sample_sinr_matches_quadrature_cdf():
    # KS below the 1% critical value 1.628/sqrt(n)
    _, _, model = scenario1_model()
    n = 100_000
    draws = sd.sample_sinr(model, np.random.default_rng(2024), size=n)
    bound = _ks_upper_bound_vs_cdf(
        draws, lambda t: sd.sinr_cdf_quadrature(model, t))
    assert bound < 1.628 / math.sqrt(n)


def test_remark1_high_snr_limit_in_distribution():
    # samples at p_u = 1e6 match X/Z samples (two-sample KS, 1% level)
    cfg, fad, _ = scenario1_model()
    hi = SystemConfig(4, 10, 20, 1e6)
    model_hi = sd.make_sinr_model(hi, fad, 0, 0)
    n = 100_000
    a = sd.sample_sinr(model_hi, np.random.default_rng(3), size=n)
    b = sd.sample_sinr(replace(model_hi, p_u=math.inf),
                       np.random.default_rng(4), size=n)
    stat = ks_two_sample(a, b)
    assert stat < 1.628 * math.sqrt(2.0 / n)


def test_sample_sinr_scalar_mode():
    _, _, model = scenario1_model()
    val = sd.sample_sinr(model, np.random.default_rng(9))
    assert isinstance(val, float) and val >= 0.0


@pytest.mark.parametrize("cells", [4, 1])
def test_sample_sinr_at_infinite_power_is_x_over_z(cells):
    # drawn as p_u X / (p_u Z + 1), this gave NaN with and without
    # interference (inf / inf, and inf / (inf * 0 + 1))
    _, _, model = scenario1_model(cells=cells, p_u=math.inf)
    n, nu = 1000, model.shape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sd.sample_sinr(model, np.random.default_rng(5), size=n)
    rng = np.random.default_rng(5)
    x = model.scale * rng.standard_gamma(nu, size=n)
    gains = model.interference.rates()
    z = -(np.log(rng.random((n, gains.size))) * gains).sum(axis=1)
    if cells == 1:
        assert (got == math.inf).all()
    else:
        np.testing.assert_allclose(got, x / z, rtol=1e-14)


def test_sample_sinr_does_not_depend_on_the_row_block(monkeypatch):
    _, _, model = scenario1_model()
    want = sd.sample_sinr(model, np.random.default_rng(6), size=1000)
    for rows in (1, 7, sd._ROWS):
        monkeypatch.setattr(sd, "_ROWS", rows)
        got = sd.sample_sinr(model, np.random.default_rng(6), size=1000)
        assert np.array_equal(got, want)
