"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are the contract's, verbatim; nothing is loosened here.
Two sub-checks are known to fail for reasons analyzed in the project notes:
the three-point SER approximation genuinely misses 5% at N = 20 (its
intrinsic error at concentrated SINR), and the hexagonal-network 95%-likely
anchors sit about a factor two above what the printed drop methodology
yields (every structural property -- the 8-fold N-scaling, reuse crossing,
monotonicity -- does reproduce).
"""

import math

import numpy as np
import pytest

from mumimo import asymptotic as asym
from mumimo import cellnet as cn
from mumimo import cli
from mumimo import closedform as cf
from mumimo import montecarlo as mc
from mumimo import sinrdist as sd
from mumimo.fading import (CharacteristicExpansion, LargeScaleFading,
                           SystemConfig, build_profile, symmetric_fading)

from oracles import ks_two_sample, ks_two_sample_critical
from test_closedform import rate_2d_quadrature, random_distinct_system


def scenario1(n, a, p_u=10.0, cells=4, k=10):
    cfg = SystemConfig(cells, k, n, p_u)
    fad = symmetric_fading(cells, k, 1.0, a)
    exp = build_profile(cfg, fad, 0)
    return cfg, fad, exp


def report(num, checks):
    """Print one line for the criterion and assert every sub-check."""
    ok = all(passed for _, passed, _ in checks)
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'}")
    for label, passed, detail in checks:
        print(f"    {'ok  ' if passed else 'FAIL'} {label}: {detail}")
    failed = [label for label, passed, _ in checks if not passed]
    assert not failed, f"criterion {num} sub-checks failed: {failed}"


def test_criterion_01_scenario1_sum_rates():
    """Paper sum rates 3.76/38.35/73.20 (a=0.1, 1%) and
    0.93/19.10/50.80 (a=0.5, 2%)."""
    checks = []
    for a, tol, targets in ((0.1, 0.01, {10: 3.76, 50: 38.35, 500: 73.20}),
                            (0.5, 0.02, {10: 0.93, 50: 19.10, 500: 50.80})):
        for n, target in targets.items():
            cfg, fad, exp = scenario1(n, a)
            got = 10 * cf.rate_exact(cfg, fad, exp, 0, 0).value
            dev = abs(got - target) / target
            checks.append((f"a={a} N={n}", dev < tol,
                           f"sum rate {got:.4f} vs {target} "
                           f"({dev * 100:.2f}% / {tol * 100:.0f}%)"))
    report(1, checks)


@pytest.mark.slow
def test_criterion_02_rate_vs_oracles():
    """rate_exact vs Monte Carlo (2 SE at 1e4 trials) and vs 2-D quadrature
    (1e-6 relative) over 10 configurations."""
    combos = [(10, 0.1, 0), (10, 0.5, 10), (20, 0.1, 20), (20, 0.5, 0),
              (50, 0.1, 10), (50, 0.5, 20), (10, 0.1, 10), (20, 0.1, 0),
              (50, 0.1, 0), (20, 0.5, 10)]
    checks = []
    for idx, (n, a, snr_db) in enumerate(combos):
        cfg, fad, exp = scenario1(n, a, p_u=10 ** (snr_db / 10))
        exact = cf.rate_exact(cfg, fad, exp, 0, 0).value
        est = mc.estimate_rate(
            cfg, fad, mc.TrialPlan(10_000, base_seed=2000 + idx))
        sig = abs(est.value - exact) / est.std_error
        checks.append((f"MC N={n} a={a} {snr_db}dB", sig <= 2.0,
                       f"{sig:.2f} standard errors"))
        quad = rate_2d_quadrature(cfg, fad, 0, 0)
        rel = abs(exact - quad) / quad
        checks.append((f"2D-quad N={n} a={a} {snr_db}dB", rel < 1e-6,
                       f"rel {rel:.2e}"))
    report(2, checks)


@pytest.mark.slow
def test_criterion_03_sinr_model_ks():
    """Two-sample KS between matrix Monte Carlo and model sampling,
    n = 1e5 each, 1% significance, 5 random configurations."""
    rng = np.random.default_rng(777)
    checks = []
    n_samp = 100_000
    crit = ks_two_sample_critical(n_samp, n_samp)
    for trial in range(5):
        cells = int(rng.integers(2, 5))
        k = int(rng.integers(2, 7))
        n = k + int(rng.integers(0, 15))
        p_u = float(10 ** rng.uniform(0, 1.3))
        beta = np.ones((cells, cells, k))
        for l in range(cells):
            for i in range(cells):
                if i != l:
                    beta[l, i, :] = 10 ** rng.uniform(-2, -0.5, size=k)
        cfg = SystemConfig(cells, k, n, p_u)
        fad = LargeScaleFading(beta)
        plan = mc.TrialPlan(n_samp, base_seed=500 + trial)
        matrix = np.concatenate([g[:, 0]
                                 for g in mc.sinr_trials(cfg, fad, plan)])
        model = sd.make_sinr_model(cfg, fad, 0, 0)
        direct = sd.sample_sinr(model, np.random.default_rng(900 + trial),
                                size=n_samp)
        stat = ks_two_sample(matrix, direct)
        checks.append((f"config {trial} (L={cells} K={k} N={n})",
                       stat < crit, f"KS {stat:.5f} < {crit:.5f}"))
    report(3, checks)


def test_criterion_04_bound_behavior():
    """Bound below exact on 50 random points; <1% gap at N=100; Remark-3
    limit within 1% at N=500 with p_u = 10/N (interference-free regime,
    where the remark's N >> K simplification is exact; see notes)."""
    rng = np.random.default_rng(44)
    checks = []
    violations = 0
    for _ in range(50):
        n = 10 + int(rng.integers(0, 60))
        a = float(10 ** rng.uniform(-1.7, -0.3))
        p_u = float(10 ** rng.uniform(-0.5, 2.0))
        cfg, fad, exp = scenario1(n, a, p_u=p_u)
        if cf.rate_lower_bound(cfg, fad, exp, 0, 0).value \
                > cf.rate_exact(cfg, fad, exp, 0, 0).value:
            violations += 1
    checks.append(("bound <= exact (50 points, strict)", violations == 0,
                   f"{violations} violations"))
    cfg, fad, exp = scenario1(100, 0.1)
    exact = cf.rate_exact(cfg, fad, exp, 0, 0).value
    bound = cf.rate_lower_bound(cfg, fad, exp, 0, 0).value
    gap = (exact - bound) / exact
    checks.append(("gap at N=100, a=0.1, 10 dB", gap < 0.01,
                   f"{gap * 100:.3f}%"))
    cfg = SystemConfig(1, 10, 500, 10.0 / 500)
    fad = symmetric_fading(1, 10)
    bound = cf.rate_lower_bound(cfg, fad, CharacteristicExpansion.empty(),
                                0, 0).value
    dev = abs(bound - math.log2(11.0)) / math.log2(11.0)
    checks.append(("Remark-3 limit at N=500", dev < 0.01,
                   f"bound {bound:.4f} vs log2(11) ({dev * 100:.2f}%)"))
    report(4, checks)


def test_criterion_05_ser_floor_and_approx():
    """Floor at 60 dB within 1% for N in {15, 20}; three-point
    approximation within 5% across the figure SNR grid.  The N=20 approx
    check fails genuinely: the approximation's intrinsic error there is
    ~+6%, SNR-independent (see notes)."""
    mod = cf.ModulationScheme(4)
    checks = []
    for n in (15, 20):
        cfg, fad, exp = scenario1(n, 0.1, p_u=1e6)  # 60 dB
        run = cf.ser_exact(cfg, fad, exp, mod, 0, 0)
        floor = cf.ser_high_snr(cfg, fad, exp, mod, 0, 0)
        rel = abs(run - floor) / floor
        checks.append((f"floor N={n}", rel < 0.01,
                       f"ser(60dB) {run:.4e} vs floor {floor:.4e} "
                       f"({rel * 100:.3f}%)"))
    for n in (15, 20):
        worst = 0.0
        for snr_db in range(0, 41, 5):
            cfg, fad, exp = scenario1(n, 0.1, p_u=10 ** (snr_db / 10))
            ex = cf.ser_exact(cfg, fad, exp, mod, 0, 0)
            ap = cf.ser_approx(cfg, fad, exp, mod, 0, 0)
            worst = max(worst, abs(ap - ex) / ex)
        checks.append((f"approx within 5% (N={n}, 0-40 dB)", worst < 0.05,
                       f"worst deviation {worst * 100:.2f}%"))
    report(5, checks)


def test_criterion_06_outage():
    """Closed-form outage vs 1e5 model samples within 0.01 absolute across
    thresholds spanning P_out in [0.01, 0.99]; asymptote within 1% of the
    p_u = 1e8 run."""
    configs = [(20, 0.1, 10.0), (15, 0.3, 3.16), (12, 0.2, 31.6)]
    checks = []
    for idx, (n, a, p_u) in enumerate(configs):
        cfg, fad, exp = scenario1(n, a, p_u=p_u)
        model = sd.make_sinr_model(cfg, fad, 0, 0, expansion=exp)
        draws = sd.sample_sinr(model, np.random.default_rng(60 + idx),
                               size=100_000)
        qs = np.quantile(draws, [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
        worst = 0.0
        for gth in qs:
            emp = float((draws <= gth).mean())
            worst = max(worst, abs(
                cf.outage_exact(cfg, fad, exp, 0, 0, float(gth)) - emp))
        checks.append((f"empirical match N={n} a={a}", worst < 0.01,
                       f"worst |diff| {worst:.4f}"))
    cfg, fad, exp = scenario1(12, 0.3)
    hi_cfg = SystemConfig(4, 10, 12, 1e8)
    for gth in (0.5, 1.5):
        asymv = cf.outage_small_threshold(cfg, fad, exp, 0, 0, gth)
        hi = cf.outage_exact(hi_cfg, fad, exp, 0, 0, gth)
        rel = abs(asymv - hi) / hi
        checks.append((f"asymptote gamma_th={gth}", rel < 0.01,
                       f"rel {rel:.2e}"))
    report(6, checks)


def test_criterion_07_power_scaling():
    """p_u = 10/N at N=500: Monte Carlo mean rate within 5% of log2(11);
    fixed p_u = 10: rate grows from N=100 to N=500."""
    checks = []
    cfg = SystemConfig(4, 10, 500, 10.0 / 500)
    fad = symmetric_fading(4, 10, 1.0, 0.1)
    est = mc.estimate_rate(cfg, fad, mc.TrialPlan(1000, base_seed=70))
    dev = abs(est.value - math.log2(11.0)) / math.log2(11.0)
    checks.append(("MC rate at N=500, p_u=10/N", dev < 0.05,
                   f"{est.value:.4f} vs {math.log2(11.0):.4f} "
                   f"({dev * 100:.2f}%)"))
    r100 = cf.rate_exact(*scenario1(100, 0.1), 0, 0).value
    r500 = cf.rate_exact(*scenario1(500, 0.1), 0, 0).value
    checks.append(("unbounded growth at fixed p_u", r500 > r100,
                   f"rate(N=500) {r500:.3f} > rate(N=100) {r100:.3f}"))
    report(7, checks)


def test_criterion_08_deterministic_equivalent():
    """Mean |gamma/gamma_bar - 1| at kappa=10 decreases from N=100 to
    N=400 and is below 10% at N=400."""
    kappa = 10
    means = {}
    for n in (100, 400):
        k = n // kappa
        cfg = SystemConfig(4, k, n, 10.0)
        fad = symmetric_fading(4, k, 1.0, 0.1)
        bar = asym.deterministic_sir(fad, 0, 0, float(kappa))
        plan = mc.TrialPlan(1000, base_seed=80 + n)
        gam = np.concatenate([g.ravel()
                              for g in mc.sinr_trials(cfg, fad, plan)])
        means[n] = float(np.abs(gam / bar - 1.0).mean())
    checks = [
        ("decreases with N", means[400] < means[100],
         f"{means[100] * 100:.2f}% -> {means[400] * 100:.2f}%"),
        ("below 10% at N=400", means[400] < 0.10,
         f"{means[400] * 100:.2f}%"),
    ]
    report(8, checks)


def test_criterion_09_dof_solver():
    """required_kappa monotone along R_inf in {1..6} for eta in {0.8, 0.9}
    and a in {0.1, 0.5}; plugged-back residual below 1e-5."""
    checks = []
    for eta in (0.8, 0.9):
        for a in (0.1, 0.5):
            fad = symmetric_fading(4, 10, 1.0, a)
            kappas = []
            worst_res = 0.0
            for r_inf in (1, 2, 3, 4, 5, 6):
                e_u = 2.0 ** r_inf - 1.0
                kap = asym.required_kappa(fad, 0, 0, e_u, eta)
                kappas.append(kap)
                achieved = asym.power_scaled_fixed_ratio_rate(fad, 0, 0,
                                                              e_u, kap)
                worst_res = max(worst_res,
                                abs(achieved - eta * r_inf) / (eta * r_inf))
            mono = all(b >= a_ for a_, b in zip(kappas, kappas[1:]))
            checks.append((f"monotone eta={eta} a={a}", mono,
                           f"kappa {kappas[0]:.2f}..{kappas[-1]:.2f}"))
            checks.append((f"residual eta={eta} a={a}", worst_res < 1e-5,
                           f"worst {worst_res:.2e}"))
    report(9, checks)


def test_criterion_10_scenario2():
    """95%-likely anchors 0.170 / 1.375 Mbit/s within 15%, and the
    reuse-1-vs-7 CDF crossing at N=100.

    The two anchors fail genuinely.  The printed drop methodology gives
    0.0702 and 0.5745 Mbit/s, -58.7% and -58.2% off, while the structure
    reproduces: the N=20 -> N=100 ratio is 8.18 against the expected
    8-fold, and the CDFs cross.  A shortfall of nearly one size at both N
    fits one SNR offset of about 4.5 dB that does not depend on N: with
    nothing else changed, 15 dB in place of the scenario's 10 dB gives
    1.06 and 1.04 times the anchors on these seeds, ratio 7.99.  Averaging
    the fast fading within each drop (4000 samples per drop) raises the
    5th percentile by only 10% and 3%, and removing shadowing from the
    desired link overshoots to 2.9 and 3.3 times the anchors.  Where such
    an offset would come from (the
    point p_u refers to, a noise figure, the path-loss normalisation)
    needs the paper's own SNR definition, which PAPER.md, the abstract
    only, lacks; an SNR fitted to the anchors would be a fit, not
    evidence, so the gap is not mended.  The scenario is Marzetta's
    (IEEE Trans. Wireless Commun. 9(11), 2010).
    """
    ofdm = cn.OfdmParams()
    checks = []
    dists = {}
    for idx, n in enumerate((20, 100)):
        sc = cn.NetworkScenario(reuse_factor=1, antennas=n)
        dists[n] = cn.rate_distribution(sc, ofdm, 200, 100,
                                        np.random.default_rng(100 + idx))
    for n, target in ((20, 0.170e6), (100, 1.375e6)):
        got = dists[n].likely_95
        dev = (got - target) / target
        checks.append((f"95%-likely r=1 N={n}", abs(dev) < 0.15,
                       f"{got / 1e6:.4f} Mb/s vs {target / 1e6:.3f} "
                       f"({dev * 100:+.1f}%)"))
    ratio = dists[100].likely_95 / dists[20].likely_95
    checks.append(("8-fold improvement N=20 -> N=100",
                   6.0 < ratio < 10.5, f"ratio {ratio:.2f}"))
    sc7 = cn.NetworkScenario(reuse_factor=7, antennas=100)
    d7 = cn.rate_distribution(sc7, ofdm, 200, 100,
                              np.random.default_rng(102))
    crossing = (d7.percentile(5) > dists[100].percentile(5)
                and dists[100].percentile(90) > d7.percentile(90))
    checks.append(("CDF crossing r=1 vs r=7 at N=100", crossing,
                   f"5th pct {d7.percentile(5) / 1e6:.3f} > "
                   f"{dists[100].percentile(5) / 1e6:.3f}; 90th "
                   f"{dists[100].percentile(90) / 1e6:.2f} > "
                   f"{d7.percentile(90) / 1e6:.2f} (Mb/s)"))
    report(10, checks)


def test_criterion_11_special_function_layer():
    """Every closed form within 1e-8 of its quadrature oracle over 100
    random draws per operation; MGF reconstruction to 1e-10."""
    from test_specfun import (ei_oracle, en_oracle, gamma_oracle,
                              hyp2f0_oracle)
    from mumimo import specfun as sf
    rng = np.random.default_rng(1111)
    worst = {"ei": 0.0, "en": 0.0, "gamma": 0.0, "2f0": 0.0, "logm": 0.0,
             "ei_moment": 0.0}
    for _ in range(100):
        x = -float(10 ** rng.uniform(-2, 1.3))
        worst["ei"] = max(worst["ei"], abs(
            (sf.expint_ei(x) - ei_oracle(x)) / ei_oracle(x)))
        # E_n and Gamma(a, x) as the library evaluates them: e^z E_n(z),
        # and x^a e^-x U(1, a+1, x) from the terminating Tricomi-U sum
        n, z = int(rng.integers(0, 9)), float(10 ** rng.uniform(-2, 1.3))
        worst["en"] = max(worst["en"], abs(
            (math.exp(-z) * sf.expint_en_scaled(n, z) - en_oracle(n, z))
            / en_oracle(n, z)))
        a, xx = int(rng.integers(1, 25)), float(10 ** rng.uniform(-2, 1.5))
        worst["gamma"] = max(worst["gamma"], abs(
            (xx ** a * math.exp(-xx) * sf.tricomi_u(1, a + 1, xx)
             - gamma_oracle(a, xx)) / gamma_oracle(a, xx)))
        nn, p = int(rng.integers(1, 7)), int(rng.integers(0, 7))
        arg = float(10 ** rng.uniform(-1.5, 0.8))
        ref = hyp2f0_oracle(nn, p, arg)
        worst["2f0"] = max(worst["2f0"],
                           abs((sf.hyp2f0_neg(nn, p, arg) - ref) / ref))
        mu = float(10 ** rng.uniform(-1.5, 0.8))
        aa = float(10 ** rng.uniform(-1.5, 1.2))
        nl = int(rng.integers(1, 9))
        ref = sf.log_moment_quadrature(nl, mu, aa)
        worst["logm"] = max(worst["logm"], abs(
            (sf.log_moment_kernel(nl, mu, aa) - ref) / ref))
        m = int(rng.integers(0, 5))
        nn = int(rng.integers(0, 5))
        ka = float(10 ** rng.uniform(-0.7, 0.7))
        kb = float(10 ** rng.uniform(-1, 0.7))
        al = float(10 ** rng.uniform(-0.5, 1.0))
        ref = sf.ei_moment_quadrature(m, nn, ka, kb, al)
        worst["ei_moment"] = max(worst["ei_moment"], abs(
            (sf.ei_moment_kernel(m, nn, ka, kb, al) - ref) / ref))
    checks = [(f"{name} vs oracle (100 draws)", val < 1e-8, f"worst {val:.2e}")
              for name, val in worst.items()]

    # the closed rate sum's partial-fraction MGF against the product form,
    # computed in extended precision from the gains alone
    from test_fading import _draw_profile, mgf_by_weights, mgf_product
    rng = np.random.default_rng(20240201)
    worst_mgf = 0.0
    for _ in range(50):
        exp = _draw_profile(rng)
        smax = 1.0 / exp.mu.max()
        for s in rng.uniform(-2.0 * smax, 0.9 * smax, size=20):
            ref = mgf_product(exp, float(s))
            worst_mgf = max(worst_mgf,
                            abs((mgf_by_weights(exp, float(s)) - ref) / ref))
    checks.append(("MGF reconstruction (50 profiles)", worst_mgf < 1e-10,
                   f"worst {worst_mgf:.2e}"))
    report(11, checks)


def test_criterion_12_cli_determinism(tmp_path):
    """Identical config + seed gives byte-identical CSVs at any thread
    count, for a Monte Carlo sweep and a scenario-2 run."""
    checks = []
    args = ["montecarlo", "--seed", "7", "--trials", "600",
            "--set", "n_list=12,16", "--set", "users=4"]
    blobs = []
    for name, threads in (("a", "1"), ("b", "4")):
        out = tmp_path / name
        assert cli.main(args + ["--out", str(out), "--threads",
                                threads]) == 0
        blobs.append((out / "montecarlo.csv").read_bytes())
    checks.append(("montecarlo sweep, 1 vs 4 threads",
                   blobs[0] == blobs[1], f"{len(blobs[0])} bytes"))
    args = ["scenario2", "--seed", "11", "--set", "reuse_list=1,3",
            "--set", "n_list=20", "--set", "drops=6",
            "--set", "fading_samples=6", "--set", "emit_samples=0"]
    blobs = []
    for name, threads in (("c", "1"), ("d", "3")):
        out = tmp_path / name
        assert cli.main(args + ["--out", str(out), "--threads",
                                threads]) == 0
        blobs.append((out / "scenario2_summary.csv").read_bytes())
    checks.append(("scenario2, 1 vs 3 threads", blobs[0] == blobs[1],
                   f"{len(blobs[0])} bytes"))
    report(12, checks)
