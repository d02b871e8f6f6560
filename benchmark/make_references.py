"""Compute the benchmark's reference values with mpmath, apart from the program.

Run from the repository root:

    PYTHONPATH=src python3 benchmark/make_references.py

It rewrites `benchmark/references.json` (and `benchmark/fixed_drop.json`,
the one network drop the `simulation` workload samples from).  No value
comes from the program's closed forms, its partial-fraction expansion or its
quadrature; the program is used only to draw the fixed drop's geometry.

Methods (Z is the interference power, a sum of exponentials with means mu_j;
X is Erlang(N-K+1, beta); gamma = p_u X / (p_u Z + n0) with n0 = 1):

- rate: product-form identity
  E ln(1 + gamma) = int_0^inf e^{-n0 s} M_Z(p_u s) (1 - M_X(p_u s)) / s ds
  with M_Z(t) = prod_j (1 + mu_j t)^-1 and M_X(t) = (1 + beta t)^-(N-K+1);
- Jensen bound: log2(1 + p_u beta exp(psi(N-K+1) - E ln(1 + p_u Z))) with
  E ln(1 + p_u Z) = int_0^inf e^{-s} (1 - M_Z(p_u s)) / s ds;
- outage: P(X <= c (Z + t)) with c = gamma_th / beta, t = 1/p_u, from the
  Taylor coefficients b_j of e^{tu} prod_j (1 - rho_j u)^-1,
  rho_j = mu_j / (1 + c mu_j).  The finite sum 1 - P sum_{j<N-K+1} c^j b_j
  is taken with 60 digits to spare beyond the result's magnitude and must
  agree with the positive tail series
  P sum_{j>=N-K+1} c^j b_j (P = e^{-ct} prod_j (1 + c mu_j)^-1);
  t = 0 gives the small-threshold (high-SNR) limit;
- SER: the theta x z double integral
  (1/pi) int_0^Theta E_Z[((Z + t)/(Z + t + beta g / sin^2 theta))^(N-K+1)]
  with the density of Z in closed form (Gamma for equal gains, partial
  fractions at 40 digits for distinct gains); t = 0 gives the floor, and
  the three-point approximation is evaluated with the same MGF.
"""

import json
import os
import sys
import time

import mpmath as mp

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
RATE_DPS = 30
OUTAGE_DPS = 60
SER_DPS = 20


def _nu(profile, n):
    return n - wl.PROFILES[profile]["users"] + 1


def _mz_log(cross, t):
    return -mp.fsum(mp.log1p(mu * t) for mu in cross)


def _breaks(scales):
    pts = sorted({mp.mpf(0)} | {mp.mpf(s) for s in scales if s > 0})
    return pts + [mp.inf]


def rate_nats(cross, beta, nu, p_u, n0=1.0):
    """E ln(1 + p_u X / (p_u Z + n0)) by the product-form identity."""
    p_u, beta = mp.mpf(p_u), mp.mpf(beta)

    def f(s):
        if s == 0:
            return nu * beta * p_u
        one_minus_mx = -mp.expm1(-nu * mp.log1p(beta * p_u * s))
        return mp.exp(-n0 * s + _mz_log(cross, p_u * s)) * one_minus_mx / s

    scales = [1 / (beta * p_u * nu), 1 / (beta * p_u), 1 / (p_u * max(cross)),
              1 / (p_u * min(cross)), 1 / mp.mpf(n0)]
    return mp.quad(f, _breaks(scales))


def log_interference(cross, p_u):
    """E ln(1 + p_u Z)."""
    p_u = mp.mpf(p_u)

    def f(s):
        if s == 0:
            return p_u * mp.fsum(cross)
        return mp.exp(-s) * -mp.expm1(_mz_log(cross, p_u * s)) / s

    return mp.quad(f, _breaks([1 / (p_u * max(cross)),
                               1 / (p_u * min(cross)), 1]))


def bound_bits(cross, beta, nu, p_u):
    inner = mp.digamma(nu) - log_interference(cross, p_u)
    return mp.log(1 + p_u * beta * mp.exp(inner)) / mp.log(2)


def outage(cross, beta, nu, p_u, gamma_th, limit=False):
    """P(gamma <= gamma_th); `limit` drops the noise (p_u -> infinity)."""
    tail = _outage_tail(cross, beta, nu, p_u, gamma_th, limit, 40)[0]
    digits = OUTAGE_DPS + max(0, int(-mp.log10(tail)))
    tail, finite = _outage_tail(cross, beta, nu, p_u, gamma_th, limit, digits)
    if abs(finite - tail) > mp.mpf(10) ** -40 * tail:
        raise RuntimeError(f"outage forms disagree: {finite} vs {tail}")
    return tail


def _outage_tail(cross, beta, nu, p_u, gamma_th, limit, dps, extra=400):
    """(positive tail series, finite sum) at `dps` digits."""
    with mp.workdps(dps):
        c = mp.mpf(gamma_th) / beta
        t = mp.mpf(0) if limit else 1 / mp.mpf(p_u)
        rho = [mp.mpf(mu) / (1 + c * mu) for mu in cross]
        pre = mp.exp(-c * t - mp.fsum(mp.log1p(c * mu) for mu in cross))
        jmax = nu + extra
        b = [t ** j / mp.factorial(j) for j in range(jmax + 1)]
        for r in rho:
            for j in range(1, jmax + 1):
                b[j] += r * b[j - 1]
        terms = [c ** j * b[j] for j in range(nu, jmax + 1)]
        tail = pre * mp.fsum(terms)
        if terms[-1] * pre > mp.mpf(10) ** -60 * tail:  # not converged yet
            return _outage_tail(cross, beta, nu, p_u, gamma_th, limit, dps,
                                2 * extra)
        finite = 1 - pre * mp.fsum(c ** j * b[j] for j in range(nu))
        return +tail, +finite


def _z_density(cross):
    """Density of Z without the program's expansion."""
    if len(set(cross)) == 1:
        mu, k = mp.mpf(cross[0]), len(cross)
        lg = mp.loggamma(k)
        return lambda z: mp.exp((k - 1) * mp.log(z) - z / mu - lg) / mu ** k \
            if z > 0 else mp.mpf(0)
    if len(set(cross)) != len(cross):
        raise ValueError("partial fractions need equal or all-distinct gains")
    with mp.workdps(40):
        mus = [mp.mpf(m) for m in cross]
        w = [mp.fprod(mi / (mi - mj) for mj in mus if mj != mi) / mi
             for mi in mus]
    return lambda z: mp.fsum(wi * mp.exp(-z / mi) for wi, mi in zip(w, mus))


def mgf(density, cross, beta, nu, p_u, s, limit=False):
    """E exp(-s gamma) = E_Z[((Z + t)/(Z + t + beta s))^nu]."""
    t = mp.mpf(0) if limit else 1 / mp.mpf(p_u)
    bs = beta * mp.mpf(s)

    def f(z):
        return density(z) * mp.exp(nu * (mp.log(z + t) - mp.log(z + t + bs))) \
            if z + t > 0 else mp.mpf(0)

    mean = mp.fsum(cross)
    return mp.quad(f, _breaks([mean / 4, mean, 4 * mean]))


def ser_values(profile, n, p_u):
    """(SER, SER floor, three-point approximation) for M-PSK."""
    cross = wl.PROFILES[profile]["cross"]
    nu, beta = _nu(profile, n), wl.DIRECT_GAIN
    m = wl.PSK_ORDER
    g = mp.sin(mp.pi / m) ** 2
    theta = mp.pi - mp.pi / m
    density = _z_density(cross)

    def ser(limit):
        def f(th):
            sin2 = mp.sin(th) ** 2
            return mgf(density, cross, beta, nu, p_u, g / sin2, limit) \
                if sin2 > 0 else mp.mpf(0)
        return mp.quad(f, [0, theta / 4, theta / 2, theta]) / mp.pi

    def mg(s):
        return mgf(density, cross, beta, nu, p_u, s)

    approx = ((theta / (2 * mp.pi) - mp.mpf(1) / 6) * mg(g)
              + mg(4 * g / 3) / 4
              + (theta / (2 * mp.pi) - mp.mpf(1) / 4)
              * mg(g / mp.sin(theta) ** 2))
    return ser(False), ser(True), approx


def _s(x):
    return mp.nstr(x, 25)


def fixed_drop():
    """Draw the fixed reuse-1 drop (N=20) once, with the program's sampler."""
    import numpy as np
    from mumimo import cellnet
    scenario = cellnet.NetworkScenario(reuse_factor=1, antennas=20)
    grid = cellnet.build_hex_grid(scenario)
    drop = cellnet.drop_users(scenario, grid,
                              np.random.default_rng(wl.FIXED_DROP_SEED))
    return {"reuse": 1, "antennas": 20, "users": scenario.users_per_cell,
            "transmit_snr": scenario.transmit_snr,
            "bs_positions": drop.bs_positions.tolist(),
            "positions": drop.positions.tolist(),
            "beta_home": drop.beta_home.tolist()}


def fixed_drop_rates(drop):
    """Mean net rate of every home user of the drop, bits/second."""
    from mumimo.cellnet import OfdmParams  # only the OFDM constants
    ofdm = OfdmParams()
    reuse = drop["reuse"]
    nu = drop["antennas"] - drop["users"] + 1
    cross = [b for row in drop["beta_home"][1:] for b in row]
    scale = (mp.mpf(ofdm.bandwidth) / reuse * ofdm.useful_duration
             / ofdm.symbol_duration / mp.log(2))
    return [_s(scale * rate_nats(cross, beta, nu, drop["transmit_snr"],
                                 n0=mp.mpf(1) / reuse))
            for beta in drop["beta_home"][0]]


def main():
    started = time.time()

    def log(msg):
        print(f"[{time.time() - started:7.1f}s] {msg}", file=sys.stderr,
              flush=True)

    # key -> (digits, function) for every value some check compares with
    jobs = {}
    for op in wl.closed_rate_ops() + wl.simulation_ops():
        key, prof, n, p_u = wl.reference_key(op), op["profile"], op["n"], \
            op["p_u"]
        if prof not in wl.PROFILES:
            continue
        cross, nu = wl.PROFILES[prof]["cross"], _nu(prof, n)
        kind = op["kind"].replace("mc-", "")
        if kind == "rate":
            jobs[key] = (RATE_DPS, lambda c=cross, v=nu, p=p_u:
                         rate_nats(c, 1.0, v, p) / mp.log(2))
        elif kind == "bound":
            jobs[key] = (RATE_DPS, lambda c=cross, v=nu, p=p_u:
                         bound_bits(c, 1.0, v, p))
        elif kind == "outage":
            jobs[key] = (RATE_DPS, lambda c=cross, v=nu, p=p_u,
                         g=op["gamma_th"]: outage(c, 1.0, v, p, g))
        elif kind == "limit":
            jobs[key] = (RATE_DPS, lambda: mp.log(1 + wl.DIRECT_GAIN * wl.E_U)
                         / mp.log(2))
        elif kind == "ser":
            jobs[key] = (SER_DPS, lambda name=prof, m=n, p=p_u:
                         ser_values(name, m, p)[0])
    for sweep in wl.CLI_SWEEPS:
        prof = sweep["profile"]
        cross = wl.PROFILES[prof]["cross"]
        for snr in sweep["snr_db_list"]:
            p_u = wl.db_to_linear(snr)
            for n in sweep["n_list"]:
                nu = _nu(prof, n)
                if sweep["mode"] == "ser":
                    jobs[wl.ser_key(prof, n, p_u)] = (
                        SER_DPS, lambda name=prof, m=n, p=p_u:
                        ser_values(name, m, p))
                    continue
                for g in sweep["gamma_th_list"]:
                    key = wl.outage_key(prof, n, p_u, g)
                    jobs[key] = (RATE_DPS, lambda c=cross, v=nu, p=p_u, t=g:
                                 outage(c, 1.0, v, p, t))
                    jobs[key + "|limit"] = (
                        RATE_DPS, lambda c=cross, v=nu, p=p_u, t=g:
                        outage(c, 1.0, v, p, t, limit=True))

    refs = {}
    for key, (dps, fn) in jobs.items():
        mp.mp.dps = dps
        value = fn()
        if isinstance(value, tuple):  # SER: exact, floor, approximation
            refs[key], refs[key + "|floor"], refs[key + "|approx"] = \
                map(_s, value)
        else:
            refs[key] = _s(value)
        log(key)
    mp.mp.dps = RATE_DPS
    drop = fixed_drop()
    refs["fixed-drop"] = fixed_drop_rates(drop)
    log("fixed drop")
    with open(os.path.join(HERE, "fixed_drop.json"), "w") as fh:
        json.dump(drop, fh)
        fh.write("\n")
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(dict(sorted(refs.items())), fh, indent=1)
        fh.write("\n")
    log(f"wrote {len(refs)} references")


if __name__ == "__main__":
    main()
