"""The post-ZF SINR model: gamma = p_u X / (p_u Z + 1).

X (desired power) is Erlang with shape N-K+1 and scale beta_llk; Z
(cross-cell interference power) is a sum of independent exponentials whose
gains (mu, tau) the model carries as a fading.CharacteristicExpansion.  Both
are exact distributional identities for the zero-forcing receiver, so this
module doubles as a fast sampler equivalent to full channel-matrix
simulation: `sample_sinr` draws X / (Z + 1/p_u), p_u = inf too, and its
interference kernel also draws the hexagonal network's Z (`cellnet`).

The CDF of gamma (the outage) and the Erlang CDF are the tail of one
Poisson plus negative-binomial count over the gains (`_count_tail`), and
every transform of gamma is that CDF integrated by parts, a fixed trapezoid
sum of positive terms.  The CDF arbiter `sinr_cdf_quadrature` inverts the
transform of X - gamma_th Z instead, one fixed trapezoid sum on a parabola
through its saddle point (`_log_cdf`) for every law, L = 1 included; none of
these reads the expansion's weights chi, and the arbiter reads no count law.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .fading import CharacteristicExpansion, build_profile
# unused here; bound because benchmark/tracing.py wraps them by name
from .specfun import expint_en_scaled, hyp2f0_neg  # noqa: F401

__all__ = [
    "DesiredPowerDist",
    "SinrModel",
    "make_sinr_model",
    "pdf_x",
    "cdf_x",
    "mgf_sinr",
    "mgf_sinr_high_snr",
    "mgf_weighted_sum",
    "sample_sinr",
    "sinr_cdf_quadrature",
]

# sample rows per block of interference uniforms: sets the memory of one
# block (256 rows of a reuse-1 drop's 840 co-channel users is 1.7 MB),
# never a result
_ROWS = 256


@dataclass(frozen=True)
class DesiredPowerDist:
    """Erlang law of the desired-signal power after zero-forcing."""

    shape: int   # N - K + 1
    scale: float  # beta_llk

    def __post_init__(self):
        if self.shape < 1:
            raise ValueError("shape must be >= 1 (requires N >= K)")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class SinrModel:
    desired: DesiredPowerDist
    interference: CharacteristicExpansion
    p_u: float

    def __post_init__(self):
        if not self.p_u > 0:
            raise ValueError(f"p_u must be positive, got {self.p_u}")


def make_sinr_model(config, fading, user, cell, expansion=None):
    """SinrModel for one user from a config + fading tensor."""
    if expansion is None:
        expansion = build_profile(config, fading, cell)
    desired = DesiredPowerDist(config.zf_shape, fading.direct_gain(cell, user))
    return SinrModel(desired, expansion, config.transmit_snr)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def pdf_x(dist, x):
    """Erlang density of the desired power."""
    s, b = dist.shape, dist.scale
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    with np.errstate(divide="ignore"):
        out[pos] = np.exp((s - 1) * np.log(x[pos] / b) - x[pos] / b
                          - math.lgamma(s)) / b
    if s == 1:
        out = np.where(x == 0, 1.0 / b, out)
    return float(out) if out.ndim == 0 else out


_TAIL_RTOL = 1e-17  # neglected remainder of a summed tail, relative to it
_TINY = np.finfo(float).tiny  # below it, q's ratios read 1 or inf


def _count_tail(lam, tau, odds, nu):
    """P{M >= nu} for M = Poisson(lam) + sum_m NegBin(tau_m, r_m), where
    r_m = odds_m / (1 + odds_m) (arrays tau, odds), from positive terms
    only.

    Each component's pmf on 0..n-1 is taken relative to its largest value
    there, whose logs add up to one log scale, so e^{-lam} prod_m
    (1 - r_m)^tau_m may lie far below the double range.  The truncated
    convolution q is exact below n.  If the head S = P{M < nu} is at most
    1/2 the result is 1 - S, else the tail over the whole mass, summed until
    its last entry underflows or a bound on the rest is below _TAIL_RTOL of
    it (M is log-concave, so q falls at least as fast as its last ratio).
    """
    if nu <= 0 or lam == math.inf or np.isinf(odds).any():
        return 1.0
    if lam <= 0 and len(tau) == 0:  # M = 0 (also x <= 0 in cdf_x)
        return 0.0
    n = 2 * nu + 31
    while True:
        inv_k1 = 1.0 / np.arange(1.0, n)  # 1 / (k + 1) for k = 0 .. n-2
        # per component: ln p(0), the ratios p(k+1) / p(k) and the mode
        parts = [(-lam, lam * inv_k1, int(lam))] if lam > 0 else []
        parts += [(-t * math.log1p(s), s / (1 + s) * (1 + (t - 1) * inv_k1),
                   int((t - 1) * s))
                  for t, s in zip(tau.tolist(), odds.tolist())]
        q, log_scale = None, 0.0
        for log_p0, up, a in parts:
            # p(k) / p(a), a the mode within 0..n-1, as products of ratios
            a = min(a, n - 1)
            pmf = np.ones(n)
            pmf[a + 1:] = np.cumprod(up[a:])
            log_scale += log_p0
            if a:
                pmf[:a] = np.cumprod(1.0 / up[a - 1::-1])[::-1]
                log_scale += math.fsum(np.log(up[:a]))
            q = pmf if q is None else np.convolve(q, pmf)[:n]
        head = float(q[:nu].sum())
        log_head = math.log(head) + log_scale if head else -math.inf
        if log_head <= -math.log(2.0):
            return 1.0 - math.exp(log_head)
        tail, last = float(q[nu:].sum()), float(q[-1])
        rho = last / float(q[-2]) if last >= _TINY else 0.0
        if rho < 1.0 and last * rho <= _TAIL_RTOL * tail * (1.0 - rho):
            return tail / (head + tail)
        n = 2 * n if rho >= 1.0 else n + 2 + int(
            math.log(_TAIL_RTOL * tail * (1.0 - rho) / (last * rho))
            / math.log(rho))


def cdf_x(dist, x):
    """Erlang CDF P{X <= x} = P{Poisson(x / scale) >= shape}."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("cdf_x: x must not be NaN")
    no_gains = np.empty(0)
    out = np.vectorize(lambda v: _count_tail(v / dist.scale, no_gains,
                                             no_gains, dist.shape),
                       otypes=[float])(x)
    return float(out) if out.ndim == 0 else out


def _cdf_edge(t, name):
    """P{gamma <= t} where it is 0 (t <= 0) or 1 (t = inf), else None; a NaN
    t raises."""
    if math.isnan(t):
        raise ValueError(f"{name} must not be NaN")
    return 0.0 if t <= 0 else 1.0 if t == math.inf else None


# ---------------------------------------------------------------------------
# moment generating function of gamma
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _cdf(law, x):
    """P{gamma <= x} for law = (nu, 1 / (beta p_u), mu / beta, tau); cached,
    so the SER and its approximation at one p_u share their nodes."""
    nu, lam, odds, tau = law
    return _count_tail(x * lam, np.array(tau), x * np.array(odds), nu)


def mgf_weighted_sum(model, s, w):
    """sum_j w_j E{e^{-s_j gamma}} = int_0^inf F(x) sum_j w_j s_j e^{-s_j x}
    dx by parts, F the count-law CDF of gamma (L = 1 and p_u = inf too), by
    the trapezoid rule in ln x with step min(1/4, 1/(2 sqrt(nu))), as F is
    a step of width ~ 1/sqrt(nu) there.  It marches both ways from the node
    nearest ln(1 / min s) to the first falling term below 1e-18 of the sum,
    so it finds the peak wherever the SINR puts it."""
    nu, beta = model.desired.shape, model.desired.scale
    gains = model.interference
    law = (nu, 1.0 / (beta * model.p_u), tuple((gains.mu / beta).tolist()),
           tuple(gains.tau.tolist()))
    s, ws = np.asarray(s, dtype=float), np.multiply(w, s)
    h = min(0.25, 0.5 / math.sqrt(nu))
    j0 = round(-math.log(float(s.min())) / h)
    total = 0.0
    for j, step in ((j0, 1), (j0 - 1, -1)):
        prev = math.inf
        while True:
            x = math.exp(j * h)
            kernel = x * float(ws @ np.exp(-s * x))
            cdf = _cdf(law, x)
            term = cdf * kernel
            total += term
            # e^{-s_j x} is gone above, F is 0 below, or the sum is done
            if ((kernel if step > 0 else cdf) == 0.0
                    or term < prev and term < 1e-18 * total):
                break
            prev, j = term, j + step
    return h * total


def mgf_sinr(model, s):
    """E{e^{-s gamma}}; 1 at s = 0.

    `mgf_weighted_sum` at the single node s, exact for any N - K.  The
    paper's binomial sum of 2F0 terms cancels catastrophically for large
    N - K, so it serves only as a reference in the tests.
    """
    if not s >= 0:
        raise ValueError(f"mgf_sinr requires s >= 0, got s = {s}")
    if s == 0:
        return 1.0
    if s == math.inf:  # P{gamma = 0} = 0
        return 0.0
    return min(1.0, max(0.0, mgf_weighted_sum(model, [s], [1.0])))


def mgf_sinr_high_snr(model, s):
    """MGF of the p_u -> infinity SINR limit X/Z: `mgf_sinr` at 1/p_u = 0."""
    return mgf_sinr(replace(model, p_u=math.inf), s)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _interference(rng, gains, count):
    """`count` draws of Z = -ln(V) . gains, one exponential per gain, from
    one block of uniforms V per `_ROWS` rows.  `Generator.random` fills in
    C order and each row is one dot, so no value depends on `_ROWS`.  No
    gains draw nothing and give Z = 0."""
    z = np.empty(count)
    for lo in range(0, count, _ROWS):
        v = rng.random((min(_ROWS, count - lo), gains.size))
        # one contiguous dot per row: a BLAS mat-vec sums a row in an order
        # that depends on the rows in the call (6.9e-14 apart in the rates)
        z[lo:lo + _ROWS] = np.einsum("ij,j->i", np.log(v, out=v), gains)
    return np.negative(z, out=z)


def sample_sinr(model, rng, size=None):
    """Draw X / (Z + 1/p_u), the SINR p_u X / (p_u Z + 1); p_u = inf gives
    the high-SNR limit X/Z (+inf without interference).

    X is beta times one standard gamma variate of shape N-K+1, all drawn
    before Z.  Z is the sum of the underlying per-user exponentials
    (`_interference`), not drawn from the mixture expansion, whose weights
    may be negative.
    """
    count = 1 if size is None else int(size)
    x = rng.standard_gamma(model.desired.shape, size=count)
    x *= model.desired.scale
    z = _interference(rng, model.interference.rates(), count)
    z += 1.0 / model.p_u
    with np.errstate(divide="ignore"):
        x /= z
    return float(x[0]) if size is None else x


# trapezoid step and half-range in v: without the Gaussian (p_u = inf) the
# slowest tail is |u|^-5 du = e^-4v dv (L = 2, K = N = 1)
_STEP, _RANGE = 1 / 40, 16


def _log_cdf(model, threshold):
    """(ln v, upper): v = P{gamma <= t}, t = threshold, or 1 - P if upper,
    from the gains alone, by the saddle-point inversion of Rice (1980) and
    Helstrom (1978): gamma <= t is Y = X - t Z <= y = t / p_u, and
    E e^{-sY} = (1 + beta s)^-nu prod_m (1 - t mu_m s)^-tau_m.  phi(s) =
    s y + ln E e^{-sY} - ln |s| is convex on each side of 0, and of its
    saddle points (P on the right, 1 - P on the left) the lower one, sigma,
    is summed along the parabola s = sigma + iu - b u^2, which bends left
    through sigma and crosses no singularity, as all are real (Weideman &
    Trefethen 2007); b = 1 / (4 (sigma + 1/beta)) puts those left of sigma
    on the imaginary u axis.  On it e^{sy} decays like a Gaussian in u, the
    rest at least like |u|^-3, and u = c sinh v, c = 1/sqrt(phi''), makes
    that tail exponential in v: one trapezoid sum serves every law.
    """
    nu, beta, tau = model.desired.shape, model.desired.scale, \
        model.interference.tau
    y, a = threshold / model.p_u, threshold * model.interference.mu
    right = 1.0 / a.max() if a.size else math.inf
    hi = min(right, (nu + 1) / y) if y else right  # phi' > y - (nu + 1)/s
    if hi == math.inf:  # X / 0 = inf: no outage
        return -math.inf, False
    e = np.concatenate(([nu], tau, [1.0]))

    def slopes(s):  # -d/ds of each log factor of e^{phi(s)}, per unit e
        return np.concatenate(([beta / (1.0 + beta * s)], -a / (1.0 - a * s),
                               [1.0 / s]))

    def saddle(lo, hi):  # phi' = y - e . slopes rises from -inf to +inf
        s = 0.5 * (lo + hi)
        for _ in range(200):  # any s in (lo, hi) gives the same integral
            c = slopes(s)
            step = (y - e @ c) / (e @ (c * c))
            if step * step * (e @ (c * c)) <= 1e-12:  # 1e-6 / sqrt(phi'')
                break
            lo, hi = (s, hi) if step < 0 else (lo, s)
            s = s - step if lo < s - step < hi else 0.5 * (lo + hi)
        # phi(s) in extended precision: ln v is no more accurate than it,
        # and its terms reach 1e3 at N = 500
        ld = np.longdouble(s)
        return ld, (ld * y - nu * np.log1p(beta * ld) - np.log(abs(ld))
                    - np.log1p(-a * ld) @ tau)

    (sigma, base), upper = min((saddle(0.0, hi), False),
                               (saddle(-1.0 / beta, 0.0), True),
                               key=lambda side: side[0][1])
    c = slopes(sigma).astype(float)  # factor j over its value: 1 + c_j z
    b, scale = c[0] / 4.0, 1.0 / math.sqrt(e @ (c * c))
    v = _STEP * np.arange(1, round(_RANGE / _STEP) + 1)
    u = scale * np.sinh(v)
    cu2 = np.multiply.outer(u * u, c)
    # z = s - sigma, |1 + c z|^2 = 1 + c u^2 (c - 2b + b^2 c u^2) with no
    # cancellation (c >= 4b where c > 0), and ds/du = i (1 + 2ibu)
    size = (0.5 * np.log1p(4.0 * b * b * u * u) - b * y * u * u
            - 0.5 * (np.log1p(cu2 * (c - 2.0 * b + b * b * cu2)) @ e))
    phase = (u * y + np.arctan(2.0 * b * u)
             - np.arctan2(np.multiply.outer(u, c), 1.0 - b * cu2) @ e)
    total = 0.5 + (np.exp(size) * np.cos(phase)) @ np.cosh(v)
    return base + np.log(_STEP * scale / math.pi * total), upper


def sinr_cdf_quadrature(model, threshold):
    """P{gamma <= threshold}, the arbiter of the count-law outage: the
    saddle-point sum `_log_cdf` on every law, L = 1 included, which reads
    neither chi nor the count law."""
    edge = _cdf_edge(threshold, "threshold")
    if edge is not None:
        return edge
    log_v, upper = _log_cdf(model, threshold)
    return float(-np.expm1(log_v) if upper else np.exp(log_v))
