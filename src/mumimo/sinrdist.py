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
sum of positive terms.  Only the CDF arbiter `sinr_cdf_quadrature` reads the
partial-fraction density `pdf_z`, and so the expansion's weights chi; the
rate's fallback integrates the product-form MGF of Z instead
(`closedform.rate_by_quadrature`).
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .fading import CharacteristicExpansion, build_profile, \
    characteristic_coefficients
from .quadrature import QuadratureSpec, integrate_semi_infinite
# unused here; bound because benchmark/tracing.py wraps them by name
from .specfun import expint_en_scaled, hyp2f0_neg  # noqa: F401

__all__ = [
    "DesiredPowerDist",
    "SinrModel",
    "make_sinr_model",
    "pdf_x",
    "cdf_x",
    "pdf_z",
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
        profile = build_profile(config, fading, cell)
        expansion = (CharacteristicExpansion.empty() if profile.is_empty
                     else characteristic_coefficients(profile))
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


def _count_tail(lam, tau, odds, nu):
    """P{M >= nu} for M = Poisson(lam) + sum_m NegBin(tau_m, r_m), where
    r_m = odds_m / (1 + odds_m) (arrays tau, odds), from positive terms
    only.

    Each component's pmf on 0..n-1 is taken relative to its largest value
    there, whose logs add up to one log scale, so e^{-lam} prod_m
    (1 - r_m)^tau_m may lie far below the double range.  The truncated
    convolution q is exact below n.  If the head S = P{M < nu} is at most
    1/2 the result is 1 - S; otherwise the tail is summed until a bound on
    the rest falls below _TAIL_RTOL of it (M is log-concave, so q falls at
    least as fast as its last ratio), relative to the whole mass.
    """
    if nu <= 0:
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
        rho = last / float(q[-2]) if last else 0.0
        if rho < 1.0 and last * rho <= _TAIL_RTOL * tail * (1.0 - rho):
            return tail / (head + tail)
        n = 2 * n if rho >= 1.0 else n + 2 + int(
            math.log(_TAIL_RTOL * tail * (1.0 - rho) / (last * rho))
            / math.log(rho))


def cdf_x(dist, x):
    """Erlang CDF P{X <= x} = P{Poisson(x / scale) >= shape}."""
    no_gains = np.empty(0)
    out = np.vectorize(lambda v: _count_tail(v / dist.scale, no_gains,
                                             no_gains, dist.shape),
                       otypes=[float])(x)
    return float(out) if out.ndim == 0 else out


def pdf_z(dist, z):
    """Density of the interference power from the weights `dist.chi`."""
    if dist.is_empty:
        raise ValueError("no interference (L = 1): Z is identically zero")
    z = np.asarray(z, dtype=float)
    out = np.zeros(z.shape, dtype=np.longdouble)
    pos = z > 0
    zp = z[pos]
    for mu, n, chi in dist.terms():
        term = np.exp(-zp / mu + (n - 1) * np.log(zp / mu)
                      - np.longdouble(math.lgamma(n))) / mu
        out[pos] += chi * term
        if n == 1:
            out = np.where(z == 0, out + chi / mu, out)
    out = out.astype(float)
    return float(out) if out.ndim == 0 else out


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
    if s < 0:
        raise ValueError("mgf_sinr requires s >= 0")
    if s == 0:
        return 1.0
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


_CDF_SPEC = QuadratureSpec(relative_tolerance=1e-9, absolute_tolerance=1e-300)


def sinr_cdf_quadrature(model, threshold):
    """P{gamma <= threshold} by integrating the Erlang CDF against pdf_z.

    Quadrature path over the partial-fraction density, kept independent of
    the count law behind the closed-form outage so the two can arbitrate
    each other.  The tolerance is relative only, so tails far below 1e-12
    are resolved too.
    """
    if threshold < 0:
        return 0.0
    if model.interference.is_empty:
        return cdf_x(model.desired, threshold / model.p_u)
    t0 = 1.0 / model.p_u
    dist = model.interference

    def f(z):
        return pdf_z(dist, z) * cdf_x(model.desired, threshold * (z + t0))

    return min(1.0, max(0.0, integrate_semi_infinite(
        f, 0.0, _CDF_SPEC, scale=dist.mean)))
