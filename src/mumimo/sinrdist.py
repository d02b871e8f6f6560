"""The post-ZF SINR model: gamma = p_u X / (p_u Z + 1).

X (desired power) is Erlang with shape N-K+1 and scale beta_llk; Z
(cross-cell interference power) is a sum of independent exponentials whose
partial-fraction expansion lives in fading.CharacteristicExpansion.  Both
are exact distributional identities for the zero-forcing receiver, so this
module doubles as a fast sampler equivalent to full channel-matrix
simulation.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .fading import CharacteristicExpansion, build_profile, \
    characteristic_coefficients
from .quadrature import QuadratureSpec, integrate_semi_infinite
from .specfun import expint_en_scaled, hyp2f0_neg

__all__ = [
    "DesiredPowerDist",
    "InterferencePowerDist",
    "SinrModel",
    "make_sinr_model",
    "pdf_x",
    "cdf_x",
    "pdf_z",
    "mgf_sinr",
    "mgf_sinr_high_snr",
    "sample_sinr",
    "sinr_cdf_quadrature",
]

_MGF_SPEC = QuadratureSpec(relative_tolerance=1e-10,
                           absolute_tolerance=1e-300)
_CANCEL_LIMIT = 1e12
_CHUNK = 1 << 21  # cap on scratch elements while sampling


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
class InterferencePowerDist:
    """Exponential-mixture law of the cross-cell interference power."""

    expansion: CharacteristicExpansion

    @property
    def is_zero(self):
        return self.expansion.is_empty

    @property
    def mean(self):
        return float(np.sum(self.expansion.rates()))


@dataclass(frozen=True)
class SinrModel:
    desired: DesiredPowerDist
    interference: InterferencePowerDist
    p_u: float

    def __post_init__(self):
        if self.p_u <= 0:
            raise ValueError("p_u must be positive")


def make_sinr_model(config, fading, user, cell, expansion=None):
    """SinrModel for one user from a config + fading tensor."""
    if expansion is None:
        profile = build_profile(config, fading, cell)
        expansion = (CharacteristicExpansion.empty() if profile.is_empty
                     else characteristic_coefficients(profile))
    desired = DesiredPowerDist(config.zf_shape, fading.direct_gain(cell, user))
    return SinrModel(desired, InterferencePowerDist(expansion),
                     config.transmit_snr)


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


_LOG_FACTORIALS = {}


def _log_factorials(s):
    """[ln 0!, ln 1!, ..., ln (s-1)!], cached per shape."""
    if s not in _LOG_FACTORIALS:
        _LOG_FACTORIALS[s] = np.concatenate(
            ([0.0], np.cumsum(np.log(np.arange(1, s)))))
    return _LOG_FACTORIALS[s]


def cdf_x(dist, x):
    """Erlang CDF: 1 - e^{-x/b} sum_{p<shape} (x/b)^p / p!."""
    s, b = dist.shape, dist.scale
    lf = _log_factorials(s)
    powers = np.arange(s)

    def scalar(v):
        if v <= 0:
            return 0.0
        t = v / b
        logs = powers * math.log(t) - lf
        top = logs.max()
        tail = math.exp(top - t) * float(np.exp(logs - top).sum())
        return max(0.0, 1.0 - tail)

    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return scalar(float(x))
    return np.array([scalar(v) for v in x.ravel()]).reshape(x.shape)


def pdf_z(dist, z):
    """Mixture density of the interference power from the expansion."""
    if dist.is_zero:
        raise ValueError("no interference (L = 1): Z is identically zero")
    z = np.asarray(z, dtype=float)
    out = np.zeros(z.shape, dtype=np.longdouble)
    pos = z > 0
    zp = z[pos]
    for mu, n, chi in dist.expansion.terms_hi():
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

def _mgf_no_interference(model, s):
    nu = model.desired.shape
    return math.exp(-nu * math.log1p(model.desired.scale * model.p_u * s))


def _mgf_closed(model, s):
    """General MGF sum; returns (value, condition_estimate).

    The binomial sum's terms total at least (1 + |ratio|)^nu in absolute
    value (times slowly-varying 2F0 factors), so when that alone exceeds
    the guard the expensive per-term evaluation is skipped outright.
    """
    nu = model.desired.shape
    beta = model.desired.scale
    cp = beta * s + 1.0 / model.p_u
    ratio = -beta * s / cp  # -1 in the high-SNR limit 1/p_u = 0
    # skip a little before the guard itself would reject: near the
    # boundary the per-term evaluation is pure wasted work
    if nu * math.log1p(abs(ratio)) > math.log(_CANCEL_LIMIT / 100.0):
        return math.nan, math.inf
    ld = np.longdouble
    distinct = bool(np.all(model.interference.expansion.tau == 1))
    total = ld(0.0)
    total_abs = ld(0.0)
    for mu, n, chi in model.interference.expansion.terms_hi():
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


def _mgf_quadrature(model, s):
    """E_Z of the conditional Erlang transform; exact 1-D reduction."""
    nu = model.desired.shape
    beta = model.desired.scale
    t0 = 1.0 / model.p_u
    dist = model.interference

    def f(z):
        z = np.asarray(z, dtype=float)
        vals = pdf_z(dist, z) * np.exp(
            nu * (np.log(z + t0) - np.log(z + t0 + beta * s)))
        return vals if np.ndim(z) else float(vals)

    scale = max(dist.mean, t0)
    return integrate_semi_infinite(f, 0.0, _MGF_SPEC, scale=scale)


def mgf_sinr(model, s, quality=None):
    """E{e^{-s gamma}} in closed form; 1 at s = 0.

    Binomial-weighted alternating sums can cancel catastrophically for
    large N - K; such evaluations fall back to the exact one-dimensional
    integral over the interference density (recorded in `quality`).
    """
    if s < 0:
        raise ValueError("mgf_sinr requires s >= 0")
    if s == 0:
        return 1.0
    if model.interference.is_zero:
        return _mgf_no_interference(model, s)
    value, cond = _mgf_closed(model, s)
    if cond < _CANCEL_LIMIT:
        return min(1.0, max(0.0, value))
    if quality is not None:
        quality.flag(f"mgf_sinr(s={s:g}): cancellation guard tripped "
                     f"(condition {cond:.3g}); used quadrature")
    return min(1.0, max(0.0, _mgf_quadrature(model, s)))


def mgf_sinr_high_snr(model, s, quality=None):
    """MGF of the p_u -> infinity SINR limit X/Z: `mgf_sinr` at 1/p_u = 0."""
    return mgf_sinr(replace(model, p_u=math.inf), s, quality=quality)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _erlang_draws(rng, count, shape, scale):
    """Sum of `shape` exponentials via -scale ln U; exact for integer shape."""
    out = np.zeros(count)
    step = max(1, _CHUNK // max(shape, 1))
    for lo in range(0, count, step):
        hi = min(count, lo + step)
        u = rng.random((hi - lo, shape))
        out[lo:hi] = -scale * np.log(u).sum(axis=1)
    return out


def sample_sinr(model, rng, size=None):
    """Draw p_u X / (p_u Z + 1).

    Z is sampled as the sum of the underlying per-user exponentials (the
    diagonal of the interference matrix), not from the mixture expansion,
    whose weights may be negative.
    """
    count = 1 if size is None else int(size)
    x = _erlang_draws(rng, count, model.desired.shape, model.desired.scale)
    if model.interference.is_zero:
        z = np.zeros(count)
    else:
        rates = model.interference.expansion.rates()
        z = np.zeros(count)
        step = max(1, _CHUNK // max(rates.size, 1))
        for lo in range(0, count, step):
            hi = min(count, lo + step)
            u = rng.random((hi - lo, rates.size))
            z[lo:hi] = -(np.log(u) * rates).sum(axis=1)
    gamma = model.p_u * x / (model.p_u * z + 1.0)
    return float(gamma[0]) if size is None else gamma


def sample_sinr_limit(model, rng, size=None):
    """Draw the p_u -> infinity limit X/Z (requires interference)."""
    if model.interference.is_zero:
        raise ValueError("X/Z undefined without interference")
    count = 1 if size is None else int(size)
    x = _erlang_draws(rng, count, model.desired.shape, model.desired.scale)
    rates = model.interference.expansion.rates()
    u = rng.random((count, rates.size))
    z = -(np.log(u) * rates).sum(axis=1)
    out = x / z
    return float(out[0]) if size is None else out


def sinr_cdf_quadrature(model, threshold,
                        spec=QuadratureSpec(relative_tolerance=1e-9,
                                            absolute_tolerance=1e-12)):
    """P{gamma <= threshold} by integrating the Erlang CDF against pdf_z.

    Quadrature-only path, kept independent of the closed-form outage
    expression so the two can arbitrate each other.
    """
    if threshold < 0:
        return 0.0
    if model.interference.is_zero:
        return cdf_x(model.desired, threshold / model.p_u)
    t0 = 1.0 / model.p_u
    dist = model.interference

    def f(z):
        return pdf_z(dist, z) * cdf_x(model.desired, threshold * (z + t0))

    return min(1.0, max(0.0, integrate_semi_infinite(
        f, 0.0, spec, scale=max(dist.mean, t0))))
