"""Exact closed-form uplink metrics: ergodic rate, rate lower bound, M-PSK
symbol error rate (exact, high-SNR floor, three-point approximation), and
outage probability.

Every expression is an exact finite formula for the post-ZF SINR law, but
the rate contains binomial-weighted alternating sums that cancel
catastrophically once N - K is large.  They are accumulated in extended
precision with a running condition estimate (sum |terms| / |sum|) and a
propagated error estimate that includes each Ei-moment kernel's own
(condition x 2.3e-16).  The closed rate runs no quadrature: it is accepted
whole, or, when either estimate exceeds its guard, the whole call goes to
`rate_by_quadrature`, the adaptive integral of the defining expression, and
the event is recorded in the caller's QualityLog.

Each SER is one adaptive integral over the interference density of the
conditional Erlang transform summed over a fixed theta rule (Craig's form
of the M-PSK error integral): no alternating sum, guard or fallback.
"""

import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .quadrature import QuadratureSpec, integrate_semi_infinite
from .sinrdist import (InterferencePowerDist, make_sinr_model,
                       mgf_weighted_sum, pdf_z)
from .specfun import (_ei_moment_closed, _ei_moment_sequence,
                      _log_moment_normalized, digamma_int, tricomi_u)
# unused here; bound because benchmark/tracing.py wraps them by name
from .quadrature import integrate  # noqa: F401
from .sinrdist import mgf_sinr, mgf_sinr_high_snr  # noqa: F401
from .specfun import ei_moment_quadrature  # noqa: F401

__all__ = [
    "ModulationScheme",
    "RateResult",
    "QualityLog",
    "rate_exact",
    "rate_by_quadrature",
    "rate_lower_bound",
    "cell_sum_rate",
    "ser_exact",
    "ser_high_snr",
    "ser_approx",
    "outage_exact",
    "outage_small_threshold",
]

LOG2E = 1.0 / math.log(2.0)
_CANCEL_LIMIT = 1e12
_RATE_SPEC = QuadratureSpec(relative_tolerance=1e-9,
                            absolute_tolerance=1e-300)


@dataclass(frozen=True)
class ModulationScheme:
    """M-ary PSK constellation constants for the MGF-based SER."""

    psk_order: int

    def __post_init__(self):
        if self.psk_order < 2:
            raise ValueError("psk_order must be >= 2")

    @property
    def g_mpsk(self):
        return math.sin(math.pi / self.psk_order) ** 2

    @property
    def theta_max(self):
        return math.pi - math.pi / self.psk_order

    @property
    def theta_rule(self):
        """Nodes s_j and weights w_j with sum_j w_j f(s_j) =
        (1/pi) int_0^Theta f(g / sin^2 theta) dtheta (Craig's form)."""
        return _theta_rule(self.g_mpsk, self.theta_max)

    @property
    def three_point_rule(self):
        """Nodes and weights of the three-evaluation SER approximation."""
        g, half = self.g_mpsk, self.theta_max / (2 * math.pi)
        return ((g, 4.0 * g / 3.0, g / math.sin(self.theta_max) ** 2),
                (half - 1.0 / 6.0, 0.25, half - 0.25))


_THETA_NODES = 128


@lru_cache(maxsize=None)
def _theta_rule(g, theta_max):
    """Gauss-Legendre in phi on [0, 1] with theta = Theta phi^3, which packs
    nodes into the layer theta ~ sqrt(nu c) where (1 + c / sin^2 theta)^-nu
    rises: within 1e-12 from -60 dB up to 1/p_u = 0, 2.5e-10 at -90 dB."""
    x, wx = np.polynomial.legendre.leggauss(_THETA_NODES)
    phi = 0.5 * (x + 1.0)
    s = g / np.sin(theta_max * phi ** 3) ** 2
    w = 1.5 * theta_max * phi ** 2 * wx / math.pi
    for arr in (s, w):
        arr.setflags(write=False)
    return s, w


@dataclass(frozen=True)
class RateResult:
    value: float  # bits/s/Hz
    # exact_general (exact_distinct when every eigenvalue is simple; same
    # formula) | lower_bound | quadrature_fallback
    method: str
    cancellation_flagged: bool = False


class QualityLog:
    """Collects numerical-quality events (cancellation-guard fallbacks)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.events = []

    def flag(self, message):
        with self._lock:
            self.events.append(message)

    @property
    def tripped(self):
        return bool(self.events)


def _note(quality, message):
    if quality is not None:
        quality.flag(message)


# ---------------------------------------------------------------------------
# ergodic rate
# ---------------------------------------------------------------------------

def _rate_no_interference(config, beta):
    """L = 1: E ln(1 + p_u X) is the Erlang log-moment."""
    nu = config.zf_shape
    return LOG2E * _log_moment_normalized(nu, beta, config.transmit_snr)


def rate_by_quadrature(config, fading, expansion, user, cell,
                       spec=_RATE_SPEC):
    """E log2(1 + p_u X/(p_u Z + 1)) by integrating the conditional Erlang
    log-moment against the interference density.  This is the arbiter path:
    no alternating sums anywhere."""
    beta = fading.direct_gain(cell, user)
    if expansion.is_empty:
        return _rate_no_interference(config, beta)
    nu = config.zf_shape
    p_u = config.transmit_snr
    dist = InterferencePowerDist(expansion)

    def f(z):
        a = p_u / (p_u * np.asarray(z, dtype=float) + 1.0)
        inner = [_log_moment_normalized(nu, beta, v) for v in a.flat]
        return np.reshape(inner, a.shape) * pdf_z(dist, z)

    val = integrate_semi_infinite(f, 0.0, spec, scale=dist.mean)
    return LOG2E * val


def _rate_terms_representable(n, big_j, zmu, mu0, a_in, b_in, alph):
    """Cheap magnitude precheck: the largest Tricomi-U value and the
    Ei-moment kernel magnitude must fit in double precision (the recursion
    itself gets extended-precision headroom).  When they cannot, the sum's
    condition number is astronomically past the guard anyway, so the
    caller goes straight to quadrature."""
    if big_j >= 1:
        d = big_j - 1
        # U(n, n+d+1, z) ~ Gamma(n+d)/Gamma(n) z^{-(n+d)} for small z
        log_u = max(math.lgamma(n + d) - math.lgamma(n)
                    - (n + d) * math.log(zmu),
                    -n * math.log(zmu))
        if log_u > 690.0:
            return False
    pmax = n - 1 + big_j
    if pmax >= 1:
        # |I_{n-1,J}| ~ e^{alpha b / a} a^{-m-1} max(b,1)^pmax J-growth,
        # with the recursion gaining p/mu0 per step
        log_i = (alph * b_in / a_in + math.lgamma(pmax + 1)
                 - pmax * math.log(mu0)
                 + pmax * math.log(max(b_in, 1.0))
                 - (n) * math.log(a_in))
        if log_i > 700.0:  # kernel would overflow the double-valued terms
            return False
    return True


_EPS_LD = float(np.finfo(np.longdouble).eps)
# the Ei-moment recursion consumes float64 Ei values: a kernel's relative
# error is its condition estimate times this
_EI_RELERR_PER_COND = 2.3e-16
_U_RELERR = 1e-14           # terminating Tricomi-U sum of positive terms
_RATE_RELERR_LIMIT = 1e-6   # accepted propagated error of the closed rate


def _rate_general(config, beta, expansion):
    """Exact rate for arbitrary eigenvalue multiplicities, all-distinct
    included.

    Returns (value, condition, propagated relative error).  Per (m, n) term
    the inner structure is
      -e^{1/(beta p_u)} I_{n-1, w}(1/beta, 1/(beta p_u), 1/mu - 1/beta)
      + q-sum of Tricomi-U values U(n, n+d+1, 1/(mu p_u)),
    summed over w = N-K-p with alternating binomial weights.  Every kernel
    is read from the term's closed recursion, none is integrated, and each
    kernel's error estimate is propagated so that cancellation in either
    layer is visible to the guard.
    """
    nu = config.zf_shape
    big_j = nu - 1  # N - K
    p_u = config.transmit_snr
    a_in = 1.0 / beta
    b_in = 1.0 / (beta * p_u)
    ld = np.longdouble
    exp_b = np.exp(ld(b_in))
    total = ld(0.0)
    total_abs = ld(0.0)
    err = ld(0.0)
    for mu, n, chi in expansion.terms_hi():
        if chi == 0.0:
            continue
        alph = 1.0 / float(mu) - 1.0 / beta
        if alph <= 0:
            return math.nan, math.inf, math.inf  # outside the kernel domain
        zmu = 1.0 / (float(mu) * p_u)
        if not _rate_terms_representable(n, big_j, zmu, alph / a_in,
                                         a_in, b_in, alph):
            return math.nan, math.inf, math.inf
        # U(n, n + d + 1, zmu) for d = 0 .. J-1, shared across the p-sum
        us = [ld(tricomi_u(n, n + d + 1, zmu)) for d in range(big_j)]
        seq = _ei_moment_sequence(n - 1 + big_j, a_in, b_in, alph)
        zmu_n = ld(zmu) ** n
        lg_n = ld(math.lgamma(n))
        for p in range(big_j + 1):
            w = big_j - p
            i_val, i_cond = _ei_moment_closed(n - 1, w, a_in, b_in, alph,
                                              seq=seq)
            if i_cond == math.inf:  # the kernel left the double range
                return math.nan, math.inf, math.inf
            i_rel = i_cond * _EI_RELERR_PER_COND
            sign = ld(1.0) if w % 2 == 0 else ld(-1.0)
            lw = ld(math.lgamma(w + 1))
            term_i = -chi * np.exp(-n * np.log(ld(mu)) - lg_n - lw) \
                * sign * exp_b * ld(i_val)
            total += term_i
            total_abs += abs(term_i)
            err += abs(term_i) * ld(i_rel)
            # q-sum collapsed to d = w - q: (w-1-d)! (-1)^d (beta p_u)^-d U_d
            qacc = ld(0.0)
            qabs = ld(0.0)
            for d in range(w):
                piece = np.exp(ld(math.lgamma(w - d))
                               - d * np.log(ld(beta * p_u)) - lw) * us[d]
                if d % 2 == 1:
                    piece = -piece
                qacc += piece
                qabs += abs(piece)
            total += chi * zmu_n * qacc
            total_abs += abs(chi) * zmu_n * qabs
            err += abs(chi) * zmu_n * qabs * ld(_U_RELERR)
    err += total_abs * ld(_EPS_LD)
    value = float(total) * LOG2E
    if not math.isfinite(value) or value <= 0.0 or total == 0.0:
        return value, math.inf, math.inf
    return value, float(total_abs / abs(total)), float(err / abs(total))


def rate_exact(config, fading, expansion, user, cell, quality=None):
    """Exact ergodic uplink rate of one user, in bits/s/Hz.

    Uses the general formula (labelled `exact_distinct` when every
    eigenvalue is simple), and the quadrature arbiter when the sums are too
    ill-conditioned (large N - K) or an eigenvalue exceeds the direct gain.
    """
    beta = fading.direct_gain(cell, user)
    if expansion.is_empty:
        return RateResult(_rate_no_interference(config, beta),
                          "exact_general")
    value, cond, rel_err = _rate_general(config, beta, expansion)
    method = ("exact_distinct" if np.all(expansion.tau == 1)
              else "exact_general")
    if (math.isfinite(value) and cond <= _CANCEL_LIMIT
            and rel_err <= _RATE_RELERR_LIMIT):
        return RateResult(value, method)
    _note(quality, f"rate_exact: cancellation guard tripped "
                   f"(condition {cond:.3g}, error estimate {rel_err:.3g}); "
                   f"used quadrature")
    value = rate_by_quadrature(config, fading, expansion, user, cell)
    return RateResult(value, "quadrature_fallback", cancellation_flagged=True)


def rate_lower_bound(config, fading, expansion, user, cell):
    """Jensen lower bound: log2(1 + p_u beta e^{psi(N-K+1) - E ln(p_u Z+1)})."""
    beta = fading.direct_gain(cell, user)
    nu = config.zf_shape
    p_u = config.transmit_snr
    log_interf = 0.0
    for mu, n, chi in expansion.terms():
        if chi == 0.0:
            continue
        log_interf += chi * _log_moment_normalized(n, mu, p_u)
    value = math.log1p(p_u * beta
                       * math.exp(digamma_int(nu) - log_interf)) * LOG2E
    return RateResult(value, "lower_bound")


def cell_sum_rate(config, fading, cell, expansion, method="exact",
                  quality=None):
    """Per-cell sum rate: K times the mean per-user rate.

    Symmetric profiles (all users of the cell identical) are computed once
    and scaled by K.
    """
    fn = {"exact": partial(rate_exact, quality=quality),
          "bound": rate_lower_bound}[method]
    beta_row = fading.beta[cell, cell, :]
    if np.all(beta_row == beta_row[0]):
        return config.users_per_cell * fn(config, fading, expansion, 0,
                                          cell).value
    vals = [fn(config, fading, expansion, k, cell).value
            for k in range(config.users_per_cell)]
    return config.users_per_cell * float(np.mean(vals))


# ---------------------------------------------------------------------------
# symbol error rate
# ---------------------------------------------------------------------------

def _ser(model, rule):
    """(1/pi) int_0^Theta M(g / sin^2 theta) dtheta under a fixed rule
    (s_j, w_j): one integral over the interference density."""
    return min(1.0, max(0.0, mgf_weighted_sum(model, *rule)))


def ser_exact(config, fading, expansion, modulation, user, cell):
    """Average M-PSK SER: the MGF-based theta integral of the SINR law."""
    model = make_sinr_model(config, fading, user, cell, expansion=expansion)
    return _ser(model, modulation.theta_rule)


def ser_high_snr(config, fading, expansion, modulation, user, cell):
    """SNR-independent SER floor (diversity order zero under interference):
    `ser_exact` at 1/p_u = 0."""
    model = make_sinr_model(config, fading, user, cell, expansion=expansion)
    return _ser(replace(model, p_u=math.inf), modulation.theta_rule)


def ser_approx(config, fading, expansion, modulation, user, cell):
    """Three-evaluation SER approximation: the SER integral with the
    three-point rule in place of the theta rule."""
    model = make_sinr_model(config, fading, user, cell, expansion=expansion)
    return _ser(model, modulation.three_point_rule)


# ---------------------------------------------------------------------------
# outage probability
# ---------------------------------------------------------------------------

def outage_exact(config, fading, expansion, user, cell, gamma_th):
    """P{gamma <= gamma_th}: exact finite-sum outage probability."""
    if gamma_th <= 0:
        return 0.0
    beta = fading.direct_gain(cell, user)
    p_u = config.transmit_snr
    if expansion.is_empty:
        from .sinrdist import DesiredPowerDist, cdf_x
        return cdf_x(DesiredPowerDist(config.zf_shape, beta),
                     gamma_th / p_u)
    big_j = config.zf_shape - 1  # N - K
    c = gamma_th / beta
    t = 1.0 / p_u
    ld = np.longdouble
    # B_j = (c t)^j / j!
    b = np.empty(big_j + 1, dtype=ld)
    b[0] = 1.0
    for j in range(big_j):
        b[j + 1] = b[j] * c * t / (j + 1)
    total = ld(0.0)
    for mu, n, chi in expansion.terms_hi():
        if chi == 0.0:
            continue
        d = 1.0 / float(mu) + c
        # A_q = c^q Gamma(n+q) mu^-n / ((n-1)! q! d^{n+q}), q = 0..J
        a = np.empty(big_j + 1, dtype=ld)
        a[0] = np.exp(-ld(n) * (np.log(mu) + np.log(ld(d))))
        for q in range(big_j):
            a[q + 1] = a[q] * c * (n + q) / ((q + 1) * d)
        s_a = np.cumsum(a)
        inner = np.sum(b * s_a[::-1])
        total += chi * inner
    value = 1.0 - math.exp(-c * t) * float(total)
    return min(1.0, max(0.0, value))


def outage_small_threshold(config, fading, expansion, user, cell, gamma_th):
    """Small-threshold / high-SNR outage asymptote: `outage_exact` at
    1/p_u = 0, where only the p = q terms survive; independent of the
    transmit power."""
    return outage_exact(replace(config, transmit_snr=math.inf), fading,
                        expansion, user, cell, gamma_th)
