"""Exact closed-form uplink metrics: ergodic rate, rate lower bound, M-PSK
symbol error rate (exact, high-SNR floor, three-point approximation), and
outage probability.

Every expression is exact for the post-ZF SINR law, but the closed rate
contains binomial-weighted alternating sums that cancel catastrophically
once N - K is large.  They are accumulated in extended precision with a
propagated error estimate that includes each Ei-moment kernel's own
(condition x 2.3e-16) and the rounding of every term (sum |terms| x the
long-double epsilon).  The closed rate runs no quadrature: it is accepted
whole when that estimate is at most 1e-8 relative, the special-function
layer's oracle contract; otherwise the whole call goes to
`rate_by_quadrature` and the event is recorded in the caller's QualityLog.

The fallback rate and the Jensen bound are one trapezoid sum each of
Hamdi's integral over the product-form MGF of the interference
(`_product_form_integral`), the SER, its floor and its approximation are
each one trapezoid sum of the SINR's count-law CDF over a fixed rule
(`mgf_weighted_sum`), and the outage is the tail of a Poisson plus
negative-binomial count (`sinrdist._count_tail`), and its logarithm is the
CDF arbiter's saddle-point sum (`sinrdist._log_cdf`): all read only the
gains, with no guard, no adaptive integral and no partial-fraction weights.
"""

import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .sinrdist import (_cdf_edge, _count_tail, _log_cdf, make_sinr_model,
                       mgf_weighted_sum)
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
    "log_outage_exact",
]

LOG2E = 1.0 / math.log(2.0)


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


def _finite_snr(config, name):
    """p_u, which the rate and its bound need finite with a finite
    reciprocal: both integrals weigh by e^{-s/p_u} and start at
    u = -ln(slope + 1/p_u) - 41.5, and without interference the rate
    diverges at p_u = inf."""
    p_u = config.transmit_snr
    if not (math.isfinite(p_u) and math.isfinite(1.0 / p_u)):
        raise ValueError(f"{name} needs a finite transmit_snr with a finite "
                         f"reciprocal, got {p_u}")
    return p_u


def _product_form_integral(p_u, slope, expansion, factor):
    """int_R factor(s, ln M_Z(s)) e^{-s/p_u} du with s = e^u and M_Z(s) =
    prod_m (1 + mu_m s)^-tau_m, by the trapezoid rule, step 1/4, on
    [-ln(slope + 1/p_u) - 41.5, ln(45 p_u)], in one numpy pass.  `slope`
    bounds factor(s, .) / s as s -> 0, so what lies outside the range is
    below e^-41.5 of the integral; the integrand is analytic in a strip
    about the real u axis, so the error of the sum falls like e^{-pi^2/h}
    (Trefethen & Weideman 2014)."""
    mu, tau = expansion.mu, expansion.tau
    s = np.exp(np.arange(-math.log(slope + 1.0 / p_u) - 41.5,
                         math.log(45.0 * p_u), 0.25))
    log_mgf = np.log1p(np.multiply.outer(s, mu)) @ tau
    return 0.25 * float(factor(s, log_mgf) @ np.exp(-s / p_u))


def rate_by_quadrature(config, fading, expansion, user, cell):
    """E log2(1 + p_u X/(p_u Z + 1)) from the gains alone: by Hamdi's lemma
    (IEEE Trans. Commun. 58(2), 2010), with X Erlang(nu, beta),
      R ln 2 = int e^{-s/p_u} M_Z(s) (1 - (1 + beta s)^-nu) du,  s = e^u,
    a sum of positive terms.  This is the arbiter path: no alternating sums
    and no partial-fraction weights anywhere."""
    p_u = _finite_snr(config, "rate_by_quadrature")
    beta = fading.direct_gain(cell, user)
    if expansion.is_empty:
        return _rate_no_interference(config, beta)
    nu = config.zf_shape

    def factor(s, log_mgf):
        return np.exp(-log_mgf) * -np.expm1(-nu * np.log1p(beta * s))

    return LOG2E * _product_form_integral(p_u, nu * beta, expansion, factor)


_LOG_LD_MAX = float(np.log(np.finfo(np.longdouble).max))


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
_RATE_RELERR_LIMIT = 1e-8   # accepted propagated error of the closed rate


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
    if b_in > _LOG_LD_MAX:  # e^{b_in} itself leaves the long-double range
        return math.nan, math.inf, math.inf
    ld = np.longdouble
    exp_b = np.exp(ld(b_in))
    total = ld(0.0)
    total_abs = ld(0.0)
    err = ld(0.0)
    for mu, n, chi in expansion.terms():
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
    eigenvalue is simple) when its propagated error estimate is at most
    1e-8 relative, and the product-form integral otherwise: when the sums
    cancel (large N - K) or an eigenvalue exceeds the direct gain.
    """
    _finite_snr(config, "rate_exact")
    beta = fading.direct_gain(cell, user)
    if expansion.is_empty:
        return RateResult(_rate_no_interference(config, beta),
                          "exact_general")
    value, cond, rel_err = _rate_general(config, beta, expansion)
    method = ("exact_distinct" if np.all(expansion.tau == 1)
              else "exact_general")
    if math.isfinite(value) and rel_err <= _RATE_RELERR_LIMIT:
        return RateResult(value, method)
    _note(quality, f"rate_exact: cancellation guard tripped "
                   f"(condition {cond:.3g}, error estimate {rel_err:.3g}); "
                   f"used quadrature")
    value = rate_by_quadrature(config, fading, expansion, user, cell)
    return RateResult(value, "quadrature_fallback", cancellation_flagged=True)


def rate_lower_bound(config, fading, expansion, user, cell):
    """Jensen lower bound: log2(1 + p_u beta e^{psi(N-K+1) - E ln(p_u Z+1)});
    E ln(1 + p_u Z) = int (1 - M_Z(s)) e^{-s/p_u} du, s = e^u (Hamdi's
    lemma), whose integrand grows like (E Z) s from s = 0."""
    p_u = _finite_snr(config, "rate_lower_bound")
    log_interf = _product_form_integral(
        p_u, float(expansion.tau @ expansion.mu), expansion,
        lambda s, log_mgf: -np.expm1(-log_mgf))
    value = math.log1p(p_u * fading.direct_gain(cell, user) * math.exp(
        digamma_int(config.zf_shape) - log_interf)) * LOG2E
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
    (s_j, w_j): one sum of the SINR's count-law CDF."""
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
    """P{gamma <= gamma_th}, exact: given Z it is P{Poisson(c (Z + 1/p_u))
    >= N - K + 1}, c = gamma_th / beta, and a Poisson count mixed over an
    exponential of mean mu is geometric with ratio c mu / (1 + c mu).  So
    the outage is the tail of Poisson(c / p_u) plus one negative binomial
    per distinct gain: positive terms over the gains, not the expansion."""
    edge = _cdf_edge(gamma_th, "gamma_th")
    if edge is not None:
        return edge
    c = gamma_th / fading.direct_gain(cell, user)
    return _count_tail(c / config.transmit_snr, expansion.tau,
                       c * expansion.mu, config.zf_shape)


def outage_small_threshold(config, fading, expansion, user, cell, gamma_th):
    """Small-threshold / high-SNR outage asymptote: `outage_exact` at
    1/p_u = 0, where the Poisson part of the count vanishes; independent of
    the transmit power."""
    return outage_exact(replace(config, transmit_snr=math.inf), fading,
                        expansion, user, cell, gamma_th)


def log_outage_exact(config, fading, expansion, user, cell, gamma_th):
    """ln P{gamma <= gamma_th} from the CDF arbiter's saddle-point sum,
    which works in the log domain: finite where the outage lies below the
    double range (ln P = -1386.02 at N = 500, gamma_th = 0.5, where
    `outage_exact` returns 0.0)."""
    edge = _cdf_edge(gamma_th, "gamma_th")
    if edge is not None:
        return 0.0 if edge else -math.inf
    model = make_sinr_model(config, fading, user, cell, expansion=expansion)
    log_v, upper = _log_cdf(model, gamma_th)
    return float(np.log(-np.expm1(log_v)) if upper else log_v)
