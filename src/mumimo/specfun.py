"""Special functions for the zero-forcing uplink closed forms.

Self-contained (numpy only): exponential integrals, integer digamma,
Tricomi's confluent hypergeometric U, the 2F0 reduction, the logarithmic
moment of an Erlang variable, and the exponential-integral moment kernel
I_{m,n}(a, b, alpha) used by the exact-rate expression.

Closed forms that involve alternating sums carry a running estimate of the
cancellation they suffered.  When that estimate is too large to trust in
double precision, `ei_moment_kernel` switches to adaptive quadrature of its
defining integral; the exact rate instead reads the recursion directly
(`_ei_moment_closed`) and propagates the estimate into its own guard, so it
integrates nothing here.  The log-moment kernel is an all-positive sum of
exponential integrals, and Tricomi U(a, a+m+1, z) with m >= 0 (the only U
the rate needs) a terminating all-positive sum, so neither integrates
numerically.  Other Tricomi U and the 2F0 reduction are evaluated from
their integral representations.
"""

import math

import numpy as np

from .quadrature import QuadratureSpec, integrate_semi_infinite

__all__ = [
    "EULER_GAMMA",
    "expint_ei",
    "expint_en_scaled",
    "digamma_int",
    "tricomi_u",
    "hyp2f0_neg",
    "log_moment_kernel",
    "log_moment_quadrature",
    "ei_moment_kernel",
    "ei_moment_quadrature",
]

EULER_GAMMA = 0.5772156649015328606065120900824024

_ORACLE_SPEC = QuadratureSpec(relative_tolerance=1e-11,
                              absolute_tolerance=1e-300,
                              max_subdivisions=4000)


def _check_int(value, name, minimum):
    if value != int(value):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _en_continued_fraction(n, z):
    """Modified-Lentz continued fraction for e^z * E_n(z); good for z > ~1."""
    tiny = 1e-300
    b = z + n
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 400):
        a = -i * (n - 1 + i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 5e-16:
            return h
    raise RuntimeError(f"E_{n}({z}): continued fraction did not converge")


def _en_series(n, z):
    """Power series for E_n(z), z <= 1 (Abramowitz & Stegun 5.1.12 family)."""
    psi = digamma_int(n)
    ans = ((-z) ** (n - 1) / math.factorial(n - 1)) * (-math.log(z) + psi)
    term = 1.0  # (-z)^m / m!
    for m in range(0, 200):
        if m > 0:
            term *= -z / m
        if m == n - 1:
            continue
        contrib = -term / (m - n + 1)
        ans += contrib
        if m > 2 and abs(contrib) < 1e-17 * abs(ans):
            break
    return ans


def expint_ei(x):
    """Exponential integral Ei(x) for x < 0 (the only range the rate needs)."""
    if x >= 0:
        raise ValueError(f"expint_ei requires x < 0, got {x}")
    if x < -1.0:
        return -_en_continued_fraction(1, -x) * math.exp(x)
    return -_en_series(1, -x)  # Ei(x) = -E_1(-x)


def expint_en_scaled(n, z):
    """e^z * E_n(z) without intermediate under/overflow."""
    n = _check_int(n, "n", 0)
    if z <= 0:
        raise ValueError(f"expint_en_scaled requires z > 0, got {z}")
    if n == 0:
        return 1.0 / z
    if z > 1.0:
        return _en_continued_fraction(n, z)
    return math.exp(z) * _en_series(n, z)


def digamma_int(n):
    """psi(n) for integer n >= 1: -gamma + sum_{k<n} 1/k."""
    n = _check_int(n, "n", 1)
    return -EULER_GAMMA + sum(1.0 / k for k in range(1, n))


def _tricomi_u_terminating(a, m, z):
    """U(a, a+m+1, z) = z^-a sum_{k<=m} C(m,k) (a)_k z^-k (DLMF 13.2.8).

    Every term is positive; term k+1 is term k times (m-k)(a+k)/((k+1) z).
    """
    term = total = 1.0
    for k in range(m):
        term *= (m - k) * (a + k) / ((k + 1) * z)
        total += term
    log_pref = -a * math.log(z)
    if abs(log_pref) < 700.0:
        return total * z ** -a
    log_value = math.log(total) + log_pref
    return math.inf if log_value > 709.0 else math.exp(log_value)


def tricomi_u(a, b, z):
    """Confluent hypergeometric U(a, b, z) for integer a >= 1, integer b, z > 0.

    From the integral representation
    U = (1/Gamma(a)) int_0^inf e^{-zt} t^{a-1} (1+t)^{b-a-1} dt,
    which converges for every integer b once a >= 1.  When m = b - a - 1
    >= 0, expanding (1+t)^m binomially makes it the terminating sum
    z^-a sum_{k<=m} C(m,k) (a)_k z^-k of positive terms; for a = 1 that is
    z^{-m-1} e^z Gamma(m+1, z).  Any other b is integrated numerically.
    """
    a = _check_int(a, "a", 1)
    b = _check_int(b, "b", -(10 ** 9))
    if z <= 0:
        raise ValueError(f"tricomi_u requires z > 0, got {z}")
    if b - a - 1 >= 0:
        return _tricomi_u_terminating(a, b - a - 1, z)
    lg = math.lgamma(a)
    c1 = a - 1.0
    c2 = b - a - 1.0

    def f(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lt = np.where(t > 0, np.log(np.maximum(t, 1e-300)), -np.inf)
            arg = -z * t + c1 * lt + c2 * np.log1p(np.maximum(t, 0.0)) - lg
            out = np.where(arg < 700.0, np.exp(np.minimum(arg, 700.0)),
                           np.inf)
        out = np.where(t > 0, out, 1.0 if a == 1 else 0.0)
        return out if out.ndim else float(out)

    # Stationary point of the log-integrand locates the mass.
    bq = z - b + 2.0
    peak = (-bq + math.sqrt(bq * bq + 4.0 * z * c1)) / (2.0 * z)
    scale = max(peak, 1.0 / z)
    return integrate_semi_infinite(f, 0.0, _ORACLE_SPEC, scale=scale)


def hyp2f0_neg(n, p, x):
    """2F0(n, p; --; -x) for integers n >= 1, p >= 0 and x > 0.

    Reached through U: 2F0(a, b; --; -1/z) = z^a U(a, a-b+1, z) with z = 1/x.
    p = 0 is the empty product.  For small x the x^-n prefactor would
    overflow, so the same integral is evaluated in the substituted variable
    v = t/x (and for x below the asymptotic-series cutoff, truncating that
    series at two terms is already exact to double precision).
    """
    n = _check_int(n, "n", 1)
    p = _check_int(p, "p", 0)
    if x <= 0:
        raise ValueError(f"hyp2f0_neg requires x > 0, got {x}")
    if p == 0:
        return 1.0
    if (n + 1.0) * (p + 1.0) * x < 1e-9:
        return 1.0 - n * p * x
    if x < 0.5:
        lg = math.lgamma(n)

        def f(v):
            v = np.asarray(v, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                arg = -v + (n - 1) * np.log(np.maximum(v, 1e-300)) \
                    - p * np.log1p(x * np.maximum(v, 0.0)) - lg
                out = np.exp(np.minimum(arg, 700.0))
            out = np.where(v > 0, out, 1.0 if n == 1 else 0.0)
            return out if out.ndim else float(out)

        return integrate_semi_infinite(f, 0.0, _ORACLE_SPEC, scale=float(n))
    return x ** (-n) * tricomi_u(n, n - p + 1, 1.0 / x)


# ---------------------------------------------------------------------------
# log-moment kernel: int_0^inf ln(1+a z) z^{n-1} e^{-z/mu} dz
# ---------------------------------------------------------------------------

def log_moment_quadrature(n, mu, a, normalized=False):
    """Adaptive-quadrature evaluation of the log-moment integral."""
    n = _check_int(n, "n", 1)
    norm = math.lgamma(n) + n * math.log(mu) if normalized else 0.0

    def f(z):
        if z <= 0.0:
            return 0.0
        return math.log1p(a * z) * math.exp(
            (n - 1) * math.log(z) - z / mu - norm)

    return integrate_semi_infinite(f, 0.0, _ORACLE_SPEC,
                                   scale=max(n * mu, mu))


def _scaled_en_sum(n, z):
    """sum_{k=1..n} e^z E_k(z) for z > 0, every term positive.

    One continued fraction at k0 = min(n, max(1, floor(z))), then the
    recurrence e^z E_{k+1} = (1 - z e^z E_k) / k, which is stable upward
    for k >= z and, solved for E_k, downward for k < z.
    """
    k0 = min(n, max(1, int(z)))
    f0 = expint_en_scaled(k0, z)
    total = f0
    f = f0
    for k in range(k0 - 1, 0, -1):
        f = (1.0 - k * f) / z
        total += f
    f = f0
    for k in range(k0, n):
        f = (1.0 - z * f) / k
        total += f
    return total


def _log_moment_normalized(n, mu, a):
    """E ln(1 + a X) for X ~ Gamma(n, mu), i.e. the kernel / ((n-1)! mu^n).

    Equals the all-positive sum e^z sum_{k<=n} E_k(z), z = 1/(a mu)
    (Alouini & Goldsmith, IEEE Trans. Veh. Technol. 48(4), 1999), so no
    quadrature and no cancelling recurrence is needed.
    """
    return _scaled_en_sum(n, (1.0 / float(mu)) / float(a))


def log_moment_kernel(n, mu, a):
    """int_0^inf ln(1 + a z) z^{n-1} e^{-z/mu} dz for integer n >= 1.

    Equals Gamma(n+1) a mu^{n+1} 3F1(n+1, 1, 1; 2; -a mu); the 3F1 is never
    summed directly (zero radius of convergence at negative argument).
    Evaluated as (n-1)! mu^n e^z sum_{k=1..n} E_k(z), z = 1/(a mu), a sum
    of positive terms; `log_moment_quadrature` is the independent check.
    """
    n = _check_int(n, "n", 1)
    if mu <= 0:
        raise ValueError(f"log_moment_kernel requires mu > 0, got {mu}")
    if a < 0:
        raise ValueError(f"log_moment_kernel requires a >= 0, got {a}")
    if a == 0.0:
        return 0.0
    return _log_moment_normalized(n, mu, a) * math.exp(
        math.lgamma(n) + n * math.log(mu))


# ---------------------------------------------------------------------------
# Ei-moment kernel: I_{m,n}(a, b, alpha)
#   = int_0^inf x^m (a x + b)^n e^{-alpha x} Ei(-(a x + b)) dx
# ---------------------------------------------------------------------------

def _ei_moment_sequence(pmax, a, b, alpha):
    """J_0 .. J_pmax of the J_p/K_p integration-by-parts recursion, with the
    same recursion run on absolute values.  Returns (js, js_abs).

    The sequence depends on (a, b, alpha) only, so every I_{m,n} with
    m + n <= pmax reads a prefix of it.
    """
    ld = np.longdouble
    mu = alpha / a
    ei_b = expint_ei(-b)
    arg2 = (mu + 1.0) * b
    ei_2 = expint_ei(-float(arg2)) if arg2 < 700 else 0.0

    j = (-ld(ei_2) + np.exp(ld(-b * mu)) * ld(ei_b)) / ld(mu)
    # seed the error tracking with the component magnitudes: J_0 is itself
    # a difference of two exponential-integral terms
    j_abs = (abs(ld(ei_2)) + np.exp(ld(-b * mu)) * abs(ld(ei_b))) / ld(mu)
    js = [j]
    js_abs = [j_abs]
    # J_p = K_p + (p/mu) J_{p-1} with the boundary-plus-tail term
    #   K_p = e^{-b mu} b^p Ei(-b) / mu + e^{-b (mu+1)} acc_p / mu,
    #   acc_p = sum_{q<p} q! C(p-1, q) b^{p-q-1} / (mu+1)^{q+1},
    # and acc_p = ((p-1) acc_{p-1} + b^{p-1}) / (mu+1), acc_0 = 0
    b_ld = ld(b)
    mu1 = ld(mu + 1.0)
    t1_scale = np.exp(ld(-b * mu)) / ld(mu) * ld(ei_b)
    t2_scale = np.exp(ld(-b * (mu + 1.0))) / ld(mu)
    acc = ld(0.0)
    b_pow = ld(1.0)  # b^{p-1}
    for p in range(1, pmax + 1):
        acc = (ld(p - 1) * acc + b_pow) / mu1
        b_pow = b_ld ** p
        t1 = t1_scale * b_pow
        t2 = t2_scale * acc
        gain = ld(p) / ld(mu)
        j = t1 + t2 + gain * j
        j_abs = abs(t1) + abs(t2) + gain * j_abs
        js.append(j)
        js_abs.append(j_abs)
    return js, js_abs


def _ei_moment_closed(m, n, a, b, alpha, seq=None):
    """Closed form via the J_p/K_p integration-by-parts recursion.

    Returns (value, cancellation_estimate).  Evaluated in extended
    precision; the estimate mirrors the recursion on absolute values, so
    the step-by-step error amplification J_p <- (p/mu) J_{p-1} is counted.
    `seq` is a `_ei_moment_sequence(pmax, a, b, alpha)` result with
    pmax >= m + n; without it the sequence is built here.
    """
    ld = np.longdouble
    js, js_abs = seq if seq is not None else _ei_moment_sequence(
        n + m, a, b, alpha)

    total = ld(0.0)
    outer_abs = ld(0.0)
    coeff = ld(-b) ** m  # C(m,i) (-b)^{m-i}, i = 0
    for i in range(0, m + 1):
        if i > 0:
            coeff = coeff * ld(m - i + 1) / (ld(i) * ld(-b))
        total += coeff * js[n + i]
        outer_abs += abs(coeff) * js_abs[n + i]
    pref = np.exp(ld(alpha * b / a)) / ld(a) ** (m + 1)
    value = float(pref * total)
    if not math.isfinite(value) or value == 0.0:
        return value, math.inf
    cond = float(outer_abs / abs(total))
    return value, cond


def ei_moment_quadrature(m, n, a, b, alpha):
    """Direct adaptive quadrature of the defining integral.

    Raises OverflowError when the integrand (hence the integral) exceeds
    the double-precision range, which happens for large n with b >> 1.
    """

    def f(x):
        w = a * x + b
        ei = expint_ei(-w) if w < 700 else 0.0
        if ei == 0.0:
            return 0.0
        lx = m * math.log(x) if x > 0 else (0.0 if m == 0 else -math.inf)
        if lx == -math.inf:
            return 0.0
        logval = lx + n * math.log(w) - alpha * x + math.log(-ei)
        if logval > 705.0:
            raise OverflowError(
                "Ei-moment integrand exceeds double-precision range "
                f"(m={m}, n={n}, a={a}, b={b}, alpha={alpha})")
        return -math.exp(logval)

    return integrate_semi_infinite(f, 0.0, _ORACLE_SPEC,
                                   scale=(m + n + 1.0) / alpha)


# The recursion consumes float64 Ei values, so its achievable accuracy is
# condition * 2.2e-16; accept the closed form only while that stays well
# inside the layer's 1e-8 oracle contract.
_EI_MOMENT_COND_LIMIT = 1e7


def ei_moment_kernel(m, n, a, b, alpha):
    """I_{m,n}(a, b, alpha); strictly negative since Ei(-(ax+b)) < 0.

    Closed form when it is trustworthy in double precision, otherwise the
    defining integral.
    """
    m = _check_int(m, "m", 0)
    n = _check_int(n, "n", 0)
    if a <= 0 or b <= 0 or alpha <= 0:
        raise ValueError("ei_moment_kernel requires a, b, alpha > 0")
    value, cond = _ei_moment_closed(m, n, a, b, alpha)
    if math.isfinite(value) and cond < _EI_MOMENT_COND_LIMIT:
        return value
    return ei_moment_quadrature(m, n, a, b, alpha)
