"""Adaptive Gauss-Kronrod quadrature on finite and semi-infinite intervals,
with its accuracy budget `QuadratureSpec` and the `QuadratureError` it
raises when that budget cannot be met.

It serves only the reference kernels of `specfun` that are integrals
(Tricomi U, 2F0, the log-moment and Ei-moment quadratures) and the tests,
so `import mumimo` does not re-export it; import it from `mumimo.quadrature`.
It is not the package's arbiter: the CDF arbiter is the saddle-point sum
`sinrdist._log_cdf`, and the rate falls back to the product-form integral
`closedform._product_form_integral`, both fixed trapezoid sums.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "integrate",
    "integrate_semi_infinite",
]

# 15-point Kronrod nodes on [-1, 1] (positive half) and weights, with the
# embedded 7-point Gauss weights on the shared nodes (odd indices).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# All 15 abscissae and both weight vectors, precomputed once.
_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])
_W15 = np.concatenate([_WGK[:7], _WGK[::-1]])
_W7 = np.zeros(15)
_W7[1:14:2] = np.concatenate([_WG[:3], _WG[::-1]])


class QuadratureError(RuntimeError):
    """Raised when the requested tolerance cannot be met."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy budget for one adaptive integration."""

    relative_tolerance: float = 1e-10
    absolute_tolerance: float = 1e-300
    max_subdivisions: int = 4000

    def __post_init__(self):
        if self.relative_tolerance <= 0 or self.absolute_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def _gk15(f, a, b):
    """One Gauss-Kronrod 15(7) panel on [a, b]: (estimate, error_estimate).

    Tries one vectorized call; integrands that only handle scalars are
    evaluated pointwise.
    """
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + h * _NODES
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        y = np.array([f(t) for t in x], dtype=float)
    res15 = h * float(_W15 @ y)
    res7 = h * float(_W7 @ y)
    # QUADPACK-style scaled error estimate.
    resasc = h * float(_W15 @ np.abs(y - res15 / (b - a)))
    err = abs(res15 - res7)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return res15, err


def integrate(f, a, b, spec=QuadratureSpec()):
    """Integrate f over the finite interval [a, b] to the spec's tolerances.

    Adaptive bisection: the panel with the largest error estimate is split
    until the summed error meets max(abs_tol, rel_tol * |integral|).
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate() requires finite endpoints")
    if a == b:
        return 0.0
    val, err = _gk15(f, a, b)
    heap = [(-err, a, b, val, err)]
    total, total_err = val, err
    for _ in range(spec.max_subdivisions):
        if total_err <= max(spec.absolute_tolerance,
                            spec.relative_tolerance * abs(total)):
            return total
        _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # interval at floating-point resolution
            heapq.heappush(heap, (0.0, lo, hi, v, 0.0))
            total_err -= e
            continue
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
    if total_err <= max(spec.absolute_tolerance,
                        spec.relative_tolerance * abs(total)):
        return total
    raise QuadratureError(
        f"tolerance not met after {spec.max_subdivisions} subdivisions "
        f"(estimate {total:.6e}, error {total_err:.2e})")


def integrate_semi_infinite(f, a=0.0, spec=QuadratureSpec(), scale=1.0):
    """Integrate f over [a, infinity).

    The tail is mapped onto [0, 1) by t = a + scale * u / (1 - u); all
    integrands in this package decay exponentially, so the transformed
    integrand vanishes at u -> 1.  `scale` is only a change of variables
    (any positive value is exact); pass the integrand's natural width to
    help the subdivision find the mass quickly.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")

    def g(u):
        if np.ndim(u) == 0:
            if u >= 1.0:
                return 0.0
            w = 1.0 - u
            t = a + scale * u / w
            if not math.isfinite(t):
                return 0.0
            v = f(t) * scale / (w * w)
            return v if math.isfinite(v) else 0.0
        u = np.asarray(u, dtype=float)
        w = np.maximum(1.0 - u, 1e-300)
        t = a + scale * u / w
        vals = np.asarray(f(t), dtype=float) * scale / (w * w)
        return np.where((u < 1.0) & np.isfinite(vals), vals, 0.0)

    return integrate(g, 0.0, 1.0, spec)
