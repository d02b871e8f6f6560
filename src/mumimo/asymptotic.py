"""Large-antenna-array laws: the deterministic SIR equivalent at fixed
antenna/user ratio, the 1/N power-scaling limits, and the degrees-of-freedom
solver (how large must N/K be before noise, not interference, limits the
rate).
"""

import math

__all__ = [
    "deterministic_sir",
    "power_scaled_limit_rate",
    "power_scaled_fixed_ratio_sinr",
    "power_scaled_fixed_ratio_rate",
    "required_kappa",
    "kappa_to_antennas",
]


def _interference_trace(fading, cell):
    """sum_{i != l} (1/K) Tr D_li: mean cross gain per interfering cell,
    summed over cells."""
    beta = fading.beta
    cells = beta.shape[0]
    return float(sum(beta[cell, i, :].mean()
                     for i in range(cells) if i != cell))


def deterministic_sir(fading, cell, user, kappa):
    """Limiting SIR at N/K = kappa: beta_llk (kappa-1) / sum (1/K) Tr D_li.

    Independent of the transmit power.  Single-cell systems have no
    interference: the limit is +inf (returned as such, never raised).
    """
    if kappa <= 1:
        raise ValueError("kappa must exceed 1")
    t = _interference_trace(fading, cell)
    if t == 0.0:
        return math.inf
    return fading.direct_gain(cell, user) * (kappa - 1.0) / t


def power_scaled_limit_rate(fading, cell, user, e_u):
    """Ultimate rate log2(1 + beta E_u) when p_u = E_u/N and N >> K."""
    if e_u <= 0:
        raise ValueError("e_u must be positive")
    return math.log2(1.0 + fading.direct_gain(cell, user) * e_u)


def power_scaled_fixed_ratio_sinr(fading, cell, user, e_u, kappa):
    """Limiting SINR under p_u = E_u/N with N/K = kappa:
    beta E_u (1 - 1/kappa) / (E_u/kappa sum (1/K) Tr D + 1)."""
    if e_u <= 0:
        raise ValueError("e_u must be positive")
    if kappa <= 1:
        raise ValueError("kappa must exceed 1")
    beta = fading.direct_gain(cell, user)
    t = _interference_trace(fading, cell)
    return beta * e_u * (1.0 - 1.0 / kappa) / (e_u / kappa * t + 1.0)


def power_scaled_fixed_ratio_rate(fading, cell, user, e_u, kappa):
    return math.log2(1.0 + power_scaled_fixed_ratio_sinr(
        fading, cell, user, e_u, kappa))


def required_kappa(fading, cell, user, e_u, eta, tol=1e-9):
    """Smallest kappa > 1 whose fixed-ratio rate reaches eta times the
    ultimate rate log2(1 + beta E_u).

    The left side is continuous and strictly increasing in kappa, from 0 at
    kappa -> 1+ toward the ultimate rate as kappa -> infinity, so bisection
    always terminates for eta in (0, 1).
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    target = eta * power_scaled_limit_rate(fading, cell, user, e_u)

    def gap(kappa):
        return power_scaled_fixed_ratio_rate(fading, cell, user, e_u,
                                             kappa) - target

    lo = 1.0 + 1e-12
    hi = 2.0
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("required_kappa: no bracket below 1e12")
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def kappa_to_antennas(kappa, users_per_cell):
    """Smallest integer antenna count achieving the ratio."""
    return int(math.ceil(kappa * users_per_cell))
