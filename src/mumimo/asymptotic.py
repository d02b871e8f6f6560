"""Large-antenna-array laws: the deterministic SIR equivalent at fixed
antenna/user ratio, the 1/N power-scaling limits, and the degrees-of-freedom
antenna ratio in closed form (how large N/K must be for the power-scaled
rate to reach a given fraction of its ultimate value).
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
    beta = fading.direct_gain(cell, user)
    t = _interference_trace(fading, cell)
    if t == 0.0:
        return math.inf
    return beta * (kappa - 1.0) / t


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


def required_kappa(fading, cell, user, e_u, eta):
    """Smallest kappa > 1 whose fixed-ratio rate reaches eta times the
    ultimate rate log2(1 + beta E_u): the root of beta E_u (kappa - 1) /
    (E_u T + kappa) = g, g = e^{eta L} - 1, L = ln(1 + beta E_u), T the
    interference trace.  As beta E_u - g = (1 + beta E_u)(1 - e^{-(1 - eta)
    L}), it is E_u / (1 + beta E_u) (beta + g T) / (1 - e^{-(1 - eta) L}),
    which neither cancels as eta -> 1 nor overflows before kappa does."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if not 0.0 < e_u < math.inf:
        raise ValueError("e_u must be positive and finite")
    beta = fading.direct_gain(cell, user)
    log_ult = math.log1p(beta * e_u)
    target = math.expm1(eta * log_ult)
    return (e_u / (1.0 + beta * e_u)
            * (beta + target * _interference_trace(fading, cell))
            / -math.expm1(-(1.0 - eta) * log_ult))


def kappa_to_antennas(kappa, users_per_cell):
    """Smallest integer antenna count achieving the ratio; ValueError when
    kappa K is not finite."""
    antennas = kappa * users_per_cell
    if not math.isfinite(antennas):
        raise ValueError(f"antenna count kappa K = {antennas} is not finite")
    return int(math.ceil(antennas))
