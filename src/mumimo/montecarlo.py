"""Independent Monte Carlo oracle: draws full channel matrices, applies the
zero-forcing pseudo-inverse, and measures per-user SINR, rate, SER, and
outage empirically.

Determinism contract: the randomness of trial t is a pure function of
(base_seed, t) through a counter-based Philox key, so results are
bit-identical no matter how trials are chunked or threaded; reductions are
merge-only (sums, counts).
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelRealization",
    "TrialPlan",
    "RankDeficiencyError",
    "Estimate",
    "trial_rng",
    "sample_channels",
    "zf_sinr",
    "sinr_trials",
    "estimate_rate",
    "estimate_ser",
    "estimate_outage",
    "ks_two_sample",
]

_COND_GATE = 1e14


class RankDeficiencyError(RuntimeError):
    """Home-cell channel matrix numerically rank deficient."""


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of every channel matrix seen by the home base station.

    g[i] is the N x K complex matrix from the users of cell i; g[home_cell]
    is the home channel that gets pseudo-inverted.
    """

    home_cell: int
    g: np.ndarray  # (L, N, K) complex

    def __post_init__(self):
        if not np.all(np.isfinite(self.g.view(float))):
            raise ValueError("channel entries must be finite")


@dataclass(frozen=True)
class TrialPlan:
    """How many trials, from which seed, processed in which chunk size."""

    num_trials: int
    base_seed: int = 0
    batch_size: int = 512

    def __post_init__(self):
        if self.num_trials < 1:
            raise ValueError("num_trials must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def trial_rng(base_seed, trial):
    """Generator whose stream depends only on (base_seed, trial)."""
    key = (int(base_seed) % (1 << 64)) << 64 | (int(trial) % (1 << 64))
    return np.random.Generator(np.random.Philox(key=key))


def sample_channels(config, fading, home_cell, rng):
    """Draw one ChannelRealization: h ~ CN(0, 1) i.i.d., scaled by the
    square-root large-scale gains (variance 1/2 per real dimension)."""
    cells, n, k = config.num_cells, config.antennas, config.users_per_cell
    h = rng.standard_normal((cells, n, k, 2))
    g = (h[..., 0] + 1j * h[..., 1]) / math.sqrt(2.0)
    g *= np.sqrt(fading.beta[home_cell][:, None, :])
    return ChannelRealization(home_cell, g)


def _zf_sinr_batch(g, home_cell, p_u):
    """Per-user SINR for a batch of realizations; g has shape (T, L, N, K).

    Noise power for user k is [ (G^H G)^-1 ]_kk; interference power is the
    squared row norm of G_ll^+ G_li summed over i != l.
    """
    gh = g[:, home_cell]                                   # (T, N, K)
    gram = np.einsum("tnk,tnj->tkj", gh.conj(), gh)        # (T, K, K)
    try:
        inv = np.linalg.inv(gram)
        singular = np.array([], dtype=int)
    except np.linalg.LinAlgError:
        # exactly singular members poison the batched factorization;
        # isolate them and let the orthogonal fallback decide
        inv = np.empty_like(gram)
        flags = []
        eye = np.eye(gram.shape[1], dtype=gram.dtype)
        for t in range(gram.shape[0]):
            try:
                inv[t] = np.linalg.inv(gram[t])
            except np.linalg.LinAlgError:
                inv[t] = eye
                flags.append(t)
        singular = np.array(flags, dtype=int)
    noise = np.einsum("tkk->tk", inv).real                 # (T, K)
    # one-norm condition estimate of the Gram matrix
    cond = (np.abs(gram).sum(axis=1).max(axis=1)
            * np.abs(inv).sum(axis=1).max(axis=1))
    bad = np.union1d(np.nonzero(cond > _COND_GATE)[0], singular)
    interf = np.zeros_like(noise)
    cells = g.shape[1]
    for i in range(cells):
        if i == home_cell:
            continue
        cross = np.einsum("tnk,tnj->tkj", gh.conj(), g[:, i])
        rows = inv @ cross                                 # (T, K, K)
        interf += (rows.real ** 2 + rows.imag ** 2).sum(axis=2)
    for t in bad:
        noise[t], interf[t] = _zf_terms_qr(g[t], home_cell)
    return p_u / (p_u * interf + noise)


def _zf_terms_qr(g, home_cell, rcond=1e-14):
    """Orthogonal-decomposition fallback for an ill-conditioned Gram matrix."""
    gh = g[home_cell]
    q, r = np.linalg.qr(gh)
    diag = np.abs(np.diag(r))
    if diag.min() <= rcond * diag.max():
        raise RankDeficiencyError(
            "home channel matrix numerically singular")
    rinvh = np.linalg.solve(r, np.eye(r.shape[0], dtype=r.dtype))
    noise = (rinvh.real ** 2 + rinvh.imag ** 2).sum(axis=1)
    interf = np.zeros_like(noise)
    cells = g.shape[0]
    pinv = rinvh @ q.conj().T
    for i in range(cells):
        if i == home_cell:
            continue
        rows = pinv @ g[i]
        interf += (rows.real ** 2 + rows.imag ** 2).sum(axis=1)
    return noise, interf


def zf_sinr(realization, p_u):
    """Per-user SINR of one realization (K-vector)."""
    out = _zf_sinr_batch(realization.g[None], realization.home_cell, p_u)
    return out[0]


def sinr_trials(config, fading, plan, home_cell=0):
    """Yield (T_chunk, K) SINR arrays over the plan's trials.

    Channels are drawn per trial from trial_rng(base_seed, t); the linear
    algebra is batched per chunk purely for speed.
    """
    cells, n, k = config.num_cells, config.antennas, config.users_per_cell
    done = 0
    while done < plan.num_trials:
        count = min(plan.batch_size, plan.num_trials - done)
        g = np.empty((count, cells, n, k), dtype=complex)
        for j in range(count):
            rng = trial_rng(plan.base_seed, done + j)
            h = rng.standard_normal((cells, n, k, 2))
            g[j] = (h[..., 0] + 1j * h[..., 1]) / math.sqrt(2.0)
        g *= np.sqrt(fading.beta[home_cell][None, :, None, :])
        yield _zf_sinr_batch(g, home_cell, config.transmit_snr)
        done += count


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    num_trials: int

    def agrees_with(self, reference, num_sigma=2.0):
        return abs(self.value - reference) <= num_sigma * self.std_error


def _reduce_trial_means(per_trial):
    values = np.concatenate(per_trial)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size)) \
        if values.size > 1 else math.inf
    return mean, se, values.size


def estimate_rate(config, fading, plan, home_cell=0, user=None):
    """Mean per-user rate log2(1 + gamma), in bits/s/Hz.

    The user average within one trial shares a channel draw, so the
    standard error is computed over per-trial means.
    """
    per_trial = []
    for gam in sinr_trials(config, fading, plan, home_cell):
        rates = np.log2(1.0 + gam)
        per_trial.append(rates[:, user] if user is not None
                         else rates.mean(axis=1))
    mean, se, count = _reduce_trial_means(per_trial)
    return Estimate(mean, se, count)


def _conditional_psk_ser(gamma, modulation):
    """Exact conditional M-PSK SER given the SINR:
    (1/pi) int_0^Theta exp(-g gamma / sin^2 theta) dtheta, on the
    modulation's theta rule."""
    s, w = modulation.theta_rule
    return np.exp(-np.multiply.outer(gamma, s)) @ w


def estimate_ser(config, fading, modulation, plan, home_cell=0,
                 mode="semi_analytic"):
    """Average M-PSK SER.

    semi_analytic (default): averages the exact conditional SER over channel
    draws -- unbiased with far lower variance than symbol counting.
    symbol: transmits uniform PSK symbols through the ZF front end with
    nearest-phase detection and counts errors.
    """
    if mode == "semi_analytic":
        per_trial = []
        for gam in sinr_trials(config, fading, plan, home_cell):
            per_trial.append(
                _conditional_psk_ser(gam, modulation).mean(axis=1))
        mean, se, count = _reduce_trial_means(per_trial)
        return Estimate(mean, se, count)
    if mode != "symbol":
        raise ValueError("mode must be 'semi_analytic' or 'symbol'")
    m = modulation.psk_order
    cells, n, k = config.num_cells, config.antennas, config.users_per_cell
    p_u = config.transmit_snr
    per_trial = []
    done = 0
    while done < plan.num_trials:
        count = min(plan.batch_size, plan.num_trials - done)
        errors = np.empty(count)
        for j in range(count):
            rng = trial_rng(plan.base_seed, done + j)
            h = rng.standard_normal((cells, n, k, 2))
            g = (h[..., 0] + 1j * h[..., 1]) / math.sqrt(2.0)
            g *= np.sqrt(fading.beta[home_cell][:, None, :])
            symbols = rng.integers(0, m, size=(cells, k))
            x = np.exp(2j * math.pi * symbols / m)
            noise = rng.standard_normal((n, 2))
            y = math.sqrt(p_u) * np.einsum("ink,ik->n", g, x) \
                + (noise[:, 0] + 1j * noise[:, 1]) / math.sqrt(2.0)
            r = np.linalg.lstsq(g[home_cell], y, rcond=None)[0]
            detected = np.round(np.angle(r) * m / (2 * math.pi)) % m
            errors[j] = float(np.mean(detected != symbols[home_cell] % m))
        per_trial.append(errors)
        done += count
    mean, se, count = _reduce_trial_means(per_trial)
    return Estimate(mean, se, count)


def estimate_outage(config, fading, plan, gamma_th, home_cell=0, user=None):
    """Empirical P{gamma_k <= gamma_th}; pools users unless one is given."""
    if gamma_th < 0:
        raise ValueError("gamma_th must be >= 0")
    per_trial = []
    for gam in sinr_trials(config, fading, plan, home_cell):
        hits = (gam <= gamma_th)
        per_trial.append(hits[:, user].astype(float) if user is not None
                         else hits.mean(axis=1))
    mean, se, count = _reduce_trial_means(per_trial)
    return Estimate(mean, se, count)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov helpers used by the distributional-equality checks
# ---------------------------------------------------------------------------

def ks_two_sample(a, b):
    """Two-sample KS statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(fa - fb).max())


def ks_two_sample_critical(n, m, significance=0.01):
    """Critical KS value at the given significance (1.628 at 1%)."""
    c = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628}[significance]
    return c * math.sqrt((n + m) / (n * m))
