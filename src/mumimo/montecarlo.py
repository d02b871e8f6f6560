"""Independent Monte Carlo oracle: draws full channel matrices, applies the
zero-forcing pseudo-inverse, and measures per-user SINR, rate, SER, and
outage empirically.

Determinism contract: the randomness of trial t is a pure function of
(base_seed, t) through a counter-based Philox key, so results are
bit-identical no matter how trials are chunked or threaded; reductions are
merge-only (sums, counts).  Every estimate runs through one block map:
blocks of as many trials as fill `_BLOCK_BYTES` with channels (at least
one), on a thread pool sized to the CPUs this process may use (numpy's
normal fills, `matmul`, `inv` and `svd` release the interpreter lock),
yielded in trial order, so neither the block size nor the thread count
changes a draw or a result.  Neither is a setting.  A block restarts one
Philox generator in place from trial to trial and scales its channels once,
and detects a whole block at once through one zero-forcing front end.
"""

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fading import _check_dimensions

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
_RANK_TOL = 1e-14  # least / largest singular value of a rank-deficient G

# bytes of channels per block: sets the memory of one block, never a
# result; 32 trials at L = 4, K = 10, N = 100 and 160 at N = 20
_BLOCK_BYTES = 32 * 4 * 100 * 10 * 16

# threads of the block pool: the CPUs this process may use
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity masks on this platform
    _WORKERS = os.cpu_count() or 1


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
        if not 0 <= self.home_cell < self.g.shape[0]:
            raise ValueError(f"home_cell {self.home_cell} outside "
                             f"0..{self.g.shape[0] - 1}")
        if not np.all(np.isfinite(self.g.view(float))):
            raise ValueError("channel entries must be finite")


@dataclass(frozen=True)
class TrialPlan:
    """How many trials, from which seed."""

    num_trials: int
    base_seed: int = 0

    def __post_init__(self):
        if self.num_trials < 1:
            raise ValueError("num_trials must be >= 1")


def trial_rng(base_seed, trial):
    """Generator whose stream depends only on (base_seed, trial)."""
    key = (int(base_seed) % (1 << 64)) << 64 | (int(trial) % (1 << 64))
    return np.random.Generator(np.random.Philox(key=key))


def _trial_streams(base_seed, trials):
    """Yield, for each trial t of the range `trials`, one Philox generator
    restarted in place at the head of trial_rng(base_seed, t)'s stream: key
    (base_seed, t), counter 0, empty buffer.  One state, whose trial key
    word alone changes, serves the whole range; a new Philox per trial
    costs several times more, mostly OS entropy that the key then
    overwrites."""
    rng = trial_rng(base_seed, trials.start)
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0],
                       "key": [0, int(base_seed) % (1 << 64)]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    key = state["state"]["key"]
    for t in trials:
        key[0] = t % (1 << 64)
        rng.bit_generator.state = state
        yield rng


def sample_channels(config, fading, home_cell, rng):
    """Draw one ChannelRealization, a one-trial `_channel_block`: h ~
    CN(0, 1) i.i.d., scaled by the square-root large-scale gains."""
    _check_system(config, fading, home_cell)
    return ChannelRealization(
        home_cell, _channel_block(config, fading, home_cell, 1, [rng])[0])


def _zf_front_end(gh):
    """Noise gains diag((G^H G)^-1), shape (T, K), of a block of home
    channels G, shape (T, N, K), and the filter that maps columns C, shape
    (T, N, c), to (G^H G)^-1 G^H C.  Trials whose Gram matrix is past
    `_COND_GATE`, or all if one is singular, take `_svd_pinv`."""
    ghh = gh.conj().swapaxes(1, 2)                         # (T, K, N)
    gram = ghh @ gh                                        # (T, K, K)
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        # an exactly singular member fails the batched factorization:
        # gate the whole block, whose SVD rejects that member
        inv = np.full_like(gram, np.nan)
    noise = np.einsum("tkk->tk", inv).real                 # (T, K)
    # one-norm condition estimate of the Gram matrix, NaN when singular
    cond = (np.abs(gram).sum(axis=1).max(axis=1)
            * np.abs(inv).sum(axis=1).max(axis=1))
    bad = np.flatnonzero(~(cond <= _COND_GATE))
    if bad.size:
        noise[bad], pinv = _svd_pinv(gh[bad])

    def zf(columns):
        out = inv @ (ghh @ columns)
        if bad.size:
            out[bad] = pinv @ columns[bad]
        return out

    return noise, zf


def _svd_pinv(gh):
    """Noise gains sum_j |V_kj / s_j|^2 and pseudo-inverses V S^-1 U^H of
    home channels G = U S V^H, shape (T, N, K); RankDeficiencyError when a
    G has N < K or a singular value within `_RANK_TOL` of its largest."""
    u, s, vh = np.linalg.svd(gh, full_matrices=False)
    if s.shape[1] < gh.shape[2] or np.any(s[:, -1] <= _RANK_TOL * s[:, 0]):
        raise RankDeficiencyError("home channel matrix numerically singular")
    vs = vh.conj().swapaxes(1, 2) / s[:, None, :]          # V S^-1
    return ((vs.real ** 2 + vs.imag ** 2).sum(axis=2),
            vs @ u.conj().swapaxes(1, 2))


def _zf_sinr_batch(g, home_cell, p_u):
    """Per-user SINR for a batch of realizations; g has shape (T, L, N, K).

    Noise power for user k is [ (G^H G)^-1 ]_kk; interference power is the
    squared row norm of G_ll^+ G_li summed over i != l, one cell at a time.
    """
    noise, zf = _zf_front_end(g[:, home_cell])
    interf = np.zeros_like(noise)
    for i in range(g.shape[1]):
        if i != home_cell:
            rows = zf(g[:, i])                             # (T, K, K)
            interf += (rows.real ** 2 + rows.imag ** 2).sum(axis=2)
    return p_u / (p_u * interf + noise)


def zf_sinr(realization, p_u):
    """Per-user SINR of one realization (K-vector)."""
    _check_snr(p_u)
    return _zf_sinr_batch(realization.g[None], realization.home_cell, p_u)[0]


def _check_snr(p_u):
    """Raise ValueError unless p_u is finite and positive (not inf/inf)."""
    if not 0 < p_u < math.inf:
        raise ValueError(f"Monte Carlo needs a finite, positive "
                         f"transmit_snr, got {p_u}")


def _check_system(config, fading, home_cell, user=None):
    """Raise ValueError unless `fading` has the (L, K) of `config`, p_u
    passes `_check_snr`, `home_cell` is one of its cells and `user`, when
    given, one of its users (a negative index would wrap around)."""
    _check_dimensions(config, fading)
    _check_snr(config.transmit_snr)
    if not 0 <= home_cell < config.num_cells:
        raise ValueError(f"home_cell {home_cell} outside "
                         f"0..{config.num_cells - 1}")
    k = config.users_per_cell
    if user is not None and not 0 <= user < k:
        raise ValueError(f"user must lie in 0..{k - 1}, got {user}")


def _block_trials(config):
    """Trials per block: as many as fill `_BLOCK_BYTES` with the complex
    (L, N, K) channels of each, at least one."""
    trial = 16 * config.num_cells * config.antennas * config.users_per_cell
    return max(1, _BLOCK_BYTES // trial)


def _map_blocks(block, config, num_trials):
    """Yield block(trials) over consecutive ranges of `_block_trials(config)`
    trials, in order, run on `_WORKERS` threads; closing the generator
    cancels the blocks not yet started and waits for the running ones."""
    # imported here, so that programs that never sample do not pay for it
    from concurrent.futures import ThreadPoolExecutor
    size = _block_trials(config)
    blocks = [range(start, min(start + size, num_trials))
              for start in range(0, num_trials, size)]
    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        yield from pool.map(block, blocks)


def _channel_block(config, fading, home_cell, size, streams, then=None):
    """Channels of `size` trials, shape (size, L, N, K): trial j's are the
    first normals of the j-th generator of `streams`, drawn straight into
    its row of the block's float view; then(j, rng), when given, goes on
    drawing from that stream.  The 1/sqrt(2) and sqrt(beta) scalings run
    once per block, bit for bit (h_re + 1j h_im) / sqrt(2) of each entry
    times its gain's root."""
    cells, n, k = config.num_cells, config.antennas, config.users_per_cell
    g = np.empty((size, cells, n, k), dtype=complex)
    h = g.view(float).reshape(g.shape + (2,))
    for j, rng in enumerate(streams):
        rng.standard_normal(out=h[j])
        if then is not None:
            then(j, rng)
    h *= 1.0 / math.sqrt(2.0)
    g *= np.sqrt(fading.beta[home_cell][None, :, None, :])
    return g


def _sinr_block(config, fading, base_seed, home_cell, trials):
    """SINRs of the given trials; shape (len(trials), K)."""
    g = _channel_block(config, fading, home_cell, len(trials),
                       _trial_streams(base_seed, trials))
    return _zf_sinr_batch(g, home_cell, config.transmit_snr)


def _symbol_error_block(config, fading, modulation, base_seed, home_cell,
                        trials, user=None):
    """Symbol error rate of each given trial: uniform M-PSK symbols from
    every user through the ZF front end, nearest-phase detection; the error
    share of the home users, or 0/1 for one user when one is given.  Each
    trial's stream gives its channels, then its symbols, then its noise;
    the block's received vectors are formed and detected together."""
    m = modulation.psk_order
    cells, n, k = config.num_cells, config.antennas, config.users_per_cell
    symbols = np.empty((len(trials), cells, k), dtype=np.int64)
    noise = np.empty((len(trials), n), dtype=complex)
    noise_parts = noise.view(float).reshape(noise.shape + (2,))

    def symbols_and_noise(j, rng):
        symbols[j] = rng.integers(0, m, size=(cells, k))
        rng.standard_normal(out=noise_parts[j])

    g = _channel_block(config, fading, home_cell, len(trials),
                       _trial_streams(base_seed, trials), symbols_and_noise)
    noise_parts *= 1.0 / math.sqrt(2.0)
    x = np.exp(2j * math.pi * symbols / m)
    y = (math.sqrt(config.transmit_snr) * np.einsum("tink,tik->tn", g, x)
         + noise)
    _, zf = _zf_front_end(g[:, home_cell])
    r = zf(y[..., None])[..., 0]
    detected = np.round(np.angle(r) * m / (2 * math.pi)) % m
    wrong = detected != symbols[:, home_cell] % m
    return (wrong.mean(axis=1) if user is None
            else wrong[:, user].astype(float))


def sinr_trials(config, fading, plan, home_cell=0):
    """Yield (T_block, K) SINR arrays over the plan's trials, in order;
    trial t's channels come from trial_rng(base_seed, t)."""
    _check_system(config, fading, home_cell)
    return _map_blocks(
        partial(_sinr_block, config, fading, plan.base_seed, home_cell),
        config, plan.num_trials)


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    num_trials: int

    def agrees_with(self, reference, num_sigma=2.0):
        return abs(self.value - reference) <= num_sigma * self.std_error


def _estimate(block, config, plan):
    """Mean and standard error of the per-trial values that `block` returns
    for each block of the plan's trials."""
    values = np.concatenate(list(_map_blocks(block, config,
                                             plan.num_trials)))
    se = float(values.std(ddof=1) / math.sqrt(values.size)) \
        if values.size > 1 else math.inf
    return Estimate(float(values.mean()), se, values.size)


def _sinr_estimate(config, fading, plan, home_cell, per_user, user=None):
    """_estimate of per_user(gamma), a (T, K) map of a block's SINRs, taken
    for one user or averaged over each trial's users."""
    _check_system(config, fading, home_cell, user)
    sinr = partial(_sinr_block, config, fading, plan.base_seed, home_cell)
    pick = ((lambda v: v.mean(axis=1)) if user is None
            else (lambda v: v[:, user].astype(float)))
    return _estimate(lambda trials: pick(per_user(sinr(trials))), config,
                     plan)


def estimate_rate(config, fading, plan, home_cell=0, user=None):
    """Mean per-user rate log2(1 + gamma), in bits/s/Hz.

    The user average within one trial shares a channel draw, so the
    standard error is computed over per-trial means.
    """
    return _sinr_estimate(config, fading, plan, home_cell,
                          lambda gam: np.log2(1.0 + gam), user)


def _conditional_psk_ser(gamma, modulation):
    """Exact conditional M-PSK SER given the SINR:
    (1/pi) int_0^Theta exp(-g gamma / sin^2 theta) dtheta, on the
    modulation's theta rule."""
    s, w = modulation.theta_rule
    return np.exp(-np.multiply.outer(gamma, s)) @ w


def estimate_ser(config, fading, modulation, plan, home_cell=0,
                 mode="semi_analytic", user=None):
    """Average M-PSK SER; pools users unless one is given.

    semi_analytic (default): averages the exact conditional SER over channel
    draws -- unbiased with far lower variance than symbol counting.
    symbol: transmits uniform PSK symbols through the ZF front end with
    nearest-phase detection and counts errors.
    """
    if mode == "semi_analytic":
        return _sinr_estimate(config, fading, plan, home_cell,
                              partial(_conditional_psk_ser,
                                      modulation=modulation), user)
    if mode != "symbol":
        raise ValueError("mode must be 'semi_analytic' or 'symbol'")
    _check_system(config, fading, home_cell, user)
    return _estimate(partial(_symbol_error_block, config, fading, modulation,
                             plan.base_seed, home_cell, user=user), config,
                     plan)


def estimate_outage(config, fading, plan, gamma_th, home_cell=0, user=None):
    """Empirical P{gamma_k <= gamma_th}; pools users unless one is given."""
    if not gamma_th >= 0:  # a NaN threshold too
        raise ValueError(f"gamma_th must be >= 0, got {gamma_th}")
    return _sinr_estimate(config, fading, plan, home_cell,
                          lambda gam: gam <= gamma_th, user)


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
