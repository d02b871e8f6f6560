"""Hexagonal cellular network with path loss, log-normal shadowing, and
frequency reuse: random user drops, per-user net uplink rate, and its
distribution (95%-likely rates).  The interference is drawn by the kernel
of `sinrdist.sample_sinr`.

Geometry: pointy-top hexagons of circumradius R tile the plane with BS
spacing sqrt(3) R; reuse factors 1, 3, 7 use the standard (i, j) cluster
construction, giving co-channel distance sqrt(3 r) R.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fading import _check_dimensions
from .sinrdist import _interference

__all__ = [
    "NetworkScenario",
    "OfdmParams",
    "UserDrop",
    "RateDistribution",
    "build_hex_grid",
    "drop_users",
    "net_rate_samples",
    "rate_distribution",
]

# reuse factor -> (i, j) with r = i^2 + i j + j^2
_REUSE_SHIFTS = {1: (1, 0), 3: (1, 1), 7: (2, 1)}

# drops per block of geometry in `rate_distribution`: sets the memory of one
# block of rejection candidates (8 reuse-1 drops hold 0.3 MB), never a result
_DROPS = 8


@dataclass(frozen=True)
class NetworkScenario:
    """Scenario parameters; defaults follow the hexagonal-network study."""

    cell_radius: float = 1000.0         # center to vertex, meters
    exclusion_radius: float = 100.0     # min user-to-own-BS distance
    interference_horizon: float = 8000.0
    path_loss_exponent: float = 3.8
    shadow_sigma_db: float = 8.0
    reuse_factor: int = 1
    users_per_cell: int = 10
    antennas: int = 20
    transmit_snr: float = 10.0          # linear

    def __post_init__(self):
        if not (0 < self.exclusion_radius < self.cell_radius
                < self.interference_horizon < math.inf):
            raise ValueError("need 0 < r_h < cell radius < horizon < inf")
        if not 2 < self.path_loss_exponent < math.inf:
            raise ValueError("path loss exponent must be finite, above 2")
        if not 0 <= self.shadow_sigma_db < math.inf:
            raise ValueError("shadow_sigma_db must be finite and >= 0")
        if self.reuse_factor not in _REUSE_SHIFTS:
            raise ValueError("reuse factor must be 1, 3, or 7")
        if self.antennas < self.users_per_cell:
            raise ValueError("zero-forcing needs antennas >= users per cell")
        if not 0 < self.transmit_snr < math.inf:
            raise ValueError(f"transmit_snr must be positive and finite "
                             f"(linear scale), got {self.transmit_snr}")

    @property
    def zf_shape(self):
        return self.antennas - self.users_per_cell + 1


@dataclass(frozen=True)
class OfdmParams:
    symbol_duration: float = 71.4e-6
    useful_duration: float = 66.7e-6
    bandwidth: float = 20e6

    def __post_init__(self):
        if not 0 < self.useful_duration <= self.symbol_duration < math.inf:
            raise ValueError("need 0 < T_u <= T_s < inf")
        if not 0 < self.bandwidth < math.inf:
            raise ValueError("bandwidth must be positive and finite")

    @property
    def overhead(self):
        return self.useful_duration / self.symbol_duration


@dataclass(frozen=True)
class UserDrop:
    """User positions in every co-channel cell plus the large-scale gains
    to the home base station.

    positions[c, k] is the location of user k of co-channel cell c
    (cell 0 is the home cell); beta_home[c, k] is its gain to the home BS.
    """

    bs_positions: np.ndarray  # (C, 2)
    positions: np.ndarray     # (C, K, 2)
    beta_home: np.ndarray     # (C, K)

    @property
    def users_per_cell(self):
        return self.beta_home.shape[1]


def build_hex_grid(scenario):
    """Positions of the co-channel base stations within the interference
    horizon, home cell first, then by increasing distance.

    Co-channel test: the axial offset must lie in the sublattice spanned by
    (i0, j0) and its 60-degree rotation (-j0, i0+j0), whose index is the
    reuse factor r = i0^2 + i0 j0 + j0^2.
    """
    r = scenario.reuse_factor
    i0, j0 = _REUSE_SHIFTS[r]
    spacing = math.sqrt(3.0) * scenario.cell_radius
    reach = int(math.ceil(scenario.interference_horizon / spacing)) + 2
    out = []
    for i in range(-reach, reach + 1):
        for j in range(-reach, reach + 1):
            num_m = i * (i0 + j0) + j * j0
            num_n = -i * j0 + j * i0
            if num_m % r or num_n % r:
                continue
            x = spacing * (i + 0.5 * j)
            y = spacing * (math.sqrt(3.0) / 2.0) * j
            d = math.hypot(x, y)
            if d <= scenario.interference_horizon:
                out.append((d, x, y))
    out.sort()
    return np.array([[x, y] for _, x, y in out])


def _hexagon_candidates(rng, shape, radius, exclusion):
    """Rejection candidates: `shape + (2,)` points uniform in the hexagon's
    bounding box, and the mask of those inside the hexagon (circumradius
    `radius`, centered at the origin) and at least `exclusion` from the
    center."""
    cand = rng.uniform(-1.0, 1.0, size=shape + (2,))
    cand[..., 0] *= math.sqrt(3.0) / 2.0 * radius
    cand[..., 1] *= radius
    inside = (np.abs(cand[..., 1])
              <= radius - np.abs(cand[..., 0]) / math.sqrt(3.0))
    far = np.hypot(cand[..., 0], cand[..., 1]) >= exclusion
    return cand, inside & far


def _uniform_hexagon(rng, count, radius, exclusion):
    """Uniform points in a pointy-top hexagon (circumradius `radius`)
    centered at the origin, at least `exclusion` from the center."""
    pts = np.empty((count, 2))
    got = 0
    while got < count:
        cand, keep = _hexagon_candidates(rng, (2 * (count - got) + 8,),
                                         radius, exclusion)
        cand = cand[keep]
        take = min(count - got, cand.shape[0])
        pts[got:got + take] = cand[:take]
        got += take
    return pts


def _drop_block(scenario, grid, drops, cand_rng, refill_rng, shadow_rng):
    """Positions (drops, C, K, 2) and home-BS gains (drops, C, K) of `drops`
    drops: beta = z / (d / r_h)^nu with z log-normal (shadow_sigma_db dB
    standard deviation).

    Every cell's first rejection round is 2K + 8 candidates, so all first
    rounds are one `cand_rng` draw, and each cell keeps its first K accepted
    points.  A cell that accepts fewer keeps those and takes the rest from
    `_uniform_hexagon` on `refill_rng`, cells in (drop, cell) order.  The
    shadowing normals come from `shadow_rng`."""
    cells, k = grid.shape[0], scenario.users_per_cell
    radius, exclusion = scenario.cell_radius, scenario.exclusion_radius
    cand, keep = _hexagon_candidates(cand_rng, (drops, cells, 2 * k + 8),
                                     radius, exclusion)
    first = np.argsort(~keep, axis=2, kind="stable")[..., :k]
    pts = np.take_along_axis(cand, first[..., None], axis=2)
    got = keep.sum(axis=2)
    for d, c in zip(*np.nonzero(got < k)):
        pts[d, c, got[d, c]:] = _uniform_hexagon(refill_rng, k - got[d, c],
                                                 radius, exclusion)
    pos = grid[:, None, :] + pts
    d_home = np.hypot(pos[..., 0] - grid[0, 0], pos[..., 1] - grid[0, 1])
    shadow = 10.0 ** (scenario.shadow_sigma_db * shadow_rng.standard_normal(
        (drops, cells, k)) / 10.0)
    beta = shadow / (d_home / exclusion) ** scenario.path_loss_exponent
    return pos, beta


def drop_users(scenario, grid, rng):
    """Drop K users uniformly in every co-channel cell and synthesize their
    gains to the home BS (`_drop_block` for one drop, every draw from
    `rng`: the first rejection round, the refills, then the shadowing)."""
    pos, beta = _drop_block(scenario, grid, 1, rng, rng, rng)
    return UserDrop(grid.copy(), pos[0], beta[0])


def _drop_rates(scenario, ofdm, beta_d, cross, signal_rng, interference_rng,
                out):
    """Net uplink rates of one drop into `out` (samples, users), bits/second:
    (B/r) (T_u/T_s) log2(1 + gamma) with gamma = p_u X / (p_u Z + 1/r).

    X and Z are drawn from the exact post-ZF laws conditioned on the drop's
    large-scale gains: X = beta_k G with G one standard gamma variate of
    shape N-K+1 (so X is Erlang(N-K+1, beta_k)), written straight into
    `out`; Z = -ln(V) . cross, one exponential per co-channel gain in
    `cross`, drawn by `sinrdist._interference`.  Z is shared across the
    home users of one sample (it has the same law for each; only the
    marginal matters here).  All signal draws come before all interference
    draws, and no value depends on the kernel's block size."""
    signal_rng.standard_gamma(scenario.zf_shape, out=out)
    out *= beta_d
    z = _interference(interference_rng, cross, out.shape[0])
    r, p_u = scenario.reuse_factor, scenario.transmit_snr
    out *= p_u
    out /= (1.0 / r + p_u * z)[:, None]
    out += 1.0
    np.log2(out, out=out)
    out *= (ofdm.bandwidth / r) * ofdm.overhead


def _check_count(name, value):
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def net_rate_samples(scenario, ofdm, drop, rng, samples=1, user=None):
    """Net uplink rate draws on one drop, bits/second: (B/r) (T_u/T_s)
    log2(1 + gamma) with gamma = p_u X / (p_u Z + 1/r), X Erlang(N-K+1,
    beta_k) and Z one exponential per co-channel gain, drawn exactly given
    the drop's gains.  Every signal variate comes from `rng` first, then
    every interference row.
    Returns shape (samples, K) or (samples,) when a user index is given;
    raises ValueError when the drop has another K than the scenario.
    """
    _check_count("samples", samples)
    _check_dimensions(scenario, drop, ("users_per_cell",))
    k = scenario.users_per_cell
    if user is not None and not 0 <= user < k:
        raise ValueError(f"user must lie in 0..{k - 1}, got {user}")
    users = [user] if user is not None else list(range(k))
    out = np.empty((samples, len(users)))
    _drop_rates(scenario, ofdm, drop.beta_home[0, users],
                drop.beta_home[1:].ravel(), rng, rng, out)
    return out[:, 0] if user is not None else out


class RateDistribution:
    """Pooled empirical distribution of the per-user net rate."""

    def __init__(self, samples):
        self.samples = np.sort(np.asarray(samples, dtype=float).ravel())

    @property
    def mean(self):
        return float(self.samples.mean())

    def percentile(self, q):
        return float(np.percentile(self.samples, q))

    @property
    def likely_95(self):
        """The 95%-likely rate: the 5th percentile."""
        return self.percentile(5.0)

    def cdf(self, x):
        return np.searchsorted(self.samples, x, side="right") \
            / self.samples.size


def rate_distribution(scenario, ofdm, num_drops, samples_per_drop, rng):
    """Empirical net-rate distribution pooled over geometry drops,
    small-scale fading, and users, drawn `_DROPS` drops per block of
    geometry and sorted in place (not copied).

    Each random quantity has its own stream, spawned from entropy drawn
    from `rng`: the rejection candidates, the refills, the shadowing, the
    signal and the interference.  So the drops of a seed do not depend on
    `samples_per_drop`, and no value depends on `_DROPS` or the
    interference kernel's row block."""
    _check_count("num_drops", num_drops)
    _check_count("samples_per_drop", samples_per_drop)
    cand, refill, shadow, signal, interference = map(
        np.random.default_rng,
        np.random.SeedSequence(rng.integers(2**63, size=2)).spawn(5))
    grid = build_hex_grid(scenario)
    rates = np.empty((num_drops, samples_per_drop, scenario.users_per_cell))
    for lo in range(0, num_drops, _DROPS):
        block = rates[lo:lo + _DROPS]
        _, beta = _drop_block(scenario, grid, block.shape[0], cand, refill,
                              shadow)
        for gains, out in zip(beta, block):
            _drop_rates(scenario, ofdm, gains[0], gains[1:].ravel(), signal,
                        interference, out)
    dist = RateDistribution.__new__(RateDistribution)
    dist.samples = rates.reshape(-1)
    dist.samples.sort()
    return dist
