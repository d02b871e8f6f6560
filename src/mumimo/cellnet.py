"""Hexagonal cellular network with path loss, log-normal shadowing, and
frequency reuse: random user drops, per-user net uplink rate, and its
distribution (95%-likely rates).

Geometry: pointy-top hexagons of circumradius R tile the plane with BS
spacing sqrt(3) R; reuse factors 1, 3, 7 use the standard (i, j) cluster
construction, giving co-channel distance sqrt(3 r) R.
"""

import math
from dataclasses import dataclass

import numpy as np

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

# sample rows per block of uniforms in `net_rate_samples`: sets the memory
# of one block (256 rows of a reuse-1 drop's 840 co-channel users is
# 1.7 MB), never a result
_ROWS = 256


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


def _uniform_hexagons(rng, cells, count, radius, exclusion):
    """`_uniform_hexagon` for each of `cells` cells in turn, (cells, count, 2).

    Each cell's first rejection round is 2 count + 8 candidates, so all
    first rounds together are one (cells, 2 count + 8) draw.  When every
    cell accepts `count` of them, each takes its first `count` in order:
    the same points and the same generator state as the per-cell loop.
    Otherwise the generator is rewound and the loop runs."""
    saved = rng.bit_generator.state
    cand, keep = _hexagon_candidates(rng, (cells, 2 * count + 8), radius,
                                     exclusion)
    if keep.sum(axis=1).min() >= count:
        first = np.argsort(~keep, axis=1, kind="stable")[:, :count]
        return np.take_along_axis(cand, first[..., None], axis=1)
    rng.bit_generator.state = saved
    return np.stack([_uniform_hexagon(rng, count, radius, exclusion)
                     for _ in range(cells)])


def drop_users(scenario, grid, rng):
    """Drop K users uniformly in every co-channel cell and synthesize their
    gains to the home BS: beta = z / (d / r_h)^nu with z log-normal
    (shadow_sigma_db dB standard deviation)."""
    cells = grid.shape[0]
    k = scenario.users_per_cell
    pos = grid[:, None, :] + _uniform_hexagons(
        rng, cells, k, scenario.cell_radius, scenario.exclusion_radius)
    d_home = np.hypot(pos[..., 0] - grid[0, 0], pos[..., 1] - grid[0, 1])
    shadow = 10.0 ** (scenario.shadow_sigma_db * rng.standard_normal(
        (cells, k)) / 10.0)
    beta = shadow / (d_home / scenario.exclusion_radius) \
        ** scenario.path_loss_exponent
    return UserDrop(grid.copy(), pos, beta)


def net_rate_samples(scenario, ofdm, drop, rng, samples=1, user=None):
    """Net uplink rate draws, bits/second: (B/r) (T_u/T_s) log2(1 + gamma)
    with gamma = p_u X / (p_u Z + 1/r).

    X and Z are drawn from the exact post-ZF laws conditioned on the drop's
    large-scale gains: X Erlang(N-K+1, beta_k), Z the sum of one exponential
    per co-channel user.  Z is shared across the home users of one sample
    (it has the same law for each; only the marginal matters here).
    The uniforms are drawn and reduced `_ROWS` sample rows at a time, so
    memory holds one block of them; the draws and the values do not depend
    on the block size.
    Returns shape (samples, K) or (samples,) when a user index is given.
    """
    r = scenario.reuse_factor
    p_u = scenario.transmit_snr
    nu = scenario.zf_shape
    users = ([user] if user is not None
             else list(range(scenario.users_per_cell)))
    beta_d = drop.beta_home[0, users]
    cross = drop.beta_home[1:].ravel()
    # Generator.random fills in C order, so consecutive row blocks continue
    # one stream: every X uniform comes before every Z uniform, as in one
    # (samples, K, nu) draw followed by one (samples, C) draw.  Logs and
    # products run in place and the sign comes after the sum: the same bits
    # as summing -log(u) over each row (rounding is symmetric in sign).
    # A drop with no co-channel users draws no Z uniforms and gets Z = -0.
    blocks = [slice(lo, min(lo + _ROWS, samples))
              for lo in range(0, samples, _ROWS)]
    x = np.empty((samples, len(users)))
    for rows in blocks:
        u = rng.random((rows.stop - rows.start, len(users), nu))
        x[rows] = np.log(u, out=u).sum(axis=2) * -beta_d
    z = np.empty(samples)
    for rows in blocks:
        v = rng.random((rows.stop - rows.start, cross.size))
        np.log(v, out=v)
        v *= cross
        z[rows] = -v.sum(axis=1)
    gamma = p_u * x / (p_u * z[:, None] + 1.0 / r)
    rate = (ofdm.bandwidth / r) * ofdm.overhead * np.log2(1.0 + gamma)
    return rate[:, 0] if user is not None else rate


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
    small-scale fading, and users."""
    grid = build_hex_grid(scenario)
    rates = np.empty((num_drops, samples_per_drop, scenario.users_per_cell))
    for drop_rates in rates:
        drop = drop_users(scenario, grid, rng)
        drop_rates[...] = net_rate_samples(scenario, ofdm, drop, rng,
                                           samples=samples_per_drop)
    return RateDistribution(rates)
