"""System configuration, large-scale fading tensors, and the interference law.

The interference seen by one base station after zero-forcing is a weighted
sum of independent exponentials whose rates are the cross-cell large-scale
gains.  `build_profile` groups those gains into distinct values with
multiplicities, the law (mu, tau) that every metric reads, and the law
checks itself when built.  The law is only its gains: the one reader of
its partial-fraction ("characteristic") weights, the paper's closed rate
sum, builds them itself in `closedform`.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemConfig",
    "LargeScaleFading",
    "CharacteristicExpansion",
    "build_profile",
    "characteristic_coefficients",
    "symmetric_fading",
    "save_fading_text",
    "load_fading_text",
]

# Diagonal entries closer than this (relatively) are the same eigenvalue.
CLUSTER_TOL = 1e-12


@dataclass(frozen=True)
class SystemConfig:
    """The (L, K, N, p_u) tuple: cells, users per cell, BS antennas, and the
    per-user transmit SNR in linear scale (noise power normalized to 1)."""

    num_cells: int
    users_per_cell: int
    antennas: int
    transmit_snr: float

    def __post_init__(self):
        if self.num_cells < 1 or self.users_per_cell < 1:
            raise ValueError("num_cells and users_per_cell must be >= 1")
        if self.antennas < self.users_per_cell:
            raise ValueError(
                f"zero-forcing needs antennas >= users_per_cell "
                f"({self.antennas} < {self.users_per_cell})")
        if not self.transmit_snr > 0:
            raise ValueError(f"transmit_snr must be positive (linear scale), "
                             f"got {self.transmit_snr}")

    @property
    def zf_shape(self):
        """Erlang shape of the post-ZF desired power: N - K + 1."""
        return self.antennas - self.users_per_cell + 1


@dataclass(frozen=True)
class LargeScaleFading:
    """beta[l, i, k]: gain from user k of cell i to base station l."""

    beta: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim != 3 or beta.shape[0] != beta.shape[1]:
            raise ValueError("beta must have shape (L, L, K)")
        if not np.all(beta > 0):
            raise ValueError("all large-scale gains must be positive")
        object.__setattr__(self, "beta", beta)

    @property
    def num_cells(self):
        return self.beta.shape[0]

    @property
    def users_per_cell(self):
        return self.beta.shape[2]

    def direct_gain(self, cell, user):
        """beta[cell, cell, user]; ValueError for a cell outside 0..L-1 or a
        user outside 0..K-1, where a negative index would silently read
        another link."""
        cells, _, users = self.beta.shape
        if not (0 <= cell < cells and 0 <= user < users):
            raise ValueError(f"(cell, user) = ({cell}, {user}) outside "
                             f"0..{cells - 1} x 0..{users - 1}")
        return float(self.beta[cell, cell, user])


def symmetric_fading(num_cells, users_per_cell, direct=1.0, cross=0.1):
    """All direct gains equal, all cross gains equal (Scenario-I geometry)."""
    beta = np.full((num_cells, num_cells, users_per_cell), float(cross))
    for l in range(num_cells):
        beta[l, l, :] = direct
    return LargeScaleFading(beta)


@dataclass(frozen=True)
class CharacteristicExpansion:
    """The law of the interference power Z: the distinct gains mu_m with
    multiplicities tau_m, E e^{sZ} = prod_m (1 - mu_m s)^-tau_m.

    It holds the gains and nothing else.  A law that is not of this form
    (gains not finite, positive and strictly decreasing with relative gaps
    above CLUSTER_TOL, multiplicities not positive integers, or lengths
    that differ) raises ValueError when built.
    """

    mu: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        mu, tau = np.array(self.mu, dtype=float), np.asarray(self.tau)
        if mu.ndim != 1 or tau.shape != mu.shape:
            raise ValueError(f"mu and tau must be 1-D and of one length, "
                             f"got shapes {mu.shape} and {tau.shape}")
        if not np.all(np.isfinite(mu) & (mu > 0)):
            raise ValueError(f"gains mu must be finite and positive, got {mu}")
        if not np.all(mu[:-1] - mu[1:] > CLUSTER_TOL * mu[:-1]):
            raise ValueError(f"gains mu must decrease strictly, with relative "
                             f"gaps above CLUSTER_TOL, got {mu}")
        if not np.all(np.isfinite(tau) & (tau >= 1) & (tau == np.floor(tau))):
            raise ValueError(f"multiplicities tau must be positive integers, "
                             f"got {tau}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "tau", tau.astype(int))

    @property
    def is_empty(self):
        return self.mu.size == 0

    def rates(self):
        """The underlying exponential means: each mu_m repeated tau_m times."""
        return np.repeat(self.mu, self.tau)

    @staticmethod
    def empty():
        return CharacteristicExpansion(np.array([]), np.array([], dtype=int))


def _check_dimensions(config, gains, names=("num_cells", "users_per_cell")):
    """Raise ValueError unless `config` and the gain tensor `gains` agree
    on each dimension in `names`: a tensor of another shape would broadcast
    or be sliced silently into wrong numbers."""
    want, have = ([getattr(x, a) for a in names] for x in (config, gains))
    if want != have:
        raise ValueError(f"config has {', '.join(names)} = {want} but the "
                         f"fading tensor has {have}")


def build_profile(config, fading, home_cell):
    """The interference law at base station `home_cell`: its cross-cell
    gains beta[l, i, k], i != l, as a CharacteristicExpansion of distinct
    gains mu (decreasing) with multiplicities tau; the empty law when
    L = 1.

    Gains whose relative difference is within CLUSTER_TOL are one
    eigenvalue; every other gain is kept exactly, however close.  A
    near-degenerate pair ill-conditions only the closed rate sum's
    partial-fraction weights, whose check then sends that sum to its
    fallback.  Raises ValueError when the (L, K) of `config` differ from
    the tensor's or `home_cell` is not one of its cells.
    """
    _check_dimensions(config, fading)
    cells = fading.num_cells
    if not 0 <= home_cell < cells:
        raise ValueError(f"home_cell {home_cell} outside 0..{cells - 1}")
    cross = np.delete(fading.beta[home_cell], home_cell, axis=0)
    mu, tau = [], []
    for v in np.sort(cross, axis=None)[::-1]:
        if mu and (mu[-1] - v) <= CLUSTER_TOL * mu[-1]:
            tau[-1] += 1
        else:
            mu.append(v)
            tau.append(1)
    return CharacteristicExpansion(np.array(mu), np.array(tau, dtype=int))


def characteristic_coefficients(law):
    """Return `law` unchanged: `build_profile` returns the checked law
    itself.  Kept only because benchmark/worker.py calls it and
    benchmark/tracing.py wraps it by name in `fading` and `cli`."""
    return law


# ---------------------------------------------------------------------------
# text-file interchange for fading tensors
# ---------------------------------------------------------------------------

def save_fading_text(fading, path):
    """Write a beta tensor as a plain-text table.

    Format: a header line "L K", then one line per (l, i) pair holding
    "l i beta_1 ... beta_K".  Lines starting with '#' are comments.
    """
    beta = fading.beta
    lcount, _, k = beta.shape
    with open(path, "w") as fh:
        fh.write("# large-scale fading tensor: gain from user k of cell i "
                 "to BS l\n")
        fh.write(f"{lcount} {k}\n")
        for l in range(lcount):
            for i in range(lcount):
                row = " ".join(f"{v:.17g}" for v in beta[l, i])
                fh.write(f"{l} {i} {row}\n")


def load_fading_text(path):
    with open(path) as fh:
        rows = [ln.strip() for ln in fh
                if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty fading file")
    try:
        lcount, k = (int(v) for v in rows[0].split())
    except ValueError as exc:
        raise ValueError(f"{path}: bad header line {rows[0]!r}") from exc
    if len(rows) != 1 + lcount * lcount:
        raise ValueError(f"{path}: expected {lcount * lcount} tensor rows, "
                         f"got {len(rows) - 1}")
    beta = np.zeros((lcount, lcount, k))
    seen = set()
    for ln in rows[1:]:
        parts = ln.split()
        try:
            l, i = int(parts[0]), int(parts[1])
            vals = [float(v) for v in parts[2:]]
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{path}: bad tensor row {ln!r}") from exc
        if not (0 <= l < lcount and 0 <= i < lcount):
            raise ValueError(f"{path}: row ({l},{i}) outside the "
                             f"{lcount}x{lcount} cell grid")
        if len(vals) != k:
            raise ValueError(f"{path}: row ({l},{i}) has {len(vals)} gains, "
                             f"expected {k}")
        beta[l, i, :] = vals
        seen.add((l, i))
    if len(seen) != lcount * lcount:
        raise ValueError(f"{path}: duplicate or missing (l, i) rows")
    return LargeScaleFading(beta)
