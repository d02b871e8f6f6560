"""Test-only reference helpers: the Erlang density of the desired power,
which the defining integrals of the rate and outage oracles weigh by, and the
two-sample Kolmogorov-Smirnov statistic of the distributional-equality
checks.  No program path uses them."""

import math

import numpy as np


def pdf_x(dist, x):
    """Erlang density of the desired power."""
    s, b = dist.shape, dist.scale
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    with np.errstate(divide="ignore"):
        out[pos] = np.exp((s - 1) * np.log(x[pos] / b) - x[pos] / b
                          - math.lgamma(s)) / b
    if s == 1:
        out = np.where(x == 0, 1.0 / b, out)
    return float(out) if out.ndim == 0 else out


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
