import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mumimo import cellnet as cn


def test_scenario_validation():
    with pytest.raises(ValueError):
        cn.NetworkScenario(reuse_factor=4)
    with pytest.raises(ValueError):
        cn.NetworkScenario(exclusion_radius=2000.0)
    with pytest.raises(ValueError):
        cn.NetworkScenario(path_loss_exponent=1.5)
    with pytest.raises(ValueError):
        cn.NetworkScenario(antennas=5, users_per_cell=10)
    with pytest.raises(ValueError):
        cn.OfdmParams(useful_duration=1e-3)


@pytest.mark.parametrize("p_u", [math.nan, 0.0, -1.0, math.inf])
def test_scenario_rejects_a_transmit_snr_that_is_not_positive_and_finite(
        p_u):
    # unchecked, NaN, -1 and inf gave NaN rates and 0 gave rates of 0
    with pytest.raises(ValueError, match="transmit_snr"):
        cn.NetworkScenario(transmit_snr=p_u)


@pytest.mark.parametrize("field, value", [
    ("cell_radius", math.nan), ("exclusion_radius", math.nan),
    ("interference_horizon", math.inf), ("interference_horizon", math.nan),
    ("path_loss_exponent", math.inf), ("path_loss_exponent", math.nan),
    ("shadow_sigma_db", math.nan), ("shadow_sigma_db", math.inf),
    ("shadow_sigma_db", -1.0)])
def test_scenario_rejects_non_finite_geometry_and_shadowing(field, value):
    # unchecked, an infinite horizon overflowed the grid build and a NaN
    # shadowing spread gave NaN rates
    with pytest.raises(ValueError):
        cn.NetworkScenario(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("bandwidth", 0.0), ("bandwidth", -1.0), ("bandwidth", math.inf),
    ("bandwidth", math.nan), ("symbol_duration", math.inf),
    ("symbol_duration", math.nan), ("useful_duration", math.nan)])
def test_ofdm_rejects_non_finite_or_non_positive_values(field, value):
    # unchecked, a bandwidth of -1 gave negative rates
    with pytest.raises(ValueError):
        cn.OfdmParams(**{field: value})


def test_ofdm_overhead_value():
    np.testing.assert_allclose(cn.OfdmParams().overhead, 66.7 / 71.4,
                               rtol=1e-12)


@pytest.mark.parametrize("reuse, distance", [
    (1, math.sqrt(3) * 1000.0),
    (3, 3000.0),
    (7, math.sqrt(21) * 1000.0),
])
def test_cochannel_distance_is_sqrt_3r_radius(reuse, distance):
    grid = cn.build_hex_grid(cn.NetworkScenario(reuse_factor=reuse))
    np.testing.assert_allclose(np.hypot(*grid[1]), distance, rtol=1e-12)
    assert np.hypot(*grid[0]) == 0.0  # home first


def test_reuse_partition_counts_and_nesting():
    grids = {r: cn.build_hex_grid(cn.NetworkScenario(reuse_factor=r))
             for r in (1, 3, 7)}
    assert grids[7].shape[0] < grids[3].shape[0] < grids[1].shape[0]
    # co-channel sets of r = 3, 7 are sublattices of the full grid
    full = {tuple(np.round(p, 6)) for p in grids[1]}
    for r in (3, 7):
        assert {tuple(np.round(p, 6)) for p in grids[r]} <= full
    # everything stays within the horizon
    for grid in grids.values():
        assert np.hypot(grid[:, 0], grid[:, 1]).max() <= 8000.0


def test_uniform_hexagon_sampling():
    rng = np.random.default_rng(3)
    pts = cn._uniform_hexagon(rng, 5000, 1000.0, 100.0)
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert r.min() >= 100.0
    assert np.abs(pts[:, 0]).max() <= math.sqrt(3) / 2 * 1000.0 + 1e-9
    inside = np.abs(pts[:, 1]) <= 1000.0 - np.abs(pts[:, 0]) / math.sqrt(3)
    assert inside.all()
    # corners get filled: some points beyond the inscribed circle
    assert (r > math.sqrt(3) / 2 * 1000.0).any()


def _reference_hexagon(rng, count, radius, exclusion):
    """The rejection sampler of one cell, one round at a time."""
    half_w = math.sqrt(3.0) / 2.0 * radius
    pts = np.empty((count, 2))
    got = 0
    while got < count:
        cand = rng.uniform(-1.0, 1.0, size=(2 * (count - got) + 8, 2))
        cand[:, 0] *= half_w
        cand[:, 1] *= radius
        inside = (np.abs(cand[:, 1])
                  <= radius - np.abs(cand[:, 0]) / math.sqrt(3.0))
        far = np.hypot(cand[:, 0], cand[:, 1]) >= exclusion
        cand = cand[inside & far]
        take = min(count - got, cand.shape[0])
        pts[got:got + take] = cand[:take]
        got += take
    return pts


def _reference_drop(sc, grid, rng):
    """drop_users with one rejection loop per cell, in cell order."""
    cells, k = grid.shape[0], sc.users_per_cell
    pos = np.empty((cells, k, 2))
    for c in range(cells):
        pos[c] = grid[c] + _reference_hexagon(rng, k, sc.cell_radius,
                                              sc.exclusion_radius)
    d_home = np.hypot(pos[..., 0] - grid[0, 0], pos[..., 1] - grid[0, 1])
    shadow = 10.0 ** (sc.shadow_sigma_db * rng.standard_normal((cells, k))
                      / 10.0)
    beta = shadow / (d_home / sc.exclusion_radius) ** sc.path_loss_exponent
    return pos, beta


@pytest.mark.parametrize("kwargs, paths", [
    ({"reuse_factor": 1}, {"one-draw"}),
    ({"reuse_factor": 3}, {"one-draw"}),
    ({"reuse_factor": 7}, {"one-draw"}),
    ({"reuse_factor": 1, "exclusion_radius": 600.0,
      "interference_horizon": 2000.0}, {"one-draw", "per-cell"}),
    ({"reuse_factor": 7, "exclusion_radius": 900.0}, {"per-cell"}),
])
def test_drop_users_matches_per_cell_loop_bit_for_bit(monkeypatch, kwargs,
                                                      paths):
    sc = cn.NetworkScenario(**kwargs)
    grid = cn.build_hex_grid(sc)
    calls = []
    per_cell = cn._uniform_hexagon

    def counted(*args):
        calls.append(1)
        return per_cell(*args)

    monkeypatch.setattr(cn, "_uniform_hexagon", counted)
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    seen = set()
    for _ in range(20):
        calls.clear()
        drop = cn.drop_users(sc, grid, rng)
        seen.add("per-cell" if calls else "one-draw")
        pos, beta = _reference_drop(sc, grid, ref)
        assert np.array_equal(drop.positions, pos)
        assert np.array_equal(drop.beta_home, beta)
        assert rng.bit_generator.state == ref.bit_generator.state
    assert seen == paths
    assert np.array_equal(rng.random(4), ref.random(4))


def test_drop_users_gain_model():
    sc = cn.NetworkScenario()
    grid = cn.build_hex_grid(sc)
    rng = np.random.default_rng(1)
    shadows = []
    for _ in range(300):
        drop = cn.drop_users(sc, grid, rng)
        dist = np.hypot(drop.positions[..., 0] - grid[0, 0],
                        drop.positions[..., 1] - grid[0, 1])
        # invert the path-loss part; what remains is the shadow in dB
        shadows.append(10 * np.log10(drop.beta_home * (dist / 100.0) ** 3.8))
    shadows = np.concatenate([s.ravel() for s in shadows])
    assert abs(shadows.mean()) < 0.1
    np.testing.assert_allclose(shadows.std(), 8.0, rtol=0.02)


def test_beta_distance_scaling():
    # mean beta ratio between 200 m and 400 m ~ 2^3.8 (pure path loss; the
    # log-normal factor has equal mean at both distances)
    ratio = 2.0 ** 3.8
    sc = cn.NetworkScenario()
    rng = np.random.default_rng(7)
    z = 10 ** (8.0 * rng.standard_normal(200_000) / 10.0)
    b200 = z[:100_000] / (200.0 / 100.0) ** 3.8
    b400 = z[100_000:] / (400.0 / 100.0) ** 3.8
    np.testing.assert_allclose(b200.mean() / b400.mean(), ratio, rtol=0.1)


def test_net_rate_reuse_one_reduces_to_plain_rate():
    sc = cn.NetworkScenario(reuse_factor=1, antennas=20)
    ofdm = cn.OfdmParams()
    grid = cn.build_hex_grid(sc)
    drop = cn.drop_users(sc, grid, np.random.default_rng(5))
    rates = cn.net_rate_samples(sc, ofdm, drop, np.random.default_rng(6),
                                samples=4)
    assert rates.shape == (4, 10)
    assert (rates >= 0).all()
    assert rates.max() <= ofdm.bandwidth * ofdm.overhead \
        * math.log2(1 + 1e18)


def _net_rate_samples_reference(scenario, ofdm, drop, rng, samples, user):
    """`net_rate_samples` as first written: -log of the uniforms, then
    products and sums out of place."""
    r, p_u, nu = (scenario.reuse_factor, scenario.transmit_snr,
                  scenario.zf_shape)
    users = ([user] if user is not None
             else list(range(scenario.users_per_cell)))
    beta_d = drop.beta_home[0, users]
    x = -np.log(rng.random((samples, len(users), nu))).sum(axis=2) * beta_d
    cross = drop.beta_home[1:].ravel()
    z = (-np.log(rng.random((samples, cross.size))) * cross).sum(axis=1)
    gamma = p_u * x / (p_u * z[:, None] + 1.0 / r)
    rate = (ofdm.bandwidth / r) * ofdm.overhead * np.log2(1.0 + gamma)
    return rate[:, 0] if user is not None else rate


FIXED_DROP = (Path(__file__).resolve().parents[1] / "benchmark"
              / "fixed_drop.json")


def _stored_drop():
    stored = json.loads(FIXED_DROP.read_text())
    return cn.UserDrop(*(np.array(stored[key]) for key in
                         ("bs_positions", "positions", "beta_home")))


@pytest.mark.parametrize("user", [None, 3])
@pytest.mark.parametrize("reuse", [1, 7])
def test_net_rate_samples_match_the_out_of_place_formula(reuse, user):
    sc = cn.NetworkScenario(reuse_factor=reuse, antennas=20)
    ofdm = cn.OfdmParams()
    drop = (_stored_drop() if reuse == 1 else
            cn.drop_users(sc, cn.build_hex_grid(sc),
                          np.random.default_rng(7)))
    # around and across the row-block edges: one stream, the same bits
    for samples in (1, cn._ROWS - 1, cn._ROWS, cn._ROWS + 1, 5000):
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = cn.net_rate_samples(sc, ofdm, drop, rng, samples=samples,
                                  user=user)
        want = _net_rate_samples_reference(sc, ofdm, drop, ref_rng, samples,
                                           user)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_net_rate_samples_hold_one_block_of_uniforms():
    # all 5000 rows of the 840 co-channel uniforms at once peak at 40 MB
    sc = cn.NetworkScenario(reuse_factor=1, antennas=20)
    drop = _stored_drop()
    tracemalloc.start()
    try:
        cn.net_rate_samples(sc, cn.OfdmParams(), drop,
                            np.random.default_rng(4), samples=5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_net_rate_increases_with_power():
    ofdm = cn.OfdmParams()
    vals = []
    for p_u in (1.0, 10.0, 100.0):
        sc = cn.NetworkScenario(reuse_factor=1, antennas=20,
                                transmit_snr=p_u)
        grid = cn.build_hex_grid(sc)
        drop = cn.drop_users(sc, grid, np.random.default_rng(11))
        r = cn.net_rate_samples(sc, ofdm, drop, np.random.default_rng(12),
                                samples=3000)
        vals.append(r.mean())
    assert vals[0] < vals[1] < vals[2]


def test_interference_stochastically_smaller_for_larger_reuse():
    # same geometry seed: the reuse-7 co-channel set is a subset, so the
    # aggregate interference must be smaller drop-by-drop
    ofdm = cn.OfdmParams()
    totals = {}
    for r in (1, 7):
        sc = cn.NetworkScenario(reuse_factor=r, antennas=20)
        grid = cn.build_hex_grid(sc)
        drop = cn.drop_users(sc, grid, np.random.default_rng(31))
        totals[r] = drop.beta_home[1:].sum()
    assert totals[7] < totals[1]


def test_rate_distribution_is_a_distribution():
    sc = cn.NetworkScenario(reuse_factor=3, antennas=20)
    dist = cn.rate_distribution(sc, cn.OfdmParams(), 10, 20,
                                np.random.default_rng(2))
    xs = np.linspace(0, dist.samples.max() * 1.1, 50)
    cdf = dist.cdf(xs)
    assert (np.diff(cdf) >= 0).all()
    assert cdf[0] >= 0.0 and cdf[-1] == 1.0
    assert dist.likely_95 <= dist.percentile(50.0) <= dist.samples.max()


def test_rate_distribution_pools_the_per_drop_samples():
    sc = cn.NetworkScenario(reuse_factor=7, antennas=20)
    ofdm = cn.OfdmParams()
    dist = cn.rate_distribution(sc, ofdm, 4, cn._ROWS + 3,
                                np.random.default_rng(9))
    rng = np.random.default_rng(9)
    grid = cn.build_hex_grid(sc)
    chunks = []
    for _ in range(4):
        drop = cn.drop_users(sc, grid, rng)
        chunks.append(cn.net_rate_samples(sc, ofdm, drop, rng,
                                          samples=cn._ROWS + 3).ravel())
    assert np.array_equal(dist.samples, np.sort(np.concatenate(chunks)))


def test_likely95_increases_with_antennas():
    ofdm = cn.OfdmParams()
    vals = []
    for n in (20, 100):
        sc = cn.NetworkScenario(reuse_factor=3, antennas=n)
        vals.append(cn.rate_distribution(sc, ofdm, 60, 40,
                                         np.random.default_rng(8)).likely_95)
    assert vals[1] > vals[0]
