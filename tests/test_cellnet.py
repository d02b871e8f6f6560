import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mumimo import cellnet as cn
from mumimo import sinrdist as sd


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


def _reference_round(rng, count, radius, exclusion):
    """One rejection round of one cell: the accepted points among `count`
    candidates, in order."""
    cand = rng.uniform(-1.0, 1.0, size=(count, 2))
    cand[:, 0] *= math.sqrt(3.0) / 2.0 * radius
    cand[:, 1] *= radius
    inside = np.abs(cand[:, 1]) <= radius - np.abs(cand[:, 0]) / math.sqrt(3.0)
    far = np.hypot(cand[:, 0], cand[:, 1]) >= exclusion
    return cand[inside & far]


def _reference_hexagon(rng, count, radius, exclusion):
    """The rejection sampler of one cell, one round at a time."""
    pts = np.empty((0, 2))
    while len(pts) < count:
        pts = np.concatenate([pts, _reference_round(
            rng, 2 * (count - len(pts)) + 8, radius, exclusion)])
    return pts[:count]


def _reference_drop(sc, grid, rng):
    """drop_users as loops per cell: every cell's first round of 2K + 8
    candidates, then the rejection loop for the points that each short
    cell lacks, then the shadowing."""
    cells, k = grid.shape[0], sc.users_per_cell
    radius, exclusion = sc.cell_radius, sc.exclusion_radius
    first = [_reference_round(rng, 2 * k + 8, radius, exclusion)
             for _ in range(cells)]
    pos = np.empty((cells, k, 2))
    for c, accepted in enumerate(first):
        got = min(k, len(accepted))
        pos[c, :got] = accepted[:got]
        pos[c, got:] = _reference_hexagon(rng, k - got, radius, exclusion)
        pos[c] += grid[c]
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
      "interference_horizon": 2000.0}, {"one-draw", "refill"}),
    ({"reuse_factor": 7, "exclusion_radius": 900.0}, {"refill"}),
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
        seen.add("refill" if calls else "one-draw")
        pos, beta = _reference_drop(sc, grid, ref)
        assert np.array_equal(drop.positions, pos)
        assert np.array_equal(drop.beta_home, beta)
        assert rng.bit_generator.state == ref.bit_generator.state
    assert seen == paths
    assert np.array_equal(rng.random(4), ref.random(4))


def test_refilled_cells_keep_their_points_inside_the_hexagon():
    # at r_h = 900 m nearly every cell comes up short in its first round
    sc = cn.NetworkScenario(reuse_factor=7, exclusion_radius=900.0)
    grid = cn.build_hex_grid(sc)
    rngs = [np.random.default_rng(seed) for seed in (1, 2, 3)]
    pos, beta = cn._drop_block(sc, grid, 7, *rngs)
    assert pos.shape == (7, grid.shape[0], sc.users_per_cell, 2)
    rel = pos - grid[:, None, :]
    x, y = np.abs(rel[..., 0]), np.abs(rel[..., 1])
    assert (y <= sc.cell_radius - x / math.sqrt(3.0) + 1e-9).all()
    assert (np.hypot(x, y) >= sc.exclusion_radius).all()
    assert np.isfinite(beta).all() and (beta > 0).all()
    # the short cells drew refills; the first-round stream is one draw
    assert rngs[1].bit_generator.state \
        != np.random.default_rng(2).bit_generator.state


FIXED_DROP = (Path(__file__).resolve().parents[1] / "benchmark"
              / "fixed_drop.json")
REFERENCES = FIXED_DROP.with_name("references.json")


def _stored_drop():
    stored = json.loads(FIXED_DROP.read_text())
    return cn.UserDrop(*(np.array(stored[key]) for key in
                         ("bs_positions", "positions", "beta_home")))


def test_drop_users_reproduces_the_stored_fixed_drop():
    # every cell takes its points from the first rejection round here
    # (at least 12 of 28 accepted), so this is the drop stored before the
    # refill rule existed
    stored = json.loads(FIXED_DROP.read_text())
    sc = cn.NetworkScenario(reuse_factor=stored["reuse"],
                            antennas=stored["antennas"],
                            users_per_cell=stored["users"],
                            transmit_snr=stored["transmit_snr"])
    drop = cn.drop_users(sc, cn.build_hex_grid(sc),
                         np.random.default_rng(20120212))
    want = _stored_drop()
    for field in ("bs_positions", "positions", "beta_home"):
        assert np.array_equal(getattr(drop, field), getattr(want, field))


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


def test_net_rate_samples_check_the_drop_against_the_scenario():
    # a 10-user drop under a 5-user scenario gave the rates of its first 5
    sc = cn.NetworkScenario(reuse_factor=1, antennas=20)
    drop = cn.drop_users(sc, cn.build_hex_grid(sc), np.random.default_rng(5))
    fewer = cn.NetworkScenario(reuse_factor=1, antennas=20, users_per_cell=5)
    with pytest.raises(ValueError, match="users_per_cell"):
        cn.net_rate_samples(fewer, cn.OfdmParams(), drop,
                            np.random.default_rng(6))


def _net_rate_samples_reference(scenario, ofdm, drop, rng, samples, user):
    """`net_rate_samples` out of place: one gamma variate per user-sample,
    then -log of every interference uniform times its gain, summed."""
    r, p_u, nu = (scenario.reuse_factor, scenario.transmit_snr,
                  scenario.zf_shape)
    users = ([user] if user is not None
             else list(range(scenario.users_per_cell)))
    beta_d = drop.beta_home[0, users]
    x = rng.standard_gamma(nu, size=(samples, len(users))) * beta_d
    cross = drop.beta_home[1:].ravel()
    z = (-np.log(rng.random((samples, cross.size))) * cross).sum(axis=1)
    gamma = p_u * x / (p_u * z[:, None] + 1.0 / r)
    rate = (ofdm.bandwidth / r) * ofdm.overhead * np.log2(1.0 + gamma)
    return rate[:, 0] if user is not None else rate


@pytest.mark.parametrize("user", [None, 3])
@pytest.mark.parametrize("reuse", [1, 7])
def test_net_rate_samples_match_the_out_of_place_formula(reuse, user):
    sc = cn.NetworkScenario(reuse_factor=reuse, antennas=20)
    ofdm = cn.OfdmParams()
    drop = (_stored_drop() if reuse == 1 else
            cn.drop_users(sc, cn.build_hex_grid(sc),
                          np.random.default_rng(7)))
    # around and across the row-block edges: the same draws.  The dot
    # products sum in another order than `sum`, hence rtol; at small gamma
    # that can move 1 + gamma by one ulp, which moves the rate by `ulp`
    ulp = (ofdm.bandwidth / reuse) * ofdm.overhead * np.spacing(1.0) \
        / math.log(2.0)
    for samples in (1, sd._ROWS - 1, sd._ROWS, sd._ROWS + 1, 5000):
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = cn.net_rate_samples(sc, ofdm, drop, rng, samples=samples,
                                  user=user)
        want = _net_rate_samples_reference(sc, ofdm, drop, ref_rng, samples,
                                           user)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=ulp)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_net_rate_samples_match_the_fixed_drop_references():
    # exact per-user ergodic net rates of the stored drop (30 digits)
    want = np.array(json.loads(REFERENCES.read_text())["fixed-drop"],
                    dtype=float)
    sc = cn.NetworkScenario(reuse_factor=1, antennas=20)
    rates = cn.net_rate_samples(sc, cn.OfdmParams(), _stored_drop(),
                                np.random.default_rng(2012), samples=20_000)
    err = rates.std(axis=0, ddof=1) / math.sqrt(rates.shape[0])
    assert (np.abs(rates.mean(axis=0) - want) <= 5.0 * err).all()


@pytest.mark.parametrize("kwargs", [{"reuse_factor": 1},
                                    {"reuse_factor": 7},
                                    {"exclusion_radius": 600.0}])
def test_network_rates_do_not_depend_on_the_block_sizes(monkeypatch,
                                                         kwargs):
    sc = cn.NetworkScenario(antennas=20, **kwargs)
    ofdm = cn.OfdmParams()
    drop = cn.drop_users(sc, cn.build_hex_grid(sc), np.random.default_rng(3))

    def run():
        dist = cn.rate_distribution(sc, ofdm, 17, 300,
                                    np.random.default_rng(5))
        rates = cn.net_rate_samples(sc, ofdm, drop, np.random.default_rng(6),
                                    samples=300)
        return dist.samples, rates

    want = run()
    for rows in (1, 7, sd._ROWS):
        for drops in (1, 7, cn._DROPS):
            monkeypatch.setattr(sd, "_ROWS", rows)
            monkeypatch.setattr(cn, "_DROPS", drops)
            got = run()
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


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
    rng = np.random.default_rng(9)
    dist = cn.rate_distribution(sc, ofdm, 4, sd._ROWS + 3, rng)
    # one stream per quantity, spawned from entropy drawn from the caller's
    # generator, which advances past it
    ref = np.random.default_rng(9)
    cand, refill, shadow, signal, interference = (
        np.random.default_rng(seq) for seq in
        np.random.SeedSequence(ref.integers(2**63, size=2)).spawn(5))
    assert rng.bit_generator.state == ref.bit_generator.state
    grid = cn.build_hex_grid(sc)
    chunks = []
    for _ in range(4):
        beta = cn._drop_block(sc, grid, 1, cand, refill, shadow)[1][0]
        out = np.empty((sd._ROWS + 3, sc.users_per_cell))
        cn._drop_rates(sc, ofdm, beta[0], beta[1:].ravel(), signal,
                       interference, out)
        chunks.append(out.ravel())
    assert np.array_equal(dist.samples, np.sort(np.concatenate(chunks)))


def test_rate_distribution_drops_do_not_depend_on_the_samples(monkeypatch):
    sc = cn.NetworkScenario(reuse_factor=3, antennas=20)
    drawn = []
    block = cn._drop_block

    def recorded(*args):
        pos, beta = block(*args)
        drawn.append(beta)
        return pos, beta

    monkeypatch.setattr(cn, "_drop_block", recorded)
    gains = []
    for samples in (1, 40):
        drawn.clear()
        cn.rate_distribution(sc, cn.OfdmParams(), 12, samples,
                             np.random.default_rng(21))
        gains.append(np.concatenate(drawn))
    assert gains[0].shape[0] == 12
    assert np.array_equal(gains[0], gains[1])


def test_rate_distribution_memory_is_the_pooled_rates():
    # 200 x 100 x 10 rates are 1.6 MB, sorted in place; the rest is one
    # drop's block of uniforms and one block of geometry.  Traced peak
    # 2,690,640 bytes; 3,206,560 while a sorted copy was kept
    sc = cn.NetworkScenario(reuse_factor=1, antennas=100)
    tracemalloc.start()
    try:
        cn.rate_distribution(sc, cn.OfdmParams(), 200, 100,
                             np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_700_000


def test_rate_distribution_of_given_samples_leaves_them_unchanged():
    samples = np.array([[3.0, 1.0], [2.0, 0.5]])
    dist = cn.RateDistribution(samples)
    assert np.array_equal(samples, [[3.0, 1.0], [2.0, 0.5]])
    assert np.array_equal(dist.samples, [0.5, 1.0, 2.0, 3.0])


# The network stream, pinned: math.fsum of the values, then 6 evenly
# spaced entries (quantiles of the sorted pooled rates).  A change of any
# draw moves them far beyond rtol; they were recorded before the
# interference kernel moved into `sinrdist`, and did not move with it.
PINNED_STREAM = {
    "reuse 1": [70754515465.58269, 18697.368753272418, 288406.2616811836,
                491076.77494613285, 1437151.5519267828, 6082639.60314146,
                103238458.07900794],
    "reuse 7": [38673831201.33995, 19726.604712713026, 413066.0548214304,
                1129606.3794149056, 3526240.9724084307, 7754408.909705626,
                22307774.266772646],
    "stored drop": [15156992033.826927, 1929654.3780953668,
                    1897127.130862811, 1320729.3841357685,
                    1759969.2091883998, 2866878.1775122276,
                    1650067.4859174502],
}


def test_network_stream_is_pinned():
    def fingerprint(values):
        values = values.ravel()
        picks = np.linspace(0, values.size - 1, 6).astype(int)
        return [math.fsum(values)] + values[picks].tolist()

    ofdm = cn.OfdmParams()
    got = {}
    for reuse in (1, 7):
        sc = cn.NetworkScenario(reuse_factor=reuse, antennas=20)
        got[f"reuse {reuse}"] = fingerprint(cn.rate_distribution(
            sc, ofdm, 3, 300, np.random.default_rng(2101)).samples)
    sc = cn.NetworkScenario(reuse_factor=1, antennas=20)
    got["stored drop"] = fingerprint(cn.net_rate_samples(
        sc, ofdm, _stored_drop(), np.random.default_rng(2102), samples=300))
    for key, want in PINNED_STREAM.items():
        np.testing.assert_allclose(got[key], want, rtol=1e-12, err_msg=key)


@pytest.mark.parametrize("kwargs, name", [
    ({"user": -1}, "user"), ({"user": 10}, "user"),
    ({"samples": 0}, "samples"), ({"samples": -2}, "samples")])
def test_net_rate_samples_reject_bad_arguments(kwargs, name):
    # unchecked, user=-1 gave user K-1's rates, user=K raised IndexError and
    # samples=-2 failed inside numpy
    sc = cn.NetworkScenario(reuse_factor=7)
    drop = cn.drop_users(sc, cn.build_hex_grid(sc), np.random.default_rng(1))
    with pytest.raises(ValueError, match=name):
        cn.net_rate_samples(sc, cn.OfdmParams(), drop,
                            np.random.default_rng(2), **kwargs)


@pytest.mark.parametrize("drops, samples, name", [
    (0, 10, "num_drops"), (-1, 10, "num_drops"),
    (2, 0, "samples_per_drop"), (2, -3, "samples_per_drop")])
def test_rate_distribution_rejects_bad_counts(drops, samples, name):
    with pytest.raises(ValueError, match=name):
        cn.rate_distribution(cn.NetworkScenario(reuse_factor=7),
                             cn.OfdmParams(), drops, samples,
                             np.random.default_rng(2))


def test_likely95_increases_with_antennas():
    ofdm = cn.OfdmParams()
    vals = []
    for n in (20, 100):
        sc = cn.NetworkScenario(reuse_factor=3, antennas=n)
        vals.append(cn.rate_distribution(sc, ofdm, 60, 40,
                                         np.random.default_rng(8)).likely_95)
    assert vals[1] > vals[0]
