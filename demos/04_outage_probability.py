"""Outage probability: exact closed form against the empirical CDF of the
post-ZF SINR, plus the SNR-independent small-threshold asymptote.
"""

import numpy as np

from mumimo import (SystemConfig, build_profile, make_sinr_model,
                    outage_exact, outage_small_threshold, sample_sinr,
                    symmetric_fading)

K, L, A, N = 10, 4, 0.1, 20
fading = symmetric_fading(L, K, 1.0, A)
cfg = SystemConfig(L, K, N, 10.0)
expansion = build_profile(cfg, fading, 0)
model = make_sinr_model(cfg, fading, 0, 0, expansion=expansion)
draws = sample_sinr(model, np.random.default_rng(1), size=200_000)

print(f"{'gamma_th':>9} {'exact':>10} {'empirical':>10} {'asymptote':>10}")
for gth in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0):
    exact = outage_exact(cfg, fading, expansion, 0, 0, gth)
    emp = float((draws <= gth).mean())
    asym = outage_small_threshold(cfg, fading, expansion, 0, 0, gth)
    print(f"{gth:>9.1f} {exact:>10.5f} {emp:>10.5f} {asym:>10.5f}")

print("\nThe asymptote equals the outage at very high SNR (floor):")
for gth in (1.0, 2.0):
    hi = SystemConfig(L, K, N, 1e8)
    exact_hi = outage_exact(hi, fading, expansion, 0, 0, gth)
    asym = outage_small_threshold(cfg, fading, expansion, 0, 0, gth)
    print(f"  gamma_th={gth}: outage@80dB {exact_hi:.6f}  "
          f"asymptote {asym:.6f}")
