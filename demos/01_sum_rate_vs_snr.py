"""Sum rate per cell versus SNR: exact closed form, Jensen lower bound, and
matrix Monte Carlo, for a symmetric 4-cell network (K = 10, cross gain 0.1).

The three curves coincide: the closed form is exact, the bound is tight
already for N around 20, and at high SNR every curve saturates because
interference scales with the useful signal.
"""

import numpy as np

from mumimo import (SystemConfig, TrialPlan, build_profile, cell_sum_rate,
                    estimate_rate, rate_lower_bound, symmetric_fading)

K, L, A = 10, 4, 0.1
fading = symmetric_fading(L, K, direct=1.0, cross=A)

print(f"{'SNR dB':>7} {'N':>4} {'exact':>8} {'bound':>8} "
      f"{'simulated':>10} {'+-':>7}")
for n in (10, 40, 100):
    for snr_db in range(-10, 31, 10):
        cfg = SystemConfig(L, K, n, 10 ** (snr_db / 10))
        expansion = build_profile(cfg, fading, 0)
        exact = cell_sum_rate(cfg, fading, 0, expansion)
        bound = K * rate_lower_bound(cfg, fading, expansion, 0, 0).value
        sim = estimate_rate(cfg, fading, TrialPlan(2000, base_seed=snr_db))
        print(f"{snr_db:>7} {n:>4} {exact:>8.3f} {bound:>8.3f} "
              f"{K * sim.value:>10.3f} {K * 2 * sim.std_error:>7.3f}")
    print()

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None
if plt is not None:
    snrs = np.arange(-10, 31, 2)
    for n in (10, 40, 100):
        rates = []
        for snr_db in snrs:
            cfg = SystemConfig(L, K, n, 10 ** (snr_db / 10))
            expansion = build_profile(cfg, fading, 0)
            rates.append(cell_sum_rate(cfg, fading, 0, expansion))
        plt.plot(snrs, rates, label=f"N = {n}")
    plt.xlabel("SNR [dB]")
    plt.ylabel("sum rate [bits/s/Hz]")
    plt.legend()
    plt.title("ZF uplink sum rate per cell (L=4, K=10, a=0.1)")
    plt.savefig("sum_rate_vs_snr.png", dpi=120)
    print("saved sum_rate_vs_snr.png")
