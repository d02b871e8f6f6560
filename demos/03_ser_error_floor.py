"""4-PSK symbol error rate versus SNR: exact MGF integral, the cheap
three-evaluation approximation, the high-SNR floor, and semi-analytic
Monte Carlo.

The SER saturates at an interference-determined floor (diversity order
zero); more antennas push the floor down.
"""

from mumimo import (ModulationScheme, SystemConfig, TrialPlan,
                    build_profile, estimate_ser, ser_approx, ser_exact,
                    ser_high_snr, symmetric_fading)

K, L, A = 10, 4, 0.1
mod = ModulationScheme(4)
fading = symmetric_fading(L, K, 1.0, A)

for n in (15, 20):
    cfg_floor = SystemConfig(L, K, n, 1e6)
    expansion = build_profile(cfg_floor, fading, 0)
    floor = ser_high_snr(cfg_floor, fading, expansion, mod, 0, 0)
    print(f"\nN = {n}   (floor {floor:.3e})")
    print(f"{'SNR dB':>7} {'exact':>10} {'approx':>10} {'simulated':>10}")
    for snr_db in (0, 10, 20, 30, 40):
        cfg = SystemConfig(L, K, n, 10 ** (snr_db / 10))
        expansion = build_profile(cfg, fading, 0)
        exact = ser_exact(cfg, fading, expansion, mod, 0, 0)
        approx = ser_approx(cfg, fading, expansion, mod, 0, 0)
        sim = estimate_ser(cfg, fading, mod, TrialPlan(2000,
                                                       base_seed=snr_db))
        print(f"{snr_db:>7} {exact:>10.3e} {approx:>10.3e} "
              f"{sim.value:>10.3e}")

print("\nSER vs N at 10 dB (systematic improvement with the array size):")
for a in (0.1, 0.3):
    fading = symmetric_fading(L, K, 1.0, a)
    row = []
    for n in (10, 20, 40, 80):
        cfg = SystemConfig(L, K, n, 10.0)
        expansion = build_profile(cfg, fading, 0)
        row.append(ser_exact(cfg, fading, expansion, mod, 0, 0))
    print(f"  a={a}: " + "  ".join(f"{v:.2e}" for v in row))
