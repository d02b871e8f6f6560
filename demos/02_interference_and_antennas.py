"""Effect of the cross gain and of the antenna count on the exact sum rate.

Stronger interference costs less when the array is larger: going from
a = 0.1 to a = 0.5 loses ~75% of the sum rate at N = 10 but only ~30% at
N = 500 (the rate evaluator switches to its quadrature path for very large
N, where the alternating closed-form sums are no longer representable).
"""

from mumimo import (QualityLog, SystemConfig, build_profile, cell_sum_rate,
                    symmetric_fading)

K, L, SNR = 10, 4, 10.0
quality = QualityLog()

print(f"{'N':>4} " + " ".join(f"a={a:<5}" for a in (0.1, 0.3, 0.5)))
for n in (10, 20, 50, 100, 200, 500):
    row = []
    for a in (0.1, 0.3, 0.5):
        fading = symmetric_fading(L, K, 1.0, a)
        cfg = SystemConfig(L, K, n, SNR)
        expansion = build_profile(cfg, fading, 0)
        row.append(cell_sum_rate(cfg, fading, 0, expansion, quality=quality))
    print(f"{n:>4} " + " ".join(f"{v:7.2f}" for v in row))

print(f"\nsum rate lost when a: 0.1 -> 0.5")
for n in (10, 50, 500):
    vals = {}
    for a in (0.1, 0.5):
        fading = symmetric_fading(L, K, 1.0, a)
        cfg = SystemConfig(L, K, n, SNR)
        expansion = build_profile(cfg, fading, 0)
        vals[a] = cell_sum_rate(cfg, fading, 0, expansion, quality=quality)
    print(f"  N={n:>3}: {100 * (1 - vals[0.5] / vals[0.1]):5.1f}%")

if quality.tripped:
    print(f"\n({len(quality.events)} evaluations used the quadrature "
          f"fallback; expected for the largest N)")
