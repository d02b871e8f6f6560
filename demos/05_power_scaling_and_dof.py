"""Large-array laws: cutting the transmit power as 1/N, the deterministic
SIR at fixed N/K, and how many degrees of freedom reach a target fraction
of the ultimate rate.

With p_u = E_u / N the per-user rate converges to log2(1 + beta E_u); with
fixed p_u it grows without bound.  At fixed kappa = N/K the SIR converges
to beta (kappa - 1) / sum of mean cross gains, independent of power.
"""

from mumimo import (SystemConfig, TrialPlan, build_profile,
                    deterministic_sir, estimate_rate, kappa_to_antennas,
                    power_scaled_limit_rate, rate_exact, required_kappa,
                    symmetric_fading)

K, L, A, E_U = 10, 4, 0.1, 10.0
fading = symmetric_fading(L, K, 1.0, A)

print("per-user rate with p_u = E_u/N (converges) vs p_u = E_u (grows):")
print(f"{'N':>5} {'p_u=E_u/N':>10} {'p_u=E_u':>9}")
for n in (20, 50, 100, 200, 500):
    scaled, fixed = (
        rate_exact(cfg, fading, build_profile(cfg, fading, 0), 0, 0).value
        for cfg in (SystemConfig(L, K, n, E_U / n),
                    SystemConfig(L, K, n, E_U)))
    print(f"{n:>5} {scaled:>10.3f} {fixed:>9.3f}")
print(f"limit: {power_scaled_limit_rate(fading, 0, 0, E_U):>10.3f} "
      f"(= log2(1 + beta E_u))")

print("\ndeterministic SIR at fixed kappa (Monte Carlo converges to it):")
kappa = 10
bar = deterministic_sir(fading, 0, 0, kappa)
for n in (100, 400):
    k = n // kappa
    fad = symmetric_fading(L, k, 1.0, A)
    cfg = SystemConfig(L, k, n, 10.0)
    est = estimate_rate(cfg, fad, TrialPlan(400, base_seed=n))
    import math
    print(f"  N={n:>3}: mean rate {est.value:.3f} vs "
          f"log2(1+SIR)={math.log2(1 + bar):.3f}")

print("\ndegrees of freedom needed for eta x ultimate rate:")
print(f"{'R_inf':>6} " + " ".join(f"eta={e:<4}" for e in (0.8, 0.9)))
for r_inf in (1, 2, 3, 4, 5, 6):
    e_u = 2.0 ** r_inf - 1.0
    row = [required_kappa(fading, 0, 0, e_u, eta) for eta in (0.8, 0.9)]
    print(f"{r_inf:>6} " + " ".join(f"{v:7.2f}" for v in row)
          + f"   (N = {kappa_to_antennas(row[0], K)} at eta=0.8, K={K})")
