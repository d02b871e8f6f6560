"""Uplink performance analysis of multicell MU-MIMO with zero-forcing
receivers: exact closed-form ergodic rate, symbol error rate, and outage
probability, their large-antenna-array limits, a full channel-matrix Monte
Carlo oracle, and a hexagonal-network scenario with path loss, shadowing,
and frequency reuse.
"""

from . import specfun
from .fading import (CharacteristicExpansion, LargeScaleFading,
                     SystemConfig, build_profile,
                     characteristic_coefficients, load_fading_text,
                     save_fading_text, symmetric_fading)
from .sinrdist import (SinrModel, make_sinr_model, mgf_sinr,
                       mgf_sinr_high_snr, sample_sinr, sinr_cdf_quadrature)
from .closedform import (ModulationScheme, QualityLog, RateResult,
                         cell_sum_rate, log_outage_exact, outage_exact,
                         outage_small_threshold, rate_by_quadrature,
                         rate_exact, rate_lower_bound, ser_approx,
                         ser_exact, ser_high_snr)
from .asymptotic import (deterministic_sir, kappa_to_antennas,
                         power_scaled_fixed_ratio_rate,
                         power_scaled_fixed_ratio_sinr,
                         power_scaled_limit_rate, required_kappa)
from .montecarlo import (ChannelRealization, Estimate, RankDeficiencyError,
                         TrialPlan, estimate_outage, estimate_rate,
                         estimate_ser, sample_channels, sinr_trials,
                         trial_rng, zf_sinr)
from .cellnet import (NetworkScenario, OfdmParams, RateDistribution,
                      UserDrop, build_hex_grid, drop_users,
                      net_rate_samples, rate_distribution)

__version__ = "0.1.0"
