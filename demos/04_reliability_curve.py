"""Release reliability from the bundled flight-software campaign.

Pr(remaining size < threshold) answers "how sure are we that what testing
missed is small".  The bundled 35-mission campaign has 61 detections; the
posterior typically adds a fraction of a hidden bug, so reliability at a
one-typical-bug threshold (around 100) lands in the mid-0.8s.
"""

import numpy as np

from bugsize import ModelConfig, SamplerConfig, reliability_curve, run_all, summarize
from bugsize.datasets import flight_software_campaign

campaign = flight_software_campaign()
print(f"campaign: {campaign.missions} missions x {campaign.phases} phases, "
      f"{campaign.detected_total} bugs detected, t_max={campaign.t_max}")

config = ModelConfig(max_bugs=400, size_exponent=1.5)
chainset = run_all(campaign, config, SamplerConfig(chains=3, iterations=6000, seed=29))
report = summarize(chainset)

bugs = report["total_bugs"]
print(f"total bugs: mean {bugs.pooled_mean:.3f}, "
      f"95% CI [{bugs.ci_lower:.0f}, {bugs.ci_upper:.0f}], R-hat {bugs.rhat:.3f}")
print(f"remaining size: mean {report['remaining_size'].pooled_mean:.1f}")

print()
print("=== reliability curve ===")
print(f"{'epsilon':>8} {'pooled':>10} {'per chain':>30}")
# each chain's estimate, for a stability check: its share of kept draws below epsilon
remaining = chainset.matrix("remaining_size")
for epsilon, pooled in reliability_curve(chainset, [100, 120, 140, 160, 180, 200]):
    below = np.count_nonzero(remaining < epsilon, axis=1) / remaining.shape[1]
    per_chain = " ".join(f"{p:.4f}" for p in below)
    print(f"{epsilon:8.0f} {pooled:10.5f}   {per_chain}")
