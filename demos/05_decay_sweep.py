"""Recovery study across detection-decay exponents, at desk scale.

For each exponent: generate a campaign with it, refit, compare posterior
means against the generating truth.  Bigger exponents make detection
sharper in size, so almost every real bug is caught and the bug count
pins itself to the detected count.
"""

import numpy as np

from bugsize import ModelConfig, SamplerConfig, generate_campaign, run_all, summarize

print(f"{'nu':>5} {'detected':>9} {'post N':>9} {'post psi':>9} "
      f"{'Rhat N':>7} {'true R':>7}")
for nu, seed in zip([1.0, 1.25, 1.5], [99, 100, 101]):
    config = ModelConfig(max_bugs=400, size_exponent=nu, dispersion=50.0)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
    campaign, truth = generate_campaign(config, 30, 8, 100, (0, 50), rng)
    scfg = SamplerConfig(iterations=3000, seed=seed, track=(0, 1, 398, 399))
    report = summarize(run_all(campaign, config, scfg))
    print(f"{nu:5.2f} {campaign.detected_total:9d} {report['total_bugs'].pooled_mean:9.3f} "
          f"{report['inclusion_prob'].pooled_mean:9.4f} {report['total_bugs'].rhat:7.3f} "
          f"{truth.remaining_size:7d}")

print()
print("tracked per-bug posteriors for the last setting (prior mean is 100):")
for prefix in ("mean_size[", "size["):
    for name in sorted(p for p in report if p.startswith(prefix)):
        print(f"  {name:<16} {report[name].pooled_mean:8.3f}")
