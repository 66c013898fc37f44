"""Fit the model to a generated campaign and check the chains converged.

Three independent chains from dispersed starts; the split scale reduction
factor near 1 plus a healthy effective sample size is the green light for
reading the posterior summaries.  Desk-scale iteration counts here; scale
up for production numbers.
"""

import numpy as np

from bugsize import ModelConfig, SamplerConfig, generate_campaign, run_all, summarize

config = ModelConfig(max_bugs=400, size_exponent=1.5)
campaign, truth = generate_campaign(
    config, missions=30, phases=8, true_bugs=100, t_range=(0, 50),
    rng=np.random.default_rng(8),
)
print(f"fitting: {campaign.detected_total} detections of {truth.true_bugs} real bugs")

chainset = run_all(campaign, config, SamplerConfig(chains=3, iterations=4000, seed=15))
report = summarize(chainset)

print()
print("=== posterior summaries (per-chain mean / sd / cv%) ===")
for name in ("inclusion_prob", "total_bugs", "remaining_size"):
    s = report[name]
    means = " ".join(f"{v:9.4f}" for v in s.chain_means)
    print(f"{name:<15} means {means}   pooled {s.pooled_mean:9.4f}")
    print(f"{'':15} sds   {' '.join(f'{v:9.4f}' for v in s.chain_sds)}")
    print(f"{'':15} cv%   {' '.join(f'{v:9.2f}' for v in s.chain_cvs)}")

print()
print("=== convergence ===")
print(f"{'parameter':<15} {'R-hat':>8} {'upper':>8} {'ESS':>10}")
for name in report:
    s = report[name]
    print(f"{name:<15} {s.rhat:8.4f} {s.rhat_upper:8.4f} {s.ess:10.1f}")

bugs = report["total_bugs"]
print()
print(f"truth: {truth.true_bugs} bugs; posterior mean {bugs.pooled_mean:.2f}, "
      f"95% CI [{bugs.ci_lower:.0f}, {bugs.ci_upper:.0f}]")
print(f"acceptance rates, chain 0: {chainset.acceptance[0]}")
