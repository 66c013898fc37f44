"""Size-biased Bayesian estimation of residual software bugs.

Fits a detection model to phased testing-campaign counts in which a bug's
chance of ever being found grows with its eventual size (the number of
inputs that would ever traverse it).  A Metropolis-within-Gibbs sampler
over an augmented candidate list yields posteriors for the total bug
count, per-bug sizes, the total size of the bugs testing missed, and the
release reliability Pr(remaining size < threshold).
"""

from .dataio import (
    build_report,
    read_campaign,
    read_draws,
    write_campaign,
    write_draws,
    write_report,
)
from .diagnostics import (
    effective_sample_size,
    split_rhat,
    summarize,
    trace_export,
    worst_rhat,
)
from .model import (
    AugmentedState,
    ModelConfig,
    TestCampaign,
    cell_probabilities,
    detection_prob,
    nb_log_pmf,
)
from .reliability import chain_reliability, reliability_at, reliability_curve
from .sampler import (
    ChainSet,
    SamplerConfig,
    draw_inclusion_prob,
    run_all,
    run_chain,
    update_inclusion,
    update_mean_sizes,
    update_sizes,
)
from .simulate import GroundTruth, generate_campaign

__version__ = "0.1.0"

__all__ = [
    "AugmentedState",
    "ChainSet",
    "GroundTruth",
    "ModelConfig",
    "SamplerConfig",
    "TestCampaign",
    "build_report",
    "cell_probabilities",
    "chain_reliability",
    "detection_prob",
    "draw_inclusion_prob",
    "effective_sample_size",
    "generate_campaign",
    "nb_log_pmf",
    "read_campaign",
    "read_draws",
    "reliability_at",
    "reliability_curve",
    "run_all",
    "run_chain",
    "split_rhat",
    "summarize",
    "trace_export",
    "update_inclusion",
    "update_mean_sizes",
    "update_sizes",
    "worst_rhat",
    "write_campaign",
    "write_draws",
    "write_report",
]
