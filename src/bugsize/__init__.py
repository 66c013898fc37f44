"""Size-biased Bayesian estimation of residual software bugs.

Fits a detection model to phased testing-campaign counts in which a bug's
chance of ever being found grows with its eventual size (the number of
inputs that would ever traverse it).  A Metropolis-within-Gibbs sampler
over an augmented candidate list yields posteriors for the total bug
count, per-bug sizes, the total size of the bugs testing missed, and the
release reliability Pr(remaining size < threshold).
"""

from .dataio import read_campaign
from .diagnostics import summarize
from .model import ModelConfig, TestCampaign, cell_probabilities, detection_prob, nb_log_pmf
from .reliability import chain_reliability, reliability_curve
from .sampler import ChainSet, SamplerConfig, run_all
from .simulate import GroundTruth, generate_campaign

__version__ = "0.1.0"

__all__ = [
    "ChainSet",
    "GroundTruth",
    "ModelConfig",
    "SamplerConfig",
    "TestCampaign",
    "cell_probabilities",
    "chain_reliability",
    "detection_prob",
    "generate_campaign",
    "nb_log_pmf",
    "read_campaign",
    "reliability_curve",
    "run_all",
    "summarize",
]
