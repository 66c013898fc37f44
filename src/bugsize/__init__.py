"""Size-biased Bayesian estimation of residual software bugs.

Fits a detection model to phased testing-campaign counts in which a bug's
chance of ever being found grows with its eventual size (the number of
inputs that would ever traverse it).  A Metropolis-within-Gibbs sampler
over an augmented candidate list yields posteriors for the total bug
count, per-bug sizes, the total size of the bugs testing missed, and the
release reliability Pr(remaining size < threshold).

Each exported name loads its module the first time it is used (PEP 562),
so ``import bugsize`` and the command line import only what they run.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_HOMES = {
    "ChainSet": "sampler",
    "GroundTruth": "simulate",
    "ModelConfig": "model",
    "SamplerConfig": "sampler",
    "TestCampaign": "model",
    "cell_probabilities": "model",
    "detection_prob": "model",
    "generate_campaign": "simulate",
    "nb_log_pmf": "model",
    "read_campaign": "dataio",
    "reliability_curve": "reliability",
    "run_all": "sampler",
    "summarize": "diagnostics",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
