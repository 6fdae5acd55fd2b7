"""Multifractal analysis of EEG rhythms and band-split audio stimuli.

The package root exports the names of the README's Library example;
everything else is imported from its submodule (``mfsig.bands``,
``mfsig.pipeline``, ``mfsig.protocol``, ...).
"""

from .mfdfa import MfdfaConfig, run_mfdfa
from .spectrum import fit_spectrum, singularity_spectrum
from .synth import binomial_cascade, cascade_hurst_oracle

__version__ = "0.1.0"

__all__ = [
    "MfdfaConfig",
    "binomial_cascade",
    "cascade_hurst_oracle",
    "fit_spectrum",
    "run_mfdfa",
    "singularity_spectrum",
]
