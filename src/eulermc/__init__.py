"""Euler-scheme Monte Carlo with non-asymptotic Gaussian concentration bounds.

Subpackages:
  model         SDE models, time grids, growth specs
  simulate      scheme steps, reproducible terminal batches
  gaussianref   Gaussian reference kernels, kinetic metric, tail constants
  concentration deviation-bound constants and the lower-bound assembly
  control       minimum-energy steering of the kinetic transport system
  parametrix    discrete parametrix density engine (scalar, non-degenerate)
  harness       experiment orchestration (configs in, CSV/JSON out)
  cli           command line front end

Module level imports stop at numpy.  Every scipy subpackage is imported
inside the function that calls it, because scipy.special alone more than
doubles the import time of the package: it loads with the first random
draw (ndtri), and commands that draw nothing, parametrix among them (its
FFTs come from numpy.fft), run without scipy.
"""

from .model import (
    Case,
    GaussParams,
    GrowthSpec,
    SdeModel,
    SchemeGrid,
    model_preset,
)
from .simulate import RngSpec, simulate_terminal

__all__ = [
    "Case",
    "GaussParams",
    "GrowthSpec",
    "SdeModel",
    "SchemeGrid",
    "RngSpec",
    "model_preset",
    "simulate_terminal",
]

__version__ = "0.1.0"
