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

The package imports numpy and no scipy module.  The normals come from its
own inverse normal CDF (Cephes ndtri on fdlibm's log, in numpy integer and
IEEE arithmetic), the parametrix FFTs from numpy.fft, and the mean of |y|
in the lower bound from a closed-form integrand in pure Python.
"""

from .model import (
    Case,
    GrowthSpec,
    SdeModel,
    SchemeGrid,
    model_preset,
)
from .simulate import RngSpec, simulate_terminal

__all__ = [
    "Case",
    "GrowthSpec",
    "SdeModel",
    "SchemeGrid",
    "RngSpec",
    "model_preset",
    "simulate_terminal",
]

__version__ = "0.1.0"
