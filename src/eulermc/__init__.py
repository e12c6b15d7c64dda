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
inside the function that calls it, and only the d = 1 quadrature of a
lower bound calls one (scipy.integrate).  The normals come from the
package's own inverse normal CDF (Cephes ndtri on fdlibm's log, in numpy
integer and IEEE arithmetic), and the parametrix FFTs from numpy.fft, so
every other run starts and draws without scipy.
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
