"""Outlier-column identification from a few adaptive linear sketches.

The top level holds the documented entry points; every other name is
importable from its own module (``sketchout.solver``, ``sketchout.prox``,
``sketchout.sketching``, ...).
"""

from .imaging import saliency_map
from .pipeline import (
    MODES, AcosConfig, PipelineError, SupportEstimate, acos, detect, extract_support, sacos,
    sacos_missing,
)
from .solver import SolverDivergenceError
from .synth import bernoulli_mask, generate_instance, phase_grid
