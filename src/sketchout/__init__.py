"""Outlier-column identification from a few adaptive linear sketches.

The top level holds the documented entry points; the machinery behind
them is each module's ``__all__`` (``sketchout.solver``, ``sketchout.prox``,
``sketchout.sketching``, ...).
"""

from .imaging import saliency_map
from .pipeline import (
    MODES, AcosConfig, PipelineError, SupportEstimate, acos, detect, extract_support, sacos,
    sacos_missing,
)
from .solver import SolverDivergenceError
from .synth import bernoulli_mask, generate_instance, phase_grid

__all__ = ["MODES", "AcosConfig", "PipelineError", "SolverDivergenceError", "SupportEstimate",
           "acos", "bernoulli_mask", "detect", "extract_support", "generate_instance",
           "phase_grid", "sacos", "sacos_missing", "saliency_map"]
