"""Demixing sparse signals from nonlinear observations.

Recovers two sparse components w, z from y = g(A(Phi w + Psi z)) + e via a
non-iterative thresholding estimator (oneshot), hard-threshold descent (dht),
soft-threshold descent (dst), and an l1-constrained baseline (nlcd_lasso),
with coherence/convexity diagnostics and a seeded Monte-Carlo harness.
"""

from . import diagnostics, harness, links, measurement, solvers, transforms
from .transforms import *
from .measurement import *
from .links import *
from .solvers import *
from .diagnostics import *
from .harness import *

__version__ = "0.1.0"

__all__ = [name for module in (transforms, measurement, links, solvers, diagnostics, harness)
           for name in module.__all__] + ["__version__"]
