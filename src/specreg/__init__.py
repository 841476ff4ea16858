"""Adaptive spectral regularization with data-driven parameter selection.

Estimates a coefficient vector from noisy linear observations by damping
the eigencomponents of the least-squares solution with an ordered smoother
family, and picks the smoothing parameter by penalized empirical risk
minimization.  The penalty carries an adaptive term calibrated so that the
selector tracks the penalized oracle even when the noise level is unknown;
a seeded Monte Carlo harness validates that behavior.
"""

# each module's __all__ is the one list of the names the package exports
from .core import *
from .smoothers import *
from .penalty import *
from .selection import *
from .bench import *

__version__ = "0.1.0"
