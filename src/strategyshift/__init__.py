"""First-exceedance analytics for threshold strategy matrices.

Two compound marked Poisson decision parameters are observed at the epochs of
a delayed renewal process; the package evaluates the closed-form exit-index
and shift-time results by discrete operational calculus, classifies positions
in threshold strategy matrices (generic 2x2 and growth-share), and verifies
every verifiable closed form against an independent Monte Carlo oracle.

The package top level exports only ``__version__``; import names from their
submodules (``strategyshift.matrix``, ``strategyshift.analytics``, ...).
Importing the package, ``config`` or ``matrix`` loads no numpy.
"""

__version__ = "0.1.0"
