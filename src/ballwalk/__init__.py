"""Numerical laboratory for metastable ball-walk Markov chains.

Builds reversible grid discretizations of the ball walk attached to a Gibbs
density, labels the potential landscape (minima paired with separating
saddles and barrier heights), computes the exponentially small spectrum
with a deflated Lanczos solver, and compares measured gaps against the
closed-form rate predictions.

The package keeps this module import-light on purpose: the command line
entry point pins the BLAS thread count for bit-reproducible output before
numpy is first imported, which only works if importing :mod:`ballwalk`
itself pulls in nothing numerical.
"""

__version__ = "0.1.0"
