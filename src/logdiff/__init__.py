"""Numerical laboratory for the logarithmic fast diffusion equation on the disc.

The flow dU/dt = (log U)'' in the cylinder coordinate s = -log r models
instantaneously complete Ricci flow of rotationally symmetric conformal
metrics U (ds^2 + dth^2) on the punctured unit disc.  The package provides

  geometry   - grids, model solutions, curvature, area functionals
  cutoff     - flux function, C1 cut-off, Q integrals and tracked constants
  solver     - implicit backward-Euler stepping, one run or a batch
  estimates  - weighted-area functionals and inequality certificates
  config     - experiment configuration files
  snapshots  - state and trajectory persistence
  experiments- the headline experiment runners behind the CLI
"""

__version__ = "0.1.0"
