"""Nonlocal Cahn-Hilliard-Navier-Stokes solver with singular potentials.

Library layout:

- potential: logarithmic free energy, regularized family, comparison lemmas
- kernel: interaction kernel, coefficient field a(x), restricted convolution
- grid_ops: cell-centered grids, no-flux operators, norms, Neumann inverse
- ch_step: convective Cahn-Hilliard time stepping (convex splitting)
- ns_step: incompressible flow stepping (MAC projection, variable viscosity)
- diagnostics: energy budgets, decay envelope, trajectory metric
- config: the config table (each key's default, type, domain and error
  code), presets, and the loading that checks every value against it
- cli: the coupled loop, the commands, their outputs, command line
"""

__version__ = "0.1.0"
