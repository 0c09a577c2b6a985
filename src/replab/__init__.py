"""Simulation and analysis laboratory for crowd-sourced reputation mechanisms.

The package is organized in layers; each layer only imports from the ones
above it in this list:

- :mod:`replab.numerics` -- special functions, root finding, quadrature
- :mod:`replab.core` -- agents, environments, mechanism specs, the utility formula
- :mod:`replab.mechanisms` -- batched reputation/tax rules mapping reports to outcomes
- :mod:`replab.strategies` -- best responses, equilibrium self-reports, band error
- :mod:`replab.simulator` -- the seeded Monte Carlo engine, its draw and its scenarios
- :mod:`replab.analysis` -- closed-form accuracy and participation results,
  deviation audits
- :mod:`replab.cli` -- the ``replab`` command line front end
"""

__version__ = "0.1.0"
