"""Simulation and analysis laboratory for crowd-sourced reputation mechanisms.

The package is organized in layers; each layer only imports from the ones
below it, except that the deviation audits of :mod:`replab.strategies` import
the engine of :mod:`replab.simulator` when they are called:

- :mod:`replab.numerics` -- special functions, root finding, quadrature
- :mod:`replab.core` -- agents, environments, mechanism specs, the utility formula
- :mod:`replab.mechanisms` -- batched reputation/tax rules mapping reports to outcomes
- :mod:`replab.strategies` -- best responses, equilibrium self-reports, band error,
  observation sampling, deviation audits
- :mod:`replab.simulator` -- the seeded Monte Carlo engine and its scenarios
- :mod:`replab.analysis` -- closed-form accuracy and participation results
- :mod:`replab.cli` -- the ``replab`` command line front end
"""

__version__ = "0.1.0"
