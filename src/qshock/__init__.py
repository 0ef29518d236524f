"""Non-perturbative shockwave simulator for delta-coupled two-level emitters.

A line of pre-timed emitters, each briefly coupled to a massless scalar
field through a uniform-ball smearing, radiates a coherent shockwave.
This package computes the resulting energy-density field, a receiver's
excitation probability, the classical channel capacity of the link, and
optima over the receiver coupling and the emitters' relative phases --
all exactly (no perturbative truncation), with an independent
truncated-Fock oracle validating the operator algebra.
"""

from .kernels import KernelSet, KernelValue, QuadratureError, sphere_form_factor
from .scenario import (Detector, EmitterState, Scenario, SchemaError,
                       ValidationError, classical_mixture, load_scenario,
                       load_scenario_file, scenario_fingerprint, w_state)
from .emitters import pair_correlation, product_expectation
from .observables import (ChannelPoint, binary_entropy, channel_capacity, channel_point,
                          energy_density, excitation_probability)
from .mapper import (GridMap, PhaseOptimum, SweepCurve, capacity_map,
                     coupling_sweep, diff_map, energy_map, optimize_phases,
                     read_grid_csv, write_grid_csv, write_sweep_csv)
from .oracle import (ModeSet, OracleBudgetError, discrete_energy,
                     discrete_probability, exact_energy, exact_probability,
                     run_standard_comparisons)

__version__ = "0.1.0"
