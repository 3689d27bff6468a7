"""qetlab: a numerical laboratory for quantum energy teleportation with the EM field.

Evaluates the discrete-variable (spin-probe) and continuous-variable
(oscillator-probe) teleportation protocols for the 1+3 dimensional
electromagnetic field end to end: input energy, optimal local operation,
teleported energy, damping factors, energy-density dynamics, and scaling laws,
with every closed-form result cross-checked against independent brute-force
oracles.  Natural units c = hbar = 1 throughout.
"""

__version__ = "0.1.0"

from .errors import ToleranceFailure, ValidationError
from .fields import CurlGaussian, RadialWindow
from .spectral import (
    IntegralResult,
    brute_force_overlap_oracle,
    commutator_residual,
    overlap_kernel,
    weighted_spectral_integral,
)
from .protocols import (
    Outcome,
    PairInvariants,
    ProtocolConfig,
    crossover_amplitude,
    damping_oscillator,
    damping_spin,
    separation_scaling_fit,
    teleport,
)
from .dynamics import DensityFrame, FrameGrid, energy_density_frame
from .negative_energy import (
    DiscreteModeSet,
    GaussianPhotonMode,
    PlaneWaveMode,
    fock_matrix_elements,
    min_energy_density,
)
from .scenario import Scenario, parse_scenario
from .results import emit_records, run_scenario
