"""Breeding of approximate grid (GKP qunaught) states from binomial code
states on a truncated Fock space, with exact post-selected probability
bookkeeping."""

from .fock import (
    BinomialParams,
    FockConfig,
    QunaughtParams,
    annihilation,
    beamsplitter,
    binomial_state,
    displacement,
    qunaught_state,
    squeezed_vacuum,
)
from .homodyne import (
    OutcomeDistribution,
    QuadratureBasis,
    label_peaks,
    quadrature_basis,
)
from .metrics import (
    WignerGrid,
    effective_squeezing,
    fidelity,
    position_density,
    sgkp_db,
    wigner,
)
from .numerics import NumericalError
from .protocol import (
    BranchResult,
    Schedule,
    SweepRecord,
    breed_step,
    chain_prefixes,
    default_input,
    default_target,
    effective_squeezing_curve,
    enumerate_two_iterations,
    probability_fidelity_curve,
    run_chain,
    sign_aggregated,
    sweep_binomial_inputs,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialParams",
    "BranchResult",
    "FockConfig",
    "NumericalError",
    "OutcomeDistribution",
    "QuadratureBasis",
    "QunaughtParams",
    "Schedule",
    "SweepRecord",
    "WignerGrid",
    "annihilation",
    "beamsplitter",
    "binomial_state",
    "breed_step",
    "chain_prefixes",
    "default_input",
    "default_target",
    "displacement",
    "effective_squeezing",
    "effective_squeezing_curve",
    "enumerate_two_iterations",
    "fidelity",
    "label_peaks",
    "position_density",
    "probability_fidelity_curve",
    "quadrature_basis",
    "qunaught_state",
    "run_chain",
    "sgkp_db",
    "sign_aggregated",
    "squeezed_vacuum",
    "sweep_binomial_inputs",
    "wigner",
]
