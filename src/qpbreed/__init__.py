"""Breeding of approximate grid (GKP qunaught) states from binomial code
states on a truncated Fock space, with exact post-selected probability
bookkeeping."""

from .fock import (
    BinomialParams,
    FockConfig,
    QunaughtParams,
    beamsplitter,
    binomial_state,
    displacement,
    qunaught_state,
    squeezed_vacuum,
)
from .homodyne import label_peaks, quadrature_basis
from .metrics import (
    effective_squeezing,
    fidelity,
    sgkp_db,
    wigner,
)
from .numerics import NumericalError
from .protocol import (
    Schedule,
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

