"""weaktyp: error exponents of classical vs weak joint-typicality decoding.

A discrete-memoryless-channel simulator with two decoders evaluated on
shared randomness: the classical unique-candidate joint-typicality rule
and its weak relaxation that resolves candidate multiplicity by
clustering difference sequences.  Includes Monte Carlo estimation with
an exhaustive small-instance oracle, figure-style sweeps, and a CLI.
"""

__version__ = "0.1.0"

from .core import Codebook, Dmc, bsc, draw_message, generate_codebook, hamming_diff, sequence, transmit
from .decoders import (
    CandidateSet,
    Clustering,
    DecodeOutcome,
    cluster_resolve,
    find_candidates,
    kmeans,
    svm_resolve,
)
from .montecarlo import (
    ExponentPoint,
    PeEstimate,
    TrialConfig,
    TrialRecord,
    error_exponent,
    estimate_pe,
    estimate_pe_adaptive,
    exhaustive_pe,
    exponent,
    run_trial,
    run_trials,
)
from .rng import RngStream
from .typicality import JointContext, build_context, is_jointly_typical

__all__ = [
    "__version__",
    "Codebook",
    "Dmc",
    "bsc",
    "draw_message",
    "generate_codebook",
    "hamming_diff",
    "sequence",
    "transmit",
    "CandidateSet",
    "Clustering",
    "DecodeOutcome",
    "cluster_resolve",
    "find_candidates",
    "kmeans",
    "svm_resolve",
    "ExponentPoint",
    "PeEstimate",
    "TrialConfig",
    "TrialRecord",
    "error_exponent",
    "estimate_pe",
    "estimate_pe_adaptive",
    "exhaustive_pe",
    "exponent",
    "run_trial",
    "run_trials",
    "RngStream",
    "JointContext",
    "build_context",
    "is_jointly_typical",
]
