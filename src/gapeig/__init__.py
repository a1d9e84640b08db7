"""Eigenvalues in spectral gaps of block-symmetric operators.

The package computes eigenvalues inside the gap (lambda0, lambda1, ...) of a
symmetric block matrix A = [[p, c.T], [c, amm]] by solving the nonlinear
condition kappa_k(lambda) = 0, kappa_k the k-th eigenvalue of the Schur
complement at energy lambda, and machine-verifies the algebraic identities
the construction rests on.
"""

from .blockop import BlockOperator, GapData, assemble_block, lambda0
from .errors import (
    BadSplit,
    BracketFailure,
    ConfigParse,
    EigFailure,
    GapeigError,
    KOutOfRange,
    NoGap,
    NonFinite,
    NonSymmetric,
    NotPositiveDefinite,
    SingularSchur,
    SpecInvalid,
    ZeroVector,
)
from .minmax import (
    MinMaxResult,
    energy_of_vector,
    gap_spectrum,
    lambda1_certificate,
    lambda_k,
)
from .models import (
    ApsSpec,
    DiracSpec,
    RandomSpec,
    analytic_dirac_energy,
    aps_sigma_min,
    build_aps_cylinder,
    build_dirac_coulomb,
    hardy_check,
    random_gapped,
)
from .oracle import dense_spectrum, gap_eigs_bruteforce
from .schur import (
    SchurSystem,
    build_schur,
    mu_k,
    q_e_form,
)
from .verify import (
    VerificationReport,
    decomposition_residual,
    extension_consistency,
    inverse_formula_check,
    krein_gap_check,
)

__version__ = "0.1.0"

__all__ = [
    "BlockOperator", "GapData", "assemble_block", "lambda0",
    "dense_spectrum", "gap_eigs_bruteforce",
    "SchurSystem", "build_schur", "q_e_form", "mu_k",
    "MinMaxResult", "energy_of_vector", "lambda_k", "gap_spectrum",
    "lambda1_certificate",
    "VerificationReport", "decomposition_residual", "krein_gap_check",
    "extension_consistency", "inverse_formula_check",
    "DiracSpec", "ApsSpec", "RandomSpec", "build_dirac_coulomb",
    "analytic_dirac_energy", "build_aps_cylinder", "aps_sigma_min",
    "hardy_check", "random_gapped",
    "GapeigError", "NonFinite", "NonSymmetric", "BadSplit", "EigFailure",
    "NotPositiveDefinite", "KOutOfRange", "ZeroVector", "BracketFailure",
    "SingularSchur", "NoGap", "SpecInvalid", "ConfigParse",
    "__version__",
]
