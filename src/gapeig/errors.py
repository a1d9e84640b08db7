"""Exception types raised across the package."""


class GapeigError(Exception):
    """Base class for all errors raised by this package."""


class NonSymmetric(GapeigError):
    """Input matrix fails the relative symmetry check."""


class NonFinite(GapeigError):
    """A block or vector holds a NaN or infinite entry, or a Schur energy is no finite real."""


class BadSplit(GapeigError):
    """A block or vector does not fit the split: a split index out of range for the
    given matrix, or an upper-block vector whose shape is not (n_plus,)."""


class EigFailure(GapeigError):
    """Dense symmetric eigensolve did not converge."""


class NotPositiveDefinite(GapeigError):
    """The shifted lower block b + e*I is not positive definite: e is not above
    gap_edge(lambda0) = lambda0 + GAP_EDGE_MARGIN*max(1, |lambda0|), the Schur
    system's edge rule."""


class KOutOfRange(GapeigError):
    """A level index (k, m or k_max) that is not an integer in 1..n_plus."""


class ZeroVector(GapeigError):
    """Vector argument must be nonzero."""


class BracketFailure(GapeigError):
    """Root bracketing failed; no sign change inside the configured search range."""


class SingularSchur(GapeigError):
    """Schur matrix K_e is singular: e is not strictly inside the gap."""


class NoGap(GapeigError):
    """Operator has no certified gap (lambda0 >= lambda1)."""


class SpecInvalid(GapeigError):
    """Model specification violates its invariants."""


class ConfigParse(GapeigError):
    """Experiment config could not be parsed."""
