"""Exception types raised across the package."""


class GapeigError(Exception):
    """Base class for all errors raised by this package."""


class NonSymmetric(GapeigError):
    """Input matrix fails the relative symmetry check."""


class NonFinite(GapeigError):
    """Input block holds a NaN or infinite entry."""


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
    """Requested level index k outside 1..n_plus."""


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
