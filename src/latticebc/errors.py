"""Exception types shared across the package.

Every error carries a stable ``code`` string so the CLI can emit a
single machine-parsable line and exit nonzero.
"""


class LatticeError(Exception):
    code = "LatticeError"


class ConfigParseError(LatticeError):
    """Configuration file is missing, malformed, or has bad fields."""

    code = "ParseError"


class SpecValidationError(LatticeError):
    """One or more lattice invariants are violated."""

    code = "ValidationError"

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SingularSolve(LatticeError):
    """The constrained quasi-static solve is singular (disconnected lattice)."""

    code = "SingularSolve"


class NotConverged(LatticeError):
    """The slow-manifold iteration did not reach the residual tolerance."""

    code = "NotConverged"


class UnexpectedSpectrum(LatticeError):
    """Cell-map spectrum does not split (s-1, 2, s-1) about a doubled eigenvalue 1."""

    code = "UnexpectedSpectrum"


class NoJordanChain(LatticeError):
    """No generalized eigenvector at eigenvalue one (defect missing)."""

    code = "NoJordanChain"


class KindUnsupported(LatticeError):
    """Boundary-condition kind is not defined for this lattice shape."""

    code = "KindUnsupported"


class NullSpaceDimension(LatticeError):
    """Left null space of the constraint matrix has unexpected dimension."""

    code = "NullSpaceDimension"


class NoRootInBracket(LatticeError):
    """No eigen-root of the macroscale problem in the search bracket."""

    code = "NoRootInBracket"


class EigenSolveError(LatticeError):
    """An eigensolve failed: the cell map's QZ, a dispersion solve, or the
    microscale solve (banded Cholesky or ARPACK)."""

    code = "EigenSolveError"
