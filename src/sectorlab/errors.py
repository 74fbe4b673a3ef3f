"""Exception and warning types shared across sectorlab modules."""


class SectorLabError(Exception):
    """Base class for all sectorlab errors."""


class BadInput(SectorLabError, ValueError):
    """An argument violates a documented precondition."""


class BadSector(BadInput):
    """Sector length is nonpositive or exceeds a quarter turn."""


class BadEps(BadInput):
    """Plateau shoulder width outside the open interval (0, 1/2)."""


class NonResidue(SectorLabError, ArithmeticError):
    """Modular square root requested for a quadratic non-residue."""


class NotSplit(BadInput):
    """Rational prime does not split in the quadratic field at hand."""


class EmptyRange(BadInput):
    """A statistic was requested over a range containing no prime ideals."""


class QuadratureFailure(SectorLabError, ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class TruncationFailure(SectorLabError, ArithmeticError):
    """Fourier tail cannot be certified below threshold at any feasible cutoff."""


class InvariantViolation(SectorLabError, ArithmeticError):
    """A computed result breaks a proven mathematical identity or bound."""


class AliasingRisk(UserWarning):
    """Evaluation grid is too coarse for the spectral content it must resolve."""
