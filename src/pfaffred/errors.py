"""Exception types shared across the package.

The CLI maps these onto exit codes: bad input -> 1, structure the
algorithms cannot handle (non-free modules, field towers, resonance) -> 2,
truncation budget exhausted -> 3.
"""


class PfaffError(Exception):
    """Base class for all library errors."""


class InputError(PfaffError):
    """Malformed or rejected input (parse errors, ordinary points, shape)."""


class DimensionError(PfaffError):
    """Incompatible matrix/series dimensions or variable counts."""


class FieldExtensionError(PfaffError):
    """Eigenvalue field not representable under the extension policy."""


class NotUnitError(PfaffError):
    """Inversion of a series with zero constant term."""


class NotInvertibleError(PfaffError):
    """Matrix inverse does not exist in the localized ring."""


class NonIntegrableError(PfaffError):
    """Integrability condition fails (or is violated mid-reduction)."""


class ColumnModuleNotFree(PfaffError):
    """No column basis of the leading matrix admits integral cofactors."""


class TruncationInsufficient(PfaffError):
    """A decision needs more series terms than the current window holds.

    verified_to -- the total degree a residual check reached, when the
                   failure comes from that check; None otherwise
    final       -- a larger working order cannot help: the demand grows
                   at least as fast as the window does
    window      -- the data window of the rank-zero leaf that ran out,
                   when the failure is that leaf's; None otherwise
    """

    def __init__(self, message="", verified_to=None, final=False,
                 window=None):
        super().__init__(message)
        self.verified_to = verified_to
        self.final = final
        self.window = window


class ResonanceError(PfaffError):
    """Block uncoupling/endgame equations are inconsistent (resonant case).

    grade -- the monomial exponent whose equations have no solution, when
             the failure comes from a graded solve; None otherwise
    """

    def __init__(self, message="", grade=None):
        super().__init__(message)
        self.grade = grade


class ReductionError(PfaffError):
    """Internal invariant of a reduction step failed."""
