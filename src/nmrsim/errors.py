"""Exception types shared across the package.

Every input the package rejects raises a subclass of :class:`NmrsimError`,
whose family declares the CLI's ``exit_code`` and the ``lead`` it prints
before the message; the CLI lets any other exception through as the bug it
is.  Validation errors carry the measured magnitude of the violated invariant
so callers (and the CLI) can report what went wrong, not just that it did.
"""


class NmrsimError(Exception):
    """Base class for every error raised by this package."""
    exit_code = 1
    lead = ""


class BadArgumentError(NmrsimError, ValueError):
    """An argument lies outside the domain of the operation."""


class ParseError(NmrsimError):
    """A JSON document does not conform to the expected wire schema."""
    lead = "cannot parse input: "


class DimMismatchError(NmrsimError):
    """Two objects that must share a dimension do not."""
    exit_code = 2


class WrongDimError(NmrsimError):
    """An operation received a state of an unsupported dimension."""
    exit_code = 2


class NumericalFailureError(NmrsimError):
    """A numerical routine failed to converge or produced garbage."""
    exit_code = 2


class ValidationError(NmrsimError):
    """A matrix or vector violates an invariant required of its type."""
    exit_code = 3
    lead = "validation failure: "


class NotSquareError(ValidationError):
    pass


class DimNotPowerOfTwoError(ValidationError):
    pass


class NotHermitianError(ValidationError):
    def __init__(self, deviation: float):
        self.deviation = float(deviation)
        super().__init__(f"matrix is not Hermitian: max |m - m^dag| = {self.deviation:.3e}")


class BadTraceError(ValidationError):
    def __init__(self, deviation: float):
        self.deviation = float(deviation)
        super().__init__(f"trace differs from 1 by {self.deviation:.3e}")


class NotPsdError(ValidationError):
    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(f"matrix is not positive semidefinite: min eigenvalue = {self.min_eigenvalue:.3e}")


class NotUnitaryError(ValidationError):
    def __init__(self, defect: float):
        self.defect = float(defect)
        super().__init__(f"matrix is not unitary: max |U^dag U - I| = {self.defect:.3e}")


class NotNormalizedError(ValidationError):
    def __init__(self, deviation: float, what: str = "vector"):
        self.deviation = float(deviation)
        super().__init__(f"{what} is not normalized: deviation = {self.deviation:.3e}")


class NotPureError(ValidationError):
    def __init__(self, purity: float):
        self.purity = float(purity)
        super().__init__(f"state is not pure: tr(rho^2) = {self.purity:.12f}")
