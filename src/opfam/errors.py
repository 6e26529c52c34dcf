"""Exception hierarchy shared across the package."""


class OpfamError(Exception):
    """Base class for all errors raised by this package."""


class InputError(OpfamError):
    """Invalid user input: bad arguments, malformed files, bad grammars.

    CLI maps this to exit code 2.
    """


class DimensionMismatchError(InputError):
    """Operands have incompatible dimensions."""


class FileFormatError(InputError):
    """A structured text file failed to parse; carries file and line info."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        loc = f"{path}:{line}: " if path else ""
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class InvariantError(OpfamError):
    """An internal consistency check failed: a defect, not bad input.

    CLI maps this to exit code 3.
    """


class SingularMatrixError(OpfamError):
    """Linear solve hit a numerically singular matrix; carries the pivot."""

    def __init__(self, message: str, pivot: float = 0.0):
        super().__init__(f"{message} (min pivot {pivot:.3e})")
        self.pivot = pivot


class EigenConvergenceError(OpfamError):
    """Eigenvalue iteration failed to converge."""


class DegenerateSpectrumError(OpfamError):
    """Eigenvalue clusters are not separable at the requested tolerance."""


class PreconditionError(OpfamError):
    """A documented operation precondition was violated."""


class PoleProximityError(OpfamError):
    """Evaluation point too close to a pole of a local extension."""
