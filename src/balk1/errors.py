"""Exception types shared across the package."""


class Balk1Error(Exception):
    """Base class for all package-specific errors."""


class ShapeError(Balk1Error, ValueError):
    """Operands have incompatible shapes."""


class NotUnitaryError(Balk1Error, ValueError):
    """A matrix required to be unitary is not, within tolerance."""


class SpectralGapError(Balk1Error, ValueError):
    """An eigenvalue sits inside a forbidden spectral band."""

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class ParseError(Balk1Error, ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeBoundError(Balk1Error, ValueError):
    """Degree bound rejected: too small for the target or too large to enumerate."""


class ConstraintError(Balk1Error, ValueError):
    """A loop sample violates a modulus or endpoint constraint."""


class WindingError(Balk1Error, ValueError):
    """Winding number undefined: modulus too small, jump too large or residue too big."""


class UndersampledError(Balk1Error, ValueError):
    """Loop grid or mode count too small for the requested quantization."""


class FedosovResidueError(Balk1Error, ValueError):
    """Trace-formula output too far from an integer."""

    def __init__(self, message: str, residue: float):
        super().__init__(message)
        self.residue = residue


class PipelineStageError(Balk1Error, RuntimeError):
    """A verification pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
