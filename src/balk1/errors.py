"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class NotUnitaryError(ValueError):
    """A matrix required to be unitary is not, within tolerance."""


class SpectralGapError(ValueError):
    """An eigenvalue sits inside a forbidden spectral band."""

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class ParseError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeBoundError(ValueError):
    """Degree bound rejected: too small for the target or too large to enumerate."""


class ConstraintError(ValueError):
    """A loop sample violates a modulus or endpoint constraint."""


class WindingError(ValueError):
    """Winding number undefined: modulus too small, jump too large or residue too big."""


class UndersampledError(ValueError):
    """Loop grid or mode count too small for the requested quantization."""


class FedosovResidueError(ValueError):
    """Trace-formula output too far from an integer."""

    def __init__(self, message: str, residue: float):
        super().__init__(message)
        self.residue = residue


class PipelineStageError(RuntimeError):
    """A verification pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
