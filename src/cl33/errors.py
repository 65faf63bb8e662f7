"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class ConvergenceError(ArithmeticError):
    """A truncated series failed to reach its tolerance within the term budget."""


class ResidualError(ValueError):
    """A check failed by a measured amount, kept as ``residual`` when known."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NonParavectorResidue(ResidualError):
    """A multivector expected to be weight + vector carries grade >= 2 residue."""


class CovectorResidue(ResidualError):
    """The vector part of a would-be point contains covector components."""


class NotHodgeCompatible(ResidualError):
    """The versor does not satisfy the volume-scaling condition of the
    Hodge-conjugate construction (translations are the canonical offender)."""


class DegenerateConfigurationError(ValueError):
    """Geometric configuration without a well-defined result (eye on the
    projection plane)."""


class NotLinearError(ValueError):
    """A transform claimed to be linear on (weight, vector) space is not."""


class PipelineError(ValueError):
    """Syntax or semantic error in a transform-pipeline source text."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column
