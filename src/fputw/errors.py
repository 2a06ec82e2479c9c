"""Exception and warning types shared across the toolkit."""


class FputwError(Exception):
    """Base class for all toolkit errors."""


class BoundaryCountError(FputwError):
    """A problem supplies the wrong number of boundary functionals."""


class ExtensionCoverageError(FputwError):
    """An evaluation point cannot be resolved by the extension policy."""


class ProblemSizeError(FputwError):
    """The assembled system exceeds the configured unknown cap."""


class SingularJacobianError(FputwError):
    """The sparse LU factorization of the Newton matrix failed."""


class NonConvergenceError(FputwError):
    """Newton iteration exhausted its budget.

    Carries the last residual norm and the iteration count.
    """

    def __init__(self, message, residual_norm, iterations):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


class NoBracketError(FputwError):
    """A root bracket could not be established (wave speed at or below C_mu)."""


class DispersionRangeError(FputwError):
    """Arguments outside the admissible dispersion range."""


class DegenerateNormalizationError(FputwError):
    """The Jost normalization amplitude collapsed (|beta| < 1e-12)."""


class CheckpointError(FputwError):
    """Base class for checkpoint I/O failures."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint header declares an unsupported format version."""


class CheckpointCorruptError(CheckpointError):
    """Checkpoint file is truncated or malformed; no partial object is built."""


class NonFiniteStateError(FputwError):
    """A lattice integration produced NaN or infinity."""


class NegativeProfileWarning(UserWarning):
    """The converged profile dips notably below zero (loss of solitary character)."""


class OrientationFlipWarning(UserWarning):
    """The periodic-ripple orientation inequality was violated."""


class EnergyDriftWarning(UserWarning):
    """Full-grid energy drifted beyond the alarm threshold between recenters."""
