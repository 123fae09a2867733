"""Exception types shared across the package."""

from __future__ import annotations


class UrnNetError(Exception):
    """Base class for all package-specific errors."""


class InvalidParamsError(UrnNetError):
    """A generator or run configuration is invalid."""


class ZeroInDegreeError(UrnNetError):
    """Some vertex has no incoming edge, so its urn is never reinforced."""

    def __init__(self, vertices):
        self.vertices = tuple(int(v) for v in vertices)
        super().__init__(f"zero in-degree at vertices {self.vertices}")

    def __reduce__(self):
        # rebuild from the fields, not the message, so the error survives
        # the pickling that carries it out of a worker process
        return type(self), (self.vertices,)


class NumericalError(UrnNetError):
    """A numerical solve is singular or did not converge."""


class EigenConvergenceError(NumericalError):
    """The eigenvalue iteration did not converge."""


class SingularSylvesterError(NumericalError):
    """Two eigenvalues of the coefficient matrix sum to zero."""


class SingularMatrixError(NumericalError):
    """Matrix is singular or too ill-conditioned to invert."""

    def __init__(self, condition: float):
        self.condition = float(condition)
        super().__init__(f"matrix is singular (condition estimate {condition:.3e})")

    def __reduce__(self):
        return type(self), (self.condition,)


class NotCriticalRegimeError(NumericalError):
    """No eigenvalue sits on the critical line Re = 1/2."""


class NonDiagonalizableError(NumericalError):
    """Eigenvector matrix is too ill-conditioned for a spectral solve."""


class WrongRegimeError(UrnNetError):
    """A prediction or estimator was requested outside its fluctuation regime."""


class NotRegularError(UrnNetError):
    """Operation requires an undirected regular graph."""


class SingularLimitSystemError(NumericalError):
    """The linear system for the heterogeneous limit is singular."""


class EnumerationTooLargeError(UrnNetError):
    """Exact enumeration would exceed the configured size bound."""


class InsufficientCheckpointsError(UrnNetError):
    """Not enough checkpoints for the requested regression."""
