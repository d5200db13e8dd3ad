"""Exception hierarchy shared by all shapederiv modules."""


class ShapeDerivError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ShapeDerivError):
    """Malformed operand: a shape incompatible with the problem dimensions,
    or a non-finite entry."""


class NotPositiveDefinite(ShapeDerivError):
    """A matrix required to be symmetric positive definite is not."""


class RankDeficientB(ShapeDerivError):
    """The constraint matrix has row rank below its row count, so the
    multiplier is not unique."""


class MaxIterations(ShapeDerivError):
    """Iteration guard hit (active-set cycling protection)."""


class NonPositiveJacobian(ShapeDerivError):
    """The flow left the range where it is a diffeomorphism."""


class InvertedElement(ShapeDerivError):
    """A transported triangle flipped orientation."""


class EmptyDirichletBoundary(ShapeDerivError):
    """No Dirichlet boundary edges: the velocity stiffness is singular."""


class SingularSystem(ShapeDerivError):
    """The assembled saddle system cannot be solved as posed."""


class UnsolvedSolution(ShapeDerivError):
    """A solution object does not satisfy its residual tolerances."""


class ConfigError(ShapeDerivError):
    """Invalid or inconsistent run configuration."""
