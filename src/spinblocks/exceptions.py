"""Shared exception types."""


class DomainError(ValueError):
    """Input is outside the domain an operation is defined on."""


class ShapeError(ValueError):
    """A skew diagram does not have the required shape."""


class SpaceMismatch(ValueError):
    """Vectors or operators built over different character spaces."""
