"""Exception types shared across the package.

The CLI maps these onto its exit codes, so library code should raise the
most specific one that applies.
"""


class MatPencilError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(MatPencilError):
    """Malformed input: bad JSON payload, wrong shape, mixed scalar fields."""


class PreconditionError(MatPencilError):
    """A mathematical precondition does not hold (e.g. rank-deficient Z)."""


class StructureError(PreconditionError):
    """A matrix fails the structural pattern an operation requires."""


class VerificationError(MatPencilError):
    """A computed result failed its own certificate check."""
