"""Error hierarchy of the package.

The CLI maps the classes to exit codes: ParseError to 2, InternalError to
4, every other CartanGradeError to 3.
"""


class CartanGradeError(Exception):
    """Base class of every error the package raises on purpose."""


class ConfigError(CartanGradeError):
    """Parameters outside what the package supports."""


class ConfigMismatchError(CartanGradeError):
    """Operands built over different configurations."""


class DimensionError(CartanGradeError):
    """Shapes or counts that do not fit together."""


class AxisRangeError(CartanGradeError):
    """An axis, exponent or form degree out of range."""


class ValidityError(CartanGradeError):
    """Images do not define an algebra automorphism."""


class AdmissibilityError(CartanGradeError):
    """Volume form is not homogeneous, or a subspace is not graded."""


class ObstructionError(CartanGradeError):
    """Degree assignment ruled out (identity volume degree at full toral rank)."""


class GroupMismatchError(CartanGradeError):
    """Group elements or gradings over different groups."""


class NoSuchBasisError(CartanGradeError):
    """A subgroup basis that is not one, or that cannot be found."""


class ParseError(CartanGradeError):
    """Serialized payload is structurally malformed."""


class InternalError(CartanGradeError):
    """A kernel result broke an invariant the theory guarantees."""
