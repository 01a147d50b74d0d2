"""Error hierarchy with stable codes for CLI reporting."""


class CartanGradeError(Exception):
    """Base class; `code` is stable across releases and surfaces in CLI output."""

    code = "error"


class ConfigError(CartanGradeError):
    code = "bad-config"


class ConfigMismatchError(CartanGradeError):
    code = "config-mismatch"


class DimensionError(CartanGradeError):
    code = "dimension-mismatch"


class AxisRangeError(CartanGradeError):
    code = "axis-range"


class ZeroElementError(CartanGradeError):
    code = "zero-element"


class ValidityError(CartanGradeError):
    """Images do not define an algebra automorphism."""

    code = "invalid-automorphism"


class AdmissibilityError(CartanGradeError):
    """Volume form is not homogeneous, or a subspace is not graded."""

    code = "not-admissible"


class ObstructionError(CartanGradeError):
    """Degree assignment ruled out (identity volume degree at full toral rank)."""

    code = "degree-obstruction"


class GroupMismatchError(CartanGradeError):
    code = "group-mismatch"


class NoSuchBasisError(CartanGradeError):
    code = "no-such-basis"


class ParseError(CartanGradeError):
    """Serialized payload is structurally malformed."""

    code = "parse-error"


class InternalError(CartanGradeError):
    """A kernel result broke an invariant the theory guarantees."""

    code = "internal"
