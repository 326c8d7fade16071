"""Exception types shared across the package."""

from __future__ import annotations


class UqcError(Exception):
    """Base class for every error raised by this package."""


class CycleError(UqcError):
    """An operation reads a variable written by itself or by a later-listed
    operation, so the graph is not listed in evaluation order; every
    cycle contains such a read."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        super().__init__(f"operation {node_id} reads a variable written by itself "
                         f"or by a later-listed operation")


class ParseError(UqcError):
    """Model source text is invalid at the given line and column."""

    def __init__(self, message: str, line: int, column: int, expected: tuple = ()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"line {line}, column {column}: {message}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


class UndefinedNameError(ParseError):
    """An expression references a name that has not been declared."""

    def __init__(self, name: str, line: int, column: int):
        self.name = name
        super().__init__(f"undefined name '{name}'", line, column)


class DuplicateNameError(ParseError):
    """A statement re-declares an existing name."""

    def __init__(self, name: str, line: int, column: int):
        self.name = name
        super().__init__(f"name '{name}' already defined", line, column)


class UnknownModelError(UqcError):
    """Requested builtin model does not exist."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown model '{name}'")


class UnsupportedDistributionError(UqcError):
    """Distribution family has no quadrature rule / polynomial family here."""


class InvalidOrderError(UqcError):
    """Quadrature order or polynomial degree outside the supported range."""


class EmptyAxesError(UqcError):
    """A tensor grid needs at least one axis."""


class AxisOutOfRangeError(UqcError):
    """Axis index does not exist in the grid."""


class DimensionMismatchError(UqcError):
    """Dimensions of grid, basis, points, or distributions disagree."""


class SignatureNotSubsetError(UqcError):
    """Tensor expansion target does not contain the source signature."""


class SignatureMismatchError(UqcError):
    """A graph's execution plan meets an operation with no elementwise
    kernel, such as an expand, which only a transformed graph holds."""


class DomainError(UqcError):
    """An elementary operation received an out-of-domain argument.

    Carries the operation id, the reason, and the flat point index at which
    the violation occurred, plus (for sampling drivers) the offending sample.
    """

    def __init__(self, op_id: int, op_kind: str, point_index: int, reason: str,
                 sample: tuple | None = None):
        self.op_id = op_id
        self.op_kind = op_kind
        self.point_index = point_index
        self.reason = reason
        self.sample = sample
        msg = f"{reason} in operation {op_id} ({op_kind}) at point index {point_index}"
        if sample is not None:
            msg += f", input sample {sample}"
        super().__init__(msg)


class UnderdeterminedError(UqcError):
    """Fewer sample points than coefficients in a regression fit."""


class RankDeficientError(UqcError):
    """Regression design matrix does not have full column rank."""
