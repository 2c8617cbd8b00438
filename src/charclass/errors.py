"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: parse problems, foreign atoms included,
exit 1, algebra domain errors exit 2.
"""


class CharclassError(Exception):
    """Base class for all errors raised by this package."""


class NamespaceMismatchError(CharclassError):
    """Operands live in different variable namespaces."""


class MissingImageError(CharclassError):
    """A substitution lacks an image for a variable that occurs."""


class CapsTooSmallError(CharclassError):
    """The ring context truncates below the degree needed for a sound answer."""


class NotComplexifiableError(CharclassError):
    """The class is not in the squares sub-ring (or its integral analogue)."""


class NotInIdealError(CharclassError):
    """The class is not in the ideal generated by squared generators.

    `witness` holds the offending square-free monomial, already formatted.
    """

    def __init__(self, message: str, witness: str):
        super().__init__(message)
        self.witness = witness


class DigitLimitError(CharclassError):
    """An answer holds an integer of more decimal digits than Python prints
    (sys.get_int_max_str_digits)."""


class InvalidIndexSetError(CharclassError):
    """A V-index set violates the rank-n validity rules."""


class ParseError(CharclassError):
    """Syntax error in a class expression; `position` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MixedExpressionError(CharclassError):
    """An expression holds an atom foreign to the regime it is read in."""
