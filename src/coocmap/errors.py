"""Exception types shared across the package, and the one rule for which
failures are the caller's.

INPUT_ERRORS are bad input: ValidationError (and subclasses), a file that
cannot be opened or read (OSError) or decoded (UnicodeDecodeError). The CLI
maps them to exit 2 and NumericError to exit 3, and a sweep records either
as an error row. Any other exception is a programming error: it propagates,
and the CLI exits 1 with its traceback.
"""


class ValidationError(ValueError):
    """Bad input: out-of-range parameter, malformed file, shape mismatch."""


class IntegrityError(ValidationError):
    """A file's digest or magic string does not match what was expected."""


class NumericError(ArithmeticError):
    """A numeric routine failed (e.g. SVD did not converge)."""


INPUT_ERRORS = (ValidationError, OSError, UnicodeDecodeError)
