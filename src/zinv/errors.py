"""Exception types shared across the package."""


class ZinvError(Exception):
    """Base class for library-specific failures."""


class ParseError(ZinvError):
    """Syntax or grammar error in a rational-function expression."""

    def __init__(self, message, line=None, column=None, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        loc = ""
        if line is not None and column is not None:
            loc = f" at line {line}, column {column}"
        hint = ""
        if self.expected:
            hint = " (expected " + " or ".join(self.expected) + ")"
        super().__init__(f"{message}{loc}{hint}")


class RootFindingError(ZinvError):
    """Root refinement failed to converge; the message names the worst root."""


class FactorizationError(ZinvError):
    """A factor structure could not be recovered or does not match its source."""


class ConjugateSymmetryError(ZinvError):
    """A sum that must be real carried an imaginary residue above threshold."""
