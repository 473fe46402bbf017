"""Error taxonomy shared by every gda module.

All deliberate failures raise a subclass of GdaError so callers (and the
CLI) can tell user-facing diagnostics apart from genuine bugs.
"""
from __future__ import annotations


class GdaError(Exception):
    """Base class for every failure this package raises on purpose."""


class NameClash(GdaError):
    """A generator name was declared twice, or uses the reserved fresh prefix."""


class CoherenceViolation(GdaError):
    """An index equation failed, or a declared bound was left."""


class HeterogeneousSum(GdaError):
    """Strict addition of terms whose monomials live in different spaces."""


class ArityError(GdaError):
    """A choice vector, product, or assignment has the wrong length."""


class SlotError(GdaError):
    """A slot set referenced a factor position that does not exist."""


class LayoutError(GdaError):
    """A completion layout broke the interleaving shape."""


class HypothesisError(GdaError):
    """A closure-hypothesis set was requested without its preconditions."""


class IdealError(GdaError):
    """An ideal member was declared that the differential laws kill."""


class AssignmentError(GdaError):
    """A model evaluation met a symbol with no assigned value."""


class ModelError(GdaError):
    """A finite model failed validation (bad table, wrong field, overflow)."""


class GdaSyntaxError(GdaError):
    """Parse failure in a .gda file; carries position information."""

    def __init__(self, message: str, line: int, column: int, filename: str = "<input>"):
        self.message = message
        self.line = line
        self.column = column
        self.filename = filename
        super().__init__(f"{filename}:{line}:{column}: error: {message}")
