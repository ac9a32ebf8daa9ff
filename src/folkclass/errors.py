"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all folkclass errors."""


class MalformedRecordError(ToolkitError, ValueError):
    """A bookmark, label, vector or margin line could not be parsed."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class SyntheticOrderError(ToolkitError):
    """Ordering-based statistic requested on synthetically ordered bookmarks."""


class UnknownResourceError(ToolkitError, KeyError):
    """Resource id not present in the folksonomy."""


class UnknownTagError(ToolkitError, KeyError):
    """Tag not present in the folksonomy."""


class DegenerateInputError(ToolkitError, ValueError):
    """Input is degenerate for the requested statistic (e.g. zero variance)."""


class InsufficientDataError(ToolkitError, ValueError):
    """Not enough labeled data to satisfy the requested experiment."""
