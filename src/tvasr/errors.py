"""Exception types shared across the toolkit.

The CLI maps these onto stable exit codes: file/format problems -> 1,
configuration and precondition problems -> 2, numerical failures -> 3.
Plain ValueError raised on bad argument values is treated like ConfigError.
"""


class TvasrError(Exception):
    """Base class for all toolkit errors."""


class FormatError(TvasrError):
    """Malformed, truncated, or unsupported file content."""


class ShapeError(TvasrError):
    """Dimension, layout, or label-range mismatch."""


class StateError(TvasrError):
    """Operation invoked in the wrong state (no cached activations, ...)."""


class ConfigError(TvasrError):
    """Invalid configuration or violated precondition."""


class DivergenceError(TvasrError):
    """Training produced non-finite losses or gradients."""
