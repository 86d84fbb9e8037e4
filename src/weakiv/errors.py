"""Exception hierarchy shared across the package."""

__all__ = ["InputError", "NumericalError", "WeakIvError"]


class WeakIvError(Exception):
    """Base class for all errors raised by weakiv."""


class InputError(WeakIvError):
    """Invalid user input: bad columns, malformed config, out-of-range options."""


class NumericalError(WeakIvError):
    """Numerical failure: singular or indefinite matrices, non-convergence."""
