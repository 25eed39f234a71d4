"""Exception types shared across the package."""

from __future__ import annotations


class FanomodeError(Exception):
    """Base class for all errors raised by this package; the CLI exits with
    its ``exit_code`` after one line ``fanomode: <label>: <message>``."""

    exit_code, label = 1, "error"


class ParameterError(FanomodeError, ValueError):
    """A parameter or function argument is out of its allowed range or regime."""


class SpectralError(FanomodeError, ValueError):
    """A spectral representation is corrupt (e.g. J(omega) < 0 where required)."""

    exit_code, label = 3, "solver failure"


class StepSizeError(FanomodeError, ValueError):
    """The requested time step is too large for the solver to be trustworthy."""

    exit_code, label = 3, "solver failure"


class RecurrenceError(FanomodeError, ValueError):
    """A discretized-reservoir run was requested beyond its recurrence horizon."""

    exit_code, label = 3, "solver failure"


class ConfigError(FanomodeError, ValueError):
    """A run configuration file or override is invalid."""


class PropertyViolation(FanomodeError):
    """A run finished but violated a property it was expected to satisfy."""

    exit_code, label = 2, "property violation"
