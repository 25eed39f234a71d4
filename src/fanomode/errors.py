"""Exception types shared across the package, one class per CLI exit code."""

from __future__ import annotations


class FanomodeError(Exception):
    """Base class of this package's errors, one subclass per CLI exit code,
    which the CLI exits with after one line ``fanomode: <label>: <message>``."""


class ParameterError(FanomodeError, ValueError):
    """Exit 1, invalid input: a config file or override that is unreadable,
    malformed or out of bounds, or an argument out of its range or regime.
    The CLI gives a bad command line, an unwritable output path and an input
    beyond memory or floating point the same code and label."""

    exit_code, label = 1, "error"


class PropertyViolation(FanomodeError):
    """Exit 2: a run finished, and wrote its output, but broke a property it
    should hold (a trajectory invariant, the Lindblad form, a tolerance, a
    finite output)."""

    exit_code, label = 2, "property violation"


class SolverFailure(FanomodeError, ValueError):
    """Exit 3: a solver cannot run or finish an admitted input (J < 0 under
    the comb, a Volterra kernel too large or unresolved at the step, a comb
    run past its recurrence horizon, a state that overflows)."""

    exit_code, label = 3, "solver failure"
