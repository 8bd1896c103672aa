"""Exception types shared across the package.

All errors raised deliberately by this package derive from
:class:`DrivenQubitError`, so callers can catch one base class at an
application boundary (the command line driver maps subclasses to exit
codes).
"""


class DrivenQubitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DrivenQubitError):
    """Invalid user input: parameter values, grids, or file contents."""


class RegimeError(DrivenQubitError):
    """A quantity was requested outside the regime where it is defined.

    Example: transfer-matrix constructions require the drive amplitude to
    exceed the static bias, otherwise the instantaneous splitting never
    crosses zero and there are no crossing events to match.
    """


class BracketError(DrivenQubitError):
    """A root search failed to bracket or converge on a sign change."""


class QuadratureError(DrivenQubitError):
    """Numerical integration did not reach the requested accuracy.

    Covers both quadrature (an integral whose error estimate stays too
    large) and time stepping (a propagated state whose norm drifts).
    """


class InsufficientDataError(DrivenQubitError):
    """A time series is too short or too sparse for the requested analysis."""
