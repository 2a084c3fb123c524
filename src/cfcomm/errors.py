"""Exception types shared across the package."""

from __future__ import annotations


class CfcommError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CfcommError):
    """A device configuration is malformed, inconsistent, or out of the
    validity range of the model (e.g. modulation depth too large for the
    first-order sideband truncation)."""


class TopologyError(CfcommError):
    """A circuit acts on an arm nothing wrote, consumes an arm twice, or
    leaves a live arm unterminated."""


class UndefinedPostselectionError(CfcommError):
    """Postselection was requested on a detector with zero click
    probability; backward states and traces are undefined there."""


class FitInfeasibleError(CfcommError):
    """No imperfection-model parameters can reproduce the requested error
    rates (raised instead of silently clamping)."""
