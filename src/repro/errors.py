"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish simulation problems from protocol or
checker problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly or reached a bad state."""


class ChannelError(SimulationError):
    """A channel was used incorrectly (e.g. sending on a closed channel)."""


class ProtocolError(ReproError):
    """An MCS or IS protocol violated one of its internal invariants."""


class ConfigurationError(ReproError):
    """A system or interconnection was configured inconsistently."""


class TopologyError(ConfigurationError):
    """An interconnection topology is invalid (cyclic, disconnected...)."""


class CheckerError(ReproError):
    """A consistency checker was given a malformed history."""


class DeadlockError(SimulationError):
    """The simulation ended while application programs were still blocked."""


class ExplorationError(ReproError):
    """The schedule explorer was misused or a recorded schedule does not
    match the scenario it is replayed against."""


class ClaimError(ReproError):
    """A measured number in the experiments report contradicts the paper
    claim that its table shows."""
