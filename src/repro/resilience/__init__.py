"""Resilience layer: the paper's channel and process assumptions, discharged.

The IS-protocols assume a reliable FIFO inter-system channel and
ever-living IS-processes (§1.1). This package *constructs* both out of
adversarial parts:

* :mod:`repro.resilience.transport` — exactly-once FIFO sessions
  (sequence numbers, cumulative acks, backoff retransmission) over
  lossy/reordering/duplicating/partitioning wires (channels driven by a
  :class:`~repro.sim.channel.FaultPlan`, re-exported here);
* :mod:`repro.resilience.wal` — write-ahead log + checkpoint of the
  IS-process propagation state;
* :mod:`repro.resilience.recovery` — crash/restart of IS-processes with
  WAL replay (no pair lost, none applied twice);
* :mod:`repro.resilience.campaign` — named fault-injection campaigns
  whose outcomes are machine-verified by the causal checker and the
  Theorem 1 proof construction.

Only the sim-level pieces are imported eagerly here; ``recovery`` and
``campaign`` sit above :mod:`repro.interconnect` in the layering and are
imported lazily to keep the import graph acyclic.
"""

from repro.resilience.transport import ResilientTransport, RetryPolicy, TransportStats
from repro.sim.channel import NO_FAULTS, FaultPlan
from repro.resilience.wal import RecoveredState, SessionState, WalRecord, WriteAheadLog

_LAZY = {
    "RecoverableISProcess": ("repro.resilience.recovery", "RecoverableISProcess"),
    "CrashEvent": ("repro.resilience.campaign", "CrashEvent"),
    "FaultScenario": ("repro.resilience.campaign", "FaultScenario"),
    "SCENARIOS": ("repro.resilience.campaign", "SCENARIOS"),
    "CampaignResult": ("repro.resilience.campaign", "CampaignResult"),
    "run_campaign": ("repro.resilience.campaign", "run_campaign"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


__all__ = [
    "FaultPlan",
    "NO_FAULTS",
    "ResilientTransport",
    "RetryPolicy",
    "TransportStats",
    "WalRecord",
    "SessionState",
    "RecoveredState",
    "WriteAheadLog",
    *sorted(_LAZY),
]
