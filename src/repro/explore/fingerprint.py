"""Canonical state fingerprints for exploration pruning.

Two interleavings that reach the *same* global state have the same future:
the explorer only needs to expand one of them. "Same state" here means

* the replica contents and protocol metadata of every MCS-process,
* the in-flight messages (as the kernel's schedule-independent pending
  signature plus per-channel counters),
* the IS-processes' propagation state (write queues, outboxes, counters),
* every application driver's progress, and
* the per-process sequences of recorded operations — the verdict is a
  function of the history, so a state may only be merged with an earlier
  one if their observable pasts agree as well.

Sequence numbers, wall-clock-ish quantities and object identities are
excluded: they differ between interleavings that are otherwise
equivalent. The canonicalisation (:func:`freeze`) is structural and
generic — protocols do not need to cooperate. Anything it cannot
represent stably collapses to a type marker, which makes the fingerprint
*coarser*: more distinct states compare equal, so more runs are merged,
and a wrong merge prunes a subtree that was never explored. Coarseness
is therefore the unsound direction. All in-tree protocols keep plain data
attributes, but state that hides behind a callable is under-fingerprinted
— notably the payloads of in-flight channel deliveries, which live only
in the scheduled delivery closures.
"""

from __future__ import annotations

import logging
import random
from collections import deque
from typing import Any, Iterable

from repro.memory.history import History
from repro.memory.recorder import HistoryRecorder
from repro.obs.profile import profiled
from repro.sim.channel import ReliableFifoChannel
from repro.sim.core import EventHandle, Simulator
from repro.sim.network import Network

logger = logging.getLogger(__name__)

#: Attribute names never descended into: backbone references whose state
#: is captured elsewhere (or not state at all).
_SKIP_KEYS = frozenset(
    {
        "sim",
        "_sim",
        "network",
        "recorder",
        "upcall_handler",
        "update_listener",
        "_deliver",
        "mcs",
        "_program",
        "_think_time",
    }
)

_MAX_DEPTH = 14


def freeze(value: Any, _depth: int = 0) -> Any:
    """Canonicalise *value* into a deterministic, repr-stable structure."""
    if _depth > _MAX_DEPTH:
        return ("deep", type(value).__name__)
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, (list, tuple, deque)):
        return tuple(freeze(item, _depth + 1) for item in value)
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(repr(freeze(item, _depth + 1)) for item in value)))
    if isinstance(value, dict):
        if all(type(key) is str for key in value):
            # Fast path for the overwhelmingly common case: attribute
            # dicts and str-keyed replica maps sort by key directly.
            return (
                "dict",
                tuple(
                    (key, freeze(item, _depth + 1))
                    for key, item in sorted(value.items())
                ),
            )
        return (
            "dict",
            tuple(
                sorted(
                    (repr(freeze(key, _depth + 1)), freeze(item, _depth + 1))
                    for key, item in value.items()
                )
            ),
        )
    if isinstance(value, random.Random):
        # The generator state determines future delay samples; its full
        # state is a 600-int tuple, so fold it down with the C-level
        # tuple hash (fingerprints are in-process only, see
        # :func:`state_fingerprint`).
        return ("rng", hash(value.getstate()))
    if isinstance(value, ReliableFifoChannel):
        return (
            "channel",
            value.name,
            value.stats.messages_sent,
            value.stats.messages_delivered,
            value._last_delivery,  # noqa: SLF001 - deliberate introspection
            freeze(value._rng, _depth + 1),  # noqa: SLF001
        )
    if isinstance(value, (Simulator, Network, HistoryRecorder, EventHandle)):
        return ("ref", type(value).__name__, getattr(value, "name", ""))
    if callable(value):
        return ("fn", getattr(value, "__qualname__", type(value).__name__))
    state = _object_state(value)
    if state is None:
        logger.debug(
            "opaque value of type %s in fingerprint (no __dict__/__slots__)",
            type(value).__name__,
        )
        return ("opaque", type(value).__name__)
    filtered = {
        key: item for key, item in state.items() if key not in _SKIP_KEYS
    }
    return (type(value).__name__, freeze(filtered, _depth + 1))


def _object_state(value: Any) -> dict[str, Any] | None:
    """Attribute dict of *value*, covering ``__dict__`` and ``__slots__``."""
    state: dict[str, Any] = {}
    instance_dict = getattr(value, "__dict__", None)
    if isinstance(instance_dict, dict):
        state.update(instance_dict)
    for klass in type(value).__mro__:
        for slot in getattr(klass, "__slots__", ()) or ():
            if slot in ("__dict__", "__weakref__"):
                continue
            try:
                state[slot] = getattr(value, slot)
            except AttributeError:
                continue
    if not state and instance_dict is None:
        return None
    return state


def _history_signature(history: History) -> tuple:
    """Per-process operation sequences — schedule-independent, unlike the
    recorder's global completion order."""
    per_proc: dict[str, list[tuple]] = {}
    for op in history:
        per_proc.setdefault(op.proc, []).append(
            (op.kind.value, op.var, repr(op.value), op.is_interconnect)
        )
    return tuple(sorted((proc, tuple(ops)) for proc, ops in per_proc.items()))


def _iter_is_processes(result) -> Iterable:
    seen: dict[str, Any] = {}
    interconnection = getattr(result, "interconnection", None)
    if interconnection is not None:
        for bridge in interconnection.bridges:
            for isp in (bridge.isp_a, bridge.isp_b):
                seen.setdefault(isp.name, isp)
    for system in result.systems:
        shared = getattr(system, "_shared_isp", None)
        if shared is not None:
            seen.setdefault(shared.name, shared)
    return [seen[name] for name in sorted(seen)]


@profiled("explore.state_fingerprint")
def state_fingerprint(result) -> int:
    """Fingerprint the global state of a (possibly mid-run) scenario.

    *result* is a :class:`repro.workloads.scenarios.ScenarioResult`.
    Returns ``hash()`` of the canonical frozen state: fingerprints are
    compared only within one explorer invocation (one process), so the
    per-process salting of ``hash`` is harmless and the C-level tuple
    traversal is far cheaper than hashing a repr of the whole state.
    """
    parts: list[Any] = []
    for system in sorted(result.systems, key=lambda s: s.name):
        for mcs in sorted(system.mcs_processes, key=lambda m: m.name):
            parts.append(("mcs", mcs.name, freeze(mcs)))
        for app in sorted(system.app_processes, key=lambda a: a.name):
            parts.append(("app", app.name, app.ops_completed, app.done, app.blocked))
    for isp in _iter_is_processes(result):
        parts.append(("isp", isp.name, freeze(isp)))
    parts.append(("pending", result.sim.pending_signature()))
    parts.append(("history", _history_signature(result.recorder.history())))
    return hash(tuple(parts))


__all__ = ["freeze", "state_fingerprint"]
