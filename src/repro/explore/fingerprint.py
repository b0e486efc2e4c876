"""State fingerprints for exploration pruning.

Two interleavings that reach the *same* global state have the same future:
the explorer only needs to expand one of them. "Same state" here means
equal keys for

* every MCS-process (:meth:`repro.memory.interface.MCSProcess.state_key`:
  clock, store, buffers, counters, queued missed upcalls),
* every application driver (progress, blocking, and its program
  position ``commands_issued``),
* every IS-process (write queue, counters, seen pairs, and per peer the
  outbox, counters and the channel's own key),
* the in-flight events, as the kernel's schedule-independent pending
  ``(time, tag)`` signature, and
* the per-process sequences of recorded operations
  (:meth:`repro.memory.recorder.HistoryRecorder.signature`): the verdict
  is a function of the history, so a state may only be merged with an
  earlier one if their observable pasts agree as well.

**Key contract.** Each component returns a flat tuple of immutable values
that hash and compare by value, and the fingerprint hashes the tuple of
all keys in a fixed order (systems and processes sorted by name), so
parts are positional. Constant identity fields (names, indices, event
tags) are left out for that reason. Sequence numbers and object
identities that differ between equivalent interleavings are left out
too. A component that defines no key makes :func:`state_fingerprint`
raise (``MCSProcess.state_key`` raises :class:`NotImplementedError`; a
link object without ``state_key`` raises :class:`AttributeError`)
instead of being silently skipped.

**Soundness.** A key that omits a field which influences the future is
*coarser*: states that differ in that field compare equal, so *more*
runs are merged, and a wrong merge prunes a subtree that was never
explored. Coarseness is therefore the unsound direction; a key that is
too fine only costs pruning. The explorer's coverage oracle
(``tests/integration/test_explore_coverage.py``) pins the set of
distinct terminal histories of the default search to that of
sleep-set-only search, which keeps no fingerprints at all. That oracle
is how the driver's program position got into the key: without it, a
driver with a read response pending and one with the follow-up ``Sleep``
pending compared equal, and faulty-fifo reached 5 of its 79 terminal
histories. Payloads of in-flight deliveries live in the scheduled
delivery closures and are not keyed; the oracle holds without them.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.profile import profiled


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
    Returns ``hash()`` of the tuple of component keys: fingerprints are
    compared only within one explorer invocation (one process and its
    forked workers), so the per-process salting of ``hash`` is harmless.
    """
    parts: list[Any] = []
    for system in sorted(result.systems, key=lambda s: s.name):
        for mcs in sorted(system.mcs_processes, key=lambda m: m.name):
            parts.append(mcs.state_key())
        for app in sorted(system.app_processes, key=lambda a: a.name):
            parts.append(app.state_key())
    for isp in _iter_is_processes(result):
        parts.append(isp.state_key())
    parts.append(result.sim.pending_signature())
    parts.append(result.recorder.signature())
    return hash(tuple(parts))


__all__ = ["state_fingerprint"]
