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
component or link object without ``state_key`` raises
:class:`AttributeError`) instead of being silently skipped.

**Per-run plan.** The components of a scenario are fixed once it is
built, so :func:`fingerprinter` sorts them once and binds their
``state_key`` methods, in order, into a *plan*: a zero-argument callable
that calls each method and hashes the tuple of results. The explorer
builds one plan per run and calls it at every fingerprinted decision
point. :func:`state_fingerprint` is ``fingerprinter(result)()``, so
both go through one path and one profile site.

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

import functools
from typing import Any, Callable

from repro.obs.profile import profiled


def fingerprinter(result) -> Callable[[], int]:
    """The fingerprint plan of a built scenario: a zero-argument callable
    returning the fingerprint of its current global state.

    *result* is a :class:`repro.workloads.scenarios.ScenarioResult`. The
    plan returns ``hash()`` of the tuple of component keys: fingerprints
    are compared only within one explorer invocation (one process and its
    forked workers), so the per-process salting of ``hash`` is harmless.
    """
    keys: list[Callable[[], Any]] = []
    for system in sorted(result.systems, key=lambda s: s.name):
        keys.extend(mcs.state_key for mcs in sorted(system.mcs_processes, key=lambda m: m.name))
        keys.extend(app.state_key for app in sorted(system.app_processes, key=lambda a: a.name))
    keys.extend(isp.state_key for isp in result.is_processes())
    keys.append(result.sim.pending_signature)
    keys.append(result.recorder.signature)
    return functools.partial(_fingerprint, tuple(keys))


@profiled("explore.state_fingerprint")
def _fingerprint(keys: tuple[Callable[[], Any], ...]) -> int:
    return hash(tuple([key() for key in keys]))


def state_fingerprint(result) -> int:
    """Fingerprint the global state of a (possibly mid-run) scenario once."""
    return fingerprinter(result)()


__all__ = ["fingerprinter", "state_fingerprint"]
