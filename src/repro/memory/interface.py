"""The Attiya–Welch MCS architecture (§2 of the paper).

The DSM is implemented by a *memory consistency system* (MCS) of
cooperating MCS-processes. Each application process is attached to one
MCS-process and interacts with it through blocking read/write *calls*;
the MCS-process eventually *responds*, which completes the operation.

For the interconnection the paper extends the IS-process <-> MCS-process
interface with two blocking upcalls, delivered around updates of the
MCS-process's local replicas that were *not* caused by the IS-process's
own writes:

* ``pre_update(x)`` — immediately before the replica of ``x`` changes
  (optional; IS-protocol 1 disables it),
* ``post_update(x, v)`` — immediately after.

While an upcall is being processed the MCS-process is blocked, and reads
issued by the IS-process during the upcall must complete and return the
pre-/post-update value respectively (conditions (a)–(c) in §2). In this
simulation upcalls are synchronous calls and protocol reads are served
locally, so the conditions hold by construction; protocols whose replica
updates are asynchronous (e.g. :mod:`repro.protocols.delayed`) must take
explicit care, as discussed in that module.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, TYPE_CHECKING

from repro.errors import ProtocolError, SimulationError
from repro.memory.operations import OpKind
from repro.memory.program import Program, Read, Sleep, Write
from repro.sim.core import Simulator
from repro.sim.network import Network
from repro.sim.process import SimProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.recorder import HistoryRecorder


def callback_names(callbacks: Iterable[Callable[..., Any]]) -> tuple[str, ...]:
    """State-key form of a protocol's pending response callbacks, in order.

    A callback's qualified name tells an application driver's pending
    call from an IS-process's (``AppProcess._execute.<locals>...`` vs
    ``ISProcess._drain_writes.<locals>...``), which is all a state key
    needs: the closures themselves are not values.
    """
    return tuple(
        getattr(callback, "__qualname__", type(callback).__name__)
        for callback in callbacks
    )


class UpcallHandler:
    """Interface an IS-process implements to receive replica-update upcalls."""

    #: Whether the MCS-process should deliver ``pre_update`` upcalls.
    wants_pre_update: bool = False

    #: False while the handler's process is crashed: the MCS-process then
    #: queues ``post_update`` notifications instead of delivering them (see
    #: :attr:`MCSProcess.missed_upcalls`), to be drained at recovery.
    accepting_upcalls: bool = True

    def pre_update(self, var: str) -> None:
        """Called immediately before the local replica of *var* changes."""

    def post_update(self, var: str, value: Any) -> None:
        """Called immediately after the local replica of *var* changed."""


class MCSProcess(SimProcess):
    """Base class for MCS-processes; protocol behaviour lives in subclasses.

    Subclasses implement :meth:`_handle_write`, :meth:`_handle_read`, and
    :meth:`_on_message`, and call :meth:`_apply_with_upcalls` whenever they
    update a local replica so the IS upcall contract is honoured.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        network: Network,
        proc_index: int,
        system_name: str,
        segment: str = "default",
    ) -> None:
        super().__init__(sim, name)
        self.network = network
        self.proc_index = proc_index
        self.system_name = system_name
        self.segment = segment
        self.upcall_handler: Optional[UpcallHandler] = None
        #: Replica updates that occurred while the attached handler was not
        #: accepting upcalls (its IS-process had crashed), in apply order.
        #: The recovery layer drains these and propagates them late — the
        #: dial-up spirit of §1.1 applied to process failures.
        self.missed_upcalls: list[tuple[str, Any]] = []
        network.add_node(name, self._on_message, segment=segment)

    # -- application-facing call interface --------------------------------

    def issue_write(
        self, var: str, value: Any, done: Callable[[], None], strong: bool = False
    ) -> None:
        """Write call; *done* fires when the MCS-process responds.

        *strong* requests per-operation strong ordering; the base
        implementation ignores it (most protocols have one write class) —
        protocols supporting operation strength override this method.
        """
        self._handle_write(var, value, done)

    def issue_read(self, var: str, done: Callable[[Any], None]) -> None:
        """Read call; *done* receives the value in the response."""
        self._handle_read(var, done)

    # -- IS-process attachment --------------------------------------------

    def attach_upcall_handler(self, handler: UpcallHandler) -> None:
        """Attach the IS-process that should receive replica-update upcalls."""
        if self.upcall_handler is not None:
            raise ProtocolError(f"{self.name} already has an upcall handler")
        self.upcall_handler = handler

    @property
    def has_interconnect(self) -> bool:
        return self.upcall_handler is not None

    def drain_missed_upcalls(self) -> list[tuple[str, Any]]:
        """Hand over (and clear) the updates queued while the handler was down."""
        missed = self.missed_upcalls
        self.missed_upcalls = []
        return missed

    def _apply_with_upcalls(
        self,
        var: str,
        value: Any,
        apply: Callable[[], None],
        own_write: bool,
    ) -> None:
        """Apply a replica update, delivering upcalls around it.

        *own_write* marks updates caused by a write issued by this
        MCS-process's attached application process; per §2 these generate
        no upcalls (otherwise propagated writes would bounce back).
        """
        handler = self.upcall_handler
        if handler is not None and not own_write and not handler.accepting_upcalls:
            # The attached IS-process is down. Apply the update and queue
            # the notification; recovery will propagate it late.
            apply()
            self._replica_applied(var, value, own_write)
            self.missed_upcalls.append((var, value))
            return
        if handler is not None and not own_write:
            if handler.wants_pre_update:
                handler.pre_update(var)
            apply()
            self._replica_applied(var, value, own_write)
            handler.post_update(var, value)
        else:
            apply()
            self._replica_applied(var, value, own_write)

    def _replica_applied(self, var: str, value: Any, own_write: bool) -> None:
        """Trace every replica update (own writes included); the latency
        metrics reduce these ``replica.apply`` events."""
        if self.sim.instruments is not None:
            self.sim.trace(
                "replica.apply",
                self.name,
                system=self.system_name,
                var=var,
                value=value,
                own_write=own_write,
                clock=getattr(self, "clock", None),
            )

    # -- subclass responsibilities ----------------------------------------

    def _handle_write(self, var: str, value: Any, done: Callable[[], None]) -> None:
        raise NotImplementedError

    def _handle_read(self, var: str, done: Callable[[Any], None]) -> None:
        raise NotImplementedError

    def _on_message(self, src: str, payload: Any) -> None:
        raise NotImplementedError

    def local_value(self, var: str) -> Any:
        """Current value of the local replica of *var* (diagnostics)."""
        raise NotImplementedError

    def state_key(self) -> tuple:
        """Everything about this process that can influence the future.

        A flat tuple of immutable values that hash and compare by value:
        clock, store, buffers, counters and :attr:`missed_upcalls`. The
        schedule explorer merges two states whose keys are equal, so a
        field left out is an unsound merge (see
        :mod:`repro.explore.fingerprint`). Constant identity fields
        (``name``, ``proc_index``, ``segment``) may be left out.
        """
        raise NotImplementedError(
            f"{type(self).__name__} defines no state_key(); the schedule "
            "explorer cannot fingerprint it"
        )


class AppProcess(SimProcess):
    """Drives a program against an MCS-process and records the operations.

    The process issues one call at a time — it blocks until the response
    arrives (the paper's call/response discipline) — and then waits
    *think_time* before the next command.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mcs: MCSProcess,
        program: Program,
        recorder: "HistoryRecorder",
        think_time: float | Callable[[], float] = 0.0,
        is_interconnect: bool = False,
    ) -> None:
        super().__init__(sim, name)
        self.mcs = mcs
        # The driver's events (program advances, think-time wakeups) all
        # act on its MCS-process, so they share its scheduling domain: a
        # SchedulerPolicy must serialise them against deliveries to that
        # replica, but may freely interleave them with other components.
        self.event_tag = f"proc:{getattr(mcs, 'name', name)}"
        self.recorder = recorder
        self.is_interconnect = is_interconnect
        self._think_time = think_time
        self._program = self._as_generator(program)
        self._blocked = False
        self.done = False
        self.ops_completed = 0
        #: Program commands taken so far: the driver's program position.
        self.commands_issued = 0

    @staticmethod
    def _as_generator(program: Program):
        if hasattr(program, "send"):
            return program
        plain = iter(program)

        def wrap():
            feedback = None
            for command in plain:
                feedback = yield command
                del feedback  # plain programs ignore read results

        return wrap()

    def start(self, delay: float = 0.0) -> None:
        """Begin executing the program *delay* time units from now."""
        self.after(delay, lambda: self._advance(None, first=True))

    @property
    def blocked(self) -> bool:
        """True while a call is outstanding (deadlock diagnostics)."""
        return self._blocked

    def _next_think_time(self) -> float:
        if callable(self._think_time):
            return self._think_time()
        return self._think_time

    def _advance(self, feedback: Any, first: bool = False) -> None:
        try:
            command = next(self._program) if first else self._program.send(feedback)
        except StopIteration:
            self.done = True
            return
        self._execute(command)

    def state_key(self) -> tuple:
        """The driver's progress; see :meth:`MCSProcess.state_key`.

        ``commands_issued`` separates a driver with a read response
        pending from one whose follow-up ``Sleep`` is pending: both show
        the same history and the same pending ``(time, tag)`` events.
        """
        return (self.ops_completed, self.done, self._blocked, self.commands_issued)

    def _execute(self, command: Any) -> None:
        self.commands_issued += 1
        if isinstance(command, Sleep):
            self.after(command.duration, lambda: self._advance(None))
        elif isinstance(command, Write):
            self._blocked = True
            issue_time = self.now

            def on_write_done() -> None:
                self._blocked = False
                self._record(OpKind.WRITE, command.var, command.value, issue_time)
                self.after(self._next_think_time(), lambda: self._advance(None))

            self.mcs.issue_write(
                command.var, command.value, on_write_done,
                strong=getattr(command, "strong", False),
            )
        elif isinstance(command, Read):
            self._blocked = True
            issue_time = self.now

            def on_read_done(value: Any) -> None:
                self._blocked = False
                self._record(OpKind.READ, command.var, value, issue_time)
                self.after(self._next_think_time(), lambda: self._advance(value))

            self.mcs.issue_read(command.var, on_read_done)
        else:
            raise SimulationError(f"unknown program command {command!r}")

    def _record(self, kind: OpKind, var: str, value: Any, issue_time: float) -> None:
        self.ops_completed += 1
        instruments = self.sim.instruments
        if instruments is not None:
            if instruments.metrics is not None:
                instruments.metrics.counter(
                    "ops_completed_total",
                    system=self.mcs.system_name,
                    kind=kind.value,
                ).inc()
            if instruments.tracer is not None:
                # Span from issue to response: the operation's latency as
                # one Chrome "complete" bar on the issuing process's row.
                instruments.tracer.emit(
                    issue_time,
                    "op",
                    self.name,
                    system=self.mcs.system_name,
                    phase="X",
                    dur=self.now - issue_time,
                    clock=getattr(self.mcs, "clock", None),
                    op=kind.value,
                    var=var,
                    value=value,
                    interconnect=self.is_interconnect,
                )
        self.recorder.record(
            kind=kind,
            proc=self.name,
            var=var,
            value=value,
            system=self.mcs.system_name,
            issue_time=issue_time,
            response_time=self.now,
            is_interconnect=self.is_interconnect,
        )


__all__ = ["MCSProcess", "AppProcess", "UpcallHandler", "callback_names"]
