"""repro — reproduction of "On the interconnection of causal memory systems"
(Fernández, Jiménez, Cholvi; PODC 2000 / JPDC 64, 2004).

The library provides, bottom-up:

* :mod:`repro.sim` — deterministic discrete-event simulation: event loop,
  vector/Lamport clocks, reliable FIFO channels with delay and
  availability models, per-system networks with traffic accounting;
* :mod:`repro.memory` — the Attiya–Welch MCS architecture: operations,
  computations (histories), application processes, MCS-processes with the
  paper's ``pre_update``/``post_update`` upcall interface;
* :mod:`repro.protocols` — MCS protocols: vector-clock causal memory,
  Attiya–Welch sequential consistency, a parametrized
  causal/sequential/cache protocol, a non-causal-updating causal
  protocol, and deliberately weak protocols for checker validation;
* :mod:`repro.interconnect` — the paper's contribution: IS-processes
  running IS-protocols 1 and 2, pairwise bridges, tree interconnection of
  any number of systems;
* :mod:`repro.checker` — causal/sequential/PRAM/cache consistency
  checkers over recorded computations (polynomial bad-pattern checker
  plus a certificate-producing view search);
* :mod:`repro.workloads`, :mod:`repro.obs`, :mod:`repro.analysis` —
  workload generators, measurement (tracing, the metrics registry and
  the §6 traffic and visibility reducers), and the §6 analytical model.

Quickstart::

    from repro import (
        Simulator, DSMSystem, HistoryRecorder, Write, Read, Sleep,
        get_protocol, interconnect, run_until_quiescent, check_causal,
    )

    sim = Simulator()
    recorder = HistoryRecorder()
    s0 = DSMSystem(sim, "S0", get_protocol("vector-causal"), recorder=recorder)
    s1 = DSMSystem(sim, "S1", get_protocol("vector-causal"), recorder=recorder)
    s0.add_application("alice", [Write("x", 1), Read("y")])
    s1.add_application("bob", [Write("y", 2), Read("x")])
    interconnect([s0, s1])
    run_until_quiescent(sim, [s0, s1])
    assert check_causal(recorder.history().without_interconnect()).ok
"""

from repro.checker import (
    CheckResult,
    Violation,
    check_cache,
    check_causal,
    check_causal_by_views,
    check_pram,
    check_sequential,
)
from repro.errors import (
    ChannelError,
    CheckerError,
    ConfigurationError,
    DeadlockError,
    ProtocolError,
    ReproError,
    SimulationError,
    TopologyError,
)
from repro.interconnect import Bridge, Interconnection, ISProcess, connect, interconnect
from repro.memory import (
    INITIAL_VALUE,
    AppProcess,
    DSMSystem,
    History,
    HistoryRecorder,
    MCSProcess,
    Operation,
    OpKind,
    Read,
    Sleep,
    UpcallHandler,
    Write,
)
from repro.protocols import available as available_protocols
from repro.protocols import get as get_protocol
from repro.sim import Simulator, VectorClock
from repro.workloads import (
    ScenarioResult,
    ValueFactory,
    WorkloadSpec,
    build_interconnected,
    populate_system,
    run_until_quiescent,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # simulation
    "Simulator",
    "VectorClock",
    # memory
    "DSMSystem",
    "History",
    "HistoryRecorder",
    "Operation",
    "OpKind",
    "INITIAL_VALUE",
    "AppProcess",
    "MCSProcess",
    "UpcallHandler",
    "Read",
    "Write",
    "Sleep",
    # protocols
    "get_protocol",
    "available_protocols",
    # interconnection
    "ISProcess",
    "Bridge",
    "connect",
    "Interconnection",
    "interconnect",
    # checking
    "check_causal",
    "check_causal_by_views",
    "check_sequential",
    "check_pram",
    "check_cache",
    "CheckResult",
    "Violation",
    # workloads
    "ValueFactory",
    "WorkloadSpec",
    "populate_system",
    "build_interconnected",
    "run_until_quiescent",
    "ScenarioResult",
    # errors
    "ReproError",
    "SimulationError",
    "ChannelError",
    "ProtocolError",
    "ConfigurationError",
    "TopologyError",
    "CheckerError",
    "DeadlockError",
]
