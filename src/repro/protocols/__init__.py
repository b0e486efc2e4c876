"""MCS protocol implementations.

Importing this package registers every built-in protocol with the
registry in :mod:`repro.protocols.base`; look specs up with
:func:`repro.protocols.get`.
"""

from repro.protocols.base import ProtocolSpec, available, get, register
from repro.protocols.delayed import DELAYED_CAUSAL, DelayedApplyMCS
from repro.protocols.faulty import FIFO_APPLY, SCRAMBLED_APPLY, FifoApplyMCS, ScrambledApplyMCS
from repro.protocols.hybrid import HYBRID, HybridMCS
from repro.protocols.invalidation import INVALIDATION_CAUSAL, InvalidationCausalMCS
from repro.protocols.lamport_total import LAMPORT_SEQUENTIAL, LamportSequentialMCS
from repro.protocols.parametrized import (
    PARAMETRIZED_CACHE,
    PARAMETRIZED_CAUSAL,
    PARAMETRIZED_SEQUENTIAL,
    ParametrizedMCS,
)
from repro.protocols.partial import (
    PARTIAL_CAUSAL,
    PARTIAL_CAUSAL_SINGLE,
    PartialReplicationMCS,
)
from repro.protocols.sequential import SEQUENTIAL, CacheMCS, SequentialMCS
from repro.protocols.vector import VECTOR_CAUSAL, VectorCausalMCS

__all__ = [
    "ProtocolSpec",
    "register",
    "get",
    "available",
    "VectorCausalMCS",
    "VECTOR_CAUSAL",
    "SequentialMCS",
    "CacheMCS",
    "SEQUENTIAL",
    "ParametrizedMCS",
    "PARAMETRIZED_CAUSAL",
    "PARAMETRIZED_SEQUENTIAL",
    "PARAMETRIZED_CACHE",
    "DelayedApplyMCS",
    "DELAYED_CAUSAL",
    "PartialReplicationMCS",
    "PARTIAL_CAUSAL",
    "PARTIAL_CAUSAL_SINGLE",
    "InvalidationCausalMCS",
    "INVALIDATION_CAUSAL",
    "LamportSequentialMCS",
    "LAMPORT_SEQUENTIAL",
    "HybridMCS",
    "HYBRID",
    "FifoApplyMCS",
    "ScrambledApplyMCS",
    "FIFO_APPLY",
    "SCRAMBLED_APPLY",
]
