"""Protocol specifications.

A :class:`ProtocolSpec` is a factory for MCS-processes plus the metadata
the interconnection layer needs — crucially whether the protocol satisfies
the paper's Causal Updating Property (Property 1), which decides between
IS-protocol 1 and IS-protocol 2 (§3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError
from repro.memory.interface import MCSProcess
from repro.sim.core import Simulator
from repro.sim.network import Network

MCSFactory = Callable[..., MCSProcess]


@dataclass(frozen=True)
class ProtocolSpec:
    """Metadata + factory for one MCS protocol.

    Attributes:
        name: human-readable protocol name.
        factory: callable building one MCS-process; invoked with the same
            keyword arguments as :class:`repro.memory.interface.MCSProcess`
            plus any ``options``.
        causal_updating: True if the protocol guarantees Property 1
            (causally ordered writes update the IS replica in causal
            order). All published causal protocols do; our
            :mod:`repro.protocols.delayed` variant does not.
        consistency: the model the protocol implements, one of
            ``{"causal", "sequential", "cache", "pram", "none"}`` — used
            by tests and benchmarks to pick the right checker.
        options: extra keyword arguments passed to the factory.
    """

    name: str
    factory: MCSFactory
    causal_updating: bool = True
    consistency: str = "causal"
    options: Mapping[str, Any] = field(default_factory=dict)

    def build(
        self,
        sim: Simulator,
        name: str,
        network: Network,
        proc_index: int,
        system_name: str,
        segment: str = "default",
    ) -> MCSProcess:
        """Instantiate one MCS-process of this protocol."""
        mcs = self.factory(
            sim=sim,
            name=name,
            network=network,
            proc_index=proc_index,
            system_name=system_name,
            segment=segment,
            **dict(self.options),
        )
        if sim.tracer is not None:
            sim.trace(
                "mcs.built",
                name,
                system=system_name,
                protocol=self.name,
                segment=segment,
            )
        return mcs

    def with_options(self, **options: Any) -> "ProtocolSpec":
        """A copy of this spec with extra factory options merged in."""
        merged = {**self.options, **options}
        return ProtocolSpec(
            name=self.name,
            factory=self.factory,
            causal_updating=self.causal_updating,
            consistency=self.consistency,
            options=merged,
        )


_REGISTRY: dict[str, ProtocolSpec] = {}


def register(spec: ProtocolSpec) -> ProtocolSpec:
    """Register *spec* under its name for lookup by :func:`get`."""
    if spec.name in _REGISTRY:
        raise ConfigurationError(f"protocol {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ProtocolSpec:
    """Look up a registered protocol spec by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(f"unknown protocol {name!r}; known: {known}") from None


def available() -> list[str]:
    """Names of all registered protocols."""
    return sorted(_REGISTRY)


__all__ = ["ProtocolSpec", "register", "get", "available"]
