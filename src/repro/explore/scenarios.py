"""Catalogue of small-scope scenarios the explorer can rebuild by name.

Replay needs to reconstruct a scenario *identically* on any machine, so a
schedule stores only a name from this registry, never pickled state. Each
entry is a :class:`~repro.workloads.scenarios.Cast` (a module constant,
built once) and its factory is ``functools.partial(build, cast)``, so
``factory(seed=N)`` is deterministic. Every catalogued cast uses zero
delays throughout (system and inter-system links, slow links, start
delays, poll intervals), which hands the entire interleaving space to
the scheduler (the explorer only reorders same-timestamp events).

Positive scenarios (``expect_violation=False``) are small-scope instances
of Theorem 1: exhausting them certifies that *no* admissible interleaving
breaks causality of S^T. Negative controls (``expect_violation=True``)
ablate an ingredient the paper proves necessary — the IS read before
propagation, or causal (rather than sender-FIFO) application — and the
explorer must *find* the violating schedule.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from repro.errors import ExplorationError
from repro.memory.program import Read, Write
from repro.protocols import get
from repro.workloads import scenarios as casts
from repro.workloads.scenarios import App, Cast, Member, ScenarioResult, build


@dataclass(frozen=True)
class ExploreScenario:
    """A named, reproducible scenario for exploration and replay."""

    name: str
    cast: Cast
    description: str
    expect_violation: bool = False

    @property
    def factory(self) -> Callable[..., ScenarioResult]:
        """Build a fresh run of the cast: ``factory(seed=0)``."""
        return functools.partial(build, self.cast)


#: The catalogue, one row per cast: name, cast, expect_violation, description.
SCENARIOS: dict[str, ExploreScenario] = {
    name: ExploreScenario(name, cast, description, expect_violation)
    for name, cast, expect_violation, description in [
        ("bridge-p1", casts.SMALL_BRIDGE_P1, False,
         "2 systems x 2 processes x 2 writes over a bridge running IS-protocol 1; "
         "causal-updating MCS, expect causal S^T in every interleaving"),
        ("bridge-p2", casts.SMALL_BRIDGE_P2, False,
         "the same 2x2x2 bridge under IS-protocol 2 (pre-update reads); expect "
         "causal S^T in every interleaving"),
        ("bridge-noread", casts.SMALL_NOREAD, True,
         "section-3 ablation: the IS-process propagates without reading, so some "
         "interleaving shows the overwrite before the overwritten value"),
        ("bridge-noread-control", casts.SMALL_NOREAD_CONTROL, False,
         "the same cast with the IS read restored; no interleaving may violate causality"),
        ("faulty-fifo", casts.SMALL_FIFO, True,
         "single system on the sender-FIFO apply protocol; some interleaving violates "
         "transitive causality (A writes x, B relays to y, C sees y without x)"),
        ("chain3-p1", Cast((
            Member(get("vector-causal"), 0.0, (App("S0/p0", (Write("x", "a"),)),)),
            Member(get("vector-causal"), 0.0, (App("S1/r", (Read("x"), Read("x"))),)),
            Member(get("vector-causal"), 0.0, (App("S2/q0", (Write("x", "c"),)),)),
        ), delay=0.0, use_pre_update=False), False,
         "3 systems in a chain under IS-protocol 1 (Corollary 1): the end systems race "
         "writes to x across both bridges, the middle one reads twice; expect causal "
         "S^T in every interleaving"),
    ]
}


def get_scenario(name: str) -> ExploreScenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ExplorationError(
            f"unknown exploration scenario {name!r}; known: {known}"
        ) from None


__all__ = ["ExploreScenario", "SCENARIOS", "get_scenario"]
