"""Systematic schedule exploration for small bridge scenarios.

The paper's guarantees (Lemmas 2-6, Theorem 1) quantify over *every*
admissible interleaving of MCS, channel and IS-process events; the rest of
the test suite only samples that space through per-seed random runs. This
package turns the causal checker and the Theorem 1 construction into a
small-scope model checker:

* :mod:`repro.explore.engine` — a replay-based DFS over scheduling
  decisions, with sleep-set-style partial-order reduction and
  state-fingerprint pruning; :func:`explore` is the one search entry
  point, sequential or (``jobs >= 2``) fanned out over forked workers
  by :mod:`repro.explore.parallel`;
* :mod:`repro.explore.fingerprint` — canonical hashing of the global
  state (replica contents, in-flight messages, IS-process state);
* :mod:`repro.explore.shrink` — delta-debugging minimisation of failing
  decision traces;
* :mod:`repro.explore.schedule` — JSON (de)serialisation and deterministic
  replay of counterexample schedules;
* :mod:`repro.explore.scenarios` — the catalogue of small-scope scenarios
  the explorer knows how to rebuild from a name.

See ``docs/explorer.md`` for the search strategy and the replay format.
"""

from repro.explore.engine import (
    Counterexample,
    ExploreResult,
    explore,
    run_with_trace,
)
from repro.explore.scenarios import SCENARIOS, ExploreScenario, get_scenario
from repro.explore.schedule import (
    Schedule,
    load_schedule,
    replay_schedule,
    save_schedule,
)
from repro.explore.shrink import shrink_counterexample, shrink_trace

__all__ = [
    "explore",
    "ExploreResult",
    "Counterexample",
    "run_with_trace",
    "SCENARIOS",
    "ExploreScenario",
    "get_scenario",
    "Schedule",
    "load_schedule",
    "save_schedule",
    "replay_schedule",
    "shrink_trace",
    "shrink_counterexample",
]
