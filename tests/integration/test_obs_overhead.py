"""Zero-overhead guard: instrumentation must never perturb a run.

Two pins:

* an instrumented-on seeded run produces a byte-identical serialised
  history to the same run with instrumentation off, and
* the instrumentation-off history matches a golden digest recorded from
  the pre-instrumentation tree (commit c659db9), so the hooks cannot
  have changed uninstrumented behaviour either.
"""

import hashlib

import pytest

from repro.obs import ListSink, MetricsRegistry, Tracer
from repro.trace import dumps_history
from repro.workloads import WorkloadSpec, build_interconnected
from repro.workloads.scenarios import run_until_quiescent

#: sha256 of ``dumps_history`` for the scenario below, computed on the
#: tree *before* the instrumentation layer existed. If this changes, a
#: hook has altered simulation behaviour — that is a bug, not a test to
#: update casually.
GOLDEN_SHA256 = "3f719dc02b2db54240f0ef4084cbaec22fe5a937d254c694fc9d86132562d265"


def run_scenario(tracer=None, metrics=None):
    spec = WorkloadSpec(processes=3, ops_per_process=5, write_ratio=0.6)
    result = build_interconnected(
        ["vector-causal", "parametrized-causal", "lamport-sequential"],
        spec,
        topology="star",
        seed=42,
        tracer=tracer,
        metrics=metrics,
    )
    run_until_quiescent(result.sim, result.systems)
    return result


def history_bytes(result) -> bytes:
    return dumps_history(result.recorder.history()).encode("utf-8")


class TestZeroOverhead:
    def test_uninstrumented_run_matches_golden_digest(self):
        digest = hashlib.sha256(history_bytes(run_scenario())).hexdigest()
        assert digest == GOLDEN_SHA256

    def test_instrumented_run_is_byte_identical(self):
        plain = history_bytes(run_scenario())
        traced = history_bytes(
            run_scenario(tracer=Tracer(ListSink()), metrics=MetricsRegistry())
        )
        assert traced == plain
        assert hashlib.sha256(traced).hexdigest() == GOLDEN_SHA256

    def test_tracer_only_and_metrics_only(self):
        assert (
            hashlib.sha256(
                history_bytes(run_scenario(tracer=Tracer(ListSink())))
            ).hexdigest()
            == GOLDEN_SHA256
        )
        assert (
            hashlib.sha256(
                history_bytes(run_scenario(metrics=MetricsRegistry()))
            ).hexdigest()
            == GOLDEN_SHA256
        )

    def test_instrumentation_observed_the_run(self):
        # The identical-history guarantee would be vacuous if the hooks
        # never fired; make sure they did.
        tracer = Tracer(ListSink())
        registry = MetricsRegistry()
        run_scenario(tracer=tracer, metrics=registry)
        assert tracer.count > 0
        assert registry.total("net_messages_total") > 0
        assert registry.total("ops_completed_total") == 3 * 5 * 3


#: sha256 of ``dumps_history`` for each protocol below bridged to
#: ``vector-causal`` (3 x 6 ops, seed 42), recorded before the protocols
#: shared one causal hold-back queue. The invalidation entry was
#: re-recorded when a late fetch reply stopped overwriting a newer valid
#: replica (the parent's digest began ``12ff5d77``).
HOLDBACK_GOLDEN = {
    "hybrid": "91f8d02ec27116fca70ad695fa62a6d38314ae228707717d6954b6578acdb035",
    "delayed-causal": "e383ff5a879bce96e92fe4caa995716f6b5b4e7b88916e5385e8da5b25d810ad",
    "precise-causal": "0de8f2175984254ddf6cfee150d067ddeef4ea08cf2f0a19a341d8dafd93839c",
    "partial-causal": "b2000878c33ec975143999f5d0483f7c05627119921a7663f54e9630ac190aa5",
    "invalidation-causal": "7554f7486898d30fd4dc059cd503893e23c240fc0e536ad8b16513534a0b42a1",
}


def run_bridged(protocol, tracer=None):
    # Hybrid runs with strong writes, so its sequencer path is pinned too.
    strong_ratio = 0.4 if protocol == "hybrid" else 0.0
    spec = WorkloadSpec(
        processes=3, ops_per_process=6, write_ratio=0.6, strong_ratio=strong_ratio
    )
    result = build_interconnected([protocol, "vector-causal"], spec, seed=42, tracer=tracer)
    run_until_quiescent(result.sim, result.systems)
    return result


class TestHoldBackGoldenDigests:
    @pytest.mark.parametrize("protocol", sorted(HOLDBACK_GOLDEN))
    def test_history_matches_golden_digest(self, protocol):
        result = run_bridged(protocol)
        if protocol == "hybrid":
            assert any(mcs.strong_apply_log for mcs in result.systems[0].mcs_processes)
        digest = hashlib.sha256(history_bytes(result)).hexdigest()
        assert digest == HOLDBACK_GOLDEN[protocol]


class TestRunRelativeRequestIds:
    @pytest.mark.parametrize("protocol", ["invalidation-causal", "partial-causal"])
    def test_repeated_runs_send_identical_payloads(self, protocol):
        # Fetch and remote-read ids come from per-process counters, so a
        # second identical run in the same process sends the same messages.
        def sends():
            sink = ListSink()
            run_bridged(protocol, tracer=Tracer(sink))
            return [event.args for event in sink.events if event.kind == "net.send"]

        first = sends()
        assert first == sends()
