"""Zero-overhead guard: instrumentation must never perturb a run.

Two pins:

* an instrumented-on seeded run produces a byte-identical serialised
  history to the same run with instrumentation off, and
* the instrumentation-off history matches a golden digest recorded from
  the pre-instrumentation tree (commit c659db9), so the hooks cannot
  have changed uninstrumented behaviour either.
"""

import hashlib
import json

import pytest

from repro.obs import ListSink, MetricsRegistry, Tracer
from repro.protocols import available
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


def run_bridged(protocol, tracer=None, use_pre_update=None):
    # Hybrid runs with strong writes, so its sequencer path is pinned too.
    strong_ratio = 0.4 if protocol == "hybrid" else 0.0
    spec = WorkloadSpec(
        processes=3, ops_per_process=6, write_ratio=0.6, strong_ratio=strong_ratio
    )
    result = build_interconnected(
        [protocol, "vector-causal"], spec, seed=42, use_pre_update=use_pre_update,
        tracer=tracer,
    )
    run_until_quiescent(result.sim, result.systems)
    return result


def trace_bytes(events) -> bytes:
    """The trace stream as ``JsonlSink`` writes it."""
    return "".join(
        json.dumps(event.to_json(), sort_keys=True) + "\n" for event in events
    ).encode("utf-8")


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


#: sha256 of the history and of the trace stream of every registered
#: protocol bridged to ``vector-causal`` (``run_bridged``), under the
#: default IS-protocol and under IS-protocol 2 (``use_pre_update=True``).
#: Recorded before the replica (store, apply count, reads and the
#: upcall-bracketed commit) moved from the protocols into MCSProcess.
PROTOCOL_GOLDEN = {
    "aw-sequential": {
        "default": (
            "e7475342abf5c6dc7e91a68db5dc99fad4cf6ad3f2ad4b01d4ce32965202cbb8",
            "51b45f0cbad4e65a7a34c63aadcab759889432ad7f25bff061a51d3fe2affe40",
        ),
        "pre-update": (
            "9078047462292083b4e494c31dbb6e43c7bfb953a5a0a36b960eebfbc487f5db",
            "eb27a266e782c070dad144b30c552f723be8477a895f62c975ff26862dae60c5",
        ),
    },
    "delayed-causal": {
        "default": (
            "e383ff5a879bce96e92fe4caa995716f6b5b4e7b88916e5385e8da5b25d810ad",
            "2e8a0f61c6fa79ba00f1b8048c1678f315dc034091d2d2942798acb5950fdef1",
        ),
        "pre-update": (
            "77646e9f7db13e0fd8269f26c26072420b77cac9f91e327cb35973e9b2f73527",
            "5b7bb2d9d7e5eba68b3e741a7f3e90a87858c0cd647d40e71503b8301a97b3d1",
        ),
    },
    "fifo-apply": {
        "default": (
            "e383ff5a879bce96e92fe4caa995716f6b5b4e7b88916e5385e8da5b25d810ad",
            "e30b7c1960ca159e1a83b37ed7b0362cb44cdf0c2d70d33070ff7ddf427b935f",
        ),
        "pre-update": (
            "77646e9f7db13e0fd8269f26c26072420b77cac9f91e327cb35973e9b2f73527",
            "9bce15142dc0bc1881bfc7c209d797a333008d056c333dbd7abfa8cf0531f97d",
        ),
    },
    "hybrid": {
        "default": (
            "91f8d02ec27116fca70ad695fa62a6d38314ae228707717d6954b6578acdb035",
            "1f9b2fc807f2862576fbd3d791f3a8b9902c599f1518584685aa621ee8f37b63",
        ),
        "pre-update": (
            "1ff1395e09b320cecbcec67eb4c154bf12b0873a1e53729fb9755a7f06d78b0a",
            "cf9f28209adf7349cb5140f3e3096a9b8bbaa68fb6d5856c60e43b3f337787bd",
        ),
    },
    "invalidation-causal": {
        "default": (
            "7554f7486898d30fd4dc059cd503893e23c240fc0e536ad8b16513534a0b42a1",
            "519dcc4b7a4a30a0b589e18986395ecbe1592ad826537e4662df5f7ec14bce9f",
        ),
        "pre-update": (
            "b517434920eadb07b0961d2b7657bdd890961450ac1c00f37d23966ff0d5e1c9",
            "2a962f7a41aaaf77c64a214675ebab49813d27d4c3804e5e2aada24376a9e0e1",
        ),
    },
    "lamport-sequential": {
        "default": (
            "21e159c8ea3ff293de32b96b83173e6d029644f1950020356821866757db9a2d",
            "1fc92340e804f8a7a4aa881e672bf4bc3ab617eb80c2fe0b14467c2cc22f4aac",
        ),
        "pre-update": (
            "0e0c92012765f0df9345016bb187f60eb8ca14178aba4644df73c11707939c06",
            "524ef88583090ae4f4c87ea19952f117fad80381dd10279fa30d84ed37f85ce6",
        ),
    },
    "parametrized-cache": {
        "default": (
            "0c791dd9d5f631364d1f1b7f10927f1659d95b0b8df100be2854c73b57943e9e",
            "a40e1c177e4029055fc17fed61bc131616a8b7f12104ccdbd4e08e97796c0c0c",
        ),
        "pre-update": (
            "bd5b471a869095957a1eebf4e5ad227ed53041eff4ca6d9bd34271affd33ff6b",
            "250831a8251f0b7df3510344c922930830960d6a3df079650bce2e9ffa5cfaab",
        ),
    },
    "parametrized-causal": {
        "default": (
            "0de8f2175984254ddf6cfee150d067ddeef4ea08cf2f0a19a341d8dafd93839c",
            "5a1e676a7325ad439756602350c3740f655c5a1800a7668e517b931db081371b",
        ),
        "pre-update": (
            "77646e9f7db13e0fd8269f26c26072420b77cac9f91e327cb35973e9b2f73527",
            "8d1e9a3d082b1a6415d723004d9a25246323357022f9f3a3931e7e2c29fd0117",
        ),
    },
    "parametrized-sequential": {
        "default": (
            "e7475342abf5c6dc7e91a68db5dc99fad4cf6ad3f2ad4b01d4ce32965202cbb8",
            "5d9ae67c47318faedc72827ae6d75b6e6eef8c082323507d5975fe1b31e7b94b",
        ),
        "pre-update": (
            "9078047462292083b4e494c31dbb6e43c7bfb953a5a0a36b960eebfbc487f5db",
            "a5de285ce2730966ceb18f0c1e2aab06926906179eec29362a3594ff2e3fbaf3",
        ),
    },
    "partial-causal": {
        "default": (
            "b2000878c33ec975143999f5d0483f7c05627119921a7663f54e9630ac190aa5",
            "9a6db35825bb637b615da550ddbd1d4a6eb87a6e4714413951cbac71389c2b31",
        ),
        "pre-update": (
            "8f3bfd2741fb944005862385298db016865ad1c2fea6a49c3dcbbe25c26e57af",
            "b7a32dd40c48c136dea4bacd88b285934bba761ec792b6d32b026b9fbcbfba93",
        ),
    },
    "partial-causal-single": {
        "default": (
            "5667c7d98425f7f9df0ba6aa99b12a284c27e691a81757ddc50fbf02ceb203bd",
            "7af3eadbcb10912f1d25ab6c144fad42af46c9716e811a648852b4bdffe0f8ee",
        ),
        "pre-update": (
            "242e2043793cbc10c5031a9780eb6a23280e82047059e68e19a88d37331b2605",
            "49bb40c81b4aedf3a1b9c9cee7ad52cef4cffc2f9d1370daee87bb8132949d21",
        ),
    },
    "precise-causal": {
        "default": (
            "0de8f2175984254ddf6cfee150d067ddeef4ea08cf2f0a19a341d8dafd93839c",
            "289aee803fca849640096dd1ffcfffd543d22ea7f0f20428a29360d2582a2f8a",
        ),
        "pre-update": (
            "77646e9f7db13e0fd8269f26c26072420b77cac9f91e327cb35973e9b2f73527",
            "16042dc6c3c95e87e2f145d2ae7cfe272c7f8b34de97431684e69d295fcf0493",
        ),
    },
    "scrambled-apply": {
        "default": (
            "2eb3b3a0dca276c8d9a8b25004622745e4738c19d062e9d8f204c1e8cb4d1603",
            "70e540df7a3aae1a11ea6c7a99c71c0cfc055e601809a22a1c8aed30ce3695ce",
        ),
        "pre-update": (
            "2ad59df39c07d3b97b45fa6a0570ec46ef79b912e86d7e03fafc5e783d298bfe",
            "5a10623b74a6e33b7f9a9db52a5408c7b0c53438bd5373b945e43cd7aa9f08a4",
        ),
    },
    "vector-causal": {
        "default": (
            "0de8f2175984254ddf6cfee150d067ddeef4ea08cf2f0a19a341d8dafd93839c",
            "4dce48eeef303a784803ccb150ef068f4a6883e850f106b7725e855d427e24cb",
        ),
        "pre-update": (
            "77646e9f7db13e0fd8269f26c26072420b77cac9f91e327cb35973e9b2f73527",
            "318679637d7da8f36f8fe3ed288ff40f32f760bd4c58e807d7d6580626655e26",
        ),
    },
}

IS_PROTOCOLS = {"default": None, "pre-update": True}


class TestProtocolGoldenDigests:
    def test_table_covers_every_registered_protocol(self):
        assert sorted(PROTOCOL_GOLDEN) == available()

    @pytest.mark.parametrize("is_protocol", sorted(IS_PROTOCOLS))
    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_GOLDEN))
    def test_history_and_trace_match_golden_digests(self, protocol, is_protocol):
        sink = ListSink()
        result = run_bridged(
            protocol, tracer=Tracer(sink), use_pre_update=IS_PROTOCOLS[is_protocol]
        )
        digests = (
            hashlib.sha256(history_bytes(result)).hexdigest(),
            hashlib.sha256(trace_bytes(sink.events)).hexdigest(),
        )
        assert digests == PROTOCOL_GOLDEN[protocol][is_protocol]
