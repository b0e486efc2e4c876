"""Unit tests for the schedule-explorer building blocks."""

import gc
import json
import pickle
import random
import weakref
from collections import deque

import pytest

from repro.errors import ExplorationError
from repro.explore import (
    SCENARIOS,
    Schedule,
    explore,
    get_scenario,
    load_schedule,
    replay_schedule,
    run_with_trace,
    save_schedule,
    shrink_counterexample,
    shrink_trace,
)
import repro.explore.engine as engine
from repro.explore.engine import Counterexample, scheduling_aliases
from repro.explore.fingerprint import fingerprinter, state_fingerprint
from repro.explore.policy import TracePolicy, dependent
from repro.interconnect.is_process import PropagatedPair
from repro.memory.interface import MCSProcess
from repro.memory.program import Read, Sleep
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import available, get as get_protocol
from repro.sim.core import Simulator
from repro.workloads import WorkloadSpec, build_interconnected
from repro.workloads.scenarios import (
    Poll,
    ScenarioResult,
    run_until_quiescent,
    small_bridge_scenario,
    small_fifo_scenario,
)


def _bridge_parts():
    """An MCS-process, a driver, an IS-process and its channel of a
    bridge scenario run to completion (every field populated)."""
    result = small_bridge_scenario(use_pre_update=False)
    run_until_quiescent(result.sim, result.systems)
    system = result.systems[0]
    isp = result.interconnection.bridges[0].isp_a
    link = next(iter(isp._peers.values()))
    return result, system.mcs_processes[0], system.app_processes[0], isp, link


def _bump(value):
    """A different value of the same shape as *value*."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, list) and value and all(type(item) is int for item in value):
        return [*value, 1]  # a replica clock's counters
    if isinstance(value, dict):
        return {**value, "zz": "bumped"}
    if isinstance(value, set):
        return value | {("zz", "bumped")}
    if isinstance(value, (list, deque)):
        return type(value)([*value, PropagatedPair("zz", "bumped")])
    if isinstance(value, random.Random):
        value.random()
        return value
    raise TypeError(type(value))


#: Keyed fields, as (component, attribute).
KEYED_FIELDS = [
    ("mcs", "_clock"),
    ("mcs", "_store"),
    ("mcs", "updates_applied"),
    ("mcs", "missed_upcalls"),
    ("holdback", "_buffer"),
    ("holdback", "max_buffered"),
    ("app", "ops_completed"),
    ("app", "done"),
    ("app", "_blocked"),
    ("app", "commands_issued"),
    ("isp", "_write_queue"),
    ("isp", "_writing"),
    ("isp", "_seen_pairs"),
    ("isp", "pairs_propagated_out"),
    ("isp", "pairs_applied_in"),
    ("isp", "pairs_coalesced"),
    ("isp", "duplicates_dropped"),
    ("link", "outbox"),
    ("link", "pairs_sent"),
    ("link", "pairs_received"),
    ("link", "flush_scheduled"),
    ("channel", "_last_delivery"),
    ("channel", "_rng"),
    ("stats", "messages_sent"),
    ("stats", "messages_delivered"),
]


class TestStateKey:
    def test_keys_are_hashable_tuples(self):
        _, mcs, app, isp, link = _bridge_parts()
        for component in (mcs, app, isp, link.channel):
            key = component.state_key()
            assert isinstance(key, tuple)
            hash(key)

    @pytest.mark.parametrize("owner, attribute", KEYED_FIELDS)
    def test_changing_a_keyed_field_changes_the_key(self, owner, attribute):
        result, mcs, app, isp, link = _bridge_parts()
        target = {
            "mcs": mcs,
            "holdback": mcs._holdback,
            "app": app,
            "isp": isp,
            "link": link,
            "channel": link.channel,
            "stats": link.channel.stats,
        }[owner]
        if attribute == "_rng":
            # The zero-delay link never drew, so it holds no stream yet:
            # derive it, then the draw below is what the key must see.
            target._stream()
        before = state_fingerprint(result)
        setattr(target, attribute, _bump(getattr(target, attribute)))
        assert state_fingerprint(result) != before

    @pytest.mark.parametrize("attribute", ["_store", "updates_applied", "missed_upcalls"])
    @pytest.mark.parametrize("protocol", available())
    def test_every_protocol_keys_the_base_replica(self, protocol, attribute):
        # MCSProcess owns these fields; a protocol's state_key reaches
        # them only through _replica_key().
        result = build_interconnected(
            [protocol, "vector-causal"],
            WorkloadSpec(processes=2, ops_per_process=2, write_ratio=0.5),
            seed=0,
        )
        run_until_quiescent(result.sim, result.systems)
        mcs = result.systems[0].mcs_processes[0]
        before = state_fingerprint(result)
        setattr(mcs, attribute, _bump(getattr(mcs, attribute)))
        assert state_fingerprint(result) != before

    def test_first_draw_of_a_never_derived_stream_changes_the_key(self):
        result, _, _, _, link = _bridge_parts()
        assert link.channel._rng is None
        before = state_fingerprint(result)
        link.channel._stream().random()
        assert state_fingerprint(result) != before

    def test_store_order_is_canonical(self):
        _, mcs, _, _, _ = _bridge_parts()
        mcs._store = {"x": "1", "y": "2"}
        forward = mcs.state_key()
        mcs._store = {"y": "2", "x": "1"}
        assert mcs.state_key() == forward

    def test_seen_pair_order_is_canonical(self):
        _, _, _, isp, _ = _bridge_parts()
        isp._seen_pairs = {("x", "1"), ("y", "2")}
        forward = isp.state_key()
        isp._seen_pairs = {("y", "2"), ("x", "1")}
        assert isp.state_key() == forward

    def test_vector_clock_is_keyed_by_value(self):
        result, mcs, _, _, _ = _bridge_parts()
        before = state_fingerprint(result)
        # The replica clock is a list of counters, keyed as its values.
        clock = mcs._clock
        mcs._clock = list(clock)
        assert mcs._clock is not clock
        assert state_fingerprint(result) == before

    def test_unkeyed_mcs_subclass_raises(self):
        class Unkeyed(MCSProcess):
            pass

        result = small_fifo_scenario()
        mcs = result.systems[0].mcs_processes[0]
        mcs.__class__ = Unkeyed
        with pytest.raises(NotImplementedError, match="Unkeyed"):
            state_fingerprint(result)


class TestStateFingerprint:
    def test_identical_builds_have_identical_fingerprints(self):
        assert state_fingerprint(small_fifo_scenario()) == state_fingerprint(
            small_fifo_scenario()
        )

    def test_fingerprint_changes_as_the_run_progresses(self):
        result = small_fifo_scenario()
        before = state_fingerprint(result)
        result.sim.run()
        assert state_fingerprint(result) != before

    def test_completed_runs_under_same_schedule_agree(self):
        fingerprints = set()
        for _ in range(2):
            result = small_fifo_scenario()
            result.sim.run()
            fingerprints.add(state_fingerprint(result))
        assert len(fingerprints) == 1

    def test_plan_tracks_the_state_like_one_off_fingerprints(self):
        result = small_bridge_scenario(use_pre_update=False)
        plan = fingerprinter(result)
        seen = []
        while True:
            assert plan() == state_fingerprint(result)
            seen.append(plan())
            if not result.sim.step():
                break
        assert len(set(seen)) > 1

    def test_read_response_and_sleep_pending_differ(self):
        # After the read completes, the driver's next step (handing the
        # value to its program) is pending; after that step, the Sleep's
        # wakeup is. Both states show the same history and the same
        # pending (time, tag) events: only the program position differs.
        sim = Simulator()
        recorder = HistoryRecorder()
        system = DSMSystem(
            sim, "S0", get_protocol("fifo-apply"), recorder=recorder,
            default_delay=0.0,
        )
        system.add_application("C", [Read("y"), Sleep(0.0), Read("y")])
        result = ScenarioResult(
            sim=sim, systems=[system], interconnection=None, recorder=recorder
        )
        states = []
        while sim.step():
            if recorder.count == 1:
                states.append(
                    (
                        sim.pending_signature(),
                        recorder.signature(),
                        state_fingerprint(result),
                    )
                )
        assert len(states) == 2
        (pending_a, history_a, read_pending), (pending_b, history_b, sleep_pending) = states
        assert (pending_a, history_a) == (pending_b, history_b)
        assert read_pending != sleep_pending


class TestSchedulingAliases:
    def test_bridge_isps_alias_to_their_mcs_domain(self):
        result = small_bridge_scenario(use_pre_update=False)
        aliases = scheduling_aliases(result)
        assert aliases  # one entry per IS-process
        for isp_name, domain in aliases.items():
            assert isp_name.startswith("isp:")
            assert "mcs:" in domain

    def test_single_system_has_no_aliases(self):
        assert scheduling_aliases(small_fifo_scenario()) == {}


def _executed_tags(scenario, monkeypatch, runs=300):
    """Every tag the explorer's policy sees executed in *runs* runs."""
    tags = set()
    executed = engine._ExplorerPolicy.executed

    def recording(policy, event):
        tags.add(event.tag)
        executed(policy, event)

    with monkeypatch.context() as patch:
        patch.setattr(engine._ExplorerPolicy, "executed", recording)
        explore(scenario, max_interleavings=runs, stop_after=None)
    return tags


class TestSleepWakeups:
    @pytest.mark.parametrize("scenario", ["bridge-p1", "faulty-fifo"])
    def test_memoised_wakeup_equals_dependent(self, scenario, monkeypatch):
        tags = _executed_tags(scenario, monkeypatch)
        aliases = scheduling_aliases(get_scenario(scenario).factory())
        policy = engine._ExplorerPolicy(
            (),
            frozenset(),
            visited={},
            fingerprint_fn=lambda: 0,
            aliases=aliases,
            max_decisions=None,
        )
        outcomes = set()
        for _ in range(2):  # the second pass reads the memo
            for slept in tags - {None}:
                for fired in tags:
                    wakes = policy.wakes(slept, fired)
                    assert wakes == dependent(slept, fired, aliases), (slept, fired)
                    outcomes.add(wakes)
        assert outcomes == {True, False}


class TestRunWithTrace:
    def test_empty_trace_matches_default_run(self):
        replayed, verdict = run_with_trace(small_fifo_scenario, ())
        baseline = small_fifo_scenario()
        run_until_quiescent(baseline.sim, baseline.systems)
        key = lambda h: [(op.proc, op.kind.value, op.var, repr(op.value)) for op in h]
        assert key(replayed.recorder.history()) == key(baseline.recorder.history())
        assert verdict.ok  # the default schedule of faulty-fifo is clean

    def test_replay_is_deterministic(self):
        trace = [
            "proc:S0/mcs:A",
            "proc:S0/mcs:C",
            "proc:S0/mcs:B",
            "chan:S0:S0/mcs:A->S0/mcs:C",
        ]
        runs = []
        for _ in range(2):
            result, verdict = run_with_trace(small_fifo_scenario, trace)
            runs.append(
                (
                    [(op.proc, op.kind.value, op.var, repr(op.value))
                     for op in result.recorder.history()],
                    verdict.ok,
                )
            )
        assert runs[0] == runs[1]

    def test_not_enabled_tag_raises(self):
        # The message names the decision, the wanted tag and what was
        # enabled instead, so a stale schedule explains itself.
        with pytest.raises(ExplorationError) as excinfo:
            run_with_trace(small_fifo_scenario, ["proc:S0/mcs:A", "proc:nobody"])
        message = str(excinfo.value)
        assert "decision 1" in message
        assert "'proc:nobody'" in message
        assert "'proc:S0/mcs:B'" in message


class TestExploreEngine:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ExplorationError):
            explore("no-such-scenario")

    def test_budget_cap_is_respected(self):
        result = explore("faulty-fifo", max_interleavings=5, stop_after=None)
        assert result.runs <= 5
        assert not result.exhausted

    def test_finds_fifo_violation(self):
        result = explore("faulty-fifo", stop_after=1)
        assert result.violations
        counterexample = result.violations[0]
        assert counterexample.scenario == "faulty-fifo"
        assert counterexample.patterns

    def test_violating_trace_replays_to_same_patterns(self):
        result = explore("faulty-fifo", stop_after=1)
        counterexample = result.violations[0]
        _, verdict = run_with_trace(
            get_scenario("faulty-fifo").factory, counterexample.trace
        )
        assert not verdict.ok
        assert {v.pattern for v in verdict.violations} >= set(
            counterexample.patterns
        )


class TestTracePolicy:
    def test_trace_is_the_chosen_tags(self):
        class Recording(TracePolicy):
            def __init__(self, prefix):
                super().__init__(prefix)
                self.offered = []
                self.picks = []

            def choose(self, candidates):
                self.offered.append([candidate.tag for candidate in candidates])
                self.picks.append(super().choose(candidates))
                return self.picks[-1]

        prefix = [
            "proc:S0/mcs:A",
            "proc:S0/mcs:C",
            "proc:S0/mcs:A",
            "proc:S0/mcs:B",
            "chan:S0:S0/mcs:A->S0/mcs:C",
        ]
        policy = Recording(prefix)
        result = small_fifo_scenario()
        result.sim.policy = policy
        result.sim.run()
        assert len(policy.trace) == len(policy.offered) > len(prefix)
        assert policy.trace == [
            tags[pick] for tags, pick in zip(policy.offered, policy.picks)
        ]
        assert policy.trace[: len(prefix)] == prefix
        # Beyond the prefix the policy takes the kernel's tie-break.
        assert policy.picks[len(prefix) :] == [0] * (
            len(policy.picks) - len(prefix)
        )


class TestShrink:
    def test_trailing_zeros_are_free(self):
        calls = []

        def failing(trace):
            calls.append(list(trace))
            return list(trace)[:1] == [2]

        assert shrink_trace([2, 0, 0, 0], failing) == [2]

    def test_rejects_passing_trace(self):
        with pytest.raises(ExplorationError):
            shrink_trace([1, 2, 3], lambda trace: False)

    def test_shrinks_to_core(self):
        # Failure needs a 2 somewhere and a 1 later; everything else is noise.
        def failing(trace):
            trace = list(trace)
            return 2 in trace and 1 in trace[trace.index(2):]

        shrunk = shrink_trace([0, 3, 2, 0, 4, 1, 0, 5], failing)
        assert failing(shrunk)
        assert len(shrunk) == 2

    def test_attempt_budget_bounds_predicate_calls(self):
        calls = []

        def failing(trace):
            calls.append(1)
            return True

        shrink_trace([1] * 8, failing, max_attempts=10)
        assert len(calls) <= 11  # budgeted calls + the initial validation


    def test_redundant_poll_is_dropped_as_an_event(self):
        # B polls x once too early and C polls y once too often. Each
        # poll is two events that matter only together, which the pair
        # pass deletes at once.
        _, verdict = run_with_trace(small_fifo_scenario, self.POLLING_TRACE)
        counterexample = Counterexample(
            scenario="faulty-fifo",
            trace=list(self.POLLING_TRACE),
            patterns=[v.pattern for v in verdict.violations],
            detail="",
        )
        shrunk = shrink_counterexample(counterexample)
        assert "WriteHBInitRead" in shrunk.patterns
        assert shrunk.decisions <= 7

    POLLING_TRACE = (
        "proc:S0/mcs:A",
        "proc:S0/mcs:B",
        "proc:S0/mcs:C",
        "proc:S0/mcs:A",
        "chan:S0:S0/mcs:A->S0/mcs:B",
        "proc:S0/mcs:B",
        "proc:S0/mcs:C",
        "proc:S0/mcs:B",
        "proc:S0/mcs:C",
        "proc:S0/mcs:B",
        "proc:S0/mcs:C",
        "proc:S0/mcs:B",
        "chan:S0:S0/mcs:B->S0/mcs:C",
        "proc:S0/mcs:C",
        "proc:S0/mcs:C",
    )


class TestScheduleRoundTrip:
    def test_json_round_trip(self, tmp_path):
        schedule = Schedule(
            scenario="faulty-fifo",
            trace=["proc:S0/mcs:A", None, "chan:S0:S0/mcs:A->S0/mcs:B"],
            expected_patterns=["WriteHBInitRead"],
            note="hand-written",
        )
        path = save_schedule(schedule, tmp_path / "s.json")
        loaded = load_schedule(path)
        assert loaded == schedule

    def test_format_field_is_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        for raw in ({"format": "nope", "scenario": "x", "trace": []}, [1, 2]):
            path.write_text(json.dumps(raw))
            with pytest.raises(ExplorationError):
                load_schedule(path)

    def test_index_trace_is_rejected_with_resave_hint(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(
            json.dumps(
                {
                    "format": "repro-schedule/1",
                    "scenario": "faulty-fifo",
                    "trace": [0, 3, 1],
                    "expected_patterns": ["WriteHBInitRead"],
                }
            )
        )
        with pytest.raises(
            ExplorationError, match=r"repro-schedule/2.*`repro explore --save`"
        ):
            load_schedule(path)

    def test_malformed_trace_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        # A missing trace, traces that are no list, and index steps.
        for fields in ({}, {"trace": 7}, {"trace": "proc:A"}, {"trace": [0, 3, 1]}):
            path.write_text(
                json.dumps(
                    {"format": "repro-schedule/2", "scenario": "faulty-fifo", **fields}
                )
            )
            with pytest.raises(ExplorationError):
                load_schedule(path)

    def test_strict_replay_rejects_stale_expectations(self, tmp_path):
        schedule = Schedule(
            scenario="faulty-fifo",
            trace=[],  # the default schedule is clean
            expected_patterns=["WriteHBInitRead"],
        )
        with pytest.raises(ExplorationError):
            replay_schedule(schedule)

    def test_strict_replay_accepts_clean_schedules(self):
        verdict = replay_schedule(
            Schedule(scenario="faulty-fifo", trace=[], expected_patterns=[])
        )
        assert verdict.ok

    def test_from_counterexample_sorts_patterns(self):
        counterexample = Counterexample(
            scenario="faulty-fifo",
            trace=["proc:S0/mcs:B", "proc:S0/mcs:A"],
            patterns=["B", "A", "B"],
            detail="",
        )
        schedule = Schedule.from_counterexample(counterexample)
        assert schedule.expected_patterns == ["A", "B"]


class TestCatalogue:
    def test_catalogue_entries_build(self):
        for entry in SCENARIOS.values():
            result = entry.factory()
            assert result.sim.pending > 0  # something is scheduled

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_catalogued_cast_has_zero_delay_everywhere(self, scenario):
        # The explorer reorders only same-timestamp events, so "exhausted"
        # covers the whole interleaving space only when nothing in the
        # cast is ever delayed.
        cast = get_scenario(scenario).cast
        delays = [cast.delay]
        for member in cast.systems:
            delays.append(member.delay)
            delays.extend(delay for _, _, delay in member.slow_links)
            for app in member.apps:
                delays.append(app.start_delay)
                commands = app.program
                if isinstance(app.program, Poll):
                    delays.append(app.program.poll_interval)
                    commands = app.program.then
                delays.extend(
                    command.duration for command in commands if isinstance(command, Sleep)
                )
        assert set(delays) == {0.0}

    def test_catalogued_scenario_builds_its_cast(self):
        entry = get_scenario("chain3-p1")
        result = entry.factory(seed=3)
        assert [system.name for system in result.systems] == ["S0", "S1", "S2"]
        assert [system.seed for system in result.systems] == [3, 4, 5]
        assert len(result.interconnection.bridges) == 2
        assert pickle.loads(pickle.dumps(entry.cast)) == entry.cast

    def test_get_scenario_error_lists_known_names(self):
        with pytest.raises(ExplorationError, match="bridge-p1"):
            get_scenario("nope")


class TestClose:
    def test_counters_and_history_survive_close(self):
        result = small_bridge_scenario(use_pre_update=False)
        run_until_quiescent(result.sim, result.systems)

        def observed():
            return (
                result.sim.events_processed,
                [system.network.messages_sent for system in result.systems],
                [
                    (bridge.pairs_a_to_b, bridge.pairs_b_to_a, bridge.messages_crossing)
                    for bridge in result.interconnection.bridges
                ],
                result.recorder.history().operations,
            )

        before = observed()
        assert before[0] > 0 and all(before[1]) and all(all(pair) for pair in before[2])
        result.close()
        assert observed() == before

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_closed_run_is_freed_by_reference_counting(self, scenario):
        result = get_scenario(scenario).factory()
        result.sim.policy = TracePolicy(())
        result.sim.run(max_events=5)
        assert result.sim.pending  # closed mid-run, as a pruned run is
        parts = [result.sim, *result.systems, *result.is_processes()]
        parts += [mcs for system in result.systems for mcs in system.mcs_processes]
        refs = [weakref.ref(part) for part in parts]
        del parts
        gc.disable()
        try:
            result.close()
            del result
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()
