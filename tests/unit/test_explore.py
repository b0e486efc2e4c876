"""Unit tests for the schedule-explorer building blocks."""

import json
import random
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
from repro.explore.engine import Counterexample, scheduling_aliases
from repro.explore.fingerprint import state_fingerprint
from repro.explore.policy import TracePolicy
from repro.interconnect.is_process import PropagatedPair
from repro.memory.interface import MCSProcess
from repro.sim.clock import VectorClock
from repro.memory.program import Read, Sleep
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import get as get_protocol
from repro.sim.core import Simulator
from repro.workloads.scenarios import (
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
    if isinstance(value, VectorClock):
        return value.increment(7)
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
    ("mcs", "_buffer"),
    ("mcs", "updates_applied"),
    ("mcs", "max_buffered"),
    ("mcs", "missed_upcalls"),
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
            "app": app,
            "isp": isp,
            "link": link,
            "channel": link.channel,
            "stats": link.channel.stats,
        }[owner]
        before = state_fingerprint(result)
        setattr(target, attribute, _bump(getattr(target, attribute)))
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
        clock = mcs._clock
        mcs._clock = VectorClock({proc: clock.get(proc) for proc in clock.processes()})
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


class TestRunWithTrace:
    def test_empty_trace_matches_default_run(self):
        replayed, verdict = run_with_trace(small_fifo_scenario, ())
        baseline = small_fifo_scenario()
        run_until_quiescent(baseline.sim, baseline.systems)
        key = lambda h: [(op.proc, op.kind.value, op.var, repr(op.value)) for op in h]
        assert key(replayed.recorder.history()) == key(baseline.recorder.history())
        assert verdict.ok  # the default schedule of faulty-fifo is clean

    def test_replay_is_deterministic(self):
        trace = [0, 1, 0, 2]
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

    def test_out_of_range_decision_raises(self):
        with pytest.raises(ExplorationError):
            run_with_trace(small_fifo_scenario, [99])


class TestExploreEngine:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ExplorationError):
            explore("no-such-scenario")

    def test_unknown_reduction_rejected(self):
        with pytest.raises(ExplorationError):
            explore("faulty-fifo", reduction="dpor-ng")

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

    def test_reduction_none_explores_more_runs(self):
        reduced = explore(
            "faulty-fifo", max_interleavings=300, stop_after=None
        )
        raw = explore(
            "faulty-fifo",
            max_interleavings=300,
            stop_after=None,
            reduction="none",
        )
        assert raw.pruned_sleep == raw.pruned_fingerprint == 0
        assert reduced.pruned_sleep + reduced.pruned_fingerprint > 0


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
        # B polls x once too early and C polls y once too often: index
        # deletion cannot remove a whole poll (it shifts every later
        # index), dropping the poll's events from the schedule can.
        _, verdict = run_with_trace(small_fifo_scenario, self.POLLING_TRACE)
        counterexample = Counterexample(
            scenario="faulty-fifo",
            trace=list(self.POLLING_TRACE),
            patterns=[v.pattern for v in verdict.violations],
            detail="",
        )
        shrunk = shrink_counterexample(counterexample)
        assert "WriteHBInitRead" in shrunk.patterns
        assert shrunk.decisions <= 10

    POLLING_TRACE = (0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2)


class TestScheduleRoundTrip:
    def test_json_round_trip(self, tmp_path):
        schedule = Schedule(
            scenario="faulty-fifo",
            trace=[0, 3, 1],
            expected_patterns=["WriteHBInitRead"],
            note="hand-written",
        )
        path = save_schedule(schedule, tmp_path / "s.json")
        loaded = load_schedule(path)
        assert loaded == schedule

    def test_format_field_is_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "nope", "scenario": "x", "trace": []}))
        with pytest.raises(ExplorationError):
            load_schedule(path)

    def test_malformed_trace_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"format": "repro-schedule/1", "scenario": "faulty-fifo"}
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
            trace=[1, 0],
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

    def test_get_scenario_error_lists_known_names(self):
        with pytest.raises(ExplorationError, match="bridge-p1"):
            get_scenario("nope")
