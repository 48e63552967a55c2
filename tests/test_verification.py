"""Verification-layer tests: traces, the invariant checker, and shrinking."""

import dataclasses

import pytest

from repro.protocols.base import ProtocolFactory
from repro.protocols.registry import get_protocol
from repro.runner import TrialSpec, execute_trial
from repro.simulation.engine import Engine
from repro.simulation.events import Step
from repro.simulation.trace import ExecutionTrace, TraceEvent
from repro.simulation.windows import WindowSpec
from repro.verification import (InvariantChecker, load_schedule_artifact,
                                replay_schedule, replay_spec,
                                save_schedule_artifact,
                                schedule_from_jsonable,
                                schedule_to_jsonable, shrink_schedule)
from repro.verification.invariants import INVARIANTS


def _window_engine(protocol="reset-tolerant", n=13, t=2, seed=7,
                   inputs=None):
    info = get_protocol(protocol)
    factory = ProtocolFactory(info.protocol_cls, n=n, t=t)
    if inputs is None:
        inputs = [pid % 2 for pid in range(n)]
    return Engine(factory, inputs, seed=seed, record_trace=True)


# ----------------------------------------------------------------------
# Trace recording.
# ----------------------------------------------------------------------
class TestTraceRecording:
    def test_window_engine_records_all_event_kinds(self):
        engine = _window_engine()
        spec = WindowSpec.full_delivery(engine.n)
        engine.run_window(spec)
        engine.run_window(dataclasses.replace(spec,
                                              resets=frozenset({0, 1})))
        trace = engine.trace
        assert trace is not None
        assert trace.engine == "window"
        assert len(trace.windows) == 2
        assert trace.events_of("send")
        assert trace.events_of("deliver")
        assert [event.pid for event in trace.events_of("reset")] == [0, 1]
        # Every delivery belongs to a recorded window.
        for event in trace.events_of("deliver"):
            assert 0 <= event.window < 2

    def test_window_engine_records_decisions(self):
        engine = _window_engine(inputs=[1] * 13)
        while not engine.all_live_decided():
            engine.run_window(WindowSpec.full_delivery(engine.n))
        decisions = engine.trace.decisions()
        assert sorted(pid for pid, _ in decisions) == list(range(13))
        assert {value for _, value in decisions} == {1}

    def test_decision_mid_batch_traced_after_the_whole_batch(self):
        """Unanimous votes decide at the T1-th of 13 deliveries; the
        window's remaining deliveries still come before the decide."""
        engine = _window_engine(inputs=[1] * 13)
        t1 = engine.processors[0].protocol.waiting_threshold()
        assert t1 < engine.n
        engine.run_window(WindowSpec.full_delivery(engine.n))
        events = engine.trace.events
        for pid in range(engine.n):
            assert engine.processors[pid].messages_received == engine.n
            delivers = [index for index, event in enumerate(events)
                        if event.kind == "deliver" and event.pid == pid]
            decides = [index for index, event in enumerate(events)
                       if event.kind == "decide" and event.pid == pid]
            assert len(delivers) == engine.n and len(decides) == 1
            assert max(delivers) < decides[0]
            # The decide is the first event after that receiver's batch.
            assert decides[0] == max(delivers) + 1
        assert InvariantChecker().check(engine.trace).ok

    def test_step_engine_records_steps_and_crashes(self):
        info = get_protocol("ben-or")
        factory = ProtocolFactory(info.protocol_cls, n=5, t=2)
        engine = Engine(factory, [0, 1, 0, 1, 0], seed=3, record_trace=True)
        engine.apply_step(Step.send(0))
        message = engine.pending_messages()[0]
        engine.apply_step(Step.receive(message))
        engine.apply_step(Step.crash(4))
        trace = engine.trace
        assert trace.engine == "step"
        sends = trace.events_of("send")
        assert sends and sends[0].pid == 0 and len(sends[0].sequences) == 5
        delivers = trace.events_of("deliver")
        assert delivers[0].sequence == message.sequence
        assert trace.crashed_pids() == {4}

    def test_trace_attached_to_result_only_when_requested(self):
        engine = _window_engine()
        engine.run_window(WindowSpec.full_delivery(engine.n))
        assert engine.result().trace is engine.trace
        info = get_protocol("reset-tolerant")
        factory = ProtocolFactory(info.protocol_cls, n=13, t=2)
        silent = Engine(factory, [0] * 13, seed=1)
        silent.run_window(WindowSpec.full_delivery(13))
        assert silent.result().trace is None

    def test_trial_spec_record_trace_plumbs_through(self):
        spec = TrialSpec(protocol="reset-tolerant", adversary="benign",
                         n=13, t=2, inputs=(1,) * 13, seed=0,
                         max_windows=50, record_trace=True)
        result = execute_trial(spec)
        assert result.trace is not None
        assert result.trace.inputs == spec.inputs
        bare = execute_trial(dataclasses.replace(spec, record_trace=False))
        assert bare.trace is None


# ----------------------------------------------------------------------
# The invariant checker.
# ----------------------------------------------------------------------
class TestInvariantChecker:
    def test_clean_execution_passes_every_invariant(self):
        spec = TrialSpec(protocol="reset-tolerant",
                         adversary="schedule-fuzzer", n=13, t=2,
                         inputs=tuple(pid % 2 for pid in range(13)),
                         seed=11, adversary_kwargs={"seed": 4},
                         max_windows=80, record_trace=True)
        report = InvariantChecker().check_result(execute_trial(spec))
        assert report.ok
        assert report.summary() == "-"

    def test_checker_requires_a_trace(self):
        spec = TrialSpec(protocol="reset-tolerant", adversary="benign",
                         n=13, t=2, inputs=(0,) * 13, max_windows=10)
        with pytest.raises(ValueError, match="no trace"):
            InvariantChecker().check_result(execute_trial(spec))

    def test_agreement_and_validity_violations_detected(self, buggy_protocol):
        engine = _window_engine(protocol=buggy_protocol)
        for _ in range(3):
            engine.run_window(WindowSpec.full_delivery(engine.n))
        report = InvariantChecker().check(engine.trace)
        assert not report.ok
        assert "agreement" in report.violated_invariants()

    def test_validity_violation_detected(self):
        # Hand-build a trace whose only decision matches no input.
        trace = ExecutionTrace(engine="window", n=3, t=1, inputs=(0, 0, 0))
        trace.events.append(TraceEvent(kind="decide", pid=1, value=1))
        report = InvariantChecker().check(trace)
        assert report.violated_invariants() == ["validity"]

    def test_decision_retraction_detected(self):
        trace = ExecutionTrace(engine="window", n=3, t=1, inputs=(0, 1, 0))
        trace.events.append(TraceEvent(kind="decide", pid=2, value=0))
        trace.events.append(TraceEvent(kind="decide", pid=2, value=1))
        report = InvariantChecker().check(trace)
        assert "decision-stability" in report.violated_invariants()

    def test_fault_bound_violation_detected(self):
        trace = ExecutionTrace(engine="step", n=5, t=1, inputs=(0,) * 5,
                               crash_budget=1)
        trace.events.append(TraceEvent(kind="crash", pid=0))
        trace.events.append(TraceEvent(kind="crash", pid=1))
        report = InvariantChecker().check(trace)
        assert "fault-bound" in report.violated_invariants()

    def test_reset_budget_violation_detected(self):
        trace = ExecutionTrace(engine="window", n=4, t=1, inputs=(0,) * 4)
        trace.windows.append(WindowSpec.full_delivery(4))
        trace.events.append(TraceEvent(kind="reset", pid=0, window=0))
        trace.events.append(TraceEvent(kind="reset", pid=1, window=0))
        report = InvariantChecker().check(trace)
        assert "reset-budget" in report.violated_invariants()

    def test_unacceptable_window_detected(self):
        trace = ExecutionTrace(engine="window", n=4, t=1, inputs=(0,) * 4)
        # Sender sets of size 2 < n - t = 3: not an acceptable window.
        starved = frozenset({0, 1})
        trace.windows.append(WindowSpec.uniform(4, starved))
        report = InvariantChecker().check(trace)
        assert "window-acceptability" in report.violated_invariants()

    def test_message_causality_violations_detected(self):
        trace = ExecutionTrace(engine="step", n=3, t=1, inputs=(0,) * 3)
        trace.events.append(TraceEvent(kind="send", pid=0,
                                       sequences=(0, 1)))
        trace.events.append(TraceEvent(kind="deliver", pid=1, sequence=7,
                                       sender=0))  # never sent
        trace.events.append(TraceEvent(kind="deliver", pid=1, sequence=0,
                                       sender=0))
        trace.events.append(TraceEvent(kind="deliver", pid=1, sequence=0,
                                       sender=0))  # duplicated
        report = InvariantChecker().check(trace)
        details = [v.detail for v in report.violations]
        assert any("never sent" in detail for detail in details)
        assert any("delivered twice" in detail for detail in details)

    def test_corrupted_processors_are_excluded(self):
        # Corrupted pid 0 "decides" 1 against unanimous-0 honest inputs:
        # judged over honest processors only, the trace is clean.
        trace = ExecutionTrace(engine="step", n=4, t=1, inputs=(1, 0, 0, 0))
        trace.events.append(TraceEvent(kind="decide", pid=0, value=1))
        trace.events.append(TraceEvent(kind="decide", pid=1, value=0))
        assert not InvariantChecker().check(trace).ok
        assert InvariantChecker(corrupted=(0,)).check(trace).ok

    def test_invariant_names_are_stable(self):
        assert INVARIANTS == (
            "agreement", "validity", "decision-stability",
            "window-acceptability", "fault-bound", "reset-budget",
            "message-causality")


# ----------------------------------------------------------------------
# Replay and shrinking.
# ----------------------------------------------------------------------
class TestReplayAndShrink:
    def _violating_run(self, buggy_protocol, n=9, t=1, seed=21):
        spec = TrialSpec(protocol=buggy_protocol,
                         adversary="schedule-fuzzer", n=n, t=t,
                         inputs=tuple(pid % 2 for pid in range(n)),
                         seed=seed, adversary_kwargs={"seed": 5},
                         max_windows=30, record_trace=True)
        return spec, execute_trial(spec)

    def test_replay_reproduces_a_traced_execution(self, buggy_protocol):
        spec, result = self._violating_run(buggy_protocol)
        replayed = replay_schedule(spec, result.trace.windows)
        assert replayed.outputs == result.outputs
        assert replayed.total_resets == result.total_resets
        assert replayed.messages_sent == result.messages_sent

    def test_injected_bug_is_caught_and_shrinks_small(self, buggy_protocol):
        spec, result = self._violating_run(buggy_protocol)
        checker = InvariantChecker()
        assert not checker.check(result.trace).ok
        shrunk = shrink_schedule(spec, result.trace.windows,
                                 checker=checker)
        # The acceptance bar: a short reproducer of at most 10 events.
        assert 1 <= len(shrunk.schedule) <= 10
        assert shrunk.violations
        assert shrunk.original_windows >= len(shrunk.schedule)
        # The minimized schedule still violates when replayed afresh.
        assert not checker.check(
            replay_schedule(spec, shrunk.schedule).trace).ok

    def test_shrink_rejects_clean_schedules(self):
        spec = TrialSpec(protocol="reset-tolerant", adversary="benign",
                         n=13, t=2, inputs=(1,) * 13, seed=0)
        schedule = [WindowSpec.full_delivery(13)] * 3
        with pytest.raises(ValueError, match="nothing to shrink"):
            shrink_schedule(spec, schedule)

    def test_replay_spec_is_the_capped_replay_trial(self, buggy_protocol):
        # A replay keeps the trial's context and replaces its schedule
        # source: exactly len(schedule) windows, traced, never padded.
        spec, _ = self._violating_run(buggy_protocol)
        schedule = [WindowSpec.full_delivery(spec.n)] * 4
        replay = replay_spec(spec, schedule)
        assert (replay.protocol, replay.n, replay.t, replay.inputs,
                replay.seed) == (spec.protocol, spec.n, spec.t,
                                 spec.inputs, spec.seed)
        assert replay.adversary == "replay-schedule"
        assert replay.adversary_kwargs == {
            "schedule": schedule_to_jsonable(schedule)}
        assert (replay.engine, replay.max_windows, replay.stop_when,
                replay.record_trace, replay.record_configurations) == \
            ("window", 4, "all", True, False)
        assert execute_trial(replay).windows_elapsed <= 4

    def test_schedule_json_round_trip(self):
        spec = WindowSpec(
            senders_for=tuple(frozenset(range(4)) - {pid % 2}
                              for pid in range(4)),
            resets=frozenset({3}), crashes=frozenset(),
            deliver_last=frozenset({1, 2}))
        schedule = [spec, WindowSpec.full_delivery(4)]
        assert schedule_from_jsonable(
            schedule_to_jsonable(schedule)) == schedule

    def test_counterexample_artifact_round_trip(self, tmp_path,
                                                buggy_protocol):
        spec, result = self._violating_run(buggy_protocol)
        shrunk = shrink_schedule(spec, result.trace.windows)
        path = str(tmp_path / "counterexamples" / "trial-0.json")
        save_schedule_artifact(path, spec, shrunk.schedule,
                               shrunk.violations)
        loaded_spec, loaded_schedule, artifact = \
            load_schedule_artifact(path)
        assert loaded_spec == replay_spec(spec, shrunk.schedule)
        assert loaded_schedule == shrunk.schedule
        assert artifact["violations"] == shrunk.violations
        # The artifact alone reproduces the violation.
        report = InvariantChecker().check(execute_trial(loaded_spec).trace)
        assert not report.ok
