"""Unit tests for step scheduling on the engine."""

import pytest

from repro.protocols.base import ProtocolFactory
from repro.protocols.ben_or import BenOrAgreement
from repro.simulation.engine import Engine, StepAdversary
from repro.simulation.errors import AdversaryBudgetError, InvalidStepError
from repro.simulation.events import Step, StepType


def make_engine(n=7, t=3, inputs=None, seed=2):
    factory = ProtocolFactory(BenOrAgreement, n=n, t=t)
    if inputs is None:
        inputs = [pid % 2 for pid in range(n)]
    return Engine(factory, inputs, seed=seed)


class TestStepTypes:
    def test_step_constructors(self):
        assert Step.send(3).step_type is StepType.SEND
        assert Step.reset(1).step_type is StepType.RESET
        assert Step.crash(2).step_type is StepType.CRASH

    def test_receive_step_carries_message(self):
        engine = make_engine()
        engine.apply_step(Step.send(0))
        message = engine.pending_messages()[0]
        step = Step.receive(message)
        assert step.step_type is StepType.RECEIVE
        assert step.pid == message.receiver


class TestStepApplication:
    def test_send_then_receive(self):
        engine = make_engine()
        engine.apply_step(Step.send(0))
        assert engine.network.pending_count() == engine.n
        message = engine.pending_messages()[0]
        engine.apply_step(Step.receive(message))
        assert engine.network.delivered_count == 1

    def test_receive_without_message_raises(self):
        engine = make_engine()
        with pytest.raises(InvalidStepError):
            engine.apply_step(Step(StepType.RECEIVE, pid=0))

    def test_crash_respects_budget(self):
        engine = make_engine(n=7, t=2)
        engine.apply_step(Step.crash(0))
        engine.apply_step(Step.crash(1))
        with pytest.raises(AdversaryBudgetError):
            engine.apply_step(Step.crash(2))

    def test_crash_is_idempotent(self):
        engine = make_engine(n=7, t=1)
        engine.apply_step(Step.crash(0))
        engine.apply_step(Step.crash(0))
        assert engine.total_crashes == 1

    def test_crashed_processor_cannot_send(self):
        engine = make_engine(n=7, t=1)
        engine.apply_step(Step.crash(0))
        with pytest.raises(InvalidStepError):
            engine.apply_step(Step.send(0))

    def test_delivery_to_crashed_processor_is_silently_lost(self):
        engine = make_engine(n=7, t=1)
        engine.apply_step(Step.send(1))
        target = [m for m in engine.pending_messages() if m.receiver == 0][0]
        engine.apply_step(Step.crash(0))
        engine.apply_step(Step.receive(target))  # must not raise
        assert engine.processors[0].messages_received == 0

    def test_corrupted_delivery_changes_payload(self):
        engine = make_engine()
        engine.apply_step(Step.send(0))
        message = [m for m in engine.pending_messages()
                   if m.receiver == 1][0]
        engine.apply_step(Step.receive(message,
                                       corrupted_payload=("REPORT", 1, 1)))
        # The recipient recorded the corrupted value, not the original.
        assert engine.processors[1].protocol._received[(1, "REPORT")][0] == 1

    def test_reset_budget_enforced(self):
        factory = ProtocolFactory(BenOrAgreement, n=7, t=3)
        engine = Engine(factory, [0] * 7, seed=1, reset_budget=1)
        engine.apply_step(Step.reset(0))
        with pytest.raises(AdversaryBudgetError):
            engine.apply_step(Step.reset(1))


class TestRun:
    def test_round_robin_adversary_reaches_decision(self):
        class FairScheduler(StepAdversary):
            def __init__(self):
                self.queue = []

            def next_step(self, engine):
                if not self.queue:
                    self.queue = [Step.send(pid)
                                  for pid in engine.live_processors()]
                    self.queue += [Step.receive(m)
                                   for m in engine.pending_messages()]
                return self.queue.pop(0)

        engine = make_engine(n=7, t=3, inputs=[1] * 7)
        result = engine.run(FairScheduler(), max_steps=100000,
                            stop_when="all")
        assert result.all_live_decided
        assert result.decision_values == {1}
        assert result.agreement_ok and result.validity_ok

    def test_run_stops_when_adversary_returns_none(self):
        class GiveUp(StepAdversary):
            def next_step(self, engine):
                return None

        engine = make_engine()
        result = engine.run(GiveUp(), max_steps=100)
        assert result.steps_elapsed == 0
        assert not result.decided

    def test_run_rejects_bad_stop_condition(self):
        class GiveUp(StepAdversary):
            def next_step(self, engine):
                return None

        engine = make_engine()
        with pytest.raises(ValueError):
            engine.run(GiveUp(), max_steps=10, stop_when="sometime")
