"""Contract tests for the per-step tuple records ``TraceEvent`` and ``Step``.

Both are immutable ``namedtuple`` subclasses laid out like
:class:`~repro.simulation.message.Message` (whose contract
``tests/test_message.py::TestMessageContract`` pins): fuzz traces cross
the worker pool pickled, ``Engine.clone`` deep-copies them, and the
differential replayer rewrites events with ``_replace``.
"""

import copy
import pickle

import pytest

from repro.simulation.events import Step, StepType
from repro.simulation.message import Message
from repro.simulation.trace import ExecutionTrace, TraceEvent


class _RecordContract:
    """Shared checks; subclasses give the type, a sample and its fields."""

    TYPE = None
    FIELDS = ()

    def sample(self):
        raise NotImplementedError

    def test_pickle_round_trip(self):
        record = self.sample()
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol=protocol))
            assert type(back) is self.TYPE
            assert back == record

    def test_deepcopy_round_trip(self):
        record = self.sample()
        clone = copy.deepcopy(record)
        assert type(clone) is self.TYPE
        assert clone == record

    def test_equal_records_hash_and_compare_equal(self):
        a, b = self.sample(), self.sample()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_replace_returns_a_record(self):
        record = self.sample()
        changed = record._replace(pid=record.pid + 1)
        assert type(changed) is self.TYPE
        assert changed.pid == record.pid + 1
        assert changed != record
        assert record == self.sample()

    def test_every_field_refuses_assignment(self):
        record = self.sample()
        assert self.TYPE._fields == self.FIELDS
        for field in self.FIELDS:
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0  # no per-instance __dict__
        assert record == self.sample()


class TestTraceEventContract(_RecordContract):
    TYPE = TraceEvent
    FIELDS = ("kind", "pid", "window", "value", "sequence", "sender",
              "sequences", "corrupted", "lost")

    def sample(self):
        return TraceEvent(kind="deliver", pid=3, window=None, value=None,
                          sequence=41, sender=2, sequences=(),
                          corrupted=True, lost=False)

    def test_keyword_construction_fills_defaults(self):
        event = TraceEvent(kind="reset", pid=1)
        assert event == ("reset", 1, None, None, None, None, (), False,
                         False)
        assert TraceEvent("deliver", 3, None, None, 41, 2, (), True,
                          False) == self.sample()

    def test_recorders_build_the_keyword_form(self):
        # The fast recorders must build exactly what the keyword
        # constructor would.
        trace = ExecutionTrace(engine="step", n=4, t=1, inputs=(0, 1, 0, 1))
        message = Message(sender=2, receiver=3, payload="x", sequence=41)
        trace.record_send(2, [message._replace(sequence=s)
                              for s in (7, 8)], window=5)
        trace.record_deliver(message, corrupted=True)
        trace.record_deliver(message, window=1, lost=True)
        assert trace.events == [
            TraceEvent(kind="send", pid=2, window=5, sequences=(7, 8)),
            self.sample(),
            TraceEvent(kind="deliver", pid=3, window=1, sequence=41,
                       sender=2, lost=True)]
        assert all(type(event) is TraceEvent for event in trace.events)


class TestStepContract(_RecordContract):
    TYPE = Step
    FIELDS = ("step_type", "pid", "message", "corrupted_payload")

    MESSAGE = Message(sender=1, receiver=4, payload=("RBC_ECHO", 1, (1, 1),
                                                     0), sequence=9)

    def sample(self):
        return Step(StepType.RECEIVE, pid=4, message=self.MESSAGE,
                    corrupted_payload=("RBC_ECHO", 1, (1, 1), 1))

    def test_keyword_construction_fills_defaults(self):
        assert Step(StepType.SEND, 2) == (StepType.SEND, 2, None, None)
        assert Step(step_type=StepType.CRASH, pid=0).message is None

    def test_constructors_build_the_keyword_form(self):
        for pid in (0, 3):
            assert Step.send(pid) == Step(StepType.SEND, pid)
            assert Step.reset(pid) == Step(StepType.RESET, pid)
            assert Step.crash(pid) == Step(StepType.CRASH, pid)
        assert Step.receive(self.MESSAGE) == Step(
            StepType.RECEIVE, 4, message=self.MESSAGE)
        assert Step.receive(self.MESSAGE, ("RBC_ECHO", 1, (1, 1), 1)) \
            == self.sample()
        assert type(Step.send(0)) is Step
        assert type(Step.receive(self.MESSAGE)) is Step
