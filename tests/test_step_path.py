"""The step path: pinned Bracha fuzz executions and the skipped scan.

Byzantine fuzzing runs Bracha's protocol on the step engine, one
:class:`~repro.simulation.events.Step` and one trace event at a time.
These tests pin that path two ways:

* the digest of every trace event and result field of small Bracha fuzz
  campaigns, so any change to the engine, the fuzzer, the records or the
  protocol that moves a single event shows up;
* the protocol's validation scan, which runs only after an acceptance
  lands, against a reference that scans after every delivered message,
  compared state by state under corrupting, resetting step schedules.
"""

import dataclasses
import hashlib

import pytest

from repro.adversaries.byzantine import (EquivocateStrategy,
                                         RandomValueStrategy)
from repro.adversaries.fuzzing import StepFuzzer
from repro.protocols.base import ProtocolFactory
from repro.protocols.bracha import BrachaAgreement
from repro.runner import execute_trial
from repro.simulation.engine import Engine
from repro.verification import resolve_fuzz_params
from repro.verification.fuzzer import fuzz_trial_spec

EVENT_FIELDS = ("kind", "pid", "window", "value", "sequence", "sender",
                "sequences", "corrupted", "lost")


def step_path_digest(params):
    """sha256 over every trace event and result field of a campaign."""
    digest = hashlib.sha256()
    for index in range(params["trials"]):
        result = execute_trial(fuzz_trial_spec(params, index))
        for event in result.trace.events:
            digest.update(repr(tuple(getattr(event, name)
                                     for name in EVENT_FIELDS)).encode())
        digest.update(repr(tuple(
            getattr(result, field.name)
            for field in dataclasses.fields(result)
            if field.name != "trace")).encode())
    return digest.hexdigest()


# Recorded when TraceEvent and Step were frozen dataclasses and Bracha
# scanned after every message; the tuple records and the skipped scan
# must reproduce every event.
PINNED_DIGESTS = {
    1: "48492711030bf2d05f23cc8ccd9dd3594933509e41122de92a891a810c606417",
    2: "ca7a515aba9df53d72f86166a3e80996053582adf5aaf022ef7c2553ec82da53",
}


@pytest.mark.parametrize("seed", sorted(PINNED_DIGESTS))
def test_bracha_fuzz_events_are_pinned(seed):
    params = resolve_fuzz_params(protocol="bracha", trials=8, seed=seed)
    assert step_path_digest(params) == PINNED_DIGESTS[seed]


class ScanAfterEveryMessage(BrachaAgreement):
    """Reference: the validation scan after every delivered message."""

    def _handle_message(self, message):
        for acceptance in self.rbc.handle(message.sender, message.payload):
            tag = acceptance.tag
            if isinstance(tag, tuple) and len(tag) == 2:
                self._accepted[tag][acceptance.originator] = \
                    acceptance.value
        self._maybe_advance()


def _state(engine, pid):
    protocol = engine.processors[pid].protocol
    return protocol.state_fingerprint(), protocol.coin_flips


@pytest.mark.parametrize("strategy", [EquivocateStrategy,
                                      RandomValueStrategy])
@pytest.mark.parametrize("seed", range(3))
def test_skipped_scan_matches_scanning_after_every_message(seed, strategy):
    """A step changes only the processor it acts on, so that processor is
    compared after every step, and every processor at the end."""
    n, t = 7, 2
    inputs = [(pid + seed) % 2 for pid in range(n)]
    lean = Engine(ProtocolFactory(BrachaAgreement, n, t), inputs, seed=seed)
    reference = Engine(ProtocolFactory(ScanAfterEveryMessage, n, t),
                       inputs, seed=seed)
    fuzzer = StepFuzzer(seed=seed, corrupted=(0, 1), strategy=strategy(),
                        reset_probability=0.01, max_resets=2)
    fuzzer.bind(lean)
    corrupted_steps = 0
    while not lean.all_live_decided() and lean.steps_taken < 5000:
        step = fuzzer.next_step(lean)
        corrupted_steps += step.corrupted_payload is not None
        lean.apply_step(step)
        reference.apply_step(step)
        assert _state(lean, step.pid) == _state(reference, step.pid)
    assert corrupted_steps > 0
    assert lean.total_resets == 2
    assert lean.configuration() == reference.configuration()
    assert lean.outputs() == reference.outputs()
    assert lean.result().messages_sent == reference.result().messages_sent
