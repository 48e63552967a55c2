"""The window path: pinned window executions, event by event.

Every experiment that counts acceptable windows runs on
:meth:`Engine.run_window <repro.simulation.engine.Engine.run_window>`:
sending steps stamp messages into the network, each receiver takes the
freshest message from its sender set in the window's delivery order, and
the protocols react.  These tests pin that path by the digest of every
trace event, every executed window and every result field of small
windowed campaigns, so any change to the network, the engine, the
processors, the protocols or the window adversaries that moves a single
event shows up.  The campaigns cover:

* the reset-tolerant protocol under ``split-vote`` (the ordering block,
  uniform sender sets with ``deliver_last``) and under
  ``adaptive-resetting`` (resets and resyncing processors);
* ``schedule-fuzzer`` windows with resets, crashes, ``deliver_last`` and a
  different sender set per receiver;
* Ben-Or under E4's crash-model splitter (``crash-split-vote``).
"""

import dataclasses
import hashlib

import pytest

from repro.runner import TrialSpec, execute_trial

EVENT_FIELDS = ("kind", "pid", "window", "value", "sequence", "sender",
                "sequences", "corrupted", "lost")

SPLIT = {10: (0, 1) * 5, 13: (0, 1) * 6 + (0,), 9: (0, 1) * 4 + (1,)}


def campaign(seed):
    """The pinned windowed trial specs at one seed."""
    specs = []
    for index in range(3):
        specs.append(TrialSpec(
            protocol="reset-tolerant", adversary="split-vote", n=10, t=1,
            inputs=SPLIT[10], seed=seed * 100 + index,
            adversary_kwargs={"seed": seed * 10 + index}, max_windows=40,
            stop_when="first"))
        specs.append(TrialSpec(
            protocol="reset-tolerant", adversary="adaptive-resetting",
            n=13, t=2, inputs=SPLIT[13], seed=seed * 100 + index,
            adversary_kwargs={"seed": seed * 10 + index}, max_windows=40,
            stop_when="first", record_configurations=index == 0))
        specs.append(TrialSpec(
            protocol="reset-tolerant", adversary="schedule-fuzzer", n=10,
            t=1, inputs=SPLIT[10], seed=seed * 100 + index,
            adversary_kwargs={"seed": seed * 10 + index,
                              "reset_probability": 0.4,
                              "deliver_last_probability": 0.5},
            max_windows=30, record_configurations=index == 0))
        specs.append(TrialSpec(
            protocol="ben-or", adversary="schedule-fuzzer", n=9, t=2,
            inputs=SPLIT[9], seed=seed * 100 + index,
            adversary_kwargs={"seed": seed * 10 + index,
                              "reset_probability": 0.0,
                              "crash_probability": 0.3,
                              "deliver_last_probability": 0.5},
            max_windows=30))
        specs.append(TrialSpec(
            protocol="ben-or", adversary="crash-split-vote", n=9, t=2,
            inputs=SPLIT[9], seed=seed * 100 + index,
            adversary_kwargs={"seed": seed * 10 + index}, max_windows=40,
            stop_when="first"))
    return specs


def _fields(result):
    return tuple(getattr(result, field.name)
                 for field in dataclasses.fields(result)
                 if field.name != "trace")


def window_path_digest(seed):
    """sha256 over every trace event, window and result field."""
    digest = hashlib.sha256()
    for spec in campaign(seed):
        result = execute_trial(dataclasses.replace(spec, record_trace=True))
        for event in result.trace.events:
            digest.update(repr(tuple(getattr(event, name)
                                     for name in EVENT_FIELDS)).encode())
        for window in result.trace.windows:
            digest.update(repr(window.to_jsonable()).encode())
        digest.update(repr(_fields(result)).encode())
    return digest.hexdigest()


# Recorded before the network took broadcasts in one call and before a
# window walked one precomputed delivery order; both must reproduce every
# event.
PINNED_DIGESTS = {
    1: "53a6c7c1d701a1033295dfcc2563dad86af7c69c6c71dad62e1d803aac2ea7e8",
    2: "70a6c05dfe78c9c10a2c8d984b7ca450df0094c680b50869cf3774fe9b44eb32",
}


@pytest.mark.parametrize("seed", sorted(PINNED_DIGESTS))
def test_window_events_are_pinned(seed):
    assert window_path_digest(seed) == PINNED_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(PINNED_DIGESTS))
def test_untraced_results_match_traced(seed):
    """Recording the trace changes no result field."""
    for spec in campaign(seed):
        traced = execute_trial(dataclasses.replace(spec, record_trace=True))
        assert _fields(execute_trial(spec)) == _fields(traced)


def test_campaign_covers_the_window_features():
    """The pinned campaigns exercise every window feature they claim."""
    features = set()
    for seed in sorted(PINNED_DIGESTS):
        for spec in campaign(seed):
            result = execute_trial(
                dataclasses.replace(spec, record_trace=True))
            for window in result.trace.windows:
                if window.resets:
                    features.add("resets")
                if window.crashes:
                    features.add("crashes")
                if window.deliver_last:
                    features.add("deliver_last")
                if len(set(window.senders_for)) > 1:
                    features.add("non-uniform senders")
            if any(event.kind == "decide" for event in result.trace.events):
                features.add(spec.protocol + " decides")
    assert features == {"resets", "crashes", "deliver_last",
                        "non-uniform senders", "reset-tolerant decides",
                        "ben-or decides"}
