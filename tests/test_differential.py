"""Differential replay tests: a window run vs its step compilation."""

import dataclasses

import pytest

from repro.experiments import get_experiment
from repro.runner import TrialSpec, execute_trial
from repro.simulation.windows import WindowSpec
from repro.verification import differential_replay


def _replayed_schedule():
    """A fixed schedule with resets, withheld senders and late senders."""
    everyone = frozenset(range(13))
    return [spec.to_jsonable() for spec in (
        WindowSpec.uniform(13, everyone - {0, 1}, resets=frozenset({0, 1})),
        WindowSpec.uniform(13, everyone, deliver_last=frozenset({2, 3})),
        WindowSpec.uniform(13, everyone - {4, 5}, resets=frozenset({6})),
    )] * 4


# Window adversaries of the registry that no other test replays, each in a
# cell small enough to replay quickly: (adversary, protocol, n, t,
# adversary kwargs, max_windows).
UNREPLAYED_ADVERSARIES = [
    ("polarizing", "reset-tolerant", 13, 2, {"seed": 5}, 60),
    # Lookahead clones and reseeds the engine to score candidate windows.
    ("lookahead", "reset-tolerant", 9, 1,
     {"seed": 5, "horizon": 2, "samples": 2, "max_candidates": 4}, 12),
    ("crash-at-decision", "ben-or", 9, 4, {}, 200),
    ("crash-split-vote", "ben-or", 9, 4, {"seed": 5}, 200),
    ("replay-schedule", "reset-tolerant", 13, 2,
     {"schedule": _replayed_schedule()}, 12),
]


def _e1_quick_specs():
    """Every trial spec behind the E1 quick table, labelled by cell."""
    cells = get_experiment("E1").cells(quick=True)
    return [(cell.key, spec) for cell in cells for spec in cell.specs]


class TestDifferentialReplay:
    @pytest.mark.parametrize(
        "key,spec", _e1_quick_specs(),
        ids=[("-".join(str(part) for part in key))
             for key, _ in _e1_quick_specs()])
    def test_all_e1_quick_cells_agree_across_engines(self, key, spec):
        report = differential_replay(spec)
        assert report.agree, (
            f"engines diverged on {key}: {report.mismatches}")
        assert report.window_outputs == report.step_outputs

    def test_crash_model_cells_agree_across_engines(self):
        # An E6-style Ben-Or cell with real crash placements, exercising
        # the crash-compilation path of the replayer.
        spec = TrialSpec(
            protocol="ben-or", adversary="static-crash", n=9, t=4,
            inputs=tuple(pid % 2 for pid in range(9)), seed=13,
            adversary_kwargs={"crash_schedule": {0: (0, 1), 2: (2,)}},
            max_windows=200, stop_when="all")
        report = differential_replay(spec)
        assert report.agree, report.mismatches
        assert report.window_outputs == report.step_outputs

    def test_fuzzed_schedules_agree_across_engines(self):
        for seed in range(5):
            spec = TrialSpec(
                protocol="reset-tolerant", adversary="schedule-fuzzer",
                n=13, t=2, inputs=tuple(pid % 2 for pid in range(13)),
                seed=seed, adversary_kwargs={"seed": seed + 100},
                max_windows=60, stop_when="all")
            report = differential_replay(spec)
            assert report.agree, (seed, report.mismatches)

    def test_step_specs_are_rejected(self):
        spec = TrialSpec(protocol="bracha", adversary="byzantine",
                         n=7, t=2, inputs=(0, 1) * 3 + (0,),
                         engine="step")
        with pytest.raises(ValueError, match="window-engine spec"):
            differential_replay(spec)

    def test_divergence_is_reported_not_hidden(self):
        # Corrupt a recorded trace so the replay cannot follow it: the
        # report must flag the divergence instead of agreeing.
        spec = TrialSpec(protocol="reset-tolerant", adversary="benign",
                         n=13, t=2, inputs=(1,) * 13, seed=0,
                         max_windows=20, stop_when="all")
        report = differential_replay(spec)
        assert report.agree

        from repro.verification.differential import \
            replay_trace_on_step_engine
        from repro.runner import execute_trial

        traced = execute_trial(
            dataclasses.replace(spec, record_trace=True))
        trace = traced.trace
        bad_event = trace.events_of("deliver")[0]._replace(sequence=999999)
        trace.events[trace.events.index(
            trace.events_of("deliver")[0])] = bad_event
        with pytest.raises(LookupError, match="no pending counterpart"):
            replay_trace_on_step_engine(spec, trace)

    @pytest.mark.parametrize(
        "adversary,protocol,n,t,kwargs,max_windows", UNREPLAYED_ADVERSARIES,
        ids=[case[0] for case in UNREPLAYED_ADVERSARIES])
    def test_every_window_adversary_agrees_with_its_step_replay(
            self, adversary, protocol, n, t, kwargs, max_windows):
        spec = TrialSpec(
            protocol=protocol, adversary=adversary, n=n, t=t,
            inputs=tuple(pid % 2 for pid in range(n)), seed=21,
            adversary_kwargs=kwargs, max_windows=max_windows,
            stop_when="all")
        report = differential_replay(spec)
        assert report.windows > 0
        assert report.agree, report.mismatches
        assert report.window_outputs == report.step_outputs


@pytest.mark.parametrize("engine", ["window", "step"])
def test_execution_result_fields_follow_the_driver(engine):
    """Only the driver that ran reports its counters and snapshots."""
    if engine == "window":
        spec = TrialSpec(protocol="reset-tolerant", adversary="benign",
                         n=13, t=2, inputs=(0, 1) * 6 + (0,), seed=3,
                         max_windows=50, record_configurations=True)
    else:
        spec = TrialSpec(protocol="bracha", adversary="byzantine",
                         n=7, t=2, inputs=(0, 1) * 3 + (0,), seed=3,
                         engine="step", record_configurations=True)
    result = execute_trial(spec)
    assert result.decided
    if engine == "window":
        assert result.windows_elapsed > 0
        assert result.first_decision_window is not None
        assert result.steps_elapsed == 0
        assert result.first_decision_step is None
        assert len(result.configurations) == result.windows_elapsed + 1
    else:
        assert result.steps_elapsed > 0
        assert result.first_decision_step is not None
        assert result.windows_elapsed == 0
        assert result.first_decision_window is None
        assert result.configurations == []
