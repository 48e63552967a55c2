"""The batched engine against the per-trial oracle, shape by shape.

Every (adversary, stop rule) combination the batched backend claims to
vectorize for the reset-tolerant protocol is exercised here with a grid
of seed-deterministic specs — mixed inputs, mixed seeds, resets and
deliver-last perturbations — and each trial's full
:class:`~repro.simulation.trace.ExecutionResult` must equal what
:func:`~repro.runner.spec.execute_trial` produces.  The shapes it
declines (Ben-Or, replayed schedules) must carry their fallback reason
and still match the oracle through the per-trial path.  This is the
bit-identity contract at its finest grain; the differential harness
(``test_batched_differential.py``) re-checks it on the real experiment
grids and through the runner stack.
"""

import random

import pytest

from repro.batched.support import batch_signature, unsupported_reason
from repro.core.thresholds import ThresholdConfig, ThresholdError
from repro.runner.spec import TrialSpec, execute_trial
from repro.simulation.windows import WindowSpec


def _specs(protocol, adversary, n, t, count, base_seed, stop_when="all",
           adversary_kwargs_fn=None, max_windows=2000, protocol_kwargs=None):
    rng = random.Random(base_seed)
    specs = []
    for _ in range(count):
        inputs = tuple(rng.getrandbits(1) for _ in range(n))
        kwargs = adversary_kwargs_fn(rng) if adversary_kwargs_fn else {}
        specs.append(TrialSpec(
            protocol=protocol, adversary=adversary, n=n, t=t,
            inputs=inputs, seed=rng.getrandbits(32),
            adversary_kwargs=kwargs, stop_when=stop_when,
            max_windows=max_windows,
            protocol_kwargs=dict(protocol_kwargs or {})))
    return specs


def _random_schedule(rng, n, t, length, with_resets=True,
                     with_crashes=False):
    crash_order = list(range(n))
    rng.shuffle(crash_order)
    crash_pool = crash_order[:t]
    used_crashes = set()
    schedule = []
    for _ in range(length):
        senders_for = []
        for _receiver in range(n):
            hidden = rng.sample(range(n), rng.randint(0, t))
            senders_for.append(frozenset(range(n)) - frozenset(hidden))
        resets = frozenset(rng.sample(range(n), rng.randint(0, t))) \
            if with_resets and rng.random() < 0.4 else frozenset()
        crashes = frozenset()
        if with_crashes and rng.random() < 0.2 and len(used_crashes) < t:
            pick = rng.choice(crash_pool)
            used_crashes.add(pick)
            crashes = frozenset({pick})
        deliver_last = frozenset(rng.sample(range(n),
                                            rng.randint(0, n // 2))) \
            if rng.random() < 0.5 else frozenset()
        schedule.append(WindowSpec(
            senders_for=tuple(senders_for), resets=resets,
            crashes=crashes, deliver_last=deliver_last).to_jsonable())
    return schedule


def _replay_kwargs(n, t, with_resets, with_crashes):
    def build(rng):
        return {"schedule": _random_schedule(
            rng, n, t, rng.randint(1, 12), with_resets, with_crashes)}
    return build


def _seeded(rng):
    return {"seed": rng.getrandbits(32)}


SHAPES = {
    "rt-benign-all": lambda: _specs(
        "reset-tolerant", "benign", 8, 1, 12, 1),
    "rt-benign-first": lambda: _specs(
        "reset-tolerant", "benign", 8, 1, 12, 2, stop_when="first"),
    "rt-silencing": lambda: _specs(
        "reset-tolerant", "silencing", 8, 1, 12, 5),
    "rt-split-vote": lambda: _specs(
        "reset-tolerant", "split-vote", 8, 1, 16, 7,
        adversary_kwargs_fn=_seeded),
    "rt-adaptive": lambda: _specs(
        "reset-tolerant", "adaptive-resetting", 8, 1, 16, 9,
        stop_when="first",
        adversary_kwargs_fn=lambda r: {"seed": r.getrandbits(32),
                                       "reset_fraction": 1.0}),
    "rt-adaptive-frac": lambda: _specs(
        "reset-tolerant", "adaptive-resetting", 13, 2, 10, 10,
        stop_when="first",
        adversary_kwargs_fn=lambda r: {"seed": r.getrandbits(32),
                                       "reset_fraction": 0.5}),
    # T1 = 7 > n - 2t = 6: once a window resets one processor and the
    # adversary hides another, fewer than T1 synchronised voters remain,
    # receivers would buffer a partial tally, and the trial quarantines.
    "rt-adaptive-over-threshold": lambda: _specs(
        "reset-tolerant", "adaptive-resetting", 8, 1, 12, 12,
        adversary_kwargs_fn=_seeded, max_windows=300,
        protocol_kwargs={"thresholds": ThresholdConfig(8, 1, 7, 7, 5),
                         "validate_thresholds": False}),
    # n above 64: the engine holds no per-sender bitmask, so no n cap.
    "rt-silencing-n80": lambda: _specs(
        "reset-tolerant", "silencing", 80, 2, 3, 14, max_windows=6),
}

_QUARANTINING = "rt-adaptive-over-threshold"


_BEN_OR = "protocol 'ben-or' not vectorized"
_REPLAY = "adversary 'replay-schedule' not vectorized"

# Shapes the batched backend declines: each must carry its fallback reason
# and still come back from ``backend="batched"`` equal to the oracle.
DECLINED_SHAPES = {
    "benor-benign-all": (_BEN_OR, lambda: _specs(
        "ben-or", "benign", 8, 1, 12, 3)),
    "benor-benign-first": (_BEN_OR, lambda: _specs(
        "ben-or", "benign", 7, 2, 12, 4, stop_when="first")),
    "benor-silencing": (_BEN_OR, lambda: _specs(
        "ben-or", "silencing", 9, 2, 12, 6,
        adversary_kwargs_fn=lambda r: {"silenced": (0, 1)})),
    "benor-split-vote": (_BEN_OR, lambda: _specs(
        "ben-or", "split-vote", 8, 1, 16, 8, stop_when="first",
        adversary_kwargs_fn=_seeded)),
    "rt-replay-benign-pad": (_REPLAY, lambda: _specs(
        "reset-tolerant", "replay-schedule", 8, 1, 12, 11,
        adversary_kwargs_fn=_replay_kwargs(8, 1, True, True))),
    "benor-replay-benign-pad": (_BEN_OR, lambda: _specs(
        "ben-or", "replay-schedule", 8, 1, 12, 13,
        adversary_kwargs_fn=_replay_kwargs(8, 1, False, True))),
}


@pytest.mark.parametrize("shape", sorted(SHAPES), ids=sorted(SHAPES))
def test_engine_is_bit_identical_to_oracle(shape):
    from repro.batched.engine import BatchedWindowEngine

    specs = SHAPES[shape]()
    for spec in specs:
        assert unsupported_reason(spec) is None
    assert len({batch_signature(spec) for spec in specs}) == 1
    results, quarantined = BatchedWindowEngine(specs).run()
    if shape != _QUARANTINING:
        assert quarantined == [], shape
    for index, spec in enumerate(specs):
        if index in quarantined:
            continue  # quarantined trials rerun on the oracle upstream
        assert results[index] == execute_trial(spec), f"{shape}[{index}]"


def test_quarantined_indices_have_no_result():
    """A quarantined trial yields None, never a wrong result, and
    ``run_group`` re-runs it on the oracle."""
    from repro.batched import engine

    specs = SHAPES[_QUARANTINING]()
    results, quarantined = engine.BatchedWindowEngine(specs).run()
    assert 0 < len(quarantined) < len(specs)
    for index in quarantined:
        assert results[index] is None
    grouped, stats = engine.run_group(specs)
    assert set(stats) == {f"{name}_s" for name in engine.PHASES} | {
        "windows", "quarantined"}
    assert stats["quarantined"] == len(quarantined)
    assert stats["windows"] > 0
    assert grouped == [execute_trial(spec) for spec in specs]


@pytest.mark.parametrize("state", ["stale-channel", "few-voters"])
def test_gate_quarantines_only_the_trial_outside_the_closed_form(state):
    """A trial set directly into a state the closed form cannot run
    quarantines before its next window; its batch-mates still equal the
    oracle.  The benign adversary permits every sender."""
    from repro.batched.engine import BatchedWindowEngine

    specs = SHAPES["rt-benign-all"]()
    batch = BatchedWindowEngine(specs)
    victim = 3
    if state == "stale-channel":
        # Processor 0 resyncs with a vote queued from a window that
        # excluded it: permitted now, its channels would deliver that
        # stale vote.
        batch.resync[victim, 0] = True
        batch.est[victim, 0] = -1
        batch.backlog[victim, 0] = 1
    else:
        # Resyncing processors are silent: one voter short of T1.
        silent = batch.n - batch.t1 + 1
        batch.resync[victim, :silent] = True
        batch.est[victim, :silent] = -1
    assert batch._fast_ready(batch.driver.next_window(batch)[0]).tolist() \
        == [index != victim for index in range(len(specs))]
    results, quarantined = batch.run()
    assert quarantined == [victim]
    assert results[victim] is None
    for index, spec in enumerate(specs):
        if index != victim:
            assert results[index] == execute_trial(spec), index


@pytest.mark.parametrize("workers", [0, 2])
def test_runner_reruns_quarantined_trials(workers):
    """Through the runner, quarantined trials come back equal to the
    oracle, and the quarantine counter matches the batch spans."""
    from repro.runner import run_trials
    from repro.telemetry import Telemetry

    specs = SHAPES[_QUARANTINING]()
    events = []
    telemetry = Telemetry()
    telemetry.add_listener(events.append)
    assert run_trials(specs, workers=workers, backend="batched",
                      telemetry=telemetry) == \
        [execute_trial(spec) for spec in specs]
    batches = [event for event in events if event["kind"] == "span"
               and event["name"] == "batch"]
    assert batches
    quarantined = sum(batch["quarantined"] for batch in batches)
    assert quarantined > 0
    assert telemetry.counters["quarantined_mid_batch"] == quarantined


def _e2_quick_groups():
    from repro.batched.support import group_specs
    from repro.experiments import get_experiment

    experiment = get_experiment("E2")
    specs = [spec for cell in experiment.cells(None, quick=True)
             for spec in cell.specs]
    groups = [[specs[i] for i in members]
              for _, members in group_specs(specs).groups]
    return [group for group in groups
            if group[0].adversary == "adaptive-resetting"]


def test_reset_windows_take_the_closed_form():
    """Resetting workloads run every window in closed form: none of E2's
    quick reset groups, nor the adaptive shapes, quarantines a trial, and
    the results still equal the oracle's."""
    from repro.batched.engine import BatchedWindowEngine

    groups = _e2_quick_groups()
    assert groups
    groups += [SHAPES["rt-adaptive"](), SHAPES["rt-adaptive-frac"]()]
    for specs in groups:
        batch = BatchedWindowEngine(specs)
        results, quarantined = batch.run()
        assert not quarantined
        assert results == [execute_trial(spec) for spec in specs]
        assert batch.windows > 0
        assert any(result.total_resets for result in results)


def test_support_gate_declines_what_the_oracle_rejects():
    """Specs the oracle raises on must be declined, not emulated."""
    base = dict(protocol="reset-tolerant", adversary="split-vote",
                n=8, t=1, inputs=(0, 1) * 4, seed=7,
                adversary_kwargs={"seed": 3})
    assert unsupported_reason(TrialSpec(**base)) is None
    unseeded = dict(base, adversary_kwargs={})
    assert "unseeded" in unsupported_reason(TrialSpec(**unseeded))
    no_seed = dict(base, seed=None)
    assert "unseeded trial" in unsupported_reason(TrialSpec(**no_seed))
    traced = dict(base, record_trace=True)
    assert "trace" in unsupported_reason(TrialSpec(**traced))
    stepped = dict(base, engine="step")
    assert "step engine" in unsupported_reason(TrialSpec(**stepped))
    byzantine = dict(base, adversary="random-scheduler",
                     adversary_kwargs={})
    assert "not vectorized" in unsupported_reason(TrialSpec(**byzantine))
    # Unvalidated T1 = 0: a processor waiting for zero votes never
    # finishes a round, so the oracle raises instead of recursing.
    zero_t1 = TrialSpec(**dict(base, protocol_kwargs={
        "thresholds": ThresholdConfig(8, 1, 0, 0, 0),
        "validate_thresholds": False}))
    assert unsupported_reason(zero_t1) == "invalid thresholds (oracle raises)"
    with pytest.raises(ThresholdError):
        execute_trial(zero_t1)


@pytest.mark.parametrize("workers", [0, 2])
def test_zero_t1_fails_alike_on_both_backends(workers):
    """A group the oracle cannot run yields the same failures either way."""
    from repro.runner import TrialFailure, run_trials

    specs = _specs("reset-tolerant", "split-vote", 8, 1, 2, 23,
                   adversary_kwargs_fn=_seeded, protocol_kwargs={
                       "thresholds": ThresholdConfig(8, 1, 0, 0, 0),
                       "validate_thresholds": False})
    failures = run_trials(specs, workers=workers, backend="trial")
    assert all(isinstance(item, TrialFailure) and
               item.error.startswith("ThresholdError(") for item in failures)
    assert run_trials(specs, workers=workers, backend="batched") == failures


@pytest.mark.parametrize("shape", sorted(DECLINED_SHAPES),
                         ids=sorted(DECLINED_SHAPES))
def test_declined_shape_matches_oracle_per_trial(shape):
    from repro.batched.support import group_specs
    from repro.runner import run_trials

    reason, build = DECLINED_SHAPES[shape]
    specs = build()
    for spec in specs:
        assert unsupported_reason(spec) == reason
    plan = group_specs(specs)
    assert plan.groups == [] and plan.per_trial == list(range(len(specs)))
    assert plan.reasons == {reason: len(specs)}
    assert run_trials(specs, workers=0, backend="batched") == \
        [execute_trial(spec) for spec in specs]


def test_ben_or_resets_are_declined():
    spec = TrialSpec(
        protocol="ben-or", adversary="adaptive-resetting", n=8, t=1,
        inputs=(0, 1) * 4, seed=7,
        adversary_kwargs={"seed": 3, "reset_fraction": 1.0})
    assert unsupported_reason(spec) == _BEN_OR


def test_ben_or_and_replay_specs_fall_back_per_trial():
    """Only the reset-tolerant protocol under the four window adversaries
    batches; Ben-Or and replayed schedules run on the per-trial oracle."""
    from repro.batched.support import group_specs
    from repro.runner import run_trials

    mixed = (
        _specs("ben-or", "benign", 8, 1, 3, 30)
        + _specs("ben-or", "split-vote", 8, 1, 3, 31, stop_when="first",
                 adversary_kwargs_fn=_seeded)
        + _specs("reset-tolerant", "replay-schedule", 8, 1, 3, 32,
                 adversary_kwargs_fn=_replay_kwargs(8, 1, True, True))
        + _specs("ben-or", "replay-schedule", 8, 1, 3, 33,
                 adversary_kwargs_fn=_replay_kwargs(8, 1, True, True))
        + _specs("reset-tolerant", "split-vote", 8, 1, 4, 34,
                 adversary_kwargs_fn=_seeded))
    plan = group_specs(mixed)
    assert [members for _, members in plan.groups] == [[12, 13, 14, 15]]
    assert plan.per_trial == list(range(12))
    assert plan.reasons == {_BEN_OR: 9, _REPLAY: 3}
    for index in range(12):
        reason = unsupported_reason(mixed[index])
        assert reason == (_REPLAY if 6 <= index < 9 else _BEN_OR)
    oracle = [execute_trial(spec) for spec in mixed]
    assert any(result.total_resets for result in oracle[6:12])
    assert any(result.crashed for result in oracle[6:12])
    for workers in (0, 2):
        assert run_trials(mixed, workers=workers,
                          backend="batched") == oracle


def test_grouping_falls_back_and_runner_interleaves_in_order():
    """Mixed supported/unsupported specs come back in submission order."""
    from repro.batched.support import group_specs
    from repro.runner import run_trials

    supported = _specs("reset-tolerant", "split-vote", 8, 1, 6, 20,
                       adversary_kwargs_fn=_seeded)
    unsupported = _specs("reset-tolerant", "split-vote", 8, 1, 3, 21)
    mixed = [spec for pair in zip(supported, unsupported + supported[:3])
             for spec in pair]
    plan = group_specs(mixed)
    assert [members for _, members in plan.groups] == [
        [0, 2, 4, 6, 7, 8, 9, 10, 11]]
    assert plan.per_trial == [1, 3, 5]
    assert plan.reasons == {
        "unseeded adversary (shared fallback stream)": len(unsupported)}
    oracle = [execute_trial(spec) for spec in mixed]
    for workers in (0, 2):
        assert run_trials(mixed, workers=workers,
                          backend="batched") == oracle


@pytest.mark.parametrize("workers", [0, 2])
def test_singleton_group_runs_batched(workers):
    from repro.batched.support import group_specs
    from repro.runner import run_trials
    from repro.telemetry import Telemetry

    specs = _specs("reset-tolerant", "split-vote", 8, 1, 1, 22,
                   adversary_kwargs_fn=_seeded)
    plan = group_specs(specs)
    assert plan.groups == [(batch_signature(specs[0]), [0])]
    assert plan.per_trial == [] and not plan.reasons
    events = []
    telemetry = Telemetry()
    telemetry.add_listener(events.append)
    assert run_trials(specs, workers=workers, backend="batched",
                      telemetry=telemetry) == [execute_trial(specs[0])]
    assert [event["trials"] for event in events if event["kind"] == "span"
            and event["name"] == "batch"] == [1]


def test_bulk_coins_follow_each_stream_flip_by_flip():
    """Coins drawn COIN_BLOCK at a time are the stream's ``getrandbits(1)``
    flips, across refills and with streams exhausted at different times."""
    import numpy as np

    from repro.batched.engine import COIN_BLOCK, BatchedWindowEngine
    from repro.determinism import seeded_rng

    specs = _specs("reset-tolerant", "benign", 8, 1, 3, base_seed=11)
    engine = BatchedWindowEngine(specs)
    replicas = []
    for spec in specs:
        master = seeded_rng(spec.seed)
        replicas.append([random.Random(master.getrandbits(64))
                         for _ in range(spec.n)])
    rng = random.Random(5)
    pairs = [(trial, pid) for trial in range(3) for pid in range(8)]
    for _ in range(3 * COIN_BLOCK):
        flipping = sorted(rng.sample(pairs, rng.randint(1, len(pairs))))
        tt = np.array([trial for trial, _ in flipping])
        pp = np.array([pid for _, pid in flipping])
        expected = [replicas[trial][pid].getrandbits(1)
                    for trial, pid in flipping]
        assert engine._draw_coins(tt, pp).tolist() == expected
