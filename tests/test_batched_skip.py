"""Blocked split-vote windows advanced in bulk, against the oracle.

While split-vote's ordering block holds, every processor flips a fresh
coin and nobody decides, so the batched engine advances a trial through
its whole run of such windows in one step (``_skip_blocked``).  Each
case here runs :func:`~repro.batched.engine.run_group` and compares every
trial's :class:`~repro.simulation.trace.ExecutionResult` field by field
with :func:`~repro.runner.spec.execute_trial`.  Where a skip is expected
the case also asserts ``skipped_windows > 0``, so the equality is never
vacuous.
"""

import random

import pytest

from repro.batched.engine import COIN_BLOCK, run_group
from repro.batched.support import group_specs
from repro.core.thresholds import ThresholdConfig, default_thresholds
from repro.experiments import get_experiment
from repro.runner.spec import TrialSpec, execute_trial
from repro.verification.batched_diff import RESULT_FIELDS


def _check_group(specs):
    """Run one batch; assert each trial equals the oracle; ``(results,
    stats)``."""
    results, stats = run_group(specs)
    for index, (spec, got) in enumerate(zip(specs, results)):
        want = execute_trial(spec)
        diff = {name: (getattr(got, name), getattr(want, name))
                for name in RESULT_FIELDS
                if getattr(got, name) != getattr(want, name)}
        assert not diff, f"trial {index}: {diff}"
    return results, stats


def _e2_specs(**params):
    cells = get_experiment("E2").cells(params, quick=False)
    return [spec for cell in cells for spec in cell.specs]


def _check_specs(specs):
    """Every batched group of ``specs``; the summed ``skipped_windows``."""
    plan = group_specs(specs)
    assert not plan.per_trial
    skipped = 0
    for _, members in plan.groups:
        _, stats = _check_group([specs[i] for i in members])
        skipped += stats["skipped_windows"]
    return skipped


def _split_specs(adversary, n, t, count, base_seed, max_windows=2000,
                 stop_when="first", kwargs_fn=None, protocol_kwargs=None):
    """``count`` trials with evenly split inputs, seed-deterministic."""
    rng = random.Random(base_seed)
    specs = []
    for index in range(count):
        kwargs = {"seed": rng.getrandbits(32)}
        if kwargs_fn is not None:
            kwargs.update(kwargs_fn(index))
        cap = max_windows[index] if isinstance(max_windows, list) \
            else max_windows
        specs.append(TrialSpec(
            protocol="reset-tolerant", adversary=adversary, n=n, t=t,
            inputs=tuple(pid % 2 for pid in range(n)),
            seed=rng.getrandbits(32), adversary_kwargs=kwargs,
            max_windows=cap, stop_when=stop_when,
            protocol_kwargs=dict(protocol_kwargs or {})))
    return specs


@pytest.mark.parametrize("use_resets", [True, False],
                         ids=["adaptive-resetting", "split-vote"])
@pytest.mark.parametrize("seed", [4, 5, 6, 7])
def test_perfbench_e2_grid(seed, use_resets):
    """The E2 grid perfbench runs, at each CLI seed it cycles through."""
    specs = _e2_specs(ns=(10, 13, 14), trials=120, seed=seed,
                      use_resets=use_resets)
    assert _check_specs(specs) > 0


@pytest.mark.parametrize("n, params", [
    (16, {"trials": 6, "seed": 3}),
    # One trial decides after 339 windows; the other is capped at 600.
    (24, {"trials": 2, "seed": 9, "max_windows": 600}),
])
def test_split_vote_runs_longer_than_the_coin_buffer(n, params):
    """Blocked runs that outlast ``COIN_BLOCK`` refill mid-skip: the
    engine runs far fewer windows than the longest trial."""
    specs = _e2_specs(ns=(n,), use_resets=False, **params)
    results, stats = _check_group(specs[0::2])
    longest = max(result.windows_elapsed for result in results)
    assert longest > 2 * COIN_BLOCK
    assert stats["windows"] < COIN_BLOCK
    assert stats["skipped_windows"] > longest - COIN_BLOCK


@pytest.mark.parametrize("adversary",
                         ["split-vote", "adaptive-resetting"])
def test_cap_inside_a_blocked_run(adversary):
    """Caps of every size around the skip's reach, in one batch: a trial
    capped mid-run stops exactly at its cap, undecided."""
    caps = [1, 2, 3, 4, 7, 20, COIN_BLOCK - 1, COIN_BLOCK, COIN_BLOCK + 1,
            2 * COIN_BLOCK + 3, 500] * 2
    specs = _split_specs(adversary, 16, 2, len(caps), 21, max_windows=caps)
    results, stats = _check_group(specs)
    assert stats["skipped_windows"] > 0
    capped = [result for result, cap in zip(results, caps)
              if result.windows_elapsed == cap
              and result.first_decision_window is None]
    assert any(result.windows_elapsed > 2 for result in capped)


@pytest.mark.parametrize("fraction", [0.5, 0.0])
def test_reset_fraction(fraction):
    """A partial reset budget (one reset a window at t=2) and none,
    which skips like plain split-vote."""
    specs = _split_specs("adaptive-resetting", 13, 2, 24, 31,
                         kwargs_fn=lambda _: {"reset_fraction": fraction})
    results, stats = _check_group(specs)
    assert stats["skipped_windows"] > 0
    assert (sum(result.total_resets for result in results) > 0) \
        == (fraction > 0)


def test_block_threshold_above_t3_never_skips():
    """Above ``T3`` a blocked window's majority can adopt without a
    flip, so no trial may skip; the results still equal the oracle."""
    t3 = default_thresholds(13, 2).t3
    specs = _split_specs("split-vote", 13, 2, 12, 41, max_windows=400,
                         kwargs_fn=lambda _: {"block_threshold": t3 + 1})
    _, stats = _check_group(specs)
    assert stats["skipped_windows"] == 0


def test_mixed_block_thresholds_skip_only_where_admitted():
    """One batch mixing thresholds below, at, above ``T3`` and negative
    (which blocks nothing): each trial still equals the oracle."""
    t3 = default_thresholds(13, 2).t3
    choices = [None, t3 - 1, t3 + 1, -1]
    specs = _split_specs(
        "adaptive-resetting", 13, 2, 16, 43, max_windows=400,
        kwargs_fn=lambda index: {"block_threshold": choices[index % 4]})
    _, stats = _check_group(specs)
    assert stats["skipped_windows"] > 0


@pytest.mark.parametrize("t1", [7, 8])
def test_t1_above_n_minus_2t_still_quarantines(t1):
    """``T1 > n - 2t``: a window after a reset and a hidden sender has
    fewer than ``T1`` voters, so the trial still quarantines (and
    ``run_group`` re-runs it on the oracle)."""
    specs = _split_specs(
        "adaptive-resetting", 8, 1, 24, 51, max_windows=300,
        stop_when="all",
        protocol_kwargs={"thresholds": ThresholdConfig(8, 1, t1, t1, 5),
                         "validate_thresholds": False})
    _, stats = _check_group(specs)
    assert stats["quarantined"] > 0
    assert stats["skipped_windows"] > 0


@pytest.mark.parametrize("t, t1, skipped", [(2, 7, 1), (1, 9, 0)])
def test_skip_stops_before_a_window_short_of_t1_voters(t, t1, skipped):
    """With ``T1 = T2 = T3`` the block holds whenever both values vote.
    At ``T1 = 7`` of 8 with two resets a window, the second window has
    only 6 voters: the skip takes exactly one window per trial.  At
    ``T1 = 9 > n`` no window has ``T1`` voters, so none is skipped.
    Either way the gate then quarantines every trial."""
    specs = _split_specs(
        "adaptive-resetting", 8, t, 24, 51, max_windows=300,
        protocol_kwargs={"thresholds": ThresholdConfig(8, t, t1, t1, t1),
                         "validate_thresholds": False})
    _, stats = _check_group(specs)
    assert stats["quarantined"] == len(specs)
    assert stats["skipped_windows"] == skipped * len(specs)


@pytest.mark.parametrize("state", ["backlog", "chain"])
def test_admission_bars_a_trial_outside_the_skip(state):
    """A trial with a queued stale vote, or with unequal ``max_chain``,
    is not admitted; its batch-mates skip and still equal the oracle.
    With the backlog, the trial's first reset (pid 0, the lowest of the
    majority zeros) leaves pid 0 resyncing with that vote on its
    channels, which the per-window gate quarantines."""
    from repro.batched.engine import BatchedWindowEngine

    specs = _split_specs("adaptive-resetting", 13, 2, 8, 71)
    batch = BatchedWindowEngine(specs)
    victim = 3
    if state == "backlog":
        batch.backlog[victim, 0] = 1
    else:
        batch.max_chain[victim, 0] = 1
    batch._skip_blocked()
    assert (batch.window > 0).tolist() == [index != victim
                                           for index in range(len(specs))]
    results, quarantined = batch.run()
    assert quarantined == ([victim] if state == "backlog" else [])
    for index, spec in enumerate(specs):
        if index != victim:
            assert results[index] == execute_trial(spec), index


@pytest.mark.parametrize("adversary",
                         ["split-vote", "adaptive-resetting"])
def test_stop_when_all(adversary):
    specs = _split_specs(adversary, 13, 2, 16, 61, stop_when="all")
    _, stats = _check_group(specs)
    assert stats["skipped_windows"] > 0
