"""Hypothesis property tests: mutation operators preserve admissibility.

The contract of :mod:`repro.search.mutations`: every operator maps
schedules that satisfy Definition 1 (sender sets of size at least
``n - t``, at most ``t`` resets per window) and the cumulative
``t``-victim crash budget to schedules that still satisfy all of it.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversaries.fuzzing import WindowSampler
from repro.search.mutations import (POINT_MUTATIONS, crashed_victims,
                                    flip_deliver_last, is_admissible,
                                    mutate, perturb_delivery,
                                    regrow_tail, relocate_crashes,
                                    relocate_resets, splice)

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def systems(draw):
    """(sampler, schedule, rng): an admissible schedule plus its context."""
    n = draw(st.integers(4, 13))
    t = draw(st.integers(1, max(1, (n - 1) // 2)))
    crash_model = draw(st.booleans())
    sampler = WindowSampler(
        n=n, t=t,
        reset_probability=0.0 if crash_model else 0.4,
        crash_probability=0.35 if crash_model else 0.0)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.integers(1, 12))
    schedule = sampler.schedule(length, rng)
    return sampler, schedule, rng


@_SETTINGS
@given(systems())
def test_sampled_schedules_are_admissible(system):
    sampler, schedule, _ = system
    assert is_admissible(schedule, sampler.n, sampler.t)


@pytest.mark.parametrize("operator", POINT_MUTATIONS,
                         ids=lambda op: op.__name__)
def test_point_mutations_preserve_admissibility(operator):
    @_SETTINGS
    @given(systems(), st.integers(0, 10**6))
    def check(system, raw_index):
        sampler, schedule, rng = system
        index = raw_index % len(schedule)
        child = operator(schedule, index, sampler, rng)
        assert len(child) == len(schedule)
        assert is_admissible(child, sampler.n, sampler.t)

    check()


@_SETTINGS
@given(systems(), st.integers(0, 10**6))
def test_regrow_tail_preserves_admissibility_and_prefix(system, raw_index):
    sampler, schedule, rng = system
    index = raw_index % (len(schedule) + 1)
    child = regrow_tail(schedule, index, sampler, rng)
    assert len(child) == len(schedule)
    assert child[:index] == schedule[:index]
    assert is_admissible(child, sampler.n, sampler.t)


@_SETTINGS
@given(systems(), st.integers(0, 2**32 - 1), st.integers(0, 10**6))
def test_splice_preserves_admissibility(system, other_seed, raw_index):
    sampler, first, _ = system
    other_rng = random.Random(other_seed)
    second = sampler.schedule(len(first), other_rng)
    index = raw_index % (len(first) + 1)
    child = splice(first, second, index, sampler.t)
    assert len(child) == len(first)
    assert is_admissible(child, sampler.n, sampler.t)
    # The prefix comes from the first parent untouched.
    assert child[:index] == list(first[:index])


@_SETTINGS
@given(systems(), st.integers(0, 10**6))
def test_guided_mutate_preserves_admissibility(system, frontier):
    sampler, schedule, rng = system
    child = mutate(schedule, frontier % (len(schedule) + 3), sampler, rng)
    assert len(child) == len(schedule)
    assert is_admissible(child, sampler.n, sampler.t)


def test_crash_budget_survives_adversarial_splices():
    """Splicing two budget-saturated parents still fits the budget."""
    rng = random.Random(0)
    sampler = WindowSampler(n=9, t=2, reset_probability=0.0,
                            crash_probability=0.9)
    for trial in range(50):
        first = sampler.schedule(8, rng)
        second = sampler.schedule(8, rng)
        child = splice(first, second, rng.randint(0, 8), sampler.t)
        assert len(crashed_victims(child)) <= sampler.t
        assert is_admissible(child, sampler.n, sampler.t)


def test_mutations_respect_the_sampler_fault_model():
    """Reset-model mutants never gain crashes, crash-model never resets.

    The searched adversary must not exceed the powers of the fault model
    under test (a crash is strictly stronger than a reset), or hardness
    comparisons like E9 would overstate the search's wins.
    """
    rng = random.Random(0)
    reset_model = WindowSampler(n=9, t=2, reset_probability=0.4,
                                crash_probability=0.0)
    crash_model = WindowSampler(n=9, t=2, reset_probability=0.0,
                                crash_probability=0.3)
    for sampler, forbidden in ((reset_model, "crashes"),
                               (crash_model, "resets")):
        schedule = sampler.schedule(8, rng)
        assert not any(getattr(spec, forbidden) for spec in schedule)
        for _ in range(300):
            child = mutate(schedule, rng.randint(0, 8), sampler, rng)
            assert not any(getattr(spec, forbidden) for spec in child), \
                f"mutation injected {forbidden} under the other model"


def test_operators_are_deterministic_given_the_rng_seed():
    sampler = WindowSampler(n=9, t=2)
    schedule = sampler.schedule(6, random.Random(1))
    for operator in POINT_MUTATIONS + (regrow_tail,):
        first = operator(schedule, 3, sampler, random.Random(7))
        second = operator(schedule, 3, sampler, random.Random(7))
        assert first == second, operator.__name__


def test_is_admissible_rejects_bad_schedules():
    from repro.simulation.windows import WindowSpec

    n, t = 6, 1
    tiny = frozenset(range(n - t - 1))  # too small a sender set
    bad = [WindowSpec(senders_for=tuple(tiny for _ in range(n)))]
    assert not is_admissible(bad, n, t)
    everyone = frozenset(range(n))
    over_reset = [WindowSpec(senders_for=tuple(everyone for _ in range(n)),
                             resets=frozenset({0, 1}))]
    assert not is_admissible(over_reset, n, t)
    crash_a = WindowSpec(senders_for=tuple(everyone for _ in range(n)),
                         crashes=frozenset({0}))
    crash_b = WindowSpec(senders_for=tuple(everyone for _ in range(n)),
                         crashes=frozenset({1}))
    assert not is_admissible([crash_a, crash_b], n, t)  # 2 victims > t
    assert is_admissible([crash_a, crash_a], n, t)  # same victim twice
