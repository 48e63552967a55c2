"""Admissibility-preserving mutation and crossover operators on schedules.

A search genome is a window schedule: a list of
:class:`~repro.simulation.windows.WindowSpec` objects of fixed length (the
campaign horizon).  Every operator in this module maps *admissible*
schedules to *admissible* schedules — Definition 1 per window (sender sets
of size at least ``n - t``, at most ``t`` resets), plus the cumulative
crash budget of at most ``t`` distinct victims across the whole schedule —
so the search never proposes a candidate the engine would reject.
``tests/test_search_mutations.py`` holds this contract under hypothesis.

The operators mirror the adversary's levers in the paper's model:

* *delivery perturbation* — resample sender sets ``S_i`` (which votes a
  processor hears);
* *reset relocation* — move/add/clear the resetting step set ``R``;
* *crash relocation* — move crash placements between windows within the
  cumulative ``t``-victim budget (crash-model protocols);
* *deliver-last flips* — toggle which senders are pushed to the back of
  the within-window delivery order, hiding their votes from the first
  ``T1`` messages a processor acts on (the window-model analogue of
  equivocation-by-scheduling);
* *window splice* — crossover: a prefix of one parent with the suffix of
  another;
* *tail regrowth* — truncate at an index and regrow the rest with fresh
  windows.  Replayed executions are deterministic, so regrowing the tail
  *at the failure frontier* keeps the known-good undecided prefix and
  re-rolls only the doomed suffix — empirically the strongest operator by
  far, and the one the guided strategies lean on.
"""

from __future__ import annotations

import random
from typing import FrozenSet, List, Sequence, Set

from repro.adversaries.base import random_subset
from repro.adversaries.fuzzing import WindowSampler
from repro.simulation.windows import WindowSpec

Schedule = List[WindowSpec]


def crashed_victims(schedule: Sequence[WindowSpec]) -> Set[int]:
    """The distinct processors crashed anywhere in the schedule."""
    victims: Set[int] = set()
    for spec in schedule:
        victims |= spec.crashes
    return victims


def is_admissible(schedule: Sequence[WindowSpec], n: int, t: int) -> bool:
    """Whether every window satisfies Definition 1 and crashes fit ``t``."""
    from repro.simulation.errors import InvalidWindowError

    for spec in schedule:
        try:
            spec.validate(n, t)
        except InvalidWindowError:
            return False
    return len(crashed_victims(schedule)) <= t


def _repair_crashes(schedule: Sequence[WindowSpec], t: int) -> Schedule:
    """Drop crash placements (latest first) until at most ``t`` victims.

    Crossovers can combine prefixes and suffixes whose crash sets are
    individually within budget but jointly over it; dropping the *later*
    extra victims keeps the (usually optimized) prefix intact.
    """
    victims: Set[int] = set()
    repaired: Schedule = []
    for spec in schedule:
        fresh = spec.crashes - victims
        allowed = t - len(victims)
        if len(fresh) > allowed:
            keep = frozenset(sorted(fresh)[:allowed]) | \
                (spec.crashes & victims)
            spec = WindowSpec(senders_for=spec.senders_for,
                              resets=spec.resets, crashes=keep,
                              deliver_last=spec.deliver_last)
        victims |= spec.crashes
        repaired.append(spec)
    return repaired


# ----------------------------------------------------------------------
# Point mutations (one window).
# ----------------------------------------------------------------------
def perturb_delivery(schedule: Sequence[WindowSpec], index: int,
                     sampler: WindowSampler,
                     rng: random.Random) -> Schedule:
    """Resample the sender sets of a few receivers in one window."""
    n, t = sampler.n, sampler.t
    child = list(schedule)
    spec = child[index]
    senders = list(spec.senders_for)
    for _ in range(rng.randint(1, max(1, n // 3))):
        pid = rng.randrange(n)
        senders[pid] = random_subset(range(n), rng.randint(n - t, n), rng)
    child[index] = WindowSpec(senders_for=tuple(senders), resets=spec.resets,
                              crashes=spec.crashes,
                              deliver_last=spec.deliver_last)
    return child


def relocate_resets(schedule: Sequence[WindowSpec], index: int,
                    sampler: WindowSampler,
                    rng: random.Random) -> Schedule:
    """Move, add or clear the reset set of one window (size at most t).

    Resets are only *added* when the sampler's fault model uses them
    (``reset_probability > 0``); crash-model campaigns may clear stray
    resets but never gain new ones.
    """
    n, t = sampler.n, sampler.t
    child = list(schedule)
    spec = child[index]
    # repro: allow[D4] -- 0.0 is the fault model's exact off-switch sentinel
    if t == 0 or sampler.reset_probability == 0.0 or \
            (spec.resets and rng.random() < 0.4):
        resets: FrozenSet[int] = frozenset()
    else:
        resets = random_subset(range(n), rng.randint(1, t), rng)
    child[index] = WindowSpec(senders_for=spec.senders_for, resets=resets,
                              crashes=spec.crashes,
                              deliver_last=spec.deliver_last)
    return child


def relocate_crashes(schedule: Sequence[WindowSpec], index: int,
                     sampler: WindowSampler,
                     rng: random.Random) -> Schedule:
    """Move a crash placement into (or out of) one window, within budget.

    The new victim is drawn from the already-crashed set when the budget
    is exhausted, so the distinct-victim count never grows past ``t``.
    Crashes are only *added* when the sampler's fault model uses them
    (``crash_probability > 0``); reset-model campaigns may drop stray
    crashes but never gain new ones — the searched adversary must not
    exceed the powers of the model under test.
    """
    n, t = sampler.n, sampler.t
    child = list(schedule)
    spec = child[index]
    if spec.crashes and rng.random() < 0.5:
        crashes: FrozenSet[int] = frozenset(sorted(spec.crashes)[1:])
    else:
        # repro: allow[D4] -- 0.0 is the fault model's exact off-switch sentinel
        if t == 0 or sampler.crash_probability == 0.0:
            return child
        victims = crashed_victims(child)
        pool = sorted(victims) if len(victims) >= t else list(range(n))
        crashes = spec.crashes | {rng.choice(pool)}
    child[index] = WindowSpec(senders_for=spec.senders_for,
                              resets=spec.resets, crashes=crashes,
                              deliver_last=spec.deliver_last)
    return _repair_crashes(child, t)


def flip_deliver_last(schedule: Sequence[WindowSpec], index: int,
                      sampler: WindowSampler,
                      rng: random.Random) -> Schedule:
    """Toggle or resample the deprioritised-sender set of one window."""
    n = sampler.n
    child = list(schedule)
    spec = child[index]
    if spec.deliver_last and rng.random() < 0.4:
        deliver_last: FrozenSet[int] = frozenset()
    else:
        deliver_last = random_subset(range(n), rng.randint(1, n), rng)
    child[index] = WindowSpec(senders_for=spec.senders_for,
                              resets=spec.resets, crashes=spec.crashes,
                              deliver_last=deliver_last)
    return child


# ----------------------------------------------------------------------
# Structural operators.
# ----------------------------------------------------------------------
def splice(first: Sequence[WindowSpec], second: Sequence[WindowSpec],
           index: int, t: int) -> Schedule:
    """Crossover: ``first[:index]`` spliced onto ``second[index:]``.

    The combined crash placements are repaired back into the cumulative
    ``t``-victim budget.
    """
    return _repair_crashes(list(first[:index]) + list(second[index:]), t)


def regrow_tail(schedule: Sequence[WindowSpec], index: int,
                sampler: WindowSampler, rng: random.Random) -> Schedule:
    """Keep ``schedule[:index]`` and regrow the rest with fresh windows.

    Replayed executions are deterministic, so regrowing at (a few windows
    before) the failure frontier preserves the undecided prefix while
    re-rolling the collapse that ended it.
    """
    child = list(schedule[:index])
    victims = crashed_victims(child)
    for _ in range(len(schedule) - index):
        spec = sampler.window(rng, crashes_left=sampler.t - len(victims))
        victims |= spec.crashes
        child.append(spec)
    return child


POINT_MUTATIONS = (perturb_delivery, relocate_resets, relocate_crashes,
                   flip_deliver_last)
"""The single-window operators, in a stable order for seeded choice."""


def mutate(schedule: Sequence[WindowSpec], frontier: int,
           sampler: WindowSampler, rng: random.Random,
           reach: int = 8) -> Schedule:
    """One guided mutation of ``schedule``.

    Args:
        schedule: the parent genome (admissible).
        frontier: the parent's failure frontier — the window index where
            its execution went wrong (for window-count objectives, its
            score).  Mutations concentrate just *before* this point:
            single-window edits inside the already-collapsed suffix are
            almost always inconsequential.
        sampler: the window-sampling distribution (and the (n, t) system).
        rng: the strategy's seeded stream.
        reach: how far before the frontier mutation points are drawn.
    """
    last = len(schedule) - 1
    anchor = min(max(0, frontier), last)
    index = max(0, anchor - rng.randint(0, reach))
    if rng.random() < 0.7:
        return regrow_tail(schedule, index, sampler, rng)
    operator = POINT_MUTATIONS[rng.randrange(len(POINT_MUTATIONS))]
    return operator(schedule, index, sampler, rng)


__all__ = [
    "Schedule",
    "crashed_victims",
    "is_admissible",
    "perturb_delivery",
    "relocate_resets",
    "relocate_crashes",
    "flip_deliver_last",
    "splice",
    "regrow_tail",
    "POINT_MUTATIONS",
    "mutate",
]
