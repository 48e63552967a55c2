"""Benign and oblivious schedulers.

These adversaries cause no failures (or only oblivious, randomly placed
ones).  They serve two purposes: establishing the fast "friendly network"
baseline against which the adversarial slowdowns are measured, and checking
measure-one correctness under schedules that are legal but not worst-case.
"""

from __future__ import annotations

from typing import Optional

from repro.determinism import seeded_rng
from repro.adversaries.base import random_subset, senders_excluding
from repro.simulation.engine import Engine
from repro.simulation.windows import WindowAdversary, WindowSpec


class BenignAdversary(WindowAdversary):
    """No failures, full delivery: every window delivers everything.

    Against this scheduler the reset-tolerant algorithm decides in the first
    window for unanimous inputs and within a couple of windows otherwise —
    the friendly baseline of experiment E1.
    """

    def next_window(self, engine: Engine) -> WindowSpec:
        return WindowSpec.full_delivery(engine.n)


class RandomSchedulerAdversary(WindowAdversary):
    """Oblivious random scheduling with optional random resets.

    Each window, every processor hears from an independently chosen random
    set of ``n - t`` senders, and with probability ``reset_probability`` a
    random set of up to ``t`` processors is reset.  This adversary is not
    adaptive (it ignores processor state), so it exercises the protocol's
    tolerance of asynchrony without the full-information slowdowns.
    """

    def __init__(self, seed: Optional[int] = None,
                 reset_probability: float = 0.0) -> None:
        if not 0.0 <= reset_probability <= 1.0:
            raise ValueError("reset_probability must lie in [0, 1]")
        self.rng = seeded_rng(seed)
        self.reset_probability = reset_probability

    def next_window(self, engine: Engine) -> WindowSpec:
        n, t = engine.n, engine.t
        senders_for = tuple(
            random_subset(range(n), n - t, self.rng) for _ in range(n))
        resets = frozenset()
        if t > 0 and self.rng.random() < self.reset_probability:
            reset_count = self.rng.randint(1, t)
            resets = random_subset(range(n), reset_count, self.rng)
        return WindowSpec(senders_for=senders_for, resets=resets)


class SilencingAdversary(WindowAdversary):
    """Permanently silences a fixed set of up to ``t`` processors.

    Every processor hears from everyone except the silenced set, and no
    resets occur.  This is the schedule used in the proof of Lemma 11 (the
    adversary "always delivers the messages from the last ``n - t``
    processors"), and models classic crash-style omission without actually
    crashing anyone.
    """

    def __init__(self, silenced: Optional[frozenset] = None) -> None:
        self.silenced = silenced

    def next_window(self, engine: Engine) -> WindowSpec:
        n, t = engine.n, engine.t
        silenced = self.silenced
        if silenced is None:
            silenced = frozenset(range(t))
        if len(silenced) > t:
            raise ValueError(
                f"cannot silence {len(silenced)} > t = {t} processors")
        senders = senders_excluding(n, silenced)
        return WindowSpec.uniform(n, senders)


__all__ = ["BenignAdversary", "RandomSchedulerAdversary", "SilencingAdversary"]
