"""Acceptable windows and the window-structured execution engine.

Definition 1 of the paper: an *acceptable window* is a consecutive segment of
steps in which (1) all ``n`` processors take sending steps, (2) each
processor ``i`` receives the messages just sent to it by a set ``S_i`` of at
least ``n - t`` senders, and (3) at most ``t`` resetting steps occur.  The
strongly adaptive adversary must structure every infinite execution as a
concatenation of acceptable windows; the number of windows before the first
decision is the running-time measure of Theorems 4 and 5.

This module holds the window vocabulary: :class:`WindowSpec` (the sets
``R, S_1, ..., S_n`` plus, for the crash-model experiments, a crash set) and
the :class:`WindowAdversary` interface that chooses them.  Executing a
window is a scheduling policy of the one execution engine,
:meth:`repro.simulation.engine.Engine.run_window`, which applies the same
send / receive / reset / crash primitives as a single step, in the order
Definition 1 prescribes.  Because the window structure is itself the model,
that policy is an exact — not approximate — realisation of the paper's
execution model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.simulation.engine import Engine
from repro.simulation.errors import InvalidWindowError
from repro.simulation.trace import ExecutionResult


@dataclass(frozen=True)
class WindowSpec:
    """The adversary's choices for one acceptable window.

    Attributes:
        senders_for: for each processor ``i``, the set ``S_i`` of senders
            whose freshly sent messages are delivered to ``i`` this window.
            Each set must have size at least ``n - t`` (Definition 1).
        resets: the set ``R`` of processors reset at the end of the window,
            of size at most ``t``.
        crashes: processors crashed at the start of the window.  Not part of
            Definition 1 (the strongly adaptive adversary uses resets, not
            crashes); used when the same engine drives the crash-failure
            experiments of Section 5, where the cumulative number of crashes
            is bounded by ``t``.
        deliver_last: senders whose messages are delivered *after* everyone
            else's within the window.  Definition 1 lets the adversary pick
            the order of the receiving steps; since the protocols act as
            soon as their waiting threshold (``T1`` or ``n - t``) is
            reached, pushing selected senders to the back of the delivery
            order effectively hides their votes from that decision without
            violating the delivery requirement.  Empty by default (delivery
            in sender order).
    """

    senders_for: Tuple[FrozenSet[int], ...]
    resets: FrozenSet[int] = frozenset()
    crashes: FrozenSet[int] = frozenset()
    deliver_last: FrozenSet[int] = frozenset()

    @staticmethod
    def full_delivery(n: int) -> "WindowSpec":
        """The fault-free window: everyone hears everyone, nobody is reset."""
        everyone = frozenset(range(n))
        return WindowSpec(senders_for=tuple(everyone for _ in range(n)))

    def to_jsonable(self) -> dict:
        """A plain-JSON encoding of this window specification.

        The encoding is the schedule-artifact format shared by the fuzz
        counterexamples (:mod:`repro.verification.shrink`), the search
        best-schedule artifacts (:mod:`repro.search`) and the
        ``replay-schedule`` adversary's picklable constructor kwargs.
        """
        return {
            "senders_for": [sorted(senders) for senders in self.senders_for],
            "resets": sorted(self.resets),
            "crashes": sorted(self.crashes),
            "deliver_last": sorted(self.deliver_last),
        }

    @staticmethod
    def from_jsonable(data: dict) -> "WindowSpec":
        """Rebuild a window specification from its JSON encoding."""
        return WindowSpec(
            senders_for=tuple(frozenset(senders)
                              for senders in data["senders_for"]),
            resets=frozenset(data.get("resets", ())),
            crashes=frozenset(data.get("crashes", ())),
            deliver_last=frozenset(data.get("deliver_last", ())))

    @staticmethod
    def uniform(n: int, senders: FrozenSet[int],
                resets: FrozenSet[int] = frozenset(),
                crashes: FrozenSet[int] = frozenset(),
                deliver_last: FrozenSet[int] = frozenset()) -> "WindowSpec":
        """A window where every processor hears from the same sender set."""
        return WindowSpec(senders_for=tuple(senders for _ in range(n)),
                          resets=resets, crashes=crashes,
                          deliver_last=deliver_last)

    def validate(self, n: int, t: int) -> None:
        """Check the Definition 1 constraints, raising on violation."""
        if len(self.senders_for) != n:
            raise InvalidWindowError(
                f"window specifies sender sets for {len(self.senders_for)} "
                f"processors, expected {n}")
        everyone = frozenset(range(n))
        minimum = n - t
        checked = set()
        for pid, senders in enumerate(self.senders_for):
            # Uniform windows repeat one set n times; check it once.
            if senders in checked:
                continue
            checked.add(senders)
            if len(senders) < minimum:
                raise InvalidWindowError(
                    f"sender set for processor {pid} has size "
                    f"{len(senders)} < n - t = {minimum}")
            if not senders <= everyone:
                raise InvalidWindowError(
                    f"sender set for processor {pid} contains identities "
                    f"outside [0, {n})")
        if len(self.resets) > t:
            raise InvalidWindowError(
                f"window resets {len(self.resets)} > t = {t} processors")
        if not self.resets <= everyone:
            raise InvalidWindowError("reset set contains invalid identities")
        if not self.crashes <= everyone:
            raise InvalidWindowError("crash set contains invalid identities")
        if not self.deliver_last <= everyone:
            raise InvalidWindowError(
                "deliver_last contains invalid identities")


class WindowAdversary:
    """Interface for adversaries that schedule one window at a time.

    A window adversary is a full-information adversary: it is handed the
    engine itself and may inspect every processor's state and every pending
    message before choosing the next window.  Subclasses override
    :meth:`next_window`.
    """

    def bind(self, engine: Engine) -> None:
        """Called once before the execution starts."""

    def next_window(self, engine: Engine) -> WindowSpec:
        """Return the specification of the next acceptable window."""
        raise NotImplementedError


def run_execution(protocol_cls, n: int, t: int, inputs: Sequence[int],
                  adversary: WindowAdversary, max_windows: int,
                  seed: Optional[int] = None, stop_when: str = "all",
                  record_configurations: bool = False,
                  record_trace: bool = False,
                  **protocol_kwargs) -> ExecutionResult:
    """Convenience wrapper: build an engine and run a full execution.

    This is the main entry point used by examples, experiments and tests
    when they do not need to keep the engine around.
    """
    # Imported here to keep the simulation layer free of a module-level
    # dependency on the protocol layer (which depends back on simulation).
    from repro.protocols.base import ProtocolFactory

    factory = ProtocolFactory(protocol_cls, n=n, t=t, **protocol_kwargs)
    engine = Engine(factory, inputs, seed=seed,
                    record_configurations=record_configurations,
                    record_trace=record_trace)
    return engine.run(adversary, max_windows=max_windows, stop_when=stop_when)


__all__ = ["WindowSpec", "WindowAdversary", "run_execution"]
