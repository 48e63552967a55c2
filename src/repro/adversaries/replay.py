"""Replaying recorded window schedules as a first-class adversary.

The strongly adaptive adversaries of the experiment battery compute their
windows on line, from full information about the live engine.  A *replayed*
schedule is the opposite: a fixed, pre-committed list of
:class:`~repro.simulation.windows.WindowSpec` objects, played back verbatim.
Replays are what the verification and search layers traffic in — a fuzz
counterexample, a shrunk reproducer, or a search campaign's best-found
schedule are all just window lists — and registering the replayer as the
``"replay-schedule"`` adversary makes any saved schedule usable wherever a
registry adversary is accepted: experiment cells, ``TrialSpec`` fan-out
through :mod:`repro.runner`, the CLI.

Because trial specs must stay picklable plain data, the constructor accepts
the schedule either as ``WindowSpec`` objects or in the JSON-able encoding
of :meth:`~repro.simulation.windows.WindowSpec.to_jsonable` (the format of
the saved artifacts).
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.simulation.engine import Engine
from repro.simulation.windows import WindowAdversary, WindowSpec

PAD_BENIGN = "benign"
PAD_REPEAT = "repeat"
PAD_ERROR = "error"


class ReplayScheduleAdversary(WindowAdversary):
    """Plays back a fixed schedule of window specifications.

    Args:
        schedule: the windows to play, in order — ``WindowSpec`` objects
            or their plain-JSON encodings (the artifact format), mixed
            freely.  An empty schedule (the default) degenerates to the
            benign adversary under benign padding.
        pad: what to do when the engine asks for a window beyond the end
            of the schedule: ``"benign"`` (default) plays full-delivery
            windows, ``"repeat"`` replays the last window forever, and
            ``"error"`` raises ``IndexError`` (callers capping
            ``max_windows`` at the schedule length never pad at all).
    """

    def __init__(self, schedule: Sequence[Union[WindowSpec, dict]] = (),
                 pad: str = PAD_BENIGN) -> None:
        if pad not in (PAD_BENIGN, PAD_REPEAT, PAD_ERROR):
            raise ValueError(
                f"pad must be {PAD_BENIGN!r}, {PAD_REPEAT!r} or "
                f"{PAD_ERROR!r}, got {pad!r}")
        self.schedule: List[WindowSpec] = [
            spec if isinstance(spec, WindowSpec)
            else WindowSpec.from_jsonable(spec)
            for spec in schedule]
        self.pad = pad
        self._next = 0

    def next_window(self, engine: Engine) -> WindowSpec:
        index = self._next
        self._next += 1
        if index < len(self.schedule):
            return self.schedule[index]
        if self.pad == PAD_BENIGN:
            return WindowSpec.full_delivery(engine.n)
        if self.pad == PAD_REPEAT and self.schedule:
            return self.schedule[-1]
        raise IndexError(
            f"replay schedule exhausted after {len(self.schedule)} windows")


__all__ = ["ReplayScheduleAdversary", "PAD_BENIGN", "PAD_REPEAT",
           "PAD_ERROR"]
