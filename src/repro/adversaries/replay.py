"""Replaying recorded window schedules as a first-class adversary.

The strongly adaptive adversaries of the experiment battery compute their
windows on line, from full information about the live engine.  A *replayed*
schedule is the opposite: a fixed, pre-committed list of
:class:`~repro.simulation.windows.WindowSpec` objects, played back verbatim.
Replays are what the verification and search layers traffic in — a fuzz
counterexample, a shrunk reproducer, or a search campaign's best-found
schedule are all just window lists — and registering the replayer as the
``"replay-schedule"`` adversary makes a replay an ordinary
:class:`~repro.runner.TrialSpec`, usable wherever a registry adversary is
accepted: experiment cells, fan-out through :mod:`repro.runner`, the CLI.
:func:`repro.verification.replay_spec` builds the replay trial of a
schedule in any trial's context.

Because trial specs must stay picklable plain data, the constructor accepts
the schedule either as ``WindowSpec`` objects or in the JSON-able encoding
of :meth:`~repro.simulation.windows.WindowSpec.to_jsonable` (the format of
the saved artifacts).
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.simulation.engine import Engine
from repro.simulation.windows import WindowAdversary, WindowSpec

class ReplayScheduleAdversary(WindowAdversary):
    """Plays back a fixed schedule of window specifications.

    Past the end of the schedule it plays full-delivery windows, so an
    empty schedule (the default) is the benign adversary.  Replays of a
    saved schedule cap ``max_windows`` at its length and never pad.

    Args:
        schedule: the windows to play, in order — ``WindowSpec`` objects
            or their plain-JSON encodings (the artifact format), mixed
            freely.
    """

    def __init__(self,
                 schedule: Sequence[Union[WindowSpec, dict]] = ()) -> None:
        self.schedule: List[WindowSpec] = [
            spec if isinstance(spec, WindowSpec)
            else WindowSpec.from_jsonable(spec)
            for spec in schedule]
        self._next = 0

    def next_window(self, engine: Engine) -> WindowSpec:
        index = self._next
        self._next += 1
        if index < len(self.schedule):
            return self.schedule[index]
        return WindowSpec.full_delivery(engine.n)


__all__ = ["ReplayScheduleAdversary"]
