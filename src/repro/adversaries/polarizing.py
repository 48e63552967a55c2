"""The polarizing adversary: drives different processors toward different values.

Used by the threshold-ablation experiment (E7).  With the Theorem 4
constraints in force the adversary cannot cause disagreement no matter how
it polarizes the delivered votes; when the decision threshold is set too low
(``2*T2 <= n``), however, it can deliver predominantly-1 votes to one half
of the processors and predominantly-0 votes to the other half and obtain
conflicting decisions — demonstrating that the constraint is necessary.
"""

from __future__ import annotations

from typing import List, Optional

from repro.determinism import seeded_rng
from repro.simulation.engine import Engine
from repro.simulation.windows import WindowAdversary, WindowSpec


class PolarizingAdversary(WindowAdversary):
    """Shows one half of the processors mostly 1-votes, the other mostly 0s.

    For receivers in the "one camp" (the first half of the identities) the
    adversary hides up to ``t`` of the processors currently voting 0; for
    the "zero camp" it hides up to ``t`` of those voting 1.  No resets are
    issued — scheduling alone is enough to break under-constrained
    thresholds.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self.rng = seeded_rng(seed)

    def _voters(self, engine: Engine, value: int) -> List[int]:
        voters = []
        for proc in engine.processors:
            if proc.crashed:
                continue
            if proc.protocol.current_estimate() == value:
                voters.append(proc.pid)
        return voters

    def next_window(self, engine: Engine) -> WindowSpec:
        n, t = engine.n, engine.t
        zero_voters = self._voters(engine, 0)
        one_voters = self._voters(engine, 1)
        hide_for_one_camp = frozenset(zero_voters[:t])
        hide_for_zero_camp = frozenset(one_voters[:t])
        everyone = frozenset(range(n))
        senders_for = []
        for pid in range(n):
            if pid < n // 2:
                senders_for.append(everyone - hide_for_one_camp)
            else:
                senders_for.append(everyone - hide_for_zero_camp)
        return WindowSpec(senders_for=tuple(senders_for))


__all__ = ["PolarizingAdversary"]
