"""Adversary strategies for both execution engines.

Window adversaries realise the strongly adaptive adversary of Section 2
(full-information scheduling plus resetting failures inside acceptable
windows); step adversaries realise the classical asynchronous crash and
Byzantine adversaries of Sections 1 and 5.
"""

from repro.adversaries.base import (FaultBudget, random_subset,
                                    senders_excluding)
from repro.adversaries.benign import (BenignAdversary,
                                      RandomSchedulerAdversary,
                                      SilencingAdversary)
from repro.adversaries.byzantine import (ByzantineAdversary,
                                         ByzantineStrategy,
                                         EquivocateStrategy,
                                         FlipValueStrategy,
                                         RandomValueStrategy, SilentStrategy)
from repro.adversaries.crash import (CrashAtDecisionAdversary,
                                     CrashSplitVoteAdversary,
                                     StaticCrashAdversary)
from repro.adversaries.fuzzing import (ScheduleFuzzer, StepFuzzer,
                                       WindowSampler)
from repro.adversaries.interpolation import (CandidateEvaluation,
                                             LookaheadAdversary,
                                             interpolate_windows)
from repro.adversaries.replay import ReplayScheduleAdversary
from repro.adversaries.split_vote import (AdaptiveResettingAdversary,
                                          SplitVoteAdversary)

__all__ = [
    "FaultBudget",
    "random_subset",
    "senders_excluding",
    "BenignAdversary",
    "RandomSchedulerAdversary",
    "SilencingAdversary",
    "ByzantineAdversary",
    "ByzantineStrategy",
    "EquivocateStrategy",
    "FlipValueStrategy",
    "RandomValueStrategy",
    "SilentStrategy",
    "CrashAtDecisionAdversary",
    "CrashSplitVoteAdversary",
    "StaticCrashAdversary",
    "CandidateEvaluation",
    "LookaheadAdversary",
    "interpolate_windows",
    "AdaptiveResettingAdversary",
    "SplitVoteAdversary",
    "ScheduleFuzzer",
    "StepFuzzer",
    "WindowSampler",
    "ReplayScheduleAdversary",
]
