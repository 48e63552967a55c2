"""Registry completeness: every registered adversary, protocol and
Byzantine strategy is exercised under the independent invariant checker.

The scenario tables below are the coverage contract: registering a new
adversary, protocol or strategy without adding a scenario here fails the
``*_registry_is_fully_covered`` tests, and every scenario actually runs a
traced execution whose trace must satisfy all of the paper's invariants.

Scenario-name discovery is delegated to the ``repro.staticcheck`` symbol
index: the tables must stay plain dict literals so the linter's R3 check
parses exactly the same names this test exercises — the static and
runtime views of the coverage contract can never disagree.
"""

import pytest

from repro.adversaries.registry import ADVERSARIES, STRATEGIES
from repro.protocols.registry import available_protocols
from repro.runner import TrialSpec, execute_trial
from repro.simulation.windows import WindowSpec
from repro.staticcheck import project_scenarios
from repro.verification import InvariantChecker

# A replayable 2-window schedule for the replay-schedule scenario, in the
# picklable JSON encoding trial specs must carry (past its end the
# replayer plays full-delivery windows, so the execution decides).
_REPLAY_SCHEDULE = [
    WindowSpec.uniform(13, frozenset(range(2, 13)),
                       resets=frozenset({0})).to_jsonable(),
    WindowSpec.full_delivery(13).to_jsonable(),
]

# One scenario per registered adversary: (protocol, engine, n, t,
# adversary kwargs, corrupted processors the checker must exclude).
ADVERSARY_SCENARIOS = {
    "benign": ("reset-tolerant", "window", 13, 2, {}, ()),
    "random-scheduler": ("reset-tolerant", "window", 13, 2,
                         {"seed": 1, "reset_probability": 0.5}, ()),
    "silencing": ("reset-tolerant", "window", 13, 2, {}, ()),
    "split-vote": ("reset-tolerant", "window", 13, 2, {"seed": 2}, ()),
    "adaptive-resetting": ("reset-tolerant", "window", 13, 2,
                           {"seed": 3}, ()),
    "polarizing": ("reset-tolerant", "window", 13, 2, {"seed": 4}, ()),
    "lookahead": ("reset-tolerant", "window", 7, 1,
                  {"seed": 9, "horizon": 1, "samples": 2,
                   "include_hybrids": False, "max_candidates": 4}, ()),
    "static-crash": ("ben-or", "window", 9, 4,
                     {"crash_schedule": {0: (0, 1)}}, ()),
    "crash-at-decision": ("ben-or", "window", 9, 4, {}, ()),
    "crash-split-vote": ("ben-or", "window", 9, 4, {"seed": 5}, ()),
    "byzantine": ("bracha", "step", 7, 2,
                  {"corrupted": (0, 1), "strategy": "flip", "seed": 6},
                  (0, 1)),
    "schedule-fuzzer": ("reset-tolerant", "window", 13, 2,
                        {"seed": 7}, ()),
    "step-fuzzer": ("bracha", "step", 7, 2,
                    {"seed": 8, "corrupted": (0, 1),
                     "strategy": "equivocate"}, (0, 1)),
    "replay-schedule": ("reset-tolerant", "window", 13, 2,
                        {"schedule": _REPLAY_SCHEDULE}, ()),
}

# One scenario per registered Byzantine strategy, all driven through the
# byzantine adversary against Bracha.  Written out as a literal (not a
# comprehension) so the staticcheck symbol index reads the same keys.
STRATEGY_SCENARIOS = {
    "silent": ("bracha", "step", 7, 2,
               {"corrupted": (0, 1), "strategy": "silent", "seed": 30},
               (0, 1)),
    "flip": ("bracha", "step", 7, 2,
             {"corrupted": (0, 1), "strategy": "flip", "seed": 31},
             (0, 1)),
    "equivocate": ("bracha", "step", 7, 2,
                   {"corrupted": (0, 1), "strategy": "equivocate",
                    "seed": 32},
                   (0, 1)),
    "random-values": ("bracha", "step", 7, 2,
                      {"corrupted": (0, 1), "strategy": "random-values",
                       "seed": 33},
                      (0, 1)),
}


def _run_checked(adversary, protocol, engine, n, t, kwargs, corrupted):
    spec = TrialSpec(
        protocol=protocol, adversary=adversary, n=n, t=t,
        inputs=tuple(pid % 2 for pid in range(n)), seed=99,
        adversary_kwargs=dict(kwargs), engine=engine,
        max_windows=400, max_steps=60000, stop_when="all",
        record_trace=True)
    result = execute_trial(spec)
    report = InvariantChecker(corrupted=corrupted).check_result(result)
    return result, report


def test_adversary_registry_is_fully_covered():
    """Fails when an adversary registration ships without a scenario.

    Discovery goes through the staticcheck symbol index (which parses
    this file's table statically — the same parse the linter's R3 check
    uses), cross-checked against the runtime dict.
    """
    tables = project_scenarios()
    assert tables.adversaries == set(ADVERSARY_SCENARIOS)
    assert tables.adversaries == set(ADVERSARIES)


def test_strategy_registry_is_fully_covered():
    """Fails when a Byzantine strategy ships without a scenario."""
    tables = project_scenarios()
    assert tables.strategies == set(STRATEGY_SCENARIOS)
    assert tables.strategies == set(STRATEGIES)


def test_protocol_registry_is_fully_covered():
    """Every registered protocol appears in at least one scenario."""
    tables = project_scenarios()
    assert tables.protocols == {scenario[0] for scenario
                                in ADVERSARY_SCENARIOS.values()}
    assert tables.protocols == set(available_protocols())


@pytest.mark.parametrize("adversary", sorted(ADVERSARY_SCENARIOS))
def test_every_adversary_passes_the_invariant_checker(adversary):
    protocol, engine, n, t, kwargs, corrupted = \
        ADVERSARY_SCENARIOS[adversary]
    result, report = _run_checked(adversary, protocol, engine, n, t,
                                  kwargs, corrupted)
    assert report.ok, report.summary()
    # The scenario must actually exercise the execution machinery.
    assert result.trace is not None and result.trace.events


@pytest.mark.parametrize("strategy", sorted(STRATEGY_SCENARIOS))
def test_every_strategy_passes_the_invariant_checker(strategy):
    protocol, engine, n, t, kwargs, corrupted = \
        STRATEGY_SCENARIOS[strategy]
    result, report = _run_checked("byzantine", protocol, engine, n, t,
                                  kwargs, corrupted)
    assert report.ok, report.summary()
    assert result.trace is not None and result.trace.events
