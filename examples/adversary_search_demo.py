#!/usr/bin/env python3
"""Guided adversary search: hunt a worst-case schedule, then replay it.

This example walks the whole `repro.search` loop in miniature:

1. run a small hill-climb campaign that optimizes admissible window
   schedules toward the ``undecided-rounds`` objective (the paper's
   running-time measure) on the reset-tolerant protocol;
2. compare the searched schedule against an equal budget of blind
   ``schedule-fuzzer`` samples on the same fixed execution context —
   the guided search wins because replayed executions are
   deterministic, so it can keep the known-good undecided prefix of its
   best candidate and re-roll only the doomed suffix;
3. replay the best-found schedule through the ``replay-schedule``
   registry adversary and re-check the trace with the independent
   invariant checker.

Run with::

    python examples/adversary_search_demo.py
"""

from __future__ import annotations

from repro.runner import (TrialSpec, derive_seed, execute_trial,
                          iter_trials, undecided_windows)
from repro.search import (campaign_setup, resolve_search_params,
                          run_search_campaign)
from repro.verification import InvariantChecker, replay_spec

BUDGET_GENERATIONS = 10
BUDGET_POPULATION = 6
HORIZON = 600


def main() -> None:
    params = resolve_search_params(
        protocol="reset-tolerant", strategy="hill-climb",
        objective="undecided-rounds", generations=BUDGET_GENERATIONS,
        population=BUDGET_POPULATION, windows=HORIZON, seed=1,
        verify=False)
    setup = campaign_setup(params)
    budget = BUDGET_GENERATIONS * BUDGET_POPULATION

    print(f"Searching {budget} candidate schedules "
          f"(n={params['n']}, t={params['t']}, horizon {HORIZON} windows)")
    report = run_search_campaign(params, workers=0)
    for summary in report.generation_summary():
        print(f"  generation {summary['generation']}: "
              f"best {summary['best_score']:.0f}, "
              f"mean {summary['mean_score']:.1f}")
    print(f"searched best: {report.best_score:.0f} undecided windows")

    fuzz_specs = [TrialSpec(
        protocol=params["protocol"], adversary="schedule-fuzzer",
        n=params["n"], t=params["t"], inputs=setup.inputs,
        adversary_kwargs={"seed": derive_seed(1, 500 + i) & 0xFFFFFFFF,
                          "reset_probability": 0.35,
                          "deliver_last_probability": 0.3},
        seed=setup.seed, max_windows=HORIZON, stop_when="first")
        for i in range(budget)]
    fuzz_best = max(undecided_windows(result)
                    for result in iter_trials(fuzz_specs))
    print(f"blind fuzzing best of {budget} samples: {fuzz_best:.0f}")

    assert report.best_schedule is not None
    replay = execute_trial(replay_spec(setup, report.best_schedule))
    verdict = InvariantChecker().check_result(replay)
    print(f"replay of the best schedule: "
          f"{undecided_windows(replay):.0f} undecided windows, "
          f"invariants {'OK' if verdict.ok else 'VIOLATED'}")


if __name__ == "__main__":
    main()
