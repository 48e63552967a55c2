"""Guided adversary search: optimize admissible schedules toward hardness.

Theorem 5 proves a powerful strongly adaptive adversary *exists*; this
package goes looking for concrete ones.  It optimizes window schedules —
always admissible, always within the fault budgets — toward pluggable
hardness objectives (undecided windows, undecided fraction, vote-margin
minimization, invariant violations), using seed-deterministic search
strategies whose per-candidate evaluations fan out through
:mod:`repro.runner`:

* :mod:`repro.search.mutations` — admissibility-preserving mutation and
  crossover operators over :class:`~repro.simulation.windows.WindowSpec`
  schedules;
* :mod:`repro.search.objectives` — the objective registry;
* :mod:`repro.search.strategies` — hill climbing, simulated annealing and
  an elite population loop behind one generational interface;
* :mod:`repro.search.campaign` — the campaign driver: parallel
  evaluation, results-store persistence and resume, counterexample
  shrinking, best-schedule artifacts replayable via ``repro replay``
  (read them with :func:`repro.verification.load_schedule_artifact`).

The CLI front end is ``python -m repro search``; experiment E9 compares
searched schedules against sampled and hand-written adversaries.
"""

from repro.search.campaign import (BEST_ARTIFACT, COUNTEREXAMPLE_DIR,
                                   ROW_SCHEMA, SEARCH_EXPERIMENT,
                                   SearchReport, campaign_objective,
                                   campaign_sampler, campaign_setup,
                                   campaign_strategy, candidate_spec,
                                   resolve_search_params,
                                   run_search_campaign)
from repro.search.mutations import (POINT_MUTATIONS, Schedule,
                                    crashed_victims, flip_deliver_last,
                                    is_admissible, mutate, perturb_delivery,
                                    regrow_tail, relocate_crashes,
                                    relocate_resets, splice)
from repro.search.objectives import (OBJECTIVES, InvariantViolationObjective,
                                     Objective, UndecidedFractionObjective,
                                     UndecidedRoundsObjective,
                                     VoteMarginObjective, build_objective)
from repro.search.strategies import (STRATEGIES, EvolutionaryStrategy,
                                     HillClimbStrategy, SearchStrategy,
                                     SimulatedAnnealingStrategy,
                                     build_strategy)

__all__ = [
    "SEARCH_EXPERIMENT",
    "BEST_ARTIFACT",
    "COUNTEREXAMPLE_DIR",
    "ROW_SCHEMA",
    "SearchReport",
    "resolve_search_params",
    "run_search_campaign",
    "campaign_sampler",
    "campaign_strategy",
    "campaign_objective",
    "campaign_setup",
    "candidate_spec",
    "Schedule",
    "is_admissible",
    "crashed_victims",
    "mutate",
    "splice",
    "regrow_tail",
    "perturb_delivery",
    "relocate_resets",
    "relocate_crashes",
    "flip_deliver_last",
    "POINT_MUTATIONS",
    "Objective",
    "UndecidedRoundsObjective",
    "UndecidedFractionObjective",
    "VoteMarginObjective",
    "InvariantViolationObjective",
    "OBJECTIVES",
    "build_objective",
    "SearchStrategy",
    "HillClimbStrategy",
    "SimulatedAnnealingStrategy",
    "EvolutionaryStrategy",
    "STRATEGIES",
    "build_strategy",
]
