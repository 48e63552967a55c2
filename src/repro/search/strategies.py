"""Search strategies: hill climbing, annealing, and a population loop.

All strategies sit behind one generational interface so the campaign
driver (:mod:`repro.search.campaign`) can treat them uniformly:

1. :meth:`SearchStrategy.propose` returns the next generation of candidate
   schedules — a pure function of the strategy's seeded stream and the
   scores observed so far;
2. the campaign evaluates the whole generation through
   :mod:`repro.runner` (order-preserving fan-out, so worker count never
   changes values);
3. :meth:`SearchStrategy.observe` feeds the scores and failure frontiers
   back, updating the strategy's state.

Because every random draw comes from a stream seeded by the campaign seed
and happens at a fixed point of the propose/observe cycle, a campaign is
bit-identical across worker counts and across kill/resume: replaying the
cycle with cached scores reproduces the exact proposal sequence.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.adversaries.fuzzing import WindowSampler
from repro.runner import derive_seed
from repro.search.mutations import Schedule, mutate, splice

_STRATEGY_SALT = 0x5EA2C4


class SearchStrategy:
    """Base class: seeded stream, best-candidate tracking, the interface.

    Args:
        sampler: the window-sampling distribution (and the (n, t) system).
        horizon: schedule length in windows.
        population: candidates per generation.
        seed: campaign master seed (the strategy derives its own stream).
        reach: how far before the failure frontier mutations are drawn.
    """

    name: str = ""

    def __init__(self, sampler: WindowSampler, horizon: int,
                 population: int, seed: int, reach: int = 8) -> None:
        if population <= 0:
            raise ValueError(f"population must be positive, "
                             f"got {population}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.sampler = sampler
        self.horizon = horizon
        self.population = population
        self.reach = reach
        self.rng = random.Random(derive_seed(seed, _STRATEGY_SALT))
        self.best_score: float = -math.inf
        self.best_schedule: Optional[Schedule] = None
        self.best_generation: Optional[int] = None

    # -- the campaign-facing interface --------------------------------
    def propose(self, generation: int) -> List[Schedule]:
        """The next generation of candidate schedules."""
        raise NotImplementedError

    def observe(self, generation: int, genomes: Sequence[Schedule],
                scores: Sequence[float],
                frontiers: Sequence[int]) -> None:
        """Ingest the generation's evaluations (aligned with propose)."""
        self._track_best(generation, genomes, scores)
        self._update(generation, genomes, scores, frontiers)

    # -- subclass hooks ------------------------------------------------
    def _update(self, generation: int, genomes: Sequence[Schedule],
                scores: Sequence[float],
                frontiers: Sequence[int]) -> None:
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------
    def _track_best(self, generation: int, genomes: Sequence[Schedule],
                    scores: Sequence[float]) -> None:
        for genome, score in zip(genomes, scores):
            if score > self.best_score:
                self.best_score = score
                self.best_schedule = list(genome)
                self.best_generation = generation

    def _initial_generation(self) -> List[Schedule]:
        return [self.sampler.schedule(self.horizon, self.rng)
                for _ in range(self.population)]

    def _mutant(self, genome: Schedule, frontier: int) -> Schedule:
        return mutate(genome, frontier, self.sampler, self.rng,
                      reach=self.reach)

    @staticmethod
    def _argmax(scores: Sequence[float]) -> int:
        best = 0
        for index in range(1, len(scores)):
            if scores[index] > scores[best]:
                best = index
        return best


class HillClimbStrategy(SearchStrategy):
    """Steepest-ascent hill climbing from the best-seen candidate.

    Each generation proposes ``population`` independent mutants of the
    incumbent; the best mutant replaces it when it scores strictly
    higher.  Greedy and fast-converging — the default strategy.
    """

    name = "hill-climb"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._incumbent: Optional[Tuple[Schedule, float, int]] = None

    def propose(self, generation: int) -> List[Schedule]:
        if self._incumbent is None:
            return self._initial_generation()
        genome, _, frontier = self._incumbent
        return [self._mutant(genome, frontier)
                for _ in range(self.population)]

    def _update(self, generation: int, genomes: Sequence[Schedule],
                scores: Sequence[float],
                frontiers: Sequence[int]) -> None:
        best = self._argmax(scores)
        if self._incumbent is None or scores[best] > self._incumbent[1]:
            self._incumbent = (list(genomes[best]), scores[best],
                               frontiers[best])


class SimulatedAnnealingStrategy(SearchStrategy):
    """Simulated annealing over schedules.

    The best mutant of each generation replaces the incumbent when it
    improves, and otherwise with the Metropolis probability
    ``exp((score - incumbent) / temperature)`` under a geometrically
    cooling temperature — early generations roam, late ones climb.

    Args:
        temperature: initial temperature, in score units.
        cooling: per-generation temperature decay factor in (0, 1].
    """

    name = "anneal"

    def __init__(self, *args: Any, temperature: float = 8.0,
                 cooling: float = 0.9, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, "
                             f"got {temperature}")
        if not 0 < cooling <= 1:
            raise ValueError(f"cooling must lie in (0, 1], got {cooling}")
        self.temperature = temperature
        self.cooling = cooling
        self._incumbent: Optional[Tuple[Schedule, float, int]] = None

    def propose(self, generation: int) -> List[Schedule]:
        if self._incumbent is None:
            return self._initial_generation()
        genome, _, frontier = self._incumbent
        return [self._mutant(genome, frontier)
                for _ in range(self.population)]

    def _update(self, generation: int, genomes: Sequence[Schedule],
                scores: Sequence[float],
                frontiers: Sequence[int]) -> None:
        best = self._argmax(scores)
        candidate = (list(genomes[best]), scores[best], frontiers[best])
        if self._incumbent is None:
            self._incumbent = candidate
            return
        delta = scores[best] - self._incumbent[1]
        temperature = self.temperature * self.cooling ** generation
        # The acceptance draw happens every generation, accepted or not,
        # so the stream stays aligned on resume.
        toss = self.rng.random()
        if delta > 0 or (math.isfinite(delta)
                         and toss < math.exp(delta / temperature)):
            self._incumbent = candidate


class EvolutionaryStrategy(SearchStrategy):
    """A (mu + lambda) elite population loop with splice crossover.

    Keeps the ``elites`` best candidates seen; each generation breeds
    ``population`` offspring by tournament-picking parents, optionally
    splicing two parents at the weaker parent's failure frontier, then
    mutating.  Better than the point strategies at escaping local optima
    on rugged objectives (vote-margin), at the cost of slower convergence.

    Args:
        elites: how many survivors breed (mu).
        crossover_probability: chance an offspring splices two parents.
    """

    name = "evolve"

    def __init__(self, *args: Any, elites: int = 4,
                 crossover_probability: float = 0.3,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if elites <= 0:
            raise ValueError(f"elites must be positive, got {elites}")
        if not 0 <= crossover_probability <= 1:
            raise ValueError("crossover_probability must lie in [0, 1], "
                             f"got {crossover_probability}")
        self.elites = elites
        self.crossover_probability = crossover_probability
        self._pool: List[Tuple[Schedule, float, int]] = []

    def propose(self, generation: int) -> List[Schedule]:
        if not self._pool:
            return self._initial_generation()
        offspring: List[Schedule] = []
        for _ in range(self.population):
            parent = self._tournament()
            genome, _, frontier = parent
            if len(self._pool) > 1 and \
                    self.rng.random() < self.crossover_probability:
                other = self._tournament()
                cut = min(frontier, other[2])
                genome = splice(genome, other[0],
                                max(1, min(cut, self.horizon - 1)),
                                self.sampler.t)
            offspring.append(self._mutant(genome, frontier))
        return offspring

    def _tournament(self) -> Tuple[Schedule, float, int]:
        first = self._pool[self.rng.randrange(len(self._pool))]
        second = self._pool[self.rng.randrange(len(self._pool))]
        return first if first[1] >= second[1] else second

    def _update(self, generation: int, genomes: Sequence[Schedule],
                scores: Sequence[float],
                frontiers: Sequence[int]) -> None:
        self._pool.extend(
            (list(genome), score, frontier)
            for genome, score, frontier in zip(genomes, scores, frontiers))
        self._pool.sort(key=lambda entry: -entry[1])
        del self._pool[self.elites:]


STRATEGIES: Dict[str, Type[SearchStrategy]] = {
    HillClimbStrategy.name: HillClimbStrategy,
    SimulatedAnnealingStrategy.name: SimulatedAnnealingStrategy,
    EvolutionaryStrategy.name: EvolutionaryStrategy,
}
"""Registered strategy classes, keyed by name."""


def build_strategy(name: str, **kwargs: Any) -> SearchStrategy:
    """Instantiate a registered search strategy.

    Raises:
        KeyError: with the list of known names, when the name is unknown.
    """
    try:
        strategy_cls = STRATEGIES[name]
    except KeyError:
        known = ", ".join(sorted(STRATEGIES))
        raise KeyError(
            f"unknown search strategy {name!r}; known strategies: {known}")
    return strategy_cls(**kwargs)


__all__ = [
    "SearchStrategy",
    "HillClimbStrategy",
    "SimulatedAnnealingStrategy",
    "EvolutionaryStrategy",
    "STRATEGIES",
    "build_strategy",
]
