"""NSGA-II: fast non-dominated sorting with crowding-distance selection.

The reference algorithm for multi-objective evolutionary search (Deb et
al., 2002), and the workhorse of allocator design-space exploration in the
parallel-EA DMM literature.  Three ingredients distinguish it from a
plain (mu + lambda) evolutionary search with Pareto-rank selection:

* :func:`fast_non_dominated_sort` layers the population into fronts with
  one O(N²) domination-count pass (instead of recomputing the batch front
  per layer),
* :func:`crowding_distance` orders members *within* a front by how isolated
  they are, so selection pressure spreads the population along the whole
  front instead of clumping around one region, and
* binary-tournament mating selection on the (rank, crowding) partial order.

Every generation is evaluated as one
:meth:`~repro.core.exploration.ExplorationEngine.evaluate_points` batch, so
the :class:`~repro.profiling.batch.BatchReplayEngine` scores the whole
generation off shared pool-group simulations and a process-pool backend
profiles it concurrently.  All random draws come from the strategy's
private RNG *between* batches, which keeps a fixed-seed run byte-identical
whatever backend evaluates it.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..exploration import ExplorationEngine
from ..results import ExplorationRecord, ResultDatabase
from ..search import DEFAULT_PRUNE_FRACTION, SearchBudget, SearchStrategy

#: Crowding distance assigned to the boundary members of every front: they
#: are the extremes of the front and must always win crowding comparisons.
BOUNDARY_CROWDING = float("inf")


def fast_non_dominated_sort(vectors: Sequence[Sequence[float]]) -> list[list[int]]:
    """Layer ``vectors`` into Pareto fronts (front 0 = non-dominated).

    The NSGA-II book-keeping pass: one O(N²) sweep counts, for every
    vector, how many vectors dominate it and which vectors it dominates;
    peeling the zero-count layer repeatedly yields the fronts.  Layer
    membership matches :func:`repro.core.pareto.pareto_rank`
    (property-tested); only the cost differs.  Indices within a front stay
    in input order, so the layering is deterministic.
    """
    count = len(vectors)
    dominated_by: list[list[int]] = [[] for _ in range(count)]
    domination_count = [0] * count
    for i in range(count):
        first = vectors[i]
        for j in range(i + 1, count):
            second = vectors[j]
            better = worse = False
            for a, b in zip(first, second):
                if a < b:
                    better = True
                elif a > b:
                    worse = True
            if better and not worse:
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif worse and not better:
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts: list[list[int]] = []
    current = [index for index in range(count) if domination_count[index] == 0]
    while current:
        fronts.append(current)
        upcoming: list[int] = []
        for index in current:
            for other in dominated_by[index]:
                domination_count[other] -= 1
                if domination_count[other] == 0:
                    upcoming.append(other)
        # Restore input order within the next layer (members may be
        # released out of order by the peeling loop above).
        current = sorted(upcoming)
    return fronts


def crowding_distance(
    vectors: Sequence[Sequence[float]],
    front: Sequence[int],
) -> dict[int, float]:
    """Crowding distance of every member of one front.

    Per objective, the front is sorted by value; the two boundary members
    get infinite distance, interior members accumulate the normalised gap
    between their neighbours.  An objective with zero span contributes
    nothing (every member ties).  Exact value ties are ordered by index, so
    the assignment is deterministic.
    """
    distances = {index: 0.0 for index in front}
    if len(front) <= 2:
        return {index: BOUNDARY_CROWDING for index in front}
    dimensions = len(vectors[front[0]])
    for objective in range(dimensions):
        ordered = sorted(front, key=lambda index: (vectors[index][objective], index))
        low = vectors[ordered[0]][objective]
        high = vectors[ordered[-1]][objective]
        span = high - low
        distances[ordered[0]] = BOUNDARY_CROWDING
        distances[ordered[-1]] = BOUNDARY_CROWDING
        if span == 0:
            continue
        for position in range(1, len(ordered) - 1):
            index = ordered[position]
            if distances[index] == BOUNDARY_CROWDING:
                continue
            gap = (
                vectors[ordered[position + 1]][objective]
                - vectors[ordered[position - 1]][objective]
            )
            distances[index] += gap / span
    return distances


class NSGA2Search(SearchStrategy):
    """NSGA-II: non-dominated sorting + crowding-distance selection."""

    name = "nsga2"

    def __init__(
        self,
        engine: ExplorationEngine,
        budget: SearchBudget | None = None,
        metrics: list[str] | None = None,
        population: int = 16,
        offspring: int = 16,
        mutation_rate: float = 0.3,
        prune: bool = False,
        prune_fraction: float = DEFAULT_PRUNE_FRACTION,
    ) -> None:
        super().__init__(engine, budget, metrics, prune, prune_fraction)
        if population <= 1 or offspring <= 0:
            raise ValueError("population must be > 1 and offspring > 0")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0, 1], got {mutation_rate}")
        self.population_size = population
        self.offspring_size = offspring
        self.mutation_rate = mutation_rate

    # -- selection machinery ------------------------------------------------

    def _order(
        self, members: list[tuple[dict, ExplorationRecord]]
    ) -> list[tuple[dict, ExplorationRecord, int, float]]:
        """Members annotated with (rank, crowding), best first.

        Constrained domination: feasible members are layered by
        :func:`fast_non_dominated_sort` over the chosen metrics; infeasible
        members (OOM on the trace — their metric vectors are artificially
        low) always rank behind every feasible layer, ordered by how badly
        they failed.
        """
        feasible = [m for m in members if m[1].feasible]
        infeasible = [m for m in members if not m[1].feasible]
        annotated: list[tuple[dict, ExplorationRecord, int, float]] = []
        rank_count = 0
        if feasible:
            vectors = [record.metric_vector(self.metrics) for _, record in feasible]
            fronts = fast_non_dominated_sort(vectors)
            rank_count = len(fronts)
            for rank, front in enumerate(fronts):
                distances = crowding_distance(vectors, front)
                ordered = sorted(
                    front, key=lambda index: (-distances[index], index)
                )
                for index in ordered:
                    point, record = feasible[index]
                    annotated.append((point, record, rank, distances[index]))
        for position, (point, record) in enumerate(
            sorted(
                infeasible,
                key=lambda m: (m[1].oom_failures, m[1].metric_vector(self.metrics)),
            )
        ):
            annotated.append((point, record, rank_count + position, 0.0))
        return annotated

    def _tournament(
        self, ordered: list[tuple[dict, ExplorationRecord, int, float]]
    ) -> dict:
        """Binary tournament on the (rank, crowding) partial order."""
        first, second = self.rng.sample(range(len(ordered)), 2)
        a, b = ordered[first], ordered[second]
        if a[2] != b[2]:
            winner = a if a[2] < b[2] else b
        elif a[3] != b[3]:
            winner = a if a[3] > b[3] else b
        else:
            winner = a
        return winner[0]

    # -- the search ---------------------------------------------------------

    def _search(self, database: ResultDatabase) -> None:
        population: list[tuple[dict, ExplorationRecord]] = []
        known: set[int] = set()
        stalled = 0
        # Seed the population with random points, like the plain EA — retry
        # (bounded by the stall counter) while pruning rejects candidates.
        while (
            len(population) < self.population_size
            and self.budget_left
            and stalled < self.max_stalled_generations
        ):
            used_before = self.evaluations_used
            seeds = [
                self._random_point()
                for _ in range(self.population_size - len(population))
            ]
            seeds = self._prune_candidates(seeds)
            seeds = self._within_budget(seeds)
            if not seeds:
                if not self.prune:
                    break
                stalled += 1
                continue
            records = self._evaluate_batch(seeds, database)
            for point, record in zip(seeds, records):
                index = self.engine.space.index_of(point)
                if index not in known:
                    known.add(index)
                    population.append((point, record))
            stalled = stalled + 1 if self.evaluations_used == used_before else 0
        while (
            self.budget_left
            and len(population) >= 2
            and stalled < self.max_stalled_generations
        ):
            used_before = self.evaluations_used
            ordered = self._order(population)
            child_points = []
            for _ in range(self.offspring_size):
                child = self._crossover(
                    self._tournament(ordered), self._tournament(ordered)
                )
                if self.rng.random() < self.mutation_rate:
                    child = self._mutate(child)
                child_points.append(child)
            child_points = self._prune_candidates(child_points)
            child_points = self._within_budget(child_points)
            if not child_points:
                # A fully pruned/duplicate generation still counts against
                # the stall limit, so a converged search terminates.
                stalled += 1
                continue
            child_records = self._evaluate_batch(child_points, database)
            combined = list(population)
            seen = {self.engine.space.index_of(point) for point, _ in population}
            for point, record in zip(child_points, child_records):
                index = self.engine.space.index_of(point)
                if index not in seen:
                    seen.add(index)
                    combined.append((point, record))
            survivors = self._order(combined)[: self.population_size]
            population = [(point, record) for point, record, _, _ in survivors]
            stalled = stalled + 1 if self.evaluations_used == used_before else 0
