"""Search strategies: which (design, kernel) pairs to pay for.

A strategy drives one exploration through the
:class:`~repro.dse.runner.EvaluationContext` the runner hands it:
``ctx.evaluate(pairs)`` runs experiment points through the parallel
runtime (deduped, budget-clipped, cache-backed) and
``ctx.record_static(design, kernel)`` books a pair that
:func:`~repro.dse.space.static_unmappable` proved infeasible — an
answer that costs nothing.

Three strategies, in increasing cleverness:

- ``exhaustive`` — the reference: every design x every kernel, in
  deterministic order, no shortcuts.  What the frontier "really" is.
- ``random`` — seeded sampling: designs are visited in a
  seed-shuffled order and fully evaluated until the budget runs out.
  The cheap baseline any adaptive method must beat.
- ``adaptive`` — successive halving with cheap mappability probes:
  statically infeasible pairs are recorded for free, every surviving
  design is first evaluated on the *probe* kernel only (the smallest
  one — mapping cost scales with op count), and only designs on the
  Pareto frontier of those partial results graduate to the full
  kernel set.  Designs pruned at the probe stage keep their partial
  (pessimistic) metrics, so the small-area end of the frontier is
  never silently lost.

Every strategy is deterministic given (space order, kernel order,
seed, budget, cache state is irrelevant — a hit and a computation
return the same point).
"""

from __future__ import annotations

import random

from repro.dse.objectives import metrics_vector
from repro.dse.pareto import pareto_indices
from repro.dse.space import kernel_demand, static_unmappable
from repro.errors import ReproError


class ExhaustiveStrategy:
    """The full grid, design-major, in space order."""

    name = "exhaustive"

    def run(self, designs, kernels, ctx):
        ctx.evaluate([(design, kernel)
                      for design in designs for kernel in kernels])


class RandomStrategy:
    """Seeded design sampling under a budget.

    Designs are visited in an order drawn from ``seed``; each visited
    design is evaluated on the whole kernel set.  With no budget this
    covers the grid exactly like ``exhaustive`` (only the evaluation
    order differs — and therefore nothing observable does).
    """

    name = "random"

    def __init__(self, seed=0):
        self.seed = seed

    def run(self, designs, kernels, ctx):
        order = list(designs)
        random.Random(self.seed).shuffle(order)
        for design in order:
            if ctx.exhausted:
                return
            ctx.evaluate([(design, kernel) for kernel in kernels])


class AdaptiveStrategy:
    """Successive halving behind cheap mappability probes.

    1. *Static phase* (free): every pair the capacity bounds prove
       unmappable is recorded without running the mapper.
    2. *Probe phase*: every design still alive is evaluated on the
       probe kernel — the one with the fewest ops, so the round costs
       a fraction of a full-grid sweep (and unmappable attempts,
       the expensive outcome, are concentrated on the cheapest
       kernel).
    3. *Halving rounds*: the remaining kernels are visited cheapest
       first, and after each round only two kinds of design stay
       alive for the next (more expensive) one — the Pareto frontier
       of the partial metrics so far, and the best few designs of
       each *capacity band* (equal total CM words) in the smaller
       half of the bands: two per band after the probe, one per band
       later.  The band quota preserves frontier diversity a cheap
       kernel cannot see — extra capacity only pays off on kernels
       bigger than the ones evaluated so far, so a pure partial
       frontier would collapse onto the smallest viable design.
       A design that failed any evaluated kernel stops graduating
       through bands (the schedule is smallest-kernel-first, so what
       the probe defeats the rest defeats too).

    Survivors are evaluated smallest-capacity first, so if the
    budget dies mid-round it dies on the designs least likely to
    matter.  Pruned designs keep their partial (pessimistic)
    metrics and are reported, but only complete designs are
    frontier-eligible (see :class:`~repro.dse.runner.DesignOutcome`)
    — a probe artefact must not displace a fully measured design.

    The savings scale with how much of the space shares capacity
    bands: heterogeneous spaces (row/column-banded, per-tile) prune
    hard, while a pure homogeneous ladder — every rung its own band
    — degenerates toward exhaustive coverage minus the static and
    probe-failure prunes.
    """

    name = "adaptive"

    @staticmethod
    def schedule(kernels):
        """Kernels cheapest-first (static op count, name tie-break)."""
        return sorted(kernels,
                      key=lambda name: (kernel_demand(name)[0], name))

    def run(self, designs, kernels, ctx):
        schedule = self.schedule(kernels)
        for design in designs:
            for kernel in schedule:
                if static_unmappable(design, kernel):
                    ctx.record_static(design, kernel)

        alive = list(designs)
        evaluated_kernels = []
        for index, kernel in enumerate(schedule):
            if ctx.exhausted:
                return
            batch = sorted(alive, key=lambda d: (d.total_words, d.name))
            ctx.evaluate([(design, kernel) for design in batch
                          if not ctx.is_static(design, kernel)])
            evaluated_kernels.append(kernel)
            if index == len(schedule) - 1:
                return
            alive = self._halve(designs, alive, evaluated_kernels,
                                quota=2 if index == 0 else 1, ctx=ctx)

    def _halve(self, designs, alive, evaluated, quota, ctx):
        """One selection round: partial frontier + banded survivors."""
        partial = {design.name:
                   metrics_vector(ctx.partial_metrics(design),
                                  ctx.objectives)
                   for design in designs}

        def flawless(design):
            # Mapped everything evaluated so far (statics excluded
            # from "evaluated" — they are answers, not attempts).
            points = [ctx.results.get((design.name, kernel))
                      for kernel in evaluated
                      if not ctx.is_static(design, kernel)]
            return all(point is not None and point.mapped
                       for point in points)

        frontier = {designs[i].name for i in pareto_indices(
            [partial[design.name] for design in designs])}
        keep = {design.name for design in alive
                if design.name in frontier and flawless(design)}
        bands = {}
        for design in alive:
            if flawless(design):
                bands.setdefault(design.total_words, []).append(design)
        for total in sorted(bands)[:(len(bands) + 1) // 2]:
            # Rank the band by its own partial Pareto front first —
            # a single scalar order would collapse onto whichever
            # objective the cheap kernels happen to favour, and the
            # designs that win on a *different* axis (the reason
            # heterogeneous bands exist) would never graduate.
            members = sorted(bands[total],
                             key=lambda d: (partial[d.name], d.name))
            front = set(pareto_indices([partial[design.name]
                                        for design in members]))
            ranked = ([m for i, m in enumerate(members) if i in front]
                      + [m for i, m in enumerate(members)
                         if i not in front])
            keep.update(design.name for design in ranked[:quota])
        return [design for design in alive if design.name in keep]


#: Strategy factories by CLI/API name.
STRATEGIES = ("exhaustive", "random", "adaptive")


def make_strategy(name, seed=0):
    """Instantiate a strategy by name (``seed`` feeds ``random``)."""
    if name == "exhaustive":
        return ExhaustiveStrategy()
    if name == "random":
        return RandomStrategy(seed=seed)
    if name == "adaptive":
        return AdaptiveStrategy()
    raise ReproError(f"unknown search strategy {name!r}; choose "
                     f"from {', '.join(STRATEGIES)}")
