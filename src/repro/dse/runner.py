"""The exploration engine: strategies x runtime = Pareto frontiers.

:func:`run_exploration` materialises a design space, hands it to a
search strategy, and executes every evaluation the strategy requests
through :func:`repro.runtime.stream.stream_specs` against the shared
:class:`~repro.runtime.cache.ResultCache` — so every point an
exploration pays for is persisted, a re-run resolves from cache
(resumability for free), and ``repro explore --shard i/N`` can
prewarm slices of the exhaustive grid on independent machines exactly
like sweeps and figures do.

The result is an :class:`ExplorationResult`: per-design aggregate
metrics (:mod:`repro.dse.objectives`), the Pareto frontier over the
chosen objectives and its hypervolume (:mod:`repro.dse.pareto`), plus
runtime accounting (pairs evaluated, cache hits, computations).  Its
:meth:`~ExplorationResult.payload` is the one JSON document the CLI
``--json`` path, the HTTP ``POST /v1/explorations`` job and the tests
all share.

:func:`validated_exploration_config` is the single request validator
behind both doors (CLI flags and the HTTP body), mirroring how
``validated_sweep_specs`` serves ``repro sweep`` and
``POST /v1/sweeps`` — a typo'd kernel or strategy name fails with the
same one-line diagnostic whichever way it arrives.
"""

from __future__ import annotations

import dataclasses
import time

from repro.dse import space as space_mod
from repro.dse.objectives import (
    DEFAULT_OBJECTIVES,
    design_metrics,
    metrics_vector,
    parse_objectives,
)
from repro.dse.pareto import hypervolume, pareto_indices, reference_point
from repro.dse.space import DEPTH_LADDER, build_space, ladder_spec
from repro.dse.strategies import STRATEGIES, make_strategy
from repro.errors import ReproError
from repro.mapping.flow import VARIANTS
from repro.runtime.stream import stream_specs
from repro.runtime.sweep import (
    DEFAULT_SEED,
    DETERMINISTIC_ERRORS,
    validated_sweep_specs,
)

#: Bump when the exploration JSON payload layout changes.
DSE_JSON_SCHEMA = 1


@dataclasses.dataclass(frozen=True)
class ExplorationConfig:
    """One fully validated exploration request."""

    designs: tuple
    kernels: tuple
    variant: str = "full"
    objectives: tuple = DEFAULT_OBJECTIVES
    strategy: str = "exhaustive"
    budget: int = None
    seed: int = DEFAULT_SEED
    space: dict = None  # description of how the designs were built
    backend: str = None  # None = the default execution backend

    def spec_for(self, design, kernel_name):
        return design.spec(kernel_name, variant=self.variant,
                           seed=self.seed, backend=self.backend)


def validated_exploration_config(space=None, depths=None, samples=None,
                                 kernels=None, variant=None,
                                 strategy=None, budget=None, seed=None,
                                 objectives=None, rows=None, cols=None,
                                 backend=None):
    """Build an :class:`ExplorationConfig`, validating every axis.

    ``None`` always means "the default".  Raises a one-line
    :class:`ReproError` naming the valid set for any unknown kernel,
    variant, strategy, objective or space kind — before any work (or
    any cache write) happens.
    """
    kinds = tuple(space) if space is not None else ("ladder", "table1")
    unknown = set(kinds) - set(space_mod.SPACE_KINDS)
    if unknown:
        raise ReproError(
            f"unknown design spaces {sorted(unknown)}; choose from "
            f"{', '.join(space_mod.SPACE_KINDS)}")
    if variant is not None and variant not in VARIANTS:
        raise ReproError(f"unknown variant {variant!r}; choose from "
                         f"{sorted(VARIANTS)}")
    if strategy is not None and strategy not in STRATEGIES:
        raise ReproError(f"unknown search strategy {strategy!r}; "
                         f"choose from {', '.join(STRATEGIES)}")
    if budget is not None:
        if not isinstance(budget, int) or isinstance(budget, bool) \
                or budget < 1:
            raise ReproError(f"budget must be a positive integer, "
                             f"got {budget!r}")
    if seed is not None and (not isinstance(seed, int)
                             or isinstance(seed, bool)):
        raise ReproError(f"seed must be an integer, got {seed!r}")
    from repro.runtime.backends import validated_backend
    backend = validated_backend(backend)
    # Kernel validation rides the sweep validator, so the diagnostic
    # is identical to `repro sweep --kernels` (and the default is the
    # same full paper suite).
    kernel_specs = validated_sweep_specs(kernels=kernels,
                                         configs=("HOM64",),
                                         variants=("full",))
    kernel_names = tuple(dict.fromkeys(
        spec.kernel_name for spec in kernel_specs))
    depths = tuple(depths) if depths is not None else DEPTH_LADDER
    # One seed drives everything derived from it — the input data,
    # the random strategy's sampling AND the 'tiles' generator — so
    # replaying an exploration with the seed its payload records
    # rebuilds the identical space.
    seed = seed if seed is not None else DEFAULT_SEED
    designs = build_space(kinds, depths=depths,
                          samples=samples if samples is not None else 8,
                          sample_seed=seed, rows=rows, cols=cols)
    return ExplorationConfig(
        designs=tuple(designs),
        kernels=kernel_names,
        variant=variant if variant is not None else "full",
        objectives=parse_objectives(objectives),
        strategy=strategy if strategy is not None else "exhaustive",
        budget=budget,
        seed=seed,
        space={"kinds": list(kinds), "depths": list(depths),
               "rows": designs[0].rows, "cols": designs[0].cols},
        backend=backend,
    )


def exploration_grid_specs(config):
    """The exhaustive design x kernel grid as plain specs.

    The shardable prewarm unit behind ``repro explore --shard i/N``:
    shards of this grid fill the shared cache, and any strategy run
    afterwards resolves its requests from hits.
    """
    return [config.spec_for(design, kernel)
            for design in config.designs for kernel in config.kernels]


class EvaluationContext:
    """What a strategy sees: evaluate pairs, book free answers.

    Owns the results table, the budget meter and the runtime plumbing
    (workers / cache / progress / mp context / point deadline).
    ``evaluate`` silently dedupes pairs already answered and clips to
    the remaining budget — a strategy never needs budget arithmetic of
    its own.
    """

    def __init__(self, config, workers=1, cache=None, progress=None,
                 mp_context=None, point_timeout=None):
        self.config = config
        self.objectives = config.objectives
        self.workers = workers
        self.cache = cache
        self.progress = progress
        self.mp_context = mp_context
        self.point_timeout = point_timeout
        self.results = {}  # (design name, kernel) -> ExperimentPoint
        self.statics = set()  # pairs proven unmappable for free
        self.spent = 0
        self.cache_hits = 0
        self.computed = 0

    # ------------------------------------------------------------------
    @property
    def exhausted(self):
        return (self.config.budget is not None
                and self.spent >= self.config.budget)

    def is_static(self, design, kernel_name):
        return (design.name, kernel_name) in self.statics

    def record_static(self, design, kernel_name):
        """Book a pair :func:`static_unmappable` answered for free."""
        key = (design.name, kernel_name)
        if key not in self.results:
            self.statics.add(key)

    def partial_metrics(self, design):
        """Metrics from whatever this design has so far (pessimistic:
        unevaluated kernels count as unmapped)."""
        points = {kernel: self.results.get((design.name, kernel))
                  for kernel in self.config.kernels}
        return design_metrics(design, points, self.config.kernels)

    # ------------------------------------------------------------------
    def evaluate(self, pairs):
        """Run every not-yet-answered pair, newest results included.

        Pairs beyond the remaining budget are dropped (in request
        order, so a strategy's most-wanted evaluations survive).  A
        worker crash — anything outside the deterministic outcome set
        — aborts the exploration loudly; "does not map" is an answer,
        a broken pipeline is not.
        """
        fresh = []
        seen = set()
        for design, kernel in pairs:
            key = (design.name, kernel)
            if key in self.results or key in seen:
                continue
            seen.add(key)
            fresh.append((design, kernel))
        if self.config.budget is not None:
            room = max(0, self.config.budget - self.spent)
            fresh = fresh[:room]
        if not fresh:
            return {}
        self.spent += len(fresh)
        by_spec = {}
        for design, kernel in fresh:
            spec = self.config.spec_for(design, kernel).resolve()
            by_spec[spec] = (design.name, kernel)

        def tick(update):
            if update.from_cache:
                self.cache_hits += 1
            else:
                self.computed += 1
            if self.progress is not None:
                self.progress(update)

        answered = {}
        for spec, point in stream_specs(
                list(by_spec), workers=self.workers, cache=self.cache,
                progress=tick, mp_context=self.mp_context,
                point_timeout=self.point_timeout):
            if point.error not in DETERMINISTIC_ERRORS:
                raise ReproError(f"{spec.describe()}: {point.error}")
            key = by_spec[spec]
            self.results[key] = point
            self.statics.discard(key)
            answered[key] = point
        return answered


@dataclasses.dataclass
class DesignOutcome:
    """One design's aggregate after the strategy finished.

    ``complete`` — every kernel was answered, by evaluation or by a
    sound static bound.  Only complete designs are frontier-eligible:
    a pruned design's metrics mix pessimistic mappability with
    energy/latency means over whichever (cheap) kernels it happened
    to run, and letting such a vector onto the frontier would let a
    probe artefact displace a fully measured design.
    """

    design: object
    points: dict  # kernel -> ExperimentPoint | None
    metrics: dict
    vector: tuple
    evaluated: int  # pairs actually run (cache hits included)
    static_skips: int  # pairs answered by the capacity bounds
    complete: bool = False
    frontier: bool = False

    def to_json(self):
        kernels = {}
        for kernel, point in self.points.items():
            if point is None:
                kernels[kernel] = {"evaluated": False, "mapped": False}
            else:
                kernels[kernel] = {
                    "evaluated": True,
                    "mapped": point.mapped,
                    "cycles": point.cycles,
                    "energy_uj": point.energy_uj,
                    "error": point.error,
                }
        return {
            **self.design.to_json(),
            "total_words": self.design.total_words,
            "metrics": self.metrics,
            "vector": [value for value in self.vector],
            "evaluated_pairs": self.evaluated,
            "static_skips": self.static_skips,
            "complete": self.complete,
            "frontier": self.frontier,
            "kernels": kernels,
        }


@dataclasses.dataclass
class ExplorationResult:
    """Everything one exploration produced."""

    config: ExplorationConfig
    outcomes: list  # DesignOutcome per design, in space order
    frontier: list  # design names, in space order
    reference: tuple  # hypervolume reference point (or None)
    hypervolume: float
    spent: int
    cache_hits: int
    computed: int
    elapsed_seconds: float

    def payload(self):
        """The canonical JSON document (CLI ``--json`` and serve)."""
        return {
            "schema": DSE_JSON_SCHEMA,
            "kind": "exploration",
            "strategy": self.config.strategy,
            "budget": self.config.budget,
            "seed": self.config.seed,
            "variant": self.config.variant,
            "backend": self.config.backend,
            "objectives": list(self.config.objectives),
            "kernels": list(self.config.kernels),
            "space": dict(self.config.space or {}),
            "summary": {
                "designs": len(self.outcomes),
                "evaluated_pairs": self.spent,
                "cache_hits": self.cache_hits,
                "computed": self.computed,
                "elapsed_seconds": self.elapsed_seconds,
                "frontier_size": len(self.frontier),
                "hypervolume": self.hypervolume,
            },
            "reference": (list(self.reference)
                          if self.reference is not None else None),
            "frontier": list(self.frontier),
            "designs": [outcome.to_json() for outcome in self.outcomes],
        }


def run_exploration(config, workers=1, cache=None, progress=None,
                    mp_context=None, point_timeout=None):
    """Execute one exploration end to end.

    The frontier is computed over *complete* designs (every kernel
    answered — see :class:`DesignOutcome`) that mapped at least one
    kernel (a machine that runs nothing is not a design point, even
    if its area is unbeatable); the hypervolume scores the frontier
    against a reference derived from all eligible vectors, so two
    strategies exploring the same space are measured in comparable
    boxes (cross-strategy comparisons should rescore both frontiers
    in one box — see :func:`repro.dse.pareto.hypervolume`).
    """
    from repro.obs import trace

    with trace.span("exploration", strategy=config.strategy,
                    designs=len(config.designs),
                    kernels=len(config.kernels)):
        return _run_exploration(config, workers, cache, progress,
                                mp_context, point_timeout)


def _run_exploration(config, workers, cache, progress, mp_context,
                     point_timeout):
    started = time.perf_counter()
    ctx = EvaluationContext(config, workers=workers, cache=cache,
                            progress=progress, mp_context=mp_context,
                            point_timeout=point_timeout)
    strategy = make_strategy(config.strategy, seed=config.seed)
    strategy.run(list(config.designs), list(config.kernels), ctx)

    outcomes = []
    for design in config.designs:
        points = {kernel: ctx.results.get((design.name, kernel))
                  for kernel in config.kernels}
        metrics = design_metrics(design, points, config.kernels)
        statics = sum(1 for kernel in config.kernels
                      if (design.name, kernel) in ctx.statics)
        evaluated = sum(1 for point in points.values()
                        if point is not None)
        outcomes.append(DesignOutcome(
            design=design, points=points, metrics=metrics,
            vector=metrics_vector(metrics, config.objectives),
            evaluated=evaluated, static_skips=statics,
            complete=evaluated + statics == len(config.kernels)))

    eligible = [outcome for outcome in outcomes
                if outcome.complete
                and outcome.metrics["mappability"] > 0]
    chosen = set(pareto_indices([o.vector for o in eligible]))
    for index, outcome in enumerate(eligible):
        outcome.frontier = index in chosen
    frontier = [outcome.design.name for outcome in outcomes
                if outcome.frontier]

    reference = None
    volume = 0.0
    if eligible:
        reference = reference_point([o.vector for o in eligible])
        volume = hypervolume(
            [o.vector for o in eligible if o.frontier], reference)
    return ExplorationResult(
        config=config, outcomes=outcomes, frontier=frontier,
        reference=reference, hypervolume=volume, spent=ctx.spent,
        cache_hits=ctx.cache_hits, computed=ctx.computed,
        elapsed_seconds=time.perf_counter() - started)


# ----------------------------------------------------------------------
# The minimum-depth ladder (the DSE example's search, as a library)
# ----------------------------------------------------------------------
def minimum_ladder_depths(kernels, depths=DEPTH_LADDER, workers=1,
                          cache=None, progress=None, round_report=None):
    """Per kernel: ``(smallest mappable homogeneous depth, point)``.

    Ascends the ladder in parallel rounds; a kernel leaves the pool
    at its first mappable depth, so no work is spent above a
    kernel's answer.  ``round_report(depth, SweepResult)`` fires
    after each round (the example prints its per-depth summary line
    from it).  A crash — anything outside the deterministic outcome
    set — raises; "does not map at this depth" is an answer, a broken
    pipeline is not.
    """
    from repro.runtime.pool import run_sweep

    remaining = list(kernels)
    smallest = {}
    for depth in depths:
        if not remaining:
            break
        specs = [ladder_spec(kernel, depth) for kernel in remaining]
        result = run_sweep(specs, workers=workers, cache=cache,
                           progress=progress)
        if round_report is not None:
            round_report(depth, result)
        for spec, point in zip(result.specs, result.points):
            if point.error not in DETERMINISTIC_ERRORS:
                raise ReproError(f"{spec.describe()}: {point.error}")
            if point.mapped:
                smallest[spec.kernel_name] = (depth, point)
        remaining = [kernel for kernel in remaining
                     if kernel not in smallest]
    return smallest
