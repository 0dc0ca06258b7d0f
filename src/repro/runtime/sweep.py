"""Experiment points as data: specs, execution, batched sweeps.

:class:`PointSpec` is the immutable, hashable, picklable description
of one experiment point.  Everything that can change the outcome is a
field of the spec — kernel, configuration, flow variant, the full
:class:`~repro.mapping.flow.FlowOptions`, the input seed, optional
custom context-memory depths — so a spec can serve directly as a
memoisation key, a process-pool work item and (hashed together with
the package version) a persistent cache key.

:func:`compute_point` is the single entry point of the pipeline
every figure shares::

    kernel --map--> MappingResult --assemble--> Program --execute-->
    cycles + activity --price--> energy

dispatched to the named execution backend of the spec's ``backend``
field (:mod:`repro.runtime.backends` — the lockstep ``analytic``
simulator by default, the event-driven ``cycle`` executor as the
independent cross-check), with the same soundness guarantee in every
backend: the CGRA's outputs are verified bit-exactly against the
kernel's reference before any latency/energy number is reported.
"""

from __future__ import annotations

import dataclasses

from repro.arch.configs import (
    COLS as DEFAULT_COLS,
    ROWS as DEFAULT_ROWS,
    default_lsu_tiles,
    get_config,
    make_cgra,
)
from repro.errors import ReproError
from repro.kernels import PAPER_KERNEL_ORDER
from repro.mapping.flow import VARIANTS, FlowOptions
from repro.power.energy import EnergyBreakdown
from repro.runtime.backends import (
    DEFAULT_BACKEND,
    backend_point,
    validated_backend,
)

#: Default input seed for all experiment executions.
DEFAULT_SEED = 7

#: The configurations the latency figures sweep.
LATENCY_CONFIGS = ("HOM64", "HOM32", "HET1", "HET2")


class ExperimentPoint:
    """One (kernel, config, flow-variant) measurement.

    ``mapped`` is normally derived from the presence of the heavy
    ``mapping`` object; summary points rebuilt from a point document
    (:func:`point_from_json` — cache entries, shard files, serve
    payloads) carry the flag explicitly because the mapping itself
    does not survive serialisation.  What readers need of it does:
    ``movs``, ``pnops`` and ``tile_words`` summarise the mapping's
    quality and are set on every executed point.
    """

    def __init__(self, kernel_name, config_name, variant, mapping=None,
                 compile_seconds=None, cycles=None, activity=None,
                 energy=None, error=None, mapped=None,
                 output_digest=None, movs=None, pnops=None,
                 tile_words=None):
        self.kernel_name = kernel_name
        self.config_name = config_name
        self.variant = variant
        self.mapping = mapping
        self.compile_seconds = compile_seconds
        self.cycles = cycles
        self.activity = activity
        self.energy = energy
        self.error = error
        self._mapped = mapped
        #: content hash of the executed output regions — the token
        #: ``repro diff`` compares across backends (None when the
        #: point never executed)
        self.output_digest = output_digest
        #: routing MOVs, padding NOPs and context words per tile of
        #: the executed mapping (None when the point never executed)
        self.movs = movs
        self.pnops = pnops
        self.tile_words = tile_words

    @property
    def mapped(self):
        if self._mapped is not None:
            return self._mapped
        return self.mapping is not None

    @property
    def energy_uj(self):
        return self.energy.total_uj if self.energy is not None else None

    def __repr__(self):
        status = f"{self.cycles} cycles" if self.mapped else "no mapping"
        return (f"ExperimentPoint({self.kernel_name}@{self.config_name}"
                f"/{self.variant}: {status})")


def point_to_json(point):
    """Deterministic summary fields of one experiment point.

    The one point document: cache entries, shard files and serve
    payloads all carry it.
    """
    return {
        "kernel": point.kernel_name,
        "config": point.config_name,
        "variant": point.variant,
        "mapped": point.mapped,
        "cycles": point.cycles,
        "compile_seconds": point.compile_seconds,
        "energy_uj": point.energy_uj,
        "energy_parts_pj": (dict(point.energy.parts)
                            if point.energy is not None else None),
        "error": point.error,
        "output_digest": point.output_digest,
        "movs": point.movs,
        "pnops": point.pnops,
        "tile_words": point.tile_words,
    }


def point_from_json(data):
    """Rebuild a summary :class:`ExperimentPoint` (no mapping object)."""
    parts = data.get("energy_parts_pj")
    return ExperimentPoint(
        data["kernel"], data["config"], data["variant"],
        compile_seconds=data.get("compile_seconds"),
        cycles=data.get("cycles"),
        energy=EnergyBreakdown(parts) if parts is not None else None,
        error=data.get("error"),
        mapped=data.get("mapped"),
        output_digest=data.get("output_digest"),
        movs=data.get("movs"), pnops=data.get("pnops"),
        tile_words=data.get("tile_words"))


#: Outcomes that are deterministic properties of the spec.  Anything
#: else in ``ExperimentPoint.error`` is a captured crash and must not
#: be persisted (see :mod:`repro.runtime.pool`).
DETERMINISTIC_ERRORS = (None, "unmappable", "context overflow")


@dataclasses.dataclass(frozen=True)
class PointSpec:
    """Immutable description of one experiment point.

    ``options=None`` means "the named variant's preset"; call
    :meth:`resolve` to pin the concrete :class:`FlowOptions` so equal
    computations compare (and hash) equal.  ``cm_depths`` builds a
    custom homogeneous/heterogeneous array via
    :func:`~repro.arch.configs.make_cgra` instead of looking the
    configuration name up in Table I — the design-space-exploration
    path.  ``rows``/``cols`` scale the array shape along with it
    (``None`` means the paper's 4x4); load-store tiles follow the
    paper's convention — the top (up to) two rows — via
    :func:`~repro.arch.configs.default_lsu_tiles`.
    """

    kernel_name: str
    config_name: str
    variant: str
    options: FlowOptions = None
    seed: int = DEFAULT_SEED
    cm_depths: tuple = None
    rows: int = None
    cols: int = None
    backend: str = DEFAULT_BACKEND

    def resolve(self):
        """Canonical spec: concrete FlowOptions, upper-case config.

        Configuration lookup is case-insensitive, so ``hom64`` and
        ``HOM64`` describe the same computation — normalising here
        makes them share one memo entry and one cache key.  The
        backend name is validated here too (``None`` is the default),
        so an unknown backend fails with the valid set before any
        work starts.
        """
        backend = validated_backend(self.backend)
        resolved = self
        if backend != self.backend:
            resolved = dataclasses.replace(resolved, backend=backend)
        if self.config_name != self.config_name.upper():
            resolved = dataclasses.replace(
                resolved, config_name=self.config_name.upper())
        if resolved.options is None:
            resolved = dataclasses.replace(
                resolved, options=VARIANTS[resolved.variant]())
        if (resolved.cm_depths is not None
                and not isinstance(resolved.cm_depths, tuple)):
            # Lists are the natural call style (make_cgra takes lists)
            # but would make the frozen spec unhashable.
            resolved = dataclasses.replace(
                resolved, cm_depths=tuple(resolved.cm_depths))
        if resolved.cm_depths is not None:
            # Pin the array shape so "rows left at the default" and
            # "rows=4 written out" hash to the same computation.
            rows = (resolved.rows if resolved.rows is not None
                    else DEFAULT_ROWS)
            cols = (resolved.cols if resolved.cols is not None
                    else DEFAULT_COLS)
            if rows * cols != len(resolved.cm_depths):
                raise ReproError(
                    f"{self.describe()}: {rows}x{cols} array needs "
                    f"{rows * cols} CM depths, got "
                    f"{len(resolved.cm_depths)}")
            if (rows, cols) != (resolved.rows, resolved.cols):
                resolved = dataclasses.replace(resolved, rows=rows,
                                               cols=cols)
        elif resolved.rows is not None or resolved.cols is not None:
            raise ReproError(
                f"{self.describe()}: rows/cols scaling requires "
                f"cm_depths (Table I configs are 4x4 by definition)")
        return resolved

    def build_cgra(self):
        if self.cm_depths is not None:
            rows = self.rows if self.rows is not None else DEFAULT_ROWS
            cols = self.cols if self.cols is not None else DEFAULT_COLS
            return make_cgra(self.config_name, rows=rows, cols=cols,
                             cm_depths=list(self.cm_depths),
                             lsu_tiles=default_lsu_tiles(rows, cols))
        return get_config(self.config_name)

    def describe(self):
        label = f"{self.kernel_name}@{self.config_name}/{self.variant}"
        if self.backend != DEFAULT_BACKEND:
            label += f"#{self.backend}"
        return label


def sweep_specs(kernels=PAPER_KERNEL_ORDER, configs=LATENCY_CONFIGS,
                variants=tuple(VARIANTS), seed=DEFAULT_SEED,
                backend=DEFAULT_BACKEND):
    """The full cartesian batch: kernels × configs × flow variants."""
    return [PointSpec(kernel, config, variant, seed=seed,
                      backend=backend)
            for kernel in kernels
            for config in configs
            for variant in variants]


def validated_sweep_specs(kernels=None, configs=None, variants=None,
                          seed=None, backend=None):
    """:func:`sweep_specs` with axis validation (None = the default).

    Unknown axis names become a one-line :class:`ReproError` listing
    the valid set.  Shared by ``repro sweep``/``repro submit`` and
    the HTTP service's ``POST /v1/sweeps``, so a typo fails with the
    same diagnostic whichever door it came through — and every axis
    is checked before any work (or any destructive cache action)
    starts.  Config names are case-normalised here, matching
    :meth:`PointSpec.resolve`.
    """
    from repro.arch.configs import CGRA_CONFIGS
    from repro.kernels import KERNEL_NAMES

    # `is not None`, not truthiness: an explicitly empty axis means
    # "zero specs" (the caller decides that is an error), never a
    # silent widening to the full default sweep.
    kernels = (tuple(kernels) if kernels is not None
               else tuple(PAPER_KERNEL_ORDER))
    configs = (tuple(config.upper() for config in configs)
               if configs is not None else LATENCY_CONFIGS)
    variants = (tuple(variants) if variants is not None
                else tuple(VARIANTS))
    for label, given, valid in (
            ("kernels", kernels, set(KERNEL_NAMES)),
            ("configs", configs, set(CGRA_CONFIGS)),
            ("variants", variants, set(VARIANTS))):
        unknown = set(given) - valid
        if unknown:
            raise ReproError(f"unknown {label} {sorted(unknown)}; "
                             f"choose from {sorted(valid)}")
    if seed is not None and seed < 0:
        raise ReproError(f"seed must be >= 0, got {seed}")
    return sweep_specs(kernels=kernels, configs=configs,
                       variants=variants,
                       seed=DEFAULT_SEED if seed is None else seed,
                       backend=validated_backend(backend))


def compute_point(spec):
    """Execute one spec on its named backend: map, assemble, run
    (lockstep simulation or cycle-level execution), verify, price."""
    from repro.obs import trace

    spec = spec.resolve()
    with trace.span("point", spec=spec.describe(),
                    backend=spec.backend) as active:
        point = backend_point(spec)
        active.set(mapped=point.mapped,
                   cycles=point.cycles if point.mapped else None)
    return point


def map_kernel_for(kernel, cgra, options):
    """Map a kernel object (split out so tests can monkeypatch)."""
    from repro.mapping.flow import map_kernel

    return map_kernel(kernel.cdfg, cgra, options)


@dataclasses.dataclass
class SweepResult:
    """Outcome of one batched run, in the order the specs were given."""

    specs: list
    points: list
    cache_hits: int
    computed: int
    elapsed_seconds: float

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def point(self, kernel_name, config_name, variant):
        """First point matching the (kernel, config, variant) triple."""
        for spec, point in zip(self.specs, self.points):
            if (spec.kernel_name, spec.config_name,
                    spec.variant) == (kernel_name, config_name, variant):
                return point
        raise KeyError(f"{kernel_name}@{config_name}/{variant}")

    @property
    def mapped(self):
        return [p for p in self.points if p.mapped]

    @property
    def unmapped(self):
        return [p for p in self.points
                if not p.mapped and p.error in DETERMINISTIC_ERRORS]

    @property
    def crashed(self):
        return [p for p in self.points
                if p.error not in DETERMINISTIC_ERRORS]

    def summary(self):
        return (f"{len(self.points)} points: {len(self.mapped)} mapped, "
                f"{len(self.unmapped)} no-map, {len(self.crashed)} errors; "
                f"{self.cache_hits} from cache, {self.computed} computed "
                f"in {self.elapsed_seconds:.1f}s")
