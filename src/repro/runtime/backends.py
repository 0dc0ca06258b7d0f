"""Named execution backends behind the ``PointSpec`` contract.

Every figure, sweep, exploration and served job funnels through one
function signature — ``PointSpec -> ExperimentPoint`` — and this
module makes that signature pluggable: a *backend* is a named
implementation of it, registered in :data:`BACKENDS`, selected per
point by the spec's ``backend`` field (a sweep axis like any other —
it perturbs the cache key, the shard payload and the sweep
fingerprint, so points computed by different backends can never be
confused).

Two backends ship:

- ``analytic`` (the default) — the original pipeline: map, assemble,
  then the lockstep :class:`~repro.sim.cgra.CGRASimulator`, whose
  cycle count restates the mapper's scheduled block lengths.
- ``cycle`` — the same mapping and assembly, executed by the
  independent event-driven :class:`~repro.sim.executor.CycleExecutor`,
  which *measures* block durations from the instruction stream
  instead of reading them off the schedule.

Both share the deliberately common front half (mapping is the
system under test, not the thing being diversified) and the same
soundness gate: outputs are verified bit-exactly against the kernel's
reference before any latency/energy number is reported.  What differs
is everything downstream of assembly — which is exactly the part the
paper's numbers rest on, and exactly what ``repro diff``
(:mod:`repro.runtime.diff`) compares across backends.

Registering a future backend (a SAT-oracle replay, a streaming
model) is one decorated function::

    @register_backend("sat", description="exact replay oracle")
    def _sat_point(spec):
        ...

and it immediately becomes a sweep axis value, a ``repro diff``
operand, a serve-tier submission field and a DSE dimension.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

import numpy as np

from repro.codegen.assembler import assemble
from repro.errors import ReproError, UnmappableError
from repro.kernels import get_kernel
from repro.obs import stage
from repro.power.energy import EnergyModel

#: The backend a spec gets when none is named.
DEFAULT_BACKEND = "analytic"

#: name -> :class:`Backend`, in registration order.
BACKENDS = {}


@dataclasses.dataclass(frozen=True)
class Backend:
    """One named ``PointSpec -> ExperimentPoint`` implementation."""

    name: str
    runner: object
    description: str

    def __call__(self, spec):
        return self.runner(spec)


def register_backend(name, description=""):
    """Decorator: publish a ``PointSpec -> ExperimentPoint`` callable."""
    def decorate(func):
        if name in BACKENDS:
            raise ReproError(f"backend {name!r} already registered")
        BACKENDS[name] = Backend(name=name, runner=func,
                                 description=description)
        return func
    return decorate


def backend_names():
    """Registered backend names, registration order."""
    return tuple(BACKENDS)


def get_backend(name):
    """Look a backend up, diagnosing unknown names with the valid set."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ReproError(
            f"unknown backend {name!r}; choose from "
            f"{', '.join(BACKENDS)}") from None


def validated_backend(name):
    """``None`` -> the default; otherwise a known backend's name."""
    if name is None:
        return DEFAULT_BACKEND
    return get_backend(name).name


# ----------------------------------------------------------------------
# The shared front half: spec -> assembled program (or early point)
# ----------------------------------------------------------------------
def _prepare(spec):
    """Map and assemble one spec.

    Returns ``(kernel, cgra, mapping, program, compile_seconds)`` on
    success, or a finished error-carrying ``ExperimentPoint`` when
    the outcome is already decided (unmappable, context overflow) —
    deliberately identical across backends: they diversify execution,
    not the mapper under test.
    """
    from repro.runtime.sweep import ExperimentPoint, map_kernel_for

    with stage("dfg", kernel=spec.kernel_name):
        kernel = get_kernel(spec.kernel_name)
        cgra = spec.build_cgra()
    options = spec.options
    started = time.perf_counter()
    try:
        with stage("map", kernel=spec.kernel_name,
                   config=spec.config_name, variant=spec.variant):
            mapping = map_kernel_for(kernel, cgra, options)
    except UnmappableError:
        return ExperimentPoint(spec.kernel_name, spec.config_name,
                               spec.variant,
                               compile_seconds=time.perf_counter()
                               - started,
                               error="unmappable")
    seconds = time.perf_counter() - started
    with stage("assemble", kernel=spec.kernel_name):
        program = assemble(mapping, kernel.cdfg,
                           enforce_fit=options.ecmap)
    if not mapping.fits:
        # A context-unaware mapping that physically overflows this
        # configuration cannot run — the paper's zero bars.
        return ExperimentPoint(spec.kernel_name, spec.config_name,
                               spec.variant, compile_seconds=seconds,
                               error="context overflow")
    return kernel, cgra, mapping, program, seconds


def output_digest(kernel, run):
    """Content hash of a run's output regions, in declaration order.

    The cross-backend comparison token: two backends that executed
    the same spec must produce identical digests, and the digest
    survives JSON serialisation where the raw memory image does not.
    """
    digest = hashlib.sha256()
    for region in kernel.output_regions:
        digest.update(region.encode("utf-8"))
        digest.update(
            ",".join(str(v)
                     for v in run.region(kernel.cdfg, region))
            .encode("ascii"))
    return digest.hexdigest()


def _finish(spec, kernel, cgra, mapping, seconds, run):
    """Verify a run against the reference and price it."""
    from repro.runtime.sweep import ExperimentPoint

    with stage("verify", kernel=spec.kernel_name,
               backend=spec.backend):
        inputs = kernel.make_inputs(np.random.default_rng(spec.seed))
        expected = kernel.reference(inputs)
        for region in kernel.output_regions:
            got = run.region(kernel.cdfg, region)
            if got != expected[region]:
                raise ReproError(
                    f"{spec.describe()}: region {region!r} mismatch "
                    f"— {spec.backend} execution is unsound")
    with stage("price", kernel=spec.kernel_name):
        energy = EnergyModel().cgra_energy(run.activity, cgra)
    return ExperimentPoint(spec.kernel_name, spec.config_name,
                           spec.variant, mapping=mapping,
                           compile_seconds=seconds, cycles=run.cycles,
                           activity=run.activity, energy=energy,
                           output_digest=output_digest(kernel, run),
                           movs=mapping.total_movs,
                           pnops=mapping.total_pnops,
                           tile_words=mapping.tile_words())


def _memory_for(kernel, spec):
    return kernel.make_memory(
        kernel.make_inputs(np.random.default_rng(spec.seed)))


# ----------------------------------------------------------------------
# The two seed backends
# ----------------------------------------------------------------------
@register_backend(
    "analytic",
    description="lockstep simulator; cycles restate the mapper's "
                "scheduled block lengths")
def _analytic_point(spec):
    from repro.sim.cgra import CGRASimulator

    prepared = _prepare(spec)
    if not isinstance(prepared, tuple):
        return prepared
    kernel, cgra, mapping, program, seconds = prepared
    with stage("execute", kernel=spec.kernel_name,
               backend="analytic"):
        run = CGRASimulator(program, _memory_for(kernel, spec)).run()
    return _finish(spec, kernel, cgra, mapping, seconds, run)


@register_backend(
    "cycle",
    description="event-driven cycle-level executor; durations "
                "measured from the instruction stream")
def _cycle_point(spec):
    from repro.sim.executor import CycleExecutor

    prepared = _prepare(spec)
    if not isinstance(prepared, tuple):
        return prepared
    kernel, cgra, mapping, program, seconds = prepared
    with stage("execute", kernel=spec.kernel_name, backend="cycle"):
        run = CycleExecutor(program, _memory_for(kernel, spec)).run()
    return _finish(spec, kernel, cgra, mapping, seconds, run)
