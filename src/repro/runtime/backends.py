"""The two execution backends behind the ``PointSpec`` contract.

Every figure, sweep, exploration and served job funnels through one
function signature — ``PointSpec -> ExperimentPoint``, here
:func:`backend_point` — and a spec's ``backend`` field (a sweep axis
like any other — it perturbs the cache key, the shard payload and the
sweep fingerprint, so points computed by different backends can never
be confused) picks how it executes:

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
"""

from __future__ import annotations

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

#: Every backend name, the default first.
BACKENDS = (DEFAULT_BACKEND, "cycle")


def validated_backend(name):
    """``None`` -> the default; otherwise a known backend's name,
    diagnosing an unknown one with the valid set."""
    if name is None:
        return DEFAULT_BACKEND
    if name not in BACKENDS:
        raise ReproError(
            f"unknown backend {name!r}; choose from "
            f"{', '.join(BACKENDS)}")
    return name


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


def backend_point(spec):
    """Run one resolved spec on its backend: map and assemble, execute
    on the lockstep simulator (``analytic``) or the cycle-level
    executor (``cycle``), then verify and price."""
    prepared = _prepare(spec)
    if not isinstance(prepared, tuple):
        return prepared
    kernel, cgra, mapping, program, seconds = prepared
    if spec.backend == "cycle":
        from repro.sim.executor import CycleExecutor as engine
    else:
        from repro.sim.cgra import CGRASimulator as engine
    with stage("execute", kernel=spec.kernel_name,
               backend=spec.backend):
        memory = kernel.make_memory(
            kernel.make_inputs(np.random.default_rng(spec.seed)))
        run = engine(program, memory).run()
    return _finish(spec, kernel, cgra, mapping, seconds, run)
