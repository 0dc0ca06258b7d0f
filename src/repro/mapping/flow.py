"""The orchestrating mapping flow (paper Fig 4).

``map_kernel(cdfg, cgra, options)`` runs the complete flow:

1. order the basic blocks (forward or weighted traversal);
2. per block: backward list scheduling + exact incremental binding,
   with the optional ACMAP / stochastic / ECMAP pruning cascade and
   CAB blacklisting;
3. on binding failure: graph transformations — schedule stretching
   (re-route slack) alternated with re-computation — then retry;
4. commit the best surviving partial mapping; its per-tile context
   usage and freshly-fixed symbol homes constrain later blocks.

A kernel that exhausts its retry budget raises
:class:`~repro.errors.UnmappableError` — the "no mapping solution"
zeros of the paper's Figs 6-8.

:class:`FlowOptions` encodes the paper's flow variants; the named
presets in :data:`VARIANTS` are exactly the series of Figs 6-9:
``basic``, ``acmap`` (basic + weighted traversal + ACMAP), ``ecmap``
(+ ECMAP), ``full`` (+ CAB).
"""

from __future__ import annotations

import dataclasses
import time
import zlib

import numpy as np

from repro.errors import MappingError, UnmappableError
from repro.ir.analysis import critical_path_length
from repro.mapping import transforms
from repro.mapping.binder import BindContext, bind_candidates, finalize_symbols
from repro.mapping.blacklist import update_blacklist
from repro.mapping.pruning import acmap_filter, ecmap_filter, stochastic_prune
from repro.mapping.result import BlockMapping, MappingResult
from repro.mapping.scheduler import backward_order
from repro.mapping.state import CommittedState, PartialMapping
from repro.mapping.traversal import TRAVERSALS, block_order

#: Least value of each bounded FlowOptions field: below it the flow
#: would skip its attempts (a wrong "unmappable") or crash.
_OPTION_FLOORS = {"max_attempts": 1, "prune_cap": 1, "seed": 0}

#: Re-computation splits one block may apply on binding failures.
MAX_RECOMPUTES = 8

#: Context-memory failures one block retries before it stretches.
MAX_CM_RETRIES = 3


@dataclasses.dataclass(frozen=True)
class FlowOptions:
    """What a caller chooses about the mapping flow.

    ``traversal``, ``acmap``, ``ecmap`` and ``cab`` select the paper's
    flow variants (see :data:`VARIANTS`); ``prune_cap`` is the
    stochastic pruning threshold the pruning ablation varies;
    ``max_attempts`` is a block's retry budget, which tight
    design-space sweeps lower; ``seed`` seeds the pruning stream.  The
    flow's other bounds have one value each and live as constants in
    the module that reads them.

    The default instance is the *basic* flow of Das et al. TCAD'18:
    forward traversal, stochastic pruning only, no context-memory
    awareness.
    """

    traversal: str = "forward"
    acmap: bool = False
    ecmap: bool = False
    cab: bool = False
    prune_cap: int = 12
    seed: int = 2019
    max_attempts: int = 18

    def __post_init__(self):
        if self.traversal not in TRAVERSALS:
            raise ValueError(
                f"flow option 'traversal' must be one of {TRAVERSALS}, "
                f"got {self.traversal!r}")
        for name, least in _OPTION_FLOORS.items():
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"flow option {name!r} must be >= "
                                 f"{least}, got {value!r}")

    @property
    def is_context_aware(self):
        return self.acmap or self.ecmap or self.cab

    # ------------------------------------------------------------------
    # Presets (the flow variants of Figs 6-9)
    # ------------------------------------------------------------------
    @classmethod
    def basic(cls, **overrides):
        """Basic mapping approach (baseline of every figure)."""
        return cls(**overrides)

    @classmethod
    def weighted(cls, **overrides):
        """Basic flow with the weighted CDFG traversal only (Fig 5)."""
        return cls(traversal="weighted", **overrides)

    @classmethod
    def with_acmap(cls, **overrides):
        """Basic + weighted traversal + ACMAP (Fig 6)."""
        return cls(traversal="weighted", acmap=True, **overrides)

    @classmethod
    def with_ecmap(cls, **overrides):
        """Basic + ACMAP + ECMAP (Fig 7)."""
        return cls(traversal="weighted", acmap=True, ecmap=True, **overrides)

    @classmethod
    def aware(cls, **overrides):
        """The full context-memory aware flow (Fig 8, Table II)."""
        return cls(traversal="weighted", acmap=True, ecmap=True, cab=True,
                   **overrides)


#: Flow variants keyed by the names used throughout the benchmarks.
VARIANTS = {
    "basic": FlowOptions.basic,
    "weighted": FlowOptions.weighted,
    "acmap": FlowOptions.with_acmap,
    "ecmap": FlowOptions.with_ecmap,
    "full": FlowOptions.aware,
}


class BlockBindFailure(MappingError):
    """Internal: one block-mapping attempt died (drives the remedies)."""

    def __init__(self, op_uid, reason):
        super().__init__(f"binding failed at op {op_uid} ({reason})")
        self.op_uid = op_uid
        self.reason = reason


def map_kernel(cdfg, cgra, options=None, context_aware=False):
    """Map a kernel CDFG onto a CGRA configuration.

    Raises :class:`~repro.errors.UnmappableError` when no mapping
    satisfies the context-memory constraints.
    """
    if options is None:
        options = FlowOptions.aware() if context_aware else FlowOptions.basic()
    cdfg.validate()
    started = time.perf_counter()
    order = block_order(cdfg, options.traversal)
    committed = CommittedState(cgra)
    blocks = {}
    for name in order:
        mapping = _map_block(cdfg.name, cdfg.block(name), cgra, committed,
                             options)
        committed = committed.extend(mapping.block_usage(),
                                     mapping.new_homes)
        blocks[name] = mapping
    elapsed = time.perf_counter() - started
    result = MappingResult(cdfg.name, cgra, options, order, blocks, elapsed)
    if options.ecmap:
        # ECMAP guarantees the fit; verify the invariant anyway.
        result.check_fits()
    return result


def _stable_hash(text):
    return zlib.crc32(text.encode("utf-8"))


def _initial_length(dfg, cgra):
    """Lower bound on the block schedule length.

    The critical path bounds dependence depth; the resource bounds
    come from issue slots (every op needs one) and from the LSU tiles
    (memory ops only run there).  A small margin leaves room for MOVs.
    """
    from repro.ir import opcodes as _opcodes

    n_ops = len(dfg.ops)
    if n_ops == 0:
        return 1
    n_mem = sum(1 for op in dfg.ops if _opcodes.is_memory(op.opcode))
    issue_bound = -(-n_ops * 23 // (20 * cgra.n_tiles))  # ceil(1.15x)
    lsu_count = max(1, len(cgra.lsu_tiles))
    mem_bound = -(-n_mem * 23 // (20 * lsu_count))
    return max(1, critical_path_length(dfg), issue_bound + 1, mem_bound + 1)


def _map_block(kernel_name, block, cgra, committed, options):
    """Map one basic block, applying transformations on failure."""
    original = block.dfg
    working = transforms.presplit_high_fanout(original)
    length = _initial_length(working, cgra)
    cm_retries = 0
    recomputes = 0
    last_failure = None
    for attempt in range(options.max_attempts):
        rng = np.random.default_rng(
            [options.seed, _stable_hash(block.name), attempt])
        try:
            pm = _map_block_once(working, length, cgra, committed, options,
                                 rng)
            return BlockMapping(
                block.name, working, pm,
                n_transformed=transforms.transformed_op_count(
                    working, original),
                attempts=attempt + 1)
        except BlockBindFailure as failure:
            last_failure = failure
            if failure.reason in ("acmap", "ecmap"):
                # Context-memory failure.  First re-explore with a
                # different pruning substream (cheap); if the failure
                # is systematic, fall through to schedule stretching —
                # longer schedules open issue slots on the tiles that
                # still have context budget.
                cm_retries += 1
                if cm_retries <= MAX_CM_RETRIES:
                    continue
            if (failure.op_uid is not None
                    and recomputes < MAX_RECOMPUTES
                    and attempt % 2 == 1):
                try:
                    working = transforms.recompute_split(
                        working, failure.op_uid)
                    recomputes += 1
                    continue
                except MappingError:
                    pass
            length += max(2, length // 6)
    raise UnmappableError(
        f"no mapping for block {block.name!r} of {kernel_name!r} on "
        f"{cgra.name} ({last_failure})",
        kernel=kernel_name, config=cgra.name, block=block.name)


def _map_block_once(dfg, length, cgra, committed, options, rng):
    """One attempt at mapping a block; raises BlockBindFailure."""
    ctx = BindContext(dfg, cgra, options)
    initial = PartialMapping(cgra, committed, length)
    if options.cab:
        update_blacklist(initial)
    partials = [initial]
    for op in backward_order(dfg):
        candidates = []
        for pm in partials:
            candidates.extend(bind_candidates(ctx, pm, op))
        if not candidates:
            # Fallback: rescan the whole legal cycle range before
            # giving up on this attempt.
            for pm in partials:
                candidates.extend(bind_candidates(ctx, pm, op,
                                                  full_window=True))
        if not candidates:
            raise BlockBindFailure(op.uid, "bind")
        if options.acmap:
            candidates = acmap_filter(candidates)
            if not candidates:
                raise BlockBindFailure(op.uid, "acmap")
        partials = [candidate.build() for candidate in stochastic_prune(
            candidates, options.prune_cap, rng)]
        if options.ecmap:
            partials = ecmap_filter(partials)
            if not partials:
                raise BlockBindFailure(op.uid, "ecmap")
        if options.cab:
            for pm in partials:
                update_blacklist(pm)
    finalized = []
    for pm in partials:
        final = finalize_symbols(ctx, pm)
        if final is not None:
            finalized.append(final)
    if options.ecmap:
        finalized = ecmap_filter(finalized)
    if not finalized:
        raise BlockBindFailure(None, "finalize")
    best = min(finalized, key=lambda pm: (pm.length,) + pm.cost())
    best.compress()
    return best
