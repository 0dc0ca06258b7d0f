"""Deterministic sweep sharding and the shard-merge path.

A sweep of *kernels × configs × flow variants* multiplies quickly —
the DSE ladders multiply it again — and one process pool should not
own all of it.  This module splits a spec list into ``N`` disjoint
shards that together are provably the whole list, so independent
machines (or CI matrix entries) can each run
``repro sweep --shard i/N``, write a JSON result file, and a final
merge step reassembles the one :class:`~repro.runtime.sweep.SweepResult`
the unsharded run would have produced.

**Sharding contract** (tested in ``tests/runtime/test_shard.py``):

- *Partition*: every input position is assigned to exactly one shard,
  so shards are pairwise disjoint and their union is the input —
  by construction, not by convention.
- *Determinism*: assignment is computed from a canonical ordering of
  the specs (estimated cost, then content hash), never from input
  positions, so every machine that builds the same spec list carves
  it identically — and re-ordering the list cannot move a spec to a
  different shard.
- *Order stability*: within a shard, specs keep the relative order
  they had in the full list.
- *Load balance*: specs are assigned greedily (longest processing
  time first) to the currently lightest shard, using an estimated
  cost heuristic — kernel size times a flow-variant weight from the
  paper's compile-time ratios — so heavy kernels spread across
  shards instead of piling up in one.

**JSON result files** carry, per point, the position it had in the
full spec list; the merge validates that the shard files cover every
position exactly once before rebuilding the sweep, so a missing or
duplicated shard is a hard error rather than a silently short result.
Rebuilt points are *summaries*: deterministic fields (cycles, energy,
error class, compile seconds, mapping-quality counts) round-trip
exactly, the heavy mapping and activity objects do not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json

from repro.errors import ReproError
from repro.mapping.flow import VARIANTS, FlowOptions
from repro.runtime.cache import point_key, spec_payload
from repro.runtime.sweep import (
    PointSpec,
    SweepResult,
    point_from_json,
    point_to_json,
)

#: Bump when the JSON sweep-result payload layout changes.
#: Schema 2: spec dicts carry ``rows``/``cols`` (array-shape scaling).
#: Schema 3: spec dicts carry ``backend`` (execution backend axis);
#: point dicts carry ``output_digest`` (cross-backend comparison
#: token).  Point dicts later gained ``movs``/``pnops``/``tile_words``
#: without a bump: readers default absent fields to None.
SWEEP_JSON_SCHEMA = 3

#: Cost multiplier for already-cached specs under cache-aware
#: balancing: near zero (a hit is one small JSON read), but not
#: exactly zero so warm specs still spread across shards instead of
#: all landing on whichever shard the greedy heap happens to favour.
CACHED_COST_SCALE = 1e-6

#: Relative compile-cost weight per flow variant (Fig 9's shape: the
#: full context-aware flow costs ~1.8x the basic flow).
_VARIANT_COST = {"basic": 1.0, "weighted": 1.0, "acmap": 1.2,
                 "ecmap": 1.5, "full": 1.8}

#: Fallback op count for kernels that fail to build (the cost model
#: must never crash a sweep that would have captured the failure).
_DEFAULT_KERNEL_OPS = 64

_KERNEL_OPS = {}


def _kernel_ops(name):
    ops = _KERNEL_OPS.get(name)
    if ops is None:
        try:
            from repro.kernels import get_kernel
            ops = get_kernel(name).cdfg.n_ops
        except Exception:
            ops = _DEFAULT_KERNEL_OPS
        _KERNEL_OPS[name] = ops
    return ops


def estimated_cost(spec):
    """Relative cost of computing one spec (unitless, deterministic).

    Mapping dominates and scales with the kernel's static op count;
    the context-aware stages multiply it by a roughly constant factor.
    Only *relative* accuracy matters — the heuristic spreads heavy
    kernels across shards, it does not predict seconds.
    """
    weight = _VARIANT_COST.get(spec.variant, 1.5)
    return _kernel_ops(spec.kernel_name) * weight


def parse_shard(text):
    """Parse a ``--shard INDEX/TOTAL`` value into ``(index, total)``."""
    try:
        index_text, total_text = text.split("/")
        index, total = int(index_text), int(total_text)
    except ValueError:
        raise ReproError(
            f"--shard expects INDEX/TOTAL (e.g. 0/4), got {text!r}"
        ) from None
    _check_shard(index, total)
    return index, total


def _check_shard(index, total):
    if total < 1:
        raise ReproError(f"shard total must be >= 1, got {total}")
    if not 0 <= index < total:
        raise ReproError(
            f"shard index must be in [0, {total}), got {index}")


def shard_indices(specs, index, total, cache=None):
    """Positions (into ``specs``) owned by shard ``index`` of ``total``.

    The canonical ordering sorts by descending estimated cost with
    the spec's content hash as tie-break — both are properties of the
    spec alone, so the assignment is invariant under re-ordering of
    the input.  Greedy longest-first assignment to the lightest shard
    (ties to the lowest shard index) balances the load.

    ``cache`` (a :class:`~repro.runtime.cache.ResultCache`) makes the
    balancing *cache-aware*: specs whose result is already cached are
    charged :data:`CACHED_COST_SCALE` of their cost, so on a warm
    re-run the *residual* (uncached) work splits evenly instead of
    some shards drawing all the cache hits and others all the cold
    mapping.  The partition contract is unchanged — shards stay
    disjoint and union-complete — but the assignment is now a
    function of (spec multiset, cache state): every cooperating shard
    producer must see the same cache (the shared ``$REPRO_CACHE_DIR``
    this mode exists for), or their shards may overlap or leave gaps.
    """
    _check_shard(index, total)
    resolved = [spec.resolve() for spec in specs]
    costs = [estimated_cost(spec) for spec in resolved]
    if cache is not None:
        costs = [cost * CACHED_COST_SCALE
                 if cache.has_point(spec) else cost
                 for spec, cost in zip(resolved, costs)]
    order = sorted(range(len(resolved)),
                   key=lambda i: (-costs[i], point_key(resolved[i])))
    loads = [(0.0, shard) for shard in range(total)]
    heapq.heapify(loads)
    mine = []
    for i in order:
        load, shard = heapq.heappop(loads)
        if shard == index:
            mine.append(i)
        heapq.heappush(loads, (load + costs[i], shard))
    return sorted(mine)


def shard_specs(specs, index, total, cache=None):
    """Shard ``index`` of ``total``: a disjoint, order-stable slice.

    For any spec list and any ``total``, the ``total`` shards
    partition the list: pairwise disjoint, union exactly the input.
    ``cache`` opts in to cache-aware balancing (see
    :func:`shard_indices`).
    """
    return [specs[i]
            for i in shard_indices(specs, index, total, cache=cache)]


class SweepRequest:
    """A validated sweep: the specs to run and their identity.

    ``full_specs`` is the complete sweep the request was carved from;
    ``positions``/``specs`` are the slice this run actually computes
    (the identity when unsharded).  Carrying both lets the finished
    run emit a payload that merges with the sibling shards computed
    elsewhere — ``repro sweep/figure/explore --shard`` and
    ``repro serve`` jobs all carve with this type.  ``cache`` opts the
    carving in to cache-aware balancing (see :func:`shard_indices`).
    """

    kind = "sweep"

    def __init__(self, full_specs, shard=None, label="sweep",
                 priority=0, cache=None):
        if not full_specs:
            raise ReproError("request resolves to zero specs")
        self.full_specs = [spec.resolve() for spec in full_specs]
        self.shard = shard
        self.label = label
        self.priority = priority
        if shard is not None:
            self.positions = shard_indices(self.full_specs, *shard,
                                           cache=cache)
        else:
            self.positions = list(range(len(self.full_specs)))
        self.specs = [self.full_specs[i] for i in self.positions]
        self.fingerprint = sweep_fingerprint(self.full_specs)

    @property
    def spec_total(self):
        return len(self.full_specs)


# ----------------------------------------------------------------------
# JSON payloads
# ----------------------------------------------------------------------
def sweep_fingerprint(specs):
    """Content hash identifying a full spec list (order included).

    Every shard payload carries the fingerprint of the *full* sweep
    it was carved from, so the merge can refuse to combine shards of
    different sweeps — same length and disjoint positions are not
    enough (two sweeps differing only in ``--seed`` satisfy both).
    The underlying :func:`~repro.runtime.cache.point_key` embeds the
    package version, so results from different releases do not merge
    either.
    """
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(point_key(spec).encode("ascii"))
    return digest.hexdigest()


def spec_to_json(spec):
    """JSON-safe dict fully describing one resolved spec.

    Delegates to :func:`~repro.runtime.cache.spec_payload` — the same
    canonical dict the cache key hashes — so a field added to
    :class:`PointSpec` can never be persisted by the cache but
    dropped from shard payloads (or vice versa).
    """
    return spec_payload(spec)


#: The type each FlowOptions field's JSON value must have (every field
#: has a default of its type).
_OPTION_TYPES = {field.name: type(field.default)
                 for field in dataclasses.fields(FlowOptions)}

_TYPE_NAMES = {bool: "a boolean", int: "an integer", str: "a string",
               list: "a list", dict: "an object"}


def _typed(name, value, kind, least=None):
    """``value`` if it is a ``kind`` (a bool is no int) and at least
    ``least``; else a ValueError naming the field."""
    if (not isinstance(value, kind)
            or (kind is not bool and isinstance(value, bool))
            or (least is not None and value < least)):
        bound = f" >= {least}" if least is not None else ""
        raise ValueError(f"spec field {name!r} must be "
                         f"{_TYPE_NAMES[kind]}{bound}, got {value!r}")
    return value


def _named(name, value, valid):
    """A ValueError naming the field and the valid names unless
    ``value`` is one of ``valid``."""
    if value not in valid:
        raise ValueError(f"spec field {name!r} must be one of "
                         f"{sorted(valid)}, got {value!r}")


def spec_from_json(data):
    """Rebuild a resolved :class:`PointSpec` from its JSON dict.

    Every field must have its JSON type: strings for the names,
    integers (not booleans) for ``seed``, ``rows``, ``cols`` and the
    ``cm_depths`` entries, and each ``options`` value the type of its
    :class:`FlowOptions` field; ``seed`` must be at least 0, and the
    options within the ranges ``FlowOptions`` checks; the kernel and
    variant must be known names, and so must the config unless
    ``cm_depths`` makes it a free label (the name sets
    :func:`~repro.runtime.sweep.validated_sweep_specs` checks).  A bad
    field raises a ValueError that names it: a ``true`` seed would
    compute the ``1`` point under another key, a ``null`` one would
    draw its inputs from OS entropy, a negative one crashes the input
    generator, and an unknown name crashes the point or caches it
    under a label that names nothing.
    """
    from repro.arch.configs import CGRA_CONFIGS
    from repro.kernels import KERNEL_NAMES
    from repro.runtime.backends import DEFAULT_BACKEND

    kernel, config, variant = [
        _typed(name, data[name], str)
        for name in ("kernel", "config", "variant")]
    _named("kernel", kernel, KERNEL_NAMES)
    _named("variant", variant, VARIANTS)
    options = data.get("options")
    if options is not None:
        unknown = set(_typed("options", options, dict)) - set(_OPTION_TYPES)
        if unknown:
            raise ValueError(f"unknown spec options {sorted(unknown)}")
        options = FlowOptions(**{
            name: _typed(f"options.{name}", value, _OPTION_TYPES[name])
            for name, value in options.items()})
    cm_depths = data.get("cm_depths")
    if cm_depths is not None:
        cm_depths = tuple(_typed("cm_depths", depth, int, least=1)
                          for depth in _typed("cm_depths", cm_depths, list))
    else:
        _named("config", config.upper(), CGRA_CONFIGS)
    rows, cols = data.get("rows"), data.get("cols")
    return PointSpec(
        kernel, config, variant, options=options,
        seed=_typed("seed", data["seed"], int, least=0),
        cm_depths=cm_depths,
        rows=rows if rows is None else _typed("rows", rows, int, least=1),
        cols=cols if cols is None else _typed("cols", cols, int, least=1),
        backend=_typed("backend", data.get("backend", DEFAULT_BACKEND),
                       str),
    ).resolve()


def sweep_json_payload(result, shard=None, positions=None,
                       spec_total=None, fingerprint=None):
    """Machine-readable payload for one sweep (whole or one shard).

    ``positions`` maps each point to its index in the *full* spec
    list (default: the identity — an unsharded sweep); ``spec_total``
    is the full list's length.  ``shard`` is ``(index, total)`` or
    None.  ``fingerprint`` is the full sweep's
    :func:`sweep_fingerprint`; shard producers must pass it (they
    only hold a slice), unsharded payloads default to their own.
    """
    if positions is None:
        positions = list(range(len(result.specs)))
    if spec_total is None:
        spec_total = len(result.specs)
    if len(positions) != len(result.specs):
        raise ReproError(
            f"{len(positions)} positions for {len(result.specs)} specs")
    if fingerprint is None:
        if spec_total != len(result.specs):
            raise ReproError(
                "a shard payload needs the full sweep's fingerprint")
        fingerprint = sweep_fingerprint(result.specs)
    return {
        "schema": SWEEP_JSON_SCHEMA,
        "shard": ({"index": shard[0], "total": shard[1]}
                  if shard is not None else None),
        "spec_total": spec_total,
        "fingerprint": fingerprint,
        "summary": {
            "points": len(result.points),
            "mapped": len(result.mapped),
            "unmapped": len(result.unmapped),
            "crashed": len(result.crashed),
            "cache_hits": result.cache_hits,
            "computed": result.computed,
            "elapsed_seconds": result.elapsed_seconds,
        },
        "points": [
            {"pos": pos, "spec": spec_to_json(spec),
             "point": point_to_json(point)}
            for pos, spec, point in zip(positions, result.specs,
                                        result.points)
        ],
    }


def sweep_result_from_payload(payload):
    """Rebuild one payload's (possibly partial) :class:`SweepResult`.

    No completeness validation — rendering a single shard's table or
    a remote job's result is legitimate on its own.  *Combining*
    payloads still goes through :func:`merge_sweep_payloads`, which
    does validate.
    """
    specs = []
    points = []
    for record in _field(payload, "points", "payload"):
        try:
            specs.append(spec_from_json(
                _field(record, "spec", "point record")))
            points.append(point_from_json(
                _field(record, "point", "point record")))
        except (KeyError, TypeError, ValueError) as error:
            raise ReproError(
                f"malformed sweep payload record: {error}") from None
    summary = _field(payload, "summary", "payload")
    return SweepResult(
        specs=specs, points=points,
        cache_hits=_field(summary, "cache_hits", "summary"),
        computed=_field(summary, "computed", "summary"),
        elapsed_seconds=_field(summary, "elapsed_seconds", "summary"))


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def _field(mapping, key, context):
    """Indexing with a diagnosis: malformed payloads are user input
    (hand-edited, truncated, or simply the wrong file), so a missing
    field must be a one-line :class:`ReproError`, not a traceback."""
    try:
        return mapping[key]
    except (KeyError, TypeError, IndexError):
        raise ReproError(
            f"malformed sweep payload: no {key!r} in {context}"
        ) from None


def _first_missing(present, total, limit=8):
    """First ``limit`` integers in ``[0, total)`` absent from
    ``present`` — by gap-scanning the (small) present set, never by
    materialising ``range(total)``: ``total`` comes from an
    untrusted payload, and a corrupt trillion-value total must still
    produce a prompt diagnostic rather than an out-of-memory hang.
    """
    missing = []
    expect = 0
    for value in sorted(present):
        if not 0 <= value < total:
            continue
        while expect < value and len(missing) < limit:
            missing.append(expect)
            expect += 1
        if len(missing) >= limit:
            return missing
        expect = value + 1
    while expect < total and len(missing) < limit:
        missing.append(expect)
        expect += 1
    return missing


def _payload_labels(payloads, sources):
    """Human-readable origin of each payload, for diagnostics.

    ``sources`` (file paths, server URLs) is optional: a bad merge
    must name the offending *shard file* when there is one, because
    "position 17 is duplicated" is useless across forty files while
    "… in shard-3.json" is actionable.
    """
    if sources is None:
        return [f"payload {i + 1}" for i in range(len(payloads))]
    sources = [str(source) for source in sources]
    if len(sources) != len(payloads):
        raise ReproError(
            f"{len(sources)} source labels for {len(payloads)} "
            f"payloads")
    return [f"payload {i + 1} ({source})"
            for i, source in enumerate(sources)]


def payload_shard_index(payload):
    """The shard index one payload declares, or ``None`` if unsharded.

    Tolerant of ``None``/malformed payloads (returns ``None``): the
    fault-tolerant dispatcher calls this on whatever a possibly-dead
    server managed to hand over before it went away.
    """
    if not isinstance(payload, dict):
        return None
    shard = payload.get("shard")
    if not isinstance(shard, dict):
        return None
    index = shard.get("index")
    if isinstance(index, int) and not isinstance(index, bool):
        return index
    return None


def missing_shard_indices(payloads, total):
    """Shard indices of ``total`` not covered by ``payloads``.

    The dispatch-side half of the merge-completeness contract: given
    the payloads collected so far (``None`` and malformed entries
    count as absent), return the sorted shard indices that still need
    computing — what a fault-tolerant dispatcher resubmits to the
    surviving servers.  An *unsharded* payload covers the whole
    sweep, so its presence means nothing is missing.
    """
    present = set()
    for payload in payloads:
        index = payload_shard_index(payload)
        if index is not None:
            present.add(index)
        elif isinstance(payload, dict) and payload.get("shard") is None \
                and payload.get("points") is not None:
            return []
    return [index for index in range(total) if index not in present]


def merge_sweep_payloads(payloads, sources=None):
    """Combine shard payloads back into one :class:`SweepResult`.

    Validates schema compatibility, consistent shard totals and
    ``spec_total``, no duplicated shard index, and — decisively —
    that the union of the shards covers every position of the full
    spec list exactly once.  Counters are combined run-style:
    ``cache_hits``/``computed`` sum, ``elapsed_seconds`` is the max
    (shards run concurrently).  ``sources`` optionally labels each
    payload (file path, server URL); every diagnostic then names the
    offending shard indices *and* where they came from.
    """
    if not payloads:
        raise ReproError("no sweep payloads to merge")
    labels = _payload_labels(payloads, sources)
    records = {}
    record_sources = {}
    spec_total = None
    spec_total_source = None
    shard_totals = {}
    seen_shards = {}
    fingerprints = {}
    cache_hits = computed = 0
    elapsed = 0.0
    for label, payload in zip(labels, payloads):
        if not isinstance(payload, dict):
            raise ReproError(
                f"malformed sweep payload: {label} is not a JSON "
                f"object (is this really a sweep/figure --json "
                f"file?)")
        schema = payload.get("schema")
        if schema != SWEEP_JSON_SCHEMA:
            raise ReproError(
                f"cannot merge {label} with schema {schema!r} "
                f"(expected {SWEEP_JSON_SCHEMA})")
        payload_total = _field(payload, "spec_total", label)
        if not isinstance(payload_total, int) \
                or isinstance(payload_total, bool):
            raise ReproError(
                f"malformed sweep payload: spec_total of {label} is "
                f"{payload_total!r}, expected an integer")
        if spec_total is None:
            spec_total, spec_total_source = payload_total, label
        elif payload_total != spec_total:
            raise ReproError(
                f"shards disagree on the sweep size: {spec_total} "
                f"({spec_total_source}) vs {payload_total} ({label})")
        fingerprint = _field(payload, "fingerprint", label)
        if not isinstance(fingerprint, str):
            raise ReproError(
                f"malformed sweep payload: fingerprint of {label} "
                f"is {fingerprint!r}, expected a string")
        fingerprints.setdefault(fingerprint, label)
        if len(fingerprints) > 1:
            listing = ", ".join(
                f"{value[:12]}… from {origin}"
                for value, origin in fingerprints.items())
            raise ReproError(
                f"shards come from different sweeps (fingerprints "
                f"disagree: {listing}) — same axes, seed and package "
                f"version are required to merge")
        shard = payload.get("shard")
        if shard is not None:
            index = _field(shard, "index", f"shard of {label}")
            total = _field(shard, "total", f"shard of {label}")
            if not all(isinstance(v, int) and not isinstance(v, bool)
                       for v in (index, total)):
                raise ReproError(
                    f"malformed sweep payload: shard index/total of "
                    f"{label} must be integers")
            shard_totals.setdefault(total, label)
            if index in seen_shards:
                raise ReproError(
                    f"shard {index} appears more than once "
                    f"({seen_shards[index]} and {label})")
            seen_shards[index] = label
        summary = _field(payload, "summary", label)
        hits = _field(summary, "cache_hits", f"summary of {label}")
        ran = _field(summary, "computed", f"summary of {label}")
        took = _field(summary, "elapsed_seconds",
                      f"summary of {label}")
        if not all(isinstance(v, (int, float))
                   and not isinstance(v, bool)
                   for v in (hits, ran, took)):
            raise ReproError(
                f"malformed sweep payload: summary counters of "
                f"{label} must be numbers")
        cache_hits += hits
        computed += ran
        elapsed = max(elapsed, took)
        for record in _field(payload, "points", label):
            pos = _field(record, "pos", f"point record of {label}")
            if not isinstance(pos, int) or isinstance(pos, bool) \
                    or not 0 <= pos < spec_total:
                raise ReproError(
                    f"point position {pos} of {label} outside sweep "
                    f"of {spec_total}")
            if pos in records:
                raise ReproError(
                    f"position {pos} appears in more than one shard "
                    f"({record_sources[pos]} and {label})")
            records[pos] = record
            record_sources[pos] = label
    if len(shard_totals) > 1:
        listing = ", ".join(f"{total} ({origin})"
                            for total, origin
                            in sorted(shard_totals.items()))
        raise ReproError(
            f"shards disagree on the shard count: {listing}")
    if len(records) != spec_total:
        missing = _first_missing(records, spec_total)
        detail = ""
        if len(shard_totals) == 1:
            declared_total = next(iter(shard_totals))
            absent = _first_missing(seen_shards, declared_total)
            if absent:
                have = ", ".join(
                    f"{index} from {seen_shards[index]}"
                    for index in sorted(seen_shards))
                detail = (f"; missing shard indices {absent} of "
                          f"{declared_total} (have {have})")
        raise ReproError(
            f"merged shards cover {len(records)}/{spec_total} points"
            f"{detail}; first missing positions: {missing}")
    specs = []
    points = []
    for pos in range(spec_total):
        record = records[pos]
        context = f"point record of {record_sources[pos]}"
        try:
            specs.append(spec_from_json(
                _field(record, "spec", context)))
            points.append(point_from_json(
                _field(record, "point", context)))
        except (KeyError, TypeError, ValueError) as error:
            raise ReproError(
                f"malformed sweep payload at position {pos} "
                f"({record_sources[pos]}): {error}") from None
    declared = next(iter(fingerprints))
    if sweep_fingerprint(specs) != declared:
        raise ReproError(
            "merged specs do not match the sweep the shards declare "
            "(corrupted payload, or a different package version)")
    return SweepResult(specs=specs, points=points, cache_hits=cache_hits,
                       computed=computed, elapsed_seconds=elapsed)


def load_sweep_payload(path):
    """Read one sweep JSON file (as written by ``repro sweep --json``)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        raise ReproError(f"cannot read sweep payload {path}: "
                         f"{error}") from None


def merge_sweep_files(paths):
    """Merge shard JSON files into one :class:`SweepResult`.

    File paths become the payload source labels, so every merge
    diagnostic — duplicate shard, foreign fingerprint, bad record —
    names the offending file, not just an index into the argument
    list.
    """
    return merge_sweep_payloads(
        [load_sweep_payload(path) for path in paths],
        sources=[str(path) for path in paths])
