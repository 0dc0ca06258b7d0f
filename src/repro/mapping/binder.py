"""Exact incremental binding (Sec III-B) with CAB awareness.

For each operation handed over by the backward list scheduler, the
binder enumerates *every* tile (and a bounded window of cycles) where
the operation can be legally placed in each live partial mapping:

- memory operations only on load-store tiles;
- the issue slot must be free;
- constants must fit the tile's constant register file;
- symbol-variable operands must be routable from their home register
  file (the *location constraints* — first touch fixes the home);
- the result must be routable to every already-placed consumer;
- memory-ordering successors bound earlier must stay strictly later.

Candidates on CAB-blacklisted tiles are skipped when the flow enables
constraint-aware binding.  The exactness of the per-operation
enumeration (nothing is skipped before the pruning stages) mirrors the
paper's exact sub-graph-match binding.

Binding is split into *score* and *build*, and the score decides.
:func:`score_bind` runs every route query a placement needs against
the parent partial mapping and returns a light :class:`Candidate`
carrying the routes that add MOVs and the ``cost()`` and
``fits_approx()`` the built clone will report.  The pruning stages read
only those two, so they act on candidates, and the flow builds (clones)
only the survivors — about one in ten — by committing the candidate's
routes (:func:`try_bind`), with no second search.  A route found on
the parent is legal on the build because the parent can stand in for
the clone: a placement's operand routes put their MOVs strictly before
its cycle and its result routes strictly after, while a search reads
slots only from its value's earliest event up to its horizon, so the
op's own slot is on none of its routes, and the two kinds of route
never read each other's MOVs.  A second route of the same kind does
read the first one's MOVs, so the scorer hands its searches a
:class:`~repro.mapping.state.SlotView` holding them once there are any.
"""

from __future__ import annotations

from repro.ir import analysis, opcodes
from repro.mapping import routing
from repro.mapping.state import (
    SlotView,
    crf_with,
    port_events_with,
    rf_events_with,
)

#: Cycles per tile a placement scan tries before the full-window rescan.
CYCLE_WINDOW = 8

#: Cycles past the schedule end a symbol may take to land in its home.
FINALIZE_SLACK = 6


class BindContext:
    """Per-block constant data shared by all binding calls."""

    def __init__(self, dfg, cgra, options):
        self.dfg = dfg
        self.cgra = cgra
        self.options = options
        self.asap = analysis.asap_levels(dfg)
        #: op uid -> ops consuming its result (routing targets)
        self.data_consumers = {
            op.uid: dfg.data_successors(op) for op in dfg.ops}
        #: op uid -> ops that must execute strictly later (memory order)
        self.order_successors = {op.uid: [] for op in dfg.ops}
        for op in dfg.ops:
            for earlier in op.order_after:
                self.order_successors[earlier.uid].append(op)
        #: data uid -> symbol name, for the location constraints
        self.symbol_of = {node.uid: symbol for symbol, node
                          in dfg.symbol_inputs.items()}
        #: route-query memo shared by every sibling partial mapping of
        #: this block attempt (see repro.mapping.routing)
        self.route_memo = {}
        #: hot-path copy of the flow option read per candidate
        self.cab = options.cab
        #: op uid -> needs an LSU tile (precomputed opcode class)
        self.is_memory = {op.uid: opcodes.is_memory(op.opcode)
                          for op in dfg.ops}
        #: tile -> torus distance row (list index = other tile)
        self.dist_rows = [cgra.distance_row(tile)
                          for tile in range(cgra.n_tiles)]


def candidate_tiles(ctx, pm, op):
    """Tiles legal for this op under LSU and CAB constraints."""
    tiles = ctx.cgra.candidate_tiles(ctx.is_memory[op.uid])
    if ctx.cab and pm.blacklist:
        tiles = [t for t in tiles if t not in pm.blacklist]
    return tiles


def try_bind(ctx, pm, op, tile, cycle, routes):
    """Build a scored placement: a clone of ``pm`` with ``op`` at
    ``(tile, cycle)`` and ``routes`` — the ``(value uid, Route)`` pairs
    :func:`score_bind` found — committed.

    Nothing is searched and nothing can fail: the scorer checked every
    constant and route on the parent (see the module docstring).  A
    repeated operand repeats idempotent updates.
    """
    built = pm.clone()
    built.place_op(op.uid, tile, cycle)
    for operand in op.operands:
        if operand.is_const:
            built.register_const(tile, operand.value)
        elif operand.is_symbol:
            symbol = ctx.symbol_of[operand.uid]
            home = built.home_of(symbol)
            if home is None:
                # First touch: the location constraint is fixed here.
                built.fix_home(symbol, tile)
                home = tile
            built.add_rf_event(operand.uid, home, 0)
    if op.result is not None:
        built.record_production(op.result.uid, tile, cycle)
    for uid, route in routes:
        routing.commit_route(built, uid, route)
    return built


class Candidate:
    """A scored placement: the routes ``try_bind`` commits, unbuilt."""

    __slots__ = ("ctx", "pm", "op", "tile", "cycle", "routes", "_cost",
                 "_fits")

    def __init__(self, ctx, pm, op, tile, cycle, routes, cost, fits):
        self.ctx = ctx
        self.pm = pm
        self.op = op
        self.tile = tile
        self.cycle = cycle
        self.routes = routes
        self._cost = cost
        self._fits = fits

    def cost(self):
        """The built mapping's ``cost()``."""
        return self._cost

    def fits_approx(self):
        """The built mapping's ``fits_approx()`` (the ACMAP verdict)."""
        return self._fits

    def build(self):
        """The partial mapping itself (a clone of the parent)."""
        return try_bind(self.ctx, self.pm, self.op, self.tile, self.cycle,
                        self.routes)


def score_bind(ctx, pm, op, tile, cycle):
    """Decide and score placing ``op`` at ``(tile, cycle)`` in ``pm``,
    without cloning.

    Runs every route query the placement needs (through
    ``routing.route_to_operand``, against ``pm`` or a
    :class:`~repro.mapping.state.SlotView` of it) and returns None if a
    constant does not fit or a value cannot be routed, else a
    :class:`Candidate` holding each route that adds MOVs — operand
    routes in operand order, then result routes in consumer order —
    and the ``cost()`` and ``fits_approx()`` of the mapping
    :func:`try_bind` builds from them.
    """
    blacklist = pm.blacklist if ctx.cab else frozenset()
    max_movs = routing.MAX_ROUTE_MOVS
    memo = ctx.route_memo
    # (value uid, Route) for every route that adds MOVs; a tuple, so
    # the many candidates without one allocate nothing for it
    routes = ()
    movs = []  # their MOVs, in commit order
    # What the searches read: the parent, until a route follows one of
    # its own kind that added MOVs (see the module docstring).
    view = pm
    operands = op.operands
    seen_operands = set() if len(operands) > 1 else None
    crf = pm.const_tiles[tile]
    for operand in operands:
        if seen_operands is not None:
            if operand.uid in seen_operands:
                continue
            seen_operands.add(operand.uid)
        if operand.is_const:
            crf = crf_with(crf, operand.value,
                           ctx.cgra.tile(tile).crf_words)
            if crf is None:
                return None
        elif operand.is_symbol:
            home = pm.home_of(ctx.symbol_of[operand.uid])
            if home is None:
                home = tile
            events = (rf_events_with(pm.rf_avail.get(operand.uid, ()),
                                     home, 0),
                      pm.port_events.get(operand.uid, ()))
            if movs and view is pm:
                view = SlotView(pm, movs)
            route = routing.route_to_operand(
                view, operand.uid, tile, cycle, max_movs, blacklist, memo,
                events)
            if route is None and blacklist:
                # Reading a symbol requires touching its home tile even
                # if CAB blacklisted it — the location constraint wins;
                # ECMAP arbitrates whether the result still fits.
                route = routing.route_to_operand(
                    view, operand.uid, tile, cycle, max_movs,
                    memo=memo, events=events)
            if route is None:
                return None
            if route.movs:
                routes += ((operand.uid, route),)
                movs += route.movs
                if view is not pm:
                    view.add(route.movs)
        # Op-result operands: their producers bind later (backward
        # order) and will route toward this placement.
    if op.result is not None:
        uid = op.result.uid
        rf_events = rf_events_with(pm.rf_avail.get(uid, ()), tile, cycle + 1)
        port_events = port_events_with(pm.port_events.get(uid, ()), tile,
                                       cycle + 1)
        operand_movs = len(movs)
        placements_get = pm.placements.get
        for consumer in ctx.data_consumers[op.uid]:
            placement = placements_get(consumer.uid)
            if placement is None:
                continue
            if len(movs) > operand_movs and view is pm:
                view = SlotView(pm, movs)
            route = routing.route_to_operand(
                view, uid, placement[0], placement[1], max_movs, blacklist,
                memo, (rf_events, port_events))
            if route is None:
                return None
            if route.movs:
                routes += ((uid, route),)
                movs += route.movs
                if view is not pm:
                    view.add(route.movs)
                for mov_tile, mov_cycle in route.movs:
                    rf_events = rf_events_with(rf_events, mov_tile,
                                               mov_cycle + 1)
                    port_events = port_events_with(port_events, mov_tile,
                                                   mov_cycle + 1)
    return Candidate(ctx, pm, op, tile, cycle, routes,
                     *pm.score_with(tile, cycle, movs))


def _least_used_tile(pm, blacklist):
    """Tile with the fewest context words (for fresh symbol homes)."""
    cgra = pm.cgra
    best_tile = None
    best_key = None
    for tile in range(cgra.n_tiles):
        if tile in blacklist:
            continue
        key = (pm.tile_context_words(tile), tile)
        if best_key is None or key < best_key:
            best_key = key
            best_tile = tile
    return best_tile


def _first_free_cycle(pm, tile):
    """Earliest free issue slot on a tile (may extend the schedule)."""
    for cycle in range(pm.length):
        if pm.slot_free(tile, cycle):
            return cycle
    return pm.length


def _route_home(ctx, candidate, uid, target, blacklist):
    """Route a symbol value into its home RF.

    The schedule end is congested (backward scheduling anchors sinks
    there), so the landing deadline extends a few cycles past the
    block's last operation — the schedule grows as needed.  CAB's
    blacklist is advisory, the location constraint is not: if no route
    avoids the blacklisted tiles, retry without the blacklist and let
    ECMAP arbitrate whether the result still fits.
    """
    deadline = candidate.length + FINALIZE_SLACK
    route = routing.route_to_rf(
        candidate, uid, target, deadline,
        routing.MAX_ROUTE_MOVS, blacklist, ctx.route_memo)
    if route is None and blacklist:
        route = routing.route_to_rf(
            candidate, uid, target, deadline,
            routing.MAX_ROUTE_MOVS, memo=ctx.route_memo)
    return route


def finalize_symbols(ctx, pm):
    """Discharge the block's symbol-output location constraints.

    Every symbol written by the block must end up in its home tile's
    register file by the end of the schedule; unhomed symbols get
    homed here.  Returns the finalized clone, or None if a constraint
    cannot be met (the partial mapping dies).
    """
    blacklist = pm.blacklist if ctx.options.cab else frozenset()
    candidate = pm.clone()
    for symbol, node in ctx.dfg.symbol_outputs.items():
        if node.is_symbol:
            if not _finalize_passthrough(ctx, candidate, symbol, node,
                                         blacklist):
                return None
        elif node.is_const:
            if not _finalize_const(ctx, candidate, symbol, node, blacklist):
                return None
        else:
            if not _finalize_value(ctx, candidate, symbol, node, blacklist):
                return None
    if not _rf_pressure_ok(candidate):
        return None
    return candidate


def _finalize_passthrough(ctx, candidate, symbol, node, blacklist):
    """Symbol assigned the entry value of a (possibly other) symbol."""
    source = ctx.symbol_of[node.uid]
    src_home = candidate.home_of(source)
    target = candidate.home_of(symbol)
    if src_home is None and target is None:
        tile = _least_used_tile(candidate, blacklist)
        if tile is None:
            return False
        candidate.fix_home(source, tile)
        if source != symbol:
            candidate.fix_home(symbol, tile)
        candidate.add_rf_event(node.uid, tile, 0)
        return True
    if src_home is None:
        candidate.fix_home(source, target)
        candidate.add_rf_event(node.uid, target, 0)
        return True
    candidate.add_rf_event(node.uid, src_home, 0)
    if target is None:
        candidate.fix_home(symbol, src_home)
        return True
    if target == src_home:
        return True
    route = _route_home(ctx, candidate, node.uid, target, blacklist)
    if route is None:
        return False
    routing.commit_route(candidate, node.uid, route)
    return True


def _finalize_const(ctx, candidate, symbol, node, blacklist):
    """Symbol assigned a constant: one MOV from the CRF at its home."""
    target = candidate.home_of(symbol)
    if target is None:
        target = _least_used_tile(candidate, blacklist)
        if target is None:
            return False
        candidate.fix_home(symbol, target)
    if not candidate.register_const(target, node.value):
        return False
    cycle = _first_free_cycle(candidate, target)
    candidate.add_mov(target, cycle, node.uid)
    candidate.record_production(node.uid, target, cycle)
    return True


def _finalize_value(ctx, candidate, symbol, node, blacklist):
    """Symbol assigned an op result: route it home (or home it here)."""
    placement = candidate.placements.get(node.producer.uid)
    if placement is None:
        return False
    target = candidate.home_of(symbol)
    if target is None:
        candidate.fix_home(symbol, placement[0])
        return True
    route = _route_home(ctx, candidate, node.uid, target, blacklist)
    if route is None:
        return False
    routing.commit_route(candidate, node.uid, route)
    return True


def _rf_pressure_ok(candidate):
    """Every tile's live values must fit its regular register file."""
    per_tile = [0] * candidate.cgra.n_tiles
    for events in candidate.rf_avail.values():
        for tile, _ in events:
            per_tile[tile] += 1
    return all(per_tile[t] <= candidate.cgra.tile(t).rrf_words
               for t in range(candidate.cgra.n_tiles))


def bind_candidates(ctx, pm, op, full_window=False):
    """Scored extensions of ``pm`` placing ``op`` (one cycle per tile).

    Cycles are scanned latest-first within :data:`CYCLE_WINDOW` so
    schedules stay tight, and each tile keeps its first placement that
    scores; the earliest legal cycle is the op's ASAP level (its
    dependence depth needs that many earlier cycles).  ``full_window``
    widens the scan to the whole legal range — the flow's fallback
    before declaring a binding failure.  Returns :class:`Candidate`
    objects; ``Candidate.build`` makes the partial mapping.
    """
    results = []
    earliest = ctx.asap[op.uid]
    # The consumer/successor placements bounding the cycle scan are
    # per-(pm, op): look them up once, not once per tile.
    placements_get = pm.placements.get
    consumer_places = [p for consumer in ctx.data_consumers[op.uid]
                       if (p := placements_get(consumer.uid)) is not None]
    order_bound = pm.length - 1
    for successor in ctx.order_successors[op.uid]:
        placement = placements_get(successor.uid)
        if placement is not None and placement[1] - 1 < order_bound:
            order_bound = placement[1] - 1
    dist_rows = ctx.dist_rows
    for tile in candidate_tiles(ctx, pm, op):
        row = dist_rows[tile]
        latest = order_bound
        for c_tile, c_cycle in consumer_places:
            distance = row[c_tile]
            bound = c_cycle - (distance if distance > 1 else 1)
            if bound < latest:
                latest = bound
        if latest < earliest:
            continue
        if full_window:
            window_floor = earliest
        else:
            window_floor = max(earliest, latest - CYCLE_WINDOW + 1)
        occupied = pm.tile_cycles[tile]
        for cycle in range(latest, window_floor - 1, -1):
            if cycle in occupied:
                continue
            candidate = score_bind(ctx, pm, op, tile, cycle)
            if candidate is not None:
                results.append(candidate)
                break
    return results
