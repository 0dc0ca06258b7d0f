"""The binder agrees with a reference binder; the memo with a search.

``score_bind`` decides a placement against its parent: None where it
cannot bind, else a candidate carrying the routes that add MOVs and
the ``cost()`` and ``fits_approx()`` the pruning stages read.
``Candidate.build`` (``try_bind``) then commits exactly those routes on
a clone, without searching again, so a route or verdict the parent
gets wrong would silently change a mapping.  These tests map real
kernels with every scored placement also bound by
:func:`reference_bind` — which searches every route on the growing
clone itself, without the memo — and compared field by field, and
with every route-memo hit also re-searched from scratch.
"""

import pytest

from repro.arch.configs import get_config
from repro.dse.space import Design
from repro.kernels import get_kernel
from repro.mapping import binder, routing
from repro.mapping.flow import VARIANTS, FlowOptions, map_kernel


def reference_bind(ctx, pm, op, tile, cycle, route_to_operand):
    """Place ``op`` at ``(tile, cycle)`` in a clone of ``pm`` and route
    each value on the clone as it grows, without the memo.

    Returns the clone and its MOV-bearing ``(value uid, movs)`` routes
    in commit order, or None where the placement cannot bind.
    """
    blacklist = pm.blacklist if ctx.cab else frozenset()
    built = pm.clone()
    built.place_op(op.uid, tile, cycle)
    routes = []

    def route(uid, at_tile, at_cycle, retry_without_blacklist=False):
        found = route_to_operand(built, uid, at_tile, at_cycle,
                                 routing.MAX_ROUTE_MOVS, blacklist)
        if found is None and blacklist and retry_without_blacklist:
            found = route_to_operand(built, uid, at_tile, at_cycle,
                                     routing.MAX_ROUTE_MOVS)
        if found is None:
            return False
        routing.commit_route(built, uid, found)
        if found.movs:
            routes.append((uid, found.movs))
        return True

    seen_operands = set()
    for operand in op.operands:
        if operand.uid in seen_operands:
            continue
        seen_operands.add(operand.uid)
        if operand.is_const:
            if not built.register_const(tile, operand.value):
                return None
        elif operand.is_symbol:
            symbol = ctx.symbol_of[operand.uid]
            home = built.home_of(symbol)
            if home is None:
                built.fix_home(symbol, tile)
                home = tile
            built.add_rf_event(operand.uid, home, 0)
            if not route(operand.uid, tile, cycle,
                         retry_without_blacklist=True):
                return None
    if op.result is not None:
        built.record_production(op.result.uid, tile, cycle)
        for consumer in ctx.data_consumers[op.uid]:
            placement = built.placements.get(consumer.uid)
            if placement is not None and not route(op.result.uid,
                                                   *placement):
                return None
    return built, routes


def state_of(pm):
    """Every field of a partial mapping the flow or a later block reads."""
    return (pm.length, pm.placements, pm.tile_cycles, pm.rf_avail,
            pm.port_events, pm.const_tiles, pm.new_homes, pm.movs,
            pm.cost(), pm.fits_approx(), pm.fits_exact(), pm.block_usage())


class ScorerCheck:
    """Wraps ``score_bind``, ``route_to_operand`` and ``SlotView`` to
    compare every scored placement with :func:`reference_bind` and
    count what the run exercised."""

    def __init__(self, monkeypatch):
        self.counts = dict.fromkeys(
            ("scored", "failed", "routed", "blacklisted", "acmap_rejected",
             "retried_without_blacklist", "slot_views"), 0)
        self._last_query = None
        score_bind = binder.score_bind
        route_to_operand = routing.route_to_operand

        def checked_score(ctx, pm, op, tile, cycle):
            scored = score_bind(ctx, pm, op, tile, cycle)
            reference = reference_bind(ctx, pm, op, tile, cycle,
                                       route_to_operand)
            assert (scored is None) == (reference is None), \
                (op.uid, tile, cycle)
            self.counts["scored"] += 1
            self.counts["blacklisted"] += bool(ctx.cab and pm.blacklist)
            if reference is None:
                self.counts["failed"] += 1
                return scored
            expected, routes = reference
            assert [(uid, route.movs) for uid, route in scored.routes] \
                == routes
            built = scored.build()
            assert state_of(built) == state_of(expected)
            assert scored.cost() == built.cost()
            assert scored.fits_approx() == built.fits_approx()
            self.counts["routed"] += bool(routes)
            self.counts["acmap_rejected"] += (
                ctx.options.acmap and not built.fits_approx())
            return scored

        def recorded_route(pm, value_uid, tile, cycle,
                           max_movs=routing.MAX_ROUTE_MOVS,
                           blacklist=frozenset(), memo=None, events=None):
            query = (id(pm), value_uid, tile, cycle)
            if (self._last_query == (query, True) and not blacklist):
                self.counts["retried_without_blacklist"] += 1
            route = route_to_operand(pm, value_uid, tile, cycle, max_movs,
                                     blacklist, memo, events)
            self._last_query = (query, route is None and bool(blacklist))
            return route

        class CountedSlotView(binder.SlotView):
            __slots__ = ()

            def __init__(view, pm, movs):
                self.counts["slot_views"] += 1
                super().__init__(pm, movs)

        monkeypatch.setattr(binder, "score_bind", checked_score)
        monkeypatch.setattr(routing, "route_to_operand", recorded_route)
        monkeypatch.setattr(binder, "SlotView", CountedSlotView)


#: Shallow context-memory designs, by name: per-tile depths.
_TIGHT_DEPTHS = {
    "row8-8-16-16": (8,) * 8 + (16,) * 8,
    "row8-24-8-16": (8,) * 4 + (24,) * 4 + (8,) * 4 + (16,) * 4,
}


def _tight_design(name="row8-8-16-16"):
    """Shallow context memories and the DSE ladder's attempt budget."""
    return (Design(name, _TIGHT_DEPTHS[name]).build_cgra(),
            FlowOptions.aware(max_attempts=10))


_CASES = [
    pytest.param(kernel, config, variant,
                 marks=[pytest.mark.slow] if kernel == "fft" else [],
                 id=f"{kernel}@{config}/{variant}")
    for kernel in ("dc_filter", "fir", "fft")
    for config in ("HOM32", "HET2")
    for variant in ("basic", "full")
]


@pytest.mark.parametrize("kernel,config,variant", _CASES)
def test_binder_agrees_with_reference(monkeypatch, kernel, config, variant):
    check = ScorerCheck(monkeypatch)
    map_kernel(get_kernel(kernel).cdfg, get_config(config),
               VARIANTS[variant]())
    counts = check.counts
    assert counts["scored"] > counts["failed"] > 0
    assert counts["routed"] > 0


def test_scorer_agrees_where_routes_read_earlier_movs(monkeypatch):
    # dc_filter routes a second result after one that needed MOVs, so
    # the scorer's searches read a SlotView, not the parent.
    check = ScorerCheck(monkeypatch)
    map_kernel(get_kernel("dc_filter").cdfg, get_config("HOM32"),
               VARIANTS["full"]())
    assert check.counts["slot_views"] > 0


def test_scorer_agrees_on_a_tight_design(monkeypatch):
    # Shallow context memories: CAB blacklists tiles, symbol routes
    # retry without the blacklist, and ACMAP rejects placements.
    check = ScorerCheck(monkeypatch)
    map_kernel(get_kernel("fir").cdfg, *_tight_design())
    counts = check.counts
    assert counts["blacklisted"] > 0
    assert counts["retried_without_blacklist"] > 0
    assert counts["acmap_rejected"] > 0


def test_build_issues_no_route_query(monkeypatch):
    # A survivor is built by committing the routes its score found: no
    # route query runs while ``try_bind`` builds it.
    building = []
    counts = {"built": 0, "routes": 0}
    try_bind = binder.try_bind

    def watched_build(ctx, pm, op, tile, cycle, routes):
        counts["built"] += 1
        counts["routes"] += len(routes)
        building.append(op.uid)
        try:
            return try_bind(ctx, pm, op, tile, cycle, routes)
        finally:
            building.pop()

    def refused_while_building(query):
        def guarded(*args, **kwargs):
            assert not building, (query.__name__, building)
            return query(*args, **kwargs)
        return guarded

    monkeypatch.setattr(binder, "try_bind", watched_build)
    for name in ("route_to_operand", "route_to_rf", "_memoised"):
        monkeypatch.setattr(routing, name,
                            refused_while_building(getattr(routing, name)))
    map_kernel(get_kernel("fir").cdfg, *_tight_design())
    assert counts["built"] > 0
    assert counts["routes"] > 0


@pytest.mark.parametrize(
    "kernel,design,blacklisted_keys,blacklisted_hits", [
        pytest.param("dc_filter", "HOM32", 0, 0, id="dc_filter"),
        pytest.param("fft", "HOM32", 0, 0, marks=pytest.mark.slow,
                     id="fft"),
        # CAB blacklists tiles here, so some memo keys carry a
        # blacklist ...
        pytest.param("fir", "row8-8-16-16", 1, 0,
                     id="fir@row8-8-16-16"),
        # ... and here some of those entries are replayed.
        pytest.param("dc_filter", "row8-24-8-16", 1, 1,
                     id="dc_filter@row8-24-8-16"),
    ])
def test_memo_hits_equal_fresh_searches(monkeypatch, kernel, design,
                                        blacklisted_keys,
                                        blacklisted_hits):
    memoised = routing._memoised
    hits = []  # the blacklist of every replayed (re-searched) query
    blacklisted = []  # memo-keyed queries with a non-empty blacklist

    def checked(search, memo, kind, pm, rf_events, port_events, tile,
                horizon, max_movs, blacklist):
        before = None if memo is None else len(memo)
        route = memoised(search, memo, kind, pm, rf_events, port_events,
                         tile, horizon, max_movs, blacklist)
        keyed = (horizon - routing._earliest(rf_events, port_events,
                                             horizon)
                 >= routing.MEMO_MIN_GAP)
        if memo is not None and keyed:
            if blacklist:
                blacklisted.append(kind)
            if len(memo) == before:
                fresh = search(pm, rf_events, port_events, tile, horizon,
                               max_movs, blacklist)
                assert (None if route is None else route.movs) == \
                    (None if fresh is None else fresh.movs)
                hits.append(blacklist)
        return route

    monkeypatch.setattr(routing, "_memoised", checked)
    if design == "HOM32":
        cgra, options = get_config("HOM32"), VARIANTS["full"]()
    else:
        cgra, options = _tight_design(design)
    map_kernel(get_kernel(kernel).cdfg, cgra, options)
    assert len(hits) > 100
    assert len(blacklisted) >= blacklisted_keys
    assert sum(1 for blacklist in hits if blacklist) >= blacklisted_hits
