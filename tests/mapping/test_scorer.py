"""The binder's scorer agrees with ``try_bind``; the memo with a search.

``score_bind`` predicts, without cloning, what ``try_bind`` would
build for a placement: None exactly where the build fails, else the
``cost()`` and ``fits_approx()`` the pruning stages read.  The flow
prunes on those predictions and builds only the survivors, so any
disagreement would silently change a mapping.  These tests map real
kernels with every scored placement also built and compared, and with
every route-memo hit also re-searched from scratch.
"""

import pytest

from repro.arch.configs import get_config
from repro.dse.space import Design
from repro.kernels import get_kernel
from repro.mapping import binder, routing
from repro.mapping.flow import VARIANTS, FlowOptions, map_kernel


class ScorerCheck:
    """Wraps ``score_bind``, ``route_to_operand`` and ``SlotView`` to
    compare every score with a real build and count what the run
    exercised."""

    def __init__(self, monkeypatch):
        self.counts = dict.fromkeys(
            ("scored", "failed", "blacklisted", "acmap_rejected",
             "retried_without_blacklist", "slot_views"), 0)
        self._last_query = None
        score_bind = binder.score_bind
        route_to_operand = routing.route_to_operand

        def checked_score(ctx, pm, op, tile, cycle):
            scored = score_bind(ctx, pm, op, tile, cycle)
            built = binder.try_bind(ctx, pm, op, tile, cycle)
            assert (scored is None) == (built is None), (op.uid, tile, cycle)
            self.counts["scored"] += 1
            self.counts["blacklisted"] += bool(ctx.cab and pm.blacklist)
            if built is None:
                self.counts["failed"] += 1
            else:
                assert scored.cost() == built.cost()
                assert scored.fits_approx() == built.fits_approx()
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


_CASES = [
    pytest.param(kernel, config, variant,
                 marks=[pytest.mark.slow] if kernel == "fft" else [],
                 id=f"{kernel}@{config}/{variant}")
    for kernel in ("dc_filter", "fir", "fft")
    for config in ("HOM32", "HET2")
    for variant in ("basic", "full")
]


@pytest.mark.parametrize("kernel,config,variant", _CASES)
def test_scorer_agrees_with_try_bind(monkeypatch, kernel, config, variant):
    check = ScorerCheck(monkeypatch)
    map_kernel(get_kernel(kernel).cdfg, get_config(config),
               VARIANTS[variant]())
    assert check.counts["scored"] > check.counts["failed"] > 0


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
    cgra = Design("row8-8-16-16", (8,) * 8 + (16,) * 8).build_cgra()
    map_kernel(get_kernel("fir").cdfg, cgra,
               FlowOptions.aware(max_attempts=10))
    counts = check.counts
    assert counts["blacklisted"] > 0
    assert counts["retried_without_blacklist"] > 0
    assert counts["acmap_rejected"] > 0


@pytest.mark.parametrize("kernel", [
    "dc_filter", pytest.param("fft", marks=pytest.mark.slow)])
def test_memo_hits_equal_fresh_searches(monkeypatch, kernel):
    memoised = routing._memoised
    hits = []

    def checked(search, memo, kind, pm, rf_events, port_events, tile,
                horizon, max_movs, blacklist):
        before = None if memo is None else len(memo)
        route = memoised(search, memo, kind, pm, rf_events, port_events,
                         tile, horizon, max_movs, blacklist)
        keyed = (horizon - routing._earliest(rf_events, port_events,
                                             horizon)
                 >= routing.MEMO_MIN_GAP)
        if memo is not None and keyed and len(memo) == before:
            fresh = search(pm, rf_events, port_events, tile, horizon,
                           max_movs, blacklist)
            assert (None if route is None else route.movs) == \
                (None if fresh is None else fresh.movs)
            hits.append(kind)
        return route

    monkeypatch.setattr(routing, "_memoised", checked)
    map_kernel(get_kernel(kernel).cdfg, get_config("HOM32"),
               VARIANTS["full"]())
    assert len(hits) > 100
