"""Unit tests for the MOV-chain routing search."""

import pytest

from repro.arch.configs import get_config
from repro.errors import MappingError
from repro.mapping.routing import (
    commit_route,
    route_to_operand,
    route_to_rf,
)
from repro.mapping.state import CommittedState, PartialMapping


@pytest.fixture
def cgra():
    return get_config("HOM64")


def fresh(cgra, length=10):
    return PartialMapping(cgra, CommittedState(cgra), length)


class TestZeroCostRoutes:
    def test_same_tile_rf(self, cgra):
        pm = fresh(cgra)
        pm.record_production(1, tile=0, cycle=2)
        route = route_to_operand(pm, 1, tile=0, cycle=4)
        assert route is not None
        assert route.cost == 0

    def test_neighbor_port_next_cycle(self, cgra):
        pm = fresh(cgra)
        pm.record_production(1, tile=0, cycle=2)
        neighbor = cgra.neighbors(0)[0]
        route = route_to_operand(pm, 1, tile=neighbor, cycle=3)
        assert route is not None
        assert route.cost == 0

    def test_rf_landing_already_there(self, cgra):
        pm = fresh(cgra)
        pm.record_production(1, tile=0, cycle=2)
        route = route_to_rf(pm, 1, tile=0, deadline=9)
        assert route.cost == 0


class TestMovRoutes:
    def test_neighbor_later_needs_one_mov(self, cgra):
        # Value lands on tile 0 at cycle 2; a neighbour wants it at
        # cycle 5: tile 0 must re-emit (1 MOV).
        pm = fresh(cgra)
        pm.record_production(1, tile=0, cycle=2)
        neighbor = cgra.neighbors(0)[0]
        route = route_to_operand(pm, 1, tile=neighbor, cycle=5)
        assert route is not None
        assert route.cost == 1
        assert route.movs[0][0] == 0  # the re-emit happens on tile 0

    def test_two_hop_route(self, cgra):
        # Tile 0 -> tile 5 (distance 2 on the torus) consumed at the
        # earliest possible cycle: one intermediate MOV.
        pm = fresh(cgra)
        pm.record_production(1, tile=0, cycle=0)
        assert cgra.distance(0, 5) == 2
        route = route_to_operand(pm, 1, tile=5, cycle=2)
        assert route is not None
        assert route.cost == 1

    def test_route_commits_slots_and_events(self, cgra):
        pm = fresh(cgra)
        pm.record_production(1, tile=0, cycle=0)
        route = route_to_operand(pm, 1, tile=5, cycle=2)
        commit_route(pm, 1, route)
        assert pm.n_movs == 1
        tile, cycle = route.movs[0]
        assert not pm.slot_free(tile, cycle)
        assert route_to_operand(pm, 1, tile=5, cycle=2).movs == []

    def test_commit_onto_a_taken_slot_raises(self, cgra):
        # A route is committed without a second search, so a MOV slot
        # taken since the route was found must fail loudly.
        pm = fresh(cgra)
        pm.record_production(1, tile=0, cycle=0)
        route = route_to_operand(pm, 1, tile=5, cycle=2)
        tile, cycle = route.movs[0]
        pm.place_op(2, tile, cycle)
        with pytest.raises(MappingError):
            commit_route(pm, 1, route)

    def test_distant_tile_distance_hops(self, cgra):
        # Tile 0 to tile 10 is the torus diameter region.
        pm = fresh(cgra, length=12)
        pm.record_production(1, tile=0, cycle=0)
        distance = cgra.distance(0, 10)
        route = route_to_operand(pm, 1, tile=10, cycle=distance)
        assert route is not None
        assert route.cost == distance - 1

    def test_shared_prefix_reuse(self, cgra):
        # Routing lands the value in the hop tile's RF; a second
        # consumer *on that tile* later costs nothing extra.
        pm = fresh(cgra)
        pm.record_production(1, tile=0, cycle=0)
        first = route_to_operand(pm, 1, tile=5, cycle=2)
        commit_route(pm, 1, first)
        hop_tile = first.movs[0][0]
        second = route_to_operand(pm, 1, tile=hop_tile, cycle=4)
        assert second.cost == 0

    def test_port_read_does_not_land_in_rf(self, cgra):
        # A consumer reading a port does not capture the value: a
        # later consumer on the same tile needs a fresh re-emit.
        pm = fresh(cgra)
        pm.record_production(1, tile=0, cycle=0)
        first = route_to_operand(pm, 1, tile=5, cycle=2)
        commit_route(pm, 1, first)
        second = route_to_operand(pm, 1, tile=5, cycle=4)
        assert second is not None
        assert second.cost == 1


class TestRouteFailures:
    def test_impossible_deadline(self, cgra):
        pm = fresh(cgra)
        pm.record_production(1, tile=0, cycle=0)
        # Distance-2 tile at cycle 1: port forwarding reaches only
        # neighbours; no MOV chain fits.
        assert route_to_operand(pm, 1, tile=5, cycle=1) is None

    def test_blocked_slots_fail_route(self, cgra):
        pm = fresh(cgra)
        pm.record_production(1, tile=0, cycle=0)
        # Occupy every tile at every cycle up to the deadline so no
        # MOV can be inserted anywhere.
        for tile in range(cgra.n_tiles):
            for cycle in range(3):
                if pm.slot_free(tile, cycle):
                    pm.occupy(tile, cycle, ("op", 1000 + tile * 10 + cycle))
        assert route_to_operand(pm, 1, tile=5, cycle=3) is None

    def test_blacklist_blocks_routing(self, cgra):
        pm = fresh(cgra)
        pm.record_production(1, tile=0, cycle=0)
        # Blacklist every tile: no MOV may be inserted anywhere.
        blacklist = frozenset(range(cgra.n_tiles))
        assert route_to_operand(pm, 1, tile=5, cycle=4,
                                blacklist=blacklist) is None

    def test_max_movs_cap(self, cgra):
        pm = fresh(cgra, length=20)
        pm.record_production(1, tile=0, cycle=0)
        # A long delay to a far tile with max_movs=1 cannot work.
        assert route_to_operand(pm, 1, tile=10, cycle=12,
                                max_movs=1) is None

    def test_unknown_value_has_no_route(self, cgra):
        pm = fresh(cgra)
        assert route_to_operand(pm, 99, tile=0, cycle=3) is None


class TestRfLanding:
    def test_landing_by_deadline(self, cgra):
        pm = fresh(cgra, length=10)
        pm.record_production(1, tile=0, cycle=0)
        route = route_to_rf(pm, 1, tile=1, deadline=10)
        assert route is not None
        assert route.cost >= 1
        commit_route(pm, 1, route)
        landed = pm.rf_cycle(1, 1)
        assert landed is not None and landed <= 10

    def test_landing_too_tight(self, cgra):
        pm = fresh(cgra, length=10)
        pm.record_production(1, tile=0, cycle=9)
        # Produced at cycle 9 -> port at 10; landing into a distance-2
        # tile's RF by cycle 10 is impossible.
        assert route_to_rf(pm, 1, tile=5, deadline=10) is None
