"""Unit tests for partial-mapping state and PNOP accounting."""

import pytest

from repro.arch.configs import get_config
from repro.errors import MappingError
from repro.mapping.routing import route_to_operand
from repro.mapping.state import (
    CommittedState,
    PartialMapping,
    pnop_blocks,
)


@pytest.fixture
def cgra():
    return get_config("HOM64")


@pytest.fixture
def pm(cgra):
    return PartialMapping(cgra, CommittedState(cgra), length=8)


def readable(pm, value_uid, tile, cycle):
    """Can an instruction on ``tile`` at ``cycle`` read the value as it
    stands?  Exactly then ``route_to_operand`` returns an empty route;
    elsewhere it returns None or a route with MOVs."""
    route = route_to_operand(pm, value_uid, tile, cycle)
    return route is not None and not route.movs


class TestPnopAccounting:
    def test_empty_tile_costs_nothing(self):
        assert pnop_blocks([]) == 0

    def test_dense_prefix_costs_nothing(self):
        assert pnop_blocks([0, 1, 2]) == 0

    def test_leading_gap_costs_one(self):
        assert pnop_blocks([3]) == 1

    def test_interior_gap_costs_one(self):
        assert pnop_blocks([0, 4]) == 1

    def test_multiple_gaps(self):
        assert pnop_blocks([1, 3, 7]) == 3

    def test_trailing_idle_free(self):
        # Cycles after the last instruction need no pnop.
        assert pnop_blocks([0, 1]) == pnop_blocks([0, 1])


class TestSlots:
    def test_occupy_and_slot_free(self, pm):
        assert pm.slot_free(0, 0)
        pm.occupy(0, 0, ("op", 1))
        assert not pm.slot_free(0, 0)

    def test_double_occupy_rejected(self, pm):
        pm.occupy(0, 0, ("op", 1))
        with pytest.raises(MappingError):
            pm.occupy(0, 0, ("op", 2))

    def test_negative_cycle_rejected(self, pm):
        with pytest.raises(MappingError):
            pm.occupy(0, -1, ("op", 1))

    def test_occupy_extends_length(self, pm):
        pm.occupy(0, 20, ("op", 1))
        assert pm.length == 21

    def test_place_op_records_placement(self, pm):
        pm.place_op(5, tile=2, cycle=3)
        assert pm.placements[5] == (2, 3)

    def test_add_mov_counts(self, pm):
        pm.add_mov(1, 2, value_uid=9)
        assert pm.n_movs == 1
        assert pm.movs == [(1, 2, 9)]


class TestEvents:
    def test_production_events(self, pm):
        pm.record_production(7, tile=3, cycle=4)
        assert pm.rf_cycle(7, 3) == 5
        assert (3, 5) in pm.port_events[7]

    def test_rf_event_keeps_earliest(self, pm):
        pm.add_rf_event(7, 0, 5)
        pm.add_rf_event(7, 0, 3)
        pm.add_rf_event(7, 0, 9)
        assert pm.rf_cycle(7, 0) == 3

    def test_readable_from_rf(self, pm):
        pm.add_rf_event(7, 0, 2)
        assert not readable(pm, 7, 0, 1)
        assert readable(pm, 7, 0, 2)

    def test_readable_from_neighbor_port(self, pm, cgra):
        pm.add_port_event(7, tile=0, cycle=3)
        neighbor = cgra.neighbors(0)[0]
        assert readable(pm, 7, neighbor, 3)
        assert not readable(pm, 7, neighbor, 4)

    def test_port_not_readable_from_distance(self, pm):
        pm.add_port_event(7, tile=0, cycle=3)
        # Tile 10 is not a neighbour of 0 on the 4x4 torus.
        assert not readable(pm, 7, 10, 3)


class TestClone:
    def test_clone_is_independent(self, pm):
        pm.place_op(1, 0, 0)
        pm.add_rf_event(5, 0, 1)
        clone = pm.clone()
        clone.place_op(2, 1, 1)
        clone.add_rf_event(5, 1, 2)
        assert 2 not in pm.placements
        assert pm.rf_cycle(5, 1) is None
        assert clone.rf_cycle(5, 0) == 1

    def test_clone_preserves_cost_inputs(self, pm):
        pm.add_mov(0, 1, 5)
        clone = pm.clone()
        assert clone.n_movs == 1
        assert clone.cost() == pm.cost()


class TestWindowKey:
    def test_slot_outside_the_window_leaves_the_key(self, pm):
        pm.place_op(1, 0, 3)
        before = pm.window_key(2, 6)
        pm.occupy(0, 1, ("mov", 9))
        pm.occupy(0, 6, ("mov", 9))
        pm.occupy(5, 7, ("mov", 9))
        assert pm.window_key(2, 6) == before

    def test_slot_inside_the_window_changes_the_key(self, pm):
        pm.place_op(1, 0, 3)
        before = pm.window_key(2, 6)
        pm.occupy(5, 2, ("mov", 9))
        assert pm.window_key(2, 6) != before
        again = pm.window_key(2, 6)
        pm.occupy(0, 5, ("mov", 9))
        assert pm.window_key(2, 6) != again

    def test_compress_shifts_the_window(self, pm):
        pm.place_op(1, 0, 2)
        pm.place_op(2, 3, 5)
        pm.add_mov(7, 4, 9)
        before = pm.window_key(2, 7)
        pm.compress()
        assert pm.window_key(0, 5) == before
        assert pm.window_key(2, 7) != before


class TestConstants:
    def test_register_const(self, pm):
        assert pm.register_const(0, 42)
        assert pm.register_const(0, 42)  # idempotent
        assert 42 in pm.const_tiles[0]

    def test_crf_capacity_enforced(self, cgra):
        pm = PartialMapping(cgra, CommittedState(cgra), 4)
        capacity = cgra.tile(0).crf_words
        for value in range(capacity):
            assert pm.register_const(0, value)
        assert not pm.register_const(0, capacity + 1)


class TestCompress:
    def test_compress_shifts_everything_by_the_lead(self, pm):
        pm.place_op(1, 0, 3)
        pm.record_production(9, 0, 3)
        pm.add_mov(1, 4, 9)
        pm.record_production(9, 1, 4)
        pm.compress()
        assert pm.placements[1] == (0, 0)
        assert pm.rf_avail[9] == ((0, 1), (1, 2))
        assert pm.port_events[9] == ((0, 1), (1, 2))
        assert pm.movs == [(1, 1, 9)]
        assert pm.tile_cycles[1] == {1: ("mov", 9)}

    def test_compress_keeps_block_entry_events(self, pm):
        pm.add_rf_event(3, 0, 0)  # symbol at home since block entry
        pm.place_op(1, 0, 3)
        pm.compress()
        assert pm.placements[1] == (0, 0)
        assert pm.rf_cycle(3, 0) == 0

    def test_compress_trims_trailing_idle(self, pm, cgra):
        pm.place_op(1, 2, 1)
        pm.place_op(2, 3, 3)
        assert pm.length == 8
        pm.compress()
        assert pm.placements == {1: (2, 0), 2: (3, 2)}
        assert pm.length == 3
        empty = PartialMapping(cgra, CommittedState(cgra), length=8)
        empty.compress()
        assert empty.length == 1


class TestContextAccounting:
    def test_words_include_committed(self, cgra):
        committed = CommittedState(cgra).extend([5] + [0] * 15, {})
        pm = PartialMapping(cgra, committed, 4)
        pm.place_op(1, 0, 1)
        # committed 5 + 1 op + 1 leading pnop
        assert pm.tile_context_words(0) == 7

    def test_block_usage(self, pm):
        pm.place_op(1, 0, 0)
        pm.place_op(2, 0, 3)
        usage = pm.block_usage()
        assert usage[0] == 3  # 2 ops + 1 gap pnop
        assert sum(usage[1:]) == 0

    def test_normalized_cost_prefers_big_tiles(self):
        het = get_config("HET2")
        committed = CommittedState(het)
        small_tile = 8   # CM16 on HET2
        big_tile = 0     # CM64
        a = PartialMapping(het, committed, 8)
        a.place_op(1, small_tile, 0)
        b = PartialMapping(het, committed, 8)
        b.place_op(1, big_tile, 0)
        assert b.cost() < a.cost()


class TestCommittedState:
    def test_extend_accumulates(self, cgra):
        state = CommittedState(cgra)
        state2 = state.extend([1] * 16, {"i": 3})
        state3 = state2.extend([2] * 16, {})
        assert state3.tile_instrs[0] == 3
        assert state3.home_of("i") == 3
        # Original untouched.
        assert state.tile_instrs[0] == 0

    def test_rehoming_rejected(self, cgra):
        state = CommittedState(cgra).extend([0] * 16, {"i": 3})
        with pytest.raises(MappingError):
            state.extend([0] * 16, {"i": 4})
