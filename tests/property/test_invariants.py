"""Property-based tests on core data structures and invariants."""

from hypothesis import given, strategies as st

from repro.arch.configs import get_config
from repro.arch.interconnect import TorusInterconnect
from repro.ir import opcodes
from repro.ir.opcodes import Opcode
from repro.mapping.state import (
    CommittedState,
    PartialMapping,
    pnop_blocks,
)

cycles_sets = st.sets(st.integers(min_value=0, max_value=63),
                      max_size=20)


class TestPnopProperties:
    @given(cycles_sets)
    def test_incremental_matches_reference(self, cycles):
        cgra = get_config("HOM64")
        pm = PartialMapping(cgra, CommittedState(cgra), 64)
        for index, cycle in enumerate(sorted(cycles, key=hash)):
            pm.occupy(0, cycle, ("op", index))
        assert pm.exact_pnops(0) == pnop_blocks(cycles)

    @given(cycles_sets, cycles_sets)
    def test_incremental_survives_compress(self, first, second):
        # compress shifts every tile by the same lead; its incremental
        # words and aggregates must equal a mapping built afresh from
        # the shifted cycles.
        cgra = get_config("HET2")
        committed = CommittedState(cgra)
        pm = PartialMapping(cgra, committed, 64)
        for tile, cycles in ((0, first), (8, second)):
            for cycle in sorted(cycles, key=hash):
                pm.occupy(tile, cycle, ("op", (tile, cycle)))
        pm.compress()
        lead = min(first | second, default=0)
        fresh = PartialMapping(cgra, committed, 64)
        for tile, cycles in ((0, first), (8, second)):
            for cycle in cycles:
                fresh.occupy(tile, cycle - lead, ("op", (tile, cycle)))
            assert pm.exact_pnops(tile) == pnop_blocks(
                {cycle - lead for cycle in cycles})
        assert pm.block_usage() == fresh.block_usage()
        assert pm.cost() == fresh.cost()
        assert pm.fits_exact() == fresh.fits_exact()
        assert pm.fits_approx() == fresh.fits_approx()

    @given(cycles_sets)
    def test_compress_never_increases_words(self, cycles):
        if not cycles:
            return
        cgra = get_config("HOM64")
        pm = PartialMapping(cgra, CommittedState(cgra), 64)
        for index, cycle in enumerate(sorted(cycles)):
            pm.occupy(0, cycle, ("op", index))
        before = len(pm.tile_cycles[0]) + pm.exact_pnops(0)
        pm.compress()
        after = len(pm.tile_cycles[0]) + pm.exact_pnops(0)
        assert after <= before
        assert pm.exact_pnops(0) == pnop_blocks(pm.tile_cycles[0].keys())


class TestTorusProperties:
    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=2, max_value=6),
           st.data())
    def test_distance_matches_bfs(self, rows, cols, data):
        torus = TorusInterconnect(rows, cols)
        a = data.draw(st.integers(0, rows * cols - 1))
        b = data.draw(st.integers(0, rows * cols - 1))
        # BFS reference.
        frontier = {a}
        seen = {a}
        hops = 0
        while b not in seen:
            frontier = {n for tile in frontier
                        for n in torus.neighbors(tile)} - seen
            seen |= frontier
            hops += 1
        assert torus.distance(a, b) == hops

    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=2, max_value=6))
    def test_neighbor_symmetry(self, rows, cols):
        torus = TorusInterconnect(rows, cols)
        for tile in range(rows * cols):
            for neighbor in torus.neighbors(tile):
                assert tile in torus.neighbors(neighbor)


class TestArithmeticProperties:
    @given(st.lists(st.integers(-2**31, 2**31 - 1), min_size=1,
                    max_size=40))
    def test_wrap32_sum_is_associative(self, values):
        # Two's complement modular addition is associative, so the
        # tree reduction must agree with the sequential sum.
        sequential = 0
        for value in values:
            sequential = opcodes.wrap32(sequential + value)
        # Emulate tree_sum's pairing on plain ints.
        level = [opcodes.wrap32(v) for v in values]
        while len(level) > 1:
            paired = [opcodes.wrap32(level[i] + level[i + 1])
                      for i in range(0, len(level) - 1, 2)]
            if len(level) % 2:
                paired.append(level[-1])
            level = paired
        assert level[0] == opcodes.wrap32(sequential)

    @given(st.integers(-2**40, 2**40), st.integers(-2**40, 2**40))
    def test_evaluate_always_in_range(self, a, b):
        for opcode in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND,
                       Opcode.OR, Opcode.XOR, Opcode.MIN, Opcode.MAX):
            result = opcodes.evaluate(
                opcode, [opcodes.wrap32(a), opcodes.wrap32(b)])
            assert -2**31 <= result < 2**31

    @given(st.integers(-2**31, 2**31 - 1), st.integers(0, 63))
    def test_shift_semantics(self, a, amount):
        left = opcodes.evaluate(Opcode.SLL, [a, amount])
        assert -2**31 <= left < 2**31
        sra = opcodes.evaluate(Opcode.SRA, [a, amount])
        assert sra == a >> (amount & 31)
