"""Flow-level tests: whole-kernel mapping invariants."""

import pytest

from repro.arch.configs import get_config, make_cgra
from repro.errors import UnmappableError
from repro.ir import opcodes
from repro.kernels import get_kernel
from repro.mapping.flow import VARIANTS, FlowOptions, map_kernel


@pytest.fixture(scope="module")
def fir_kernel():
    return get_kernel("fir", n_samples=8, n_taps=4)


@pytest.fixture(scope="module")
def fir_mapping(fir_kernel):
    return map_kernel(fir_kernel.cdfg, get_config("HOM64"),
                      FlowOptions.basic())


class TestMappingInvariants:
    def test_every_op_placed(self, fir_kernel, fir_mapping):
        for name, block in fir_mapping.blocks.items():
            for op in block.dfg.ops:
                assert op.uid in block.placements, \
                    f"{op} unplaced in {name}"

    def test_placements_respect_dependences(self, fir_mapping):
        for block in fir_mapping.blocks.values():
            for op in block.dfg.ops:
                tile, cycle = block.placements[op.uid]
                for pred in block.dfg.predecessors(op):
                    _, pred_cycle = block.placements[pred.uid]
                    assert pred_cycle < cycle, \
                        f"{pred} !< {op} in {block.name}"

    def test_memory_ops_on_lsu_tiles(self, fir_mapping):
        cgra = fir_mapping.cgra
        for block in fir_mapping.blocks.values():
            for op in block.dfg.ops:
                if opcodes.is_memory(op.opcode):
                    tile, _ = block.placements[op.uid]
                    assert cgra.tile(tile).has_lsu

    def test_one_instruction_per_slot(self, fir_mapping):
        for block in fir_mapping.blocks.values():
            seen = set()
            for tile, cycles in block.pm.tile_cycles.items():
                for cycle in cycles:
                    assert (tile, cycle) not in seen
                    seen.add((tile, cycle))

    def test_placements_within_schedule(self, fir_mapping):
        for block in fir_mapping.blocks.values():
            for tile, cycle in block.placements.values():
                assert 0 <= cycle < block.length

    def test_symbols_have_homes(self, fir_kernel, fir_mapping):
        homes = {}
        for block in fir_mapping.blocks.values():
            homes.update(block.new_homes)
        for symbol in fir_kernel.cdfg.symbols:
            assert symbol in homes

    def test_incremental_pnops_match_reference(self, fir_mapping):
        from repro.mapping.state import pnop_blocks
        for block in fir_mapping.blocks.values():
            for tile, cycles in block.pm.tile_cycles.items():
                assert (block.pm.exact_pnops(tile)
                        == pnop_blocks(cycles.keys()))


class TestFlowVariants:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_variant_maps_small_fir(self, fir_kernel, variant):
        result = map_kernel(fir_kernel.cdfg, get_config("HET1"),
                            VARIANTS[variant]())
        assert result.total_ops > 0

    def test_aware_fits_by_construction(self, fir_kernel):
        result = map_kernel(fir_kernel.cdfg, get_config("HET2"),
                            FlowOptions.aware())
        assert result.fits

    def test_context_aware_flag(self, fir_kernel):
        aware = map_kernel(fir_kernel.cdfg, get_config("HET1"),
                           context_aware=True)
        assert aware.options.is_context_aware
        basic = map_kernel(fir_kernel.cdfg, get_config("HOM64"),
                           context_aware=False)
        assert not basic.options.is_context_aware

    def test_deterministic_given_seed(self, fir_kernel):
        a = map_kernel(fir_kernel.cdfg, get_config("HET1"),
                       FlowOptions.aware(seed=99))
        b = map_kernel(fir_kernel.cdfg, get_config("HET1"),
                       FlowOptions.aware(seed=99))
        assert a.tile_words() == b.tile_words()
        assert a.total_movs == b.total_movs


class TestUnmappable:
    def test_hopeless_config_raises(self, fir_kernel):
        # Two-word context memories cannot hold any real kernel.
        tiny = make_cgra("hopeless", cm_depths=[2] * 16)
        with pytest.raises(UnmappableError) as excinfo:
            map_kernel(fir_kernel.cdfg, tiny,
                       FlowOptions.aware(max_attempts=4))
        assert excinfo.value.config == "hopeless"

    def test_error_carries_kernel_name(self, fir_kernel):
        tiny = make_cgra("hopeless", cm_depths=[2] * 16)
        with pytest.raises(UnmappableError) as excinfo:
            map_kernel(fir_kernel.cdfg, tiny,
                       FlowOptions.aware(max_attempts=4))
        assert excinfo.value.kernel == "fir"


class TestStats:
    def test_summary_renders(self, fir_mapping):
        text = fir_mapping.summary()
        assert "fir" in text
        assert "movs" in text

    def test_per_block_stats_cover_all_blocks(self, fir_kernel,
                                              fir_mapping):
        names = [name for name, _, _ in fir_mapping.per_block_stats()]
        assert set(names) == set(fir_kernel.cdfg.blocks)

    def test_static_cycles(self, fir_mapping):
        counts = {name: 1 for name in fir_mapping.blocks}
        total = fir_mapping.static_cycles(counts)
        assert total == sum(b.length for b in fir_mapping.blocks.values())
