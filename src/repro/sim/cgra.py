"""Lockstep cycle-level execution of an assembled program.

Substitute for the paper's RTL + QuestaSim runs.  Implements the PE
contract exactly as the mapper assumes it:

- per block, all tiles run ``L`` cycles in lockstep;
- results land in the producing tile's RF and appear on its output
  port for exactly the next cycle;
- operand sources are taken from the assembled instruction (own RF,
  own CRF, neighbour port) — the simulator *verifies* that the named
  value is actually there, so any unsound mapping or assembly bug
  fails loudly instead of producing silently wrong numbers;
- PNOPs clock-gate the tile (one context fetch, then gated cycles);
- at block end, symbol variables are committed in their home tiles'
  register files and the controller broadcast selects the next block.

The simulator returns both the functional outcome (final data memory)
and the :class:`~repro.sim.activity.ActivityCounters` the energy model
consumes.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.ir import opcodes
from repro.ir.cdfg import Branch, Exit, Jump
from repro.ir.opcodes import Opcode
from repro.codegen.assembler import Program
from repro.sim.activity import ActivityCounters
from repro.sim.memory import DataMemory


class CGRARunResult:
    """Outcome of one kernel execution on the CGRA."""

    def __init__(self, memory, cycles, activity, block_counts):
        self.memory = memory
        self.cycles = cycles
        self.activity = activity
        self.block_counts = block_counts

    def region(self, cdfg, name):
        info = cdfg.regions[name]
        return self.memory.region(info["base"], info["size"])

    def __repr__(self):
        return f"CGRARunResult({self.cycles} cycles)"


class _Tile:
    """Execution state of one PE."""

    __slots__ = ("index", "rf_local", "rf_sym", "port_key", "port_value",
                 "crf")

    def __init__(self, index, crf):
        self.index = index
        self.rf_local = {}
        self.rf_sym = {}
        self.port_key = None
        self.port_value = 0
        self.crf = frozenset(crf)


class CGRASimulator:
    """Executes a :class:`~repro.codegen.assembler.Program`."""

    def __init__(self, program, memory_image=None,
                 max_block_executions=1_000_000):
        if not isinstance(program, Program):
            raise SimulationError(f"expected Program, got {program!r}")
        program.check_fits()
        self.program = program
        self.cgra = program.cgra
        self.max_block_executions = max_block_executions
        if memory_image is None:
            memory_image = self.cgra.data_memory_words
        self._memory_image = memory_image

    # ------------------------------------------------------------------
    def run(self):
        program = self.program
        memory = DataMemory(self._memory_image)
        activity = ActivityCounters(self.cgra.n_tiles)
        tiles = [_Tile(t, program.const_images[t])
                 for t in range(self.cgra.n_tiles)]
        # Symbol initial values live in their home register files.
        for symbol, (home, init) in program.symbol_inits.items():
            tiles[home].rf_sym[symbol] = opcodes.wrap32(init)
        block_counts = {}
        current = program.entry
        executed = 0
        while True:
            block = program.blocks[current]
            block_counts[current] = block_counts.get(current, 0) + 1
            executed += 1
            if executed > self.max_block_executions:
                raise SimulationError(
                    f"{program.kernel_name}: exceeded "
                    f"{self.max_block_executions} block executions")
            branch_value = self._run_block(block, tiles, memory, activity)
            self._commit_symbols(block, tiles)
            activity.cycles += block.length
            activity.block_transitions += 1
            terminator = block.terminator
            if isinstance(terminator, Exit):
                break
            if isinstance(terminator, Jump):
                current = terminator.target
            elif isinstance(terminator, Branch):
                if branch_value is None:
                    raise SimulationError(
                        f"block {block.name} branched without a BR result")
                current = (terminator.if_true if branch_value != 0
                           else terminator.if_false)
            else:
                raise SimulationError(f"bad terminator {terminator!r}")
        activity.dmem_reads = memory.reads
        activity.dmem_writes = memory.writes
        from repro.obs import metrics
        metrics.SIM_CYCLES.inc(activity.cycles, engine="analytic")
        return CGRARunResult(memory, activity.cycles, activity,
                             block_counts)

    # ------------------------------------------------------------------
    def _run_block(self, block, tiles, memory, activity):
        # Fresh block-local registers; bind symbol entry values.
        for tile in tiles:
            tile.rf_local = {}
            tile.port_key = None
        for symbol, home, uid in block.symbol_reads:
            try:
                tiles[home].rf_local[uid] = tiles[home].rf_sym[symbol]
            except KeyError:
                raise SimulationError(
                    f"symbol {symbol!r} not initialised in tile {home} "
                    f"at block {block.name}") from None
        pointers = [0] * len(tiles)
        pnop_left = [0] * len(tiles)
        branch_value = None
        for cycle in range(block.length):
            port_updates = []
            for tile in tiles:
                stats = activity.tiles[tile.index]
                if pnop_left[tile.index] > 0:
                    pnop_left[tile.index] -= 1
                    stats.gated_cycles += 1
                    continue
                stream = block.tile_streams[tile.index]
                pointer = pointers[tile.index]
                if pointer >= len(stream):
                    stats.idle_cycles += 1
                    continue
                instr = stream[pointer]
                if instr.cycle != cycle:
                    if instr.cycle < cycle:
                        raise SimulationError(
                            f"tile {tile.index} stream out of sync at "
                            f"block {block.name} cycle {cycle}")
                    stats.idle_cycles += 1
                    continue
                pointers[tile.index] += 1
                stats.cm_reads += 1
                if instr.kind == "pnop":
                    stats.pnop_fetches += 1
                    # The fetch cycle is the first gated cycle.
                    stats.gated_cycles += 1
                    pnop_left[tile.index] = instr.count - 1
                    continue
                stats.active_cycles += 1
                value = self._execute(instr, tile, tiles, memory, stats)
                if instr.opcode is Opcode.BR:
                    branch_value = value
                elif instr.dest_uid is not None:
                    tile.rf_local[instr.dest_uid] = value
                    stats.rf_writes += 1
                    port_updates.append((tile, instr.dest_uid, value))
            # Output ports hold a value for exactly one cycle.
            for tile in tiles:
                tile.port_key = None
            for tile, key, value in port_updates:
                tile.port_key = key
                tile.port_value = value
        return branch_value

    def _read_source(self, source, tile, tiles, stats):
        if source.kind == "rf":
            try:
                stats.rf_reads += 1
                return tile.rf_local[source.uid]
            except KeyError:
                raise SimulationError(
                    f"tile {tile.index}: value {source.uid} not in RF "
                    f"(mapping unsound)") from None
        if source.kind == "crf":
            if source.value not in tile.crf:
                raise SimulationError(
                    f"tile {tile.index}: constant {source.value} not in "
                    f"CRF image")
            stats.crf_reads += 1
            return source.value
        neighbor = tiles[source.tile]
        if neighbor.port_key != source.uid:
            raise SimulationError(
                f"tile {tile.index}: expected value {source.uid} on "
                f"port of tile {source.tile}, found {neighbor.port_key} "
                f"(mapping unsound)")
        stats.port_reads += 1
        return neighbor.port_value

    def _execute(self, instr, tile, tiles, memory, stats):
        values = [self._read_source(s, tile, tiles, stats)
                  for s in instr.sources]
        opcode = instr.opcode
        if opcode is Opcode.LOAD:
            stats.loads += 1
            return memory.load(values[0])
        if opcode is Opcode.STORE:
            stats.stores += 1
            memory.store(values[0], values[1])
            return None
        if opcode is Opcode.BR:
            stats.br_ops += 1
            return values[0]
        if opcode is Opcode.MOV:
            stats.mov_ops += 1
            return values[0]
        if opcode is Opcode.MUL:
            stats.mul_ops += 1
        else:
            stats.alu_ops += 1
        return opcodes.evaluate(opcode, values)

    def _commit_symbols(self, block, tiles):
        for symbol, home, uid in block.symbol_commits:
            try:
                tiles[home].rf_sym[symbol] = tiles[home].rf_local[uid]
            except KeyError:
                raise SimulationError(
                    f"symbol {symbol!r} commit: value {uid} missing in "
                    f"tile {home} at block {block.name} "
                    f"(mapping unsound)") from None
