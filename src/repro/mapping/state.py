"""Partial-mapping state.

A :class:`PartialMapping` is one point of the design space the binder
explores for the current basic block: operation placements, MOV
insertions, value availability events, per-tile context occupancy.
The paper's flow keeps a *set* of these alive, prunes it (stochastic /
ACMAP / ECMAP), and extends each by binding the next operation.

Cross-block state — instructions already committed to each tile's
context memory and the symbol-variable home tiles (location
constraints) — lives in the immutable :class:`CommittedState`.

Context-word accounting follows the PE contract: per block, a tile
stores its operations and MOVs plus one PNOP per idle gap *before or
between* them; trailing idle cycles and blocks in which the tile never
wakes up cost nothing (the tile sleeps until the global block-end
broadcast).

Performance note: the binder scores every placement against its
parent without copying it (``binder.score_bind``), keeping the routes
it found, and clones only the placements that survive pruning — about
one in ten — to commit those routes without searching again.  The
scorer predicts a clone's value events, constants and cost with the
rules the mapping itself applies (:func:`slot_words`,
:func:`rf_events_with`, :func:`port_events_with`, :func:`crf_with`,
via ``score_with``), so each rule has one definition; its route
searches read the parent, or a :class:`SlotView` of it plus the MOVs
they must see.  Per-value event containers are immutable
tuples/frozensets, so ``clone()`` copies only the outer dicts (pointer
copies), and updates replace the small inner values.

All context accounting is incremental: ``occupy`` maintains per-tile
busy-cycle bitmasks, context words and the derived pruning aggregates
(total words, worst capacity pressure, per-depth overflow counters) in
O(1) per placed instruction, so ``cost()`` and the ACMAP/ECMAP fitness
checks never rescan the schedule.  Per-tile words only ever grow while
instructions are added (:func:`slot_words` is 0, 1 or 2), which is
what makes the running-maximum pressure exact; the one whole-schedule
shift (``compress``, on a block's chosen mapping) shifts the bitmasks
and rebuilds the aggregates outright.  The bitmasks also give the
route memo its key (``window_key``).
"""

from __future__ import annotations

from repro.errors import MappingError

#: Bits reserved for the cycle in encoded occupancy slots; schedules
#: stay far below 2**12 cycles (lengths grow geometrically from tens).
_CYCLE_BITS = 12
_CYCLE_MASK = (1 << _CYCLE_BITS) - 1


def slot_words(busy, cycle):
    """Context words one more instruction at ``cycle`` costs a tile.

    ``busy`` holds the tile's busy cycles as set bits.  The instruction
    takes one word, and the tile's PNOP count (one per idle run before
    or between instructions; trailing idle is free) changes by -1, 0
    or +1.  That nets out to one word per idle neighbour cycle: the
    one before (cycle 0 has none) and the one after.
    """
    return ((cycle > 0 and not busy >> (cycle - 1) & 1)
            + (not busy >> (cycle + 1) & 1))


def rf_events_with(events, tile, cycle):
    """RF events with the value readable on ``tile`` from ``cycle``.

    One entry per tile, holding its earliest cycle; a new tile is
    appended, so the tuple keeps first-arrival order.
    """
    for index, (event_tile, event_cycle) in enumerate(events):
        if event_tile == tile:
            if cycle < event_cycle:
                return events[:index] + ((tile, cycle),) + events[index + 1:]
            return events
    return events + ((tile, cycle),)


def crf_with(crf, value, capacity):
    """A tile's CRF constants with ``value`` resident; None if full."""
    if value in crf:
        return crf
    if len(crf) >= capacity:
        return None
    return crf | {value}


def port_events_with(events, tile, cycle):
    """Port events with the value on ``tile``'s output at ``cycle``."""
    if (tile, cycle) in events:
        return events
    return events + ((tile, cycle),)


class CommittedState:
    """Immutable cross-block mapping state."""

    __slots__ = ("cgra", "tile_instrs", "symbol_homes")

    def __init__(self, cgra, tile_instrs=None, symbol_homes=None):
        self.cgra = cgra
        self.tile_instrs = (tuple(tile_instrs) if tile_instrs is not None
                            else (0,) * cgra.n_tiles)
        self.symbol_homes = dict(symbol_homes or {})

    def extend(self, block_usage, new_homes):
        """New state with a block's per-tile usage and homes folded in."""
        instrs = list(self.tile_instrs)
        for tile, used in enumerate(block_usage):
            instrs[tile] += used
        homes = dict(self.symbol_homes)
        for symbol, tile in new_homes.items():
            if symbol in homes and homes[symbol] != tile:
                raise MappingError(
                    f"symbol {symbol!r} re-homed from {homes[symbol]} "
                    f"to {tile}")
            homes[symbol] = tile
        return CommittedState(self.cgra, instrs, homes)

    def home_of(self, symbol):
        return self.symbol_homes.get(symbol)

    def __repr__(self):
        return (f"CommittedState(instrs={list(self.tile_instrs)}, "
                f"homes={self.symbol_homes})")


def pnop_blocks(occupied_cycles):
    """Exact number of PNOP instructions for a set of busy cycles.

    One PNOP per maximal idle run before or between instructions;
    trailing idle is free (the tile waits for the block-end broadcast).

    Reference implementation: the mapper itself tracks PNOPs
    incrementally (``PartialMapping.occupy``) and never sorts; this
    stays as the executable definition the tests check against.
    """
    if not occupied_cycles:
        return 0
    busy = sorted(occupied_cycles)
    pnops = 1 if busy[0] > 0 else 0
    for previous, current in zip(busy, busy[1:]):
        if current > previous + 1:
            pnops += 1
    return pnops


class PartialMapping:
    """One explored mapping of (a prefix of) a basic block."""

    __slots__ = (
        "cgra",
        "committed",
        "length",
        "placements",
        "tile_cycles",
        "rf_avail",
        "port_events",
        "const_tiles",
        "new_homes",
        "_mov_chain",
        "n_movs",
        "blacklist",
        "_owned",
        "_busy",
        "_tile_words",
        "_total_words",
        "_worst_pressure",
        "_n_over_exact",
        "_n_over_approx",
    )

    def __init__(self, cgra, committed, length):
        self.cgra = cgra
        self.committed = committed
        self.length = length
        #: op uid -> (tile, cycle)
        self.placements = {}
        #: tile -> {cycle: descriptor}; descriptor = ("op", uid) or
        #: ("mov", value_uid)
        self.tile_cycles = {t: {} for t in range(cgra.n_tiles)}
        #: tiles whose cycle dict is private to this instance (the
        #: copy-on-write set — see ``clone``)
        self._owned = set(self.tile_cycles)
        #: tile -> its busy cycles as the set bits of one integer
        self._busy = [0] * cgra.n_tiles
        #: value uid -> tuple of (tile, earliest readable cycle)
        self.rf_avail = {}
        #: value uid -> tuple of (tile, cycle) output-port events
        self.port_events = {}
        #: tile -> frozenset of constant values resident in its CRF
        self.const_tiles = {t: frozenset() for t in range(cgra.n_tiles)}
        #: symbols homed while mapping this block
        self.new_homes = {}
        #: (tile, cycle, value_uid) MOVs as a persistent parent-linked
        #: chain — clones share it by pointer; ``movs`` materialises it
        self._mov_chain = None
        self.n_movs = 0
        #: tiles CAB excludes from further binding (aware flow only)
        self.blacklist = frozenset()
        #: incremental context words (committed + busy + PNOPs, kept
        #: exact by ``occupy``) and the aggregates the pruning stages
        #: read
        self._tile_words = list(committed.tile_instrs)
        self._init_aggregates()

    def _init_aggregates(self):
        """Derive total/worst/overflow aggregates from ``_tile_words``."""
        depths = self.cgra.cm_depths
        words = self._tile_words
        self._total_words = sum(words)
        worst = 0.0
        n_over_exact = 0
        n_over_approx = 0
        busy = self._busy
        for tile, depth in enumerate(depths):
            exact = words[tile]
            pressure = exact / depth
            if pressure > worst:
                worst = pressure
            if exact > depth:
                n_over_exact += 1
            approx = exact + 1 if busy[tile] else exact
            if approx > depth:
                n_over_approx += 1
        self._worst_pressure = worst
        self._n_over_exact = n_over_exact
        self._n_over_approx = n_over_approx

    # ------------------------------------------------------------------
    # Copy-on-extend
    # ------------------------------------------------------------------
    def clone(self):
        new = PartialMapping.__new__(PartialMapping)
        new.cgra = self.cgra
        new.committed = self.committed
        new.length = self.length
        new.placements = dict(self.placements)
        # Per-tile cycle dicts are shared copy-on-write: only the
        # outer dict is copied, and both sides give up in-place
        # mutation rights — ``occupy`` re-copies a tile's dict on the
        # first write after a clone (a built placement touches only a
        # few tiles).
        new.tile_cycles = dict(self.tile_cycles)
        new._owned = set()
        self._owned.clear()
        # Inner containers are immutable: shallow dict copies suffice.
        new.rf_avail = dict(self.rf_avail)
        new.port_events = dict(self.port_events)
        new.const_tiles = dict(self.const_tiles)
        new.new_homes = dict(self.new_homes)
        new._mov_chain = self._mov_chain
        new.n_movs = self.n_movs
        new.blacklist = self.blacklist
        new._busy = list(self._busy)
        new._tile_words = list(self._tile_words)
        new._total_words = self._total_words
        new._worst_pressure = self._worst_pressure
        new._n_over_exact = self._n_over_exact
        new._n_over_approx = self._n_over_approx
        return new

    # ------------------------------------------------------------------
    # Slots
    # ------------------------------------------------------------------
    def slot_free(self, tile, cycle):
        return cycle not in self.tile_cycles[tile]

    def occupy(self, tile, cycle, descriptor):
        cycles = self.tile_cycles[tile]
        if cycle in cycles:
            raise MappingError(
                f"slot ({tile},{cycle}) already holds {cycles[cycle]}")
        if cycle < 0:
            raise MappingError(f"negative cycle {cycle}")
        if cycle > _CYCLE_MASK:
            # The packed occupancy/routing state encodings reserve 12
            # bits for the cycle; schedules this long never map anyway
            # — fail loudly instead of silently aliasing slots.
            raise MappingError(
                f"cycle {cycle} exceeds the {_CYCLE_MASK}-cycle "
                f"schedule bound")
        if tile not in self._owned:
            cycles = dict(cycles)
            self.tile_cycles[tile] = cycles
            self._owned.add(tile)
        cycles[cycle] = descriptor
        if cycle >= self.length:
            self.length = cycle + 1
        busy = self._busy[tile]
        self._busy[tile] = busy | 1 << cycle
        # Context-word and pruning-aggregate maintenance.  Per-tile
        # words never shrink, so the running maximum pressure stays
        # exact.
        words = self._tile_words
        old = words[tile]
        new = old + slot_words(busy, cycle)
        words[tile] = new
        self._total_words += new - old
        depth = self.cgra.cm_depths[tile]
        pressure = new / depth
        if pressure > self._worst_pressure:
            self._worst_pressure = pressure
        if old <= depth < new:
            self._n_over_exact += 1
        # The ACMAP estimate adds a one-word reserve on busy tiles.
        approx_old = old + 1 if busy else old
        if approx_old <= depth < new + 1:
            self._n_over_approx += 1

    def window_key(self, lo, hi):
        """Hashable identity of every tile's issue slots in ``[lo, hi)``.

        One bitmask per tile, shifted down by ``lo``: two mappings
        with equal keys occupy exactly the same slots at cycles
        ``lo <= c < hi``.  The route memo keys on this (see
        ``repro.mapping.routing``).
        """
        width = (1 << (hi - lo)) - 1
        return tuple(busy >> lo & width for busy in self._busy)

    def score_with(self, tile, cycle, movs):
        """``cost()`` and ``fits_approx()`` this mapping would report
        after an op at ``(tile, cycle)`` and the ``(tile, cycle)``
        MOVs ``movs``, without adding them.

        The same rules as ``occupy``: per-tile words only grow, so the
        aggregates follow from each touched tile's first and last
        words.
        """
        busy = self._busy
        words = self._tile_words
        touched = {tile: (busy[tile] | 1 << cycle,
                          words[tile] + slot_words(busy[tile], cycle))}
        for mov_tile, mov_cycle in movs:
            mask, tile_words = touched.get(mov_tile) or (busy[mov_tile],
                                                        words[mov_tile])
            touched[mov_tile] = (mask | 1 << mov_cycle,
                                 tile_words + slot_words(mask, mov_cycle))
        total = self._total_words
        worst = self._worst_pressure
        n_over_approx = self._n_over_approx
        depths = self.cgra.cm_depths
        for tile, (_, new) in touched.items():
            old = words[tile]
            total += new - old
            depth = depths[tile]
            pressure = new / depth
            if pressure > worst:
                worst = pressure
            approx_old = old + 1 if busy[tile] else old
            if approx_old <= depth < new + 1:
                n_over_approx += 1
        cost = (int(worst * 8), self.n_movs + len(movs), worst, total)
        return cost, n_over_approx == 0

    def place_op(self, uid, tile, cycle):
        self.occupy(tile, cycle, ("op", uid))
        self.placements[uid] = (tile, cycle)

    def add_mov(self, tile, cycle, value_uid):
        self.occupy(tile, cycle, ("mov", value_uid))
        self._mov_chain = (self._mov_chain, (tile, cycle, value_uid))
        self.n_movs += 1

    @property
    def movs(self):
        """The block's MOV instructions in insertion order."""
        out = []
        chain = self._mov_chain
        while chain is not None:
            chain, entry = chain
            out.append(entry)
        out.reverse()
        return out

    # ------------------------------------------------------------------
    # Value availability events
    # ------------------------------------------------------------------
    def add_rf_event(self, value_uid, tile, cycle):
        """Value readable by ``tile``'s instructions from ``cycle`` on."""
        self.rf_avail[value_uid] = rf_events_with(
            self.rf_avail.get(value_uid, ()), tile, cycle)

    def add_port_event(self, value_uid, tile, cycle):
        """Value on ``tile``'s output port during exactly ``cycle``."""
        self.port_events[value_uid] = port_events_with(
            self.port_events.get(value_uid, ()), tile, cycle)

    def record_production(self, value_uid, tile, cycle):
        """An op/MOV at (tile, cycle) produced the value: it is in the
        tile's RF and on its output port from ``cycle + 1``."""
        self.add_rf_event(value_uid, tile, cycle + 1)
        self.add_port_event(value_uid, tile, cycle + 1)

    def rf_cycle(self, value_uid, tile):
        """Earliest RF-read cycle of the value on a tile (None if absent)."""
        for event_tile, event_cycle in self.rf_avail.get(value_uid, ()):
            if event_tile == tile:
                return event_cycle
        return None

    # ------------------------------------------------------------------
    # Constants (CRF)
    # ------------------------------------------------------------------
    def register_const(self, tile, value):
        """Ensure a constant is CRF-resident; False if the CRF is full."""
        crf = crf_with(self.const_tiles[tile], value,
                       self.cgra.tile(tile).crf_words)
        if crf is None:
            return False
        self.const_tiles[tile] = crf
        return True

    # ------------------------------------------------------------------
    # Context-memory accounting
    # ------------------------------------------------------------------
    def exact_pnops(self, tile):
        """Exact PNOP count (words not taken by an instruction)."""
        return (self._tile_words[tile] - self.committed.tile_instrs[tile]
                - len(self.tile_cycles[tile]))

    def tile_context_words(self, tile):
        """CM words this block needs on ``tile`` so far (+ committed)."""
        return self._tile_words[tile]

    def fits_exact(self):
        """True when every tile's exact words fit its context memory."""
        return self._n_over_exact == 0

    def fits_approx(self):
        """True under ACMAP's pessimistic per-tile estimate.

        A busy tile's estimate is its exact words plus a one-word
        reserve for the gap the *next* placement may open — cheap,
        over-counts for finished tiles, under-counts distant futures,
        exactly the approximate behaviour Sec III-D.2 describes (keeps
        some unfitting mappings, drops some fitting ones).
        """
        return self._n_over_approx == 0

    def block_usage(self):
        """Per-tile CM words used by this block alone (exact PNOPs)."""
        committed = self.committed.tile_instrs
        return [self._tile_words[t] - committed[t]
                for t in range(self.cgra.n_tiles)]

    # ------------------------------------------------------------------
    # Symbols
    # ------------------------------------------------------------------
    def home_of(self, symbol):
        home = self.new_homes.get(symbol)
        if home is None:
            home = self.committed.home_of(symbol)
        return home

    def fix_home(self, symbol, tile):
        existing = self.home_of(symbol)
        if existing is not None and existing != tile:
            raise MappingError(
                f"symbol {symbol!r} already homed on tile {existing}")
        if existing is None:
            self.new_homes[symbol] = tile

    # ------------------------------------------------------------------
    # Schedule compression (a block's chosen mapping)
    # ------------------------------------------------------------------
    def compress(self):
        """Trim leading and trailing idle cycles off the schedule.

        Backward scheduling anchors sinks near the allocated length,
        which can leave fully-idle cycles at the start (latency and
        leading-PNOP waste) or after the last instruction.  A uniform
        shift preserves every timing relation; block-entry events
        (cycle 0) stay put and remain valid since they only get read
        later.
        """
        used = [busy for busy in self._busy if busy]
        if not used:
            self.length = 1
            return
        shift = min((busy & -busy).bit_length() for busy in used) - 1
        last = max(busy.bit_length() for busy in used) - 1
        if shift > 0:
            self.placements = {
                uid: (tile, cycle - shift)
                for uid, (tile, cycle) in self.placements.items()}
            self.tile_cycles = {
                tile: {cycle - shift: desc
                       for cycle, desc in cycles.items()}
                for tile, cycles in self.tile_cycles.items()}
            self._owned = set(self.tile_cycles)
            self.rf_avail = {
                uid: tuple((tile, cycle - shift if cycle > 0 else 0)
                           for tile, cycle in events)
                for uid, events in self.rf_avail.items()}
            self.port_events = {
                uid: tuple((tile, cycle - shift) for tile, cycle in events)
                for uid, events in self.port_events.items()}
            chain = None
            for tile, cycle, uid in self.movs:
                chain = (chain, (tile, cycle - shift, uid))
            self._mov_chain = chain
            # The shift closes each tile's leading idle run by
            # ``shift`` cycles; the PNOP disappears only on tiles
            # whose first instruction lands exactly on cycle 0.
            for tile, busy in enumerate(self._busy):
                if busy >> shift & 1:
                    self._tile_words[tile] -= 1
            self._busy = [busy >> shift for busy in self._busy]
            self._init_aggregates()
        self.length = last - shift + 1

    # ------------------------------------------------------------------
    # Cost (pruning / final selection; ``score_with`` predicts it)
    # ------------------------------------------------------------------
    def cost(self):
        """Lexicographic cost: coarse capacity pressure, MOVs, total.

        Tile pressure is normalised by context-memory depth and
        bucketed, so on heterogeneous configurations the exploration
        prefers keeping small-CM tiles lean before it optimises MOV
        count; within a pressure bucket, fewer MOVs win.
        """
        worst = self._worst_pressure
        return (int(worst * 8), self.n_movs, worst, self._total_words)

    def __repr__(self):
        return (f"PartialMapping({len(self.placements)} ops, "
                f"{self.n_movs} movs, L={self.length})")


class SlotView:
    """A partial mapping's issue slots plus some MOVs, as a route
    search reads them (``cgra``, ``tile_cycles``, ``window_key``),
    without copying the mapping: the binder's scorer searches on one
    when a placement's later route may read its earlier routes' MOVs.
    """

    __slots__ = ("cgra", "tile_cycles", "_busy")

    def __init__(self, pm, movs):
        self.cgra = pm.cgra
        self.tile_cycles = dict(pm.tile_cycles)
        self._busy = list(pm._busy)
        self.add(movs)

    def add(self, movs):
        for tile, cycle in movs:
            self.tile_cycles[tile] = {**self.tile_cycles[tile], cycle: None}
            self._busy[tile] |= 1 << cycle

    #: reads only ``_busy``
    window_key = PartialMapping.window_key
