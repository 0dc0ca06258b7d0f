"""Exact MOV-chain search on the time-extended graph.

Given a partial mapping and a value's availability events, find the
cheapest legal chain of MOV instructions making the value readable by
a consumer placement (or landing it in a register file by a deadline —
the symbol-variable location constraints).

The time-extended directed graph (TEDG) of Sec III-A has a node
``(r, t)`` per resource ``r`` (an FU or an RF) and cycle ``t``, and an
edge from ``(r1, t)`` to ``(r2, t+1)`` when the value ``r1`` holds at
``t`` can appear in ``r2`` at ``t+1``.  It is never materialised.  The
search is a 0-1 BFS over TEDG states:

- ``("rf", P, c)`` — the value sits in P's register file; instructions
  on P at cycles >= c can read it;
- ``("port", P, c)`` — the value is on P's output port during exactly
  cycle ``c`` (P computed or MOVed it at ``c - 1``).

Transitions (cost = MOV instructions inserted):

- wait in the RF: ``rf(P,c) -> rf(P,c+1)`` — free;
- re-emit: a MOV on P at ``c`` reading its own RF -> ``port(P,c+1)``
  — cost 1;
- hop: a MOV on a torus neighbour Q at ``c`` reading P's port ->
  ``rf(Q,c+1)`` and ``port(Q,c+1)`` — cost 1.

Every MOV needs a free issue slot on its tile, and tiles blacklisted
by CAB accept no new instructions (routing is "constraint aware" too).
This subsumes the paper's *re-routing* graph transformation: extra
moves are exactly what re-routing inserts.

Two layers keep the search off the flow's critical path without
changing a single returned route:

- **Admissible bounding.**  Torus hop distances (precomputed tables on
  the :class:`~repro.arch.cgra.CGRA`) lower-bound both the MOVs and
  the cycles any completion of a state still needs.  States that
  provably cannot reach the goal within ``max_movs`` and the time
  horizon are never enqueued — including whole searches whose start
  states are all hopeless, which return ``None`` before the BFS
  allocates anything.  The bounds are lower bounds on *any* path, so
  pruned states can never lie on a returned route, and the pop order
  and parent choice of every goal-reaching state are untouched: the
  surviving search is bit-identical to the exhaustive one.
- **Memoisation.**  The binder scores every placement of an op in
  every live partial mapping, and sibling partial mappings keep
  issuing identical route queries.  A search reads only the value's
  (immutable) availability event tuples, the goal, the budget, the
  blacklist and the issue slots at cycles from the earliest event up
  to the horizon — so callers may pass a ``memo`` dict (scoped to one
  block attempt by the binder) keyed on exactly those, the slots as
  ``window_key`` bitmasks.  Equal keys give equal routes whichever
  partial mapping asks: siblings share entries, and both successful
  routes and failures are replayed instead of re-searched.  Building
  a pruning survivor issues no queries; it commits the routes its
  score found.  Queries whose earliest event sits within
  ``MEMO_MIN_GAP`` cycles of the horizon skip the memo: their search
  is cheaper than their key.
"""

from __future__ import annotations

from collections import deque

from repro.mapping.state import _CYCLE_BITS, _CYCLE_MASK

#: Default cap on MOVs per routed edge; routes beyond this are
#: considered failed (the caller falls back to other transformations).
MAX_ROUTE_MOVS = 8

#: Memo sentinel distinguishing "never searched" from "search failed".
_MISS = object()

#: Queries whose earliest availability event sits closer than this to
#: the horizon run a tiny BFS — cheaper than building the memo key —
#: and bypass the memo; distant events mean long wait/hop frontiers,
#: which is where replaying an earlier identical query pays.
MEMO_MIN_GAP = 4


class Route:
    """A successful route: the MOV instructions to insert."""

    __slots__ = ("movs",)

    def __init__(self, movs):
        self.movs = movs

    @property
    def cost(self):
        return len(self.movs)

    def __repr__(self):
        return f"Route({self.movs})"


#: States are packed into ints for fast hashing: a high bit selects
#: the port kind, the middle bits the tile, the low bits the cycle.
#: The cycle width is state.py's — ``PartialMapping.occupy`` rejects
#: cycles beyond it, which is what makes this packing alias-free; the
#: two modules must agree, so the constants are imported, not
#: redefined.
_TILE_SHIFT = _CYCLE_BITS
_PORT = 1 << (2 * _CYCLE_BITS)

#: Parent links are packed too: ``(previous_state << 1) | has_mov``.
#: A MOV edge's instruction is derivable from its *target* state — a
#: re-emit or hop into state ``(kind, q, nc)`` is a MOV on tile ``q``
#: at cycle ``nc - 1`` — so the whole BFS runs allocation-free.
_ROOT = (-1 << 1)


def _trace(parents, state):
    movs = []
    while state >= 0:
        packed = parents[state]
        if packed & 1:
            movs.append(((state >> _TILE_SHIFT) & _CYCLE_MASK,
                         (state & _CYCLE_MASK) - 1))
        state = packed >> 1
    movs.reverse()
    return Route(movs)


def _earliest(rf_events, port_events, horizon):
    """Earliest event cycle, capped at ``horizon``: a search reads no
    issue slot outside ``[_earliest(...), horizon)``."""
    first = horizon
    for _, c in rf_events:
        if c < first:
            first = c
    for _, c in port_events:
        if c < first:
            first = c
    return first


def _memoised(search, memo, kind, pm, rf_events, port_events, tile,
              horizon, max_movs, blacklist):
    """Run ``search``, or replay it from ``memo`` (module docstring)."""
    first = _earliest(rf_events, port_events, horizon)
    if memo is None or horizon - first < MEMO_MIN_GAP:
        return search(pm, rf_events, port_events, tile, horizon, max_movs,
                      blacklist)
    key = (kind, tile, horizon, max_movs, blacklist, rf_events, port_events,
           pm.window_key(first, horizon))
    hit = memo.get(key, _MISS)
    if hit is not _MISS:
        return None if hit is None else Route(list(hit))
    route = search(pm, rf_events, port_events, tile, horizon, max_movs,
                   blacklist)
    memo[key] = None if route is None else tuple(route.movs)
    return route


def _search_operand(pm, rf_events, port_events, tile, cycle, max_movs,
                    blacklist):
    """0-1 BFS making the value readable at ``(tile, cycle)``.

    Goal states: ``rf(tile, c <= cycle)`` or ``port(P, cycle)`` with
    ``tile`` a torus neighbour of P.  Returns Route or None.
    """
    cgra = pm.cgra
    neighbors = cgra.neighbor_table
    dist = cgra.distance_row(tile)
    tile_cycles = pm.tile_cycles
    best = {}
    parents = {}
    queue = deque()
    append = queue.append
    appendleft = queue.appendleft
    best_get = best.get
    port_bit = _PORT
    tile_shift = _TILE_SHIFT
    cycle_mask = _CYCLE_MASK

    for p, c in rf_events:
        if c > cycle:
            continue
        if p != tile and (dist[p] > max_movs or c + dist[p] > cycle):
            continue
        state = (p << tile_shift) | c
        best[state] = 0
        parents[state] = _ROOT
        append(state)
    for p, c in port_events:
        if c > cycle:
            continue
        d = dist[p]
        if not (d == 1 and c == cycle):
            need = d - 1 if d >= 2 else 1
            if need > max_movs or c + need > cycle:
                continue
        state = port_bit | (p << tile_shift) | c
        if state not in best:
            best[state] = 0
            parents[state] = _ROOT
            append(state)

    while queue:
        state = queue.popleft()
        cost = best[state]
        c = state & cycle_mask
        if state < port_bit:  # rf(p, c)
            p = state >> tile_shift
            if p == tile and c <= cycle:
                return _trace(parents, state)
            # Wait in the RF — free, dies when the time bound does.
            nc = c + 1
            if nc <= cycle and (p == tile or nc + dist[p] <= cycle):
                next_state = state + 1
                if best_get(next_state, cost + 1) > cost:
                    best[next_state] = cost
                    parents[next_state] = state << 1
                    appendleft(next_state)
            # Re-emit: MOV on p at cycle c.
            if (nc <= cycle and cost < max_movs and p not in blacklist
                    and c not in tile_cycles[p]):
                d = dist[p]
                if not (d == 1 and nc == cycle):
                    need = d - 1 if d >= 2 else 1
                    if cost + 1 + need > max_movs or nc + need > cycle:
                        continue
                next_state = port_bit | (state + 1)
                next_cost = cost + 1
                if best_get(next_state, next_cost + 1) > next_cost:
                    best[next_state] = next_cost
                    parents[next_state] = (state << 1) | 1
                    append(next_state)
        else:  # the value is on p's output port during cycle c
            p = (state >> tile_shift) & cycle_mask
            if c == cycle and tile in neighbors[p]:
                return _trace(parents, state)
            nc = c + 1
            if nc > cycle:
                continue
            next_cost = cost + 1
            if next_cost > max_movs:
                continue
            budget = max_movs - next_cost
            for q in neighbors[p]:
                if q in blacklist or c in tile_cycles[q]:
                    continue
                d = dist[q]
                if q == tile or (nc + d <= cycle and d <= budget):
                    next_state = (q << tile_shift) | nc
                    if best_get(next_state, next_cost + 1) > next_cost:
                        best[next_state] = next_cost
                        parents[next_state] = (state << 1) | 1
                        append(next_state)
                if not (d == 1 and nc == cycle):
                    need = d - 1 if d >= 2 else 1
                    if need > budget or nc + need > cycle:
                        continue
                next_state = port_bit | (q << tile_shift) | nc
                if best_get(next_state, next_cost + 1) > next_cost:
                    best[next_state] = next_cost
                    parents[next_state] = (state << 1) | 1
                    append(next_state)
    return None


def _search_landing(pm, rf_events, port_events, tile, deadline,
                    max_movs, blacklist):
    """0-1 BFS landing the value in ``tile``'s RF by ``deadline``."""
    cgra = pm.cgra
    neighbors = cgra.neighbor_table
    dist = cgra.distance_row(tile)
    tile_cycles = pm.tile_cycles
    best = {}
    parents = {}
    queue = deque()
    append = queue.append
    appendleft = queue.appendleft
    best_get = best.get
    port_bit = _PORT
    tile_shift = _TILE_SHIFT
    cycle_mask = _CYCLE_MASK

    for p, c in rf_events:
        if c > deadline:
            continue
        if p != tile and (dist[p] + 1 > max_movs
                          or c + dist[p] + 1 > deadline):
            continue
        state = (p << tile_shift) | c
        best[state] = 0
        parents[state] = _ROOT
        append(state)
    for p, c in port_events:
        if c > deadline:
            continue
        d = dist[p]
        need = d if d >= 1 else 2
        if need > max_movs or c + need > deadline:
            continue
        state = port_bit | (p << tile_shift) | c
        if state not in best:
            best[state] = 0
            parents[state] = _ROOT
            append(state)

    while queue:
        state = queue.popleft()
        cost = best[state]
        c = state & cycle_mask
        if state < port_bit:  # rf(p, c)
            p = state >> tile_shift
            if p == tile and c <= deadline:
                return _trace(parents, state)
            nc = c + 1
            if nc <= deadline and nc + dist[p] + 1 <= deadline:
                next_state = state + 1
                if best_get(next_state, cost + 1) > cost:
                    best[next_state] = cost
                    parents[next_state] = state << 1
                    appendleft(next_state)
            if (nc <= deadline and p not in blacklist
                    and c not in tile_cycles[p]):
                d = dist[p]
                need = d if d >= 1 else 2
                if cost + 1 + need <= max_movs and nc + need <= deadline:
                    next_state = port_bit | (state + 1)
                    next_cost = cost + 1
                    if best_get(next_state, next_cost + 1) > next_cost:
                        best[next_state] = next_cost
                        parents[next_state] = (state << 1) | 1
                        append(next_state)
        else:
            p = (state >> tile_shift) & cycle_mask
            nc = c + 1
            if nc > deadline:
                continue
            next_cost = cost + 1
            if next_cost > max_movs:
                continue
            budget = max_movs - next_cost
            for q in neighbors[p]:
                if q in blacklist or c in tile_cycles[q]:
                    continue
                d = dist[q]
                if q == tile or (nc + d + 1 <= deadline
                                 and d + 1 <= budget):
                    next_state = (q << tile_shift) | nc
                    if best_get(next_state, next_cost + 1) > next_cost:
                        best[next_state] = next_cost
                        parents[next_state] = (state << 1) | 1
                        append(next_state)
                need = d if d >= 1 else 2
                if need <= budget and nc + need <= deadline:
                    next_state = port_bit | (q << tile_shift) | nc
                    if best_get(next_state, next_cost + 1) > next_cost:
                        best[next_state] = next_cost
                        parents[next_state] = (state << 1) | 1
                        append(next_state)
    return None


def route_to_operand(pm, value_uid, tile, cycle,
                     max_movs=MAX_ROUTE_MOVS, blacklist=frozenset(),
                     memo=None, events=None):
    """Make the value readable by an instruction at ``(tile, cycle)``.

    Returns a :class:`Route` (possibly empty) or None.  ``memo`` — an
    optional dict shared across partial mappings — replays
    previously-searched queries (see the module docstring).
    ``events`` — the value's ``(rf_events, port_events)`` tuples when
    ``pm`` does not hold them: the binder's scorer passes the events
    an unbuilt placement adds (a symbol's home, a result and its
    earlier routes' MOVs); by default they are read from ``pm``.
    """
    if events is None:
        rf_events = pm.rf_avail.get(value_uid, ())
        port_events = pm.port_events.get(value_uid, ())
    else:
        rf_events, port_events = events
    # A value already readable at (tile, cycle) routes for free.
    for event_tile, event_cycle in rf_events:
        if event_tile == tile:
            if event_cycle <= cycle:
                return Route([])
            break
    if port_events:
        neighbors = pm.cgra.neighbor_table[tile]
        for event_tile, event_cycle in port_events:
            if event_cycle == cycle and event_tile in neighbors:
                return Route([])
    return _memoised(_search_operand, memo, "op", pm, rf_events,
                     port_events, tile, cycle, max_movs, blacklist)


def route_to_rf(pm, value_uid, tile, deadline,
                max_movs=MAX_ROUTE_MOVS, blacklist=frozenset(),
                memo=None):
    """Land the value in ``tile``'s RF no later than ``deadline``.

    ``deadline`` is an availability cycle: ``rf(tile, c <= deadline)``.
    Returns a :class:`Route` or None.  ``memo`` as in
    :func:`route_to_operand`.
    """
    rf_events = pm.rf_avail.get(value_uid, ())
    for event_tile, event_cycle in rf_events:
        if event_tile == tile:
            if event_cycle <= deadline:
                return Route([])
            break
    return _memoised(_search_landing, memo, "rf", pm, rf_events,
                     pm.port_events.get(value_uid, ()), tile, deadline,
                     max_movs, blacklist)


def commit_route(pm, value_uid, route):
    """Insert the route's MOVs into the partial mapping."""
    for tile, cycle in route.movs:
        pm.add_mov(tile, cycle, value_uid)
        pm.record_production(value_uid, tile, cycle)
