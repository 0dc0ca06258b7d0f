"""2D-mesh torus interconnect between tiles.

Tiles are indexed row-major; each tile's output port feeds its four
torus neighbours (wrap-around in both dimensions).  On a 4x4 torus the
per-dimension distance is ``min(d, n - d) <= 2`` and the diameter is 4.
"""

from __future__ import annotations

from repro.errors import ArchitectureError


class TorusInterconnect:
    """Neighbourhoods and hop distances on an ``rows x cols`` torus."""

    def __init__(self, rows, cols):
        if rows <= 0 or cols <= 0:
            raise ArchitectureError("torus dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self._neighbors = {}
        for index in range(rows * cols):
            self._neighbors[index] = self._compute_neighbors(index)
        # Hop distances are looked up on every routing bound check, so
        # the full n x n table is materialised once per interconnect.
        self._distances = tuple(
            tuple(self._compute_distance(a, b)
                  for b in range(rows * cols))
            for a in range(rows * cols))

    # ------------------------------------------------------------------
    def index(self, row, col):
        """Row-major tile index with torus wrap."""
        return (row % self.rows) * self.cols + (col % self.cols)

    def coords(self, index):
        """(row, col) of a tile index."""
        if not 0 <= index < self.rows * self.cols:
            raise ArchitectureError(f"tile index {index} out of range")
        return divmod(index, self.cols)

    def _compute_neighbors(self, index):
        row, col = self.coords(index)
        candidates = [
            self.index(row - 1, col),
            self.index(row + 1, col),
            self.index(row, col - 1),
            self.index(row, col + 1),
        ]
        # On degenerate tori (n<=2) wrap-around can alias; dedupe and
        # never include the tile itself.
        ordered = []
        for candidate in candidates:
            if candidate != index and candidate not in ordered:
                ordered.append(candidate)
        return tuple(ordered)

    def neighbors(self, index):
        """Tiles whose input muxes see ``index``'s output port."""
        return self._neighbors[index]

    def _compute_distance(self, a, b):
        ra, ca = self.coords(a)
        rb, cb = self.coords(b)
        dr = abs(ra - rb)
        dc = abs(ca - cb)
        return min(dr, self.rows - dr) + min(dc, self.cols - dc)

    def distance(self, a, b):
        """Minimal hop count between two tiles on the torus."""
        return self._distances[a][b]

    def distance_row(self, a):
        """Tuple of hop distances from ``a`` to every tile."""
        return self._distances[a]

    @property
    def n_tiles(self):
        return self.rows * self.cols

    def __repr__(self):
        return f"TorusInterconnect({self.rows}x{self.cols})"
