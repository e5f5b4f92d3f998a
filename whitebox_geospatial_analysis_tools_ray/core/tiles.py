"""Tile / hex-cell assignment math (pure numpy + matching SQL generators).

Reproduces the reference's two canonical spatial partitioning rules:

- Rectangular tiling — ``TileLasFile.groovy:120-176`` (reference repo):
  ``startXGrid = floor((minX - originX)/widthX)``,
  ``col = floor((x - originX)/widthX) - startXGrid`` (same for row with Y),
  ``cols = ceil((maxX - originX)/widthX) - startXGrid``,
  ``tile = row * cols + col``.

- Hexagonal binning (horizontal orientation) —
  ``HexBinning.groovy:106-206``: hex centers laid out row-major from the
  top-left of the extent; a point belongs to its NEAREST hex center
  (the reference uses a KdTree; we use the closed-form candidate search,
  which is exact because the nearest hex center is always one of the
  four candidates from the two nearest rows).

These cell ids are the engine's partition keys for spatial shuffles
(groupby-shuffle spatial joins, zonal aggregation, kNN cell joins), per
BASELINE.json's north rule (H3/S2-style cell encoding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# Rectangular tiling (TileLasFile rule)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RectGrid:
    """Tile grid derived from a data extent, per TileLasFile.groovy:120-128."""

    origin_x: float
    origin_y: float
    width_x: float
    width_y: float
    start_x: int  # floor((minX-originX)/widthX)
    start_y: int
    cols: int     # ceil((maxX-originX)/widthX) - start_x
    rows: int

    @classmethod
    def from_extent(cls, minx: float, miny: float, maxx: float, maxy: float,
                    origin_x: float = 0.0, origin_y: float = 0.0,
                    width_x: float = 250.0, width_y: float = 250.0) -> "RectGrid":
        sx = int(math.floor((minx - origin_x) / width_x))
        ex = int(math.ceil((maxx - origin_x) / width_x))
        sy = int(math.floor((miny - origin_y) / width_y))
        ey = int(math.ceil((maxy - origin_y) / width_y))
        return cls(origin_x, origin_y, width_x, width_y,
                   sx, sy, abs(ex - sx), abs(ey - sy))

    def tile_of(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorized tile id; exact floor arithmetic as the reference."""
        col = np.floor((np.asarray(x) - self.origin_x) / self.width_x).astype(np.int64) - self.start_x
        row = np.floor((np.asarray(y) - self.origin_y) / self.width_y).astype(np.int64) - self.start_y
        return row * self.cols + col

    def rowcol_of(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        col = np.floor((np.asarray(x) - self.origin_x) / self.width_x).astype(np.int64) - self.start_x
        row = np.floor((np.asarray(y) - self.origin_y) / self.width_y).astype(np.int64) - self.start_y
        return row, col


def rect_tile_sql(x: str, y: str, grid: RectGrid) -> str:
    """SQL expression for ``tile_of`` given a concrete (driver-computed) grid."""
    g = grid
    col = f"(CAST(floor((({x}) - {g.origin_x!r}) / {g.width_x!r}) AS BIGINT) - {g.start_x})"
    row = f"(CAST(floor((({y}) - {g.origin_y!r}) / {g.width_y!r}) AS BIGINT) - {g.start_y})"
    return f"({row} * {g.cols} + {col})"


# ---------------------------------------------------------------------------
# Hex binning (HexBinning rule, horizontal orientation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HexGrid:
    """Hex-center lattice per HexBinning.groovy:106-111 (horizontal)."""

    minx: float
    maxy: float
    extent_w: float
    extent_h: float
    width: float

    @property
    def half_width(self) -> float:
        return 0.5 * self.width

    @property
    def size(self) -> float:
        return self.half_width / math.cos(math.pi / 6)

    @property
    def tq_height(self) -> float:  # three-quarter height, the row pitch
        return 0.75 * (2.0 * self.size)

    @property
    def cx0(self) -> float:
        return self.minx + self.half_width

    @property
    def cy0(self) -> float:
        return self.maxy - 0.25 * (2.0 * self.size)

    @property
    def n_rows(self) -> int:
        return int(math.ceil(self.extent_h / self.tq_height))

    def cols_in_row(self, row: int) -> int:
        return int(math.ceil((self.extent_w + self.half_width * (row % 2)) / self.width))

    @property
    def cols_even(self) -> int:
        return self.cols_in_row(0)

    @property
    def cols_odd(self) -> int:
        return self.cols_in_row(1)

    def row_start_index(self, row: np.ndarray) -> np.ndarray:
        """Row-major hex index offset: prefix sum of alternating row widths."""
        row = np.asarray(row, dtype=np.int64)
        n_even = (row + 1) // 2   # rows 0,2,4,... strictly below `row`
        n_odd = row // 2
        return n_even * self.cols_even + n_odd * self.cols_odd

    def center_x(self, row: np.ndarray, col: np.ndarray) -> np.ndarray:
        return (self.cx0 - self.half_width * (np.asarray(row) % 2)) + np.asarray(col) * self.width

    def center_y(self, row: np.ndarray) -> np.ndarray:
        return self.cy0 - np.asarray(row) * self.tq_height

    def hex_of(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Nearest-hex-center assignment (exact closed-form candidate search).

        The reference queries a KdTree of all centers
        (HexBinning.groovy:166-206); the nearest center always lies in
        one of the two rows bracketing y and, within a row, at one of
        the two columns bracketing x — evaluate the 4 candidates and
        take the min squared distance (ties → lower index, matching the
        deterministic-scan behaviour we standardize on).
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        rr = (self.cy0 - y) / self.tq_height
        best_d2 = np.full(x.shape, np.inf)
        best_idx = np.zeros(x.shape, dtype=np.int64)
        nrows = self.n_rows
        for dr in (0, 1):
            row = np.clip(np.floor(rr).astype(np.int64) + dr, 0, nrows - 1)
            cy = self.center_y(row)
            row_off = self.cx0 - self.half_width * (row % 2)
            ncols = np.where(row % 2 == 0, self.cols_even, self.cols_odd)
            cc = (x - row_off) / self.width
            for dc in (0, 1):
                col = np.clip(np.floor(cc).astype(np.int64) + dc, 0, ncols - 1)
                cx = row_off + col * self.width
                d2 = (x - cx) ** 2 + (y - cy) ** 2
                idx = self.row_start_index(row) + col
                take = (d2 < best_d2) | ((d2 == best_d2) & (idx < best_idx))
                best_d2 = np.where(take, d2, best_d2)
                best_idx = np.where(take, idx, best_idx)
        return best_idx
