"""Tile / hex assignment stages (TileLasFile + HexBinning semantics).

Pattern: one tiny global extent aggregate → grid params broadcast via
closure (they are a handful of floats — cheaper than ray.put) → a
stateless vectorized ``map_batches`` computes the cell id per row →
per-batch PARTIAL aggregation (one row per cell per batch) →
``groupby(cell).aggregate(Sum/Min/Max)`` over the partials. The shuffle
therefore moves O(#cells × #blocks) rows, not O(#points) — the scale
strategy for 100 TB inputs (SURVEY.md §7.4).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from ..core.tiles import HexGrid, RectGrid
from .points import extent_of, read_points


def _partial_cell_stats(tile: np.ndarray, z: np.ndarray) -> pd.DataFrame:
    """Per-batch combiner: stats per cell within this batch."""
    df = pd.DataFrame({"tile_id": tile, "z": z})
    g = df.groupby("tile_id", sort=False)["z"]
    out = g.agg(n="count", s="sum", mn="min", mx="max").reset_index()
    return out


def tile_counts(sf_dir: str, width: float = 250.0,
                origin_x: float = 0.0, origin_y: float = 0.0):
    """Per-tile count + sum/mean of z using the TileLasFile rule.

    Returns columns (tile_id, n_points, sum_z, min_z, max_z).
    """
    pts = read_points(sf_dir)
    minx, miny, maxx, maxy = extent_of(pts)
    grid = RectGrid.from_extent(minx, miny, maxx, maxy,
                                origin_x, origin_y, width, width)

    def partial(batch):
        tile = grid.tile_of(batch["x"], batch["y"])
        return _partial_cell_stats(tile, batch["z"])

    partials = pts.map_batches(partial, batch_format="numpy")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("tile_id", sort=True).agg(
            n_points=("n", "sum"), sum_z=("s", "sum"),
            min_z=("mn", "min"), max_z=("mx", "max")).reset_index()
        g["n_points"] = g["n_points"].astype("int64")
        g["sum_z"] = g["sum_z"].round(6)
        return g

    from .util import combine
    return combine(partials, "tile_id", fold), grid


def hex_counts(sf_dir: str, width: float = 250.0):
    """HexBinning: per-hex point counts (nearest-hex-center assignment,
    HexBinning.groovy:166-206). Returns (hex_id, n_points)."""
    pts = read_points(sf_dir)
    minx, miny, maxx, maxy = extent_of(pts)
    grid = HexGrid(minx=minx, maxy=maxy,
                   extent_w=maxx - minx, extent_h=maxy - miny, width=width)

    def partial(batch):
        hexid = grid.hex_of(batch["x"], batch["y"])
        df = pd.DataFrame({"hex_id": hexid})
        return df.groupby("hex_id", sort=False).size().rename("n").reset_index()

    partials = pts.map_batches(partial, batch_format="numpy")

    def fold(df):
        g = df.groupby("hex_id", sort=True)["n"].sum().reset_index()
        return g.rename(columns={"n": "n_points"}).astype(
            {"n_points": "int64"})

    from .util import combine
    return combine(partials, "hex_id", fold), grid
