"""Flagship pipeline — the BASELINE.json headline workload.

documents (web pages) → geocode to point features → tile assignment
(TileLasFile rule over the world extent) → broadcast spatial join
against the polygon zone table (even-odd PIP, grid index cached per
worker process) → per-(tile, zone) aggregation. One scan of the input,
one small shuffle of pre-aggregated partials — the shape that must hold
at 10^12 documents.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..core.features import seeded_polygons
from ..core.rng import EAST, NORTH, SOUTH, WEST, geocode_xy
from ..core.tiles import RectGrid
from ..sources import read_table
from ..stages.spatial_join import BroadcastPIPJoin, cached_join
from ..stages.util import combine

KEYS = ["tile_id", "zone_id"]


def zone_tile_counts(ds: "rd.Dataset", points, tile_width: float,
                     count_col: str, sum_col: str | None = None,
                     **map_args) -> "rd.Dataset":
    """The fused geo-join kernel both flagships share.

    Per batch: ``points(batch) -> (x, y, w)`` → PIP pairs against the
    broadcast polygon zones (index cached per worker process) → tile id
    → partial (count, Σw) per (tile, zone), summed in int64; ``w`` holds
    integer weights, or is None when only counts are wanted. One task
    pass per batch, then one bounded-key combine. Returns (tile_id,
    zone_id, <count_col>[, <sum_col>]).

    A plain task, not an actor pool: the index build is ~3 ms for a
    broadcast-sized zone table and is cached per worker process, while
    an actor costs ~1-2 s to spin up and, on a 1-CPU session, holds the
    only CPU so the read tasks never run.
    """
    zones_ref = ray.put(seeded_polygons())
    grid = RectGrid.from_extent(WEST, SOUTH, EAST, NORTH,
                                width_x=tile_width, width_y=tile_width)

    def geo_join(batch) -> dict:
        x, y, w = points(batch)
        pairs = cached_join(BroadcastPIPJoin, zones_ref, "inner")(
            {"rec_id": np.arange(len(x), dtype=np.int64), "x": x, "y": y})
        pos = pairs["rec_id"].to_numpy()
        tile = grid.tile_of(x[pos], y[pos])
        zone = pairs["zone_id"].to_numpy()
        # partial (count, Σw) per (tile, zone): one sort, then int64
        # segment sums over the runs of equal keys
        order = np.lexsort((zone, tile))
        tile, zone = tile[order], zone[order]
        new = np.ones(len(tile), dtype=bool)
        new[1:] = (tile[1:] != tile[:-1]) | (zone[1:] != zone[:-1])
        first = np.flatnonzero(new)
        count = np.diff(np.append(first, len(tile))).astype(np.int64)
        total = (np.zeros(len(first), dtype=np.int64) if w is None else
                 np.add.reduceat(np.asarray(w, dtype=np.int64)[pos[order]],
                                 first))
        return {"tile_id": tile[first], "zone_id": zone[first],
                "c": count, "s": total}

    aggs = {count_col: ("c", "sum")}
    if sum_col:
        aggs[sum_col] = ("s", "sum")

    def tile_zone_sums(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(KEYS, sort=True).agg(**aggs).reset_index()
        return g.astype({c: "int64" for c in aggs})

    return combine(ds.map_batches(geo_join, **map_args), KEYS, tile_zone_sums)


def flagship(sf_dir: str, tile_width: float = 250.0) -> "rd.Dataset":
    """Returns (tile_id, zone_id, n_points) for points falling in zones."""
    def doc_xy(batch):
        x, y = geocode_xy(np.asarray(batch["doc_id"], dtype=np.int64))
        return x, y, None

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return zone_tile_counts(ds, doc_xy, tile_width, "n_points",
                            batch_format="numpy", batch_size=32768)
