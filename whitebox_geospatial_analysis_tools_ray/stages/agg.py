"""Grouped aggregation stages: cell aggregates & zonal statistics.

Reference semantics:
- VectorPointsToRaster collision aggregation
  (``ConversionTools/src/plugins/VectorPointsToRaster.java:315-473``):
  points grouped by destination cell; min / max / sum / mean / range,
  plus ORDER-SENSITIVE first / last — resolved deterministically by
  record number (we carry ``rec_id`` and use min/max rec_id, which is
  exactly the reference's file order).
- ExtractStatistics zonal stats
  (``StatsTools/src/plugins/ExtractStatistics.java:258-443``): per-zone
  average / minimum / maximum / range / SAMPLE std-dev
  (``:351 sqrt(totalDeviation/(n-1))``) / total.

Physical plan: per-batch partial aggregation inside ``map_batches``
(one row per key per batch) → ``util.combine`` keyed on the group
column for the final per-key fold. The shuffle moves O(keys × blocks)
rows — the 100 TB-safe partial+final pattern (SURVEY.md §2.5).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from ..core.tiles import RectGrid
from ..sources import read_table
from .util import combine, groupwise_combine


def cell_aggregates(points: "rd.Dataset", grid: RectGrid,
                    round_to: int = 6) -> "rd.Dataset":
    """VectorPointsToRaster-style per-cell aggregation of point z values.

    Output: (tile_id, n, min_z, max_z, sum_z, mean_z, range_z,
    first_z, last_z) — first/last by rec_id order.
    """

    def partial(batch):
        tile = grid.tile_of(batch["x"], batch["y"])
        df = pd.DataFrame({"tile_id": tile,
                           "rec_id": np.asarray(batch["rec_id"], dtype=np.int64),
                           "z": np.asarray(batch["z"], dtype=np.float64)})
        df = df.sort_values("rec_id", kind="stable")
        g = df.groupby("tile_id", sort=False)
        out = g["z"].agg(n="count", s="sum", mn="min", mx="max",
                         first_z="first", last_z="last").reset_index()
        rec = g["rec_id"].agg(rec_first="first", rec_last="last").reset_index(drop=True)
        return pd.concat([out, rec], axis=1)

    partials = points.map_batches(partial, batch_format="numpy")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        n = int(g["n"].sum())
        s = float(g["s"].sum())
        i_first = int(g["rec_first"].idxmin())
        i_last = int(g["rec_last"].idxmax())
        return pd.DataFrame({
            "tile_id": [int(g["tile_id"].iloc[0])],
            "n": [n],
            "min_z": [float(g["mn"].min())],
            "max_z": [float(g["mx"].max())],
            "sum_z": [round(s, round_to)],
            "mean_z": [round(s / n, round_to)],
            "range_z": [float(g["mx"].max() - g["mn"].min())],
            "first_z": [float(g.loc[i_first, "first_z"])],
            "last_z": [float(g.loc[i_last, "last_z"])],
        })

    return combine(partials, "tile_id", groupwise_combine(final, "tile_id"))


def zonal_stats(sf_dir: str, round_to: int = 6) -> "rd.Dataset":
    """ExtractStatistics over zones = documents.lang, data = n_chars.

    Output: (lang, n, avg_z, min_z, max_z, range_z, total_z, std_z).
    """
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        z = batch["n_chars"].astype("float64")
        # null lang groups under '' (pandas groupby would silently
        # DROP NaN keys — the dirty-shard rule shared with the oracle)
        df = pd.DataFrame({"lang": batch["lang"].fillna(""),
                           "z": z, "z2": z * z})
        g = df.groupby("lang", sort=False)
        return g.agg(n=("z", "count"), s=("z", "sum"), s2=("z2", "sum"),
                     mn=("z", "min"), mx=("z", "max")).reset_index()

    partials = ds.map_batches(partial, batch_format="pandas")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        n = int(g["n"].sum())
        s = float(g["s"].sum())
        s2 = float(g["s2"].sum())
        var = max(0.0, (s2 - s * s / n)) / (n - 1) if n > 1 else 0.0
        return pd.DataFrame({
            "lang": [g["lang"].iloc[0]],
            "n": [n],
            "avg_z": [round(s / n, round_to)],
            "min_z": [float(g["mn"].min())],
            "max_z": [float(g["mx"].max())],
            "range_z": [float(g["mx"].max() - g["mn"].min())],
            "total_z": [round(s, round_to)],
            "std_z": [round(float(np.sqrt(var)), round_to)],
        })

    return combine(partials, "lang", groupwise_combine(final, "lang"))


def value_histogram(sf_dir: str, nbins: int = 20) -> "rd.Dataset":
    """StatsTools Histogram (Histogram.java): fixed-width bins over
    n_chars ∈ [global min, global max]; partial per-batch histograms
    summed per bin. Output (bin_id, bin_count)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["n_chars"])

    def mm_partial(b):
        z = np.asarray(b["n_chars"], dtype=np.float64)
        return pd.DataFrame({"lo": [float(z.min())], "hi": [float(z.max())]})

    mm = ds.map_batches(mm_partial, batch_format="numpy").to_pandas()
    if len(mm) == 0:        # empty table -> typed empty histogram
        import ray.data as _rd
        return _rd.from_pandas(pd.DataFrame({
            "bin_id": pd.Series([], dtype="int64"),
            "bin_count": pd.Series([], dtype="int64")}))
    lo, hi = float(mm["lo"].min()), float(mm["hi"].max())
    width = (hi - lo) / nbins if hi > lo else 1.0

    def partial(batch):
        z = np.asarray(batch["n_chars"], dtype=np.float64)
        b = np.minimum(((z - lo) / width).astype(np.int64), nbins - 1)
        ids, counts = np.unique(b, return_counts=True)
        return {"bin_id": ids, "c": counts.astype(np.int64)}

    partials = ds.map_batches(partial, batch_format="numpy")

    def bin_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bin_id", sort=True)["c"].sum().reset_index()
        return g.rename(columns={"c": "bin_count"}).astype(
            {"bin_count": "int64"})

    return combine(partials, "bin_id", bin_counts)
