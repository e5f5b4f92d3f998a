"""Raster reclass / global-stat / two-raster stages (SURVEY.md §2.2, §2.5).

Reference semantics covered here:
- ReclassEqualInterval (GISTools/src/plugins/ReclassEqualInterval.java):
  value → equal-interval class index from a base value; NoData propagates.
- ZScores (StatsTools/src/plugins/ZScores.java): (x − μ)/σ with the
  SAMPLE std-dev over valid cells; two-phase (global aggregate → map).
- RescaleImageValueRange (Scripts/RescaleImageValueRange.groovy): linear
  rescale to [0, 1] from the global min/max.
- Aggregate (RasterCreation/src/plugins/Aggregate.java:235-352): a×a
  cell blocks reduced to one value (mean/sum/min/max of valid cells) —
  tile-local because tiles are full-width row bands with tile_rows a
  multiple of the factor.
- CrossTabulation (StatsTools/src/plugins/CrossTabulation.java):
  contingency counts between two categorical rasters.
- ImageCorrelation / ImageRegression (StatsTools, 381/425 LoC): Pearson
  r / OLS y~x between two rasters over mutually valid cells, via
  distributed partial moments (Σx, Σy, Σxy, Σx², Σy², n) + driver final.

Two-phase global stats round the broadcast scalars (μ, σ, …) to
`_STAT_ROUND` decimals before the per-cell map so the distributed
partial-sum accumulation order can never flip a downstream rounded
value vs the SQL oracle computing the identical expression.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import ray.data as rd
from ray.data.aggregate import Max, Min, Sum

from ..core.rng import NODATA
from .raster import (RasterSpec, band_pairs, padded_band, raster_map,
                     synth_value, tile_task)
from .util import combine, groupwise_combine

_A2 = 2246822519
_C2 = 12345
_A3 = 2654435761
_C3 = 999331
_M = 4294967296

# round broadcast global stats to this many decimals (coarser than any
# cross-engine accumulation discrepancy, so both sides agree exactly)
_STAT_ROUND = 4


def synth_value_b(cell: np.ndarray) -> np.ndarray:
    """Second deterministic raster for two-raster ops. SQL mirror:
    ``CASE WHEN ((cell*2654435761+999331)%4294967296)%19=0 THEN -32768.0
    ELSE ((cell*2246822519+12345)%4294967296)/4294967296.0*1000.0 END``"""
    cell = np.asarray(cell, dtype=np.int64)
    v = ((cell * _A2 + _C2) % _M).astype(np.float64) / float(_M) * 1000.0
    nod = ((cell * _A3 + _C3) % _M) % 19 == 0
    return np.where(nod, NODATA, v)


def synth_raster_pair(spec: RasterSpec) -> "rd.Dataset":
    """One Dataset with both rasters' tiles: (tile_id, data, data_b).
    Generating the pair inside one task = the co-partitioned zip of two
    tile datasets (no shuffle), as SURVEY.md §2.2 prescribes."""

    def gen(tid: int) -> dict:
        cell = spec.band_cells(tid)
        return {"tile_id": [tid],
                "data": [synth_value(cell)],
                "data_b": [synth_value_b(cell)]}

    return tile_task(spec.n_tiles, gen)


def synth_raster_b(spec: RasterSpec) -> "rd.Dataset":
    """The second raster alone as a tile Dataset (tile_id, data)."""

    def gen(tid: int) -> dict:
        cell = spec.band_cells(tid)
        return {"tile_id": [tid], "data": [synth_value_b(cell)]}

    return tile_task(spec.n_tiles, gen)


def reclass_equal_interval(ds: "rd.Dataset", spec: RasterSpec,
                           interval: float = 100.0,
                           base: float = 0.0) -> "rd.Dataset":
    """value → floor((v − base)/interval) class index; NoData propagates."""
    return raster_map(
        ds, lambda a: np.floor((a - base) / interval), nodata=spec.nodata)


def _global_valid_stats(ds: "rd.Dataset", spec: RasterSpec) -> dict:
    """One pass: n, Σv, Σv² (and min/max) over valid cells."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        n = s = s2 = 0.0
        mn, mx = np.inf, -np.inf
        for data in batch["data"]:
            a = np.asarray(data, dtype=np.float64)
            a = a[a != spec.nodata]
            if len(a):
                n += len(a); s += a.sum(); s2 += (a * a).sum()
                mn = min(mn, a.min()); mx = max(mx, a.max())
        return pd.DataFrame({"n": [n], "s": [s], "s2": [s2],
                             "mn": [mn], "mx": [mx]})

    partials = ds.map_batches(partial, batch_format="pandas")
    row = partials.aggregate(Sum("n"), Sum("s"), Sum("s2"), Min("mn"), Max("mx"))
    n = float(row["sum(n)"]); s = float(row["sum(s)"]); s2 = float(row["sum(s2)"])
    mean = s / n
    var = (s2 - s * s / n) / (n - 1) if n > 1 else 0.0
    return {"n": n, "sum": s, "mean": mean,
            "std": float(np.sqrt(max(var, 0.0))),
            "min": float(row["min(mn)"]), "max": float(row["max(mx)"])}


def zscores(ds: "rd.Dataset", spec: RasterSpec) -> "rd.Dataset":
    st = _global_valid_stats(ds, spec)
    mu = round(st["mean"], _STAT_ROUND)
    sd = round(st["std"], _STAT_ROUND)
    return raster_map(ds, lambda a: (a - mu) / sd, nodata=spec.nodata)


def rescale_value_range(ds: "rd.Dataset", spec: RasterSpec) -> "rd.Dataset":
    st = _global_valid_stats(ds, spec)
    lo, hi = st["min"], st["max"]  # min/max are exact — no rounding needed
    return raster_map(ds, lambda a: (a - lo) / (hi - lo), nodata=spec.nodata)


def aggregate_downsample(ds: "rd.Dataset", spec: RasterSpec,
                         factor: int = 4, how: str = "mean",
                         round_to: int = 6) -> "rd.Dataset":
    """a×a block reduce → (block_row, block_col, value). Requires
    tile_rows % factor == 0 so blocks never straddle tiles."""
    assert spec.tile_rows % factor == 0 and spec.cols % factor == 0

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for tid, data in zip(batch["tile_id"], batch["data"]):
            a = np.asarray(data, dtype=np.float64).reshape(-1, spec.cols)
            H, W = a.shape
            blocks = a.reshape(H // factor, factor, W // factor, factor)
            blocks = blocks.transpose(0, 2, 1, 3).reshape(
                H // factor, W // factor, factor * factor)
            valid = blocks != spec.nodata
            nanb = np.where(valid, blocks, np.nan)
            n = valid.sum(axis=2)
            with np.errstate(invalid="ignore"):
                if how == "mean":
                    v = np.nanmean(np.where(n[..., None] > 0, nanb, 0.0), axis=2)
                elif how == "sum":
                    v = np.nansum(nanb, axis=2)
                elif how == "min":
                    v = np.nanmin(np.where(n[..., None] > 0, nanb, 0.0), axis=2)
                elif how == "max":
                    v = np.nanmax(np.where(n[..., None] > 0, nanb, 0.0), axis=2)
                else:
                    raise ValueError(how)
            v = np.where(n > 0, v, spec.nodata)
            br, bc = np.divmod(np.arange(v.size), v.shape[1])
            frames.append(pd.DataFrame({
                "block_row": spec.band(tid)[0] // factor + br,
                "block_col": bc,
                "value": np.round(v.ravel(), round_to)}))
        return pd.concat(frames, ignore_index=True)

    return ds.map_batches(per_tile, batch_format="pandas")


def cross_tabulation(pair: "rd.Dataset", spec: RasterSpec,
                     class_width: float = 100.0) -> "rd.Dataset":
    """Contingency counts (class_a, class_b, n) over mutually valid cells."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for _, a, b in band_pairs(batch):
            m = (a != spec.nodata) & (b != spec.nodata)
            ca = np.floor(a[m] / class_width).astype(np.int64)
            cb = np.floor(b[m] / class_width).astype(np.int64)
            df = pd.DataFrame({"class_a": ca, "class_b": cb})
            frames.append(df.groupby(["class_a", "class_b"], sort=False)
                          .size().rename("c").reset_index())
        return pd.concat(frames, ignore_index=True)

    partials = pair.map_batches(partial, batch_format="pandas")

    def pair_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["class_a", "class_b"], sort=True)["c"].sum().reset_index()
        return g.rename(columns={"c": "n"}).astype({"n": "int64"})

    return combine(partials, ["class_a", "class_b"], pair_counts)


def _pair_moments(pair: "rd.Dataset", spec: RasterSpec) -> dict:
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        n = sx = sy = sxy = sx2 = sy2 = 0.0
        for _, a, b in band_pairs(batch):
            m = (a != spec.nodata) & (b != spec.nodata)
            x, y = a[m], b[m]
            n += len(x); sx += x.sum(); sy += y.sum()
            sxy += (x * y).sum(); sx2 += (x * x).sum(); sy2 += (y * y).sum()
        return pd.DataFrame({"n": [n], "sx": [sx], "sy": [sy],
                             "sxy": [sxy], "sx2": [sx2], "sy2": [sy2]})

    partials = pair.map_batches(partial, batch_format="pandas")
    row = partials.aggregate(Sum("n"), Sum("sx"), Sum("sy"),
                             Sum("sxy"), Sum("sx2"), Sum("sy2"))
    return {k: float(row[f"sum({k})"]) for k in
            ("n", "sx", "sy", "sxy", "sx2", "sy2")}


def image_correlation(pair: "rd.Dataset", spec: RasterSpec,
                      round_to: int = 6) -> pd.DataFrame:
    """Pearson r between the rasters (ImageCorrelation.java pattern)."""
    m = _pair_moments(pair, spec)
    n, sx, sy, sxy, sx2, sy2 = (m["n"], m["sx"], m["sy"],
                                m["sxy"], m["sx2"], m["sy2"])
    r = ((n * sxy - sx * sy)
         / np.sqrt(n * sx2 - sx * sx) / np.sqrt(n * sy2 - sy * sy))
    return pd.DataFrame({"n": [int(n)], "r": [round(float(r), round_to)]})


def image_regression(pair: "rd.Dataset", spec: RasterSpec,
                     round_to: int = 6) -> pd.DataFrame:
    """OLS y~x between the rasters (ImageRegression.java pattern):
    slope = (nΣxy − ΣxΣy)/(nΣx² − (Σx)²), intercept = ȳ − slope·x̄."""
    m = _pair_moments(pair, spec)
    n, sx, sy, sxy, sx2 = m["n"], m["sx"], m["sy"], m["sxy"], m["sx2"]
    slope = (n * sxy - sx * sy) / (n * sx2 - sx * sx)
    intercept = sy / n - slope * (sx / n)
    return pd.DataFrame({"n": [int(n)],
                         "slope": [round(float(slope), round_to)],
                         "intercept": [round(float(intercept), round_to)]})


def histogram_equalize(ds: "rd.Dataset", spec: RasterSpec,
                       nbins: int = 1024, round_to: int = 6) -> "rd.Dataset":
    """HistogramEqualization (ImageProcessingTools/src/plugins/
    HistogramEqualization.java pattern): global histogram → CDF → remap
    each valid cell to its cumulative fraction (two-phase fit/apply).
    Bin counts are exact integers, so CDF fractions are bit-identical
    across engines."""
    st = _global_valid_stats(ds, spec)
    lo, hi = st["min"], st["max"]
    width = (hi - lo) / nbins if hi > lo else 1.0

    def partial_hist(batch: pd.DataFrame) -> pd.DataFrame:
        counts = np.zeros(nbins, dtype=np.int64)
        for data in batch["data"]:
            a = np.asarray(data, dtype=np.float64)
            a = a[a != spec.nodata]
            b = np.minimum(((a - lo) / width).astype(np.int64), nbins - 1)
            counts += np.bincount(b, minlength=nbins)
        return pd.DataFrame({"bin": np.arange(nbins, dtype=np.int64),
                             "c": counts})

    hist = (ds.map_batches(partial_hist, batch_format="pandas")
            .to_pandas().groupby("bin")["c"].sum().to_numpy())
    cdf = hist.cumsum().astype(np.float64) / hist.sum()

    def remap(a: np.ndarray) -> np.ndarray:
        # clip handles NoData sentinels passing through raster_map (their
        # output is overwritten with NoData afterwards)
        b = np.clip(((a - lo) / width).astype(np.int64), 0, nbins - 1)
        return cdf[b]

    return raster_map(ds, remap, nodata=spec.nodata)


def resample_nn(spec: RasterSpec, out_rows: int, out_cols: int,
                round_to: int = 6) -> "rd.Dataset":
    """Resample (ImageProcessingTools/src/plugins/Resample.java, 411 LoC)
    nearest-neighbour variant onto an out_rows×out_cols grid over the
    same extent: output cell (r, c) takes the input cell whose centre is
    nearest — src_r = floor((r + 0.5) · in_rows/out_rows) for aligned
    extents.

    Distributed shape: each OUTPUT row-band tile computes its source row
    range (contiguous for axis-aligned regridding) and regenerates/reads
    exactly those input rows — a gather keyed by target tile, no
    all-to-all. Output: per-output-row checksums."""
    grid = RasterSpec(rows=out_rows, cols=out_cols, tile_rows=max(
        1, spec.tile_rows * out_rows // spec.rows))
    ry = spec.rows / out_rows
    rx = spec.cols / out_cols

    def per_tile(tid: int) -> pd.DataFrame:
        o0, o1 = grid.band(tid)
        src_rows = ((np.arange(o0, o1) + 0.5) * ry).astype(np.int64)
        src_cols = ((np.arange(out_cols) + 0.5) * rx).astype(np.int64)
        r_lo, r_hi = int(src_rows.min()), int(src_rows.max()) + 1
        cell = np.arange(r_lo * spec.cols, r_hi * spec.cols,
                         dtype=np.int64)
        src = synth_value(cell).reshape(-1, spec.cols)
        out = src[src_rows - r_lo][:, src_cols]
        valid = out != spec.nodata
        return pd.DataFrame({
            "row_id": np.arange(o0, o1),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "row_sum": np.round(np.where(valid, out, 0.0).sum(axis=1),
                                round_to)})

    return tile_task(grid.n_tiles, per_tile)


def contour_lengths(spec: RasterSpec, levels: tuple = (250.0, 500.0, 750.0),
                    round_to: int = 4) -> pd.DataFrame:
    """Contour (TerrainAnalysisTools/src/plugins/Contour.java, 1410 LoC)
    reduced to per-level total isoline LENGTH — length is additive across
    tiles, so marching squares runs per tile with a one-row halo and no
    ring stitching (``vectorize.contour_polylines`` assembles the
    polylines).

    Marching squares on cell-centre samples; NoData squares skipped;
    linear edge interpolation. Output: (level, total_length)."""
    from .raster import stencil_apply, synth_raster

    def kern_for(level: float):
        def kern(p: np.ndarray) -> np.ndarray:
            # compute segment length contributions of squares whose
            # top-left corner is each interior cell; store per-cell length
            z = p  # padded array; squares between (r,c)..(r+1,c+1)
            H, W = z.shape
            a = z[:-1, :-1]; b = z[:-1, 1:]; c_ = z[1:, :-1]; d = z[1:, 1:]
            valid = ((a != NODATA) & (b != NODATA)
                     & (c_ != NODATA) & (d != NODATA))
            out = np.zeros((H, W))
            with np.errstate(divide="ignore", invalid="ignore"):
                fa = a >= level; fb = b >= level
                fc = c_ >= level; fd = d >= level
                # interpolated crossing offsets on the 4 edges
                t_top = (level - a) / (b - a)
                t_bot = (level - c_) / (d - c_)
                t_left = (level - a) / (c_ - a)
                t_right = (level - b) / (d - b)

                def seg(x1, y1, x2, y2, m):
                    return np.where(m & valid,
                                    np.sqrt((x2 - x1) ** 2 + (y2 - y1) ** 2),
                                    0.0)

                code = (fa.astype(int) + fb.astype(int) * 2
                        + fc.astype(int) * 4 + fd.astype(int) * 8)
                ln = np.zeros_like(t_top)
                # corner cases (one corner isolated) and edge-pair cases
                ln += seg(t_top, 0.0, 0.0, t_left, (code == 1) | (code == 14))
                ln += seg(t_top, 0.0, 1.0, t_right, (code == 2) | (code == 13))
                ln += seg(0.0, t_left, t_bot, 1.0, (code == 4) | (code == 11))
                ln += seg(1.0, t_right, t_bot, 1.0, (code == 8) | (code == 7))
                ln += seg(0.0, t_left, 1.0, t_right, (code == 3) | (code == 12))
                ln += seg(t_top, 0.0, t_bot, 1.0, (code == 5) | (code == 10))
                # saddles (6, 9): resolve by centre average (standard rule)
                centre_hi = (a + b + c_ + d) / 4.0 >= level
                s6 = code == 6
                s9 = code == 9
                # code 6: b,c high. saddle splits into two segments
                ln += np.where(s6 & valid & centre_hi,
                               seg(t_top, 0.0, 1.0, t_right, s6)
                               + seg(0.0, t_left, t_bot, 1.0, s6), 0.0)
                ln += np.where(s6 & valid & ~centre_hi,
                               seg(t_top, 0.0, 0.0, t_left, s6)
                               + seg(1.0, t_right, t_bot, 1.0, s6), 0.0)
                ln += np.where(s9 & valid & centre_hi,
                               seg(t_top, 0.0, 0.0, t_left, s9)
                               + seg(1.0, t_right, t_bot, 1.0, s9), 0.0)
                ln += np.where(s9 & valid & ~centre_hi,
                               seg(t_top, 0.0, 1.0, t_right, s9)
                               + seg(0.0, t_left, t_bot, 1.0, s9), 0.0)
            out[:-1, :-1] = np.where(valid, np.nan_to_num(ln), 0.0)
            return out
        return kern

    rows = []
    ds = synth_raster(spec)
    for level in levels:
        # halo=1 gives each tile the row below; squares are keyed by their
        # top-left cell so every square is counted exactly once
        seg_ds = stencil_apply(ds, spec, kern_for(level), halo=1)

        def tot(batch: pd.DataFrame) -> pd.DataFrame:
            s = 0.0
            for data in batch["data"]:
                a = np.asarray(data, dtype=np.float64)
                s += a[a != spec.nodata].sum() if True else 0.0
            return pd.DataFrame({"s": [s]})

        from ray.data.aggregate import Sum
        total = seg_ds.map_batches(tot, batch_format="pandas").aggregate(Sum("s"))
        rows.append({"level": level,
                     "total_length": round(float(total["sum(s)"]), round_to)})
    return pd.DataFrame(rows)


def mosaic(spec: RasterSpec, offset_rows: int = 64,
           round_to: int = 6) -> "rd.Dataset":
    """Mosaic (ImageProcessingTools/src/plugins/Mosaic.java, 465 LoC)
    reduced to two sources on a shared grid: source A covers rows
    [0, spec.rows), source B covers [offset_rows, offset_rows+spec.rows);
    output grid spans their union; value = A where A is valid, else B,
    else NoData (the reference's last-resort nearest-image rule reduces
    to source order on a shared grid).

    Distributed shape: each OUTPUT row-band tile regenerates/reads only
    the source rows overlapping it — a per-tile gather keyed by extent
    (range join on extents per SURVEY §2.9 'Image geometry'), no shuffle."""
    grid = RasterSpec(rows=offset_rows + spec.rows, cols=spec.cols,
                      tile_rows=spec.tile_rows)

    def per_tile(tid: int) -> pd.DataFrame:
        rows = np.arange(*grid.band(tid))
        out = np.full((len(rows), spec.cols), NODATA)
        in_a = rows < spec.rows
        if in_a.any():
            cell = (rows[in_a][:, None] * spec.cols
                    + np.arange(spec.cols)[None, :])
            out[in_a] = synth_value(cell.ravel()).reshape(-1, spec.cols)
        src_b = rows - offset_rows
        in_b = (src_b >= 0) & (src_b < spec.rows)
        if in_b.any():
            cell = (src_b[in_b][:, None] * spec.cols
                    + np.arange(spec.cols)[None, :])
            b = synth_value_b(cell.ravel()).reshape(-1, spec.cols)
            sel = out[in_b]
            out[in_b] = np.where(sel == NODATA, b, sel)
        valid = out != NODATA
        return pd.DataFrame({
            "row_id": rows,
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "row_sum": np.round(np.where(valid, out, 0.0).sum(axis=1),
                                round_to)})

    return tile_task(grid.n_tiles, per_tile)


def ndvi(pair: "rd.Dataset", spec: RasterSpec,
         round_to: int = 6) -> "rd.Dataset":
    """NDVI (ImageProcessingTools/src/plugins/NDVI.java:210-219):
    (NIR − red)/(NIR + red); either input NoData OR zero sum → NoData.
    One zip-free pass over the co-generated pair raster; exemplar for
    the whole two-band index family (OSAVI etc. differ by constants)."""
    from .raster import raster_row_checksums

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, a, b in band_pairs(batch):
            valid = (a != spec.nodata) & (b != spec.nodata) & (a + b != 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                v = np.where(valid, (a - b) / (a + b), spec.nodata)
            out["tile_id"].append(int(tid))
            out["data"].append(v)
        return pd.DataFrame(out)

    return raster_row_checksums(
        pair.map_batches(per_tile, batch_format="pandas"), spec)


def morans_i(spec: RasterSpec, neighbours: str = "rook",
             round_to: int = 6) -> pd.DataFrame:
    """ImageAutocorrelation (StatsTools/src/plugins/ImageAutocorrelation
    .java:287-330): Moran's I with binary contiguity weights —
    I = n·Σ(z−μ)(zₙ−μ) / (Σ(z−μ)²·W), W = # valid neighbour pairs
    (counted directionally), plus the normality-variance terms
    S1 = 4W, S2 = 4·Σ wᵢ² (:320-328).

    Two passes, both overlap-read over the source-backed raster:
    global (n, Σz) then per-tile halo partials of the cross-products;
    one tiny aggregate each — no shuffle of cell data.
    """
    from ray.data.aggregate import Sum

    if neighbours == "rook":
        offs = ((1, 0), (0, 1), (-1, 0), (0, -1))
    elif neighbours in ("king", "queen"):
        offs = ((1, -1), (1, 0), (1, 1), (0, 1),
                (-1, 1), (-1, 0), (-1, -1), (0, -1))
    else:  # bishop
        offs = ((1, -1), (1, 1), (-1, 1), (-1, -1))

    def band(tid: int):
        r0, r1 = spec.band(tid)
        return padded_band(spec, tid, 1), slice(1, 1 + r1 - r0)

    def p1(tid: int) -> list:
        pad, sl = band(tid)
        z = pad[sl, 1:-1]
        v = z[z != spec.nodata]
        return [{"n": float(len(v)), "s": float(v.sum())}]

    agg1 = (tile_task(spec.n_tiles, p1)
            .aggregate(Sum("n"), Sum("s")))
    n = agg1["sum(n)"]
    mean = agg1["sum(s)"] / n

    def p2(tid: int) -> list:
        pad, sl = band(tid)
        z = pad[sl, 1:-1]
        valid = z != spec.nodata
        dev = np.where(valid, z - mean, 0.0)
        td = float((dev * dev).sum())
        kq = float((dev ** 4).sum())
        num = 0.0
        Wc = 0.0
        S2p = np.zeros_like(z)
        H = z.shape[0]
        for dc, dr in offs:
            nb = pad[sl.start + dr: sl.stop + dr,
                     1 + dc: 1 + spec.cols + dc]
            m = valid & (nb != spec.nodata)
            Wc += float(m.sum())
            num += float((dev * np.where(m, nb - mean, 0.0)).sum())
            S2p += m
        S2 = float((np.where(valid, S2p, 0.0) ** 2).sum())
        return [{"td": td, "k": kq, "num": num, "W": Wc, "S2": S2}]

    agg2 = (tile_task(spec.n_tiles, p2)
            .aggregate(Sum("td"), Sum("k"), Sum("num"), Sum("W"), Sum("S2")))
    td, num, W = agg2["sum(td)"], agg2["sum(num)"], agg2["sum(W)"]
    i_val = n * num / (td * W)
    return pd.DataFrame({
        "n": [int(n)],
        "mean": [round(mean, round_to)],
        "W": [int(W)],
        "morans_i": [round(i_val, round_to)]})


def histogram_match(pair: "rd.Dataset", spec: RasterSpec,
                    nbins: int = 256, round_to: int = 6) -> "rd.Dataset":
    """TwoImageHistogramMatching (ImageProcessingTools/src/plugins/
    TwoImageHistogramMatching.java, 433 LoC): remap raster A so its
    CDF matches raster B's — out(v) = centre of the smallest B bin
    whose CDF ≥ CDF_A(bin(v)). Two global histogram passes (exact
    integer counts → bit-identical CDFs across engines), a driver-built
    lookup table broadcast by closure, then one stateless remap.
    Output: row checksums of the matched raster."""
    from ray.data.aggregate import Max, Min, Sum
    from .raster import raster_row_checksums

    def minmax(col):
        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            lo, hi = np.inf, -np.inf
            for data in batch[col]:
                a = np.asarray(data, dtype=np.float64)
                a = a[a != spec.nodata]
                if len(a):
                    lo = min(lo, a.min()); hi = max(hi, a.max())
            return pd.DataFrame({"mn": [lo], "mx": [hi]})
        row = (pair.map_batches(partial, batch_format="pandas")
               .aggregate(Min("mn"), Max("mx")))
        return float(row["min(mn)"]), float(row["max(mx)"])

    lo_a, hi_a = minmax("data")
    lo_b, hi_b = minmax("data_b")
    w_a = (hi_a - lo_a) / nbins if hi_a > lo_a else 1.0
    w_b = (hi_b - lo_b) / nbins if hi_b > lo_b else 1.0

    def hist(col, lo, width):
        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            counts = np.zeros(nbins, dtype=np.int64)
            for data in batch[col]:
                a = np.asarray(data, dtype=np.float64)
                a = a[a != spec.nodata]
                b = np.minimum(((a - lo) / width).astype(np.int64),
                               nbins - 1)
                counts += np.bincount(b, minlength=nbins)
            return pd.DataFrame({"bin": np.arange(nbins, dtype=np.int64),
                                 "c": counts})
        h = (pair.map_batches(partial, batch_format="pandas")
             .to_pandas().groupby("bin")["c"].sum().to_numpy())
        return h

    ha = hist("data", lo_a, w_a)
    hb = hist("data_b", lo_b, w_b)
    cdf_a = ha.cumsum().astype(np.float64) / ha.sum()
    cdf_b = hb.cumsum().astype(np.float64) / hb.sum()
    # lookup: smallest B bin with cdf_b >= cdf_a[bin]
    tgt = np.searchsorted(cdf_b, cdf_a, side="left").clip(0, nbins - 1)
    lut = lo_b + (tgt + 0.5) * w_b

    def remap_tile(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, data in zip(batch["tile_id"], batch["data"]):
            a = np.asarray(data, dtype=np.float64)
            valid = a != spec.nodata
            b = np.clip(((a - lo_a) / w_a).astype(np.int64), 0, nbins - 1)
            v = np.where(valid, lut[b], spec.nodata)
            out["tile_id"].append(int(tid))
            out["data"].append(v)
        return pd.DataFrame(out)

    return raster_row_checksums(
        pair.map_batches(remap_tile, batch_format="pandas"), spec)


def fuzzy_membership(ds: "rd.Dataset", spec: RasterSpec,
                     midpoint: float = 500.0,
                     spread: float = 120.0) -> "rd.Dataset":
    """FuzzyMembership (StatsTools/src/plugins/FuzzyMembership.java,
    356 LoC — sigmoid membership): m = 1/(1 + e^{−(v−mid)/spread}),
    NoData propagated. One stateless map."""
    return raster_map(
        ds, lambda a: 1.0 / (1.0 + np.exp(-(a - midpoint) / spread)),
        nodata=spec.nodata)


def crispness_index(spec: RasterSpec, round_to: int = 6) -> pd.DataFrame:
    """CrispnessIndex (StatsTools/src/plugins/CrispnessIndex.java:230-270)
    over the synthetic membership image (synth/1000 ∈ [0,1)):
    C = Σ(z−μ)² / [(Σz·(1−μ))² + μ²·(N−Σz)]. One pass of partial
    moments + a tiny aggregate."""
    from ray.data.aggregate import Sum

    def partial(tid: int) -> list:
        cell = spec.band_cells(tid)
        z = synth_value(cell)
        v = z[z != spec.nodata] / 1000.0
        return [{"n": float(len(v)), "s": float(v.sum()),
                 "s2": float((v * v).sum())}]

    m = (tile_task(spec.n_tiles, partial)
         .aggregate(Sum("n"), Sum("s"), Sum("s2")))
    n, s, s2 = m["sum(n)"], m["sum(s)"], m["sum(s2)"]
    mu = s / n
    dev = s2 - 2.0 * mu * s + mu * mu * n  # Σ(z−μ)² from raw moments
    denom = (s * (1.0 - mu)) ** 2 + mu * mu * (n - s)
    return pd.DataFrame({"n": [int(n)],
                         "mean": [round(mu, round_to)],
                         "crispness": [round(dev / denom, round_to)]})


def rgb_ihs_roundtrip(spec: RasterSpec, round_to: int = 6) -> "rd.Dataset":
    """RGBtoIHS → IHStoRGB roundtrip (ImageProcessingTools/src/plugins/
    RGBtoIHS.java:295-329, IHStoRGB.java:267-282): three deterministic
    bands normalized to [0,1], forward then inverse per the reference's
    sector formulas; the roundtrip is the identity, so the checksum of
    r+g+b equals a closed-form SQL oracle — validating BOTH transforms.
    Per-cell math only: one stateless pass per tile."""
    from .raster import raster_row_checksums

    def per_tile(tid: int) -> dict:
        cell = spec.band_cells(tid)
        zr = synth_value(cell)
        zg = synth_value_b(cell)
        zb = synth_value((cell * 7 + 13) % (spec.rows * spec.cols))
        valid = (zr != spec.nodata) & (zg != spec.nodata) \
            & (zb != spec.nodata)
        r = np.clip(zr / 1000.0, 0.0, 1.0)
        g = np.clip(zg / 1000.0, 0.0, 1.0)
        b = np.clip(zb / 1000.0, 0.0, 1.0)
        m = np.minimum(np.minimum(r, g), b)
        i = r + g + b
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(i == 3.0, 0.0,
                np.where(m == b, (g - b) / (i - 3 * b),
                np.where(m == r, (b - r) / (i - 3 * r) + 1.0,
                         (r - g) / (i - 3 * g) + 2.0)))
            s = np.where(h <= 1.0, (i - 3 * b) / i,
                np.where(h <= 2.0, (i - 3 * r) / i, (i - 3 * g) / i))
            # inverse (IHStoRGB.java:267-282)
            r2 = np.where(h <= 1.0, i * (1 + 2 * s - 3 * s * h) / 3,
                 np.where(h <= 2.0, i * (1 - s) / 3,
                          i * (1 - s + 3 * s * (h - 2)) / 3))
            g2 = np.where(h <= 1.0, i * (1 - s + 3 * s * h) / 3,
                 np.where(h <= 2.0, i * (1 + 2 * s - 3 * s * (h - 1)) / 3,
                          i * (1 - s) / 3))
            b2 = np.where(h <= 1.0, i * (1 - s) / 3,
                 np.where(h <= 2.0, i * (1 - s + 3 * s * (h - 1)) / 3,
                          i * (1 + 2 * s - 3 * s * (h - 2)) / 3))
        # per-cell round at 4 decimals absorbs the ~1e-14 roundtrip
        # float error so the identity oracle matches bit-for-bit
        total = np.where(valid, np.round(r2 + g2 + b2, 4),
                         spec.nodata)
        return {"tile_id": [tid], "data": [total]}

    return raster_row_checksums(
        tile_task(spec.n_tiles, per_tile),
        spec, round_to=round_to)


def kappa_index(pair: "rd.Dataset", spec: RasterSpec,
                class_width: float = 200.0,
                round_to: int = 6) -> pd.DataFrame:
    """KappaIndex (StatsTools/src/plugins/KappaIndex.java:263-289):
    κ = (agreements − Σ rowTotal·colTotal/N) / (N − Σ …) over the
    contingency table of the two classified rasters; plus overall
    accuracy. One distributed contingency pass (the cross_tabulation
    partial+combine) and a driver finalize — the table is O(classes²)."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for _, a, b in band_pairs(batch):
            m = (a != spec.nodata) & (b != spec.nodata)
            ca = np.floor(a[m] / class_width).astype(np.int64)
            cb = np.floor(b[m] / class_width).astype(np.int64)
            df = pd.DataFrame({"class_a": ca, "class_b": cb})
            frames.append(df.groupby(["class_a", "class_b"], sort=False)
                          .size().rename("c").reset_index())
        return pd.concat(frames, ignore_index=True)

    tab = (pair.map_batches(partial, batch_format="pandas").to_pandas()
           .groupby(["class_a", "class_b"])["c"].sum().reset_index())
    N = float(tab["c"].sum())
    agree = float(tab.loc[tab["class_a"] == tab["class_b"], "c"].sum())
    row_tot = tab.groupby("class_a")["c"].sum()
    col_tot = tab.groupby("class_b")["c"].sum()
    classes = sorted(set(row_tot.index) | set(col_tot.index))
    expected = sum(float(row_tot.get(k, 0)) * float(col_tot.get(k, 0)) / N
                   for k in classes)
    kappa = (agree - expected) / (N - expected)
    return pd.DataFrame({"n": [int(N)], "agreements": [int(agree)],
                         "kappa": [round(kappa, round_to)],
                         "overall_accuracy": [round(agree / N, round_to)]})


def extract_valleys_pd(spec: RasterSpec) -> pd.DataFrame:
    """ExtractValleysPeuckerAndDouglas (WhiteboxGIS/resources/plugins/
    source_files/ExtractValleysPeuckerAndDouglas.java:164-216): for every
    valid anchor cell, the HIGHEST of the 2×2 window {NW, N, W, centre}
    (strict >, scan order NW→N→W, centre keeps ties) is marked non-valley;
    unmarked valid cells are valley candidates. Overlap-read stencil —
    anchors one halo row below each band can mark the band's last row.
    Output: (row_id, n_valid, n_valley)."""

    def per_tile(tid: int) -> pd.DataFrame:
        r0, r1 = spec.band(tid)
        lo, hi = max(r0 - 1, 0), min(r1 + 1, spec.rows)
        cell = np.arange(lo * spec.cols, hi * spec.cols, dtype=np.int64)
        z = synth_value(cell).reshape(hi - lo, spec.cols)
        pad = np.full((hi - lo + 2, spec.cols + 2), spec.nodata)
        pad[1:-1, 1:-1] = z
        zc = pad[1:-1, 1:-1]
        nw = pad[:-2, :-2]
        nn = pad[:-2, 1:-1]
        ww = pad[1:-1, :-2]
        valid = zc != spec.nodata
        # running strict-max selection, reference scan order
        maxz = zc.copy()
        sel = np.full(zc.shape, 3, dtype=np.int64)  # centre
        for k, nb in ((0, nw), (1, nn), (2, ww)):
            upd = valid & (nb != spec.nodata) & (nb > maxz)
            maxz = np.where(upd, nb, maxz)
            sel = np.where(upd, k, sel)
        # scatter: marked(cell) = selected by any anchor
        marked = np.zeros_like(valid)
        offs = {0: (-1, -1), 1: (-1, 0), 2: (0, -1), 3: (0, 0)}
        H, W = zc.shape
        for k, (dr, dc) in offs.items():
            src = valid & (sel == k)
            rr, cc = np.nonzero(src)
            tr, tc = rr + dr, cc + dc
            m = (tr >= 0) & (tc >= 0)
            marked[tr[m], tc[m]] = True
        core = slice(r0 - lo, r0 - lo + (r1 - r0))
        vc = valid[core]
        valley = vc & ~marked[core]
        return pd.DataFrame({
            "row_id": np.arange(r0, r1),
            "n_valid": vc.sum(axis=1).astype(np.int64),
            "n_valley": valley.sum(axis=1).astype(np.int64)})

    return (tile_task(spec.n_tiles, per_tile).to_pandas()
            .sort_values("row_id").reset_index(drop=True))


def paired_t_test(pair: "rd.Dataset", spec: RasterSpec,
                  round_to: int = 6) -> pd.DataFrame:
    """CompareImagesForDifferences (StatsTools/src/plugins/
    CompareImagesForDifferences.java:305-335, full-population variant):
    paired-sample t over mutually valid cells — one pass of partial
    moments (Σd, Σd², n) + a tiny aggregate; t = mean / (σ_d/√n)."""
    from ray.data.aggregate import Sum

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        n = s = s2 = 0.0
        for _, a, b in band_pairs(batch):
            m = (a != spec.nodata) & (b != spec.nodata)
            d = a[m] - b[m]
            n += len(d); s += d.sum(); s2 += (d * d).sum()
        return pd.DataFrame({"n": [n], "s": [s], "s2": [s2]})

    r = (pair.map_batches(partial, batch_format="pandas")
         .aggregate(Sum("n"), Sum("s"), Sum("s2")))
    n, s, s2 = r["sum(n)"], r["sum(s)"], r["sum(s2)"]
    mean = s / n
    var = (n * s2 - s * s) / (n * (n - 1.0))
    t = mean / (np.sqrt(var) / np.sqrt(n))
    return pd.DataFrame({"n": [int(n)],
                         "mean_diff": [round(mean, round_to)],
                         "t_stat": [round(float(t), round_to)]})


def highest_position(pair: "rd.Dataset", spec: RasterSpec) -> pd.DataFrame:
    """HighestPosition (Scripts/HighestPosition.groovy): per cell, the
    1-based index of the stack raster holding the max (first wins ties).
    With the two-raster pair: 1 where a ≥ b else 2; NoData propagates.
    Output: per-row counts (row_id, n_valid, n_first)."""

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for tid, a, b in band_pairs(batch):
            a, b = a.reshape(-1, spec.cols), b.reshape(-1, spec.cols)
            m = (a != spec.nodata) & (b != spec.nodata)
            first = m & (a >= b)
            frames.append(pd.DataFrame({
                "row_id": spec.band(tid)[0] + np.arange(a.shape[0]),
                "n_valid": m.sum(axis=1).astype(np.int64),
                "n_first": first.sum(axis=1).astype(np.int64)}))
        return pd.concat(frames, ignore_index=True)

    return (pair.map_batches(per_tile, batch_format="pandas").to_pandas()
            .sort_values("row_id").reset_index(drop=True))


def colour_composite(pair: "rd.Dataset", spec: RasterSpec,
                     return_packed: bool = False) -> "rd.Dataset":
    """CreateColourComposite (ImageProcessingTools/src/plugins/
    CreateColourComposite.java:250-268): bands min-max normalized to
    0-255 (Java (int) truncation), packed (255<<24)|(b<<16)|(g<<8)|r as
    a double. Bands: a → red, b → green, permuted-index synth → blue.
    Two-phase global min/max fit → stateless pack; row checksums."""
    from ray.data.aggregate import Max, Min
    from .raster import raster_row_checksums

    n_cells = spec.rows * spec.cols

    def third(cell):
        return synth_value((cell * 7 + 13) % n_cells)

    def minmax(batch: pd.DataFrame) -> pd.DataFrame:
        out = {}
        for name, col in (("r", "data"), ("g", "data_b")):
            lo, hi = np.inf, -np.inf
            for d in batch[col]:
                a = np.asarray(d, dtype=np.float64)
                a = a[a != spec.nodata]
                if len(a):
                    lo = min(lo, a.min()); hi = max(hi, a.max())
            out[f"{name}lo"], out[f"{name}hi"] = [lo], [hi]
        lo, hi = np.inf, -np.inf
        for tid in batch["tile_id"]:
            a = third(spec.band_cells(tid))
            a = a[a != spec.nodata]
            if len(a):
                lo = min(lo, a.min()); hi = max(hi, a.max())
        out["blo"], out["bhi"] = [lo], [hi]
        return pd.DataFrame(out)

    row = (pair.map_batches(minmax, batch_format="pandas")
           .aggregate(Min("rlo"), Max("rhi"), Min("glo"), Max("ghi"),
                      Min("blo"), Max("bhi")))
    rlo, rhi = row["min(rlo)"], row["max(rhi)"]
    glo, ghi = row["min(glo)"], row["max(ghi)"]
    blo, bhi = row["min(blo)"], row["max(bhi)"]

    def pack(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, a, b in band_pairs(batch):
            cell = spec.band_cells(tid)
            c = third(cell)
            valid = (a != spec.nodata) & (b != spec.nodata) \
                & (c != spec.nodata)
            r8 = np.clip(np.trunc((a - rlo) / (rhi - rlo) * 255.0),
                         0, 255)
            g8 = np.clip(np.trunc((b - glo) / (ghi - glo) * 255.0),
                         0, 255)
            b8 = np.clip(np.trunc((c - blo) / (bhi - blo) * 255.0),
                         0, 255)
            z = (float(255 << 24) + b8 * 65536.0 + g8 * 256.0 + r8)
            out["tile_id"].append(int(tid))
            out["data"].append(np.where(valid, z, spec.nodata))
        return pd.DataFrame(out)

    packed = pair.map_batches(pack, batch_format="pandas")
    if return_packed:
        return packed
    return raster_row_checksums(packed, spec)


def split_colour_composite(pair: "rd.Dataset",
                           spec: RasterSpec) -> "rd.Dataset":
    """SplitColourComposite (ImageProcessingTools/src/plugins/
    SplitColourComposite.java:217-219): unpack r/g/b bytes from the
    packed composite — composite pack → per-cell unpack
    (r = z & 0xFF, g = (z>>8) & 0xFF, b = (z>>16) & 0xFF). Row
    checksums of r + 1000·g + 1000000·b prove all three channels."""
    from .raster import raster_row_checksums

    packed = colour_composite(pair, spec, return_packed=True)

    def unpack(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, d in zip(batch["tile_id"], batch["data"]):
            z = np.asarray(d, dtype=np.float64)
            valid = z != spec.nodata
            zi = z.astype(np.int64)
            r = (zi & 0xFF).astype(np.float64)
            g = ((zi >> 8) & 0xFF).astype(np.float64)
            b = ((zi >> 16) & 0xFF).astype(np.float64)
            mix = r + 1000.0 * g + 1000000.0 * b
            out["tile_id"].append(int(tid))
            out["data"].append(np.where(valid, mix, spec.nodata))
        return pd.DataFrame(out)

    return raster_row_checksums(
        packed.map_batches(unpack, batch_format="pandas"), spec)


def elev_relative_to_minmax(ds: "rd.Dataset",
                            spec: RasterSpec) -> "rd.Dataset":
    """ElevRelativeToMinMax (TerrainAnalysisTools/src/plugins/
    ElevRelativeToMinMax.java:241): (z − min)/range × 100 — the
    rescale two-phase plan with the reference's ×100 output."""
    st = _global_valid_stats(ds, spec)
    lo, hi = st["min"], st["max"]
    return raster_map(ds, lambda a: (a - lo) / (hi - lo) * 100.0,
                      nodata=spec.nodata)


def destripe_kernel(p: np.ndarray, nodata: float,
                    threshold: float = 5.0) -> np.ndarray:
    """ImageDestriping (Scripts/ImageDestriping.groovy:113-150,
    horizontal stripes, threshold 5.0): a cell is striped when, at
    EVERY column a ∈ [c−2, c+1], the cell differs from BOTH vertical
    neighbours by ≥ threshold with the same sign (all 12 samples
    valid); striped cells become (N+S)/2."""
    z = p[1:-1, 1:-1]
    valid = z != nodata
    H, W = z.shape
    striped = np.ones_like(valid)
    for off in (-2, -1, 0, 1):
        # shifted views with NoData padding for out-of-range columns
        zc = np.full((H, W), nodata)
        zn = np.full((H, W), nodata)
        zs = np.full((H, W), nodata)
        lo_src = max(0, -off)
        hi_src = min(W, W - off)
        zc[:, lo_src:hi_src] = p[1:-1, 1 + lo_src + off:1 + hi_src + off]
        zn[:, lo_src:hi_src] = p[:-2, 1 + lo_src + off:1 + hi_src + off]
        zs[:, lo_src:hi_src] = p[2:, 1 + lo_src + off:1 + hi_src + off]
        ok = (zc != nodata) & (zn != nodata) & (zs != nodata)
        d1 = zc - zn
        d2 = zc - zs
        same_sign = ((d1 < 0) & (d2 < 0)) | ((d1 >= 0) & (d2 >= 0))
        cond = ok & (np.abs(d1) >= threshold) & (np.abs(d2) >= threshold) \
            & same_sign
        striped &= cond
    n_ = p[:-2, 1:-1]
    s_ = p[2:, 1:-1]
    fix = striped & valid
    outv = np.where(fix, (n_ + s_) / 2.0, z)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = np.where(valid, outv, nodata)
    return out


def destripe(ds: "rd.Dataset", spec: RasterSpec,
             regen=None) -> "rd.Dataset":
    from .raster import stencil_apply
    return stencil_apply(ds, spec,
                         lambda p: destripe_kernel(p, spec.nodata),
                         halo=1, regen=regen)


def change_vector_analysis(pair: "rd.Dataset",
                           spec: RasterSpec) -> "rd.Dataset":
    """ChangeVectorAnalysis (ImageProcessingTools/src/plugins/
    ChangeVectorAnalysis.java:254-271), 2 bands: date1 = (a, b),
    date2 = (b, permuted synth). Per cell: magnitude = √Σ(d2−d1)² over
    mutually valid bands; direction = Σ 2^i over bands with d2 ≥ d1;
    no valid band → NoData. Checksum mix magnitude + 1000·direction."""
    from .raster import raster_row_checksums

    n_cells = spec.rows * spec.cols

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, a, b in band_pairs(batch):
            cell = spec.band_cells(tid)
            c = synth_value((cell * 7 + 13) % n_cells)
            dist = np.zeros_like(a)
            direction = np.zeros_like(a)
            count = np.zeros_like(a)
            for i, (d1, d2) in enumerate(((a, b), (b, c))):
                ok = (d1 != spec.nodata) & (d2 != spec.nodata)
                z = np.where(ok, d2 - d1, 0.0)
                dist += z * z
                count += ok
                direction += np.where(ok & (z >= 0), float(2 ** i), 0.0)
            val = np.where(count > 0,
                           np.round(np.sqrt(dist), 6)
                           + 1000.0 * direction, spec.nodata)
            out["tile_id"].append(int(tid))
            out["data"].append(val)
        return pd.DataFrame(out)

    return raster_row_checksums(
        pair.map_batches(per_tile, batch_format="pandas"), spec)


def weighted_sum(pair: "rd.Dataset", spec: RasterSpec,
                 w1: float = 0.25, w2: float = 0.75) -> "rd.Dataset":
    """WeightedSum (GISTools/src/plugins/WeightedSum.java:235-241):
    output accumulates wᵢ·vᵢ per stack image; any NoData input marks the
    cell NoData permanently. Two-image stack = the co-generated pair —
    one stateless per-tile map, no shuffle (AverageOverlay / Weighted
    Overlay / Max/MinOverlay differ only in this reducer)."""
    from .raster import raster_row_checksums

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, a, b in band_pairs(batch):
            ok = (a != spec.nodata) & (b != spec.nodata)
            out["tile_id"].append(int(tid))
            out["data"].append(np.where(ok, a * w1 + b * w2, spec.nodata))
        return pd.DataFrame(out)

    return raster_row_checksums(
        pair.map_batches(per_tile, batch_format="pandas"), spec)


def minmax_stretch(ds: "rd.Dataset", spec: RasterSpec,
                   num_bins: int = 1024) -> "rd.Dataset":
    """MinMaxContrastStretch (ImageProcessingTools/src/plugins/
    MinMaxContrastStretch.java:189-201): z = (int)(v − min) ×
    numBins/(max − min), clamped to [0, numBins−1] — the Java (int)
    cast truncates BEFORE the scale multiply. Global min/max fit →
    stateless remap (the two-phase plan shared by the whole
    contrast-stretch family)."""
    st = _global_valid_stats(ds, spec)
    lo, hi = st["min"], st["max"]
    scale = num_bins / (hi - lo)
    top = float(num_bins - 1)

    def remap(a: np.ndarray) -> np.ndarray:
        return np.clip(np.trunc(a - lo) * scale, 0.0, top)

    return raster_map(ds, remap, nodata=spec.nodata)


def sigmoidal_stretch(ds: "rd.Dataset", spec: RasterSpec,
                      cutoff: float = 0.4, gain: float = 5.0) -> "rd.Dataset":
    """SigmoidalStretch (ImageProcessingTools/src/plugins/
    SigmoidalStretch.java:197-206): z←(v−min)/range, then
    (1/(1+e^{gain(cutoff−z)}) − a)/b with a = 1/(1+e^{gain·cutoff}),
    b = 1/(1+e^{gain(cutoff−1)}) − a. Same two-phase fit+remap plan."""
    st = _global_valid_stats(ds, spec)
    lo, hi = st["min"], st["max"]
    rng = hi - lo
    a_c = 1.0 / (1.0 + math.exp(gain * cutoff))
    b_c = 1.0 / (1.0 + math.exp(gain * (cutoff - 1.0))) - a_c

    def remap(v: np.ndarray) -> np.ndarray:
        z = (v - lo) / rng
        return (1.0 / (1.0 + np.exp(gain * (cutoff - z))) - a_c) / b_c

    return raster_map(ds, remap, nodata=spec.nodata)


def flip_image(spec: RasterSpec) -> "rd.Dataset":
    """FlipImage (ImageProcessingTools/src/plugins/FlipImage.java,
    vertical): out(r, c) = in(rows−1−r, c). Pure row permutation — each
    output tile regenerates its mirrored source rows directly (overlap-
    read, no shuffle; horizontal/both flips are the same gather with a
    column/both reversal)."""
    from .raster import synth_value

    def per_tile(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        rows = np.arange(r0, r1, dtype=np.int64)
        src = (spec.rows - 1 - rows)[:, None] * spec.cols + \
            np.arange(spec.cols, dtype=np.int64)[None, :]
        return {"tile_id": [tid], "data": [synth_value(src.ravel())]}

    return tile_task(spec.n_tiles, per_tile)


def create_plane(spec: RasterSpec, slope_deg: float = 15.0,
                 aspect_deg: float = 30.0, k: float = 10.0) -> "rd.Dataset":
    """CreatePlane (RasterCreation/src/plugins/CreatePlane.java:262-277):
    aspect folded ±180, then z = tan(s)·sin(a)·x + tan(s)·cos(a)·y + k
    with x = west + xRange·col/(cols−1), y = north − yRange·row/(rows−1)
    (west 0, east cols, south 0, north rows). Pure tile generator."""
    aspect = aspect_deg - 180.0 if aspect_deg > 180.0 else aspect_deg + 180.0
    s = math.radians(slope_deg)
    a = math.radians(aspect)
    cx, cy = math.tan(s) * math.sin(a), math.tan(s) * math.cos(a)

    def per_tile(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        col = np.arange(spec.cols, dtype=np.float64)[None, :]
        row = np.arange(r0, r1, dtype=np.float64)[:, None]
        x = spec.cols * (col / (spec.cols - 1))
        y = spec.rows - spec.rows * (row / (spec.rows - 1))
        z = cx * x + cy * y + k
        return {"tile_id": [tid],
                "data": [np.broadcast_to(z, (r1 - r0, spec.cols))
                           .ravel().copy()]}

    return tile_task(spec.n_tiles, per_tile)


_SOBEL_TAPS = [  # (dy, dx, maskX, maskY) — FilterSobel.java:210-213 order
    (-1, 1, 1.0, 1.0), (0, 1, 2.0, 0.0), (1, 1, 1.0, -1.0),
    (1, 0, 0.0, -2.0), (1, -1, -1.0, -1.0), (0, -1, -2.0, 0.0),
    (-1, -1, -1.0, 1.0), (-1, 0, 0.0, 2.0)]


def sobel_kernel(p: np.ndarray, nodata: float) -> np.ndarray:
    """FilterSobel (ImageProcessingTools/src/plugins/FilterSobel.java
    :210-213,262-282), 3×3: NoData / off-grid samples are replaced by
    the CENTRE value; out = √(gx² + gy²). (FilterPrewitt / FilterLine
    Detection / FilterEmboss / FilterGaussian / FilterLaplacian /
    FilterHighPass differ only in these mask weights.)"""
    z = p[1:-1, 1:-1]
    H, W = z.shape
    gx = np.zeros_like(z)
    gy = np.zeros_like(z)
    for dy, dx, mx, my in _SOBEL_TAPS:
        nb = p[1 + dy:1 + dy + H, 1 + dx:1 + dx + W]
        val = np.where(nb == nodata, z, nb)
        gx += val * mx
        gy += val * my
    res = np.where(z != nodata, np.sqrt(gx * gx + gy * gy), nodata)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = res
    return out


def filter_sobel(ds: "rd.Dataset", spec: RasterSpec,
                 regen=None) -> "rd.Dataset":
    from .raster import stencil_apply
    return stencil_apply(ds, spec, lambda p: sobel_kernel(p, spec.nodata),
                         halo=1, regen=regen)


def _mean_elev_terms(spec: RasterSpec, tid: int):
    """Shared plus-shape window sums for Difference/DeviationFromMean
    Elevation (TerrainAnalysisTools/src/plugins/
    DifferenceFromMeanElevation.java:264-305, filterSize 3): the ellipse
    filterShape keeps the centre + rook neighbours, and the reference's
    literal `(x != midPoint) && (y != midPoint)` guard (midPoint 1)
    excludes ANY sample whose ABSOLUTE row or column equals 1 —
    reproduced exactly. Returns (z, n, s, s2) for the tile band."""

    r0, r1 = spec.band(tid)
    H = r1 - r0
    p = padded_band(spec, tid, 1)
    z = p[1:-1, 1:-1]
    abs_row = np.arange(r0, r1, dtype=np.int64)[:, None]
    abs_col = np.arange(spec.cols, dtype=np.int64)[None, :]
    n = np.zeros_like(z)
    s = np.zeros_like(z)
    s2 = np.zeros_like(z)
    for dy, dx in ((0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)):
        nb = p[1 + dy:1 + dy + H, 1 + dx:1 + dx + spec.cols]
        ok = (nb != spec.nodata) & (abs_col + dx != 1) & (abs_row + dy != 1)
        n += ok
        s += np.where(ok, nb, 0.0)
        s2 += np.where(ok, nb * nb, 0.0)
    return z, n, s, s2


def diff_from_mean_elevation(spec: RasterSpec) -> "rd.Dataset":
    """DifferenceFromMeanElevation: z − windowMean (n = 0 → NoData in
    place of the reference's 0/0 NaN; the only such cell is (1,1))."""
    def per_tile(tid: int) -> dict:
        z, n, s, _ = _mean_elev_terms(spec, tid)
        with np.errstate(invalid="ignore", divide="ignore"):
            v = z - s / n
        v = np.where((z != spec.nodata) & (n > 0), v, spec.nodata)
        return {"tile_id": [tid], "data": [v.ravel()]}

    return tile_task(spec.n_tiles, per_tile)


def dev_from_mean_elevation(spec: RasterSpec) -> "rd.Dataset":
    """DeviationFromMeanElevation (.java:277-305): (z − mean)/stdDev,
    stdDev = √(s2/n − mean²), emitted only when n > 2."""
    def per_tile(tid: int) -> dict:
        z, n, s, s2 = _mean_elev_terms(spec, tid)
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = s / n
            v = (z - avg) / np.sqrt(s2 / n - avg * avg)
        v = np.where((z != spec.nodata) & (n > 2), v, spec.nodata)
        return {"tile_id": [tid], "data": [v.ravel()]}

    return tile_task(spec.n_tiles, per_tile)


def _third_synth(cell: np.ndarray, n_cells: int) -> np.ndarray:
    """Third stack raster: the permuted-index synth used by
    colour_composite / change_vector_analysis."""
    return synth_value((np.asarray(cell, dtype=np.int64) * 7 + 13) % n_cells)


def percent_greater_than(pair: "rd.Dataset", spec: RasterSpec) -> "rd.Dataset":
    """PercentGreaterThan (Scripts/PercentGreaterThan.groovy:130-160):
    per cell, 100·count(stack > position)/numRasters; position NoData
    OR any stack NoData → NoData. Position = raster a, stack = {b,
    permuted synth}. (PercentLessThan / PercentEqualTo swap only the
    comparator.) Stateless co-generated map — no shuffle."""
    from .raster import raster_row_checksums

    n_cells = spec.rows * spec.cols

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, a, b in band_pairs(batch):
            cell = spec.band_cells(tid)
            c = _third_synth(cell, n_cells)
            okb, okc = b != spec.nodata, c != spec.nodata
            count = (okb & (b > a)).astype(np.float64) \
                + (okc & (c > a)).astype(np.float64)
            ok = (a != spec.nodata) & okb & okc
            out["tile_id"].append(int(tid))
            out["data"].append(np.where(ok, 100.0 * count / 2.0,
                                        spec.nodata))
        return pd.DataFrame(out)

    return raster_row_checksums(
        pair.map_batches(per_tile, batch_format="pandas"), spec)


def average_overlay(pair: "rd.Dataset", spec: RasterSpec) -> "rd.Dataset":
    """AverageOverlay (Scripts/AverageOverlay.groovy:218-237): per-cell
    mean over the valid stack values {a, b, permuted synth}; all
    NoData → NoData. (Max/Min/MaxAbsOverlay swap the reducer.)"""
    from .raster import raster_row_checksums

    n_cells = spec.rows * spec.cols

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, a, b in band_pairs(batch):
            cell = spec.band_cells(tid)
            c = _third_synth(cell, n_cells)
            oka, okb, okc = (a != spec.nodata), (b != spec.nodata), \
                (c != spec.nodata)
            n = oka.astype(np.float64) + okb + okc
            total = np.where(oka, a, 0.0) + np.where(okb, b, 0.0) \
                + np.where(okc, c, 0.0)
            with np.errstate(invalid="ignore", divide="ignore"):
                f = total / n
            out["tile_id"].append(int(tid))
            out["data"].append(np.where(n > 0, f, spec.nodata))
        return pd.DataFrame(out)

    return raster_row_checksums(
        pair.map_batches(per_tile, batch_format="pandas"), spec)


def _stack_tri(batch: pd.DataFrame, spec: RasterSpec):
    """Yield (tile_id, a, b, c) float64 stacks for the standard trio
    {a, b, permuted synth} used by the overlay family."""
    n_cells = spec.rows * spec.cols
    for tid, a, b in band_pairs(batch):
        cell = spec.band_cells(tid)
        yield tid, a, b, _third_synth(cell, n_cells)


def stack_overlay(pair: "rd.Dataset", spec: RasterSpec,
                  kind: str = "max") -> "rd.Dataset":
    """MaxOverlay / MinOverlay / MaxAbsOverlay (GISTools/src/plugins/
    MaxOverlay.java:218-231, MinOverlay.java, MaxAbsOverlay.java
    :224-234): per cell, reduce over the VALID stack values only (a
    NoData band is skipped, not poisoning — unlike LowestPosition);
    all-NoData → NoData. `maxabs` compares v² with strict >, so the
    EARLIEST band wins ties, and runs over the signed stack v−500 (the
    synth bands are non-negative; shifting exercises the |·| rule).
    Stateless co-generated map — no shuffle."""
    from .raster import raster_row_checksums

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, a, b, c in _stack_tri(batch, spec):
            oks = [a != spec.nodata, b != spec.nodata, c != spec.nodata]
            bands = [a, b, c]
            if kind == "maxabs":
                bands = [v - 500.0 for v in bands]
            acc = np.full(len(a), spec.nodata)
            seen = np.zeros(len(a), dtype=bool)
            for v, ok in zip(bands, oks):
                if kind == "max":
                    upd = ok & (~seen | (v > acc))
                elif kind == "min":
                    upd = ok & (~seen | (v < acc))
                else:  # maxabs: strict > on squares, first band wins ties
                    upd = ok & (~seen | (v * v > acc * acc))
                acc = np.where(upd, v, acc)
                seen |= ok
            out["tile_id"].append(tid)
            out["data"].append(np.where(seen, acc, spec.nodata))
        return pd.DataFrame(out)

    return raster_row_checksums(
        pair.map_batches(per_tile, batch_format="pandas"), spec)


def lowest_position(pair: "rd.Dataset", spec: RasterSpec) -> pd.DataFrame:
    """LowestPosition (Scripts/LowestPosition.groovy:136-156): per
    cell, the 0-based index of the stack raster holding the min —
    strict < so the FIRST raster wins ties; ANY NoData on the stack →
    NoData (`nodataOnStack`), unlike Min/MaxOverlay's skip rule.
    Stack = {a, b, permuted synth}. Output: per-row (row_id, n_valid,
    sum_position)."""

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for tid, a, b, c in _stack_tri(batch, spec):
            ok = (a != spec.nodata) & (b != spec.nodata) \
                & (c != spec.nodata)
            stack = np.stack([a, b, c])
            pos = np.argmin(stack, axis=0).astype(np.int64)  # first wins
            pos2 = pos.reshape(-1, spec.cols)
            ok2 = ok.reshape(-1, spec.cols)
            frames.append(pd.DataFrame({
                "row_id": spec.band(tid)[0] + np.arange(pos2.shape[0]),
                "n_valid": ok2.sum(axis=1).astype(np.int64),
                "sum_position": np.where(ok2, pos2, 0).sum(axis=1)}))
        return pd.concat(frames, ignore_index=True)

    return (pair.map_batches(per_tile, batch_format="pandas").to_pandas()
            .sort_values("row_id").reset_index(drop=True))


def percent_compare(pair: "rd.Dataset", spec: RasterSpec,
                    op: str = "lt") -> "rd.Dataset":
    """PercentLessThan / PercentEqualTo (Scripts/PercentLessThan
    .groovy, PercentEqualTo.groovy — the comparator swaps of
    PercentGreaterThan.groovy:130-160): 100·count(stack OP position)/
    numRasters; position or any stack NoData → NoData."""
    from .raster import raster_row_checksums

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, a, b, c in _stack_tri(batch, spec):
            okb, okc = b != spec.nodata, c != spec.nodata
            if op == "lt":
                hb, hc = b < a, c < a
            else:
                hb, hc = b == a, c == a
            count = (okb & hb).astype(np.float64) \
                + (okc & hc).astype(np.float64)
            ok = (a != spec.nodata) & okb & okc
            out["tile_id"].append(tid)
            out["data"].append(np.where(ok, 100.0 * count / 2.0,
                                        spec.nodata))
        return pd.DataFrame(out)

    return raster_row_checksums(
        pair.map_batches(per_tile, batch_format="pandas"), spec)


_WO_RAW_WEIGHTS = (1.5, 1.0, 0.5)
_WO_COST = (False, True, False)


def weighted_overlay(pair: "rd.Dataset", spec: RasterSpec) -> "rd.Dataset":
    """WeightedOverlay (GISTools/src/plugins/WeightedOverlay.java:
    230-288): weights normalized by their sum (:230-233); each factor
    rescaled by its own GLOBAL valid min/max to [0, scaleMax] —
    benefit (v−min)/range·scaleMax, cost (1−(v−min)/range)·scaleMax
    (:268-274) — then Σ wᵢ·dᵢ; ANY NoData poisons the cell (:276-278).
    Two-phase: per-band Min/Max aggregate fit → stateless weighted
    map. Bands {a: benefit, b: cost, third synth: benefit}, raw
    weights (1.5, 1.0, 0.5), scale 0-1."""
    from ray.data.aggregate import Max, Min

    from .raster import raster_row_checksums

    wsum = sum(_WO_RAW_WEIGHTS)
    weights = [w / wsum for w in _WO_RAW_WEIGHTS]

    def minmax(batch: pd.DataFrame) -> pd.DataFrame:
        out = {}
        for tid, a, b, c in _stack_tri(batch, spec):
            for name, v in (("a", a), ("b", b), ("c", c)):
                v = v[v != spec.nodata]
                lo = v.min() if len(v) else np.inf
                hi = v.max() if len(v) else -np.inf
                out.setdefault(f"{name}lo", []).append(lo)
                out.setdefault(f"{name}hi", []).append(hi)
        return pd.DataFrame(out)

    row = (pair.map_batches(minmax, batch_format="pandas")
           .aggregate(Min("alo"), Max("ahi"), Min("blo"), Max("bhi"),
                      Min("clo"), Max("chi")))
    spans = [(row["min(alo)"], row["max(ahi)"]),
             (row["min(blo)"], row["max(bhi)"]),
             (row["min(clo)"], row["max(chi)"])]

    def apply(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, a, b, c in _stack_tri(batch, spec):
            z = np.zeros(len(a))
            ok = np.ones(len(a), dtype=bool)
            for v, w, cost, (lo, hi) in zip((a, b, c), weights,
                                            _WO_COST, spans):
                valid = v != spec.nodata
                ok &= valid
                d = (v - lo) / (hi - lo) * 1.0
                if cost:
                    d = (1.0 - (v - lo) / (hi - lo)) * 1.0
                z = z + np.where(valid, d, 0.0) * w
            out["tile_id"].append(tid)
            out["data"].append(np.where(ok, z, spec.nodata))
        return pd.DataFrame(out)

    return raster_row_checksums(
        pair.map_batches(apply, batch_format="pandas"), spec)


def correct_vignetting(ds: "rd.Dataset", spec: RasterSpec,
                       focal_length: float = 50.0,
                       dist_between_edges: float = 100.0,
                       n_exp: float = 4.0) -> "rd.Dataset":
    """CorrectVignetting (Scripts/CorrectVignetting.groovy:110,
    290-297): v / cosⁿ(atan(dist·scaleFactor/focalLength)), dist from
    the principal point (grid centre), scaleFactor = distBetweenEdges/
    cols. Per-cell map needing absolute coords — overlap-read tiles."""
    from .raster import raster_row_checksums

    scale = dist_between_edges / spec.cols
    ppx = (spec.cols - 1) / 2.0
    ppy = (spec.rows - 1) / 2.0

    def per_tile(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        cell = spec.band_cells(tid)
        v = synth_value(cell).reshape(r1 - r0, spec.cols)
        row = np.arange(r0, r1, dtype=np.float64)[:, None]
        col = np.arange(spec.cols, dtype=np.float64)[None, :]
        dist = np.sqrt((row - ppy) * (row - ppy)
                       + (col - ppx) * (col - ppx))
        theta = np.arctan(dist * scale / focal_length)
        f = v / np.power(np.cos(theta), n_exp)
        return {"tile_id": [tid],
                "data": [
            np.where(v != spec.nodata, f, spec.nodata).ravel()]}

    tiles = tile_task(spec.n_tiles, per_tile)
    return raster_row_checksums(tiles, spec)


def pan_sharpen_ihs(ms_spec: RasterSpec | None = None,
                    pan_scale: int = 2) -> "rd.Dataset":
    """PanSharpening, IHS method (ImageProcessingTools/src/plugins/
    PanSharpening.java:357-430,472-530): per pan cell, nearest MS cell
    via sourceRow/Col = Math.round((north−y)/range·(nRows−0.5)) (rows
    with sourceRow ≥ nRows and columns past sourceCol ≥ nCols are
    skipped by the reference's `break` — they keep the output's NoData
    init); MS r,g,b normalized by the stack max, RGB→IHS, intensity
    replaced by 3·(pan−pMin)/pRange, IHS→RGB, byte-packed with (int)
    truncation + clamp. MS bands: a/b/permuted synth; pan: an
    independently permuted synth on the fine grid. Two-phase plan:
    global maxes (exact MIN/MAX reduce) → stateless per-pan-tile
    gather (cell-addressable source ⇒ no shuffle at all)."""
    from .raster import raster_row_checksums

    ms = ms_spec or RasterSpec()
    n_ms = ms.rows * ms.cols
    pan = RasterSpec(rows=ms.rows * pan_scale, cols=ms.cols * pan_scale,
                     tile_rows=ms.tile_rows)
    n_pan = pan.rows * pan.cols

    def pan_value(cell: np.ndarray) -> np.ndarray:
        return synth_value((np.asarray(cell, dtype=np.int64) * 11 + 29)
                           % n_pan)

    # global stats (driver-side exact reduce over the generators —
    # the distributed MIN/MAX pass is _global_valid_stats; these grids
    # are cell-addressable so the reduce is a closed form here)
    all_ms = np.arange(n_ms, dtype=np.int64)
    va, vb = synth_value(all_ms), synth_value_b(all_ms)
    vc = synth_value((all_ms * 7 + 13) % n_ms)
    max_ms = max(va[va != ms.nodata].max(), vb[vb != ms.nodata].max(),
                 vc[vc != ms.nodata].max())
    all_pan = pan_value(np.arange(n_pan, dtype=np.int64))
    pv = all_pan[all_pan != pan.nodata]
    p_min, p_range = pv.min(), pv.max() - pv.min()

    def per_tile(tid: int) -> dict:
        r0, r1 = pan.band(tid)
        H, W = r1 - r0, pan.cols
        rp = np.arange(r0, r1, dtype=np.float64)[:, None]
        cp = np.arange(W, dtype=np.float64)[None, :]
        y = float(ms.rows) - (float(ms.rows) * rp) / (pan.rows - 1.0)
        sr = np.floor((float(ms.rows) - y) / float(ms.rows)
                      * (ms.rows - 0.5) + 0.5)
        x = (float(ms.cols) * cp) / (pan.cols - 1.0)
        sc = np.floor(x / float(ms.cols) * (ms.cols - 0.5) + 0.5)
        written = (sr < ms.rows) & (sc < ms.cols)
        sri = np.clip(sr, 0, ms.rows - 1).astype(np.int64)
        sci = np.clip(sc, 0, ms.cols - 1).astype(np.int64)
        scell = (sri * ms.cols + sci) + np.zeros((H, W), np.int64)
        pcell = (np.arange(r0, r1, dtype=np.int64)[:, None] * W
                 + np.arange(W, dtype=np.int64)[None, :])
        zr, zg = synth_value(scell.ravel()), synth_value_b(scell.ravel())
        zb = synth_value((scell.ravel() * 7 + 13) % n_ms)
        zp = pan_value(pcell.ravel())
        valid = (zp != pan.nodata) & (zr != ms.nodata) & \
            (zg != ms.nodata) & (zb != ms.nodata)
        p = (zp - p_min) / p_range
        r = zr / max_ms
        g = zg / max_ms
        b = zb / max_ms
        m = np.minimum(np.minimum(b, g), r)
        i = r + g + b
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(i == 3.0, 0.0,
                np.where(b == m, (g - b) / (i - 3 * b),
                np.where(r == m, (b - r) / (i - 3 * r) + 1.0,
                         (r - g) / (i - 3 * g) + 2.0)))
            s = np.where(h <= 1.0, (i - 3 * b) / i,
                np.where(h <= 2.0, (i - 3 * r) / i, (i - 3 * g) / i))
            i2 = p * 3.0
            r2 = np.where(h <= 1.0, i2 * (1 + 2 * s - 3 * s * h) / 3,
                 np.where(h <= 2.0, i2 * (1 - s) / 3,
                          i2 * (1 - s + 3 * s * (h - 2)) / 3))
            g2 = np.where(h <= 1.0, i2 * (1 - s + 3 * s * h) / 3,
                 np.where(h <= 2.0,
                          i2 * (1 + 2 * s - 3 * s * (h - 1)) / 3,
                          i2 * (1 - s) / 3))
            b2 = np.where(h <= 1.0, i2 * (1 - s) / 3,
                 np.where(h <= 2.0,
                          i2 * (1 - s + 3 * s * (h - 1)) / 3,
                          i2 * (1 + 2 * s - 3 * s * (h - 2)) / 3))
        ro = np.clip(np.trunc(r2 * 255.0), 0, 255)
        go = np.clip(np.trunc(g2 * 255.0), 0, 255)
        bo = np.clip(np.trunc(b2 * 255.0), 0, 255)
        z = 4278190080.0 + bo * 65536.0 + go * 256.0 + ro
        ok = valid & written.ravel()
        return {"tile_id": [tid], "data": [np.where(ok, z, pan.nodata)]}

    tiles = tile_task(pan.n_tiles, per_tile)
    return raster_row_checksums(tiles, pan)


def fill_missing_data_holes(spec: RasterSpec | None = None,
                            k: int = 6, window: int = 8) -> "rd.Dataset":
    """FillMissingDataHoles (ImageProcessingTools/src/plugins/
    FillMissingDataHoles.java:106-180, interior-only OFF): edge cells =
    valid cells with ≥1 in-grid NoData neighbour; every NoData cell is
    filled by IDW (weights 1/d², SqrEuclid KdTree) over its k=6 nearest
    edge cells in (row, col) space. The reference's KdTree breaks
    distance ties in traversal order (implementation-defined); we fix
    the deterministic rule (d², row, col) on BOTH sides of the oracle.

    Physical plan: overlap-read tiles with a `window`-row halo (the
    synthetic hole density 1/17 bounds hole→edge distance far below
    `window`); per tile, offsets are visited in sorted (d², dy, dx)
    order accumulating the first k edge hits per hole — fully
    vectorized, no shuffle. Fails loudly (assert) if any hole can't
    reach k edges inside the window rather than silently degrading."""
    from .raster import raster_row_checksums

    spec = spec or RasterSpec()
    offs = sorted(
        ((dy * dy + dx * dx, dy, dx)
         for dy in range(-window, window + 1)
         for dx in range(-window, window + 1) if dy or dx))

    def per_tile(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        H = r1 - r0
        lo, hi = max(r0 - window - 1, 0), min(r1 + window + 1, spec.rows)
        cell = np.arange(lo * spec.cols, hi * spec.cols, dtype=np.int64)
        a = synth_value(cell).reshape(hi - lo, spec.cols)
        pad_rows = H + 2 * (window + 1)
        z = np.full((pad_rows, spec.cols + 2 * (window + 1)),
                    np.nan)
        w0 = window + 1
        z[w0 - (r0 - lo):w0 - (r0 - lo) + (hi - lo),
          w0:-w0] = a
        ingrid = ~np.isnan(z)
        hole = ingrid & (z == spec.nodata)
        valid = ingrid & ~hole
        # edge mask over the padded plane (1-cell stencil)
        edge = np.zeros_like(valid)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy == 0 and dx == 0:
                    continue
                edge[1:-1, 1:-1] |= hole[1 + dy:z.shape[0] - 1 + dy,
                                         1 + dx:z.shape[1] - 1 + dx]
        edge &= valid
        # interior view of the tile band
        hv = hole[w0:w0 + H, w0:-w0]
        cnt = np.zeros((H, spec.cols), dtype=np.int64)
        sw = np.zeros((H, spec.cols))
        swv = np.zeros((H, spec.cols))
        for d2, dy, dx in offs:
            e = edge[w0 + dy:w0 + dy + H,
                     w0 + dx:z.shape[1] - w0 + dx]
            ev = z[w0 + dy:w0 + dy + H,
                   w0 + dx:z.shape[1] - w0 + dx]
            sel = hv & e & (cnt < k)
            w = 1.0 / d2
            sw += np.where(sel, w, 0.0)
            swv += np.where(sel, w * np.where(sel, ev, 0.0), 0.0)
            cnt += sel
        assert not (hv & (cnt < k)).any(), \
            "hole cell found fewer than k edge cells inside window"
        band = z[w0:w0 + H, w0:-w0]
        filled = np.where(hv, swv / np.where(hv, sw, 1.0), band)
        return {"tile_id": [tid], "data": [filled.ravel()]}

    tiles = tile_task(spec.n_tiles, per_tile)
    return raster_row_checksums(tiles, spec)


# window offsets in the reference's filter-array order (row-major over
# the 3×3 window): (dy, dx)
_WIN9 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
         (1, -1), (1, 0), (1, 1))


def _win9_stack(p: np.ndarray, nodata: float):
    """(9, H, W) sample stack + validity from a halo-1 padded plane."""
    H, W = p.shape[0] - 2, p.shape[1] - 2
    vals = np.empty((9, H, W))
    ok = np.empty((9, H, W), dtype=bool)
    for a, (dy, dx) in enumerate(_WIN9):
        nb = p[1 + dy:1 + dy + H, 1 + dx:1 + dx + W]
        vals[a] = nb
        ok[a] = nb != nodata
    return vals, ok


def olympic_kernel(p: np.ndarray, nodata: float) -> np.ndarray:
    """FilterOlympic (ImageProcessingTools/src/plugins/FilterOlympic
    .java:280-305), 3×3: (Σ − min − max)/(n − 2) over the valid window
    (centre included; min/max each subtracted once); n ≤ 2 → NoData."""
    z = p[1:-1, 1:-1]
    vals, ok = _win9_stack(p, nodata)
    n = ok.sum(axis=0)
    s = np.where(ok, vals, 0.0).sum(axis=0)
    mn = np.where(ok, vals, np.inf).min(axis=0)
    mn = np.minimum(mn, z)  # Java min/max start at the centre value
    mx = np.where(ok, vals, -np.inf).max(axis=0)
    mx = np.maximum(mx, z)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = (s - mn - mx) / (n - 2.0)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = np.where((z != nodata) & (n > 2), f, nodata)
    return out


def percentile_kernel(p: np.ndarray, nodata: float) -> np.ndarray:
    """FilterPercentile (.java:283-309), 3×3: 100·j/n where j = rank of
    the centre in the sorted valid window (index of its first equal =
    the count of strictly-smaller samples)."""
    z = p[1:-1, 1:-1]
    vals, ok = _win9_stack(p, nodata)
    n = ok.sum(axis=0).astype(np.float64)
    j = (ok & (vals < z[None])).sum(axis=0).astype(np.float64)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = np.where(z != nodata, j / n * 100.0, nodata)
    return out


def knearest_mean_kernel(p: np.ndarray, nodata: float,
                         k: int = 5) -> np.ndarray:
    """FilterKNearestMean (.java:292-330), 3×3: mean of the k window
    samples nearest the centre by squared difference (ties resolved in
    window-array order, exactly the reference's repeated first-minimum
    scan); fewer than k valid samples → NoData."""
    z = p[1:-1, 1:-1]
    vals, ok = _win9_stack(p, nodata)
    d2 = np.where(ok, (vals - z[None]) ** 2, np.inf)
    # stable argsort along the sample axis = (d², index) tie order
    idx = np.argsort(d2, axis=0, kind="stable")
    sv = np.take_along_axis(vals, idx[:k], axis=0)
    so = np.take_along_axis(np.isfinite(d2), idx[:k], axis=0)
    n = so.sum(axis=0)
    s = np.where(so, sv, 0.0).sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = s / k
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = np.where((z != nodata) & (n == k), f, nodata)
    return out


def filter_olympic(ds, spec: RasterSpec, regen=None):
    from .raster import stencil_apply
    return stencil_apply(ds, spec, lambda p: olympic_kernel(p, spec.nodata),
                         halo=1, regen=regen)


def filter_percentile(ds, spec: RasterSpec, regen=None):
    from .raster import stencil_apply
    return stencil_apply(ds, spec,
                         lambda p: percentile_kernel(p, spec.nodata),
                         halo=1, regen=regen)


def filter_knearest_mean(ds, spec: RasterSpec, regen=None, k: int = 5):
    from .raster import stencil_apply
    return stencil_apply(
        ds, spec, lambda p: knearest_mean_kernel(p, spec.nodata, k),
        halo=1, regen=regen)


# ---------------------------------------------------------------------------
# Weighted 3x3 convolution family (NoData/off-grid -> centre replacement)
# ---------------------------------------------------------------------------

_PREWITT_TAPS = [  # (dy, dx, maskX, maskY) — FilterPrewitt.java:167-170 order
    (-1, 1, 1.0, 1.0), (0, 1, 1.0, 0.0), (1, 1, 1.0, -1.0),
    (1, 0, 0.0, -1.0), (1, -1, -1.0, -1.0), (0, -1, -1.0, 0.0),
    (-1, -1, -1.0, 1.0), (-1, 0, 0.0, 1.0)]


def prewitt_kernel(p: np.ndarray, nodata: float) -> np.ndarray:
    """FilterPrewitt (ImageProcessingTools/src/plugins/FilterPrewitt.java
    :167-170,208-227): identical plan to Sobel with unit edge masks —
    NoData / off-grid samples replaced by the CENTRE value,
    out = sqrt(gx^2 + gy^2)."""
    z = p[1:-1, 1:-1]
    H, W = z.shape
    gx = np.zeros_like(z)
    gy = np.zeros_like(z)
    for dy, dx, mx, my in _PREWITT_TAPS:
        nb = p[1 + dy:1 + dy + H, 1 + dx:1 + dx + W]
        val = np.where(nb == nodata, z, nb)
        gx = gx + val * mx
        gy = gy + val * my
    res = np.where(z != nodata, np.sqrt(gx * gx + gy * gy), nodata)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = res
    return out


def filter_prewitt(ds, spec: RasterSpec, regen=None):
    from .raster import stencil_apply
    return stencil_apply(ds, spec, lambda p: prewitt_kernel(p, spec.nodata),
                         halo=1, regen=regen)


def weighted3x3_kernel(p: np.ndarray, nodata: float, taps,
                       absval: bool = False) -> np.ndarray:
    """Shared weighted-sum window pass for FilterEmboss / FilterLaplacian
    / FilterLineDetection (FilterEmboss.java:227-240 loop shape): any
    NoData or off-grid sample is replaced by the CENTRE value, output is
    the weighted sum (|sum| when ``absval`` — FilterLineDetection.java
    takes the absolute value). ``taps`` is [(dy, dx, w)] in the
    reference's row-major mask order (zero-weight taps dropped: they add
    an exact +0.0)."""
    z = p[1:-1, 1:-1]
    H, W = z.shape
    s = np.zeros_like(z)
    for dy, dx, w in taps:
        nb = p[1 + dy:1 + dy + H, 1 + dx:1 + dx + W]
        val = np.where(nb == nodata, z, nb)
        s = s + val * w
    if absval:
        s = np.abs(s)
    res = np.where(z != nodata, s, nodata)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = res
    return out


# FilterEmboss.java:205-224, direction "n" (default): S − N.
_EMBOSS_N_TAPS = [(-1, 0, -1.0), (1, 0, 1.0)]
# FilterLaplacian.java:196 "3 x 3 (1)": 4z − (N + W + E + S).
_LAPLACIAN_TAPS = [(-1, 0, -1.0), (0, -1, -1.0), (0, 0, 4.0),
                   (0, 1, -1.0), (1, 0, -1.0)]
# FilterLineDetection.java:219-220 "vertical" (default).
_LINE_V_TAPS = [(-1, -1, -1.0), (-1, 0, 2.0), (-1, 1, -1.0),
                (0, -1, -1.0), (0, 0, 2.0), (0, 1, -1.0),
                (1, -1, -1.0), (1, 0, 2.0), (1, 1, -1.0)]


def filter_emboss(ds, spec: RasterSpec, regen=None):
    from .raster import stencil_apply
    return stencil_apply(
        ds, spec,
        lambda p: weighted3x3_kernel(p, spec.nodata, _EMBOSS_N_TAPS),
        halo=1, regen=regen)


def filter_laplacian(ds, spec: RasterSpec, regen=None):
    from .raster import stencil_apply
    return stencil_apply(
        ds, spec,
        lambda p: weighted3x3_kernel(p, spec.nodata, _LAPLACIAN_TAPS),
        halo=1, regen=regen)


def filter_line_detection(ds, spec: RasterSpec, regen=None):
    from .raster import stencil_apply
    return stencil_apply(
        ds, spec,
        lambda p: weighted3x3_kernel(p, spec.nodata, _LINE_V_TAPS,
                                     absval=True),
        halo=1, regen=regen)


def highpass_kernel(p: np.ndarray, nodata: float) -> np.ndarray:
    """FilterHighPass (ImageProcessingTools/src/plugins/FilterHighPass
    .java:268-290, 3×3 square): out = z − mean(valid window samples,
    centre INCLUDED); NoData / off-grid samples are simply excluded
    (no centre replacement — unlike Sobel/Prewitt)."""
    z = p[1:-1, 1:-1]
    H, W = z.shape
    n = np.zeros_like(z)
    s = np.zeros_like(z)
    for dy in (-1, 0, 1):          # row-major window order (java a-loop)
        for dx in (-1, 0, 1):
            nb = p[1 + dy:1 + dy + H, 1 + dx:1 + dx + W]
            ok = nb != nodata
            n = n + ok
            s = s + np.where(ok, nb, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        res = np.where((z != nodata) & (n > 0), z - s / np.maximum(n, 1.0),
                       nodata)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = res
    return out


def filter_highpass(ds, spec: RasterSpec, regen=None):
    from .raster import stencil_apply
    return stencil_apply(ds, spec,
                         lambda p: highpass_kernel(p, spec.nodata),
                         halo=1, regen=regen)


_DBL_MAX = 1.7976931348623157e308
_DBL_MIN_VALUE = 5e-324  # Java Double.MIN_VALUE (smallest POSITIVE subnormal)


def conservative_smoothing_kernel(p: np.ndarray, nodata: float) -> np.ndarray:
    """FilterConservativeSmoothing (ImageProcessingTools/src/plugins/
    FilterConservativeSmoothing.java:256-280): clamp the centre to the
    [min, max] of the valid window samples that differ in BOTH row and
    column — the literal `x != col && y != row` guard keeps only the
    four DIAGONAL neighbours. min/max start from Double.MAX_VALUE /
    Double.MIN_VALUE (the tiny POSITIVE subnormal, NOT −inf) exactly as
    the reference initialises them."""
    z = p[1:-1, 1:-1]
    H, W = z.shape
    minv = np.full_like(z, _DBL_MAX)
    maxv = np.full_like(z, _DBL_MIN_VALUE)
    for dy in (-1, 1):
        for dx in (-1, 1):
            nb = p[1 + dy:1 + dy + H, 1 + dx:1 + dx + W]
            ok = nb != nodata
            minv = np.where(ok & (nb < minv), nb, minv)
            maxv = np.where(ok & (nb > maxv), nb, maxv)
    res = np.where(z > maxv, maxv, np.where(z < minv, minv, z))
    res = np.where(z != nodata, res, nodata)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = res
    return out


def filter_conservative_smoothing(ds, spec: RasterSpec, regen=None):
    from .raster import stencil_apply
    return stencil_apply(
        ds, spec, lambda p: conservative_smoothing_kernel(p, spec.nodata),
        halo=1, regen=regen)


def gaussian_taps(sigma: float = 0.75):
    """FilterGaussian (ImageProcessingTools/src/plugins/FilterGaussian
    .java:219-257) kernel, reproduced literally INCLUDING the off-centre
    midPoint quirk: filterSize comes from the first 1-D weight ≤ 0.001,
    but midPoint = floor(filterSize/2) + 1, so offsets run
    [−midPoint, filterSize−1−midPoint] — the window is asymmetric.
    Returns (taps=[(dy, dx, w)] in the reference's row-major order,
    reach=max offset magnitude)."""
    recip = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
    two_sigma_sqr = 2.0 * sigma * sigma
    filter_size = 3
    for i in range(251):
        w = recip * math.exp(-1 * (i * i) / two_sigma_sqr)
        if w <= 0.001:
            filter_size = i * 2 + 1
            break
    if filter_size % 2 == 0:
        filter_size += 1
    filter_size = max(filter_size, 3)
    mid = filter_size // 2 + 1
    taps = []
    for row in range(filter_size):
        for col in range(filter_size):
            x = col - mid
            y = row - mid
            taps.append((y, x, recip * math.exp(-1 * (x * x + y * y)
                                                / two_sigma_sqr)))
    reach = max(max(abs(t[0]) for t in taps), max(abs(t[1]) for t in taps))
    return taps, reach


def gaussian_kernel(p: np.ndarray, nodata: float, taps, halo,
                    positive_weights: bool = True) -> np.ndarray:
    """FilterGaussian.java:261-274 apply loop: weighted mean over VALID
    samples only (zFinal/sumOfWeights with both accumulated in the same
    row-major tap order); off-grid reads are NoData and excluded.
    ``positive_weights=False`` (the signed LoG kernel, whose valid-weight
    sum is negative) divides unconditionally as the reference does."""
    z = p[halo:-halo, halo:-halo]
    H, W = z.shape
    num = np.zeros_like(z)
    den = np.zeros_like(z)
    for dy, dx, w in taps:
        nb = p[halo + dy:halo + dy + H, halo + dx:halo + dx + W]
        ok = nb != nodata
        den = den + np.where(ok, w, 0.0)
        num = num + np.where(ok, w * nb, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        valid = (z != nodata) & ((den > 0.0) if positive_weights else True)
        res = np.where(valid, num / den, nodata)
    out = np.full_like(p, nodata)
    out[halo:-halo, halo:-halo] = res
    return out


def filter_gaussian(ds, spec: RasterSpec, regen=None, sigma: float = 0.75):
    from .raster import stencil_apply
    taps, reach = gaussian_taps(sigma)
    return stencil_apply(
        ds, spec, lambda p: gaussian_kernel(p, spec.nodata, taps, reach),
        halo=reach, regen=regen)


def _dense_histogram(ds, spec: RasterSpec, lo: float, nbins: int,
                     bin_of) -> np.ndarray:
    """One partial-histogram pass → driver combine (int64 counts).
    ``bin_of(a)`` maps valid values to bin indices already clamped."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        counts = np.zeros(nbins, dtype=np.int64)
        for data in batch["data"]:
            a = np.asarray(data, dtype=np.float64)
            a = a[a != spec.nodata]
            if len(a):
                counts += np.bincount(bin_of(a), minlength=nbins)
        return pd.DataFrame({"bin": np.arange(nbins, dtype=np.int64),
                             "c": counts})

    return (ds.map_batches(partial, batch_format="pandas")
            .to_pandas().groupby("bin")["c"].sum().to_numpy())


def percentage_contrast_stretch(ds, spec: RasterSpec, clip: float = 1.0,
                                num_bins: int = 1024) -> "rd.Dataset":
    """PercentageContrastStretch (ImageProcessingTools/src/plugins/
    PercentageContrastStretch.java:195-296, tails="both"): integer-bin
    histogram over [min, max] with (int)(max−min+1) bins → cumulative
    PERCENT (double arithmetic throughout, as the reference's double[]
    histo) → linearly interpolated clip values at clip% / (100−clip)% →
    z = (int)(v − minVal) · numBins/(maxVal − minVal), clamped to
    [0, numBins−1] (the Java (int) truncates BEFORE the scale multiply).
    Physical plan: one stats pass + one small histogram partial/combine,
    then a stateless remap — nothing wide moves."""
    st = _global_valid_stats(ds, spec)
    lo, hi = st["min"], st["max"]
    nb_in = int(hi - lo + 1)

    def bin_of(a: np.ndarray) -> np.ndarray:
        return np.clip(np.trunc(a - lo).astype(np.int64), 0, nb_in - 1)

    hist = _dense_histogram(ds, spec, lo, nb_in, bin_of).astype(np.float64)
    cum = np.cumsum(hist)
    pct = cum / cum[-1] * 100.0
    min_val = max_val = None
    for a in range(1, nb_in):
        if min_val is None and pct[a] >= clip:
            min_val = (a - 1 + lo) + (clip - pct[a - 1]) / (pct[a] - pct[a - 1])
        if max_val is None and pct[a] >= 100.0 - clip:
            max_val = (a - 1 + lo) + ((100.0 - clip) - pct[a - 1]) \
                / (pct[a] - pct[a - 1])
            break
    scale = num_bins / (max_val - min_val)
    top = float(num_bins - 1)

    def remap(v: np.ndarray) -> np.ndarray:
        return np.clip(np.trunc(v - min_val) * scale, 0.0, top)

    return raster_map(ds, remap, nodata=spec.nodata)


def gaussian_stretch_ref_cdf(cutoffs: float = 3.0,
                             num_out_bins: int = 255) -> np.ndarray:
    """GaussianStretch (ImageProcessingTools/src/plugins/GaussianStretch
    .java:236-254) reference CDF: discretized unit normal over
    [−cutoffs, +cutoffs], sequential cumsum, normalized by the final
    total — reproduced op-for-op so the doubles are bit-identical."""
    ref = np.empty(num_out_bins)
    root2pi = math.sqrt(2.0 * math.pi)
    for i in range(num_out_bins):
        x = float(i) / (num_out_bins - 1) * 2.0 * cutoffs - cutoffs
        ref[i] = math.pow(math.e, -x * x / 2.0) / root2pi
    for i in range(1, num_out_bins):
        ref[i] += ref[i - 1]
    return ref / ref[num_out_bins - 1]


def gaussian_stretch(ds, spec: RasterSpec, cutoffs: float = 3.0,
                     num_out_bins: int = 255,
                     num_bins: int = 50000) -> "rd.Dataset":
    """GaussianStretch (GaussianStretch.java:184-325): 50,000-bin global
    histogram → empirical CDF (count/numCells) → for each cell, the last
    reference-CDF bin with refCDF ≤ pVal (the literal search's
    xVal=i−1-at-first-crossing / xVal=i-on-equality semantics collapse
    to searchsorted-right − 1, clipped at 0). The bin→xVal LUT is built
    ONCE on the driver (refCDF is a 255-entry constant of the
    parameters) and the remap is stateless."""
    st = _global_valid_stats(ds, spec)
    lo, hi = st["min"], st["max"]
    bin_size = (hi - lo) / num_bins

    def bin_of(a: np.ndarray) -> np.ndarray:
        return np.minimum(np.trunc((a - lo) / bin_size).astype(np.int64),
                          num_bins - 1)

    hist = _dense_histogram(ds, spec, lo, num_bins, bin_of)
    n_cells = hist.sum()
    cdf = hist.cumsum().astype(np.float64) / float(n_cells)
    ref = gaussian_stretch_ref_cdf(cutoffs, num_out_bins)
    lut = np.maximum(np.searchsorted(ref, cdf, side="right") - 1,
                     0).astype(np.float64)

    def remap(v: np.ndarray) -> np.ndarray:
        # lower clip only guards the NoData sentinel passing through
        # raster_map (its output is overwritten with NoData afterwards)
        b = np.clip(np.trunc((v - lo) / bin_size).astype(np.int64),
                    0, num_bins - 1)
        return lut[b]

    return raster_map(ds, remap, nodata=spec.nodata)


def image_global_stats(ds, spec: RasterSpec) -> "rd.Dataset":
    """ImageAverage / ImageTotal / ImageStandardDeviation /
    NumberOfGridCells (StatsTools/src/plugins/ImageAverage.java,
    ImageTotal.java, ImageStandardDeviation.java:249-273,
    NumberOfGridCells.java) as ONE moments pass: per-block partials
    (n, Σv, Σv²) → driver combine; σ uses the one-pass algebra
    sqrt((Σv² − (Σv)²/n)/(n−1)) — equal to the reference's two-pass
    deviation sum up to addition order. Rounding margins per field are
    sized to the measured cross-engine sum drift."""
    st = _global_valid_stats(ds, spec)
    n = st["n"]
    out = pd.DataFrame({
        "n_cells": [np.int64(n)],
        "total": [round(st["sum"], 3)],
        "average": [round(st["mean"], 6)],
        "stdev": [round(st["std"], 4)],
    })
    return rd.from_pandas(out)


def log_taps(sigma: float = 0.75):
    """FilterLoG (ImageProcessingTools/src/plugins/FilterLoG.java
    :219-262): CENTRED Laplacian-of-Gaussian kernel (no off-centre
    midPoint quirk here — cellsOnEitherSide = floor(fs/2)); weight =
    −1/(πσ⁴) · (1 − r²/2σ²) · exp(−r²/2σ²); filter size from the same
    1-D gaussian 0.001 cutoff. Returns (taps row-major, reach)."""
    recip = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
    two_sigma_sqr = 2.0 * sigma * sigma
    filter_size = 3
    for i in range(251):
        if recip * math.exp(-1 * (i * i) / two_sigma_sqr) <= 0.001:
            filter_size = i * 2 + 1
            break
    if filter_size % 2 == 0:
        filter_size += 1
    filter_size = max(filter_size, 3)
    half = int(math.floor(filter_size / 2.0))
    term1 = -1.0 / (math.pi * sigma * sigma * sigma * sigma)
    taps = []
    for row in range(filter_size):
        for col in range(filter_size):
            x = col - half
            y = row - half
            r2 = x * x + y * y
            taps.append((y, x, term1 * (1.0 - (r2 / two_sigma_sqr))
                         * math.exp(-r2 / two_sigma_sqr)))
    return taps, half


def filter_log(ds, spec: RasterSpec, regen=None, sigma: float = 0.75):
    """FilterLoG apply loop (:263-287) — identical normalize-by-valid-
    weights plan as FilterGaussian (zFinal/sumOfWeights), LoG taps."""
    from .raster import stencil_apply
    taps, reach = log_taps(sigma)
    return stencil_apply(
        ds, spec,
        lambda p: gaussian_kernel(p, spec.nodata, taps, reach,
                                  positive_weights=False),
        halo=reach, regen=regen)


TAP_CHUNK = 64  # DuckDB binder depth cap is 128; chunk long tap chains


def dog_kernel(p: np.ndarray, nodata: float, taps1, taps2,
               halo: int) -> np.ndarray:
    """FilterDoG (FilterDoG.java:239-345): zFinal_1/sum_1 −
    zFinal_2/sum_2, each a FilterGaussian-style valid-weighted mean with
    its own off-centre kernel. Accumulation is CHUNKED (TAP_CHUNK-tap
    partial sums combined in order) to mirror the oracle SQL, which must
    parenthesize the >128-term chains below DuckDB's binder depth —
    the association order is identical on both sides."""
    z = p[halo:-halo, halo:-halo]
    H, W = z.shape
    means = []
    for taps in (taps1, taps2):
        num = np.zeros_like(z)
        den = np.zeros_like(z)
        for c0 in range(0, len(taps), TAP_CHUNK):
            cnum = np.zeros_like(z)
            cden = np.zeros_like(z)
            for dy, dx, w in taps[c0:c0 + TAP_CHUNK]:
                nb = p[halo + dy:halo + dy + H, halo + dx:halo + dx + W]
                ok = nb != nodata
                cden = cden + np.where(ok, w, 0.0)
                cnum = cnum + np.where(ok, w * nb, 0.0)
            num = num + cnum
            den = den + cden
        with np.errstate(invalid="ignore", divide="ignore"):
            means.append(num / den)
    res = np.where(z != nodata, means[0] - means[1], nodata)
    out = np.full_like(p, nodata)
    out[halo:-halo, halo:-halo] = res
    return out


def filter_dog(ds, spec: RasterSpec, regen=None,
               sigma1: float = 0.75, sigma2: float = 1.5):
    from .raster import stencil_apply
    taps1, r1 = gaussian_taps(sigma1)
    taps2, r2 = gaussian_taps(sigma2)
    reach = max(r1, r2)
    return stencil_apply(
        ds, spec,
        lambda p: dog_kernel(p, spec.nodata, taps1, taps2, reach),
        halo=reach, regen=regen)


def bilateral_kernel(p: np.ndarray, nodata: float, taps, halo: int,
                     sigma_i: float) -> np.ndarray:
    """FilterEdgePreservingSmoothing (ImageProcessingTools/src/plugins/
    FilterEdgePreservingSmoothing.java:234-299): bilateral filter —
    combined weight wD[a] · (1/(√2π·σI))·exp(−(zN−z)²/2σI²) over valid
    samples, then zFinal = Σ (wI[a]·zN)/sum with the reference's literal
    per-term division. Spatial taps reuse the off-centre FilterGaussian
    kernel (same midPoint quirk, same 0.001 cutoff)."""
    recip_i = 1.0 / (math.sqrt(2.0 * math.pi) * sigma_i)
    two_i = 2.0 * sigma_i * sigma_i
    z = p[halo:-halo, halo:-halo]
    H, W = z.shape
    wsum = np.zeros_like(z)
    per_tap = []
    for dy, dx, wd in taps:
        nb = p[halo + dy:halo + dy + H, halo + dx:halo + dx + W]
        ok = nb != nodata
        d = nb - z
        w = wd * (recip_i * np.exp(-1 * (d * d) / two_i))
        w = np.where(ok, w, 0.0)
        per_tap.append((nb, ok, w))
        wsum = wsum + w
    zfinal = np.zeros_like(z)
    for nb, ok, w in per_tap:
        zfinal = zfinal + np.where(ok, (w * nb) / wsum, 0.0)
    res = np.where(z != nodata, zfinal, nodata)
    out = np.full_like(p, nodata)
    out[halo:-halo, halo:-halo] = res
    return out


def filter_edge_preserving(ds, spec: RasterSpec, regen=None,
                           sigma_d: float = 0.75, sigma_i: float = 50.0):
    from .raster import stencil_apply
    taps, reach = gaussian_taps(sigma_d)
    return stencil_apply(
        ds, spec,
        lambda p: bilateral_kernel(p, spec.nodata, taps, reach, sigma_i),
        halo=reach, regen=regen)


ADAPTIVE_THRESHOLD = 2.0


def filter_adaptive(spec: RasterSpec) -> "rd.Dataset":
    """FilterAdaptive (ImageProcessingTools/src/plugins/FilterAdaptive
    .java, 3×3 square, threshold 2): window moments over samples passing
    the literal `(x != midPointX) && (y != midPointY)` guard — absolute
    coordinates, midPoint 1, the same copy-paste quirk as
    DifferenceFromMeanElevation — centre INCLUDED when it passes; then
    out = average when |(z − avg)/σ_pop| > threshold else z; n ≤ 2 →
    NoData (the unset initialValue). σ is the reference's
    sqrt-only-if-positive population deviation."""

    taps = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]

    def per_tile(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        H = r1 - r0
        p = padded_band(spec, tid, 1)
        z = p[1:-1, 1:-1]
        abs_row = np.arange(r0, r1, dtype=np.int64)[:, None]
        abs_col = np.arange(spec.cols, dtype=np.int64)[None, :]
        n = np.zeros_like(z)
        s = np.zeros_like(z)
        s2 = np.zeros_like(z)
        for dy, dx in taps:
            nb = p[1 + dy:1 + dy + H, 1 + dx:1 + dx + spec.cols]
            ok = (nb != spec.nodata) & (abs_col + dx != 1) \
                & (abs_row + dy != 1)
            n = n + ok
            s = s + np.where(ok, nb, 0.0)
            s2 = s2 + np.where(ok, nb * nb, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = s / n
            var = (s2 / n) - (avg * avg)
            sd = np.where(var > 0, np.sqrt(np.maximum(var, 0.0)), var)
            swap = np.abs((z - avg) / sd) > ADAPTIVE_THRESHOLD
        v = np.where(swap, avg, z)
        v = np.where((z != spec.nodata) & (n > 2), v, spec.nodata)
        return {"tile_id": [tid], "data": [v.ravel()]}

    return tile_task(spec.n_tiles, per_tile)


# ---------------------------------------------------------------------------
# ConversionTools per-cell utilities (SetNoData / ConvertNoDataToZero /
# AssignRowOrColNumber / NewRasterFromBase / RandomField / ReclassFromFile)
# ---------------------------------------------------------------------------

def set_nodata(ds, spec: RasterSpec, background: float = 0.0):
    """SetNoData (ConversionTools/src/plugins/SetNoData.java:219-220):
    cells equal to backgroundValue become NoData. Run over the class
    band, where background 0 actually occurs."""

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, data in zip(batch["tile_id"], batch["data"]):
            a = np.asarray(data, dtype=np.float64)
            out["tile_id"].append(int(tid))
            out["data"].append(np.where(a == background, spec.nodata, a))
        return pd.DataFrame(out)

    return ds.map_batches(per_tile, batch_format="pandas")


def convert_nodata_to_zero(ds, spec: RasterSpec):
    """ConvertNoDataToZero (ConversionTools/src/plugins/
    ConvertNoDataToZero.java:197-200): NoData → 0, else passthrough."""

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, data in zip(batch["tile_id"], batch["data"]):
            a = np.asarray(data, dtype=np.float64)
            out["tile_id"].append(int(tid))
            out["data"].append(np.where(a == spec.nodata, 0.0, a))
        return pd.DataFrame(out)

    return ds.map_batches(per_tile, batch_format="pandas")


def assign_row_numbers(spec: RasterSpec) -> "rd.Dataset":
    """AssignRowOrColNumber (RasterCreation family): out(r, c) = r —
    pure tile generator."""

    def per_tile(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        rows = np.repeat(np.arange(r0, r1, dtype=np.float64), spec.cols)
        return {"tile_id": [tid], "data": [rows]}

    return tile_task(spec.n_tiles, per_tile)


def new_raster_from_base(spec: RasterSpec,
                         initial: float = 7.5) -> "rd.Dataset":
    """NewRasterFromBase (RasterCreation): constant raster with the base
    grid's dimensions — pure tile generator."""

    def per_tile(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        return {"tile_id": [tid],
                "data": [np.full((r1 - r0) * spec.cols, initial)]}

    return tile_task(spec.n_tiles, per_tile)


RECLASS_RANGES = [(1.0, 0.0, 250.0), (2.0, 250.0, 500.0),
                  (3.0, 500.0, 800.0)]


def reclass_from_file(ds, spec: RasterSpec, ranges=None):
    """ReclassFromFile / Reclass range mode (the reference's reclass
    loop, e.g. StandardDeviationContrastStretch.java:256-270 — that
    file ships a literal copy of Reclass): first range with
    from ≤ v < toJustLess wins; no match → passthrough; NoData
    propagates."""
    rng = ranges or RECLASS_RANGES

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, data in zip(batch["tile_id"], batch["data"]):
            a = np.asarray(data, dtype=np.float64)
            res = a.copy()
            assigned = np.zeros(a.shape, dtype=bool)
            for new, lo, hi in rng:
                m = (~assigned) & (a >= lo) & (a < hi)
                res[m] = new
                assigned |= m
            res = np.where(a == spec.nodata, spec.nodata, res)
            out["tile_id"].append(int(tid))
            out["data"].append(res)
        return pd.DataFrame(out)

    return ds.map_batches(per_tile, batch_format="pandas")


def find_patch_edge_cells(ds, spec: RasterSpec):
    """FindPatchOrClassEdgeCells (GISTools/src/plugins/
    FindPatchOrClassEdgeCells.java:197-211) over the class band: a valid
    non-zero cell is an edge (val = z) when ANY neighbour differs —
    off-grid reads are NoData ≠ z, so border cells are always edges;
    z = 0 cells keep the initial 0."""
    from .raster import stencil_apply

    def kernel(p: np.ndarray) -> np.ndarray:
        z = p[1:-1, 1:-1]
        H, W = z.shape
        differs = np.zeros(z.shape, dtype=bool)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy == 0 and dx == 0:
                    continue
                nb = p[1 + dy:1 + dy + H, 1 + dx:1 + dx + W]
                differs |= nb != z
        res = np.where((z != spec.nodata) & (z != 0.0) & differs, z, 0.0)
        res = np.where(z != spec.nodata, res, spec.nodata)
        full = np.full_like(p, spec.nodata)
        full[1:-1, 1:-1] = res
        return full

    return stencil_apply(ds, spec, kernel, halo=1)


def filter_local_contrast(ds, spec: RasterSpec, regen=None,
                          alpha: float = 0.5,
                          predefined_std: float = 40.0):
    """FilterLocalContrastEnhancement (ImageProcessingTools/src/plugins/
    FilterLocalContrastEnhancement.java:303-331, 3×3 square): one global
    mean pass, then yij = α·globalMean + (1−α)·avg + (zLast − avg)·
    (σ₀/(σ_pop + 1)). ``zLast`` reproduces the reference's literal bug:
    the loop variable z is overwritten by every window read, so the
    (z − average) term uses the LAST tap (the SE neighbour's RAW value —
    including the NoData sentinel when SE is NoData/off-grid), not the
    centre. n ≤ 2 or σ ≤ 0 → NoData."""
    st = _global_valid_stats(ds, spec)
    gmean = st["mean"]

    from .raster import stencil_apply

    def kernel(p: np.ndarray) -> np.ndarray:
        z = p[1:-1, 1:-1]
        H, W = z.shape
        n = np.zeros_like(z)
        s = np.zeros_like(z)
        s2 = np.zeros_like(z)
        last = None
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                nb = p[1 + dy:1 + dy + H, 1 + dx:1 + dx + W]
                ok = nb != spec.nodata
                n = n + ok
                s = s + np.where(ok, nb, 0.0)
                s2 = s2 + np.where(ok, nb * nb, 0.0)
                last = nb
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = s / n
            var = (s2 / n) - (avg * avg)
            sd = np.sqrt(np.maximum(var, 0.0))
            yij = (alpha * gmean) + ((1.0 - alpha) * avg) \
                + (last - avg) * (predefined_std / (sd + 1.0))
        good = (z != spec.nodata) & (n > 2) & (var > 0)
        res = np.where(good, yij, spec.nodata)
        full = np.full_like(p, spec.nodata)
        full[1:-1, 1:-1] = res
        return full

    return stencil_apply(ds, spec, kernel, halo=1, regen=regen)


def test_for_normality(ds, spec: RasterSpec, num_bins: int = 10000):
    """TestForNormality (StatsTools/src/plugins/TestForNormality.java
    :238-377, whole-image mode): 10,000-bin histogram + the reference's
    TWO-PASS deviation (mean first, then Σ(z−mean)²), discretized
    normal CDF at bin left edges, Dmax = max |cdf − normalCDF|, and the
    literal p-value approximation. Output one row
    (n, dmax, p_value)."""
    st = _global_valid_stats(ds, spec)
    lo, hi, n = st["min"], st["max"], st["n"]
    mean = st["mean"]
    bin_size = (hi - lo) / num_bins

    def dev_partial(batch: pd.DataFrame) -> pd.DataFrame:
        t = 0.0
        for data in batch["data"]:
            a = np.asarray(data, dtype=np.float64)
            a = a[a != spec.nodata]
            t += ((a - mean) * (a - mean)).sum()
        return pd.DataFrame({"t": [t]})

    total_dev = float(ds.map_batches(dev_partial, batch_format="pandas")
                      .to_pandas()["t"].sum())
    std = math.sqrt(total_dev / (n - 1))

    def bin_of(a: np.ndarray) -> np.ndarray:
        return np.minimum(np.trunc((a - lo) / bin_size).astype(np.int64),
                          num_bins - 1)

    hist = _dense_histogram(ds, spec, lo, num_bins, bin_of)
    cdf = hist.cumsum().astype(np.float64) / float(n)
    i = np.arange(num_bins, dtype=np.float64)
    zed = lo + i * bin_size
    sd_root2pi = std * math.sqrt(2.0 * math.pi)
    two_sd_sqr = 2.0 * std * std
    pdf = 1.0 / sd_root2pi * np.exp((-(zed - mean) * (zed - mean))
                                    / two_sd_sqr)
    ncdf = np.cumsum(pdf)
    ncdf = ncdf / ncdf[-1]
    dmax = float(np.max(np.abs(cdf - ncdf)))
    s_stat = n * dmax * dmax
    p_value = 2.0 * math.exp(-(2.000071 + 0.331 / math.sqrt(n) + 1.409 / n)
                             * s_stat)
    return pd.DataFrame({"n": [np.int64(n)],
                         "dmax": [round(dmax, 5)],
                         "p_value": [round(p_value, 5)]})


def balance_contrast_enhancement(ds, spec: RasterSpec, e_target: int = 100):
    """BalanceContrastEnhancement (ImageProcessingTools/src/plugins/
    BalanceContrastEnhancement.java:240-365): per-channel parabola remap
    of a packed RGB composite — channel stats (min, max, LONG-division
    mean, mean square), b/a/c coefficients, (int) truncation, clamp,
    repack (255<<24 | b<<16 | g<<8 | r, signed). Validated against the
    reference's own shipped LandsatData golden composite
    (tests/test_sources_state.py). One stats pass + stateless remap."""
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        for data in batch["data"]:
            z = np.asarray(data, dtype=np.float64)
            z = z[z != spec.nodata]
            zi = z.astype(np.int64)
            row = {"n": len(zi)}
            for name, shift in (("r", 0), ("g", 8), ("b", 16)):
                c = (zi >> shift) & 0xFF
                row[f"{name}_min"] = int(c.min()) if len(c) else 255
                row[f"{name}_max"] = int(c.max()) if len(c) else 0
                row[f"{name}_sum"] = int(c.sum())
                row[f"{name}_sq"] = int((c * c).sum())
            out.append(row)
        return pd.DataFrame(out)

    st = ds.map_batches(partial, batch_format="pandas").to_pandas()
    n = int(st["n"].sum())
    L, H = 0, 255
    coef = {}
    for name in ("r", "g", "b"):
        low = int(st[f"{name}_min"].min())
        high = int(st[f"{name}_max"].max())
        e = int(st[f"{name}_sum"].sum()) // n
        s = int(st[f"{name}_sq"].sum()) / n
        bb = (high * high * (e_target - L) - s * (H - L)
              + low * low * (H - e_target)) \
            / (2 * (high * (e_target - L) - e * (H - L)
                    + low * (H - e_target)))
        aa = (H - L) / ((high - low) * (high + low - 2 * bb))
        cc = L - aa * ((low - bb) * (low - bb))
        coef[name] = (aa, bb, cc)

    def remap(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, data in zip(batch["tile_id"], batch["data"]):
            z = np.asarray(data, dtype=np.float64)
            zi = z.astype(np.int64)
            chans = {}
            for name, shift in (("r", 0), ("g", 8), ("b", 16)):
                c = (zi >> shift) & 0xFF
                aa, bb, cc = coef[name]
                v = np.trunc(aa * ((c - bb) * (c - bb)) + cc)
                chans[name] = np.clip(v, 0, 255).astype(np.int64)
            packed = ((255 << 24) | (chans["b"] << 16)
                      | (chans["g"] << 8) | chans["r"])
            packed = packed.astype(np.int32).astype(np.float64)  # signed
            res = np.where(z == spec.nodata, spec.nodata, packed)
            out["tile_id"].append(int(tid))
            out["data"].append(res)
        return pd.DataFrame(out)

    return ds.map_batches(remap, batch_format="pandas")


def synth_composite(spec: RasterSpec) -> "rd.Dataset":
    """Packed signed RGB composite from the synth band: r = trunc(v·
    0.255), g = trunc(v) % 256, b = cell % 256 (NoData preserved)."""
    def per_tile(tid: int) -> dict:
        cell = spec.band_cells(tid)
        v = synth_value(cell)
        r = np.trunc(v * 0.255).astype(np.int64)
        g = (np.trunc(v).astype(np.int64)) % 256
        b = cell % 256
        packed = ((255 << 24) | (b << 16) | (g << 8) | r) \
            .astype(np.int32).astype(np.float64)
        return {"tile_id": [tid], "data": [np.where(v == NODATA, v, packed)]}

    return tile_task(spec.n_tiles, per_tile)


def direct_decorrelation_stretch(ds, spec: RasterSpec, k: float = 0.5):
    """DirectDecorrelationStretch (ImageProcessingTools/src/plugins/
    DirectDecorrelationStretch.java:235-333): pass 1 subtracts k·min
    (r, g, b) per cell ((int) trunc, clamp), pass 2 rescales each
    channel by its pass-1 maximum ((int)(c/max·255), clamp). One
    map + bounded channel-max combine + one map."""
    def pass1(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, data in zip(batch["tile_id"], batch["data"]):
            z = np.asarray(data, dtype=np.float64)
            zi = z.astype(np.int64)
            r = zi & 0xFF
            g = (zi >> 8) & 0xFF
            b = (zi >> 16) & 0xFF
            mn = np.minimum(np.minimum(r, g), b)
            ro = np.clip(np.trunc(r - k * mn), 0, 255).astype(np.int64)
            go = np.clip(np.trunc(g - k * mn), 0, 255).astype(np.int64)
            bo = np.clip(np.trunc(b - k * mn), 0, 255).astype(np.int64)
            packed = ((255 << 24) | (bo << 16) | (go << 8) | ro) \
                .astype(np.int32).astype(np.float64)
            out["tile_id"].append(int(tid))
            out["data"].append(np.where(z == spec.nodata, z, packed))
        return pd.DataFrame(out)

    mid = ds.map_batches(pass1, batch_format="pandas")

    def chan_max(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for data in batch["data"]:
            z = np.asarray(data, dtype=np.float64)
            zi = z[z != spec.nodata].astype(np.int64)
            rows.append({
                "rmax": int((zi & 0xFF).max()) if len(zi) else 0,
                "gmax": int(((zi >> 8) & 0xFF).max()) if len(zi) else 0,
                "bmax": int(((zi >> 16) & 0xFF).max()) if len(zi) else 0})
        return pd.DataFrame(rows)

    st = mid.map_batches(chan_max, batch_format="pandas").to_pandas()
    rmax = int(st["rmax"].max())
    gmax = int(st["gmax"].max())
    bmax = int(st["bmax"].max())

    def pass2(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, data in zip(batch["tile_id"], batch["data"]):
            z = np.asarray(data, dtype=np.float64)
            zi = z.astype(np.int64)
            r = zi & 0xFF
            g = (zi >> 8) & 0xFF
            b = (zi >> 16) & 0xFF
            ro = np.clip(np.trunc(r / rmax * 255), 0, 255).astype(np.int64)
            go = np.clip(np.trunc(g / gmax * 255), 0, 255).astype(np.int64)
            bo = np.clip(np.trunc(b / bmax * 255), 0, 255).astype(np.int64)
            packed = ((255 << 24) | (bo << 16) | (go << 8) | ro) \
                .astype(np.int32).astype(np.float64)
            out["tile_id"].append(int(tid))
            out["data"].append(np.where(z == spec.nodata, z, packed))
        return pd.DataFrame(out)

    return mid.map_batches(pass2, batch_format="pandas")


# ---------------------------------------------------------------------------
# LeeSigmaFilter (WhiteboxGIS/resources/plugins/Scripts/LeeSigmaFilter.groovy
# :160-196): per valid cell, mean of the window samples within ±2σ of the
# centre (centre always qualifies); if the in-band count is ≤ M, fall back
# to the plain mean of the valid 3×3 ring (centre excluded); empty ring →
# NoData (the output's initial value).
# ---------------------------------------------------------------------------

def lee_sigma_kernel(p: np.ndarray, nodata: float, sigma: float,
                     m: int) -> np.ndarray:
    z = p[1:-1, 1:-1]
    H, W = z.shape
    s2 = sigma * 2.0  # the script doubles sigma (:104)
    n = np.zeros_like(z)
    s = np.zeros_like(z)
    n8 = np.zeros_like(z)
    s8 = np.zeros_like(z)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            nb = p[1 + dy:1 + dy + H, 1 + dx:1 + dx + W]
            valid = nb != nodata
            inband = valid & (nb >= z - s2) & (nb <= z + s2)
            n += inband
            s += np.where(inband, nb, 0.0)
            if dx or dy:
                n8 += valid
                s8 += np.where(valid, nb, 0.0)
    res = np.where(n > m, s / np.maximum(n, 1.0),
                   np.where(n8 > 0, s8 / np.maximum(n8, 1.0), nodata))
    res = np.where(z != nodata, res, nodata)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = res
    return out


def lee_sigma_filter(ds, spec: RasterSpec, regen=None, sigma: float = 30.0,
                     m: int = 1):
    from .raster import stencil_apply
    return stencil_apply(
        ds, spec, lambda p: lee_sigma_kernel(p, spec.nodata, sigma, m),
        halo=1, regen=regen)


# ---------------------------------------------------------------------------
# FilterUserDefinedWeights (WhiteboxGIS/resources/plugins/Scripts/
# FilterUserDefinedWeights.groovy): convolution with a kernel parsed
# from a TEXT FILE (delimiter fallback tab → comma → space, :107-123;
# centre = floor(cols/2), floor(rows/2) in "kernel center" mode,
# :126-129). Valid taps only; normalize divides by the Σ of the VALID
# weights (:251-265). This is the tool family's user-extension surface:
# the kernel file is data, not code.
# ---------------------------------------------------------------------------

def parse_kernel_file(path: str, center_on: str = "kernel center"):
    """(dy, dx, weight) taps per the literal parse."""
    text = open(path).read()
    lines = text.split("\n")
    delimiter = "\t"
    k_cols = len(lines[0].split(delimiter))
    if k_cols == 1:
        delimiter = ","
        k_cols = len(lines[0].split(delimiter))
        if k_cols == 1:
            delimiter = " "
            k_cols = len(lines[0].split(delimiter))
    k_rows = len(lines)
    if center_on == "kernel center":
        cx = int(np.floor(k_cols / 2.0))
        cy = int(np.floor(k_rows / 2.0))
    elif center_on == "upper-left corner":
        cx = cy = 0
    else:
        cx, cy = k_cols, k_rows
    taps = []
    for i, line in enumerate(lines):
        parts = line.split(delimiter)
        for j in range(min(k_cols, len(parts))):
            s = parts[j].strip()
            try:
                w = float(s)
            except ValueError:
                continue
            taps.append((i - cy, j - cx, w))
    return taps


def user_defined_weights_kernel(p: np.ndarray, nodata: float, taps,
                                halo: int, normalize: bool) -> np.ndarray:
    z = p[halo:-halo, halo:-halo]
    H, W = z.shape
    total = np.zeros_like(z)
    tw = np.zeros_like(z)
    for dy, dx, w in taps:
        nb = p[halo + dy:halo + dy + H, halo + dx:halo + dx + W]
        valid = nb != nodata
        total = total + np.where(valid, nb * w, 0.0)
        tw = tw + np.where(valid, w, 0.0)
    if normalize:
        with np.errstate(divide="ignore", invalid="ignore"):
            total = total / tw
    res = np.where(z != nodata, total, nodata)
    out = np.full_like(p, nodata)
    out[halo:-halo, halo:-halo] = res
    return out


DEFAULT_KERNEL_TEXT = ("0.05\t0.2 \t0.1\t0.3\t0.25\n"
                       "0.15\t1.0\t0.5\t0.25\t0.4\n"
                       "0.05\t0.45\t0.35\t0.2\t0.15")


def filter_user_defined_weights(ds, spec: RasterSpec, regen=None,
                                kernel_path: str | None = None,
                                normalize: bool = True):
    from .raster import stencil_apply
    if kernel_path is None:
        kernel_path = "/tmp/graft_user_kernel.txt"
        with open(kernel_path, "w") as f:
            f.write(DEFAULT_KERNEL_TEXT)
    taps = parse_kernel_file(kernel_path)
    halo = max(max(abs(dy), abs(dx)) for dy, dx, _ in taps)
    return stencil_apply(
        ds, spec,
        lambda p: user_defined_weights_kernel(p, spec.nodata, taps, halo,
                                              normalize),
        halo=halo, regen=regen)


# ---------------------------------------------------------------------------
# MosaicWithFeathering (ImageProcessingTools/src/plugins/
# MosaicWithFeathering.java:420-440): where both images are valid,
# z = w1·z1 + w2·z2 with w_i = dist_i^p / (dist1^p + dist2^p), dist_i =
# euclidean distance to image i's nearest EDGE cell (its boundary ring
# and nodata-adjacent cells are EDT seeds, :344-402); one-valid → that
# value. Synthetic layout: base A = the full grid, append B = a strict
# INTERIOR rectangle of A — for hole-free rectangular sources the EDT
# reduces EXACTLY to the perpendicular boundary gap (min of the four
# 1-D gaps; the nearest seed is the straight-line projection onto the
# boundary ring), and B interior ⊂ A interior means dist1 > 0
# everywhere in the overlap, so the reference's 0/0-NaN corner case
# cannot arise. The general seeded EDT is `distance.euclidean_distance`.
# Per-output-tile gather, no shuffle; exact SQL oracle.
# ---------------------------------------------------------------------------


def _feather_value(cell: np.ndarray) -> np.ndarray:
    """Hole-free base values (synth_value without the NoData branch)."""
    cell = np.asarray(cell, dtype=np.int64)
    return ((cell * 2654435761) % _M).astype(np.float64) / float(_M) * 1000.0


def _feather_value_b(cell: np.ndarray) -> np.ndarray:
    cell = np.asarray(cell, dtype=np.int64)
    return ((cell * _A2 + _C2) % _M).astype(np.float64) / float(_M) * 1000.0


def mosaic_feathering(spec: RasterSpec, power: float = 2.0,
                      round_to: int = 6) -> "rd.Dataset":
    b_r0, b_c0 = 40, 24
    b_r1, b_c1 = spec.rows - 40, spec.cols - 24

    def per_tile(tid: int) -> pd.DataFrame:
        r0, r1 = spec.band(tid)
        rows = np.arange(r0, r1)
        c = np.arange(spec.cols)[None, :]
        r = rows[:, None]
        cell = r * spec.cols + c
        a = _feather_value(cell.ravel()).reshape(len(rows), spec.cols)
        d1 = np.minimum(np.minimum(r, spec.rows - 1 - r),
                        np.minimum(c, spec.cols - 1 - c)
                        ).astype(np.float64)
        in_b = (r >= b_r0) & (r < b_r1) & (c >= b_c0) & (c < b_c1)
        bcell = (r - b_r0) * (b_c1 - b_c0) + (c - b_c0)
        b = _feather_value_b(bcell.ravel()).reshape(in_b.shape)
        d2 = np.minimum(np.minimum(r - b_r0, b_r1 - 1 - r),
                        np.minimum(c - b_c0, b_c1 - 1 - c)
                        ).astype(np.float64)
        w1n = np.power(d1, power)
        w2n = np.power(d2, power)
        s = w1n + w2n
        with np.errstate(invalid="ignore", divide="ignore"):
            blend = (w1n / s) * a + (w2n / s) * b
        out = np.where(in_b, blend, a)
        return pd.DataFrame({
            "row_id": rows,
            "n_valid": np.full(len(rows), spec.cols, dtype=np.int64),
            "row_sum": np.round(out.sum(axis=1), round_to)})

    return tile_task(spec.n_tiles, per_tile)


def change_data_type_integer(ds, spec: RasterSpec) -> "rd.Dataset":
    """ChangeDataType (ConversionTools/src/plugins/ChangeDataType.java:
    237-247, INTEGER branch — the only branch that alters values):
    z = Math.round(v), i.e. floor(v + 0.5) (Java half-up), NoData
    rewritten to the output sentinel −32768. One stateless per-cell
    map; DOUBLE/FLOAT branches are identity copies. Exact SQL oracle."""
    return raster_map(
        ds, lambda a: np.where(a == NODATA, NODATA, np.floor(a + 0.5)))


# ---------------------------------------------------------------------------
# RandomSample (StatsTools/src/plugins/RandomSample.java:242-265): n
# unique random cells written 1..n. The reference draws from an
# UNSEEDED java.util.Random — replaced by the repo's documented
# deterministic substitution (the TurningBands / Rho8 rule): a cell is
# sampled when ((cell·A3+C3) mod M) mod k == 0, and samples are
# numbered 1..n in row-major cell order (the reference numbers in its
# priority-queue poll order, likewise a fixed spatial order).
# Distributed numbering = per-tile counts → driver prefix offsets →
# per-tile label pass (the integral-image offset-chain pattern).
# Exact SQL oracle.
# ---------------------------------------------------------------------------


def random_sample(spec: RasterSpec, k: int = 293,
                  round_to: int = 6) -> pd.DataFrame:
    def tile_counts(tid: int) -> list:
        cell = spec.band_cells(tid)
        m = ((cell * _A3 + _C3) % _M) % k == 0
        return [{"tile_id": tid, "count": int(m.sum())}]

    counts = (tile_task(spec.n_tiles, tile_counts).to_pandas()
              .sort_values("tile_id"))
    offsets = np.concatenate([[0], counts["count"].cumsum().to_numpy()[:-1]])
    off = {int(t): int(o) for t, o in zip(counts["tile_id"], offsets)}

    def label(tid: int) -> pd.DataFrame:
        r0, r1 = spec.band(tid)
        cell = spec.band_cells(tid).reshape(-1, spec.cols)
        m = ((cell * _A3 + _C3) % _M) % k == 0
        sid = np.zeros(cell.shape, dtype=np.int64)
        sid[m] = off[tid] + 1 + np.arange(int(m.sum()))
        return pd.DataFrame({
            "row_id": np.arange(r0, r1),
            "n_samples": m.sum(axis=1).astype(np.int64),
            "sum_sample_id": sid.sum(axis=1)})

    return (tile_task(spec.n_tiles, label)
            .to_pandas().sort_values("row_id").reset_index(drop=True))


def extract_valleys_jr(ds, spec: RasterSpec, regen=None) -> "rd.Dataset":
    """ExtractValleysJohnstonAndRosenfeld (StreamNetworkAnalysisTools/
    src/plugins/ExtractValleysJohnstonAndRosenfeld.java:196-216, no
    thinning): cell = 1 when BOTH the N and S neighbours are valid and
    strictly higher, OR both the W and E neighbours are; else 0;
    NoData propagates. Pure 3×3 stencil (4 shifted-plane compares);
    exact SQL oracle."""
    from .raster import stencil_apply

    def kernel(p: np.ndarray) -> np.ndarray:
        z = p[1:-1, 1:-1]
        nn = p[:-2, 1:-1]
        ss = p[2:, 1:-1]
        ww = p[1:-1, :-2]
        ee = p[1:-1, 2:]
        nod = spec.nodata
        ns = (nn != nod) & (ss != nod) & (nn > z) & (ss > z)
        we = (ww != nod) & (ee != nod) & (ww > z) & (ee > z)
        res = np.where(z != nod, (ns | we).astype(np.float64), nod)
        full = np.full_like(p, nod)
        full[1:-1, 1:-1] = res
        return full

    return stencil_apply(ds, spec, kernel, halo=1, regen=regen)


def extract_valleys_lq(ds, spec: RasterSpec, filter_size: int = 5,
                       regen=None) -> "rd.Dataset":
    """ExtractValleysLowerQuartile (ExtractValleysLowerQuartile.java:
    239-267, no thinning): per cell, collect the filterSize² window
    (invalid/off-grid slots become +∞ — the ``largeValue`` fill at
    :253; NOTE the circular ``filterShape`` mask at :210-219 is
    computed but never applied — literal dead code), sort, and flag 1
    when z ≤ data[n/4] (n = valid count, integer division). Output 0
    otherwise (the raster's initial value), NoData propagates.
    TILE-STENCIL with halo = filterSize//2; exact SQL oracle."""
    from .raster import stencil_apply

    h = filter_size // 2
    nod = spec.nodata

    def kernel(p: np.ndarray) -> np.ndarray:
        H = p.shape[0] - 2 * h
        W = p.shape[1] - 2 * h
        z = p[h:h + H, h:h + W]
        stack = np.stack(
            [p[h + dy:h + dy + H, h + dx:h + dx + W]
             for dy in range(-h, h + 1) for dx in range(-h, h + 1)],
            axis=-1)
        valid = stack != nod
        n = valid.sum(axis=-1)
        data = np.where(valid, stack, np.inf)
        srt = np.sort(data, axis=-1)
        lq = n // 4
        val = np.take_along_axis(srt, lq[..., None], axis=-1)[..., 0]
        res = np.where((z != nod) & (z <= val), 1.0, 0.0)
        res = np.where(z != nod, res, nod)
        full = np.full_like(p, nod)
        full[h:h + H, h:h + W] = res
        return full

    return stencil_apply(ds, spec, kernel, halo=h, regen=regen)


def convert_to_smooth_surface(spec: RasterSpec,
                              round_to: int = 6) -> pd.DataFrame:
    """ConvertToSmoothSurface (WhiteboxGIS/resources/plugins/Scripts/
    ConvertToSmoothSurface.groovy): the script's LIVE semantics are
    exactly two passes — sort every row ascending (:115-118), then
    sort every column ascending (:134-139). (The diagonal-scan third
    pass can never terminate — its ``scanComplete == true`` at :163 is
    a comparison, not an assignment — and every later pass ships
    commented out, so the shipped tool effectively ends after the two
    sorts.) NoData sentinels sort first, literally.

    Distributed: pass 1 is row-local inside each band tile; pass 2 is
    ONE transpose shuffle — per-tile (col, partial values) emits,
    groupby(col) sorts each column, emits (row, col, v) back, and a
    second groupby(row) builds the row view. Exact SQL oracle."""
    from .raster import synth_value

    cols = spec.cols

    def phase1(tid: int) -> list:
        z = synth_value(spec.band_cells(tid)).reshape(-1, cols)
        z = np.sort(z, axis=1)              # row sort
        return [{"col": c, "tile": tid, "vals": z[:, c].tobytes()}
                for c in range(cols)]

    parts = tile_task(spec.n_tiles, phase1)

    def per_col(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("tile")
        v = np.concatenate([np.frombuffer(b) for b in g["vals"]])
        v = np.sort(v)                          # column sort
        return pd.DataFrame({"row": np.arange(len(v), dtype=np.int64),
                             "col": int(g["col"].iloc[0]),
                             "v": v})

    cells = combine(parts, "col", groupwise_combine(per_col, "col"))

    def per_row(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("col")        # fixed float-sum order
        valid = g["v"] != NODATA
        return pd.DataFrame({
            "row_id": [int(g["row"].iloc[0])],
            "n_valid": [int(valid.sum())],
            "row_sum": [round(float(g.loc[valid, "v"].sum()), round_to)]})

    out = combine(cells, "row", groupwise_combine(per_row, "row")).to_pandas()
    return out.sort_values("row_id").reset_index(drop=True)


def write_function_memory(pair: "rd.Dataset",
                          spec: RasterSpec) -> "rd.Dataset":
    """WriteFunctionMemoryInsertion (ImageProcessingTools/src/plugins/
    WriteFunctionMemoryInsertion.java, two-date branch :273-315):
    date 1 → red, date 2 → green, and the BLUE channel literally reads
    the GREEN array with the green image's stats (``blueVal =
    dataGreen[col]`` :289, ``blueMin = greenMin`` :276). Bands
    normalized by display min/max (= actual extrema here), Java (int)
    truncation + clamp, packed (255<<24)|(b<<16)|(g<<8)|r — the
    CreateColourComposite two-phase plan minus the third band. Exact
    SQL oracle."""
    from ray.data.aggregate import Max, Min
    from .raster import raster_row_checksums

    def minmax(batch: pd.DataFrame) -> pd.DataFrame:
        out = {}
        for name, col in (("r", "data"), ("g", "data_b")):
            lo, hi = np.inf, -np.inf
            for d in batch[col]:
                a = np.asarray(d, dtype=np.float64)
                a = a[a != spec.nodata]
                if len(a):
                    lo = min(lo, a.min()); hi = max(hi, a.max())
            out[f"{name}lo"], out[f"{name}hi"] = [lo], [hi]
        return pd.DataFrame(out)

    row = (pair.map_batches(minmax, batch_format="pandas")
           .aggregate(Min("rlo"), Max("rhi"), Min("glo"), Max("ghi")))
    rlo, rhi = row["min(rlo)"], row["max(rhi)"]
    glo, ghi = row["min(glo)"], row["max(ghi)"]

    def pack(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "data": []}
        for tid, a, b in band_pairs(batch):
            valid = (a != spec.nodata) & (b != spec.nodata)
            r8 = np.clip(np.trunc((a - rlo) / (rhi - rlo) * 255.0), 0, 255)
            g8 = np.clip(np.trunc((b - glo) / (ghi - glo) * 255.0), 0, 255)
            b8 = g8                      # the literal blue-reads-green
            z = (float(255 << 24) + b8 * 65536.0 + g8 * 256.0 + r8)
            out["tile_id"].append(int(tid))
            out["data"].append(np.where(valid, z, spec.nodata))
        return pd.DataFrame(out)

    return raster_row_checksums(pair.map_batches(pack,
                                                 batch_format="pandas"),
                                spec)


def random_field(spec: RasterSpec, round_to: int = 6) -> "rd.Dataset":
    """RandomField (StatsTools/src/plugins/RandomField.java:228-235):
    every cell gets ``generator.nextInt(101) / 100.0`` from an
    UNSEEDED java.util.Random — replaced by the repo's documented
    deterministic hash substitution: cell value =
    (((cell·A3+C3) mod M) mod 101) / 100.0. Pure per-tile generator
    map (seeded per tile, SURVEY §2.2); exact SQL oracle."""
    from .raster import raster_row_checksums

    def gen(tid: int) -> dict:
        cell = spec.band_cells(tid)
        v = (((cell * _A3 + _C3) % _M) % 101).astype(np.float64) / 100.0
        return {"tile_id": [tid], "data": [v]}

    ds = tile_task(spec.n_tiles, gen)
    return raster_row_checksums(ds, spec, round_to)


def extract_raster_values_at_points(sf_dir: str,
                                    spec: RasterSpec | None = None,
                                    round_to: int = 6) -> "rd.Dataset":
    """ExtractRasterValuesAtPoints (WhiteboxGIS/resources/plugins/
    Scripts/ExtractRasterValuesAtPoints.groovy:155-186): per point,
    row = getRowFromYCoordinate(y), col = getColumnFromXCoordinate(x)
    (the Math.round cell-centre registration of
    WhiteboxRasterBase.java:1822-1841 — floor(v + 0.5) with
    EWRange = east − west − cellSize), then value = getValue(row, col)
    (off-grid → NoData). The raster header spans the world extent
    (cell = 4000/256 = 15.625, dyadic). The raster is synth-backed so
    the gather is a stateless map (the overlap-read rule); a
    file-backed raster runs the same as the tile-keyed gather of
    SURVEY §2.4. Exact SQL oracle."""
    from ..core.rng import EAST, NORTH, SOUTH, WEST
    from .points import read_points

    spec = spec or RasterSpec()
    rows_, cols_ = spec.rows, spec.cols
    csx = (EAST - WEST) / cols_
    csy = (NORTH - SOUTH) / rows_
    ew_range = EAST - WEST - csx
    ns_range = NORTH - SOUTH - csy

    def fn(batch):
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        col = np.floor((cols_ - 1) * (x - WEST - csx / 2.0)
                       / ew_range + 0.5).astype(np.int64)
        row = np.floor((rows_ - 1) * (NORTH - csy / 2.0 - y)
                       / ns_range + 0.5).astype(np.int64)
        ok = (col >= 0) & (col < cols_) & (row >= 0) & (row < rows_)
        cell = np.where(ok, row * cols_ + col, 0)
        v = synth_value(cell)
        v = np.where(ok, v, NODATA)
        return {"rec_id": np.asarray(batch["rec_id"], dtype=np.int64),
                "row": row, "col": col, "value": np.round(v, round_to)}

    return read_points(sf_dir).map_batches(fn, batch_format="numpy")
