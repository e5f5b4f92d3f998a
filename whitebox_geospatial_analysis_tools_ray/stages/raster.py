"""Raster stages: band model, per-cell math, stencil filters, raster↔vector.

Band model (SURVEY.md §1.1 mapping): a raster is a Dataset of full-width
row-band tiles ``{tile_id:int64, data:list<f64>[(r1-r0)*cols]}`` plus a
small ``RasterSpec`` header (rows, cols, tile_rows, nodata) carried
driver-side. Tile ``tid`` covers rows ``[r0, r1) = RasterSpec.band(tid)``
= ``[tid·tile_rows, min((tid+1)·tile_rows, rows))``; the last band is
short when ``tile_rows`` does not divide ``rows``. All cell values are
float64 with the −32768.0 NoData sentinel, matching
``WhiteboxRasterBase.java`` (values surface as double; NoData checked by
equality and PROPAGATED by every operator — MathTools/src/plugins/Add.java:307).

Three helpers own the model; stages call them instead of re-deriving it:

- ``RasterSpec.band(tid)`` — the band's row range;
- ``padded_band(spec, tid, halo, regen)`` — the band plus ``halo`` ghost
  rows and columns regenerated from the source, NoData outside the grid
  (out-of-grid reads return NoData — WhiteboxRaster.java:535-557);
- ``tile_task(n, fn)`` — one ``rd.range(n)`` plan that runs ``fn(tid)``
  per tile inside a task and concatenates the per-tile frames.

Per-cell math is one vectorized numpy ufunc family over band tensors (the
42 MathTools tools + RasterCalculator compile to this). Stencil ops
(FilterMean etc.) read ``padded_band`` per tile when the raster is
source-backed; a mid-pipeline tile Dataset instead sends each band's edge
rows to its vertical neighbours and ``util.combine`` keyed on the target
tile assembles tile+halo. Semantics per ``FilterMean.java:267-290``:
centre NoData → NoData; else mean of non-NoData cells in the window
clipped to the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd
import ray.data as rd

from ..core.rng import GATE_SIDE, NODATA

_A = 2654435761
_AY = 2246822519
_CY = 1013904223
_M = 4294967296


@dataclass(frozen=True)
class RasterSpec:
    rows: int = 256
    cols: int = 256
    tile_rows: int = 64  # tile = tile_rows × cols (full-width row bands)
    nodata: float = NODATA

    @property
    def n_tiles(self) -> int:
        return math.ceil(self.rows / self.tile_rows)

    def band(self, tid: int) -> tuple[int, int]:
        """Rows ``[r0, r1)`` of row-band tile ``tid``."""
        r0 = int(tid) * self.tile_rows
        return r0, min(r0 + self.tile_rows, self.rows)

    def band_cells(self, tid: int) -> np.ndarray:
        """Linear cell indices of tile ``tid``, row-major."""
        r0, r1 = self.band(tid)
        return np.arange(r0 * self.cols, r1 * self.cols, dtype=np.int64)


# the gate raster of the queries whose exact oracle is a sequential
# recursive-CTE closure (their SQL mirrors default to GATE_SIDE too)
GATE_SPEC = RasterSpec(rows=GATE_SIDE, cols=GATE_SIDE, tile_rows=32)


def synth_value(cell: np.ndarray) -> np.ndarray:
    """Deterministic cell value from linear cell index; NoData where
    hash % 17 == 0. SQL mirror:
    ``CASE WHEN (cell*2246822519+1013904223)%4294967296%17=0 THEN -32768.0
    ELSE ((cell*2654435761)%4294967296)/4294967296.0*1000.0 END``"""
    cell = np.asarray(cell, dtype=np.int64)
    v = ((cell * _A) % _M).astype(np.float64) / float(_M) * 1000.0
    nod = ((cell * _AY + _CY) % _M) % 17 == 0
    return np.where(nod, NODATA, v)


def tile_task(n: int, fn, override_num_blocks: int | None = None
              ) -> "rd.Dataset":
    """``rd.range(n)`` with ``fn(tid)`` run per id inside a task: each
    call returns a frame (a DataFrame, a dict of equal-length columns or
    a list of row dicts) and a batch's frames are concatenated. Empty
    frames are dropped unless every frame is empty, so they do not
    decide column dtypes. ``override_num_blocks`` is ``rd.range``'s own
    argument, passed through; the operator keeps ``fn``'s name."""

    def run(batch) -> pd.DataFrame:
        parts = [pd.DataFrame(fn(int(tid))) for tid in batch["id"]]
        return pd.concat([p for p in parts if len(p)] or parts[:1],
                         ignore_index=True)

    run.__name__ = fn.__name__
    return rd.range(n, override_num_blocks=override_num_blocks).map_batches(
        run, batch_format="numpy")


def padded_band(spec: RasterSpec, tid: int, halo: int,
                regen=synth_value) -> np.ndarray:
    """Tile ``tid``'s band with ``halo`` ghost rows above and below and
    ``halo`` columns left and right: a ``(r1-r0+2·halo, cols+2·halo)``
    float64 array whose in-grid cells are ``regen(cell index)`` and whose
    out-of-grid cells are NoData. The band itself is
    ``[halo:halo+r1-r0, halo:halo+cols]``."""
    r0, r1 = spec.band(tid)
    lo, hi = max(r0 - halo, 0), min(r1 + halo, spec.rows)
    padded = np.full((r1 - r0 + 2 * halo, spec.cols + 2 * halo), spec.nodata)
    cell = np.arange(lo * spec.cols, hi * spec.cols, dtype=np.int64)
    padded[halo + lo - r0:halo + hi - r0, halo:halo + spec.cols] = \
        regen(cell).reshape(hi - lo, spec.cols)
    return padded


def synth_raster(spec: RasterSpec = RasterSpec()) -> "rd.Dataset":
    """Generate the synthetic raster as a Dataset of row-band tiles,
    each produced inside a task (never materialized on the driver)."""

    def gen(tid: int) -> dict:
        return {"tile_id": [tid], "data": [synth_value(spec.band_cells(tid))]}

    return tile_task(spec.n_tiles, gen)


def synth_class_value(cell: np.ndarray) -> np.ndarray:
    """Categorical synth band: floor(v/100) (classes 0-9), NoData
    preserved — the majority-filter surface (a continuous band makes
    every window all-distinct and the mode degenerate). SQL mirror:
    wrap the synth_value CASE in floor(v/100.0)."""
    v = synth_value(cell)
    return np.where(v == NODATA, v, np.floor(v / 100.0))


def raster_map(ds: "rd.Dataset", fn, nodata: float = NODATA) -> "rd.Dataset":
    """Per-cell math with NoData propagation (in==NoData → out==NoData)."""

    def apply(batch: pd.DataFrame) -> pd.DataFrame:
        def one(a):
            a = np.asarray(a, dtype=np.float64)
            m = a == nodata
            out = fn(a)
            out[m] = nodata
            return out
        batch["data"] = batch["data"].map(one)
        return batch

    return ds.map_batches(apply, batch_format="pandas")


def band_pairs(batch):
    """``(tile_id, a, b)`` per row of a two-band tile batch
    ``{tile_id, data, data_b}``, with ``a`` and ``b`` as flat float64
    arrays."""
    for tid, da, db in zip(batch["tile_id"], batch["data"], batch["data_b"]):
        yield (int(tid), np.asarray(da, dtype=np.float64),
               np.asarray(db, dtype=np.float64))


def raster_row_checksums(ds: "rd.Dataset", spec: RasterSpec,
                         round_to: int = 6) -> "rd.Dataset":
    """Reduce a tile raster to per-raster-row checksums
    (row_id, n_valid, row_sum) — the compact conformance output."""

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for tid, data in zip(batch["tile_id"], batch["data"]):
            a = np.asarray(data, dtype=np.float64).reshape(-1, spec.cols)
            valid = a != spec.nodata
            frames.append(pd.DataFrame({
                "row_id": spec.band(tid)[0] + np.arange(a.shape[0]),
                "n_valid": valid.sum(axis=1).astype(np.int64),
                "row_sum": np.round(np.where(valid, a, 0.0).sum(axis=1), round_to),
            }))
        return pd.concat(frames, ignore_index=True)

    return ds.map_batches(per_tile, batch_format="pandas")


def stencil_apply(ds: "rd.Dataset", spec: RasterSpec, kernel,
                  halo: int = 1, regen=None) -> "rd.Dataset":
    """Generic TILE-STENCIL: apply a windowed ``kernel`` with reach ``halo``
    via halo exchange between row-band tiles.

    One ``map_batches`` pass turns each tile into (target_tile, kind,
    payload) rows: its own band plus its edge rows sent as halos to the
    tiles above/below; ``util.combine`` keyed on ``target`` assembles
    [halo_top; band; halo_bottom]. Rows and
    columns beyond the grid are padded with NoData (out-of-grid reads
    return NoData — WhiteboxRaster.java:535-557 default), so ``kernel``
    receives a fully padded array and needs no boundary cases: it gets a
    (H+2·halo, W+2·halo) float64 array and must return the same shape
    (only the interior is kept).

    This is the SURVEY.md §2.9 pattern backing the whole convolution /
    terrain-derivative family; shuffle key = target tile id. When the
    raster is SOURCE-BACKED pass ``regen`` to switch to the overlap-read
    plan (stencil_apply_regen) — no shuffle at all.

    The exchange sends halo rows only to tiles ``tid ± 1``, so it needs
    ``tile_rows >= halo``; a narrower tile raises ``ValueError`` (the
    overlap-read plan has no such limit).
    """
    if regen is not None:
        return stencil_apply_regen(spec, kernel, halo=halo, regen=regen)
    if spec.tile_rows < halo:
        raise ValueError(f"stencil_apply: tile_rows={spec.tile_rows} < "
                         f"halo={halo}; the halo exchange reaches only "
                         "the adjacent tiles")

    def emit(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"target": [], "kind": [], "data": []}
        for tid, data in zip(batch["tile_id"], batch["data"]):
            tid = int(tid)
            a = np.asarray(data, dtype=np.float64).reshape(-1, spec.cols)
            out["target"].append(tid); out["kind"].append(0)
            out["data"].append(a.ravel())
            if tid > 0:  # my top rows are the halo BELOW tile tid-1
                out["target"].append(tid - 1); out["kind"].append(2)
                out["data"].append(a[:halo].ravel())
            if tid < spec.n_tiles - 1:  # my bottom rows go ABOVE tile tid+1
                out["target"].append(tid + 1); out["kind"].append(1)
                out["data"].append(a[-halo:].ravel())
        return pd.DataFrame(out)

    halos = ds.map_batches(emit, batch_format="pandas")
    nodata = spec.nodata

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        target = int(g["target"].iloc[0])
        own = np.asarray(g.loc[g["kind"] == 0, "data"].iloc[0],
                         dtype=np.float64).reshape(-1, spec.cols)
        top = g.loc[g["kind"] == 1, "data"]
        bot = g.loc[g["kind"] == 2, "data"]
        H = own.shape[0]
        padded = np.full((H + 2 * halo, spec.cols + 2 * halo), nodata)
        padded[halo:halo + H, halo:-halo] = own
        if len(top):
            t = np.asarray(top.iloc[0], dtype=np.float64).reshape(-1, spec.cols)
            padded[halo - t.shape[0]:halo, halo:-halo] = t
        if len(bot):
            b = np.asarray(bot.iloc[0], dtype=np.float64).reshape(-1, spec.cols)
            padded[halo + H:halo + H + b.shape[0], halo:-halo] = b
        filt = kernel(padded)
        res = filt[halo:halo + H, halo:-halo]
        return pd.DataFrame({"tile_id": [target], "data": [res.ravel()]})

    from .util import combine, groupwise_combine
    return combine(halos, "target", groupwise_combine(assemble, "target"))


def stencil_apply_regen(spec: RasterSpec, kernel, halo: int = 1,
                        regen=None) -> "rd.Dataset":
    """OVERLAP-READ stencil: each tile task regenerates (or re-reads)
    its own band PLUS ``halo`` ghost rows directly from the source —
    the pattern hydro._tile_pointers already uses. No shuffle at all:
    the duplicated work is 2·halo rows per band, ~halo/tile_rows of the
    input, which at 100 TB beats an all-to-all that ships every band
    through the object store (measured 6× on a 2048² slope). Use when
    the raster is source-backed (synth generator, Parquet row groups,
    byte-range formats); ``stencil_apply`` remains for mid-pipeline
    tensors with no re-readable source."""
    regen = regen or synth_value

    def per_tile(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        filt = kernel(padded_band(spec, tid, halo, regen))
        return {"tile_id": [tid],
                "data": [filt[halo:halo + r1 - r0, halo:-halo].ravel()]}

    return tile_task(spec.n_tiles, per_tile)


def stencil_mean3x3(ds: "rd.Dataset", spec: RasterSpec,
                    regen=None) -> "rd.Dataset":
    """FilterMean 3×3 (FilterMean.java:267-290 semantics)."""
    return stencil_apply(ds, spec, lambda p: _mean3x3(p, spec.nodata),
                         halo=1, regen=regen)


_FILTER_REDUCERS = ("median", "minimum", "maximum", "range", "total",
                    "stdev", "diversity", "majority")


def stencil_filter3x3(ds: "rd.Dataset", spec: RasterSpec,
                      reducer: str, regen=None) -> "rd.Dataset":
    """FilterMedian / FilterMinimum / FilterMaximum / FilterRange /
    FilterTotal / FilterStandardDeviation / FilterDiversity
    (ImageProcessingTools/src/plugins/Filter*.java — same window contract
    as FilterMean: centre NoData → NoData, else reduce the non-NoData
    cells of the 3×3 window clipped to the grid; std-dev is the SAMPLE
    std-dev, diversity the count of distinct values)."""
    if reducer not in _FILTER_REDUCERS:
        raise ValueError(f"unknown reducer {reducer!r}")

    def kern(p: np.ndarray) -> np.ndarray:
        return _window_reduce3x3(p, spec.nodata, reducer)

    return stencil_apply(ds, spec, kern, halo=1, regen=regen)


def _shift_stack3x3(a: np.ndarray) -> np.ndarray:
    """(9, H-2, W-2) view stack of the 3×3 neighbourhoods of the interior."""
    H, W = a.shape
    return np.stack([a[1 + dr:H - 1 + dr, 1 + dc:W - 1 + dc]
                     for dr in (-1, 0, 1) for dc in (-1, 0, 1)])


def _window_reduce3x3(p: np.ndarray, nodata: float, reducer: str) -> np.ndarray:
    stack = _shift_stack3x3(p)
    valid = stack != nodata
    nan_stack = np.where(valid, stack, np.nan)
    n = valid.sum(axis=0)
    with np.errstate(invalid="ignore"):
        if reducer == "median":
            r = np.nanmedian(np.where(n > 0, nan_stack, 0.0), axis=0)
        elif reducer == "minimum":
            r = np.nanmin(np.where(n > 0, nan_stack, 0.0), axis=0)
        elif reducer == "maximum":
            r = np.nanmax(np.where(n > 0, nan_stack, 0.0), axis=0)
        elif reducer == "range":
            r = (np.nanmax(np.where(n > 0, nan_stack, 0.0), axis=0)
                 - np.nanmin(np.where(n > 0, nan_stack, 0.0), axis=0))
        elif reducer == "total":
            r = np.nansum(nan_stack, axis=0)
        elif reducer == "stdev":
            r = np.where(n > 1, np.nanstd(nan_stack, axis=0, ddof=1), 0.0)
        elif reducer == "diversity":
            s = np.sort(np.where(valid, stack, np.inf), axis=0)
            r = ((np.diff(s, axis=0) != 0) & np.isfinite(s[1:])).sum(axis=0) + (n > 0)
            r = r.astype(np.float64)
        elif reducer == "majority":
            # FilterMajority.java:280-309: scan ascending-sorted valid
            # values, replace the mode only on a STRICTLY greater count
            # — the SMALLEST value wins count ties. Equality-count
            # matrix (9×9) + first argmax over the ascending sort.
            s = np.sort(np.where(valid, stack, np.inf), axis=0)
            cnt = (s[None, :] == s[:, None]).sum(axis=1)
            cnt = np.where(np.isfinite(s), cnt, -1)
            r = np.take_along_axis(s, np.argmax(cnt, axis=0)[None],
                                   axis=0)[0]
    out = np.full_like(p, nodata)
    interior = np.where((p[1:-1, 1:-1] != nodata) & (n > 0), r, nodata)
    out[1:-1, 1:-1] = interior
    return out


def _mean3x3(a: np.ndarray, nodata: float) -> np.ndarray:
    """Vectorized FilterMean kernel: mean of non-NoData cells in the 3×3
    window clipped to the array; centre NoData stays NoData."""
    valid = a != nodata
    vals = np.where(valid, a, 0.0)
    H, W = a.shape
    s = np.zeros((H, W)); n = np.zeros((H, W))
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            r0, r1 = max(0, -dr), min(H, H - dr)
            c0, c1 = max(0, -dc), min(W, W - dc)
            s[r0:r1, c0:c1] += vals[r0 + dr:r1 + dr, c0 + dc:c1 + dc]
            n[r0:r1, c0:c1] += valid[r0 + dr:r1 + dr, c0 + dc:c1 + dc]
    out = np.where(n > 0, s / np.maximum(n, 1), nodata)
    out[~valid] = nodata
    return out


def raster_to_points_count(ds: "rd.Dataset", spec: RasterSpec,
                           threshold: float = 500.0) -> "rd.Dataset":
    """RasterToVectorPoints-style: emit a point per valid cell above a
    threshold; here reduced to per-tile counts (tile_id, n_points)."""

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"tile_id": [], "n_points": []}
        for tid, data in zip(batch["tile_id"], batch["data"]):
            a = np.asarray(data, dtype=np.float64)
            out["tile_id"].append(int(tid))
            out["n_points"].append(int(((a != spec.nodata) & (a > threshold)).sum()))
        return pd.DataFrame(out)

    return ds.map_batches(per_tile, batch_format="pandas")


def raster_row_int_checksums(ds: "rd.Dataset", spec: RasterSpec,
                             scale: float = 1000.0) -> "rd.Dataset":
    """Order-independent conformance output: per-raster-row
    (row_id, n_valid, row_isum) with row_isum = Σ floor(v·scale + 0.5)
    as int64. Float SUM order differs between engines (numpy pairwise
    vs SQL sequential — measured 5-ulp drift on a 49-tap kernel), so
    wide-window kernels checksum through this integer quantization:
    per-cell doubles are bit-identical across engines, making
    floor(v·scale + 0.5) exact on both sides and the integer sum
    associativity-free."""

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for tid, data in zip(batch["tile_id"], batch["data"]):
            a = np.asarray(data, dtype=np.float64).reshape(-1, spec.cols)
            valid = a != spec.nodata
            q = np.floor(a * scale + 0.5)
            frames.append(pd.DataFrame({
                "row_id": spec.band(tid)[0] + np.arange(a.shape[0]),
                "n_valid": valid.sum(axis=1).astype(np.int64),
                "row_isum": np.where(valid, q, 0.0).sum(axis=1).astype(np.int64),
            }))
        return pd.concat(frames, ignore_index=True)

    return ds.map_batches(per_tile, batch_format="pandas")
