"""RasterToVectorPolygons (ConversionTools/src/plugins/
RasterToVectorPolygons.java:217-410 — edge numbering + boundary trace
with ``traceDirection``) re-expressed Ray-Data-first.

Instead of the reference's sequential whole-grid boundary walk, each
tile emits the DIRECTED boundary edges of its cells (vectorized shifts;
1-row halo resolves cross-tile sides), oriented so the region's
interior is always on the same side — the per-cell equivalent of the
reference's clockwise shell / counter-clockwise hole convention
(Topology.java:33-136). One ``groupby(value)`` shuffle moves only
(value, start_vertex, end_vertex) triples; each group assembles its
rings by following out-edges, resolving saddle vertices (2-in/2-out)
with a deterministic sharpest-clockwise-turn rule — the same
disambiguation the reference's traceDirection preference encodes.

Invariants asserted in tests: Σ signed ring areas per value == the
value's cell count (holes subtract), perimeter == directed edge count,
assembly is tiling-invariant and equals the single-process whole-grid
result.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from .raster import NODATA, RasterSpec, padded_band, synth_value, tile_task
from .util import combine, groupwise_combine

N_CLASSES = 6
CLASS_WIDTH = 175.0

# direction of travel per cell side, region interior on rot+90(d) side
_SIDES = (  # (neighbour dr, dc), (start corner dx, dy), (edge dx, dy)
    ((-1, 0), (0, 0), (1, 0)),    # top: (c,r) → (c+1,r)
    ((0, 1), (1, 0), (0, 1)),     # right: (c+1,r) → (c+1,r+1)
    ((1, 0), (1, 1), (-1, 0)),    # bottom: (c+1,r+1) → (c,r+1)
    ((0, -1), (0, 1), (0, -1)),   # left: (c,r+1) → (c,r)
)


def classify(z: np.ndarray, nodata: float) -> np.ndarray:
    """Categorical raster: class = floor(value / CLASS_WIDTH), −1 for
    NoData (background, never polygonized)."""
    cls = np.floor(z / CLASS_WIDTH).astype(np.int64)
    return np.where(z == nodata, -1, np.clip(cls, 0, N_CLASSES - 1))


def _tile_edges(spec: RasterSpec, tid: int) -> pd.DataFrame:
    """Directed boundary edges (value, sx, sy, ex, ey) for one tile,
    halo rows resolving the cross-tile sides."""
    r0, r1 = spec.band(tid)
    pad = classify(padded_band(spec, tid, 1), spec.nodata)
    core = slice(1, 1 + r1 - r0)
    c_cls = pad[core, 1:-1]
    out = {"value": [], "sx": [], "sy": [], "ex": [], "ey": []}
    for (dr, dc), (cx0, cy0), (dx, dy) in _SIDES:
        nb = pad[core.start + dr: core.stop + dr, 1 + dc: 1 + spec.cols + dc]
        m = (c_cls >= 0) & (c_cls != nb)
        rr, cc = np.nonzero(m)
        if not len(rr):
            continue
        gr = rr + r0
        sx = cc + cx0
        sy = gr + cy0
        out["value"].append(c_cls[rr, cc])
        out["sx"].append(sx)
        out["sy"].append(sy)
        out["ex"].append(sx + dx)
        out["ey"].append(sy + dy)
    if not out["value"]:
        return pd.DataFrame({k: pd.Series([], dtype="int64") for k in out})
    return pd.DataFrame({k: np.concatenate(v) for k, v in out.items()})


def _assemble(df: pd.DataFrame) -> tuple[int, int, int]:
    """(n_rings, perimeter, signed_area_sum) for one value's edges."""
    sx = df["sx"].to_numpy(); sy = df["sy"].to_numpy()
    ex = df["ex"].to_numpy(); ey = df["ey"].to_numpy()
    n = len(sx)
    # deterministic edge order
    order = np.lexsort((ey, ex, sy, sx))
    sx, sy, ex, ey = sx[order], sy[order], ex[order], ey[order]
    outmap: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        outmap.setdefault((sx[i], sy[i]), []).append(i)
    used = np.zeros(n, dtype=bool)
    n_rings = 0
    area2 = 0  # 2 × signed shoelace, integer-exact
    for start in range(n):
        if used[start]:
            continue
        n_rings += 1
        i = start
        while True:
            used[i] = True
            area2 += sx[i] * ey[i] - ex[i] * sy[i]
            key = (ex[i], ey[i])
            cands = [j for j in outmap.get(key, ()) if not used[j]]
            if not cands:
                break  # ring closed (back at start vertex)
            if len(cands) == 1:
                i = cands[0]
            else:
                # saddle: sharpest clockwise turn relative to incoming
                din = (ex[i] - sx[i], ey[i] - sy[i])
                def turn(j):
                    dout = (ex[j] - sx[j], ey[j] - sy[j])
                    cross = din[0] * dout[1] - din[1] * dout[0]
                    dot = din[0] * dout[0] + din[1] * dout[1]
                    # prefer right turn (cross>0 in y-down), then straight
                    return (-cross, -dot)
                i = min(cands, key=turn)
    return n_rings, n, area2


def raster_to_polygons(spec: RasterSpec | None = None) -> "rd.Dataset":
    """(value, n_rings, perimeter, area) per class value."""
    spec = spec or RasterSpec()

    def per_value(df: pd.DataFrame) -> pd.DataFrame:
        rings, perim, area2 = _assemble(df)
        return pd.DataFrame({"value": [int(df["value"].iloc[0])],
                             "n_rings": [rings], "perimeter": [perim],
                             "area": [area2 // 2]})

    def edges(tid: int) -> pd.DataFrame:
        return _tile_edges(spec, tid)

    ds = tile_task(spec.n_tiles, edges)
    return combine(ds, "value",
                   groupwise_combine(per_value, "value")).sort("value")


def raster_to_polygons_naive(spec: RasterSpec) -> pd.DataFrame:
    """Whole-grid single-tile mirror."""
    one = RasterSpec(rows=spec.rows, cols=spec.cols, tile_rows=spec.rows,
                     nodata=spec.nodata)
    df = _tile_edges(one, 0)
    rows = []
    for v, g in df.groupby("value"):
        rings, perim, area2 = _assemble(g.reset_index(drop=True))
        rows.append({"value": int(v), "n_rings": rings,
                     "perimeter": perim, "area": area2 // 2})
    return pd.DataFrame(rows).sort_values("value").reset_index(drop=True)


def class_cell_counts(spec: RasterSpec) -> pd.DataFrame:
    """Independent oracle: cells per class (area must equal this)."""
    cell = np.arange(spec.rows * spec.cols, dtype=np.int64)
    z = synth_value(cell)
    cls = classify(z, spec.nodata)
    vals, counts = np.unique(cls[cls >= 0], return_counts=True)
    return pd.DataFrame({"value": vals, "n_cells": counts})


# ---------------------------------------------------------------------------
# Contour polyline assembly (TerrainAnalysisTools/src/plugins/Contour.java,
# 1,410 LoC — DEM → isoline POLYLINES; completes the per-level length
# reduction in raster_stats.contour_lengths with the ring/chain stitch).
#
# Marching squares per tile (a square is owned by the tile of its top-left
# cell; one halo row supplies the bottom corners). Endpoint coordinates are
# interpolated from the SAME four corner doubles in whichever tile computes
# them, so cross-tile endpoints match bit-exactly and assembly after the
# per-level shuffle is a pure dictionary chain walk — no tolerance needed.
# ---------------------------------------------------------------------------

def _tile_contour_segments(spec: RasterSpec, tid: int,
                           levels: tuple) -> pd.DataFrame:
    from .raster import NODATA as ND

    r0, r1 = spec.band(tid)
    if r1 >= spec.rows:
        r1 = spec.rows - 1  # last row owns no square
        if r1 <= r0:
            return pd.DataFrame({"level": pd.Series([], dtype="float64"),
                                 "x1": [], "y1": [], "x2": [], "y2": []})
    lo, hi = r0, min(r1 + 1, spec.rows)
    cell = np.arange(lo * spec.cols, hi * spec.cols, dtype=np.int64)
    z = synth_value(cell).reshape(hi - lo, spec.cols)
    a = z[:-1, :-1]; b = z[:-1, 1:]; c_ = z[1:, :-1]; d = z[1:, 1:]
    valid = (a != ND) & (b != ND) & (c_ != ND) & (d != ND)
    rr, cc = np.nonzero(valid)
    gr = rr + r0
    out = {"level": [], "x1": [], "y1": [], "x2": [], "y2": []}

    for level in levels:
        with np.errstate(divide="ignore", invalid="ignore"):
            fa = a >= level; fb = b >= level
            fc = c_ >= level; fd = d >= level
            code = (fa.astype(int) + fb.astype(int) * 2
                    + fc.astype(int) * 4 + fd.astype(int) * 8)
            t_top = (level - a) / (b - a)
            t_bot = (level - c_) / (d - c_)
            t_left = (level - a) / (c_ - a)
            t_right = (level - b) / (d - b)
        centre_hi = (a + b + c_ + d) / 4.0 >= level
        # endpoint coords per square (global)
        P = {
            "T": (lambda m: (cc[m] + t_top[rr[m], cc[m]], gr[m] + 0.0)),
            "B": (lambda m: (cc[m] + t_bot[rr[m], cc[m]], gr[m] + 1.0)),
            "L": (lambda m: (cc[m] + 0.0, gr[m] + t_left[rr[m], cc[m]])),
            "R": (lambda m: (cc[m] + 1.0, gr[m] + t_right[rr[m], cc[m]])),
        }

        def emit(e1: str, e2: str, mask2d):
            m = mask2d[rr, cc]
            if not m.any():
                return
            x1, y1 = P[e1](m)
            x2, y2 = P[e2](m)
            out["level"].append(np.full(len(x1), level))
            out["x1"].append(x1); out["y1"].append(y1)
            out["x2"].append(x2); out["y2"].append(y2)

        emit("T", "L", (code == 1) | (code == 14))
        emit("T", "R", (code == 2) | (code == 13))
        emit("L", "B", (code == 4) | (code == 11))
        emit("R", "B", (code == 8) | (code == 7))
        emit("L", "R", (code == 3) | (code == 12))
        emit("T", "B", (code == 5) | (code == 10))
        emit("T", "R", (code == 6) & centre_hi)
        emit("L", "B", (code == 6) & centre_hi)
        emit("T", "L", (code == 6) & ~centre_hi)
        emit("R", "B", (code == 6) & ~centre_hi)
        emit("T", "L", (code == 9) & centre_hi)
        emit("R", "B", (code == 9) & centre_hi)
        emit("T", "R", (code == 9) & ~centre_hi)
        emit("L", "B", (code == 9) & ~centre_hi)

    if not out["level"]:
        return pd.DataFrame({"level": pd.Series([], dtype="float64"),
                             "x1": [], "y1": [], "x2": [], "y2": []})
    return pd.DataFrame({k: np.concatenate(v) for k, v in out.items()})


def _chain_segments(df: pd.DataFrame) -> tuple[int, int, int, float]:
    """(n_segments, n_polylines, n_closed, total_length) for one level."""
    x1 = df["x1"].to_numpy(); y1 = df["y1"].to_numpy()
    x2 = df["x2"].to_numpy(); y2 = df["y2"].to_numpy()
    order = np.lexsort((y2, x2, y1, x1))
    x1, y1, x2, y2 = x1[order], y1[order], x2[order], y2[order]
    n = len(x1)
    incid: dict[bytes, list[int]] = {}
    for i in range(n):
        for px, py in ((x1[i], y1[i]), (x2[i], y2[i])):
            incid.setdefault(np.float64(px).tobytes()
                             + np.float64(py).tobytes(), []).append(i)
    used = np.zeros(n, dtype=bool)
    deg1 = sorted({k for k, v in incid.items() if len(v) == 1})

    def walk(start: int, from_key: bytes):
        """Consume a chain starting at segment ``start`` entered via
        endpoint ``from_key``; returns the final endpoint key."""
        i, key = start, from_key
        while True:
            used[i] = True
            k1 = np.float64(x1[i]).tobytes() + np.float64(y1[i]).tobytes()
            k2 = np.float64(x2[i]).tobytes() + np.float64(y2[i]).tobytes()
            key = k2 if key == k1 else k1
            nxt = [j for j in incid.get(key, ()) if not used[j]]
            if not nxt:
                return key
            i = nxt[0]

    n_poly = n_closed = 0
    for k in deg1:
        (i,) = incid[k]
        if used[i]:
            continue
        n_poly += 1
        walk(i, k)
    for i in range(n):  # remaining segments form closed rings
        if used[i]:
            continue
        n_poly += 1
        n_closed += 1
        walk(i, np.float64(x1[i]).tobytes() + np.float64(y1[i]).tobytes())
    length = float(np.sqrt((x2 - x1) ** 2 + (y2 - y1) ** 2).sum())
    return n, n_poly, n_closed, length


def contour_polylines(spec: RasterSpec | None = None,
                      levels: tuple = (250.0, 500.0, 750.0),
                      round_to: int = 4) -> "rd.Dataset":
    """(level, n_segments, n_polylines, n_closed, total_length)."""
    spec = spec or RasterSpec()

    def per_level(df: pd.DataFrame) -> pd.DataFrame:
        n, n_poly, n_closed, length = _chain_segments(df)
        return pd.DataFrame({"level": [float(df["level"].iloc[0])],
                             "n_segments": [n], "n_polylines": [n_poly],
                             "n_closed": [n_closed],
                             "total_length": [round(length, round_to)]})

    def segs(tid: int) -> pd.DataFrame:
        return _tile_contour_segments(spec, tid, levels)

    ds = tile_task(spec.n_tiles, segs)
    return combine(ds, "level",
                   groupwise_combine(per_level, "level")).sort("level")


def contour_polylines_naive(spec: RasterSpec,
                            levels: tuple = (250.0, 500.0, 750.0),
                            round_to: int = 4) -> pd.DataFrame:
    one = RasterSpec(rows=spec.rows, cols=spec.cols, tile_rows=spec.rows,
                     nodata=spec.nodata)
    df = _tile_contour_segments(one, 0, levels)
    rows = []
    for lv, g in df.groupby("level"):
        n, n_poly, n_closed, length = _chain_segments(
            g.reset_index(drop=True))
        rows.append({"level": float(lv), "n_segments": n,
                     "n_polylines": n_poly, "n_closed": n_closed,
                     "total_length": round(length, round_to)})
    return pd.DataFrame(rows).sort_values("level").reset_index(drop=True)


# ---------------------------------------------------------------------------
# RasterToVectorLines (ConversionTools/src/plugins/RasterToVectorLines
# .java:270-482, 520 LoC): the GENERIC line tracer (no D8 pointer),
# beyond the streams_to_vector pointer walk.
#
# Four loops, replicated exactly:
#  1 (:270-301, stateless stencil on the INPUT): a foreground cell
#    survives unless its 0/1 neighbour pattern is all-ones (interior)
#    or all-zeros (isolated) — elements[8]/[9].
#  2 (:309-341, ONE in-place row-major pass on temp1): the 8
#    LineThinning masks, but on a 0/1 NEIGHBOURS ARRAY (z==1 → 1 else
#    0; RasterToVectorLines builds the array, LineThinning.java:72
#    compares raw values — different border semantics, both kept).
#  3 (:349-369, stateless): temp1 ← count of >0 neighbours.
#  4 (:405-482, driver replay): row-major trace from every count==1
#    endpoint, following the FIRST >0 neighbour in i=0..7 order,
#    decrementing junction counts, emitting a vertex on each direction
#    change; lines shorter than minLineLength are dropped.
#
# Distributed shape: loops 1+3 are 1-halo overlap stencils; loop 2 is
# the thinning banded wavefront (bands chain top→bottom exchanging two
# O(cols) edge rows); loop 4 replays on the COMPACT (row, col, count)
# table of surviving line cells (≪ raster size) — the OTO/isobasin
# compact-replay pattern. Rows-only; literal mirror + tiling-invariance
# tests.
# ---------------------------------------------------------------------------

_RTVL_DX = (1, 1, 1, 0, -1, -1, -1, 0)
_RTVL_DY = (-1, 0, 1, 1, 1, 0, -1, -1)
_RTVL_FG = 650.0    # same synthetic binary input rule as stages/thinning


def _rtvl_loop1_band(spec, tid: int) -> np.ndarray:
    """Stateless loop 1 on the band + 1-row halo, vectorized."""

    z = padded_band(spec, tid, 1)
    pad = ((z > _RTVL_FG) & (z != spec.nodata)).astype(np.float64)
    fg = pad[1:-1, 1:-1]
    H, W = fg.shape
    nsum = np.zeros((H, W))
    for i in range(8):
        nsum += pad[1 + _RTVL_DY[i]:1 + _RTVL_DY[i] + H,
                    1 + _RTVL_DX[i]:1 + _RTVL_DX[i] + W]
    keep = (fg == 1.0) & (nsum > 0) & (nsum < 8)
    return keep.astype(np.float64)


def _rtvl_scan01(pad: np.ndarray) -> None:
    """Loop 2: one in-place row-major pass with the thinning masks on a
    0/1 neighbours array (RasterToVectorLines.java:309-341)."""
    from .thinning import THIN_ELEMENTS, THIN_VALS

    h, w = pad.shape[0] - 2, pad.shape[1] - 2
    for r in range(1, h + 1):
        for c in np.flatnonzero(pad[r, 1:w + 1] == 1.0) + 1:
            nb = [1.0 if pad[r + _RTVL_DY[i], c + _RTVL_DX[i]] == 1.0
                  else 0.0 for i in range(8)]
            for el, vl in zip(THIN_ELEMENTS, THIN_VALS):
                if all(nb[e] == v for e, v in zip(el, vl)):
                    pad[r, c] = 0.0
                    break


def _rtvl_states(spec) -> list[np.ndarray]:
    """Loops 1+2 distributed: loop-1 bands, then ONE chained wavefront
    pass of the 0/1-mask scan (two O(cols) edge messages per band)."""
    import ray

    @ray.remote
    def band_pass(state, prev_updated_last, next_first):
        st = np.asarray(state).copy()
        h, w = st.shape
        pad = np.zeros((h + 2, w + 2))
        pad[1:-1, 1:-1] = st
        if prev_updated_last is not None:
            pad[0, 1:-1] = prev_updated_last
        if next_first is not None:
            pad[-1, 1:-1] = next_first
        _rtvl_scan01(pad)
        new = pad[1:-1, 1:-1]
        return new, new[-1].copy()

    @ray.remote
    def pick(t, i):
        return t[i]

    n = spec.n_tiles
    states = [ray.put(_rtvl_loop1_band(spec, t)) for t in range(n)]
    firsts = [ray.get(s)[0].copy() for s in states]
    futs = []
    prev_last = None
    for b in range(n):
        nxt = firsts[b + 1] if b + 1 < n else None
        fut = band_pass.remote(states[b], prev_last, nxt)
        futs.append(fut)
        prev_last = pick.remote(fut, 1)
    return [ray.get(pick.remote(f, 0)) for f in futs]


def raster_to_vector_lines(spec=None, min_line_length: int = 2,
                           round_to: int = 4) -> pd.DataFrame:
    """Per-line summary (fid, n_points, sum_x, sum_y) of the traced
    polylines — fid in the reference's emission order."""
    from .raster import RasterSpec

    spec = spec or RasterSpec()
    states = _rtvl_states(spec)
    grid = np.vstack(states)                     # line cells only (sparse)
    R, C = grid.shape
    # loop 3: neighbour counts (stateless; full grid already compact —
    # only 0/1 values — but recompute banded-style for clarity)
    pad = np.zeros((R + 2, C + 2))
    pad[1:-1, 1:-1] = grid
    cnt = np.zeros((R, C))
    for i in range(8):
        cnt += (pad[1 + _RTVL_DY[i]:1 + _RTVL_DY[i] + R,
                    1 + _RTVL_DX[i]:1 + _RTVL_DX[i] + C] > 0)
    temp = np.where(grid > 0, cnt, 0.0)

    # loop 4: literal driver trace (west/north per WhiteboxRaster maths)
    west, north = 0.5, float(R) - 0.5
    ew, ns = float(C) - 1.0, float(R) - 1.0
    rowsD, colsD = float(R), float(C)
    out = []
    fid = 0
    for row in range(R):
        for col in range(C):
            if temp[row, col] != 1:
                continue
            points = []
            r, c = row, col
            prev_dir, trace_dir = -1, 0
            flag = True
            while flag:
                x = west + (c / colsD) * ew
                y = north - (r / rowsD) * ns
                added = False
                if trace_dir != prev_dir:
                    points.append((x, y))
                    prev_dir = trace_dir
                    added = True
                temp[r, c] = 0
                trace_dir, value = -1, -1
                for i in range(8):
                    rn, cn = r + _RTVL_DY[i], c + _RTVL_DX[i]
                    if 0 <= rn < R and 0 <= cn < C and temp[rn, cn] > 0:
                        trace_dir, value = i, temp[rn, cn]
                        break
                if value == 2:
                    r += _RTVL_DY[trace_dir]
                    c += _RTVL_DX[trace_dir]
                elif value >= 0:
                    r += _RTVL_DY[trace_dir]
                    c += _RTVL_DX[trace_dir]
                    if not added:
                        points.append((west + (c / colsD) * ew,
                                       north - (r / rowsD) * ns))
                    temp[r, c] = 0 if value == 1 else value - 1
                    flag = False
                else:
                    flag = False
            if len(points) >= min_line_length:
                fid += 1
                # STRICT left-to-right accumulation in emission order:
                # np.sum's 8-way unrolled pairwise order differs in the
                # last ulp for >8 points, which flips round(,4) on a
                # visible fraction of lines vs the sequential replay
                # oracle (stages/vectorize_oracle.py)
                sx = sy = 0.0
                for px, py in points:
                    sx += px
                    sy += py
                # DuckDB-mode rounding: the sums land on exact binary
                # .5 ties where Python's half-even and the oracle's
                # half-away disagree (util.sql_round)
                from .util import sql_round
                out.append({"fid": fid, "n_points": len(points),
                            "sum_x": sql_round(sx, round_to),
                            "sum_y": sql_round(sy, round_to)})
    return pd.DataFrame(out) if out else pd.DataFrame(
        {"fid": pd.Series([], dtype="int64"),
         "n_points": pd.Series([], dtype="int64"),
         "sum_x": pd.Series([], dtype="float64"),
         "sum_y": pd.Series([], dtype="float64")})


def raster_to_vector_lines_naive(spec=None, min_line_length: int = 2,
                                 round_to: int = 4) -> pd.DataFrame:
    """Single-process literal mirror: loops 1+2 on the whole grid."""
    from .raster import RasterSpec, synth_value

    spec = spec or RasterSpec()
    cell = np.arange(spec.rows * spec.cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, spec.cols)
    fg = ((z > _RTVL_FG) & (z != spec.nodata)).astype(np.float64)
    pad = np.zeros((spec.rows + 2, spec.cols + 2))
    pad[1:-1, 1:-1] = fg
    H, W = fg.shape
    nsum = np.zeros((H, W))
    for i in range(8):
        nsum += pad[1 + _RTVL_DY[i]:1 + _RTVL_DY[i] + H,
                    1 + _RTVL_DX[i]:1 + _RTVL_DX[i] + W]
    keep = ((fg == 1.0) & (nsum > 0) & (nsum < 8)).astype(np.float64)
    pad2 = np.zeros((spec.rows + 2, spec.cols + 2))
    pad2[1:-1, 1:-1] = keep
    _rtvl_scan01(pad2)

    # splice the mirrored loops 1+2 into the shared loop 3+4 tail by
    # monkey-free reuse: rebuild via the same code path
    grid = pad2[1:-1, 1:-1]
    saved = _rtvl_states
    try:
        globals()["_rtvl_states"] = lambda s: [grid]
        return raster_to_vector_lines(spec, min_line_length, round_to)
    finally:
        globals()["_rtvl_states"] = saved
