"""LineThinning + RemoveSpurs (ImageProcessingTools/src/plugins/
LineThinning.java:166-259, RemoveSpurs.java:160-262).

Reference semantics: binarize (>0 → 1, NoData kept), then repeat an
IN-PLACE row-major scan zeroing every foreground cell whose 8-neighbour
pattern matches one of 8 masks (thinning: three 0s opposite three 1s
per direction; spurs: six 0s = an exposed endpoint), until a pass
changes nothing (spurs: at most 10 passes, RemoveSpurs.java:174).

The in-place scan makes row r read rows < r UPDATED and rows > r
PRE-pass — exactly the viewshed-style banded wavefront: per pass, band
tasks chain top→bottom, each receiving its predecessor's UPDATED last
row and its successor's PRE-pass first row (two O(cols) messages).
Band states live in the object store between passes; the driver holds
only edge rows, counters and refs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from .raster import NODATA, RasterSpec, padded_band, synth_value

_DX = (1, 1, 1, 0, -1, -1, -1, 0)
_DY = (-1, 0, 1, 1, 1, 0, -1, -1)

# LineThinning.java:169-175
THIN_ELEMENTS = ((6, 7, 0, 4, 3, 2), (7, 0, 1, 3, 5),
                 (0, 1, 2, 4, 5, 6), (1, 2, 3, 5, 7),
                 (2, 3, 4, 6, 7, 0), (3, 4, 5, 7, 1),
                 (4, 5, 6, 0, 1, 2), (5, 6, 7, 1, 3))
THIN_VALS = ((0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 1),
             (0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 1),
             (0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 1),
             (0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 1))
# RemoveSpurs.java:168-171 (all-zero values)
SPUR_ELEMENTS = ((0, 1, 4, 5, 6, 7), (0, 1, 2, 5, 6, 7),
                 (0, 1, 2, 3, 6, 7), (0, 1, 2, 3, 4, 7),
                 (0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6),
                 (2, 3, 4, 5, 6, 7), (0, 3, 4, 5, 6, 7))
SPUR_VALS = tuple((0,) * 6 for _ in range(8))

FG_THRESHOLD = 650.0  # synthetic binary input: synth value > threshold


def _init_band(spec: RasterSpec, tid: int) -> np.ndarray:
    r0, r1 = spec.band(tid)
    cell = spec.band_cells(tid)
    z = synth_value(cell).reshape(r1 - r0, spec.cols)
    out = np.where(z == spec.nodata, NODATA,
                   np.where(z > FG_THRESHOLD, 1.0, 0.0))
    return out


def _lines_init_band(spec: RasterSpec, tid: int) -> np.ndarray:
    """Thick-line binary input (3-wide grid lines every 16 cells, NoData
    speckle kept). The threshold speckle is useless for LineThinning:
    ``synth_value`` is a lattice (horizontally adjacent cells differ by
    a constant mod 1000), so two E/W-adjacent cells are never both
    foreground and every thinning mask — each needs a horizontal
    foreground pair — is structurally unmatchable (measured: 0 cells
    zeroed). This pattern thins 11k cells over 7 in-place passes."""
    r0, r1 = spec.band(tid)
    cell = spec.band_cells(tid)
    z = synth_value(cell).reshape(r1 - r0, spec.cols)
    r = (cell // spec.cols).reshape(z.shape)
    c = (cell % spec.cols).reshape(z.shape)
    return np.where(z == spec.nodata, NODATA,
                    np.where((r % 16 < 3) | (c % 16 < 3), 1.0, 0.0))


def _scan_inplace(pad: np.ndarray, elements, vals) -> int:
    """One in-place row-major pass over the padded interior."""
    h, w = pad.shape[0] - 2, pad.shape[1] - 2
    counter = 0
    for r in range(1, h + 1):
        for c in np.flatnonzero(pad[r, 1:w + 1] == 1.0) + 1:
            nb = [pad[r + _DY[i], c + _DX[i]] for i in range(8)]
            for el, vl in zip(elements, vals):
                if all(nb[e] == v for e, v in zip(el, vl)):
                    pad[r, c] = 0.0
                    counter += 1
                    break
    return counter


@ray.remote
def _band_pass(state: np.ndarray, prev_updated_last, next_first_prepass,
               elements, vals):
    st = state.copy()
    h, w = st.shape
    pad = np.full((h + 2, w + 2), NODATA)
    pad[1:-1, 1:-1] = st
    if prev_updated_last is not None:
        pad[0, 1:-1] = prev_updated_last
    if next_first_prepass is not None:
        pad[-1, 1:-1] = next_first_prepass
    counter = _scan_inplace(pad, elements, vals)
    new = pad[1:-1, 1:-1]
    return new, counter, new[0].copy(), new[-1].copy()


@ray.remote
def _extract(band_result, idx: int):
    return band_result[idx]


def _iterate(spec: RasterSpec, elements, vals,
             max_iter: int, init_band=None) -> pd.DataFrame:
    init_band = init_band or _init_band
    n = spec.n_tiles
    states = [ray.put(init_band(spec, t)) for t in range(n)]
    first_rows = [ray.get(s)[0].copy() for s in states]

    for _ in range(max_iter):
        futs = []
        prev_last = None
        for b in range(n):
            nxt = first_rows[b + 1] if b + 1 < n else None
            fut = _band_pass.remote(states[b], prev_last, nxt,
                                    elements, vals)
            futs.append(fut)
            prev_last = _extract.remote(fut, 3)
        counters = ray.get([_extract.remote(f, 1) for f in futs])
        states = [_extract.remote(f, 0) for f in futs]
        first_rows = ray.get([_extract.remote(f, 2) for f in futs])
        if sum(counters) == 0:
            break

    rows = []
    for b in range(n):
        st = ray.get(states[b]) if isinstance(states[b], ray.ObjectRef) \
            else states[b]
        r0 = spec.band(b)[0]
        rows.append(pd.DataFrame({
            "row_id": np.arange(r0, r0 + st.shape[0]),
            "n_foreground": (st == 1.0).sum(axis=1).astype(np.int64)}))
    return (pd.concat(rows, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def line_thinning(spec: RasterSpec | None = None,
                  max_iter: int = 100) -> pd.DataFrame:
    return _iterate(spec or RasterSpec(), THIN_ELEMENTS, THIN_VALS, max_iter,
                    init_band=_lines_init_band)


def remove_spurs(spec: RasterSpec | None = None,
                 max_iter: int = 10) -> pd.DataFrame:
    """numIterations = 10 per RemoveSpurs.java:174."""
    return _iterate(spec or RasterSpec(), SPUR_ELEMENTS, SPUR_VALS, max_iter)


# ---------------------------------------------------------------------------
# Literal single-process mirrors
# ---------------------------------------------------------------------------

def _naive(spec: RasterSpec, elements, vals, max_iter: int,
           init_band=None) -> pd.DataFrame:
    one = RasterSpec(rows=spec.rows, cols=spec.cols, tile_rows=spec.rows,
                     nodata=spec.nodata)
    st = (init_band or _init_band)(one, 0)
    pad = np.full((spec.rows + 2, spec.cols + 2), NODATA)
    pad[1:-1, 1:-1] = st
    for _ in range(max_iter):
        if _scan_inplace(pad, elements, vals) == 0:
            break
    out = pad[1:-1, 1:-1]
    return pd.DataFrame({
        "row_id": np.arange(spec.rows),
        "n_foreground": (out == 1.0).sum(axis=1).astype(np.int64)})


def line_thinning_naive(spec: RasterSpec, max_iter: int = 100):
    return _naive(spec, THIN_ELEMENTS, THIN_VALS, max_iter,
                  init_band=_lines_init_band)


def remove_spurs_naive(spec: RasterSpec, max_iter: int = 10):
    return _naive(spec, SPUR_ELEMENTS, SPUR_VALS, max_iter)


# ---------------------------------------------------------------------------
# FindRidges (TerrainAnalysisTools/src/plugins/FindRidges.java:164-275):
# a cell is a ridge candidate when both its N/S neighbours OR both its
# E/W neighbours are strictly lower (valid); the optional line-thinning
# phase is the LineThinning loop over the candidate mask — the same
# banded wavefront machinery with a different initial state.
# ---------------------------------------------------------------------------

def _ridge_init_band(spec: RasterSpec, tid: int) -> np.ndarray:
    pad = padded_band(spec, tid, 1)
    zc = pad[1:-1, 1:-1]
    n_, s_ = pad[:-2, 1:-1], pad[2:, 1:-1]
    w_, e_ = pad[1:-1, :-2], pad[1:-1, 2:]
    valid = zc != NODATA
    ridge = valid & (
        ((n_ != NODATA) & (s_ != NODATA) & (n_ < zc) & (s_ < zc))
        | ((w_ != NODATA) & (e_ != NODATA) & (w_ < zc) & (e_ < zc)))
    return np.where(valid, ridge.astype(np.float64), NODATA)


def find_ridges(spec: RasterSpec | None = None, thin: bool = True,
                max_iter: int = 100) -> pd.DataFrame:
    spec = spec or RasterSpec()
    if not thin:
        rows = []
        for t in range(spec.n_tiles):
            st = _ridge_init_band(spec, t)
            r0 = spec.band(t)[0]
            rows.append(pd.DataFrame({
                "row_id": np.arange(r0, r0 + st.shape[0]),
                "n_foreground": (st == 1.0).sum(axis=1).astype(np.int64)}))
        return (pd.concat(rows, ignore_index=True)
                .sort_values("row_id").reset_index(drop=True))
    return _iterate(spec, THIN_ELEMENTS, THIN_VALS, max_iter,
                    init_band=_ridge_init_band)


def find_ridges_naive(spec: RasterSpec, max_iter: int = 100) -> pd.DataFrame:
    init = np.vstack([_ridge_init_band(
        RasterSpec(rows=spec.rows, cols=spec.cols, tile_rows=spec.rows,
                   nodata=spec.nodata), 0)])
    pad = np.full((spec.rows + 2, spec.cols + 2), NODATA)
    pad[1:-1, 1:-1] = init
    for _ in range(max_iter):
        if _scan_inplace(pad, THIN_ELEMENTS, THIN_VALS) == 0:
            break
    out = pad[1:-1, 1:-1]
    return pd.DataFrame({
        "row_id": np.arange(spec.rows),
        "n_foreground": (out == 1.0).sum(axis=1).astype(np.int64)})


# ---------------------------------------------------------------------------
# ThickenRasterLine (Scripts/ThickenRasterLine.groovy:89-133)
# ---------------------------------------------------------------------------

# (dy, dx) triples per direction i: N1 rook, N2 the diagonal between,
# N3 the next rook — a background cell bridging a diagonal-only join
# (N1>0, N3>0, N2 background) takes value zN1.
_TH_N1 = ((-1, 0), (0, 1), (1, 0), (0, -1))
_TH_N2 = ((-1, 1), (1, 1), (1, -1), (-1, -1))
_TH_N3 = ((0, 1), (1, 0), (0, -1), (-1, 0))


def _thicken_scan(pad: np.ndarray) -> int:
    """One in-place row-major pass: ALL four directions are tested per
    cell with no break (later matches overwrite), exactly as the
    groovy loop does; the z==background test is on the PRE-pass value
    implicitly (input z equals output z for untouched cells — the
    scan only ever writes background cells, whose input value is
    background by definition)."""
    h, w = pad.shape[0] - 2, pad.shape[1] - 2
    counter = 0
    for r in range(1, h + 1):
        row = pad[r, 1:w + 1]
        bg = (row == 0.0) | (row == NODATA)
        for c in np.flatnonzero(bg) + 1:
            hit = False
            for i in range(4):
                z1 = pad[r + _TH_N1[i][0], c + _TH_N1[i][1]]
                z2 = pad[r + _TH_N2[i][0], c + _TH_N2[i][1]]
                z3 = pad[r + _TH_N3[i][0], c + _TH_N3[i][1]]
                if z1 > 0 and z3 > 0 and (z2 == NODATA or z2 == 0.0):
                    pad[r, c] = z1
                    hit = True
            counter += hit
    return counter


@ray.remote
def _thicken_band(state: np.ndarray, prev_updated_last,
                  next_first_prepass):
    st = state.copy()
    h, w = st.shape
    pad = np.full((h + 2, w + 2), NODATA)
    pad[1:-1, 1:-1] = st
    if prev_updated_last is not None:
        pad[0, 1:-1] = prev_updated_last
    if next_first_prepass is not None:
        pad[-1, 1:-1] = next_first_prepass
    _thicken_scan(pad)
    new = pad[1:-1, 1:-1]
    return new, 0, new[0].copy(), new[-1].copy()


def thicken_line(spec: RasterSpec | None = None) -> pd.DataFrame:
    """Distributed single-pass wavefront: band tasks chain top→bottom;
    each gets its predecessor's UPDATED last row (in-place rows < r
    visibility) and its successor's PRE-pass first row."""
    spec = spec or RasterSpec()
    n = spec.n_tiles
    states = [_init_band(spec, t) for t in range(n)]
    futs = []
    prev_last = None
    for b in range(n):
        nxt = states[b + 1][0].copy() if b + 1 < n else None
        fut = _thicken_band.remote(states[b], prev_last, nxt)
        futs.append(fut)
        prev_last = _extract.remote(fut, 3)
    rows = []
    for b, fut in enumerate(futs):
        st = ray.get(fut)[0]
        r0 = spec.band(b)[0]
        rows.append(pd.DataFrame({
            "row_id": np.arange(r0, r0 + st.shape[0]),
            "n_foreground": (st > 0).sum(axis=1).astype(np.int64)}))
    return (pd.concat(rows, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def thicken_line_naive(spec: RasterSpec) -> pd.DataFrame:
    """Literal whole-grid single-process mirror."""
    cell = np.arange(spec.rows * spec.cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, spec.cols)
    st = np.where(z == spec.nodata, NODATA,
                  np.where(z > FG_THRESHOLD, 1.0, 0.0))
    pad = np.full((spec.rows + 2, spec.cols + 2), NODATA)
    pad[1:-1, 1:-1] = st
    _thicken_scan(pad)
    out = pad[1:-1, 1:-1]
    return pd.DataFrame({
        "row_id": np.arange(spec.rows),
        "n_foreground": (out > 0).sum(axis=1).astype(np.int64)})
