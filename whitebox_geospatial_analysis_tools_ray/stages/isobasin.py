"""Isobasin (HydroTools/src/plugins/Isobasin.java, 434 LoC) —
target-size basin delineation.

Reference behaviour (studied for semantics only):

- Phase 1 (:245-327): for every cell in ROW-MAJOR order, a head test —
  with the literal TRANSPOSED read quirk at :253
  (``pointer.getValue(col + dX[i], row + dY[i])``, row/col arguments
  swapped, i.e. a 3×3 stencil on the TRANSPOSED pointer grid) — then a
  downslope walk from each head over a MUTABLE copy of the
  contributing-area raster. After every move (and once more on the
  terminal cell, whose check therefore runs twice) the current cell is
  tested: when its current CA ≥ threshold, the max-CA inflowing
  neighbour is found (strict >, first-wins in direction order); if that
  neighbour's CA > threshold the walk STOPS (flag, :294-296), else an
  outlet with the next sequential id is dropped at whichever of the two
  cells is closer to the threshold (:299-309) and ``decrementFlowpath``
  subtracts that cell's CA from every cell downstream (:411-434).
- Phase 2 (:329-377): every unlabelled valid cell takes the id of the
  FIRST outlet strictly downstream on its flowpath; basins draining
  off-map without an outlet get NoData.

Distributed decomposition (scale shapes only — no stage materializes
the grid):

1. head mask = 3×3 stencil on the transposed pointer grid (one
   transpose exchange of the pointer plane; synth-backed tiles read the
   needed strips directly — the overlap-read rule);
2. ``first original-trunk cell downstream`` = the subbasins band fixed
   point with cell-id seeds (checks can only ever fire on cells whose
   ORIGINAL CA ≥ threshold, because decrements only subtract — so the
   walk's below-threshold prefix never interacts with the mutable
   state);
3. phase-1 replay runs on the DRIVER over a COMPACT table — trunk
   cells ∪ their 8-neighbourhoods, O(trunk) ≪ O(cells) — in literal
   row-major head order (the same compact-replay pattern as
   RemoveOffTerrainObjects' order-dependent counters);
4. phase 2 = the downslope first-label fill with the outlet seeds.

Literal-mirror + tiling-invariance tested.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from .hydro import _tile_pointers, flow_accumulation_tile_refs
from .raster import GATE_SPEC, RasterSpec, synth_value, tile_task
from .terrain import _DX, _DY, d8_kernel

_INFLOW = (16.0, 32.0, 64.0, 128.0, 1.0, 2.0, 4.0, 8.0)


def _col_band_pointers(spec: RasterSpec, c0: int, c1: int):
    """Pointers for ALL rows at columns [c0-1, c1+1) — the transposed
    head-mask read regenerates exactly the COLUMN band it indexes
    (pointer strips are synth-regenerable) instead of receiving a
    whole-grid broadcast; O(rows × tile_rows) per task, the transpose
    of the usual row band. Returns (ptr_band, lo_col)."""
    lo = max(c0 - 1, 0)
    hi = min(c1 + 1, spec.cols)
    cell = (np.arange(spec.rows, dtype=np.int64)[:, None] * spec.cols
            + np.arange(lo, hi, dtype=np.int64)[None, :])
    z = synth_value(cell.ravel()).reshape(spec.rows, hi - lo)
    pad = np.full((spec.rows + 2, hi - lo + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    # halo columns outside [lo, hi) when they exist in-grid
    if lo > 0:
        cell_l = (np.arange(spec.rows, dtype=np.int64) * spec.cols
                  + (lo - 1))
        pad[1:-1, 0] = synth_value(cell_l)
    if hi < spec.cols:
        cell_r = (np.arange(spec.rows, dtype=np.int64) * spec.cols + hi)
        pad[1:-1, -1] = synth_value(cell_r)
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    return ptr, lo


def _head_mask_tile(spec: RasterSpec, tid: int) -> np.ndarray:
    """Heads for one row band — the literal transposed read:
    a cell (r, c) is NOT a head when any
    ptr[c + dX[i], r + dY[i]] == inflowingVals[i]. The transposed
    pointer values live in the COLUMN band [r0-1, r1+1), regenerated
    locally by :func:`_col_band_pointers` — no whole-grid broadcast."""
    r0, r1 = spec.band(tid)
    band, lo = _col_band_pointers(spec, r0, r1)
    rows = np.arange(r0, r1)[:, None]
    cs = np.arange(spec.cols)[None, :]
    valid = _tile_pointers(spec, tid)[1] != spec.nodata
    flag = np.zeros((r1 - r0, spec.cols), dtype=bool)
    for i in range(8):
        rr = cs + _DX[i]          # transposed: row index from the COLUMN
        cc = rows + _DY[i]        # transposed: col index from the ROW
        rr_b = np.broadcast_to(rr, flag.shape)
        cc_b = np.broadcast_to(cc, flag.shape)
        ok = (rr_b >= 0) & (rr_b < spec.rows) \
            & (cc_b >= 0) & (cc_b < spec.cols)
        val = np.full(flag.shape, spec.nodata)
        val[ok] = band[rr_b[ok], cc_b[ok] - lo]
        flag |= val == _INFLOW[i]
    return valid & ~flag


def _downfill_fixed_point(spec: RasterSpec, build, max_rounds: int,
                          label: str) -> dict:
    """Shared ascending-z downslope label fill as a banded fixed point
    via fixed_point.tile_fixed_point (per-tile
    state persists in the object store; only {boundary gcell: label}
    dicts travel per round). ``build(tid)`` -> (z, ptr, seed) where
    seed[r, c] >= 0 marks a seed cell carrying that label. Returns
    {tile_id: ObjectRef(lab array)} — the planes stay in the object
    store; consumers fetch per tile."""
    from .fixed_point import tile_fixed_point

    cols = spec.cols
    n = spec.n_tiles

    def _fill(state, tid: int, inbox) -> np.ndarray:
        # vectorized pointer-doubling over the acyclic strictly-downhill
        # in-tile D8 graph — identical fixed point to the reference's
        # ascending-z sequential walk, O(log depth) vector passes
        from .hydro import _pointer_double, _pointer_targets

        z, ptr, seed = state
        H = z.shape[0]
        r0 = spec.band(tid)[0]
        ext: dict = {}
        for _sender, msg in inbox:
            ext.update(msg)
        valid = z != spec.nodata
        lin, in_tile, r2, c2, has = _pointer_targets(z, ptr, spec.nodata)
        lab = np.full((H, cols), -1, dtype=np.int64)
        done = np.zeros((H, cols), dtype=bool)
        done |= ~valid                                     # stays -1
        seeded = valid & (seed >= 0)
        lab[seeded] = seed[seeded]
        done |= seeded
        done |= valid & ~seeded & ~has                     # stays -1
        # off-tile vertical receiver: boundary message (or -1)
        off_v = valid & ~seeded & has & ~in_tile \
            & (c2 >= 0) & (c2 < cols) & (r0 + r2 >= 0) \
            & (r0 + r2 < spec.rows)
        if off_v.any():
            g = (r0 + r2[off_v]) * cols + c2[off_v]
            lab[off_v] = np.fromiter((ext.get(int(k), -1) for k in g),
                                     dtype=np.int64, count=len(g))
        done |= valid & ~seeded & has & ~in_tile           # incl. off-grid
        nxt = np.where(done, np.arange(H * cols).reshape(H, cols), lin)
        return _pointer_double(lab, done, nxt).reshape(H, cols)

    def solve(state, tid: int, inbox) -> dict:
        lab = _fill(state, tid, inbox)
        r0 = spec.band(tid)[0]
        h = lab.shape[0]
        top, bot = lab[0], lab[-1]
        out: dict = {}
        up = {r0 * cols + int(c): int(top[c])
              for c in np.flatnonzero(top >= 0)}
        dn = {(r0 + h - 1) * cols + int(c): int(bot[c])
              for c in np.flatnonzero(bot >= 0)}
        if up and tid > 0:
            out[tid - 1] = up
        if dn and tid + 1 < n:
            out[tid + 1] = dn
        return out

    def extract(state, tid: int, inbox):
        # worker-side put: the label planes stay in the object store
        return ray.put(_fill(state, tid, inbox))

    refs = tile_fixed_point(n, build, solve, extract, max_rounds, label)
    return dict(enumerate(refs))


def _first_trunk_fill(spec: RasterSpec, acc_refs: dict, threshold: float,
                      max_rounds: int = 64) -> dict:
    """lab[cell] = global cell id of the first ORIGINAL-trunk cell at or
    below it on the flowpath (trunk cells map to themselves), -1 when
    the path terminates without one. ``acc_refs`` = {tile_id: ObjectRef}
    (the arrays stay in the object store). Returns {tile_id: ObjectRef}."""
    cols = spec.cols

    def build(tid: int):
        z, ptr = _tile_pointers(spec, tid)
        a = ray.get(acc_refs[tid])
        r0 = spec.band(tid)[0]
        trunk = (z != spec.nodata) & (a >= threshold)
        gcell = (np.arange(r0, r0 + z.shape[0], dtype=np.int64)[:, None]
                 * cols + np.arange(cols, dtype=np.int64)[None, :])
        seed = np.where(trunk, gcell, -1)
        return z, ptr, seed

    return _downfill_fixed_point(spec, build, max_rounds,
                                 "isobasin trunk fill")


def _replay_phase1(spec: RasterSpec, heads: np.ndarray, entry: dict,
                   terminal_heads: set, ptr_c: dict, ca: dict,
                   threshold: float) -> dict:
    """Literal phase-1 replay over the compact trunk∪neighbours table.
    Returns {outlet_cell: outlet_id} (ids start at 1, head row-major
    order). The walk's below-threshold prefix is skipped via the
    precomputed trunk entry (it provably cannot fire checks); from the
    entry on, every cell is ORIGINAL trunk, whose successors stay trunk
    (CA is non-decreasing downstream), so the compact table is closed
    under the walk."""
    cols = spec.cols
    outlets = {}
    next_id = 1

    def check(pos) -> bool:
        nonlocal next_id
        if ca.get(pos, -np.inf) >= threshold:
            r, c = divmod(pos, cols)
            max_sca = -99999.0
            icl = None
            for i in range(8):
                r2, c2 = r + _DY[i], c + _DX[i]
                if not (0 <= r2 < spec.rows and 0 <= c2 < cols):
                    continue
                nb = r2 * cols + c2
                if ptr_c.get(nb) == _INFLOW[i]:
                    zv = ca[nb]
                    if zv > max_sca:
                        max_sca = zv
                        icl = i
            assert icl is not None, \
                "no inflowing neighbour at a threshold cell (the " \
                "reference would throw AIOOBE here)"
            nb = (r + _DY[icl]) * cols + (c + _DX[icl])
            if ca[nb] > threshold:
                return True                     # :294-296 — stop the walk
            d1 = abs(ca[nb] - threshold)
            d2 = abs(ca[pos] - threshold)
            tgt = nb if d1 < d2 else pos
            outlets[tgt] = next_id
            next_id += 1
            dec = ca[tgt]
            cur = tgt                            # decrementFlowpath
            while True:
                ca[cur] = ca[cur] - dec
                code = ptr_c.get(cur, 0.0)
                if code > 0:
                    i = int(code).bit_length() - 1
                    r3, c3 = divmod(cur, cols)
                    cur = (r3 + _DY[i]) * cols + (c3 + _DX[i])
                else:
                    break
        return False

    for h in heads:
        h = int(h)
        if h in terminal_heads:
            # literal: flowDir ≤ 0 on the first iteration sets flag,
            # then ONE check runs at the head itself
            check(h)
            continue
        pos = entry.get(h, -1)
        if pos < 0:
            continue                 # no trunk downstream: no check fires
        # arrived at the entry "by a move" → check, then continue
        flag = check(pos)
        while not flag:
            code = ptr_c[pos]
            if code > 0:
                i = int(code).bit_length() - 1
                r3, c3 = divmod(pos, cols)
                nxt = (r3 + _DY[i]) * cols + (c3 + _DX[i])
                assert nxt in ptr_c, "trunk successor left the compact set"
                pos = nxt
            else:
                flag = True
            if check(pos):
                flag = True
    return outlets


def _outlet_fill(spec: RasterSpec, outlets: dict,
                 max_rounds: int = 64) -> dict:
    """Phase 2: lab[cell] = id of the first outlet strictly downstream
    (outlet cells keep their own id); -1 marks the NoData basins."""
    cols = spec.cols

    def build(tid: int):
        z, ptr = _tile_pointers(spec, tid)
        r0 = spec.band(tid)[0]
        seed = np.full(z.shape, -1, dtype=np.int64)
        lo, hi = r0 * cols, (r0 + z.shape[0]) * cols
        for g, oid in outlets.items():   # O(#outlets), bounded
            if lo <= g < hi:
                seed[(g - lo) // cols, g % cols] = oid
        return z, ptr, seed

    return _downfill_fixed_point(spec, build, max_rounds,
                                 "isobasin outlet fill")


def isobasin(spec: RasterSpec | None = None,
             threshold: float = 15.0) -> pd.DataFrame:
    """Default threshold 15: max CA on the 96×96 synth terrain is 25,
    so the old default of 30 produced ZERO trunk cells/outlets and
    never exercised phase 1; 15 yields ~200 outlets."""
    spec = spec or GATE_SPEC
    cols = spec.cols
    acc_refs = flow_accumulation_tile_refs(spec)

    # head mask — transposed stencil per band; each task regenerates
    # ONLY its own transposed column band (no whole-grid broadcast)
    def head_tiles(tid: int) -> list:
        hm = _head_mask_tile(spec, tid)
        r0 = spec.band(tid)[0]
        flat = np.flatnonzero(hm.ravel())
        cells = flat + r0 * cols
        # ship each head's own pointer code too — the driver's
        # phase-1 entry resolution then needs NO pointer grid
        _z, ptr = _tile_pointers(spec, tid)
        return [{"tile_id": tid,
                 "heads": cells.astype(np.int64).tobytes(),
                 "codes": ptr.ravel()[flat].tobytes()}]

    hf = tile_task(spec.n_tiles, head_tiles).to_pandas()
    hc = np.concatenate([np.frombuffer(r.heads, dtype=np.int64)
                         for r in hf.itertuples()])
    cd = np.concatenate([np.frombuffer(r.codes)
                         for r in hf.itertuples()])
    order = np.argsort(hc)
    heads = hc[order]
    head_code = dict(zip(heads.tolist(), cd[order].tolist()))

    # compact trunk ∪ 8-neighbourhood table (cell → ptr, CA)
    def compact(tid: int) -> pd.DataFrame:
        z, ptr = _tile_pointers(spec, tid)
        r0 = spec.band(tid)[0]
        acc_t = ray.get(acc_refs[tid])   # only this task's tile
        trunk = (z != spec.nodata) & (acc_t >= threshold)
        keep = trunk.copy()
        for i in range(8):
            sh = np.zeros_like(keep)
            rs = slice(max(0, -_DY[i]), keep.shape[0] - max(0, _DY[i]))
            rd_ = slice(max(0, _DY[i]), keep.shape[0] - max(0, -_DY[i]))
            cs = slice(max(0, -_DX[i]), cols - max(0, _DX[i]))
            cd = slice(max(0, _DX[i]), cols - max(0, -_DX[i]))
            sh[rd_, cd] = trunk[rs, cs]
            keep |= sh
        # cross-band dilation: also keep the edge rows whenever the
        # adjacent band's edge row has trunk cells (cheap upper set)
        keep[0] |= True if tid > 0 else False
        keep[-1] |= True if tid + 1 < spec.n_tiles else False
        idx = np.flatnonzero(keep.ravel())
        g = idx + r0 * cols
        return pd.DataFrame({"cell": g.astype(np.int64),
                             "ptr": ptr.ravel()[idx],
                             "ca": acc_t.ravel()[idx]})

    comp = tile_task(spec.n_tiles, compact).to_pandas()
    ptr_c = dict(zip(comp["cell"].astype(int), comp["ptr"].astype(float)))
    ca = dict(zip(comp["cell"].astype(int), comp["ca"].astype(float)))

    fill_refs = _first_trunk_fill(spec, acc_refs, threshold)
    entry = {}
    terminal_heads = set()
    # group head→receiver lookups by receiver TILE so the driver fetches
    # one label plane at a time (peak O(tile), not O(raster))
    by_tile: dict[int, list] = {}
    for h in heads:
        h = int(h)
        r, c = divmod(h, cols)
        code = float(head_code[h])
        if code > 0:
            i = int(code).bit_length() - 1
            r2, c2 = r + _DY[i], c + _DX[i]
            if 0 <= r2 < spec.rows and 0 <= c2 < cols:
                by_tile.setdefault(r2 // spec.tile_rows, []).append(
                    (h, r2, c2))
            else:
                entry[h] = -1
        else:
            terminal_heads.add(h)
    for t, items in by_tile.items():
        lab_t = ray.get(fill_refs[t])
        for h, r2, c2 in items:
            entry[h] = int(lab_t[r2 % spec.tile_rows, c2])

    outlets = _replay_phase1(spec, heads, entry, terminal_heads,
                             ptr_c, ca, threshold)

    lab_refs = _outlet_fill(spec, outlets)

    def per_tile(tid: int) -> pd.DataFrame:
        L = ray.get(lab_refs[tid])
        z, _ = _tile_pointers(spec, tid)
        r0 = spec.band(tid)[0]
        valid = z != spec.nodata
        m = L >= 0
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + L.shape[0]),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "n_labelled": m.sum(axis=1).astype(np.int64),
            "sum_label": np.where(m, L, 0).sum(axis=1)})

    res = (tile_task(spec.n_tiles, per_tile)
           .to_pandas().sort_values("row_id").reset_index(drop=True))
    res.attrs["n_outlets"] = len(outlets)
    return res
