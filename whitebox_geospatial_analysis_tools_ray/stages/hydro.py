"""Hydrology: D8 inflow counts + distributed D8 flow accumulation.

- NumInflowingNeighbours (HydroTools/src/plugins/NumInflowingNeighbours.java,
  281 LoC): per cell, count the 8 neighbours whose D8 pointer targets it —
  a pure 3×3 stencil over the pointer grid (halo exchange).
- FlowAccumD8 (HydroTools/src/plugins/FlowAccumD8.java, 416 LoC): the
  number of cells draining through each cell (self included). The
  reference walks paths sequentially over the whole raster — the
  unbounded-reach case flagged in SURVEY.md §7.5. Distributed plan:

  1. per-tile TOPOLOGICAL solve: D8 receivers are strictly lower, so
     descending-elevation order is a valid topological order inside a
     tile; each tile computes its accumulation given current external
     INFLOWS at its cells (initially zero);
  2. cross-tile flows (edge-row cells whose pointer leaves the tile)
     are emitted as (target_tile, row, col, amount) contributions —
     O(boundary) rows, driver-merged like the clump label merge;
  3. iterate 1-2 until the inflow map reaches a fixed point. Each
     round resolves one more tile-boundary crossing of the longest
     flow path, so rounds ≤ crossings(longest path) — small for
     real terrain; a cap + convergence check guards pathological
     snakes (SURVEY.md §7.5 "iterative convergence loops").

  Verified against a single-process whole-grid topological mirror and
  tiling-invariant by test.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from .raster import (RasterSpec, padded_band, stencil_apply, synth_value,
                     tile_task)
from .terrain import _DX, _DY, d8_kernel

# D8 pointer codes 1<<i in neighbour order NE,E,SE,S,SW,W,NW,N (terrain._DX/_DY)


def inflow_count_kernel(pointer_padded: np.ndarray, nodata: float) -> np.ndarray:
    """Count neighbours flowing INTO each cell. A neighbour at offset
    (dx, dy) flows into me iff its pointer equals the code of the
    OPPOSITE direction (i+4 mod 8)."""
    p = pointer_padded
    z = p[1:-1, 1:-1]
    out = np.zeros_like(z)
    H, W = p.shape
    for i in range(8):
        dx, dy = _DX[i], _DY[i]
        nb = p[1 + dy:H - 1 + dy, 1 + dx:W - 1 + dx]
        code = float(1 << ((i + 4) % 8))
        out += ((nb == code) & (nb != nodata)).astype(np.float64)
    res = np.full_like(p, nodata)
    res[1:-1, 1:-1] = np.where(z != nodata, out, nodata)
    return res


def num_inflowing_neighbours(ds: "rd.Dataset", spec: RasterSpec) -> "rd.Dataset":
    """Pointer raster → inflow-count raster (both as tile Datasets)."""
    return stencil_apply(
        ds, spec, lambda p: inflow_count_kernel(p, spec.nodata), halo=1)


def _strip_pointers(spec: RasterSpec, r0: int, r1: int):
    """(z, pointer) arrays for global rows [r0, r1), pointer computed
    with a one-row halo (identical per cell whatever the strip bounds —
    the tiling-invariance property the suite asserts)."""
    lo = max(r0 - 1, 0)
    hi = min(r1 + 1, spec.rows)
    cell = np.arange(lo * spec.cols, hi * spec.cols, dtype=np.int64)
    zext = synth_value(cell).reshape(-1, spec.cols)
    pad = np.full((hi - lo + 2, spec.cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = zext
    ptr_ext = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    sl = slice(r0 - lo, r0 - lo + (r1 - r0))
    return zext[sl], ptr_ext[sl]


def _tile_pointers(spec: RasterSpec, tid: int):
    """(z, pointer) arrays for one tile, pointer computed with halo."""
    return _strip_pointers(spec, *spec.band(tid))


def _tile_edges(z: np.ndarray, ptr: np.ndarray, nodata: float):
    """Static edge structure of one tile's D8 graph (computed once per
    tile; reused across fixed-point rounds). Returns
    (valid, tgt_of, indeg0, up_mask, dn_mask, c2) where tgt_of[u] is the
    in-tile receiver linear index of cell u (or -1), indeg0 the initial
    in-degree, and up/dn masks flag cells whose flow leaves the tile
    vertically into column c2."""
    H, W = z.shape
    valid = z != nodata
    code = np.where(valid & (ptr != nodata), ptr, 0.0)
    has_edge = code > 0
    ic = code.astype(np.int64)
    didx = np.zeros((H, W), dtype=np.int64)
    for i in range(8):
        didx[ic == (1 << i)] = i
    dy = np.asarray(_DY)[didx]
    dx = np.asarray(_DX)[didx]
    r2 = np.arange(H)[:, None] + dy
    c2 = np.arange(W)[None, :] + dx
    inb = has_edge & (c2 >= 0) & (c2 < W)   # east/west off-grid drops
    in_tile = inb & (r2 >= 0) & (r2 < H)
    src = np.flatnonzero(in_tile)
    tgt = (r2 * W + c2).ravel()[src]
    keep = valid.ravel()[tgt]               # flow into nodata is dropped
    src, tgt = src[keep], tgt[keep]
    tgt_of = np.full(H * W, -1, dtype=np.int64)
    tgt_of[src] = tgt
    indeg0 = np.bincount(tgt, minlength=H * W)
    return valid, tgt_of, indeg0, inb & (r2 < 0), inb & (r2 >= H), c2


def _accumulate_tile(z: np.ndarray, ptr: np.ndarray, inflow: np.ndarray,
                     nodata: float, edges=None):
    """Topological accumulation inside one tile, VECTORIZED (frontier /
    Kahn sweep: each step scatter-adds the whole zero-in-degree frontier
    into its receivers — no per-cell Python walk).
    D8 receivers are strictly lower (terrain.d8_kernel keeps only
    max_slope > 0), so the graph is acyclic and every schedule computes
    the same topological sum; accumulations are integers held in
    float64, so the scatter order cannot change a single bit vs the old
    descending-z walk (FlowAccumD8.java:416 semantics).

    Returns (acc, out_up, out_dn): out_* map boundary column -> amount
    leaving the tile vertically."""
    H, W = z.shape
    valid, tgt_of, indeg0, m_up, m_dn, c2 = (
        edges if edges is not None else _tile_edges(z, ptr, nodata))
    accf = np.where(valid, 1.0 + inflow, 0.0).ravel()
    indeg = indeg0.copy()
    frontier = np.flatnonzero((indeg == 0) & valid.ravel())
    while frontier.size:
        srcs = frontier[tgt_of[frontier] >= 0]
        if srcs.size == 0:
            break
        t = tgt_of[srcs]
        np.add.at(accf, t, accf[srcs])      # frontier ∩ targets = ∅
        np.subtract.at(indeg, t, 1)
        tu = np.unique(t)
        frontier = tu[indeg[tu] == 0]
    acc = accf.reshape(H, W)

    def _col_sums(mask: np.ndarray) -> dict[int, float]:
        if not mask.any():
            return {}
        bc = np.bincount(c2[mask], weights=acc[mask], minlength=W)
        nz = np.flatnonzero(bc)
        return {int(c): float(bc[c]) for c in nz}

    return acc, _col_sums(m_up), _col_sums(m_dn)


@ray.remote
def _strip_state(spec: RasterSpec, t0: int, t1: int):
    """Build one strip's PERSISTENT solver state (z, pointer, static
    edge structure) as an object-store object — computed once, then
    referenced by every fixed-point round without ever touching the
    driver."""
    r0 = spec.band(t0)[0]
    r1 = spec.band(t1 - 1)[1]
    z, ptr = _strip_pointers(spec, r0, r1)
    return z, ptr, _tile_edges(z, ptr, spec.nodata), r0


def _strip_solve(state, spec, in_top, in_bot):
    z, ptr, edges, _ = state
    inflow = np.zeros_like(z)
    inflow[0] += in_top
    inflow[-1] += in_bot
    return _accumulate_tile(z, ptr, inflow, spec.nodata, edges)


@ray.remote
def _strip_round(state, spec: RasterSpec, in_top, in_bot):
    """One fixed-point round for one strip: returns ONLY the O(cols)
    boundary outflow vectors; the O(cells) accumulation array never
    leaves the worker."""
    _, up, dn = _strip_solve(state, spec, in_top, in_bot)
    W = spec.cols
    upv, dnv = np.zeros(W), np.zeros(W)
    for c, v in up.items():
        upv[c] = v
    for c, v in dn.items():
        dnv[c] = v
    return upv, dnv


@ray.remote
def _strip_frames(state, spec: RasterSpec, t0: int, t1: int,
                  in_top, in_bot) -> pd.DataFrame:
    """Final per-tile rows (tile_id, acc bytes, shape0) for a strip —
    one extraction AFTER convergence, never inside the loop."""
    acc, _, _ = _strip_solve(state, spec, in_top, in_bot)
    r0 = spec.band(t0)[0]
    rows = []
    for tid in range(t0, t1):
        a0 = spec.band(tid)[0] - r0
        a1 = spec.band(tid)[1] - r0
        a = acc[a0:a1]
        rows.append({"tile_id": tid, "acc": a.tobytes(),
                     "shape0": a.shape[0]})
    return pd.DataFrame(rows)


def _converged_boundaries(spec: RasterSpec, max_rounds: int = 64):
    """Run the boundary fixed point; returns (states, spans, in_top,
    in_bot) at convergence.

    Plan: per-strip solver state persists in the OBJECT STORE (built
    once by ``_strip_state``); each round, stateless tasks re-solve the
    vectorized topological sum against that state and return only the
    O(cols) boundary vectors, which the driver routes between
    neighbouring strips until they stop changing (exact — the
    accumulations are integers). Merging tiles into strips resolves
    intra-strip boundaries in a single solve, so rounds =
    crossings(longest path) over STRIP boundaries only."""
    n_tiles = spec.n_tiles
    W = spec.cols
    n_strips = min(n_tiles, 8)
    bounds = np.unique(np.linspace(0, n_tiles, n_strips + 1, dtype=int))
    spans = list(zip(bounds[:-1], bounds[1:]))
    states = [_strip_state.remote(spec, int(a), int(b)) for a, b in spans]
    n = len(states)
    in_top = [np.zeros(W) for _ in range(n)]
    in_bot = [np.zeros(W) for _ in range(n)]
    for _ in range(max_rounds):
        outs = ray.get([_strip_round.remote(states[i], spec,
                                            in_top[i], in_bot[i])
                        for i in range(n)])
        new_top = [np.zeros(W) for _ in range(n)]
        new_bot = [np.zeros(W) for _ in range(n)]
        for i, (up, dn) in enumerate(outs):
            if i > 0:                   # up-flow enters the strip above
                new_bot[i - 1] += up
            if i < n - 1:               # dn-flow enters the strip below
                new_top[i + 1] += dn
        if (all(np.array_equal(a, b) for a, b in zip(new_top, in_top))
                and all(np.array_equal(a, b)
                        for a, b in zip(new_bot, in_bot))):
            break
        in_top, in_bot = new_top, new_bot
    else:  # pragma: no cover - cap reached
        raise RuntimeError("flow accumulation did not converge")
    return states, spans, in_top, in_bot


def flow_accumulation_frames(spec: RasterSpec,
                             max_rounds: int = 64) -> pd.DataFrame:
    """Converged per-tile accumulation arrays (tile_id, acc, shape0)
    ON THE DRIVER — test/mirror utility only; every production caller
    uses :func:`flow_accumulation_tile_refs` (object-store refs) so the
    arrays never land on the driver."""
    states, spans, in_top, in_bot = _converged_boundaries(spec, max_rounds)
    frames = ray.get([_strip_frames.remote(states[i], spec, int(a), int(b),
                                           in_top[i], in_bot[i])
                      for i, (a, b) in enumerate(spans)])
    return pd.concat(frames, ignore_index=True)


@ray.remote
def _strip_tile_refs(state, spec: RasterSpec, t0: int, t1: int,
                     in_top, in_bot) -> dict:
    """{tid: ObjectRef(acc array)} for one strip. The arrays are
    ``ray.put`` worker-side so downstream fixed points can fetch ONLY
    their own tile — the driver ever holds just the refs."""
    acc, _, _ = _strip_solve(state, spec, in_top, in_bot)
    r0 = spec.band(t0)[0]
    out = {}
    for tid in range(t0, t1):
        a0 = spec.band(tid)[0] - r0
        a1 = spec.band(tid)[1] - r0
        out[tid] = ray.put(np.ascontiguousarray(acc[a0:a1]))
    return out


def flow_accumulation_tile_refs(spec: RasterSpec,
                                max_rounds: int = 64) -> dict:
    """Converged per-tile accumulation arrays as OBJECT REFS keyed by
    tile_id. Unlike ``flow_accumulation_frames`` the arrays never land
    on the driver; downstream banded fixed points (stream topology,
    hack order, upstream-channel stats, ...) pass the ref dict into
    their ``build(tid)`` and fetch only their own tile."""
    states, spans, in_top, in_bot = _converged_boundaries(spec, max_rounds)
    refs = ray.get([_strip_tile_refs.remote(states[i], spec, int(a), int(b),
                                            in_top[i], in_bot[i])
                    for i, (a, b) in enumerate(spans)])
    out: dict = {}
    for d in refs:
        out.update(d)
    return out


@ray.remote
def _strip_rowsums(state, spec: RasterSpec, in_top, in_bot) -> pd.DataFrame:
    """Per-row (row_id, n_valid, row_sum) for one strip — O(rows)
    output; the accumulation array never leaves the worker."""
    acc, _, _ = _strip_solve(state, spec, in_top, in_bot)
    z, _, r0 = state[0], state[1], state[3]
    valid = z != spec.nodata
    return pd.DataFrame({
        "row_id": np.arange(r0, r0 + acc.shape[0]),
        "n_valid": valid.sum(axis=1).astype(np.int64),
        "row_sum": np.where(valid, acc, 0.0).sum(axis=1)})


def flow_accumulation_d8(spec: RasterSpec | None = None,
                         max_rounds: int = 64) -> pd.DataFrame:
    """Distributed D8 flow accumulation over the synthetic DEM.

    Output per raster row: (row_id, n_valid, row_sum) of the
    accumulation raster (row_sum exact — accumulations are integers)."""
    spec = spec or RasterSpec()
    states, _, in_top, in_bot = _converged_boundaries(spec, max_rounds)
    frames = ray.get([_strip_rowsums.remote(states[i], spec,
                                            in_top[i], in_bot[i])
                      for i in range(len(states))])
    return pd.concat(frames, ignore_index=True)


def flow_accumulation_naive(spec: RasterSpec) -> pd.DataFrame:
    """Single-process whole-grid mirror (same descending-z topological
    order over the full raster)."""
    cell = np.arange(spec.rows * spec.cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, spec.cols)
    pad = np.full((spec.rows + 2, spec.cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    acc, up, dn = _accumulate_tile(z, ptr, np.zeros_like(z), spec.nodata)
    valid = z != spec.nodata
    return pd.DataFrame({
        "row_id": np.arange(spec.rows),
        "n_valid": valid.sum(axis=1).astype(np.int64),
        "row_sum": np.where(valid, acc, 0.0).sum(axis=1)})


# ---------------------------------------------------------------------------
# Watershed (HydroTools/src/plugins/Watershed.java, 437 LoC: label every
# cell with the pour point its D8 path reaches first). Distributed as TWO
# passes — no fixed-point loop needed:
#   1. per tile, resolve every cell in ASCENDING elevation order (a D8
#      receiver is strictly lower, so it is already resolved) to either a
#      LABEL (pour-point cell index / 0 = drains to a terminal) or an
#      EXIT (the global cell just outside the tile its path enters);
#      export the outcomes of the tile's edge rows (O(cols) per tile);
#   2. the driver chases the exit chains across the boundary outcomes
#      (acyclic — elevation strictly decreases) and broadcasts the
#      resolved {global_cell → label} map; a second tile pass rewrites
#      EXIT outcomes to labels.
# ---------------------------------------------------------------------------

_PA = 2654435761
_PM = 4294967296


def pour_point_mask(r0: int, r1: int, cols: int) -> np.ndarray:
    """Deterministic pour-point cells (≈ 22 over a 256² grid)."""
    cell = np.arange(r0 * cols, r1 * cols, dtype=np.int64)
    return (((cell * _PA + 999) % _PM) % 3001 == 0).reshape(-1, cols)


def _pointer_targets(z: np.ndarray, ptr: np.ndarray, nodata: float):
    """Per-cell D8 receiver in flat in-tile coords: (lin_target, in_tile,
    r2, c2, has_edge). D8 pointers are assigned only on STRICTLY
    positive slope (terrain.d8_kernel), so in-tile chains are acyclic —
    the property the pointer-doubling resolvers below rely on."""
    H, W = z.shape
    code = np.where((z != nodata) & (ptr != nodata), ptr, 0.0)
    has = code > 0
    ic = code.astype(np.int64)
    didx = np.zeros((H, W), dtype=np.int64)
    for i in range(8):
        didx[ic == (1 << i)] = i
    r2 = np.arange(H)[:, None] + np.asarray(_DY)[didx]
    c2 = np.arange(W)[None, :] + np.asarray(_DX)[didx]
    in_tile = has & (r2 >= 0) & (r2 < H) & (c2 >= 0) & (c2 < W)
    lin = np.where(in_tile, np.clip(r2, 0, H - 1) * W
                   + np.clip(c2, 0, W - 1), 0)
    return lin, in_tile, r2, c2, has


def _pointer_double(val: np.ndarray, done: np.ndarray,
                    nxt: np.ndarray) -> np.ndarray:
    """Resolve val[u] ← val[first done ancestor along nxt] by pointer
    doubling — O(log chain-depth) vector passes, replacing the
    per-cell ascending-z Python walk (identical fixed point on the
    acyclic strictly-downhill D8 graph)."""
    val = val.ravel().copy()
    done = done.ravel().copy()
    nxt = nxt.ravel().copy()
    # cap: chains shorten by 2× per pass
    for _ in range(int(np.ceil(np.log2(max(len(val), 2)))) + 2):
        if done.all():
            break
        nd = done[nxt]
        nv = val[nxt]
        adopt = ~done & nd
        val[adopt] = nv[adopt]
        done |= nd
        nxt = nxt[nxt]
    if not done.all():  # pragma: no cover — acyclicity violated
        raise RuntimeError("pointer_double: unresolved cells (cycle?)")
    return val


def _pointer_double_add(add: np.ndarray, val: np.ndarray,
                        done: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Additive variant: resolve val[u] ← Σ steps along the chain +
    val[terminal] by pointer doubling (d(u) = step(u) + d(receiver)
    recurrences — flowpath lengths, distances-to-stream, ...)."""
    add = add.ravel().astype(np.float64).copy()
    val = val.ravel().astype(np.float64).copy()
    done = done.ravel().copy()
    nxt = nxt.ravel().copy()
    for _ in range(int(np.ceil(np.log2(max(len(val), 2)))) + 2):
        if done.all():
            break
        nd = done[nxt]
        valn = val[nxt]
        addn = add[nxt]
        nxtn = nxt[nxt]
        adopt = ~done & nd
        val[adopt] = add[adopt] + valn[adopt]
        rest = ~done & ~nd
        add[rest] += addn[rest]
        nxt[rest] = nxtn[rest]
        done |= adopt
    if not done.all():  # pragma: no cover — acyclicity violated
        raise RuntimeError("pointer_double_add: unresolved cells (cycle?)")
    return val


def _resolve_tile(spec: RasterSpec, tid: int):
    """Outcome per cell: label ≥ 0, or -(global_cell)-1 for an exit.
    Vectorized pointer-doubling over the acyclic in-tile D8 graph —
    bit-identical to the reference's ascending-z sequential walk
    (receivers are strictly lower, so order is immaterial)."""
    cols = spec.cols
    r0 = spec.band(tid)[0]
    z, ptr = _tile_pointers(spec, tid)
    H = z.shape[0]
    pour = pour_point_mask(r0, r0 + H, cols)
    valid = z != spec.nodata
    lin, in_tile, r2, c2, has = _pointer_targets(z, ptr, spec.nodata)

    gcell = ((r0 + np.arange(H))[:, None] * cols
             + np.arange(cols)[None, :]).astype(np.int64)
    out = np.zeros((H, cols), dtype=np.int64)
    done = np.zeros((H, cols), dtype=bool)
    # terminal classes, in the sequential walk's precedence order
    t_pour = valid & pour
    out[t_pour] = gcell[t_pour]
    done |= t_pour | ~valid
    t_noflow = valid & ~pour & ~has
    done |= t_noflow                                  # out stays 0
    exit_v = valid & ~pour & has & ~in_tile & (c2 >= 0) & (c2 < cols)
    out[exit_v] = -(((r0 + r2[exit_v]) * cols + c2[exit_v]) + 1)
    done |= exit_v
    done |= valid & ~pour & has & ~in_tile & ~exit_v  # off-grid E/W → 0
    # in-tile edges into an INVALID receiver terminate at 0
    recv_invalid = in_tile & ~valid.ravel()[lin.ravel()].reshape(H, cols)
    done |= recv_invalid
    nxt = np.where(done, np.arange(H * cols).reshape(H, cols), lin)
    out = _pointer_double(out, done, nxt).reshape(H, cols)
    return z, out


def _watershed_pass1(spec: RasterSpec):
    """Watershed pass 1 and the exit-chain resolve, shared by both
    watershed outputs: per tile, labels with exits encoded as negative
    cell references (the tiles stay IN THE OBJECT STORE via
    ``materialize``); the driver pulls ONLY the O(cols·tiles) edge
    columns, follows every exit chain to its final label and puts that
    map once. Returns (pass-1 Dataset, resolved-map ref); the full label
    arrays never round-trip through the driver."""
    cols = spec.cols

    def pass1(tid: int) -> list:
        z, out = _resolve_tile(spec, tid)
        r0 = spec.band(tid)[0]
        ers = sorted({0, out.shape[0] - 1})   # dedup 1-row tiles
        ecells = np.concatenate(
            [(r0 + rr) * cols + np.arange(cols, dtype=np.int64)
             for rr in ers])
        evals = np.concatenate([out[rr] for rr in ers]).astype(np.int64)
        return [{"tile_id": tid, "out": out.tobytes(),
                 "shape0": out.shape[0],
                 "edge_cells": ecells.tobytes(),
                 "edge_vals": evals.tobytes()}]

    t1 = tile_task(spec.n_tiles, pass1).materialize()
    res = t1.select_columns(["edge_cells", "edge_vals"]).to_pandas()
    boundary: dict[int, int] = {}
    for r in res.itertuples():
        cells = np.frombuffer(r.edge_cells, dtype=np.int64)
        vals = np.frombuffer(r.edge_vals, dtype=np.int64)
        boundary.update(zip(cells.tolist(), vals.tolist()))

    def resolve(cell: int) -> int:
        v = boundary.get(cell, 0)
        while v < 0:
            cell = -v - 1
            v = boundary.get(cell, 0)
        return v

    return t1, ray.put({c: resolve(c) for c in boundary})


def watershed(spec: RasterSpec | None = None) -> pd.DataFrame:
    """Output per raster row: (row_id, n_labeled, sum_label)."""
    spec = spec or RasterSpec()
    cols = spec.cols
    t1, res_ref = _watershed_pass1(spec)

    def pass2(batch) -> pd.DataFrame:
        rmap = ray.get(res_ref) if isinstance(res_ref, ray.ObjectRef) else res_ref
        frames = []
        for tid, buf, h in zip(batch["tile_id"], batch["out"], batch["shape0"]):
            out = np.frombuffer(buf, dtype=np.int64).reshape(int(h), cols).copy()
            neg = out < 0
            if neg.any():
                flat = out[neg]
                out[neg] = np.array([rmap.get(int(-v - 1), 0) for v in flat],
                                    dtype=np.int64)
            r0 = spec.band(tid)[0]
            lab = out > 0
            frames.append(pd.DataFrame({
                "row_id": np.arange(r0, r0 + out.shape[0]),
                "n_labeled": lab.sum(axis=1).astype(np.int64),
                "sum_label": np.where(lab, out, 0).sum(axis=1)}))
        return pd.concat(frames, ignore_index=True)

    final = (t1.select_columns(["tile_id", "out", "shape0"])
             .map_batches(pass2, batch_format="pandas").to_pandas())
    return final.sort_values("row_id").reset_index(drop=True)


def watershed_label_tile_refs(spec: RasterSpec) -> dict:
    """Resolved watershed LABEL arrays per tile as OBJECT REFS keyed by
    tile_id — the watershed machinery with the exit chains resolved;
    the arrays never land on the driver: pass 2 re-puts the RESOLVED
    label arrays worker-side, returning {tile_id: ObjectRef}."""
    cols = spec.cols
    t1, res_ref = _watershed_pass1(spec)

    def pass2(batch) -> pd.DataFrame:
        rmap = ray.get(res_ref) if isinstance(res_ref, ray.ObjectRef) \
            else res_ref
        frames = []
        for tid, buf, h in zip(batch["tile_id"], batch["out"],
                               batch["shape0"]):
            out = np.frombuffer(buf, dtype=np.int64).reshape(int(h),
                                                             cols).copy()
            neg = out < 0
            if neg.any():
                flat = out[neg]
                out[neg] = np.array([rmap.get(int(-v - 1), 0) for v in flat],
                                    dtype=np.int64)
            frames.append(pd.DataFrame({
                "tile_id": [int(tid)],
                "labels_ref": [ray.put(out)],
                "shape0": [int(h)]}))
        return pd.concat(frames, ignore_index=True)

    refs = (t1.select_columns(["tile_id", "out", "shape0"])
            .map_batches(pass2, batch_format="pandas").to_pandas())
    return {int(r.tile_id): r.labels_ref for r in refs.itertuples()}


def elev_rel_watershed_minmax(spec: RasterSpec | None = None,
                              round_to: int = 6) -> pd.DataFrame:
    """ElevRelativeToWatershedMinMax (TerrainAnalysisTools family):
    (z − min_w)/(max_w − min_w) per cell within its watershed —
    watershed labels (proven machinery) → bounded per-label min/max
    combine → stateless remap. Unlabelled cells → excluded."""
    from .raster import synth_value

    spec = spec or RasterSpec()
    cols = spec.cols
    label_refs = watershed_label_tile_refs(spec)

    def _tile_zl(tid: int):
        lab = ray.get(label_refs[tid])
        r0 = spec.band(tid)[0]
        cell = np.arange(r0 * cols, (r0 + lab.shape[0]) * cols,
                         dtype=np.int64)
        z = synth_value(cell).reshape(lab.shape[0], cols)
        return r0, lab, z

    # stage 1: per-tile per-label (min, max) partials — O(labels) rows
    def partial(tid: int) -> pd.DataFrame:
        rows = []
        _r0, lab, z = _tile_zl(tid)
        m = (lab > 0) & (z != spec.nodata)
        for L in np.unique(lab[m]):
            sel = z[(lab == L) & m]
            rows.append({"label": int(L), "lo": float(sel.min()),
                         "hi": float(sel.max())})
        return pd.DataFrame(rows) if rows else pd.DataFrame(
            {"label": pd.Series([], dtype="int64"),
             "lo": pd.Series([], dtype="float64"),
             "hi": pd.Series([], dtype="float64")})

    parts = tile_task(spec.n_tiles, partial).to_pandas()
    g = parts.groupby("label").agg(lo=("lo", "min"), hi=("hi", "max"))
    mm = {int(L): (float(r.lo), float(r.hi)) for L, r in g.iterrows()}
    mm_ref = ray.put(mm)

    # stage 2: broadcast remap, per-tile rows
    def remap(tid: int) -> pd.DataFrame:
        mmv = ray.get(mm_ref) if isinstance(mm_ref, ray.ObjectRef) \
            else mm_ref
        r0, lab, z = _tile_zl(tid)
        rel = np.zeros_like(z)
        m = (lab > 0) & (z != spec.nodata)
        for L, (lo, hi) in mmv.items():
            sel = (lab == L) & m
            if hi > lo:
                rel[sel] = (z[sel] - lo) / (hi - lo)
            else:
                rel[sel] = 0.0
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + lab.shape[0]),
            "n_labeled": m.sum(axis=1).astype(np.int64),
            "rel_sum": np.round(np.where(m, rel, 0.0).sum(axis=1),
                                round_to)})

    final = tile_task(spec.n_tiles, remap).to_pandas()
    return final.sort_values("row_id").reset_index(drop=True)


def watershed_naive(spec: RasterSpec) -> pd.DataFrame:
    """Whole-grid ascending-z mirror."""
    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    pour = pour_point_mask(0, spec.rows, cols)
    valid = z != spec.nodata
    out = np.zeros((spec.rows, cols), dtype=np.int64)
    for lin in np.argsort(z, axis=None, kind="stable"):
        r, c = divmod(int(lin), cols)
        if not valid[r, c]:
            continue
        if pour[r, c]:
            out[r, c] = r * cols + c
            continue
        code = ptr[r, c]
        if code == spec.nodata or code <= 0:
            continue
        i = int(code).bit_length() - 1
        r2, c2 = r + _DY[i], c + _DX[i]
        if 0 <= r2 < spec.rows and 0 <= c2 < cols and valid[r2, c2]:
            out[r, c] = out[r2, c2]
    lab = out > 0
    return pd.DataFrame({
        "row_id": np.arange(spec.rows),
        "n_labeled": lab.sum(axis=1).astype(np.int64),
        "sum_label": np.where(lab, out, 0).sum(axis=1)})


def snap_pour_points(spec: RasterSpec | None = None,
                     snap_dist: int = 5) -> pd.DataFrame:
    """SnapPourPoints (HydroTools/src/plugins/SnapPourPoints.java, 407
    LoC): move each outlet point to the cell with the highest flow
    accumulation within a (2d+1)² window. The reference scans the window
    col-outer/row-inner with a strict ``>`` (:300-303), so the FIRST max
    in column-major order wins — replicated exactly.

    Distributed shape: converged acc tiles stay in the object store;
    each tile solves the pour points falling in its rows, reading only
    the ≤snap_dist halo rows of neighbouring tiles from the broadcast —
    a tile-local window search (range join), no shuffle."""
    spec = spec or RasterSpec()
    cols = spec.cols
    acc_refs = flow_accumulation_tile_refs(spec)
    d = snap_dist

    def solve(tid: int) -> pd.DataFrame:
        rows = []
        r0 = spec.band(tid)[0]
        own = ray.get(acc_refs[tid])   # only this tile + halo tiles
        h = own.shape[0]
        pour = pour_point_mask(r0, r0 + h, cols)
        if not pour.any():
            return pd.DataFrame(
            {"point_cell": [], "snapped_cell": [], "snap_acc": []})
        lo = max(r0 - d, 0)
        hi = min(r0 + h + d, spec.rows)
        # assemble the needed halo band from the per-tile refs
        band = np.concatenate(
            ray.get([acc_refs[t]
                     for t in range(lo // spec.tile_rows,
                                    (hi - 1) // spec.tile_rows + 1)]))
        band_r0 = spec.band(lo // spec.tile_rows)[0]
        for pr, pc in zip(*np.nonzero(pour)):
            gr = r0 + int(pr)
            w_r0, w_r1 = max(gr - d, 0), min(gr + d + 1, spec.rows)
            w_c0, w_c1 = max(pc - d, 0), min(pc + d + 1, cols)
            win = band[w_r0 - band_r0:w_r1 - band_r0, w_c0:w_c1]
            # col-major first-max (reference's x-outer/y-inner scan)
            flat = np.argmax(win.T)
            wc, wr = divmod(int(flat), win.shape[0])
            rows.append({"point_cell": gr * cols + int(pc),
                         "snapped_cell": (w_r0 + wr) * cols + w_c0 + wc,
                         "snap_acc": float(win[wr, wc])})
        return pd.DataFrame(rows)

    out = tile_task(spec.n_tiles, solve).to_pandas()
    return out.sort_values("point_cell").reset_index(drop=True)


def jenson_snap_pour_points(spec: RasterSpec | None = None,
                            snap_dist: int = 5,
                            threshold: float = 5.0) -> pd.DataFrame:
    """JensonSnapPourPoints (HydroTools/src/plugins/JensonSnapPourPoints
    .java:297-313): move each outlet to the NEAREST stream cell
    (streams value > 0) within a (2d+1)^2 window; squared cell distance,
    strict ``<`` with an x-outer/y-inner scan so the FIRST minimum in
    COLUMN-major order wins; no stream cell in the window leaves the
    point at its own cell (minX/minY initialised to the outlet,
    :298-299). Streams = flow accumulation >= threshold (the
    ExtractStreams mask). Same tile-local window-search plan as
    snap_pour_points (broadcast acc tiles, halo-band reads, no
    shuffle); exact DuckDB oracle (window join over the recursive-CTE
    accumulation) + literal-mirror tested."""
    spec = spec or RasterSpec()
    cols = spec.cols
    acc_refs = flow_accumulation_tile_refs(spec)
    d = snap_dist

    def solve(tid: int) -> pd.DataFrame:
        rows = []
        r0 = spec.band(tid)[0]
        own = ray.get(acc_refs[tid])
        h = own.shape[0]
        pour = pour_point_mask(r0, r0 + h, cols)
        if not pour.any():
            return pd.DataFrame(
            {"point_cell": [], "snapped_cell": [], "snap_d2": []})
        lo = max(r0 - d, 0)
        hi = min(r0 + h + d, spec.rows)
        band = np.concatenate(
            ray.get([acc_refs[t]
                     for t in range(lo // spec.tile_rows,
                                    (hi - 1) // spec.tile_rows + 1)]))
        band_r0 = spec.band(lo // spec.tile_rows)[0]
        for pr, pc in zip(*np.nonzero(pour)):
            gr = r0 + int(pr)
            best = (99999999.0, gr, int(pc))
            # literal x-outer / y-inner scan, strict <
            for x in range(int(pc) - d, int(pc) + d + 1):
                if x < 0 or x >= cols:
                    continue
                for yy in range(gr - d, gr + d + 1):
                    if yy < 0 or yy >= spec.rows:
                        continue
                    if band[yy - band_r0, x] >= threshold:
                        z = float((x - pc) * (x - pc)
                                  + (yy - gr) * (yy - gr))
                        if z < best[0]:
                            best = (z, yy, x)
            rows.append({"point_cell": gr * cols + int(pc),
                         "snapped_cell": best[1] * cols + best[2],
                         "snap_d2": best[0] if best[0] < 99999999.0
                         else 0.0})
        return pd.DataFrame(rows)

    out = tile_task(spec.n_tiles, solve).to_pandas()
    return out.sort_values("point_cell").reset_index(drop=True)


def extract_streams(spec: RasterSpec | None = None,
                    threshold: float = 5.0) -> pd.DataFrame:
    """ExtractStreams (StreamNetworkAnalysisTools/src/plugins/
    ExtractStreams.java, 283 LoC): stream cells = flow accumulation ≥
    threshold. Output per row: (row_id, n_valid, n_stream)."""
    spec = spec or RasterSpec()
    cols = spec.cols
    acc_refs = flow_accumulation_tile_refs(spec)

    def per_tile(tid: int) -> pd.DataFrame:
        a = ray.get(acc_refs[tid])      # ONLY this task's tile
        r0 = spec.band(tid)[0]
        z, _ = _tile_pointers(spec, tid)
        valid = z != spec.nodata
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + a.shape[0]),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "n_stream": (valid & (a >= threshold)).sum(axis=1)
            .astype(np.int64)})

    out = (tile_task(spec.n_tiles, per_tile)
           .to_pandas())
    return out.sort_values("row_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# DownslopeFlowpathLength (HydroTools/src/plugins/DownslopeFlowpathLength
# .java:212-278): length of the D8 path from each cell to its terminal —
# d(v) = gridLength(dir v) + d(receiver); terminal (pointer 0) → 0;
# gridLengths = diag √2 / straight 1 (:212). The reference walks and
# backfills; distributed it is an UPSTREAM float propagation: per-tile
# ascending-z resolve (a cell's receiver is strictly lower, so in-tile
# receivers resolve first) + edge-row d values exchanged between bands
# to a fixed point — the find_main_stem machinery with a float payload.
# FindNoFlowCells (FindNoFlowCells.java, 244 LoC) falls out of the same
# pointer grid: cells with pointer 0.
# ---------------------------------------------------------------------------

_GRID_LEN8 = tuple(np.sqrt(2.0) if i % 2 == 0 else 1.0 for i in range(8))


def downslope_flowpath_length(spec: RasterSpec | None = None,
                              max_rounds: int = 64,
                              round_to: int = 4) -> pd.DataFrame:
    """(row_id, n_valid, sum_len) per raster row — banded fixed point
    via fixed_point.tile_fixed_point: per-tile (z, ptr) state persists
    in the object store; only the {boundary global_cell: distance}
    message dicts travel per round."""
    from .fixed_point import tile_fixed_point
    from .terrain import _DX, _DY

    spec = spec or RasterSpec()
    cols = spec.cols
    n = spec.n_tiles

    def build(tid: int):
        return _tile_pointers(spec, tid)

    def _solve_d(state, tid: int, inbox) -> np.ndarray:
        # additive pointer-doubling (O(log depth) vector passes) over
        # the acyclic strictly-downhill in-tile graph — same fixed point
        # as the reference's ascending-z walk
        z, ptr = state
        H = z.shape[0]
        r0 = spec.band(tid)[0]
        ext: dict[int, float] = {}
        for _sender, msg in inbox:
            ext.update(msg)
        valid = z != spec.nodata
        lin, in_tile, r2, c2, has = _pointer_targets(z, ptr, spec.nodata)
        code = np.where(valid & (ptr != spec.nodata), ptr, np.nan)
        ic = np.where(has, code, 1.0).astype(np.int64)
        didx = np.zeros((H, cols), dtype=np.int64)
        for i in range(8):
            didx[ic == (1 << i)] = i
        step = np.where(has, np.take(np.asarray(_GRID_LEN8), didx), 0.0)

        d = np.full((H, cols), np.nan)
        done = np.zeros((H, cols), dtype=bool)
        done |= ~valid                                    # NaN
        t0 = valid & (code == 0.0)
        d[t0] = 0.0
        done |= t0
        done |= valid & ~has & (code != 0.0)              # negative → NaN
        off_v = valid & has & ~in_tile & (c2 >= 0) & (c2 < cols) \
            & (r0 + r2 >= 0) & (r0 + r2 < spec.rows)
        if off_v.any():
            g = (r0 + r2[off_v]) * cols + c2[off_v]
            d[off_v] = step[off_v] + np.fromiter(
                (ext.get(int(k), np.nan) for k in g),
                dtype=np.float64, count=len(g))
        off_grid = valid & has & ~in_tile & ~off_v
        d[off_grid] = step[off_grid]     # flows off-grid: path ends
        done |= valid & has & ~in_tile
        nxt = np.where(done, np.arange(H * cols).reshape(H, cols), lin)
        return _pointer_double_add(step, d, done, nxt).reshape(H, cols)

    def solve(state, tid: int, inbox):
        d = _solve_d(state, tid, inbox)
        r0 = spec.band(tid)[0]
        h = d.shape[0]
        out = {}
        top, bot = d[0], d[-1]
        up = {r0 * cols + int(c): float(top[c])
              for c in np.flatnonzero(~np.isnan(top))}
        dn = {(r0 + h - 1) * cols + int(c): float(bot[c])
              for c in np.flatnonzero(~np.isnan(bot))}
        if up and tid > 0:
            out[tid - 1] = up
        if dn and tid + 1 < n:
            out[tid + 1] = dn
        return out

    def extract(state, tid: int, inbox) -> pd.DataFrame:
        d = _solve_d(state, tid, inbox)
        r0 = spec.band(tid)[0]
        fin = ~np.isnan(d)
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + d.shape[0]),
            "n_valid": fin.sum(axis=1).astype(np.int64),
            "sum_len": np.round(np.where(fin, d, 0.0).sum(axis=1),
                                round_to)})

    out = tile_fixed_point(n, build, solve, extract, max_rounds,
                           "flowpath length")
    return (pd.concat(out, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def downslope_flowpath_length_naive(spec: RasterSpec,
                                    round_to: int = 4) -> pd.DataFrame:
    """Whole-grid mirror (single ascending-z pass)."""
    from .raster import synth_value
    from .terrain import _DX, _DY, d8_kernel

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    d = np.full((spec.rows, cols), np.nan)
    for lin in np.argsort(z, axis=None, kind="stable"):
        r, c = divmod(int(lin), cols)
        if z[r, c] == spec.nodata:
            continue
        code = ptr[r, c]
        if code <= 0:
            d[r, c] = 0.0 if code == 0 else np.nan
            continue
        i = int(code).bit_length() - 1
        r2, c2 = r + _DY[i], c + _DX[i]
        step = _GRID_LEN8[i]
        d[r, c] = step + (d[r2, c2]
                          if 0 <= r2 < spec.rows and 0 <= c2 < cols
                          else 0.0)
    fin = ~np.isnan(d)
    return pd.DataFrame({
        "row_id": np.arange(spec.rows),
        "n_valid": fin.sum(axis=1).astype(np.int64),
        "sum_len": np.round(np.where(fin, d, 0.0).sum(axis=1), round_to)})


# ---------------------------------------------------------------------------
# MassFluxD8 (HydroTools/src/plugins/MassFluxD8.java:255-310):
# out(v) = loading(v) + Σ over inflowing u of
#          max(0, (out(u) − absorption(u)) · efficiency(u))
# resolved in topological (downstream) order — the flow-accumulation
# machinery with a per-cell transfer transform. Loading / efficiency /
# absorption derive deterministically from the cell hash.
# ---------------------------------------------------------------------------

def _flux_params(cell: np.ndarray):
    from ..core.rng import uniform01
    loading = uniform01(cell, mult=2654435761, add=991) * 10.0
    eff = 0.5 + uniform01(cell, mult=2246822519, add=473) * 0.5
    absorp = uniform01(cell, mult=2654435761, add=7919) * 0.5
    return loading, eff, absorp


def _flux_tile(z, ptr, loading, eff, absorp, inflow, nodata):
    """Topological flux pass inside one band (same message shape as
    _accumulate_tile; the transfer applies at the SENDING cell)."""
    H, W = z.shape
    valid = z != nodata
    out = np.where(valid, loading + inflow, 0.0)
    order = np.argsort(-z, axis=None, kind="stable")
    out_up: dict[int, float] = {}
    out_dn: dict[int, float] = {}
    for lin in order:
        r, c = divmod(int(lin), W)
        if not valid[r, c]:
            continue
        code = ptr[r, c]
        if code == nodata or code <= 0:
            continue
        xfer = max(0.0, (out[r, c] - absorp[r, c]) * eff[r, c])
        i = int(code).bit_length() - 1
        r2, c2 = r + _DY[i], c + _DX[i]
        if 0 <= c2 < W:
            if 0 <= r2 < H:
                if valid[r2, c2]:
                    out[r2, c2] += xfer
            elif r2 < 0:
                out_up[c2] = out_up.get(c2, 0.0) + xfer
            else:
                out_dn[c2] = out_dn.get(c2, 0.0) + xfer
    return out, out_up, out_dn


def mass_flux_d8(spec: RasterSpec | None = None, max_rounds: int = 64,
                 round_to: int = 4) -> pd.DataFrame:
    """(row_id, n_valid, sum_flux) per raster row — banded fixed point
    via fixed_point.updn_fixed_point (state in the object store, only
    O(cols) messages per round)."""
    from .fixed_point import updn_fixed_point

    spec = spec or RasterSpec()
    cols = spec.cols

    def build(tid: int):
        z, ptr = _tile_pointers(spec, tid)
        r0 = spec.band(tid)[0]
        cell = np.arange(r0 * cols, (r0 + z.shape[0]) * cols,
                         dtype=np.int64)
        ld, ef, ab = (a.reshape(z.shape) for a in _flux_params(cell))
        return z, ptr, ld, ef, ab

    def kernel(state, tid: int, inflow):
        z, ptr, ld, ef, ab = state
        return _flux_tile(z, ptr, ld, ef, ab, inflow, spec.nodata)

    def final(state, tid: int, out) -> pd.DataFrame:
        z = state[0]
        valid = z != spec.nodata
        r0 = spec.band(tid)[0]
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + z.shape[0]),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "sum_flux": np.round(np.where(valid, out, 0.0).sum(axis=1),
                                 round_to)})

    frames = updn_fixed_point(spec, build, kernel, final, max_rounds,
                              "D8 mass flux")
    return (pd.concat(frames, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def mass_flux_d8_naive(spec: RasterSpec, round_to: int = 4) -> pd.DataFrame:
    from .raster import synth_value
    from .terrain import d8_kernel

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    ld, ef, ab = (a.reshape(z.shape) for a in _flux_params(cell))
    out, _, _ = _flux_tile(z, ptr, ld, ef, ab, np.zeros_like(z),
                           spec.nodata)
    valid = z != spec.nodata
    return pd.DataFrame({
        "row_id": np.arange(spec.rows),
        "n_valid": valid.sum(axis=1).astype(np.int64),
        "sum_flux": np.round(np.where(valid, out, 0.0).sum(axis=1),
                             round_to)})


# ---------------------------------------------------------------------------
# FlowAccumFD8 (HydroTools/src/plugins/FlowAccumFD8.java:397-437, no
# breach threshold): each cell distributes its accumulated value to ALL
# strictly lower neighbours proportional to (Δz)^power (default 1).
# Receivers are strictly lower → descending-z is a topological order,
# so the D8 band machinery applies unchanged with multi-receiver splits.
# ---------------------------------------------------------------------------

def _fd8_tile(z_ext, core: slice, r0: int, inflow, nodata, power: float):
    """z_ext has 1 halo row each side (clamped at the grid edge); core
    selects the band rows. Returns (acc, out_up, out_dn)."""
    from .terrain import _DX, _DY

    zc = z_ext[core]
    H, W = zc.shape
    valid = zc != nodata
    acc = np.where(valid, 1.0 + inflow, 0.0)
    order = np.argsort(-zc, axis=None, kind="stable")
    out_up: dict[int, float] = {}
    out_dn: dict[int, float] = {}
    for lin in order:
        r, c = divmod(int(lin), W)
        if not valid[r, c]:
            continue
        z1 = zc[r, c]
        re_ = core.start + r
        total = 0.0
        nbrs = []
        for i in range(8):
            r2, c2 = re_ + _DY[i], c + _DX[i]
            if 0 <= r2 < z_ext.shape[0] and 0 <= c2 < W:
                z2 = z_ext[r2, c2]
                if z2 != nodata and z1 > z2:
                    w = (z1 - z2) ** power
                    total += w
                    nbrs.append((r2, c2, w))
        if total <= 0:
            continue
        for r2, c2, w in nbrs:
            amt = acc[r, c] * (w / total)
            rr = r2 - core.start
            if 0 <= rr < H:
                acc[rr, c2] += amt
            elif rr < 0:
                out_up[c2] = out_up.get(c2, 0.0) + amt
            else:
                out_dn[c2] = out_dn.get(c2, 0.0) + amt
    return acc, out_up, out_dn


def flow_accumulation_fd8(spec: RasterSpec | None = None,
                          power: float = 1.0, max_rounds: int = 64,
                          round_to: int = 4) -> pd.DataFrame:
    """(row_id, n_valid, sum_acc) per raster row — banded fixed point
    via fixed_point.updn_fixed_point (state in the object store, only
    O(cols) messages per round)."""
    from .fixed_point import updn_fixed_point
    from .raster import synth_value

    spec = spec or RasterSpec()
    cols = spec.cols

    def build(tid: int):
        r0, r1 = spec.band(tid)
        lo, hi = max(r0 - 1, 0), min(r1 + 1, spec.rows)
        cell = np.arange(lo * cols, hi * cols, dtype=np.int64)
        z_ext = synth_value(cell).reshape(hi - lo, cols)
        return z_ext, slice(r0 - lo, r0 - lo + (r1 - r0)), r0

    def kernel(state, tid: int, inflow):
        z_ext, core, r0 = state
        return _fd8_tile(z_ext, core, r0, inflow, spec.nodata, power)

    def final(state, tid: int, acc) -> pd.DataFrame:
        z_ext, core, r0 = state
        valid = z_ext[core] != spec.nodata
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + acc.shape[0]),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "sum_acc": np.round(np.where(valid, acc, 0.0).sum(axis=1),
                                round_to)})

    frames = updn_fixed_point(spec, build, kernel, final, max_rounds,
                              "FD8 accumulation")
    return (pd.concat(frames, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def flow_accumulation_fd8_naive(spec: RasterSpec, power: float = 1.0,
                                round_to: int = 4) -> pd.DataFrame:
    from .raster import synth_value

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    acc, _, _ = _fd8_tile(z, slice(0, spec.rows), 0,
                          np.zeros_like(z), spec.nodata, power)
    valid = z != spec.nodata
    return pd.DataFrame({
        "row_id": np.arange(spec.rows),
        "n_valid": valid.sum(axis=1).astype(np.int64),
        "sum_acc": np.round(np.where(valid, acc, 0.0).sum(axis=1),
                            round_to)})


# ---------------------------------------------------------------------------
# MaxUpslopeFlowpathLength (HydroTools/src/plugins/
# MaxUpslopeFlowpathLength.java, 344 LoC): the longest upstream D8 path
# length reaching each cell — d(v) = max over inflowing u of
# (d(u) + step(u→v)), headwaters 0. A downstream MAX propagation:
# descending-z per tile with max-combining edge messages (the flow
# accumulation fixed point with max instead of sum).
# ---------------------------------------------------------------------------

def max_upslope_flowpath_length(spec: RasterSpec | None = None,
                                max_rounds: int = 64,
                                round_to: int = 4) -> pd.DataFrame:
    """(row_id, n_valid, max_len, sum_len) per raster row — banded
    fixed point via fixed_point.updn_fixed_point with MAX-combining
    boundary messages (state in the object store, only O(cols)
    messages per round)."""
    from .fixed_point import updn_fixed_point
    from .terrain import _DX, _DY

    spec = spec or RasterSpec()
    cols = spec.cols
    GL = tuple(np.sqrt(2.0) if i % 2 == 0 else 1.0 for i in range(8))

    def build(tid: int):
        return _tile_pointers(spec, tid)

    def kernel(state, tid: int, inflow):
        z, ptr = state
        H = z.shape[0]
        valid = z != spec.nodata
        d = np.where(valid, inflow, 0.0)
        out_up: dict[int, float] = {}
        out_dn: dict[int, float] = {}
        for lin in np.argsort(-z, axis=None, kind="stable"):
            r, c = divmod(int(lin), cols)
            if not valid[r, c]:
                continue
            code = ptr[r, c]
            if code == spec.nodata or code <= 0:
                continue
            i = int(code).bit_length() - 1
            r2, c2 = r + _DY[i], c + _DX[i]
            val = d[r, c] + GL[i]
            if 0 <= c2 < cols:
                if 0 <= r2 < H:
                    if valid[r2, c2]:
                        d[r2, c2] = max(d[r2, c2], val)
                elif r2 < 0:
                    out_up[c2] = max(out_up.get(c2, 0.0), val)
                else:
                    out_dn[c2] = max(out_dn.get(c2, 0.0), val)
        return d, out_up, out_dn

    def final(state, tid: int, d) -> pd.DataFrame:
        z = state[0]
        valid = z != spec.nodata
        r0 = spec.band(tid)[0]
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + z.shape[0]),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "max_len": np.round(np.where(valid, d, 0.0).max(axis=1),
                                round_to),
            "sum_len": np.round(np.where(valid, d, 0.0).sum(axis=1),
                                round_to)})

    frames = updn_fixed_point(spec, build, kernel, final, max_rounds,
                              "max upslope length", combine="max")
    return (pd.concat(frames, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def max_upslope_flowpath_length_naive(spec: RasterSpec,
                                      round_to: int = 4) -> pd.DataFrame:
    from .raster import synth_value
    from .terrain import _DX, _DY, d8_kernel

    cols = spec.cols
    GL = tuple(np.sqrt(2.0) if i % 2 == 0 else 1.0 for i in range(8))
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    valid = z != spec.nodata
    d = np.zeros((spec.rows, cols))
    for lin in np.argsort(-z, axis=None, kind="stable"):
        r, c = divmod(int(lin), cols)
        if not valid[r, c]:
            continue
        code = ptr[r, c]
        if code == spec.nodata or code <= 0:
            continue
        i = int(code).bit_length() - 1
        r2, c2 = r + _DY[i], c + _DX[i]
        if 0 <= r2 < spec.rows and 0 <= c2 < cols and valid[r2, c2]:
            d[r2, c2] = max(d[r2, c2], d[r, c] + GL[i])
    return pd.DataFrame({
        "row_id": np.arange(spec.rows),
        "n_valid": valid.sum(axis=1).astype(np.int64),
        "max_len": np.round(np.where(valid, d, 0.0).max(axis=1), round_to),
        "sum_len": np.round(np.where(valid, d, 0.0).sum(axis=1), round_to)})


def wetness_index(spec: RasterSpec | None = None,
                  round_to: int = 4) -> pd.DataFrame:
    """WetnessIndex (TerrainAnalysisTools/src/plugins/WetnessIndex.java
    :243-252): ln(A / tan(slope°→rad)); slope 0 or either input NoData →
    NoData. Composite of the converged accumulation frames (the area
    raster) and the slope stencil — zero extra shuffles: slope
    regenerates per band (overlap-read), the accumulation frames are the
    fixed point already in the object store.
    Output: (row_id, n_valid, sum_wi)."""
    from .raster import synth_value
    from .terrain import slope_kernel

    spec = spec or RasterSpec()

    def fn(acc, sl):
        valid = (sl != spec.nodata) & (acc > 0) & (sl != 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            wi = np.log(acc / np.tan(np.deg2rad(sl)))
        return valid, wi

    return (_acc_slope_composite(spec, fn, round_to=round_to)
            .rename(columns={"row_sum": "sum_wi"}))


def _acc_slope_composite(spec: RasterSpec, fn, round_to: int = 4):
    """Shared accumulation × slope composite (WetnessIndex pattern):
    per band, fn(acc, slope_deg) → (valid, values). Distributed: one
    Ray task per tile fetching ONLY its own converged accumulation ref
    (slope regenerates from the overlap-read band) — the full arrays
    never land on the driver, zero shuffles.
    Output: (row_id, n_valid, row_sum)."""
    from .terrain import slope_kernel

    acc_refs = flow_accumulation_tile_refs(spec)

    def per_tile(tid: int) -> pd.DataFrame:
        acc = ray.get(acc_refs[tid])
        sl = slope_kernel(padded_band(spec, tid, 1), spec.nodata)[1:-1, 1:-1]
        valid, vals = fn(acc, sl)
        return pd.DataFrame({
            "row_id": np.arange(*spec.band(tid)),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "row_sum": np.round(np.where(valid, vals, 0.0).sum(axis=1),
                                round_to)})

    out = tile_task(spec.n_tiles, per_tile).to_pandas()
    return out.sort_values("row_id").reset_index(drop=True)


def relative_stream_power(spec: RasterSpec | None = None,
                          power: float = 1.0) -> pd.DataFrame:
    """RelativeStreamPowerIndex (TerrainAnalysisTools/src/plugins/
    RelativeStreamPowerIndex.java:251): As^p · tan(slope_rad)."""
    spec = spec or RasterSpec()

    def fn(acc, sl):
        valid = (sl != spec.nodata) & (acc > 0)
        with np.errstate(invalid="ignore"):
            v = np.power(acc, power) * np.tan(np.deg2rad(sl))
        return valid, v

    return _acc_slope_composite(spec, fn)


def sediment_transport_index(spec: RasterSpec | None = None,
                             sca_exp: float = 0.4,
                             slope_exp: float = 1.3) -> pd.DataFrame:
    """SedimentTransportIndex (SedimentTransportIndex.java:253-254):
    (m+1)·(As/22.13)^m · (sin(slope_rad)/0.0896)^n."""
    spec = spec or RasterSpec()

    def fn(acc, sl):
        valid = (sl != spec.nodata) & (acc > 0)
        with np.errstate(invalid="ignore"):
            v = ((sca_exp + 1.0) * np.power(acc / 22.13, sca_exp)
                 * np.power(np.sin(np.deg2rad(sl)) / 0.0896, slope_exp))
        return valid, v

    return _acc_slope_composite(spec, fn)


def _fillpits_eps(abs_max: float) -> float:
    """FillPits.java:188-201 epsilon ladder (Java float literals widened
    to double, exactly as `double a = 0.001F` does)."""
    ladder = ((9.0, np.float32(0.00001)), (99.0, np.float32(0.0001)),
              (999.0, np.float32(0.001)), (9999.0, np.float32(0.001)),
              (99999.0, np.float32(0.01)))
    for cap, eps in ladder:
        if abs_max <= cap:
            return float(eps)
    return 1.0


def fill_pits(ds: "rd.Dataset", spec: RasterSpec,
              regen=None) -> "rd.Dataset":
    """FillPits (HydroTools/src/plugins/FillPits.java:228-258): a cell
    with no strictly-lower valid neighbour (and ≥1 valid neighbour) is
    raised to lowestNeighbour + ε, ε from the |max|-magnitude ladder.
    Single 3×3 stencil over the halo/overlap-read plan — the cheap
    single-cell cousin of the full `fill_depressions` decomposition."""
    from ray.data.aggregate import Max as AggMax

    from .raster import stencil_apply

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        m = 0.0
        for data in batch["data"]:
            a = np.asarray(data, dtype=np.float64)
            a = a[a != spec.nodata]
            if len(a):
                m = max(m, float(np.abs(a).max()))
        return pd.DataFrame({"m": [m]})

    abs_max = float(ds.map_batches(partial, batch_format="pandas")
                    .aggregate(AggMax("m"))["max(m)"])
    eps = _fillpits_eps(abs_max)

    def kernel(p: np.ndarray) -> np.ndarray:
        z = p[1:-1, 1:-1]
        H, W = z.shape
        lowest = np.full_like(z, np.inf)
        has_lower = np.zeros(z.shape, dtype=bool)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy == 0 and dx == 0:
                    continue
                nb = p[1 + dy:1 + dy + H, 1 + dx:1 + dx + W]
                ok = nb != spec.nodata
                lowest = np.where(ok & (nb < lowest), nb, lowest)
                has_lower |= ok & (nb < z)
        is_pit = ~has_lower & np.isfinite(lowest)
        res = np.where(is_pit, lowest + eps, z)
        res = np.where(z != spec.nodata, res, spec.nodata)
        out = np.full_like(p, spec.nodata)
        out[1:-1, 1:-1] = res
        return out

    return stencil_apply(ds, spec, kernel, halo=1, regen=regen)


def find_no_flow_cells(ds: "rd.Dataset", spec: RasterSpec,
                       regen=None) -> "rd.Dataset":
    """FindNoFlowCells (HydroTools/src/plugins/FindNoFlowCells.java
    :171-190): 1 where no valid neighbour is strictly lower, else
    NoData (the reference writes noData as its 'false')."""
    from .raster import stencil_apply

    def kernel(p: np.ndarray) -> np.ndarray:
        z = p[1:-1, 1:-1]
        H, W = z.shape
        has_lower = np.zeros(z.shape, dtype=bool)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy == 0 and dx == 0:
                    continue
                nb = p[1 + dy:1 + dy + H, 1 + dx:1 + dx + W]
                has_lower |= (nb != spec.nodata) & (nb < z)
        res = np.where(has_lower, spec.nodata, 1.0)
        res = np.where(z != spec.nodata, res, spec.nodata)
        out = np.full_like(p, spec.nodata)
        out[1:-1, 1:-1] = res
        return out

    return stencil_apply(ds, spec, kernel, halo=1, regen=regen)


# ---------------------------------------------------------------------------
# TraceDownslopeFlowpaths (WhiteboxGIS/resources/plugins/Scripts/
# TraceDownslopeFlowpaths.groovy:146-165): mark each seed and walk the D8
# pointers downstream marking cells (stopping early at already-marked
# cells — an optimization; the result is the downstream closure of the
# seed set). Distributed: per tile ONE descending-z pass closes all
# in-tile paths (receivers are strictly lower), cross-tile marks travel
# as O(cols) edge messages in a banded fixed point.
# ---------------------------------------------------------------------------

def trace_downslope_flowpaths(spec: RasterSpec | None = None,
                              max_rounds: int = 64) -> pd.DataFrame:
    """(row_id, n_marked) per raster row; seeds = pour_point_mask.

    Banded fixed point via fixed_point.tile_fixed_point: per-tile
    (z, ptr) state persists in the object store and only the marked
    boundary column sets travel per round. Marks are MONOTONE, so each
    round's boundary sets contain all earlier ones and the latest
    message set is the union the old accumulate-in-place loop built."""
    from .fixed_point import tile_fixed_point
    from .terrain import _DX, _DY

    spec = spec or RasterSpec()
    cols = spec.cols
    n_tiles = spec.n_tiles

    def build(tid: int):
        return _tile_pointers(spec, tid)

    def _marks(state, tid: int, inbox):
        # boolean downstream closure, VECTORIZED: frontier BFS along
        # the functional receiver graph (OR is order-insensitive, so
        # any schedule reaches the same set as the descending-z walk)
        z, ptr = state
        H, W = z.shape
        r0 = spec.band(tid)[0]
        marks = pour_point_mask(r0, r0 + H, cols) & (z != spec.nodata)
        for sender, msg in inbox:
            row = 0 if sender == tid - 1 else -1
            for c in msg:
                marks[row, int(c)] = True
        valid, tgt_of, _ind, m_up, m_dn, c2g = _tile_edges(
            z, ptr, spec.nodata)
        mk = marks.ravel().copy()
        frontier = np.flatnonzero(mk)
        while frontier.size:
            t = tgt_of[frontier]
            t = t[t >= 0]
            t = t[~mk[t]]
            if t.size == 0:
                break
            t = np.unique(t)
            mk[t] = True
            frontier = t
        marks = mk.reshape(H, W)
        up_mask = marks & m_up
        dn_mask = marks & m_dn
        out_up = sorted(int(c) for c in np.unique(c2g[up_mask])) \
            if up_mask.any() else []
        out_dn = sorted(int(c) for c in np.unique(c2g[dn_mask])) \
            if dn_mask.any() else []
        return marks, out_up, out_dn

    def solve(state, tid: int, inbox):
        _, up, dn = _marks(state, tid, inbox)
        out = {}
        if up and tid > 0:
            out[tid - 1] = up
        if dn and tid + 1 < n_tiles:
            out[tid + 1] = dn
        return out

    def extract(state, tid: int, inbox) -> pd.DataFrame:
        marks, _, _ = _marks(state, tid, inbox)
        r0 = spec.band(tid)[0]
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + marks.shape[0]),
            "n_marked": marks.sum(axis=1).astype(np.int64)})

    frames = tile_fixed_point(n_tiles, build, solve, extract, max_rounds,
                              "trace downslope")
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values("row_id").reset_index(drop=True)


def trace_downslope_flowpaths_naive(spec: RasterSpec) -> pd.DataFrame:
    """Literal script walk over the whole grid."""
    from .raster import synth_value
    from .terrain import d8_kernel

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    seeds = pour_point_mask(0, spec.rows, cols) & (z != spec.nodata)
    R, C = z.shape
    marks = np.zeros((R, C), dtype=bool)
    for row, col in np.argwhere(seeds):
        y, x = int(row), int(col)
        marks[y, x] = True
        while True:
            code = ptr[y, x]
            if code <= 0 or code == spec.nodata:
                break
            i = int(code).bit_length() - 1
            y += _DY[i]; x += _DX[i]
            if not (0 <= y < R and 0 <= x < C) or z[y, x] == spec.nodata:
                break
            if marks[y, x]:
                break
            marks[y, x] = True
    return pd.DataFrame({"row_id": np.arange(R, dtype=np.int64),
                         "n_marked": marks.sum(axis=1).astype(np.int64)})


def flow_pointer_fd8(ds, spec: RasterSpec, regen=None):
    """FlowPointerFD8 (HydroTools/src/plugins/FlowPointerFD8.java
    :205-219): flowDir = Σ 1<<i over neighbours with z2 < z (a bitmask
    of every downslope direction). One 3×3 stencil."""
    from .raster import stencil_apply

    def kernel(p: np.ndarray) -> np.ndarray:
        z = p[1:-1, 1:-1]
        H, W = z.shape
        out = np.zeros_like(z)
        for i in range(8):
            nb = p[1 + _DY[i]:1 + _DY[i] + H,
                   1 + _DX[i]:1 + _DX[i] + W]
            out = out + np.where((nb != spec.nodata) & (nb < z),
                                 float(1 << i), 0.0)
        res = np.where(z != spec.nodata, out, spec.nodata)
        full = np.full_like(p, spec.nodata)
        full[1:-1, 1:-1] = res
        return full

    return stencil_apply(ds, spec, kernel, halo=1, regen=regen)


def _rho8_uniform(k: np.ndarray) -> np.ndarray:
    """Deterministic per-(cell, direction) uniform in [0, 1) — the
    repo's seeded substitution for the reference's sequential
    java.util.Random(987654) stream (FlowPointerRho8.java:208), keeping
    the tool reproducible and tiling-independent."""
    return ((k * 2654435761 + 40503) % 4294967296) / 4294967296.0


def flow_pointer_rho8(spec: RasterSpec) -> "rd.Dataset":
    """FlowPointerRho8 (FlowPointerRho8.java:210-262): steepest-descent
    pointer where DIAGONAL drops are scaled by 1/(2 − u), u uniform —
    strict-> running max in direction order, output 0 when no positive
    slope, NoData propagates."""

    def per_tile(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        H = r1 - r0
        p = padded_band(spec, tid, 1)
        z = p[1:-1, 1:-1]
        gcell = (np.arange(r0, r1, dtype=np.int64)[:, None] * spec.cols
                 + np.arange(spec.cols, dtype=np.int64)[None, :])
        max_slope = np.full_like(z, -99999999.0)
        flow_dir = np.zeros_like(z)
        for i in range(8):
            nb = p[1 + _DY[i]:1 + _DY[i] + H,
                   1 + _DX[i]:1 + _DX[i] + spec.cols]
            ok = nb != spec.nodata
            if i % 2 == 1:          # cardinal (reference cases 1,3,5,7)
                slope = z - nb
            else:                   # diagonal
                u = _rho8_uniform(gcell * 8 + i)
                slope = 1.0 / (2.0 - u) * (z - nb)
            take = ok & (slope > max_slope)
            max_slope = np.where(take, slope, max_slope)
            flow_dir = np.where(take, float(1 << i), flow_dir)
        res = np.where(max_slope > 0, flow_dir, 0.0)
        res = np.where(z != spec.nodata, res, spec.nodata)
        return {"tile_id": [tid], "data": [res.ravel()]}

    return tile_task(spec.n_tiles, per_tile)


def _count_neighbours_kernel(p: np.ndarray, nodata: float,
                             upslope: bool) -> np.ndarray:
    """NumDownslopeNeighbours / NumUpslopeNeighbours (TerrainAnalysis
    Tools/src/plugins/NumDownslopeNeighbours.java:238-243): count of
    valid neighbours with z2 < z (downslope) or z2 > z (upslope)."""
    z = p[1:-1, 1:-1]
    H, W = z.shape
    out = np.zeros_like(z)
    for i in range(8):
        nb = p[1 + _DY[i]:1 + _DY[i] + H, 1 + _DX[i]:1 + _DX[i] + W]
        hit = (nb != nodata) & ((nb > z) if upslope else (nb < z))
        out = out + hit
    res = np.where(z != nodata, out, nodata)
    full = np.full_like(p, nodata)
    full[1:-1, 1:-1] = res
    return full


def num_downslope_neighbours(ds, spec: RasterSpec, regen=None):
    from .raster import stencil_apply
    return stencil_apply(
        ds, spec, lambda p: _count_neighbours_kernel(p, spec.nodata, False),
        halo=1, regen=regen)


def num_upslope_neighbours(ds, spec: RasterSpec, regen=None):
    from .raster import stencil_apply
    return stencil_apply(
        ds, spec, lambda p: _count_neighbours_kernel(p, spec.nodata, True),
        halo=1, regen=regen)


def max_downslope_elev_change(ds, spec: RasterSpec, regen=None):
    """MaxDownslopeElevationChange (TerrainAnalysisTools/src/plugins/
    MaxDownslopeElevationChange.java:238-266): z-drop to the
    steepest-slope neighbour (slope = (z−z2)/dist, strict-> running
    max in direction order); 0 when no positive slope."""
    from .raster import stencil_apply

    dists = [math.sqrt(2.0) if i % 2 == 0 else 1.0 for i in range(8)]

    def kernel(p: np.ndarray) -> np.ndarray:
        z = p[1:-1, 1:-1]
        H, W = z.shape
        max_slope = np.full_like(z, -99999999.0)
        zchange = np.zeros_like(z)
        for i in range(8):
            nb = p[1 + _DY[i]:1 + _DY[i] + H, 1 + _DX[i]:1 + _DX[i] + W]
            ok = nb != spec.nodata
            slope = (z - nb) / dists[i]
            take = ok & (slope > max_slope)
            max_slope = np.where(take, slope, max_slope)
            zchange = np.where(take, z - nb, zchange)
        res = np.where(max_slope > 0, zchange, 0.0)
        res = np.where(z != spec.nodata, res, spec.nodata)
        full = np.full_like(p, spec.nodata)
        full[1:-1, 1:-1] = res
        return full

    return stencil_apply(ds, spec, kernel, halo=1, regen=regen)


def min_downslope_elev_change(spec: RasterSpec) -> "rd.Dataset":
    """MinDownslopeElevationChange (TerrainAnalysisTools/src/plugins/
    MinDownslopeElevationChange.java): z-drop to the GENTLEST
    non-negative-slope neighbour (slope = (z−z2)/dist, strict-<
    running min, first direction wins), 0 when none. The tool sets
    isReflectedAtEdges — for a 3×3 window reflection is edge
    replication (row −1 → 0 per WhiteboxRaster.java:539-551)."""
    from .raster import synth_value

    dists = [math.sqrt(2.0) if i % 2 == 0 else 1.0 for i in range(8)]

    def per_tile(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        lo, hi = max(r0 - 1, 0), min(r1 + 1, spec.rows)
        cell = np.arange(lo * spec.cols, hi * spec.cols, dtype=np.int64)
        a = synth_value(cell).reshape(hi - lo, spec.cols)
        # edge-replicated pad: vertical only where the GRID ends
        top = 1 if lo == r0 else 0
        bot = 1 if hi == r1 else 0
        p = np.pad(a, ((top, bot), (1, 1)), mode="edge")
        H = r1 - r0
        off = (r0 - lo) + top
        z = p[off:off + H, 1:-1]
        min_slope = np.full_like(z, 99999999.0)
        zchange = np.zeros_like(z)
        for i in range(8):
            nb = p[off + _DY[i]:off + _DY[i] + H,
                   1 + _DX[i]:1 + _DX[i] + spec.cols]
            ok = nb != spec.nodata
            slope = (z - nb) / dists[i]
            take = ok & (slope >= 0) & (slope < min_slope)
            min_slope = np.where(take, slope, min_slope)
            zchange = np.where(take, z - nb, zchange)
        res = np.where(min_slope < 99999999.0, zchange, 0.0)
        res = np.where(z != spec.nodata, res, spec.nodata)
        return {"tile_id": [tid], "data": [res.ravel()]}

    return tile_task(spec.n_tiles, per_tile)


def _ptr_halo(spec: RasterSpec, tid: int):
    """(z_ext, ptr_ext) with one halo row above/below: one pointer strip
    over the band and its in-grid neighbour rows (exact by tiling
    invariance), NoData z and a 0 pointer beyond the grid."""
    r0, r1 = spec.band(tid)
    lo, hi = max(r0 - 1, 0), min(r1 + 1, spec.rows)
    ze = np.full((r1 - r0 + 2, spec.cols), spec.nodata)
    pe = np.zeros((r1 - r0 + 2, spec.cols))
    ze[lo - r0 + 1:hi - r0 + 1], pe[lo - r0 + 1:hi - r0 + 1] = \
        _strip_pointers(spec, lo, hi)
    return ze, pe


def _inflow_count_ext(ze, pe, nodata):
    """Inflow count for the interior rows given 1-halo (z, ptr) —
    vectorized as 8 shifted-plane compares (the production form of the
    stencil; the per-cell loop was measured 40× slower)."""
    H2, W = ze.shape
    H = H2 - 2
    # pad columns so every shift is a pure slice
    zp = np.full((H2, W + 2), nodata)
    pp = np.zeros((H2, W + 2))
    zp[:, 1:-1] = ze
    pp[:, 1:-1] = pe
    cnt = np.zeros((H, W), dtype=np.int64)
    for i in range(8):
        dy, dx = _DY[i], _DX[i]
        nz = zp[1 + dy:1 + dy + H, 1 + dx:1 + dx + W]
        np_ = pp[1 + dy:1 + dy + H, 1 + dx:1 + dx + W]
        cnt += (nz != nodata) & (np_ == float(1 << ((i + 4) % 8)))
    cnt[ze[1:-1] == nodata] = 0
    return cnt


def avg_upslope_flowpath_length(spec: RasterSpec | None = None,
                                max_rounds: int = 64,
                                round_to: int = 4,
                                output: str = "avg_len") -> pd.DataFrame:
    """AverageUpslopeFlowpathLength (TerrainAnalysisTools/src/plugins/
    AverageUpslopeFlowpathLength.java:275-360): divide (head) cells
    start one flowpath each; each cell stores (N = upstream divide
    cells, T = Σ path lengths) and passes (N or 1-at-heads,
    T + N·step); output T/N (0 where N = 0, i.e. at divide cells).
    Distributed as the descending-z banded fixed point with a
    TWO-channel sum message, state in the object store and only the
    per-column [N, T, E] triples travelling per round."""
    from .fixed_point import tile_fixed_point

    spec = spec or RasterSpec()
    cols = spec.cols
    n = spec.n_tiles
    GL = tuple(np.sqrt(2.0) if i % 2 == 0 else 1.0 for i in range(8))

    def build(tid: int):
        ze, pe = _ptr_halo(spec, tid)
        head = (_inflow_count_ext(ze, pe, spec.nodata) == 0) \
            & (ze[1:-1] != spec.nodata)
        return ze[1:-1], pe[1:-1], head

    def _kernel(state, tid: int, inbox):
        z, ptr, head = state
        H = z.shape[0]
        valid = z != spec.nodata
        N = np.zeros((H, cols))
        T = np.zeros((H, cols))
        E = np.zeros((H, cols))
        for sender, msg in inbox:       # sorted: tid-1 before tid+1
            row = 0 if sender == tid - 1 else -1
            for col, (a, b, e) in msg.items():
                N[row, int(col)] += a
                T[row, int(col)] += b
                E[row, int(col)] += e
        N = np.where(valid, N, 0.0)
        T = np.where(valid, T, 0.0)
        E = np.where(valid, E, 0.0)
        out_up: dict[int, list] = {}
        out_dn: dict[int, list] = {}
        for lin in np.argsort(-z, axis=None, kind="stable"):
            r, c = divmod(int(lin), cols)
            if not valid[r, c]:
                continue
            code = ptr[r, c]
            if code == spec.nodata or code <= 0:
                continue
            i = int(code).bit_length() - 1
            if head[r, c]:
                np_ = 1.0
                ep = z[r, c]      # divide cell passes its own z
            else:
                np_ = N[r, c]
                ep = E[r, c]
            tp = T[r, c] + np_ * GL[i]
            r2, c2 = r + _DY[i], c + _DX[i]
            if 0 <= c2 < cols:
                if 0 <= r2 < H:
                    if valid[r2, c2]:
                        N[r2, c2] += np_
                        T[r2, c2] += tp
                        E[r2, c2] += ep
                else:
                    tgt = out_up if r2 < 0 else out_dn
                    acc = tgt.setdefault(c2, [0.0, 0.0, 0.0])
                    acc[0] += np_
                    acc[1] += tp
                    acc[2] += ep
        return (N, T, E), out_up, out_dn

    def solve(state, tid: int, inbox):
        _, up, dn = _kernel(state, tid, inbox)
        out = {}
        if up and tid > 0:
            out[tid - 1] = up
        if dn and tid + 1 < n:
            out[tid + 1] = dn
        return out

    def extract(state, tid: int, inbox) -> pd.DataFrame:
        (N, T, E), _, _ = _kernel(state, tid, inbox)
        z = state[0]
        valid = z != spec.nodata
        r0 = spec.band(tid)[0]
        with np.errstate(invalid="ignore", divide="ignore"):
            if output == "slope_to_divide":
                # AverageSlopeToDivide.java:376-382: atan(((E/N − z)·conv)
                # / (T/N))·rad2deg, conversionFactor 1
                res = np.where(
                    (N > 0) & valid,
                    np.degrees(np.arctan(
                        (E / np.maximum(N, 1.0) - z)
                        / np.maximum(T / np.maximum(N, 1.0), 1e-300))),
                    0.0)
            else:
                res = np.where((N > 0) & valid,
                               T / np.maximum(N, 1.0), 0.0)
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + z.shape[0]),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "avg_sum": np.round(res.sum(axis=1), round_to)})

    frames = tile_fixed_point(n, build, solve, extract, max_rounds,
                              "avg upslope length")
    return (pd.concat(frames, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def avg_slope_to_divide(spec: RasterSpec | None = None,
                        max_rounds: int = 64) -> pd.DataFrame:
    """AverageSlopeToDivide (TerrainAnalysisTools/src/plugins/
    AverageSlopeToDivide.java): third sum channel E = Σ divide-cell
    elevations over the same (N, T) machinery; output
    atan(meanDrop/meanLen) in degrees."""
    return avg_upslope_flowpath_length(spec, max_rounds,
                                       output="slope_to_divide")


def avg_upslope_flowpath_length_naive(spec: RasterSpec,
                                      round_to: int = 4,
                                      output: str = "avg_len"
                                      ) -> pd.DataFrame:
    """Literal AverageUpslopeFlowpathLength walk (numInflowing
    decrement queue)."""
    from .raster import synth_value

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    R, C = z.shape
    GL = tuple(np.sqrt(2.0) if i % 2 == 0 else 1.0 for i in range(8))
    valid = z != spec.nodata

    infl = np.full((R, C), -1.0)
    for r in range(R):
        for c in range(C):
            if not valid[r, c]:
                infl[r, c] = np.nan
                continue
            n = 0
            for i in range(8):
                r2, c2 = r + _DY[i], c + _DX[i]
                if 0 <= r2 < R and 0 <= c2 < C and valid[r2, c2] \
                        and ptr[r2, c2] == float(1 << ((i + 4) % 8)):
                    n += 1
            infl[r, c] = n if n > 0 else -1.0
    N = np.zeros((R, C))
    T = np.zeros((R, C))
    E = np.zeros((R, C))
    done = np.zeros((R, C), dtype=bool)
    for row in range(R):
        for col in range(C):
            if not valid[row, col] or infl[row, col] > 0 or done[row, col]:
                continue
            y, x = row, col
            while True:
                v = infl[y, x]
                if done[y, x] or not (v <= 0):
                    break
                if v == -1.0:
                    N[y, x] = 0.0
                    n_pass = 1.0
                    e_pass = z[y, x]
                else:
                    n_pass = N[y, x]
                    e_pass = E[y, x]
                done[y, x] = True
                code = ptr[y, x]
                if code <= 0 or code == spec.nodata:
                    break
                i = int(code).bit_length() - 1
                add = T[y, x] + n_pass * GL[i]
                y2, x2 = y + _DY[i], x + _DX[i]
                if not (0 <= y2 < R and 0 <= x2 < C) or not valid[y2, x2]:
                    break
                N[y2, x2] += n_pass
                T[y2, x2] += add
                E[y2, x2] += e_pass
                infl[y2, x2] -= 1
                y, x = y2, x2
    with np.errstate(invalid="ignore", divide="ignore"):
        if output == "slope_to_divide":
            avg = np.where(
                (N > 0) & valid,
                np.degrees(np.arctan(
                    (E / np.maximum(N, 1.0) - z)
                    / np.maximum(T / np.maximum(N, 1.0), 1e-300))), 0.0)
        else:
            avg = np.where((N > 0) & valid, T / np.maximum(N, 1.0), 0.0)
    return pd.DataFrame({
        "row_id": np.arange(R, dtype=np.int64),
        "n_valid": valid.sum(axis=1).astype(np.int64),
        "avg_sum": np.round(avg.sum(axis=1), round_to)})


def _upstream_channel_value(spec: RasterSpec, threshold: float,
                            max_rounds: int, mode: str,
                            round_to: int = 4) -> pd.DataFrame:
    """TotalLengthOfUpstreamChannels.groovy (mode="sum") /
    FurtherestUpstreamChannelHeadDistance.groovy (mode="max"): channel
    heads seed 0; each stream cell passes value + step to its stream
    receiver; combine by Σ / max. Banded fixed point over the stream
    mask (acc ≥ threshold)."""
    from .fixed_point import updn_fixed_point

    cols = spec.cols
    GL = tuple(np.sqrt(2.0) if i % 2 == 0 else 1.0 for i in range(8))
    acc_refs = flow_accumulation_tile_refs(spec)

    def build(tid: int):
        z, ptr = _tile_pointers(spec, tid)
        acc = ray.get(acc_refs[tid])
        stream = (z != spec.nodata) & (acc >= threshold)
        # descending-z order restricted to the (sparse) stream cells —
        # same relative order as the old all-cells walk (stable sort,
        # ties by linear index), so the float results are bit-identical
        lins = np.flatnonzero(stream.ravel())
        order = lins[np.argsort(-z.ravel()[lins], kind="stable")]
        return z, ptr, stream, order

    def kernel(state, tid: int, inflow):
        z, ptr, stream, order = state
        H = z.shape[0]
        val = np.where(stream, inflow, 0.0)
        out_up: dict[int, float] = {}
        out_dn: dict[int, float] = {}
        for lin in order:
            r, c = divmod(int(lin), cols)
            code = ptr[r, c]
            if code == spec.nodata or code <= 0:
                continue
            i = int(code).bit_length() - 1
            v = val[r, c] + GL[i]
            r2, c2 = r + _DY[i], c + _DX[i]
            if 0 <= c2 < cols:
                if 0 <= r2 < H:
                    if stream[r2, c2]:
                        val[r2, c2] = (val[r2, c2] + v if mode == "sum"
                                       else max(val[r2, c2], v))
                else:
                    tgt = out_up if r2 < 0 else out_dn
                    if mode == "sum":
                        tgt[c2] = tgt.get(c2, 0.0) + v
                    else:
                        tgt[c2] = max(tgt.get(c2, 0.0), v)
        return val, out_up, out_dn

    def final(state, tid: int, val) -> pd.DataFrame:
        stream = state[2]
        r0 = spec.band(tid)[0]
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + val.shape[0]),
            "n_stream": stream.sum(axis=1).astype(np.int64),
            "value_sum": np.round(np.where(stream, val, 0.0).sum(axis=1),
                                  round_to)})

    frames = updn_fixed_point(spec, build, kernel, final, max_rounds,
                              "upstream channel value",
                              combine="add" if mode == "sum" else "max")
    return (pd.concat(frames, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def total_upstream_channel_length(spec: RasterSpec | None = None,
                                  threshold: float = 2.0,
                                  max_rounds: int = 64) -> pd.DataFrame:
    spec = spec or RasterSpec()
    return _upstream_channel_value(spec, threshold, max_rounds, "sum")


def furthest_channel_head_distance(spec: RasterSpec | None = None,
                                   threshold: float = 2.0,
                                   max_rounds: int = 64) -> pd.DataFrame:
    spec = spec or RasterSpec()
    return _upstream_channel_value(spec, threshold, max_rounds, "max")


def _upstream_channel_value_naive(spec: RasterSpec, threshold: float,
                                  mode: str,
                                  round_to: int = 4) -> pd.DataFrame:
    """Single-process Kahn over the stream network."""
    from .raster import synth_value

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    acc, _, _ = _accumulate_tile(z, ptr, np.zeros_like(z), spec.nodata)
    stream = (z != spec.nodata) & (acc >= threshold)
    R, C = z.shape
    GL = tuple(np.sqrt(2.0) if i % 2 == 0 else 1.0 for i in range(8))
    val = np.zeros((R, C))
    for lin in np.argsort(-z, axis=None, kind="stable"):
        r, c = divmod(int(lin), C)
        if not stream[r, c]:
            continue
        code = ptr[r, c]
        if code <= 0 or code == spec.nodata:
            continue
        i = int(code).bit_length() - 1
        v = val[r, c] + GL[i]
        r2, c2 = r + _DY[i], c + _DX[i]
        if 0 <= r2 < R and 0 <= c2 < C and stream[r2, c2]:
            val[r2, c2] = val[r2, c2] + v if mode == "sum" \
                else max(val[r2, c2], v)
    return pd.DataFrame({
        "row_id": np.arange(R, dtype=np.int64),
        "n_stream": stream.sum(axis=1).astype(np.int64),
        "value_sum": np.round(np.where(stream, val, 0.0).sum(axis=1),
                              round_to)})


# ---------------------------------------------------------------------------
# DownslopeIndex (TerrainAnalysisTools/src/plugins/DownslopeIndex.java
# :245-305, "tangent" mode): from each cell walk the D8 path until the
# cumulative drop from the START elevation reaches d; output
# d / flowLength. Two literal quirks reproduced: zLastCell reads the
# START cell (row, col), never the current one, so the crossing
# interpolation is gridLen·d/(zSt − zCurrent) and a pit/edge/NoData
# termination emits (zSt − zLastCell)/len = 0 (NoData when len = 0).
#
# Distribution: each cell's answer depends on its own path profile, so
# the banded fixed point carries PER-ORIGIN continuation messages
# (origin, entry cell, zSt, flowLength) — message volume is the number
# of path/boundary crossings (bounded by Σ path lengths / band height;
# deep paths amortize across rounds).
# ---------------------------------------------------------------------------

def downslope_index(spec: RasterSpec | None = None, d: float = 30.0,
                    max_rounds: int = 256,
                    round_to: int = 4) -> pd.DataFrame:
    """(row_id, n_valid, index_sum) per raster row (tangent mode)."""
    spec = spec or RasterSpec()
    cols = spec.cols
    n = spec.n_tiles
    GL = tuple(np.sqrt(2.0) if i % 2 == 0 else 1.0 for i in range(8))

    def walk_tile(tid: int, starts, z, ptr):
        """starts: list of (origin, r, c, zst, flen). Returns
        (resolved {origin: value}, emitted {target_tid: [msg...]})."""
        H = z.shape[0]
        r0 = spec.band(tid)[0]
        resolved = {}
        emitted: dict[int, list] = {}
        for origin, r, c, zst, flen in starts:
            while True:
                code = ptr[r, c]
                if code == spec.nodata or code <= 0:
                    resolved[origin] = 0.0 if flen > 0 else None
                    break
                i = int(code).bit_length() - 1
                r2, c2 = r + _DY[i], c + _DX[i]
                if not (0 <= c2 < cols) \
                        or not (0 <= r0 + r2 < spec.rows):
                    resolved[origin] = 0.0 if flen > 0 else None
                    break
                if not (0 <= r2 < H):
                    tgt = tid + (1 if r2 >= H else -1)
                    emitted.setdefault(tgt, []).append(
                        (origin, (r0 + r2) * cols + c2, zst, flen, i))
                    break
                zc = z[r2, c2]
                if zc == spec.nodata:
                    resolved[origin] = 0.0 if flen > 0 else None
                    break
                if (zst - zc) < d:
                    flen += GL[i]
                    r, c = r2, c2
                else:
                    flen += GL[i] * d / (zst - zc)
                    resolved[origin] = d / flen
                    break
        return resolved, emitted

    # Banded fixed point via fixed_point.tile_fixed_point. Each round
    # DETERMINISTICALLY recomputes every walk from the inbox (round 0:
    # own seeds only; later rounds re-derive the same crossings plus
    # the continuations), so the message sets grow monotonically and
    # stabilize once every walk has resolved. Two message kinds per
    # target: "walks" (continuations entering that band) and "res"
    # (resolved values routed back to the ORIGIN's band) — the driver
    # never sees a per-cell value; per-round traffic is O(boundary
    # crossings), and the per-row aggregation happens in extract.
    from .fixed_point import tile_fixed_point

    def build(tid: int):
        return _tile_pointers(spec, tid)

    def _run(state, tid: int, inbox):
        z, ptr = state
        H = z.shape[0]
        r0 = spec.band(tid)[0]
        starts = []
        valid = (z != spec.nodata) & (ptr != spec.nodata)
        for r, c in zip(*(a.tolist() for a in np.nonzero(valid))):
            starts.append(((r0 + r) * cols + c, r, c, float(z[r, c]), 0.0))
        for _sender, msg in inbox:
            for origin, entry, zst, flen, i in msg.get("walks", ()):
                er, ec = divmod(int(entry), cols)
                r, c = er - r0, ec
                zc = z[r, c]
                # the pending message still owes the STEP onto the
                # entry cell (the walk's move):
                if zc == spec.nodata:
                    starts.append((origin, r, c, zst, -abs(flen) - 1.0))
                    # sentinel handled below
                    continue
                if (zst - zc) < d:
                    starts.append((origin, r, c, zst, flen + GL[int(i)]))
                else:
                    starts.append((origin, None, None, zst,
                                   flen + GL[int(i)] * d / (zst - zc)))
        resolved = {}
        walk_starts = []
        for st in starts:
            origin, r, c, zst, flen = st
            if r is None:                      # resolved at entry
                resolved[origin] = d / flen
            elif flen < 0:                     # entered NoData
                real = -(flen + 1.0)
                resolved[origin] = 0.0 if real > 0 else None
            else:
                walk_starts.append(st)
        res2, emitted = walk_tile(tid, walk_starts, z, ptr)
        resolved.update(res2)
        return resolved, emitted

    def solve(state, tid: int, inbox) -> dict:
        resolved, emitted = _run(state, tid, inbox)
        out: dict = {}
        for t, msgs in emitted.items():
            if 0 <= t < n:
                out.setdefault(t, {})["walks"] = sorted(msgs)
        for origin, v in resolved.items():
            t = (origin // cols) // spec.tile_rows
            if t != tid and 0 <= t < n:
                out.setdefault(t, {}).setdefault("res", {})[origin] = v
        for t in out:   # canonical key order → byte-stable fixed point
            if "res" in out[t]:
                res = out[t]["res"]
                out[t]["res"] = {k: res[k] for k in sorted(res)}
        return out

    def extract(state, tid: int, inbox) -> pd.DataFrame:
        z = state[0]
        resolved, _ = _run(state, tid, inbox)
        vals = {o: v for o, v in resolved.items()
                if (o // cols) // spec.tile_rows == tid}
        for _sender, msg in inbox:
            vals.update(msg.get("res", {}))
        H = z.shape[0]
        r0 = spec.band(tid)[0]
        plane = np.full((H, cols), np.nan)
        for k, v in vals.items():
            if v is not None:
                plane[k // cols - r0, k % cols] = v
        ok = ~np.isnan(plane)
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + H, dtype=np.int64),
            "n_valid": ok.sum(axis=1).astype(np.int64),
            "index_sum": np.round(np.where(ok, plane, 0.0).sum(axis=1),
                                  round_to)})

    # All-pairs stencil: "walks" continuations
    # only cross to tid±1, but "res" messages are routed straight back
    # to the walk ORIGIN's band, which can be ANY tile once a walk
    # crosses more than one band boundary. The default ±1 stencil
    # silently dropped those (wrong n_valid/index_sum on long walks);
    # the harness now raises on out-of-stencil emits, and this caller
    # declares the full mesh. Outboxes stay O(boundary crossings) small
    # and move peer-to-peer, so n² refs of tiny dicts is cheap.
    out = tile_fixed_point(n, build, solve, extract, max_rounds,
                           "downslope index",
                           neighbors=lambda t: [u for u in range(n)
                                                if u != t])
    return (pd.concat(out, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def downslope_index_naive(spec: RasterSpec, d: float = 30.0,
                          round_to: int = 4) -> pd.DataFrame:
    """Literal per-cell walk."""
    from .raster import synth_value

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    R, C = z.shape
    GL = tuple(np.sqrt(2.0) if i % 2 == 0 else 1.0 for i in range(8))
    plane = np.full((R, C), np.nan)
    for row in range(R):
        for col in range(C):
            if z[row, col] == spec.nodata or ptr[row, col] == spec.nodata:
                continue
            zst = float(z[row, col])
            y, x = row, col
            flen = 0.0
            while True:
                code = ptr[y, x]
                if code <= 0 or code == spec.nodata:
                    if flen > 0:
                        plane[row, col] = 0.0
                    break
                i = int(code).bit_length() - 1
                y2, x2 = y + _DY[i], x + _DX[i]
                if not (0 <= y2 < R and 0 <= x2 < C) \
                        or z[y2, x2] == spec.nodata:
                    if flen > 0:
                        plane[row, col] = 0.0
                    break
                zc = z[y2, x2]
                if (zst - zc) < d:
                    flen += GL[i]
                    y, x = y2, x2
                else:
                    flen += GL[i] * d / (zst - zc)
                    plane[row, col] = d / flen
                    break
    valid = ~np.isnan(plane)
    return pd.DataFrame({
        "row_id": np.arange(R, dtype=np.int64),
        "n_valid": valid.sum(axis=1).astype(np.int64),
        "index_sum": np.round(np.where(valid, plane, 0.0).sum(axis=1),
                              round_to)})


def find_parallel_flow(ds, spec: RasterSpec, regen=None):
    """FindParallelFlow (HydroTools/src/plugins/FindParallelFlow.java:
    232-257, no-streams mode): a cell is flagged 1 when ANY neighbour i
    that is not its own receiver (``myPointer != outflowingVals[i]``)
    carries the SAME pointer code and is not flowing into it
    (``!= inflowingVals[i]``). Pure 3×3 stencil over the D8 pointer
    raster — 8 shifted-plane compares (the vectorized-stencil rule);
    off-grid reads are NoData and never match. Note the literal
    behaviour on pointer 0 (flat) cells: two adjacent flat cells flag
    each other. Exact SQL oracle."""
    from .raster import stencil_apply

    out_vals = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
    in_vals = [16.0, 32.0, 64.0, 128.0, 1.0, 2.0, 4.0, 8.0]

    def kernel(p: np.ndarray) -> np.ndarray:
        f = p[1:-1, 1:-1]
        H, W = f.shape
        par = np.zeros(f.shape, dtype=bool)
        for i in range(8):
            nb = p[1 + _DY[i]:1 + _DY[i] + H, 1 + _DX[i]:1 + _DX[i] + W]
            par |= (f != out_vals[i]) & (nb == f) & (f != in_vals[i])
        res = np.where(f != spec.nodata, par.astype(np.float64),
                       spec.nodata)
        full = np.full_like(p, spec.nodata)
        full[1:-1, 1:-1] = res
        return full

    return stencil_apply(ds, spec, kernel, halo=1, regen=regen)
