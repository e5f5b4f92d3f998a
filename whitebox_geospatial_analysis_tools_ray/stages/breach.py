"""BreachDepressions (HydroTools/src/plugins/BreachDepressions.java:190-561).

For every interior no-flow cell (no strictly-lower valid 8-neighbour,
collected in ROW-MAJOR order, :311-336): re-check it is still a pit
against the EVOLVING output (:354-363), then run a cost-distance
Dijkstra inside its (2·maxDist+1)² window — sources are cells whose
elevation plus the Manhattan-ring decrement (|dc|+|dk|)·aSmallValue
undercuts the pit (:377-380), step cost = (cost₁+cost₂)/2·dist (:420,
:447) — and carve the least-cost back-link path down from the pit,
cascading each path cell to previousZ − aSmallValue (:492-508). The
aSmallValue ladder derives from the DEM magnitude (:275-288). Pits with
no source in the window stay unsolved (:522-525).

The pit loop is sequential — earlier breaches can resolve or reroute
later pits — but a breach only reads and writes cells inside its own
window. Pits whose windows are disjoint therefore CANNOT interact:

Ray mapping: (1) a stencil map over row bands finds the pit list; (2)
the driver unions pits whose windows overlap (Chebyshev distance
≤ 2·maxDist) into conflict components — an O(pits) grid-hash
union-find; (3) one task per component replays ITS pits literally in
the global row-major order over a generated region crop and emits the
sparse carved cells (component interleaving is immaterial — disjoint
windows); (4) a final band map applies the broadcast carve set. The
single-process mirror replays the whole list sequentially; equality is
guaranteed by the disjointness argument and asserted by test.

The synthetic DEM is a diagonal ramp with sparse hashed single-cell
craters (pits) and NoData holes — crater depth chosen so a lower
target exists near the window edge, exercising real carve paths.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from .raster import RasterSpec, tile_task

_DX = (1, 1, 1, 0, -1, -1, -1, 0)
_DY = (-1, 0, 1, 1, 1, 0, -1, -1)
_BACK = (4, 5, 6, 7, 0, 1, 2, 3)
_LARGE = np.finfo(np.float32).max
_H = 2654435761
_H2 = 2246822519
_M = 4294967296


def breach_dem_value(cell: np.ndarray, cols: int,
                     nodata: float) -> np.ndarray:
    """Ramp + sparse craters + NoData holes (see module docstring)."""
    cell = np.asarray(cell, dtype=np.int64)
    r = cell // cols
    c = cell % cols
    z = 0.1 * (r + c).astype(np.float64) + 100.0
    crater = (cell * _H) % _M % 197 == 0
    hole = (cell * _H2 + 99) % _M % 211 == 0
    z = np.where(crater, z - 0.8, z)
    return np.where(hole, nodata, z)


def _grid_rows(spec: RasterSpec, r0: int, r1: int) -> np.ndarray:
    cell = np.arange(r0 * spec.cols, r1 * spec.cols, dtype=np.int64)
    return breach_dem_value(cell, spec.cols, spec.nodata) \
        .reshape(-1, spec.cols)


def _small_value(zmax: float) -> float:
    """The literal aSmallValue ladder (:275-288)."""
    z = abs(zmax)
    if z <= 9:
        return 1e-5
    if z <= 99:
        return 1e-4
    if z <= 9999:
        return 1e-3
    if z <= 99999:
        return 1e-2
    return 1.0


def find_pits(grid: np.ndarray, nodata: float) -> list[tuple[int, int]]:
    """Interior no-flow cells in row-major order (vectorized)."""
    rows, cols = grid.shape
    z = grid[1:-1, 1:-1]
    lowest = np.ones_like(z, dtype=bool)
    for a in range(8):
        nb = grid[1 + _DY[a]:rows - 1 + _DY[a],
                  1 + _DX[a]:cols - 1 + _DX[a]]
        lowest &= ~((nb < z) & (nb != nodata))
    lowest &= z != nodata
    rr, cc = np.nonzero(lowest)
    return list(zip((rr + 1).tolist(), (cc + 1).tolist()))


def breach_pit(out: np.ndarray, row: int, col: int, nodata: float,
               max_dist: int, small: float, lnd: np.ndarray,
               max_cost: float = float("inf")) -> bool:
    """Literal per-pit window Dijkstra + carve; mutates ``out``. The
    active-list tie order is deterministic (aCost, row, col, dir) — the
    reference's PriorityQueue leaves equal-cost order unspecified."""
    rows, cols = out.shape
    z = out[row, col]
    # still a pit?
    for a in range(8):
        rn, cn = row + _DY[a], col + _DX[a]
        if 0 <= rn < rows and 0 <= cn < cols:
            zn = out[rn, cn]
            if zn < z and zn != nodata:
                return False
    size = 2 * max_dist + 1

    def val(r, c):
        gr, gc = row + r - max_dist, col + c - max_dist
        if 0 <= gr < rows and 0 <= gc < cols:
            return out[gr, gc]
        return nodata

    cost = np.empty((size, size))
    accum = np.empty((size, size))
    any_source = False
    for k in range(size):
        for j in range(size):
            zn = val(k, j)
            if zn + lnd[k, j] < z and zn != nodata:
                cost[k, j] = 0.0
                accum[k, j] = 0.0
                any_source = True
            elif zn + lnd[k, j] >= z:
                c1 = (zn - z) + lnd[k, j]
                cost[k, j] = c1 if c1 <= max_cost else _LARGE
                accum[k, j] = _LARGE
            else:
                cost[k, j] = nodata
                accum[k, j] = nodata
    back = np.full((size, size), int(nodata), dtype=np.int64)
    cost[max_dist, max_dist] = 0.0
    accum[max_dist, max_dist] = _LARGE
    if not any_source:
        return False
    dist = (math.sqrt(2.0), 1.0, math.sqrt(2.0), 1.0,
            math.sqrt(2.0), 1.0, math.sqrt(2.0), 1.0)
    heap = []
    for r in range(size):
        for c in range(size):
            if accum[r, c] == _LARGE:
                c1 = cost[r, c]
                for a in range(8):
                    rn, cn = r + _DY[a], c + _DX[a]
                    if 0 <= rn < size and 0 <= cn < size \
                            and accum[rn, cn] == 0:
                        heapq.heappush(
                            heap, ((c1 + cost[rn, cn]) / 2 * dist[a],
                                   r, c, a))
    if not heap:
        return False
    while heap:
        acost, r, c, a = heapq.heappop(heap)
        if accum[r, c] > acost:
            accum[r, c] = acost
            back[r, c] = a
            c1 = cost[r, c]
            for a2 in range(8):
                rn, cn = r + _DY[a2], c + _DX[a2]
                if 0 <= rn < size and 0 <= cn < size:
                    nc = acost + (c1 + cost[rn, cn]) / 2 * dist[a2]
                    if nc < accum[rn, cn]:
                        heapq.heappush(heap, (nc, rn, cn, _BACK[a2]))
    solution = True
    if max_cost != float("inf"):
        r = c = max_dist
        while True:
            b = back[r, c]
            if b >= 0:
                r += _DY[b]
                c += _DX[b]
                if cost[r, c] == _LARGE:
                    solution = False
            else:
                break
    if not solution:
        return False
    r = c = max_dist
    grow, gcol = row, col
    prev = z
    carved = False
    while True:
        b = back[r, c]
        if b < 0:
            break
        r += _DY[b]
        c += _DX[b]
        grow += _DY[b]
        gcol += _DX[b]
        zn = out[grow, gcol]
        if zn > prev - small:
            out[grow, gcol] = prev - small
            carved = True
        prev = out[grow, gcol]
    return carved


def _components(pits: list[tuple[int, int]], max_dist: int):
    """Union pits with overlapping windows (Chebyshev ≤ 2·maxDist)."""
    n = len(pits)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    cell_w = 2 * max_dist + 1
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (r, c) in enumerate(pits):
        buckets.setdefault((r // cell_w, c // cell_w), []).append(i)
    for (br, bc), members in buckets.items():
        cand = []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                cand.extend(buckets.get((br + dr, bc + dc), []))
        for i in members:
            ri, ci = pits[i]
            for jj in cand:
                if jj <= i:
                    continue
                rj, cj = pits[jj]
                if abs(ri - rj) <= 2 * max_dist \
                        and abs(ci - cj) <= 2 * max_dist:
                    parent[find(i)] = find(jj)
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return [sorted(v) for v in comps.values()]


def breach_depressions(spec: RasterSpec | None = None,
                       max_dist: int = 5,
                       round_to: int = 6) -> pd.DataFrame:
    spec = spec or RasterSpec()
    rows, cols = spec.rows, spec.cols
    nodata = spec.nodata

    # pass 1: pits per band (halo-generated stencil)
    def pits_of(b: int) -> list:
        r0, r1 = spec.band(b)
        lo = max(r0 - 1, 0)
        hi = min(r1 + 1, rows)
        g = _grid_rows(spec, lo, hi)
        pr, pc = [], []
        for r, c in find_pits(g, nodata):
            gr = lo + r
            if r0 <= gr < r1 and 0 < gr < rows - 1:
                pr.append(gr)
                pc.append(c)
        zmax = g[g != nodata].max() if (g != nodata).any() else 0.0
        return [{"band": b, "zmax": float(zmax),
                 "pr": np.asarray(pr, dtype=np.int64).tobytes(),
                 "pc": np.asarray(pc, dtype=np.int64).tobytes()}]

    res = (tile_task(spec.n_tiles, pits_of).to_pandas()
           .sort_values("band"))
    pits = []
    for r in res.itertuples():
        pr = np.frombuffer(r.pr, dtype=np.int64)
        pc = np.frombuffer(r.pc, dtype=np.int64)
        pits.extend(zip(pr.tolist(), pc.tolist()))
    pits.sort()  # row-major global order
    small = _small_value(float(res["zmax"].max()))
    lnd = np.abs(np.arange(2 * max_dist + 1) - max_dist)
    lnd = (lnd[None, :] + lnd[:, None]) * small

    comps = _components(pits, max_dist)

    def solve(batch) -> pd.DataFrame:
        out = []
        for idx in batch["comp"]:
            members = comps[int(idx)]
            rs = [pits[i][0] for i in members]
            cs = [pits[i][1] for i in members]
            lo = max(min(rs) - max_dist, 0)
            hi = min(max(rs) + max_dist + 1, rows)
            g = _grid_rows(spec, lo, hi)
            before = g.copy()
            for i in members:
                pr, pc = pits[i]
                breach_pit(g, pr - lo, pc, nodata, max_dist, small, lnd)
            ch = np.nonzero(g != before)
            out.append({
                "cell": ((ch[0] + lo) * cols + ch[1]).astype(np.int64)
                .tobytes(),
                "val": np.ascontiguousarray(g[ch]).tobytes()})
        return pd.DataFrame(out)

    changes_cell = []
    changes_val = []
    if comps:
        cres = (rd.from_items([{"comp": i} for i in range(len(comps))])
                .map_batches(solve, batch_format="numpy").to_pandas())
        for r in cres.itertuples():
            changes_cell.append(np.frombuffer(r.cell, dtype=np.int64))
            changes_val.append(np.frombuffer(r.val))
    cell_arr = (np.concatenate(changes_cell) if changes_cell
                else np.empty(0, dtype=np.int64))
    val_arr = (np.concatenate(changes_val) if changes_val
               else np.empty(0))
    ref = ray.put((cell_arr, val_arr))

    def finalize(b: int) -> pd.DataFrame:
        cells, vals = ray.get(ref) if isinstance(ref, ray.ObjectRef) \
            else ref
        r0, r1 = spec.band(b)
        g = _grid_rows(spec, r0, r1)
        m = (cells >= r0 * cols) & (cells < r1 * cols)
        loc = cells[m] - r0 * cols
        g.ravel()[loc] = vals[m]
        ok = g != nodata
        return pd.DataFrame({
            "row_id": np.arange(r0, r1),
            "n_valid": ok.sum(axis=1).astype(np.int64),
            "row_sum": np.round(np.where(ok, g, 0.0).sum(axis=1),
                                round_to)})

    return (tile_task(spec.n_tiles, finalize).to_pandas()
            .sort_values("row_id").reset_index(drop=True))


def breach_depressions_naive(spec: RasterSpec, max_dist: int = 5,
                             round_to: int = 6) -> pd.DataFrame:
    """Literal sequential mirror over the whole grid."""
    rows, cols = spec.rows, spec.cols
    nodata = spec.nodata
    g = _grid_rows(spec, 0, rows)
    pits = [(r, c) for (r, c) in find_pits(g, nodata)
            if 0 < r < rows - 1]
    small = _small_value(float(g[g != nodata].max()))
    lnd = np.abs(np.arange(2 * max_dist + 1) - max_dist)
    lnd = (lnd[None, :] + lnd[:, None]) * small
    for r, c in pits:
        breach_pit(g, r, c, nodata, max_dist, small, lnd)
    ok = g != nodata
    return pd.DataFrame({
        "row_id": np.arange(rows),
        "n_valid": ok.sum(axis=1).astype(np.int64),
        "row_sum": np.round(np.where(ok, g, 0.0).sum(axis=1), round_to)})
