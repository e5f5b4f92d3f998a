"""FillDepressions — distributed priority-flood (Barnes-style, EXACT).

Reference: HydroTools/src/plugins/FillDepressions.java (416 LoC) — a
whole-raster priority-flood: every cell's filled elevation is

    W(c) = max(z̃(c), min over neighbours n of W(n))

with W = z on grid-edge cells and z̃ = z for valid cells, −∞ for NoData
(water passes through NoData without rising — NoData acts as an outlet).
The global priority queue is inherently sequential — SURVEY.md §7.5 hard
part #1. A naive "iterate tile-local floods with neighbour water levels"
scheme converges to a SPURIOUS fixed point: two boundary cells can
mutually sustain a level above the true spill (each treats the other's
stale W as an external outlet), so the correct decomposition must solve
the boundary min-max problem globally (Barnes, Zhou et al., published
parallel priority-flood literature):

1. **Per-tile boundary graph** (one `map_batches` pass): activate cells
   in ascending z̃ with a union-find; whenever two components that each
   contain a TERMINAL (a tile-edge boundary cell or the virtual outlet)
   merge at level L, emit an edge (termA, termB, L). This Kruskal
   reconstruction tree contracted to terminals preserves every pairwise
   in-tile bottleneck value with ≤ #terminals edges — O(cols) per tile,
   not O(cells).
2. **Driver global solve**: union of all tile trees + cross-boundary
   adjacency edges (weight max(z̃_p, z̃_q)); a max-metric Dijkstra from
   the outlet gives the EXACT water level at every tile-boundary cell.
   Work is O(tiles·cols·log), independent of raster height.
3. **Final per-tile flood** seeded with those exact boundary levels.

Verified equal to the single-process whole-grid priority-flood and
tiling-invariant by test.
"""

from __future__ import annotations

import heapq

import numpy as np
import pandas as pd
import ray

from .raster import RasterSpec, synth_value, tile_task
from ..core.rng import NODATA

_NEG_INF = float("-inf")
OUTLET = -1  # virtual outlet node id


def _effective_z(z: np.ndarray, nodata: float) -> np.ndarray:
    return np.where(z == nodata, _NEG_INF, z)


def _priority_flood_seeded(z: np.ndarray, nodata: float,
                           seeds: list[tuple[int, int, float]]) -> np.ndarray:
    """Flood from explicit (row, col, level) seeds; returns water levels
    (NoData cells → nodata sentinel in the output)."""
    H, W_ = z.shape
    zt = _effective_z(z, nodata)
    water = np.full((H, W_), np.inf)
    heap: list[tuple[float, int, int]] = []
    for r, c, level in seeds:
        lvl = max(level, zt[r, c])
        if water[r, c] > lvl:
            water[r, c] = lvl
            heapq.heappush(heap, (lvl, r, c))
    while heap:
        lvl, r, c = heapq.heappop(heap)
        if lvl > water[r, c]:
            continue
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < H and 0 <= c2 < W_:
                    cand = max(lvl, zt[r2, c2])
                    if cand < water[r2, c2]:
                        water[r2, c2] = cand
                        heapq.heappush(heap, (cand, r2, c2))
    return np.where(z == nodata, nodata, water)


class _UF:
    def __init__(self, n: int):
        self.p = list(range(n))
        self.term: list[int | None] = [None] * n  # terminal rep per root

    def find(self, a: int) -> int:
        while self.p[a] != a:
            self.p[a] = self.p[self.p[a]]
            a = self.p[a]
        return a


def _tile_boundary_graph(z: np.ndarray, nodata: float, r0: int,
                         grid_top: bool, grid_bot: bool, cols: int):
    """Kruskal reconstruction: edges (termA, termB, level) between
    terminals = boundary-cell global ids ∪ {OUTLET}."""
    H, W_ = z.shape
    zt = _effective_z(z, nodata)
    outlet = np.zeros((H, W_), dtype=bool)
    outlet[:, 0] = outlet[:, -1] = True
    if grid_top:
        outlet[0, :] = True
    if grid_bot:
        outlet[-1, :] = True
    outlet |= z == nodata
    is_boundary = np.zeros((H, W_), dtype=bool)
    if not grid_top:
        is_boundary[0, :] = True
    if not grid_bot:
        is_boundary[-1, :] = True

    n = H * W_
    uf = _UF(n + 1)          # last slot = virtual outlet
    onode = n
    uf.term[onode] = OUTLET
    activated = np.zeros((H, W_), dtype=bool)
    edges: list[tuple[int, int, float]] = []

    def merge(a: int, b: int, level: float):
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            return
        ta, tb = uf.term[ra], uf.term[rb]
        if ta is not None and tb is not None and ta != tb:
            edges.append((ta, tb, level))
        uf.p[rb] = ra
        uf.term[ra] = ta if ta is not None else tb

    order = np.argsort(zt, axis=None, kind="stable")
    for lin in order:
        r, c = divmod(int(lin), W_)
        lvl = zt[r, c]
        activated[r, c] = True
        if is_boundary[r, c]:
            # make this cell's component terminal-bearing
            ra = uf.find(lin)
            gid = (r0 + r) * cols + c
            if uf.term[ra] is None:
                uf.term[ra] = gid
            else:
                edges.append((uf.term[ra], gid, lvl))
        if outlet[r, c]:
            merge(int(lin), onode, lvl)
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < H and 0 <= c2 < W_ and activated[r2, c2]:
                    merge(int(lin), int(r2 * W_ + c2), lvl)
    return edges


def filled_tile_refs(spec: RasterSpec, surface=None) -> dict:
    """Distributed exact fill → {tile_id: ObjectRef(filled array)} —
    the filled planes stay in the object store. ``surface(cell_ids)``
    overrides the synthetic DEM (used by the stochastic realizations)."""
    n_tiles, cols = spec.n_tiles, spec.cols
    surf = surface or synth_value

    def tile_z(tid: int) -> np.ndarray:
        r0, r1 = spec.band(tid)
        cell = np.arange(r0 * cols, r1 * cols, dtype=np.int64)
        return surf(cell).reshape(-1, cols)

    # pass 1: per-tile boundary graphs (+ edge-row z̃ for adjacency edges)
    def pass1(tid: int) -> list:
        z = tile_z(tid)
        e = _tile_boundary_graph(z, spec.nodata, spec.band(tid)[0],
                                 grid_top=(tid == 0),
                                 grid_bot=(tid == n_tiles - 1), cols=cols)
        ea = np.array([(a, b, l) for a, b, l in e], dtype=np.float64)
        zt = _effective_z(z, spec.nodata)
        return [{"tile_id": tid, "edges": ea.tobytes(),
                 "n_edges": len(e),
                 "top_z": zt[0].tobytes(), "bot_z": zt[-1].tobytes()}]

    res = tile_task(n_tiles, pass1).to_pandas()

    # driver: assemble global graph and run max-metric Dijkstra from outlet
    adj: dict[int, list[tuple[int, float]]] = {}

    def add_edge(a: int, b: int, w: float):
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))

    edge_z: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for r in res.itertuples():
        ea = np.frombuffer(r.edges).reshape(int(r.n_edges), 3)
        for a, b, l in ea:
            add_edge(int(a), int(b), float(l))
        edge_z[int(r.tile_id)] = (np.frombuffer(r.top_z),
                                  np.frombuffer(r.bot_z))
    for t in range(n_tiles - 1):
        bz = edge_z[t][1]          # tile t last row z̃ (global row rb)
        tz = edge_z[t + 1][0]      # tile t+1 first row z̃
        rb = spec.band(t)[1] - 1
        for c in range(cols):
            for dc in (-1, 0, 1):
                c2 = c + dc
                if 0 <= c2 < cols:
                    add_edge(rb * cols + c, (rb + 1) * cols + c2,
                             max(bz[c], tz[c2]))

    dist: dict[int, float] = {OUTLET: _NEG_INF}
    heap: list[tuple[float, int]] = [(_NEG_INF, OUTLET)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, np.inf):
            continue
        for v, w in adj.get(u, ()):
            nd = max(d, w)
            if nd < dist.get(v, np.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))

    dist_ref = ray.put(dist)

    # pass 2: final flood with exact boundary levels
    def pass2(tid: int) -> pd.DataFrame:
        dmap = ray.get(dist_ref) if isinstance(dist_ref, ray.ObjectRef) \
            else dist_ref
        z = tile_z(tid)
        H = z.shape[0]
        r0 = spec.band(tid)[0]
        seeds: list[tuple[int, int, float]] = []
        for r in range(H):
            for c in (0, cols - 1):
                seeds.append((r, c, _NEG_INF))
        for c in range(cols):
            if tid == 0:
                seeds.append((0, c, _NEG_INF))
            else:
                seeds.append((0, c, dmap.get(r0 * cols + c, np.inf)))
            if tid == n_tiles - 1:
                seeds.append((H - 1, c, _NEG_INF))
            else:
                seeds.append((H - 1, c,
                              dmap.get((r0 + H - 1) * cols + c, np.inf)))
        for r in range(H):
            for c in range(cols):
                if z[r, c] == spec.nodata:
                    seeds.append((r, c, _NEG_INF))
        w = _priority_flood_seeded(z, spec.nodata, seeds)
        return pd.DataFrame({"tile_id": [tid],
                             "filled_ref": [ray.put(w)]})

    final = tile_task(n_tiles, pass2).to_pandas()
    return {int(r.tile_id): r.filled_ref for r in final.itertuples()}


def fill_depressions(spec: RasterSpec | None = None,
                     round_to: int = 6) -> pd.DataFrame:
    """Distributed exact fill; per-row checksums of the filled DEM."""
    spec = spec or RasterSpec()
    refs = filled_tile_refs(spec)

    def per_tile(tid: int) -> pd.DataFrame:
        w = ray.get(refs[tid])
        r0 = spec.band(tid)[0]
        valid = w != spec.nodata
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + w.shape[0]),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "row_sum": np.round(np.where(valid, w, 0.0).sum(axis=1),
                                round_to)})

    final = (tile_task(spec.n_tiles, per_tile)
             .to_pandas())
    return final.sort_values("row_id").reset_index(drop=True)


def fill_depressions_naive(spec: RasterSpec, round_to: int = 6) -> pd.DataFrame:
    """Single-process whole-grid priority-flood mirror."""
    cell = np.arange(spec.rows * spec.cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, spec.cols)
    H, W_ = z.shape
    seeds: list[tuple[int, int, float]] = []
    for r in range(H):
        seeds.append((r, 0, _NEG_INF))
        seeds.append((r, W_ - 1, _NEG_INF))
    for c in range(W_):
        seeds.append((0, c, _NEG_INF))
        seeds.append((H - 1, c, _NEG_INF))
    for r in range(H):
        for c in range(W_):
            if z[r, c] == spec.nodata:
                seeds.append((r, c, _NEG_INF))
    w = _priority_flood_seeded(z, spec.nodata, seeds)
    valid = w != spec.nodata
    return pd.DataFrame({
        "row_id": np.arange(spec.rows),
        "n_valid": valid.sum(axis=1).astype(np.int64),
        "row_sum": np.round(np.where(valid, w, 0.0).sum(axis=1), round_to)})


def flood_order(spec: RasterSpec | None = None) -> pd.DataFrame:
    """FloodOrder (WhiteboxGIS/resources/plugins/Scripts/FloodOrder
    .groovy:184-199): rank of each cell in the priority-flood visit
    sequence. The queue pops by FILLED elevation; Java's binary-heap tie
    order is implementation-defined, so ties (cells levelled to the same
    spill elevation) use the repo's standardized deterministic rule:
    (filled_z, global cell id). Physical plan: the proven fill → one
    distributed sort by (filled_z, cell) → ranks by per-block offsets.
    Output: per raster row (row_id, n_valid, rank_sum) — exact integers."""
    spec = spec or RasterSpec()
    cols = spec.cols
    refs = filled_tile_refs(spec)

    def emit(tid: int) -> pd.DataFrame:
        w = ray.get(refs[tid])
        r0 = spec.band(tid)[0]
        gcell = np.arange(r0 * cols, (r0 + w.shape[0]) * cols,
                          dtype=np.int64)
        flat = w.ravel()
        m = flat != spec.nodata
        return pd.DataFrame({"fz": flat[m], "cell": gcell[m]})

    ds = tile_task(spec.n_tiles, emit)
    # distributed sort; ranks = global position = per-block offset +
    # local index. The driver STREAMS the sorted blocks (sequential
    # prefix offsets force order) but accumulates only the bounded
    # per-row partial sums, never the ranked rows themselves.
    srt = ds.sort(["fz", "cell"])
    agg: dict[int, tuple[int, int]] = {}
    offset = 0
    for blk in srt.iter_batches(batch_format="pandas", batch_size=None):
        n = len(blk)
        row_id = blk["cell"].to_numpy() // cols
        rank = np.arange(offset, offset + n, dtype=np.int64)
        bdf = pd.DataFrame({"row_id": row_id, "rank": rank}).groupby(
            "row_id").agg(n=("rank", "size"), s=("rank", "sum"))
        for rid, r in bdf.iterrows():
            pn, ps = agg.get(int(rid), (0, 0))
            agg[int(rid)] = (pn + int(r.n), ps + int(r.s))
        offset += n
    out = pd.DataFrame({"row_id": np.arange(spec.rows, dtype=np.int64)})
    out["n_valid"] = np.array([agg.get(i, (0, 0))[0]
                               for i in range(spec.rows)], dtype=np.int64)
    out["rank_sum"] = np.array([agg.get(i, (0, 0))[1]
                                for i in range(spec.rows)], dtype=np.int64)
    return out


def flood_order_naive(spec: RasterSpec) -> pd.DataFrame:
    """Single-process mirror: whole-grid fill + lexsort ranks."""
    from .raster import synth_value as sv

    cols = spec.cols
    frames = None
    # reuse the single-tile fill: run priority flood over the whole grid
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = sv(cell).reshape(spec.rows, cols)
    seeds = []
    R, C = z.shape
    for r in range(R):
        seeds.append((r, 0, _NEG_INF))
        seeds.append((r, C - 1, _NEG_INF))
    for c in range(C):
        seeds.append((0, c, _NEG_INF))
        seeds.append((R - 1, c, _NEG_INF))
    for r in range(R):
        for c in range(C):
            if z[r, c] == spec.nodata:
                seeds.append((r, c, _NEG_INF))
    w = _priority_flood_seeded(z, spec.nodata, seeds)
    flat = w.ravel()
    m = flat != spec.nodata
    fz = flat[m]
    gcell = cell[m]
    order = np.lexsort((gcell, fz))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    df = pd.DataFrame({"row_id": gcell // cols, "rank": rank})
    g = df.groupby("row_id", as_index=False).agg(
        n_valid=("rank", "size"), rank_sum=("rank", "sum"))
    out = pd.DataFrame({"row_id": np.arange(spec.rows, dtype=np.int64)})
    out = out.merge(g, on="row_id", how="left").fillna(0)
    out["n_valid"] = out["n_valid"].astype(np.int64)
    out["rank_sum"] = out["rank_sum"].astype(np.int64)
    return out


STOCH_RMSE = 15.0
STOCH_REALIZATIONS = 4


def _stoch_surface(k: int):
    """Realization k: synthetic DEM + seeded uniform error in
    [−rmse, +rmse) (the repo's deterministic substitution for the
    reference's histogram/turning-bands error field —
    TerrainAnalysisTools/src/plugins/StochasticDepressionAnalysis.java
    runs N such realizations and averages); NoData preserved."""
    from ..core.rng import uniform01

    def surf(cell: np.ndarray) -> np.ndarray:
        z = synth_value(cell)
        noise = (uniform01(cell, add=7177 + 131 * k) - 0.5) * 2.0 * STOCH_RMSE
        return np.where(z == NODATA, z, z + noise)

    return surf


def stochastic_depression_analysis(spec: RasterSpec | None = None,
                                   n_real: int = STOCH_REALIZATIONS
                                   ) -> pd.DataFrame:
    """pdep = fraction of realizations in which the cell is inside a
    depression (filled > surface) — N independent runs of the proven
    fill decomposition, tiny per-row partials combined on the driver.
    Output: (row_id, n_valid, pdep_sum) with pdep_sum = Σ_row pdep
    rounded to 6."""
    spec = spec or RasterSpec()
    cols = spec.cols
    # per-row (count_sum, n_valid) partials per realization — O(rows)
    # on the driver; the filled planes stay in the object store
    total = np.zeros(spec.rows, dtype=np.int64)
    n_valid = np.zeros(spec.rows, dtype=np.int64)
    for k in range(n_real):
        surf = _stoch_surface(k)
        refs = filled_tile_refs(spec, surface=surf)

        def per_tile(tid: int) -> pd.DataFrame:
            w = ray.get(refs[tid])
            r0 = spec.band(tid)[0]
            cell = np.arange(r0 * cols, (r0 + w.shape[0]) * cols,
                             dtype=np.int64)
            z = surf(cell).reshape(w.shape[0], cols)
            v = z != spec.nodata
            return pd.DataFrame({
                "row_id": np.arange(r0, r0 + w.shape[0]),
                "dep": (v & (w > z)).sum(axis=1).astype(np.int64),
                "val": v.sum(axis=1).astype(np.int64)})

        part = (tile_task(spec.n_tiles, per_tile).to_pandas()
                .sort_values("row_id"))
        total += part["dep"].to_numpy()
        n_valid = part["val"].to_numpy()
    pdep_sum = total.astype(np.float64) / float(n_real)
    return pd.DataFrame({
        "row_id": np.arange(spec.rows, dtype=np.int64),
        "n_valid": n_valid.astype(np.int64),
        "pdep_sum": np.round(pdep_sum, 6)})


def depth_in_sink(spec: RasterSpec | None = None,
                  round_to: int = 6) -> pd.DataFrame:
    """DepthInSink (WhiteboxGIS/resources/plugins/Scripts/DepthInSink
    .py:73-95): FillDepressions (flat increment 0) minus the original
    DEM; cells outside sinks → 0 (backgroundVal). Per-row checksums."""
    spec = spec or RasterSpec()
    cols = spec.cols
    refs = filled_tile_refs(spec)

    def per_tile(tid: int) -> pd.DataFrame:
        w = ray.get(refs[tid])
        r0 = spec.band(tid)[0]
        cell = np.arange(r0 * cols, (r0 + w.shape[0]) * cols,
                         dtype=np.int64)
        z = synth_value(cell).reshape(w.shape[0], cols)
        valid = z != spec.nodata
        depth = np.where(valid, w - z, 0.0)
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + w.shape[0]),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "depth_sum": np.round(depth.sum(axis=1), round_to)})

    final = (tile_task(spec.n_tiles, per_tile)
             .to_pandas())
    return final.sort_values("row_id").reset_index(drop=True)


def depth_in_sink_naive(spec: RasterSpec, round_to: int = 6) -> pd.DataFrame:
    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    R, C = z.shape
    seeds = []
    for r in range(R):
        seeds.append((r, 0, _NEG_INF))
        seeds.append((r, C - 1, _NEG_INF))
    for c in range(C):
        seeds.append((0, c, _NEG_INF))
        seeds.append((R - 1, c, _NEG_INF))
    for r in range(R):
        for c in range(C):
            if z[r, c] == spec.nodata:
                seeds.append((r, c, _NEG_INF))
    w = _priority_flood_seeded(z, spec.nodata, seeds)
    valid = z != spec.nodata
    depth = np.where(valid, w - z, 0.0)
    return pd.DataFrame({
        "row_id": np.arange(R, dtype=np.int64),
        "n_valid": valid.sum(axis=1).astype(np.int64),
        "depth_sum": np.round(depth.sum(axis=1), round_to)})
