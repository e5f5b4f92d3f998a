"""Stream-network analysis over the D8 pointer grid.

Reference semantics (StreamNetworkAnalysisTools/src/plugins/, studied for
behavior only):

- StreamOrder.java (364 LoC): Strahler order over stream cells —
  headwater cells are order 1; at a junction the order is max(inflowing
  orders), +1 when two or more tributaries tie at that max.
- StreamMagnitude.java (365 LoC): Shreve magnitude — number of upstream
  headwater links; additive at junctions.
- StreamLinkID.java (357 LoC): unique id per link (maximal stream chain
  between junctions). Our id = the global cell index of the link's most
  upstream cell (deterministic, order-free).
- StreamLinkLength.java (370 LoC): cells (length) per link.

All of these are downstream propagations along the D8 flow forest,
restricted to stream cells (flow accumulation ≥ threshold, per
ExtractStreams.java). The reference walks the whole raster sequentially;
distributed plan = the flow-accumulation pattern (hydro.py):

1. per row-band tile, resolve stream cells in DESCENDING elevation order
   (a D8 receiver is strictly lower, so all of a cell's in-tile inflow
   neighbours are resolved first), combining in-tile inflows with
   EXTERNAL inflow messages;
2. cells whose pointer crosses the tile edge emit
   (target_global_cell, order, magnitude, label) messages — O(cols) per
   tile per round;
3. iterate to a fixed point of the message map (rounds ≤ tile-boundary
   crossings of the longest stream path).

Because every combine is recomputed from the cell's FULL inflow multiset
each round, the fixed point is independent of message arrival order and
of the tiling — asserted by the tiling-invariance test.

At 100 TB scale the driver merge only ever touches edge-row messages
(O(cols × tiles) of them), never cell data; per-tile state stays in the
object store between rounds.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import ray

from .hydro import _tile_pointers, flow_accumulation_tile_refs
from .raster import RasterSpec, tile_task
from .terrain import _DX, _DY
from .util import combine


def _solve_tile(z: np.ndarray, ptr: np.ndarray, stream: np.ndarray,
                r0: int, cols: int, ext: dict, nodata: float):
    """Resolve one tile. ext maps global cell -> list[(order, mag, label)].

    Returns (order, mag, label arrays, emits) where emits is a list of
    (target_global_cell, order, mag, label) for pointer exits."""
    H, W = z.shape
    order = np.zeros((H, W), dtype=np.int32)
    mag = np.zeros((H, W), dtype=np.int64)
    label = np.zeros((H, W), dtype=np.int64)
    emits = []
    idx = np.argsort(-z, axis=None, kind="stable")
    for lin in idx:
        r, c = divmod(int(lin), W)
        if not stream[r, c]:
            continue
        inflows = []
        for i in range(8):
            rn, cn = r + _DY[i], c + _DX[i]
            if 0 <= rn < H and 0 <= cn < W and stream[rn, cn]:
                back = float(1 << ((i + 4) % 8))
                if ptr[rn, cn] == back:
                    inflows.append((int(order[rn, cn]), int(mag[rn, cn]),
                                    int(label[rn, cn])))
        inflows += ext.get((r0 + r) * cols + c, [])
        gcell = (r0 + r) * cols + c
        if not inflows:
            order[r, c], mag[r, c], label[r, c] = 1, 1, gcell
        else:
            m = max(o for o, _, _ in inflows)
            ties = sum(1 for o, _, _ in inflows if o == m)
            order[r, c] = m + 1 if ties >= 2 else m
            mag[r, c] = sum(g for _, g, _ in inflows)
            label[r, c] = inflows[0][2] if len(inflows) == 1 else gcell
        code = ptr[r, c]
        if code != nodata and code > 0:
            i = int(code).bit_length() - 1
            r2, c2 = r + _DY[i], c + _DX[i]
            if 0 <= c2 < W and not (0 <= r2 < H):
                emits.append(((r0 + r2) * cols + c2, int(order[r, c]),
                              int(mag[r, c]), int(label[r, c])))
    return order, mag, label, emits


def _merge_ext(inbox) -> dict:
    """Merge harness inbox messages ({gcell: [(..) , ..]} per sender)
    into one {gcell: sorted list} dict — the exact canonical form the
    old driver loop built (each per-cell list sorted)."""
    ext: dict = {}
    for _sender, msg in inbox:
        for g, lst in msg.items():
            ext.setdefault(g, []).extend(lst)
    for k in ext:
        ext[k].sort()
    return ext


def _topology_fixed_point(spec: RasterSpec, threshold: float,
                          max_rounds: int, extract) -> list:
    """Shared banded fixed point for the stream topology plane.

    Via fixed_point.tile_fixed_point: per-tile (z, ptr, stream) state
    is built once and persists in the object store (the accumulation
    tile arrives as a per-tile ObjectRef, never via the driver); only
    the {gcell: [(order, mag, label)]} boundary emit dicts travel per
    round; ``extract(state, tid, inbox)`` runs ONCE after
    convergence."""
    from .fixed_point import tile_fixed_point

    cols = spec.cols
    n = spec.n_tiles
    acc_refs = flow_accumulation_tile_refs(spec)

    def build(tid: int):
        z, ptr = _tile_pointers(spec, tid)
        acc = ray.get(acc_refs[tid])
        stream = (z != spec.nodata) & (acc >= threshold)
        return z, ptr, stream

    def solve(state, tid: int, inbox) -> dict:
        z, ptr, stream = state
        r0 = spec.band(tid)[0]
        _, _, _, emits = _solve_tile(z, ptr, stream, r0, cols,
                                     _merge_ext(inbox), spec.nodata)
        out: dict = {}
        for gcell, o, g, lab in emits:
            tgt = (gcell // cols) // spec.tile_rows
            if 0 <= tgt < n:
                out.setdefault(tgt, {}).setdefault(gcell, []).append(
                    (o, g, lab))
        # canonical (sorted) form so the pickled fixed point is stable
        return {t: {k: sorted(msg[k]) for k in sorted(msg)}
                for t, msg in out.items()}

    return tile_fixed_point(n, build, solve, extract, max_rounds,
                            "stream topology")


def stream_topology_tile_refs(spec: RasterSpec, threshold: float = 5.0,
                              max_rounds: int = 64) -> dict:
    """{tid: ObjectRef((order, mag, label, stream))} — the converged
    topology planes as per-tile object-store refs; the arrays never
    land on the driver. Downstream banded fixed points (subbasins,
    hillslopes, downslope-to-stream, ...) fetch only their own tile."""
    cols = spec.cols

    def extract(state, tid: int, inbox):
        z, ptr, stream = state
        r0 = spec.band(tid)[0]
        order, mag, label, _ = _solve_tile(z, ptr, stream, r0, cols,
                                           _merge_ext(inbox), spec.nodata)
        return ray.put((order, mag, label, stream))

    refs = _topology_fixed_point(spec, threshold, max_rounds, extract)
    return dict(enumerate(refs))


def _row_aggregates(topo_refs: dict, spec: RasterSpec) -> pd.DataFrame:
    """Per-row aggregate view over the converged topology tile refs —
    one Ray task per tile fetching only its own ref; nothing
    raster-sized on the driver."""
    cols = spec.cols

    def per_tile(tid: int) -> pd.DataFrame:
        order, mag, label, stream = ray.get(topo_refs[tid])
        h = order.shape[0]
        r0 = spec.band(tid)[0]
        gcell = (np.arange(r0, r0 + h)[:, None] * cols
                 + np.arange(cols)[None, :])
        heads = stream & (label == gcell)
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + h),
            "n_stream": stream.sum(axis=1).astype(np.int64),
            "max_order": order.max(axis=1).astype(np.int64),
            "sum_order": order.sum(axis=1).astype(np.int64),
            "sum_magnitude": mag.sum(axis=1),
            "n_heads": heads.sum(axis=1).astype(np.int64),
            "sum_label": np.where(stream, label, 0).sum(axis=1)})

    final = (tile_task(spec.n_tiles, per_tile)
             .to_pandas())
    return final.sort_values("row_id").reset_index(drop=True)


def stream_order(spec: RasterSpec | None = None,
                 threshold: float = 5.0) -> pd.DataFrame:
    """Strahler order + Shreve magnitude per raster row."""
    spec = spec or RasterSpec()
    agg = _row_aggregates(stream_topology_tile_refs(spec, threshold), spec)
    return agg[["row_id", "n_stream", "max_order", "sum_order",
                "sum_magnitude"]]


def stream_link_id(spec: RasterSpec | None = None,
                   threshold: float = 5.0) -> pd.DataFrame:
    """Link ids per raster row (n_heads = links starting in the row)."""
    spec = spec or RasterSpec()
    agg = _row_aggregates(stream_topology_tile_refs(spec, threshold), spec)
    return agg[["row_id", "n_stream", "n_heads", "sum_label"]]


def stream_link_lengths(spec: RasterSpec | None = None,
                        threshold: float = 5.0) -> pd.DataFrame:
    """Per-link cell counts via a Ray groupby over per-tile partial
    counts (the wide step — labels are the shuffle key), then a global
    summary row: (n_links, total_stream_cells, max_link_len)."""
    spec = spec or RasterSpec()
    cols = spec.cols
    topo_refs = stream_topology_tile_refs(spec, threshold)

    def partial(tid: int) -> pd.DataFrame:
        _o, _m, label, stream = ray.get(topo_refs[tid])
        labs, counts = np.unique(label[stream], return_counts=True)
        return pd.DataFrame({"label": labs, "n": counts})

    # one summary row per combine call (whole links each), folded here
    def summary(df: pd.DataFrame) -> pd.DataFrame:
        n = df.groupby("label", sort=True)["n"].sum()
        return pd.DataFrame({"n_links": [len(n)],
                             "total_stream_cells": [int(n.sum())],
                             "max_link_len": [int(n.max()) if len(n) else 0]})

    calls = combine(
        tile_task(spec.n_tiles, partial),
        "label", summary).to_pandas()
    if calls.empty:
        return calls
    return pd.DataFrame({
        "n_links": [int(calls["n_links"].sum())],
        "total_stream_cells": [int(calls["total_stream_cells"].sum())],
        "max_link_len": [int(calls["max_link_len"].max())]})


def stream_topology_naive(spec: RasterSpec, threshold: float = 5.0):
    """Single-process whole-grid mirror (one tile, no exits)."""
    from .hydro import flow_accumulation_naive  # noqa: F401 (same family)
    from .raster import synth_value
    from .terrain import d8_kernel
    from .hydro import _accumulate_tile

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    acc, _, _ = _accumulate_tile(z, ptr, np.zeros_like(z), spec.nodata)
    stream = (z != spec.nodata) & (acc >= threshold)
    order, mag, label, _ = _solve_tile(z, ptr, stream, 0, cols, {},
                                       spec.nodata)
    return order, mag, label, stream


# ---------------------------------------------------------------------------
# StreamLinkSlope.java (396 LoC): per link — relief = max z − min z over the
# link's cells; length = Σ over the link's cells with pointer > 0 of the step
# length (diagonal √2·res / straight res, gridLengths at :238); slope =
# relief / length × 100 (:349). The reference's headwater walk attributes
# each cell's z and each cell's outgoing step to the cell's OWN link id,
# which makes the whole tool one groupby(label) — no walk needed.
# ---------------------------------------------------------------------------

_GRID_LEN = tuple(np.sqrt(2.0) if i % 2 == 0 else 1.0 for i in range(8))


def stream_link_slope(spec: RasterSpec | None = None,
                      threshold: float = 5.0,
                      round_to: int = 6) -> pd.DataFrame:
    """Per-link slope table (label, relief, length, slope_pct), sorted by
    label. Distributed: per-tile partial (min z, max z, Σ step) rows —
    O(links) per tile — then one small groupby(label) combine."""
    spec = spec or RasterSpec()
    cols = spec.cols
    topo_refs = stream_topology_tile_refs(spec, threshold)

    def partial(tid: int) -> pd.DataFrame:
        _o, _m, label, stream = ray.get(topo_refs[tid])
        z, ptr = _tile_pointers(spec, tid)
        code = np.where(ptr > 0, np.log2(np.maximum(ptr, 1.0)), -1
                        ).astype(np.int64)
        step = np.where(code >= 0, np.take(_GRID_LEN, code, mode="clip"),
                        0.0)
        df = pd.DataFrame({"label": label[stream], "z": z[stream],
                           "step": step[stream]})
        g = df.groupby("label").agg(zmin=("z", "min"), zmax=("z", "max"),
                                    length=("step", "sum"))
        return g.reset_index()

    def finalize(t: pd.DataFrame) -> pd.DataFrame:
        relief = t["zmax"] - t["zmin"]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = relief / t["length"] * 100.0
        return pd.DataFrame({
            "label": t["label"].astype("int64"),
            "relief": relief.round(round_to),
            "length": t["length"].round(round_to),
            "slope_pct": np.where(np.isfinite(slope),
                                  slope.round(round_to), np.nan)})

    # pandas combine keyed on the link: the per-link partials are
    # O(links × tiles) smallish rows, and Ray's sort-aggregate costs
    # ~25 s of fixed machinery on ~10 k keys where pandas takes 10 ms
    # (measured)
    def per_link_stats(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("label", sort=True).agg(
            zmin=("zmin", "min"), zmax=("zmax", "max"),
            length=("length", "sum")).reset_index()
        return finalize(g)

    per_link = combine(
        tile_task(spec.n_tiles, partial),
        "label", per_link_stats).to_pandas()
    return per_link.sort_values("label").reset_index(drop=True)


# ---------------------------------------------------------------------------
# FindMainStem.java (347 LoC): for every outlet cell (stream cell whose
# pointer is 0 or whose receiver is not a stream cell, :265-275), walk
# UPSTREAM always taking the inflowing stream neighbour with the highest
# flow accumulation (strict >, scan order c = 0..7, :287-303), marking the
# walked cells 1. Distributed: the walk is an upstream propagation of a
# boolean along locally-computable "chosen upstream" edges — per-tile
# ascending-z resolve + cross-tile "you are main stem" messages to the
# chosen upstream cell, iterated to a fixed point (same convergence
# machinery as stream_topology_frames).
# ---------------------------------------------------------------------------

def _tile_halo_arrays(spec: RasterSpec, tid: int, acc_all: dict,
                      threshold: float):
    """Tile arrays extended by one halo row above and below (from the
    adjacent row-band tiles): (z_ext, ptr_ext, acc_ext, stream_ext)."""
    z, ptr = _tile_pointers(spec, tid)
    h = z.shape[0]
    cols = spec.cols
    ze = np.full((h + 2, cols), spec.nodata)
    pe = np.zeros((h + 2, cols))
    ae = np.zeros((h + 2, cols))
    ze[1:-1], pe[1:-1], ae[1:-1] = z, ptr, acc_all[tid]
    if tid > 0:
        zt, pt = _tile_pointers(spec, tid - 1)
        ze[0], pe[0], ae[0] = zt[-1], pt[-1], acc_all[tid - 1][-1]
    if tid + 1 < spec.n_tiles:
        zb, pb = _tile_pointers(spec, tid + 1)
        ze[-1], pe[-1], ae[-1] = zb[0], pb[0], acc_all[tid + 1][0]
    se = (ze != spec.nodata) & (ae >= threshold)
    return ze, pe, ae, se


def _chosen_upstream_grid(pe, ae, se):
    """Vectorized :func:`_chosen_upstream` over EVERY extended cell:
    returns the extended linear index of the chosen (highest-acc,
    strict >, reference scan order) inflowing stream neighbour, or -1.
    8 shifted-plane passes — no per-cell Python."""
    He, W = pe.shape
    best_acc = np.zeros((He, W))
    cu = np.full((He, W), -1, dtype=np.int64)
    R = np.arange(He)[:, None]
    C = np.arange(W)[None, :]
    for i in range(8):
        r2 = R + _DY[i]
        c2 = C + _DX[i]
        ok = (r2 >= 0) & (r2 < He) & (c2 >= 0) & (c2 < W)
        r2c = np.clip(r2, 0, He - 1)
        c2c = np.clip(c2, 0, W - 1)
        lin2 = r2c * W + c2c
        cond = ok & se[r2c, c2c] \
            & (pe[r2c, c2c] == float(1 << ((i + 4) % 8))) \
            & (ae[r2c, c2c] > best_acc)
        best_acc = np.where(cond, ae[r2c, c2c], best_acc)
        cu = np.where(cond, lin2, cu)
    return cu


def _chosen_upstream(pe, ae, se, r, c):
    """Highest-accumulation inflowing stream neighbour of extended-row r
    (strict >, c-scan order — FindMainStem.java:287-303). Returns
    (r2, c2) in extended coords or None."""
    best, best_acc = None, 0.0
    H, W = pe.shape
    for i in range(8):
        r2, c2 = r + _DY[i], c + _DX[i]
        if 0 <= r2 < H and 0 <= c2 < W and se[r2, c2] \
                and pe[r2, c2] == float(1 << ((i + 4) % 8)) \
                and ae[r2, c2] > best_acc:
            best, best_acc = (r2, c2), ae[r2, c2]
    return best


def find_main_stem(spec: RasterSpec | None = None, threshold: float = 5.0,
                   max_rounds: int = 64) -> pd.DataFrame:
    """Per-row (row_id, n_stream, n_mainstem) counts.

    Banded fixed point via fixed_point.tile_fixed_point: the haloed
    (z, ptr, acc, stream) state persists in the object store (built
    from the three adjacent per-tile accumulation ObjectRefs); only
    the main-stem gcell sets travel per round."""
    from .fixed_point import tile_fixed_point

    spec = spec or RasterSpec()
    cols = spec.cols
    n = spec.n_tiles
    acc_refs = flow_accumulation_tile_refs(spec)

    def build(tid: int):
        acc_local = {t: ray.get(acc_refs[t])
                     for t in (tid - 1, tid, tid + 1) if 0 <= t < n}
        return _tile_halo_arrays(spec, tid, acc_local, threshold)

    def _run(state, tid: int, inbox):
        # vectorized: chosen-upstream grid (8 shifted planes) + boolean
        # pointer-doubling down the strictly-downhill receiver chains —
        # ms(v) = (every link down to the terminal is the CHOSEN
        # upstream of its receiver) AND the terminal is an outlet/ext
        # cell; identical fixed point to the ascending-z walk
        from .hydro import _pointer_double_add

        ze, pe, ae, se = state
        h = ze.shape[0] - 2
        r0 = spec.band(tid)[0]
        ext: set = set()
        for _sender, msg in inbox:
            ext.update(msg)
        cu = _chosen_upstream_grid(pe, ae, se)

        core = slice(1, h + 1)
        se_c = se[core]
        code = pe[core]
        R = np.arange(h)[:, None]
        C = np.arange(cols)[None, :]
        gcells = (r0 + R) * cols + C
        in_ext = np.isin(gcells, np.fromiter(ext, dtype=np.int64,
                                             count=len(ext))) \
            if ext else np.zeros((h, cols), dtype=bool)
        has = se_c & (code > 0)
        ic = np.where(has, code, 1.0).astype(np.int64)
        didx = np.zeros((h, cols), dtype=np.int64)
        for i in range(8):
            didx[ic == (1 << i)] = i
        rr = (R + 1) + np.asarray(_DY)[didx]      # extended rows
        cc = C + np.asarray(_DX)[didx]
        cc_in = (cc >= 0) & (cc < cols)
        rr_c = np.clip(rr, 0, h + 1)
        cc_c = np.clip(cc, 0, cols - 1)
        recv_stream = has & cc_in & se[rr_c, cc_c]
        recv_core = recv_stream & (rr >= 1) & (rr <= h)

        # fail[u] = 1 when the u→receiver link is NOT the receiver's
        # chosen upstream (AND-chain via sum-of-failures == 0)
        my_ext_lin = (R + 1) * cols + C
        fail = np.where(recv_core & (cu[rr_c, cc_c] != my_ext_lin),
                        1.0, 0.0)
        val = np.zeros((h, cols))       # 0 = terminal True
        done = np.zeros((h, cols), dtype=bool)
        done |= ~se_c                                     # never marked
        val[~se_c] = 1.0
        t_true = se_c & (in_ext | ~has | (has & ~recv_stream))
        done |= t_true                                    # val 0
        # receiver in the HALO rows: flag stays False in the reference
        t_false = se_c & ~in_ext & recv_stream & ~recv_core
        val[t_false] = 1.0
        done |= t_false
        # in-core receiver: follow (core linear index)
        lin_core = np.where(recv_core, (rr_c - 1) * cols + cc_c, 0)
        nxt = np.where(done, np.arange(h * cols).reshape(h, cols),
                       lin_core)
        tot = _pointer_double_add(fail, val, done, nxt).reshape(h, cols)
        ms = se_c & (tot == 0.0)

        # emits: each ms cell's chosen upstream when it lies in a halo row
        emits = []
        up = cu[core].reshape(h, cols)
        m = ms & (up >= 0)
        if m.any():
            ur = up[m] // cols
            uc = up[m] % cols
            outside = ~((ur >= 1) & (ur <= h))
            for r_, c_ in zip(ur[outside], uc[outside]):
                emits.append((r0 + int(r_) - 1) * cols + int(c_))
        return ms, se, emits

    def solve(state, tid: int, inbox) -> dict:
        _, _, emits = _run(state, tid, inbox)
        out: dict = {}
        for gcell in emits:
            t = (gcell // cols) // spec.tile_rows
            if 0 <= t < n:
                out.setdefault(t, set()).add(int(gcell))
        return {t: tuple(sorted(s)) for t, s in out.items()}

    def extract(state, tid: int, inbox) -> pd.DataFrame:
        ms, se, _ = _run(state, tid, inbox)
        rr0 = spec.band(tid)[0]
        return pd.DataFrame({
            "row_id": np.arange(rr0, rr0 + ms.shape[0]),
            "n_stream": se[1:-1].sum(axis=1).astype(np.int64),
            "n_mainstem": ms.sum(axis=1).astype(np.int64)})

    out = tile_fixed_point(n, build, solve, extract, max_rounds,
                           "main stem")
    return (pd.concat(out, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def find_main_stem_naive(spec: RasterSpec, threshold: float = 5.0):
    """Literal single-process mirror of the reference walk
    (FindMainStem.java:261-311)."""
    from .raster import synth_value
    from .terrain import d8_kernel
    from .hydro import _accumulate_tile

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    acc, _, _ = _accumulate_tile(z, ptr, np.zeros_like(z), spec.nodata)
    stream = (z != spec.nodata) & (acc >= threshold)
    ms = np.zeros_like(stream)
    for row in range(spec.rows):
        for col in range(cols):
            if not stream[row, col]:
                continue
            code = ptr[row, col]
            if code > 0:
                i = int(code).bit_length() - 1
                rr, cc = row + _DY[i], col + _DX[i]
                if 0 <= rr < spec.rows and 0 <= cc < cols and stream[rr, cc]:
                    continue  # receiver is stream → not an outlet
            x, y = col, row
            while True:
                ms[y, x] = True
                best, best_acc = None, 0.0
                for i in range(8):
                    x2, y2 = x + _DX[i], y + _DY[i]
                    if 0 <= y2 < spec.rows and 0 <= x2 < cols \
                            and stream[y2, x2] \
                            and ptr[y2, x2] == float(1 << ((i + 4) % 8)) \
                            and acc[y2, x2] > best_acc:
                        best, best_acc = (x2, y2), acc[y2, x2]
                if best is None:
                    break
                x, y = best
    return ms, stream


# ---------------------------------------------------------------------------
# RasterStreamsToVector (StreamNetworkAnalysisTools/src/plugins/
# RasterStreamsToVector.java, 417 LoC) — stream links → vector polylines.
# The link machinery already labels every stream cell; a polyline is the
# label's cells ordered by following the D8 pointer. One groupby(label)
# shuffle of (label, gcell, next_gcell) triples; per group a dictionary
# chain walk from the head cell (gcell == label, by construction the
# link's most upstream cell). Covers the RasterToVectorLines family
# (ConversionTools/RasterToVectorLines.java) — same chain walk.
# ---------------------------------------------------------------------------

def streams_to_vector(spec: RasterSpec | None = None,
                      threshold: float = 5.0) -> pd.DataFrame:
    """(label, n_vertices, first_cell, last_cell, path_hash) per link —
    path_hash is a polynomial hash of the ordered global cell ids."""
    spec = spec or RasterSpec()
    cols = spec.cols
    topo_refs = stream_topology_tile_refs(spec, threshold)

    def partial(tid: int) -> pd.DataFrame:
        _o, _m, label, stream = ray.get(topo_refs[tid])
        z, ptr = _tile_pointers(spec, tid)
        r0 = spec.band(tid)[0]
        rr, cc = np.nonzero(stream)
        gcell = (rr + r0) * cols + cc
        code = ptr[rr, cc]
        nxt = np.full(len(rr), -1, dtype=np.int64)
        pos = code > 0
        if pos.any():
            i = (np.log2(code[pos])).astype(np.int64)
            nxt[pos] = ((rr[pos] + r0 + np.take(_DY, i)) * cols
                        + cc[pos] + np.take(_DX, i))
        return pd.DataFrame({"label": label[rr, cc],
                             "gcell": gcell, "nxt": nxt})

    def _walk(lab: int, df: pd.DataFrame) -> tuple:
        cells = dict(zip(df["gcell"].to_numpy(), df["nxt"].to_numpy()))
        seq = []
        cur = lab  # head cell id == label by construction
        while cur in cells:
            seq.append(cur)
            cur = int(cells.pop(cur))
        hsh = 0
        for g in seq:
            hsh = (hsh * 1_000_003 + int(g)) % (1 << 61)
        return (lab, len(seq), seq[0] if seq else -1,
                seq[-1] if seq else -1, hsh)

    # labels are an unbounded key — util.combine walks many links in ONE
    # call: Ray's per-group machinery costs ~ms/group, which dominated
    # at hundreds of links (measured 3.6 s -> ~1 s)
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = [_walk(int(lab), df)
                for lab, df in g.groupby("label", sort=False)]
        out = pd.DataFrame(rows, columns=["label", "n_vertices",
                                          "first_cell", "last_cell",
                                          "path_hash"])
        return out.astype("int64")

    got = combine(tile_task(spec.n_tiles, partial),
                  "label", per_bucket).to_pandas()
    return got.sort_values("label").reset_index(drop=True)


def streams_to_vector_naive(spec: RasterSpec, threshold: float = 5.0):
    order, mag, label, stream = stream_topology_naive(spec, threshold)
    from .raster import synth_value
    from .terrain import d8_kernel
    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    rows = []
    for lab in np.unique(label[stream]):
        m = stream & (label == lab)
        cells = {}
        for r, c in zip(*np.nonzero(m)):
            code = ptr[r, c]
            nxt = -1
            if code > 0:
                i = int(code).bit_length() - 1
                nxt = (r + _DY[i]) * cols + c + _DX[i]
            cells[r * cols + c] = nxt
        seq = []
        cur = int(lab)
        while cur in cells:
            seq.append(cur)
            cur = int(cells.pop(cur))
        hsh = 0
        for g in seq:
            hsh = (hsh * 1_000_003 + int(g)) % (1 << 61)
        rows.append({"label": int(lab), "n_vertices": len(seq),
                     "first_cell": seq[0] if seq else -1,
                     "last_cell": seq[-1] if seq else -1,
                     "path_hash": hsh})
    return pd.DataFrame(rows).sort_values("label").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Subbasins (HydroTools/src/plugins/Subbasins.java, 389 LoC; Hillslopes
# .java 532 differs only in splitting each subbasin by bank side):
# every cell is labelled with the stream LINK ID of the first stream
# cell its D8 flow path reaches — i.e. label(v) = link(v) for stream
# cells, else label(receiver(v)). A downslope-value lookup — the
# downslope_flowpath_length machinery with an integer payload.
# ---------------------------------------------------------------------------

def subbasins(spec: RasterSpec | None = None, threshold: float = 5.0,
              max_rounds: int = 64) -> pd.DataFrame:
    """(row_id, n_labelled, sum_label) per raster row."""
    return _downslope_label_fill(spec or RasterSpec(), threshold,
                                 max_rounds, plane="label")


def strahler_order_basins(spec: RasterSpec | None = None,
                          threshold: float = 5.0,
                          max_rounds: int = 64) -> pd.DataFrame:
    """StrahlerOrderBasins (HydroTools/src/plugins/StrahlerOrderBasins
    .java): every cell takes the Strahler ORDER of the first stream
    cell on its downslope path — the proven order plane composed with
    the same downslope-label fixed point as `subbasins`. (The
    reference's terminal-cell `output += 1` at :134-135 double-counts
    walks arriving at edge outlets — a reference bug we do not
    reproduce; orders follow StreamOrder.java, mirror-tested.)"""
    return _downslope_label_fill(spec or RasterSpec(), threshold,
                                 max_rounds, plane="order")


def _downslope_label_fill(spec: RasterSpec, threshold: float,
                          max_rounds: int, plane: str) -> pd.DataFrame:
    """Banded fixed point via fixed_point.tile_fixed_point: per-tile
    (z, ptr, link, stream) state persists in the object store (the
    topology plane arrives as a per-tile ObjectRef); only the
    {boundary gcell: label} dicts travel per round."""
    from .fixed_point import tile_fixed_point

    cols = spec.cols
    n = spec.n_tiles
    topo_refs = stream_topology_tile_refs(spec, threshold)

    def build(tid: int):
        z, ptr = _tile_pointers(spec, tid)
        order, _mag, label, stream = ray.get(topo_refs[tid])
        link = (order if plane == "order" else label).astype(np.int64)
        return z, ptr, link, stream

    def _fill(state, tid: int, inbox) -> np.ndarray:
        # vectorized pointer-doubling (see hydro._pointer_double) —
        # identical fixed point to the ascending-z sequential walk
        from .hydro import _pointer_double, _pointer_targets

        z, ptr, link, stream = state
        H = z.shape[0]
        r0 = spec.band(tid)[0]
        ext: dict = {}
        for _sender, msg in inbox:
            ext.update(msg)
        valid = z != spec.nodata
        lin, in_tile, r2, c2, has = _pointer_targets(z, ptr, spec.nodata)
        lab = np.full((H, cols), -1, dtype=np.int64)
        done = np.zeros((H, cols), dtype=bool)
        done |= ~valid
        seeded = valid & stream
        lab[seeded] = link[seeded]
        done |= seeded
        done |= valid & ~seeded & ~has      # pit off-stream: -1
        off_v = valid & ~seeded & has & ~in_tile & (c2 >= 0) \
            & (c2 < cols) & (r0 + r2 >= 0) & (r0 + r2 < spec.rows)
        if off_v.any():
            g = (r0 + r2[off_v]) * cols + c2[off_v]
            lab[off_v] = np.fromiter((ext.get(int(k), -1) for k in g),
                                     dtype=np.int64, count=len(g))
        done |= valid & ~seeded & has & ~in_tile
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

    def extract(state, tid: int, inbox) -> pd.DataFrame:
        lab = _fill(state, tid, inbox)
        r0 = spec.band(tid)[0]
        m = lab >= 0
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + lab.shape[0]),
            "n_labelled": m.sum(axis=1).astype(np.int64),
            "sum_label": np.where(m, lab, 0).sum(axis=1)})

    out = tile_fixed_point(n, build, solve, extract, max_rounds,
                           "subbasins")
    return (pd.concat(out, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def subbasins_naive(spec: RasterSpec, threshold: float = 5.0,
                    plane: str = "label") -> pd.DataFrame:
    from .raster import synth_value
    from .terrain import d8_kernel

    cols = spec.cols
    order, _, link, stream = stream_topology_naive(spec, threshold)
    if plane == "order":
        link = order.astype(np.int64)
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    lab = np.full((spec.rows, cols), -1, dtype=np.int64)
    for lin in np.argsort(z, axis=None, kind="stable"):
        r, c = divmod(int(lin), cols)
        if z[r, c] == spec.nodata:
            continue
        if stream[r, c]:
            lab[r, c] = link[r, c]
            continue
        code = ptr[r, c]
        if code <= 0:
            continue
        i = int(code).bit_length() - 1
        r2, c2 = r + _DY[i], c + _DX[i]
        if 0 <= r2 < spec.rows and 0 <= c2 < cols:
            lab[r, c] = lab[r2, c2]
    m = lab >= 0
    return pd.DataFrame({
        "row_id": np.arange(spec.rows),
        "n_labelled": m.sum(axis=1).astype(np.int64),
        "sum_label": np.where(m, lab, 0).sum(axis=1)})


# ---------------------------------------------------------------------------
# HackStreamOrder (Scripts/HackStreamOrder.groovy:237-283): outlets start
# at order 1 and walk upstream along the max-accumulation (main-stem)
# choice; every other inflowing stream neighbour starts a branch at
# order+1. Equivalently per cell: hack(v) = hack(receiver) if v is the
# receiver's chosen upstream, else hack(receiver)+1 — the find_main_stem
# upstream propagation with an integer payload. TopologicalStreamOrder
# is the same machinery with a different increment rule.
# ---------------------------------------------------------------------------

def hack_order(spec: RasterSpec | None = None, threshold: float = 5.0,
               max_rounds: int = 64) -> pd.DataFrame:
    """(row_id, n_stream, max_hack, sum_hack) per raster row.

    Banded fixed point via fixed_point.tile_fixed_point: the haloed
    (z, ptr, acc, stream) state persists in the object store; only the
    {boundary gcell: hack value} dicts (min-combined, exactly as the
    old driver merge) travel per round."""
    from .fixed_point import tile_fixed_point

    spec = spec or RasterSpec()
    cols = spec.cols
    n = spec.n_tiles
    acc_refs = flow_accumulation_tile_refs(spec)

    def build(tid: int):
        acc_local = {t: ray.get(acc_refs[t])
                     for t in (tid - 1, tid, tid + 1) if 0 <= t < n}
        return _tile_halo_arrays(spec, tid, acc_local, threshold)

    def _run(state, tid: int, inbox):
        ze, pe, ae, se = state
        h = ze.shape[0] - 2
        r0 = spec.band(tid)[0]
        ext: dict = {}
        for _sender, msg in inbox:  # min-combine across senders
            for g, v in msg.items():
                prev = ext.get(g)
                if prev is None or v < prev:
                    ext[g] = v
        # vectorized: hk(v) = hk(receiver) + (0 if v is the receiver's
        # CHOSEN upstream else 1) down to a terminal (ext value / outlet
        # = 1 / halo receiver = absorbing 0); two additive doubling
        # passes (value sum + positive-terminal reachability) replace
        # the ascending-z per-cell walk — identical fixed point
        from .hydro import _pointer_double_add

        cu = _chosen_upstream_grid(pe, ae, se)
        core = slice(1, h + 1)
        se_c = se[core]
        code = pe[core]
        R = np.arange(h)[:, None]
        C = np.arange(cols)[None, :]
        gcells = (r0 + R) * cols + C
        ext_val = np.zeros((h, cols), dtype=np.int64)
        if ext:
            ks = np.fromiter(ext.keys(), dtype=np.int64, count=len(ext))
            vs = np.fromiter(ext.values(), dtype=np.int64, count=len(ext))
            pos = {int(k): int(v) for k, v in zip(ks, vs)}
            flat = gcells.ravel()
            hit = np.isin(flat, ks)
            ev = np.zeros(flat.shape, dtype=np.int64)
            ev[hit] = np.fromiter((pos[int(g)] for g in flat[hit]),
                                  dtype=np.int64, count=int(hit.sum()))
            ext_val = ev.reshape(h, cols)
        has = se_c & (code > 0)
        ic = np.where(has, code, 1.0).astype(np.int64)
        didx = np.zeros((h, cols), dtype=np.int64)
        for i in range(8):
            didx[ic == (1 << i)] = i
        rr = (R + 1) + np.asarray(_DY)[didx]
        cc = C + np.asarray(_DX)[didx]
        cc_in = (cc >= 0) & (cc < cols)
        rr_c = np.clip(rr, 0, h + 1)
        cc_c = np.clip(cc, 0, cols - 1)
        recv_stream = has & cc_in & se[rr_c, cc_c]
        recv_core = recv_stream & (rr >= 1) & (rr <= h)

        my_ext_lin = (R + 1) * cols + C
        incr = np.where(recv_core & (cu[rr_c, cc_c] != my_ext_lin),
                        1.0, 0.0)
        val = np.zeros((h, cols))
        reach = np.zeros((h, cols))
        done = np.zeros((h, cols), dtype=bool)
        done |= ~se_c
        has_ext = se_c & (ext_val > 0)
        val[has_ext] = ext_val[has_ext]
        reach[has_ext] = 1.0
        done |= has_ext
        t_outlet = se_c & ~has_ext & (~has | (has & ~recv_stream))
        val[t_outlet] = 1.0
        reach[t_outlet] = 1.0
        done |= t_outlet
        t_zero = se_c & ~has_ext & recv_stream & ~recv_core
        done |= t_zero                       # val 0, reach 0 (absorbing)
        lin_core = np.where(recv_core, (rr_c - 1) * cols + cc_c, 0)
        nxt = np.where(done, np.arange(h * cols).reshape(h, cols),
                       lin_core)
        tot = _pointer_double_add(incr, val, done, nxt).reshape(h, cols)
        rch = _pointer_double_add(np.zeros((h, cols)), reach, done,
                                  nxt).reshape(h, cols)
        hk = np.where(se_c & (rch > 0.0), tot, 0.0).astype(np.int64)

        # emits: chosen upstream in a halo row at hk; non-chosen
        # out-of-tile inflows branch at hk+1
        emits = []
        posm = hk > 0
        up = cu[core].reshape(h, cols)
        m = posm & (up >= 0)
        if m.any():
            ur = up[m] // cols
            uc = up[m] % cols
            hv = hk[m]
            outside = ~((ur >= 1) & (ur <= h))
            for r_, c_, v_ in zip(ur[outside], uc[outside], hv[outside]):
                emits.append(((r0 + int(r_) - 1) * cols + int(c_),
                              int(v_)))
        He = h + 2
        for i in range(8):
            r2 = (R + 1) + _DY[i]
            c2 = C + _DX[i]
            okb = (r2 >= 0) & (r2 < He) & (c2 >= 0) & (c2 < cols)
            r2c = np.clip(r2, 0, He - 1)
            c2c = np.clip(c2, 0, cols - 1)
            lin2 = r2c * cols + c2c
            sel = posm & okb & se[r2c, c2c] & ~((r2 >= 1) & (r2 <= h)) \
                & (pe[r2c, c2c] == float(1 << ((i + 4) % 8))) \
                & (up != lin2)
            if sel.any():
                for r_, c_, v_ in zip(r2c[sel], c2c[sel], hk[sel]):
                    emits.append(((r0 + int(r_) - 1) * cols + int(c_),
                                  int(v_) + 1))
        return hk, se, emits

    def solve(state, tid: int, inbox) -> dict:
        _, _, emits = _run(state, tid, inbox)
        out: dict = {}
        for gcell, val in emits:  # min-combine duplicates
            t = (gcell // cols) // spec.tile_rows
            if 0 <= t < n:
                msg = out.setdefault(t, {})
                prev = msg.get(int(gcell))
                if prev is None or val < prev:
                    msg[int(gcell)] = int(val)
        return {t: {k: msg[k] for k in sorted(msg)}
                for t, msg in out.items()}

    def extract(state, tid: int, inbox) -> pd.DataFrame:
        hk, se, _ = _run(state, tid, inbox)
        r0 = spec.band(tid)[0]
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + hk.shape[0]),
            "n_stream": se[1:-1].sum(axis=1).astype(np.int64),
            "max_hack": hk.max(axis=1),
            "sum_hack": hk.sum(axis=1)})

    out = tile_fixed_point(n, build, solve, extract, max_rounds,
                           "hack order")
    return (pd.concat(out, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def hack_order_naive(spec: RasterSpec, threshold: float = 5.0):
    """Literal queue-walk mirror (HackStreamOrder.groovy:237-283)."""
    import collections

    from .raster import synth_value
    from .terrain import d8_kernel
    from .hydro import _accumulate_tile

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    acc, _, _ = _accumulate_tile(z, ptr, np.zeros_like(z), spec.nodata)
    stream = (z != spec.nodata) & (acc >= threshold)
    hk = np.zeros((spec.rows, cols), dtype=np.int64)
    q = collections.deque()
    for row in range(spec.rows):
        for col in range(cols):
            if not stream[row, col]:
                continue
            code = ptr[row, col]
            outlet = code <= 0
            if not outlet:
                i = int(code).bit_length() - 1
                rr, cc = row + _DY[i], col + _DX[i]
                outlet = not (0 <= rr < spec.rows and 0 <= cc < cols
                              and stream[rr, cc])
            if outlet:
                q.append((row, col, 1))
    while q:
        y, x, order = q.popleft()
        while True:
            hk[y, x] = order
            best, best_acc, best_i = None, 0.0, -1
            inflows = []
            for i in range(8):
                x2, y2 = x + _DX[i], y + _DY[i]
                if 0 <= y2 < spec.rows and 0 <= x2 < cols \
                        and stream[y2, x2] \
                        and ptr[y2, x2] == float(1 << ((i + 4) % 8)):
                    inflows.append((y2, x2))
                    if acc[y2, x2] > best_acc:
                        best, best_acc = (y2, x2), acc[y2, x2]
            if best is None:
                break
            for cell2 in inflows:
                if cell2 != best:
                    q.append((cell2[0], cell2[1], order + 1))
            y, x = best
    return hk, stream


# ---------------------------------------------------------------------------
# Hillslopes (HydroTools/src/plugins/Hillslopes.java)
#
# Loop 1 assigns link ids by headwater walks (the stream_topology label
# machinery); loop 2 re-labels channel-head CELLS with fresh ids; loop 3
# is ONE row-major in-place pass over stream cells that stamps each
# link's right bank (rotating from the flow direction, id = the stream
# id itself — sideVals[0][i] = i) and left bank (first non-stream
# stretch, id = sideVals[1][i]; the reference's state flag never resets,
# so sideVals[2]/[3] are dead code); loop 4 fills every remaining cell
# with the label of the first labelled cell on its downslope path.
#
# Label encoding here: base = 2·link_label (link cells) or
# 2·own_gcell + 1 (channel-head cells, loop 2's fresh id); final code =
# base·4 + side with side 0 = stream/right bank, 1 = left bank —
# a faithful bijection of the reference's sequential numbering.
# ---------------------------------------------------------------------------

_INFLOW = (16.0, 32.0, 64.0, 128.0, 1.0, 2.0, 4.0, 8.0)


def _bank_scan(code: np.ndarray, stream: np.ndarray, snod: np.ndarray,
               ptr: np.ndarray, base: np.ndarray,
               r_lo: int, r_hi: int) -> None:
    """Loop 3 (Hillslopes.java:203-275) over rows [r_lo, r_hi) of
    full-width planes, IN PLACE on ``code`` (rows outside the range are
    read/written as halo state). Walk tests mirror the reference
    exactly: non-stream = streamsVal ≤ 0 and ≠ NoData (off-grid reads
    → NoData); right bank overwrites unconditionally, left bank only
    where output ≤ 0."""
    R, C = code.shape
    for r in range(r_lo, r_hi):
        for c in np.flatnonzero(stream[r]):
            fd = ptr[r, c]
            if fd <= 0:
                continue
            ci = int(fd).bit_length() - 1
            bid = int(base[r, c])
            d = ci
            state = False
            steps = 0
            while True:  # right walk (no step cap in the reference)
                d += 1
                if d > 7:
                    d = 0
                y, x = r + _DY[d], c + _DX[d]
                inb = 0 <= y < R and 0 <= x < C
                is_nod = (not inb) or snod[y, x]
                if (not is_nod) and (not stream[y, x]):
                    state = True
                    if ptr[y, x] == _INFLOW[d]:
                        code[y, x] = bid * 4
                elif state:
                    break
                steps += 1
                if steps > 16:
                    raise RuntimeError(
                        "isolated stream cell: the reference loop would "
                        "not terminate here")
            d = ci
            state = False
            val = bid * 4 + 1
            for _ in range(7):  # left walk (k == 7 cap)
                d -= 1
                if d < 0:
                    d = 7
                y, x = r + _DY[d], c + _DX[d]
                inb = 0 <= y < R and 0 <= x < C
                is_nod = (not inb) or snod[y, x]
                if (not is_nod) and (not stream[y, x]):
                    state = True
                    if ptr[y, x] == _INFLOW[d] and code[y, x] <= 0:
                        code[y, x] = val


def _head_mask(stream: np.ndarray, ptr: np.ndarray,
               stream_up: np.ndarray | None, ptr_up,
               stream_dn, ptr_dn) -> np.ndarray:
    """Channel heads (loop 2): stream cells with no inflowing stream
    neighbour; needs 1 halo row of (stream, ptr) on each side."""
    H, C = stream.shape
    st = np.zeros((H + 2, C + 2), dtype=bool)
    pt = np.zeros((H + 2, C + 2))
    st[1:-1, 1:-1] = stream
    pt[1:-1, 1:-1] = ptr
    if stream_up is not None:
        st[0, 1:-1] = stream_up
        pt[0, 1:-1] = ptr_up
    if stream_dn is not None:
        st[-1, 1:-1] = stream_dn
        pt[-1, 1:-1] = ptr_dn
    inflow = np.zeros((H, C), dtype=bool)
    for i in range(8):
        nb_s = st[1 + _DY[i]:1 + _DY[i] + H, 1 + _DX[i]:1 + _DX[i] + C]
        nb_p = pt[1 + _DY[i]:1 + _DY[i] + H, 1 + _DX[i]:1 + _DX[i] + C]
        inflow |= nb_s & (nb_p == _INFLOW[i])
    return stream & ~inflow


def _hillslope_band_core(seed_rows, first_row_state, top_halo, bottom_seed,
                         stream_ext, snod_ext, ptr_ext, base_ext):
    """One chained loop-3 band pass. seed_rows: (H, C) band code seed
    (first row replaced by first_row_state when given); top_halo /
    bottom_seed: 1-row code states above/below (None at grid edges).
    *_ext planes cover rows (r0−1 .. r1+1) aligned with the padded
    code plane. Returns (band_rows, final_top_halo, modified_bottom)."""
    H, C = seed_rows.shape
    code = np.full((H + 2, C), -2, dtype=np.int64)
    code[1:-1] = seed_rows
    if first_row_state is not None:
        code[1] = first_row_state
    if top_halo is not None:
        code[0] = top_halo
    if bottom_seed is not None:
        code[-1] = bottom_seed
    _bank_scan(code, stream_ext, snod_ext, ptr_ext, base_ext, 1, H + 1)
    return (code[1:-1], code[0].copy(), code[-1].copy(),
            code[H].copy())


@ray.remote
def _hillslope_plane(spec: RasterSpec, threshold: float, tid: int,
                     topo, up_topo, dn_topo):
    """Build tile tid's hillslope planes WORKER-side from the per-tile
    topology tuples (passed as ObjectRefs, auto-resolved by Ray at the
    task boundary); returns (ObjectRef(plane dict), edge-row dict). The
    full planes never touch the driver — only the O(cols) edge rows
    the band chain and the neighbours need."""
    cols = spec.cols
    _order, _mag, link, stream = topo
    link = link.astype(np.int64)
    z, ptr = _tile_pointers(spec, tid)
    up_sp = None
    if up_topo is not None:
        _zt, pt = _tile_pointers(spec, tid - 1)
        up_sp = (up_topo[3][-1], pt[-1])
    dn_sp = None
    if dn_topo is not None:
        _zt, pt = _tile_pointers(spec, tid + 1)
        dn_sp = (dn_topo[3][0], pt[0])
    heads = _head_mask(stream, ptr,
                       up_sp[0] if up_sp else None,
                       up_sp[1] if up_sp else None,
                       dn_sp[0] if dn_sp else None,
                       dn_sp[1] if dn_sp else None)
    r0 = spec.band(tid)[0]
    gcell = (np.arange(z.shape[0], dtype=np.int64)[:, None] + r0) \
        * cols + np.arange(cols, dtype=np.int64)[None, :]
    base = np.where(heads, 2 * gcell + 1, 2 * link)
    snod = z == spec.nodata
    seed = np.full(z.shape, -1, dtype=np.int64)
    seed[snod] = -2
    seed[stream] = base[stream] * 4
    plane = dict(stream=stream, snod=snod, ptr=ptr, base=base,
                 seed=seed, z=z)
    edges = {}
    for key in ("stream", "snod", "ptr", "base"):
        edges[key + "_first"] = plane[key][0].copy()
        edges[key + "_last"] = plane[key][-1].copy()
    edges["seed_first"] = seed[0].copy()
    return ray.put(plane), edges


@ray.remote
def _hillslope_band(p, first_row_state, top_halo, bottom_seed,
                    up_edges, dn_edges, cols: int):
    """One band of the chained loop-3 wavefront: assembles the r0−1..
    r1+1 ext planes from its own plane (passed as an ObjectRef,
    auto-resolved at the task boundary) + the neighbours' edge rows
    (never the full neighbour planes) and runs the in-place bank scan."""
    fills = dict(stream=False, snod=True, ptr=0.0, base=0)

    def stack(key):
        top = up_edges[key + "_last"][None, :] if up_edges is not None \
            else np.full((1, cols), fills[key], dtype=p[key].dtype)
        bot = dn_edges[key + "_first"][None, :] if dn_edges is not None \
            else np.full((1, cols), fills[key], dtype=p[key].dtype)
        return np.vstack([top, p[key], bot])

    return _hillslope_band_core(
        p["seed"], first_row_state, top_halo, bottom_seed,
        stack("stream"), stack("snod"), stack("ptr"), stack("base"))


def hillslopes(spec: RasterSpec | None = None, threshold: float = 5.0,
               max_rounds: int = 64) -> pd.DataFrame:
    """Distributed Hillslopes: topology fixed point → ONE chained
    banded wavefront for the in-place bank pass (each band receives its
    predecessor's final last row and its own possibly-modified first
    row as chained futures — the chain never round-trips the driver) →
    the subbasins-style ascending-z downslope-label fixed point for
    loop 4 via fixed_point.tile_fixed_point (per-tile planes and band
    codes stay in the object store; only the O(cols) boundary label
    dicts travel per round). Output (row_id, n_assigned, sum_code)."""
    from .fixed_point import tile_fixed_point

    spec = spec or RasterSpec()
    cols = spec.cols
    n = spec.n_tiles
    topo_refs = stream_topology_tile_refs(spec, threshold)
    built = ray.get([_hillslope_plane.remote(
        spec, threshold, t, topo_refs[t],
        topo_refs.get(t - 1), topo_refs.get(t + 1)) for t in range(n)])
    plane_refs = [b[0] for b in built]
    edges = [b[1] for b in built]

    band_futs = []
    first_row_state = None   # band's own first row, post predecessor writes
    top_halo = None          # predecessor's final last row at scan time
    for b in range(n):
        bottom_seed = edges[b + 1]["seed_first"] if b + 1 < n else None
        fut = _hillslope_band.remote(
            plane_refs[b], first_row_state, top_halo, bottom_seed,
            edges[b - 1] if b > 0 else None,
            edges[b + 1] if b + 1 < n else None, cols)
        band_futs.append(fut)
        first_row_state = _extract_band.remote(fut, 2)  # modified bottom
        top_halo = _extract_band.remote(fut, 3)         # own last row

    # loop 4: ascending-z downslope label fill, cross-tile fixed point
    def build(tid: int):
        p = ray.get(plane_refs[tid])
        seed = ray.get(band_futs[tid])[0].copy()
        if tid + 1 < n:
            # successor's up-writes win (later in the reference scan)
            seed[-1] = ray.get(band_futs[tid + 1])[1]
        return p["z"], p["ptr"], p["snod"], seed

    def _fill(state, tid: int, inbox) -> np.ndarray:
        # vectorized pointer-doubling (see hydro._pointer_double) —
        # identical fixed point to the ascending-z sequential walk;
        # precedence: seed > snod > pointer, as in the reference loop
        from .hydro import _pointer_double, _pointer_targets

        z, ptr, snod, seed = state
        H = z.shape[0]
        r0 = spec.band(tid)[0]
        ext: dict = {}
        for _sender, msg in inbox:
            ext.update(msg)
        lin, in_tile, r2, c2, has = _pointer_targets(z, ptr, spec.nodata)
        # NOTE: this walk does NOT skip nodata cells before the seed
        # check, and `has` from _pointer_targets embeds the z-validity —
        # replicate the raw `fd <= 0` test on ptr alone instead
        fd_pos = ptr > 0
        # recompute targets from the raw pointer (ptr codes are powers
        # of two wherever fd_pos)
        ic = np.where(fd_pos, ptr, 1.0).astype(np.int64)
        didx = np.zeros((H, cols), dtype=np.int64)
        for i in range(8):
            didx[ic == (1 << i)] = i
        r2 = np.arange(H)[:, None] + np.asarray(_DY)[didx]
        c2 = np.arange(cols)[None, :] + np.asarray(_DX)[didx]
        in_tile = fd_pos & (r2 >= 0) & (r2 < H) & (c2 >= 0) & (c2 < cols)
        lin = np.where(in_tile, np.clip(r2, 0, H - 1) * cols
                       + np.clip(c2, 0, cols - 1), 0)

        lab = np.full((H, cols), -2, dtype=np.int64)
        done = np.zeros((H, cols), dtype=bool)
        seeded = seed >= 0
        lab[seeded] = seed[seeded]
        done |= seeded
        done |= ~seeded & snod                       # stays -2
        done |= ~seeded & ~snod & ~fd_pos            # stays -2
        off_v = ~seeded & ~snod & fd_pos & ~in_tile & (c2 >= 0) \
            & (c2 < cols) & (r0 + r2 >= 0) & (r0 + r2 < spec.rows)
        if off_v.any():
            g = (r0 + r2[off_v]) * cols + c2[off_v]
            lab[off_v] = np.fromiter((ext.get(int(k), -2) for k in g),
                                     dtype=np.int64, count=len(g))
        done |= ~seeded & ~snod & fd_pos & ~in_tile
        nxt = np.where(done, np.arange(H * cols).reshape(H, cols), lin)
        return _pointer_double(lab, done, nxt).reshape(H, cols)

    def solve(state, tid: int, inbox) -> dict:
        lab = _fill(state, tid, inbox)
        r0 = spec.band(tid)[0]
        H = lab.shape[0]
        out: dict = {}
        if tid > 0:
            out[tid - 1] = {r0 * cols + c: int(lab[0, c])
                            for c in range(cols)}
        if tid + 1 < n:
            out[tid + 1] = {(r0 + H - 1) * cols + c: int(lab[H - 1, c])
                            for c in range(cols)}
        return out

    def extract(state, tid: int, inbox) -> pd.DataFrame:
        lab = _fill(state, tid, inbox)
        r0 = spec.band(tid)[0]
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + lab.shape[0]),
            "n_assigned": (lab >= 0).sum(axis=1).astype(np.int64),
            "sum_code": np.where(lab >= 0, lab, 0).sum(axis=1)})

    out = tile_fixed_point(n, build, solve, extract, max_rounds,
                           "hillslopes loop-4")
    return (pd.concat(out, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


@ray.remote
def _extract_band(band_result, idx: int):
    return band_result[idx]


def hillslopes_naive(spec: RasterSpec, threshold: float = 5.0) -> pd.DataFrame:
    """Literal whole-grid mirror with the same label encoding."""
    from .raster import synth_value
    from .terrain import d8_kernel
    from .hydro import _accumulate_tile

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    acc, _, _ = _accumulate_tile(z, ptr, np.zeros_like(z), spec.nodata)
    stream = (z != spec.nodata) & (acc >= threshold)
    _, _, link, _ = stream_topology_naive(spec, threshold)
    heads = _head_mask(stream, ptr, None, None, None, None)
    gcell = cell.reshape(spec.rows, cols)
    base = np.where(heads, 2 * gcell + 1, 2 * link)
    snod = z == spec.nodata
    code = np.full(z.shape, -1, dtype=np.int64)
    code[snod] = -2
    code[stream] = base[stream] * 4
    _bank_scan(code, stream, snod, ptr, base, 0, spec.rows)
    lab = np.full(z.shape, -2, dtype=np.int64)
    for lin in np.argsort(z, axis=None, kind="stable"):
        r, c = divmod(int(lin), cols)
        if code[r, c] >= 0:
            lab[r, c] = code[r, c]
            continue
        if snod[r, c]:
            continue
        fd = ptr[r, c]
        if fd <= 0:
            continue
        i = int(fd).bit_length() - 1
        r2, c2 = r + _DY[i], c + _DX[i]
        if 0 <= r2 < spec.rows and 0 <= c2 < cols:
            lab[r, c] = lab[r2, c2]
    return pd.DataFrame({
        "row_id": np.arange(spec.rows),
        "n_assigned": (lab >= 0).sum(axis=1).astype(np.int64),
        "sum_code": np.where(lab >= 0, lab, 0).sum(axis=1)})


# ---------------------------------------------------------------------------
# StreamLinkClassification.java:240-345 — the reference runs row-major
# headwater walks that increment output along each path, stopping at
# cells already == 2, then overwrites nodes (outlet 5 / source 3 /
# confluence 4). The walk phase's fixed point collapses to the
# ORDER-INDEPENDENT closed form value = min(2, Shreve magnitude): the
# first two walks reaching any cell always continue to the outlet, so a
# cell ends at 2 iff ≥ 2 heads lie upstream — verified cell-for-cell
# against the literal walk in stream_link_classification_naive.
# ---------------------------------------------------------------------------

def stream_link_classification(spec: RasterSpec | None = None,
                               threshold: float = 5.0) -> pd.DataFrame:
    """(class_value, n_cells) over the stream network — distributed as
    the converged topology frames (magnitude) + a one-halo inflow-count
    stencil per tile, then a bounded 5-key combine."""
    from .hydro import flow_accumulation_tile_refs

    spec = spec or RasterSpec()
    cols = spec.cols
    n = spec.n_tiles
    acc_refs = flow_accumulation_tile_refs(spec)
    topo_refs = stream_topology_tile_refs(spec, threshold)

    def per_tile(tid: int) -> pd.DataFrame:
        # fetch ONLY this tile's topology + the ≤3 acc tiles the
        # one-row halo needs — nothing raster-sized on the driver
        acc_local = {t: ray.get(acc_refs[t])
                     for t in (tid - 1, tid, tid + 1) if 0 <= t < n}
        ze, pe, ae, se = _tile_halo_arrays(spec, tid, acc_local,
                                           threshold)
        _, mag, _, _ = ray.get(topo_refs[tid])
        H = mag.shape[0]
        # vectorized 8-shift inflow count (production stencil form)
        sp = np.zeros((H + 2, cols + 2), dtype=bool)
        pp = np.zeros((H + 2, cols + 2))
        sp[:, 1:-1] = se
        pp[:, 1:-1] = pe
        inflow = np.zeros((H, cols), dtype=np.int64)
        for i in range(8):
            dy, dx = _DY[i], _DX[i]
            ns = sp[1 + dy:1 + dy + H, 1 + dx:1 + dx + cols]
            np_ = pp[1 + dy:1 + dy + H, 1 + dx:1 + dx + cols]
            inflow += ns & (np_ == float(1 << ((i + 4) % 8)))
        own_se = se[1:-1]
        own_pe = pe[1:-1]
        cls = np.where(
            ~own_se, -1,
            np.where(own_pe == 0, 5,
                     np.where(inflow == 0, 3,
                              np.where(inflow > 1, 4,
                                       np.minimum(2, mag)))))
        vals, counts = np.unique(cls[cls >= 0], return_counts=True)
        return pd.DataFrame({"class_value": vals,
                             "n": counts.astype(np.int64)})

    def class_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("class_value", sort=True, as_index=False)["n"].sum()
        return pd.DataFrame({"class_value": g["class_value"].astype(np.int64),
                             "n_cells": g["n"].astype(np.int64)})

    return combine(
        tile_task(spec.n_tiles, per_tile),
        "class_value", class_counts).to_pandas()


def classification_walk_arrays(ptr: np.ndarray, stream: np.ndarray,
                               nodata: float) -> np.ndarray:
    """Literal StreamLinkClassification.java walk (row-major heads,
    += 1 marks, ==2 stop rule, then the node pass) over explicit
    (ptr, stream) arrays. Returns the class grid (−1 = not stream)."""
    R, C = ptr.shape

    def inflow_count(r, c):
        n = 0
        for i in range(8):
            r2, c2 = r + _DY[i], c + _DX[i]
            if 0 <= r2 < R and 0 <= c2 < C and stream[r2, c2] \
                    and ptr[r2, c2] == float(1 << ((i + 4) % 8)):
                n += 1
        return n

    out = np.zeros((R, C))
    for row in range(R):
        for col in range(C):
            if not stream[row, col] or inflow_count(row, col) != 0:
                continue
            y, x = row, col
            while True:
                code = ptr[y, x]
                if code <= 0 or code == nodata:
                    break
                i = int(code).bit_length() - 1
                y += _DY[i]; x += _DX[i]
                if not (0 <= y < R and 0 <= x < C) or not stream[y, x]:
                    break
                if out[y, x] == 2:
                    break
                out[y, x] += 1
    cls = np.full((R, C), -1, dtype=np.int64)
    for row in range(R):
        for col in range(C):
            if not stream[row, col]:
                continue
            if ptr[row, col] == 0:
                cls[row, col] = 5
            else:
                n = inflow_count(row, col)
                if n == 0:
                    cls[row, col] = 3
                elif n > 1:
                    cls[row, col] = 4
                else:
                    cls[row, col] = int(out[row, col])
    return cls


def classification_closed_form_arrays(ptr: np.ndarray, stream: np.ndarray,
                                      mag: np.ndarray) -> np.ndarray:
    """min(2, magnitude) closed form + node overwrites, array-level (the
    rule the distributed stage applies per tile)."""
    R, C = ptr.shape
    cls = np.full((R, C), -1, dtype=np.int64)
    for r in range(R):
        for c in range(C):
            if not stream[r, c]:
                continue
            inflow = 0
            for i in range(8):
                r2, c2 = r + _DY[i], c + _DX[i]
                if 0 <= r2 < R and 0 <= c2 < C and stream[r2, c2] \
                        and ptr[r2, c2] == float(1 << ((i + 4) % 8)):
                    inflow += 1
            if ptr[r, c] == 0:
                cls[r, c] = 5
            elif inflow == 0:
                cls[r, c] = 3
            elif inflow > 1:
                cls[r, c] = 4
            else:
                cls[r, c] = min(2, int(mag[r, c]))
    return cls


def stream_link_classification_naive(spec: RasterSpec,
                                     threshold: float = 5.0) -> pd.DataFrame:
    """Literal walk over the synthetic DEM, summarized per class."""
    from .terrain import d8_kernel
    from .hydro import _accumulate_tile
    from .raster import synth_value

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    acc, _, _ = _accumulate_tile(z, ptr, np.zeros_like(z), spec.nodata)
    stream = (z != spec.nodata) & (acc >= threshold)
    cls = classification_walk_arrays(ptr, stream, spec.nodata)
    vals, counts = np.unique(cls[cls >= 0], return_counts=True)
    return pd.DataFrame({"class_value": vals.astype(np.int64),
                         "n_cells": counts.astype(np.int64)})


# ---------------------------------------------------------------------------
# RemoveShortStreams.java:300-392 — exterior links (head → first
# confluence) with walked length < minLength removed. Exterior links are
# exactly the label groups whose magnitude stays 1; the walked length is
# Σ gridLengths[own pointer] over the link's cells (the final term is
# the step onto the confluence); removal requires the link to END at a
# confluence (not the grid outlet).
# ---------------------------------------------------------------------------

def remove_short_streams(spec: RasterSpec | None = None,
                         threshold: float = 5.0,
                         min_length: float = 6.0) -> pd.DataFrame:
    """(n_links, n_removed_links, n_removed_cells, remaining_cells) —
    per-tile per-label partials (cells, length, min mag,
    confluence-end flag) → one bounded combine."""
    from .hydro import flow_accumulation_tile_refs

    spec = spec or RasterSpec()
    cols = spec.cols
    n = spec.n_tiles
    acc_refs = flow_accumulation_tile_refs(spec)
    topo_refs = stream_topology_tile_refs(spec, threshold)

    def _two_halo(tid: int, acc_all):
        """Like _tile_halo_arrays but with a TWO-row halo: the
        confluence-end test inspects the RECEIVER's inflows, and a
        receiver in the first halo row has inflowing neighbours one row
        further out."""
        z, ptr = _tile_pointers(spec, tid)
        h = z.shape[0]
        ze = np.full((h + 4, cols), spec.nodata)
        pe = np.zeros((h + 4, cols))
        ae = np.zeros((h + 4, cols))
        ze[2:-2], pe[2:-2], ae[2:-2] = z, ptr, acc_all[tid]
        if tid > 0:
            zt, pt = _tile_pointers(spec, tid - 1)
            k = min(2, zt.shape[0])
            ze[2 - k:2], pe[2 - k:2], ae[2 - k:2] = \
                zt[-k:], pt[-k:], acc_all[tid - 1][-k:]
        if tid + 1 < spec.n_tiles:
            zb, pb = _tile_pointers(spec, tid + 1)
            k = min(2, zb.shape[0])
            ze[h + 2:h + 2 + k], pe[h + 2:h + 2 + k], ae[h + 2:h + 2 + k] = \
                zb[:k], pb[:k], acc_all[tid + 1][:k]
        se = (ze != spec.nodata) & (ae >= threshold)
        return ze, pe, ae, se

    def per_tile(tid: int) -> pd.DataFrame:
        # ≤3 acc tiles (two-row halo) + this tile's topology only
        acc_local = {t: ray.get(acc_refs[t])
                     for t in (tid - 1, tid, tid + 1) if 0 <= t < n}
        ze, pe, ae, se = _two_halo(tid, acc_local)
        _, mag, label, _ = ray.get(topo_refs[tid])
        H = label.shape[0]
        He = H + 4
        # inflow count for EVERY extended row (vectorized 8-shift)
        sp = np.zeros((He + 2, cols + 2), dtype=bool)
        pp = np.zeros((He + 2, cols + 2))
        sp[1:-1, 1:-1] = se
        pp[1:-1, 1:-1] = pe
        inflow_ext = np.zeros((He, cols), dtype=np.int64)
        for j in range(8):
            dy, dx = _DY[j], _DX[j]
            ns = sp[1 + dy:1 + dy + He, 1 + dx:1 + dx + cols]
            np_ = pp[1 + dy:1 + dy + He, 1 + dx:1 + dx + cols]
            inflow_ext += ns & (np_ == float(1 << ((j + 4) % 8)))
        own_se = se[2:-2]
        code = pe[2:-2]
        valid = own_se & (code > 0) & (code != spec.nodata)
        idx = np.zeros((H, cols), dtype=np.int64)
        idx[valid] = np.round(np.log2(code[valid])).astype(np.int64)
        gl = np.asarray(_GRID_LEN)
        step = np.where(valid, gl[idx], 0.0)
        r2 = np.arange(2, H + 2, dtype=np.int64)[:, None] \
            + np.asarray(_DY)[idx]
        c2 = np.arange(cols, dtype=np.int64)[None, :] \
            + np.asarray(_DX)[idx]
        in_grid = (c2 >= 0) & (c2 < cols)
        r2c = np.clip(r2, 0, He - 1)
        c2c = np.clip(c2, 0, cols - 1)
        conf_end = valid & in_grid & se[r2c, c2c] \
            & (inflow_ext[r2c, c2c] > 1)
        m = own_se
        return pd.DataFrame({
            "label": label[m],
            "n": np.ones(int(m.sum()), dtype=np.int64),
            "len": step[m],
            "mag": mag[m],
            "conf": conf_end[m]})

    # one summary row per combine call (whole links each), summed here
    def summary(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("label").agg(
            n=("n", "sum"), length=("len", "sum"), min_mag=("mag", "min"),
            conf=("conf", "max"))
        ext = g[(g["min_mag"] == 1) & (g["conf"] == 1)]
        removed = ext[ext["length"] < min_length]
        return pd.DataFrame({
            "n_links": [len(g)],
            "n_removed_links": [len(removed)],
            "n_removed_cells": [int(removed["n"].sum())],
            "remaining_cells": [int(g["n"].sum() - removed["n"].sum())]})

    calls = combine(
        tile_task(spec.n_tiles, per_tile),
        "label", summary).to_pandas()
    return calls if calls.empty else calls.sum().to_frame().T.astype("int64")


def remove_short_streams_naive(spec: RasterSpec, threshold: float = 5.0,
                               min_length: float = 6.0) -> pd.DataFrame:
    """Literal RemoveShortStreams.java walk."""
    from .terrain import d8_kernel
    from .hydro import _accumulate_tile
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

    def inflow_count(r, c):
        n = 0
        for i in range(8):
            r2, c2 = r + _DY[i], c + _DX[i]
            if 0 <= r2 < R and 0 <= c2 < C and stream[r2, c2] \
                    and ptr[r2, c2] == float(1 << ((i + 4) % 8)):
                n += 1
        return n

    out = stream.copy()
    removed_links = 0
    removed_cells = 0
    for row in range(R):
        for col in range(C):
            if not stream[row, col] or inflow_count(row, col) != 0:
                continue
            y, x = row, col
            link_len = 0.0
            remove = False
            stop = None
            while True:
                if inflow_count(y, x) > 1:
                    if link_len < min_length:
                        remove = True
                        stop = (y, x)
                    break
                code = ptr[y, x]
                if code <= 0 or code == spec.nodata:
                    break
                i = int(code).bit_length() - 1
                link_len += _GRID_LEN[i]
                y += _DY[i]; x += _DX[i]
                if not (0 <= y < R and 0 <= x < C) or not stream[y, x]:
                    break
            if remove:
                removed_links += 1
                y, x = row, col
                while (y, x) != stop:
                    if out[y, x]:
                        removed_cells += 1
                    out[y, x] = False
                    code = ptr[y, x]
                    if code <= 0 or code == spec.nodata:
                        break
                    i = int(code).bit_length() - 1
                    y += _DY[i]; x += _DX[i]
                    if not (0 <= y < R and 0 <= x < C) or not stream[y, x]:
                        break
    return pd.DataFrame({"n_removed_links": [removed_links],
                         "n_removed_cells": [removed_cells],
                         "remaining_cells": [int(out.sum())]})


# ---------------------------------------------------------------------------
# Downslope VALUE fill — DownslopeDistanceToStream.groovy /
# ElevationAboveStream.groovy: walk the D8 path to the first stream
# cell, output the accumulated step length (distance) or z − z_stream
# (elevation). Same ascending-z banded fixed point as the label fill:
# receivers resolve before senders, cross-tile values travel as edge
# messages; cells whose path ends off-stream stay NoData.
# ---------------------------------------------------------------------------

_UNREACHED = -1.0e300


def _downslope_stream_value(spec: RasterSpec, threshold: float,
                            max_rounds: int, kind: str) -> pd.DataFrame:
    """kind ∈ {dist, elev, pit_dist, pit_elev}: terminal cells are the
    stream mask (dist/elev) or the pits themselves (ptr ≤ 0 — ElevAbove
    Pit.java / DistanceToOutlet.groovy run the same walk to the path's
    end)."""
    from .fixed_point import tile_fixed_point

    cols = spec.cols
    n = spec.n_tiles
    pit_mode = kind.startswith("pit")
    topo_refs = None if pit_mode \
        else stream_topology_tile_refs(spec, threshold)

    def build(tid: int):
        z, ptr = _tile_pointers(spec, tid)
        stream = (ptr <= 0) if topo_refs is None \
            else ray.get(topo_refs[tid])[3]
        return z, ptr, stream

    def _fill(state, tid: int, inbox) -> np.ndarray:
        # additive pointer-doubling with _UNREACHED absorption (value
        # pass + reachability pass) — identical fixed point to the
        # ascending-z walk over the strictly-downhill acyclic graph
        from .hydro import _pointer_double_add, _pointer_targets

        z, ptr, stream = state
        H = z.shape[0]
        r0 = spec.band(tid)[0]
        ext: dict = {}
        for _sender, msg in inbox:
            ext.update(msg)
        valid = z != spec.nodata
        lin, in_tile, r2, c2, has = _pointer_targets(z, ptr, spec.nodata)
        is_dist = kind.endswith("dist")
        if is_dist:
            code = np.where(valid & (ptr != spec.nodata), ptr, 0.0)
            ic = np.where(has, code, 1.0).astype(np.int64)
            didx = np.zeros((H, cols), dtype=np.int64)
            for i in range(8):
                didx[ic == (1 << i)] = i
            step = np.where(has, np.take(np.asarray(_GRID_LEN), didx),
                            0.0)
        else:
            step = np.zeros((H, cols))

        val = np.full((H, cols), _UNREACHED)
        reach = np.zeros((H, cols))
        done = np.zeros((H, cols), dtype=bool)
        done |= ~valid                                   # _UNREACHED
        seeded = valid & stream
        val[seeded] = 0.0 if is_dist else z[seeded]
        reach[seeded] = 1.0
        done |= seeded
        done |= valid & ~seeded & ~has                   # _UNREACHED
        off_v = valid & ~seeded & has & ~in_tile & (c2 >= 0) \
            & (c2 < cols) & (r0 + r2 >= 0) & (r0 + r2 < spec.rows)
        if off_v.any():
            g = (r0 + r2[off_v]) * cols + c2[off_v]
            ev = np.fromiter((ext.get(int(k), _UNREACHED) for k in g),
                             dtype=np.float64, count=len(g))
            hitm = ev != _UNREACHED
            tmp_v = np.full(len(g), _UNREACHED)
            tmp_v[hitm] = ev[hitm] + step[off_v][hitm]
            val[off_v] = tmp_v
            rr_ = np.zeros(len(g))
            rr_[hitm] = 1.0
            reach[off_v] = rr_
        done |= valid & ~seeded & has & ~in_tile         # incl. off-grid
        nxt = np.where(done, np.arange(H * cols).reshape(H, cols), lin)
        tot = _pointer_double_add(step, np.where(reach > 0, val, 0.0),
                                  done, nxt).reshape(H, cols)
        rch = _pointer_double_add(np.zeros((H, cols)), reach, done,
                                  nxt).reshape(H, cols)
        return np.where(rch > 0.0, tot, _UNREACHED)

    def solve(state, tid: int, inbox) -> dict:
        val = _fill(state, tid, inbox)
        r0 = spec.band(tid)[0]
        h = val.shape[0]
        top, bot = val[0], val[-1]
        out: dict = {}
        up = {r0 * cols + int(c): float(top[c])
              for c in np.flatnonzero(top != _UNREACHED)}
        dn = {(r0 + h - 1) * cols + int(c): float(bot[c])
              for c in np.flatnonzero(bot != _UNREACHED)}
        if up and tid > 0:
            out[tid - 1] = up
        if dn and tid + 1 < n:
            out[tid + 1] = dn
        return out

    def extract(state, tid: int, inbox) -> pd.DataFrame:
        z = state[0]
        val = _fill(state, tid, inbox)
        r0 = spec.band(tid)[0]
        m = val != _UNREACHED
        if kind.endswith("elev"):
            res_plane = np.where(m, z - val, 0.0)
        else:
            res_plane = np.where(m, val, 0.0)
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + val.shape[0]),
            "n_reached": m.sum(axis=1).astype(np.int64),
            "value_sum": np.round(res_plane.sum(axis=1), 4)})

    out = tile_fixed_point(n, build, solve, extract, max_rounds,
                           "downslope value fill")
    return (pd.concat(out, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def downslope_distance_to_stream(spec: RasterSpec | None = None,
                                 threshold: float = 2.0,
                                 max_rounds: int = 64) -> pd.DataFrame:
    spec = spec or RasterSpec()
    return _downslope_stream_value(spec, threshold, max_rounds, "dist")


def elevation_above_stream(spec: RasterSpec | None = None,
                           threshold: float = 2.0,
                           max_rounds: int = 64) -> pd.DataFrame:
    spec = spec or RasterSpec()
    return _downslope_stream_value(spec, threshold, max_rounds, "elev")


def _downslope_stream_value_naive(spec: RasterSpec, threshold: float,
                                  kind: str) -> pd.DataFrame:
    """Literal per-cell walk (no memoization — same values)."""
    from .terrain import d8_kernel
    from .hydro import _accumulate_tile
    from .raster import synth_value as sv

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = sv(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    acc, _, _ = _accumulate_tile(z, ptr, np.zeros_like(z), spec.nodata)
    stream = (z != spec.nodata) & (acc >= threshold)
    R, C = z.shape
    val = np.full((R, C), _UNREACHED)
    for row in range(R):
        for col in range(C):
            if z[row, col] == spec.nodata:
                continue
            y, x = row, col
            d = 0.0
            while True:
                if stream[y, x]:
                    val[row, col] = d if kind == "dist" else z[y, x]
                    break
                code = ptr[y, x]
                if code <= 0 or code == spec.nodata:
                    break
                i = int(code).bit_length() - 1
                d += _GRID_LEN[i]
                y += _DY[i]; x += _DX[i]
                if not (0 <= y < R and 0 <= x < C) \
                        or z[y, x] == spec.nodata:
                    break
    m = val != _UNREACHED
    if kind == "elev":
        res_plane = np.where(m, z - val, 0.0)
    else:
        res_plane = np.where(m, val, 0.0)
    return pd.DataFrame({
        "row_id": np.arange(R, dtype=np.int64),
        "n_reached": m.sum(axis=1).astype(np.int64),
        "value_sum": np.round(res_plane.sum(axis=1), 4)})


def elev_above_pit(spec: RasterSpec | None = None,
                   max_rounds: int = 64) -> pd.DataFrame:
    """ElevAbovePit (TerrainAnalysisTools/src/plugins/ElevAbovePit
    .java): z − z(pit at the end of the D8 path)."""
    spec = spec or RasterSpec()
    return _downslope_stream_value(spec, 0.0, max_rounds, "pit_elev")


def distance_to_outlet(spec: RasterSpec | None = None,
                       max_rounds: int = 64) -> pd.DataFrame:
    """DistanceToOutlet (WhiteboxGIS/resources/plugins/Scripts/
    DistanceToOutlet.groovy): step-length sum along the D8 path to its
    terminal cell."""
    spec = spec or RasterSpec()
    return _downslope_stream_value(spec, 0.0, max_rounds, "pit_dist")


def _downslope_pit_value_naive(spec: RasterSpec, kind: str) -> pd.DataFrame:
    from .terrain import d8_kernel
    from .raster import synth_value as sv

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = sv(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    R, C = z.shape
    val = np.full((R, C), _UNREACHED)
    for row in range(R):
        for col in range(C):
            if z[row, col] == spec.nodata:
                continue
            y, x = row, col
            d = 0.0
            while True:
                code = ptr[y, x]
                if code <= 0 or code == spec.nodata:
                    val[row, col] = d if kind == "dist" else z[y, x]
                    break
                i = int(code).bit_length() - 1
                d += _GRID_LEN[i]
                y += _DY[i]; x += _DX[i]
                if not (0 <= y < R and 0 <= x < C) \
                        or z[y, x] == spec.nodata:
                    break
    m = val != _UNREACHED
    if kind == "elev":
        res_plane = np.where(m, z - val, 0.0)
    else:
        res_plane = np.where(m, val, 0.0)
    return pd.DataFrame({
        "row_id": np.arange(R, dtype=np.int64),
        "n_reached": m.sum(axis=1).astype(np.int64),
        "value_sum": np.round(res_plane.sum(axis=1), 4)})


# ---------------------------------------------------------------------------
# MedianUpstreamArea (GeasyTools/src/plugins/MedianUpstreamArea.java
# :296-367): per stream cell, the median of all upstream stream cells'
# upslope-area values (the reference sorts the full upstream list per
# cell — O(n log n) per cell, unbounded memory). The scale path here is
# a MERGEABLE log-bucket histogram sketch: hist(v) = Σ_inflows
# (hist(u) + δ(bucket(area(u)))) — bucket counts are exact integers, so
# the distributed result is bit-identical to the single-process sketch,
# and the sketch median (lower edge of the rank-⌈(n+1)/2⌉ bucket) is
# guaranteed to bracket the true median within one bucket ratio.
# ---------------------------------------------------------------------------

_MED_B = 48
_MED_RATIO = 1.4


def _area_bucket(a: np.ndarray) -> np.ndarray:
    """log_1.4 bucket of an area value ≥ 1, clamped to _MED_B − 1."""
    return np.minimum(
        np.floor(np.log(np.maximum(a, 1.0)) / np.log(_MED_RATIO))
        .astype(np.int64), _MED_B - 1)


def _bucket_lo(b: np.ndarray) -> np.ndarray:
    return _MED_RATIO ** b.astype(np.float64)


def median_upstream_area(spec: RasterSpec | None = None,
                         threshold: float = 2.0,
                         max_rounds: int = 64,
                         round_to: int = 4) -> pd.DataFrame:
    """(row_id, n_stream, median_sum) — Σ over stream cells of the
    sketch median of upstream areas (flow accumulation).

    Banded fixed point via fixed_point.tile_fixed_point with histogram
    messages ({boundary col: _MED_B bucket counts}); the per-tile
    (z, ptr, acc, stream) state persists in the object store."""
    from .fixed_point import tile_fixed_point
    from .hydro import flow_accumulation_tile_refs

    spec = spec or RasterSpec()
    cols = spec.cols
    n = spec.n_tiles
    acc_refs = flow_accumulation_tile_refs(spec)

    def build(tid: int):
        z, ptr = _tile_pointers(spec, tid)
        acc = ray.get(acc_refs[tid])
        stream = (z != spec.nodata) & (acc >= threshold)
        return z, ptr, acc, stream

    def _run(state, tid: int, inbox):
        z, ptr, acc_t, stream = state
        H = z.shape[0]
        hist = np.zeros((H, cols, _MED_B), dtype=np.int64)
        for sender, msg in inbox:   # sender tid-1's dn enters row 0
            row = 0 if sender == tid - 1 else -1
            for col, v in msg.items():
                hist[row, int(col)] += np.asarray(v, dtype=np.int64)
        hist[~stream] = 0
        out_up: dict[int, list] = {}
        out_dn: dict[int, list] = {}
        for lin in np.argsort(-z, axis=None, kind="stable"):
            r, c = divmod(int(lin), cols)
            if not stream[r, c]:
                continue
            code = ptr[r, c]
            if code == spec.nodata or code <= 0:
                continue
            i = int(code).bit_length() - 1
            msg = hist[r, c].copy()
            msg[int(_area_bucket(np.asarray([acc_t[r, c]]))[0])] += 1
            r2, c2 = r + _DY[i], c + _DX[i]
            if 0 <= c2 < cols:
                if 0 <= r2 < H:
                    if stream[r2, c2]:
                        hist[r2, c2] += msg
                else:
                    tgt = out_up if r2 < 0 else out_dn
                    if c2 in tgt:
                        tgt[c2] = [a + b for a, b in zip(tgt[c2],
                                                         msg.tolist())]
                    else:
                        tgt[c2] = msg.tolist()
        return hist, stream, out_up, out_dn

    def solve(state, tid: int, inbox) -> dict:
        _, _, up, dn = _run(state, tid, inbox)
        out: dict = {}
        if up and tid > 0:
            out[tid - 1] = {int(c): up[c] for c in sorted(up)}
        if dn and tid + 1 < n:
            out[tid + 1] = {int(c): dn[c] for c in sorted(dn)}
        return out

    def extract(state, tid: int, inbox) -> pd.DataFrame:
        hist, stream, _, _ = _run(state, tid, inbox)
        med = _sketch_median_plane(hist)
        med = np.where(stream, med, 0.0)
        r0 = spec.band(tid)[0]
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + hist.shape[0]),
            "n_stream": stream.sum(axis=1).astype(np.int64),
            "median_sum": np.round(med.sum(axis=1), round_to)})

    frames = tile_fixed_point(n, build, solve, extract, max_rounds,
                              "median upstream area")
    return (pd.concat(frames, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def _sketch_median_plane(hist: np.ndarray) -> np.ndarray:
    """Lower bucket edge at rank ⌈(n+1)/2⌉; 0 where the multiset is
    empty (headwater stream cells — the reference leaves them 0)."""
    n = hist.sum(axis=2)
    target = (n + 1 + 1) // 2   # ceil((n+1)/2)
    cum = np.cumsum(hist, axis=2)
    b = np.argmax(cum >= target[..., None], axis=2)
    med = _bucket_lo(b)
    return np.where(n > 0, med, 0.0)


def median_upstream_area_naive(spec: RasterSpec, threshold: float = 2.0,
                               round_to: int = 4):
    """Single-process sketch (must equal the distributed result
    EXACTLY) + the true exact median per cell (for the bracketing
    assertion)."""
    from .hydro import _accumulate_tile
    from .raster import synth_value as sv
    from .terrain import d8_kernel

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = sv(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    acc, _, _ = _accumulate_tile(z, ptr, np.zeros_like(z), spec.nodata)
    stream = (z != spec.nodata) & (acc >= threshold)
    R, C = z.shape
    hist = np.zeros((R, C, _MED_B), dtype=np.int64)
    lists = [[[] for _ in range(C)] for _ in range(R)]
    for lin in np.argsort(-z, axis=None, kind="stable"):
        r, c = divmod(int(lin), C)
        if not stream[r, c]:
            continue
        code = ptr[r, c]
        if code <= 0 or code == spec.nodata:
            continue
        i = int(code).bit_length() - 1
        r2, c2 = r + _DY[i], c + _DX[i]
        if 0 <= r2 < R and 0 <= c2 < C and stream[r2, c2]:
            msg = hist[r, c].copy()
            msg[int(_area_bucket(np.asarray([acc[r, c]]))[0])] += 1
            hist[r2, c2] += msg
            lists[r2][c2] = lists[r2][c2] + lists[r][c] \
                + [float(acc[r, c])]
    med = _sketch_median_plane(hist)
    med = np.where(stream, med, 0.0)
    true_med = np.zeros((R, C))
    for r in range(R):
        for c in range(C):
            if stream[r, c] and lists[r][c]:
                v = sorted(lists[r][c])
                m = len(v)
                true_med[r, c] = v[m // 2] if m % 2 == 1 else \
                    0.5 * (v[m // 2 - 1] + v[m // 2])
    df = pd.DataFrame({
        "row_id": np.arange(R, dtype=np.int64),
        "n_stream": stream.sum(axis=1).astype(np.int64),
        "median_sum": np.round(med.sum(axis=1), round_to)})
    return df, med, true_med, stream, hist


# ---------------------------------------------------------------------------
# FindSaddlePoints (WhiteboxGIS/resources/plugins/Scripts/
# FindSaddlePoints.groovy:160-240): channel heads = valley cells with no
# inflowing valley neighbour; every ridge cell's D8 path descends to its
# first valley cell; per head, the saddle is the LOWEST-elevation ridge
# cell whose path ends at that head (strict <, row-major first wins =
# lexicographic (z, cell) min). Inputs composed from implemented
# machinery: Peucker–Douglas valleys (2×2 scatter), FindRidges
# candidates, D8 pointers, the ascending-z label fill. The groovy's
# 1-based head array overruns its own bounds on the last head; labels
# here are head cell ids (order-free, no such bug).
# ---------------------------------------------------------------------------

def _valley_plane_ext(spec: RasterSpec, tid: int) -> np.ndarray:
    """Peucker–Douglas valley mask for tile rows EXTENDED one row above
    and below (halo rows from the neighbouring bands' anchors)."""
    from .raster import synth_value as sv

    cols = spec.cols
    r0, r1 = spec.band(tid)
    lo = max(r0 - 2, 0)
    hi = min(r1 + 2, spec.rows)
    cell = np.arange(lo * cols, hi * cols, dtype=np.int64)
    z = sv(cell).reshape(hi - lo, cols)
    pad = np.full((hi - lo + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    zc = pad[1:-1, 1:-1]
    nw, nn, ww = pad[:-2, :-2], pad[:-2, 1:-1], pad[1:-1, :-2]
    valid = zc != spec.nodata
    maxz = zc.copy()
    sel = np.full(zc.shape, 3, dtype=np.int64)
    for k, nb in ((0, nw), (1, nn), (2, ww)):
        upd = valid & (nb != spec.nodata) & (nb > maxz)
        maxz = np.where(upd, nb, maxz)
        sel = np.where(upd, k, sel)
    H, W = zc.shape
    marked = np.zeros((H + 1, W + 1), dtype=bool)   # extra ring for scatter
    offs = {0: (-1, -1), 1: (-1, 0), 2: (0, -1), 3: (0, 0)}
    for k, (dy, dx) in offs.items():
        hit = valid & (sel == k)
        marked[1 + dy:1 + dy + H, 1 + dx:1 + dx + W][hit[:H, :W]] = True
    valley = valid & ~marked[1:H + 1, 1:W + 1]
    e0 = max(r0 - 1, 0) - lo
    e1 = min(r1 + 1, spec.rows) - lo
    return valley[e0:e1], max(r0 - 1, 0)


def find_saddle_points(spec: RasterSpec | None = None,
                       max_rounds: int = 64) -> pd.DataFrame:
    """(head_cell, saddle_cell, saddle_z) per channel head that some
    ridge flowpath reaches, sorted by head_cell. Conformance-scale
    combine gathers per-tile label planes on the driver; at cluster
    scale only tile EDGE rows travel (the fill's own message shape)."""
    from .fixed_point import tile_fixed_point

    spec = spec or RasterSpec()
    cols = spec.cols
    n = spec.n_tiles

    def build(tid: int):
        z, ptr = _tile_pointers(spec, tid)
        H = z.shape[0]
        r0 = spec.band(tid)[0]
        vext, vr0 = _valley_plane_ext(spec, tid)
        off = r0 - vr0                  # own rows inside vext
        valley = vext[off:off + H]
        # head = valley cell, valid ptr, no inflowing VALLEY nbr
        ze, pe = _ptr_halo_streams(spec, tid)
        vpad = np.zeros((H + 2, cols + 2), dtype=bool)
        vpad[1:-1, 1:-1] = valley
        if off >= 1:
            vpad[0, 1:-1] = vext[off - 1]
        if off + H < vext.shape[0]:
            vpad[-1, 1:-1] = vext[off + H]
        ppad = np.zeros((H + 2, cols + 2))
        ppad[1:-1, 1:-1] = pe[1:-1]
        ppad[0, 1:-1] = pe[0]
        ppad[-1, 1:-1] = pe[-1]
        inflow = np.zeros((H, cols), dtype=np.int64)
        for i in range(8):
            dy, dx = _DY[i], _DX[i]
            nv = vpad[1 + dy:1 + dy + H, 1 + dx:1 + dx + cols]
            np_ = ppad[1 + dy:1 + dy + H, 1 + dx:1 + dx + cols]
            inflow += nv & (np_ == float(1 << ((i + 4) % 8)))
        head = valley & (ptr != spec.nodata) & (inflow == 0)
        return z, ptr, valley, head

    def _fill(state, tid: int, inbox) -> np.ndarray:
        z, ptr, valley, head = state
        H = z.shape[0]
        r0 = spec.band(tid)[0]
        ext: dict = {}
        for _sender, msg in inbox:
            ext.update(msg)
        gcell = (np.arange(r0, r0 + H, dtype=np.int64)[:, None] * cols
                 + np.arange(cols, dtype=np.int64)[None, :])
        # label fill via pointer doubling (valley → own gcell when head,
        # else -2) — identical fixed point to the ascending-z walk
        from .hydro import _pointer_double, _pointer_targets

        valid = z != spec.nodata
        lin, in_tile, r2, c2, has = _pointer_targets(z, ptr, spec.nodata)
        lab = np.full((H, cols), -1, dtype=np.int64)
        done = np.zeros((H, cols), dtype=bool)
        done |= ~valid
        seeded = valid & valley
        lab[seeded & head] = gcell[seeded & head]
        lab[seeded & ~head] = -2
        done |= seeded
        done |= valid & ~seeded & ~has
        off_v = valid & ~seeded & has & ~in_tile & (c2 >= 0) \
            & (c2 < cols) & (r0 + r2 >= 0) & (r0 + r2 < spec.rows)
        if off_v.any():
            g = (r0 + r2[off_v]) * cols + c2[off_v]
            lab[off_v] = np.fromiter((ext.get(int(k), -1) for k in g),
                                     dtype=np.int64, count=len(g))
        done |= valid & ~seeded & has & ~in_tile
        nxt = np.where(done, np.arange(H * cols).reshape(H, cols), lin)
        return _pointer_double(lab, done, nxt).reshape(H, cols)

    def solve(state, tid: int, inbox) -> dict:
        lab = _fill(state, tid, inbox)
        r0 = spec.band(tid)[0]
        h = lab.shape[0]
        top, bot = lab[0], lab[-1]
        out: dict = {}
        up = {r0 * cols + int(c): int(top[c])
              for c in np.flatnonzero(top != -1)}
        dn = {(r0 + h - 1) * cols + int(c): int(bot[c])
              for c in np.flatnonzero(bot != -1)}
        if up and tid > 0:
            out[tid - 1] = up
        if dn and tid + 1 < n:
            out[tid + 1] = dn
        return out

    def extract(state, tid: int, inbox):
        lab = _fill(state, tid, inbox)
        # full plane stays in the object store; only the edge rows
        # (for the neighbour-receiver lookup) return to the driver
        return ray.put(lab), lab[0].copy(), lab[-1].copy()

    res = tile_fixed_point(n, build, solve, extract, max_rounds,
                           "saddle label fill")
    lab_refs = [r[0] for r in res]
    firsts = [r[1] for r in res]
    lasts = [r[2] for r in res]

    # saddle candidates = ridge cells whose RECEIVER's label is a
    # head — scanned per tile worker-side, merged by min on the driver
    # (O(#heads) result per tile)
    bests = ray.get([_saddle_scan.remote(
        spec, tid, lab_refs[tid],
        lasts[tid - 1] if tid > 0 else None,
        firsts[tid + 1] if tid + 1 < n else None) for tid in range(n)])
    best: dict[int, tuple[float, int]] = {}
    for b in bests:
        for L, key in b.items():
            if L not in best or key < best[L]:
                best[L] = key
    out = pd.DataFrame(
        [(h, cell, zv) for h, (zv, cell) in sorted(best.items())],
        columns=["head_cell", "saddle_cell", "saddle_z"])
    out["head_cell"] = out["head_cell"].astype(np.int64)
    out["saddle_cell"] = out["saddle_cell"].astype(np.int64)
    out["saddle_z"] = np.round(out["saddle_z"].astype(np.float64), 6)
    return out


@ray.remote
def _saddle_scan(spec: RasterSpec, tid: int, lab, up_last, dn_first) -> dict:
    """Per-tile saddle-candidate scan: {head label: (z, saddle gcell)}
    minima over this tile's ridge cells. ``lab`` arrives as an
    ObjectRef (auto-resolved); neighbour edge rows cover the r2 = -1 /
    r2 = H receiver lookups."""
    from .thinning import _ridge_init_band

    cols = spec.cols
    z, ptr = _tile_pointers(spec, tid)
    H = z.shape[0]
    r0 = spec.band(tid)[0]
    ridge = _ridge_init_band(spec, tid) == 1.0
    le = np.full((H + 2, cols), -1, dtype=np.int64)
    le[1:-1] = lab
    if up_last is not None:
        le[0] = up_last
    if dn_first is not None:
        le[-1] = dn_first
    best: dict[int, tuple[float, int]] = {}
    cand = ridge & (z != spec.nodata) & (ptr != spec.nodata) & (ptr > 0)
    for r, c in zip(*(a.tolist() for a in np.nonzero(cand))):
        i = int(ptr[r, c]).bit_length() - 1
        r2, c2 = r + _DY[i], c + _DX[i]
        if not (0 <= c2 < cols and 0 <= r0 + r2 < spec.rows):
            continue
        L = int(le[r2 + 1, c2])
        if L >= 0:
            key = (float(z[r, c]), (r0 + r) * cols + c)
            if L not in best or key < best[L]:
                best[L] = key
    return best


def _ptr_halo_streams(spec: RasterSpec, tid: int):
    from .hydro import _ptr_halo
    return _ptr_halo(spec, tid)


def find_saddle_points_naive(spec: RasterSpec) -> pd.DataFrame:
    """Literal groovy walk (0-based head ids = head cell ids)."""
    from .hydro import _tile_pointers as _tp
    from .raster import synth_value as sv
    from .terrain import d8_kernel
    from .thinning import _ridge_init_band

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = sv(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    one = RasterSpec(rows=spec.rows, cols=spec.cols, tile_rows=spec.rows,
                     nodata=spec.nodata)
    valley, _ = _valley_plane_ext(one, 0)
    ridge = _ridge_init_band(one, 0) == 1.0
    R, C = z.shape

    def inflow_valley(r, c):
        k = 0
        for i in range(8):
            r2, c2 = r + _DY[i], c + _DX[i]
            if 0 <= r2 < R and 0 <= c2 < C and valley[r2, c2] \
                    and ptr[r2, c2] == float(1 << ((i + 4) % 8)):
                k += 1
        return k

    head = np.zeros((R, C), dtype=bool)
    for r in range(R):
        for c in range(C):
            if valley[r, c] and ptr[r, c] != spec.nodata \
                    and inflow_valley(r, c) == 0:
                head[r, c] = True
    best: dict[int, tuple[float, int]] = {}
    for row in range(R):
        for col in range(C):
            if not ridge[row, col] or z[row, col] == spec.nodata \
                    or ptr[row, col] == spec.nodata:
                continue
            y, x = row, col
            while True:
                code = ptr[y, x]
                if code <= 0 or code == spec.nodata:
                    break
                i = int(code).bit_length() - 1
                y += _DY[i]
                x += _DX[i]
                if not (0 <= y < R and 0 <= x < C):
                    break
                if valley[y, x]:
                    if head[y, x]:
                        L = y * C + x
                        key = (float(z[row, col]), row * C + col)
                        if L not in best or key < best[L]:
                            best[L] = key
                    break
    out = pd.DataFrame(
        [(h, cellv, zv) for h, (zv, cellv) in sorted(best.items())],
        columns=["head_cell", "saddle_cell", "saddle_z"])
    out["head_cell"] = out["head_cell"].astype(np.int64)
    out["saddle_cell"] = out["saddle_cell"].astype(np.int64)
    out["saddle_z"] = np.round(out["saddle_z"].astype(np.float64), 6)
    return out


def stream_magnitude(spec: RasterSpec | None = None,
                     threshold: float = 5.0) -> pd.DataFrame:
    """StreamMagnitude (StreamNetworkAnalysisTools/src/plugins/
    StreamMagnitude.java:269-331): Shreve magnitude — headwater cells
    carry 1, junctions ADD their inflows' magnitudes. The ``mag``
    channel of the stream-topology fixed point computes exactly this
    (additive combine per inflow multiset, arrival-order-free); this
    query exposes the per-row magnitude view
    (row_id, n_stream, sum_magnitude, max_magnitude)."""
    spec = spec or RasterSpec()
    topo_refs = stream_topology_tile_refs(spec, threshold)

    def per_tile(tid: int) -> pd.DataFrame:
        _o, mag, _l, stream = ray.get(topo_refs[tid])
        r0 = spec.band(tid)[0]
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + mag.shape[0]),
            "n_stream": stream.sum(axis=1).astype(np.int64),
            "sum_magnitude": np.where(stream, mag, 0).sum(axis=1),
            "max_magnitude": np.where(stream, mag, 0).max(axis=1)})

    final = (tile_task(spec.n_tiles, per_tile)
             .to_pandas())
    return final.sort_values("row_id").reset_index(drop=True)
