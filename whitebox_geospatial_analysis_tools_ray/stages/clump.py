"""Clump — connected-component labelling with cross-tile merge.

Reference: GISTools/src/plugins/Clump.java (408 LoC) labels contiguous
same-class cell groups with an iterative whole-raster relabel loop
(``do {...} while (somethingDone)``, :341). The distributed plan
(SURVEY.md §2.9 "Connected components") replaces the global loop with:

1. per-tile run-based two-pass labelling (union-find over row runs)
   inside ``map_batches`` — each row-band tile labelled independently;
2. each tile also emits its first/last rows (class + local label) —
   O(2·cols) per tile, tiny;
3. the driver merges boundary adjacencies with a union-find over
   (tile, local_label) keys — work O(boundary cells), not O(raster);
4. the root map is broadcast back and per-tile partial stats are
   re-keyed and reduced by ``groupby(clump_id)``.

Clump identity is deterministic: the minimum linear cell index of the
component. Connectivity is 8-neighbour (Clump.java diag option true).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from .raster import RasterSpec, synth_value, tile_task


class _UF:
    def __init__(self):
        self.parent: dict = {}

    def find(self, a):
        p = self.parent.setdefault(a, a)
        if p != a:
            self.parent[a] = p = self.find(p)
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def label_tile(klass: np.ndarray, background: int = -1) -> np.ndarray:
    """Two-pass 8-connected labelling of one tile. ``klass`` is an int
    array; cells with ``klass == background`` stay label −1. Returns the
    label array (labels are arbitrary tile-local non-negative ints)."""
    H, W = klass.shape
    labels = np.full((H, W), -1, dtype=np.int64)
    uf = _UF()
    nxt = 0
    for r in range(H):
        row = klass[r]
        # runs of equal class in this row
        changes = np.nonzero(np.diff(row))[0] + 1
        starts = np.concatenate([[0], changes])
        ends = np.concatenate([changes, [W]])
        for s, e in zip(starts, ends):
            if row[s] == background:
                continue
            lab = nxt
            nxt += 1
            labels[r, s:e] = lab
            uf.find(lab)
            if r > 0:
                s0, e0 = max(s - 1, 0), min(e + 1, W)  # 8-conn: diag overlap
                above = labels[r - 1, s0:e0]
                same = klass[r - 1, s0:e0] == row[s]
                for al in np.unique(above[same & (above >= 0)]):
                    uf.union(lab, int(al))
    if nxt:
        flat = np.array([uf.find(i) for i in range(nxt)], dtype=np.int64)
        m = labels >= 0
        labels[m] = flat[labels[m]]
    return labels


def clump(spec: RasterSpec | None = None, class_width: float = 250.0,
          min_cells: int = 1) -> pd.DataFrame:
    """Distributed clump over the synthetic class raster
    (class = floor(v/class_width), NoData → background).

    Returns (clump_id, klass, n_cells) sorted by clump_id, where
    clump_id = min linear cell index of the component."""
    spec = spec or RasterSpec()
    cols = spec.cols

    def per_tile(tid: int) -> pd.DataFrame:
        cell = spec.band_cells(tid)
        v = synth_value(cell).reshape(-1, cols)
        klass = np.where(v == spec.nodata, -1,
                         np.floor(v / class_width)).astype(np.int64)
        labels = label_tile(klass)
        m = labels >= 0
        lin = cell.reshape(-1, cols)
        df = pd.DataFrame({"lab": labels[m], "cell": lin[m],
                           "kls": klass[m]})
        g = df.groupby("lab", sort=False)
        stats = g.agg(n=("cell", "size"), min_cell=("cell", "min"),
                      kls=("kls", "first")).reset_index()
        stats["tile_id"] = tid
        stats["kind"] = "s"
        # boundary strips: first and last row of the tile
        bounds = pd.concat([pd.DataFrame({
            "tile_id": tid, "which": which, "col": np.arange(cols),
            "lab": labels[rr], "kls": klass[rr], "kind": "b"})
            for rr, which in ((0, "top"), (labels.shape[0] - 1, "bot"))],
            ignore_index=True)
        return pd.concat([stats, bounds], ignore_index=True)

    raw = tile_task(spec.n_tiles, per_tile)
    df = raw.to_pandas()  # O(#labels + #tiles·2·cols) — small by design
    stats = df[df["kind"] == "s"]
    bounds = df[df["kind"] == "b"]

    # driver union-find over tile-boundary adjacencies (8-connected)
    uf = _UF()
    key = {}
    for _, row in stats.iterrows():
        key[(int(row["tile_id"]), int(row["lab"]))] = (
            int(row["min_cell"]), int(row["n"]), int(row["kls"]))
    piv = {(int(t), w): grp for (t, w), grp in bounds.groupby(["tile_id", "which"])}
    for tid in range(spec.n_tiles - 1):
        bot = piv.get((tid, "bot"))
        top = piv.get((tid + 1, "top"))
        if bot is None or top is None:
            continue
        bl = bot.sort_values("col")["lab"].to_numpy()
        bk = bot.sort_values("col")["kls"].to_numpy()
        tl = top.sort_values("col")["lab"].to_numpy()
        tk = top.sort_values("col")["kls"].to_numpy()
        W = len(bl)
        for dc in (-1, 0, 1):
            lo, hi = max(0, dc), min(W, W + dc)
            a = slice(lo - dc, hi - dc)
            b = slice(lo, hi)
            m = (bl[a] >= 0) & (tl[b] >= 0) & (bk[a] == tk[b])
            for la, lb in set(zip(bl[a][m], tl[b][m])):
                uf.union((tid, int(la)), (tid + 1, int(lb)))

    groups: dict = {}
    for k, (mc, n, kls) in key.items():
        root = uf.find(k)
        g = groups.setdefault(root, [0, 1 << 62, kls])
        g[0] += n
        g[1] = min(g[1], mc)
    out = pd.DataFrame(
        [{"clump_id": mc, "klass": kls, "n_cells": n}
         for n, mc, kls in groups.values()])
    out = out[out["n_cells"] >= min_cells]
    return out.sort_values("clump_id").reset_index(drop=True)


def clump_naive(spec: RasterSpec, class_width: float = 250.0) -> pd.DataFrame:
    """Single-process BFS oracle for tests."""
    cell = np.arange(spec.rows * spec.cols, dtype=np.int64)
    v = synth_value(cell).reshape(spec.rows, spec.cols)
    klass = np.where(v == spec.nodata, -1,
                     np.floor(v / class_width)).astype(np.int64)
    seen = np.zeros_like(klass, dtype=bool)
    res = []
    for r in range(spec.rows):
        for c in range(spec.cols):
            if seen[r, c] or klass[r, c] == -1:
                continue
            stack = [(r, c)]
            seen[r, c] = True
            cells = []
            while stack:
                rr, cc = stack.pop()
                cells.append(rr * spec.cols + cc)
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        r2, c2 = rr + dr, cc + dc
                        if (0 <= r2 < spec.rows and 0 <= c2 < spec.cols
                                and not seen[r2, c2]
                                and klass[r2, c2] == klass[r, c]):
                            seen[r2, c2] = True
                            stack.append((r2, c2))
            res.append({"clump_id": min(cells), "klass": int(klass[r, c]),
                        "n_cells": len(cells)})
    return (pd.DataFrame(res).sort_values("clump_id").reset_index(drop=True))
