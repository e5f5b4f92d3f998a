"""BranchLength (TerrainAnalysisTools/src/plugins/BranchLength.java:259-456).

For every pair of adjacent cells — forward directions E, SE, S, SW with the
reference's literal edge ``testByte`` rules (BranchLength.java:267-286) — the
reference walks the two D8 flowpaths in TANDEM, recording every visited cell,
until the paths meet (the pair's merge cell = the lowest common downstream
cell, i.e. the pair's LCA in the D8 forest) or both terminate
(:313-428). The branch length of each side is its along-path distance to the
merge cell, or the full flowpath length if the paths never meet
(:356-370, :415-425). A cell's output is the MAX of those distances over all
pairs it participates in, finally divided by 1000 (:443-456). NoData cells
are reset to NoData at their own scan turn (:431-433) — which erases any
earlier neighbour-side write, a quirk both implementations reproduce.

The reference stores both full paths per pair and rescans one per step:
O(cells · path²) time, O(path) memory per pair. Distributed plan — the
classic pointer-doubling / binary-lifting design:

1. JUMP TABLES. ``J_0`` is the D8 step graph. Terminal nodes are pits
   (pointer 0), NoData cells, and off-grid exits (each off-grid coordinate
   is its own virtual terminal, mirroring the reference's recorded off-grid
   path point, :325-332 — its cell id is offset past the grid). Pointer
   doubling ``J_{k+1}(v) = J_k(J_k(v))`` saturates at terminals and carries
   exact INTEGER (straight, diagonal) step counts — so distances are
   reconstructed without float accumulation drift. Built in
   ≤ log2(longest path) rounds; each round a row-band tile task fetches
   ONLY the per-tile jump blocks its current targets land in (targeted
   ``ray.get`` of per-tile objects — on a cluster this is a locality-aware
   gather of O(cells) rows per round, O(N log N) total, vs the reference's
   O(N · path²) rescan).
2. PAIR DESCENT. All ~4N adjacent pairs run the standard binary-lifting
   LCA descent SYNCHRONOUSLY per level with vectorized gathers: equalize
   step-depths with the bits of the depth difference, then from the highest
   level advance both sides wherever their 2^k-targets differ; one final
   J_0 step lands on the merge cell. Pairs whose terminal (root) differs
   never meet — branch = full path counts, exactly the reference's
   both-terminated case. branch(v) = counts(v→m) · (res, √2·res): an exact
   integer difference of step counts.
3. The per-cell MAX over pair sides is a local tile reduce; only b-sides
   on a band's last row write one row into the next band — an O(cols)
   boundary combine on the driver.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import ray

from .hydro import _tile_pointers
from .raster import RasterSpec, tile_task
from .terrain import _DX, _DY

_SQRT2 = math.sqrt(2.0)
# step length per direction index (NE,E,SE,S,SW,W,NW,N): diag on even i
_LEN8 = tuple(_SQRT2 if i % 2 == 0 else 1.0 for i in range(8))

# forward pair directions: E, SE, S, SW (BranchLength.java:287 c in 1..4)
_PAIR_DIRS = ((1, 0), (1, 1), (0, 1), (-1, 1))


def _virtual_id(spec: RasterSpec, r2, c2):
    """Unique terminal id for an off-grid coordinate (offset past grid)."""
    return spec.rows * spec.cols + (r2 + 1) * (spec.cols + 2) + (c2 + 1)


def _j0_tile(spec: RasterSpec, tid: int):
    """Level-0 jump block for one row band: (tgt, ns, nd) flat arrays.

    Terminals (pit / NoData / off-grid exit) map to themselves with zero
    counts, making the doubling step uniformly absorbing."""
    z, ptr = _tile_pointers(spec, tid)
    H, W = z.shape
    r0 = spec.band(tid)[0]
    rr = np.repeat(np.arange(H, dtype=np.int64), W)
    cc = np.tile(np.arange(W, dtype=np.int64), H)
    self_id = (r0 + rr) * W + cc
    tgt = self_id.copy()
    ns = np.zeros(H * W, dtype=np.int64)
    nd = np.zeros(H * W, dtype=np.int64)
    pf = ptr.ravel()
    for i in range(8):
        m = pf == float(1 << i)
        if not m.any():
            continue
        r2 = r0 + rr[m] + _DY[i]
        c2 = cc[m] + _DX[i]
        ing = (r2 >= 0) & (r2 < spec.rows) & (c2 >= 0) & (c2 < W)
        tgt[m] = np.where(ing, r2 * W + c2, _virtual_id(spec, r2, c2))
        if i % 2 == 0:
            nd[m] = 1
        else:
            ns[m] = 1
    return tgt, ns, nd


class _BlockCache:
    """Targeted per-(level, tile) jump-block fetch with caching."""

    def __init__(self, level_refs, spec: RasterSpec):
        self.level_refs = level_refs
        self.spec = spec
        self._cache: dict[tuple[int, int], tuple] = {}

    def block(self, k: int, tid: int):
        key = (k, tid)
        if key not in self._cache:
            ref = self.level_refs[k][tid]
            self._cache[key] = ray.get(ref) if isinstance(
                ref, ray.ObjectRef) else ref
        return self._cache[key]

    def gather(self, k: int, pos: np.ndarray):
        """(tgt, ns, nd) of level k at in-grid node ids ``pos``."""
        spec = self.spec
        out_t = np.empty_like(pos)
        out_ns = np.empty_like(pos)
        out_nd = np.empty_like(pos)
        tt = (pos // spec.cols) // spec.tile_rows
        for t in np.unique(tt):
            tgt, ns, nd = self.block(k, int(t))
            m = tt == t
            loc = pos[m] - spec.band(t)[0] * spec.cols
            out_t[m] = tgt[loc]
            out_ns[m] = ns[loc]
            out_nd[m] = nd[loc]
        return out_t, out_ns, out_nd


@ray.remote
def _j0_build(spec: RasterSpec, tid: int):
    """Level-0 jump block for one tile, left IN the object store."""
    return ray.put(_j0_tile(spec, tid))


@ray.remote
def _advance_tile(spec: RasterSpec, tid: int, refs: dict):
    """One pointer-doubling round for one tile: gathers targeted blocks
    of the previous level (refs dict of per-tile ObjectRefs — inner
    refs in a container are NOT auto-resolved, _BlockCache fetches only
    the tiles this tile's targets point into), puts the new block in
    the object store and returns (ref, changed) — O(1) driver traffic
    per tile per round."""
    cache = _BlockCache([refs], spec)
    tgt, ns, nd = cache.block(0, tid)
    ing = tgt < spec.rows * spec.cols
    t2, s2, d2 = cache.gather(0, tgt[ing])
    new_tgt = tgt.copy()
    new_ns = ns.copy()
    new_nd = nd.copy()
    new_tgt[ing] = t2
    new_ns[ing] += s2
    new_nd[ing] += d2
    changed = not np.array_equal(new_tgt, tgt)
    return ray.put((new_tgt, new_ns, new_nd)), changed


def build_jump_tables(spec: RasterSpec, max_rounds: int = 64):
    """All doubling levels, as per-tile object refs: levels[k][tid] → ref.

    Every level lives in the object store; the driver only ever holds
    the refs and the per-tile changed flags."""
    n = spec.n_tiles
    refs0 = ray.get([_j0_build.remote(spec, t) for t in range(n)])
    levels = [dict(enumerate(refs0))]

    for _ in range(max_rounds):
        refs = levels[-1]
        res = ray.get([_advance_tile.remote(spec, t, refs)
                       for t in range(n)])
        if not any(changed for _ref, changed in res):
            break
        levels.append({t: res[t][0] for t in range(n)})
    else:  # pragma: no cover - cap reached
        raise RuntimeError("jump tables did not converge")
    return levels


def _tile_pairs(spec: RasterSpec, tid: int, z: np.ndarray):
    """(a, b) global node-id arrays for the tile's forward adjacent pairs,
    under the literal testByte edge rules (BranchLength.java:267-286):
    last grid row → E only; col 0 → no SW; last col → no E, no SE."""
    H, W = z.shape
    r0 = spec.band(tid)[0]
    valid = z != spec.nodata
    rr = np.repeat(np.arange(H, dtype=np.int64), W).reshape(H, W)
    cc = np.tile(np.arange(W, dtype=np.int64), H).reshape(H, W)
    grow = r0 + rr
    a_list, b_list = [], []
    for dx, dy in _PAIR_DIRS:
        m = valid.copy()
        if dy == 1:
            m &= grow < spec.rows - 1
        else:  # E: allowed everywhere except the last column
            pass
        if dx == 1:
            m &= cc < W - 1
        elif dx == -1:
            m &= cc > 0
        if not m.any():
            continue
        a_list.append((grow[m] * W + cc[m]))
        b_list.append(((grow[m] + dy) * W + (cc[m] + dx)))
    if not a_list:
        e = np.empty(0, dtype=np.int64)
        return e, e
    return np.concatenate(a_list), np.concatenate(b_list)


def _descend_pairs(cache: _BlockCache, K: int, a: np.ndarray, b: np.ndarray):
    """Branch step counts (ns, nd) for each side of each pair."""
    rtA, nsA, ndA = cache.gather(K - 1, a)
    rtB, nsB, ndB = cache.gather(K - 1, b)
    # default: roots differ → paths never meet → full path counts
    out_ans, out_and = nsA.copy(), ndA.copy()
    out_bns, out_bnd = nsB.copy(), ndB.copy()
    same = rtA == rtB
    if not same.any():
        return out_ans, out_and, out_bns, out_bnd
    idx = np.flatnonzero(same)
    A = a[idx].copy()
    B = b[idx].copy()
    accAns = np.zeros(len(idx), dtype=np.int64)
    accAnd = np.zeros(len(idx), dtype=np.int64)
    accBns = np.zeros(len(idx), dtype=np.int64)
    accBnd = np.zeros(len(idx), dtype=np.int64)
    diff = (nsA[idx] + ndA[idx]) - (nsB[idx] + ndB[idx])
    for k in range(K - 1, -1, -1):
        mA = (diff > 0) & (((diff >> k) & 1) == 1)
        if mA.any():
            t, s, d = cache.gather(k, A[mA])
            accAns[mA] += s
            accAnd[mA] += d
            A[mA] = t
        mB = (diff < 0) & ((((-diff) >> k) & 1) == 1)
        if mB.any():
            t, s, d = cache.gather(k, B[mB])
            accBns[mB] += s
            accBnd[mB] += d
            B[mB] = t
    active = A != B
    for k in range(K - 1, -1, -1):
        if not active.any():
            break
        ai = np.flatnonzero(active)
        tA, sA, dA = cache.gather(k, A[ai])
        tB, sB, dB = cache.gather(k, B[ai])
        adv = tA != tB
        j = ai[adv]
        accAns[j] += sA[adv]
        accAnd[j] += dA[adv]
        accBns[j] += sB[adv]
        accBnd[j] += dB[adv]
        A[j] = tA[adv]
        B[j] = tB[adv]
    ai = np.flatnonzero(active)
    if len(ai):
        _, sA, dA = cache.gather(0, A[ai])
        _, sB, dB = cache.gather(0, B[ai])
        accAns[ai] += sA
        accAnd[ai] += dA
        accBns[ai] += sB
        accBnd[ai] += dB
    out_ans[idx] = accAns
    out_and[idx] = accAnd
    out_bns[idx] = accBns
    out_bnd[idx] = accBnd
    return out_ans, out_and, out_bns, out_bnd


def branch_length(spec: RasterSpec | None = None,
                  round_to: int = 6) -> pd.DataFrame:
    """Distributed BranchLength → (row_id, n_valid, row_sum)."""
    spec = spec or RasterSpec()
    levels = build_jump_tables(spec)
    K = len(levels)
    n = spec.n_tiles
    W = spec.cols

    def solve(tid: int) -> list:
        cache = _BlockCache(levels, spec)
        z, _ = _tile_pointers(spec, tid)
        H = z.shape[0]
        r0 = spec.band(tid)[0]
        a, b = _tile_pairs(spec, tid, z)
        out = np.full(H * W, -32768.0)
        extra_cell = np.empty(0, dtype=np.int64)
        extra_val = np.empty(0)
        if len(a):
            ans, and_, bns, bnd = _descend_pairs(cache, K, a, b)
            valA = ans * 1.0 + and_ * _SQRT2
            valB = bns * 1.0 + bnd * _SQRT2
            la = a - r0 * W
            np.maximum.at(out, la, valA)
            lb = b - r0 * W
            inb = lb < H * W
            np.maximum.at(out, lb[inb], valB[inb])
            extra_cell = b[~inb]
            extra_val = valB[~inb]
        return [{"tile_id": tid, "shape0": H, "out": out.tobytes(),
                 "extra_cell": extra_cell.tobytes(),
                 "extra_val": extra_val.tobytes()}]

    res = tile_task(n, solve).to_pandas()
    tiles = {}
    for r in res.sort_values("tile_id").itertuples():
        tiles[int(r.tile_id)] = [np.frombuffer(r.out).copy(), int(r.shape0)]
    for r in res.itertuples():
        cells = np.frombuffer(r.extra_cell, dtype=np.int64)
        vals = np.frombuffer(r.extra_val)
        for cell, val in zip(cells, vals):
            t = int((cell // W) // spec.tile_rows)
            loc = int(cell - spec.band(t)[0] * W)
            if tiles[t][0][loc] < val:
                tiles[t][0][loc] = val
    frames = []
    for tid in sorted(tiles):
        out, H = tiles[tid]
        z, _ = _tile_pointers(spec, tid)
        out = out.reshape(H, W)
        out = np.where(z == spec.nodata, spec.nodata, out)
        written = out != spec.nodata
        out = np.where(written, out / 1000.0, out)
        frames.append(pd.DataFrame({
            "row_id": spec.band(tid)[0] + np.arange(H),
            "n_valid": written.sum(axis=1).astype(np.int64),
            "row_sum": np.round(np.where(written, out, 0.0).sum(axis=1),
                                round_to)}))
    return pd.concat(frames, ignore_index=True)


def branch_length_naive(spec: RasterSpec,
                        round_to: int = 6) -> pd.DataFrame:
    """Literal single-process mirror of the reference's tandem walk
    (dict membership replaces the O(path) rescan — same match, same
    distances: a D8 path visits each cell once)."""
    from .raster import synth_value
    from .terrain import d8_kernel

    rows, cols = spec.rows, spec.cols
    cell = np.arange(rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(rows, cols)
    pad = np.full((rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]

    def pval(x: int, y: int) -> float:
        if 0 <= y < rows and 0 <= x < cols:
            return ptr[y, x]
        return spec.nodata

    out = np.full((rows, cols), -32768.0)
    for row in range(rows):
        for col in range(cols):
            if z[row, col] == spec.nodata:
                out[row, col] = spec.nodata
                continue
            dirs = []
            if row == rows - 1:
                allowed = {(1, 0)}
            else:
                allowed = set(_PAIR_DIRS)
            if col == 0:
                allowed.discard((-1, 1))
            if col == cols - 1:
                allowed.discard((1, 0))
                allowed.discard((1, 1))
            for dx, dy in _PAIR_DIRS:
                if (dx, dy) in allowed:
                    dirs.append((dx, dy))
            for dx, dy in dirs:
                x, y = col + dx, row + dy
                x1, y1, x2, y2 = col, row, x, y
                d1 = d2 = 0.0
                p1 = {(x1, y1): 0.0}
                p2 = {(x2, y2): 0.0}
                flag1 = flag2 = True
                while flag1 or flag2:
                    if flag1:
                        fd = pval(x1, y1)
                        if fd > 0:
                            i = int(fd).bit_length() - 1
                            d1 += _LEN8[i]
                            x1 += _DX[i]
                            y1 += _DY[i]
                            p1[(x1, y1)] = d1
                            if (x1, y1) in p2:
                                if out[row, col] < d1:
                                    out[row, col] = d1
                                dd = p2[(x1, y1)]
                                if out[y, x] < dd:
                                    out[y, x] = dd
                                break
                        else:
                            flag1 = False
                            if not flag2:
                                if out[row, col] < d1:
                                    out[row, col] = d1
                                if out[y, x] < d2:
                                    out[y, x] = d2
                                break
                    if flag2:
                        fd = pval(x2, y2)
                        if fd > 0:
                            i = int(fd).bit_length() - 1
                            d2 += _LEN8[i]
                            x2 += _DX[i]
                            y2 += _DY[i]
                            p2[(x2, y2)] = d2
                            if (x2, y2) in p1:
                                if out[y, x] < d2:
                                    out[y, x] = d2
                                dd = p1[(x2, y2)]
                                if out[row, col] < dd:
                                    out[row, col] = dd
                                break
                        else:
                            flag2 = False
                            if not flag1:
                                if out[row, col] < d1:
                                    out[row, col] = d1
                                if out[y, x] < d2:
                                    out[y, x] = d2
                                break
    written = out != spec.nodata
    out = np.where(written & (z != spec.nodata), out / 1000.0, out)
    written = out != spec.nodata
    return pd.DataFrame({
        "row_id": np.arange(rows),
        "n_valid": written.sum(axis=1).astype(np.int64),
        "row_sum": np.round(np.where(written, out, 0.0).sum(axis=1),
                            round_to)})
