"""ModifiedKMeans (ImageProcessingTools/src/plugins/ModifiedKMeans.java).

k-means over a multi-band raster stack with the tool's modifications:
diagonal max-dispersion centre init (:272-282), per-round class CLEANUP
on the driver — drop empty classes, iteratively merge centre pairs
closer than centroidMergeDist (pixel-weighted mean, removed pair
APPENDED at the end — the literal restart-scan order, :319-365), drop
classes below minimumAllowableClassSize (:368-381) — assignment to the
nearest centre with the literal squared-dist ≤ maxDist gate (:425,
unassigned = −1), centres updated as mean(v − min) + min (:461-471),
stopping when the percentage of relabelled pixels drops to the
threshold or maxIterations (:476). numPixelsChanged compares against
the PREVIOUS output value, whose initial state is the NoData sentinel
(first round counts every valid pixel).

Ray mapping — the classic fit-loop over broadcast state (SURVEY §2.3
model-state family): each round broadcasts the centre matrix; one task
per row band assigns labels vectorized, emits per-class (count, Σ(v −
min)) partials with EXACT int64 sums over the quantized bands (integer
sums are associative — banded combine is bit-identical to the
reference's sequential row-major accumulation, keeping the float
threshold tests deterministic) plus the changed-count vs its stored
previous label block; the driver combines O(classes) scalars, runs the
cleanup/merge, and re-broadcasts. Labels persist per band in the
object store between rounds.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from .raster import RasterSpec, synth_value, tile_task

_A2 = 2246822519
_M = 4294967296


def band_values(cell: np.ndarray, band: int, nodata: float) -> np.ndarray:
    """Quantized band stack: band 0 = floor(synth); band 1 = an
    independent hash band (integers 0..999), NoData where band 0 is."""
    v = synth_value(cell)
    if band == 0:
        return np.where(v == nodata, v, np.floor(v))
    w = ((np.asarray(cell, dtype=np.int64) * _A2 + 12345) % _M)
    w = np.floor(w.astype(np.float64) / _M * 1000.0)
    return np.where(v == nodata, v, w)


def _band_block(spec: RasterSpec, b: int):
    cell = spec.band_cells(b)
    return np.stack([band_values(cell, i, spec.nodata)
                     .reshape(-1, spec.cols) for i in (0, 1)])


def _cleanup(centres: list[np.ndarray], counts: list[int],
             merge_dist: float, min_size: int):
    """Literal driver-side class cleanup (:300-381)."""
    centres = [c.copy() for c in centres]
    counts = list(counts)
    a = 0
    while a < len(counts):  # remove empties (restart semantics)
        if counts[a] == 0:
            del centres[a], counts[a]
            a = 0
            continue
        a += 1
    while True:  # merge near centres, restart after each merge
        merged = False
        for a in range(len(centres)):
            if merged:
                break
            for b in range(a + 1, len(centres)):
                if counts[a] > 0 and counts[b] > 0:
                    d = float(np.sqrt(((centres[a] - centres[b]) ** 2)
                                      .sum()))
                    if d < merge_dist:
                        tot = counts[a] + counts[b]
                        w1 = counts[a] / tot
                        w2 = counts[b] / tot
                        c3 = centres[a] * w1 + centres[b] * w2
                        for idx in (max(a, b), min(a, b)):
                            del centres[idx], counts[idx]
                        centres.append(c3)
                        counts.append(tot)
                        merged = True
                        break
        if not merged:
            break
    a = 0
    while a < len(counts):  # drop small classes (restart semantics)
        if counts[a] < min_size:
            del centres[a], counts[a]
            a = 0
            continue
        a += 1
    return centres, counts


def _assign(bands: np.ndarray, centres: np.ndarray, nodata: float,
            max_dist: float):
    """Vectorized nearest-centre assignment with the literal squared-dist
    ≤ maxDist gate; invalid (any-band NoData) → a separate mask."""
    valid = (bands != nodata).all(axis=0)
    h, w = valid.shape
    labels = np.full((h, w), -1, dtype=np.int64)
    if len(centres):
        d2 = np.zeros((len(centres), h, w))
        for a in range(len(centres)):
            for i in range(bands.shape[0]):
                diff = bands[i] - centres[a][i]
                d2[a] += diff * diff
        best = d2.argmin(axis=0)
        bestd = d2.min(axis=0)
        labels = np.where(bestd <= max_dist, best, -1)
    return np.where(valid, labels, -32768), valid


def modified_kmeans(spec: RasterSpec | None = None,
                    num_classes: int = 8, max_iterations: int = 25,
                    percent_threshold: float = 1.0,
                    merge_dist: float = 40.0, min_size: int = 50,
                    max_dist: float = float("inf"),
                    round_to: int = 6) -> pd.DataFrame:
    spec = spec or RasterSpec()
    rows, cols = spec.rows, spec.cols
    n_bands = spec.n_tiles

    # global per-band min/max (diagonal init)
    def stats(b: int) -> list:
        blk = _band_block(spec, b)
        row = {}
        for i in range(2):
            v = blk[i][blk[i] != spec.nodata]
            row[f"lo{i}"] = v.min() if len(v) else np.inf
            row[f"hi{i}"] = v.max() if len(v) else -np.inf
        return [row]

    st = (tile_task(n_bands, stats)
          .to_pandas())
    mins = np.array([st["lo0"].min(), st["lo1"].min()])
    maxs = np.array([st["hi0"].max(), st["hi1"].max()])
    centres = [mins + (maxs - mins) / num_classes * a
               for a in range(num_classes)]

    label_refs = {b: None for b in range(n_bands)}
    counts: list[int] = []
    total_cells = None
    j = 0
    while True:
        if j > 0:
            centres, counts = _cleanup(centres, counts, merge_dist,
                                       min_size)
        cmat = np.array(centres).reshape(len(centres), 2)
        cref = ray.put((cmat, label_refs.copy()))
        j += 1

        def solve(b: int, _ref=cref) -> list:
            cm, lrefs = ray.get(_ref)
            blk = _band_block(spec, b)
            labels, valid = _assign(blk, cm, spec.nodata, max_dist)
            prev = (ray.get(lrefs[b]) if lrefs[b] is not None
                    else np.full(labels.shape, -32768, dtype=np.int64))
            changed = int((labels[valid]
                           != prev[valid]).sum())
            row = {"band": b, "labels": labels.tobytes(),
                   "shape0": labels.shape[0], "changed": changed,
                   "n_valid": int(valid.sum())}
            for a in range(len(cm)):
                m = (labels == a) & valid
                row[f"n{a}"] = int(m.sum())
                for i in range(2):
                    # exact int64 partial of (v − min_i)
                    row[f"s{a}_{i}"] = int(
                        (blk[i][m] - mins[i]).astype(np.int64).sum())
            return [row]

        res = (tile_task(n_bands, solve)
               .to_pandas().sort_values("band"))
        label_refs = {}
        for r in res.itertuples():
            label_refs[int(r.band)] = ray.put(
                np.frombuffer(r.labels, dtype=np.int64)
                .reshape(r.shape0, cols))
        if total_cells is None:
            total_cells = int(res["n_valid"].sum())
        counts = [int(res[f"n{a}"].sum()) for a in range(len(cmat))]
        new_centres = []
        for a in range(len(cmat)):
            if counts[a] > 0:
                s = np.array([res[f"s{a}_{i}"].sum() for i in range(2)],
                             dtype=np.float64)
                new_centres.append(s / counts[a] + mins)
            else:
                new_centres.append(cmat[a].copy())
        centres = new_centres
        changed = int(res["changed"].sum())
        pct = changed / total_cells * 100.0
        if not (pct > percent_threshold and j < max_iterations):
            break

    frames = []
    for b in sorted(label_refs):
        lab = ray.get(label_refs[b]).astype(np.float64)
        r0 = spec.band(b)[0]
        ok = lab != -32768
        frames.append(pd.DataFrame({
            "row_id": np.arange(r0, r0 + lab.shape[0]),
            "n_valid": ok.sum(axis=1).astype(np.int64),
            "row_sum": np.round(np.where(ok, lab, 0.0).sum(axis=1),
                                round_to)}))
    out = pd.concat(frames, ignore_index=True)
    out.attrs["iterations"] = j
    out.attrs["final_classes"] = len(centres)
    out.attrs["centres"] = [list(map(float, c)) for c in centres]
    out.attrs["counts"] = list(counts)
    return out


def modified_kmeans_naive(spec: RasterSpec, **kw) -> pd.DataFrame:
    """Single-process literal mirror: whole-grid arrays, the same exact
    integer accumulation, sequential round loop."""
    num_classes = kw.get("num_classes", 8)
    max_iterations = kw.get("max_iterations", 25)
    percent_threshold = kw.get("percent_threshold", 1.0)
    merge_dist = kw.get("merge_dist", 40.0)
    min_size = kw.get("min_size", 50)
    max_dist = kw.get("max_dist", float("inf"))
    round_to = kw.get("round_to", 6)
    rows, cols = spec.rows, spec.cols
    cell = np.arange(rows * cols, dtype=np.int64)
    bands = np.stack([band_values(cell, i, spec.nodata).reshape(rows, cols)
                      for i in (0, 1)])
    valid = (bands != spec.nodata).all(axis=0)
    mins = np.array([bands[i][valid].min() for i in range(2)])
    maxs = np.array([bands[i][valid].max() for i in range(2)])
    centres = [mins + (maxs - mins) / num_classes * a
               for a in range(num_classes)]
    prev = np.full((rows, cols), -32768, dtype=np.int64)
    counts: list[int] = []
    total = int(valid.sum())
    j = 0
    while True:
        if j > 0:
            centres, counts = _cleanup(centres, counts, merge_dist,
                                       min_size)
        cm = np.array(centres).reshape(len(centres), 2)
        j += 1
        labels, _ = _assign(bands, cm, spec.nodata, max_dist)
        changed = int((labels[valid] != prev[valid]).sum())
        counts = []
        new_centres = []
        for a in range(len(cm)):
            m = (labels == a) & valid
            n = int(m.sum())
            counts.append(n)
            if n > 0:
                s = np.array([(bands[i][m] - mins[i]).astype(np.int64)
                              .sum() for i in range(2)], dtype=np.float64)
                new_centres.append(s / n + mins)
            else:
                new_centres.append(cm[a].copy())
        centres = new_centres
        prev = labels
        pct = changed / total * 100.0
        if not (pct > percent_threshold and j < max_iterations):
            break
    lab = prev.astype(np.float64)
    ok = lab != -32768
    out = pd.DataFrame({
        "row_id": np.arange(rows),
        "n_valid": ok.sum(axis=1).astype(np.int64),
        "row_sum": np.round(np.where(ok, lab, 0.0).sum(axis=1), round_to)})
    out.attrs["iterations"] = j
    out.attrs["final_classes"] = len(centres)
    out.attrs["centres"] = [list(map(float, c)) for c in centres]
    out.attrs["counts"] = list(counts)
    return out


def dendrogram_merges(centres, sizes) -> pd.DataFrame:
    """Dendrogram (ImageProcessingTools/src/plugins/Dendrogram.java:94-165):
    agglomerative merge history over the k-means class centres — closest
    pair by euclid distance, the merged node KEEPS THE LARGER CLASS'S
    CENTROID verbatim (the weighted-mean line ships commented out,
    :151-154; size ties keep the SECOND class per the strict `>` at
    :144), ids continue past numClasses. O(classes²) driver-side — the
    distributed work is the k-means fit that produces the centres.
    Returns (left_id, right_id, dist, new_id) rows."""
    entries = [[float(a), float(sizes[a]), np.asarray(centres[a],
                                                      dtype=np.float64)]
               for a in range(len(centres))]
    cur_max = len(entries)
    rows = []
    while len(entries) > 1:
        min_d = np.inf
        m1 = m2 = 0
        for a in range(len(entries)):
            for b in range(a + 1, len(entries)):
                d = float(((entries[a][2] - entries[b][2]) ** 2).sum())
                if d < min_d:
                    min_d = d
                    m1, m2 = a, b
        e1, e2 = entries[m1], entries[m2]
        rows.append({"left_id": e1[0], "right_id": e2[0],
                     "dist": np.round(np.sqrt(min_d), 6),
                     "new_id": float(cur_max)})
        new = [float(cur_max), e1[1] + e2[1],
               (e1[2] if e1[1] > e2[1] else e2[2]).copy()]
        cur_max += 1
        for idx in sorted((m1, m2), reverse=True):
            del entries[idx]
        entries.append(new)
    return pd.DataFrame(rows, columns=["left_id", "right_id", "dist",
                                       "new_id"])


def dendrogram(spec: RasterSpec | None = None, **kw) -> pd.DataFrame:
    """kMeans fit (distributed) -> literal merge history (driver)."""
    fit = modified_kmeans(spec, **kw)
    return dendrogram_merges(fit.attrs["centres"], fit.attrs["counts"])
