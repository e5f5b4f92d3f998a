"""MultiscaleElevationResidualIndex
(WhiteboxGIS/resources/plugins/Scripts/MultiscaleElevationResidualIndex.groovy).

Per valid cell: across the radius ladder r = distinct floor(base^i),
i = 0..floor(log_base(min(cols/2, rows/2))) (:112-121), count the scales
at which the cell sits ABOVE the mean elevation of its (clamped) window;
output = count / numScales (:173-210). The literal quirks are preserved:
window corners are the CLAMPED (row±r, col±r) cells of the integral
image WITHOUT the usual −1 offset (:180-206 — the rectangle effectively
excludes the first row/column of the window), numCells from the same
corners, and a division-by-zero window simply contributes no count
(NaN/±Inf > 0 is false in both Java and numpy).

One documented substitution: the integral accumulates EXACT int64
(z − min) units over the quantized elevation band (integer z), with the
script's (…)/range normalization applied once per window sum — integer
prefix sums are associative, so the distributed band-offset assembly is
bit-identical to any sequential order (the groovy's running float
normalization drifts at the ulp level per accumulation order, which
would make the `> 0` threshold tiling-dependent).

Distributed shape (SURVEY §2.9 "larger-window terrain"): pass 1 builds
per-band local 2-D prefix sums; the driver chains the O(cols) last-row
vectors into band offsets (exact int adds) and republishes the band
blocks. Pass 2 is one task per band: for each radius it gathers the two
clamped corner ROWS it needs from the published blocks (targeted
``ray.get``, O(band_rows·cols) per radius — O(n log n) total since the
ladder is logarithmic) and evaluates all cells vectorized.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import ray

from .raster import RasterSpec, synth_value, tile_task


def quant_value(cell: np.ndarray, nodata: float) -> np.ndarray:
    """Quantized elevation band: floor(synth), NoData preserved — makes
    (z − min) integer so the integral is exact (see module docstring)."""
    v = synth_value(cell)
    return np.where(v == nodata, v, np.floor(v))


def radius_ladder(rows: int, cols: int, base: float) -> list[int]:
    r_max = int(math.floor(math.log(min(cols / 2.0, rows / 2.0))
                           / math.log(base)))
    radii, old = [], -1
    for i in range(r_max + 1):
        n = int(math.floor(base ** i))
        if n > old:
            radii.append(n)
            old = n
    return radii


def multiscale_elev_residual(spec: RasterSpec | None = None,
                             base: float = 2.0,
                             round_to: int = 6) -> pd.DataFrame:
    spec = spec or RasterSpec()
    rows, cols = spec.rows, spec.cols
    nodata = spec.nodata
    radii = radius_ladder(rows, cols, base)
    n_scales = len(radii)
    n_bands = spec.n_tiles

    # global min / range over the quantized band (integers)
    def stats(b: int) -> list:
        z = quant_value(spec.band_cells(b), nodata)
        zv = z[z != nodata]
        return [{"lo": zv.min() if len(zv) else np.inf,
                 "hi": zv.max() if len(zv) else -np.inf}]

    st = tile_task(n_bands, stats).to_pandas()
    zmin = float(st["lo"].min())

    # pass 1: per-band local integer prefix blocks + last-row vectors
    def prefix(b: int) -> list:
        z = quant_value(spec.band_cells(b), nodata).reshape(-1, cols)
        valid = z != nodata
        zi = np.where(valid, z - zmin, 0.0).astype(np.int64)
        p = zi.cumsum(axis=1).cumsum(axis=0)
        n = valid.astype(np.int64).cumsum(axis=1).cumsum(axis=0)
        # LOCAL integral blocks stay in the object store; only the
        # O(cols) last-row vectors travel to the driver (the global
        # offsets are a sequential prefix over bands)
        return [{"band": b, "ref": ray.put((p, n)),
                 "pl": p[-1].tobytes(), "nl": n[-1].tobytes()}]

    pre = (tile_task(n_bands, prefix)
           .to_pandas().sort_values("band"))
    off_p = np.zeros(cols, dtype=np.int64)
    off_n = np.zeros(cols, dtype=np.int64)
    local_refs = {}
    offs = {}
    for r in pre.itertuples():
        local_refs[int(r.band)] = r.ref
        offs[int(r.band)] = (off_p.copy(), off_n.copy())
        off_p = off_p + np.frombuffer(r.pl, dtype=np.int64)
        off_n = off_n + np.frombuffer(r.nl, dtype=np.int64)
    offs_ref = ray.put(offs)

    # pass 2: per band, gather clamped corner rows per radius
    def solve(b: int) -> pd.DataFrame:
        cache: dict[int, tuple] = {}
        offs_all = ray.get(offs_ref) if isinstance(offs_ref, ray.ObjectRef) \
            else offs_ref

        def block(b: int):
            if b not in cache:
                p, n = ray.get(local_refs[b])
                op, on = offs_all[b]
                cache[b] = (p + op, n + on)
            return cache[b]

        def irows(idx: np.ndarray):
            """(P, N) rows of the global integral at row indices idx."""
            P = np.empty((len(idx), cols), dtype=np.int64)
            N = np.empty((len(idx), cols), dtype=np.int64)
            bb = idx // spec.tile_rows
            for b in np.unique(bb):
                m = bb == b
                p, n = block(int(b))
                loc = idx[m] - spec.band(b)[0]
                P[m] = p[loc]
                N[m] = n[loc]
            return P, N

        r0, r1 = spec.band(b)
        h = r1 - r0
        z = quant_value(spec.band_cells(b), nodata).reshape(h, cols)
        rr = np.arange(r0, r1)
        count = np.zeros((h, cols))
        for rad in radii:
            y1 = np.clip(rr - rad, 0, rows - 1)
            y2 = np.clip(rr + rad, 0, rows - 1)
            x1 = np.clip(np.arange(cols) - rad, 0, cols - 1)
            x2 = np.clip(np.arange(cols) + rad, 0, cols - 1)
            P1, N1 = irows(y1)
            P2, N2 = irows(y2)
            a = P1[:, x1]
            bb_ = P1[:, x2]
            c = P2[:, x2]
            d = P2[:, x1]
            num = (N2[:, x2] + N1[:, x1] - N1[:, x2] - N2[:, x1])
            # the groovy's winsum/num*range + min with winsum in
            # (z−min)/range units ≡ (Σ(z−min))/num + min — range
            # cancels algebraically
            with np.errstate(divide="ignore", invalid="ignore"):
                resid = z - ((c + a - bb_ - d) / num + zmin)
            count += (resid > 0)
        res = np.where(z != nodata, count / n_scales, nodata)
        valid = res != nodata
        return pd.DataFrame({
            "row_id": rr,
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "row_sum": np.round(np.where(valid, res, 0.0).sum(axis=1),
                                round_to)})

    return (tile_task(n_bands, solve)
            .to_pandas().sort_values("row_id").reset_index(drop=True))


def multiscale_elev_residual_naive(spec: RasterSpec, base: float = 2.0,
                                   round_to: int = 6) -> pd.DataFrame:
    """Literal single-process mirror (scalar loops, whole-grid integral
    in the same exact integer units)."""
    rows, cols = spec.rows, spec.cols
    nodata = spec.nodata
    radii = radius_ladder(rows, cols, base)
    z = quant_value(np.arange(rows * cols, dtype=np.int64),
                    nodata).reshape(rows, cols)
    valid = z != nodata
    zmin = float(z[valid].min())
    zi = np.where(valid, z - zmin, 0.0).astype(np.int64)
    P = zi.cumsum(axis=1).cumsum(axis=0)
    N = valid.astype(np.int64).cumsum(axis=1).cumsum(axis=0)
    out = np.full((rows, cols), nodata)
    for row in range(rows):
        for col in range(cols):
            if not valid[row, col]:
                continue
            value = 0
            for rad in radii:
                y1 = min(max(row - rad, 0), rows - 1)
                y2 = min(max(row + rad, 0), rows - 1)
                x1 = min(max(col - rad, 0), cols - 1)
                x2 = min(max(col + rad, 0), cols - 1)
                a = P[y1, x1]
                b = P[y1, x2]
                c = P[y2, x2]
                d = P[y2, x1]
                num = int(N[y2, x2] + N[y1, x1] - N[y1, x2] - N[y2, x1])
                if num != 0:
                    mean = (c + a - b - d) / num + zmin
                    if z[row, col] - mean > 0:
                        value += 1
            out[row, col] = value / len(radii)
    ok = out != nodata
    return pd.DataFrame({
        "row_id": np.arange(rows),
        "n_valid": ok.sum(axis=1).astype(np.int64),
        "row_sum": np.round(np.where(ok, out, 0.0).sum(axis=1), round_to)})
