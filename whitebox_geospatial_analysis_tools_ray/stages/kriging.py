"""Ordinary kriging (Scripts/KrigingInterpolation.groovy backed by
WhiteboxAPI/src/whitebox/stats/Kriging.java, 2,274 LoC).

Reference semantics (studied only): pairwise semivariances binned into
lags (Kriging.java bins/``LagSize``), a theoretical model fitted to the
binned values — spherical / exponential / gaussian formulas at
Kriging.java:955-982 — by Levenberg–Marquardt (:825-940), then an
ordinary-kriging solve per output cell over nearby sample points.

Ray plan (the SURVEY §2.10 "variogram fit = global agg + driver
optimize; apply = kNN join + solve per cell"):

1. EMPIRICAL VARIOGRAM — one neighbour-cell duplication shuffle (the
   stages/knn.py pattern, pitch = max lag distance); each cell group
   emits per-lag partials (count, Σ½Δz², Σd) for pairs owned by the
   group (pair counted ONCE: in the home cell of the smaller rec_id);
   a tiny ``groupby(bin)`` reduce finishes the variogram.
2. FIT (driver, O(n_lags)) — spherical model γ(d) = sill·(1.5 d/R −
   0.5 (d/R)³) capped at sill for d > R (Kriging.java:972-981, nugget
   0 as with ConsiderNugget=false): deterministic coarse-to-fine grid
   search over R with the closed-form least-squares sill per R —
   an order-stable replacement for the reference's LM iterations.
3. APPLY — second duplication shuffle keyed by the SAME grid; per
   query cell the k nearest in-range samples (sorted by (d², rec_id))
   form the OK system [[γ(d_ij), 1], [1, 0]] · w = [γ(d_i0), 1];
   prediction = w · z; no in-range samples → NoData.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from ..core.features import cell_centers
from ..core.rng import NODATA, SOUTH, WEST
from .points import read_points
from .util import combine, groupwise_combine

LAG_SIZE = 100.0
N_LAGS = 6
MAX_DIST = LAG_SIZE * N_LAGS  # pair cutoff == duplication pitch
K_NEIGHBORS = 12


def _sdot(a, b) -> float:
    """Strict left-fold dot product (replaces BLAS ``@`` whose
    accumulation order/FMA use is unspecified) — bit-replayable as a
    SQL list_reduce."""
    s = 0.0
    for u, v in zip(np.asarray(a, dtype=np.float64).tolist(),
                    np.asarray(b, dtype=np.float64).tolist()):
        s += u * v
    return s


def gauss_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Partial-pivot Gaussian elimination with a FIXED op order
    (first-max pivot, full-row elimination, ascending back-substitution
    accumulations) so the DuckDB oracle can replay it bit-exactly.
    Replaces np.linalg.lstsq (LAPACK SVD — unreplayable) for the
    non-singular OK / RBF systems; the reference solves the same
    square systems directly (Kriging.java solve path)."""
    n = len(b)
    M = np.concatenate([np.asarray(A, dtype=np.float64),
                        np.asarray(b, dtype=np.float64)[:, None]], axis=1)
    M = M.copy()
    for p in range(n):
        piv = p + int(np.argmax(np.abs(M[p:, p])))
        if M[piv, p] == 0.0:
            # singular system (coincident / collinear neighbours):
            # fail loudly instead of dividing by zero and silently
            # propagating inf/NaN into the interpolated surface —
            # callers map this to NODATA for the affected cell
            raise np.linalg.LinAlgError(
                f"gauss_solve: zero pivot at column {p} (singular "
                f"neighbour system)")
        if piv != p:
            M[[p, piv]] = M[[piv, p]]
        for r in range(p + 1, n):
            f = M[r, p] / M[p, p]
            M[r] = M[r] - f * M[p]
    x = np.zeros(n)
    for p in range(n - 1, -1, -1):
        s = M[p, n]
        for j in range(p + 1, n):
            s = s - M[p, j] * x[j]
        x[p] = s / M[p, p]
    return x


def _grid_key(x, y, pitch):
    gx = np.floor((np.asarray(x) - WEST) / pitch).astype(np.int64)
    gy = np.floor((np.asarray(y) - SOUTH) / pitch).astype(np.int64)
    return gx * 1_000_003 + gy, gx, gy


def _duplicate(batch, pitch: float):
    """Emit each point to every grid cell whose box, expanded by pitch,
    is within ``pitch`` of it; tag the home cell (dup=0)."""
    x = np.asarray(batch["x"], dtype=np.float64)
    y = np.asarray(batch["y"], dtype=np.float64)
    rec = np.asarray(batch["rec_id"], dtype=np.int64)
    z = np.asarray(batch["z"], dtype=np.float64)
    _, gx0, gy0 = _grid_key(x, y, pitch)
    out = {k: [] for k in ("gkey", "dup", "rec_id", "x", "y", "z")}
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            tgx, tgy = gx0 + dx, gy0 + dy
            bx0, bx1 = WEST + tgx * pitch, WEST + (tgx + 1) * pitch
            by0, by1 = SOUTH + tgy * pitch, SOUTH + (tgy + 1) * pitch
            ddx = np.maximum(np.maximum(bx0 - x, x - bx1), 0.0)
            ddy = np.maximum(np.maximum(by0 - y, y - by1), 0.0)
            m = (ddx * ddx + ddy * ddy) < pitch * pitch
            if not m.any():
                continue
            out["gkey"].append(tgx[m] * 1_000_003 + tgy[m])
            out["dup"].append(np.full(int(m.sum()),
                                      int(dx != 0 or dy != 0), dtype=np.int64))
            out["rec_id"].append(rec[m])
            out["x"].append(x[m])
            out["y"].append(y[m])
            out["z"].append(z[m])
    return {k: (np.concatenate(v) if v else np.array(
        [], dtype=np.int64 if k in ("gkey", "dup", "rec_id") else np.float64))
        for k, v in out.items()}


def empirical_variogram(points: "rd.Dataset",
                        lag: float = LAG_SIZE,
                        n_lags: int = N_LAGS) -> pd.DataFrame:
    """(bin, n_pairs, gamma, mean_dist) — γ = Σ½(zi−zj)²/N per lag."""
    pitch = lag * n_lags

    dup = points.map_batches(lambda b: _duplicate(b, pitch),
                             batch_format="numpy")

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        own = g[g["dup"] == 0]
        if len(own) == 0:
            return pd.DataFrame({"bin": pd.Series([], dtype="int64"),
                                 "n": pd.Series([], dtype="int64"),
                                 "ssq": pd.Series([], dtype="float64"),
                                 "sd": pd.Series([], dtype="float64")})
        ax = own["x"].to_numpy(); ay = own["y"].to_numpy()
        ar = own["rec_id"].to_numpy(); az = own["z"].to_numpy()
        bx = g["x"].to_numpy(); by = g["y"].to_numpy()
        br = g["rec_id"].to_numpy(); bz = g["z"].to_numpy()
        d2 = (ax[:, None] - bx[None, :]) ** 2 + (ay[:, None] - by[None, :]) ** 2
        m = (d2 > 0.0) & (d2 < pitch * pitch) & (ar[:, None] < br[None, :])
        if not m.any():
            return pd.DataFrame({"bin": pd.Series([], dtype="int64"),
                                 "n": pd.Series([], dtype="int64"),
                                 "ssq": pd.Series([], dtype="float64"),
                                 "sd": pd.Series([], dtype="float64")})
        d = np.sqrt(d2[m])
        dz2 = ((az[:, None] - bz[None, :]) ** 2)[m]
        bins = np.minimum((d / lag).astype(np.int64), n_lags - 1)
        df = pd.DataFrame({"bin": bins, "one": 1, "hsq": 0.5 * dz2, "d": d})
        gg = df.groupby("bin").agg(n=("one", "sum"), ssq=("hsq", "sum"),
                                   sd=("d", "sum"))
        return gg.reset_index()

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        # sorted first, so the float sums do not depend on the order the
        # per-cell partials arrive in
        df = df.sort_values(["bin", "ssq", "sd", "n"], ignore_index=True)
        return (df.groupby("bin", sort=True)[["n", "ssq", "sd"]].sum()
                .reset_index())

    parts = combine(dup, "gkey", groupwise_combine(partial, "gkey"))
    tot = combine(parts, "bin", fold).to_pandas()
    if len(tot) == 0:       # empty layer -> typed empty variogram
        return pd.DataFrame({"bin": pd.Series([], dtype="int64"),
                             "n": pd.Series([], dtype="int64"),
                             "gamma": pd.Series([], dtype="float64"),
                             "mean_dist": pd.Series([], dtype="float64")})
    tot = tot.sort_values("bin", ignore_index=True)
    tot["gamma"] = tot["ssq"] / tot["n"]
    tot["mean_dist"] = tot["sd"] / tot["n"]
    return tot[["bin", "n", "gamma", "mean_dist"]]


def spherical(d: np.ndarray, sill: float, rng: float) -> np.ndarray:
    """Kriging.java:972-981 spherical model, nugget 0. The cubic is
    written t·t·t (not ``**3``) so the DuckDB oracle's identical
    expression is bit-equal (numpy's pow fast-path vs libm pow can
    differ in the last ulp)."""
    d = np.asarray(d, dtype=np.float64)
    t = d / rng
    r = np.where(d >= rng, sill,
                 sill * (1.5 * d / rng - 0.5 * (t * t * t)))
    return np.where(d <= 0.0, 0.0, r)


def fit_spherical(vario: pd.DataFrame) -> tuple[float, float]:
    """(sill, range) by deterministic coarse-to-fine search over range
    with the closed-form least-squares sill — replaces the reference's
    LM iterations (Kriging.java:825-940) order-stably.

    Inputs are quantized to 4 decimals (floor(x·1e4 + 0.5)) first: the
    empirical sums behind gamma/mean_dist are float reductions whose
    accumulation order varies with shuffle grouping (and differs from
    the oracle's SQL SUM), so the fit consumes a bit-stable rounding of
    them — the quantization error (~5e-5 relative to γ ≈ 10³) is far
    below the variogram's own estimation noise."""
    if len(vario) == 0:     # no pairs (empty layer): flat unit model
        return 0.0, 1.0
    d = np.floor(vario["mean_dist"].to_numpy() * 1e4 + 0.5) / 1e4
    g = np.floor(vario["gamma"].to_numpy() * 1e4 + 0.5) / 1e4

    def sse(rng: float) -> tuple[float, float]:
        f = spherical(d, 1.0, rng)
        denom = _sdot(f, f)
        sill = _sdot(f, g) / denom if denom > 0 else 0.0
        sill = max(sill, 0.0)  # reference clamps Sill < 0 → 0 (:944)
        resid = g - sill * f
        return _sdot(resid, resid), sill

    lo, hi = LAG_SIZE * 0.5, MAX_DIST * 2.0
    best_r, best_sill, best_e = lo, 0.0, np.inf
    for _ in range(3):  # coarse → fine
        for rng in np.linspace(lo, hi, 61):
            e, s = sse(float(rng))
            if e < best_e - 1e-15:
                best_e, best_r, best_sill = e, float(rng), s
        step = (hi - lo) / 60.0
        lo, hi = max(best_r - step, 1e-6), best_r + step
    return best_sill, best_r


def krige_cells(sf_dir: str, k: int = K_NEIGHBORS,
                round_to: int = 4) -> "rd.Dataset":
    """Ordinary-kriging prediction at the 16×16 query cell centres:
    (cell_id, kriged_z)."""
    points = read_points(sf_dir)
    vario = empirical_variogram(points)
    sill, rng = fit_spherical(vario)
    pitch = MAX_DIST

    cells = cell_centers()
    cx = np.array([c["cx"] for c in cells])
    cy = np.array([c["cy"] for c in cells])
    cid = np.array([c["cell_id"] for c in cells], dtype=np.int64)
    gkey, _, _ = _grid_key(cx, cy, pitch)
    import pyarrow as pa
    cells_ds = rd.from_arrow(pa.table(
        {"gkey": gkey, "dup": np.full(len(cid), 2, dtype=np.int64),
         "rec_id": cid, "x": cx, "y": cy, "z": np.zeros(len(cid))}))

    dup = read_points(sf_dir).map_batches(
        lambda b: _duplicate(b, pitch), batch_format="numpy")

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        qs = g[g["dup"] == 2]
        ps = g[g["dup"] != 2].drop_duplicates("rec_id")
        if len(qs) == 0:
            return pd.DataFrame({"cell_id": pd.Series([], dtype="int64"),
                                 "kriged_z": pd.Series([], dtype="float64")})
        px = ps["x"].to_numpy(); py = ps["y"].to_numpy()
        pz = ps["z"].to_numpy(); pr = ps["rec_id"].to_numpy()
        out = np.full(len(qs), NODATA)
        for qi, (qx, qy) in enumerate(zip(qs["x"].to_numpy(),
                                          qs["y"].to_numpy())):
            if len(ps) == 0:
                continue
            d2 = (px - qx) ** 2 + (py - qy) ** 2
            inr = np.flatnonzero(d2 < pitch * pitch)
            if len(inr) == 0:
                continue
            order = inr[np.lexsort((pr[inr], d2[inr]))][:k]
            nx, ny, nz = px[order], py[order], pz[order]
            nd = np.sqrt(d2[order])
            m = len(order)
            dij = np.sqrt((nx[:, None] - nx[None, :]) ** 2
                          + (ny[:, None] - ny[None, :]) ** 2)
            A = np.ones((m + 1, m + 1))
            A[:m, :m] = spherical(dij, sill, rng)
            A[m, m] = 0.0
            b = np.ones(m + 1)
            b[:m] = spherical(nd, sill, rng)
            try:
                w = gauss_solve(A, b)
            except np.linalg.LinAlgError:
                continue        # degenerate neighbourhood -> NODATA cell
            out[qi] = _sdot(w[:m], nz)
        return pd.DataFrame({"cell_id": qs["rec_id"].to_numpy(),
                             "kriged_z": np.round(out, round_to)})

    return combine(cells_ds.union(dup), "gkey",
                   groupwise_combine(per_group, "gkey")).sort("cell_id")


# ---------------------------------------------------------------------------
# Single-process mirror (tests)
# ---------------------------------------------------------------------------

def krige_cells_naive(sf_dir: str, k: int = K_NEIGHBORS,
                      round_to: int = 4) -> pd.DataFrame:
    pts = read_points(sf_dir).to_pandas()
    x = pts["x"].to_numpy(); y = pts["y"].to_numpy()
    z = pts["z"].to_numpy(); r = pts["rec_id"].to_numpy()
    # brute-force variogram
    d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
    m = (d2 > 0) & (d2 < MAX_DIST * MAX_DIST) & (r[:, None] < r[None, :])
    d = np.sqrt(d2[m])
    hsq = 0.5 * ((z[:, None] - z[None, :]) ** 2)[m]
    bins = np.minimum((d / LAG_SIZE).astype(np.int64), N_LAGS - 1)
    df = pd.DataFrame({"bin": bins, "hsq": hsq, "d": d, "one": 1})
    gg = (df.groupby("bin").agg(n=("one", "sum"), ssq=("hsq", "sum"),
                                sd=("d", "sum")).reset_index())
    gg["gamma"] = gg["ssq"] / gg["n"]
    gg["mean_dist"] = gg["sd"] / gg["n"]
    sill, rng = fit_spherical(gg)
    rows = []
    for c in cell_centers():
        qd2 = (x - c["cx"]) ** 2 + (y - c["cy"]) ** 2
        inr = np.flatnonzero(qd2 < MAX_DIST * MAX_DIST)
        if len(inr) == 0:
            rows.append({"cell_id": c["cell_id"], "kriged_z": NODATA})
            continue
        order = inr[np.lexsort((r[inr], qd2[inr]))][:k]
        nx, ny, nz = x[order], y[order], z[order]
        nd = np.sqrt(qd2[order])
        mm = len(order)
        dij = np.sqrt((nx[:, None] - nx[None, :]) ** 2
                      + (ny[:, None] - ny[None, :]) ** 2)
        A = np.ones((mm + 1, mm + 1))
        A[:mm, :mm] = spherical(dij, sill, rng)
        A[mm, mm] = 0.0
        b = np.ones(mm + 1)
        b[:mm] = spherical(nd, sill, rng)
        try:
            w = gauss_solve(A, b)
        except np.linalg.LinAlgError:
            rows.append({"cell_id": c["cell_id"], "kriged_z": NODATA})
            continue
        rows.append({"cell_id": c["cell_id"],
                     "kriged_z": round(_sdot(w[:mm], nz), round_to)})
    return pd.DataFrame(rows).sort_values("cell_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# RadialBasisFunctionInterpolation (Scripts/RadialBasisFunctionInterpolation
# .groovy, 686 LoC): per output cell, solve the RBF system over the
# nearby samples — the SAME duplication-shuffle plan as ordinary
# kriging, with the multiquadric kernel φ(d) = √(d² + ε²) in place of
# the variogram matrix (no global fit pass needed).
# ---------------------------------------------------------------------------

def _mq(d: np.ndarray, eps: float) -> np.ndarray:
    return np.sqrt(d * d + eps * eps)


def rbf_cells(sf_dir: str, k: int = K_NEIGHBORS, eps: float = 50.0,
              round_to: int = 4) -> "rd.Dataset":
    """Multiquadric RBF prediction at the query cell centres:
    (cell_id, rbf_z)."""
    pitch = MAX_DIST
    cells = cell_centers()
    cx = np.array([c["cx"] for c in cells])
    cy = np.array([c["cy"] for c in cells])
    cid = np.array([c["cell_id"] for c in cells], dtype=np.int64)
    gkey, _, _ = _grid_key(cx, cy, pitch)
    import pyarrow as pa
    cells_ds = rd.from_arrow(pa.table(
        {"gkey": gkey, "dup": np.full(len(cid), 2, dtype=np.int64),
         "rec_id": cid, "x": cx, "y": cy, "z": np.zeros(len(cid))}))
    dup = read_points(sf_dir).map_batches(
        lambda b: _duplicate(b, pitch), batch_format="numpy")

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        qs = g[g["dup"] == 2]
        ps = g[g["dup"] != 2].drop_duplicates("rec_id")
        if len(qs) == 0:
            return pd.DataFrame({"cell_id": pd.Series([], dtype="int64"),
                                 "rbf_z": pd.Series([], dtype="float64")})
        px = ps["x"].to_numpy(); py = ps["y"].to_numpy()
        pz = ps["z"].to_numpy(); pr = ps["rec_id"].to_numpy()
        out = np.full(len(qs), NODATA)
        for qi, (qx, qy) in enumerate(zip(qs["x"].to_numpy(),
                                          qs["y"].to_numpy())):
            if len(ps) == 0:
                continue
            d2 = (px - qx) ** 2 + (py - qy) ** 2
            inr = np.flatnonzero(d2 < pitch * pitch)
            if len(inr) == 0:
                continue
            order = inr[np.lexsort((pr[inr], d2[inr]))][:k]
            nx, ny, nz = px[order], py[order], pz[order]
            m = len(order)
            dij = np.sqrt((nx[:, None] - nx[None, :]) ** 2
                          + (ny[:, None] - ny[None, :]) ** 2)
            A = _mq(dij, eps)
            try:
                w = gauss_solve(A, nz)
            except np.linalg.LinAlgError:
                continue        # degenerate neighbourhood -> NODATA cell
            out[qi] = _sdot(w, _mq(np.sqrt(d2[order]), eps))
        return pd.DataFrame({"cell_id": qs["rec_id"].to_numpy(),
                             "rbf_z": np.round(out, round_to)})

    return combine(cells_ds.union(dup), "gkey",
                   groupwise_combine(per_group, "gkey")).sort("cell_id")


def rbf_cells_naive(sf_dir: str, k: int = K_NEIGHBORS, eps: float = 50.0,
                    round_to: int = 4) -> pd.DataFrame:
    pts = read_points(sf_dir).to_pandas()
    x = pts["x"].to_numpy(); y = pts["y"].to_numpy()
    z = pts["z"].to_numpy(); r = pts["rec_id"].to_numpy()
    rows = []
    for c in cell_centers():
        qd2 = (x - c["cx"]) ** 2 + (y - c["cy"]) ** 2
        inr = np.flatnonzero(qd2 < MAX_DIST * MAX_DIST)
        if len(inr) == 0:
            rows.append({"cell_id": c["cell_id"], "rbf_z": NODATA})
            continue
        order = inr[np.lexsort((r[inr], qd2[inr]))][:k]
        nx, ny, nz = x[order], y[order], z[order]
        dij = np.sqrt((nx[:, None] - nx[None, :]) ** 2
                      + (ny[:, None] - ny[None, :]) ** 2)
        try:
            w = gauss_solve(_mq(dij, eps), nz)
        except np.linalg.LinAlgError:
            rows.append({"cell_id": c["cell_id"], "rbf_z": NODATA})
            continue
        rows.append({"cell_id": c["cell_id"],
                     "rbf_z": round(_sdot(w, _mq(np.sqrt(qd2[order]), eps)),
                                    round_to)})
    return pd.DataFrame(rows).sort_values("cell_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Exact DuckDB oracles — bit-for-bit replays of the kernels above.
# DuckDB forbids subqueries inside lambdas, so every intermediate is
# either fully inlined (pivot/swap inside the elimination fold) or
# let-bound as a CTE column between folds (em → w → prediction).
# ---------------------------------------------------------------------------

def _sum_fold(prod_list: str) -> str:
    """Left-fold Σ over a product list (mirrors _sdot's strict order)."""
    return (f"list_reduce([CAST(0.0 AS DOUBLE)] || {prod_list}, "
            f"(s_, t_) -> s_ + t_)")


def _elim_fold(m0: str, n: str) -> str:
    """Gaussian-elimination replay: fold over pivot steps p = 1..n of
    gauss_solve — first-max partial pivot (strict > to advance), row
    swap, full-row elimination zz₁ − f·zz₂ — over the augmented
    DOUBLE[][] expression ``m0``. Returns the eliminated matrix."""
    P = "CAST(ps_[1][1] AS BIGINT)"
    piv = ("(list_reduce("
           f"[struct_pack(r_ := {P}, v_ := abs(mm_[{P}][{P}]))] || "
           f"list_transform(range({P} + 1, ({n}) + 1), "
           f"r2_ -> struct_pack(r_ := r2_, v_ := abs(mm_[r2_][{P}]))), "
           "(b_, c_) -> CASE WHEN c_.v_ > b_.v_ THEN c_ ELSE b_ END)).r_")
    ms = (f"list_transform(range(1, ({n}) + 1), r3_ -> "
          f"CASE WHEN r3_ = {P} THEN mm_[{piv}] "
          f"WHEN r3_ = {piv} THEN mm_[{P}] ELSE mm_[r3_] END)")
    return (f"list_reduce([{m0}] || "
            f"list_transform(range(1, ({n}) + 1), "
            f"pp_ -> [[CAST(pp_ AS DOUBLE)]]), "
            f"(mm_, ps_) -> "
            f"list_transform(range(1, ({n}) + 1), r4_ -> "
            f"CASE WHEN r4_ <= {P} THEN ({ms})[r4_] "
            f"ELSE list_transform(list_zip(({ms})[r4_], ({ms})[{P}]), "
            f"zz_ -> zz_[1] - (({ms})[r4_][{P}] / ({ms})[{P}][{P}]) "
            f"* zz_[2]) END))")


def _back_fold(n: str) -> str:
    """Back-substitution replay over the column ``em`` (the eliminated
    matrix): descending-p fold; x[p] = (em[p][n+1] − ascending Σ
    em[p][j]·x[j]) / em[p][p], exactly gauss_solve's loop."""
    P = "CAST(pv_[1] AS BIGINT)"
    sval = (f"list_reduce([em[{P}][({n}) + 1]] || "
            f"list_transform(range({P} + 1, ({n}) + 1), "
            f"j_ -> CAST(j_ AS DOUBLE)), "
            f"(s_, jv_) -> s_ - em[{P}][CAST(jv_ AS BIGINT)] "
            f"* x_[CAST(jv_ AS BIGINT)])")
    return (f"list_reduce("
            f"[list_transform(range(0, ({n})), i_ -> CAST(0.0 AS DOUBLE))] || "
            f"list_transform(range(({n}), 0, -1), "
            f"p2_ -> [CAST(p2_ AS DOUBLE)]), "
            f"(x_, pv_) -> "
            f"list_slice(x_, 1, {P} - 1) "
            f"|| [({sval}) / em[{P}][{P}]] "
            f"|| list_slice(x_, {P} + 1, ({n})))")


def _fit_ctes() -> str:
    """fit_spherical replay as a RECURSIVE CTE — one row per candidate
    step (183 = 3 rounds × 61 linspace candidates), lo/hi contracting
    around the best range at each i = 60 boundary exactly as the
    Python loop (step = (hi−lo)/60, lo clamps at 1e-6, best_e persists
    across rounds). Row-level lambdas only: DuckDB 1.0 mis-evaluates a
    list_reduce nested inside another reduce's lambda (the accumulator
    aliases the inner fold's state), so the candidate loop must live in
    the recursion, not in a fold. References binsl(dl, gl)."""
    den = _sum_fold("list_transform(fl, f_ -> f_ * f_)")
    fg = _sum_fold("list_transform(list_zip(fl, gl), "
                   "z_ -> z_[1] * z_[2])")
    err = _sum_fold("list_transform(list_zip(gl, fl), "
                    "z_ -> (z_[1] - sill * z_[2]) "
                    "* (z_[1] - sill * z_[2]))")
    return f"""
fitrec AS (
  SELECT 0 AS it, CAST(50.0 AS DOUBLE) AS lo, CAST(1200.0 AS DOUBLE) AS hi,
         CAST(50.0 AS DOUBLE) AS br, CAST(0.0 AS DOUBLE) AS bs,
         CAST('inf' AS DOUBLE) AS be
  UNION ALL
  SELECT f.it + 1,
         CASE WHEN s.i = 60 THEN greatest(s.nbr - (f.hi - f.lo) / 60.0,
                                          1e-6) ELSE f.lo END,
         CASE WHEN s.i = 60 THEN s.nbr + (f.hi - f.lo) / 60.0
              ELSE f.hi END,
         s.nbr, s.nbs, s.nbe
  FROM fitrec f, LATERAL (
    SELECT t4.i,
           CASE WHEN t4.err < f.be - 1e-15 THEN t4.rng ELSE f.br END AS nbr,
           CASE WHEN t4.err < f.be - 1e-15 THEN t4.sill ELSE f.bs END AS nbs,
           CASE WHEN t4.err < f.be - 1e-15 THEN t4.err ELSE f.be END AS nbe
    FROM (
      SELECT i, rng, sill, ({err}) AS err
      FROM (
        SELECT i, rng, fl, gl,
               greatest(CASE WHEN ({den}) > 0.0 THEN ({fg}) / ({den})
                        ELSE 0.0 END, 0.0) AS sill
        FROM (
          SELECT i, rng,
                 list_transform(dl, dd_ ->
                   CASE WHEN dd_ <= 0.0 THEN 0.0
                        WHEN dd_ >= rng THEN 1.0
                        ELSE (1.5 * dd_) / rng
                             - 0.5 * ((dd_ / rng) * (dd_ / rng)
                                      * (dd_ / rng)) END) AS fl,
                 gl
          FROM (
            SELECT f.it % 61 AS i,
                   CASE WHEN f.it % 61 = 60 THEN f.hi
                        ELSE (f.it % 61) * ((f.hi - f.lo) / 60.0)
                             + f.lo END AS rng) t1, binsl) t2) t3) t4) s
  WHERE f.it < 183),
ft AS MATERIALIZED (
  SELECT bs AS sill_v, br AS rng_v
  FROM fitrec ORDER BY it DESC LIMIT 1)"""


_CAND_CTES = """
cand AS (
  SELECT cc.cell_id, p.rec_id, p.x, p.y, p.z,
         (p.x - cc.cx) * (p.x - cc.cx)
         + (p.y - cc.cy) * (p.y - cc.cy) AS qd2
  FROM {cellv} JOIN pts p
    ON (p.x - cc.cx) * (p.x - cc.cx)
       + (p.y - cc.cy) * (p.y - cc.cy) < {p2}),
candl AS MATERIALIZED (
  SELECT cell_id,
         list_slice(list(struct_pack(x := x, y := y, z := z,
                                     nd := sqrt(qd2))
                         ORDER BY qd2, rec_id), 1, {k}) AS cl
  FROM cand GROUP BY cell_id)"""


def kriging_interpolate_sql(k: int = K_NEIGHBORS) -> str:
    """END-TO-END exact kriging oracle: empirical variogram (pairs
    < MAX_DIST, truncation binning, 4-dp-quantized γ/mean-dist exactly
    as fit_spherical), the 3-round × 61-candidate coarse-to-fine range
    search replayed as one flat fold, then per cell the k-nearest OK
    system solved by the gauss_solve replay and the ordered prediction
    dot, rounded to 4 dp."""
    from ..core.features import POINTS_CTE, cell_centers, \
        cell_centers_sql_values

    p2 = MAX_DIST * MAX_DIST
    cellv = cell_centers_sql_values(cell_centers(), alias="cc")
    nn = "(length(cl) + 1)"
    sph = ("CASE WHEN {d} <= 0.0 THEN 0.0 "
           "WHEN {d} >= rng_v THEN sill_v "
           "ELSE sill_v * ((1.5 * {d}) / rng_v "
           "- 0.5 * (({d} / rng_v) * ({d} / rng_v) * ({d} / rng_v))) END")
    dij = ("sqrt((cl[i_].x - cl[j_].x) * (cl[i_].x - cl[j_].x) "
           "+ (cl[i_].y - cl[j_].y) * (cl[i_].y - cl[j_].y))")
    m0 = (f"list_transform(range(1, length(cl) + 1), i_ -> "
          f"list_transform(range(1, length(cl) + 1), j_ -> "
          f"{sph.format(d=dij)}) "
          f"|| [CAST(1.0 AS DOUBLE), {sph.format(d='cl[i_].nd')}]) "
          f"|| [list_transform(range(1, length(cl) + 1), "
          f"j_ -> CAST(1.0 AS DOUBLE)) "
          f"|| [CAST(0.0 AS DOUBLE), CAST(1.0 AS DOUBLE)]]")
    pred = (f"list_reduce([0.0] || "
            f"list_transform(range(1, length(cl) + 1), "
            f"i2_ -> w_[i2_] * cl[i2_].z), (s_, t_) -> s_ + t_)")
    return f"""
WITH RECURSIVE {POINTS_CTE},
pr AS (
  SELECT sqrt((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y)) AS d,
         0.5 * ((a.z - b.z) * (a.z - b.z)) AS hsq
  FROM pts a JOIN pts b
    ON a.rec_id < b.rec_id
   AND (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y) > 0.0
   AND (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y)
       < {p2!r}),
vb AS (
  SELECT LEAST(CAST(floor(d / {LAG_SIZE!r}) AS BIGINT), {N_LAGS - 1})
           AS bin,
         COUNT(*) AS n, SUM(hsq) AS ssq, SUM(d) AS sd
  FROM pr GROUP BY 1),
binsl AS (
  SELECT list(floor((sd / n) * 10000.0 + 0.5) / 10000.0 ORDER BY bin)
           AS dl,
         list(floor((ssq / n) * 10000.0 + 0.5) / 10000.0 ORDER BY bin)
           AS gl
  FROM vb),
{_fit_ctes()},
{_CAND_CTES.format(cellv=cellv, p2=repr(p2), k=k)},
em_t AS (
  SELECT cell_id, cl, ({_elim_fold(m0, nn)}) AS em
  FROM candl, ft),
x_t AS (SELECT cell_id, cl, ({_back_fold(nn)}) AS w_ FROM em_t),
sol AS (SELECT cell_id, ({pred}) AS zhat FROM x_t)
SELECT cc.cell_id,
       round(coalesce(s.zhat, {NODATA!r}), 4) AS kriged_z
FROM {cellv} LEFT JOIN sol s ON s.cell_id = cc.cell_id
ORDER BY cc.cell_id
"""


def rbf_interpolate_sql(k: int = K_NEIGHBORS, eps: float = 50.0) -> str:
    """Exact multiquadric-RBF oracle: per cell the k-nearest system
    A = φ(dij), φ(d) = √(d·d + ε²) applied to dij = √(Δ²) (the same
    sqrt-then-square chain as _mq), solved by the gauss_solve replay;
    prediction = ordered Σ wᵢ·φ(ndᵢ), rounded to 4 dp."""
    from ..core.features import POINTS_CTE, cell_centers, \
        cell_centers_sql_values

    p2 = MAX_DIST * MAX_DIST
    e2 = float(eps * eps)
    cellv = cell_centers_sql_values(cell_centers(), alias="cc")
    nn = "length(cl)"
    dij = ("sqrt((cl[i_].x - cl[j_].x) * (cl[i_].x - cl[j_].x) "
           "+ (cl[i_].y - cl[j_].y) * (cl[i_].y - cl[j_].y))")
    mq = f"sqrt(({dij}) * ({dij}) + {e2!r})"
    m0 = (f"list_transform(range(1, length(cl) + 1), i_ -> "
          f"list_transform(range(1, length(cl) + 1), j_ -> {mq}) "
          f"|| [cl[i_].z])")
    pred = (f"list_reduce([0.0] || "
            f"list_transform(range(1, length(cl) + 1), "
            f"i2_ -> w_[i2_] * sqrt(cl[i2_].nd * cl[i2_].nd + {e2!r})), "
            f"(s_, t_) -> s_ + t_)")
    return f"""
WITH {POINTS_CTE},
{_CAND_CTES.format(cellv=cellv, p2=repr(p2), k=k)},
em_t AS (
  SELECT cell_id, cl, ({_elim_fold(m0, nn)}) AS em FROM candl),
x_t AS (SELECT cell_id, cl, ({_back_fold(nn)}) AS w_ FROM em_t),
sol AS (SELECT cell_id, ({pred}) AS zhat FROM x_t)
SELECT cc.cell_id,
       round(coalesce(s.zhat, {NODATA!r}), 4) AS rbf_z
FROM {cellv} LEFT JOIN sol s ON s.cell_id = cc.cell_id
ORDER BY cc.cell_id
"""
