"""kNN / IDW stages — the BASELINE "kNN (IDW-style nearest-neighbour search)".

Reference semantics (RasterCreation/src/plugins/InterpolationIDW.java:542-571):
- range query with SQUARED-distance cutoff (strict ``d² < maxDist²``),
- weights ``1 / sqrt(d²)^p``,
- exact hit (``d² == 0``) short-circuits to that point's value,
- no neighbours → NoData (−32768).

Deviation (documented): when the ONLY in-range neighbour is an exact hit
the reference's result depends on KdTree result order (sumWeights stays 0
→ NoData); we deterministically return the exact-hit value (min rec_id
among exact hits). The SQL oracle encodes the same rule.

Distributed plan (SURVEY.md §2.4 "kNN lookups"): neighbour-cell
duplication range join — points are emitted to every cell of a
``maxdist``-pitch grid whose expanded bbox contains them (≤ 4 cells for
pitch == maxdist), query cells are keyed by their single grid cell, and a
``util.combine`` keyed on the cell refines exactly per group. The shuffle key
is the spatial cell — the same partitioning key used by the spatial
join, per the north rule.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from ..core.rng import NODATA, SOUTH, WEST
from .util import combine, groupwise_combine


def _grid_key(x: np.ndarray, y: np.ndarray, pitch: float) -> tuple[np.ndarray, np.ndarray]:
    gx = np.floor((np.asarray(x) - WEST) / pitch).astype(np.int64)
    gy = np.floor((np.asarray(y) - SOUTH) / pitch).astype(np.int64)
    return gx, gy


def idw_interpolate(points: "rd.Dataset", cells: list[dict],
                    max_dist: float = 400.0, p: float = 2.0,
                    round_to: int = 4) -> "rd.Dataset":
    """IDW value at each query cell centre. Returns (cell_id, idw_z)."""
    pitch = max_dist
    maxd2 = max_dist * max_dist

    cx = np.array([c["cx"] for c in cells])
    cy = np.array([c["cy"] for c in cells])
    cid = np.array([c["cell_id"] for c in cells], dtype=np.int64)
    gx, gy = _grid_key(cx, cy, pitch)
    import pyarrow as pa
    cells_tbl = pa.table({
        "gkey": gx * 1_000_003 + gy,
        "role": np.zeros(len(cid), dtype=np.int64),
        "id": cid, "x": cx, "y": cy, "z": np.zeros(len(cid))})
    cells_ds = rd.from_arrow(cells_tbl)

    def duplicate(batch):
        """Emit each point to every grid cell whose pitch-box, expanded
        by max_dist, contains it (≤ 2×2 cells when pitch == max_dist)."""
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        rec = np.asarray(batch["rec_id"], dtype=np.int64)
        z = np.asarray(batch["z"], dtype=np.float64)
        gx0, gy0 = _grid_key(x, y, pitch)
        out = {k: [] for k in ("gkey", "role", "id", "x", "y", "z")}
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                tgx, tgy = gx0 + dx, gy0 + dy
                # distance from point to the target cell's box
                bx0, bx1 = WEST + tgx * pitch, WEST + (tgx + 1) * pitch
                by0, by1 = SOUTH + tgy * pitch, SOUTH + (tgy + 1) * pitch
                ddx = np.maximum(np.maximum(bx0 - x, x - bx1), 0.0)
                ddy = np.maximum(np.maximum(by0 - y, y - by1), 0.0)
                m = (ddx * ddx + ddy * ddy) < maxd2
                if not m.any():
                    continue
                out["gkey"].append(tgx[m] * 1_000_003 + tgy[m])
                out["role"].append(np.ones(int(m.sum()), dtype=np.int64))
                out["id"].append(rec[m])
                out["x"].append(x[m])
                out["y"].append(y[m])
                out["z"].append(z[m])
        if not out["gkey"]:
            return {k: np.array([], dtype=np.int64 if k in ("gkey", "role", "id")
                                else np.float64) for k in out}
        return {k: np.concatenate(v) for k, v in out.items()}

    pts_dup = points.map_batches(duplicate, batch_format="numpy")

    def per_cell_group(g: pd.DataFrame) -> pd.DataFrame:
        qs = g[g["role"] == 0]
        ps = g[g["role"] == 1]
        if len(qs) == 0:
            return pd.DataFrame({"cell_id": pd.Series([], dtype="int64"),
                                 "idw_z": pd.Series([], dtype="float64")})
        qx = qs["x"].to_numpy(); qy = qs["y"].to_numpy()
        qid = qs["id"].to_numpy()
        px = ps["x"].to_numpy(); py = ps["y"].to_numpy()
        pz = ps["z"].to_numpy(); prec = ps["id"].to_numpy()
        vals = np.full(len(qs), NODATA)
        if len(ps):
            d2 = (qx[:, None] - px[None, :]) ** 2 + (qy[:, None] - py[None, :]) ** 2
            exact = d2 == 0.0
            inr = (d2 > 0.0) & (d2 < maxd2)
            w = np.zeros_like(d2)
            np.divide(1.0, np.sqrt(d2, where=inr, out=np.full_like(d2, np.inf)) ** p,
                      out=w, where=inr)
            wsum = w.sum(axis=1)
            zsum = (w * pz[None, :]).sum(axis=1)
            has = wsum > 0
            vals[has] = zsum[has] / wsum[has]
            ex_rows = exact.any(axis=1)
            if ex_rows.any():
                big = np.where(exact, prec[None, :], np.iinfo(np.int64).max)
                pick = np.argmin(big, axis=1)
                vals[ex_rows] = pz[pick[ex_rows]]
        return pd.DataFrame({"cell_id": qid.astype("int64"),
                             "idw_z": np.round(vals, round_to)})

    return combine(cells_ds.union(pts_dup), "gkey",
                   groupwise_combine(per_cell_group, "gkey"))


def nearest_point_per_site(points: "rd.Dataset", sites: list[dict],
                           round_to: int = 6) -> "rd.Dataset":
    """1-NN: for each broadcast site, the nearest streamed point
    (NearestNeighbourAnalysis.groovy:233 pattern). Tie-break: min rec_id
    among points at the minimum distance. Partial per-batch argmin →
    tiny groupby(site) final reduce — no O(n) shuffle."""
    sx = np.array([s["sx"] for s in sites])
    sy = np.array([s["sy"] for s in sites])
    sid = np.array([s["site_id"] for s in sites], dtype=np.int64)

    def partial(batch):
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        rec = np.asarray(batch["rec_id"], dtype=np.int64)
        d2 = (sx[:, None] - x[None, :]) ** 2 + (sy[:, None] - y[None, :]) ** 2
        md = d2.min(axis=1)
        # min rec_id among ties at the min distance, per site
        recs = np.array([rec[d2[i] == md[i]].min() for i in range(len(sid))],
                        dtype=np.int64)
        return {"site_id": sid, "d2": md, "rec": recs}

    partials = points.map_batches(partial, batch_format="numpy")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        md = g["d2"].min()
        rec = g.loc[g["d2"] == md, "rec"].min()
        return pd.DataFrame({"site_id": [int(g["site_id"].iloc[0])],
                             "nn_rec": [int(rec)],
                             "nn_dist": [round(float(np.sqrt(md)), round_to)]})

    return combine(partials, "site_id", groupwise_combine(final, "site_id"))


# ---------------------------------------------------------------------------
# NearestNeighbourAnalysis (WhiteboxGIS/resources/plugins/Scripts/
# NearestNeighbourAnalysis.groovy, no-buffer mode):
# - each point's 1-NN distance: ``nearestNeighbor(entry, 2, true)`` over
#   a tree containing the point itself; sequential sorting pops the
#   max-heap, so ``results.get(0)`` is the FARTHER of the two = the
#   nearest OTHER point (:233-235) — SQL mirror: min over rec_id<>self;
# - A and P come from a minimum-area bounding box found by a 0.5°-step
#   rotation sweep (m = 0..180 inclusive, psi = −m·0.5°, :267-315)
#   around the bbox midpoint, INCLUDING the literal Double.MIN_VALUE
#   (positive tiny) initialisation of the rotated east/south extents
#   (:280-283) and the first-strict-minimum tie rule;
# - stats (:349-372): meanNN = Σd/n; expected = 0.5·√(A/n) (Davis);
#   se = 0.26136/√(n²/A); R = mean/expected; z = (mean−expected)/se.
#
# Distributed plan: two partial-aggregate passes (bbox, then per-block
# min/max of the 181 rotated extents — a classic combine), plus a
# cell-partitioned self-1-NN using the neighbour-duplication shuffle
# with a doubling-pitch retry loop for the rare point whose nearest
# neighbour lies beyond the initial ring (correct at any density, no
# global gather).
# ---------------------------------------------------------------------------

_JAVA_MIN_VALUE = 4.9e-324


def _self_nn_round(points: "rd.Dataset", query_ids, pitch: float):
    """One neighbour-duplication round: exact 1-NN (excluding self) for
    every query point whose NN lies within ``pitch``; returns
    (resolved DataFrame(rec_id, d2), unresolved id ndarray)."""
    p2 = pitch * pitch
    qset = None if query_ids is None else set(int(i) for i in query_ids)

    def emit(batch):
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        rec = np.asarray(batch["rec_id"], dtype=np.int64)
        gx0, gy0 = _grid_key(x, y, pitch)
        out = {k: [] for k in ("gkey", "role", "id", "x", "y")}
        if qset is not None:
            qm = np.array([int(r) in qset for r in rec])
        else:
            qm = np.ones(len(rec), dtype=bool)
        out["gkey"].append(gx0[qm] * 1_000_003 + gy0[qm])
        out["role"].append(np.zeros(int(qm.sum()), dtype=np.int64))
        out["id"].append(rec[qm]); out["x"].append(x[qm]); out["y"].append(y[qm])
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                tgx, tgy = gx0 + dx, gy0 + dy
                bx0, bx1 = WEST + tgx * pitch, WEST + (tgx + 1) * pitch
                by0, by1 = SOUTH + tgy * pitch, SOUTH + (tgy + 1) * pitch
                ddx = np.maximum(np.maximum(bx0 - x, x - bx1), 0.0)
                ddy = np.maximum(np.maximum(by0 - y, y - by1), 0.0)
                m = (ddx * ddx + ddy * ddy) <= p2
                if not m.any():
                    continue
                out["gkey"].append(tgx[m] * 1_000_003 + tgy[m])
                out["role"].append(np.ones(int(m.sum()), dtype=np.int64))
                out["id"].append(rec[m])
                out["x"].append(x[m]); out["y"].append(y[m])
        return {k: np.concatenate(v) for k, v in out.items()}

    def per_cell(g: pd.DataFrame) -> pd.DataFrame:
        qs = g[g["role"] == 0]
        ps = g[g["role"] == 1]
        if len(qs) == 0:
            return pd.DataFrame({"rec_id": pd.Series([], dtype="int64"),
                                 "d2": pd.Series([], dtype="float64")})
        d2 = ((qs["x"].to_numpy()[:, None] - ps["x"].to_numpy()) ** 2
              + (qs["y"].to_numpy()[:, None] - ps["y"].to_numpy()) ** 2)
        d2[qs["id"].to_numpy()[:, None] == ps["id"].to_numpy()] = np.inf
        dmin = d2.min(axis=1) if d2.shape[1] else np.full(len(qs), np.inf)
        return pd.DataFrame({"rec_id": qs["id"].to_numpy(),
                             "d2": dmin})

    res = (combine(points.map_batches(emit, batch_format="numpy"), "gkey",
                   groupwise_combine(per_cell, "gkey"))
           .to_pandas())
    ok = res["d2"] <= p2
    return res[ok], res.loc[~ok, "rec_id"].to_numpy()


def nearest_neighbour_analysis(points: "rd.Dataset",
                               round_to: int = 4) -> pd.DataFrame:
    import math

    def bbox_part(batch):
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        return {"minx": [x.min()], "maxx": [x.max()],
                "miny": [y.min()], "maxy": [y.max()],
                "n": [np.int64(len(x))]}

    b = points.map_batches(bbox_part, batch_format="numpy").to_pandas()
    if len(b) == 0 or int(b["n"].sum()) < 2:
        # < 2 points: mean-NN / expected-NN are undefined (zero area,
        # zero density) -> typed empty analysis
        return pd.DataFrame({
            "n_points": pd.Series([], dtype="int64"),
            "mean_nn": pd.Series([], dtype="float64"),
            "expected_nn": pd.Series([], dtype="float64"),
            "r_stat": pd.Series([], dtype="float64"),
            "z_stat": pd.Series([], dtype="float64")})
    west, east = float(b["minx"].min()), float(b["maxx"].max())
    south, north = float(b["miny"].min()), float(b["maxy"].max())
    n = int(b["n"].sum())
    mid_x = west + (east - west) / 2.0
    mid_y = south + (north - south) / 2.0

    # 181-angle rotated-extent partials (m = 0..180, psi = −m·0.5°)
    ms = np.arange(181, dtype=np.float64)
    deg2rad = np.pi / 180.0
    psi = -ms * 0.5 * deg2rad
    cosp, sinp = np.cos(psi), np.sin(psi)

    def sweep_part(batch):
        x = np.asarray(batch["x"], dtype=np.float64) - mid_x
        y = np.asarray(batch["y"], dtype=np.float64) - mid_y
        rx = x[:, None] * cosp[None, :] - y[:, None] * sinp[None, :]
        ry = x[:, None] * sinp[None, :] + y[:, None] * cosp[None, :]
        return {"m": np.arange(181, dtype=np.int64),
                "minrx": rx.min(axis=0), "maxrx": rx.max(axis=0),
                "minry": ry.min(axis=0), "maxry": ry.max(axis=0)}

    sw = (points.map_batches(sweep_part, batch_format="numpy").to_pandas()
          .groupby("m").agg(minrx=("minrx", "min"), maxrx=("maxrx", "max"),
                            minry=("minry", "min"), maxry=("maxry", "max"))
          .sort_index())
    # literal newBoundingBox init quirk: east/south start at +MIN_VALUE
    e_r = np.maximum(sw["maxrx"].to_numpy(), _JAVA_MIN_VALUE)
    s_r = np.maximum(sw["maxry"].to_numpy(), _JAVA_MIN_VALUE)
    xaxis = e_r - sw["minrx"].to_numpy()
    yaxis = s_r - sw["minry"].to_numpy()
    areas = xaxis * yaxis
    k = int(np.argmin(areas))           # first strict minimum, like the loop
    A = float(areas[k])
    P = float(xaxis[k] * 2.0 + yaxis[k] * 2.0)

    # self-1-NN with doubling-pitch retries
    pitch = max(2.0 * math.sqrt(max(A, 1e-12) / max(n, 1)), 1e-6)
    total = 0.0
    pending = None
    remaining = n
    while remaining > 0:
        resolved, unresolved = _self_nn_round(points, pending, pitch)
        total += float(np.sqrt(resolved["d2"].to_numpy()).sum())
        remaining = len(unresolved)
        pending = unresolved
        pitch *= 2.0

    mean_nn = total / n
    expected = 0.5 * math.sqrt(A / n)
    se = 0.26136 / math.sqrt(n * n / A)
    return pd.DataFrame({
        "n_points": [n],
        "mean_nn": [round(mean_nn, round_to)],
        "expected_nn": [round(expected, round_to)],
        "r_stat": [round(mean_nn / expected, round_to)],
        "z_stat": [round((mean_nn - expected) / se, round_to)],
        "mbb_area": [round(A, round_to)],
        "mbb_perim": [round(P, round_to)]})


def nearest_neighbour_analysis_sql(round_to: int = 4) -> str:
    from ..core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE},
nn AS (SELECT a.rec_id,
              MIN((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y))
                AS d2
       FROM pts a JOIN pts b ON a.rec_id <> b.rec_id
       GROUP BY a.rec_id),
s AS (SELECT SUM(sqrt(d2)) AS total, COUNT(*) AS n FROM nn),
ext AS (SELECT MIN(x) AS w, MAX(x) AS e, MIN(y) AS so, MAX(y) AS no
        FROM pts),
mid AS (SELECT w + (e - w) / 2.0 AS mx, so + (no - so) / 2.0 AS my
        FROM ext),
ang AS (SELECT m, -m * 0.5 * (pi() / 180.0) AS psi FROM range(0, 181) t(m)),
rot AS (SELECT m,
    MIN((x - mx) * cos(psi) - (y - my) * sin(psi)) AS minrx,
    MAX((x - mx) * cos(psi) - (y - my) * sin(psi)) AS maxrx,
    MIN((x - mx) * sin(psi) + (y - my) * cos(psi)) AS minry,
    MAX((x - mx) * sin(psi) + (y - my) * cos(psi)) AS maxry
  FROM pts CROSS JOIN ang CROSS JOIN mid GROUP BY m, psi),
boxes AS (SELECT m,
    GREATEST(maxrx, 4.9e-324) - minrx AS xaxis,
    GREATEST(maxry, 4.9e-324) - minry AS yaxis
  FROM rot),
best AS (SELECT xaxis * yaxis AS a,
                xaxis * 2.0 + yaxis * 2.0 AS p
         FROM boxes ORDER BY xaxis * yaxis, m LIMIT 1)
SELECT CAST(n AS BIGINT) AS n_points,
       round(total / n, {round_to}) AS mean_nn,
       round(0.5 * sqrt(a / n), {round_to}) AS expected_nn,
       round((total / n) / (0.5 * sqrt(a / n)), {round_to}) AS r_stat,
       round((total / n - 0.5 * sqrt(a / n))
             / (0.26136 / sqrt(CAST(n AS DOUBLE) * n / a)), {round_to})
         AS z_stat,
       round(a, {round_to}) AS mbb_area,
       round(p, {round_to}) AS mbb_perim
FROM s CROSS JOIN best
"""
