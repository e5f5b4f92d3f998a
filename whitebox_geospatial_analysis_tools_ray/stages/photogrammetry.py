"""Photogrammetry family exemplar.

EstimateHeightsFromParallax (WhiteboxGIS/resources/plugins/Scripts/
EstimateHeightsFromParallax.groovy:216-295) is the family's
data-processing core and maps cleanly to Ray: broadcast constants
(principal / conjugate-principal points → average absolute parallax P
and the two flight-line angles), one stateless per-record map
(rotate both tie points into their flight-line frames,
p = |leftX − rightX|), one global mean, one final map
(h = G + (h_r − mean)). The FIRST record (file order) is the
reference: refP = p₀ and h₀ = 0 (:266-272) — an order dependence
carried as a broadcast scalar keyed by min rec_id.

The heavier members (SURFPixelMatching, TransformToEpipolarGeometry,
LocatePrincipalPoint) share this physical shape — per-image feature
extraction + candidate-pair shuffle — which the multimodal decode
stages and MinHash-LSH machinery already exercise (SURVEY §2.10 addendum).

Also here:
- ``surf_match_points`` — the SURF interest-point matching rule
  (jopensurf/InterestPointMatcher.java:43-87, dispatched from
  Surf.java:367-414) over the embeddings table as the descriptor sets.
- ``find_tie_points`` — FindTiePoints.groovy:193-229's iterative
  max-residual trim over matched tie-point pairs.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

# fixed camera geometry (both flight lines at the same bearing)
L_PP = (2000.0, 2000.0)
L_CPP = (2600.0, 2300.0)
R_PP = (2000.0, 2000.0)
R_CPP = (1400.0, 1700.0)


def _constants():
    lp = math.sqrt((L_PP[1] - L_CPP[1]) ** 2 + (L_PP[0] - L_CPP[0]) ** 2)
    rp = math.sqrt((R_PP[1] - R_CPP[1]) ** 2 + (R_PP[0] - R_CPP[0]) ** 2)
    P = (lp + rp) / 2.0
    la = -math.atan2(L_CPP[1] - L_PP[1], L_CPP[0] - L_PP[0])
    ra = -math.atan2(R_PP[1] - R_CPP[1], R_PP[0] - R_CPP[0])
    return P, la, ra


def _right_point(x, y, z):
    """Deterministic right-image tie point for a left point."""
    return x - 580.0 - z % 37.0, y + z % 11.0 - 5.0


def estimate_heights_from_parallax(sf_dir: str, H: float = 948.6,
                                   G: float = 300.0,
                                   round_to: int = 6) -> pd.DataFrame:
    from .points import read_points

    P, la, ra = _constants()
    cla, sla = math.cos(la), math.sin(la)
    cra, sra = math.cos(ra), math.sin(ra)
    pts = read_points(sf_dir)

    def parallax(batch):
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        z = np.asarray(batch["z"], dtype=np.float64)
        rx, ry = _right_point(x, y, z)
        lx = (x - L_PP[0]) * cla - (y - L_PP[1]) * sla
        rx_ = (rx - R_PP[0]) * cra - (ry - R_PP[1]) * sra
        return {"rec_id": np.asarray(batch["rec_id"], dtype=np.int64),
                "p": np.abs(lx - rx_)}

    pds = pts.map_batches(parallax, batch_format="numpy").to_pandas()
    if len(pds) == 0:       # empty table -> typed empty heights
        return pd.DataFrame({"rec_id": pd.Series([], dtype="int64"),
                             "height": pd.Series([], dtype="float64")})
    pds = pds.sort_values("rec_id").reset_index(drop=True)
    ref_p = float(pds["p"].iloc[0])           # record 0 is the reference
    p = pds["p"].to_numpy()
    h = np.where(np.arange(len(p)) == 0, 0.0,
                 H * (p - ref_p) / (P + (p - ref_p)))
    avg = h.sum() / len(h)
    return pd.DataFrame({"rec_id": pds["rec_id"],
                         "height": np.round(G + (h - avg), round_to)})


def estimate_heights_sql(H: float = 948.6, G: float = 300.0) -> str:
    from ..core.features import POINTS_CTE

    P, la, ra = _constants()
    return f"""
WITH {POINTS_CTE},
par AS (SELECT rec_id,
    abs(((x - {L_PP[0]!r}) * cos({la!r}) - (y - {L_PP[1]!r}) * sin({la!r}))
        - (((x - 580.0 - (z % 37.0)) - {R_PP[0]!r}) * cos({ra!r})
           - ((y + (z % 11.0) - 5.0) - {R_PP[1]!r}) * sin({ra!r}))) AS p
  FROM pts),
ref AS (SELECT p AS refp FROM par ORDER BY rec_id LIMIT 1),
h AS (SELECT rec_id,
    CASE WHEN rec_id = (SELECT MIN(rec_id) FROM par) THEN 0.0
         ELSE {H!r} * (p - refp) / ({P!r} + (p - refp)) END AS hv
  FROM par CROSS JOIN ref),
m AS (SELECT SUM(hv) / COUNT(*) AS avg FROM h)
SELECT rec_id, round({G!r} + (hv - avg), 6) AS height
FROM h CROSS JOIN m
"""


# ---------------------------------------------------------------------------
# LocatePrincipalPoint (ImageProcessingTools/src/plugins/
# LocatePrincipalPoint.java:625-684, the 4-fiducial case): p2 = the
# mark FARTHEST from mark 0 (strict >, first max wins in scan order),
# the other two marks form the second diagonal, and the principal
# point is the determinant line intersection (:666-672). One photo =
# one group of 4 marks; thousands of photos = one stateless vectorized
# map (the per-record family) — the 8-mark branch adds the rotating
# MBB sweep the NNA query already exercises. Exact SQL oracle.
# ---------------------------------------------------------------------------


def _fiducials(x, y, z):
    """Deterministic 4 fiducial marks per photo: jittered rotated
    rectangle corners (k = 0..3: (−a,−b), (+a,−b), (+a,+b), (−a,+b))."""
    th = (z % 360.0) * (np.pi / 180.0)
    a = 30.0 + z % 20.0
    b = 15.0 + z % 10.0
    ct, st = np.cos(th), np.sin(th)
    cs = []
    signs = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    for k, (sa, sb) in enumerate(signs):
        jx = (z + k * 7.0) % 5.0 - 2.0
        jy = (z + k * 11.0) % 7.0 - 3.0
        cs.append((x + sa * a * ct - sb * b * st + jx,
                   y + sa * a * st + sb * b * ct + jy))
    return cs


def _pp_kernel(x, y, z):
    """Vectorized LocatePrincipalPoint.java:625-684 diagonal
    intersection for fiducials derived from (x, y, z)."""
    c = _fiducials(x, y, z)
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = c
    d1 = np.sqrt((x1 - x0) ** 2 + (y1 - y0) ** 2)
    d2 = np.sqrt((x2 - x0) ** 2 + (y2 - y0) ** 2)
    d3 = np.sqrt((x3 - x0) ** 2 + (y3 - y0) ** 2)
    # sequential strict-> scan: first max wins
    k = np.where((d3 > d1) & (d3 > d2), 3,
                 np.where(d2 > d1, 2, 1))
    p2x = np.choose(k - 1, [x1, x2, x3])
    p2y = np.choose(k - 1, [y1, y2, y3])
    p3x = np.choose(k - 1, [x2, x1, x1])
    p3y = np.choose(k - 1, [y2, y1, y1])
    p4x = np.choose(k - 1, [x3, x3, x2])
    p4y = np.choose(k - 1, [y3, y3, y2])
    den = (x0 - p2x) * (p3y - p4y) - (y0 - p2y) * (p3x - p4x)
    xn = (x0 * p2y - y0 * p2x) * (p3x - p4x) \
        - (x0 - p2x) * (p3x * p4y - p3y * p4x)
    yn = (x0 * p2y - y0 * p2x) * (p3y - p4y) \
        - (y0 - p2y) * (p3x * p4y - p3y * p4x)
    return xn / den, yn / den


def locate_principal_point(sf_dir: str, round_to: int = 6) -> pd.DataFrame:
    from .points import read_points

    def fn(batch):
        ppx, ppy = _pp_kernel(np.asarray(batch["x"], dtype=np.float64),
                              np.asarray(batch["y"], dtype=np.float64),
                              np.asarray(batch["z"], dtype=np.float64))
        return {"photo_id": np.asarray(batch["rec_id"], dtype=np.int64),
                "pp_x": np.round(ppx, round_to),
                "pp_y": np.round(ppy, round_to)}

    return read_points(sf_dir).map_batches(fn, batch_format="numpy")


def locate_principal_point_sql() -> str:
    from ..core.features import POINTS_CTE

    def corner(k, sa, sb):
        return (f"x + {sa} * a * ct - {sb} * b * st"
                f" + ((z + {k} * 7.0) % 5.0 - 2.0) AS x{k}, "
                f"y + {sa} * a * st + {sb} * b * ct"
                f" + ((z + {k} * 11.0) % 7.0 - 3.0) AS y{k}")

    corners = ",\n  ".join([corner(0, "-1.0", "-1.0"),
                            corner(1, "1.0", "-1.0"),
                            corner(2, "1.0", "1.0"),
                            corner(3, "-1.0", "1.0")])
    return f"""
WITH {POINTS_CTE},
g AS (SELECT rec_id, x, y, z,
      (z % 360.0) * (pi() / 180.0) AS th,
      30.0 + (z % 20.0) AS a, 15.0 + (z % 10.0) AS b FROM pts),
t AS (SELECT rec_id, x, y, z, a, b,
      cos(th) AS ct, sin(th) AS st FROM g),
c AS (SELECT rec_id,
  {corners}
FROM t),
d AS (SELECT *,
  sqrt((x1 - x0) * (x1 - x0) + (y1 - y0) * (y1 - y0)) AS d1,
  sqrt((x2 - x0) * (x2 - x0) + (y2 - y0) * (y2 - y0)) AS d2,
  sqrt((x3 - x0) * (x3 - x0) + (y3 - y0) * (y3 - y0)) AS d3
FROM c),
pick AS (SELECT *,
  CASE WHEN d3 > d1 AND d3 > d2 THEN 3
       WHEN d2 > d1 THEN 2 ELSE 1 END AS k FROM d),
lines AS (SELECT rec_id, x0, y0,
  CASE k WHEN 3 THEN x3 WHEN 2 THEN x2 ELSE x1 END AS p2x,
  CASE k WHEN 3 THEN y3 WHEN 2 THEN y2 ELSE y1 END AS p2y,
  CASE k WHEN 3 THEN x1 WHEN 2 THEN x1 ELSE x2 END AS p3x,
  CASE k WHEN 3 THEN y1 WHEN 2 THEN y1 ELSE y2 END AS p3y,
  CASE k WHEN 3 THEN x2 WHEN 2 THEN x3 ELSE x3 END AS p4x,
  CASE k WHEN 3 THEN y2 WHEN 2 THEN y3 ELSE y3 END AS p4y
FROM pick)
SELECT rec_id AS photo_id,
  round(((x0 * p2y - y0 * p2x) * (p3x - p4x)
         - (x0 - p2x) * (p3x * p4y - p3y * p4x))
        / ((x0 - p2x) * (p3y - p4y) - (y0 - p2y) * (p3x - p4x)), 6)
    AS pp_x,
  round(((x0 * p2y - y0 * p2x) * (p3y - p4y)
         - (y0 - p2y) * (p3x * p4y - p3y * p4x))
        / ((x0 - p2x) * (p3y - p4y) - (y0 - p2y) * (p3x - p4x)), 6)
    AS pp_y
FROM lines
"""


# ---------------------------------------------------------------------------
# ImageRectification (ImageProcessingTools/src/plugins/
# ImageRectificationPanel.java:449-528): first-order (affine) GCP fit —
# all four coordinate arrays are MIN-SHIFTED first (:465-470), the
# basis enumerates j=0..order, k=0..order−j → [1, y, x] (:476-481),
# each map axis is solved by least squares, and R² uses the literal
# population-variance formula varianceX = (SSx − sumX²/n)/n,
# SStotal = (n−1)·variance (:508-516). DOCUMENTED SUBSTITUTION: the
# panel's QR solver is replaced by Cramer on the normal equations (the
# trend_surface rule — deterministic, same solution); the impl and the
# SQL oracle share the identical cofactor expressions so the floats
# match bit-for-bit. The apply step (resample by the fitted transform)
# is the `raster_resample` gather plan.
# ---------------------------------------------------------------------------


def _cramer3(n, s1, s2, s11, s22, s12, t0, t1, t2):
    """Solve [[n,s1,s2],[s1,s11,s12],[s2,s12,s22]]·c = [t0,t1,t2] by the
    same cofactor expansion the SQL oracle writes."""
    det0 = (n * (s11 * s22 - s12 * s12) - s1 * (s1 * s22 - s12 * s2)
            + s2 * (s1 * s12 - s11 * s2))
    det_a = (t0 * (s11 * s22 - s12 * s12) - s1 * (t1 * s22 - s12 * t2)
             + s2 * (t1 * s12 - s11 * t2))
    det_b = (n * (t1 * s22 - t2 * s12) - t0 * (s1 * s22 - s12 * s2)
             + s2 * (s1 * t2 - t1 * s2))
    det_c = (n * (s11 * t2 - s12 * t1) - s1 * (s1 * t2 - t1 * s2)
             + t0 * (s1 * s12 - s11 * s2))
    return det_a / det0, det_b / det0, det_c / det0


def image_rectification_fit(sf_dir: str, round_to: int = 6) -> pd.DataFrame:
    from .points import read_points

    pts = read_points(sf_dir)

    def extremes(batch):
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        z = np.asarray(batch["z"], dtype=np.float64)
        mx = 1.2 * x + 0.3 * y + 50.0 + (z % 7.0 - 3.0)
        my = -0.2 * x + 0.9 * y + 20.0 + (z % 5.0 - 2.0)
        return {"ixmin": [x.min()], "iymin": [y.min()],
                "mxmin": [mx.min()], "mymin": [my.min()]}

    e = pts.map_batches(extremes, batch_format="numpy").to_pandas()
    if len(e) == 0:         # empty table -> typed empty fit
        return pd.DataFrame()
    ixmin, iymin = float(e["ixmin"].min()), float(e["iymin"].min())
    mxmin, mymin = float(e["mxmin"].min()), float(e["mymin"].min())

    def moments(batch):
        x = np.asarray(batch["x"], dtype=np.float64) - ixmin
        y = np.asarray(batch["y"], dtype=np.float64) - iymin
        z = np.asarray(batch["z"], dtype=np.float64)
        x0 = np.asarray(batch["x"], dtype=np.float64)
        y0 = np.asarray(batch["y"], dtype=np.float64)
        X = 1.2 * x0 + 0.3 * y0 + 50.0 + (z % 7.0 - 3.0) - mxmin
        Y = -0.2 * x0 + 0.9 * y0 + 20.0 + (z % 5.0 - 2.0) - mymin
        return {"n": [float(len(x))],
                "sy": [y.sum()], "sx": [x.sum()],
                "syy": [(y * y).sum()], "sxx": [(x * x).sum()],
                "sxy": [(y * x).sum()],
                "sX": [X.sum()], "syX": [(y * X).sum()],
                "sxX": [(x * X).sum()], "sXX": [(X * X).sum()],
                "sY": [Y.sum()], "syY": [(y * Y).sum()],
                "sxY": [(x * Y).sum()], "sYY": [(Y * Y).sum()]}

    m = pts.map_batches(moments, batch_format="numpy").to_pandas().sum()
    n = m["n"]
    out = {}
    for tgt in ("X", "Y"):
        c0, cy, cx = _cramer3(n, m["sy"], m["sx"], m["syy"], m["sxx"],
                              m["sxy"], m[f"s{tgt}"], m[f"sy{tgt}"],
                              m[f"sx{tgt}"])
        ssresid = (m[f"s{tgt}{tgt}"]
                   - 2 * (c0 * m[f"s{tgt}"] + cy * m[f"sy{tgt}"]
                          + cx * m[f"sx{tgt}"])
                   + (c0 * c0 * n + cy * cy * m["syy"] + cx * cx * m["sxx"]
                      + 2 * c0 * cy * m["sy"] + 2 * c0 * cx * m["sx"]
                      + 2 * cy * cx * m["sxy"]))
        variance = (m[f"s{tgt}{tgt}"] - m[f"s{tgt}"] * m[f"s{tgt}"] / n) / n
        sstotal = (n - 1) * variance
        out[f"c0_{tgt.lower()}"] = round(float(c0), round_to)
        out[f"cy_{tgt.lower()}"] = round(float(cy), round_to)
        out[f"cx_{tgt.lower()}"] = round(float(cx), round_to)
        out[f"rsq_{tgt.lower()}"] = round(float(1.0 - ssresid / sstotal),
                                          round_to)
    return pd.DataFrame({k: [v] for k, v in out.items()})


def image_rectification_sql() -> str:
    from ..core.features import POINTS_CTE
    # NOTE: DuckDB identifiers are case-insensitive — map-side moments
    # use a t-prefix so they cannot collide with the image-side ones.
    return f"""
WITH {POINTS_CTE},
raw AS (SELECT x AS x0, y AS y0, z,
    1.2 * x + 0.3 * y + 50.0 + (z % 7.0 - 3.0) AS mx,
    -0.2 * x + 0.9 * y + 20.0 + (z % 5.0 - 2.0) AS my
  FROM pts),
mins AS (SELECT MIN(x0) AS ixmin, MIN(y0) AS iymin,
                MIN(mx) AS mxmin, MIN(my) AS mymin FROM raw),
sh AS (SELECT x0 - ixmin AS x, y0 - iymin AS y,
              mx - mxmin AS tx, my - mymin AS ty
       FROM raw CROSS JOIN mins),
m AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n,
    SUM(y) AS sy, SUM(x) AS sx, SUM(y*y) AS syy, SUM(x*x) AS sxx,
    SUM(y*x) AS sxy,
    SUM(tx) AS t0x, SUM(y*tx) AS t1x, SUM(x*tx) AS t2x,
    SUM(tx*tx) AS ttx,
    SUM(ty) AS t0y, SUM(y*ty) AS t1y, SUM(x*ty) AS t2y,
    SUM(ty*ty) AS tty
  FROM sh),
d AS (SELECT m.*,
  n*(syy*sxx - sxy*sxy) - sy*(sy*sxx - sxy*sx) + sx*(sy*sxy - syy*sx)
    AS d0,
  t0x*(syy*sxx - sxy*sxy) - sy*(t1x*sxx - sxy*t2x)
    + sx*(t1x*sxy - syy*t2x) AS da_x,
  n*(t1x*sxx - t2x*sxy) - t0x*(sy*sxx - sxy*sx) + sx*(sy*t2x - t1x*sx)
    AS db_x,
  n*(syy*t2x - sxy*t1x) - sy*(sy*t2x - t1x*sx) + t0x*(sy*sxy - syy*sx)
    AS dc_x,
  t0y*(syy*sxx - sxy*sxy) - sy*(t1y*sxx - sxy*t2y)
    + sx*(t1y*sxy - syy*t2y) AS da_y,
  n*(t1y*sxx - t2y*sxy) - t0y*(sy*sxx - sxy*sx) + sx*(sy*t2y - t1y*sx)
    AS db_y,
  n*(syy*t2y - sxy*t1y) - sy*(sy*t2y - t1y*sx) + t0y*(sy*sxy - syy*sx)
    AS dc_y
  FROM m),
c AS (SELECT d.*,
  da_x / d0 AS c0x, db_x / d0 AS cyx, dc_x / d0 AS cxx,
  da_y / d0 AS c0y, db_y / d0 AS cyy, dc_y / d0 AS cxy
  FROM d)
SELECT
  round(c0x, 6) AS c0_x, round(cyx, 6) AS cy_x, round(cxx, 6) AS cx_x,
  round(1.0 - (ttx - 2*(c0x*t0x + cyx*t1x + cxx*t2x)
        + (c0x*c0x*n + cyx*cyx*syy + cxx*cxx*sxx
           + 2*c0x*cyx*sy + 2*c0x*cxx*sx + 2*cyx*cxx*sxy))
        / ((n - 1) * ((ttx - t0x*t0x/n) / n)), 6) AS rsq_x,
  round(c0y, 6) AS c0_y, round(cyy, 6) AS cy_y, round(cxy, 6) AS cx_y,
  round(1.0 - (tty - 2*(c0y*t0y + cyy*t1y + cxy*t2y)
        + (c0y*c0y*n + cyy*cyy*syy + cxy*cxy*sxx
           + 2*c0y*cyy*sy + 2*c0y*cxy*sx + 2*cyy*cxy*sxy))
        / ((n - 1) * ((tty - t0y*t0y/n) / n)), 6) AS rsq_y
FROM c
"""


# ---------------------------------------------------------------------------
# SURFPixelMatching / FindTiePoints matching step — the literal
# InterestPointMatcher rule (jopensurf/InterestPointMatcher.java:43-87):
# for each left point, among right points with the SAME Laplacian sign,
# find the nearest and second-nearest by Euclidean descriptor distance
# (SURFInterestPoint.java:122-132, first-wins on strict <); accept when
# d1/d2 <= matchThreshold (Surf.java clamps to [0.05, 0.99],
# :369-373); then the SYMMETRY check: the nearest left point to the
# matched right point (same Laplacian filter) must be the probe itself
# (:63-82).  Descriptor sets = the embeddings table (64-dim float), left
# = even vec_id, right = odd vec_id, Laplacian = label % 2.  Random
# descriptors put every d1/d2 above 0.87, so the dialog default 0.6
# would match nothing; 0.95 (inside the clamp range) is used.
#
# Ray plan: the right side and the left matrix are SMALL broadcast
# state (ray.put once); the left table streams through one stateless
# map_batches that computes the full rule vectorized (the reference
# fans exactly this loop out over a thread pool, Surf.java:387-397).
# At scale the symmetric probe becomes a second keyed join on the
# candidate pairs; here both matrices fit the broadcast budget.
# ---------------------------------------------------------------------------

SURF_MATCH_THRESHOLD = 0.95


def _emb_sides(sf_dir: str):
    """Driver-side load of both descriptor sets (small broadcast side)."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding", "label"])
    df = t.to_pandas()
    # null embedding/label rows carry no descriptor geometry — drop
    # (the shared dirty-shard rule)
    df = df[df["embedding"].notna() & df["label"].notna()]
    ids = df["vec_id"].to_numpy()
    lap = (df["label"].to_numpy().astype(np.int64) % 2).astype(np.int64)
    mat = np.asarray([np.asarray(e, dtype=np.float64)
                      for e in df["embedding"]])
    order = np.argsort(ids, kind="stable")
    ids, lap, mat = ids[order], lap[order], mat[order]
    left = ids % 2 == 0
    return ((ids[left], lap[left], mat[left]),
            (ids[~left], lap[~left], mat[~left]))


def surf_match_points(sf_dir: str,
                      threshold: float = SURF_MATCH_THRESHOLD,
                      round_to: int = 6) -> pd.DataFrame:
    import ray
    import ray.data as rd

    (lid, llap, lmat), (rid, rlap, rmat) = _emb_sides(sf_dir)
    if len(lid) == 0 or len(rid) == 0:   # empty table -> no matches
        return pd.DataFrame({"left_id": pd.Series([], dtype="int64"),
                             "right_id": pd.Series([], dtype="int64"),
                             "dist": pd.Series([], dtype="float64")})
    ref = ray.put((lid, llap, lmat, rid, rlap, rmat))

    def match(batch):
        lid, llap, lmat, rid, rlap, rmat = ray.get(ref)
        bl = np.asarray(batch["i"], dtype=np.int64)       # left row indices
        L = lmat[bl]
        # pairwise distances, different-Laplacian masked to +inf
        d = np.sqrt(((L[:, None, :] - rmat[None, :, :]) ** 2).sum(axis=2))
        d[llap[bl][:, None] != rlap[None, :]] = np.inf
        j1 = np.argmin(d, axis=1)                          # first-wins
        d1 = d[np.arange(len(bl)), j1]
        dp = np.partition(d, 1, axis=1)
        d2 = dp[:, 1]                                      # second smallest
        ok = d1 / d2 <= threshold
        if not ok.any():
            return {"left_id": np.empty(0, np.int64),
                    "right_id": np.empty(0, np.int64),
                    "dist": np.empty(0, np.float64)}
        bl, j1, d1 = bl[ok], j1[ok], d1[ok]
        # symmetric probe: nearest LEFT point to the matched right point,
        # filtered by the probe's Laplacian (== the right point's)
        ds = np.sqrt(((rmat[j1][:, None, :] - lmat[None, :, :]) ** 2)
                     .sum(axis=2))
        ds[llap[bl][:, None] != llap[None, :]] = np.inf
        sym = np.argmin(ds, axis=1) == bl
        return {"left_id": lid[bl[sym]], "right_id": rid[j1[sym]],
                "dist": np.round(d1[sym], round_to)}

    left_idx = rd.from_items([{"i": int(i)} for i in range(len(lid))])
    return (left_idx.map_batches(match, batch_format="numpy")
            .to_pandas().sort_values("left_id").reset_index(drop=True))


def surf_match_points_sql(threshold: float = SURF_MATCH_THRESHOLD) -> str:
    return f"""
WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v,
                  label % 2 AS lap FROM embeddings
           WHERE embedding IS NOT NULL AND label IS NOT NULL),
l AS (SELECT * FROM e WHERE vec_id % 2 = 0),
r AS (SELECT * FROM e WHERE vec_id % 2 = 1),
d AS (SELECT l.vec_id AS lid, r.vec_id AS rid, l.lap,
             list_distance(l.v, r.v) AS dist
      FROM l JOIN r ON l.lap = r.lap),
rk AS (SELECT *, row_number() OVER
         (PARTITION BY lid ORDER BY dist, rid) AS rn FROM d),
cand AS (SELECT a.lid, a.rid, a.dist AS d1
         FROM rk a JOIN rk b ON a.lid = b.lid AND a.rn = 1 AND b.rn = 2
         WHERE a.dist / b.dist <= {threshold!r}),
sym AS (SELECT rid, lid, row_number() OVER
          (PARTITION BY rid ORDER BY dist, lid) AS srn FROM d)
SELECT c.lid AS left_id, c.rid AS right_id, round(c.d1, 6) AS dist
FROM cand c JOIN sym s ON s.rid = c.rid AND s.lid = c.lid AND s.srn = 1
ORDER BY left_id
"""


# ---------------------------------------------------------------------------
# FindTiePoints (WhiteboxGIS/resources/plugins/Scripts/
# FindTiePoints.groovy:193-229): iterative outlier trim — fit a
# first-order PolynomialLeastSquares2DFitting on the consensus set
# (basis [1, y, x], NO min-shift: the shift block ships commented out,
# PolynomialLeastSquares2DFitting.java:203-208), residual_i =
# sqrt(residX² + residY²) (:275-276), remove the point with the
# greatest residual (strict >, first max wins, :215-220) while
# maxError > ransacThreshold.  The live RANSAC loop ships commented out
# (:231-294) — THIS deterministic trim is the tool's actual behaviour.
#
# Tie-point pairs are derived deterministically from the documents
# points: right = affine(left) + bounded jitter from n_chars; rec_id 0
# carries one gross outlier, so the loop removes exactly one point and
# the whole run unrolls to TWO fits — giving an EXACT SQL oracle that
# shares the _cramer3 cofactor text (the documented Cramer-for-SVD
# substitution, identical to image_rectification_fit's).  The Ray side
# runs the GENERAL loop: per-iteration partial-moments pass + driver
# Cramer fit + distributed residual argmax (first-wins by rec_id).
# ---------------------------------------------------------------------------

TIE_THRESHOLD = 2.0


def _epi_pair(x, y, z):
    """Deterministic right-image coordinates for a left point
    (clean affine + bounded jitter, no outliers)."""
    jx = (z % 19.0) / 10.0 - 0.9
    jy = (z % 23.0) / 20.0 - 0.55
    return (0.8 * x + 0.1 * y + 30.0 + jx,
            -0.15 * x + 1.05 * y - 12.0 + jy)


def _tie_right(x, y, z, rec):
    """Clean pair + one gross outlier at rec_id 0."""
    tx, ty = _epi_pair(x, y, z)
    return (tx + np.where(rec == 0, 300.0, 0.0),
            ty + np.where(rec == 0, -250.0, 0.0))


def find_tie_points(sf_dir: str, threshold: float = TIE_THRESHOLD,
                    round_to: int = 6) -> pd.DataFrame:
    from .points import read_points

    pts = read_points(sf_dir)
    removed: set[int] = set()

    def moments(batch, removed=frozenset()):
        rec = np.asarray(batch["rec_id"], dtype=np.int64)
        keep = ~np.isin(rec, np.fromiter(removed, dtype=np.int64,
                                         count=len(removed)))
        x = np.asarray(batch["x"], dtype=np.float64)[keep]
        y = np.asarray(batch["y"], dtype=np.float64)[keep]
        z = np.asarray(batch["z"], dtype=np.float64)[keep]
        tx, ty = _tie_right(x, y, z, rec[keep])
        return {"n": [float(len(x))], "sy": [y.sum()], "sx": [x.sum()],
                "syy": [(y * y).sum()], "sxx": [(x * x).sum()],
                "sxy": [(y * x).sum()],
                "t0x": [tx.sum()], "t1x": [(y * tx).sum()],
                "t2x": [(x * tx).sum()],
                "t0y": [ty.sum()], "t1y": [(y * ty).sum()],
                "t2y": [(x * ty).sum()]}

    def residuals(batch, fit=None, removed=frozenset()):
        (c0x, cyx, cxx), (c0y, cyy, cxy) = fit
        rec = np.asarray(batch["rec_id"], dtype=np.int64)
        keep = ~np.isin(rec, np.fromiter(removed, dtype=np.int64,
                                         count=len(removed)))
        rec = rec[keep]
        x = np.asarray(batch["x"], dtype=np.float64)[keep]
        y = np.asarray(batch["y"], dtype=np.float64)[keep]
        z = np.asarray(batch["z"], dtype=np.float64)[keep]
        tx, ty = _tie_right(x, y, z, rec)
        rx = tx - (c0x + cyx * y + cxx * x)
        ry = ty - (c0y + cyy * y + cxy * x)
        return {"rec_id": rec, "resid": np.sqrt(rx * rx + ry * ry)}

    import functools
    while True:
        mdf = pts.map_batches(functools.partial(moments,
                                                removed=frozenset(removed)),
                              batch_format="numpy").to_pandas()
        if len(mdf) == 0:   # empty table -> typed empty residuals
            return pd.DataFrame({"rec_id": pd.Series([], dtype="int64"),
                                 "resid": pd.Series([], dtype="float64")})
        m = mdf.sum()
        fit = tuple(
            _cramer3(m["n"], m["sy"], m["sx"], m["syy"], m["sxx"], m["sxy"],
                     m[f"t0{t}"], m[f"t1{t}"], m[f"t2{t}"])
            for t in ("x", "y"))
        res = (pts.map_batches(
            functools.partial(residuals, fit=fit,
                              removed=frozenset(removed)),
            batch_format="numpy").to_pandas())
        res = res.sort_values("rec_id").reset_index(drop=True)
        worst = res.sort_values(["resid", "rec_id"],
                                ascending=[False, True]).iloc[0]
        if float(worst["resid"]) > threshold:
            removed.add(int(worst["rec_id"]))     # first-max-wins removal
            continue
        res["resid"] = np.round(res["resid"], round_to)
        return res


def _cramer3_sql(src: str, pre: str) -> str:
    """Moments + Cramer cofactor SQL for a first-order fit over ``src``
    (columns x, y, tx, ty) — the SAME cofactor text _cramer3 computes."""
    return f"""
{pre}m AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n,
    SUM(y) AS sy, SUM(x) AS sx, SUM(y*y) AS syy, SUM(x*x) AS sxx,
    SUM(y*x) AS sxy,
    SUM(tx) AS t0x, SUM(y*tx) AS t1x, SUM(x*tx) AS t2x,
    SUM(ty) AS t0y, SUM(y*ty) AS t1y, SUM(x*ty) AS t2y
  FROM {src}),
{pre}c AS (SELECT
  (t0x*(syy*sxx - sxy*sxy) - sy*(t1x*sxx - sxy*t2x)
     + sx*(t1x*sxy - syy*t2x))
  / (n*(syy*sxx - sxy*sxy) - sy*(sy*sxx - sxy*sx) + sx*(sy*sxy - syy*sx))
    AS c0x,
  (n*(t1x*sxx - t2x*sxy) - t0x*(sy*sxx - sxy*sx) + sx*(sy*t2x - t1x*sx))
  / (n*(syy*sxx - sxy*sxy) - sy*(sy*sxx - sxy*sx) + sx*(sy*sxy - syy*sx))
    AS cyx,
  (n*(syy*t2x - sxy*t1x) - sy*(sy*t2x - t1x*sx) + t0x*(sy*sxy - syy*sx))
  / (n*(syy*sxx - sxy*sxy) - sy*(sy*sxx - sxy*sx) + sx*(sy*sxy - syy*sx))
    AS cxx,
  (t0y*(syy*sxx - sxy*sxy) - sy*(t1y*sxx - sxy*t2y)
     + sx*(t1y*sxy - syy*t2y))
  / (n*(syy*sxx - sxy*sxy) - sy*(sy*sxx - sxy*sx) + sx*(sy*sxy - syy*sx))
    AS c0y,
  (n*(t1y*sxx - t2y*sxy) - t0y*(sy*sxx - sxy*sx) + sx*(sy*t2y - t1y*sx))
  / (n*(syy*sxx - sxy*sxy) - sy*(sy*sxx - sxy*sx) + sx*(sy*sxy - syy*sx))
    AS cyy,
  (n*(syy*t2y - sxy*t1y) - sy*(sy*t2y - t1y*sx) + t0y*(sy*sxy - syy*sx))
  / (n*(syy*sxx - sxy*sxy) - sy*(sy*sxx - sxy*sx) + sx*(sy*sxy - syy*sx))
    AS cxy
  FROM {pre}m)"""


def find_tie_points_sql(threshold: float = TIE_THRESHOLD) -> str:
    from ..core.features import POINTS_CTE

    pair = ("0.8*x + 0.1*y + 30.0 + ((z % 19.0) / 10.0 - 0.9)"
            " + CASE WHEN rec_id = 0 THEN 300.0 ELSE 0.0 END AS tx, "
            "-0.15*x + 1.05*y - 12.0 + ((z % 23.0) / 20.0 - 0.55)"
            " + CASE WHEN rec_id = 0 THEN -250.0 ELSE 0.0 END AS ty")
    return f"""
WITH {POINTS_CTE},
pr AS (SELECT rec_id, x, y, {pair} FROM pts),
{_cramer3_sql('pr', 'f1')},
r1 AS (SELECT rec_id,
         sqrt((tx - (c0x + cyx*y + cxx*x)) * (tx - (c0x + cyx*y + cxx*x))
            + (ty - (c0y + cyy*y + cxy*x)) * (ty - (c0y + cyy*y + cxy*x)))
           AS resid
       FROM pr CROSS JOIN f1c),
out1 AS (SELECT rec_id FROM r1 ORDER BY resid DESC, rec_id ASC LIMIT 1),
pr2 AS (SELECT * FROM pr WHERE rec_id != (SELECT rec_id FROM out1)),
{_cramer3_sql('pr2', 'f2')}
SELECT rec_id,
  round(sqrt((tx - (c0x + cyx*y + cxx*x)) * (tx - (c0x + cyx*y + cxx*x))
           + (ty - (c0y + cyy*y + cxy*x)) * (ty - (c0y + cyy*y + cxy*x))),
        6) AS resid
FROM pr2 CROSS JOIN f2c
ORDER BY rec_id
"""


# ---------------------------------------------------------------------------
# TransformToEpipolarGeometry (Photogrammetry/src/plugins/
# TransformToEpipolarGeometry.java, the LIVE path — the SURF/integral-
# image block ships commented out :550-700):
#   1. first-order PLS fit on the tie-point pairs, FORWARD (right ~
#      left) and BACKWARD (left ~ right; both are their own
#      least-squares fits, :170-171 + PolynomialLeastSquares2DFitting
#      .java:308-338 — the backward fit is NOT the inverse matrix);
#   2. principal points from each photo's fiducials (findPrincipalPoint
#      == the LocatePrincipalPoint diagonal intersection);
#      leftCPP = backward(rightPP) (:181) and the flight-line angle
#      θ = −atan2(leftCPP.y − leftPP.y, leftCPP.x − leftPP.x) about
#      centre = leftPP (:224-226);
#   3. output extents: the four input-extent corners rotated by θ about
#      the centre WITHOUT translating back (:265-336); the right
#      image's corners are backward-transformed first (:388-462);
#      nRows/nCols = (int)round(range / LEFT cell size) (:339-340,
#      :464-466 — "the cell resolution should match the left image");
#   4. per output cell: inverse-rotate (newX = cx + x·cos(−θ) −
#      y·sin(−θ), :354-355/:481-482), for the right image apply the
#      forward fit (:484), then the Math.round cell-centre gather
#      (getRowFromYCoordinate / getColumnFromXCoordinate,
#      WhiteboxRasterBase.java:1822-1841), off-grid → NoData.
#
# Left image = the synthetic world-extent raster (synth_value), right
# image = the second band (synth_value_b); tie points = the clean
# affine pair over the documents points; fiducial-derived PPs are
# driver-computed constants inlined into the oracle (the zone-layer
# rule).  Ray plan: ONE moments pass fits both models; the two output
# grids generate as independent row-band tasks emitting per-row
# checksums directly (full-width bands → no shuffle at all).  EXACT
# double-fit SQL oracle over a generate-series grid.
# ---------------------------------------------------------------------------

L_PHOTO = (2000.0, 2000.0, 123.0)
R_PHOTO = (2100.0, 1950.0, 287.0)
EPI_ROWS = 256
EPI_COLS = 256


def _epi_consts():
    from ..core.rng import EAST, NORTH, SOUTH, WEST

    csx = (EAST - WEST) / EPI_COLS
    csy = (NORTH - SOUTH) / EPI_ROWS
    lpp = _pp_kernel(np.array([L_PHOTO[0]]), np.array([L_PHOTO[1]]),
                     np.array([L_PHOTO[2]]))
    rpp = _pp_kernel(np.array([R_PHOTO[0]]), np.array([R_PHOTO[1]]),
                     np.array([R_PHOTO[2]]))
    return (WEST, SOUTH, EAST, NORTH, csx, csy,
            float(lpp[0][0]), float(lpp[1][0]),
            float(rpp[0][0]), float(rpp[1][0]))


def epipolar_transform(sf_dir: str, round_to: int = 6) -> "pd.DataFrame":
    import ray.data as rd

    from .points import read_points
    from .raster import synth_value
    from .raster_stats import synth_value_b

    W, S, E, N, csx, csy, lppx, lppy, rppx, rppy = _epi_consts()
    ewr = E - W - csx
    nsr = N - S - csy
    pts = read_points(sf_dir)

    def moments(batch):
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        z = np.asarray(batch["z"], dtype=np.float64)
        tx, ty = _epi_pair(x, y, z)
        out = {"n": [float(len(x))]}
        for p, (bx, by, u, v) in (("f", (x, y, tx, ty)),
                                  ("b", (tx, ty, x, y))):
            out.update({
                f"{p}sy": [by.sum()], f"{p}sx": [bx.sum()],
                f"{p}syy": [(by * by).sum()], f"{p}sxx": [(bx * bx).sum()],
                f"{p}sxy": [(by * bx).sum()],
                f"{p}t0x": [u.sum()], f"{p}t1x": [(by * u).sum()],
                f"{p}t2x": [(bx * u).sum()],
                f"{p}t0y": [v.sum()], f"{p}t1y": [(by * v).sum()],
                f"{p}t2y": [(bx * v).sum()]})
        return out

    mdf = pts.map_batches(moments, batch_format="numpy").to_pandas()
    if len(mdf) == 0:       # empty table -> typed empty bands
        return pd.DataFrame({"img": pd.Series([], dtype="object"),
                             "row_id": pd.Series([], dtype="int64"),
                             "n_valid": pd.Series([], dtype="int64"),
                             "row_sum": pd.Series([], dtype="float64")})
    m = mdf.sum()
    fits = {}
    for p in ("f", "b"):
        for t in ("x", "y"):
            fits[p + t] = _cramer3(
                m["n"], m[f"{p}sy"], m[f"{p}sx"], m[f"{p}syy"],
                m[f"{p}sxx"], m[f"{p}sxy"], m[f"{p}t0{t}"],
                m[f"{p}t1{t}"], m[f"{p}t2{t}"])

    def apply_fit(f, px, py):       # basis [1, y, x]
        return f[0] + f[1] * py + f[2] * px

    lcppx = apply_fit(fits["bx"], rppx, rppy)
    lcppy = apply_fit(fits["by"], rppx, rppy)
    theta = -np.arctan2(lcppy - lppy, lcppx - lppx)
    ct, st = np.cos(theta), np.sin(theta)
    cti, sti = np.cos(-theta), np.sin(-theta)

    def rot(x, y):
        return ((x - lppx) * ct - (y - lppy) * st,
                (x - lppx) * st + (y - lppy) * ct)

    def out_header(corners):
        rx, ry = zip(*(rot(x, y) for x, y in corners))
        nn, ns = max(ry), min(ry)
        ne, nw = max(rx), min(rx)
        nr = int(np.floor((nn - ns) / csy + 0.5))
        nc = int(np.floor((ne - nw) / csx + 0.5))
        return nn, ns, ne, nw, nr, nc, (nn - ns) / nr, (ne - nw) / nc

    corners = [(E, N), (E, S), (W, N), (W, S)]
    hdr_l = out_header(corners)
    hdr_r = out_header([(apply_fit(fits["bx"], x, y),
                         apply_fit(fits["by"], x, y)) for x, y in corners])
    for hdr in (hdr_l, hdr_r):
        if hdr[4] >= 768 or hdr[5] >= 768:      # oracle grid_cap
            raise ValueError(f"output grid {hdr[4]}x{hdr[5]} exceeds the "
                             "SQL oracle's generate-series cap (768)")

    band_rows = 64

    def make_gen(img, hdr, forward, synth):
        nn, ns, ne, nw, nr, nc, ocy, ocx = hdr

        def gen(batch):
            out = {"img": [], "row_id": [], "n_valid": [], "row_sum": []}
            col = np.arange(nc, dtype=np.float64)
            xo = nw + ocx / 2.0 + col * ocx
            for bid in batch["id"]:
                r0 = int(bid) * band_rows
                r1 = min(r0 + band_rows, nr)
                for row in range(r0, r1):
                    yo = nn - ocy / 2.0 - row * ocy
                    gx = lppx + xo * cti - yo * sti
                    gy = lppy + xo * sti + yo * cti
                    if forward:
                        px = apply_fit(fits["fx"], gx, gy)
                        py = apply_fit(fits["fy"], gx, gy)
                    else:
                        px, py = gx, gy
                    c = np.floor((EPI_COLS - 1) * (px - W - csx / 2.0)
                                 / ewr + 0.5).astype(np.int64)
                    r = np.floor((EPI_ROWS - 1) * (N - csy / 2.0 - py)
                                 / nsr + 0.5).astype(np.int64)
                    ok = (c >= 0) & (c < EPI_COLS) & (r >= 0) & (r < EPI_ROWS)
                    z = synth(np.where(ok, r * EPI_COLS + c, 0))
                    z = np.where(ok, z, NODATA_EPI)
                    valid = z != NODATA_EPI
                    out["img"].append(img)
                    out["row_id"].append(row)
                    out["n_valid"].append(int(valid.sum()))
                    out["row_sum"].append(
                        round(float(np.where(valid, z, 0.0).sum()),
                              round_to))
            return pd.DataFrame(out)

        n_bands = (nr + band_rows - 1) // band_rows
        return rd.range(n_bands).map_batches(gen, batch_format="numpy")

    ds = make_gen("left", hdr_l, False, synth_value).union(
        make_gen("right", hdr_r, True, synth_value_b))
    return (ds.to_pandas().sort_values(["img", "row_id"])
            .reset_index(drop=True))


NODATA_EPI = -32768.0


def epipolar_transform_sql(grid_cap: int = 768) -> str:
    from ..core.features import POINTS_CTE

    W, S, E, N, csx, csy, lppx, lppy, rppx, rppy = _epi_consts()
    ewr = E - W - csx
    nsr = N - S - csy
    pair = ("0.8*x + 0.1*y + 30.0 + ((z % 19.0) / 10.0 - 0.9) AS tx, "
            "-0.15*x + 1.05*y - 12.0 + ((z % 23.0) / 20.0 - 0.55) AS ty")

    def corners_values(bw: bool):
        # the four extent corners, backward-transformed for the right img
        cs = [(E, N), (E, S), (W, N), (W, S)]
        if not bw:
            return ", ".join(f"({x!r}, {y!r})" for x, y in cs)
        return ", ".join(
            f"((SELECT c0x + cyx*{y!r} + cxx*{x!r} FROM bc), "
            f"(SELECT c0y + cyy*{y!r} + cxy*{x!r} FROM bc))"
            for x, y in cs)

    def hdr_cte(name, bw):
        return f"""
{name}0(x, y) AS (VALUES {corners_values(bw)}),
{name}1 AS (SELECT (x - {lppx!r}) * cos(theta) - (y - {lppy!r}) * sin(theta)
              AS rx,
            (x - {lppx!r}) * sin(theta) + (y - {lppy!r}) * cos(theta)
              AS ry
            FROM {name}0 CROSS JOIN ang),
{name} AS (SELECT MAX(ry) AS nn, MIN(ry) AS ns, MAX(rx) AS ne,
                  MIN(rx) AS nw,
           CAST(floor((MAX(ry) - MIN(ry)) / {csy!r} + 0.5) AS BIGINT) AS nr,
           CAST(floor((MAX(rx) - MIN(rx)) / {csx!r} + 0.5) AS BIGINT) AS nc,
           (MAX(ry) - MIN(ry))
             / CAST(floor((MAX(ry) - MIN(ry)) / {csy!r} + 0.5) AS BIGINT)
             AS ocy,
           (MAX(rx) - MIN(rx))
             / CAST(floor((MAX(rx) - MIN(rx)) / {csx!r} + 0.5) AS BIGINT)
             AS ocx
           FROM {name}1)"""

    def img_cte(img, hdr, forward, synth_case):
        probe = ("fc.c0x + fc.cyx*gy + fc.cxx*gx",
                 "fc.c0y + fc.cyy*gy + fc.cxy*gx") if forward else \
                ("gx", "gy")
        return f"""
{img}g AS (SELECT r.range AS row, c.range AS col,
             {hdr}.nw + {hdr}.ocx / 2.0 + c.range * {hdr}.ocx AS xo,
             {hdr}.nn - {hdr}.ocy / 2.0 - r.range * {hdr}.ocy AS yo
           FROM range({grid_cap}) r CROSS JOIN range({grid_cap}) c
                CROSS JOIN {hdr}
           WHERE r.range < {hdr}.nr AND c.range < {hdr}.nc),
{img}p AS (SELECT row, col,
             {lppx!r} + xo * cos(-theta) - yo * sin(-theta) AS gx,
             {lppy!r} + xo * sin(-theta) + yo * cos(-theta) AS gy
           FROM {img}g CROSS JOIN ang),
{img}rc AS (SELECT row, col,
  CAST(floor(({EPI_COLS} - 1) * (({probe[0]}) - {W!r} - {csx / 2.0!r})
             / {ewr!r} + 0.5) AS BIGINT) AS c,
  CAST(floor(({EPI_ROWS} - 1) * ({N - csy / 2.0!r} - ({probe[1]}))
             / {nsr!r} + 0.5) AS BIGINT) AS r
  FROM {img}p CROSS JOIN fc),
{img}z AS (SELECT row,
  CASE WHEN c >= 0 AND c < {EPI_COLS} AND r >= 0 AND r < {EPI_ROWS}
  THEN ({synth_case}) ELSE -32768.0 END AS z
  FROM {img}rc)"""

    synth_l = ("CASE WHEN (((r * 256 + c) * 2246822519 + 1013904223)"
               " % 4294967296) % 17 = 0 THEN -32768.0"
               " ELSE (((r * 256 + c) * 2654435761) % 4294967296)"
               " / 4294967296.0 * 1000.0 END")
    synth_r = ("CASE WHEN (((r * 256 + c) * 2654435761 + 999331)"
               " % 4294967296) % 19 = 0 THEN -32768.0"
               " ELSE (((r * 256 + c) * 2246822519 + 12345)"
               " % 4294967296) / 4294967296.0 * 1000.0 END")
    return f"""
WITH {POINTS_CTE},
pr AS (SELECT rec_id, x, y, {pair} FROM pts),
{_cramer3_sql('pr', 'f')},
prb AS (SELECT tx AS x, ty AS y, x AS tx, y AS ty FROM pr),
{_cramer3_sql('prb', 'b')},
ang AS (SELECT -atan2((c0y + cyy*{rppy!r} + cxy*{rppx!r}) - {lppy!r},
                      (c0x + cyx*{rppy!r} + cxx*{rppx!r}) - {lppx!r})
          AS theta FROM bc),
{hdr_cte('hl', False)},
{hdr_cte('hr', True)},
{img_cte('l', 'hl', False, synth_l)},
{img_cte('r', 'hr', True, synth_r)},
allz AS (SELECT 'left' AS img, row, z FROM lz
         UNION ALL SELECT 'right' AS img, row, z FROM rz)
SELECT img, row AS row_id,
  CAST(COUNT(CASE WHEN z <> -32768.0 THEN 1 END) AS BIGINT) AS n_valid,
  round(SUM(CASE WHEN z = -32768.0 THEN 0.0 ELSE z END), 6) AS row_sum
FROM allz GROUP BY img, row ORDER BY img, row
"""
