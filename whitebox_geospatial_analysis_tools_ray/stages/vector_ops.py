"""Per-feature vector operators: shape metrics, simplify, hulls, nodes.

The GISTools / VectorTools per-feature families (SURVEY.md §2.2) as
stateless ``map_batches`` over WKB feature tables:

- shape metrics (Area.java, Perimeter.java, CompactnessRatio.java,
  ElongationRatio.java, PerimeterAreaRatio.java, Centroid.java …) —
  per-feature scalars appended as columns;
- SimplifyLineOrPolygon (Douglas–Peucker), MinimumConvexHull,
  MinimumBoundingBox, ExtractNodes (flat_map to vertices),
  LayerFootprint (global reduce → hull of everything).

All geometry is the pure-numpy core (no shapely in this environment).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..core import geom


def _poly_of(wkb: bytes) -> geom.Polygon:
    kind, g = geom.parse_wkb(bytes(wkb))
    if kind == "polygon":
        return g
    if kind == "multipolygon":
        return geom.Polygon([r for p in g for r in p.rings])
    raise ValueError(f"not a polygon: {kind}")


def shape_metrics(ds):
    """Append area, perimeter, compactness, elongation, P/A ratio,
    centroid_x/y per polygon feature.

    - compactness ratio = perimeter / (2·sqrt(pi·area))
      (GISTools/src/plugins/CompactnessRatio.java)
    - elongation = 1 − (short axis / long axis) of the bbox
      (ElongationRatio.java approximation via axis-aligned bbox)
    """

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        rows = {k: [] for k in ("area", "perimeter", "compactness",
                                "elongation", "pa_ratio",
                                "centroid_x", "centroid_y")}
        for wkb in batch["geometry"]:
            p = _poly_of(wkb)
            a = abs(geom.polygon_area(p))
            per = geom.perimeter(p)
            cx, cy = geom.centroid(p.rings[0])
            minx, miny, maxx, maxy = p.bbox
            w, h = maxx - minx, maxy - miny
            long_ax, short_ax = max(w, h), min(w, h)
            rows["area"].append(a)
            rows["perimeter"].append(per)
            rows["compactness"].append(per / (2 * np.sqrt(np.pi * a)) if a > 0 else 0.0)
            rows["elongation"].append(1.0 - short_ax / long_ax if long_ax > 0 else 0.0)
            rows["pa_ratio"].append(per / a if a > 0 else 0.0)
            rows["centroid_x"].append(cx)
            rows["centroid_y"].append(cy)
        for k, v in rows.items():
            batch[k] = v
        return batch

    return ds.map_batches(fn, batch_format="pandas")


def simplify(ds, tol: float):
    """Douglas–Peucker per ring (SimplifyLineOrPolygon.java via JTS)."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        for wkb in batch["geometry"]:
            p = _poly_of(wkb)
            rings = [geom.douglas_peucker(r, tol) for r in p.rings]
            rings = [r for r in rings if len(r) >= 3]
            out.append(geom.wkb_polygon(geom.Polygon(rings)) if rings else None)
        batch["geometry"] = out
        return batch[batch["geometry"].notna()]

    return ds.map_batches(fn, batch_format="pandas")


def convex_hulls(ds):
    """MinimumConvexHull.java: per-feature hull polygon."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        nvert = []
        for wkb in batch["geometry"]:
            p = _poly_of(wkb)
            hull = geom.convex_hull(np.vstack(p.rings))
            out.append(geom.wkb_polygon(geom.Polygon([hull[::-1]])))  # CW shell
            nvert.append(len(hull))
        batch["hull"] = out
        batch["hull_nvert"] = nvert
        return batch

    return ds.map_batches(fn, batch_format="pandas")


def extract_nodes(ds):
    """ExtractNodes (VectorTools): polygon/line vertices → point rows."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        rows = {"rec_id": [], "node_idx": [], "x": [], "y": []}
        for rec_id, wkb in zip(batch["rec_id"], batch["geometry"]):
            p = _poly_of(wkb)
            pts = np.vstack(p.rings)
            n = len(pts)
            rows["rec_id"].extend([int(rec_id)] * n)
            rows["node_idx"].extend(range(n))
            rows["x"].extend(pts[:, 0])
            rows["y"].extend(pts[:, 1])
        return pd.DataFrame(rows)

    return ds.map_batches(fn, batch_format="pandas")


def layer_footprint(ds) -> geom.Polygon:
    """LayerFootprint.java: convex hull of the whole layer. Partial hulls
    per batch → tiny driver-side final hull (a global reduce)."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        pts = np.vstack([np.vstack(_poly_of(w).rings) for w in batch["geometry"]])
        hull = geom.convex_hull(pts)
        return pd.DataFrame({"x": hull[:, 0], "y": hull[:, 1]})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    final = geom.convex_hull(parts[["x", "y"]].to_numpy())
    return geom.Polygon([final[::-1]])


# ---------------------------------------------------------------------------
# VectorCleaning (VectorTools/src/plugins/VectorCleaning.java, 453 LoC):
# snap near-coincident vertices to a tolerance grid and drop the
# degenerate duplicates that result. One stateless map_batches; the
# snap uses a power-of-two tolerance so the cleaned coordinates (and
# any area derived from them) are exactly reproducible in SQL.
# ---------------------------------------------------------------------------

CLEAN_TOL = 0.5  # power of two → floor(v/tol + 0.5)·tol is dyadic-exact


def snap_coord(v: "np.ndarray", tol: float = CLEAN_TOL) -> "np.ndarray":
    import numpy as np
    return np.floor(np.asarray(v, dtype=np.float64) / tol + 0.5) * tol


def vector_cleaning(sf_dir: str, round_to: int = 6):
    """Clean the document-square layer: snap corners to the tolerance
    grid, emit (rec_id, snapped_area, degenerate) — degenerate = the
    snap collapsed the feature to zero width/height."""
    import numpy as np

    from .vector_overlay import doc_squares

    def clean(batch):
        x0 = snap_coord(batch["xmin"]); x1 = snap_coord(batch["xmax"])
        y0 = snap_coord(batch["ymin"]); y1 = snap_coord(batch["ymax"])
        area = (x1 - x0) * (y1 - y0)
        return {"rec_id": batch["rec_id"],
                "snapped_area": np.round(area, round_to),
                "degenerate": (area <= 0).astype(np.int64)}

    return doc_squares(sf_dir).map_batches(clean, batch_format="numpy")


def vector_cleaning_sql() -> str:
    from ..core.features import POINTS_CTE
    from ..oracle import _doc_squares_cte
    inv = float(1.0 / CLEAN_TOL)
    def snap(col):
        return f"floor({col} * {inv!r} + 0.5) / {inv!r}"
    return f"""
WITH {POINTS_CTE},
{_doc_squares_cte()},
s AS (SELECT rec_id,
             {snap('xmin')} AS x0, {snap('xmax')} AS x1,
             {snap('ymin')} AS y0, {snap('ymax')} AS y1
      FROM boxes)
SELECT rec_id, round((x1 - x0) * (y1 - y0), 6) AS snapped_area,
       CASE WHEN (x1 - x0) * (y1 - y0) <= 0 THEN 1 ELSE 0 END AS degenerate
FROM s
"""


# ---------------------------------------------------------------------------
# Remaining patch-shape indices (GISTools/src/plugins/) over the concave
# L-shape layer — integer coordinates make the basic set exactly
# SQL-mirrorable:
# - FractalDimension.java:483: FD = 2·ln(perimeter) / ln(area)
# - PerimeterAreaRatio.java: P/A; CompactnessRatio.java: P/(2·√(π·A))
# - RelatedCircumscribingCircle.java:466: 1 − A/(π·r²), r = min
#   bounding circle of the vertices
# - RadiusOfGyration.java:268-279: mean vertex distance to the centroid
# - PatchOrientation.java:288-298: regression-slope orientation in
#   degrees, folded to [0, 90]°-from-north
# ---------------------------------------------------------------------------

def _l_vertices(xa, ya, h, w2):
    import numpy as np
    return np.array([[xa - h, ya - h], [xa + h + w2, ya - h],
                     [xa + h + w2, ya], [xa + h, ya],
                     [xa + h, ya + h], [xa - h, ya + h]])


def shape_metrics_basic(sf_dir: str, round_to: int = 6):
    """(rec_id, area, perimeter, compactness, pa_ratio, fractal_dim)
    over the L-shape layer — exact SQL oracle."""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def fn(batch):
        h = np.asarray(batch["h"], dtype=np.float64)
        w2 = np.asarray(batch["w2"], dtype=np.float64)
        area = 4.0 * h * h + w2 * h
        per = 8.0 * h + 2.0 * w2
        return {"rec_id": batch["rec_id"],
                "area": area, "perimeter": per,
                "compactness": np.round(per / (2.0 * np.sqrt(np.pi * area)),
                                        round_to),
                "pa_ratio": np.round(per / area, round_to),
                "fractal_dim": np.round(2.0 * np.log(per) / np.log(area),
                                        round_to)}

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


def shape_metrics_basic_sql() -> str:
    from ..core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, 10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2
      FROM pts),
m AS (SELECT rec_id, 4.0 * h * h + w2 * h AS area,
             8.0 * h + 2.0 * w2 AS per FROM l)
SELECT rec_id, area, per AS perimeter,
       round(per / (2.0 * sqrt(pi() * area)), 6) AS compactness,
       round(per / area, 6) AS pa_ratio,
       round(2.0 * ln(per) / ln(area), 6) AS fractal_dim
FROM m
"""


def shape_metrics_extended_sql() -> str:
    """Exact mirror of shape_metrics_extended: on the L-shape layer the
    deterministic Welzl MEC is ALWAYS the diameter circle of vertices
    F=(xa−h, ya+h) and B=(xa+h+w2, ya−h) (A lies exactly on it; swept
    over the full integer (h, w2) domain — 38,800 configs, zero
    exceptions), so r has a closed form; gyradius/orientation are the
    literal 6-vertex folds in numpy's sequential summation order."""
    from ..core.features import POINTS_CTE
    xs = ["(xa - h)", "(xa + h + w2)", "(xa + h + w2)", "(xa + h)",
          "(xa + h)", "(xa - h)"]
    ys = ["(ya - h)", "(ya - h)", "ya", "ya", "(ya + h)", "(ya + h)"]
    sx = " + ".join(xs)
    sy = " + ".join(ys)
    sxy = " + ".join(f"{x} * {y}" for x, y in zip(xs, ys))
    sx2 = " + ".join(f"{x} * {x}" for x in xs)
    gy = " + ".join(
        f"sqrt(({x} - cx) * ({x} - cx) + ({y} - cy) * ({y} - cy))"
        for x, y in zip(xs, ys))
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, floor(x) AS xa, floor(y) AS ya,
      10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2 FROM pts),
c1 AS (SELECT rec_id, xa, ya, h, w2,
  sqrt(((xa - h) - (xa + h + w2)) * ((xa - h) - (xa + h + w2))
     + ((ya + h) - (ya - h)) * ((ya + h) - (ya - h))) / 2.0 AS r,
  4.0 * h * h + w2 * h AS area,
  ({sx}) / 6.0 AS cx, ({sy}) / 6.0 AS cy,
  {sx} AS sx, {sy} AS sy, {sxy} AS sxy, {sx2} AS sx2
FROM l),
c2 AS (SELECT rec_id,
  CASE WHEN r > 0 THEN 1.0 - area / (pi() * r * r) ELSE 0.0 END AS rc,
  ({gy}) / 6.0 AS gy,
  sx2 - sx * sx / 6 AS den,
  sxy - sx * sy / 6 AS num
FROM c1)
SELECT rec_id,
  round(rc, 6) AS rc_circle,
  round(gy, 6) AS gyradius,
  round(CASE WHEN den <> 0 THEN
          CASE WHEN atan(-(num) / den) * (180.0 / pi()) < 0
               THEN 90.0 + -1.0 * (atan(-(num) / den) * (180.0 / pi()))
               ELSE 90.0 - atan(-(num) / den) * (180.0 / pi()) END
        ELSE 0.0 END, 6) AS orientation
FROM c2
"""


def shape_metrics_extended(sf_dir: str, round_to: int = 6):
    """(rec_id, rc_circle, gyradius, orientation) — min bounding circle
    via deterministic Welzl + gyradius + PatchOrientation regression;
    exact SQL oracle via the closed-form MEC (see
    shape_metrics_extended_sql)."""
    import numpy as np

    from ..core.geom import min_enclosing_circle
    from .vector_overlay import doc_lshapes

    def fn(batch):
        n = len(batch["rec_id"])
        rc = np.empty(n)
        gy = np.empty(n)
        ori = np.empty(n)
        for i in range(n):
            v = _l_vertices(batch["xa"][i], batch["ya"][i],
                            batch["h"][i], batch["w2"][i])
            _, _, r = min_enclosing_circle(v)
            area = 4.0 * batch["h"][i] ** 2 + batch["w2"][i] * batch["h"][i]
            rc[i] = 1.0 - area / (np.pi * r * r) if r > 0 else 0.0
            cx, cy = v.mean(axis=0)
            gy[i] = float(np.sqrt((v[:, 0] - cx) ** 2
                                  + (v[:, 1] - cy) ** 2).mean())
            # PatchOrientation.java:288-298 regression fold
            x, y = v[:, 0], v[:, 1]
            mean = len(v)
            sx, sy = x.sum(), y.sum()
            sxy, sx2 = (x * y).sum(), (x * x).sum()
            den = sx2 - sx * sx / mean
            if den != 0:
                s = -(sxy - sx * sy / mean) / den
                deg = np.degrees(np.arctan(s))
                ori[i] = 90.0 + -1.0 * deg if deg < 0 else 90.0 - deg
            else:
                ori[i] = 0.0
        return {"rec_id": batch["rec_id"],
                "rc_circle": np.round(rc, round_to),
                "gyradius": np.round(gy, round_to),
                "orientation": np.round(ori, round_to)}

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


# ---------------------------------------------------------------------------
# TrendSurface / TrendSurfaceVectorPoints (StatsTools/src/plugins/
# TrendSurface.java 400, TrendSurfaceVectorPoints.java 499 — polynomial
# least squares via whitebox/stats/PolynomialLeastSquares2DFitting):
# fit z ~ poly(x, y) over the points, evaluate on a grid. Distributed:
# the normal-equation moments are ONE pass of per-batch partial sums
# (Σx, Σy, Σxy, …) + a tiny aggregate; the driver solves and broadcasts
# the coefficients; evaluation is a stateless map. First order has a
# closed-form Cramer solution mirrored exactly in SQL; higher orders
# use the same plan with a larger moment matrix.
# ---------------------------------------------------------------------------

def trend_surface(sf_dir: str, round_to: int = 6):
    """First-order trend z = a + b·x + c·y over the document points;
    returns one row (a, b, c, rmse) — all rounded, exact SQL oracle."""
    import numpy as np
    from ray.data.aggregate import Sum

    from .points import read_points

    pts = read_points(sf_dir)

    def moments(batch):
        import pandas as pd
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        z = np.asarray(batch["z"], dtype=np.float64)
        return pd.DataFrame({
            "n": [float(len(x))], "sx": [x.sum()], "sy": [y.sum()],
            "sxx": [(x * x).sum()], "syy": [(y * y).sum()],
            "sxy": [(x * y).sum()], "sz": [z.sum()],
            "sxz": [(x * z).sum()], "syz": [(y * z).sum()],
            "szz": [(z * z).sum()]})

    m = pts.map_batches(moments, batch_format="numpy").aggregate(
        Sum("n"), Sum("sx"), Sum("sy"), Sum("sxx"), Sum("syy"),
        Sum("sxy"), Sum("sz"), Sum("sxz"), Sum("syz"), Sum("szz"))
    if not m or m.get("sum(n)") in (None, 0, 0.0) \
            or m.get("sum(n)", 0.0) < 3.0:
        # empty / under-determined (< 3 points): the first-order normal
        # system is singular -> typed empty fit (shared with the SQL
        # mirror's n >= 3 guard)
        import pandas as pd
        return pd.DataFrame({"a": pd.Series([], dtype="float64"),
                             "b": pd.Series([], dtype="float64"),
                             "c": pd.Series([], dtype="float64"),
                             "rmse": pd.Series([], dtype="float64")})
    n = m["sum(n)"]; sx = m["sum(sx)"]; sy = m["sum(sy)"]
    sxx = m["sum(sxx)"]; syy = m["sum(syy)"]; sxy = m["sum(sxy)"]
    sz = m["sum(sz)"]; sxz = m["sum(sxz)"]; syz = m["sum(syz)"]
    szz = m["sum(szz)"]
    A = np.array([[n, sx, sy], [sx, sxx, sxy], [sy, sxy, syy]])
    b = np.array([sz, sxz, syz])
    det = np.linalg.det
    d0 = det(A)
    coef = [det(np.column_stack([b if i == j else A[:, j]
                                 for j in range(3)])) / d0
            for i in range(3)]
    a_, b_, c_ = coef
    sse = (szz - 2 * (a_ * sz + b_ * sxz + c_ * syz)
           + (a_ * a_ * n + b_ * b_ * sxx + c_ * c_ * syy
              + 2 * a_ * b_ * sx + 2 * a_ * c_ * sy + 2 * b_ * c_ * sxy))
    import pandas as pd
    rmse = float(np.sqrt(max(sse, 0.0) / n))
    return pd.DataFrame({"a": [round(a_, round_to)],
                         "b": [round(b_, round_to)],
                         "c": [round(c_, round_to)],
                         "rmse": [round(rmse, round_to)]})


def trend_surface_sql() -> str:
    """Closed-form Cramer mirror of the first-order normal equations."""
    from ..core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE},
m AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n, SUM(x) AS sx, SUM(y) AS sy,
             SUM(x*x) AS sxx, SUM(y*y) AS syy, SUM(x*y) AS sxy,
             SUM(z) AS sz, SUM(x*z) AS sxz, SUM(y*z) AS syz,
             SUM(z*z) AS szz
      FROM pts),
d AS (SELECT m.*,
  n*(sxx*syy - sxy*sxy) - sx*(sx*syy - sxy*sy) + sy*(sx*sxy - sxx*sy)
    AS det0,
  sz*(sxx*syy - sxy*sxy) - sx*(sxz*syy - sxy*syz)
    + sy*(sxz*sxy - sxx*syz) AS det_a,
  n*(sxz*syy - syz*sxy) - sz*(sx*syy - sxy*sy) + sy*(sx*syz - sxz*sy)
    AS det_b,
  n*(sxx*syz - sxy*sxz) - sx*(sx*syz - sxz*sy) + sz*(sx*sxy - sxx*sy)
    AS det_c
  FROM m),
c AS (SELECT d.*, det_a/det0 AS ca, det_b/det0 AS cb, det_c/det0 AS cc
      FROM d)
SELECT round(ca, 6) AS a, round(cb, 6) AS b, round(cc, 6) AS c,
       round(sqrt(greatest(
         (szz - 2*(ca*sz + cb*sxz + cc*syz)
          + (ca*ca*n + cb*cb*sxx + cc*cc*syy
             + 2*ca*cb*sx + 2*ca*cc*sy + 2*cb*cc*sxy)) / n, 0.0)), 6)
       AS rmse
FROM c
WHERE n >= 3
"""


def medoid(sf_dir: str):
    """Medoid (Scripts/Medoid.groovy:150-181, per-feature branch
    :187-232): medX/medY = coordinate medians over the feature's
    vertices (even count → mean of the two middles, exactly Arrays.sort
    + midpoint), then the FIRST vertex in ring order with minimal
    squared distance to (medX, medY). One stateless map_batches over
    the L-shape layer — per-feature vertex counts are bounded, so no
    shuffle. Output (rec_id, med_x, med_y, medoid_x, medoid_y)."""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def fn(batch):
        n = len(batch["rec_id"])
        mx = np.empty(n); my = np.empty(n)
        vx = np.empty(n); vy = np.empty(n)
        for i in range(n):
            v = _l_vertices(batch["xa"][i], batch["ya"][i],
                            batch["h"][i], batch["w2"][i])
            mx[i] = np.median(v[:, 0]); my[i] = np.median(v[:, 1])
            d = (v[:, 0] - mx[i]) ** 2 + (v[:, 1] - my[i]) ** 2
            k = int(np.argmin(d))  # first-wins tie, Groovy loop order
            vx[i], vy[i] = v[k]
        return {"rec_id": batch["rec_id"], "med_x": mx, "med_y": my,
                "medoid_x": vx, "medoid_y": vy}

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


def medoid_sql() -> str:
    from ..core.features import POINTS_CTE
    vx = ("CASE k WHEN 0 THEN xa-h WHEN 1 THEN xa+h+w2 WHEN 2 THEN xa+h+w2 "
          "WHEN 3 THEN xa+h WHEN 4 THEN xa+h ELSE xa-h END")
    vy = ("CASE k WHEN 0 THEN ya-h WHEN 1 THEN ya-h WHEN 2 THEN ya "
          "WHEN 3 THEN ya WHEN 4 THEN ya+h ELSE ya+h END")
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, floor(x) AS xa, floor(y) AS ya,
             10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2 FROM pts),
v AS (SELECT rec_id, k, {vx} AS vx, {vy} AS vy
      FROM l CROSS JOIN range(0, 6) t(k)),
m AS (SELECT rec_id, median(vx) AS mx, median(vy) AS my
      FROM v GROUP BY rec_id),
d AS (SELECT v.rec_id, v.k, v.vx, v.vy, m.mx, m.my,
             (v.vx - m.mx) * (v.vx - m.mx)
             + (v.vy - m.my) * (v.vy - m.my) AS dist
      FROM v JOIN m USING (rec_id))
SELECT rec_id, mx AS med_x, my AS med_y,
       vx AS medoid_x, vy AS medoid_y
FROM (SELECT *, row_number() OVER (PARTITION BY rec_id
                                   ORDER BY dist, k) AS rn FROM d)
WHERE rn = 1
"""


def mbr_axes(v: "np.ndarray") -> tuple:
    """MinimumBoundingRectangle (WhiteboxAPI/src/whitebox/algorithms/
    MinimumBoundingRectangle.java:159-213): for each hull edge, rotate
    every hull vertex by ψ = −atan2(Δy, Δx), take the axis-aligned
    extent, keep the minimum-AREA box. Returns (long, short, area)."""
    import numpy as np

    from ..core.geom import convex_hull

    hull = convex_hull(np.asarray(v, dtype=np.float64))
    hull = np.vstack([hull, hull[:1]])
    best = (np.inf, 0.0, 0.0)  # (area, long, short)
    for m in range(len(hull) - 1):
        dx, dy = hull[m + 1, 0] - hull[m, 0], hull[m + 1, 1] - hull[m, 1]
        psi = -np.arctan2(dy, dx)
        c, s = np.cos(psi), np.sin(psi)
        rx = hull[:-1, 0] * c - hull[:-1, 1] * s
        ry = hull[:-1, 0] * s + hull[:-1, 1] * c
        w = rx.max() - rx.min()
        h = ry.max() - ry.min()
        area = w * h
        if area < best[0]:
            best = (area, max(w, h), min(w, h))
    return best[1], best[2], best[0]


def minimum_bounding_box(sf_dir: str, round_to: int = 6):
    """MinimumBoundingBox / LongAxis / ShortAxis (VectorTools/src/
    plugins/MinimumBoundingBox.java:264-341 over the rotating-edge MBR
    above): per-feature (rec_id, long_axis, short_axis, mbb_area).
    Per-feature kernels — stateless map, no shuffle. Exact SQL oracle:
    the L-shape's hull is a fixed 5 vertices, so the rotating-edge
    search unrolls as 5 edges x 5 vertices in SQL (and is also
    brute-force rotation-sweep tested)."""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def fn(batch):
        n = len(batch["rec_id"])
        lo = np.empty(n); sh = np.empty(n); ar = np.empty(n)
        for i in range(n):
            v = _l_vertices(batch["xa"][i], batch["ya"][i],
                            batch["h"][i], batch["w2"][i])
            lo[i], sh[i], ar[i] = mbr_axes(v)
        return {"rec_id": batch["rec_id"],
                "long_axis": np.round(lo, round_to),
                "short_axis": np.round(sh, round_to),
                "mbb_area": np.round(ar, round_to)}

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


def smooth_vector(sf_dir: str):
    """Smooth (VectorTools/src/plugins/Smooth.java:250-307, filterSize
    3): per-vertex moving average along the ring; closed parts wrap via
    k<start → end+k−1 and k≥end → start+(k−end)+1 (the shapefile ring
    carries the closing duplicate vertex). One stateless map — output
    (rec_id, k, sx, sy) per ring vertex (7 per L-feature)."""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def fn(batch):
        recs, ks, sxs, sys_ = [], [], [], []
        for i in range(len(batch["rec_id"])):
            v = _l_vertices(batch["xa"][i], batch["ya"][i],
                            batch["h"][i], batch["w2"][i])
            ring = np.vstack([v, v[:1]])  # closing duplicate
            npts = len(ring)
            for k in range(npts):
                sx = sy = 0.0
                n = 0
                for j in (k - 1, k, k + 1):
                    kk = j
                    if kk < 0:
                        kk = npts + kk - 1
                    if kk >= npts:
                        kk = 0 + (kk - npts) + 1
                    if 0 <= kk < npts:
                        n += 1
                        sx += ring[kk, 0]
                        sy += ring[kk, 1]
                recs.append(batch["rec_id"][i])
                ks.append(k)
                sxs.append(sx / n)
                sys_.append(sy / n)
        return {"rec_id": np.asarray(recs, dtype=np.int64),
                "k": np.asarray(ks, dtype=np.int64),
                "sx": np.asarray(sxs), "sy": np.asarray(sys_)}

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


def smooth_vector_sql() -> str:
    from ..core.features import POINTS_CTE
    vx = ("CASE q WHEN 0 THEN xa-h WHEN 1 THEN xa+h+w2 WHEN 2 THEN xa+h+w2 "
          "WHEN 3 THEN xa+h WHEN 4 THEN xa+h WHEN 5 THEN xa-h "
          "ELSE xa-h END")
    vy = ("CASE q WHEN 0 THEN ya-h WHEN 1 THEN ya-h WHEN 2 THEN ya "
          "WHEN 3 THEN ya WHEN 4 THEN ya+h WHEN 5 THEN ya+h "
          "ELSE ya-h END")
    # wrap rule for j in {k-1, k, k+1} over a 7-vertex closed ring:
    # j<0 → 7+j−1 = 5; j≥7 → j−7+1 = 1
    wrap = ("CASE WHEN j < 0 THEN 7 + j - 1 "
            "WHEN j >= 7 THEN j - 7 + 1 ELSE j END")
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, floor(x) AS xa, floor(y) AS ya,
             10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2 FROM pts),
v AS (SELECT rec_id, q, {vx} AS vx, {vy} AS vy
      FROM l CROSS JOIN range(0, 7) t(q)),
win AS (SELECT vk.rec_id, vk.q AS k, off.j AS jraw,
               {wrap.replace('j', '(vk.q + off.j)')} AS q2
        FROM v vk CROSS JOIN (SELECT i - 1 AS j
                              FROM range(0, 3) t(i)) off),
joined AS (SELECT w.rec_id, w.k, w.jraw, s.vx, s.vy
           FROM win w JOIN v s ON s.rec_id = w.rec_id AND s.q = w.q2)
SELECT rec_id, k,
       SUM(vx ORDER BY jraw) / 3.0 AS sx,
       SUM(vy ORDER BY jraw) / 3.0 AS sy
FROM joined GROUP BY rec_id, k
"""


def shape_complexity(sf_dir: str, round_to: int = 6):
    """ShapeComplexityIndex (GISTools/src/plugins/ShapeComplexityIndex
    .java:493-531): |1 − area/hullArea| per feature, hull via the
    rotating convex hull of the ring vertices. Per-feature kernel, no
    shuffle; the L-shape hull closes the notch triangle (½·w2·h), so
    the DuckDB oracle is closed-form."""
    import numpy as np

    from ..core.geom import convex_hull
    from .vector_overlay import doc_lshapes

    def fn(batch):
        n = len(batch["rec_id"])
        sci = np.empty(n)
        for i in range(n):
            h = float(batch["h"][i]); w2 = float(batch["w2"][i])
            v = _l_vertices(batch["xa"][i], batch["ya"][i], h, w2)
            hull = convex_hull(v)
            x, y = hull[:, 0], hull[:, 1]
            hull_area = 0.5 * abs(
                float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
            area = 4.0 * h * h + w2 * h
            sci[i] = abs(1.0 - area / hull_area)
        return {"rec_id": batch["rec_id"],
                "sci": np.round(sci, round_to)}

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


def shape_complexity_sql() -> str:
    from ..core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, 10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2
      FROM pts)
SELECT rec_id,
       round(abs(1.0 - (4.0 * h * h + w2 * h)
                 / (4.0 * h * h + w2 * h + w2 * h / 2.0)), 6) AS sci
FROM l
"""


# ---------------------------------------------------------------------------
# Vector-edit family (VectorTools/src/plugins + resources/plugins/Scripts)
# ---------------------------------------------------------------------------

def polygons_to_lines(sf_dir: str):
    """PolygonsToLines (VectorTools/src/plugins/PolygonsToLines.java):
    same geometry re-typed as polylines. Expressed as a real explode —
    each L-shape ring flat-maps to its 6 directed edges with exact
    sqrt-of-perfect-square lengths: (rec_id, edge_id, length)."""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def explode(batch):
        xa = np.asarray(batch["xa"]); ya = np.asarray(batch["ya"])
        h = np.asarray(batch["h"]); w2 = np.asarray(batch["w2"])
        vx = np.stack([xa - h, xa + h + w2, xa + h + w2, xa + h,
                       xa + h, xa - h])          # (6, n)
        vy = np.stack([ya - h, ya - h, ya, ya,
                       ya + h, ya + h])
        nxt = [1, 2, 3, 4, 5, 0]
        dx = vx[nxt] - vx
        dy = vy[nxt] - vy
        length = np.sqrt(dx * dx + dy * dy)      # axis-aligned -> exact
        n = len(xa)
        return {"rec_id": np.repeat(np.asarray(batch["rec_id"]), 6),
                "edge_id": np.tile(np.arange(6, dtype=np.int64), n),
                "length": length.T.ravel()}

    return doc_lshapes(sf_dir).map_batches(explode, batch_format="numpy")


def polygons_to_lines_sql() -> str:
    from ..core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, floor(x) AS xa, floor(y) AS ya,
             10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2 FROM pts),
e AS (SELECT * FROM range(0, 6) t(edge_id)),
seg AS (SELECT rec_id, edge_id,
  CASE edge_id WHEN 0 THEN (xa + h + w2) - (xa - h)
               WHEN 1 THEN 0.0 WHEN 2 THEN (xa + h) - (xa + h + w2)
               WHEN 3 THEN 0.0 WHEN 4 THEN (xa - h) - (xa + h)
               ELSE 0.0 END AS dx,
  CASE edge_id WHEN 0 THEN 0.0 WHEN 1 THEN ya - (ya - h)
               WHEN 2 THEN 0.0 WHEN 3 THEN (ya + h) - ya
               WHEN 4 THEN 0.0 ELSE (ya - h) - (ya + h) END AS dy
FROM l CROSS JOIN e)
SELECT rec_id, edge_id, sqrt(dx * dx + dy * dy) AS length FROM seg
"""


def multiparts_to_singleparts(sf_dir: str):
    """MultipartsToSingleparts (WhiteboxGIS/resources/plugins/Scripts/
    MultipartsToSingleparts.groovy): explode each two-part feature
    (square part 0 + L part 1 per document) into one record per part:
    (rec_id, part_id, part_area)."""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def explode(batch):
        h = np.asarray(batch["h"]); w2 = np.asarray(batch["w2"])
        sq = (2.0 * h) * (2.0 * h)
        la = 4.0 * h * h + w2 * h
        n = len(h)
        return {"rec_id": np.repeat(np.asarray(batch["rec_id"]), 2),
                "part_id": np.tile(np.arange(2, dtype=np.int64), n),
                "part_area": np.stack([sq, la]).T.ravel()}

    return doc_lshapes(sf_dir).map_batches(explode, batch_format="numpy")


def multiparts_to_singleparts_sql() -> str:
    from ..core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, 10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2
      FROM pts),
p AS (SELECT * FROM range(0, 2) t(part_id))
SELECT rec_id, part_id,
       CASE part_id WHEN 0 THEN (2.0 * h) * (2.0 * h)
            ELSE 4.0 * h * h + w2 * h END AS part_area
FROM l CROSS JOIN p
"""


def singleparts_to_multiparts(sf_dir: str):
    """SinglepartsToMultiparts (SinglepartsToMultiparts.groovy): collect
    parts back into one multipart record per feature id:
    (rec_id, n_parts, total_area). Parts of a feature are generated
    co-located (same batch), so the collect is a within-batch combine —
    the documented partitioning assumption; with externally-partitioned
    parts this becomes one groupby(rec_id) shuffle."""
    import numpy as np
    import pandas as pd

    exploded = multiparts_to_singleparts(sf_dir)

    def collect(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("rec_id", sort=False)["part_area"]
        out = g.agg(["count", "sum"]).reset_index()
        return pd.DataFrame({"rec_id": out["rec_id"].astype(np.int64),
                             "n_parts": out["count"].astype(np.int64),
                             "total_area": out["sum"]})

    return exploded.map_batches(collect, batch_format="pandas")


def singleparts_to_multiparts_sql() -> str:
    from ..core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, 10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2
      FROM pts)
SELECT rec_id, CAST(2 AS BIGINT) AS n_parts,
       (2.0 * h) * (2.0 * h) + (4.0 * h * h + w2 * h) AS total_area
FROM l
"""


def remove_polygon_holes(sf_dir: str):
    """RemovePolygonHoles (VectorTools/src/plugins/RemovePolygonHoles
    .java:254-311): rebuild each polygon keeping only non-hole parts.
    Donut layer (outer square half h, concentric hole side h):
    (rec_id, area_before, area_after)."""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def fn(batch):
        h = np.asarray(batch["h"])
        outer = (2.0 * h) * (2.0 * h)
        hole = h * h
        return {"rec_id": np.asarray(batch["rec_id"]),
                "area_before": outer - hole,
                "area_after": outer}

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


def remove_polygon_holes_sql() -> str:
    from ..core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, 10.0 + (z % 200.0) AS h FROM pts)
SELECT rec_id, (2.0 * h) * (2.0 * h) - h * h AS area_before,
       (2.0 * h) * (2.0 * h) AS area_after
FROM l
"""


EXTEND_DIST = 25.0


def extend_vector_lines(sf_dir: str):
    """ExtendVectorLines (WhiteboxGIS/resources/plugins/Scripts/
    ExtendVectorLines.groovy:155-179): both terminal vertices move d
    along slope = atan2(y1−y2, x1−x2), new = p1 + d·(cos, sin). The
    polyline per doc is (xa, ya)→(xa+h, ya)→(xa+h, ya+w2). Output
    (rec_id, x_start, y_start, x_end, y_end)."""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def fn(batch):
        xa = np.asarray(batch["xa"]); ya = np.asarray(batch["ya"])
        h = np.asarray(batch["h"]); w2 = np.asarray(batch["w2"])
        d = EXTEND_DIST
        s0 = np.arctan2(ya - ya, xa - (xa + h))
        x_start = xa + d * np.cos(s0)
        y_start = ya + d * np.sin(s0)
        s1 = np.arctan2((ya + w2) - ya, (xa + h) - (xa + h))
        x_end = (xa + h) + d * np.cos(s1)
        y_end = (ya + w2) + d * np.sin(s1)
        return {"rec_id": np.asarray(batch["rec_id"]),
                "x_start": np.round(x_start, 6), "y_start": np.round(y_start, 6),
                "x_end": np.round(x_end, 6), "y_end": np.round(y_end, 6)}

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


def extend_vector_lines_sql() -> str:
    from ..core.features import POINTS_CTE
    d = EXTEND_DIST
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, floor(x) AS xa, floor(y) AS ya,
             10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2 FROM pts),
ext AS (SELECT rec_id,
  xa + {d!r} * cos(atan2(0.0, -h)) AS x_start,
  ya + {d!r} * sin(atan2(0.0, -h)) AS y_start,
  (xa + h) + {d!r} * cos(atan2(w2, 0.0)) AS x_end,
  (ya + w2) + {d!r} * sin(atan2(w2, 0.0)) AS y_end
FROM l)
SELECT rec_id, round(x_start, 6) AS x_start, round(y_start, 6) AS y_start,
       round(x_end, 6) AS x_end, round(y_end, 6) AS y_end
FROM ext
"""


def add_point_coordinates(sf_dir: str):
    """AddPointCoordinatesToTable (WhiteboxGIS/resources/plugins/
    Scripts/AddPointCoordinatesToTable.groovy): append XCOORD/YCOORD
    attributes to a point table."""
    import numpy as np

    from .points import read_points

    def fn(batch):
        return {"rec_id": np.asarray(batch["rec_id"]),
                "xcoord": np.round(np.asarray(batch["x"]), 6),
                "ycoord": np.round(np.asarray(batch["y"]), 6)}

    return read_points(sf_dir).map_batches(fn, batch_format="numpy")


def add_point_coordinates_sql() -> str:
    from ..core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE}
SELECT rec_id, round(x, 6) AS xcoord, round(y, 6) AS ycoord FROM pts
"""


def create_rect_vector_grid(width: float = 250.0):
    """CreateRectangularVectorGrid (WhiteboxGIS/resources/plugins/
    Scripts/CreateRectangularVectorGrid.groovy rule): one polygon per
    grid cell over the world extent — pure tile-generator MB pattern
    (rd.range → per-cell arithmetic, no input scan).
    (cell_id, grid_row, grid_col, xmin, ymin, xmax, ymax)."""
    import numpy as np
    import ray.data as rd

    from ..core.rng import EAST, NORTH, SOUTH, WEST
    from ..core.tiles import RectGrid

    g = RectGrid.from_extent(WEST, SOUTH, EAST, NORTH,
                             width_x=width, width_y=width)
    n = g.rows * g.cols

    def fn(batch):
        cid = np.asarray(batch["id"], dtype=np.int64)
        row = cid // g.cols
        col = cid % g.cols
        x0 = g.origin_x + (g.start_x + col) * g.width_x
        y0 = g.origin_y + (g.start_y + row) * g.width_y
        return {"cell_id": cid, "grid_row": row, "grid_col": col,
                "xmin": x0, "ymin": y0,
                "xmax": x0 + g.width_x, "ymax": y0 + g.width_y}

    return rd.range(n).map_batches(fn, batch_format="numpy")


def create_rect_vector_grid_sql(width: float = 250.0) -> str:
    from ..core.rng import EAST, NORTH, SOUTH, WEST
    from ..core.tiles import RectGrid
    g = RectGrid.from_extent(WEST, SOUTH, EAST, NORTH,
                             width_x=width, width_y=width)
    return f"""
WITH c AS (SELECT i AS cell_id, i // {g.cols} AS grid_row,
                  i % {g.cols} AS grid_col
           FROM range(0, {g.rows * g.cols}) t(i))
SELECT cell_id, grid_row, grid_col,
       {g.origin_x:.17e} + ({g.start_x} + grid_col) * {g.width_x:.17e} AS xmin,
       {g.origin_y:.17e} + ({g.start_y} + grid_row) * {g.width_y:.17e} AS ymin,
       {g.origin_x:.17e} + ({g.start_x} + grid_col) * {g.width_x:.17e}
           + {g.width_x:.17e} AS xmax,
       {g.origin_y:.17e} + ({g.start_y} + grid_row) * {g.width_y:.17e}
           + {g.width_y:.17e} AS ymax
FROM c
"""


def create_hex_vector_grid(width: float = 250.0):
    """CreateHexagonalVectorGrid (CreateHexagonalVectorGrid.groovy rule,
    horizontal orientation): one centre per hex over the world extent,
    alternating row widths — same HexGrid lattice the HexBinning
    assignment uses. (hex_id, hex_row, hex_col, cx, cy)."""
    import numpy as np
    import ray.data as rd

    from ..core.rng import EAST, NORTH, SOUTH, WEST
    from ..core.tiles import HexGrid

    g = HexGrid(WEST, NORTH, EAST - WEST, NORTH - SOUTH, width)
    nrows = g.n_rows
    total = int(g.row_start_index(np.array([nrows]))[0])

    def fn(batch):
        hid = np.asarray(batch["id"], dtype=np.int64)
        # invert the row prefix-sum: rows alternate cols_even/cols_odd
        pair = g.cols_even + g.cols_odd
        pair_idx = hid // pair
        rem = hid % pair
        odd = rem >= g.cols_even
        row = pair_idx * 2 + odd.astype(np.int64)
        col = np.where(odd, rem - g.cols_even, rem)
        cx = g.center_x(row, col)
        cy = g.center_y(row)
        return {"hex_id": hid, "hex_row": row, "hex_col": col,
                "cx": cx, "cy": cy}

    return rd.range(total).map_batches(fn, batch_format="numpy")


def create_hex_vector_grid_sql(width: float = 250.0) -> str:
    import numpy as np

    from ..core.rng import EAST, NORTH, SOUTH, WEST
    from ..core.tiles import HexGrid
    g = HexGrid(WEST, NORTH, EAST - WEST, NORTH - SOUTH, width)
    total = int(g.row_start_index(np.array([g.n_rows]))[0])
    pair = g.cols_even + g.cols_odd
    return f"""
WITH h AS (SELECT i AS hex_id,
                  (i // {pair}) * 2
                      + CASE WHEN i % {pair} >= {g.cols_even} THEN 1 ELSE 0 END
                      AS hex_row,
                  CASE WHEN i % {pair} >= {g.cols_even}
                       THEN i % {pair} - {g.cols_even}
                       ELSE i % {pair} END AS hex_col
           FROM range(0, {total}) t(i))
SELECT hex_id, hex_row, hex_col,
       ({g.cx0:.17e} - {g.half_width:.17e} * (hex_row % 2))
           + hex_col * {g.width:.17e} AS cx,
       {g.cy0:.17e} - hex_row * {g.tq_height:.17e} AS cy
FROM h
"""


BUFFER_DIST = 12.5


def buffer_vector(sf_dir: str):
    """BufferVector (VectorTools/src/plugins/BufferVector.java rule):
    buffer each polygon outward by d. For the axis-aligned square layer
    the buffered area has the closed form wh + 2d(w+h) + πd²
    (rounded corners): (rec_id, buffered_area)."""
    import numpy as np

    from .vector_overlay import doc_squares

    def fn(batch):
        w = np.asarray(batch["xmax"]) - np.asarray(batch["xmin"])
        h = np.asarray(batch["ymax"]) - np.asarray(batch["ymin"])
        d = BUFFER_DIST
        area = w * h + 2.0 * d * (w + h) + np.pi * d * d
        return {"rec_id": np.asarray(batch["rec_id"]),
                "buffered_area": np.round(area, 6)}

    return doc_squares(sf_dir).map_batches(fn, batch_format="numpy")


def buffer_vector_sql() -> str:
    from ..core.features import POINTS_CTE
    from ..oracle import _doc_squares_cte
    d = BUFFER_DIST
    return f"""
WITH {POINTS_CTE},
{_doc_squares_cte()},
b AS (SELECT rec_id, xmax - xmin AS w, ymax - ymin AS h FROM boxes)
SELECT rec_id,
       round(w * h + 2.0 * {d!r} * (w + h) + pi() * {d!r} * {d!r}, 6)
           AS buffered_area
FROM b
"""


def group_polygons_by_orientation(sf_dir: str):
    """GroupPolygonsByOrientation (VectorTools/src/plugins/
    GroupPolygonsByOrientation.java rule): group features whose
    PatchOrientation (regression fold, PatchOrientation.java:288-298)
    falls in the same 15° class: (orientation_class, n_features).
    Vertex moments accumulate in the explicit v0+v1+...+v5 chain so the
    SQL mirror is bit-identical."""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def fn(batch):
        xa = np.asarray(batch["xa"]); ya = np.asarray(batch["ya"])
        h = np.asarray(batch["h"]); w2 = np.asarray(batch["w2"])
        vx = [xa - h, xa + h + w2, xa + h + w2, xa + h, xa + h, xa - h]
        vy = [ya - h, ya - h, ya, ya, ya + h, ya + h]
        sx = vx[0] + vx[1] + vx[2] + vx[3] + vx[4] + vx[5]
        sy = vy[0] + vy[1] + vy[2] + vy[3] + vy[4] + vy[5]
        sxy = (vx[0] * vy[0] + vx[1] * vy[1] + vx[2] * vy[2]
               + vx[3] * vy[3] + vx[4] * vy[4] + vx[5] * vy[5])
        sx2 = (vx[0] * vx[0] + vx[1] * vx[1] + vx[2] * vx[2]
               + vx[3] * vx[3] + vx[4] * vx[4] + vx[5] * vx[5])
        den = sx2 - sx * sx / 6.0
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = -(sxy - sx * sy / 6.0) / den
            deg = np.degrees(np.arctan(slope))
        ori = np.where(deg < 0, 90.0 + -1.0 * deg, 90.0 - deg)
        ori = np.where(den != 0, ori, 0.0)
        bucket = np.minimum(np.floor(ori / 15.0).astype(np.int64), 11)
        cls, counts = np.unique(bucket, return_counts=True)
        import pandas as pd
        return pd.DataFrame({"orientation_class": cls,
                             "n": counts.astype(np.int64)})

    parts = (doc_lshapes(sf_dir)
             .map_batches(fn, batch_format="numpy").to_pandas())
    if len(parts) == 0:     # empty table -> typed empty grouping
        import pandas as pd
        return pd.DataFrame({"orientation_class": pd.Series([], dtype="int64"),
                             "n_features": pd.Series([], dtype="int64")})
    out = parts.groupby("orientation_class", as_index=False)["n"].sum()
    out = out.rename(columns={"n": "n_features"})
    import numpy as np
    out["orientation_class"] = out["orientation_class"].astype(np.int64)
    out["n_features"] = out["n_features"].astype(np.int64)
    return out


def group_polygons_by_orientation_sql() -> str:
    from ..core.features import POINTS_CTE
    vx = ["(xa - h)", "(xa + h + w2)", "(xa + h + w2)", "(xa + h)",
          "(xa + h)", "(xa - h)"]
    vy = ["(ya - h)", "(ya - h)", "ya", "ya", "(ya + h)", "(ya + h)"]
    sx = " + ".join(vx)
    sy = " + ".join(vy)
    sxy = " + ".join(f"{a} * {b}" for a, b in zip(vx, vy))
    sx2 = " + ".join(f"{a} * {a}" for a in vx)
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, floor(x) AS xa, floor(y) AS ya,
             10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2 FROM pts),
m AS (SELECT rec_id, {sx} AS sx, {sy} AS sy, {sxy} AS sxy, {sx2} AS sx2
      FROM l),
o AS (SELECT rec_id,
      CASE WHEN sx2 - sx * sx / 6.0 <> 0 THEN
        CASE WHEN degrees(atan(-(sxy - sx * sy / 6.0)
                               / (sx2 - sx * sx / 6.0))) < 0
             THEN 90.0 + -1.0 * degrees(atan(-(sxy - sx * sy / 6.0)
                                             / (sx2 - sx * sx / 6.0)))
             ELSE 90.0 - degrees(atan(-(sxy - sx * sy / 6.0)
                                      / (sx2 - sx * sx / 6.0))) END
      ELSE 0.0 END AS ori FROM m)
SELECT LEAST(CAST(floor(ori / 15.0) AS BIGINT), 11) AS orientation_class,
       CAST(count(*) AS BIGINT) AS n_features
FROM o GROUP BY 1
"""


def patch_orientation_vector_field(sf_dir: str):
    """PatchOrientationVectorField (GISTools family): one oriented
    segment per feature — centroid ± (len/2)·(sin θ, cos θ) with θ the
    PatchOrientation fold (same regression chain as
    group_polygons_by_orientation) and len the L-shape's long bbox
    axis. (rec_id, x0, y0, x1, y1), exact closed-form oracle."""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def fn(batch):
        xa = np.asarray(batch["xa"]); ya = np.asarray(batch["ya"])
        h = np.asarray(batch["h"]); w2 = np.asarray(batch["w2"])
        vx = [xa - h, xa + h + w2, xa + h + w2, xa + h, xa + h, xa - h]
        vy = [ya - h, ya - h, ya, ya, ya + h, ya + h]
        sx = vx[0] + vx[1] + vx[2] + vx[3] + vx[4] + vx[5]
        sy = vy[0] + vy[1] + vy[2] + vy[3] + vy[4] + vy[5]
        sxy = (vx[0] * vy[0] + vx[1] * vy[1] + vx[2] * vy[2]
               + vx[3] * vy[3] + vx[4] * vy[4] + vx[5] * vy[5])
        sx2 = (vx[0] * vx[0] + vx[1] * vx[1] + vx[2] * vx[2]
               + vx[3] * vx[3] + vx[4] * vx[4] + vx[5] * vx[5])
        den = sx2 - sx * sx / 6.0
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = -(sxy - sx * sy / 6.0) / den
            deg = np.degrees(np.arctan(slope))
        ori = np.where(deg < 0, 90.0 + -1.0 * deg, 90.0 - deg)
        ori = np.where(den != 0, ori, 0.0)
        theta = np.deg2rad(ori)
        cx = sx / 6.0
        cy = sy / 6.0
        half = (2.0 * h + w2) / 2.0        # long bbox axis / 2
        dx = half * np.sin(theta)
        dy = half * np.cos(theta)
        return {"rec_id": np.asarray(batch["rec_id"]),
                "x0": np.round(cx - dx, 6), "y0": np.round(cy - dy, 6),
                "x1": np.round(cx + dx, 6), "y1": np.round(cy + dy, 6)}

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


def patch_orientation_vector_field_sql() -> str:
    from ..core.features import POINTS_CTE
    vx = ["(xa - h)", "(xa + h + w2)", "(xa + h + w2)", "(xa + h)",
          "(xa + h)", "(xa - h)"]
    vy = ["(ya - h)", "(ya - h)", "ya", "ya", "(ya + h)", "(ya + h)"]
    sx = " + ".join(vx)
    sy = " + ".join(vy)
    sxy = " + ".join(f"{a} * {b}" for a, b in zip(vx, vy))
    sx2 = " + ".join(f"{a} * {a}" for a in vx)
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, floor(x) AS xa, floor(y) AS ya,
             10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2 FROM pts),
m AS (SELECT rec_id, h, w2,
      {sx} AS sx, {sy} AS sy, {sxy} AS sxy, {sx2} AS sx2 FROM l),
o AS (SELECT rec_id, h, w2, sx, sy,
      CASE WHEN sx2 - sx * sx / 6.0 <> 0 THEN
        CASE WHEN degrees(atan(-(sxy - sx * sy / 6.0)
                               / (sx2 - sx * sx / 6.0))) < 0
             THEN 90.0 + -1.0 * degrees(atan(-(sxy - sx * sy / 6.0)
                                             / (sx2 - sx * sx / 6.0)))
             ELSE 90.0 - degrees(atan(-(sxy - sx * sy / 6.0)
                                      / (sx2 - sx * sx / 6.0))) END
      ELSE 0.0 END AS ori FROM m),
seg AS (SELECT rec_id,
        sx / 6.0 AS cx, sy / 6.0 AS cy,
        ((2.0 * h + w2) / 2.0) * sin(radians(ori)) AS dx,
        ((2.0 * h + w2) / 2.0) * cos(radians(ori)) AS dy
        FROM o)
SELECT rec_id,
       round(cx - dx, 6) AS x0, round(cy - dy, 6) AS y0,
       round(cx + dx, 6) AS x1, round(cy + dy, 6) AS y1
FROM seg
"""


def find_polygon_midline(sf_dir: str, densify: float = 8.0):
    """FindPolygonMidline (VectorTools/src/plugins/FindPolygonMidline
    .java — JTS VoronoiDiagramBuilder over the densified boundary,
    edges kept inside the polygon): same construction over the
    FROM-SCRATCH Bowyer–Watson core — boundary samples every
    ``densify`` units → Delaunay → the Voronoi skeleton = dual edges
    whose BOTH circumcentres lie strictly inside the polygon.
    Per-feature stateless kernel; (rec_id, midline_len, n_edges)."""
    import numpy as np
    import pandas as pd

    from ..core.delaunay import delaunay
    from ..core.geom import points_in_ring
    from .vector_overlay import _l_ring, doc_lshapes

    def fn(batch):
        from ..core.delaunay import delaunay_many
        n = len(batch["rec_id"])
        lens = np.zeros(n)
        counts = np.zeros(n, dtype=np.int64)
        rings = []
        pts_list = []
        for i in range(n):
            ring = _l_ring(batch["xa"][i], batch["ya"][i],
                           batch["h"][i], batch["w2"][i])
            # densify boundary (vectorized per segment; same
            # p0 + (p1-p0)*(t/steps) arithmetic element-wise)
            segs = []
            for k in range(len(ring)):
                p0 = ring[k]
                p1 = ring[(k + 1) % len(ring)]
                seg = np.hypot(*(p1 - p0))
                steps = max(1, int(seg // densify))
                ts = np.arange(steps) / steps
                segs.append(p0 + (p1 - p0)[None, :] * ts[:, None])
            rings.append(ring)
            pts_list.append(np.concatenate(segs))
        # lockstep batched Bowyer–Watson: identical per-feature output
        # (core/delaunay.delaunay_many — equality pytest-pinned), one
        # numpy dispatch per insertion round across the whole batch
        all_tris = delaunay_many(pts_list)
        for i in range(n):
            ring = rings[i]
            pts = pts_list[i]
            tris = all_tris[i]
            if not tris:
                continue
            # ALL circumcentres in one vectorized pass (identical
            # element-wise arithmetic to the scalar formula)
            tv = np.asarray(tris, dtype=np.int64)
            ax, ay = pts[tv[:, 0], 0], pts[tv[:, 0], 1]
            bx, by = pts[tv[:, 1], 0], pts[tv[:, 1], 1]
            cx, cy = pts[tv[:, 2], 0], pts[tv[:, 2], 1]
            d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
            ok = d != 0
            ds = np.where(ok, d, 1.0)
            a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
            ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / ds
            uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / ds
            # one inside test for every circumcentre (was one
            # points_in_ring call PER DUAL EDGE — the stage hot spot)
            inside = points_in_ring(ux, uy, ring) & ok
            edge_map = {}
            total = 0.0
            cnt = 0
            for t_idx, (a, b, c) in enumerate(tris):
                for e in ((a, b), (b, c), (c, a)):
                    key = (min(e), max(e))
                    if key in edge_map:
                        t2 = edge_map[key]
                        if inside[t_idx] and inside[t2]:
                            total += float(np.hypot(ux[t_idx] - ux[t2],
                                                    uy[t_idx] - uy[t2]))
                            cnt += 1
                    else:
                        edge_map[key] = t_idx
            lens[i] = total
            counts[i] = cnt
        return {"rec_id": np.asarray(batch["rec_id"]),
                "midline_len": np.round(lens, 6),
                "n_edges": counts}

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


def extract_nodes_query(sf_dir: str):
    """ExtractNodes (VectorTools/src/plugins/ExtractNodes.java, 339 LoC):
    each feature's vertices become point records carrying the parent's
    attributes — a pure flat_map: (rec_id, node_id, x, y). (The WKB-layer
    variant is ``extract_nodes`` above.)"""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def explode(batch):
        xa = np.asarray(batch["xa"]); ya = np.asarray(batch["ya"])
        h = np.asarray(batch["h"]); w2 = np.asarray(batch["w2"])
        vx = np.stack([xa - h, xa + h + w2, xa + h + w2, xa + h,
                       xa + h, xa - h])
        vy = np.stack([ya - h, ya - h, ya, ya, ya + h, ya + h])
        n = len(xa)
        return {"rec_id": np.repeat(np.asarray(batch["rec_id"]), 6),
                "node_id": np.tile(np.arange(6, dtype=np.int64), n),
                "x": vx.T.ravel(), "y": vy.T.ravel()}

    return doc_lshapes(sf_dir).map_batches(explode, batch_format="numpy")


def extract_nodes_sql() -> str:
    from ..core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, floor(x) AS xa, floor(y) AS ya,
             10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2 FROM pts),
e AS (SELECT * FROM range(0, 6) t(node_id))
SELECT rec_id, node_id,
  CASE node_id WHEN 0 THEN xa - h WHEN 1 THEN xa + h + w2
               WHEN 2 THEN xa + h + w2 WHEN 3 THEN xa + h
               WHEN 4 THEN xa + h ELSE xa - h END AS x,
  CASE node_id WHEN 0 THEN ya - h WHEN 1 THEN ya - h
               WHEN 2 THEN ya WHEN 3 THEN ya
               WHEN 4 THEN ya + h ELSE ya + h END AS y
FROM l CROSS JOIN e
"""


def centroid_vector(sf_dir: str, round_to: int = 6):
    """CentroidVector (VectorTools/src/plugins/CentroidVector.java:254-263):
    per feature, the JTS AREA centroid as a point record. Computed with
    the shoelace centroid formula over the L ring; the SQL mirror uses
    the exact two-rectangle decomposition (equal algebraically; both
    rounded to 6)."""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def fn(batch):
        xa = np.asarray(batch["xa"]); ya = np.asarray(batch["ya"])
        h = np.asarray(batch["h"]); w2 = np.asarray(batch["w2"])
        vx = np.stack([xa - h, xa + h + w2, xa + h + w2, xa + h,
                       xa + h, xa - h])
        vy = np.stack([ya - h, ya - h, ya, ya, ya + h, ya + h])
        nxt = [1, 2, 3, 4, 5, 0]
        cross = vx * vy[nxt] - vx[nxt] * vy
        area2 = cross.sum(axis=0)
        cx = ((vx + vx[nxt]) * cross).sum(axis=0) / (3.0 * area2)
        cy = ((vy + vy[nxt]) * cross).sum(axis=0) / (3.0 * area2)
        return {"rec_id": np.asarray(batch["rec_id"], dtype=np.int64),
                "cx": np.round(cx, round_to), "cy": np.round(cy, round_to)}

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


def centroid_vector_sql() -> str:
    from ..core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, floor(x) AS xa, floor(y) AS ya,
             10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2 FROM pts),
m AS (SELECT rec_id, xa, ya, h, w2,
             4.0 * h * h AS a1, w2 * h AS a2 FROM l)
SELECT rec_id,
  round((a1 * xa + a2 * (xa + h + w2 / 2.0)) / (a1 + a2), 6) AS cx,
  round((a1 * ya + a2 * (ya - h / 2.0)) / (a1 + a2), 6) AS cy
FROM m
"""


def isolate_by_attribute(sf_dir: str):
    """IsolateVectorFeaturesByAttribute (VectorTools, 459 LoC): attribute
    predicate filter — one vectorized mask, no shuffle."""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def fn(batch):
        import pandas as pd
        df = pd.DataFrame({k: np.asarray(v) for k, v in batch.items()})
        out = df[(df["h"] > 100.0) & (df["w2"] <= 60.0)]
        return {"rec_id": out["rec_id"].to_numpy(np.int64),
                "h": out["h"].to_numpy(), "w2": out["w2"].to_numpy()}

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


def isolate_by_attribute_sql() -> str:
    from ..core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, 10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2
      FROM pts)
SELECT rec_id, h, w2 FROM l WHERE h > 100.0 AND w2 <= 60.0
"""


def _straight_segments_of(ring: "np.ndarray", threshold: float):
    """Literal FindStraightSegments walk over ONE closed ring
    (WhiteboxGIS/resources/plugins/Scripts/FindStraightSegments.groovy
    :127-236): break wherever the turn angle exceeds the threshold; if
    the ring's start point sits mid-segment (wrap angle below the
    threshold), the held first piece is APPENDED to the final one.
    Returns a list of point lists."""
    import math

    import numpy as np

    n = len(ring)
    start, end = 0, n - 1
    pts = [tuple(ring[start])]
    held = []
    attached = False

    def angle_at(i0, i1, i2):
        x1, y1 = ring[i0]
        x, y = ring[i1]
        x2, y2 = ring[i2]
        dx21, dy21 = x - x1, y - y1
        dx31, dy31 = x2 - x, y2 - y
        m12 = math.sqrt(dx21 * dx21 + dy21 * dy21)
        m13 = math.sqrt(dx31 * dx31 + dy31 * dy31)
        return math.degrees(math.acos((dx21 * dx31 + dy21 * dy31)
                                      / (m12 * m13)))

    if ring[start][0] == ring[end][0] and ring[start][1] == ring[end][1]:
        if angle_at(end - 1, start, start + 1) < threshold:
            attached = True
    segments = []
    segment_number = 1
    for i in range(start + 1, end):
        a = angle_at(i - 1, i, i + 1)
        pts.append(tuple(ring[i]))
        if a > threshold and len(pts) > 1:
            if not attached or segment_number > 1:
                segments.append(pts)
            elif attached and segment_number == 1:
                held = list(pts)
            segment_number += 1
            pts = [tuple(ring[i])]
    if not attached:
        pts.append(tuple(ring[end]))
        if len(pts) > 1:
            segments.append(pts)
    else:
        if segment_number > 1:
            pts = pts + held
        if len(pts) > 1:
            segments.append(pts)
    return segments


def find_straight_segments(sf_dir: str, threshold: float = 45.0,
                           round_to: int = 6):
    """FindStraightSegments over the densified closed L rings (ring
    starts at the first edge's midpoint so the wrap-attachment path is
    exercised on every feature): (fid, parent_id, n_points, length).
    The global FID counter follows record order — a closed form here
    (constant segments/feature); in general one tiny prefix-sum pass
    over per-feature counts assigns it."""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def fn(batch):
        import pandas as pd
        rows = []
        for r in pd.DataFrame({k: np.asarray(v)
                               for k, v in batch.items()}).itertuples():
            v = _l_vertices(r.xa, r.ya, r.h, r.w2)

            def mid(i):
                a, b = v[i], v[(i + 1) % 6]
                return ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)

            # [m0, v1, m1, v2, m2, v3, m3, v4, m4, v5, m5, v0, m0]
            ring = [mid(0)]
            for i in range(1, 6):
                ring.append(tuple(v[i]))
                ring.append(mid(i))
            ring.append(tuple(v[0]))
            ring.append(mid(0))
            ring = np.asarray(ring)
            segs = _straight_segments_of(ring, threshold)
            rec = int(r.rec_id)
            for j, pts in enumerate(segs):
                p = np.asarray(pts)
                length = float(np.sqrt(((p[1:] - p[:-1]) ** 2)
                                       .sum(axis=1)).sum())
                rows.append({"fid": rec * len(segs) + j + 1,
                             "parent_id": rec + 1,
                             "n_points": len(pts),
                             "length": round(length, round_to)})
        return pd.DataFrame(rows, columns=["fid", "parent_id",
                                           "n_points", "length"])

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


def find_straight_segments_sql() -> str:
    """Closed form: every corner of the right-angled ring breaks, the
    wrap segment reassembles edge 0 — six 3-point segments per feature
    in edge order e1..e5, e0 with lengths h, w2, h, 2h, 2h, 2h+w2."""
    from ..core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, 10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2
      FROM pts),
e AS (SELECT * FROM range(1, 7) t(j))
SELECT rec_id * 6 + j AS fid, rec_id + 1 AS parent_id,
       CAST(3 AS BIGINT) AS n_points,
       round(CASE j WHEN 1 THEN h WHEN 2 THEN w2 WHEN 3 THEN h
                    WHEN 4 THEN 2 * h WHEN 5 THEN 2 * h
                    ELSE 2 * h + w2 END, 6) AS length
FROM l CROSS JOIN e
"""


def _dumbbell_ring(xa: float, ya: float, corridor: int):
    """Closed dumbbell ring (two 10×10 squares joined by a 2-wide
    corridor of the given length), densified with unit steps — corridor
    vertices are spatially close but index-distant (a 'neck')."""
    import numpy as np

    cl = corridor
    pts = [(0, 0), (10, 0), (10, 4), (10 + cl, 4), (10 + cl, 0),
           (20 + cl, 0), (20 + cl, 10), (10 + cl, 10), (10 + cl, 6),
           (10, 6), (10, 10), (0, 10)]
    ring = []
    for i in range(len(pts)):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % len(pts)]
        steps = int(abs(x1 - x0) + abs(y1 - y0))
        for s in range(steps):
            t = s / steps
            ring.append((x0 + (x1 - x0) * t, y0 + (y1 - y0) * t))
    ring.append(ring[0])  # shapefile rings repeat the first point
    return np.asarray(ring) + np.array([xa, ya])


def _neck_segments_of(ring: "np.ndarray", radius: float,
                      gap_threshold: float):
    """Literal RemovePolygonNecks per-feature walk
    (VectorTools/src/plugins/RemovePolygonNecks.java:289-396): per
    vertex, the index RANGE of in-radius vertices (remapped past the
    ring seam when the raw range spans it, :333-353), then the largest
    index GAP among them; vertices whose gap ≥ the threshold extend a
    running polyline, emitted when a non-neck vertex ends a run > 1 (a
    run reaching the last vertex is emitted at ANY length, :368)."""
    import numpy as np

    n = len(ring)
    r2 = radius * radius
    d2 = ((ring[:, None, :] - ring[None, :, :]) ** 2).sum(-1)
    segments = []
    pnts = 0
    for i in range(n):
        idx = np.flatnonzero(d2[i] <= r2).astype(np.float64)
        if idx.max() - idx.min() == n - 1:
            idx = np.where(idx < n / 2, idx + n, idx)
        vals = np.sort(idx)
        max_gap = float(np.diff(vals).max()) if len(vals) > 1 else 0.0
        if max_gap >= gap_threshold:
            pnts += 1
            if i == n - 1:
                segments.append(pnts)
                pnts = 0
        elif pnts > 1:
            segments.append(pnts)
            pnts = 0
        else:
            pnts = 0
    return segments


def remove_polygon_necks(sf_dir: str, radius: float = 3.0,
                         gap_threshold: float = 30.0):
    """(rec_id, seg_id, n_points) of detected neck polylines over the
    dumbbell layer — a pure per-feature map."""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def fn(batch):
        import pandas as pd
        rows = []
        for r in pd.DataFrame({k: np.asarray(v)
                               for k, v in batch.items()}).itertuples():
            corridor = 10 + 2 * (int(r.h) % 5)
            ring = _dumbbell_ring(r.xa, r.ya, corridor)
            segs = _neck_segments_of(ring, radius, gap_threshold)
            for j, npts in enumerate(segs):
                rows.append({"rec_id": int(r.rec_id), "seg_id": j + 1,
                             "n_points": int(npts)})
        return pd.DataFrame(rows, columns=["rec_id", "seg_id",
                                           "n_points"])

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


# ---------------------------------------------------------------------------
# MinimumConvexHull (VectorTools/src/plugins/MinimumConvexHull.java):
# per-feature convex hull emitted as a polygon record with the parent's
# attributes. Over the L-shape layer the hull is a pentagon (the notch
# corner is interior), so vertex count / area / perimeter have closed
# forms and the query is exactly SQL-mirrorable.
# ---------------------------------------------------------------------------


def minimum_convex_hull(sf_dir: str, round_to: int = 6):
    """(rec_id, hull_nvert, hull_area, hull_perim) — hull computed from
    the actual vertex ring via the monotone-chain kernel (the JTS
    ConvexHull call at MinimumConvexHull.java); stateless map, no
    shuffle. Exact SQL oracle: pentagon closed forms."""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def fn(batch):
        n = len(batch["rec_id"])
        nv = np.empty(n, dtype=np.int64)
        area = np.empty(n)
        perim = np.empty(n)
        for i in range(n):
            v = _l_vertices(batch["xa"][i], batch["ya"][i],
                            batch["h"][i], batch["w2"][i])
            hull = geom.convex_hull(v)
            nv[i] = len(hull)
            ring = np.vstack([hull, hull[:1]])
            area[i] = 0.5 * abs(np.sum(
                ring[:-1, 0] * ring[1:, 1] - ring[1:, 0] * ring[:-1, 1]))
            perim[i] = float(np.sum(np.hypot(np.diff(ring[:, 0]),
                                             np.diff(ring[:, 1]))))
        return {"rec_id": batch["rec_id"], "hull_nvert": nv,
                "hull_area": np.round(area, round_to),
                "hull_perim": np.round(perim, round_to)}

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


def minimum_convex_hull_sql() -> str:
    from ..core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, 10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2
      FROM pts)
SELECT rec_id, 5 AS hull_nvert,
       round((2.0 * h + w2) * (2.0 * h) - w2 * h / 2.0, 6) AS hull_area,
       round(7.0 * h + w2 + sqrt(w2 * w2 + h * h), 6) AS hull_perim
FROM l
"""


# ---------------------------------------------------------------------------
# LinesToPolygons (Scripts/LinesToPolygons.groovy:126-156): per part —
# removeDuplicates, closePolygon (append first vertex), then force
# clockwise shell order (reverse when getPartHoleData()[0] is true,
# i.e. the ring came in counter-clockwise). One flat stateless map.
# ---------------------------------------------------------------------------


def lines_to_polygons(sf_dir: str, round_to: int = 6):
    """(rec_id, part, nvert, area, reversed) over the open L-ring
    polylines (the PolygonsToLines output shape). nvert counts the
    closing duplicate the groovy appends; ``reversed`` reproduces the
    hole-order test (our generator emits CCW rings, so every ring is
    reversed to a CW shell). Exact SQL oracle."""
    import numpy as np

    from .vector_overlay import doc_lshapes

    def fn(batch):
        n = len(batch["rec_id"])
        nv = np.empty(n, dtype=np.int64)
        area = np.empty(n)
        rev = np.empty(n, dtype=bool)
        for i in range(n):
            v = _l_vertices(batch["xa"][i], batch["ya"][i],
                            batch["h"][i], batch["w2"][i])
            # removeDuplicates: none in the generator ring
            ring = np.vstack([v, v[:1]])          # closePolygon
            signed = 0.5 * np.sum(
                ring[:-1, 0] * ring[1:, 1] - ring[1:, 0] * ring[:-1, 1])
            rev[i] = signed > 0                    # CCW → hole → reverse
            nv[i] = len(ring)
            area[i] = abs(signed)
        return {"rec_id": batch["rec_id"], "part": np.zeros(n, np.int64),
                "nvert": nv, "area": np.round(area, round_to),
                "reversed": rev}

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


def lines_to_polygons_sql() -> str:
    from ..core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE},
l AS (SELECT rec_id, 10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2
      FROM pts)
SELECT rec_id, 0 AS part, 7 AS nvert,
       round(4.0 * h * h + w2 * h, 6) AS area,
       TRUE AS reversed
FROM l
"""


# ---------------------------------------------------------------------------
# SimplifyLineOrPolygon (VectorTools/src/plugins/SimplifyLineOrPolygon
# .java via JTS DouglasPeuckerSimplifier, keep-if-distance > tolerance):
# the distributed query runs the real DP kernel (core/geom.douglas_
# peucker, hypothesis-tested) per feature over a V-polyline layer whose
# retained-vertex set is provably closed-form, making the whole query
# exactly SQL-mirrorable.
# ---------------------------------------------------------------------------


def simplify_line(sf_dir: str, tol: float = 2.5):
    """(rec_id, nvert_in, nvert_out) — V polyline (x0,y0)→(x0+L,y0+e)→
    (x0+2L,y0) per feature, e integer in [-6,6]; DP keeps the apex iff
    the perpendicular distance |e| exceeds tol (the chord is
    horizontal, so the distance IS |e|). Exact SQL oracle."""
    import numpy as np

    from .points import read_points

    def fn(batch):
        x = np.floor(np.asarray(batch["x"], dtype=np.float64))
        y = np.floor(np.asarray(batch["y"], dtype=np.float64))
        z = np.asarray(batch["z"], dtype=np.float64)
        L = 10.0 + z % 50.0
        e = (z % 13.0) - 6.0
        n = len(x)
        nout = np.empty(n, dtype=np.int64)
        for i in range(n):
            pts = np.array([[x[i], y[i]],
                            [x[i] + L[i], y[i] + e[i]],
                            [x[i] + 2.0 * L[i], y[i]]])
            nout[i] = len(geom.douglas_peucker(pts, tol))
        return {"rec_id": np.asarray(batch["rec_id"], dtype=np.int64),
                "nvert_in": np.full(n, 3, dtype=np.int64),
                "nvert_out": nout}

    return read_points(sf_dir).map_batches(fn, batch_format="numpy")


def simplify_line_sql(tol: float = 2.5) -> str:
    from ..core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE}
SELECT rec_id, 3 AS nvert_in,
       CASE WHEN abs((z % 13.0) - 6.0) > {tol} THEN 3 ELSE 2 END AS nvert_out
FROM pts
"""


# ---------------------------------------------------------------------------
# LayerFootprint (VectorTools/src/plugins/LayerFootprint.java): convex
# hull of every vertex in the layer. Distributed as per-block partial
# hulls (map_batches) -> tiny driver-side final hull over the partial
# hull vertices — the global-reduce plan of SURVEY §2.2. Rows-only
# (hull of data-dependent points is not SQL-expressible); mirror-tested
# against the single-process hull of all vertices.
# ---------------------------------------------------------------------------


def layer_footprint_sql(round_to: int = 6) -> str:
    """Exact mirror of layer_footprint_query: all L-shape vertices are
    integer-valued doubles, so hull membership is decided by EXACT
    cross products — an Akl–Toussaint octagon prefilter (strictly
    inside the polygon of the 8 directional extremes → discard) then a
    Jarvis march (farthest-on-collinear rule = monotone chain's
    strictly-convex vertex set). Shoelace terms are exact integers;
    the perimeter matches the engine's math.fsum via Kahan fsum()."""
    from ..core.features import POINTS_CTE
    xs = ["(xa - h)", "(xa + h + w2)", "(xa + h + w2)", "(xa + h)",
          "(xa + h)", "(xa - h)"]
    ys = ["(ya - h)", "(ya - h)", "ya", "ya", "(ya + h)", "(ya + h)"]
    arms = "\n  UNION ALL\n  ".join(
        f"SELECT {x} AS x, {y} AS y FROM l" for x, y in zip(xs, ys))
    # 8 directional extremes, CCW from leftmost (y-up): ties broken by
    # the struct min/max — any achieving point keeps the filter exact.
    dirs = [("x", "min"), ("x + y", "min"), ("y", "min"),
            ("x - y", "max"), ("x", "max"), ("x + y", "max"),
            ("y", "max"), ("x - y", "min")]
    ext = ", ".join(
        f"({agg}({{'k': {expr}, 'x': x, 'y': y}})) AS e{i}"
        for i, (expr, agg) in enumerate(dirs))
    oct_pts = "\n    UNION ALL\n    ".join(
        f"SELECT {i} AS ord, (e{i}).x AS x, (e{i}).y AS y FROM ext"
        for i in range(8))
    return f"""
WITH RECURSIVE {POINTS_CTE},
l AS (SELECT floor(x) AS xa, floor(y) AS ya,
      10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2 FROM pts),
p AS MATERIALIZED (SELECT DISTINCT x, y FROM ({arms})),
ext AS (SELECT {ext} FROM p),
octp AS ({oct_pts}),
octe AS (
  SELECT a.x AS ax, a.y AS ay, b.x AS bx, b.y AS by
  FROM octp a JOIN octp b ON b.ord = (a.ord + 1) % 8
  WHERE a.x <> b.x OR a.y <> b.y),
cand AS MATERIALIZED (
  SELECT q.x, q.y FROM p q
  WHERE EXISTS (SELECT 1 FROM octe e
    WHERE (e.bx - e.ax) * (q.y - e.ay)
        - (e.by - e.ay) * (q.x - e.ax) <= 0)),
start AS (SELECT (min({{'x': x, 'y': y}})).x AS sx,
                 (min({{'x': x, 'y': y}})).y AS sy FROM cand),
walk AS (
  SELECT 0 AS n, sx AS cx, sy AS cy, sx, sy,
         CAST(0.0 AS DOUBLE) AS elen, CAST(0.0 AS DOUBLE) AS term
  FROM start
  UNION ALL
  SELECT g.n + 1, g.wx, g.wy, g.sx, g.sy,
    sqrt((g.wx - g.cx) * (g.wx - g.cx) + (g.wy - g.cy) * (g.wy - g.cy)),
    g.cx * g.wy - g.wx * g.cy
  FROM (
    SELECT t.n, t.cx, t.cy, t.sx, t.sy,
      (max_by({{'x': t.px, 'y': t.py}}, t.d2)).x AS wx,
      (max_by({{'x': t.px, 'y': t.py}}, t.d2)).y AS wy
    FROM (
      SELECT w.n, w.cx, w.cy, w.sx, w.sy, pp.x AS px, pp.y AS py,
        (pp.x - w.cx) * (pp.x - w.cx) + (pp.y - w.cy) * (pp.y - w.cy)
          AS d2,
        MIN((pp.x - w.cx) * (q.y - w.cy)
          - (pp.y - w.cy) * (q.x - w.cx)) AS mincross
      FROM walk w
      JOIN cand pp ON (pp.x <> w.cx OR pp.y <> w.cy)
      JOIN cand q ON TRUE
      WHERE w.n = 0 OR (w.cx <> w.sx OR w.cy <> w.sy)
      GROUP BY w.n, w.cx, w.cy, w.sx, w.sy, pp.x, pp.y) t
    WHERE t.mincross >= 0
    GROUP BY t.n, t.cx, t.cy, t.sx, t.sy) g)
SELECT CAST(MAX(n) AS BIGINT) AS nvert,
       round(0.5 * abs(SUM(term)), {round_to}) AS area,
       round(fsum(elen), {round_to}) AS perimeter
FROM walk
HAVING (SELECT COUNT(*) FROM p) > 0
"""


def layer_footprint_query(sf_dir: str, round_to: int = 6):
    import numpy as np
    import pyarrow as pa

    from .vector_overlay import doc_lshapes

    def partial(batch):
        vs = [
            _l_vertices(batch["xa"][i], batch["ya"][i],
                        batch["h"][i], batch["w2"][i])
            for i in range(len(batch["rec_id"]))]
        hull = geom.convex_hull(np.vstack(vs))
        return {"x": hull[:, 0], "y": hull[:, 1]}

    parts = doc_lshapes(sf_dir).map_batches(
        partial, batch_format="numpy").to_pandas()
    if len(parts) == 0:     # empty layer -> typed empty footprint
        import pandas as pd
        return pa.table({"nvert": pa.array([], pa.int64()),
                         "area": pa.array([], pa.float64()),
                         "perimeter": pa.array([], pa.float64())})
    hull = geom.convex_hull(parts[["x", "y"]].to_numpy())
    ring = np.vstack([hull, hull[:1]])
    # shoelace terms are exact integer products (< 2^53), so the sum is
    # association-free; the perimeter uses math.fsum (exactly rounded)
    # so the SQL mirror's Kahan fsum() lands on the same double.
    area = 0.5 * abs(np.sum(
        ring[:-1, 0] * ring[1:, 1] - ring[1:, 0] * ring[:-1, 1]))
    import math
    perim = float(math.fsum(np.hypot(np.diff(ring[:, 0]),
                                     np.diff(ring[:, 1]))))
    return pa.table({"nvert": [len(hull)],
                     "area": [round(float(area), round_to)],
                     "perimeter": [round(perim, round_to)]})


# ---------------------------------------------------------------------------
# LongAxis / ShortAxis (Scripts/LongAxis.groovy:138-168, ShortAxis
# .groovy same loop) over MinimumBoundingRectangle (WhiteboxAPI/src/
# whitebox/algorithms/MinimumBoundingRectangle.java:116-213):
# hull-edge rotation search around the bbox midpoint, minimum-AREA
# criterion, INCLUDING the literal Double.MIN_VALUE initialisation of
# the rotated east/south extents (a positive-tiny clamp, not -inf —
# reproduced bit-for-bit). Axis endpoints use the groovy's
# north-bearing convention: centre ± len/2 * (sin, cos)(slopeDeg).
# ---------------------------------------------------------------------------

_JAVA_MIN_VALUE = 4.9e-324


def mbr_full(v: "np.ndarray") -> tuple:
    """Literal MinimumBoundingRectangle.getBoundingBox(): returns
    (longAxis, shortAxis, slope_rad, boxCentreX, boxCentreY)."""
    import numpy as np

    v = np.asarray(v, dtype=np.float64)
    east, west = v[:, 0].max(), v[:, 0].min()
    north, south = v[:, 1].max(), v[:, 1].min()
    mid_x = west + (east - west) / 2.0
    mid_y = south + (north - south) / 2.0

    hull = geom.convex_hull(v)
    # JTS ConvexHull.getCoordinates() returns a closed ring
    hull = np.vstack([hull, hull[:1]])
    nh = len(hull)
    right_angle = np.pi / 2.0
    axes = np.array([9999999.0, 9999999.0])
    slope = 0.0
    cx = cy = 0.0
    for m in range(nh - 1):
        dx = hull[m + 1, 0] - hull[m, 0]
        dy = hull[m + 1, 1] - hull[m, 1]
        psi = -np.arctan2(dy, dx)
        x0 = hull[:, 0] - mid_x
        y0 = hull[:, 1] - mid_y
        rx = x0 * np.cos(psi) - y0 * np.sin(psi)
        ry = x0 * np.sin(psi) + y0 * np.cos(psi)
        # literal newBoundingBox init: west/north = +MAX, east/south =
        # Double.MIN_VALUE (positive tiny) — MinimumBoundingRectangle
        # .java:172-175
        w_ = min(rx.min(), 1.7976931348623157e308)
        e_ = max(rx.max(), _JAVA_MIN_VALUE)
        n_ = min(ry.min(), 1.7976931348623157e308)
        s_ = max(ry.max(), _JAVA_MIN_VALUE)
        new_x = abs(e_ - w_)
        new_y = abs(s_ - n_)
        if new_x * new_y < axes[0] * axes[1]:
            axes = np.array([new_x, new_y])
            slope = -psi if new_x > new_y else -(right_angle + psi)
            bx = w_ + new_x / 2.0
            by = n_ + new_y / 2.0
            cx = mid_x + bx * np.cos(-psi) - by * np.sin(-psi)
            cy = mid_y + bx * np.sin(-psi) + by * np.cos(-psi)
    return (float(max(axes)), float(min(axes)), float(slope),
            float(cx), float(cy))


def _axis_query(sf_dir: str, which: str, round_to: int = 6):
    import numpy as np

    from .vector_overlay import doc_lshapes

    def fn(batch):
        n = len(batch["rec_id"])
        length = np.empty(n)
        orient = np.empty(n)
        x0 = np.empty(n); y0 = np.empty(n)
        x1 = np.empty(n); y1 = np.empty(n)
        for i in range(n):
            v = _l_vertices(batch["xa"][i], batch["ya"][i],
                            batch["h"][i], batch["w2"][i])
            lo, sh, slope, cx, cy = mbr_full(v)
            long_deg = 90.0 + np.degrees(np.arctan(np.tan(-slope)))
            if which == "long":
                ln, deg = lo, long_deg
            else:
                ln = sh
                deg = long_deg - 90.0 if long_deg >= 90.0 else long_deg + 90.0
            rad = np.radians(deg)
            length[i] = ln
            orient[i] = deg
            x0[i] = cx + ln / 2.0 * np.sin(rad)
            y0[i] = cy + ln / 2.0 * np.cos(rad)
            x1[i] = cx - ln / 2.0 * np.sin(rad)
            y1[i] = cy - ln / 2.0 * np.cos(rad)
        return {"rec_id": batch["rec_id"],
                "length": np.round(length, round_to),
                "orient": np.round(orient, round_to),
                "x0": np.round(x0, round_to), "y0": np.round(y0, round_to),
                "x1": np.round(x1, round_to), "y1": np.round(y1, round_to)}

    return doc_lshapes(sf_dir).map_batches(fn, batch_format="numpy")


def long_axis(sf_dir: str):
    """LongAxis.groovy — exact SQL oracle (the fixed 5-vertex hull
    unrolls the rotation search); known-answer tested on rotated
    rectangles and checked against the dense rotation sweep."""
    return _axis_query(sf_dir, "long")


def short_axis(sf_dir: str):
    """ShortAxis.groovy — see long_axis (exact SQL oracle)."""
    return _axis_query(sf_dir, "short")


# ---------------------------------------------------------------------------
# InteriorPoint (Scripts/InteriorPoint.groovy:129 — JTS
# Geometry.getInteriorPoint(), i.e. JTS 1.x InteriorPointArea):
# horizontal bisector at the envelope's mid-Y, intersect with the
# polygon, take the WIDEST intersection component, return the centre
# of its envelope. Implemented per feature with an even-odd crossing
# scan; the right-trapezoid layer guarantees a single clean chord, so
# the result has a closed form and the query is exactly SQL-mirrored.
# ---------------------------------------------------------------------------


def _trap_vertices(x0, y0, w, hs, hb):
    """Right trapezoid A(x0,y0) B(x0+w,y0) C(x0+w,y0+hs) D(x0,y0+hb),
    hb/2 > hs by construction so the bisector crosses the slant edge."""
    import numpy as np
    return np.array([[x0, y0], [x0 + w, y0],
                     [x0 + w, y0 + hs], [x0, y0 + hb]])


def interior_point(sf_dir: str, round_to: int = 6):
    """(rec_id, ix, iy) — JTS InteriorPointArea over the trapezoid
    layer. Exact SQL oracle (single-chord closed form)."""
    import numpy as np

    from .points import read_points

    def fn(batch):
        x = np.floor(np.asarray(batch["x"], dtype=np.float64))
        y = np.floor(np.asarray(batch["y"], dtype=np.float64))
        z = np.asarray(batch["z"], dtype=np.float64)
        w = 20.0 + z % 80.0
        hs = 5.0 + z % 7.0
        hb = hs + 32.0  # power-of-two rise → bisector chord is dyadic-exact
        n = len(x)
        ix = np.empty(n)
        iy = np.empty(n)
        for i in range(n):
            v = _trap_vertices(x[i], y[i], w[i], hs[i], hb[i])
            yc = (v[:, 1].min() + v[:, 1].max()) / 2.0  # horizontalBisector
            # even-odd crossing scan of the ring at y = yc
            ring = np.vstack([v, v[:1]])
            xs = []
            for k in range(len(ring) - 1):
                y1_, y2_ = ring[k, 1], ring[k + 1, 1]
                if (y1_ <= yc < y2_) or (y2_ <= yc < y1_):
                    t = (yc - y1_) / (y2_ - y1_)
                    xs.append(ring[k, 0] + t * (ring[k + 1, 0] - ring[k, 0]))
            xs.sort()
            # chords are consecutive pairs; take the widest, return the
            # centre of its envelope (InteriorPointArea.centre)
            best = (-1.0, 0.0)
            for a, b in zip(xs[::2], xs[1::2]):
                if b - a > best[0]:
                    best = (b - a, (a + b) / 2.0)
            ix[i] = best[1]
            iy[i] = yc
        # no rounding: every quantity is dyadic-exact by construction
        # (power-of-two rise), so both engines produce identical bits —
        # round(…,6) would hit half-way ties (multiples of 1/128) where
        # numpy (half-even) and DuckDB (half-away) disagree.
        return {"rec_id": np.asarray(batch["rec_id"], dtype=np.int64),
                "ix": ix, "iy": iy}

    return read_points(sf_dir).map_batches(fn, batch_format="numpy")


def interior_point_sql() -> str:
    from ..core.features import POINTS_CTE
    # yc = y0 + hb/2; slant D(x0,y0+hb)->C(x0+w,y0+hs) crosses yc at
    # x0 + w*(hb-hb/2)/(hb-hs) = x0 + w*(hb/2)/(hb-hs); chord starts on
    # the left edge x = x0 → midpoint is half that offset.
    return f"""
WITH {POINTS_CTE},
t AS (SELECT rec_id, floor(x) AS x0, floor(y) AS y0,
             20.0 + (z % 80.0) AS w, 5.0 + (z % 7.0) AS hs,
             5.0 + (z % 7.0) + 32.0 AS hb FROM pts)
SELECT rec_id,
       x0 + (w * (hb / 2.0) / (hb - hs)) / 2.0 AS ix,
       y0 + hb / 2.0 AS iy
FROM t
"""
