"""Vector overlay stages: Clip / Erase / Intersect (SURVEY.md §2.4).

Reference: VectorTools/src/plugins/Clip.java:275-296 (bbox prefilter) +
:455 (``clipGeom.intersection(jtsGeom)``), Difference.java:217-239,
Intersect.java:215-244 — per-feature geometry ops against a merged,
broadcast second layer.

Without a JTS equivalent in this environment the engine covers:
- axis-aligned box features vs a box clip layer EXACTLY (closed-form
  intersection; SQL-expressible, oracle-checked);
- arbitrary polygon features vs a CONVEX clip ring via Sutherland–
  Hodgman (core.geom.clip_convex) with shoelace areas, verified by
  geometric invariants in tests.
The general concave-vs-concave overlay is tracked in SURVEY.md §7.5.

Distributed shape: the clip layer is tiny → broadcast (closure floats /
ray.put); features stream through a stateless ``map_batches``. Per-tile
area sums use the usual partial+final pattern.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from ..core import geom
from .points import read_points

# the conformance clip window (Python-computed doubles; inlined into SQL)
CLIP_X0, CLIP_Y0 = 800.0, 600.0
CLIP_X1, CLIP_Y1 = 3100.0, 3400.0


def doc_squares(sf_dir: str) -> "rd.Dataset":
    """Feature layer: one axis-aligned square per document point, side
    derived from n_chars (half = 10 + n_chars mod 200). Columns
    (rec_id, xmin, ymin, xmax, ymax)."""
    pts = read_points(sf_dir)

    def to_box(batch):
        half = 10.0 + np.asarray(batch["z"], dtype=np.float64) % 200.0
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        return {"rec_id": np.asarray(batch["rec_id"], dtype=np.int64),
                "xmin": x - half, "ymin": y - half,
                "xmax": x + half, "ymax": y + half}

    return pts.map_batches(to_box, batch_format="numpy")


def clip_boxes(sf_dir: str, round_to: int = 6) -> "rd.Dataset":
    """Clip the square layer to the clip window; emit per-feature
    (rec_id, clip_area) for features with non-empty intersection."""
    boxes = doc_squares(sf_dir)

    def clip(batch):
        w = np.minimum(batch["xmax"], CLIP_X1) - np.maximum(batch["xmin"], CLIP_X0)
        h = np.minimum(batch["ymax"], CLIP_Y1) - np.maximum(batch["ymin"], CLIP_Y0)
        keep = (w > 0) & (h > 0)
        return {"rec_id": batch["rec_id"][keep],
                "clip_area": np.round(w[keep] * h[keep], round_to)}

    return boxes.map_batches(clip, batch_format="numpy")


def erase_boxes(sf_dir: str, round_to: int = 6) -> "rd.Dataset":
    """ErasePolygonFromRaster's vector analogue: area of each square
    OUTSIDE the clip window (original − intersection), zero rows dropped."""
    boxes = doc_squares(sf_dir)

    def erase(batch):
        area = ((batch["xmax"] - batch["xmin"])
                * (batch["ymax"] - batch["ymin"]))
        w = np.minimum(batch["xmax"], CLIP_X1) - np.maximum(batch["xmin"], CLIP_X0)
        h = np.minimum(batch["ymax"], CLIP_Y1) - np.maximum(batch["ymin"], CLIP_Y0)
        inter = np.maximum(w, 0.0) * np.maximum(h, 0.0)
        out = area - inter
        keep = out > 0
        return {"rec_id": batch["rec_id"][keep],
                "erase_area": np.round(out[keep], round_to)}

    return boxes.map_batches(erase, batch_format="numpy")


# ---------------------------------------------------------------------------
# General concave overlay (Intersect / Union / Difference / SymmetricDifference
# — VectorTools/src/plugins/{Intersect,Union,Difference,SymmetricDifference}
# .java:215-244) + Dissolve (Scripts/Dissolve.groovy:202), on the from-scratch
# boolean-area kernel in core.overlay.
#
# Conformance fixture: each document point becomes an L-SHAPED (concave,
# 6-vertex) polygon — square [xa−h,xa+h]² plus a foot [xa+h,xa+h+w2]×[ya−h,ya]
# — against a fixed concave L clip window. All coordinates are snapped to
# integers (exact in float64), and an L decomposes into two interior-disjoint
# rectangles, so DuckDB can mirror every op's area with pure box arithmetic /
# a slab-sweep in SQL while the Ray side runs the general trapezoid-sweep
# kernel on the actual concave rings. Distributed shape: the clip L is a
# module constant (broadcast-by-closure); features stream through a stateless
# ``map_batches``; Dissolve shuffles only 6 scalar columns per feature.
# ---------------------------------------------------------------------------

# clip L = S1 ∪ S2, interior-disjoint boxes sharing the y=2000 edge
CLIP_L_BOXES = ((800.0, 600.0, 3100.0, 2000.0),
                (800.0, 2000.0, 2000.0, 3400.0))
CLIP_L_RINGS = [np.array([[800.0, 600.0], [3100.0, 600.0], [3100.0, 2000.0],
                          [2000.0, 2000.0], [2000.0, 3400.0], [800.0, 3400.0]])]
CLIP_L_AREA = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in CLIP_L_BOXES)

DISSOLVE_GROUPS = 499


def doc_lshapes(sf_dir: str) -> "rd.Dataset":
    """L-shape layer: (rec_id, xa, ya, h, w2) — all integer-valued doubles."""
    pts = read_points(sf_dir)

    def to_l(batch):
        z = np.asarray(batch["z"], dtype=np.float64)
        return {"rec_id": np.asarray(batch["rec_id"], dtype=np.int64),
                "xa": np.floor(np.asarray(batch["x"], dtype=np.float64)),
                "ya": np.floor(np.asarray(batch["y"], dtype=np.float64)),
                "h": 10.0 + z % 200.0,
                "w2": 20.0 + z % 97.0}

    return pts.map_batches(to_l, batch_format="numpy")


def _l_ring(xa: float, ya: float, h: float, w2: float) -> np.ndarray:
    return np.array([[xa - h, ya - h], [xa + h + w2, ya - h],
                     [xa + h + w2, ya], [xa + h, ya],
                     [xa + h, ya + h], [xa - h, ya + h]])


def overlay_areas(sf_dir: str, op: str, round_to: int = 6) -> "rd.Dataset":
    """Per-feature area of op(L_feature, L_clip) via the general kernel.

    ``intersection`` drops empty results (Clip.java drops features with
    empty intersections); the other ops keep every feature (their result
    is never empty — union/symdiff contain B; difference may be 0 when
    the feature lies inside the clip, kept as an explicit 0 row).
    """
    from ..core.overlay import boolean_area

    ls = doc_lshapes(sf_dir)
    col = f"{op.replace('symmetric_difference', 'symdiff')}_area"

    def per_batch(batch):
        n = len(batch["rec_id"])
        areas = np.empty(n, dtype=np.float64)
        for i in range(n):
            areas[i] = boolean_area(
                [_l_ring(batch["xa"][i], batch["ya"][i],
                         batch["h"][i], batch["w2"][i])],
                CLIP_L_RINGS, op)
        areas = np.round(areas, round_to)
        keep = areas > 0 if op == "intersection" else np.ones(n, dtype=bool)
        return {"rec_id": batch["rec_id"][keep], col: areas[keep]}

    return ls.map_batches(per_batch, batch_format="numpy")


def dissolve_union_area(sf_dir: str, n_groups: int = DISSOLVE_GROUPS,
                        round_to: int = 6) -> "rd.Dataset":
    """Dissolve: group features by attribute, exact area of each group's
    geometric union (Dissolve.groovy:202 buffer(0)-union per group;
    Fuse.java merges touching geometries the same way). groupby shuffles
    the 6-scalar L parameters only; each group unions locally via the
    combined-sweep kernel."""
    import pandas as pd

    from ..core.overlay import union_area_many

    ls = doc_lshapes(sf_dir)

    def add_gid(batch):
        batch["gid"] = batch["rec_id"] % n_groups
        return batch

    def per_group(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values("rec_id")   # fixed union order
        polys = [[_l_ring(r.xa, r.ya, r.h, r.w2)]
                 for r in df.itertuples(index=False)]
        return pd.DataFrame({
            "gid": [int(df["gid"].iloc[0])],
            "union_area": [round(union_area_many(polys), round_to)]})

    from .util import combine, groupwise_combine
    return combine(ls.map_batches(add_gid, batch_format="numpy"), "gid",
                   groupwise_combine(per_group, "gid")).sort("gid")


def clip_polygons_convex(polys: list[dict], clip_ring: np.ndarray,
                         round_to: int = 6) -> pd.DataFrame:
    """Sutherland–Hodgman clip of arbitrary polygon shells against a
    convex CCW ring; returns (zone_id, area, clip_area) per feature.
    Holes are subtracted (clip each ring, signed areas)."""
    rows = []
    for p in polys:
        poly: geom.Polygon = p["polygon"]
        total = 0.0
        clipped = 0.0
        for i, ring in enumerate(poly.rings):
            a = abs(geom.signed_area(np.asarray(ring)))
            cr = geom.clip_convex(np.asarray(ring), clip_ring)
            ca = abs(geom.signed_area(cr)) if len(cr) >= 3 else 0.0
            sign = 1.0 if i == 0 else -1.0
            total += sign * a
            clipped += sign * ca
        rows.append({"zone_id": p["zone_id"],
                     "area": round(total, round_to),
                     "clip_area": round(clipped, round_to)})
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Fuse (VectorTools/src/plugins/Fuse.java, 938 LoC): merge TOUCHING
# features — JTS union with the reference's parent-match predicate
# ``overlaps || covers || distance < 0.0001`` (Fuse.java:400-403).
# The explicit touching-closure query the dissolve family lacked.
# ---------------------------------------------------------------------------

FUSE_EPS = 1e-4


def fuse_boxes(sf_dir: str) -> "rd.Dataset":
    """Fuse layer squares (half = 10 + n_chars mod 40): sized so the
    corpus yields real multi-hop touching chains (≈150 edges, 350
    components, max ≈9 members at sf0.01) while staying local."""
    from ..stages.points import read_points

    def to_box(batch):
        z = np.asarray(batch["z"], dtype=np.float64)
        half = 10.0 + z % 40.0
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        return {"rec_id": np.asarray(batch["rec_id"], dtype=np.int64),
                "xmin": x - half, "ymin": y - half,
                "xmax": x + half, "ymax": y + half}

    return read_points(sf_dir).map_batches(to_box, batch_format="numpy")


def _rect_union_area(xmin, xmax, ymin, ymax) -> float:
    """Union area of axis-aligned rectangles by grid decomposition:
    split on every edge coordinate; a grid cell is covered iff its
    CENTER is strictly inside any rectangle (centers never sit on
    edges because edges are grid lines). The SQL oracle runs the
    identical decomposition."""
    xs = np.unique(np.concatenate([xmin, xmax]))
    ys = np.unique(np.concatenate([ymin, ymax]))
    cx = (xs[:-1] + xs[1:]) / 2.0
    cy = (ys[:-1] + ys[1:]) / 2.0
    wx = np.diff(xs)
    wy = np.diff(ys)
    inx = (cx[:, None] > xmin[None, :]) & (cx[:, None] < xmax[None, :])
    iny = (cy[:, None] > ymin[None, :]) & (cy[:, None] < ymax[None, :])
    cov = (inx[:, None, :] & iny[None, :, :]).any(axis=2)
    return float((wx[:, None] * wy[None, :])[cov].sum())


def fuse_touching(sf_dir: str, round_to: int = 4) -> pd.DataFrame:
    """Touching-closure fuse: connected components under the Fuse
    predicate (box gap distance < 0.0001, which subsumes overlaps /
    covers for axis-aligned boxes), one fused geometry per component.
    Output (component_id = min rec_id, n_members, fused_area).

    Distributed shape: candidate pairs from the eps-expanded bbox
    cell-duplication shuffle (compact edge list — O(features·density));
    the transitive closure runs as a driver union-find over that
    compact list (the clump boundary-merge pattern); component labels
    broadcast once; per-component union area via a
    ``util.combine`` grid decomposition keyed on the label. Exact SQL
    oracle (recursive-CTE closure + the same decomposition)."""
    import ray

    boxes = fuse_boxes(sf_dir)
    pitch = 128.0                     # > max side (100) + eps

    def emit(batch) -> pd.DataFrame:
        xmin = np.asarray(batch["xmin"]); xmax = np.asarray(batch["xmax"])
        ymin = np.asarray(batch["ymin"]); ymax = np.asarray(batch["ymax"])
        rec = np.asarray(batch["rec_id"], dtype=np.int64)
        out = {k: [] for k in ("gkey", "rec_id", "xmin", "ymin",
                               "xmax", "ymax")}
        gx0 = np.floor((xmin - FUSE_EPS) / pitch).astype(np.int64)
        gx1 = np.floor((xmax + FUSE_EPS) / pitch).astype(np.int64)
        gy0 = np.floor((ymin - FUSE_EPS) / pitch).astype(np.int64)
        gy1 = np.floor((ymax + FUSE_EPS) / pitch).astype(np.int64)
        for i in range(len(rec)):
            for gx in range(gx0[i], gx1[i] + 1):
                for gy in range(gy0[i], gy1[i] + 1):
                    out["gkey"].append(gx * 1_000_003 + gy)
                    out["rec_id"].append(rec[i])
                    out["xmin"].append(xmin[i]); out["ymin"].append(ymin[i])
                    out["xmax"].append(xmax[i]); out["ymax"].append(ymax[i])
        return pd.DataFrame(out)

    def _cell_edges(g: pd.DataFrame) -> pd.DataFrame:
        r = g["rec_id"].to_numpy()
        x0 = g["xmin"].to_numpy(); x1 = g["xmax"].to_numpy()
        y0 = g["ymin"].to_numpy(); y1 = g["ymax"].to_numpy()
        dx = np.maximum(np.maximum(x0[:, None] - x1[None, :],
                                   x0[None, :] - x1[:, None]), 0.0)
        dy = np.maximum(np.maximum(y0[:, None] - y1[None, :],
                                   y0[None, :] - y1[:, None]), 0.0)
        touch = np.sqrt(dx * dx + dy * dy) < FUSE_EPS
        ia, ib = np.nonzero(touch & (r[:, None] < r[None, :]))
        return pd.DataFrame({"a": r[ia], "b": r[ib]})

    # gkey counts grow with the extent — util.combine runs many cells in
    # one pandas pass: Ray's per-group machinery was ~1 s over ~960 grid
    # cells
    from .util import combine, groupwise_combine
    edges = (combine(boxes.map_batches(emit, batch_format="numpy"), "gkey",
                     groupwise_combine(_cell_edges, "gkey"))
             .to_pandas().drop_duplicates())

    if "a" not in edges.columns:      # no touching pairs at all
        edges = pd.DataFrame({"a": pd.Series([], dtype="int64"),
                              "b": pd.Series([], dtype="int64")})

    # compact driver union-find (min-label roots)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in zip(edges["a"], edges["b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            lo, hi = min(ra, rb), max(ra, rb)
            parent[hi] = lo
    labels = {x: find(x) for x in parent}
    lbl_ref = ray.put(labels)

    def tag(batch) -> pd.DataFrame:
        lut = ray.get(lbl_ref) if not isinstance(lbl_ref, dict) else lbl_ref
        rec = np.asarray(batch["rec_id"], dtype=np.int64)
        lbl = np.array([lut.get(int(x), int(x)) for x in rec],
                       dtype=np.int64)
        return pd.DataFrame({
            "lbl": lbl,
            "xmin": batch["xmin"], "ymin": batch["ymin"],
            "xmax": batch["xmax"], "ymax": batch["ymax"]})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # components ≈ features: reduce many components inside one
        # pandas pass (Ray's per-group machinery at ~3 ms × 5k labels
        # was the stage cost)
        ids, members, areas = [], [], []
        for lbl, sub in g.groupby("lbl", sort=False):
            ids.append(int(lbl))
            members.append(len(sub))
            areas.append(round(_rect_union_area(
                sub["xmin"].to_numpy(), sub["xmax"].to_numpy(),
                sub["ymin"].to_numpy(), sub["ymax"].to_numpy()), round_to))
        return pd.DataFrame({
            "component_id": np.asarray(ids, dtype=np.int64),
            "n_members": np.asarray(members, dtype=np.int64),
            "fused_area": np.asarray(areas, dtype=np.float64)})

    out = combine(boxes.map_batches(tag, batch_format="numpy"), "lbl",
                  per_bucket).to_pandas()
    if len(out) == 0:       # empty layer -> typed empty components
        return pd.DataFrame({"component_id": pd.Series([], dtype="int64"),
                             "n_members": pd.Series([], dtype="int64"),
                             "fused_area": pd.Series([], dtype="float64")})
    return out.sort_values("component_id").reset_index(drop=True)


def fuse_touching_sql(round_to: int = 4) -> str:
    from ..core.features import POINTS_CTE
    return f"""
WITH RECURSIVE {POINTS_CTE},
bx AS (
  SELECT rec_id, x - (10.0 + z % 40.0) AS xmin, y - (10.0 + z % 40.0) AS ymin,
         x + (10.0 + z % 40.0) AS xmax, y + (10.0 + z % 40.0) AS ymax
  FROM pts),
eg AS (
  SELECT a.rec_id AS a, b.rec_id AS b
  FROM bx a JOIN bx b ON a.rec_id < b.rec_id
  WHERE sqrt(
      greatest(greatest(a.xmin - b.xmax, b.xmin - a.xmax), 0.0)
        * greatest(greatest(a.xmin - b.xmax, b.xmin - a.xmax), 0.0)
      + greatest(greatest(a.ymin - b.ymax, b.ymin - a.ymax), 0.0)
        * greatest(greatest(a.ymin - b.ymax, b.ymin - a.ymax), 0.0))
      < {FUSE_EPS!r}),
sym AS (SELECT a, b FROM eg UNION SELECT b, a FROM eg),
reach(a, b) AS (
  SELECT a, b FROM sym
  UNION
  SELECT r.a, s.b FROM reach r JOIN sym s ON s.a = r.b),
lbl AS (
  SELECT bx.rec_id,
         least(bx.rec_id, COALESCE(min(r.b), bx.rec_id)) AS lbl
  FROM bx LEFT JOIN reach r ON r.a = bx.rec_id
  GROUP BY bx.rec_id),
comp AS (
  SELECT l.lbl, b.rec_id, b.xmin, b.ymin, b.xmax, b.ymax
  FROM bx b JOIN lbl l ON l.rec_id = b.rec_id),
xs AS (SELECT DISTINCT lbl, xmin AS x FROM comp
       UNION SELECT DISTINCT lbl, xmax FROM comp),
ysd AS (SELECT DISTINCT lbl, ymin AS y FROM comp
        UNION SELECT DISTINCT lbl, ymax FROM comp),
xi AS (SELECT lbl, x AS x1,
              lead(x) OVER (PARTITION BY lbl ORDER BY x) AS x2 FROM xs),
yi AS (SELECT lbl, y AS y1,
              lead(y) OVER (PARTITION BY lbl ORDER BY y) AS y2 FROM ysd),
cov AS (
  SELECT DISTINCT c.lbl, c.x1, c.x2, c.y1, c.y2
  FROM (SELECT xi.lbl, xi.x1, xi.x2, yi.y1, yi.y2
        FROM xi JOIN yi ON yi.lbl = xi.lbl
        WHERE xi.x2 IS NOT NULL AND yi.y2 IS NOT NULL) c
  JOIN comp b ON b.lbl = c.lbl
   AND (c.x1 + c.x2) / 2.0 > b.xmin AND (c.x1 + c.x2) / 2.0 < b.xmax
   AND (c.y1 + c.y2) / 2.0 > b.ymin AND (c.y1 + c.y2) / 2.0 < b.ymax)
SELECT n.lbl AS component_id,
       CAST(n.n AS BIGINT) AS n_members,
       round(a.area, {round_to}) AS fused_area
FROM (SELECT lbl, count(*) AS n FROM comp GROUP BY lbl) n
JOIN (SELECT lbl, sum((x2 - x1) * (y2 - y1)) AS area FROM cov
      GROUP BY lbl) a ON a.lbl = n.lbl
ORDER BY component_id
"""
