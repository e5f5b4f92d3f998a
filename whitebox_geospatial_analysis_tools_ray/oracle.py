"""DuckDB oracle SQL builders — exact mirrors of the Ray pipelines.

Every query in ``__ray_entry__.registry()`` that is SQL-expressible has a
builder here producing ANSI-ish SQL DuckDB can run against the
pre-registered views (documents, embeddings, events, lineitem, orders,
customer, nation, part, region, supplier).

Mirroring rules (shared with the numpy stages):
- coordinates derive from exact int64 LCG arithmetic then a fixed-order
  float64 expression (core.rng.geocode_sql);
- float aggregate outputs are ROUND()ed identically on both sides;
- integer sums are CAST(... AS BIGINT) (DuckDB SUM(BIGINT) → HUGEINT);
- zone/site/cell constants are Python-computed doubles inlined as repr
  literals (repr round-trips IEEE doubles exactly).
"""

from __future__ import annotations

import math

from .core.features import (POINTS_CTE, cell_centers, cell_centers_sql_values,
                            rect_zones, rect_zones_sql_values, site_points,
                            site_points_sql_values, triangle_zones)
from .core.geom import triangle_pip_sql
from .core.rng import GATE_SIDE, NODATA

W = 250.0  # default tile width


# ---------------------------------------------------------------------------
# Tiling
# ---------------------------------------------------------------------------

def tile_assign_sql(width: float = W) -> str:
    return f"""
WITH {POINTS_CTE},
ext AS (
  SELECT CAST(floor(min(x) / {width!r}) AS BIGINT) AS sx,
         CAST(floor(min(y) / {width!r}) AS BIGINT) AS sy,
         CAST(ceil(max(x) / {width!r}) AS BIGINT)
           - CAST(floor(min(x) / {width!r}) AS BIGINT) AS ncols
  FROM pts),
keyed AS (
  SELECT (CAST(floor(y / {width!r}) AS BIGINT) - ext.sy) * ext.ncols
         + (CAST(floor(x / {width!r}) AS BIGINT) - ext.sx) AS tile_id, z
  FROM pts, ext)
SELECT tile_id,
       COUNT(*) AS n_points,
       round(SUM(z), 6) AS sum_z,
       MIN(z) AS min_z,
       MAX(z) AS max_z
FROM keyed GROUP BY tile_id
"""


def hex_assign_sql(width: float = W) -> str:
    """Nearest-hex-center binning (HexBinning.groovy:106-206), 4-candidate
    closed form; grid constants derive from the data extent in SQL with
    the same float op order as core.tiles.HexGrid."""
    hw = 0.5 * width
    size = hw / math.cos(math.pi / 6)
    height = 2.0 * size
    tqh = 0.75 * height
    qh = 0.25 * height

    ext = (f"ext AS (SELECT min(x) AS minx, max(x) AS maxx, "
           f"min(y) AS miny, max(y) AS maxy FROM pts)")
    grid = (f"g AS (SELECT minx + {hw!r} AS cx0, maxy - {qh!r} AS cy0, "
            f"CAST(ceil((maxy - miny) / {tqh!r}) AS BIGINT) AS nrows, "
            f"CAST(ceil((maxx - minx) / {width!r}) AS BIGINT) AS ce, "
            f"CAST(ceil((maxx - minx + {hw!r}) / {width!r}) AS BIGINT) AS co "
            f"FROM ext)")

    def cand(dr: int, dc: int) -> tuple[str, str]:
        row = (f"least(greatest(CAST(floor((g.cy0 - y) / {tqh!r}) AS BIGINT)"
               f" + {dr}, 0), g.nrows - 1)")
        rowoff = f"(g.cx0 - {hw!r} * (({row}) % 2))"
        ncols = f"(CASE WHEN ({row}) % 2 = 0 THEN g.ce ELSE g.co END)"
        col = (f"least(greatest(CAST(floor((x - {rowoff}) / {width!r}) AS BIGINT)"
               f" + {dc}, 0), {ncols} - 1)")
        cx = f"({rowoff} + ({col}) * {width!r})"
        cy = f"(g.cy0 - ({row}) * {tqh!r})"
        d2 = f"((x - {cx}) * (x - {cx}) + (y - {cy}) * (y - {cy}))"
        start = f"((({row}) + 1) // 2 * g.ce + ({row}) // 2 * g.co)"
        return d2, f"({start} + ({col}))"

    # materialize candidates as columns, then lexicographic argmin
    cands = [cand(dr, dc) for dr in (0, 1) for dc in (0, 1)]
    cols = ", ".join(f"{d2} AS d{i}, {idx} AS i{i}"
                     for i, (d2, idx) in enumerate(cands))
    best = "i0"
    bestd = "d0"
    for i in range(1, 4):
        take = (f"(d{i} < {bestd} OR (d{i} = {bestd} AND i{i} < {best}))")
        best = f"(CASE WHEN {take} THEN i{i} ELSE {best} END)"
        bestd = f"(CASE WHEN {take} THEN d{i} ELSE {bestd} END)"

    return f"""
WITH {POINTS_CTE}, {ext}, {grid},
cand AS (SELECT {cols} FROM pts, g),
keyed AS (SELECT {best} AS hex_id FROM cand)
SELECT hex_id, COUNT(*) AS n_points FROM keyed GROUP BY hex_id
"""


# ---------------------------------------------------------------------------
# Spatial joins
# ---------------------------------------------------------------------------

def pip_rect_join_sql() -> str:
    zones = rect_zones_sql_values(rect_zones(), alias="z")
    return f"""
WITH {POINTS_CTE}
SELECT p.rec_id, z.zone_id
FROM pts p JOIN {zones}
  ON p.x >= z.xmin AND p.x <= z.xmax AND p.y >= z.ymin AND p.y <= z.ymax
"""


def pip_triangle_join_sql() -> str:
    parts = []
    for t in triangle_zones():
        pred = triangle_pip_sql("p.x", "p.y", t["ax"], t["ay"], t["bx"],
                                t["by"], t["cx"], t["cy"])
        parts.append(
            f"SELECT p.rec_id, {t['zone_id']} AS zone_id FROM pts p WHERE {pred}")
    union = "\nUNION ALL\n".join(parts)
    return f"WITH {POINTS_CTE}\n{union}"


def spatial_anti_join_sql() -> str:
    zones = rect_zones_sql_values(rect_zones(), alias="z")
    return f"""
WITH {POINTS_CTE}
SELECT p.rec_id, p.x, p.y
FROM pts p
WHERE NOT EXISTS (
  SELECT 1 FROM {zones}
  WHERE p.x >= z.xmin AND p.x <= z.xmax AND p.y >= z.ymin AND p.y <= z.ymax)
"""


def within_distance_join_sql(radius: float = 300.0) -> str:
    sites = site_points_sql_values(site_points())
    return f"""
WITH {POINTS_CTE}
SELECT p.rec_id, s.site_id
FROM pts p JOIN {sites}
  ON (p.x - s.sx) * (p.x - s.sx) + (p.y - s.sy) * (p.y - s.sy)
     <= {radius * radius!r}
"""


# ---------------------------------------------------------------------------
# kNN / IDW
# ---------------------------------------------------------------------------

def idw_sql(max_dist: float = 400.0, p: float = 2.0) -> str:
    cells = cell_centers_sql_values(cell_centers())
    maxd2 = max_dist * max_dist
    return f"""
WITH {POINTS_CTE},
d AS (
  SELECT c.cell_id, p.rec_id, p.z,
         (c.cx - p.x) * (c.cx - p.x) + (c.cy - p.y) * (c.cy - p.y) AS d2
  FROM {cells}, pts p),
agg AS (
  SELECT cell_id,
         COUNT(CASE WHEN d2 = 0 THEN 1 END) AS n_exact,
         MIN(CASE WHEN d2 = 0 THEN rec_id END) AS exact_rec,
         SUM(CASE WHEN d2 > 0 AND d2 < {maxd2!r}
                  THEN 1.0 / power(sqrt(d2), {p!r}) END) AS wsum,
         SUM(CASE WHEN d2 > 0 AND d2 < {maxd2!r}
                  THEN z / power(sqrt(d2), {p!r}) END) AS zsum
  FROM d GROUP BY cell_id),
ex AS (
  SELECT d.cell_id, d.z AS exact_z FROM d
  JOIN agg ON d.cell_id = agg.cell_id AND d.rec_id = agg.exact_rec AND d.d2 = 0)
SELECT c.cell_id,
       round(CASE WHEN a.n_exact > 0 THEN ex.exact_z
                  WHEN a.wsum > 0 THEN a.zsum / a.wsum
                  ELSE {NODATA!r} END, 4) AS idw_z
FROM {cells} LEFT JOIN agg a ON a.cell_id = c.cell_id
LEFT JOIN ex ON c.cell_id = ex.cell_id
"""


def nearest_site_sql() -> str:
    sites = site_points_sql_values(site_points())
    return f"""
WITH {POINTS_CTE},
d AS (
  SELECT s.site_id, p.rec_id,
         (s.sx - p.x) * (s.sx - p.x) + (s.sy - p.y) * (s.sy - p.y) AS d2
  FROM {sites}, pts p),
m AS (SELECT site_id, MIN(d2) AS md FROM d GROUP BY site_id)
SELECT d.site_id,
       CAST(MIN(d.rec_id) AS BIGINT) AS nn_rec,
       round(sqrt(m.md), 6) AS nn_dist
FROM d JOIN m ON d.site_id = m.site_id AND d.d2 = m.md
GROUP BY d.site_id, m.md
"""


# ---------------------------------------------------------------------------
# Aggregations / dedup
# ---------------------------------------------------------------------------

def cell_aggregates_sql(width: float = W, ncols: int = 16) -> str:
    return f"""
WITH {POINTS_CTE},
keyed AS (
  SELECT CAST(floor(y / {width!r}) AS BIGINT) * {ncols}
         + CAST(floor(x / {width!r}) AS BIGINT) AS tile_id, rec_id, z
  FROM pts)
SELECT tile_id, COUNT(*) AS n,
       MIN(z) AS min_z, MAX(z) AS max_z,
       round(SUM(z), 6) AS sum_z,
       round(SUM(z) / COUNT(*), 6) AS mean_z,
       MAX(z) - MIN(z) AS range_z,
       arg_min(z, rec_id) AS first_z,
       arg_max(z, rec_id) AS last_z
FROM keyed GROUP BY tile_id
"""


def coincident_dedup_sql(tol: float = 50.0) -> str:
    return f"""
WITH {POINTS_CTE}
SELECT CAST(floor(x / {tol!r}) AS BIGINT) AS snap_x,
       CAST(floor(y / {tol!r}) AS BIGINT) AS snap_y,
       CAST(MIN(rec_id) AS BIGINT) AS survivor_id,
       COUNT(*) AS n_coincident
FROM pts GROUP BY 1, 2
"""


def exact_dedup_sql() -> str:
    return """
SELECT md5(COALESCE(text, '')) AS text_md5,
       CAST(MIN(doc_id) AS BIGINT) AS survivor_id,
       COUNT(*) AS dup_count
FROM documents GROUP BY md5(COALESCE(text, ''))
"""


def zonal_stats_sql() -> str:
    # same sum/sumsq formulation as the Ray final combine (not stddev_samp)
    return """
WITH a AS (
  SELECT COALESCE(lang, '') AS lang, COUNT(*) AS n,
         SUM(CAST(n_chars AS DOUBLE)) AS s,
         SUM(CAST(n_chars AS DOUBLE) * CAST(n_chars AS DOUBLE)) AS s2,
         MIN(CAST(n_chars AS DOUBLE)) AS mn,
         MAX(CAST(n_chars AS DOUBLE)) AS mx
  FROM documents GROUP BY 1)
SELECT lang, n,
       round(s / n, 6) AS avg_z,
       mn AS min_z, mx AS max_z, mx - mn AS range_z,
       round(s, 6) AS total_z,
       round(sqrt(greatest((s2 - s * s / n), 0.0)
                  / (CASE WHEN n > 1 THEN n - 1 ELSE 1 END)), 6) AS std_z
FROM a
"""


def histogram_sql(nbins: int = 20) -> str:
    return f"""
WITH ext AS (
  SELECT CAST(min(n_chars) AS DOUBLE) AS lo, CAST(max(n_chars) AS DOUBLE) AS hi
  FROM documents),
b AS (
  SELECT least(CAST(floor((CAST(n_chars AS DOUBLE) - ext.lo)
               / (CASE WHEN ext.hi > ext.lo
                       THEN (ext.hi - ext.lo) / {nbins} ELSE 1.0 END))
               AS BIGINT), {nbins - 1}) AS bin_id
  FROM documents, ext)
SELECT bin_id, COUNT(*) AS bin_count FROM b GROUP BY bin_id
"""


# ---------------------------------------------------------------------------
# Text analysis
# ---------------------------------------------------------------------------

def token_stats_sql() -> str:
    return r"""
WITH t AS (
  SELECT COALESCE(lang, '') AS lang,
         CASE WHEN trim(COALESCE(text, '')) = '' THEN 0
              ELSE array_length(string_split_regex(
                     trim(COALESCE(text, '')), '\s+')) END AS ntok,
         length(COALESCE(text, '')) AS nchar
  FROM documents)
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(ntok) AS BIGINT) AS total_tokens,
       round(CAST(SUM(ntok) AS DOUBLE) / COUNT(*), 6) AS avg_tokens,
       round(CAST(SUM(nchar) AS DOUBLE) / COUNT(*), 6) AS avg_chars
FROM t GROUP BY lang
"""


def quality_scores_sql() -> str:
    return r"""
WITH t AS (
  SELECT COALESCE(lang, '') AS lang, length(tx) AS n,
         length(tx) - length(regexp_replace(tx, '[.,!?;:]', '', 'g')) AS np,
         length(tx) - length(regexp_replace(tx, '[A-Z]', '', 'g')) AS nu,
         length(tx) - length(regexp_replace(tx, '[0-9]', '', 'g')) AS nd
  FROM (SELECT lang, COALESCE(text, '') AS tx FROM documents)),
r AS (
  SELECT lang,
         CASE WHEN n > 0 THEN CAST(np AS DOUBLE) / n ELSE 0.0 END AS rp,
         CASE WHEN n > 0 THEN CAST(nu AS DOUBLE) / n ELSE 0.0 END AS ru,
         CASE WHEN n > 0 THEN CAST(nd AS DOUBLE) / n ELSE 0.0 END AS rd
  FROM t)
SELECT lang, COUNT(*) AS n_docs,
       round(SUM(rp) / COUNT(*), 6) AS avg_punct_ratio,
       round(SUM(ru) / COUNT(*), 6) AS avg_upper_ratio,
       round(SUM(rd) / COUNT(*), 6) AS avg_digit_ratio
FROM r GROUP BY lang
"""


def fingerprint_sql() -> str:
    return r"""
WITH f AS (
  SELECT COALESCE(lang, '') AS lang,
         md5(lower(regexp_replace(COALESCE(text, ''), '\s+', ' ', 'g')))
           AS fp
  FROM documents)
SELECT lang, COUNT(*) AS n_docs,
       COUNT(DISTINCT fp) AS n_distinct_fingerprints
FROM f GROUP BY lang
"""


# ---------------------------------------------------------------------------
# ANN
# ---------------------------------------------------------------------------

def ann_cosine_topk_sql(k: int = 20, query_vec_id: int = 0) -> str:
    return f"""
WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS qe FROM embeddings
           WHERE vec_id = {query_vec_id} AND embedding IS NOT NULL)
SELECT e.vec_id,
       round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe), 6)
         AS cosine
FROM embeddings e, q
ORDER BY cosine DESC, e.vec_id
LIMIT {k}
"""


def ann_ivf_topk_sql(k: int = 20, query_vec_id: int = 0,
                     n_lists: int = 16, nprobe: int = 4) -> str:
    """Mirror of stages/ann.py:ivf_topk — centroids are the n_lists
    lowest vec_ids; assignment/probe by rounded cosine, ties → lowest
    list id."""
    return f"""
WITH cent AS (
  SELECT vec_id AS list_id, CAST(embedding AS DOUBLE[]) AS ce
  FROM embeddings WHERE embedding IS NOT NULL
  ORDER BY vec_id LIMIT {n_lists}),
q AS (SELECT CAST(embedding AS DOUBLE[]) AS qe FROM embeddings
      WHERE vec_id = {query_vec_id} AND embedding IS NOT NULL),
probe AS (
  SELECT list_id FROM cent, q
  ORDER BY round(list_cosine_similarity(ce, qe), 6) DESC, list_id
  LIMIT {nprobe}),
assign AS (
  SELECT vec_id, list_id FROM (
    SELECT e.vec_id, c.list_id,
           row_number() OVER (PARTITION BY e.vec_id
             ORDER BY round(list_cosine_similarity(
                 CAST(e.embedding AS DOUBLE[]), c.ce), 6) DESC,
               c.list_id) AS rn
    FROM embeddings e CROSS JOIN cent c
    WHERE e.embedding IS NOT NULL)
  WHERE rn = 1)
SELECT e.vec_id,
       round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe), 6)
         AS cosine
FROM embeddings e
JOIN assign a ON a.vec_id = e.vec_id
CROSS JOIN q
WHERE a.list_id IN (SELECT list_id FROM probe)
ORDER BY cosine DESC, e.vec_id
LIMIT {k}
"""


def ann_knn_join_sql(n_queries: int = 10, k: int = 3) -> str:
    return f"""
WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
           FROM embeddings WHERE embedding IS NOT NULL
           ORDER BY vec_id LIMIT {n_queries}),
d AS (
  SELECT q.query_id, e.vec_id,
         round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe), 6)
           AS cosine
  FROM embeddings e, q
  WHERE e.vec_id <> q.query_id AND e.embedding IS NOT NULL),
r AS (
  SELECT *, row_number() OVER (PARTITION BY query_id
                               ORDER BY cosine DESC, vec_id) AS rn
  FROM d)
SELECT query_id, vec_id, cosine FROM r WHERE rn <= {k}
"""


# ---------------------------------------------------------------------------
# Relational
# ---------------------------------------------------------------------------

def q1_sql() -> str:
    return """
SELECT l_returnflag, l_linestatus,
       round(SUM(l_quantity), 4) AS sum_qty,
       round(SUM(l_extendedprice), 4) AS sum_base_price,
       round(SUM(l_extendedprice * (1.0 - l_discount)), 4) AS sum_disc_price,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


def revenue_by_nation_sql() -> str:
    return """
SELECT n.n_name,
       round(SUM(o.o_totalprice), 4) AS revenue,
       COUNT(*) AS n_orders
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name
"""


def top_parts_sql(k: int = 15) -> str:
    return f"""
SELECT p_partkey, p_name, p_retailprice
FROM part ORDER BY p_retailprice DESC, p_partkey LIMIT {k}
"""


def events_asof_join_sql(left_type: str = "purchase",
                         right_type: str = "signup") -> str:
    """Exact mirror of stages/relational.events_asof_join: per-user
    latest strictly-prior right event; integer-µs gap (exact), -1 when
    none."""
    return f"""
WITH l AS (SELECT event_id, user_id, ts FROM events
           WHERE event_type = '{left_type}'),
r AS (SELECT user_id, ts FROM events WHERE event_type = '{right_type}')
SELECT l.event_id, l.user_id,
       CAST(CASE WHEN MAX(epoch_us(r.ts)) IS NULL THEN 0 ELSE 1 END
            AS BIGINT) AS has_prior,
       CAST(COALESCE(ANY_VALUE(epoch_us(l.ts)) - MAX(epoch_us(r.ts)), -1)
            AS BIGINT) AS gap_us
FROM l LEFT JOIN r ON r.user_id = l.user_id AND r.ts < l.ts
GROUP BY 1, 2
"""


def events_sliding_window_sql(window_sec: int = 3600,
                              hop_sec: int = 900,
                              round_to: int = 6) -> str:
    """Exact mirror of stages/relational.events_sliding_window.
    Timestamps are positive epoch-µs, so DuckDB's truncating integer
    division equals numpy's floor division throughout."""
    wus = window_sec * 1_000_000
    hus = hop_sec * 1_000_000
    k = window_sec // hop_sec
    return f"""
WITH e AS (SELECT event_type, value, epoch_us(ts) AS us FROM events),
w AS (SELECT e.event_type, e.value, (e.us // {hus}) - o.o AS window_id
      FROM e, (SELECT unnest(range(0, {k})) AS o) o
      WHERE (e.us // {hus}) - o.o >= ((e.us - {wus}) // {hus}) + 1)
SELECT event_type, window_id, CAST(count(*) AS BIGINT) AS n_events,
       round(SUM(value), {round_to}) AS sum_value
FROM w GROUP BY 1, 2
"""


def events_window_sql(window_sec: int = 3600) -> str:
    wus = window_sec * 1_000_000
    return f"""
SELECT event_type, epoch_us(ts) // {wus} AS window_id,
       COUNT(*) AS n_events, round(SUM(value), 6) AS sum_value
FROM events GROUP BY event_type, window_id
"""


def user_sessions_sql(gap_sec: int = 1800) -> str:
    gus = gap_sec * 1_000_000
    return f"""
WITH e AS (SELECT user_id, epoch_us(ts) AS t FROM events),
o AS (SELECT user_id, t,
             CASE WHEN t - lag(t) OVER (PARTITION BY user_id ORDER BY t)
                       > {gus} THEN 1 ELSE 0 END AS brk
      FROM e),
s AS (SELECT user_id,
             SUM(brk) OVER (PARTITION BY user_id ORDER BY t
                            ROWS UNBOUNDED PRECEDING) AS sess
      FROM o),
g AS (SELECT user_id, sess, COUNT(*) AS c FROM s GROUP BY user_id, sess)
SELECT user_id, COUNT(*) AS n_sessions,
       CAST(SUM(c) AS BIGINT) AS n_events,
       CAST(MAX(c) AS BIGINT) AS max_session_events
FROM g GROUP BY user_id
"""


def distinct_event_types_sql() -> str:
    return "SELECT event_type, COUNT(*) AS n FROM events GROUP BY event_type"


# ---------------------------------------------------------------------------
# Raster (synthetic grid via range())
# ---------------------------------------------------------------------------

_NOD = repr(NODATA)


def _raster_vals_cte(rows: int = 256, cols: int = 256) -> str:
    n = rows * cols
    return (f"vals AS (SELECT i AS cell, "
            f"CASE WHEN ((i * 2246822519 + 1013904223) % 4294967296) % 17 = 0 "
            f"THEN {_NOD} "
            f"ELSE ((i * 2654435761) % 4294967296) / 4294967296.0 * 1000.0 END AS v "
            f"FROM range(0, {n}) t(i))")


def raster_math_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
mapped AS (
  SELECT cell, CASE WHEN v = {_NOD} THEN v
                    ELSE sqrt(v) * 2.0 + v / 7.0 END AS v2
  FROM vals)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN v2 <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN v2 = {_NOD} THEN 0.0 ELSE v2 END), 6) AS row_sum
FROM mapped GROUP BY cell // {cols}
"""


def raster_identity_sql(rows: int = 256, cols: int = 256) -> str:
    """Row checksums of the unmapped synthetic raster — the oracle for
    lossless source/sink roundtrips (GeoTIFF, .dep/.tas, …)."""
    return f"""
WITH {_raster_vals_cte(rows, cols)}
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN v <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN v = {_NOD} THEN 0.0 ELSE v END), 6) AS row_sum
FROM vals GROUP BY cell // {cols}
"""


def geotiff_compressed_sql(rows: int = 256, cols: int = 256) -> str:
    """Oracle for the tiled/deflate/predictor GeoTIFF roundtrip: the
    uint16 quantization (NoData -> 65535, else trunc(v*65)) survives the
    compressed roundtrip exactly, and every cell is valid afterwards."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN 65535.0 ELSE trunc(v * 65.0) END AS f
        FROM vals)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def raster_stencil_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM vals),
nb AS (
  SELECT a.cell, SUM(b.v) AS s, COUNT(*) AS n
  FROM g a
  CROSS JOIN (VALUES (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)) o(dr, dc)
  JOIN g b ON b.cell = (a.r + o.dr) * {cols} + (a.c + o.dc)
          AND a.r + o.dr BETWEEN 0 AND {rows - 1}
          AND a.c + o.dc BETWEEN 0 AND {cols - 1}
  WHERE a.v <> {_NOD} AND b.v <> {_NOD}
  GROUP BY a.cell),
filt AS (
  SELECT v.cell,
         CASE WHEN v.v = {_NOD} THEN {_NOD}
              WHEN nb.n > 0 THEN nb.s / nb.n
              ELSE {_NOD} END AS f
  FROM vals v LEFT JOIN nb ON v.cell = nb.cell)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN f <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN f = {_NOD} THEN 0.0 ELSE f END), 6) AS row_sum
FROM filt GROUP BY cell // {cols}
"""


def raster_to_points_sql(rows: int = 256, cols: int = 256,
                         tile_rows: int = 64, threshold: float = 500.0) -> str:
    per_tile = tile_rows * cols
    return f"""
WITH {_raster_vals_cte(rows, cols)}
SELECT cell // {per_tile} AS tile_id,
       CAST(COUNT(CASE WHEN v <> {_NOD} AND v > {threshold!r} THEN 1 END)
            AS BIGINT) AS n_points
FROM vals GROUP BY cell // {per_tile}
"""


# ---------------------------------------------------------------------------
# Terrain stencils + D8 (stages/terrain.py) and raster stats
# (stages/raster_stats.py). Neighbour access uses LAG/LEAD over the linear
# cell order with explicit edge guards; transcendental CONSTANTS (rad→deg
# factor, sin/cos of sun altitude, √2) are Python-computed doubles inlined
# as repr literals so both engines multiply by bit-identical values.
# ---------------------------------------------------------------------------

_RAD2DEG = repr(180.0 / math.pi)


def _raster_vals_b_cte(rows: int = 256, cols: int = 256) -> str:
    n = rows * cols
    return (f"vals_b AS (SELECT i AS cell, "
            f"CASE WHEN ((i * 2654435761 + 999331) % 4294967296) % 19 = 0 "
            f"THEN {_NOD} "
            f"ELSE ((i * 2246822519 + 12345) % 4294967296) / 4294967296.0 * 1000.0 "
            f"END AS v FROM range(0, {n}) t(i))")


def _neighbour_cte(rows: int = 256, cols: int = 256) -> str:
    """g + nb CTE fragments exposing n0..n7 (NE,E,SE,S,SW,W,NW,N), NoData
    where the neighbour is off-grid."""
    # (dx, dy, window-fn expr, guard) per neighbour index
    specs = [
        (1, -1, f"LAG(v, {cols - 1}) OVER w", f"r > 0 AND c < {cols - 1}"),
        (1, 0, "LEAD(v, 1) OVER w", f"c < {cols - 1}"),
        (1, 1, f"LEAD(v, {cols + 1}) OVER w", f"r < {rows - 1} AND c < {cols - 1}"),
        (0, 1, f"LEAD(v, {cols}) OVER w", f"r < {rows - 1}"),
        (-1, 1, f"LEAD(v, {cols - 1}) OVER w", f"r < {rows - 1} AND c > 0"),
        (-1, 0, "LAG(v, 1) OVER w", "c > 0"),
        (-1, -1, f"LAG(v, {cols + 1}) OVER w", "r > 0 AND c > 0"),
        (0, -1, f"LAG(v, {cols}) OVER w", "r > 0"),
    ]
    cols_sql = ",\n  ".join(
        f"CASE WHEN {guard} THEN {expr} ELSE {_NOD} END AS n{i}"
        for i, (dx, dy, expr, guard) in enumerate(specs))
    return (f"g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v "
            f"FROM vals),\n"
            f"nb AS (SELECT cell, r, c, v,\n  {cols_sql}\n"
            f"FROM g WINDOW w AS (ORDER BY cell))")


def _horn_gradients() -> str:
    """m0..m7 (NoData neighbour → centre, Slope.java:249-255) + fy/fx."""
    ms = ",\n  ".join(
        f"CASE WHEN n{i} = {_NOD} THEN v ELSE n{i} END AS m{i}"
        for i in range(8))
    return (f"m AS (SELECT cell, v,\n  {ms}\nFROM nb),\n"
            "grad AS (SELECT cell, v,\n"
            "  (m6 - m4 + 2 * (m7 - m3) + m0 - m2) / 8.0 AS fy,\n"
            "  (m2 - m4 + 2 * (m1 - m5) + m0 - m6) / 8.0 AS fx\nFROM m)")


def _row_checksum_select(cols: int, value_expr: str = "f") -> str:
    return f"""
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN {value_expr} <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN {value_expr} = {_NOD} THEN 0.0 ELSE {value_expr} END), 6) AS row_sum
"""


def slope_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
{_horn_gradients()},
res AS (
  SELECT cell, CASE WHEN v = {_NOD} THEN {_NOD}
    ELSE CAST(CAST(atan(sqrt(fx*fx + fy*fy)) * {_RAD2DEG} AS REAL) AS DOUBLE)
  END AS f FROM grad)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def aspect_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
{_horn_gradients()},
res AS (
  SELECT cell, CASE WHEN v = {_NOD} THEN {_NOD}
    WHEN fx <> 0 THEN CAST(CAST(
      180.0 - atan(fy / fx) * {_RAD2DEG} + 90.0 * sign(fx) AS REAL) AS DOUBLE)
    ELSE -1.0
  END AS f FROM grad)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def hillshade_sql(rows: int = 256, cols: int = 256,
                  azimuth_deg: float = 315.0, altitude_deg: float = 45.0) -> str:
    az = repr(math.radians(azimuth_deg - 90.0))
    sin_t = repr(math.sin(math.radians(altitude_deg)))
    cos_t = repr(math.cos(math.radians(altitude_deg)))
    deg2rad = repr(math.pi / 180.0)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
{_horn_gradients()},
hs AS (
  SELECT cell, v, fx, fy,
         sqrt(fx*fx + fy*fy) AS ts,
         (180.0 - atan(fy / nullif(fx, 0)) * {_RAD2DEG}
          + 90.0 * sign(fx)) * {deg2rad} AS aspect
  FROM grad),
res AS (
  SELECT cell, CASE WHEN v = {_NOD} THEN {_NOD}
    ELSE greatest(trunc(255.0 * (CASE WHEN fx <> 0 THEN
      (ts / sqrt(1 + ts*ts)) * ({sin_t} / ts - {cos_t} * sin({az} - aspect))
      ELSE 0.5 END)), 0.0)
  END AS f FROM hs)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def _d8_pointer_ctes(rows: int = 256, cols: int = 256) -> str:
    """CTE chain ending in ``res(cell, f)`` = the D8 pointer raster."""
    sqrt2 = repr(math.sqrt(2.0))
    dists = [sqrt2 if i % 2 == 0 else "1.0" for i in range(8)]
    slopes = ",\n  ".join(
        f"CASE WHEN n{i} <> {_NOD} THEN (v - n{i}) / {dists[i]} END AS s{i}"
        for i in range(8))
    best = "greatest(" + ", ".join(
        f"coalesce(s{i}, -99999999.0)" for i in range(8)) + ")"
    first = "CASE " + " ".join(
        f"WHEN s{i} IS NOT NULL AND s{i} = ms THEN {1 << i}.0"
        for i in range(8)) + " END"
    return f"""{_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
sl AS (SELECT cell, v,
  {slopes}
FROM nb),
mx AS (SELECT cell, v, {best} AS ms,
  s0, s1, s2, s3, s4, s5, s6, s7 FROM sl),
res AS (
  SELECT cell, CASE WHEN v = {_NOD} THEN {_NOD}
    WHEN ms > 0 THEN {first}
    ELSE 0.0 END AS f
  FROM mx)"""


def d8_pointer_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH {_d8_pointer_ctes(rows, cols)}
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def _d8_down_cte(cols: int) -> str:
    """``ptr(cell, down)`` = linear index of each cell's D8 receiver
    (NULL for terminals / nodata). Codes 2^i, i clockwise from NE
    (stages/terrain.py _DX/_DY)."""
    return f"""ptr AS (
  SELECT cell, CASE f
    WHEN 1.0   THEN cell - {cols} + 1
    WHEN 2.0   THEN cell + 1
    WHEN 4.0   THEN cell + {cols} + 1
    WHEN 8.0   THEN cell + {cols}
    WHEN 16.0  THEN cell + {cols} - 1
    WHEN 32.0  THEN cell - 1
    WHEN 64.0  THEN cell - {cols} - 1
    WHEN 128.0 THEN cell - {cols}
    END AS down
  FROM res)"""


def flow_accum_d8_sql(rows: int = 256, cols: int = 256) -> str:
    """Mirror of stages/hydro.py flow_accumulation_d8: acc = 1 + number
    of cells whose D8 pointer path passes through the cell (receivers
    are strictly lower, so the walk is acyclic and the recursive
    closure terminates)."""
    return f"""
WITH RECURSIVE {_d8_pointer_ctes(rows, cols)},
{_d8_down_cte(cols)},
walk AS (
  SELECT cell AS origin, down AS cur FROM ptr WHERE down IS NOT NULL
  UNION ALL
  SELECT w.origin, p.down FROM walk w JOIN ptr p ON p.cell = w.cur
  WHERE p.down IS NOT NULL),
upcnt AS (SELECT cur AS cell, COUNT(*) AS n FROM walk GROUP BY cur),
vals2 AS (SELECT cell, v FROM vals),
acc AS (
  SELECT a.cell,
         CASE WHEN a.v = {_NOD} THEN 0.0
              ELSE 1.0 + COALESCE(u.n, 0) END AS f,
         a.v
  FROM vals2 a LEFT JOIN upcnt u USING (cell))
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN v <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(f), 6) AS row_sum
FROM acc GROUP BY cell // {cols}
"""


_NB_OFF = (None,)  # placeholder; offsets derived below per neighbour index


def _downhill_edge_arms(cols: int, weight: str = "(v - n{i})") -> str:
    """8-arm UNION ALL of strictly-downhill fractional edges
    ``fe(src, dst, frac)`` built over the ``tot`` CTE (which must expose
    cell, v, n0..n7, total). Neighbour index order matches
    _neighbour_cte (NE,E,SE,S,SW,W,NW,N)."""
    offs = (-cols + 1, 1, cols + 1, cols, cols - 1, -1, -cols - 1, -cols)
    arms = []
    for i, off in enumerate(offs):
        w = weight.format(i=i)
        arms.append(
            f"SELECT cell AS src, cell + ({off}) AS dst, {w} / total AS frac\n"
            f"  FROM tot WHERE n{i} <> {_NOD} AND v > n{i}")
    return "\n  UNION ALL\n  ".join(arms)


def flow_accumulation_fd8_sql(rows: int = 256, cols: int = 256,
                              iters: int = 24, round_to: int = 4) -> str:
    """Mirror of stages/hydro.py flow_accumulation_fd8 (power=1):
    acc(c) = 1 + Σ over strictly-higher neighbours n of
    acc(n)·(z(n)−z(c))/Σ_downhill(n). The downhill-edge DAG is
    nilpotent (strictly descending), so ``iters`` synchronous Jacobi
    rounds ≥ the longest descending-neighbour chain (measured ≤ 17 on
    the synthetic terrain at these sizes) reach the exact fixed point;
    a zero-weight self loop keeps inflow-free cells in every round."""
    wsum = " + ".join(
        f"CASE WHEN n{i} <> {_NOD} AND v > n{i} THEN v - n{i} ELSE 0.0 END"
        for i in range(8))
    return f"""
WITH RECURSIVE {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
tot AS MATERIALIZED (
  SELECT cell, v, n0, n1, n2, n3, n4, n5, n6, n7,
         {wsum} AS total
  FROM nb WHERE v <> {_NOD}),
fe AS MATERIALIZED (
  {_downhill_edge_arms(cols)}
  UNION ALL
  SELECT cell, cell, 0.0 FROM tot),
facc AS (
  SELECT cell, CAST(1.0 AS DOUBLE) AS a, 0 AS k
  FROM vals WHERE v <> {_NOD}
  UNION ALL
  SELECT e.dst, 1.0 + SUM(e.frac * f.a), f.k + 1
  FROM facc f JOIN fe e ON e.src = f.cell
  WHERE f.k < {iters}
  GROUP BY e.dst, f.k),
fin AS (SELECT cell, a FROM facc WHERE k = {iters})
SELECT r.i AS row_id,
       CAST(COUNT(f.cell) AS BIGINT) AS n_valid,
       round(COALESCE(SUM(f.a), 0.0), {round_to}) AS sum_acc
FROM range(0, {rows}) r(i)
LEFT JOIN fin f ON f.cell // {cols} = r.i
GROUP BY r.i
"""


def mass_flux_d8_sql(rows: int = 256, cols: int = 256,
                     iters: int = 24, round_to: int = 4) -> str:
    """Mirror of stages/hydro.py mass_flux_d8: out(c) = loading(c) +
    Σ over D8 inflow neighbours n of max(0, (out(n) − absorp(n)) ·
    eff(n)). Same synchronous-rounds closure as the FD8 oracle (the
    D8 receiver is strictly lower → nilpotent); the transfer clamp
    makes the system nonlinear but each round only reads the previous
    round, so convergence at the topological depth still holds."""
    return f"""
WITH RECURSIVE {_d8_pointer_ctes(rows, cols)},
{_d8_down_cte(cols)},
pr AS MATERIALIZED (
  SELECT v.cell,
    ((v.cell * 2654435761 + 991) % 4294967296) / 4294967296.0 * 10.0
      AS loading,
    0.5 + ((v.cell * 2246822519 + 473) % 4294967296) / 4294967296.0 * 0.5
      AS eff,
    ((v.cell * 2654435761 + 7919) % 4294967296) / 4294967296.0 * 0.5
      AS absorp
  FROM vals v WHERE v.v <> {_NOD}),
me AS MATERIALIZED (
  SELECT cell AS src, down AS dst, FALSE AS selfloop
  FROM ptr WHERE down IS NOT NULL
  UNION ALL
  SELECT p.cell, p.cell, TRUE FROM pr p),
mf AS (
  SELECT p.cell, p.loading AS a, 0 AS k FROM pr p
  UNION ALL
  SELECT e.dst,
    MAX(pd.loading) + SUM(CASE WHEN e.selfloop THEN 0.0
      ELSE greatest(0.0, (f.a - ps.absorp) * ps.eff) END),
    f.k + 1
  FROM mf f
  JOIN me e ON e.src = f.cell
  JOIN pr ps ON ps.cell = f.cell
  JOIN pr pd ON pd.cell = e.dst
  WHERE f.k < {iters}
  GROUP BY e.dst, f.k),
fin AS (SELECT cell, a FROM mf WHERE k = {iters})
SELECT r.i AS row_id,
       CAST(COUNT(f.cell) AS BIGINT) AS n_valid,
       round(COALESCE(SUM(f.a), 0.0), {round_to}) AS sum_flux
FROM range(0, {rows}) r(i)
LEFT JOIN fin f ON f.cell // {cols} = r.i
GROUP BY r.i
"""


# Dinf facet tables (stages/dinf.py:38-43 mapped onto the n0..n7
# neighbour indexing of _neighbour_cte): per facet a, (e1, e2) are the
# neighbour indices, with afVals/acVals from FlowPointerDinf.java.
_DINF_E = ((1, 0), (7, 0), (7, 6), (5, 6), (5, 4), (3, 4), (3, 2), (1, 2))
_DINF_AC = (0, 1, 1, 2, 2, 3, 3, 4)
_DINF_AF = (1, -1, 1, -1, 1, -1, 1, -1)


def _dinf_pointer_ctes(rows: int = 256, cols: int = 256) -> str:
    """CTE chain ending in ``dptr(cell, v, fd)`` — the Dinf flow
    direction of stages/dinf.py:dinf_pointer_kernel in exact double
    arithmetic: 8 triangular facets (s1 0→0.00001 substitution, the
    four literal sign-flip conditions, r clamped to [0, atan(1)] with
    the reference's s replacements, the one-sided fallback), winner =
    max s with LAST facet winning ties (the sequential ``s >=
    maxSlope`` sweep), s == 0.00001 candidates skipped, then the
    whole-degree truncation round(deg·10)/10 with Java integer
    division and the 360−θ+90 compass mapping; −1 when maxSlope ≤ 0."""
    facets = []
    for a, (i1, i2) in enumerate(_DINF_E):
        af, ac = _DINF_AF[a], _DINF_AC[a]
        facets.append(f"""fa{a} AS (
  SELECT cell, cf{a}, cs{a} FROM (
  SELECT cell,
    CASE WHEN bth THEN
        CASE WHEN r < 0 THEN s1
             WHEN r > atan(1.0) THEN (v - e2) / sqrt(2.0)
             WHEN (s1 < 0 AND s2 < 0) OR (s1 < 0 AND s2 = 0)
               OR (s1 = 0 AND s2 < 0) OR (s1 = 0.001 AND s2 < 0)
             THEN -s ELSE s END
      WHEN sgl THEN
        CASE WHEN v > e1 THEN v - e1 ELSE (v - e2) / sqrt(2.0) END
      END AS csx,
    CASE WHEN bth THEN
        {af}.0 * least(greatest(r, 0.0), atan(1.0)) + {ac}.0 * (pi() / 2.0)
      WHEN sgl THEN
        {af}.0 * (CASE WHEN v > e1 THEN 0.0 ELSE atan(1.0) END)
          + {ac}.0 * (pi() / 2.0)
      END AS cf{a},
    CASE WHEN csx = 0.00001 THEN NULL ELSE csx END AS cs{a}
  FROM (
    SELECT cell, v, e1, e2, ok, bth,
      ok AND NOT bth AND (v > e1 OR v > e2) AS sgl,
      s1, s2, atan(s2 / s1) AS r, sqrt(s1 * s1 + s2 * s2) AS s
    FROM (
      SELECT cell, v, n{i1} AS e1, n{i2} AS e2,
        n{i1} <> {_NOD} AND n{i2} <> {_NOD} AS ok,
        n{i1} <> {_NOD} AND n{i2} <> {_NOD}
          AND v > n{i1} AND v > n{i2} AS bth,
        CASE WHEN v - n{i1} = 0 THEN 0.00001 ELSE v - n{i1} END AS s1,
        n{i1} - n{i2} AS s2
      FROM nb))))""")
    facet_sql = ",\n".join(facets)
    joins = "\n  ".join(f"JOIN fa{a} USING (cell)" for a in range(8))
    ms = "greatest(" + ", ".join(
        f"coalesce(cs{a}, -9999999.0)" for a in range(8)) + ")"
    win = "CASE " + " ".join(
        f"WHEN cs{a} IS NOT NULL AND cs{a} = ms THEN cf{a}"
        for a in range(7, -1, -1)) + " ELSE 360.0 END"
    return f"""{_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
{facet_sql},
dwin AS (
  SELECT cell, v, {ms} AS ms, {win} AS flow
  FROM nb {joins}),
dptr AS (
  SELECT cell, v,
    CASE WHEN v = {_NOD} THEN {_NOD}
         WHEN ms <= 0 THEN -1.0
         ELSE CASE WHEN 360.0 - floor(floor(
                flow * (180.0 / pi()) * 10.0 + 0.5) / 10.0) + 90.0 > 360.0
              THEN 360.0 - floor(floor(
                flow * (180.0 / pi()) * 10.0 + 0.5) / 10.0) + 90.0 - 360.0
              ELSE 360.0 - floor(floor(
                flow * (180.0 / pi()) * 10.0 + 0.5) / 10.0) + 90.0 END
    END AS fd
  FROM dwin)"""


def dinf_pointer_sql(rows: int = 256, cols: int = 256) -> str:
    """Row checksums of the Dinf pointer raster."""
    return f"""
WITH {_dinf_pointer_ctes(rows, cols)}
{_row_checksum_select(cols, "fd")}
FROM dptr GROUP BY cell // {cols}
"""


# Dinf sector receiver offsets (stages/dinf.py:48-49 _R1/_R2 as
# (dc, dr) per sector k = floor(θ/45); flow splits p1 = 1 − p2,
# p2 = (θ − 45k)/45).
_DINF_R1 = ((0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0),
            (-1, -1))
_DINF_R2 = ((1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1),
            (0, -1))


def _dinf_edges_cte(rows: int, cols: int) -> str:
    """``dfe(src, dst, frac)`` — the Dinf fractional-flow edges over
    dptr (receiver must be in-grid and valid; p ≤ 0 arms dropped),
    plus a zero-weight self loop per valid cell so inflow-free cells
    survive every Jacobi round."""
    def arm(table, pexpr):
        cases_dc = "CASE k " + " ".join(
            f"WHEN {k} THEN {dc}" for k, (dc, dr) in enumerate(table)) + " END"
        cases_dr = "CASE k " + " ".join(
            f"WHEN {k} THEN {dr}" for k, (dc, dr) in enumerate(table)) + " END"
        return (f"SELECT cell AS src, cell + ({cases_dr}) * {cols} + "
                f"({cases_dc}) AS dst, {pexpr} AS frac, "
                f"cell % {cols} + ({cases_dc}) AS c2, "
                f"cell // {cols} + ({cases_dr}) AS r2, FALSE AS selfloop "
                f"FROM dk WHERE {pexpr} > 0")
    return f"""dk AS MATERIALIZED (
  SELECT cell, v, fd,
    CAST(least(floor(fd / 45.0), 7.0) AS INTEGER) AS k,
    (fd - 45.0 * CAST(least(floor(fd / 45.0), 7.0) AS INTEGER)) / 45.0 AS p2,
    1.0 - (fd - 45.0 * CAST(least(floor(fd / 45.0), 7.0) AS INTEGER)) / 45.0
      AS p1
  FROM dptr WHERE v <> {_NOD} AND fd >= 0 AND fd <= 360),
dfe AS MATERIALIZED (
  SELECT e.src, e.dst, e.frac, e.selfloop
  FROM (
    {arm(_DINF_R1, "p1")}
    UNION ALL
    {arm(_DINF_R2, "p2")}
  ) e
  JOIN vals t ON t.cell = e.dst
  WHERE e.c2 BETWEEN 0 AND {cols - 1} AND e.r2 BETWEEN 0 AND {rows - 1}
    AND t.v <> {_NOD}
  UNION ALL
  SELECT cell, cell, 0.0, TRUE FROM dptr WHERE v <> {_NOD})"""


def flow_accumulation_dinf_sql(rows: int = 256, cols: int = 256,
                               iters: int = 24, round_to: int = 4) -> str:
    """Mirror of stages/dinf.py flow_accumulation_dinf: acc(c) = 1 +
    Σ over Dinf senders n of acc(n)·p(n→c). The fractional-flow DAG is
    acyclic on the synthetic terrain (measured depth ≤ 7 at 256²), so
    ``iters`` synchronous Jacobi rounds reach the exact fixed point."""
    return f"""
WITH RECURSIVE {_dinf_pointer_ctes(rows, cols)},
{_dinf_edges_cte(rows, cols)},
facc AS (
  SELECT cell, CAST(1.0 AS DOUBLE) AS a, 0 AS j
  FROM dptr WHERE v <> {_NOD}
  UNION ALL
  SELECT e.dst, 1.0 + SUM(CASE WHEN e.selfloop THEN 0.0
                          ELSE e.frac * f.a END), f.j + 1
  FROM facc f JOIN dfe e ON e.src = f.cell
  WHERE f.j < {iters}
  GROUP BY e.dst, f.j),
fin AS (SELECT cell, a FROM facc WHERE j = {iters})
SELECT r.i AS row_id,
       CAST(COUNT(f.cell) AS BIGINT) AS n_valid,
       round(COALESCE(SUM(f.a), 0.0), {round_to}) AS sum_acc
FROM range(0, {rows}) r(i)
LEFT JOIN fin f ON f.cell // {cols} = r.i
GROUP BY r.i
"""


def mass_flux_dinf_sql(rows: int = 256, cols: int = 256,
                       iters: int = 24, round_to: int = 4) -> str:
    """Mirror of stages/dinf.py mass_flux_dinf: out(c) = loading(c) +
    Σ over Dinf senders n of p(n→c)·(out(n) − absorp(n))·eff(n) — the
    literal MassFluxDinf transfer (no clamp, so the system is linear
    and the Jacobi closure converges at the DAG depth)."""
    return f"""
WITH RECURSIVE {_dinf_pointer_ctes(rows, cols)},
{_dinf_edges_cte(rows, cols)},
pr AS MATERIALIZED (
  SELECT d.cell,
    ((d.cell * 2654435761 + 991) % 4294967296) / 4294967296.0 * 10.0
      AS loading,
    0.5 + ((d.cell * 2246822519 + 473) % 4294967296) / 4294967296.0 * 0.5
      AS eff,
    ((d.cell * 2654435761 + 7919) % 4294967296) / 4294967296.0 * 0.5
      AS absorp
  FROM dptr d WHERE d.v <> {_NOD}),
mf AS (
  SELECT p.cell, p.loading AS a, 0 AS j FROM pr p
  UNION ALL
  SELECT e.dst,
    MAX(pd.loading) + SUM(CASE WHEN e.selfloop THEN 0.0
      ELSE e.frac * ((f.a - ps.absorp) * ps.eff) END),
    f.j + 1
  FROM mf f
  JOIN dfe e ON e.src = f.cell
  JOIN pr ps ON ps.cell = f.cell
  JOIN pr pd ON pd.cell = e.dst
  WHERE f.j < {iters}
  GROUP BY e.dst, f.j),
fin AS (SELECT cell, a FROM mf WHERE j = {iters})
SELECT r.i AS row_id,
       CAST(COUNT(f.cell) AS BIGINT) AS n_valid,
       round(COALESCE(SUM(f.a), 0.0), {round_to}) AS sum_flux
FROM range(0, {rows}) r(i)
LEFT JOIN fin f ON f.cell // {cols} = r.i
GROUP BY r.i
"""


# MDInf facet tables (stages/dinf.py:434-438): per direction c the
# neighbour offset is (_MD_XD[c], _MD_YD[c]); on the n0..n7 indexing of
# _neighbour_cte that neighbour is n(7-c).
_MD_XD = (0, -1, -1, -1, 0, 1, 1, 1)
_MD_YD = (-1, -1, 0, 1, 1, 1, 0, -1)


def _mdinf_portions_ctes(rows: int, cols: int) -> str:
    """CTE chain ending in ``mpor(cell, v, por0..por7)`` — the MD∞
    per-direction flow portions of stages/dinf.py:
    mdinf_portions_kernel at h_exp = 1 in exact double arithmetic:
    per facet c the (rF, sF) pair from the triangular-facet normal
    (hr/hs with the outside-range replacements and the one-sided
    fallback that divides by _MD_DD[ii] — the literal quirk), the
    valley gate, linear normalization, the facet-7 rF 0→2π rewrite,
    and the two-way sector split with numpy's addition order
    (por_k = second_{k-1} + first_k, por_0 = first_0 + second_7)."""
    sq2 = "sqrt(2.0)"
    facets = []
    for c in range(8):
        i, ii = c, (c + 1) % 8
        i1, i2 = 7 - c, 7 - ((c + 1) % 8)
        xd_i, yd_i = _MD_XD[i], _MD_YD[i]
        xd_ii, yd_ii = _MD_XD[ii], _MD_YD[ii]
        nz = xd_i * yd_ii - xd_ii * yd_i
        dd_i = "1.0" if i % 2 == 0 else sq2
        dd_ii = "1.0" if ii % 2 == 0 else sq2
        facets.append(f"""md{c} AS (
  SELECT cell, rf{c}, sf{c} FROM (
    SELECT cell,
      CASE WHEN ok THEN
          CASE WHEN outsd THEN
              CASE WHEN p1 < p2 THEN {i} * pi() / 4
                   ELSE {ii} * pi() / 4 END
            ELSE hr END
        WHEN one THEN ({i} / 4.0) * pi() ELSE 0.0 END AS rf{c},
      CASE WHEN ok THEN
          CASE WHEN outsd THEN
              CASE WHEN p1 < p2 THEN (v - p1) / {dd_i}
                   ELSE (v - p2) / {dd_ii} END
            ELSE hs END
        WHEN one THEN (v - p1) / {dd_ii} ELSE {_NOD} END AS sf{c}
    FROM (
      SELECT cell, v, p1, p2, ok, one, hr, hs,
        (hr < {i} * pi() / 4 OR hr > {i + 1} * pi() / 4) AS outsd
      FROM (
        SELECT cell, v, p1, p2, ok, one,
          CASE WHEN nx = 0 THEN CASE WHEN ny >= 0 THEN 0.0 ELSE pi() END
               WHEN nx >= 0 THEN pi() / 2 - atan(ny / nx)
               ELSE 3 * pi() / 2 - atan(ny / nx) END AS hr,
          -tan(acos({nz}.0 / sqrt(nx * nx + ny * ny + {nz}.0 * {nz}.0)))
            AS hs
        FROM (
          SELECT cell, v, n{i1} AS p1, n{i2} AS p2,
            n{i1} <> {_NOD} AND n{i2} <> {_NOD} AS ok,
            NOT (n{i1} <> {_NOD} AND n{i2} <> {_NOD})
              AND n{i1} <> {_NOD} AND n{i1} < v AS one,
            ({yd_i}.0 * (n{i2} - v) - {yd_ii}.0 * (n{i1} - v)) AS nx,
            ({xd_ii}.0 * (n{i1} - v) - {xd_i}.0 * (n{i2} - v)) AS ny
          FROM nb)))))""")
    facet_sql = ",\n".join(facets)
    joins = "\n  ".join(f"JOIN md{a} USING (cell)" for a in range(8))
    # valley gate per facet (valid-cell check folded into the portion
    # emission: invalid cells are excluded from mval)
    valley = ",\n    ".join(
        f"CASE WHEN sf{c} > 0 AND ("
        f"(rf{c} > {c} * pi() / 4 AND rf{c} < {c + 1} * pi() / 4)"
        f" OR rf{c} = rf{(c + 1) % 8}"
        f" OR (sf{(c + 1) % 8} = {_NOD} AND rf{c} = {c + 1} * pi() / 4)"
        f" OR (sf{(c + 7) % 8} = {_NOD} AND rf{c} = {c} * pi() / 4))"
        f" THEN sf{c} ELSE 0.0 END AS vl{c}" for c in range(8))
    vsum = " + ".join(f"vl{c}" for c in range(8))
    vnorm = ",\n    ".join(
        f"CASE WHEN vs > 0 THEN vl{c} / vs ELSE 0.0 END AS vn{c}"
        for c in range(8))
    rf7x = "CASE WHEN rf7 = 0 THEN 2 * pi() ELSE rf7 END"

    def first(k, rf):
        return (f"CASE WHEN vn{k} > 0 THEN vn{k} * "
                f"(({k + 1} * pi() / 4 - {rf}) / (pi() / 4)) ELSE 0.0 END")

    def second(k, rf):
        return (f"CASE WHEN vn{k} > 0 THEN vn{k} * "
                f"(({rf} - {k} * pi() / 4) / (pi() / 4)) ELSE 0.0 END")

    pors = [f"{first(0, 'rf0')} + {second(7, rf7x)} AS por0"]
    for k in range(1, 8):
        rf_k = rf7x if k == 7 else f"rf{k}"
        pors.append(f"{second(k - 1, f'rf{k - 1}')} + {first(k, rf_k)}"
                    f" AS por{k}")
    por_sql = ",\n    ".join(pors)
    return f"""{_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
{facet_sql},
mval AS (
  SELECT cell, v,
    rf0, rf1, rf2, rf3, rf4, rf5, rf6, rf7,
    {valley}
  FROM nb {joins}),
mvn AS (
  SELECT *, {vsum} AS vs FROM mval),
mpor AS (
  SELECT cell, v,
    {por_sql}
  FROM (SELECT *,
    {vnorm}
  FROM mvn) WHERE v <> {_NOD})"""


def _mdinf_edges_cte(rows: int, cols: int) -> str:
    """``mfe(src, dst, frac)`` over mpor — one arm per direction c
    (receiver offset (_MD_XD[c], _MD_YD[c]), portion > 0, receiver
    in-grid and valid) plus the zero-weight self loop."""
    arms = []
    for c in range(8):
        dc, dr = _MD_XD[c], _MD_YD[c]
        off = dr * cols + dc
        arms.append(
            f"SELECT m.cell AS src, m.cell + ({off}) AS dst, "
            f"m.por{c} AS frac, FALSE AS selfloop\n"
            f"  FROM mpor m JOIN vals t ON t.cell = m.cell + ({off})\n"
            f"  WHERE m.por{c} > 0 AND t.v <> {_NOD}\n"
            f"    AND m.cell % {cols} + ({dc}) BETWEEN 0 AND {cols - 1}\n"
            f"    AND m.cell // {cols} + ({dr}) BETWEEN 0 AND {rows - 1}")
    arm_sql = "\n  UNION ALL\n  ".join(arms)
    return (f"mfe AS MATERIALIZED (\n  {arm_sql}\n  UNION ALL\n"
            f"  SELECT cell, cell, 0.0, TRUE FROM mpor)")


def flow_accumulation_mdinf_sql(rows: int = GATE_SIDE, cols: int = GATE_SIDE,
                                iters: int = 24,
                                round_to: int = 4) -> str:
    """Mirror of stages/dinf.py flow_accumulation_mdinf (h_exp = 1):
    acc(c) = 1 + Σ over MD∞ senders n of acc(n)·por(n→c); the portion
    DAG is strictly descending (the kernel's Kahn-equivalence guard
    enforces it), so the synchronous Jacobi closure is exact."""
    return f"""
WITH RECURSIVE {_mdinf_portions_ctes(rows, cols)},
{_mdinf_edges_cte(rows, cols)},
macc AS (
  SELECT cell, CAST(1.0 AS DOUBLE) AS a, 0 AS j
  FROM mpor
  UNION ALL
  SELECT e.dst, 1.0 + SUM(CASE WHEN e.selfloop THEN 0.0
                          ELSE e.frac * f.a END), f.j + 1
  FROM macc f JOIN mfe e ON e.src = f.cell
  WHERE f.j < {iters}
  GROUP BY e.dst, f.j),
fin AS (SELECT cell, a FROM macc WHERE j = {iters})
SELECT r.i AS row_id,
       CAST(COUNT(f.cell) AS BIGINT) AS n_valid,
       round(COALESCE(SUM(f.a), 0.0), {round_to}) AS sum_acc
FROM range(0, {rows}) r(i)
LEFT JOIN fin f ON f.cell // {cols} = r.i
GROUP BY r.i
"""


def _fill_ctes(rows: int, cols: int, iters: int, vals_name: str = "vals",
               px: str = "f") -> str:
    """CTE fragments ending in ``{px}fw(cell, z, w)`` — the
    priority-flood filled DEM (stages/fill.py _priority_flood_seeded,
    seeds = border + NoData cells) as the equivalent minimax fixed
    point W = max(z, min over 8 neighbours of W) with W = z pinned on
    seeds, reached by ``iters`` synchronous Jacobi rounds from W = +∞
    (every W is a copy of some input z — no arithmetic — so the fixed
    point is schedule-independent and bit-exact; measured convergence:
    17 rounds at 96², 9 at 256²)."""
    offs = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0),
            (1, 1)]
    arms = []
    for dr, dc in offs:
        off = dr * cols + dc
        arms.append(
            f"SELECT cell AS dst, cell + ({off}) AS src FROM {px}cp\n"
            f"    WHERE cell % {cols} + ({dc}) BETWEEN 0 AND {cols - 1}\n"
            f"      AND cell // {cols} + ({dr}) BETWEEN 0 AND {rows - 1}")
    arm_sql = "\n    UNION ALL\n    ".join(arms)
    return f"""{px}cp AS MATERIALIZED (
  SELECT cell, v AS z,
    (cell // {cols} = 0 OR cell // {cols} = {rows - 1}
     OR cell % {cols} = 0 OR cell % {cols} = {cols - 1}
     OR v = {_NOD}) AS seed
  FROM {vals_name}),
{px}ne AS MATERIALIZED (
    {arm_sql}),
{px}fx AS (
  SELECT cell,
    CASE WHEN seed THEN z ELSE CAST('infinity' AS DOUBLE) END AS w,
    0 AS j
  FROM {px}cp
  UNION ALL
  SELECT e.dst,
    CASE WHEN pd.seed THEN pd.z ELSE greatest(pd.z, MIN(f.w)) END,
    f.j + 1
  FROM {px}fx f
  JOIN {px}ne e ON e.src = f.cell
  JOIN {px}cp pd ON pd.cell = e.dst
  WHERE f.j < {iters}
  GROUP BY e.dst, pd.seed, pd.z, f.j),
{px}fw AS (SELECT f.cell, p.z, f.w
  FROM {px}fx f JOIN {px}cp p USING (cell) WHERE f.j = {iters})"""


def fill_depressions_sql(rows: int = 256, cols: int = 256,
                         iters: int = 24, round_to: int = 6) -> str:
    """Row checksums of the filled DEM (FillDepressions, flat
    increment 0)."""
    return f"""
WITH RECURSIVE {_raster_vals_cte(rows, cols)},
{_fill_ctes(rows, cols, iters)}
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN w <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN w = {_NOD} THEN 0.0 ELSE w END), {round_to})
         AS row_sum
FROM ffw GROUP BY cell // {cols}
"""


def depth_in_sink_sql(rows: int = GATE_SIDE, cols: int = GATE_SIDE,
                      iters: int = 30, round_to: int = 6) -> str:
    """DepthInSink = filled − original on valid cells, 0 elsewhere."""
    return f"""
WITH RECURSIVE {_raster_vals_cte(rows, cols)},
{_fill_ctes(rows, cols, iters)}
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN z <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN z = {_NOD} THEN 0.0 ELSE w - z END), {round_to})
         AS depth_sum
FROM ffw GROUP BY cell // {cols}
"""


def flood_order_sql(rows: int = GATE_SIDE, cols: int = GATE_SIDE,
                    iters: int = 30) -> str:
    """FloodOrder: rank of each valid cell under the deterministic
    (filled_z, cell) tie rule; per-row rank sums (exact integers)."""
    return f"""
WITH RECURSIVE {_raster_vals_cte(rows, cols)},
{_fill_ctes(rows, cols, iters)},
rk AS (
  SELECT cell,
    CAST(row_number() OVER (ORDER BY w, cell) - 1 AS BIGINT) AS rnk
  FROM ffw WHERE w <> {_NOD})
SELECT g.i AS row_id,
       CAST(COUNT(r.cell) AS BIGINT) AS n_valid,
       CAST(COALESCE(SUM(r.rnk), 0) AS BIGINT) AS rank_sum
FROM range(0, {rows}) g(i)
LEFT JOIN rk r ON r.cell // {cols} = g.i
GROUP BY g.i
"""


def stochastic_depression_analysis_sql(rows: int = GATE_SIDE,
                                       cols: int = GATE_SIDE,
                                       n_real: int = 2, rmse: float = 15.0,
                                       iters: int = 30,
                                       round_to: int = 6) -> str:
    """pdep = fraction of noise realizations with filled > surface;
    realization k perturbs the DEM by the seeded uniform error of
    stages/fill.py _stoch_surface (NoData preserved)."""
    parts, sums = [], []
    for k in range(n_real):
        add = 7177 + 131 * k
        parts.append(f"""sv{k} AS (
  SELECT cell,
    CASE WHEN v = {_NOD} THEN v
         ELSE v + (((cell * 2654435761 + {add}) % 4294967296)
                   / 4294967296.0 - 0.5) * 2.0 * {rmse!r} END AS v
  FROM vals),
{_fill_ctes(rows, cols, iters, vals_name=f"sv{k}", px=f"s{k}")}""")
        sums.append(f"CASE WHEN s{k}.w > s{k}.z THEN 1.0 ELSE 0.0 END")
    body = ",\n".join(parts)
    joins = "\n  ".join(
        f"JOIN s{k}fw s{k} ON s{k}.cell = b.cell" for k in range(n_real))
    pdep = "(" + " + ".join(sums) + f") / {float(n_real)!r}"
    return f"""
WITH RECURSIVE {_raster_vals_cte(rows, cols)},
{body},
pd AS (
  SELECT b.cell, b.v,
    CASE WHEN b.v = {_NOD} THEN 0.0 ELSE {pdep} END AS pdep
  FROM vals b
  {joins})
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN v <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(pdep), {round_to}) AS pdep_sum
FROM pd GROUP BY cell // {cols}
"""


_COST_DX = (1, 1, 1, 0, -1, -1, -1, 0)
_COST_DY = (-1, 0, 1, 1, 1, 0, -1, -1)


def _cost_ctes(rows: int, cols: int, iters: int = 64) -> str:
    """CTE fragments ending in ``cw(cell, d, s)`` — the cost-distance
    fixed point of stages/cost.py (CostAccumulation.java relaxation
    ``d(u) + (cs(u)+cs(v))/2·dist``, lexicographic (dist, src) labels,
    sources from the seeded mask) via bounded Bellman–Ford rounds over
    struct-min aggregation. Labels are path sums computed with the
    same double ops as the Dijkstra mirror, so the fixed point is
    bit-exact (measured optimal-path hop depth 43 at 256²)."""
    arms = ["SELECT cell AS src, cell AS dst, 0.0 AS w FROM ccp"]
    for i in range(8):
        dc, dr = _COST_DX[i], _COST_DY[i]
        off = dr * cols + dc
        dist = "sqrt(2.0)" if i % 2 == 0 else "1.0"
        arms.append(
            f"SELECT a.cell, a.cell + ({off}), "
            f"(a.cs + b.cs) / 2.0 * {dist}\n"
            f"    FROM ccp a JOIN ccp b ON b.cell = a.cell + ({off})\n"
            f"    WHERE a.cell % {cols} + ({dc}) BETWEEN 0 AND {cols - 1}\n"
            f"      AND a.cell // {cols} + ({dr}) BETWEEN 0 AND {rows - 1}")
    arm_sql = "\n    UNION ALL\n    ".join(arms)
    return f"""ccp AS MATERIALIZED (
  SELECT cell, 1.0 + v / 200.0 AS cs,
    ((cell * 2654435761 + 77) % 4294967296) % 997 = 0 AS is_src
  FROM vals WHERE v <> {_NOD}),
cce AS MATERIALIZED (
    {arm_sql}),
ccx AS (
  SELECT cell,
    CASE WHEN is_src THEN 0.0
         ELSE CAST('infinity' AS DOUBLE) END AS d,
    0 AS j
  FROM ccp
  UNION ALL
  SELECT e.dst, MIN(f.d + e.w), f.j + 1
  FROM ccx f JOIN cce e ON e.src = f.cell
  WHERE f.j < {iters}
  GROUP BY e.dst, f.j),
cdd AS MATERIALIZED (SELECT cell, d FROM ccx WHERE j = {iters}),
-- optimal-edge subgraph: preds u whose converged d satisfies the
-- relaxation with float equality (the lexicographic fixed point's s
-- half only flows along these edges)
coe AS MATERIALIZED (
  SELECT e.src, e.dst FROM cce e
  JOIN cdd a ON a.cell = e.src
  JOIN cdd b ON b.cell = e.dst
  WHERE a.d + e.w = b.d),
csx AS (
  SELECT cell,
    CASE WHEN is_src THEN cell ELSE 9223372036854775807 END AS s,
    0 AS j
  FROM ccp
  UNION ALL
  SELECT e.dst, MIN(f.s), f.j + 1
  FROM csx f JOIN coe e ON e.src = f.cell
  WHERE f.j < {iters}
  GROUP BY e.dst, f.j),
cw AS MATERIALIZED (
  SELECT d.cell, d.d, s.s
  FROM cdd d JOIN (SELECT cell, s FROM csx WHERE j = {iters}) s
  USING (cell))"""


def cost_accumulation_sql(rows: int = 256, cols: int = 256,
                          iters: int = 64, round_to: int = 4) -> str:
    """(row_id, n_reached, sum_cost, sum_src) per raster row."""
    return f"""
WITH RECURSIVE {_raster_vals_cte(rows, cols)},
{_cost_ctes(rows, cols, iters)}
SELECT g.i AS row_id,
       CAST(COUNT(CASE WHEN isfinite(c.d) THEN 1 END) AS BIGINT)
         AS n_reached,
       round(COALESCE(SUM(CASE WHEN isfinite(c.d) THEN c.d
                               ELSE 0.0 END), 0.0), {round_to}) AS sum_cost,
       CAST(COALESCE(SUM(CASE WHEN isfinite(c.d) THEN c.s ELSE 0 END), 0)
            AS BIGINT) AS sum_src
FROM range(0, {rows}) g(i)
LEFT JOIN cw c ON c.cell // {cols} = g.i
GROUP BY g.i
"""


def cost_allocation_sql(rows: int = 256, cols: int = 256,
                        iters: int = 64) -> str:
    """One summary row over the allocation zones (src half of the
    labels): (n_sources, total_alloc, max_zone, min_zone)."""
    return f"""
WITH RECURSIVE {_raster_vals_cte(rows, cols)},
{_cost_ctes(rows, cols, iters)},
zones AS (
  SELECT s, CAST(COUNT(*) AS BIGINT) AS n
  FROM cw WHERE isfinite(d) GROUP BY s)
SELECT CAST(COUNT(*) AS BIGINT) AS n_sources,
       CAST(COALESCE(SUM(n), 0) AS BIGINT) AS total_alloc,
       CAST(COALESCE(MAX(n), 0) AS BIGINT) AS max_zone,
       CAST(COALESCE(MIN(n), 0) AS BIGINT) AS min_zone
FROM zones
"""


def cost_pathway_sql(rows: int = 256, cols: int = 256,
                     iters: int = 64, round_to: int = 4) -> str:
    """(dest_cell, src_cell, path_len, path_cost) per reachable pour
    point: walk the converged labels back choosing the neighbour
    minimizing (d(p) + (cs(p)+cs(v))/2·dist, direction-index) — the
    literal CostPathway.java backtrace rule."""
    # inline backtrace step: per walk row, LEFT JOIN the 8 neighbours
    # and take the least candidate struct ({'cand', 'i', 'nxt'});
    # least() skips NULL (off-grid / unreachable) candidates.
    joins, cands = [], []
    for i in range(8):
        dc, dr = _COST_DX[i], _COST_DY[i]
        off = dr * cols + dc
        dist = "sqrt(2.0)" if i % 2 == 0 else "1.0"
        joins.append(
            f"LEFT JOIN cwp p{i} ON p{i}.cell = w.cur + ({off})\n"
            f"    AND w.cur % {cols} + ({dc}) BETWEEN 0 AND {cols - 1}\n"
            f"    AND w.cur // {cols} + ({dr}) BETWEEN 0 AND {rows - 1}\n"
            f"    AND isfinite(p{i}.d)")
        cands.append(
            f"CASE WHEN p{i}.cell IS NOT NULL THEN\n"
            f"      {{'cand': p{i}.d + (p{i}.cs + v.cs) / 2.0 * {dist},"
            f" 'i': {i}, 'nxt': p{i}.cell}} END")
    join_sql = "\n  ".join(joins)
    cand_sql = ",\n      ".join(cands)
    return f"""
WITH RECURSIVE {_raster_vals_cte(rows, cols)},
{_cost_ctes(rows, cols, iters)},
cwp AS MATERIALIZED (
  SELECT c.cell, c.d, c.s, p.cs FROM cw c JOIN ccp p USING (cell)),
pour AS (
  SELECT cell, d FROM cwp
  WHERE ((cell * 2654435761 + 999) % 4294967296) % 3001 = 0
    AND isfinite(d)),
walk AS (
  SELECT cell AS dest, cell AS cur, 0 AS n, d AS dcur FROM pour
  UNION ALL
  SELECT q.dest, q.mn.nxt, q.n + 1, pn.d FROM (
    SELECT w.dest, w.n,
      list_aggregate([{cand_sql}], 'min') AS mn
    FROM walk w
    JOIN cwp v ON v.cell = w.cur
    {join_sql}
    WHERE w.dcur > 0.0) q
  JOIN cwp pn ON pn.cell = q.mn.nxt
  WHERE q.mn IS NOT NULL),
fin AS (
  SELECT dest, max_by(cur, n) AS src_cell, MAX(n) AS path_len
  FROM walk GROUP BY dest)
SELECT f.dest AS dest_cell, f.src_cell,
       CAST(f.path_len AS BIGINT) AS path_len,
       round(p.d, {round_to}) AS path_cost
FROM fin f JOIN pour p ON p.cell = f.dest
ORDER BY dest_cell
"""


def _mkmeans_chain(k: int, iters: int, final_update: bool) -> str:
    """Unrolled modified-k-means CTE chain over ``vals`` (see
    modified_kmeans_sql). Ends with assignment ``a{iters}``; with
    ``final_update`` also the post-assignment centres ``c{iters}``."""
    ctes = [f"""bnd AS MATERIALIZED (
  SELECT cell,
    floor(v) AS b0,
    floor(((cell * 2246822519 + 12345) % 4294967296)
          / 4294967296.0 * 1000.0) AS b1
  FROM vals WHERE v <> {_NOD}),
st AS (SELECT min(b0) AS mn0, max(b0) AS mx0,
              min(b1) AS mn1, max(b1) AS mx1 FROM bnd),
c0 AS (SELECT a, mn0 + (mx0 - mn0) / {k} * a AS k0,
              mn1 + (mx1 - mn1) / {k} * a AS k1
       FROM range(0, {k}) t(a), st)"""]
    for j in range(1, iters + 1):
        ctes.append(f"""a{j} AS MATERIALIZED (
  SELECT b.cell,
    (min({{'d': (b.b0 - c.k0) * (b.b0 - c.k0)
           + (b.b1 - c.k1) * (b.b1 - c.k1), 'a': c.a}})).a AS lab
  FROM bnd b, c{j - 1} c GROUP BY b.cell)""")
        if j < iters or final_update:
            ctes.append(f"""c{j} AS MATERIALIZED (
  SELECT o.a,
    CASE WHEN g.cnt > 0 THEN CAST(g.s0 AS DOUBLE) / g.cnt + st.mn0
         ELSE o.k0 END AS k0,
    CASE WHEN g.cnt > 0 THEN CAST(g.s1 AS DOUBLE) / g.cnt + st.mn1
         ELSE o.k1 END AS k1
  FROM c{j - 1} o
  LEFT JOIN (
    SELECT a.lab, COUNT(*) AS cnt,
      SUM(CAST(b.b0 - st2.mn0 AS BIGINT)) AS s0,
      SUM(CAST(b.b1 - st2.mn1 AS BIGINT)) AS s1
    FROM a{j} a JOIN bnd b USING (cell), st st2
    GROUP BY a.lab) g ON g.lab = o.a, st)""")
    return ",\n".join(ctes)


def modified_kmeans_sql(rows: int = GATE_SIDE,
                        cols: int = GATE_SIDE, k: int = 8,
                        iters: int = 15, round_to: int = 6) -> str:
    """Mirror of stages/mkmeans.py modified_kmeans on the synthetic
    two-band stack: diagonal min/max init, nearest-centre assignment
    (first-min ties = lexicographic (d², a)), exact int64 partial sums
    of (v − min) for the centre update. The engine stops when the
    changed-cell fraction drops to ≤ 1 % — measured at exactly
    ``iters`` rounds on this input with the class cleanup a NO-OP every
    round (no empties/merges/drops; verified by the mirror test), so
    the unroll replays the identical fixed point."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_mkmeans_chain(k, iters, final_update=False)}
SELECT g.i AS row_id,
       CAST(COUNT(a.cell) AS BIGINT) AS n_valid,
       round(COALESCE(SUM(CAST(a.lab AS DOUBLE)), 0.0), {round_to})
         AS row_sum
FROM range(0, {rows}) g(i)
LEFT JOIN a{iters} a ON a.cell // {cols} = g.i
GROUP BY g.i
"""


def dendrogram_sql(rows: int = GATE_SIDE, cols: int = GATE_SIDE, k: int = 8,
                   iters: int = 15, round_to: int = 6) -> str:
    """Dendrogram.java merge history over the k-means classes: k−1
    unrolled closest-pair merges (scan order = ascending id, which the
    delete-two-append-one list maintains; the merged node keeps the
    LARGER class's centroid verbatim, size ties keep the second)."""
    parts = [f"""en0 AS (
  SELECT CAST(c.a AS DOUBLE) AS id, CAST(g.cnt AS DOUBLE) AS sz,
         c.k0 AS c0, c.k1 AS c1
  FROM c{iters} c
  JOIN (SELECT lab, COUNT(*) AS cnt FROM a{iters} GROUP BY lab) g
    ON g.lab = c.a)"""]
    merges = []
    for m in range(k - 1):
        new_id = float(k + m)
        parts.append(f"""pr{m} AS MATERIALIZED (
  SELECT min({{'d': (x.c0 - y.c0) * (x.c0 - y.c0)
              + (x.c1 - y.c1) * (x.c1 - y.c1),
              'a': x.id, 'b': y.id}}) AS mn
  FROM en{m} x JOIN en{m} y ON x.id < y.id)""")
        parts.append(f"""en{m + 1} AS MATERIALIZED (
  SELECT e.id, e.sz, e.c0, e.c1 FROM en{m} e, pr{m}
  WHERE e.id <> (pr{m}.mn).a AND e.id <> (pr{m}.mn).b
  UNION ALL
  SELECT {new_id!r}, xa.sz + xb.sz,
         CASE WHEN xa.sz > xb.sz THEN xa.c0 ELSE xb.c0 END,
         CASE WHEN xa.sz > xb.sz THEN xa.c1 ELSE xb.c1 END
  FROM pr{m}, en{m} xa, en{m} xb
  WHERE xa.id = (pr{m}.mn).a AND xb.id = (pr{m}.mn).b)""")
        merges.append(
            f"SELECT {m} AS ord, (mn).a AS left_id, (mn).b AS right_id,\n"
            f"       round(sqrt((mn).d), {round_to}) AS dist,\n"
            f"       {new_id!r} AS new_id FROM pr{m}")
    body = ",\n".join(parts)
    merge_sql = "\nUNION ALL\n".join(merges)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_mkmeans_chain(k, iters, final_update=True)},
{body}
SELECT left_id, right_id, dist, new_id
FROM ({merge_sql}) ORDER BY ord
"""


# LineThinning / RemoveSpurs / FindRidges neighbour indexing
# (stages/thinning.py _DX/_DY): 0=NE 1=E 2=SE 3=S 4=SW 5=W 6=NW 7=N.
_THIN_ELEMENTS = ((6, 7, 0, 4, 3, 2), (7, 0, 1, 3, 5),
                  (0, 1, 2, 4, 5, 6), (1, 2, 3, 5, 7),
                  (2, 3, 4, 6, 7, 0), (3, 4, 5, 7, 1),
                  (4, 5, 6, 0, 1, 2), (5, 6, 7, 1, 3))
_THIN_VALS = ((0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 1),
              (0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 1),
              (0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 1),
              (0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 1))
_SPUR_ELEMENTS = ((0, 1, 4, 5, 6, 7), (0, 1, 2, 5, 6, 7),
                  (0, 1, 2, 3, 6, 7), (0, 1, 2, 3, 4, 7),
                  (0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6),
                  (2, 3, 4, 5, 6, 7), (0, 3, 4, 5, 6, 7))
_SPUR_VALS = tuple((0,) * 6 for _ in range(8))


def _thin_scan_sql(rows: int, cols: int, init_expr: str, passes: int,
                   elements, vals, case_fn=None) -> str:
    """Full query: per-row foreground counts after ``passes`` in-place
    row-major scans of stages/thinning.py _scan_inplace — each pass is
    ONE recursion step whose nested list_reduce folds replay the
    literal in-place order (row r reads rows < r UPDATED via the outer
    accumulator, the W neighbour updated via the inner accumulator,
    everything else pre-pass). ``init_expr`` maps (v, n0..n7) → the
    initial cell value (1/0/NoData). Extra passes past convergence are
    no-ops, so ``passes`` only needs to be ≥ the measured fixed point.
    """
    # neighbour value expressions inside the inner fold: x2 holds
    # [ne, e, se, s, sw, nw, n, self]; W comes from the inner acc.
    nb_expr = {0: "x2[1]", 1: "x2[2]", 2: "x2[3]", 3: "x2[4]",
               4: "x2[5]", 6: "x2[6]", 7: "x2[7]",
               5: "coalesce(a2[length(a2)], -32768.0)"}
    if case_fn is not None:
        new_val = case_fn(nb_expr)
    else:
        masks = " OR ".join(
            "(" + " AND ".join(
                f"{nb_expr[e]} = {float(v)!r}" for e, v in zip(el, vl)) + ")"
            for el, vl in zip(elements, vals))
        new_val = (f"CASE WHEN x2[8] <> 1.0 THEN x2[8] "
                   f"WHEN {masks} THEN 0.0 ELSE x2[8] END")
    # inner fold: new value per column (1-indexed c), x2 built from the
    # padded up/cur/dn row lists (NULL index / NULL list → NoData).
    # DuckDB forbids subqueries inside lambdas, so up/cur/dn are inlined
    # against the outer fold's params: up = acc[length(acc)] (updated
    # row above), cur = x[1] (pre-pass this row), dn = x[2] (pre-pass
    # row below; NULL list past the last row).
    up, cur, dn = "acc[length(acc)]", "x[1]", "x[2]"
    x2 = (f"[coalesce({up}[c + 1], -32768.0), coalesce({cur}[c + 1], -32768.0),"
          f" coalesce({dn}[c + 1], -32768.0), coalesce({dn}[c], -32768.0),"
          f" coalesce({dn}[c - 1], -32768.0), coalesce({up}[c - 1], -32768.0),"
          f" coalesce({up}[c], -32768.0), {cur}[c]]")
    inner = (f"list_reduce([CAST([] AS DOUBLE[])] || "
             f"list_transform(ix.l, c -> {x2}), "
             f"(a2, x2) -> list_append(a2, {new_val}))")
    # outer fold over rows: x = [cur, dn]; acc = updated rows so far
    one_pass = (f"list_reduce([CAST([] AS DOUBLE[][])] || "
                f"list_transform(ix.r, ri -> [g[ri], g[ri + 1]]), "
                f"(acc, x) -> list_append(acc, {inner}))")
    return f"""
WITH RECURSIVE {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
ini AS (SELECT cell, {init_expr} AS v01 FROM nb),
g0 AS (SELECT list(rl ORDER BY r) AS g FROM (
  SELECT cell // {cols} AS r, list(v01 ORDER BY cell) AS rl
  FROM ini GROUP BY cell // {cols})),
ix AS (SELECT list(i ORDER BY i) AS l, list(i ORDER BY i) AS r
       FROM range(1, {max(rows, cols) + 1}) t(i)),
tp AS (
  SELECT 0 AS p, g FROM g0
  UNION ALL
  SELECT p + 1, {one_pass}
  FROM tp, ix WHERE p < {passes}),
fin AS (SELECT g FROM tp WHERE p = {passes})
SELECT CAST(r.i - 1 AS BIGINT) AS row_id,
       CAST(length(list_filter(f.g[r.i], v -> v = 1.0)) AS BIGINT)
         AS n_foreground
FROM fin f, range(1, {rows + 1}) r(i)
ORDER BY row_id
"""


def line_thinning_sql(rows: int = 256, cols: int = 256,
                      passes: int = 8) -> str:
    """Thick-line grid input (stages/thinning.py _lines_init_band);
    converges in 7 passes at 256×256 — 8 gives one no-op of margin."""
    init = (f"CASE WHEN v = {_NOD} THEN v "
            f"WHEN (r % 16 < 3) OR (c % 16 < 3) THEN 1.0 ELSE 0.0 END")
    return _thin_scan_sql(rows, cols, init, passes,
                          _THIN_ELEMENTS, _THIN_VALS)


def remove_spurs_sql(rows: int = 256, cols: int = 256,
                     passes: int = 10) -> str:
    init = (f"CASE WHEN v = {_NOD} THEN v "
            f"WHEN v > 650.0 THEN 1.0 ELSE 0.0 END")
    return _thin_scan_sql(rows, cols, init, passes,
                          _SPUR_ELEMENTS, _SPUR_VALS)


def thicken_raster_line_sql(rows: int = 256, cols: int = 256) -> str:
    """ThickenRasterLine (stages/thinning.py _thicken_scan): ONE
    in-place row-major pass; a background cell (0 or NoData) bridging a
    diagonal-only join (rook z1>0, next rook z3>0, diagonal z2 between
    them background) becomes 1.0. All four directions tested — every
    write is 1.0, so later-match-overwrites is value-irrelevant. The
    in-place order matters (a cell filled earlier in the pass counts as
    z1/z3>0 for later cells) and is replayed by the same fold."""
    init = (f"CASE WHEN v = {_NOD} THEN v "
            f"WHEN v > 650.0 THEN 1.0 ELSE 0.0 END")

    def case_fn(nb):
        n_, e_, s_, w_ = nb[7], nb[1], nb[3], nb[5]
        ne, se, sw, nw = nb[0], nb[2], nb[4], nb[6]
        bg = "({x} = 0.0 OR {x} = -32768.0)"
        dirs = " OR ".join((
            f"({n_} > 0 AND {e_} > 0 AND {bg.format(x=ne)})",
            f"({e_} > 0 AND {s_} > 0 AND {bg.format(x=se)})",
            f"({s_} > 0 AND {w_} > 0 AND {bg.format(x=sw)})",
            f"({w_} > 0 AND {n_} > 0 AND {bg.format(x=nw)})"))
        return (f"CASE WHEN (x2[8] = 0.0 OR x2[8] = -32768.0) "
                f"AND ({dirs}) THEN 1.0 ELSE x2[8] END")

    return _thin_scan_sql(rows, cols, init, 1, None, None, case_fn=case_fn)


def find_ridges_sql(rows: int = 256, cols: int = 256,
                    passes: int = 2) -> str:
    """FindRidges: N/S or W/E strictly-lower candidates, then the
    LineThinning scan (n7=N, n3=S, n5=W, n1=E on _neighbour_cte)."""
    init = (f"CASE WHEN v = {_NOD} THEN v WHEN "
            f"(n7 <> {_NOD} AND n3 <> {_NOD} AND n7 < v AND n3 < v) OR "
            f"(n5 <> {_NOD} AND n1 <> {_NOD} AND n5 < v AND n1 < v) "
            f"THEN 1.0 ELSE 0.0 END")
    return _thin_scan_sql(rows, cols, init, passes,
                          _THIN_ELEMENTS, _THIN_VALS)


def _d8_walk_ctes(rows: int = 256, cols: int = 256) -> str:
    """Pointer-walk closure over the D8 raster: ``edges(cell, down, g)``
    (g = step length), ``walk(origin, cur, d, s)`` = every (cell,
    downstream-path cell) pair with cumulative distance d and step
    number s (receivers are strictly lower → acyclic → terminates),
    ``acc(cell, a, v)`` = D8 flow accumulation. Requires the query to
    open with WITH RECURSIVE."""
    sqrt2 = repr(math.sqrt(2.0))
    return f"""{_d8_pointer_ctes(rows, cols)},
edges AS (
  SELECT cell,
    CASE f WHEN 1.0   THEN cell - {cols} + 1
           WHEN 2.0   THEN cell + 1
           WHEN 4.0   THEN cell + {cols} + 1
           WHEN 8.0   THEN cell + {cols}
           WHEN 16.0  THEN cell + {cols} - 1
           WHEN 32.0  THEN cell - 1
           WHEN 64.0  THEN cell - {cols} - 1
           WHEN 128.0 THEN cell - {cols} END AS down,
    CAST(CASE WHEN f IN (1.0, 4.0, 16.0, 64.0) THEN {sqrt2}
              ELSE 1.0 END AS DOUBLE) AS g
  FROM res WHERE f NOT IN (0.0, {_NOD})),
walk AS (
  SELECT cell AS origin, down AS cur, g AS d, 1 AS s, g AS lg FROM edges
  UNION ALL
  SELECT w.origin, e.down, w.d + e.g, w.s + 1, e.g
  FROM walk w JOIN edges e ON e.cell = w.cur),
upcnt AS (SELECT cur AS cell, COUNT(*) AS n FROM walk GROUP BY cur),
acc AS MATERIALIZED (
  SELECT v.cell, CASE WHEN v.v = {_NOD} THEN 0.0
                      ELSE 1.0 + COALESCE(u.n, 0) END AS a, v.v
  FROM vals v LEFT JOIN upcnt u ON u.cell = v.cell)"""


def find_saddle_points_sql(rows: int = GATE_SIDE,
                           cols: int = GATE_SIDE) -> str:
    """FindSaddlePoints (stages/streams.py find_saddle_points): walk
    each ridge-candidate cell's D8 path to the FIRST Peucker–Douglas
    valley cell; if that cell is a channel head (valley, valid pointer,
    no inflowing valley neighbour) keep the ridge cell, then per head
    take the min-(z, cell) saddle. Valley CASE = extract_valleys_sql's
    NW→N→W strict-> cascade on n6/n7/n5; heads and walks reuse the
    edges/walk closure."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
sel AS (SELECT cell,
  CASE
    WHEN n6 <> {_NOD} AND n6 > v THEN
      CASE WHEN n7 <> {_NOD} AND n7 > n6 THEN
             CASE WHEN n5 <> {_NOD} AND n5 > n7 THEN 2 ELSE 1 END
           WHEN n5 <> {_NOD} AND n5 > n6 THEN 2 ELSE 0 END
    WHEN n7 <> {_NOD} AND n7 > v THEN
      CASE WHEN n5 <> {_NOD} AND n5 > n7 THEN 2 ELSE 1 END
    WHEN n5 <> {_NOD} AND n5 > v THEN 2
    ELSE 3 END AS k
  FROM nb WHERE v <> {_NOD}),
marked AS (SELECT DISTINCT cell
         - CASE WHEN k IN (0, 1) THEN {cols} ELSE 0 END
         - CASE WHEN k IN (0, 2) THEN 1 ELSE 0 END AS mcell FROM sel),
valley AS MATERIALIZED (
  SELECT n.cell FROM nb n LEFT JOIN marked m ON m.mcell = n.cell
  WHERE n.v <> {_NOD} AND m.mcell IS NULL),
ridge AS (SELECT cell, v FROM nb
  WHERE v <> {_NOD} AND (
    (n7 <> {_NOD} AND n3 <> {_NOD} AND n7 < v AND n3 < v) OR
    (n5 <> {_NOD} AND n1 <> {_NOD} AND n5 < v AND n1 < v))),
head AS (SELECT va.cell FROM valley va
  JOIN res ON res.cell = va.cell AND res.f <> {_NOD}
  WHERE NOT EXISTS (
    SELECT 1 FROM edges e JOIN valley v2 ON v2.cell = e.cell
    WHERE e.down = va.cell)),
firstv AS (
  SELECT r.cell AS origin, r.v AS zv, w.cur AS vcell,
         ROW_NUMBER() OVER (PARTITION BY w.origin ORDER BY w.s) AS rn
  FROM ridge r JOIN walk w ON w.origin = r.cell
  JOIN valley vy ON vy.cell = w.cur),
pairs AS (
  SELECT f.vcell AS head_cell, f.origin, f.zv,
         ROW_NUMBER() OVER (PARTITION BY f.vcell
                            ORDER BY f.zv, f.origin) AS rn2
  FROM firstv f JOIN head h ON h.cell = f.vcell
  WHERE f.rn = 1)
SELECT CAST(head_cell AS BIGINT) AS head_cell,
       CAST(origin AS BIGINT) AS saddle_cell,
       round(zv, 6) AS saddle_z
FROM pairs WHERE rn2 = 1 ORDER BY head_cell
"""


def extract_streams_sql(rows: int = 256, cols: int = 256,
                        threshold: float = 5.0) -> str:
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)}
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN v <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       CAST(COUNT(CASE WHEN v <> {_NOD} AND a >= {threshold!r} THEN 1 END)
            AS BIGINT) AS n_stream
FROM acc GROUP BY cell // {cols}
"""


def _slope_deg_cte() -> str:
    """``slc(cell, sl)`` — Horn slope in degrees, float32-narrowed like
    slope_kernel; requires vals/nb CTEs in scope (nb comes with
    _d8_pointer_ctes / _d8_walk_ctes)."""
    return (f"{_horn_gradients()},\n"
            f"slc AS (SELECT cell, CASE WHEN v = {_NOD} THEN {_NOD} "
            f"ELSE CAST(CAST(atan(sqrt(fx*fx + fy*fy)) * {_RAD2DEG} "
            f"AS REAL) AS DOUBLE) END AS sl FROM grad)")


def wetness_index_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_slope_deg_cte()},
x AS (SELECT a.cell, a.a, s.sl,
        (s.sl <> {_NOD} AND a.a > 0 AND s.sl <> 0.0) AS ok
      FROM acc a JOIN slc s USING (cell))
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN ok THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN ok THEN ln(a / tan(radians(sl)))
                      ELSE 0.0 END), 4) AS sum_wi
FROM x GROUP BY cell // {cols}
"""


def stream_power_index_sql(rows: int = 256, cols: int = 256,
                           power: float = 1.0) -> str:
    """RelativeStreamPowerIndex: As^p · tan(slope_rad)."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_slope_deg_cte()},
x AS (SELECT a.cell, a.a, s.sl, (s.sl <> {_NOD} AND a.a > 0) AS ok
      FROM acc a JOIN slc s USING (cell))
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN ok THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN ok THEN pow(a, {power!r}) * tan(radians(sl))
                      ELSE 0.0 END), 4) AS row_sum
FROM x GROUP BY cell // {cols}
"""


def sediment_transport_index_sql(rows: int = 256, cols: int = 256,
                                 sca_exp: float = 0.4,
                                 slope_exp: float = 1.3) -> str:
    """(m+1)·(As/22.13)^m · (sin(slope_rad)/0.0896)^n."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_slope_deg_cte()},
x AS (SELECT a.cell, a.a, s.sl, (s.sl <> {_NOD} AND a.a > 0) AS ok
      FROM acc a JOIN slc s USING (cell))
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN ok THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN ok THEN
                 {sca_exp + 1.0!r} * pow(a / 22.13, {sca_exp!r})
                 * pow(sin(radians(sl)) / 0.0896, {slope_exp!r})
                 ELSE 0.0 END), 4) AS row_sum
FROM x GROUP BY cell // {cols}
"""


def _pour_cte() -> str:
    """``pourt(cell, p)`` — the deterministic pour-point mask
    (stages/hydro.py pour_point_mask); requires vals in scope."""
    return (f"pourt AS (SELECT cell, "
            f"((cell * 2654435761 + 999) % 4294967296) % 3001 = 0 "
            f"AND v <> {_NOD} AS p FROM vals)")


def watershed_sql(rows: int = 256, cols: int = 256) -> str:
    """Label = first pour cell on the D8 path (the cell itself if it is
    a pour point); 0 when the path ends without one."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_pour_cte()},
hit AS (
  SELECT w.origin, w.cur, w.s,
         row_number() OVER (PARTITION BY w.origin ORDER BY w.s) AS rn
  FROM walk w JOIN pourt p ON p.cell = w.cur AND p.p),
lab AS (
  SELECT v.cell,
    CASE WHEN v.v = {_NOD} THEN 0
         WHEN pp.p THEN v.cell
         ELSE COALESCE(h.cur, 0) END AS label
  FROM vals v
  JOIN pourt pp ON pp.cell = v.cell
  LEFT JOIN hit h ON h.origin = v.cell AND h.rn = 1)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN label > 0 THEN 1 END) AS BIGINT) AS n_labeled,
       CAST(SUM(CASE WHEN label > 0 THEN label ELSE 0 END) AS BIGINT)
         AS sum_label
FROM lab GROUP BY cell // {cols}
"""


def trace_downslope_flowpaths_sql(rows: int = 256, cols: int = 256) -> str:
    """Marked = valid pour seeds ∪ every cell on a seed's D8 path."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_pour_cte()},
marked AS (
  SELECT cell FROM pourt WHERE p
  UNION
  SELECT w.cur AS cell FROM walk w JOIN pourt p ON p.cell = w.origin AND p.p)
SELECT v.cell // {cols} AS row_id,
       CAST(COUNT(m.cell) AS BIGINT) AS n_marked
FROM vals v LEFT JOIN marked m ON m.cell = v.cell
GROUP BY v.cell // {cols}
"""


def downslope_flowpath_length_sql(rows: int = 256, cols: int = 256) -> str:
    """Length of the D8 path from each cell to its terminal."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
plen AS (SELECT origin, MAX(d) AS len FROM walk GROUP BY origin)
SELECT v.cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN v.v <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN v.v <> {_NOD}
                 THEN COALESCE(p.len, 0.0) ELSE 0.0 END), 4) AS sum_len
FROM vals v LEFT JOIN plen p ON p.origin = v.cell
GROUP BY v.cell // {cols}
"""


def max_upslope_flowpath_length_sql(rows: int = 256,
                                    cols: int = 256) -> str:
    """d(c) = max over upstream cells u of path length u→c."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
mx2 AS (SELECT cur AS cell, MAX(d) AS len FROM walk GROUP BY cur),
x AS (SELECT v.cell, v.v,
        CASE WHEN v.v = {_NOD} THEN 0.0
             ELSE COALESCE(m2.len, 0.0) END AS len
      FROM vals v LEFT JOIN mx2 m2 ON m2.cell = v.cell)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN v <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(MAX(len), 4) AS max_len,
       round(SUM(len), 4) AS sum_len
FROM x GROUP BY cell // {cols}
"""


def distance_to_outlet_sql(rows: int = GATE_SIDE,
                           cols: int = GATE_SIDE) -> str:
    """Step-length sum along the D8 path to its terminal cell."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
plen AS (SELECT origin, MAX(d) AS len FROM walk GROUP BY origin)
SELECT v.cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN v.v <> {_NOD} THEN 1 END) AS BIGINT)
         AS n_reached,
       round(SUM(CASE WHEN v.v <> {_NOD}
                 THEN COALESCE(p.len, 0.0) ELSE 0.0 END), 4) AS value_sum
FROM vals v LEFT JOIN plen p ON p.origin = v.cell
GROUP BY v.cell // {cols}
"""


def elev_above_pit_sql(rows: int = GATE_SIDE, cols: int = GATE_SIDE) -> str:
    """z − z(terminal cell at the end of the D8 path)."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
last AS (
  SELECT origin, cur,
         row_number() OVER (PARTITION BY origin ORDER BY s DESC) AS rn
  FROM walk),
pz AS (SELECT l.origin, v2.v AS zterm
       FROM last l JOIN vals v2 ON v2.cell = l.cur WHERE l.rn = 1)
SELECT v.cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN v.v <> {_NOD} THEN 1 END) AS BIGINT)
         AS n_reached,
       round(SUM(CASE WHEN v.v = {_NOD} THEN 0.0
                 ELSE v.v - COALESCE(p.zterm, v.v) END), 4) AS value_sum
FROM vals v LEFT JOIN pz p ON p.origin = v.cell
GROUP BY v.cell // {cols}
"""


def _stream_cte(threshold: float) -> str:
    """``stream(cell, st)`` — valid cell with accumulation ≥ threshold;
    requires acc in scope."""
    return (f"stream AS MATERIALIZED (SELECT cell, "
            f"(v <> {_NOD} AND a >= {threshold!r}) AS st FROM acc)")


def downslope_distance_to_stream_sql(rows: int = GATE_SIDE,
                                     cols: int = GATE_SIDE,
                                     threshold: float = 2.0) -> str:
    """Path length to the FIRST stream cell on the D8 path (0 when the
    cell itself is stream; unreached when the path ends dry)."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
hit AS (
  SELECT w.origin, w.d, w.cur,
         row_number() OVER (PARTITION BY w.origin ORDER BY w.s) AS rn
  FROM walk w JOIN stream st ON st.cell = w.cur AND st.st),
x AS (
  SELECT v.cell, v.v,
    CASE WHEN v.v = {_NOD} THEN NULL
         WHEN so.st THEN 0.0
         ELSE h.d END AS val
  FROM vals v
  JOIN stream so ON so.cell = v.cell
  LEFT JOIN hit h ON h.origin = v.cell AND h.rn = 1)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(val) AS BIGINT) AS n_reached,
       round(SUM(COALESCE(val, 0.0)), 4) AS value_sum
FROM x GROUP BY cell // {cols}
"""


def elevation_above_stream_sql(rows: int = GATE_SIDE, cols: int = GATE_SIDE,
                               threshold: float = 2.0) -> str:
    """z − z(first stream cell on the D8 path)."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
hit AS (
  SELECT w.origin, w.cur,
         row_number() OVER (PARTITION BY w.origin ORDER BY w.s) AS rn
  FROM walk w JOIN stream st ON st.cell = w.cur AND st.st),
x AS (
  SELECT v.cell, v.v,
    CASE WHEN v.v = {_NOD} THEN NULL
         WHEN so.st THEN 0.0
         ELSE v.v - vz.v END AS val
  FROM vals v
  JOIN stream so ON so.cell = v.cell
  LEFT JOIN hit h ON h.origin = v.cell AND h.rn = 1
  LEFT JOIN vals vz ON vz.cell = h.cur)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(val) AS BIGINT) AS n_reached,
       round(SUM(COALESCE(val, 0.0)), 4) AS value_sum
FROM x GROUP BY cell // {cols}
"""


def total_upstream_channel_length_sql(rows: int = GATE_SIDE,
                                      cols: int = GATE_SIDE,
                                      threshold: float = 2.0) -> str:
    """val(c) = Σ over upstream stream cells u of u's out-step length."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
contrib AS (
  SELECT w.cur AS cell, SUM(e.g) AS tot
  FROM walk w
  JOIN stream st ON st.cell = w.origin AND st.st
  JOIN edges e ON e.cell = w.origin
  GROUP BY w.cur)
SELECT s.cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN s.st THEN 1 END) AS BIGINT) AS n_stream,
       round(SUM(CASE WHEN s.st THEN COALESCE(c.tot, 0.0)
                 ELSE 0.0 END), 4) AS value_sum
FROM stream s LEFT JOIN contrib c ON c.cell = s.cell
GROUP BY s.cell // {cols}
"""


def furthest_channel_head_distance_sql(rows: int = GATE_SIDE,
                                       cols: int = GATE_SIDE,
                                       threshold: float = 2.0) -> str:
    """val(c) = max over upstream stream cells u of path length u→c."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
far AS (
  SELECT w.cur AS cell, MAX(w.d) AS len
  FROM walk w JOIN stream st ON st.cell = w.origin AND st.st
  GROUP BY w.cur)
SELECT s.cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN s.st THEN 1 END) AS BIGINT) AS n_stream,
       round(SUM(CASE WHEN s.st THEN COALESCE(f.len, 0.0)
                 ELSE 0.0 END), 4) AS value_sum
FROM stream s LEFT JOIN far f ON f.cell = s.cell
GROUP BY s.cell // {cols}
"""


def stream_magnitude_sql(rows: int = 256, cols: int = 256,
                         threshold: float = 5.0) -> str:
    """Shreve magnitude: # of stream headwater cells upstream
    (including the cell itself when it is a head)."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
heads AS (
  SELECT s.cell FROM stream s
  WHERE s.st AND NOT EXISTS (
    SELECT 1 FROM edges e JOIN stream su ON su.cell = e.cell AND su.st
    WHERE e.down = s.cell)),
mag AS (
  SELECT w.cur AS cell, COUNT(*) AS m
  FROM walk w JOIN heads h ON h.cell = w.origin
  GROUP BY w.cur),
x AS (
  SELECT s.cell, s.st,
    CASE WHEN s.st THEN COALESCE(m.m, 0)
         + CASE WHEN h.cell IS NULL THEN 0 ELSE 1 END
         ELSE 0 END AS mg
  FROM stream s
  LEFT JOIN mag m ON m.cell = s.cell
  LEFT JOIN heads h ON h.cell = s.cell)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN st THEN 1 END) AS BIGINT) AS n_stream,
       CAST(SUM(mg) AS BIGINT) AS sum_magnitude,
       CAST(MAX(mg) AS BIGINT) AS max_magnitude
FROM x GROUP BY cell // {cols}
"""


def snap_pour_points_sql(rows: int = 256, cols: int = 256,
                         snap_dist: int = 5) -> str:
    """Move each pour point to the highest-accumulation cell in its
    clamped (2d+1)² window; first max in COLUMN-major window order
    (the reference's x-outer/y-inner strict-> scan)."""
    d = snap_dist
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_pour_cte_raw()},
pts AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c
        FROM pour_raw WHERE p),
win AS (
  SELECT p.cell AS point_cell, a.cell AS wcell, a.a,
         a.cell % {cols} AS x, a.cell // {cols} AS y
  FROM pts p JOIN acc a
    ON (a.cell // {cols}) BETWEEN GREATEST(p.r - {d}, 0)
                              AND LEAST(p.r + {d}, {rows - 1})
   AND (a.cell % {cols}) BETWEEN GREATEST(p.c - {d}, 0)
                             AND LEAST(p.c + {d}, {cols - 1})),
best AS (
  SELECT point_cell, wcell, a,
         row_number() OVER (PARTITION BY point_cell
                            ORDER BY a DESC, x, y) AS rn
  FROM win)
SELECT point_cell, wcell AS snapped_cell, a AS snap_acc
FROM best WHERE rn = 1
"""


def _pour_cte_raw() -> str:
    """``pour_raw(cell, p)`` — pour mask WITHOUT the validity test
    (snap tools use the raw mask)."""
    return ("pour_raw AS (SELECT cell, "
            "((cell * 2654435761 + 999) % 4294967296) % 3001 = 0 AS p "
            "FROM vals)")


def jenson_snap_pour_points_sql(rows: int = 256, cols: int = 256,
                                snap_dist: int = 5,
                                threshold: float = 5.0) -> str:
    """Move each pour point to the nearest stream cell (acc ≥
    threshold) in its window; first min squared distance in
    column-major order; no stream cell → stays put with d2 = 0."""
    d = snap_dist
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_pour_cte_raw()},
pts AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c
        FROM pour_raw WHERE p),
win AS (
  SELECT p.cell AS point_cell, p.r, p.c, a.cell AS wcell,
         a.cell % {cols} AS x, a.cell // {cols} AS y,
         CAST((a.cell % {cols} - p.c) * (a.cell % {cols} - p.c)
            + (a.cell // {cols} - p.r) * (a.cell // {cols} - p.r)
            AS DOUBLE) AS d2
  FROM pts p JOIN acc a
    ON (a.cell // {cols}) BETWEEN GREATEST(p.r - {d}, 0)
                              AND LEAST(p.r + {d}, {rows - 1})
   AND (a.cell % {cols}) BETWEEN GREATEST(p.c - {d}, 0)
                             AND LEAST(p.c + {d}, {cols - 1})
  WHERE a.a >= {threshold!r}),
best AS (
  SELECT point_cell, wcell, d2,
         row_number() OVER (PARTITION BY point_cell
                            ORDER BY d2, x, y) AS rn
  FROM win)
SELECT p.cell AS point_cell,
       COALESCE(b.wcell, p.cell) AS snapped_cell,
       COALESCE(b.d2, 0.0) AS snap_d2
FROM pts p LEFT JOIN best b ON b.point_cell = p.cell AND b.rn = 1
"""


def elev_rel_watershed_minmax_sql(rows: int = GATE_SIDE,
                                  cols: int = GATE_SIDE) -> str:
    """(z − min_w)/(max_w − min_w) within each watershed label; labels
    from the watershed first-pour-hit rule; unlabelled excluded."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_pour_cte()},
hit AS (
  SELECT w.origin, w.cur, w.s,
         row_number() OVER (PARTITION BY w.origin ORDER BY w.s) AS rn
  FROM walk w JOIN pourt p ON p.cell = w.cur AND p.p),
lab AS (
  SELECT v.cell, v.v,
    CASE WHEN v.v = {_NOD} THEN 0
         WHEN pp.p THEN v.cell
         ELSE COALESCE(h.cur, 0) END AS label
  FROM vals v
  JOIN pourt pp ON pp.cell = v.cell
  LEFT JOIN hit h ON h.origin = v.cell AND h.rn = 1),
mm AS (SELECT label, MIN(v) AS lo, MAX(v) AS hi FROM lab
       WHERE label > 0 AND v <> {_NOD} GROUP BY label),
x AS (
  SELECT l.cell, l.v, l.label,
    CASE WHEN l.label > 0 AND l.v <> {_NOD} AND m.hi > m.lo
         THEN (l.v - m.lo) / (m.hi - m.lo) ELSE 0.0 END AS rel,
    (l.label > 0 AND l.v <> {_NOD}) AS ok
  FROM lab l LEFT JOIN mm m ON m.label = l.label)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN ok THEN 1 END) AS BIGINT) AS n_labeled,
       round(SUM(CASE WHEN ok THEN rel ELSE 0.0 END), 6) AS rel_sum
FROM x GROUP BY cell // {cols}
"""


def downslope_index_sql(rows: int = GATE_SIDE, cols: int = GATE_SIDE,
                        d: float = 30.0) -> str:
    """DownslopeIndex tangent mode with the reference's literal quirks:
    walk until the drop from the START elevation reaches d; crossing
    step interpolated gridLen·d/(zSt − zCur); terminal after ≥ 1 step
    → 0; pointer-0/NoData cells excluded."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
hit AS (
  SELECT w.origin, w.d, w.lg, vz.v AS zc, w.s,
         row_number() OVER (PARTITION BY w.origin ORDER BY w.s) AS rn
  FROM walk w
  JOIN vals vo ON vo.cell = w.origin
  JOIN vals vz ON vz.cell = w.cur
  WHERE vo.v - vz.v >= {d!r}),
x AS (
  SELECT v.cell,
    CASE
      WHEN v.v = {_NOD} OR e.cell IS NULL THEN NULL
      WHEN h.origin IS NOT NULL THEN
        {d!r} / ((h.d - h.lg) + h.lg * {d!r} / (v.v - h.zc))
      ELSE 0.0 END AS val
  FROM vals v
  LEFT JOIN edges e ON e.cell = v.cell
  LEFT JOIN hit h ON h.origin = v.cell AND h.rn = 1)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(val) AS BIGINT) AS n_valid,
       round(SUM(COALESCE(val, 0.0)), 4) AS index_sum
FROM x GROUP BY cell // {cols}
"""


def median_upstream_area_sql(rows: int = GATE_SIDE, cols: int = GATE_SIDE,
                             threshold: float = 2.0) -> str:
    """Sketch median (log-1.4 buckets, lower edge at rank
    ⌈(n+1)/2⌉) of upstream stream cells' accumulations."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
ups AS (
  SELECT w.cur AS cell,
         LEAST(CAST(floor(ln(GREATEST(a2.a, 1.0)) / ln(1.4)) AS BIGINT),
               47) AS b,
         COUNT(*) AS cnt
  FROM walk w
  JOIN stream st ON st.cell = w.origin AND st.st
  JOIN acc a2 ON a2.cell = w.origin
  GROUP BY w.cur, b),
tot AS (SELECT cell, SUM(cnt) AS n FROM ups GROUP BY cell),
cum AS (
  SELECT u.cell, u.b, SUM(u2.cnt) AS cm
  FROM ups u JOIN ups u2 ON u2.cell = u.cell AND u2.b <= u.b
  GROUP BY u.cell, u.b),
medb AS (
  SELECT c.cell, MIN(c.b) AS b
  FROM cum c JOIN tot t ON t.cell = c.cell
  WHERE c.cm >= (t.n + 2) // 2
  GROUP BY c.cell),
x AS (
  SELECT s.cell, s.st,
    CASE WHEN s.st AND m.b IS NOT NULL THEN pow(1.4, m.b)
         ELSE 0.0 END AS med
  FROM stream s LEFT JOIN medb m ON m.cell = s.cell)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN st THEN 1 END) AS BIGINT) AS n_stream,
       round(SUM(med), 4) AS median_sum
FROM x GROUP BY cell // {cols}
"""


def _stream_link_ctes(cols: int, threshold: float) -> str:
    """Stream-network CTEs shared by the link family (requires
    _d8_walk_ctes + _stream_cte in scope): ``sedges`` (stream→stream
    pointer edges with scan index i), ``sindeg``, ``heads``, ``resets``
    (head or junction), ``linklab(cell, label)`` = nearest reset
    ancestor (stages/streams.py _solve_tile label rule), ``smag`` =
    Shreve magnitude, ``cu(cell, up)`` = chosen upstream (max acc,
    first in the i-scan on ties — FindMainStem.java:287-303)."""
    return f"""sedges AS (
  SELECT e.cell, e.down, e.g,
    CASE e.cell - e.down
      WHEN -{cols - 1} THEN 0 WHEN 1 THEN 1 WHEN {cols + 1} THEN 2
      WHEN {cols} THEN 3 WHEN {cols - 1} THEN 4 WHEN -1 THEN 5
      WHEN -{cols + 1} THEN 6 WHEN -{cols} THEN 7 END AS i
  FROM edges e
  JOIN stream so ON so.cell = e.cell AND so.st),
sindeg AS (
  SELECT s.cell, COUNT(e.cell) AS n
  FROM stream s LEFT JOIN sedges e ON e.down = s.cell
  WHERE s.st GROUP BY s.cell),
heads AS (SELECT cell FROM sindeg WHERE n = 0),
resets AS (SELECT cell FROM sindeg WHERE n <> 1),
lhit AS (
  SELECT w.cur, w.origin, w.s,
         row_number() OVER (PARTITION BY w.cur ORDER BY w.s) AS rn
  FROM walk w JOIN resets r ON r.cell = w.origin),
linklab AS MATERIALIZED (
  SELECT s.cell,
    CASE WHEN r.cell IS NOT NULL THEN s.cell ELSE h.origin END AS label
  FROM stream s
  LEFT JOIN resets r ON r.cell = s.cell
  LEFT JOIN lhit h ON h.cur = s.cell AND h.rn = 1
  WHERE s.st),
hcnt AS (
  SELECT w.cur AS cell, COUNT(*) AS m
  FROM walk w JOIN heads h ON h.cell = w.origin GROUP BY w.cur),
smag AS MATERIALIZED (
  SELECT s.cell,
    CASE WHEN s.st THEN COALESCE(hc.m, 0)
         + CASE WHEN hd.cell IS NULL THEN 0 ELSE 1 END
         ELSE 0 END AS mag
  FROM stream s
  LEFT JOIN hcnt hc ON hc.cell = s.cell
  LEFT JOIN heads hd ON hd.cell = s.cell),
cur AS (
  SELECT e.down AS cell, e.cell AS up,
         row_number() OVER (PARTITION BY e.down
           ORDER BY a2.a DESC, e.i) AS rn
  FROM sedges e JOIN acc a2 ON a2.cell = e.cell),
cu AS (SELECT cell, up FROM cur WHERE rn = 1)"""


def stream_link_id_sql(rows: int = 256, cols: int = 256,
                       threshold: float = 5.0) -> str:
    """(row_id, n_stream, n_heads, sum_label); n_heads counts cells
    whose label is their own cell (link starts)."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
{_stream_link_ctes(cols, threshold)}
SELECT s.cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN s.st THEN 1 END) AS BIGINT) AS n_stream,
       CAST(COUNT(CASE WHEN l.label = s.cell THEN 1 END) AS BIGINT)
         AS n_heads,
       CAST(SUM(CASE WHEN s.st THEN l.label ELSE 0 END) AS BIGINT)
         AS sum_label
FROM stream s LEFT JOIN linklab l ON l.cell = s.cell
GROUP BY s.cell // {cols}
"""


def stream_link_lengths_sql(rows: int = 256, cols: int = 256,
                            threshold: float = 5.0) -> str:
    """(n_links, total_stream_cells, max_link_len) — per-label cell
    counts."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
{_stream_link_ctes(cols, threshold)},
per AS (SELECT label, COUNT(*) AS n FROM linklab GROUP BY label)
SELECT CAST(COUNT(*) AS BIGINT) AS n_links,
       CAST(SUM(n) AS BIGINT) AS total_stream_cells,
       CAST(MAX(n) AS BIGINT) AS max_link_len
FROM per
"""


def stream_link_slope_sql(rows: int = 256, cols: int = 256,
                          threshold: float = 5.0) -> str:
    """Per link: relief = max z − min z, length = Σ out-step lengths,
    slope_pct = relief/length·100 (NULL when length = 0)."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
{_stream_link_ctes(cols, threshold)},
per AS (
  SELECT l.label, MIN(v.v) AS zmin, MAX(v.v) AS zmax,
         SUM(COALESCE(e.g, 0.0)) AS length
  FROM linklab l
  JOIN vals v ON v.cell = l.cell
  LEFT JOIN edges e ON e.cell = l.cell
  GROUP BY l.label)
SELECT CAST(label AS BIGINT) AS label,
       round(zmax - zmin, 6) AS relief,
       round(length, 6) AS length,
       CASE WHEN length > 0
            THEN round((zmax - zmin) / length * 100.0, 6) END AS slope_pct
FROM per
"""


def stream_link_classification_sql(rows: int = 256, cols: int = 256,
                                   threshold: float = 5.0) -> str:
    """(class_value, n_cells): pointer-0 → 5, head → 3, junction → 4,
    else min(2, Shreve magnitude)."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
{_stream_link_ctes(cols, threshold)},
cls AS (
  SELECT s.cell,
    CASE WHEN r2.f = 0.0 THEN 5
         WHEN d.n = 0 THEN 3
         WHEN d.n > 1 THEN 4
         ELSE LEAST(2, m.mag) END AS class_value
  FROM stream s
  JOIN res r2 ON r2.cell = s.cell
  JOIN sindeg d ON d.cell = s.cell
  JOIN smag m ON m.cell = s.cell
  WHERE s.st)
SELECT CAST(class_value AS BIGINT) AS class_value,
       CAST(COUNT(*) AS BIGINT) AS n_cells
FROM cls GROUP BY class_value
"""


def find_main_stem_sql(rows: int = 256, cols: int = 256,
                       threshold: float = 5.0) -> str:
    """(row_id, n_stream, n_mainstem): main stem = chosen-upstream
    closure from every outlet (stream cell with pointer 0)."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
{_stream_link_ctes(cols, threshold)},
ms AS (
  SELECT s.cell FROM stream s JOIN res r2 ON r2.cell = s.cell
  WHERE s.st AND r2.f = 0.0
  UNION ALL
  SELECT c.up FROM ms JOIN cu c ON c.cell = ms.cell)
SELECT s.cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN s.st THEN 1 END) AS BIGINT) AS n_stream,
       CAST(COUNT(m.cell) AS BIGINT) AS n_mainstem
FROM stream s LEFT JOIN ms m ON m.cell = s.cell
GROUP BY s.cell // {cols}
"""


def hack_order_sql(rows: int = 256, cols: int = 256,
                   threshold: float = 5.0) -> str:
    """hack(c) = 1 + number of steps on c's downstream path where the
    moving cell is NOT the chosen upstream of its receiver."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
{_stream_link_ctes(cols, threshold)},
steps AS (
  SELECT w.origin, w.cur,
         COALESCE(wp.cur, w.origin) AS prev
  FROM walk w
  LEFT JOIN walk wp ON wp.origin = w.origin AND wp.s = w.s - 1),
hk AS (
  SELECT s.cell,
    CASE WHEN s.st THEN 1 + (
      SELECT COUNT(*) FROM steps st2 JOIN cu c ON c.cell = st2.cur
      WHERE st2.origin = s.cell AND c.up <> st2.prev)
    ELSE 0 END AS h
  FROM stream s)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN h > 0 THEN 1 END) AS BIGINT) AS n_stream,
       CAST(MAX(h) AS BIGINT) AS max_hack,
       CAST(SUM(h) AS BIGINT) AS sum_hack
FROM hk GROUP BY cell // {cols}
"""


def remove_short_streams_sql(rows: int = 256, cols: int = 256,
                             threshold: float = 2.0,
                             min_length: float = 3.0) -> str:
    """Per-link (cells, Σ step length, min Shreve mag, confluence-end
    flag); removed = min_mag 1 AND confluence end AND length <
    min_length."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
{_stream_link_ctes(cols, threshold)},
confl AS (
  SELECT e.cell FROM sedges e JOIN sindeg d ON d.cell = e.down
  WHERE d.n > 1),
per AS (
  SELECT l.label, COUNT(*) AS n,
         SUM(COALESCE(e.g, 0.0)) AS length,
         MIN(m.mag) AS min_mag,
         MAX(CASE WHEN cf.cell IS NULL THEN 0 ELSE 1 END) AS conf
  FROM linklab l
  LEFT JOIN edges e ON e.cell = l.cell
  JOIN smag m ON m.cell = l.cell
  LEFT JOIN confl cf ON cf.cell = l.cell
  GROUP BY l.label),
rem AS (SELECT * FROM per
        WHERE min_mag = 1 AND conf = 1 AND length < {min_length!r})
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM per) AS n_links,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM rem) AS n_removed_links,
       (SELECT CAST(COALESCE(SUM(n), 0) AS BIGINT) FROM rem)
         AS n_removed_cells,
       (SELECT CAST(SUM(n) AS BIGINT) FROM per)
         - (SELECT CAST(COALESCE(SUM(n), 0) AS BIGINT) FROM rem)
         AS remaining_cells
"""


def _strahler_ctes(max_order: int = 16) -> str:
    """``sord(cell, o)`` — Strahler order per stream cell via unrolled
    level sets: S1 = stream; j is a k-junction when ≥ 2 stream inflows
    lie in S_k; S_{k+1} = downstream closure of the k-junctions (order
    is monotone downstream, so membership propagates along the walk).
    Requires _stream_link_ctes in scope. max_order=16 safely exceeds
    any order reachable on these grids (order ≤ log2(#heads)+1)."""
    parts = ["s1 AS MATERIALIZED (SELECT cell FROM stream WHERE st)"]
    for k in range(1, max_order):
        parts.append(f"""j{k} AS MATERIALIZED (
  SELECT e.down AS j FROM sedges e JOIN s{k} sk ON sk.cell = e.cell
  GROUP BY e.down HAVING COUNT(*) >= 2)""")
        parts.append(f"""s{k + 1} AS MATERIALIZED (
  SELECT j AS cell FROM j{k}
  UNION
  SELECT w.cur FROM walk w JOIN j{k} ON j{k}.j = w.origin)""")
    lvl = " + ".join(
        f"(CASE WHEN EXISTS (SELECT 1 FROM s{k + 1} x WHERE x.cell = s.cell)"
        f" THEN 1 ELSE 0 END)"
        for k in range(1, max_order))
    parts.append(f"""sord AS (
  SELECT s.cell, 1 + {lvl} AS o FROM stream s WHERE s.st)""")
    return ",\n".join(parts)


def stream_order_sql(rows: int = 256, cols: int = 256,
                     threshold: float = 5.0) -> str:
    """(row_id, n_stream, max_order, sum_order, sum_magnitude) —
    Strahler order + Shreve magnitude per raster row."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
{_stream_link_ctes(cols, threshold)},
{_strahler_ctes()}
SELECT s.cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN s.st THEN 1 END) AS BIGINT) AS n_stream,
       CAST(COALESCE(MAX(so.o), 0) AS BIGINT) AS max_order,
       CAST(COALESCE(SUM(so.o), 0) AS BIGINT) AS sum_order,
       CAST(SUM(m.mag) AS BIGINT) AS sum_magnitude
FROM stream s
LEFT JOIN sord so ON so.cell = s.cell
LEFT JOIN smag m ON m.cell = s.cell
GROUP BY s.cell // {cols}
"""


def strahler_order_basins_sql(rows: int = 256, cols: int = 256,
                              threshold: float = 5.0) -> str:
    """Every cell takes the Strahler ORDER of the first stream cell on
    its D8 path (subbasins plan with the order plane)."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
{_stream_link_ctes(cols, threshold)},
{_strahler_ctes()},
shit AS (
  SELECT w.origin, w.cur,
         row_number() OVER (PARTITION BY w.origin ORDER BY w.s) AS rn
  FROM walk w JOIN stream st ON st.cell = w.cur AND st.st),
labv AS (
  SELECT v.cell,
    CASE WHEN v.v = {_NOD} THEN -1
         WHEN so.st THEN o1.o
         ELSE COALESCE(o2.o, -1) END AS lab
  FROM vals v
  JOIN stream so ON so.cell = v.cell
  LEFT JOIN sord o1 ON o1.cell = v.cell
  LEFT JOIN shit h ON h.origin = v.cell AND h.rn = 1
  LEFT JOIN sord o2 ON o2.cell = h.cur)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN lab >= 0 THEN 1 END) AS BIGINT) AS n_labelled,
       CAST(SUM(CASE WHEN lab >= 0 THEN lab ELSE 0 END) AS BIGINT)
         AS sum_label
FROM labv GROUP BY cell // {cols}
"""


def _vs_z(cell: str) -> str:
    """Inline synth_value(cell) as SQL."""
    return (f"(CASE WHEN (({cell}) * 2246822519 + 1013904223) "
            f"% 4294967296 % 17 = 0 THEN {_NOD} "
            f"ELSE ((({cell}) * 2654435761) % 4294967296) "
            f"/ 4294967296.0 * 1000.0 END)")


def _vs_sweep(name: str, w: int, sr: int, sc: int, vmax: int,
              cell_of: str, sz: str) -> str:
    """One XDraw ring sweep as a recursive list-CTE. ``cell_of`` is a
    SQL expression for the synth cell index given ``RW`` (the ring's
    grid row, replaced textually) and lambda variable c. Produces
    ``{name}(v, m)`` — m[c+1] = running max view angle at ring v."""
    def va(row_expr: str) -> str:
        z = _vs_z(cell_of.replace("RW", row_expr))
        return (f"(CASE WHEN {z} = {_NOD} THEN {_NOD} "
                f"ELSE ({z} - {sz}) / sqrt(CAST((c - {sc}) * (c - {sc}) "
                f"+ ({row_expr} - ({sr})) * ({row_expr} - ({sr})) "
                f"AS DOUBLE)) * 1000.0 END)")
    seed_va = va("SEEDROW")
    rec_va = va("RECROW")
    return f"""{name} AS (
  SELECT 1 AS v,
    list_transform(generate_series(0, {w - 1}), c ->
      CASE WHEN c BETWEEN GREATEST({sc} - 1, 0)
                      AND LEAST({sc} + 1, {w - 1})
           THEN {seed_va} ELSE NULL END) AS m
  UNION ALL
  SELECT p.v + 1,
    list_transform(generate_series(0, {w - 1}), c ->
      CASE
        WHEN c < GREATEST({sc} - (p.v + 1), 0)
          OR c > LEAST({sc} + (p.v + 1), {w - 1}) THEN NULL
        WHEN c = {sc} THEN GREATEST(p.m[{sc} + 1], {rec_va})
        WHEN c > {sc} THEN GREATEST({rec_va},
          CASE WHEN c - {sc} = p.v + 1 THEN p.m[c]
               ELSE p.m[c + 1] + (CAST(c - {sc} AS DOUBLE) / (p.v + 1))
                    * (p.m[c] - p.m[c + 1]) END)
        ELSE GREATEST({rec_va},
          CASE WHEN {sc} - c = p.v + 1 THEN p.m[c + 2]
               ELSE p.m[c + 1] + (CAST({sc} - c AS DOUBLE) / (p.v + 1))
                    * (p.m[c + 2] - p.m[c + 1]) END)
      END)
  FROM {name} p WHERE p.v < {vmax})"""


def _viewshed_parts(rows: int, cols: int, sr: int, sc: int,
                    station_height: float, px: str):
    """(list of 4 sweep CTE strings, list of count SELECTs) for one
    station, CTE names prefixed with ``px``."""
    st_cell = sr * cols + sc
    sz = f"({_vs_z(repr(st_cell))} + {station_height!r})"
    # original grid: cell = RW*cols + c, ring row RW = sr -/+ v
    up = _vs_sweep(f"{px}up_a", cols, sr, sc, sr,
                   f"(RW) * {cols} + c", sz)
    dn = _vs_sweep(f"{px}dn_a", cols, sr, sc, rows - 1 - sr,
                   f"(RW) * {cols} + c", sz)
    # transposed grid: z'(r', c') = synth(c'*cols + r'); station (sc, sr)
    up_t = _vs_sweep(f"{px}up_b", rows, sc, sr, sc,
                     f"c * {cols} + (RW)", sz)
    dn_t = _vs_sweep(f"{px}dn_b", rows, sc, sr, cols - 1 - sc,
                     f"c * {cols} + (RW)", sz)

    def fix(cte: str, seed_row: str, rec_row: str) -> str:
        return cte.replace("SEEDROW", seed_row).replace("RECROW", rec_row)

    up = fix(up, f"({sr} - 1)", f"({sr} - (p.v + 1))")
    dn = fix(dn, f"({sr} + 1)", f"({sr} + (p.v + 1))")
    up_t = fix(up_t, f"({sc} - 1)", f"({sc} - (p.v + 1))")
    dn_t = fix(dn_t, f"({sc} + 1)", f"({sc} + (p.v + 1))")

    def count(name: str, row_expr: str, out_expr: str, sr_: int,
              sc_: int, cell_of: str, strict: bool, width: int) -> str:
        z = _vs_z(cell_of)
        vaq = (f"(CASE WHEN {z} = {_NOD} THEN {_NOD} "
               f"ELSE ({z} - {sz}) / sqrt(CAST((c - {sc_}) * (c - {sc_})"
               f" + ({row_expr} - ({sr_})) * ({row_expr} - ({sr_})) "
               f"AS DOUBLE)) * 1000.0 END)")
        stricter = f"AND abs(c - {sc_}) < t.v" if strict else ""
        return f"""
SELECT {out_expr} AS row_id, CAST(COUNT(*) AS BIGINT) AS n
FROM {name} t, generate_series(0, {width - 1}) s(c)
WHERE t.m[c + 1] IS NOT NULL {stricter}
  AND {vaq} <> {_NOD} AND t.m[c + 1] <= {vaq}
GROUP BY {out_expr}"""

    counts = [
        count(f"{px}up_a", f"({sr} - t.v)", f"{sr} - t.v", sr, sc,
              f"({sr} - t.v) * {cols} + c", False, cols),
        count(f"{px}dn_a", f"({sr} + t.v)", f"{sr} + t.v", sr, sc,
              f"({sr} + t.v) * {cols} + c", False, cols),
        count(f"{px}up_b", f"({sc} - t.v)", "c", sc, sr,
              f"c * {cols} + ({sc} - t.v)", True, rows),
        count(f"{px}dn_b", f"({sc} + t.v)", "c", sc, sr,
              f"c * {cols} + ({sc} + t.v)", True, rows),
        # station cell: va is forced to 0 at dist 0 but then overwritten
        # to NODATA when the station's own z is NoData — count it only
        # on valid ground (stages/viewshed.py _view_angle order).
        f"SELECT {sr} AS row_id, 1 AS n "
        f"WHERE {_vs_z(repr(st_cell))} <> {_NOD}",
    ]
    return [up, dn, up_t, dn_t], counts


def viewshed_sql(rows: int = 256, cols: int = 256,
                 station_height: float = 2.0) -> str:
    """Viewshed (XDraw triangular-facet sweep) — four recursive ring
    sweeps (up/down × original/transposed); every op is an
    IEEE-correctly-rounded double op in the same order as the numpy
    kernel, so max-view-angle comparisons match bit-for-bit."""
    sr, sc = rows // 2 + 3, cols // 2 - 5
    ctes, counts = _viewshed_parts(rows, cols, sr, sc, station_height, "")
    body = ",\n".join(ctes)
    cnts = "\nUNION ALL\n".join(counts)
    return f"""
WITH RECURSIVE
{body},
allc AS ({cnts})
SELECT g.r AS row_id,
       CAST(COALESCE(SUM(a.n), 0) AS BIGINT) AS n_visible
FROM generate_series(0, {rows - 1}) g(r)
LEFT JOIN allc a ON a.row_id = g.r
GROUP BY g.r
"""


def visibility_index_sql(rows: int = GATE_SIDE, cols: int = GATE_SIDE,
                         station_height: float = 2.0,
                         n_stations: int = 4) -> str:
    """VisibilityIndex: mean of the n_stations lattice viewsheds'
    per-row visible counts (stages/viewshed.py _station_lattice)."""
    ctes, counts = [], []
    for k in range(n_stations):
        sr = rows // 4 + (k % 2) * (rows // 2) + 3
        sc = cols // 4 + (k // 2 % 2) * (cols // 2) - 2
        c, n = _viewshed_parts(rows, cols, sr, sc, station_height,
                               f"s{k}_")
        ctes += c
        counts += n
    body = ",\n".join(ctes)
    cnts = "\nUNION ALL\n".join(counts)
    return f"""
WITH RECURSIVE
{body},
allc AS ({cnts})
SELECT g.r AS row_id,
       CAST(COALESCE(SUM(a.n), 0) AS DOUBLE) / {float(n_stations)!r}
         AS index_sum
FROM generate_series(0, {rows - 1}) g(r)
LEFT JOIN allc a ON a.row_id = g.r
GROUP BY g.r
"""


_HS_DX = (1, 1, 1, 0, -1, -1, -1, 0)
_HS_DY = (-1, 0, 1, 1, 1, 0, -1, -1)


def hillslopes_sql(rows: int = 256, cols: int = 256,
                   threshold: float = 5.0) -> str:
    """Hillslopes: bank labelling + downslope fill. The reference's
    in-place row-major scan reduces to an order rule — a cell's final
    bank code is the LAST right-bank writer in scan (cell-id) order,
    else the FIRST left-bank writer (right writes overwrite
    unconditionally; left writes only on untouched cells). The right
    walk's rotation window (stop at the first stream/NoData neighbour
    after a non-stream run) is evaluated per stream cell over an
    unrolled 16-step rotation table."""
    delta = [f"WHEN {d} THEN {_HS_DY[d] * cols + _HS_DX[d]}"
             for d in range(8)]
    dcase = "CASE d " + " ".join(delta) + " END"
    dxcase = ("CASE d " + " ".join(
        f"WHEN {d} THEN {_HS_DX[d]}" for d in range(8)) + " END")
    dycase = ("CASE d " + " ".join(
        f"WHEN {d} THEN {_HS_DY[d]}" for d in range(8)) + " END")
    inflow_rd = ("CASE r.d " + " ".join(
        f"WHEN {d} THEN {float(1 << ((d + 4) % 8))!r}" for d in range(8))
        + " END")
    cicase = ("CASE r2.f " + " ".join(
        f"WHEN {float(1 << i)!r} THEN {i}" for i in range(8)) + " END")
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
{_stream_link_ctes(cols, threshold)},
basev AS MATERIALIZED (
  SELECT s.cell,
    CASE WHEN h.cell IS NOT NULL THEN 2 * s.cell + 1
         ELSE 2 * l.label END AS b
  FROM stream s
  JOIN linklab l ON l.cell = s.cell
  LEFT JOIN heads h ON h.cell = s.cell
  WHERE s.st),
sfd AS (
  SELECT s.cell, {cicase} AS ci, b.b
  FROM stream s
  JOIN res r2 ON r2.cell = s.cell
  JOIN basev b ON b.cell = s.cell
  WHERE s.st AND r2.f > 0),
rot AS (
  SELECT sf.cell, sf.ci, sf.b, p.p, (sf.ci + p.p) % 8 AS d
  FROM sfd sf, generate_series(1, 16) p(p)),
rotn AS MATERIALIZED (
  SELECT r.cell, r.b, r.p, r.d,
    r.cell + {dcase} AS n,
    (r.cell % {cols} + {dxcase} BETWEEN 0 AND {cols - 1})
      AND (r.cell // {cols} + {dycase} BETWEEN 0 AND {rows - 1}) AS ing
  FROM rot r),
rots AS MATERIALIZED (
  SELECT rn.cell, rn.b, rn.p, rn.d, rn.n,
    rn.ing AND v.v <> {_NOD} AND NOT st.st AS nonstream,
    NOT (rn.ing AND v.v <> {_NOD}) OR st.st AS bad
  FROM rotn rn
  LEFT JOIN vals v ON v.cell = rn.n AND rn.ing
  LEFT JOIN stream st ON st.cell = rn.n AND rn.ing),
rstate AS (
  SELECT cell, b, p, d, n, nonstream, bad,
    COALESCE(SUM(CASE WHEN nonstream THEN 1 ELSE 0 END)
      OVER (PARTITION BY cell ORDER BY p
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) > 0
      AS state_prev
  FROM rots),
brk AS (
  SELECT s.cell, COALESCE(MIN(r.p), 17) AS brk
  FROM sfd s LEFT JOIN rstate r
    ON r.cell = s.cell AND r.bad AND r.state_prev
  GROUP BY s.cell),
rightw AS (
  SELECT r.n, r.cell AS s, r.b * 4 AS val
  FROM rstate r
  JOIN brk k ON k.cell = r.cell
  JOIN res rp ON rp.cell = r.n
  WHERE r.p < k.brk AND r.nonstream AND rp.f = {inflow_rd}),
leftw AS (
  SELECT e.cell AS n, e.down AS s, b.b * 4 + 1 AS val
  FROM edges e
  JOIN basev b ON b.cell = e.down
  JOIN stream sn ON sn.cell = e.cell
  JOIN res rs ON rs.cell = e.down
  WHERE NOT sn.st AND rs.f > 0),
bank AS (
  SELECT n, val FROM (
    SELECT n, val, row_number() OVER (PARTITION BY n ORDER BY s DESC) rk
    FROM rightw) WHERE rk = 1
),
bankl AS (
  SELECT l.n, l.val FROM (
    SELECT n, val, row_number() OVER (PARTITION BY n ORDER BY s) rk
    FROM leftw) l
  WHERE l.rk = 1 AND NOT EXISTS (SELECT 1 FROM bank b WHERE b.n = l.n)),
seeds AS MATERIALIZED (
  SELECT s.cell, b.b * 4 AS val FROM stream s JOIN basev b USING (cell)
  WHERE s.st
  UNION ALL
  SELECT n, val FROM bank
  UNION ALL
  SELECT n, val FROM bankl),
seedhit AS (
  SELECT w.origin, w.cur,
         row_number() OVER (PARTITION BY w.origin ORDER BY w.s) AS rn
  FROM walk w JOIN seeds sd ON sd.cell = w.cur),
lab AS (
  SELECT v.cell,
    CASE WHEN s0.val IS NOT NULL THEN s0.val
         WHEN v.v = {_NOD} THEN -2
         ELSE COALESCE(s1.val, -2) END AS lb
  FROM vals v
  LEFT JOIN seeds s0 ON s0.cell = v.cell
  LEFT JOIN seedhit h ON h.origin = v.cell AND h.rn = 1
  LEFT JOIN seeds s1 ON s1.cell = h.cur)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN lb >= 0 THEN 1 END) AS BIGINT) AS n_assigned,
       CAST(SUM(CASE WHEN lb >= 0 THEN lb ELSE 0 END) AS BIGINT)
         AS sum_code
FROM lab GROUP BY cell // {cols}
"""


def isobasin_sql(rows: int = GATE_SIDE, cols: int = GATE_SIDE,
                 threshold: float = 15.0) -> str:
    """Isobasin (stages/isobasin.py; Isobasin.java:245-377): phase 1 is
    a SEQUENTIAL replay — heads in row-major order, each walking its D8
    path over a MUTABLE contributing-area raster, dropping sequential
    outlet ids and decrementing every cell downstream of each outlet —
    expressed as a one-row-per-step recursive state machine. The CA
    state lives in a list over the COMPACT set (trunk = CA ≥ threshold,
    ∪ 8-neighbours: every cell the replay can read or write — non-compact
    cells keep CA < threshold forever, so their checks never fire and
    reads are elided). Decrements apply a precomputed per-target
    downstream-path 0/1 mask in one vectorized list op. Heads use the
    literal TRANSPOSED pointer read (Isobasin.java:253). Each head's
    walk starts at its first ORIGINAL-trunk cell (entryt — checks
    cannot fire on the below-threshold prefix, the same elision the
    stage's _replay_phase1 uses), with a one-iteration ``pend`` state
    replaying the arrival check at the entry cell; this keeps the
    sequential machine to O(heads + trunk-suffix steps) iterations
    instead of O(heads × path length). Phase 2 =
    first-outlet-downstream via the walk closure."""
    n = rows * cols
    thr = repr(float(threshold))
    # (i, dx, dy, inflow) per direction — _DX/_DY/_INFLOW in isobasin.py
    dirs = [(0, 1, -1, 16.0), (1, 1, 0, 32.0), (2, 1, 1, 64.0),
            (3, 0, 1, 128.0), (4, -1, 1, 1.0), (5, -1, 0, 2.0),
            (6, -1, -1, 4.0), (7, 0, -1, 8.0)]
    tvals = ", ".join(f"({i}, {dx}, {dy}, {iv!r})" for i, dx, dy, iv in dirs)
    offs = ", ".join(f"({dx}, {dy})" for _, dx, dy, _ in dirs)
    seed = ("struct_pack(nb := CAST(-1 AS BIGINT), ki := CAST(0 AS INT), "
            "ca := -99999.0)")
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
trunk AS (SELECT cell FROM acc WHERE a >= {thr} AND v <> {_NOD}),
comp AS MATERIALIZED (
  SELECT DISTINCT t.cell + o.dy * {cols} + o.dx AS cell
  FROM trunk t, (VALUES (0, 0), {offs}) o(dx, dy)
  WHERE t.cell % {cols} + o.dx BETWEEN 0 AND {cols - 1}
    AND t.cell // {cols} + o.dy BETWEEN 0 AND {rows - 1}),
cidx AS MATERIALIZED (
  SELECT cell, CAST(ROW_NUMBER() OVER (ORDER BY cell) AS INT) AS k
  FROM comp),
hd AS (
  SELECT g.cell FROM g JOIN res USING (cell)
  WHERE res.f <> {_NOD} AND NOT EXISTS (
    SELECT 1 FROM (VALUES {tvals}) t(i, dx, dy, iv)
    JOIN res p ON p.cell = (g.c + t.dx) * {cols} + (g.r + t.dy)
    WHERE g.c + t.dx BETWEEN 0 AND {rows - 1}
      AND g.r + t.dy BETWEEN 0 AND {cols - 1}
      AND p.f = t.iv)),
inflt AS (
  SELECT ci.k, t.i, (g.r + t.dy) * {cols} + (g.c + t.dx) AS nb
  FROM cidx ci JOIN g USING (cell), (VALUES {tvals}) t(i, dx, dy, iv)
  JOIN res p ON p.cell = (g.r + t.dy) * {cols} + (g.c + t.dx)
  WHERE g.r + t.dy BETWEEN 0 AND {rows - 1}
    AND g.c + t.dx BETWEEN 0 AND {cols - 1}
    AND p.f = t.iv),
infl_k AS MATERIALIZED (
  SELECT i1.k, list(struct_pack(nb := i1.nb, ki := c2.k) ORDER BY i1.i) AS l
  FROM inflt i1 JOIN cidx c2 ON c2.cell = i1.nb GROUP BY i1.k),
resm AS MATERIALIZED (SELECT cell, f FROM res),
edgm AS MATERIALIZED (SELECT cell, down FROM edges),
pathm AS (
  SELECT k AS kt, k AS kp FROM cidx
  UNION ALL
  SELECT ct.k, cp.k FROM cidx ct JOIN walk w ON w.origin = ct.cell
  JOIN cidx cp ON cp.cell = w.cur),
dm AS MATERIALIZED (
  SELECT a.k AS kt,
         list(CASE WHEN pm.kp IS NULL THEN 0.0 ELSE 1.0 END
              ORDER BY b.k) AS m
  FROM cidx a CROSS JOIN cidx b
  LEFT JOIN (SELECT DISTINCT kt, kp FROM pathm) pm
    ON pm.kt = a.k AND pm.kp = b.k
  GROUP BY a.k),
entryt AS (
  SELECT h2.head, p.cur,
         ROW_NUMBER() OVER (PARTITION BY h2.head ORDER BY p.s) AS rn
  FROM (SELECT hd.cell AS head, e.down AS sc
        FROM hd JOIN edges e ON e.cell = hd.cell) h2
  JOIN (SELECT origin, cur, s FROM walk
        UNION ALL SELECT cell, cell, 0 FROM vals) p ON p.origin = h2.sc
  JOIN trunk t ON t.cell = p.cur),
hds AS MATERIALIZED (
  SELECT CAST(ROW_NUMBER() OVER (ORDER BY head) AS BIGINT) AS j, pos, pend
  FROM (
    SELECT hd.cell AS head, hd.cell AS pos, FALSE AS pend
    FROM hd JOIN res ON res.cell = hd.cell WHERE res.f <= 0.0
    UNION ALL
    SELECT head, cur AS pos, TRUE AS pend FROM entryt WHERE rn = 1) u),
nhc AS MATERIALIZED (SELECT COUNT(*) AS nh FROM hds),
ca0 AS MATERIALIZED (
  SELECT list(a.a ORDER BY ci.k) AS ca
  FROM cidx ci JOIN acc a USING (cell)),
sm AS (
  SELECT 0 AS it, CAST(1 AS BIGINT) AS hi,
         coalesce((SELECT pos FROM hds WHERE j = 1),
                  CAST(-1 AS BIGINT)) AS pos,
         coalesce((SELECT pend FROM hds WHERE j = 1), FALSE) AS pend,
         (SELECT ca FROM ca0) AS ca, CAST([] AS BIGINT[]) AS outs
  UNION ALL
  SELECT it + 1,
         CASE WHEN headdone THEN hi + 1 ELSE hi END,
         CASE WHEN headdone THEN coalesce(hn.pos, CAST(-1 AS BIGINT))
         ELSE np_ END,
         CASE WHEN headdone THEN coalesce(hn.pend, FALSE)
         ELSE FALSE END,
         CASE WHEN fire AND NOT stopf THEN
           list_transform(list_zip(ca, d.m), z -> z[1] - decv * z[2])
         ELSE ca END,
         CASE WHEN fire AND NOT stopf THEN list_append(outs, cx.cell)
         ELSE outs END
  FROM (
    SELECT *, (term OR stopf) AS headdone,
           CASE WHEN fire THEN ca[tgtk] ELSE 0.0 END AS decv
    FROM (
      SELECT *,
        CASE WHEN fire THEN bst.ca > {thr} ELSE FALSE END AS stopf,
        CASE WHEN fire THEN
          CASE WHEN abs(bst.ca - {thr}) < abs(ca[k] - {thr})
               THEN bst.ki ELSE k END
        ELSE 1 END AS tgtk
      FROM (
        SELECT s0.*,
          CASE WHEN fire THEN
            list_reduce([{seed}] ||
              list_transform(
                coalesce(ik.l, CAST([] AS STRUCT(nb BIGINT, ki INT)[])),
                x -> struct_pack(nb := x.nb, ki := x.ki, ca := ca[x.ki])),
              (a, x) -> CASE WHEN x.ca > a.ca THEN x ELSE a END)
          ELSE NULL END AS bst
        FROM (
          SELECT s2.*, (s2.k > 0 AND s2.ca[s2.k] >= {thr}) AS fire
          FROM (
            SELECT s1.*, coalesce(ci.k, 0) AS k
            FROM (
              SELECT sm.it, sm.hi, sm.pos, sm.ca, sm.outs,
                     (NOT sm.pend AND rm.f <= 0.0) AS term,
                     CASE WHEN sm.pend THEN sm.pos
                          ELSE coalesce(em.down, sm.pos) END AS np_
              FROM sm
              CROSS JOIN nhc
              LEFT JOIN resm rm ON rm.cell = sm.pos
              LEFT JOIN edgm em ON em.cell = sm.pos
              WHERE sm.hi <= nhc.nh) s1
            LEFT JOIN cidx ci ON ci.cell = s1.np_) s2) s0
        LEFT JOIN infl_k ik ON ik.k = s0.k))) step
  LEFT JOIN hds hn ON hn.j = step.hi + 1
  LEFT JOIN dm d ON d.kt = step.tgtk
  LEFT JOIN cidx cx ON cx.k = step.tgtk),
fin AS (SELECT outs FROM sm ORDER BY it DESC LIMIT 1),
outl AS (
  SELECT cell, MAX(oid) AS oid FROM (
    SELECT unnest(outs) AS cell,
           generate_subscripts(outs, 1) AS oid
    FROM fin) GROUP BY cell),
firsto AS (
  SELECT origin, cur FROM (
    SELECT w.origin, w.cur,
           ROW_NUMBER() OVER (PARTITION BY w.origin ORDER BY w.s) AS rn
    FROM walk w JOIN outl o ON o.cell = w.cur) WHERE rn = 1),
lab AS (
  SELECT v.cell, v.v,
    CASE WHEN v.v = {_NOD} THEN NULL
         WHEN o1.oid IS NOT NULL THEN o1.oid
         ELSE o2.oid END AS L
  FROM vals v
  LEFT JOIN outl o1 ON o1.cell = v.cell
  LEFT JOIN firsto f2 ON f2.origin = v.cell
  LEFT JOIN outl o2 ON o2.cell = f2.cur)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN v <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       CAST(COUNT(L) AS BIGINT) AS n_labelled,
       CAST(COALESCE(SUM(L), 0) AS BIGINT) AS sum_label
FROM lab GROUP BY cell // {cols} ORDER BY row_id
"""


def subbasins_sql(rows: int = 256, cols: int = 256,
                  threshold: float = 5.0) -> str:
    """Every cell takes the LINK LABEL of the first stream cell on its
    D8 path (its own label when it is stream); dry paths unlabelled."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
{_stream_link_ctes(cols, threshold)},
shit AS (
  SELECT w.origin, w.cur,
         row_number() OVER (PARTITION BY w.origin ORDER BY w.s) AS rn
  FROM walk w JOIN stream st ON st.cell = w.cur AND st.st),
labv AS (
  SELECT v.cell,
    CASE WHEN v.v = {_NOD} THEN -1
         WHEN so.st THEN ll.label
         ELSE COALESCE(l2.label, -1) END AS lab
  FROM vals v
  JOIN stream so ON so.cell = v.cell
  LEFT JOIN linklab ll ON ll.cell = v.cell
  LEFT JOIN shit h ON h.origin = v.cell AND h.rn = 1
  LEFT JOIN linklab l2 ON l2.cell = h.cur)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN lab >= 0 THEN 1 END) AS BIGINT) AS n_labelled,
       CAST(SUM(CASE WHEN lab >= 0 THEN lab ELSE 0 END) AS BIGINT)
         AS sum_label
FROM labv GROUP BY cell // {cols}
"""


def branch_length_sql(rows: int = GATE_SIDE, cols: int = GATE_SIDE) -> str:
    """BranchLength: tandem-walk merge of forward-adjacent pairs
    (E/SE/S/SW with the literal testByte edge rules); branch = distance
    to the first common path cell, or the full flowpath when the paths
    never meet; per cell the MAX over its pair sides, ÷1000."""
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
paths AS (
  SELECT cell AS origin, cell AS cur, 0 AS s,
         CAST(0.0 AS DOUBLE) AS d FROM vals
  UNION ALL
  SELECT origin, cur, s, d FROM walk),
plen AS (SELECT origin, MAX(d) AS len FROM paths GROUP BY origin),
pairs AS (
  SELECT v.cell AS a, v.cell + dd.dlt AS b
  FROM vals v
  JOIN (VALUES (1, 1, 0), ({cols + 1}, 1, 1), ({cols}, 0, 1),
               ({cols - 1}, -1, 1)) AS dd(dlt, dx, dy) ON TRUE
  WHERE v.v <> {_NOD}
    AND (dd.dy = 0 OR v.cell // {cols} < {rows - 1})
    AND (dd.dx <> 1 OR v.cell % {cols} < {cols - 1})
    AND (dd.dx <> -1 OR v.cell % {cols} > 0)),
meet AS (
  SELECT p.a, p.b, pa.d AS da, pb.d AS db,
         row_number() OVER (PARTITION BY p.a, p.b ORDER BY pa.s) AS rn
  FROM pairs p
  JOIN paths pa ON pa.origin = p.a
  JOIN paths pb ON pb.origin = p.b AND pb.cur = pa.cur),
m1 AS (SELECT a, b, da, db FROM meet WHERE rn = 1),
sides AS (
  SELECT p.a AS cell, COALESCE(m.da, pl.len) AS br
  FROM pairs p
  LEFT JOIN m1 m ON m.a = p.a AND m.b = p.b
  JOIN plen pl ON pl.origin = p.a
  UNION ALL
  SELECT p.b, COALESCE(m.db, pl.len)
  FROM pairs p
  LEFT JOIN m1 m ON m.a = p.a AND m.b = p.b
  JOIN plen pl ON pl.origin = p.b),
outv AS (SELECT cell, MAX(br) AS o FROM sides GROUP BY cell)
SELECT v.cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN v.v <> {_NOD} AND ov.o IS NOT NULL THEN 1 END)
            AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN v.v <> {_NOD} AND ov.o IS NOT NULL
                 THEN ov.o / 1000.0 ELSE 0.0 END), 6) AS row_sum
FROM vals v LEFT JOIN outv ov ON ov.cell = v.cell
GROUP BY v.cell // {cols}
"""


def clump_sql(rows: int = 256, cols: int = 256,
              class_width: float = 250.0) -> str:
    """8-connected components of the quantized raster; clump_id = min
    cell id in the component (recursive reachability closure — the
    synthetic noise raster's components are tiny, so the pair closure
    stays O(Σ size²) small)."""
    nbr = []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            guards = []
            if dr < 0:
                guards.append(f"b.cell // {cols} > 0")
            if dr > 0:
                guards.append(f"b.cell // {cols} < {rows - 1}")
            if dc < 0:
                guards.append(f"b.cell % {cols} > 0")
            if dc > 0:
                guards.append(f"b.cell % {cols} < {cols - 1}")
            g = " AND ".join(guards) if guards else "TRUE"
            nbr.append(f"SELECT b.cell, b.cell + {dr * cols + dc} AS nb "
                       f"FROM kl b WHERE {g}")
    nbrs = "\nUNION ALL\n".join(nbr)
    return f"""
WITH RECURSIVE
{_raster_vals_cte(rows, cols)},
kl AS (SELECT cell, CAST(floor(v / {class_width!r}) AS BIGINT) AS k
       FROM vals WHERE v <> {_NOD}),
cand AS ({nbrs}),
adj AS (
  SELECT c.cell AS a, c.nb AS b
  FROM cand c
  JOIN kl ka ON ka.cell = c.cell
  JOIN kl kb ON kb.cell = c.nb AND kb.k = ka.k),
reach AS (
  SELECT cell AS a, cell AS b FROM kl
  UNION
  SELECT r.a, e.b FROM reach r JOIN adj e ON e.a = r.b),
comp AS (SELECT a, MIN(b) AS clump_id FROM reach GROUP BY a)
SELECT c.clump_id, MIN(k.k) AS klass,
       CAST(COUNT(*) AS BIGINT) AS n_cells
FROM comp c JOIN kl k ON k.cell = c.a
GROUP BY c.clump_id
"""


def contour_lengths_sql(rows: int = 256, cols: int = 256,
                        levels: tuple = (250.0, 500.0, 750.0)) -> str:
    """Marching squares on cell-centre samples: per-square isoline
    segment length (standard centre-average saddle rule), summed per
    level."""
    parts = []
    for lv in levels:
        L = repr(float(lv))
        parts.append(f"""
SELECT CAST({L} AS DOUBLE) AS level, round(SUM(ln), 4) AS total_length FROM (
  SELECT
    CASE
      WHEN code IN (1, 14) THEN sqrt((0.0-tt)*(0.0-tt) + tl*tl)
      WHEN code IN (2, 13) THEN sqrt((1.0-tt)*(1.0-tt) + tr*tr)
      WHEN code IN (4, 11) THEN sqrt(tb*tb + (1.0-tl)*(1.0-tl))
      WHEN code IN (8, 7)  THEN sqrt((tb-1.0)*(tb-1.0)
                                     + (1.0-tr)*(1.0-tr))
      WHEN code IN (3, 12) THEN sqrt(1.0 + (tr-tl)*(tr-tl))
      WHEN code IN (5, 10) THEN sqrt((tb-tt)*(tb-tt) + 1.0)
      WHEN code = 6 AND chi THEN
        sqrt((1.0-tt)*(1.0-tt) + tr*tr)
        + sqrt(tb*tb + (1.0-tl)*(1.0-tl))
      WHEN code = 6 THEN
        sqrt((0.0-tt)*(0.0-tt) + tl*tl)
        + sqrt((tb-1.0)*(tb-1.0) + (1.0-tr)*(1.0-tr))
      WHEN code = 9 AND chi THEN
        sqrt((0.0-tt)*(0.0-tt) + tl*tl)
        + sqrt((tb-1.0)*(tb-1.0) + (1.0-tr)*(1.0-tr))
      WHEN code = 9 THEN
        sqrt((1.0-tt)*(1.0-tt) + tr*tr)
        + sqrt(tb*tb + (1.0-tl)*(1.0-tl))
      ELSE 0.0 END AS ln
  FROM (
    SELECT
      (CASE WHEN a >= {L} THEN 1 ELSE 0 END)
      + (CASE WHEN b >= {L} THEN 2 ELSE 0 END)
      + (CASE WHEN c >= {L} THEN 4 ELSE 0 END)
      + (CASE WHEN d >= {L} THEN 8 ELSE 0 END) AS code,
      ({L} - a) / (b - a) AS tt,
      ({L} - c) / (d - c) AS tb,
      ({L} - a) / (c - a) AS tl,
      ({L} - b) / (d - b) AS tr,
      (a + b + c + d) / 4.0 >= {L} AS chi
    FROM sq))""")
    body = "\nUNION ALL\n".join(parts)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
sq AS (
  SELECT va.v AS a, vb.v AS b, vc.v AS c, vd.v AS d
  FROM vals va
  JOIN vals vb ON vb.cell = va.cell + 1
  JOIN vals vc ON vc.cell = va.cell + {cols}
  JOIN vals vd ON vd.cell = va.cell + {cols} + 1
  WHERE va.cell // {cols} < {rows - 1} AND va.cell % {cols} < {cols - 1}
    AND va.v <> {_NOD} AND vb.v <> {_NOD}
    AND vc.v <> {_NOD} AND vd.v <> {_NOD})
{body}
"""


def streams_to_vector_sql(rows: int = 256, cols: int = 256,
                          threshold: float = 5.0) -> str:
    """Per link: ordered vertex count, first/last cell, and the
    polynomial path hash h = fold((h·1000003 + cell) mod 2^61) over the
    cells in flow order (recursive lockstep fold across links)."""
    M = 1 << 61
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
{_stream_cte(threshold)},
{_stream_link_ctes(cols, threshold)},
ord AS (
  SELECT label, CAST(label AS BIGINT) AS gcell, 0 AS s
  FROM (SELECT DISTINCT label FROM linklab)
  UNION ALL
  SELECT ll.label, w.cur, w.s
  FROM walk w
  JOIN linklab lo ON lo.cell = w.origin
  JOIN linklab ll ON ll.cell = w.cur AND ll.label = lo.label
  WHERE w.origin = lo.label AND lo.label = ll.label),
hw AS (
  SELECT label, 0 AS pos,
         CAST(label AS HUGEINT) % {M} AS h
  FROM (SELECT DISTINCT label FROM linklab)
  UNION ALL
  SELECT hw.label, hw.pos + 1,
         (hw.h * 1000003 + o.gcell) % {M}
  FROM hw JOIN ord o ON o.label = hw.label AND o.s = hw.pos + 1),
agg AS (
  SELECT label, COUNT(*) AS n_vertices,
         MIN(CASE WHEN s = 0 THEN gcell END) AS first_cell,
         MAX(s) AS smax
  FROM ord GROUP BY label),
lastc AS (
  SELECT a.label, o.gcell AS last_cell
  FROM agg a JOIN ord o ON o.label = a.label AND o.s = a.smax),
hfin AS (
  SELECT h1.label, h1.h
  FROM hw h1 JOIN agg a ON a.label = h1.label AND h1.pos = a.smax)
SELECT CAST(a.label AS BIGINT) AS label,
       CAST(a.n_vertices AS BIGINT) AS n_vertices,
       CAST(a.first_cell AS BIGINT) AS first_cell,
       CAST(l.last_cell AS BIGINT) AS last_cell,
       CAST(h.h AS BIGINT) AS path_hash
FROM agg a
JOIN lastc l ON l.label = a.label
JOIN hfin h ON h.label = a.label
"""


def multiscale_elev_residual_sql(rows: int = GATE_SIDE, cols: int = GATE_SIDE,
                                 base: float = 2.0) -> str:
    """MERI: count of radius-ladder scales where the cell sits above
    its clamped-corner integral-image window mean (the reference's
    no-minus-one corner quirk), ÷ number of scales. Integer (z − min)
    prefix sums, exact."""
    import math as _m
    r_max = int(_m.floor(_m.log(min(cols / 2.0, rows / 2.0))
                         / _m.log(base)))
    radii, old = [], -1
    for i in range(r_max + 1):
        n = int(_m.floor(base ** i))
        if n > old:
            radii.append(n)
            old = n
    n_scales = len(radii)
    terms = []
    for k, rad in enumerate(radii):
        terms.append(f"""
rd{k} AS (
  SELECT g.cell,
    (SELECT p FROM pf WHERE pf.cell = g.y2 * {cols} + g.x2)
    + (SELECT p FROM pf WHERE pf.cell = g.y1 * {cols} + g.x1)
    - (SELECT p FROM pf WHERE pf.cell = g.y1 * {cols} + g.x2)
    - (SELECT p FROM pf WHERE pf.cell = g.y2 * {cols} + g.x1) AS w,
    (SELECT n FROM pf WHERE pf.cell = g.y2 * {cols} + g.x2)
    + (SELECT n FROM pf WHERE pf.cell = g.y1 * {cols} + g.x1)
    - (SELECT n FROM pf WHERE pf.cell = g.y1 * {cols} + g.x2)
    - (SELECT n FROM pf WHERE pf.cell = g.y2 * {cols} + g.x1) AS num
  FROM (SELECT cell,
          GREATEST(LEAST(cell // {cols} - {rad}, {rows - 1}), 0) AS y1,
          GREATEST(LEAST(cell // {cols} + {rad}, {rows - 1}), 0) AS y2,
          GREATEST(LEAST(cell % {cols} - {rad}, {cols - 1}), 0) AS x1,
          GREATEST(LEAST(cell % {cols} + {rad}, {cols - 1}), 0) AS x2
        FROM qz) g)""")
    cnt = " + ".join(
        f"(CASE WHEN r{k}.num > 0 AND q.z - (CAST(r{k}.w AS DOUBLE)"
        f" / r{k}.num + (SELECT lo FROM mn)) > 0 THEN 1 ELSE 0 END)"
        for k in range(n_scales))
    joins = "\n".join(f"JOIN rd{k} r{k} ON r{k}.cell = q.cell"
                      for k in range(n_scales))
    ctes = ",".join(terms)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
qz AS (SELECT cell, CASE WHEN v = {_NOD} THEN v ELSE floor(v) END AS z
       FROM vals),
mn AS (SELECT MIN(z) AS lo FROM qz WHERE z <> {_NOD}),
zi AS (SELECT cell,
         CASE WHEN z = {_NOD} THEN 0
              ELSE CAST(z - (SELECT lo FROM mn) AS BIGINT) END AS u,
         CASE WHEN z = {_NOD} THEN 0 ELSE 1 END AS c1
       FROM qz),
rowc AS (
  SELECT cell,
    SUM(u) OVER (PARTITION BY cell // {cols} ORDER BY cell % {cols}
                 ROWS UNBOUNDED PRECEDING) AS ru,
    SUM(c1) OVER (PARTITION BY cell // {cols} ORDER BY cell % {cols}
                  ROWS UNBOUNDED PRECEDING) AS rc
  FROM zi),
pf AS (
  SELECT cell,
    SUM(ru) OVER (PARTITION BY cell % {cols} ORDER BY cell // {cols}
                  ROWS UNBOUNDED PRECEDING) AS p,
    SUM(rc) OVER (PARTITION BY cell % {cols} ORDER BY cell // {cols}
                  ROWS UNBOUNDED PRECEDING) AS n
  FROM rowc),
{ctes},
x AS (
  SELECT q.cell, q.z,
    CASE WHEN q.z = {_NOD} THEN NULL
         ELSE CAST(({cnt}) AS DOUBLE) / {n_scales} END AS res
  FROM qz q
  {joins})
SELECT cell // {cols} AS row_id,
       CAST(COUNT(res) AS BIGINT) AS n_valid,
       round(SUM(COALESCE(res, 0.0)), 6) AS row_sum
FROM x GROUP BY cell // {cols}
"""


def avg_upslope_flowpath_length_sql(rows: int = GATE_SIDE,
                                    cols: int = GATE_SIDE,
                                    mode: str = "avg_len") -> str:
    """AverageUpslopeFlowpathLength / AverageSlopeToDivide: divide
    (zero-inflow) cells start one flowpath each; N = upstream divide
    cells, T = Σ path lengths, E = Σ divide-cell elevations."""
    if mode == "avg_len":
        res = "t / GREATEST(n, 1.0)"
    else:  # slope_to_divide
        res = (f"degrees(atan((e / GREATEST(n, 1.0) - v)"
               f" / GREATEST(t / GREATEST(n, 1.0), 1e-300)))")
    return f"""
WITH RECURSIVE {_d8_walk_ctes(rows, cols)},
divides AS (
  SELECT v.cell, v.v FROM vals v
  WHERE v.v <> {_NOD} AND NOT EXISTS (
    SELECT 1 FROM edges e WHERE e.down = v.cell)),
nt AS (
  SELECT w.cur AS cell, CAST(COUNT(*) AS DOUBLE) AS n,
         SUM(w.d) AS t, SUM(h.v) AS e
  FROM walk w JOIN divides h ON h.cell = w.origin
  GROUP BY w.cur),
x AS (
  SELECT v.cell, v.v,
    CASE WHEN v.v <> {_NOD} AND COALESCE(nt.n, 0) > 0
         THEN {res} ELSE 0.0 END AS val
  FROM vals v LEFT JOIN nt ON nt.cell = v.cell)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN v <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(val), 4) AS avg_sum
FROM x GROUP BY cell // {cols}
"""


def inflow_count_sql(rows: int = 256, cols: int = 256) -> str:
    """NumInflowingNeighbours over the D8 pointer raster: a second
    neighbour pass over res.f counting opposite-pointing neighbours."""
    # neighbour windows over f, same guards as _neighbour_cte
    specs = [
        (f"LAG(f, {cols - 1}) OVER w2", f"r > 0 AND c < {cols - 1}"),
        ("LEAD(f, 1) OVER w2", f"c < {cols - 1}"),
        (f"LEAD(f, {cols + 1}) OVER w2", f"r < {rows - 1} AND c < {cols - 1}"),
        (f"LEAD(f, {cols}) OVER w2", f"r < {rows - 1}"),
        (f"LEAD(f, {cols - 1}) OVER w2", f"r < {rows - 1} AND c > 0"),
        ("LAG(f, 1) OVER w2", "c > 0"),
        (f"LAG(f, {cols + 1}) OVER w2", "r > 0 AND c > 0"),
        (f"LAG(f, {cols}) OVER w2", "r > 0"),
    ]
    nf = ",\n  ".join(
        f"CASE WHEN {guard} THEN {expr} ELSE {_NOD} END AS nf{i}"
        for i, (expr, guard) in enumerate(specs))
    count = " + ".join(
        f"CASE WHEN nf{i} = {float(1 << ((i + 4) % 8))!r} THEN 1 ELSE 0 END"
        for i in range(8))
    return f"""
WITH {_d8_pointer_ctes(rows, cols)},
pg AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, f FROM res),
pn AS (SELECT cell, r, c, f,
  {nf}
FROM pg WINDOW w2 AS (ORDER BY cell)),
cnt AS (
  SELECT cell, CASE WHEN f = {_NOD} THEN {_NOD}
    ELSE CAST({count} AS DOUBLE) END AS f2
  FROM pn)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN f2 <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN f2 = {_NOD} THEN 0.0 ELSE f2 END), 6) AS row_sum
FROM cnt GROUP BY cell // {cols}
"""


def filter3x3_sql(reducer: str, rows: int = 256, cols: int = 256) -> str:
    """FilterMedian/Min/Max/Range/Total/StdDev/Diversity mirror: aggregate
    the valid cells of each 3×3 window (self-join form, like
    raster_stencil_sql)."""
    aggs = {
        "median": "MEDIAN(b.v)",
        "minimum": "MIN(b.v)",
        "maximum": "MAX(b.v)",
        "range": "MAX(b.v) - MIN(b.v)",
        "total": "SUM(b.v)",
        "stdev": "CASE WHEN COUNT(*) > 1 THEN STDDEV_SAMP(b.v) ELSE 0.0 END",
        "diversity": "CAST(COUNT(DISTINCT b.v) AS DOUBLE)",
    }
    if reducer == "majority":
        # FilterMajority.java:280-309: mode of the valid window values
        # over the QUANTIZED band floor(v/100); count ties → smallest
        # value (strict-> scan of the ascending sort).
        return f"""
WITH {_raster_vals_cte(rows, cols)},
q AS (SELECT cell, CASE WHEN v = {_NOD} THEN v
      ELSE floor(v / 100.0) END AS v FROM vals),
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM q),
nb AS (
  SELECT a.cell, b.v, COUNT(*) AS cnt
  FROM g a
  CROSS JOIN (VALUES (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)) o(dr, dc)
  JOIN g b ON b.cell = (a.r + o.dr) * {cols} + (a.c + o.dc)
          AND a.r + o.dr BETWEEN 0 AND {rows - 1}
          AND a.c + o.dc BETWEEN 0 AND {cols - 1}
  WHERE a.v <> {_NOD} AND b.v <> {_NOD}
  GROUP BY a.cell, b.v),
pick AS (
  SELECT cell, v,
         row_number() OVER (PARTITION BY cell
                            ORDER BY cnt DESC, v ASC) AS rn
  FROM nb),
res AS (
  SELECT q.cell,
         CASE WHEN q.v = {_NOD} THEN {_NOD}
              WHEN p.v IS NULL THEN {_NOD}
              ELSE p.v END AS f
  FROM q LEFT JOIN pick p ON q.cell = p.cell AND p.rn = 1)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM vals),
nb AS (
  SELECT a.cell, {aggs[reducer]} AS agg_v, COUNT(*) AS n
  FROM g a
  CROSS JOIN (VALUES (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)) o(dr, dc)
  JOIN g b ON b.cell = (a.r + o.dr) * {cols} + (a.c + o.dc)
          AND a.r + o.dr BETWEEN 0 AND {rows - 1}
          AND a.c + o.dc BETWEEN 0 AND {cols - 1}
  WHERE a.v <> {_NOD} AND b.v <> {_NOD}
  GROUP BY a.cell),
res AS (
  SELECT v.cell,
         CASE WHEN v.v = {_NOD} THEN {_NOD}
              WHEN nb.n > 0 THEN nb.agg_v
              ELSE {_NOD} END AS f
  FROM vals v LEFT JOIN nb ON v.cell = nb.cell)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def reclass_sql(rows: int = 256, cols: int = 256,
                interval: float = 100.0, base: float = 0.0) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
res AS (SELECT cell, CASE WHEN v = {_NOD} THEN v
        ELSE floor((v - {base!r}) / {interval!r}) END AS f FROM vals)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def zscore_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
st AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n, SUM(v) AS s, SUM(v*v) AS s2
       FROM vals WHERE v <> {_NOD}),
k AS (SELECT round(s / n, 4) AS mu,
             round(sqrt((s2 - s * s / n) / (n - 1)), 4) AS sd FROM st),
res AS (SELECT cell, CASE WHEN v = {_NOD} THEN v
        ELSE (v - (SELECT mu FROM k)) / (SELECT sd FROM k) END AS f FROM vals)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def rescale_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
st AS (SELECT MIN(v) AS lo, MAX(v) AS hi FROM vals WHERE v <> {_NOD}),
res AS (SELECT cell, CASE WHEN v = {_NOD} THEN v
        ELSE (v - (SELECT lo FROM st))
             / ((SELECT hi FROM st) - (SELECT lo FROM st)) END AS f FROM vals)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def aggregate_downsample_sql(rows: int = 256, cols: int = 256,
                             factor: int = 4) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)}
SELECT (cell // {cols}) // {factor} AS block_row,
       (cell % {cols}) // {factor} AS block_col,
       CASE WHEN COUNT(CASE WHEN v <> {_NOD} THEN 1 END) > 0
            THEN round(AVG(CASE WHEN v <> {_NOD} THEN v END), 6)
            ELSE {_NOD} END AS value
FROM vals
GROUP BY (cell // {cols}) // {factor}, (cell % {cols}) // {factor}
"""


def cross_tab_sql(rows: int = 256, cols: int = 256,
                  class_width: float = 100.0) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)}
SELECT CAST(floor(a.v / {class_width!r}) AS BIGINT) AS class_a,
       CAST(floor(b.v / {class_width!r}) AS BIGINT) AS class_b,
       CAST(COUNT(*) AS BIGINT) AS n
FROM vals a JOIN vals_b b ON a.cell = b.cell
WHERE a.v <> {_NOD} AND b.v <> {_NOD}
GROUP BY 1, 2
"""


def image_correlation_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
st AS (
  SELECT CAST(COUNT(*) AS DOUBLE) AS n, SUM(a.v) AS sx, SUM(b.v) AS sy,
         SUM(a.v * b.v) AS sxy, SUM(a.v * a.v) AS sx2, SUM(b.v * b.v) AS sy2
  FROM vals a JOIN vals_b b ON a.cell = b.cell
  WHERE a.v <> {_NOD} AND b.v <> {_NOD})
SELECT CAST(n AS BIGINT) AS n,
       round((n * sxy - sx * sy)
             / sqrt(n * sx2 - sx * sx) / sqrt(n * sy2 - sy * sy), 6) AS r
FROM st
"""


def image_regression_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
st AS (
  SELECT CAST(COUNT(*) AS DOUBLE) AS n, SUM(a.v) AS sx, SUM(b.v) AS sy,
         SUM(a.v * b.v) AS sxy, SUM(a.v * a.v) AS sx2
  FROM vals a JOIN vals_b b ON a.cell = b.cell
  WHERE a.v <> {_NOD} AND b.v <> {_NOD})
SELECT CAST(n AS BIGINT) AS n,
       round((n * sxy - sx * sy) / (n * sx2 - sx * sx), 6) AS slope,
       round(sy / n - ((n * sxy - sx * sy) / (n * sx2 - sx * sx)) * (sx / n), 6)
         AS intercept
FROM st
"""


# ---------------------------------------------------------------------------
# Scanline rasterization (stages/rasterize.py) — mirrors the
# VectorPolygonsToRaster fill on the triangle layer. Parity fill reduces
# to [min..max] per (row, triangle) for non-degenerate triangles (no row
# centre hits a vertex y exactly — guaranteed by the seeded float layer).
# ---------------------------------------------------------------------------

def _rasterize_grid_consts(rows: int, cols: int):
    from .core.rng import EAST, NORTH, SOUTH, WEST
    res_x = (EAST - WEST) / cols
    res_y = (NORTH - SOUTH) / rows
    return {
        "west": WEST, "half_x": res_x / 2.0,
        "row_y0": NORTH - res_y / 2.0, "res_y": res_y,
        "ewrange": (EAST - WEST) - res_x, "ncm1": cols - 1,
    }


def _triangle_edges_values() -> str:
    from .core.features import triangle_zones
    rows = []
    for t in triangle_zones():
        pts = [(t["ax"], t["ay"]), (t["bx"], t["by"]),
               (t["cx"], t["cy"]), (t["ax"], t["ay"])]
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            rows.append(f"({t['zone_id']}, {x1!r}, {y1!r}, {x2!r}, {y2!r})")
    return "(VALUES " + ", ".join(rows) + ") AS e(zone_id, x1, y1, x2, y2)"


def _rasterize_cells_cte(rows: int = 256, cols: int = 256) -> str:
    k = _rasterize_grid_consts(rows, cols)
    return f"""
rowst AS (SELECT i AS r, {k['row_y0']!r} - i * {k['res_y']!r} AS y
          FROM range(0, {rows}) t(i)),
cr AS (
  SELECT rowst.r, e.zone_id,
         CAST(floor({k['ncm1']} * ((x1 + (y - y1) / (y2 - y1) * (x2 - x1))
              - {k['west']!r} - {k['half_x']!r}) / {k['ewrange']!r} + 0.5)
              AS BIGINT) AS col
  FROM rowst JOIN {_triangle_edges_values()}
    ON y1 <> y2 AND (y = y1 OR y = y2
       OR (y2 > y1 AND y > y1 AND y < y2)
       OR (y1 > y2 AND y > y2 AND y < y1))),
rng AS (SELECT r, zone_id, GREATEST(MIN(col), 0) AS c0,
               LEAST(MAX(col), {cols - 1}) AS c1
        FROM cr GROUP BY r, zone_id
        HAVING GREATEST(MIN(col), 0) <= LEAST(MAX(col), {cols - 1})),
cells AS (SELECT r, zone_id, UNNEST(generate_series(c0, c1)) AS c FROM rng)"""


def rasterize_triangles_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH {_rasterize_cells_cte(rows, cols)},
best AS (SELECT r, c, MAX(zone_id) AS z FROM cells GROUP BY r, c),
per_row AS (SELECT r, COUNT(*) AS nf, SUM(z) AS sz FROM best GROUP BY r)
SELECT rowst.r AS row_id,
       CAST(COALESCE(per_row.nf, 0) AS BIGINT) AS n_filled,
       CAST(COALESCE(per_row.sz, 0) AS BIGINT) AS sum_zone
FROM rowst LEFT JOIN per_row ON rowst.r = per_row.r
"""


def clip_raster_to_polygon_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_rasterize_cells_cte(rows, cols)},
cov AS (SELECT DISTINCT r, c FROM cells),
clip AS (
  SELECT v.cell,
         CASE WHEN cov.r IS NULL THEN {_NOD} ELSE v.v END AS f
  FROM vals v LEFT JOIN cov
    ON v.cell // {cols} = cov.r AND v.cell % {cols} = cov.c)
{_row_checksum_select(cols)}
FROM clip GROUP BY cell // {cols}
"""


def cosine_neardup_sql(threshold: float = 0.35) -> str:
    return f"""
WITH n AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings)
SELECT a.vec_id AS doc_a, b.vec_id AS doc_b,
       round(list_cosine_similarity(a.e, b.e), 6) AS cosine
FROM n a JOIN n b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.e, b.e) >= {threshold!r}
"""


def image_features_sql() -> str:
    """Mirror of stages/multimodal.image_features over the FAKEIMG stub
    (width/height derive from doc_id; payload = utf-8 text bytes)."""
    return """
SELECT doc_id,
       16 + doc_id % 64 AS width,
       16 + (doc_id * 7) % 48 AS height,
       CAST(octet_length(encode(COALESCE(text, ''))) AS BIGINT)
         AS n_payload_bytes,
       ((16 + doc_id % 64) * 1000) // (16 + (doc_id * 7) % 48) AS aspect_milli
FROM documents
"""


# ---------------------------------------------------------------------------
# Vector overlay (stages/vector_overlay.py) + distance transform + calculator
# ---------------------------------------------------------------------------

def _doc_squares_cte() -> str:
    from .stages.vector_overlay import CLIP_X0  # noqa: F401 (doc link)
    return (f"boxes AS (SELECT p.rec_id, "
            f"p.x - (10.0 + (p.z % 200.0)) AS xmin, "
            f"p.y - (10.0 + (p.z % 200.0)) AS ymin, "
            f"p.x + (10.0 + (p.z % 200.0)) AS xmax, "
            f"p.y + (10.0 + (p.z % 200.0)) AS ymax FROM pts p)")


def clip_boxes_sql() -> str:
    from .stages.vector_overlay import CLIP_X0, CLIP_X1, CLIP_Y0, CLIP_Y1
    return f"""
WITH {POINTS_CTE},
{_doc_squares_cte()},
c AS (SELECT rec_id,
             least(xmax, {CLIP_X1!r}) - greatest(xmin, {CLIP_X0!r}) AS w,
             least(ymax, {CLIP_Y1!r}) - greatest(ymin, {CLIP_Y0!r}) AS h
      FROM boxes)
SELECT rec_id, round(w * h, 6) AS clip_area FROM c WHERE w > 0 AND h > 0
"""


def erase_boxes_sql() -> str:
    from .stages.vector_overlay import CLIP_X0, CLIP_X1, CLIP_Y0, CLIP_Y1
    return f"""
WITH {POINTS_CTE},
{_doc_squares_cte()},
c AS (SELECT rec_id, (xmax - xmin) * (ymax - ymin) AS area,
             greatest(least(xmax, {CLIP_X1!r}) - greatest(xmin, {CLIP_X0!r}), 0.0)
           * greatest(least(ymax, {CLIP_Y1!r}) - greatest(ymin, {CLIP_Y0!r}), 0.0)
             AS inter
      FROM boxes)
SELECT rec_id, round(area - inter, 6) AS erase_area FROM c WHERE area - inter > 0
"""


def _lshape_cte() -> str:
    """L-shape layer as two interior-disjoint boxes per feature (the
    exact decomposition of stages/vector_overlay.doc_lshapes; integer
    coordinates make every area term exact in float64)."""
    return (
        "l AS (SELECT rec_id, floor(x) AS xa, floor(y) AS ya, "
        "10.0 + (z % 200.0) AS h, 20.0 + (z % 97.0) AS w2 FROM pts p), "
        "lb AS (SELECT rec_id, xa - h AS x0, ya - h AS y0, xa + h AS x1, "
        "ya + h AS y1, xa + h + w2 AS fx1, ya AS fy1, "
        "2.0 * h * (2.0 * h) + w2 * h AS area_a FROM l)")


def minimum_bounding_box_sql() -> str:
    """Exact mirror of stages/vector_ops.minimum_bounding_box: the
    L-shape's convex hull is ALWAYS the same 5 vertices (the concave
    corner P3 drops; verified for the layer's parameter ranges), so the
    rotating-edge MBR search (MinimumBoundingRectangle.java:159-213)
    unrolls as 5 edges x 5 vertices per feature with the same
    first-strict-min edge tie rule (ORDER BY area, m)."""
    return f"""
WITH {POINTS_CTE},
{_lshape_cte()},
hv AS (
  SELECT rec_id, 0 AS k, xa - h AS vx, ya - h AS vy FROM l
  UNION ALL SELECT rec_id, 1, xa + h + w2, ya - h FROM l
  UNION ALL SELECT rec_id, 2, xa + h + w2, ya FROM l
  UNION ALL SELECT rec_id, 3, xa + h, ya + h FROM l
  UNION ALL SELECT rec_id, 4, xa - h, ya + h FROM l),
edges AS (
  SELECT a.rec_id, a.k AS m,
         -atan2(b.vy - a.vy, b.vx - a.vx) AS psi
  FROM hv a JOIN hv b ON b.rec_id = a.rec_id AND b.k = (a.k + 1) % 5),
rot AS (
  SELECT e.rec_id, e.m,
         v.vx * cos(e.psi) - v.vy * sin(e.psi) AS rx,
         v.vx * sin(e.psi) + v.vy * cos(e.psi) AS ry
  FROM edges e JOIN hv v ON v.rec_id = e.rec_id),
ext AS (
  SELECT rec_id, m, max(rx) - min(rx) AS w, max(ry) - min(ry) AS hh
  FROM rot GROUP BY rec_id, m),
best AS (
  SELECT rec_id, w, hh, w * hh AS area,
         row_number() OVER (PARTITION BY rec_id ORDER BY w * hh, m) AS rn
  FROM ext)
SELECT rec_id, round(greatest(w, hh), 6) AS long_axis,
       round(least(w, hh), 6) AS short_axis,
       round(area, 6) AS mbb_area
FROM best WHERE rn = 1
"""


def axis_sql(which: str) -> str:
    """Exact mirror of stages/vector_ops._axis_query (LongAxis.groovy /
    ShortAxis.groovy over the literal MinimumBoundingRectangle
    .getBoundingBox()): 5-hull-edge rotation search around the FULL
    bbox midpoint, minimum-area with first-strict-min edge order,
    including the Double.MIN_VALUE (4.9e-324) positive-tiny clamp of
    the rotated east/south extents and the north-bearing endpoint
    convention centre +/- len/2 * (sin, cos)(deg)."""
    assert which in ("long", "short")
    deg_expr = ("long_deg" if which == "long" else
                "CASE WHEN long_deg >= 90.0 THEN long_deg - 90.0 "
                "ELSE long_deg + 90.0 END")
    ln_expr = ("greatest(new_x, new_y)" if which == "long"
               else "least(new_x, new_y)")
    return f"""
WITH {POINTS_CTE},
{_lshape_cte()},
mid AS (
  SELECT rec_id,
         (xa - h) + ((xa + h + w2) - (xa - h)) / 2.0 AS mid_x,
         (ya - h) + ((ya + h) - (ya - h)) / 2.0 AS mid_y
  FROM l),
hv AS (
  SELECT rec_id, 0 AS k, xa - h AS vx, ya - h AS vy FROM l
  UNION ALL SELECT rec_id, 1, xa + h + w2, ya - h FROM l
  UNION ALL SELECT rec_id, 2, xa + h + w2, ya FROM l
  UNION ALL SELECT rec_id, 3, xa + h, ya + h FROM l
  UNION ALL SELECT rec_id, 4, xa - h, ya + h FROM l),
edges AS (
  SELECT a.rec_id, a.k AS m,
         -atan2(b.vy - a.vy, b.vx - a.vx) AS psi
  FROM hv a JOIN hv b ON b.rec_id = a.rec_id AND b.k = (a.k + 1) % 5),
rot AS (
  SELECT e.rec_id, e.m, e.psi,
         (v.vx - d.mid_x) * cos(e.psi) - (v.vy - d.mid_y) * sin(e.psi) AS rx,
         (v.vx - d.mid_x) * sin(e.psi) + (v.vy - d.mid_y) * cos(e.psi) AS ry
  FROM edges e
  JOIN hv v ON v.rec_id = e.rec_id
  JOIN mid d ON d.rec_id = e.rec_id),
ext AS (
  SELECT rec_id, m, any_value(psi) AS psi,
         min(rx) AS w_, greatest(max(rx), 4.9e-324) AS e_,
         min(ry) AS n_, greatest(max(ry), 4.9e-324) AS s_
  FROM rot GROUP BY rec_id, m),
boxed AS (
  SELECT rec_id, m, psi, w_, n_,
         abs(e_ - w_) AS new_x, abs(s_ - n_) AS new_y
  FROM ext),
best AS (
  SELECT *, row_number() OVER (PARTITION BY rec_id
                               ORDER BY new_x * new_y, m) AS rn
  FROM boxed),
win AS (
  SELECT b.rec_id, b.psi, b.new_x, b.new_y,
         CASE WHEN b.new_x > b.new_y THEN -b.psi
              ELSE -(pi() / 2.0 + b.psi) END AS slope,
         d.mid_x + (b.w_ + b.new_x / 2.0) * cos(-b.psi)
                 - (b.n_ + b.new_y / 2.0) * sin(-b.psi) AS cx,
         d.mid_y + (b.w_ + b.new_x / 2.0) * sin(-b.psi)
                 + (b.n_ + b.new_y / 2.0) * cos(-b.psi) AS cy
  FROM best b JOIN mid d ON d.rec_id = b.rec_id WHERE b.rn = 1),
ang AS (
  SELECT rec_id, new_x, new_y, cx, cy,
         90.0 + degrees(atan(tan(-slope))) AS long_deg
  FROM win),
fin AS (
  SELECT rec_id, cx, cy, {ln_expr} AS ln,
         {deg_expr} AS deg
  FROM ang)
SELECT rec_id, round(ln, 6) AS length, round(deg, 6) AS orient,
       round(cx + ln / 2.0 * sin(radians(deg)), 6) AS x0,
       round(cy + ln / 2.0 * cos(radians(deg)), 6) AS y0,
       round(cx - ln / 2.0 * sin(radians(deg)), 6) AS x1,
       round(cy - ln / 2.0 * cos(radians(deg)), 6) AS y1
FROM fin
"""


def _overlay_inter_expr() -> str:
    """Σ over the 2×2 interior-disjoint box pairs of clamp-width ×
    clamp-height (mirrors stages/vector_overlay.CLIP_L_BOXES)."""
    from .stages.vector_overlay import CLIP_L_BOXES
    terms = []
    for sx0, sy0, sx1, sy1 in CLIP_L_BOXES:
        # R1 = [x0,x1]×[y0,y1]; R2 (foot) = [x1,fx1]×[y0,fy1]
        terms.append(
            f"greatest(0.0, least(x1, {sx1!r}) - greatest(x0, {sx0!r}))"
            f" * greatest(0.0, least(y1, {sy1!r}) - greatest(y0, {sy0!r}))")
        terms.append(
            f"greatest(0.0, least(fx1, {sx1!r}) - greatest(x1, {sx0!r}))"
            f" * greatest(0.0, least(fy1, {sy1!r}) - greatest(y0, {sy0!r}))")
    return " + ".join(terms)


def overlay_area_sql(op: str) -> str:
    from .stages.vector_overlay import CLIP_L_AREA
    b = float(CLIP_L_AREA)
    base = f"""
WITH {POINTS_CTE},
{_lshape_cte()},
i AS (SELECT rec_id, area_a, {_overlay_inter_expr()} AS inter FROM lb)
"""
    if op == "intersection":
        return base + ("SELECT rec_id, round(inter, 6) AS intersection_area "
                       "FROM i WHERE inter > 0")
    if op == "union":
        return base + (f"SELECT rec_id, round(area_a + {b!r} - inter, 6) "
                       "AS union_area FROM i")
    if op == "difference":
        return base + ("SELECT rec_id, round(area_a - inter, 6) "
                       "AS difference_area FROM i")
    if op == "symmetric_difference":
        return base + (f"SELECT rec_id, round(area_a + {b!r} - 2.0 * inter, 6) "
                       "AS symdiff_area FROM i")
    raise ValueError(op)


def dissolve_union_sql(n_groups: int | None = None) -> str:
    """Area of the union of each group's axis-aligned rectangles via a
    pure-SQL slab sweep: slab x-edges = every rect x-edge, so a rect
    overlapping a slab's interior spans it fully; per slab the covered
    y-length is the classic interval-union (running-max islands)."""
    if n_groups is None:
        from .stages.vector_overlay import DISSOLVE_GROUPS
        n_groups = DISSOLVE_GROUPS
    return f"""
WITH {POINTS_CTE},
{_lshape_cte()},
rects AS (
  SELECT rec_id % {n_groups} AS gid, x0 AS xmin, y0 AS ymin,
         x1 AS xmax, y1 AS ymax FROM lb
  UNION ALL
  SELECT rec_id % {n_groups} AS gid, x1, y0, fx1, fy1 FROM lb),
xs AS (SELECT DISTINCT gid, xmin AS xe FROM rects
       UNION SELECT DISTINCT gid, xmax FROM rects),
slabs AS (SELECT gid, xe AS xl,
                 lead(xe) OVER (PARTITION BY gid ORDER BY xe) AS xr FROM xs),
s AS (SELECT * FROM slabs WHERE xr IS NOT NULL),
span AS (SELECT s.gid, s.xl, s.xr, r.ymin, r.ymax
         FROM s JOIN rects r
           ON r.gid = s.gid AND r.xmin <= s.xl AND r.xmax >= s.xr),
m AS (SELECT gid, xl, xr, ymin, ymax,
             max(ymax) OVER (PARTITION BY gid, xl ORDER BY ymin, ymax
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prevmax
      FROM span),
isl AS (SELECT gid, xl, xr, ymin, ymax,
               sum(CASE WHEN prevmax IS NULL OR ymin > prevmax
                        THEN 1 ELSE 0 END)
                 OVER (PARTITION BY gid, xl ORDER BY ymin, ymax) AS island
        FROM m),
ilen AS (SELECT gid, xl, xr, island, max(ymax) - min(ymin) AS ylen
         FROM isl GROUP BY gid, xl, xr, island),
sa AS (SELECT gid, (xr - xl) * sum(ylen) AS area
       FROM ilen GROUP BY gid, xl, xr)
SELECT gid, round(sum(area), 6) AS union_area
FROM sa GROUP BY gid ORDER BY gid
"""


def euclidean_distance_sql(rows: int = 256, cols: int = 256) -> str:
    n = rows * cols
    return f"""
WITH tgt AS (
  SELECT cell // {cols} AS tr, cell % {cols} AS tc
  FROM range(0, {n}) t(cell)
  WHERE ((cell * 2654435761 + 77) % 4294967296) % 251 = 0),
g AS (SELECT i AS cell, i // {cols} AS r, i % {cols} AS c
      FROM range(0, {n}) q(i)),
d AS (SELECT g.cell,
             MIN((g.r - tgt.tr) * (g.r - tgt.tr)
                 + (g.c - tgt.tc) * (g.c - tgt.tc)) AS d2
      FROM g CROSS JOIN tgt GROUP BY g.cell)
SELECT cell // {cols} AS row_id,
       CAST({cols} AS BIGINT) AS n_valid,
       round(SUM(sqrt(CAST(d2 AS DOUBLE))), 6) AS row_sum
FROM d GROUP BY cell // {cols}
"""


def raster_calc_sql(rows: int = 256, cols: int = 256) -> str:
    """Mirror of the RasterCalculator conformance expression
    ``sqrt(a) + b / 5.0 + if(a > b, 1.0, 0.0)`` with NoData propagation."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
res AS (
  SELECT a.cell,
         CASE WHEN a.v = {_NOD} OR b.v = {_NOD} THEN {_NOD}
              ELSE sqrt(a.v) + b.v / 5.0
                   + CASE WHEN a.v > b.v THEN 1.0 ELSE 0.0 END
         END AS f
  FROM vals a JOIN vals_b b ON a.cell = b.cell)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def ndvi_sql(rows: int = 256, cols: int = 256) -> str:
    """NDVI.java:210-219 mirror over the synthetic raster pair."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
res AS (
  SELECT a.cell,
         CASE WHEN a.v = {_NOD} OR b.v = {_NOD} OR a.v + b.v = 0
              THEN {_NOD}
              ELSE (a.v - b.v) / (a.v + b.v) END AS f
  FROM vals a JOIN vals_b b ON a.cell = b.cell)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def _curv_terms_cte() -> str:
    """m0..m7 (NoData→centre) + central-difference derivative terms."""
    ms = ",\n  ".join(
        f"CASE WHEN n{i} = {_NOD} THEN v ELSE n{i} END AS m{i}"
        for i in range(8))
    return (f"m AS (SELECT cell, v,\n  {ms}\nFROM nb),\n"
            "ct AS (SELECT cell, v,\n"
            "  (m1 - m5) / 2.0 AS zx, (m7 - m3) / 2.0 AS zy,\n"
            "  (m1 - 2 * v + m5) / 1.0 AS zxx,\n"
            "  (m7 - 2 * v + m3) / 1.0 AS zyy,\n"
            "  (-m6 + m0 + m4 - m2) / 4.0 AS zxy\nFROM m)")


def curvature_sql(kind: str, rows: int = 256, cols: int = 256) -> str:
    scale = repr(180.0 / math.pi * 100.0)
    exprs = {
        "plan": ("(zxx * zy * zy - 2 * zxy * zx * zy + zyy * zx * zx)"
                 " / power(zx * zx + zy * zy, 1.5)"),
        "prof": ("(zxx * zx * zx + 2 * zxy * zx * zy + zyy * zy * zy)"
                 " / ((zx * zx + zy * zy)"
                 " * power(zx * zx + zy * zy + 1, 1.5))"),
        "tan": ("(zxx * zy * zy - 2 * zxy * zx * zy + zyy * zx * zx)"
                " / ((zx * zx + zy * zy)"
                " * power(zx * zx + zy * zy + 1, 1.5))"),
        "total": "zxx * zxx + 2 * zxy * zxy + zyy * zyy",
    }
    guard = ("" if kind == "total"
             else f"WHEN zx * zx + zy * zy = 0 THEN {_NOD} ")
    post = " / 1000000000.0" if kind == "total" else ""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
{_curv_terms_cte()},
res AS (
  SELECT cell, CASE WHEN v = {_NOD} THEN {_NOD}
    {guard}ELSE (({exprs[kind]}) * {scale}){post}
  END AS f FROM ct)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def histogram_equalize_sql(rows: int = 256, cols: int = 256,
                           nbins: int = 1024) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
st AS (SELECT MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n
       FROM vals WHERE v <> {_NOD}),
binned AS (
  SELECT cell, v,
         CASE WHEN v = {_NOD} THEN NULL
              ELSE least(CAST(floor((v - (SELECT lo FROM st))
                   / (((SELECT hi FROM st) - (SELECT lo FROM st))
                      / {nbins})) AS BIGINT), {nbins - 1}) END AS b
  FROM vals),
hist AS (SELECT b, COUNT(*) AS c FROM binned WHERE b IS NOT NULL GROUP BY b),
cdf AS (SELECT b, SUM(c) OVER (ORDER BY b) / CAST((SELECT n FROM st) AS DOUBLE)
               AS frac FROM hist),
res AS (
  SELECT binned.cell,
         CASE WHEN binned.v = {_NOD} THEN {_NOD} ELSE cdf.frac END AS f
  FROM binned LEFT JOIN cdf ON binned.b = cdf.b)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def _polyline_segments_values() -> str:
    from .stages.rasterize import seeded_polylines
    rows = []
    for lid, pts in seeded_polylines():
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            rows.append(f"({lid}, {x1!r}, {y1!r}, {x2!r}, {y2!r})")
    return "(VALUES " + ", ".join(rows) + ") AS e(line_id, x1, y1, x2, y2)"


def rasterize_lines_sql(rows: int = 256, cols: int = 256) -> str:
    k = _rasterize_grid_consts(rows, cols)
    from .core.rng import NORTH, SOUTH
    res_y = (NORTH - SOUTH) / rows
    nsrange = (NORTH - SOUTH) - res_y
    seg = _polyline_segments_values()
    return f"""
WITH rowst AS (SELECT i AS r, {k['row_y0']!r} - i * {k['res_y']!r} AS y
               FROM range(0, {rows}) t(i)),
colst AS (SELECT j AS c, {k['west'] + k['half_x']!r} + j * {(4000.0 - 0.0) / cols!r} AS x
          FROM range(0, {cols}) t(j)),
rowx AS (
  SELECT rowst.r, e.line_id,
         CAST(floor({k['ncm1']} * ((x1 + (y - y1) / (y2 - y1) * (x2 - x1))
              - {k['west']!r} - {k['half_x']!r}) / {k['ewrange']!r} + 0.5)
              AS BIGINT) AS c
  FROM rowst JOIN {seg}
    ON y1 <> y2 AND (y = y1 OR y = y2
       OR (y2 > y1 AND y > y1 AND y < y2)
       OR (y1 > y2 AND y > y2 AND y < y1))),
colx AS (
  SELECT colst.c, e2.line_id,
         CAST(floor({rows - 1} * ({k['row_y0']!r}
              - (y1 + (x - x1) / (x2 - x1) * (y2 - y1)))
              / {nsrange!r} + 0.5) AS BIGINT) AS r
  FROM colst JOIN {seg.replace(' AS e(', ' AS e2(')}
    ON x1 <> x2 AND (x = x1 OR x = x2
       OR (x2 > x1 AND x > x1 AND x < x2)
       OR (x1 > x2 AND x > x2 AND x < x1))),
cells AS (
  SELECT r, c, line_id FROM rowx WHERE c >= 0 AND c < {cols}
  UNION ALL
  SELECT r, c, line_id FROM colx WHERE r >= 0 AND r < {rows}),
best AS (SELECT r, c, MAX(line_id) AS l FROM cells GROUP BY r, c),
per_row AS (SELECT r, COUNT(*) AS nb, SUM(l) AS sl FROM best GROUP BY r)
SELECT rowst.r AS row_id,
       CAST(COALESCE(per_row.nb, 0) AS BIGINT) AS n_burned,
       CAST(COALESCE(per_row.sl, 0) AS BIGINT) AS sum_line
FROM rowst LEFT JOIN per_row ON rowst.r = per_row.r
"""


def resample_nn_sql(in_rows: int = 256, in_cols: int = 256,
                    out_rows: int = 100, out_cols: int = 160) -> str:
    ry = in_rows / out_rows
    rx = in_cols / out_cols
    return f"""
WITH {_raster_vals_cte(in_rows, in_cols)},
og AS (SELECT i AS ocell, i // {out_cols} AS orow, i % {out_cols} AS ocol
       FROM range(0, {out_rows * out_cols}) t(i)),
src AS (SELECT ocell, orow,
               CAST(floor((orow + 0.5) * {ry!r}) AS BIGINT) * {in_cols}
               + CAST(floor((ocol + 0.5) * {rx!r}) AS BIGINT) AS scell
        FROM og),
res AS (SELECT src.orow, vals.v FROM src JOIN vals ON src.scell = vals.cell)
SELECT orow AS row_id,
       CAST(COUNT(CASE WHEN v <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN v = {_NOD} THEN 0.0 ELSE v END), 6) AS row_sum
FROM res GROUP BY orow
"""


def mosaic_sql(rows: int = 256, cols: int = 256, offset_rows: int = 64) -> str:
    out_rows = offset_rows + rows
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
og AS (SELECT i AS ocell, i // {cols} AS r, i % {cols} AS c
       FROM range(0, {out_rows * cols}) t(i)),
m AS (
  SELECT og.r, og.c,
         COALESCE(
           CASE WHEN a.v <> {_NOD} THEN a.v END,
           CASE WHEN b.v <> {_NOD} THEN b.v END,
           {_NOD}) AS f
  FROM og
  LEFT JOIN vals a
    ON a.cell = CASE WHEN og.r < {rows}
                THEN og.r * {cols} + og.c ELSE -1 END
  LEFT JOIN vals_b b
    ON b.cell = CASE WHEN og.r >= {offset_rows}
                      AND og.r < {offset_rows + rows}
                THEN (og.r - {offset_rows}) * {cols} + og.c ELSE -1 END)
SELECT r AS row_id,
       CAST(COUNT(CASE WHEN f <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN f = {_NOD} THEN 0.0 ELSE f END), 6) AS row_sum
FROM m GROUP BY r
"""


def morans_i_sql(rows: int = 256, cols: int = 256) -> str:
    """ImageAutocorrelation.java:287-330 (rook weights) mirror."""
    specs = [
        ("LEAD(v, 1) OVER w3", f"c < {cols - 1}"),           # E
        (f"LEAD(v, {cols}) OVER w3", f"r < {rows - 1}"),     # S
        ("LAG(v, 1) OVER w3", "c > 0"),                      # W
        (f"LAG(v, {cols}) OVER w3", "r > 0"),                # N
    ]
    nbs = ",\n  ".join(
        f"CASE WHEN {guard} THEN {expr} ELSE {_NOD} END AS q{i}"
        for i, (expr, guard) in enumerate(specs))
    pair_num = " + ".join(
        f"CASE WHEN q{i} <> {_NOD} THEN (v - mu) * (q{i} - mu) ELSE 0 END"
        for i in range(4))
    pair_cnt = " + ".join(
        f"CASE WHEN q{i} <> {_NOD} THEN 1 ELSE 0 END" for i in range(4))
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM vals),
st AS (SELECT COUNT(*) AS n, SUM(v) AS s FROM vals WHERE v <> {_NOD}),
nbq AS (SELECT cell, r, c, v,
  {nbs}
FROM g WINDOW w3 AS (ORDER BY cell)),
terms AS (
  SELECT SUM((v - mu) * (v - mu)) AS td,
         SUM({pair_num}) AS num,
         SUM({pair_cnt}) AS W
  FROM (SELECT nbq.*, st.s / st.n AS mu FROM nbq, st)
  WHERE v <> {_NOD})
SELECT CAST(st.n AS BIGINT) AS n,
       round(st.s / st.n, 6) AS mean,
       CAST(terms.W AS BIGINT) AS W,
       round(st.n * terms.num / (terms.td * terms.W), 6) AS morans_i
FROM st, terms
"""


def histogram_match_sql(rows: int = 256, cols: int = 256,
                        nbins: int = 256) -> str:
    """TwoImageHistogramMatching mirror: integer bin counts → exact
    CDFs; target bin = smallest B bin with cdfB ≥ cdfA."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
sa AS (SELECT MIN(v) AS lo, MAX(v) AS hi,
              CAST(COUNT(*) AS DOUBLE) AS n
       FROM vals WHERE v <> {_NOD}),
sb AS (SELECT MIN(v) AS lo, MAX(v) AS hi,
              CAST(COUNT(*) AS DOUBLE) AS n
       FROM vals_b WHERE v <> {_NOD}),
av AS (SELECT cell, v,
              CASE WHEN v = {_NOD} THEN NULL
                   ELSE least(CAST(floor((v - sa.lo)
                        / ((sa.hi - sa.lo) / {nbins})) AS BIGINT),
                        {nbins - 1}) END AS bin
       FROM vals CROSS JOIN sa),
bb AS (SELECT least(CAST(floor((v - sb.lo)
                         / ((sb.hi - sb.lo) / {nbins})) AS BIGINT),
                    {nbins - 1}) AS bin
       FROM vals_b CROSS JOIN sb WHERE v <> {_NOD}),
ca AS (SELECT bin, SUM(COUNT(*)) OVER (ORDER BY bin) /
                   (SELECT n FROM sa) AS cdf
       FROM av WHERE bin IS NOT NULL GROUP BY bin),
cb AS (SELECT bin, SUM(COUNT(*)) OVER (ORDER BY bin) /
                   (SELECT n FROM sb) AS cdf
       FROM bb GROUP BY bin),
lut AS (SELECT ca.bin, MIN(cb.bin) AS tgt
        FROM ca JOIN cb ON cb.cdf >= ca.cdf GROUP BY ca.bin),
mapped AS (
  SELECT av.cell,
         CASE WHEN av.v = {_NOD} THEN {_NOD}
              ELSE sb.lo + (coalesce(lut.tgt, {nbins - 1}) + 0.5)
                   * ((sb.hi - sb.lo) / {nbins})
         END AS f
  FROM av CROSS JOIN sb LEFT JOIN lut ON lut.bin = av.bin)
{_row_checksum_select(cols)}
FROM mapped GROUP BY cell // {cols}
"""


def fuzzy_membership_sql(rows: int = 256, cols: int = 256,
                         midpoint: float = 500.0,
                         spread: float = 120.0) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             ELSE 1.0 / (1.0 + exp(-(v - {midpoint!r}) / {spread!r}))
        END AS f
        FROM vals)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def crispness_sql(rows: int = 256, cols: int = 256) -> str:
    """CrispnessIndex.java:230-270 from raw moments (order-free)."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
m AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n, SUM(v / 1000.0) AS s,
             SUM((v / 1000.0) * (v / 1000.0)) AS s2
      FROM vals WHERE v <> {_NOD})
SELECT CAST(n AS BIGINT) AS n,
       round(s / n, 6) AS mean,
       round((s2 - 2.0 * (s / n) * s + (s / n) * (s / n) * n)
             / (pow(s * (1.0 - s / n), 2)
                + (s / n) * (s / n) * (n - s)), 6) AS crispness
FROM m
"""


def rgb_ihs_sql(rows: int = 256, cols: int = 256) -> str:
    """Identity oracle for the RGB→IHS→RGB roundtrip: the checksum of
    the clipped band sum (third band = permuted-index synth)."""
    n = rows * cols
    third = (f"CASE WHEN ((((cell * 7 + 13) % {n}) * 2246822519 + "
             f"1013904223) % 4294967296) % 17 = 0 THEN {_NOD} "
             f"ELSE ((((cell * 7 + 13) % {n}) * 2654435761) % 4294967296)"
             f" / 4294967296.0 * 1000.0 END")
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
tri AS (
  SELECT a.cell, a.v AS vr, b.v AS vg, {third.replace('cell', 'a.cell')} AS vb
  FROM vals a JOIN vals_b b ON a.cell = b.cell),
res AS (
  SELECT cell,
         CASE WHEN vr = {_NOD} OR vg = {_NOD} OR vb = {_NOD} THEN {_NOD}
              ELSE round(least(greatest(vr / 1000.0, 0.0), 1.0)
                         + least(greatest(vg / 1000.0, 0.0), 1.0)
                         + least(greatest(vb / 1000.0, 0.0), 1.0), 4)
         END AS f
  FROM tri)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def euclidean_allocation_sql(rows: int = 256, cols: int = 256) -> str:
    """EuclideanAllocation: nearest target id per cell, ties to the
    smallest target cell (lexicographic (d², tcell) min)."""
    n = rows * cols
    return f"""
WITH tgt AS (
  SELECT cell AS tcell, cell // {cols} AS tr, cell % {cols} AS tc
  FROM range(0, {n}) t(cell)
  WHERE ((cell * 2654435761 + 77) % 4294967296) % 251 = 0),
g AS (SELECT i AS cell, i // {cols} AS r, i % {cols} AS c
      FROM range(0, {n}) q(i)),
d AS (SELECT g.cell,
             MIN(((g.r - tgt.tr) * (g.r - tgt.tr)
                  + (g.c - tgt.tc) * (g.c - tgt.tc)) * {n} + tgt.tcell)
               AS k
      FROM g CROSS JOIN tgt GROUP BY g.cell)
SELECT cell // {cols} AS row_id,
       round(SUM(sqrt(CAST(k // {n} AS DOUBLE))), 6) AS row_sum,
       CAST(SUM(k % {n}) AS BIGINT) AS sum_alloc
FROM d GROUP BY cell // {cols}
"""


def kappa_sql(rows: int = 256, cols: int = 256,
              class_width: float = 200.0) -> str:
    """KappaIndex.java:263-289 mirror over the synthetic raster pair."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
tab AS (
  SELECT CAST(floor(a.v / {class_width!r}) AS BIGINT) AS ca,
         CAST(floor(b.v / {class_width!r}) AS BIGINT) AS cb,
         COUNT(*) AS c
  FROM vals a JOIN vals_b b ON a.cell = b.cell
  WHERE a.v <> {_NOD} AND b.v <> {_NOD}
  GROUP BY 1, 2),
s AS (SELECT CAST(SUM(c) AS DOUBLE) AS n,
             CAST(SUM(CASE WHEN ca = cb THEN c ELSE 0 END) AS DOUBLE)
               AS agree
      FROM tab),
rt AS (SELECT ca AS k, SUM(c) AS r FROM tab GROUP BY ca),
ct AS (SELECT cb AS k, SUM(c) AS cl FROM tab GROUP BY cb),
e AS (SELECT SUM(COALESCE(rt.r, 0) * COALESCE(ct.cl, 0) / s.n) AS exp
      FROM rt FULL JOIN ct ON rt.k = ct.k CROSS JOIN s)
SELECT CAST(s.n AS BIGINT) AS n, CAST(s.agree AS BIGINT) AS agreements,
       round((s.agree - e.exp) / (s.n - e.exp), 6) AS kappa,
       round(s.agree / s.n, 6) AS overall_accuracy
FROM s, e
"""


def extract_valleys_sql(rows: int = 256, cols: int = 256) -> str:
    """Peucker–Douglas valleys mirror: per anchor, the selected 2×2 max
    (NW→N→W strict >, centre keeps ties) marks its target cell."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM vals),
nb AS (SELECT cell, r, c, v,
  CASE WHEN r > 0 AND c > 0 THEN LAG(v, {cols + 1}) OVER w4
       ELSE {_NOD} END AS znw,
  CASE WHEN r > 0 THEN LAG(v, {cols}) OVER w4 ELSE {_NOD} END AS zn,
  CASE WHEN c > 0 THEN LAG(v, 1) OVER w4 ELSE {_NOD} END AS zw
FROM g WINDOW w4 AS (ORDER BY cell)),
sel AS (SELECT cell, r, c,
  CASE
    WHEN znw <> {_NOD} AND znw > v THEN
      CASE WHEN zn <> {_NOD} AND zn > znw THEN
             CASE WHEN zw <> {_NOD} AND zw > zn THEN 2 ELSE 1 END
           WHEN zw <> {_NOD} AND zw > znw THEN 2 ELSE 0 END
    WHEN zn <> {_NOD} AND zn > v THEN
      CASE WHEN zw <> {_NOD} AND zw > zn THEN 2 ELSE 1 END
    WHEN zw <> {_NOD} AND zw > v THEN 2
    ELSE 3 END AS k
  FROM nb WHERE v <> {_NOD}),
marked AS (
  SELECT DISTINCT cell
         - CASE WHEN k IN (0, 1) THEN {cols} ELSE 0 END
         - CASE WHEN k IN (0, 2) THEN 1 ELSE 0 END AS mcell
  FROM sel)
SELECT g.r AS row_id,
       CAST(COUNT(CASE WHEN g.v <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       CAST(COUNT(CASE WHEN g.v <> {_NOD} AND marked.mcell IS NULL
                  THEN 1 END) AS BIGINT) AS n_valley
FROM g LEFT JOIN marked ON marked.mcell = g.cell
GROUP BY g.r
"""


def paired_t_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
d AS (SELECT a.v - b.v AS dv
      FROM vals a JOIN vals_b b ON a.cell = b.cell
      WHERE a.v <> {_NOD} AND b.v <> {_NOD}),
m AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n, SUM(dv) AS s,
             SUM(dv * dv) AS s2 FROM d)
SELECT CAST(n AS BIGINT) AS n,
       round(s / n, 6) AS mean_diff,
       round((s / n) / (sqrt((n * s2 - s * s) / (n * (n - 1.0)))
                        / sqrt(n)), 6) AS t_stat
FROM m
"""


def highest_position_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
j AS (SELECT a.cell, a.v AS va, b.v AS vb
      FROM vals a JOIN vals_b b ON a.cell = b.cell)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN va <> {_NOD} AND vb <> {_NOD} THEN 1 END)
            AS BIGINT) AS n_valid,
       CAST(COUNT(CASE WHEN va <> {_NOD} AND vb <> {_NOD} AND va >= vb
                  THEN 1 END) AS BIGINT) AS n_first
FROM j GROUP BY cell // {cols}
"""


def colour_composite_sql(rows: int = 256, cols: int = 256) -> str:
    n = rows * cols
    third = (f"CASE WHEN ((((cell * 7 + 13) % {n}) * 2246822519 + "
             f"1013904223) % 4294967296) % 17 = 0 THEN {_NOD} "
             f"ELSE ((((cell * 7 + 13) % {n}) * 2654435761) % 4294967296)"
             f" / 4294967296.0 * 1000.0 END")
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
tri AS (SELECT a.cell, a.v AS va, b.v AS vb,
               {third.replace('cell', 'a.cell')} AS vc
        FROM vals a JOIN vals_b b ON a.cell = b.cell),
mm AS (SELECT
  (SELECT MIN(v) FROM vals WHERE v <> {_NOD}) AS rlo,
  (SELECT MAX(v) FROM vals WHERE v <> {_NOD}) AS rhi,
  (SELECT MIN(v) FROM vals_b WHERE v <> {_NOD}) AS glo,
  (SELECT MAX(v) FROM vals_b WHERE v <> {_NOD}) AS ghi,
  (SELECT MIN(vc) FROM tri WHERE vc <> {_NOD}) AS blo,
  (SELECT MAX(vc) FROM tri WHERE vc <> {_NOD}) AS bhi),
res AS (
  SELECT cell,
    CASE WHEN va = {_NOD} OR vb = {_NOD} OR vc = {_NOD} THEN {_NOD}
    ELSE 4278190080.0
         + least(greatest(trunc((vc - blo) / (bhi - blo) * 255.0), 0), 255)
           * 65536.0
         + least(greatest(trunc((vb - glo) / (ghi - glo) * 255.0), 0), 255)
           * 256.0
         + least(greatest(trunc((va - rlo) / (rhi - rlo) * 255.0), 0), 255)
    END AS f
  FROM tri CROSS JOIN mm)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def split_composite_sql(rows: int = 256, cols: int = 256) -> str:
    """Pack-then-unpack mirror: r + 1000·g + 1_000_000·b from the same
    normalization as colour_composite_sql (all integer-exact)."""
    n = rows * cols
    third = (f"CASE WHEN ((((cell * 7 + 13) % {n}) * 2246822519 + "
             f"1013904223) % 4294967296) % 17 = 0 THEN {_NOD} "
             f"ELSE ((((cell * 7 + 13) % {n}) * 2654435761) % 4294967296)"
             f" / 4294967296.0 * 1000.0 END")
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
tri AS (SELECT a.cell, a.v AS va, b.v AS vb,
               {third.replace('cell', 'a.cell')} AS vc
        FROM vals a JOIN vals_b b ON a.cell = b.cell),
mm AS (SELECT
  (SELECT MIN(v) FROM vals WHERE v <> {_NOD}) AS rlo,
  (SELECT MAX(v) FROM vals WHERE v <> {_NOD}) AS rhi,
  (SELECT MIN(v) FROM vals_b WHERE v <> {_NOD}) AS glo,
  (SELECT MAX(v) FROM vals_b WHERE v <> {_NOD}) AS ghi,
  (SELECT MIN(vc) FROM tri WHERE vc <> {_NOD}) AS blo,
  (SELECT MAX(vc) FROM tri WHERE vc <> {_NOD}) AS bhi),
res AS (
  SELECT cell,
    CASE WHEN va = {_NOD} OR vb = {_NOD} OR vc = {_NOD} THEN {_NOD}
    ELSE least(greatest(trunc((va - rlo) / (rhi - rlo) * 255.0), 0), 255)
         + 1000.0 *
           least(greatest(trunc((vb - glo) / (ghi - glo) * 255.0), 0), 255)
         + 1000000.0 *
           least(greatest(trunc((vc - blo) / (bhi - blo) * 255.0), 0), 255)
    END AS f
  FROM tri CROSS JOIN mm)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def tri_sql(rows: int = 256, cols: int = 256) -> str:
    """TopographicRuggednessIndex.java:229-246 mirror."""
    ss = " + ".join(
        f"CASE WHEN n{i} <> {_NOD} THEN (n{i} - v) * (n{i} - v) "
        f"ELSE 0 END" for i in range(8))
    nn = " + ".join(
        f"CASE WHEN n{i} <> {_NOD} THEN 1 ELSE 0 END" for i in range(8))
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
res AS (
  SELECT cell,
    CASE WHEN v = {_NOD} OR ({nn}) = 0 THEN {_NOD}
         ELSE sqrt(({ss}) / ({nn})) END AS f
  FROM nb)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def horizon_angle_sql(rows: int = 256, cols: int = 256) -> str:
    """Azimuth-90 HorizonAngle mirror: per cell, max eastward
    (z2 − z)/Δcol over the row (NoData samples participate, exactly as
    getValue does in the reference loop)."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM vals),
m AS (SELECT a.cell, a.v, a.c,
             MAX((b.v - a.v) / CAST(b.c - a.c AS DOUBLE)) AS best
      FROM g a JOIN g b ON b.r = a.r AND b.c > a.c
      GROUP BY a.cell, a.v, a.c),
res AS (
  SELECT g.cell,
         CASE WHEN g.v = {_NOD} OR g.c = {cols - 1} THEN {_NOD}
              ELSE degrees(atan(m.best)) END AS f
  FROM g LEFT JOIN m ON m.cell = g.cell)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def relative_aspect_sql(rows: int = 256, cols: int = 256,
                        azimuth: float = 90.0) -> str:
    """RelativeAspect.java:269-278 mirror (azimuth inlined)."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
{_horn_gradients()},
res AS (
  SELECT cell, CASE
    WHEN v = {_NOD} THEN {_NOD}
    WHEN fx = 0 THEN -1.0
    ELSE CASE WHEN abs(180.0 - atan(fy / fx) * {_RAD2DEG}
                       + 90.0 * sign(fx) - {azimuth!r}) > 180.0
              THEN 360.0 - abs(180.0 - atan(fy / fx) * {_RAD2DEG}
                               + 90.0 * sign(fx) - {azimuth!r})
              ELSE abs(180.0 - atan(fy / fx) * {_RAD2DEG}
                       + 90.0 * sign(fx) - {azimuth!r}) END
    END AS f
  FROM grad)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def pennock_sql(rows: int = 256, cols: int = 256,
                slope_t: float = 3.0, prof_t: float = 0.1,
                plan_t: float = 0.0) -> str:
    """Pennocks_Landform_Classification.java:262-335 mirror (SQL CASE
    is first-match, same as the reference's if/else chain)."""
    ms_h = ",\n  ".join(
        f"CASE WHEN n{i} = {_NOD} THEN v ELSE n{i} END AS m{i}"
        for i in range(8))
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
m AS (SELECT cell, v,
  {ms_h}
FROM nb),
terms AS (SELECT cell, v,
  (m6 - m4 + 2 * (m7 - m3) + m0 - m2) / 8.0 AS fy,
  (m2 - m4 + 2 * (m1 - m5) + m0 - m6) / 8.0 AS fx,
  (m1 - m5) / 2.0 AS zx, (m7 - m3) / 2.0 AS zy,
  (m1 - 2 * v + m5) AS zxx, (m7 - 2 * v + m3) AS zyy,
  (-m6 + m0 + m4 - m2) / 4.0 AS zxy
FROM m),
c AS (SELECT cell, v,
  atan(sqrt(fx*fx + fy*fy)) * {_RAD2DEG} AS slope,
  zx*zx + zy*zy AS p,
  -1.0 * (zxx*zy*zy - 2*zxy*zx*zy + zyy*zx*zx) AS plan_num,
  -1.0 * (zxx*zx*zx + 2*zxy*zx*zy + zyy*zy*zy) AS prof_num,
  (zx*zx + zy*zy + 1.0) AS q
FROM terms),
cl AS (SELECT cell, v, slope, p,
  plan_num / pow(p, 1.5) * {_RAD2DEG} AS plan,
  prof_num / pow(p * q, 1.5) * {_RAD2DEG} AS prof
FROM c),
res AS (
  SELECT cell, CASE
    WHEN v = {_NOD} OR p <= 0 THEN {_NOD}
    WHEN prof < -{prof_t!r} AND plan <= -{plan_t!r} AND slope > {slope_t!r}
      THEN 1.0
    WHEN prof < -{prof_t!r} AND plan > {plan_t!r} AND slope > {slope_t!r}
      THEN 2.0
    WHEN prof > {prof_t!r} AND plan <= {plan_t!r} AND slope > {slope_t!r}
      THEN 3.0
    WHEN prof > {prof_t!r} AND plan > {plan_t!r} AND slope > {slope_t!r}
      THEN 4.0
    WHEN prof >= -{prof_t!r} AND prof < {prof_t!r} AND slope > {slope_t!r}
         AND plan <= -{plan_t!r} THEN 5.0
    WHEN prof >= -{prof_t!r} AND prof < {prof_t!r} AND slope > {slope_t!r}
         AND plan > {plan_t!r} THEN 6.0
    WHEN slope <= {slope_t!r} THEN 7.0
    ELSE {_NOD} END AS f
  FROM cl)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def elev_rel_minmax_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
mm AS (SELECT MIN(v) AS lo, MAX(v) AS hi FROM vals WHERE v <> {_NOD}),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             ELSE (v - mm.lo) / (mm.hi - mm.lo) * 100.0 END AS f
        FROM vals CROSS JOIN mm)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def destripe_sql(rows: int = 256, cols: int = 256,
                 threshold: float = 5.0) -> str:
    """ImageDestriping.groovy:113-150 mirror (horizontal, threshold 5)."""
    def nbv(dr, dc):
        off = dr * cols + dc
        guards = []
        if dr < 0:
            guards.append("r > 0")
        if dr > 0:
            guards.append(f"r < {rows - 1}")
        if dc < 0:
            guards.append(f"c >= {-dc}")
        if dc > 0:
            guards.append(f"c < {cols - dc}")
        guard = " AND ".join(guards) or "TRUE"
        expr = f"LEAD(v, {off}) OVER wd" if off > 0 else \
            (f"LAG(v, {-off}) OVER wd" if off < 0 else "v")
        return f"CASE WHEN {guard} THEN {expr} ELSE {_NOD} END"

    cols_sql = []
    for j, dc in enumerate((-2, -1, 0, 1)):
        cols_sql.append(f"{nbv(0, dc)} AS zc{j}")
        cols_sql.append(f"{nbv(-1, dc)} AS zn{j}")
        cols_sql.append(f"{nbv(1, dc)} AS zs{j}")
    conds = []
    for j in range(4):
        conds.append(
            f"(zc{j} <> {_NOD} AND zn{j} <> {_NOD} AND zs{j} <> {_NOD}"
            f" AND abs(zc{j} - zn{j}) >= {threshold!r}"
            f" AND abs(zc{j} - zs{j}) >= {threshold!r}"
            f" AND ((zc{j} - zn{j} < 0 AND zc{j} - zs{j} < 0)"
            f"  OR (zc{j} - zn{j} >= 0 AND zc{j} - zs{j} >= 0)))")
    striped = " AND ".join(conds)
    nbs = ",\n  ".join(cols_sql)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM vals),
w AS (SELECT cell, r, c, v,
  {nbs}
FROM g WINDOW wd AS (ORDER BY cell)),
res AS (
  SELECT cell, CASE WHEN v = {_NOD} THEN {_NOD}
    WHEN {striped} THEN (zn2 + zs2) / 2.0
    ELSE v END AS f
  FROM w)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def cva_sql(rows: int = 256, cols: int = 256) -> str:
    """ChangeVectorAnalysis.java:254-271 mirror — bands (a→b, b→third)."""
    n = rows * cols
    third = (f"CASE WHEN ((((cell * 7 + 13) % {n}) * 2246822519 + "
             f"1013904223) % 4294967296) % 17 = 0 THEN {_NOD} "
             f"ELSE ((((cell * 7 + 13) % {n}) * 2654435761) % 4294967296)"
             f" / 4294967296.0 * 1000.0 END")
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
tri AS (SELECT a.cell, a.v AS va, b.v AS vb,
               {third.replace('cell', 'a.cell')} AS vc
        FROM vals a JOIN vals_b b ON a.cell = b.cell),
t AS (SELECT cell,
  CASE WHEN va <> {_NOD} AND vb <> {_NOD} THEN 1 ELSE 0 END AS ok1,
  CASE WHEN vb <> {_NOD} AND vc <> {_NOD} THEN 1 ELSE 0 END AS ok2,
  CASE WHEN va <> {_NOD} AND vb <> {_NOD} THEN vb - va ELSE 0 END AS z1,
  CASE WHEN vb <> {_NOD} AND vc <> {_NOD} THEN vc - vb ELSE 0 END AS z2
FROM tri),
res AS (
  SELECT cell,
    CASE WHEN ok1 + ok2 = 0 THEN {_NOD}
    ELSE round(sqrt(z1 * z1 + z2 * z2), 6)
         + 1000.0 * (CASE WHEN ok1 = 1 AND z1 >= 0 THEN 1 ELSE 0 END
                     + CASE WHEN ok2 = 1 AND z2 >= 0 THEN 2 ELSE 0 END)
    END AS f
  FROM t)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def directional_relief_sql(rows: int = 256, cols: int = 256) -> str:
    """Azimuth-90 DirectionalRelief mirror (sample needs row AND row−1
    valid; value = z at this azimuth)."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM vals),
s AS (SELECT g.cell, g.r, g.c, g.v,
  CASE WHEN g.v <> {_NOD} AND g.r > 0
            AND LAG(g.v, {cols}) OVER wr <> {_NOD}
       THEN g.v ELSE NULL END AS sample
FROM g WINDOW wr AS (ORDER BY cell)),
e AS (SELECT cell, r, c, v,
  SUM(sample) OVER (PARTITION BY r ORDER BY c
                    ROWS BETWEEN 1 FOLLOWING AND UNBOUNDED FOLLOWING)
    AS esum,
  COUNT(sample) OVER (PARTITION BY r ORDER BY c
                      ROWS BETWEEN 1 FOLLOWING AND UNBOUNDED FOLLOWING)
    AS ecnt
FROM s),
res AS (SELECT cell,
  CASE WHEN v = {_NOD} THEN 0.0
       WHEN ecnt > 0 THEN round(esum / ecnt - v, 6)
       ELSE 0.0 END AS f,
  v FROM e)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN v <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(f), 6) AS row_sum
FROM res GROUP BY cell // {cols}
"""


def fetch_analysis_sql(rows: int = 256, cols: int = 256,
                       height_increment: float = 0.05) -> str:
    """Azimuth-90 FetchAnalysis mirror: min qualifying eastward
    distance (first hit == minimum), else 0; NoData centre → 0 row
    contribution (counted in n_valid only when valid)."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM vals),
hit AS (SELECT a.cell, MIN(b.c - a.c) AS d
        FROM g a JOIN g b
          ON b.r = a.r AND b.c > a.c
         AND b.v >= a.v + (b.c - a.c) * {height_increment!r}
        GROUP BY a.cell),
res AS (SELECT g.cell, g.v,
               CASE WHEN g.v = {_NOD} THEN 0.0
                    ELSE CAST(COALESCE(hit.d, 0) AS DOUBLE) END AS f
        FROM g LEFT JOIN hit ON hit.cell = g.cell)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN v <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(f), 6) AS row_sum
FROM res GROUP BY cell // {cols}
"""


def weighted_sum_sql(rows: int = 256, cols: int = 256,
                     w1: float = 0.25, w2: float = 0.75) -> str:
    """WeightedSum.java:235-241 mirror (two-image stack)."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
res AS (SELECT a.cell,
        CASE WHEN a.v = {_NOD} OR b.v = {_NOD} THEN {_NOD}
             ELSE a.v * {w1!r} + b.v * {w2!r} END AS f
        FROM vals a JOIN vals_b b ON a.cell = b.cell)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def minmax_stretch_sql(rows: int = 256, cols: int = 256,
                       num_bins: int = 1024) -> str:
    """MinMaxContrastStretch.java:189-201 mirror ((int) cast before the
    scale multiply, clamp to [0, numBins−1])."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
mm AS (SELECT MIN(v) AS lo, MAX(v) AS hi FROM vals WHERE v <> {_NOD}),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             ELSE least(greatest(trunc(v - mm.lo)
                                 * ({num_bins}.0 / (mm.hi - mm.lo)),
                                 0.0), {num_bins - 1}.0) END AS f
        FROM vals CROSS JOIN mm)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def sigmoidal_stretch_sql(rows: int = 256, cols: int = 256,
                          cutoff: float = 0.4, gain: float = 5.0) -> str:
    """SigmoidalStretch.java:197-206 mirror."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
mm AS (SELECT MIN(v) AS lo, MAX(v) AS hi,
              1.0/(1.0+exp({gain!r} * {cutoff!r})) AS a,
              1.0/(1.0+exp({gain!r} * ({cutoff!r} - 1.0)))
                - 1.0/(1.0+exp({gain!r} * {cutoff!r})) AS b
       FROM vals WHERE v <> {_NOD}),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             ELSE (1.0/(1.0+exp({gain!r} * ({cutoff!r}
                   - (v - mm.lo)/(mm.hi - mm.lo)))) - mm.a)/mm.b END AS f
        FROM vals CROSS JOIN mm)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def flip_image_sql(rows: int = 256, cols: int = 256) -> str:
    """FlipImage.java vertical mirror: out(r,c) = in(rows−1−r, c)."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
res AS (SELECT a.cell, b.v AS f
        FROM vals a JOIN vals b
          ON b.cell = ({rows - 1} - a.cell // {cols}) * {cols}
                      + a.cell % {cols})
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def create_plane_sql(rows: int = 256, cols: int = 256,
                     slope_deg: float = 15.0, aspect_deg: float = 30.0,
                     k: float = 10.0) -> str:
    """CreatePlane.java:262-277 mirror (constants folded exactly as the
    stage does: aspect ±180, cx = tan·sin, cy = tan·cos)."""
    aspect = aspect_deg - 180.0 if aspect_deg > 180.0 else aspect_deg + 180.0
    s = math.radians(slope_deg)
    a = math.radians(aspect)
    cx, cy = math.tan(s) * math.sin(a), math.tan(s) * math.cos(a)
    return f"""
WITH res AS (
  SELECT i AS cell,
         {cx!r} * ({cols}.0 * ((i % {cols}) / {cols - 1}.0))
         + {cy!r} * ({rows}.0 - {rows}.0 * ((i // {cols}) / {rows - 1}.0))
         + {k!r} AS f
  FROM range(0, {rows * cols}) t(i))
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def sobel_sql(rows: int = 256, cols: int = 256) -> str:
    """FilterSobel.java:210-213,262-282 mirror (NoData/off-grid samples
    replaced by the centre value; term order matches the stage kernel)."""
    ms = ",\n  ".join(
        f"CASE WHEN n{i} = {_NOD} THEN v ELSE n{i} END AS m{i}"
        for i in range(8))
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
m AS (SELECT cell, v,
  {ms}
FROM nb),
grad AS (SELECT cell, v,
  m0 * 1.0 + m1 * 2.0 + m2 * 1.0 - m4 * 1.0 - m5 * 2.0 - m6 * 1.0 AS sx,
  m0 * 1.0 - m2 * 1.0 - m3 * 2.0 - m4 * 1.0 + m6 * 1.0 + m7 * 2.0 AS sy
FROM m),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             ELSE sqrt(sx * sx + sy * sy) END AS f FROM grad)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def _mean_elev_terms_cte(rows: int, cols: int) -> str:
    """Shared n/s/s2 CTE for Difference/DeviationFromMeanElevation —
    plus-shaped 3×3 window with the reference's literal absolute
    `(x != 1) && (y != 1)` exclusion (midPoint 1); term order matches
    the stage kernel (centre, E, W, S, N)."""
    # (neighbour expr, abs-col shift, abs-row shift) in kernel order
    taps = [("v", 0, 0), ("n1", 1, 0), ("n5", -1, 0),
            ("n3", 0, 1), ("n7", 0, -1)]
    inc = []
    for expr, dx, dy in taps:
        inc.append(f"CASE WHEN {expr} <> {_NOD} AND c + {dx} <> 1 "
                   f"AND r + {dy} <> 1 THEN 1.0 ELSE 0.0 END")
    n = " + ".join(f"i{j}" for j in range(5))
    s = " + ".join(f"i{j} * t{j}" for j in range(5))
    s2 = " + ".join(f"i{j} * t{j} * t{j}" for j in range(5))
    incs = ",\n  ".join(f"{e} AS i{j}" for j, e in enumerate(inc))
    return (f"inc AS (SELECT cell, v,\n  {incs},\n"
            f"  v AS t0, n1 AS t1, n5 AS t2, n3 AS t3, n7 AS t4\nFROM nb),\n"
            f"terms AS (SELECT cell, v, {n} AS n, {s} AS s, {s2} AS s2 "
            f"FROM inc)")


def diff_mean_elev_sql(rows: int = 256, cols: int = 256) -> str:
    """DifferenceFromMeanElevation.java:277-305 mirror (n = 0 → NoData
    in place of the reference's 0/0 NaN)."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
{_mean_elev_terms_cte(rows, cols)},
res AS (SELECT cell,
        CASE WHEN v = {_NOD} OR n = 0 THEN {_NOD}
             ELSE v - s / n END AS f FROM terms)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def dev_mean_elev_sql(rows: int = 256, cols: int = 256) -> str:
    """DeviationFromMeanElevation.java:277-305 mirror ((z − mean)/σ,
    n > 2 required)."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
{_mean_elev_terms_cte(rows, cols)},
res AS (SELECT cell,
        CASE WHEN v = {_NOD} OR n <= 2 THEN {_NOD}
             ELSE (v - s / n) / sqrt(s2 / n - (s / n) * (s / n)) END AS f
        FROM terms)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def fill_pits_sql(rows: int = 256, cols: int = 256) -> str:
    """FillPits.java:188-201,228-258 mirror (ε ladder constants are the
    Java float literals widened to double)."""
    lowest = ", ".join(
        f"CASE WHEN n{i} <> {_NOD} THEN n{i} ELSE 1e308 END"
        for i in range(8))
    any_lower = " OR ".join(
        f"(n{i} <> {_NOD} AND n{i} < v)" for i in range(8))
    any_valid = " OR ".join(f"n{i} <> {_NOD}" for i in range(8))
    import numpy as _np
    eps = (f"CASE WHEN mx <= 9 THEN {float(_np.float32(0.00001))!r} "
           f"WHEN mx <= 99 THEN {float(_np.float32(0.0001))!r} "
           f"WHEN mx <= 999 THEN {float(_np.float32(0.001))!r} "
           f"WHEN mx <= 9999 THEN {float(_np.float32(0.001))!r} "
           f"WHEN mx <= 99999 THEN {float(_np.float32(0.01))!r} "
           f"ELSE 1.0 END")
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
mm AS (SELECT MAX(ABS(v)) AS mx FROM vals WHERE v <> {_NOD}),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             WHEN NOT ({any_lower}) AND ({any_valid})
               THEN least({lowest}) + ({eps})
             ELSE v END AS f
        FROM nb CROSS JOIN mm)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def find_no_flow_sql(rows: int = 256, cols: int = 256) -> str:
    """FindNoFlowCells.java:171-190 mirror (noData doubles as 'has a
    lower neighbour')."""
    any_lower = " OR ".join(
        f"(n{i} <> {_NOD} AND n{i} < v)" for i in range(8))
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             WHEN {any_lower} THEN {_NOD}
             ELSE 1.0 END AS f
        FROM nb)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def exposure_wind_flux_sql(rows: int = 256, cols: int = 256,
                           azimuth: float = 350.0) -> str:
    """ExposureTowardsWindFlux.java:264-301 mirror (horizon-angle
    variant: only relAspect > 180 cells are written; Horn slope/aspect
    with FLOAT casts; azimuth-90 horizon angle)."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
{_horn_gradients()},
hb AS (SELECT a.cell, MAX((b.v - a.v) / CAST(b.c - a.c AS DOUBLE)) AS best
       FROM g a JOIN g b ON b.r = a.r AND b.c > a.c GROUP BY a.cell),
sa AS (SELECT cell, v,
       CAST(CAST(atan(sqrt(fx*fx + fy*fy)) * {_RAD2DEG} AS REAL) AS DOUBLE)
         AS slope,
       CASE WHEN fx <> 0 THEN CAST(CAST(180.0 - atan(fy / fx) * {_RAD2DEG}
              + 90.0 * sign(fx) AS REAL) AS DOUBLE)
            ELSE -1.0 END AS aspect
       FROM grad),
j AS (SELECT sa.cell, sa.v, sa.slope, sa.aspect,
      CASE WHEN sa.v = {_NOD} OR (sa.cell % {cols}) = {cols - 1} THEN NULL
           ELSE degrees(atan(hb.best)) END AS ha
      FROM sa LEFT JOIN hb ON hb.cell = sa.cell),
res AS (SELECT cell, CASE
  WHEN v = {_NOD} THEN {_NOD}
  WHEN NOT ({azimuth!r} - aspect > 180.0) THEN {_NOD}
  WHEN ha IS NULL THEN {_NOD}
  ELSE cos(radians(slope)) * sin(radians(ha))
       + sin(radians(slope)) * cos(radians(ha))
         * cos(radians(360.0 - ({azimuth!r} - aspect))) END AS f FROM j)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def _third_stack_expr(rows: int, cols: int) -> str:
    n = rows * cols
    return (f"CASE WHEN ((((cell * 7 + 13) % {n}) * 2246822519 + "
            f"1013904223) % 4294967296) % 17 = 0 THEN {_NOD} "
            f"ELSE ((((cell * 7 + 13) % {n}) * 2654435761) % 4294967296)"
            f" / 4294967296.0 * 1000.0 END")


def percent_greater_sql(rows: int = 256, cols: int = 256) -> str:
    """PercentGreaterThan.groovy:130-160 mirror (position = a, stack =
    {b, permuted synth})."""
    third = _third_stack_expr(rows, cols)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
tri AS (SELECT a.cell, a.v AS va, b.v AS vb,
               {third.replace('cell', 'a.cell')} AS vc
        FROM vals a JOIN vals_b b ON a.cell = b.cell),
res AS (SELECT cell,
  CASE WHEN va = {_NOD} OR vb = {_NOD} OR vc = {_NOD} THEN {_NOD}
       ELSE 100.0 * (CAST(vb > va AS DOUBLE)
                     + CAST(vc > va AS DOUBLE)) / 2.0 END AS f
  FROM tri)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def average_overlay_sql(rows: int = 256, cols: int = 256) -> str:
    """AverageOverlay.groovy:218-237 mirror (stack = {a, b, permuted
    synth}; mean over valid, all-NoData → NoData)."""
    third = _third_stack_expr(rows, cols)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
tri AS (SELECT a.cell, a.v AS va, b.v AS vb,
               {third.replace('cell', 'a.cell')} AS vc
        FROM vals a JOIN vals_b b ON a.cell = b.cell),
res AS (SELECT cell,
  CASE WHEN (CAST(va <> {_NOD} AS DOUBLE) + CAST(vb <> {_NOD} AS DOUBLE)
             + CAST(vc <> {_NOD} AS DOUBLE)) = 0 THEN {_NOD}
       ELSE (CASE WHEN va <> {_NOD} THEN va ELSE 0.0 END
             + CASE WHEN vb <> {_NOD} THEN vb ELSE 0.0 END
             + CASE WHEN vc <> {_NOD} THEN vc ELSE 0.0 END)
            / (CAST(va <> {_NOD} AS DOUBLE) + CAST(vb <> {_NOD} AS DOUBLE)
               + CAST(vc <> {_NOD} AS DOUBLE)) END AS f
  FROM tri)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def _tri_cte(rows: int, cols: int) -> str:
    third = _third_stack_expr(rows, cols)
    return f"""{_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
tri AS (SELECT a.cell, a.v AS va, b.v AS vb,
               {third.replace('cell', 'a.cell')} AS vc
        FROM vals a JOIN vals_b b ON a.cell = b.cell)"""


def stack_overlay_sql(rows: int = 256, cols: int = 256,
                      kind: str = "max") -> str:
    """MaxOverlay.java:218-231 / MinOverlay.java / MaxAbsOverlay.java
    :224-234 mirror: reduce over VALID bands only (skip, not poison);
    sequential strict-compare update = earliest band wins ties. maxabs
    runs on the signed stack v−500."""
    shift = " - 500.0" if kind == "maxabs" else ""
    if kind == "min":
        cmp_ab, cmp_ac, cmp_bc = "xa <= xb", "xa <= xc", "xb <= xc"
    elif kind == "max":
        cmp_ab, cmp_ac, cmp_bc = "xa >= xb", "xa >= xc", "xb >= xc"
    else:
        cmp_ab, cmp_ac, cmp_bc = ("xa*xa >= xb*xb", "xa*xa >= xc*xc",
                                  "xb*xb >= xc*xc")
    return f"""
WITH {_tri_cte(rows, cols)},
m AS (SELECT cell,
      CASE WHEN va <> {_NOD} THEN va{shift} END AS xa,
      CASE WHEN vb <> {_NOD} THEN vb{shift} END AS xb,
      CASE WHEN vc <> {_NOD} THEN vc{shift} END AS xc FROM tri),
res AS (SELECT cell, CASE
  WHEN xa IS NOT NULL AND (xb IS NULL OR {cmp_ab})
       AND (xc IS NULL OR {cmp_ac}) THEN xa
  WHEN xb IS NOT NULL AND (xc IS NULL OR {cmp_bc}) THEN xb
  WHEN xc IS NOT NULL THEN xc
  ELSE {_NOD} END AS f FROM m)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def lowest_position_sql(rows: int = 256, cols: int = 256) -> str:
    """LowestPosition.groovy:136-156 mirror: 0-based argmin, strict <
    = first raster wins ties, any stack NoData → NoData."""
    return f"""
WITH {_tri_cte(rows, cols)},
res AS (SELECT cell,
  CASE WHEN va = {_NOD} OR vb = {_NOD} OR vc = {_NOD} THEN NULL
       WHEN va <= vb AND va <= vc THEN 0
       WHEN vb <= vc THEN 1 ELSE 2 END AS p FROM tri)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(p) AS BIGINT) AS n_valid,
       CAST(COALESCE(SUM(p), 0) AS BIGINT) AS sum_position
FROM res GROUP BY cell // {cols}
"""


def percent_compare_sql(rows: int = 256, cols: int = 256,
                        op: str = "lt") -> str:
    """PercentLessThan.groovy / PercentEqualTo.groovy mirror (the
    comparator swaps of PercentGreaterThan.groovy:130-160)."""
    o = "<" if op == "lt" else "="
    return f"""
WITH {_tri_cte(rows, cols)},
res AS (SELECT cell,
  CASE WHEN va = {_NOD} OR vb = {_NOD} OR vc = {_NOD} THEN {_NOD}
       ELSE 100.0 * (CAST(vb {o} va AS DOUBLE)
                     + CAST(vc {o} va AS DOUBLE)) / 2.0 END AS f
  FROM tri)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def weighted_overlay_sql(rows: int = 256, cols: int = 256) -> str:
    """WeightedOverlay.java:230-288 mirror: normalized weights, global
    per-band valid min/max rescale (b is the cost factor), any NoData
    poisons. Bands {a: benefit, b: cost, c: benefit}, raw weights
    (1.5, 1.0, 0.5), scale 0-1."""
    w0, w1, w2 = 1.5 / 3.0, 1.0 / 3.0, 0.5 / 3.0
    return f"""
WITH {_tri_cte(rows, cols)},
mm AS (SELECT
  MIN(CASE WHEN va <> {_NOD} THEN va END) AS alo,
  MAX(CASE WHEN va <> {_NOD} THEN va END) AS ahi,
  MIN(CASE WHEN vb <> {_NOD} THEN vb END) AS blo,
  MAX(CASE WHEN vb <> {_NOD} THEN vb END) AS bhi,
  MIN(CASE WHEN vc <> {_NOD} THEN vc END) AS clo,
  MAX(CASE WHEN vc <> {_NOD} THEN vc END) AS chi FROM tri),
res AS (SELECT cell,
  CASE WHEN va = {_NOD} OR vb = {_NOD} OR vc = {_NOD} THEN {_NOD}
       ELSE (va - alo) / (ahi - alo) * 1.0 * {w0!r}
            + (1.0 - (vb - blo) / (bhi - blo)) * 1.0 * {w1!r}
            + (vc - clo) / (chi - clo) * 1.0 * {w2!r} END AS f
  FROM tri, mm)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def correct_vignetting_sql(rows: int = 256, cols: int = 256,
                           focal_length: float = 50.0,
                           dist_between_edges: float = 100.0,
                           n_exp: float = 4.0) -> str:
    """CorrectVignetting.groovy:110,290-297 mirror."""
    scale = dist_between_edges / cols
    ppx = (cols - 1) / 2.0
    ppy = (rows - 1) / 2.0
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM vals),
res AS (SELECT cell,
  CASE WHEN v = {_NOD} THEN v
       ELSE v / pow(cos(atan(
              sqrt((r - {ppy!r}) * (r - {ppy!r})
                   + (c - {ppx!r}) * (c - {ppx!r}))
              * {scale!r} / {focal_length!r})), {n_exp!r}) END AS f
  FROM g)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def pan_sharpen_sql(ms_rows: int = 256, ms_cols: int = 256,
                    pan_scale: int = 2) -> str:
    """PanSharpening.java:357-430,472-530 mirror (IHS method). Pure
    IEEE arithmetic end-to-end (no libm), so the byte packing is exact."""
    pr, pc = ms_rows * pan_scale, ms_cols * pan_scale
    n_ms, n_pan = ms_rows * ms_cols, pr * pc
    _M = 4294967296

    def synth(idx: str) -> str:
        return (f"CASE WHEN ((({idx}) * 2246822519 + 1013904223) % {_M}) "
                f"% 17 = 0 THEN {_NOD} "
                f"ELSE ((({idx}) * 2654435761) % {_M}) / {_M}.0 * 1000.0 END")

    def synth_b(idx: str) -> str:
        return (f"CASE WHEN ((({idx}) * 2654435761 + 999331) % {_M}) "
                f"% 19 = 0 THEN {_NOD} "
                f"ELSE ((({idx}) * 2246822519 + 12345) % {_M}) / {_M}.0 "
                f"* 1000.0 END")

    va = synth("scell")
    vb = synth_b("scell")
    vc = synth(f"(scell * 7 + 13) % {n_ms}")
    vp = synth(f"(cell * 11 + 29) % {n_pan}")
    return f"""
WITH src AS (
  SELECT i AS cell,
         CAST(floor((({ms_rows}.0 - ({ms_rows}.0 - ({ms_rows}.0 * (i // {pc}))
                      / {pr - 1}.0)) / {ms_rows}.0)
                    * {ms_rows - 0.5!r} + 0.5) AS BIGINT) AS sr,
         CAST(floor(((({ms_cols}.0 * (i % {pc})) / {pc - 1}.0)
                     / {ms_cols}.0) * {ms_cols - 0.5!r} + 0.5) AS BIGINT)
           AS sc
  FROM range(0, {n_pan}) t(i)),
cells AS (
  SELECT cell, sr < {ms_rows} AND sc < {ms_cols} AS written,
         least(greatest(sr, 0), {ms_rows - 1}) * {ms_cols}
         + least(greatest(sc, 0), {ms_cols - 1}) AS scell
  FROM src),
bands AS (
  SELECT cell, written, {va} AS zr, {vb} AS zg, {vc} AS zb, {vp} AS zp
  FROM cells),
mm AS (
  SELECT greatest(
    (SELECT MAX({synth('i')}) FROM range(0, {n_ms}) t(i)
     WHERE {synth('i')} <> {_NOD}),
    (SELECT MAX({synth_b('i')}) FROM range(0, {n_ms}) t(i)
     WHERE {synth_b('i')} <> {_NOD}),
    (SELECT MAX({synth(f'(i * 7 + 13) % {n_ms}')}) FROM range(0, {n_ms}) t(i)
     WHERE {synth(f'(i * 7 + 13) % {n_ms}')} <> {_NOD})) AS max_ms,
    (SELECT MIN({synth(f'(i * 11 + 29) % {n_pan}')})
     FROM range(0, {n_pan}) t(i)
     WHERE {synth(f'(i * 11 + 29) % {n_pan}')} <> {_NOD}) AS p_min,
    (SELECT MAX({synth(f'(i * 11 + 29) % {n_pan}')})
     FROM range(0, {n_pan}) t(i)
     WHERE {synth(f'(i * 11 + 29) % {n_pan}')} <> {_NOD}) AS p_max),
norm AS (
  SELECT cell, written,
         zp <> {_NOD} AND zr <> {_NOD} AND zg <> {_NOD} AND zb <> {_NOD}
           AS valid,
         (zp - p_min) / (p_max - p_min) AS p,
         zr / max_ms AS r, zg / max_ms AS g, zb / max_ms AS b
  FROM bands CROSS JOIN mm),
hsv AS (
  SELECT cell, written, valid, p, r, g, b,
         least(least(b, g), r) AS m, r + g + b AS i
  FROM norm),
hue AS (
  SELECT cell, written, valid, p, i,
         CASE WHEN i = 3.0 THEN 0.0
              WHEN b = m THEN (g - b) / (i - 3 * b)
              WHEN r = m THEN (b - r) / (i - 3 * r) + 1.0
              ELSE (r - g) / (i - 3 * g) + 2.0 END AS h,
         b, r, g
  FROM hsv),
sat AS (
  SELECT cell, written, valid, p, h,
         CASE WHEN h <= 1.0 THEN (i - 3 * b) / i
              WHEN h <= 2.0 THEN (i - 3 * r) / i
              ELSE (i - 3 * g) / i END AS s,
         p * 3.0 AS i2
  FROM hue),
inv AS (
  SELECT cell, written, valid,
    CASE WHEN h <= 1.0 THEN i2 * (1 + 2 * s - 3 * s * h) / 3
         WHEN h <= 2.0 THEN i2 * (1 - s) / 3
         ELSE i2 * (1 - s + 3 * s * (h - 2)) / 3 END AS r2,
    CASE WHEN h <= 1.0 THEN i2 * (1 - s + 3 * s * h) / 3
         WHEN h <= 2.0 THEN i2 * (1 + 2 * s - 3 * s * (h - 1)) / 3
         ELSE i2 * (1 - s) / 3 END AS g2,
    CASE WHEN h <= 1.0 THEN i2 * (1 - s) / 3
         WHEN h <= 2.0 THEN i2 * (1 - s + 3 * s * (h - 1)) / 3
         ELSE i2 * (1 + 2 * s - 3 * s * (h - 2)) / 3 END AS b2
  FROM sat),
res AS (
  SELECT cell,
    CASE WHEN NOT (written AND valid) THEN {_NOD}
         ELSE 4278190080.0
              + least(greatest(trunc(b2 * 255.0), 0), 255) * 65536.0
              + least(greatest(trunc(g2 * 255.0), 0), 255) * 256.0
              + least(greatest(trunc(r2 * 255.0), 0), 255) END AS f
  FROM inv)
{_row_checksum_select(pc)}
FROM res GROUP BY cell // {pc}
"""


def fill_holes_sql(rows: int = 256, cols: int = 256, k: int = 6,
                   window: int = 8) -> str:
    """FillMissingDataHoles.java:106-180 mirror (deterministic
    (d², row, col) tie rule on both sides; weights 1/d², k = 6)."""
    # edge = valid cell with >= 1 IN-GRID NoData neighbour
    guards = [
        (f"n0 = {_NOD} AND r > 0 AND c < {cols - 1}"),
        (f"n1 = {_NOD} AND c < {cols - 1}"),
        (f"n2 = {_NOD} AND r < {rows - 1} AND c < {cols - 1}"),
        (f"n3 = {_NOD} AND r < {rows - 1}"),
        (f"n4 = {_NOD} AND r < {rows - 1} AND c > 0"),
        (f"n5 = {_NOD} AND c > 0"),
        (f"n6 = {_NOD} AND r > 0 AND c > 0"),
        (f"n7 = {_NOD} AND r > 0")]
    any_hole = " OR ".join(f"({g})" for g in guards)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
edges AS (SELECT cell, r, c, v FROM nb
          WHERE v <> {_NOD} AND ({any_hole})),
holes AS (SELECT cell, r, c FROM nb WHERE v = {_NOD}),
cand AS (SELECT h.cell AS hcell, e.v AS ev,
                (e.r - h.r) * (e.r - h.r)
                + (e.c - h.c) * (e.c - h.c) AS d2,
                e.r AS er, e.c AS ec
         FROM holes h JOIN edges e
           ON e.r BETWEEN h.r - {window} AND h.r + {window}
          AND e.c BETWEEN h.c - {window} AND h.c + {window}),
ranked AS (SELECT *, row_number() OVER (PARTITION BY hcell
                                        ORDER BY d2, er, ec) AS rn
           FROM cand),
idw AS (SELECT hcell,
               SUM((1.0 / d2) * ev) / SUM(1.0 / d2) AS fv
        FROM ranked WHERE rn <= {k} GROUP BY hcell),
res AS (SELECT g.cell,
               CASE WHEN g.v <> {_NOD} THEN g.v ELSE i.fv END AS f
        FROM g LEFT JOIN idw i ON i.hcell = g.cell)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


# window-array-order neighbour aliases for the 3×3 filters:
# a: 0=NW(n6) 1=N(n7) 2=NE(n0) 3=W(n5) 4=centre(v) 5=E(n1) 6=SW(n4)
#    7=S(n3) 8=SE(n2)
_WIN9_SQL = ("n6", "n7", "n0", "n5", "v", "n1", "n4", "n3", "n2")


def olympic_sql(rows: int = 256, cols: int = 256) -> str:
    """FilterOlympic.java:280-305 mirror (3×3 square window)."""
    n = " + ".join(f"CASE WHEN {t} <> {_NOD} THEN 1 ELSE 0 END"
                   for t in _WIN9_SQL)
    s = " + ".join(f"CASE WHEN {t} <> {_NOD} THEN {t} ELSE 0.0 END"
                   for t in _WIN9_SQL)
    mn = ", ".join(f"CASE WHEN {t} <> {_NOD} THEN {t} ELSE v END"
                   for t in _WIN9_SQL)
    mx = mn
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
t AS (SELECT cell, v, {n} AS n, {s} AS s,
             least({mn}) AS mn, greatest({mx}) AS mx FROM nb),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} OR n <= 2 THEN {_NOD}
             ELSE (s - mn - mx) / (n - 2.0) END AS f FROM t)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def percentile_filter_sql(rows: int = 256, cols: int = 256) -> str:
    """FilterPercentile.java:283-309 mirror: 100·j/n, j = count of
    strictly-smaller valid samples, n = count valid (centre in n)."""
    n = " + ".join(f"CASE WHEN {t} <> {_NOD} THEN 1.0 ELSE 0.0 END"
                   for t in _WIN9_SQL)
    j = " + ".join(f"CASE WHEN {t} <> {_NOD} AND {t} < v "
                   f"THEN 1.0 ELSE 0.0 END" for t in _WIN9_SQL)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
t AS (SELECT cell, v, {n} AS n, {j} AS j FROM nb),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN {_NOD}
             ELSE j / n * 100.0 END AS f FROM t)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def knearest_mean_sql(rows: int = 256, cols: int = 256, k: int = 5) -> str:
    """FilterKNearestMean.java:292-330 mirror ((d², window-index) tie
    order, n == k required)."""
    val = "CASE a " + " ".join(
        f"WHEN {i} THEN {t}" for i, t in enumerate(_WIN9_SQL)) + " END"
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
samp AS (SELECT cell, v, a, {val} AS sv
         FROM nb CROSS JOIN range(0, 9) t(a)),
valid AS (SELECT cell, v, a, sv, (sv - v) * (sv - v) AS d2
          FROM samp WHERE sv <> {_NOD}),
ranked AS (SELECT *, row_number() OVER (PARTITION BY cell
                                        ORDER BY d2, a) AS rn
           FROM valid),
agg AS (SELECT cell, COUNT(*) AS nv,
               SUM(CASE WHEN rn <= {k} THEN sv ELSE 0.0 END) AS s
        FROM ranked GROUP BY cell),
res AS (SELECT g.cell,
        CASE WHEN g.v = {_NOD} OR COALESCE(a.nv, 0) < {k} THEN {_NOD}
             ELSE a.s / {k}.0 END AS f
        FROM g LEFT JOIN agg a ON a.cell = g.cell)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def _m_replace_cte() -> str:
    """m0..m7 with NoData neighbour -> centre replacement (the
    Sobel/Prewitt/Emboss/Laplacian/LineDetection convention)."""
    ms = ",\n  ".join(
        f"CASE WHEN n{i} = {_NOD} THEN v ELSE n{i} END AS m{i}"
        for i in range(8))
    return f"m AS (SELECT cell, v,\n  {ms}\nFROM nb)"


def prewitt_sql(rows: int = 256, cols: int = 256) -> str:
    """FilterPrewitt.java:167-170,208-227 mirror — Sobel plan with unit
    masks; term order matches _PREWITT_TAPS."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
{_m_replace_cte()},
grad AS (SELECT cell, v,
  m0 * 1.0 + m1 * 1.0 + m2 * 1.0 - m4 * 1.0 - m5 * 1.0 - m6 * 1.0 AS sx,
  m0 * 1.0 - m2 * 1.0 - m3 * 1.0 - m4 * 1.0 + m6 * 1.0 + m7 * 1.0 AS sy
FROM m),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             ELSE sqrt(sx * sx + sy * sy) END AS f FROM grad)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def emboss_sql(rows: int = 256, cols: int = 256) -> str:
    """FilterEmboss.java:205-206 direction "n" — out = S − N (NoData ->
    centre)."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
{_m_replace_cte()},
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             ELSE m7 * -1.0 + m3 * 1.0 END AS f FROM m)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def laplacian_sql(rows: int = 256, cols: int = 256) -> str:
    """FilterLaplacian.java:196 "3 x 3 (1)" — 4z − (N+W+E+S), NoData ->
    centre, _LAPLACIAN_TAPS term order."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
{_m_replace_cte()},
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             ELSE m7 * -1.0 + m5 * -1.0 + v * 4.0 + m1 * -1.0 + m3 * -1.0
        END AS f FROM m)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def line_detection_sql(rows: int = 256, cols: int = 256) -> str:
    """FilterLineDetection.java:219-220 "vertical" — |weighted sum|,
    NoData -> centre, row-major _LINE_V_TAPS order."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
{_m_replace_cte()},
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             ELSE abs(m6 * -1.0 + m7 * 2.0 + m0 * -1.0 + m5 * -1.0
                      + v * 2.0 + m1 * -1.0 + m4 * -1.0 + m3 * 2.0
                      + m2 * -1.0) END AS f FROM m)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def highpass_sql(rows: int = 256, cols: int = 256) -> str:
    """FilterHighPass.java:268-290 (3×3 square) — z − mean(valid window
    samples, centre included, off-grid/NoData excluded); accumulation in
    the kernel's row-major order NW,N,NE,W,C,E,SW,S,SE."""
    order = ["n6", "n7", "n0", "n5", "v", "n1", "n4", "n3", "n2"]
    n_expr = " + ".join(
        f"CASE WHEN {t} <> {_NOD} THEN 1.0 ELSE 0.0 END" for t in order)
    s_expr = " + ".join(
        f"CASE WHEN {t} <> {_NOD} THEN {t} ELSE 0.0 END" for t in order)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
acc AS (SELECT cell, v,
  {n_expr} AS n,
  {s_expr} AS s
FROM nb),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             WHEN n > 0 THEN v - s / n ELSE {_NOD} END AS f FROM acc)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def conservative_smoothing_sql(rows: int = 256, cols: int = 256) -> str:
    """FilterConservativeSmoothing.java:256-280 — clamp centre to the
    [min, max] of valid DIAGONAL neighbours (the literal
    `x != col && y != row` guard), min/max initialised to
    Double.MAX_VALUE / Double.MIN_VALUE exactly as the reference."""
    diag = ["n6", "n0", "n4", "n2"]  # kernel loop order (-1,-1)(-1,1)(1,-1)(1,1)
    minv = ", ".join(
        [f"CASE WHEN {t} <> {_NOD} THEN {t} ELSE 1.7976931348623157e308 END"
         for t in diag])
    maxv = ", ".join(
        [f"CASE WHEN {t} <> {_NOD} THEN {t} ELSE 5e-324 END" for t in diag])
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
mm AS (SELECT cell, v,
  LEAST({minv}, 1.7976931348623157e308) AS minv,
  GREATEST({maxv}, 5e-324) AS maxv
FROM nb),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             WHEN v > maxv THEN maxv
             WHEN v < minv THEN minv
             ELSE v END AS f FROM mm)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def gaussian_filter_sql(rows: int = 256, cols: int = 256,
                        sigma: float = 0.75) -> str:
    """FilterGaussian.java:219-274 mirror, including the off-centre
    midPoint quirk — generic shifted-tap window over the cell ordering;
    weighted mean over valid samples, accumulated in the kernel's
    row-major tap order."""
    from .stages.raster_stats import gaussian_taps
    taps, _ = gaussian_taps(sigma)
    tap_cols = []
    for i, (dy, dx, _w) in enumerate(taps):
        shift = dy * cols + dx
        if shift > 0:
            expr = f"LEAD(v, {shift}) OVER w"
        elif shift < 0:
            expr = f"LAG(v, {-shift}) OVER w"
        else:
            expr = "v"
        guard = (f"r + ({dy}) BETWEEN 0 AND {rows - 1} "
                 f"AND c + ({dx}) BETWEEN 0 AND {cols - 1}")
        tap_cols.append(f"CASE WHEN {guard} THEN {expr} ELSE {_NOD} END "
                        f"AS t{i}")
    # weights MUST carry an exponent: DuckDB parses plain decimal
    # literals as DECIMAL and its int128->double path rounds differently
    # than IEEE parse for >15-digit significands (measured 1-ulp product
    # drift); %.17e keeps them DOUBLE and bit-exact.
    den = " + ".join(
        f"CASE WHEN t{i} <> {_NOD} THEN {w:.17e} ELSE 0.0 END"
        for i, (_dy, _dx, w) in enumerate(taps))
    num = " + ".join(
        f"CASE WHEN t{i} <> {_NOD} THEN {w:.17e} * t{i} ELSE 0.0 END"
        for i, (_dy, _dx, w) in enumerate(taps))
    tap_sql = ",\n  ".join(tap_cols)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM vals),
tp AS (SELECT cell, v,
  {tap_sql}
FROM g WINDOW w AS (ORDER BY cell)),
acc AS (SELECT cell, v, {den} AS den, {num} AS num FROM tp),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             WHEN den > 0.0 THEN num / den ELSE {_NOD} END AS f FROM acc)
{_row_int_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def _row_int_checksum_select(cols: int, value_expr: str = "f",
                             scale: float = 1000.0) -> str:
    """Integer row checksum matching raster.raster_row_int_checksums."""
    return f"""
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN {value_expr} <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       CAST(SUM(CASE WHEN {value_expr} = {_NOD} THEN 0
                ELSE CAST(floor({value_expr} * {scale!r} + 0.5) AS BIGINT)
           END) AS BIGINT) AS row_isum
"""


def _valid_stats_cte() -> str:
    return (f"st AS (SELECT min(v) AS lo, max(v) AS hi, "
            f"CAST(count(*) AS BIGINT) AS n FROM vals WHERE v <> {_NOD})")


def percentage_stretch_sql(rows: int = 256, cols: int = 256,
                           clip: float = 1.0, num_bins: int = 1024) -> str:
    """PercentageContrastStretch.java:195-296 mirror (tails="both"):
    dense integer-bin cumulative-percent histogram, interpolated clip
    values, (int)-before-scale remap. Interpolation arithmetic follows
    the reference's term order; integer row checksum (the remapped
    values are k·scale doubles, so float SUM order would drift)."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_valid_stats_cte()},
prm AS (SELECT lo, hi, n, CAST(trunc(hi - lo + 1) AS BIGINT) AS nb FROM st),
hist AS (
  SELECT LEAST(GREATEST(CAST(trunc(v - (SELECT lo FROM prm)) AS BIGINT), 0),
               (SELECT nb FROM prm) - 1) AS bin,
         CAST(count(*) AS DOUBLE) AS c
  FROM vals WHERE v <> {_NOD} GROUP BY 1),
dense AS (
  SELECT i AS bin, COALESCE(h.c, 0.0) AS c
  FROM range(0, 1000000) t(i) LEFT JOIN hist h ON h.bin = i
  WHERE i < (SELECT nb FROM prm)),
cum AS (SELECT bin, SUM(c) OVER (ORDER BY bin) AS cc FROM dense),
pct AS (SELECT bin, cc / (SELECT SUM(c) FROM dense) * 100.0 AS p FROM cum),
lo_x AS (
  SELECT (bin - 1 + (SELECT lo FROM prm))
         + ({clip!r} - lag_p) / (p - lag_p) AS minv
  FROM (SELECT bin, p, LAG(p) OVER (ORDER BY bin) AS lag_p FROM pct)
  WHERE bin >= 1 AND p >= {clip!r} ORDER BY bin LIMIT 1),
hi_x AS (
  SELECT (bin - 1 + (SELECT lo FROM prm))
         + ((100.0 - {clip!r}) - lag_p) / (p - lag_p) AS maxv
  FROM (SELECT bin, p, LAG(p) OVER (ORDER BY bin) AS lag_p FROM pct)
  WHERE bin >= 1 AND p >= 100.0 - {clip!r} ORDER BY bin LIMIT 1),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             ELSE LEAST(GREATEST(
                 trunc(v - (SELECT minv FROM lo_x))
                 * ({num_bins} / ((SELECT maxv FROM hi_x)
                                  - (SELECT minv FROM lo_x))), 0.0),
                 {float(num_bins - 1)!r}) END AS f
        FROM vals)
{_row_int_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def gaussian_stretch_sql(rows: int = 256, cols: int = 256,
                         cutoffs: float = 3.0, num_out_bins: int = 255,
                         num_bins: int = 50000) -> str:
    """GaussianStretch.java:184-325 mirror. The 255-entry reference CDF
    is embedded as literals computed by the stage's own
    gaussian_stretch_ref_cdf (it is a pure constant of the parameters;
    recomputing exp() in SQL risks libm ulp drift), so the
    refCDF ≤ pVal comparisons use bit-identical doubles."""
    from .stages.raster_stats import gaussian_stretch_ref_cdf
    ref = gaussian_stretch_ref_cdf(cutoffs, num_out_bins)
    ref_rows = ", ".join(f"({i}, {w:.17e})" for i, w in enumerate(ref))
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_valid_stats_cte()},
prm AS (SELECT lo, hi, n, (hi - lo) / {num_bins} AS bs FROM st),
bins AS (SELECT cell, v,
         CASE WHEN v = {_NOD} THEN NULL
              ELSE LEAST(CAST(trunc((v - (SELECT lo FROM prm))
                                    / (SELECT bs FROM prm)) AS BIGINT),
                         {num_bins - 1}) END AS b
         FROM vals),
hist AS (SELECT b, CAST(count(*) AS BIGINT) AS c FROM bins
         WHERE b IS NOT NULL GROUP BY b),
cdf AS (SELECT b,
        CAST(SUM(c) OVER (ORDER BY b) AS DOUBLE)
            / (SELECT CAST(n AS DOUBLE) FROM prm) AS p
        FROM hist),
ref(i, rc) AS (VALUES {ref_rows}),
lut AS (SELECT cdf.b,
        GREATEST((SELECT count(*) FROM ref WHERE ref.rc <= cdf.p) - 1, 0)
            AS xv
        FROM cdf),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             ELSE (SELECT CAST(xv AS DOUBLE) FROM lut WHERE lut.b = bins.b)
        END AS f
        FROM bins)
{_row_int_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def image_global_stats_sql(rows: int = 256, cols: int = 256) -> str:
    """ImageAverage/Total/StandardDeviation/NumberOfGridCells mirror —
    one-pass moments with the stage's exact derivation order."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
m AS (SELECT CAST(count(*) AS DOUBLE) AS n, SUM(v) AS s, SUM(v * v) AS s2
      FROM vals WHERE v <> {_NOD})
SELECT CAST(n AS BIGINT) AS n_cells,
       round(s, 3) AS total,
       round(s / n, 6) AS average,
       round(sqrt((s2 - s * s / n) / (n - 1)), 4) AS stdev
FROM m
"""


def _tap_mean_exprs(taps, rows: int, cols: int, pfx: str):
    """Shifted-window tap columns + valid-weighted num/den expressions
    (the FilterGaussian/LoG/DoG apply plan) accumulated in tap order."""
    tap_cols = []
    for i, (dy, dx, _w) in enumerate(taps):
        shift = dy * cols + dx
        if shift > 0:
            expr = f"LEAD(v, {shift}) OVER w"
        elif shift < 0:
            expr = f"LAG(v, {-shift}) OVER w"
        else:
            expr = "v"
        guard = (f"r + ({dy}) BETWEEN 0 AND {rows - 1} "
                 f"AND c + ({dx}) BETWEEN 0 AND {cols - 1}")
        tap_cols.append(f"CASE WHEN {guard} THEN {expr} ELSE {_NOD} END "
                        f"AS {pfx}{i}")
    from .stages.raster_stats import TAP_CHUNK
    den_terms = [
        f"CASE WHEN {pfx}{i} <> {_NOD} THEN {w:.17e} ELSE 0.0 END"
        for i, (_dy, _dx, w) in enumerate(taps)]
    num_terms = [
        f"CASE WHEN {pfx}{i} <> {_NOD} THEN {w:.17e} * {pfx}{i} ELSE 0.0 END"
        for i, (_dy, _dx, w) in enumerate(taps)]

    def chunked(terms):
        # parenthesized TAP_CHUNK-term groups: keeps the binder depth
        # under DuckDB's 128 cap; the stage kernel accumulates in the
        # same chunked association order
        groups = [" + ".join(terms[i:i + TAP_CHUNK])
                  for i in range(0, len(terms), TAP_CHUNK)]
        if len(groups) == 1:
            return groups[0]
        return " + ".join(f"({g})" for g in groups)

    return tap_cols, chunked(den_terms), chunked(num_terms)


def log_filter_sql(rows: int = 256, cols: int = 256,
                   sigma: float = 0.75) -> str:
    """FilterLoG.java:219-287 mirror — centred LoG taps, valid-weighted
    mean (zFinal/sumOfWeights)."""
    from .stages.raster_stats import log_taps
    taps, _ = log_taps(sigma)
    tap_cols, den, num = _tap_mean_exprs(taps, rows, cols, "t")
    tap_sql = ",\n  ".join(tap_cols)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM vals),
tp AS (SELECT cell, v,
  {tap_sql}
FROM g WINDOW w AS (ORDER BY cell)),
acc AS (SELECT cell, v, {den} AS den, {num} AS num FROM tp),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             ELSE num / den END AS f FROM acc)
{_row_int_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def dog_filter_sql(rows: int = 256, cols: int = 256,
                   sigma1: float = 0.75, sigma2: float = 1.5) -> str:
    """FilterDoG.java:239-345 mirror — difference of the two off-centre
    gaussian valid-weighted means."""
    from .stages.raster_stats import gaussian_taps
    taps1, _ = gaussian_taps(sigma1)
    taps2, _ = gaussian_taps(sigma2)
    c1, d1, n1 = _tap_mean_exprs(taps1, rows, cols, "a")
    c2, d2, n2 = _tap_mean_exprs(taps2, rows, cols, "b")
    tap_sql = ",\n  ".join(c1 + c2)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM vals),
tp AS (SELECT cell, v,
  {tap_sql}
FROM g WINDOW w AS (ORDER BY cell)),
acc AS (SELECT cell, v, {d1} AS den1, {n1} AS num1,
                        {d2} AS den2, {n2} AS num2 FROM tp),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             ELSE num1 / den1 - num2 / den2 END AS f FROM acc)
{_row_int_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def edge_preserving_sql(rows: int = 256, cols: int = 256,
                        sigma_d: float = 0.75,
                        sigma_i: float = 50.0) -> str:
    """FilterEdgePreservingSmoothing.java:234-299 mirror — bilateral
    weights with the literal (wI·zN)/sum per-term division, accumulated
    in tap order (chunked identically to the stage kernel)."""
    import math as _math

    from .stages.raster_stats import TAP_CHUNK, gaussian_taps
    taps, _ = gaussian_taps(sigma_d)
    recip_i = 1.0 / (_math.sqrt(2.0 * _math.pi) * sigma_i)
    two_i = 2.0 * sigma_i * sigma_i
    tap_cols = []
    for i, (dy, dx, _w) in enumerate(taps):
        shift = dy * cols + dx
        expr = (f"LEAD(v, {shift}) OVER w" if shift > 0
                else f"LAG(v, {-shift}) OVER w" if shift < 0 else "v")
        guard = (f"r + ({dy}) BETWEEN 0 AND {rows - 1} "
                 f"AND c + ({dx}) BETWEEN 0 AND {cols - 1}")
        tap_cols.append(f"CASE WHEN {guard} THEN {expr} ELSE {_NOD} END "
                        f"AS t{i}")
    w_cols = []
    for i, (_dy, _dx, wd) in enumerate(taps):
        w_cols.append(
            f"CASE WHEN t{i} <> {_NOD} THEN {wd:.17e} * ({recip_i:.17e} * "
            f"exp(-1 * ((t{i} - v) * (t{i} - v)) / {two_i:.17e})) "
            f"ELSE 0.0 END AS w{i}")

    def chunked(terms):
        groups = [" + ".join(terms[i:i + TAP_CHUNK])
                  for i in range(0, len(terms), TAP_CHUNK)]
        return groups[0] if len(groups) == 1 else \
            " + ".join(f"({g})" for g in groups)

    wsum = chunked([f"w{i}" for i in range(len(taps))])
    zfin = chunked([
        f"CASE WHEN t{i} <> {_NOD} THEN (w{i} * t{i}) / ws ELSE 0.0 END"
        for i in range(len(taps))])
    tap_sql = ",\n  ".join(tap_cols)
    w_sql = ",\n  ".join(w_cols)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM vals),
tp AS (SELECT cell, v,
  {tap_sql}
FROM g WINDOW w AS (ORDER BY cell)),
ws AS (SELECT cell, v, *,
  {w_sql}
FROM tp),
acc AS (SELECT cell, v, {wsum} AS ws FROM ws),
fin AS (SELECT ws.cell, ws.v, {zfin} AS zf
        FROM ws JOIN acc ON acc.cell = ws.cell),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v ELSE zf END AS f FROM fin)
{_row_int_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def adaptive_filter_sql(rows: int = 256, cols: int = 256,
                        threshold: float = 2.0) -> str:
    """FilterAdaptive.java mirror — 9-tap moments under the literal
    absolute `(x != 1) && (y != 1)` guard, population-σ swap rule,
    n ≤ 2 → NoData."""
    taps = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    tap_cols, incs = [], []
    for i, (dy, dx) in enumerate(taps):
        shift = dy * cols + dx
        expr = (f"LEAD(v, {shift}) OVER w" if shift > 0
                else f"LAG(v, {-shift}) OVER w" if shift < 0 else "v")
        guard = (f"r + ({dy}) BETWEEN 0 AND {rows - 1} "
                 f"AND c + ({dx}) BETWEEN 0 AND {cols - 1}")
        tap_cols.append(f"CASE WHEN {guard} THEN {expr} ELSE {_NOD} END "
                        f"AS t{i}")
        incs.append(f"CASE WHEN t{i} <> {_NOD} AND c + ({dx}) <> 1 "
                    f"AND r + ({dy}) <> 1 THEN 1.0 ELSE 0.0 END AS i{i}")
    n = " + ".join(f"i{j}" for j in range(9))
    s = " + ".join(f"i{j} * t{j}" for j in range(9))
    s2 = " + ".join(f"i{j} * t{j} * t{j}" for j in range(9))
    tap_sql = ",\n  ".join(tap_cols)
    inc_sql = ",\n  ".join(incs)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM vals),
tp AS (SELECT cell, r, c, v,
  {tap_sql}
FROM g WINDOW w AS (ORDER BY cell)),
inc AS (SELECT cell, r, c, v, *,
  {inc_sql}
FROM tp),
mom AS (SELECT cell, v, {n} AS n, {s} AS s, {s2} AS s2 FROM inc),
stat AS (SELECT cell, v, n, s / n AS avg,
         CASE WHEN (s2 / n) - (s / n) * (s / n) > 0
              THEN sqrt((s2 / n) - (s / n) * (s / n))
              ELSE (s2 / n) - (s / n) * (s / n) END AS sd
         FROM mom),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} OR n <= 2 THEN {_NOD}
             WHEN abs((v - avg) / sd) > {threshold!r} THEN avg
             ELSE v END AS f FROM stat)
{_row_int_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def _class_vals_cte(rows: int = 256, cols: int = 256) -> str:
    """Class band: floor(v/100) with NoData preserved (mirrors
    raster.synth_class_value)."""
    n = rows * cols
    return (f"vals AS (SELECT i AS cell, "
            f"CASE WHEN ((i * 2246822519 + 1013904223) % 4294967296) % 17 = 0 "
            f"THEN {_NOD} "
            f"ELSE floor(((i * 2654435761) % 4294967296) / 4294967296.0 "
            f"* 1000.0 / 100.0) END AS v "
            f"FROM range(0, {n}) t(i))")


def set_nodata_sql(rows: int = 256, cols: int = 256,
                   background: float = 0.0) -> str:
    return f"""
WITH {_class_vals_cte(rows, cols)},
res AS (SELECT cell,
        CASE WHEN v = {background!r} THEN {_NOD} ELSE v END AS f FROM vals)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def convert_nodata_to_zero_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH {_raster_vals_cte(rows, cols)},
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN 0.0 ELSE v END AS f FROM vals)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def assign_row_numbers_sql(rows: int = 256, cols: int = 256) -> str:
    return f"""
WITH c AS (SELECT i AS cell, CAST(i // {cols} AS DOUBLE) AS f
           FROM range(0, {rows * cols}) t(i))
{_row_checksum_select(cols)}
FROM c GROUP BY cell // {cols}
"""


def new_raster_from_base_sql(rows: int = 256, cols: int = 256,
                             initial: float = 7.5) -> str:
    return f"""
WITH c AS (SELECT i AS cell, {initial!r} AS f FROM range(0, {rows * cols}) t(i))
{_row_checksum_select(cols)}
FROM c GROUP BY cell // {cols}
"""


def reclass_from_file_sql(rows: int = 256, cols: int = 256) -> str:
    from .stages.raster_stats import RECLASS_RANGES
    whens = "\n             ".join(
        f"WHEN v >= {lo!r} AND v < {hi!r} THEN {new!r}"
        for new, lo, hi in RECLASS_RANGES)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             {whens}
             ELSE v END AS f FROM vals)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def fd8_pointer_sql(rows: int = 256, cols: int = 256) -> str:
    """FlowPointerFD8.java:205-219 mirror — bitmask of all lower
    neighbours."""
    terms = " + ".join(
        f"CASE WHEN n{i} <> {_NOD} AND n{i} < v THEN {float(1 << i)!r} "
        f"ELSE 0.0 END" for i in range(8))
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v ELSE {terms} END AS f FROM nb)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def rho8_pointer_sql(rows: int = 256, cols: int = 256) -> str:
    """FlowPointerRho8.java:210-262 mirror with the stage's seeded
    per-(cell, direction) uniform replacing the sequential Random
    stream; strict-> running max == first-index-of-max over the
    direction scan."""
    slopes = []
    for i in range(8):
        if i % 2 == 1:
            expr = f"v - n{i}"
        else:
            u = (f"(((cell * 8 + {i}) * 2654435761 + 40503) % 4294967296) "
                 f"/ 4294967296.0")
            expr = f"1.0 / (2.0 - {u}) * (v - n{i})"
        slopes.append(f"CASE WHEN n{i} <> {_NOD} THEN {expr} END AS s{i}")
    slope_sql = ",\n  ".join(slopes)
    best = "greatest(" + ", ".join(
        f"coalesce(s{i}, -99999999.0)" for i in range(8)) + ")"
    first = "CASE " + " ".join(
        f"WHEN s{i} IS NOT NULL AND s{i} = ms THEN {float(1 << i)!r}"
        for i in range(8)) + " END"
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
sl AS (SELECT cell, v,
  {slope_sql}
FROM nb),
mx AS (SELECT cell, v, {best} AS ms,
  s0, s1, s2, s3, s4, s5, s6, s7 FROM sl),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN {_NOD}
             WHEN ms > 0 THEN {first}
             ELSE 0.0 END AS f FROM mx)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def num_neighbours_sql(rows: int = 256, cols: int = 256,
                       upslope: bool = False) -> str:
    """Num(Down|Up)slopeNeighbours.java mirror."""
    op = ">" if upslope else "<"
    terms = " + ".join(
        f"CASE WHEN n{i} <> {_NOD} AND n{i} {op} v THEN 1.0 ELSE 0.0 END"
        for i in range(8))
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v ELSE {terms} END AS f FROM nb)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def max_downslope_change_sql(rows: int = 256, cols: int = 256) -> str:
    """MaxDownslopeElevationChange.java:238-266 mirror — z-drop at the
    first strict-max slope in direction order."""
    sqrt2 = repr(math.sqrt(2.0))
    dists = [sqrt2 if i % 2 == 0 else "1.0" for i in range(8)]
    slopes = ",\n  ".join(
        f"CASE WHEN n{i} <> {_NOD} THEN (v - n{i}) / {dists[i]} END AS s{i}"
        for i in range(8))
    best = "greatest(" + ", ".join(
        f"coalesce(s{i}, -99999999.0)" for i in range(8)) + ")"
    zchg = "CASE " + " ".join(
        f"WHEN s{i} IS NOT NULL AND s{i} = ms THEN v - n{i}"
        for i in range(8)) + " END"
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
sl AS (SELECT cell, v, n0, n1, n2, n3, n4, n5, n6, n7,
  {slopes}
FROM nb),
mx AS (SELECT cell, v, {best} AS ms,
  n0, n1, n2, n3, n4, n5, n6, n7,
  s0, s1, s2, s3, s4, s5, s6, s7 FROM sl),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN {_NOD}
             WHEN ms > 0 THEN {zchg}
             ELSE 0.0 END AS f FROM mx)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def patch_edge_cells_sql(rows: int = 256, cols: int = 256) -> str:
    """FindPatchOrClassEdgeCells.java:197-211 mirror over the class
    band (off-grid neighbour = NoData ≠ z → border cells are edges)."""
    differs = " OR ".join(f"n{i} <> v" for i in range(8))
    return f"""
WITH {_class_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v
             WHEN v <> 0.0 AND ({differs}) THEN v
             ELSE 0.0 END AS f FROM nb)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def local_contrast_sql(rows: int = 256, cols: int = 256,
                       alpha: float = 0.5,
                       predefined_std: float = 40.0) -> str:
    """FilterLocalContrastEnhancement.java:303-331 mirror, including the
    literal last-tap bug: the (z − average) term reads the SE
    neighbour's RAW value (n2 — NoData sentinel included)."""
    order = ["n6", "n7", "n0", "n5", "v", "n1", "n4", "n3", "n2"]
    n_expr = " + ".join(
        f"CASE WHEN {t} <> {_NOD} THEN 1.0 ELSE 0.0 END" for t in order)
    s_expr = " + ".join(
        f"CASE WHEN {t} <> {_NOD} THEN {t} ELSE 0.0 END" for t in order)
    s2_expr = " + ".join(
        f"CASE WHEN {t} <> {_NOD} THEN {t} * {t} ELSE 0.0 END"
        for t in order)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
gm AS (SELECT SUM(v) / COUNT(v) AS gmean FROM vals WHERE v <> {_NOD}),
acc AS (SELECT cell, v, n2 AS zlast,
  {n_expr} AS n, {s_expr} AS s, {s2_expr} AS s2
FROM nb),
st AS (SELECT cell, v, zlast, n, s / n AS avg,
       (s2 / n) - (s / n) * (s / n) AS var FROM acc),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} OR n <= 2 OR var <= 0 THEN {_NOD}
             ELSE ({alpha!r} * (SELECT gmean FROM gm))
                  + ((1.0 - {alpha!r}) * avg)
                  + (zlast - avg) * ({predefined_std!r} / (sqrt(var) + 1.0))
        END AS f FROM st)
{_row_int_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def raster_buffer_sql(rows: int = 256, cols: int = 256,
                      d: float = 10.0) -> str:
    """Buffer (raster) mirror: count of cells with exact integer
    d² ≤ d·d per row, over the same target lattice as the EDT."""
    n = rows * cols
    return f"""
WITH tgt AS (
  SELECT cell // {cols} AS tr, cell % {cols} AS tc
  FROM range(0, {n}) t(cell)
  WHERE ((cell * 2654435761 + 77) % 4294967296) % 251 = 0),
g AS (SELECT i AS cell, i // {cols} AS r, i % {cols} AS c
      FROM range(0, {n}) q(i)),
d AS (SELECT g.cell,
             MIN((g.r - tgt.tr) * (g.r - tgt.tr)
                 + (g.c - tgt.tc) * (g.c - tgt.tc)) AS d2
      FROM g CROSS JOIN tgt GROUP BY g.cell)
SELECT cell // {cols} AS row_id,
       CAST({cols} AS BIGINT) AS n_valid,
       CAST(SUM(CASE WHEN d2 <= {int(d) * int(d)} THEN 1 ELSE 0 END)
            AS BIGINT) AS n_buffer
FROM d GROUP BY cell // {cols}
"""


def min_downslope_change_sql(rows: int = 256, cols: int = 256) -> str:
    """MinDownslopeElevationChange.java mirror — reflected (edge-
    replicated) 3×3 reads resolved per tap as a CASE over the standard
    neighbour columns (clamping row/col independently maps every
    boundary read onto v or another n_i), slope ≥ 0 strict-< first-wins
    running min."""
    sqrt2 = repr(math.sqrt(2.0))
    dists = [sqrt2 if i % 2 == 0 else "1.0" for i in range(8)]
    dirs = [(1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1),
            (0, -1)]
    idx_of = {d: i for i, d in enumerate(dirs)}

    def nb_expr(dx: int, dy: int) -> str:
        return "v" if (dx, dy) == (0, 0) else f"n{idx_of[(dx, dy)]}"

    tap_cols = []
    for i, (dx, dy) in enumerate(dirs):
        edge_r = (f"(r + ({dy}) < 0 OR r + ({dy}) > {rows - 1})"
                  if dy != 0 else "FALSE")
        edge_c = (f"(c + ({dx}) < 0 OR c + ({dx}) > {cols - 1})"
                  if dx != 0 else "FALSE")
        tap_cols.append(
            f"CASE WHEN {edge_r} AND {edge_c} THEN v "
            f"WHEN {edge_r} THEN {nb_expr(dx, 0)} "
            f"WHEN {edge_c} THEN {nb_expr(0, dy)} "
            f"ELSE {nb_expr(dx, dy)} END AS v{i}")
    tap_sql = ",\n  ".join(tap_cols)
    s_exprs = ",\n  ".join(
        f"CASE WHEN v{i} <> {_NOD} AND (v - v{i}) / {dists[i]} >= 0 "
        f"THEN (v - v{i}) / {dists[i]} END AS s{i}" for i in range(8))
    best = "least(" + ", ".join(
        f"coalesce(s{i}, 99999999.0)" for i in range(8)) + ")"
    zchg = "CASE " + " ".join(
        f"WHEN s{i} IS NOT NULL AND s{i} = ms THEN v - v{i}"
        for i in range(8)) + " END"
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
piv AS (SELECT cell, v,
  {tap_sql}
FROM nb),
sl AS (SELECT cell, v, v0, v1, v2, v3, v4, v5, v6, v7,
  {s_exprs}
FROM piv),
mx AS (SELECT cell, v, {best} AS ms,
  v0, v1, v2, v3, v4, v5, v6, v7,
  s0, s1, s2, s3, s4, s5, s6, s7 FROM sl),
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN {_NOD}
             WHEN ms < 99999999.0 THEN {zchg}
             ELSE 0.0 END AS f FROM mx)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def test_for_normality_sql(rows: int = 256, cols: int = 256,
                           num_bins: int = 10000) -> str:
    """TestForNormality.java:238-377 mirror — same two-pass deviation,
    histogram CDF vs discretized normal CDF, Dmax, p-value."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
st AS (SELECT min(v) AS lo, max(v) AS hi,
              CAST(count(*) AS DOUBLE) AS n, SUM(v) / count(*) AS mean
       FROM vals WHERE v <> {_NOD}),
dev AS (SELECT SUM((v - (SELECT mean FROM st))
                   * (v - (SELECT mean FROM st))) AS td
        FROM vals WHERE v <> {_NOD}),
prm AS (SELECT lo, hi, n, mean,
               sqrt((SELECT td FROM dev) / (n - 1)) AS sd,
               (hi - lo) / {num_bins} AS bs FROM st),
bins AS (SELECT LEAST(CAST(trunc((v - (SELECT lo FROM prm))
                                 / (SELECT bs FROM prm)) AS BIGINT),
                      {num_bins - 1}) AS b
         FROM vals WHERE v <> {_NOD}),
hist AS (SELECT i AS b, COALESCE(h.c, 0) AS c
         FROM range(0, {num_bins}) t(i)
         LEFT JOIN (SELECT b, count(*) AS c FROM bins GROUP BY b) h
           ON h.b = i),
cdf AS (SELECT b,
        CAST(SUM(c) OVER (ORDER BY b) AS DOUBLE)
            / (SELECT n FROM prm) AS p
        FROM hist),
nrm AS (SELECT b,
        1.0 / ((SELECT sd FROM prm) * sqrt(2 * pi()))
        * exp((-((SELECT lo FROM prm) + b * (SELECT bs FROM prm)
                 - (SELECT mean FROM prm))
               * ((SELECT lo FROM prm) + b * (SELECT bs FROM prm)
                  - (SELECT mean FROM prm)))
              / (2 * (SELECT sd FROM prm) * (SELECT sd FROM prm))) AS pdf
        FROM hist),
ncdf AS (SELECT b, SUM(pdf) OVER (ORDER BY b) AS cp FROM nrm),
norm AS (SELECT b, cp / (SELECT MAX(cp) FROM ncdf) AS np_ FROM ncdf),
dmax AS (SELECT MAX(abs(cdf.p - norm.np_)) AS d
         FROM cdf JOIN norm ON norm.b = cdf.b)
SELECT CAST((SELECT n FROM prm) AS BIGINT) AS n,
       round((SELECT d FROM dmax), 5) AS dmax,
       round(2.0 * exp(-(2.000071 + 0.331 / sqrt((SELECT n FROM prm))
                         + 1.409 / (SELECT n FROM prm))
                       * ((SELECT n FROM prm) * (SELECT d FROM dmax)
                          * (SELECT d FROM dmax))), 5) AS p_value
"""


def radiation_on_slope_sql(rows: int = 256, cols: int = 256) -> str:
    """RadiationOnSlope.groovy:160-218 mirror over the bit-faithful
    slope/aspect expressions. Day/atmosphere constants are computed in
    Python (pure parameter functions) and embedded as literals; cells
    with no sunrise/sunset solution (|−tan(eqLat)·tan(dec)| > 1, the
    groovy's NaNs) are NoData on both engines."""
    from .stages.terrain import RAD_PARAMS, _RAD2DEG
    prm = RAD_PARAMS
    lat = prm["latitude"]
    w = 0.2618
    wp = 1.12 * math.exp(0.0614 * prm["dew_point"])
    tsa = math.exp((-0.124 - 0.0207 * wp)
                   + (-0.0682 - 0.0248 * wp) * prm["opt_air_mass"])
    t = tsa - prm["y_dust"]
    day_angle = 2.0 * math.pi * (prm["julian_day"] - 1) / 365.0
    eo = 1.000110 + 0.034221 * math.cos(day_angle) \
        + 0.001280 * math.sin(day_angle) \
        + 0.000719 * math.cos(2 * day_angle) \
        + 0.000077 * math.sin(2 * day_angle)
    dec = (0.006918 - 0.399912 * math.cos(day_angle)
           + 0.070257 * math.sin(day_angle)
           - 0.006758 * math.cos(2 * day_angle)
           + (0.000907 * math.cos(3 * day_angle)
              + 0.00148 * math.sin(3 * day_angle)))
    ts = math.exp((-0.0363 - 0.0084 * wp)
                  + (-0.0572 - 0.0173 * wp) * prm["opt_air_mass"])
    ys = 1.0 - ts + prm["y_dust"]
    thr = -math.acos(-math.tan(dec) * math.tan(lat)) / w
    ths = math.acos(-math.tan(dec) * math.tan(lat)) / w
    tan_dec = math.tan(dec)
    cos_lat = math.cos(lat)
    sin_lat = math.sin(lat)
    cos_dec = math.cos(dec)
    sin_dec = math.sin(dec)
    isc_eo = f"(4.921 * {eo:.17e})"
    deg2rad = repr(math.pi / 180.0)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
{_horn_gradients()},
sa AS (SELECT cell, v,
  CAST(CAST(atan(sqrt(fx*fx + fy*fy)) * {_RAD2DEG} AS REAL) AS DOUBLE)
      * {deg2rad} AS beta,
  CASE WHEN fx <> 0 THEN CAST(CAST(
      180.0 - atan(fy / fx) * {_RAD2DEG} + 90.0 * sign(fx) AS REAL)
      AS DOUBLE) ELSE -1.0 END * {deg2rad} AS alpha
FROM grad),
geo AS (SELECT cell, v,
  atan(sin(beta) * sin(alpha)
       / (cos(beta) * {cos_lat:.17e}
          - sin(beta) * {sin_lat:.17e} * cos(alpha))) AS eq_slope,
  asin(LEAST(GREATEST(sin(beta) * cos(alpha) * {cos_lat:.17e}
                      + cos(beta) * {sin_lat:.17e}, -1.0), 1.0)) AS eq_lat
FROM sa),
sun AS (SELECT cell, v, eq_slope, eq_lat,
  -tan(eq_lat) * {tan_dec:.17e} AS aarg
FROM geo),
tt AS (SELECT cell, v, eq_slope, eq_lat,
  abs(aarg) > 1.0 AS no_sun,
  GREATEST((-acos(LEAST(GREATEST(aarg, -1.0), 1.0)) - eq_slope) / {w!r},
           {thr:.17e}) AS tsr,
  LEAST((acos(LEAST(GREATEST(aarg, -1.0), 1.0)) - eq_slope) / {w!r},
        {ths:.17e}) AS tss
FROM sun),
rad AS (SELECT cell, v, no_sun,
  {isc_eo} * (cos(eq_lat) * {cos_dec:.17e}
              * ((sin({w!r} * tss + eq_slope)
                  - sin({w!r} * tsr + eq_slope)) / {w!r})
              + sin(eq_lat) * {sin_dec:.17e} * (tss - tsr)) AS ket
FROM tt),
fin AS (SELECT cell, v, no_sun,
  ({t:.17e} * ket + 0.5 * {ys:.17e} * ket) AS kg
FROM rad),
res AS (SELECT cell,
  CASE WHEN v = {_NOD} OR no_sun THEN {_NOD}
       ELSE 11.575 * (kg + 0.5 * {ys:.17e} * {prm["albedo"]!r} * kg)
  END AS f FROM fin)
{_row_int_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def bce_sql(rows: int = 256, cols: int = 256, e_target: int = 100) -> str:
    """BalanceContrastEnhancement.java:240-365 mirror over the synthetic
    packed composite (r = trunc(v·0.255), g = trunc(v)%256,
    b = cell%256, signed int32 packing). Integer channel stats make the
    parabola coefficients bit-identical."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
comp AS (SELECT cell, v,
  CASE WHEN v = {_NOD} THEN NULL
       ELSE CAST(trunc(v * 0.255) AS BIGINT) END AS r,
  CASE WHEN v = {_NOD} THEN NULL
       ELSE CAST(trunc(v) AS BIGINT) % 256 END AS g,
  CASE WHEN v = {_NOD} THEN NULL ELSE cell % 256 END AS b
FROM vals),
st AS (SELECT CAST(count(r) AS BIGINT) AS n,
  MIN(r) AS rl, MAX(r) AS rh, SUM(r) AS rs, SUM(r*r) AS rq,
  MIN(g) AS gl, MAX(g) AS gh, SUM(g) AS gs, SUM(g*g) AS gq,
  MIN(b) AS bl, MAX(b) AS bh, SUM(b) AS bs, SUM(b*b) AS bq
FROM comp WHERE r IS NOT NULL),
cf AS (SELECT
  (rh*rh*{e_target} - (CAST(rq AS DOUBLE)/n)*255 + rl*rl*(255-{e_target}))
    / (2*(rh*{e_target} - (rs//n)*255 + rl*(255-{e_target}))) AS rb,
  (gh*gh*{e_target} - (CAST(gq AS DOUBLE)/n)*255 + gl*gl*(255-{e_target}))
    / (2*(gh*{e_target} - (gs//n)*255 + gl*(255-{e_target}))) AS gb,
  (bh*bh*{e_target} - (CAST(bq AS DOUBLE)/n)*255 + bl*bl*(255-{e_target}))
    / (2*(bh*{e_target} - (bs//n)*255 + bl*(255-{e_target}))) AS bb,
  rl, rh, gl, gh, bl, bh FROM st),
cf2 AS (SELECT rb, gb, bb,
  255.0 / ((rh - rl) * (rh + rl - 2*rb)) AS ra,
  255.0 / ((gh - gl) * (gh + gl - 2*gb)) AS ga,
  255.0 / ((bh - bl) * (bh + bl - 2*bb)) AS ba,
  rl, gl, bl FROM cf),
cf3 AS (SELECT ra, rb, ga, gb, ba, bb,
  0 - ra * ((rl - rb) * (rl - rb)) AS rc,
  0 - ga * ((gl - gb) * (gl - gb)) AS gc,
  0 - ba * ((bl - bb) * (bl - bb)) AS bc FROM cf2),
rm AS (SELECT c.cell, c.v,
  LEAST(GREATEST(trunc(k.ra * ((c.r - k.rb) * (c.r - k.rb)) + k.rc), 0),
        255) AS ro,
  LEAST(GREATEST(trunc(k.ga * ((c.g - k.gb) * (c.g - k.gb)) + k.gc), 0),
        255) AS go,
  LEAST(GREATEST(trunc(k.ba * ((c.b - k.bb) * (c.b - k.bb)) + k.bc), 0),
        255) AS bo
FROM comp c CROSS JOIN cf3 k),
res AS (SELECT cell,
  CASE WHEN v = {_NOD} THEN v
       ELSE CAST(CAST(
           -16777216 + CAST(bo AS BIGINT) * 65536
           + CAST(go AS BIGINT) * 256 + CAST(ro AS BIGINT)
           AS INTEGER) AS DOUBLE) END AS f
FROM rm)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def dds_sql(rows: int = 256, cols: int = 256, k: float = 0.5) -> str:
    """DirectDecorrelationStretch.java:235-333 mirror over the synthetic
    packed composite."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
comp AS (SELECT cell, v,
  CASE WHEN v = {_NOD} THEN NULL
       ELSE CAST(trunc(v * 0.255) AS BIGINT) END AS r,
  CASE WHEN v = {_NOD} THEN NULL
       ELSE CAST(trunc(v) AS BIGINT) % 256 END AS g,
  CASE WHEN v = {_NOD} THEN NULL ELSE cell % 256 END AS b
FROM vals),
p1 AS (SELECT cell, v,
  LEAST(GREATEST(trunc(r - {k!r} * LEAST(r, g, b)), 0), 255) AS ro,
  LEAST(GREATEST(trunc(g - {k!r} * LEAST(r, g, b)), 0), 255) AS go,
  LEAST(GREATEST(trunc(b - {k!r} * LEAST(r, g, b)), 0), 255) AS bo
FROM comp),
mx AS (SELECT MAX(ro) AS rm, MAX(go) AS gm, MAX(bo) AS bm
       FROM p1 WHERE v <> {_NOD}),
p2 AS (SELECT cell, v,
  LEAST(GREATEST(trunc(ro / (SELECT rm FROM mx) * 255), 0), 255) AS ro,
  LEAST(GREATEST(trunc(go / (SELECT gm FROM mx) * 255), 0), 255) AS go,
  LEAST(GREATEST(trunc(bo / (SELECT bm FROM mx) * 255), 0), 255) AS bo
FROM p1),
res AS (SELECT cell,
  CASE WHEN v = {_NOD} THEN v
       ELSE CAST(CAST(
           -16777216 + CAST(bo AS BIGINT) * 65536
           + CAST(go AS BIGINT) * 256 + CAST(ro AS BIGINT)
           AS INTEGER) AS DOUBLE) END AS f
FROM p2)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def lee_sigma_sql(rows: int = 256, cols: int = 256, sigma: float = 30.0,
                  m: int = 1) -> str:
    """LeeSigmaFilter.groovy:160-196 mirror (±2σ band mean, 3×3 ring
    fallback when n ≤ M, empty ring → NoData)."""
    s2 = sigma * 2.0
    band_n = " + ".join(
        f"CASE WHEN {t} <> {_NOD} AND {t} >= v - {s2!r} AND {t} <= v + {s2!r} "
        f"THEN 1 ELSE 0 END" for t in _WIN9_SQL)
    band_s = " + ".join(
        f"CASE WHEN {t} <> {_NOD} AND {t} >= v - {s2!r} AND {t} <= v + {s2!r} "
        f"THEN {t} ELSE 0.0 END" for t in _WIN9_SQL)
    ring = [t for t in _WIN9_SQL if t != "v"]
    ring_n = " + ".join(f"CASE WHEN {t} <> {_NOD} THEN 1 ELSE 0 END"
                        for t in ring)
    ring_s = " + ".join(f"CASE WHEN {t} <> {_NOD} THEN {t} ELSE 0.0 END"
                        for t in ring)
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
t AS (SELECT cell, v, {band_n} AS n, {band_s} AS s,
             {ring_n} AS n8, {ring_s} AS s8 FROM nb),
res AS (SELECT cell,
  CASE WHEN v = {_NOD} THEN {_NOD}
       WHEN n > {m} THEN s / n
       WHEN n8 > 0 THEN s8 / n8
       ELSE {_NOD} END AS f FROM t)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def intersection_density_sql(radius: float = 150.0,
                             n_lines: int = 15) -> str:
    """IntersectionDensity.groovy mirror — near-vertex gate (squared
    range ≤ r²) + the literal buggy segment-circle test (:451: the y
    term of `a` vanishes; a=0 ∧ b≠0 → NaN root → intersects)."""
    from .stages.rasterize import intersection_density_grid, seeded_polylines
    west, north, rows, cols, cell = intersection_density_grid(n_lines)
    seg_rows, vert_rows = [], []
    for lid, pts in seeded_polylines(n_lines):
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            seg_rows.append(f"({lid}, {x1!r}, {y1!r}, {x2!r}, {y2!r})")
        for (vx, vy) in pts:
            vert_rows.append(f"({lid}, {vx!r}, {vy!r})")
    segs0 = "(VALUES " + ", ".join(seg_rows) + ") AS s0(fid, x1, y1, x2, y2)"
    verts0 = "(VALUES " + ", ".join(vert_rows) + ") AS p0(fid, vx, vy)"
    r2 = radius * radius
    return f"""
WITH s AS (SELECT fid, CAST(x1 AS DOUBLE) x1, CAST(y1 AS DOUBLE) y1,
                  CAST(x2 AS DOUBLE) x2, CAST(y2 AS DOUBLE) y2
           FROM {segs0}),
p AS (SELECT fid, CAST(vx AS DOUBLE) vx, CAST(vy AS DOUBLE) vy
      FROM {verts0}),
cells AS (
  SELECT r, c,
         {west!r} + {cell / 2.0!r} + c * {cell!r} AS x,
         {north!r} - {cell / 2.0!r} - r * {cell!r} AS y
  FROM range(0, {rows}) t(r) CROSS JOIN range(0, {cols}) u(c)),
near AS (
  SELECT DISTINCT cells.r, cells.c, p.fid
  FROM cells JOIN p
    ON (x - vx) * (x - vx) + (y - vy) * (y - vy) <= {r2!r}),
hit AS (
  SELECT near.r, near.c, COUNT(*) AS k
  FROM near JOIN s ON s.fid = near.fid
  JOIN cells ON cells.r = near.r AND cells.c = near.c
  WHERE (
    WITH t AS (SELECT
      (x2 - x1) * (x2 - x1) + (y2 - y1) * (y1 - y1) AS a,
      2.0 * ((x2 - x1) * (x1 - x) + (y2 - y1) * (y1 - y)) AS b,
      x * x + y * y + x1 * x1 + y1 * y1
        - 2.0 * (x * x1 + y * y1) - {r2!r} AS cc)
    SELECT CASE
      WHEN b * b - 4.0 * a * cc <= 0 THEN FALSE
      WHEN a = 0 THEN TRUE
      ELSE NOT (
        (((-b + sqrt(b * b - 4.0 * a * cc)) / (2 * a)) < 0
         OR ((-b + sqrt(b * b - 4.0 * a * cc)) / (2 * a)) > 1)
        AND (((-b - sqrt(b * b - 4.0 * a * cc)) / (2 * a)) < 0
             OR ((-b - sqrt(b * b - 4.0 * a * cc)) / (2 * a)) > 1))
      END FROM t)
  GROUP BY near.r, near.c),
grid AS (SELECT r, COALESCE(SUM(k), 0) AS rs
         FROM cells LEFT JOIN hit USING (r, c) GROUP BY cells.r)
SELECT r AS row_id, CAST({cols} AS BIGINT) AS n_valid,
       CAST(rs AS DOUBLE) AS row_sum
FROM grid ORDER BY row_id
"""


def user_defined_weights_sql(rows: int = 256, cols: int = 256,
                             normalize: bool = True) -> str:
    """FilterUserDefinedWeights.groovy mirror — taps generated from the
    same kernel file parse; valid-tap weighted sum (÷ Σ valid weights
    when normalized), chained in tap order (adding an exact 0.0 for an
    invalid tap is bit-identical to skipping it)."""
    import os
    from .stages.raster_stats import (DEFAULT_KERNEL_TEXT,
                                      parse_kernel_file)
    path = "/tmp/graft_user_kernel.txt"
    if not os.path.exists(path):
        with open(path, "w") as f:
            f.write(DEFAULT_KERNEL_TEXT)
    taps = parse_kernel_file(path)

    def tap_val(dy, dx):
        off = dy * cols + dx
        if off > 0:
            shift = f"LEAD(v, {off}) OVER w"
        elif off < 0:
            shift = f"LAG(v, {-off}) OVER w"
        else:
            shift = "v"
        guards = []
        if dy > 0:
            guards.append(f"r < {rows - dy}")
        if dy < 0:
            guards.append(f"r >= {-dy}")
        if dx > 0:
            guards.append(f"c < {cols - dx}")
        if dx < 0:
            guards.append(f"c >= {-dx}")
        g = " AND ".join(guards) or "TRUE"
        return f"CASE WHEN {g} THEN {shift} ELSE {_NOD} END"

    tot = " + ".join(
        f"CASE WHEN t{i} <> {_NOD} THEN t{i} * {w!r} ELSE 0.0 END"
        for i, (_, _, w) in enumerate(taps))
    tws = " + ".join(
        f"CASE WHEN t{i} <> {_NOD} THEN {w!r} ELSE 0.0 END"
        for i, (_, _, w) in enumerate(taps))
    tap_cols = ",\n  ".join(f"{tap_val(dy, dx)} AS t{i}"
                            for i, (dy, dx, _) in enumerate(taps))
    f_expr = "tot / tw" if normalize else "tot"
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM vals),
nb AS (SELECT cell, v,
  {tap_cols}
FROM g WINDOW w AS (ORDER BY cell)),
t AS (SELECT cell, v, {tot} AS tot, {tws} AS tw FROM nb),
res AS (SELECT cell,
  CASE WHEN v = {_NOD} THEN {_NOD} ELSE {f_expr} END AS f FROM t)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def find_parallel_flow_sql(rows: int = 256, cols: int = 256) -> str:
    """FindParallelFlow.java:232-257 mirror — second neighbour pass over
    the D8 pointer raster; flag when any non-receiver neighbour carries
    the same code and is not inflowing."""
    specs = [
        (f"LAG(f, {cols - 1}) OVER w2", f"r > 0 AND c < {cols - 1}"),
        ("LEAD(f, 1) OVER w2", f"c < {cols - 1}"),
        (f"LEAD(f, {cols + 1}) OVER w2", f"r < {rows - 1} AND c < {cols - 1}"),
        (f"LEAD(f, {cols}) OVER w2", f"r < {rows - 1}"),
        (f"LEAD(f, {cols - 1}) OVER w2", f"r < {rows - 1} AND c > 0"),
        ("LAG(f, 1) OVER w2", "c > 0"),
        (f"LAG(f, {cols + 1}) OVER w2", "r > 0 AND c > 0"),
        (f"LAG(f, {cols}) OVER w2", "r > 0"),
    ]
    nf = ",\n  ".join(
        f"CASE WHEN {guard} THEN {expr} ELSE {_NOD} END AS nf{i}"
        for i, (expr, guard) in enumerate(specs))
    out_vals = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
    in_vals = [16.0, 32.0, 64.0, 128.0, 1.0, 2.0, 4.0, 8.0]
    par = " OR ".join(
        f"(f <> {out_vals[i]!r} AND nf{i} = f AND f <> {in_vals[i]!r})"
        for i in range(8))
    return f"""
WITH {_d8_pointer_ctes(rows, cols)},
pg AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, f FROM res),
pn AS (SELECT cell, r, c, f,
  {nf}
FROM pg WINDOW w2 AS (ORDER BY cell)),
flagged AS (
  SELECT cell, CASE WHEN f = {_NOD} THEN {_NOD}
    WHEN {par} THEN 1.0 ELSE 0.0 END AS f2
  FROM pn)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN f2 <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN f2 = {_NOD} THEN 0.0 ELSE f2 END), 6) AS row_sum
FROM flagged GROUP BY cell // {cols}
"""


def change_data_type_sql(rows: int = 256, cols: int = 256) -> str:
    """ChangeDataType.java:237-247 INTEGER branch mirror."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
mapped AS (
  SELECT cell, CASE WHEN v = {_NOD} THEN v
                    ELSE floor(v + 0.5) END AS v2
  FROM vals)
SELECT cell // {cols} AS row_id,
       CAST(COUNT(CASE WHEN v2 <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN v2 = {_NOD} THEN 0.0 ELSE v2 END), 6) AS row_sum
FROM mapped GROUP BY cell // {cols}
"""


def random_sample_sql(rows: int = 256, cols: int = 256,
                      k: int = 293) -> str:
    """RandomSample.java with the documented deterministic hash
    substitution; samples numbered 1..n in row-major cell order."""
    return f"""
WITH cells AS (SELECT i AS cell FROM range(0, {rows * cols}) t(i)),
samp AS (SELECT cell,
    row_number() OVER (ORDER BY cell) AS sid
  FROM cells WHERE ((cell * 2654435761 + 999331) % 4294967296) % {k} = 0)
SELECT c.cell // {cols} AS row_id,
       CAST(COUNT(s.cell) AS BIGINT) AS n_samples,
       CAST(COALESCE(SUM(s.sid), 0) AS BIGINT) AS sum_sample_id
FROM cells c LEFT JOIN samp s ON s.cell = c.cell
GROUP BY c.cell // {cols}
"""


def mosaic_feathering_sql(rows: int = 256, cols: int = 256,
                          power: float = 2.0) -> str:
    """MosaicWithFeathering.java:420-440 mirror over the hole-free
    base + interior-append layout (closed-form edge distances)."""
    b_r0, b_c0 = 40, 24
    b_r1, b_c1 = rows - 40, cols - 24
    bw = b_c1 - b_c0
    return f"""
WITH cells AS (SELECT i AS cell, i // {cols} AS r, i % {cols} AS c
               FROM range(0, {rows * cols}) t(i)),
v AS (SELECT cell, r, c,
    ((cell * 2654435761) % 4294967296) / 4294967296.0 * 1000.0 AS a,
    (r >= {b_r0} AND r < {b_r1} AND c >= {b_c0} AND c < {b_c1}) AS inb
  FROM cells),
w AS (SELECT r, a, inb,
    CASE WHEN inb THEN
      (((((r - {b_r0}) * {bw} + (c - {b_c0})) * 2246822519 + 12345)
        % 4294967296) / 4294967296.0 * 1000.0) END AS b,
    pow(CAST(LEAST(r, {rows - 1} - r, c, {cols - 1} - c) AS DOUBLE),
        {power!r}) AS w1n,
    CASE WHEN inb THEN
      pow(CAST(LEAST(r - {b_r0}, {b_r1 - 1} - r,
                     c - {b_c0}, {b_c1 - 1} - c) AS DOUBLE), {power!r})
    END AS w2n
  FROM v),
res AS (SELECT r,
    CASE WHEN inb THEN (w1n / (w1n + w2n)) * a + (w2n / (w1n + w2n)) * b
         ELSE a END AS f
  FROM w)
SELECT r AS row_id,
       CAST(COUNT(*) AS BIGINT) AS n_valid,
       round(SUM(f), 6) AS row_sum
FROM res GROUP BY r
"""


def burn_streams_sql(rows: int = 256, cols: int = 256,
                     decrement: float = 10.0, decay: float = 2.0) -> str:
    """BurnStreams.java:447-465 decay-mode mirror (gridRes = 1)."""
    n = rows * cols
    return f"""
WITH tgt AS (
  SELECT cell // {cols} AS tr, cell % {cols} AS tc
  FROM range(0, {n}) t(cell)
  WHERE ((cell * 2654435761 + 77) % 4294967296) % 251 = 0),
g AS (SELECT i AS cell, i // {cols} AS r, i % {cols} AS c
      FROM range(0, {n}) q(i)),
d AS (SELECT g.cell,
             MIN((g.r - tgt.tr) * (g.r - tgt.tr)
                 + (g.c - tgt.tc) * (g.c - tgt.tc)) AS d2
      FROM g CROSS JOIN tgt GROUP BY g.cell),
{_raster_vals_cte(rows, cols)},
res AS (
  SELECT d.cell,
         CASE WHEN v.v = {_NOD} THEN {_NOD}
              ELSE v.v - pow(1.0 / (1.0 + sqrt(CAST(d.d2 AS DOUBLE))),
                             {decay!r}) * {decrement!r}
         END AS f
  FROM d JOIN vals v ON v.cell = d.cell)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def extract_valleys_jr_sql(rows: int = 256, cols: int = 256) -> str:
    """ExtractValleysJohnstonAndRosenfeld.java:196-216 mirror.
    Neighbour indices: n7 = N, n3 = S, n5 = W, n1 = E."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_neighbour_cte(rows, cols)},
res AS (SELECT cell,
  CASE WHEN v = {_NOD} THEN {_NOD}
       WHEN (n7 <> {_NOD} AND n3 <> {_NOD} AND n7 > v AND n3 > v)
         OR (n5 <> {_NOD} AND n1 <> {_NOD} AND n5 > v AND n1 > v)
       THEN 1.0 ELSE 0.0 END AS f
  FROM nb)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def extract_valleys_lq_sql(rows: int = 256, cols: int = 256,
                           filter_size: int = 5) -> str:
    """ExtractValleysLowerQuartile.java:239-267 mirror: z ≤ the
    (n/4+1)-th smallest valid window value (the +∞ fill sorts all
    invalid slots last, so data[n/4] is always a valid value).
    Window values come from LAG/LEAD over the ordered cell stream
    (one sort, no join)."""
    h = filter_size // 2
    exprs = []
    for dy in range(-h, h + 1):
        for dx in range(-h, h + 1):
            off = dy * cols + dx
            if off > 0:
                e = f"LEAD(v, {off}) OVER w"
            elif off < 0:
                e = f"LAG(v, {-off}) OVER w"
            else:
                e = "v"
            guard = (f"r + {dy} >= 0 AND r + {dy} < {rows} "
                     f"AND c + {dx} >= 0 AND c + {dx} < {cols}")
            exprs.append(f"CASE WHEN {guard} THEN {e} END")
    arr = "[" + ", ".join(exprs) + "]"
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell, cell // {cols} AS r, cell % {cols} AS c, v FROM vals),
pn AS (SELECT cell, v,
  list_sort(list_filter({arr},
            x -> x IS NOT NULL AND x <> {_NOD})) AS arr
  FROM g WINDOW w AS (ORDER BY cell)),
res AS (SELECT cell,
  CASE WHEN v = {_NOD} THEN {_NOD}
       WHEN len(arr) > 0 AND v <= arr[len(arr) // 4 + 1]
       THEN 1.0 ELSE 0.0 END AS f
  FROM pn)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def convert_to_smooth_surface_sql(rows: int = 256,
                                  cols: int = 256) -> str:
    """ConvertToSmoothSurface.groovy live passes: row sort then column
    sort (NoData sentinels sort first, literally)."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
g AS (SELECT cell // {cols} AS r, v FROM vals),
p1 AS (SELECT r, v,
       row_number() OVER (PARTITION BY r ORDER BY v) - 1 AS k
       FROM g),
p2 AS (SELECT k AS c, v,
       row_number() OVER (PARTITION BY k ORDER BY v) - 1 AS j
       FROM p1)
SELECT j AS row_id,
       CAST(COUNT(CASE WHEN v <> {_NOD} THEN 1 END) AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN v = {_NOD} THEN 0.0 ELSE v END), 6) AS row_sum
FROM p2 GROUP BY j ORDER BY row_id
"""


def write_function_memory_sql(rows: int = 256, cols: int = 256) -> str:
    """WriteFunctionMemoryInsertion.java two-date branch mirror (blue
    literally duplicates green, :276,:289)."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
duo AS (SELECT a.cell, a.v AS va, b.v AS vb
        FROM vals a JOIN vals_b b ON a.cell = b.cell),
mm AS (SELECT
  (SELECT MIN(v) FROM vals WHERE v <> {_NOD}) AS rlo,
  (SELECT MAX(v) FROM vals WHERE v <> {_NOD}) AS rhi,
  (SELECT MIN(v) FROM vals_b WHERE v <> {_NOD}) AS glo,
  (SELECT MAX(v) FROM vals_b WHERE v <> {_NOD}) AS ghi),
res AS (
  SELECT cell,
    CASE WHEN va = {_NOD} OR vb = {_NOD} THEN {_NOD}
    ELSE 4278190080.0
         + least(greatest(trunc((vb - glo) / (ghi - glo) * 255.0), 0), 255)
           * 65536.0
         + least(greatest(trunc((vb - glo) / (ghi - glo) * 255.0), 0), 255)
           * 256.0
         + least(greatest(trunc((va - rlo) / (rhi - rlo) * 255.0), 0), 255)
    END AS f
  FROM duo CROSS JOIN mm)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def pip_polygon_join_sql() -> str:
    """Exact even-odd (crossing parity) oracle for the seeded
    star-polygon join: every ring edge becomes a VALUES literal and
    parity is SUM over edges of the IDENTICAL predicate the kernel
    uses (core/geom.points_in_ring:74-79 — half-open straddle,
    strictly-right crossing; xcross arithmetic written term-for-term
    so both engines produce the same bits; holes toggle parity like
    any ring). The bbox prefilter in the kernel is semantically
    redundant (outside-bbox parity is 0)."""
    from .core.features import POINTS_CTE, seeded_polygons

    rows = []
    for z in seeded_polygons():
        zid = z["zone_id"]
        for ring in z["polygon"].rings:
            import numpy as np
            r = np.asarray(ring, dtype=float)
            nxt = np.roll(r, -1, axis=0)
            for (x0, y0), (x1, y1) in zip(r, nxt):
                rows.append(f"({zid}, {x0!r}, {y0!r}, {x1!r}, {y1!r})")
    values = ",\n  ".join(rows)
    return f"""
WITH {POINTS_CTE},
edges(zone_id, x0, y0, x1, y1) AS (VALUES
  {values}),
par AS (
  SELECT p.rec_id, e.zone_id,
         SUM(CASE WHEN ((e.y0 <= p.y) <> (e.y1 <= p.y))
                   AND e.x0 + (p.y - e.y0) * (e.x1 - e.x0)
                       / NULLIF(e.y1 - e.y0, 0) > p.x
                  THEN 1 ELSE 0 END) AS crossings
  FROM pts p CROSS JOIN edges e
  GROUP BY p.rec_id, e.zone_id)
SELECT rec_id, zone_id FROM par WHERE crossings % 2 = 1
"""


def _star_edges_values() -> str:
    """The seeded star-polygon zone layer as an edge-list VALUES literal
    (every ring edge, holes included) — the broadcast side of the
    flagship joins, inlined with repr-exact float64 vertices."""
    import numpy as np

    from .core.features import seeded_polygons

    rows = []
    for z in seeded_polygons():
        zid = z["zone_id"]
        for ring in z["polygon"].rings:
            r = np.asarray(ring, dtype=float)
            nxt = np.roll(r, -1, axis=0)
            for (x0, y0), (x1, y1) in zip(r, nxt):
                rows.append(f"({zid}, {x0!r}, {y0!r}, {x1!r}, {y1!r})")
    return ",\n  ".join(rows)


_STAR_PARITY = """
par AS (
  SELECT p.rec_id, e.zone_id,
         SUM(CASE WHEN ((e.y0 <= p.y) <> (e.y1 <= p.y))
                   AND e.x0 + (p.y - e.y0) * (e.x1 - e.x0)
                       / NULLIF(e.y1 - e.y0, 0) > p.x
                  THEN 1 ELSE 0 END) AS crossings
  FROM pts p CROSS JOIN edges e
  GROUP BY p.rec_id, e.zone_id),
hits AS (SELECT rec_id, zone_id FROM par WHERE crossings % 2 = 1)"""


def _flagship_tile_expr(x: str, y: str) -> str:
    """Fixed world-extent 250 m tile id (pipelines/flagship.py:32-34)."""
    from .core.rng import EAST, NORTH, SOUTH, WEST
    from .core.tiles import RectGrid, rect_tile_sql

    grid = RectGrid.from_extent(WEST, SOUTH, EAST, NORTH,
                                width_x=250.0, width_y=250.0)
    return rect_tile_sql(x, y, grid)


def flagship_sql() -> str:
    """The documents-based flagship headline (pipelines/flagship.py):
    geocode doc_id → fixed-extent 250 m tile → even-odd PIP against the
    seeded star zones → per-(tile, zone) count. Same parity predicate
    as pip_polygon_join_sql; tile grid is Python-computed from the
    WORLD extent (not the data extent) exactly as the pipeline does."""
    from .core.features import POINTS_CTE

    tile = _flagship_tile_expr("p.x", "p.y")
    return f"""
WITH {POINTS_CTE},
edges(zone_id, x0, y0, x1, y1) AS (VALUES
  {_star_edges_values()}),{_STAR_PARITY}
SELECT {tile} AS tile_id, h.zone_id,
       COUNT(*) AS n_points
FROM hits h JOIN pts p ON p.rec_id = h.rec_id
GROUP BY 1, 2
"""


def pages_flagship_sql(n: int = 20_000) -> str:
    """END-TO-END exact oracle for the pages-schema headline
    (pipelines/pages_flagship.py): the SQL synthesizes the SAME
    deterministic corpus as sources/pages.make_pages_ids — url via
    printf, extracted-text length via the word-length table (the
    extractor is byte-identical to the generator, pytest-gated, so
    len(text) == len(extract_text_bytes(html))) — then url→crc32
    (list_reduce fold over the url bytes with the standard reflected
    0xEDB88320 table, exactly zlib.crc32), crc→geocode (HUGEINT
    modmul — the numpy int64 wrap mod 2**64 then % 2**32 equals the
    direct mod-2**32 product since 2**32 | 2**64), fixed-extent tile,
    star-zone parity join, per-(tile, zone) count + char sum."""
    from .sources.pages import _WORDS

    tbl = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ (0xEDB88320 if c & 1 else 0)
        tbl.append(c)
    tlit = "[" + ", ".join(map(str, tbl)) + "]"
    wlit = "[" + ", ".join(str(len(w)) for w in _WORDS) + "]"
    nw = len(_WORDS)
    xs = ("CAST((CAST(id AS HUGEINT) * 2654435761) % 4294967296 AS DOUBLE)"
          " / 4294967296.0 * 4000.0 + 0.0")
    ys = ("CAST((CAST(id AS HUGEINT) * 2246822519 + 1013904223)"
          " % 4294967296 AS DOUBLE) / 4294967296.0 * 4000.0 + 0.0")
    tile = _flagship_tile_expr("p.x", "p.y")
    return f"""
WITH crct AS (SELECT {tlit} AS t),
wl AS (SELECT {wlit} AS w),
base AS (
  SELECT i,
    printf('https://site%d.example/%08x', i % 50,
           (i * 2654435761 + 17) % 4294967296) AS url,
    20 + (i * 2654435761 + 31) % 180 AS ntok
  FROM range(0, {n}) r(i)),
idt AS MATERIALIZED (
  SELECT i,
    xor(list_reduce([CAST(4294967295 AS BIGINT)] ||
        list_transform(range(1, length(url) + 1),
                       k -> CAST(ascii(substr(url, k, 1)) AS BIGINT)),
        (c, b) -> xor(c >> 8, t[xor(c % 256, b) + 1])),
        4294967295) AS id,
    ntok - 1 + list_sum(list_transform(range(0, ntok),
        t2 -> w[((i * 7919 + t2 * 104729 + 13) % {nw}) + 1])) AS n_chars
  FROM base, crct, wl),
pts AS MATERIALIZED (
  SELECT i AS rec_id, {xs} AS x, {ys} AS y, n_chars FROM idt),
edges(zone_id, x0, y0, x1, y1) AS (VALUES
  {_star_edges_values()}),{_STAR_PARITY}
SELECT {tile} AS tile_id, h.zone_id,
       COUNT(*) AS n_pages,
       CAST(SUM(p.n_chars) AS BIGINT) AS sum_chars
FROM hits h JOIN pts p ON p.rec_id = h.rec_id
GROUP BY 1, 2
"""


def random_field_sql(rows: int = 256, cols: int = 256) -> str:
    """RandomField.java with the documented deterministic hash
    substitution for the unseeded java.util.Random."""
    return f"""
WITH g AS (SELECT i AS cell,
    CAST(((i * 2654435761 + 999331) % 4294967296) % 101 AS DOUBLE)
      / 100.0 AS f
  FROM range(0, {rows * cols}) t(i))
SELECT cell // {cols} AS row_id,
       CAST({cols} AS BIGINT) AS n_valid,
       round(SUM(f), 6) AS row_sum
FROM g GROUP BY cell // {cols}
"""


def conditional_evaluation_sql(rows: int = 256, cols: int = 256) -> str:
    """ConditionalEvaluation.groovy mirror of the conformance
    expression ``if(a >= 500.0, a - 500.0, b * 0.5)`` with NoData
    propagation (the raster_calc compiler's if/cond semantics)."""
    return f"""
WITH {_raster_vals_cte(rows, cols)},
{_raster_vals_b_cte(rows, cols)},
res AS (
  SELECT a.cell,
         CASE WHEN a.v = {_NOD} OR b.v = {_NOD} THEN {_NOD}
              WHEN a.v >= 500.0 THEN a.v - 500.0
              ELSE b.v * 0.5 END AS f
  FROM vals a JOIN vals_b b ON a.cell = b.cell)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""


def extract_values_at_points_sql(rows: int = 256, cols: int = 256) -> str:
    """ExtractRasterValuesAtPoints.groovy:155-186 mirror (Math.round
    cell registration per WhiteboxRasterBase.java:1822-1841)."""
    csx = 4000.0 / cols
    csy = 4000.0 / rows
    ewr = 4000.0 - csx
    nsr = 4000.0 - csy
    from .core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE},
rc AS (SELECT rec_id,
    CAST(floor(({cols} - 1) * (x - 0.0 - {csx / 2.0!r}) / {ewr!r} + 0.5)
         AS BIGINT) AS col,
    CAST(floor(({rows} - 1) * ({4000.0 - csy / 2.0!r} - y) / {nsr!r} + 0.5)
         AS BIGINT) AS row
  FROM pts),
v AS (SELECT rec_id, row, col,
    CASE WHEN col >= 0 AND col < {cols} AND row >= 0 AND row < {rows}
    THEN (CASE WHEN (((row * {cols} + col) * 2246822519 + 1013904223)
                     % 4294967296) % 17 = 0 THEN {_NOD}
          ELSE (((row * {cols} + col) * 2654435761) % 4294967296)
               / 4294967296.0 * 1000.0 END)
    ELSE {_NOD} END AS value
  FROM rc)
SELECT rec_id, row, col, round(value, 6) AS value FROM v
"""


# ---------------------------------------------------------------------------
# Round-2 oracles: language-ID confusion, unrolled k-means (embeddings +
# attribute table), and the crc32-in-SQL text-hash kernels (SimHash /
# MinHash) — flipping former rows-only queries to exact DuckDB checks.
# ---------------------------------------------------------------------------

def langid_confusion_sql() -> str:
    """Exact mirror of stages/textops.predict_lang: whitespace-token SET,
    per-language stopword-overlap scores, ties broken by the first
    language in sorted() order (de < en < es < fr < it), zero best
    score → 'unknown'."""
    from .stages.textops import _LANG_STOPWORDS

    def lit(lang):
        words = ", ".join(f"'{w}'" for w in sorted(_LANG_STOPWORDS[lang]))
        return f"len(list_intersect(toks, [{words}])) AS s_{lang}"

    scores = ",\n    ".join(lit(lang) for lang in sorted(_LANG_STOPWORDS))
    return f"""
WITH t AS (
  SELECT COALESCE(lang, '') AS lang,
         list_distinct(regexp_split_to_array(
           lower(regexp_replace(COALESCE(text, ''),
                                '^\\s+|\\s+$', '', 'g')),
           '\\s+')) AS toks
  FROM documents),
s AS (
  SELECT lang,
    {scores}
  FROM t),
p AS (
  SELECT lang,
    CASE WHEN greatest(s_de, s_en, s_es, s_fr, s_it) = 0 THEN 'unknown'
         WHEN s_de >= greatest(s_en, s_es, s_fr, s_it) THEN 'de'
         WHEN s_en >= greatest(s_es, s_fr, s_it) THEN 'en'
         WHEN s_es >= greatest(s_fr, s_it) THEN 'es'
         WHEN s_fr >= s_it THEN 'fr'
         ELSE 'it' END AS pred_lang
  FROM s)
SELECT lang, pred_lang, CAST(count(*) AS BIGINT) AS n
FROM p GROUP BY lang, pred_lang ORDER BY lang, pred_lang
"""


def _kmeans_cte_chain(k: int, iters: int, e_cte: str, init_cte: str,
                      round_to: int) -> str:
    """Unrolled Lloyd's rounds as a CTE chain over DOUBLE[] vectors —
    the mkmeans fixed-iteration unrolling rule. Each round: argmin
    assignment (ties → lowest cluster id), element-wise mean, per-round
    round(·, 9) (the engine's drift rule, applied identically here)."""
    d2 = ("list_sum(list_transform(list_zip(e.v, cc.v), "
          "p -> (p[1]-p[2])*(p[1]-p[2])))")
    ctes = [e_cte, init_cte]
    for i in range(1, iters + 1):
        ctes.append(f"""a{i} AS MATERIALIZED (
  SELECT vec_id, v, c FROM (
    SELECT e.vec_id, e.v, cc.c,
      row_number() OVER (PARTITION BY e.vec_id
                         ORDER BY {d2}, cc.c) AS rn
    FROM e CROSS JOIN c{i - 1} cc) WHERE rn = 1)""")
        ctes.append(f"""m{i} AS MATERIALIZED (
  SELECT c, list(val ORDER BY d) AS nv FROM (
    SELECT c, d, round(avg(x), 9) AS val FROM (
      SELECT c, unnest(v) AS x, unnest(range(len(v))) AS d FROM a{i})
    GROUP BY c, d)
  GROUP BY c)""")
        ctes.append(f"""c{i} AS MATERIALIZED (
  SELECT p.c,
         list_transform(COALESCE(m.nv, p.v), y -> round(y, 9)) AS v
  FROM c{i - 1} p LEFT JOIN m{i} m ON m.c = p.c)""")
    ctes.append(f"""af AS (
  SELECT vec_id, c, d2 FROM (
    SELECT e.vec_id, cc.c, {d2} AS d2,
      row_number() OVER (PARTITION BY e.vec_id
                         ORDER BY {d2}, cc.c) AS rn
    FROM e CROSS JOIN c{iters} cc) WHERE rn = 1)""")
    body = f"""
SELECT r AS cluster_id,
       CAST(COALESCE(s.n, 0) AS BIGINT) AS n,
       round(COALESCE(s.inertia, 0.0), {round_to}) AS inertia
-- scaffold = the EXISTING centroids (min(k, n) of them — the impl's
-- centroid array is the bottom-n vectors, shorter than k on tiny
-- inputs), not a fixed range(k)
FROM (SELECT c AS r FROM c0) t LEFT JOIN (
  SELECT c, count(*) AS n, sum(d2) AS inertia FROM af GROUP BY c
) s ON s.c = r
ORDER BY cluster_id"""
    return "WITH " + ",\n".join(ctes) + body


def kmeans_embeddings_sql(k: int = 8, iters: int = 10,
                          round_to: int = 4) -> str:
    e = ("e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v "
         "FROM embeddings WHERE embedding IS NOT NULL)")
    init = (f"c0 AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS c, v "
            f"FROM e ORDER BY vec_id LIMIT {k})")
    return _kmeans_cte_chain(k, iters, e, init, round_to)


def cluster_attributes_sql(k: int = 5, iters: int = 8,
                           round_to: int = 4) -> str:
    """z-scored (c_acctbal, c_nationkey) k-means; moments in-SQL with
    the engine's exact formulas (mu = Σx/n, var = Σx²/n − mu²,
    sd = sqrt(max(var, 1e-30)))."""
    e = """mo AS (
  SELECT count(*)::DOUBLE AS n,
         sum(c_acctbal::DOUBLE) AS sa, sum(c_acctbal::DOUBLE * c_acctbal::DOUBLE) AS saa,
         sum(c_nationkey::DOUBLE) AS sn, sum(c_nationkey::DOUBLE * c_nationkey::DOUBLE) AS snn
  FROM customer),
st AS (
  SELECT sa / n AS mu0, sn / n AS mu1,
         sqrt(greatest(saa / n - (sa / n) * (sa / n), 1e-30)) AS sd0,
         sqrt(greatest(snn / n - (sn / n) * (sn / n), 1e-30)) AS sd1
  FROM mo),
e AS (
  SELECT c_custkey AS vec_id,
         [(c_acctbal::DOUBLE - st.mu0) / st.sd0,
          (c_nationkey::DOUBLE - st.mu1) / st.sd1] AS v
  FROM customer, st)"""
    init = (f"c0 AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS c, v "
            f"FROM e ORDER BY vec_id LIMIT {k})")
    return _kmeans_cte_chain(k, iters, e, init, round_to)


def _crc32_table_values() -> str:
    """The 256-entry zlib crc32 table as a VALUES literal (poly
    0xEDB88320) — DuckDB has no crc32 built-in, so the oracle carries
    the table and replays the byte loop as a recursive CTE."""
    tbl = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ 0xEDB88320 if c & 1 else c >> 1
        tbl.append(c)
    return ", ".join(f"({i}, {v})" for i, v in enumerate(tbl))


def _crc32_ctes(items_cte: str) -> str:
    """CTE text computing crc32 per item of ``items(doc_id, iid, s)``
    → ``crcf(doc_id, iid, crc)``. Byte access is via hex(encode(s))
    two-chars-at-a-time; the state update is the standard
    crc = (crc >> 8) XOR T[(crc XOR byte) & 0xFF] recursion."""
    return f"""ct(i, t) AS (SELECT * FROM (VALUES {_crc32_table_values()}) v(i, t)),
{items_cte},
ith AS (SELECT doc_id, iid, hex(encode(s)) AS hx,
               octet_length(encode(s)) AS nb FROM items),
crc(doc_id, iid, pos, c) AS (
  SELECT doc_id, iid, 0::BIGINT, 4294967295::BIGINT FROM ith
  UNION ALL
  SELECT s.doc_id, s.iid, s.pos + 1, xor(s.c >> 8, ct.t)
  FROM crc s
  JOIN ith k ON k.doc_id = s.doc_id AND k.iid = s.iid
  JOIN ct ON ct.i = xor(s.c, ('0x' || substr(k.hx, s.pos * 2 + 1, 2))::BIGINT) & 255
  WHERE s.pos < k.nb),
crcf AS MATERIALIZED (
  SELECT s.doc_id, s.iid, xor(s.c, 4294967295) AS crc
  FROM crc s JOIN ith k ON k.doc_id = s.doc_id AND k.iid = s.iid
  WHERE s.pos = k.nb)"""


_STRIP_SPLIT = ("regexp_split_to_array(lower(regexp_replace(text, "
                "'^\\s+|\\s+$', '', 'g')), '\\s+')")


def simhash_signatures_sql() -> str:
    """Exact mirror of stages/dedup.simhash_signatures: per-token crc32
    (duplicates kept) → ×0x9E3779B97F4A7C15 mod 2⁶⁴ → 64-bit ±1 votes →
    sig bit = vote > 0; empty/whitespace-only docs get sig 0. Bit ops
    on the 64-bit domain run in HUGEINT (// and % against a power
    table)."""
    golden = 0x9E3779B97F4A7C15
    pw = ", ".join(f"({b}, {1 << b}::HUGEINT)" for b in range(64))
    return f"""
WITH RECURSIVE
{_crc32_ctes(f'''raw AS (SELECT doc_id, {_STRIP_SPLIT} AS toks
  FROM (SELECT doc_id, COALESCE(text, '') AS text FROM documents)),
items AS (
  SELECT doc_id, unnest(range(len(toks))) AS iid, unnest(toks) AS s
  FROM raw WHERE toks[1] <> '')''')},
pw(b, p) AS (SELECT * FROM (VALUES {pw}) v(b, p)),
h AS (
  SELECT doc_id,
         (crc::HUGEINT * {golden}::HUGEINT)
           % 18446744073709551616::HUGEINT AS hv
  FROM crcf),
votes AS (
  SELECT doc_id, pw.b, pw.p,
         sum(CASE WHEN (h.hv // pw.p) % 2 = 1 THEN 1 ELSE -1 END) AS vote
  FROM h CROSS JOIN pw GROUP BY doc_id, pw.b, pw.p),
sig AS (
  SELECT doc_id,
         COALESCE(sum(CASE WHEN vote > 0 THEN p
                           ELSE 0::HUGEINT END), 0::HUGEINT) AS s
  FROM votes GROUP BY doc_id
  UNION ALL
  SELECT doc_id, 0::HUGEINT FROM raw WHERE toks[1] = '')
SELECT doc_id,
  printf('%08x%08x', (s // 4294967296::HUGEINT)::BIGINT,
         (s % 4294967296::HUGEINT)::BIGINT) AS simhash,
  printf('%04x', ((s // 1::HUGEINT) % 65536)::BIGINT) AS band0,
  printf('%04x', ((s // 65536::HUGEINT) % 65536)::BIGINT) AS band1,
  printf('%04x', ((s // 4294967296::HUGEINT) % 65536)::BIGINT) AS band2,
  printf('%04x', ((s // 281474976710656::HUGEINT) % 65536)::BIGINT) AS band3
FROM sig ORDER BY doc_id
"""


def simhash_neardup_pairs_sql(max_hamming: int = 3) -> str:
    """Exact mirror of stages/dedup.simhash_neardup_pairs: the same
    simhash computation as simhash_signatures_sql, then ALL-PAIRS
    Hamming distance <= max_hamming. All-pairs is the right oracle:
    for max_hamming <= 3 the impl's 4x16-bit banding is lossless
    (pigeonhole), so the two sides must agree exactly."""
    golden = 0x9E3779B97F4A7C15
    pw = ", ".join(f"({b}, {1 << b}::HUGEINT)" for b in range(64))
    return f"""
WITH RECURSIVE
{_crc32_ctes(f'''raw AS (SELECT doc_id, {_STRIP_SPLIT} AS toks
  FROM (SELECT doc_id, COALESCE(text, '') AS text FROM documents)),
items AS (
  SELECT doc_id, unnest(range(len(toks))) AS iid, unnest(toks) AS s
  FROM raw WHERE toks[1] <> '')''')},
pw(b, p) AS (SELECT * FROM (VALUES {pw}) v(b, p)),
h AS (
  SELECT doc_id,
         (crc::HUGEINT * {golden}::HUGEINT)
           % 18446744073709551616::HUGEINT AS hv
  FROM crcf),
votes AS (
  SELECT doc_id, pw.b,
         sum(CASE WHEN (h.hv // pw.p) % 2 = 1 THEN 1 ELSE -1 END) AS vote
  FROM h CROSS JOIN pw GROUP BY doc_id, pw.b),
hb AS MATERIALIZED (
  SELECT doc_id, b, CASE WHEN vote > 0 THEN 1 ELSE 0 END AS bit
  FROM votes
  UNION ALL
  SELECT r.doc_id, pw.b, 0 AS bit
  FROM raw r CROSS JOIN pw WHERE r.toks[1] = ''),
ham AS (
  SELECT ba.doc_id AS doc_a, bb.doc_id AS doc_b,
         CAST(sum(CASE WHEN ba.bit <> bb.bit THEN 1 ELSE 0 END)
              AS BIGINT) AS hamming
  FROM hb ba JOIN hb bb ON bb.b = ba.b AND ba.doc_id < bb.doc_id
  GROUP BY 1, 2)
SELECT doc_a, doc_b, hamming FROM ham
WHERE hamming <= {max_hamming}
ORDER BY doc_a, doc_b
"""


def minhash_pairs_sql(threshold: float = 0.6, seed: int = 42) -> str:
    """Exact mirror of stages/dedup.minhash_verified_pairs: 3-gram
    shingle crc32 sets → 64 seeded (a·x+b) mod (2⁶¹−1) minhashes →
    16-band/4-row LSH buckets (bucket equality == band-hash equality,
    md5 elided) → candidate pairs → exact Jaccard ≥ threshold.
    The (a, b) hash parameters are part of the algorithm spec (seeded
    generator) and are inlined as literals."""
    from .stages.dedup import _BANDS, _MERSENNE, _NUM_HASHES, _minhash_params
    a, b = _minhash_params(seed)
    fns = ", ".join(f"({j}, {int(a[j])}::HUGEINT, {int(b[j])}::HUGEINT)"
                    for j in range(_NUM_HASHES))
    rpb = _NUM_HASHES // _BANDS
    return f"""
WITH RECURSIVE
{_crc32_ctes(f'''raw AS (SELECT doc_id, {_STRIP_SPLIT} AS toks
  FROM (SELECT doc_id, COALESCE(text, '') AS text FROM documents)),
items AS (
  SELECT doc_id, unnest(range(len(toks) - 2)) AS iid,
         unnest(list_transform(range(len(toks) - 2),
           i -> toks[i + 1] || ' ' || toks[i + 2] || ' ' || toks[i + 3])) AS s
  FROM raw WHERE len(toks) >= 3
  UNION ALL
  SELECT doc_id, 0 AS iid, array_to_string(toks, ' ') AS s
  FROM raw WHERE len(toks) < 3 AND toks[1] <> '')''')},
fn(j, fa, fb) AS (SELECT * FROM (VALUES {fns}) v(j, fa, fb)),
csets AS MATERIALIZED (
  SELECT doc_id, list(DISTINCT crc ORDER BY crc) AS cs FROM crcf
  GROUP BY doc_id
  UNION ALL
  SELECT doc_id, [0]::BIGINT[] AS cs FROM raw WHERE toks[1] = ''),
shq AS (SELECT doc_id, unnest(cs) AS crc FROM csets),
sigs AS MATERIALIZED (
  SELECT s.doc_id, fn.j,
         min(((fn.fa * s.crc::HUGEINT + fn.fb)
              % {_MERSENNE}::HUGEINT))::BIGINT AS sig
  FROM shq s CROSS JOIN fn GROUP BY s.doc_id, fn.j),
bands AS MATERIALIZED (
  SELECT doc_id, j // {rpb} AS band,
         list(sig ORDER BY j) AS key FROM sigs GROUP BY doc_id, j // {rpb}),
cand AS MATERIALIZED (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM bands x JOIN bands y
    ON x.band = y.band AND x.key = y.key AND x.doc_id < y.doc_id),
jac AS (
  SELECT c.doc_a, c.doc_b,
         len(list_intersect(sa.cs, sb.cs))::DOUBLE
           / (len(sa.cs) + len(sb.cs)
              - len(list_intersect(sa.cs, sb.cs)))::DOUBLE AS j
  FROM cand c
  JOIN csets sa ON sa.doc_id = c.doc_a
  JOIN csets sb ON sb.doc_id = c.doc_b)
SELECT doc_a, doc_b, round(j, 6) AS jaccard
FROM jac WHERE j >= {threshold!r}
ORDER BY doc_a, doc_b
"""


def ngram_jaccard_pairs_sql(threshold: float = 0.5) -> str:
    """Exact mirror of stages/dedup.ngram_jaccard_pairs: 3-gram shingle
    crc32 sets (same CTEs as minhash_pairs_sql), then the EXACT all-pairs
    Jaccard via a shared-shingle self-join — no LSH candidate stage.
    Empty/whitespace-only docs carry the sentinel crc-0 singleton set."""
    return f"""
WITH RECURSIVE
{_crc32_ctes(f'''raw AS (SELECT doc_id, {_STRIP_SPLIT} AS toks
  FROM (SELECT doc_id, COALESCE(text, '') AS text FROM documents)),
items AS (
  SELECT doc_id, unnest(range(len(toks) - 2)) AS iid,
         unnest(list_transform(range(len(toks) - 2),
           i -> toks[i + 1] || ' ' || toks[i + 2] || ' ' || toks[i + 3])) AS s
  FROM raw WHERE len(toks) >= 3
  UNION ALL
  SELECT doc_id, 0 AS iid, array_to_string(toks, ' ') AS s
  FROM raw WHERE len(toks) < 3 AND toks[1] <> '')''')},
csets AS MATERIALIZED (
  SELECT doc_id, list(DISTINCT crc ORDER BY crc) AS cs FROM crcf
  GROUP BY doc_id
  UNION ALL
  SELECT doc_id, [0]::BIGINT[] AS cs FROM raw WHERE toks[1] = ''),
posts AS (SELECT doc_id, unnest(cs) AS crc FROM csets),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter
  FROM posts a JOIN posts b ON a.crc = b.crc AND a.doc_id < b.doc_id
  GROUP BY 1, 2),
jac AS (
  SELECT doc_a, doc_b,
         inter::DOUBLE
           / (len(sa.cs) + len(sb.cs) - inter)::DOUBLE AS j
  FROM pairs
  JOIN csets sa ON sa.doc_id = doc_a
  JOIN csets sb ON sb.doc_id = doc_b)
SELECT doc_a, doc_b, round(j, 6) AS jaccard
FROM jac WHERE j >= {threshold!r}
ORDER BY doc_a, doc_b
"""


def dup_clusters_sql(threshold: float = 0.5) -> str:
    """Exact mirror of stages/corpus.dup_clusters: connected components
    over the n-gram-Jaccard pair graph (the full pair query embedded as
    a derived table), label = min doc_id reachable — a min-label
    transitive closure with UNION-dedup recursion."""
    pair_q = ngram_jaccard_pairs_sql(threshold)
    return f"""
WITH RECURSIVE
base AS MATERIALIZED (SELECT doc_a, doc_b FROM ({pair_q}) q),
sym AS (SELECT doc_a AS a, doc_b AS b FROM base
        UNION SELECT doc_b, doc_a FROM base),
cc(node, lbl) AS (
  SELECT a, a FROM sym
  UNION
  SELECT s.a, c.lbl FROM cc c JOIN sym s ON s.b = c.node)
SELECT node AS doc_id, min(lbl)::BIGINT AS cluster_id
FROM cc GROUP BY node ORDER BY doc_id
"""


def boilerplate_ngrams_sql(n: int = 5, k: int = 100) -> str:
    """Exact mirror of stages/corpus.boilerplate_ngrams: word n-gram
    DOCUMENT frequency, top-k by (df desc, ngram asc)."""
    return f"""
WITH raw AS (SELECT doc_id, {_STRIP_SPLIT} AS toks FROM documents),
items AS (
  SELECT doc_id, unnest(list_transform(range(len(toks) - {n} + 1),
           i -> array_to_string(list_slice(toks, i + 1, i + {n}), ' '))) AS g
  FROM raw WHERE len(toks) >= {n})
SELECT g AS ngram, count(DISTINCT doc_id)::BIGINT AS df
FROM items GROUP BY 1
ORDER BY df DESC, ngram LIMIT {k}
"""


def topk_tokens_sql(k: int = 50) -> str:
    """Exact mirror of stages/corpus.topk_tokens: total token counts,
    top-k by (cnt desc, token asc)."""
    return f"""
WITH raw AS (SELECT {_STRIP_SPLIT} AS toks FROM documents),
tok AS (SELECT unnest(toks) AS token FROM raw WHERE toks[1] <> '')
SELECT token, count(*)::BIGINT AS cnt FROM tok GROUP BY 1
ORDER BY cnt DESC, token LIMIT {k}
"""


def _hll_regs_ctes(p: int) -> str:
    """CTE chain ending in regs(register_id, rho) — the exact replay of
    stages/textops.token_hll: fold the first 16 hex chars of
    md5(token) into a HUGEINT, split top-p/bottom-(64−p) bits, rho =
    1-based leading-zero rank of the tail (bit_length via an exact
    shift-compare count — float log2 overshoots at 2^k − 1)."""
    q = 64 - p
    return f"""
raw AS (SELECT {_STRIP_SPLIT} AS toks FROM documents),
tok AS (SELECT DISTINCT unnest(toks) AS token FROM raw
        WHERE toks[1] <> ''),
hx AS (SELECT token, md5(token) AS mm FROM tok),
hv AS (SELECT list_reduce(list_transform(range(1, 17),
           i -> CAST(instr('0123456789abcdef', substr(mm, i, 1)) - 1
                     AS HUGEINT)),
         (a, d) -> a * 16 + d) AS h FROM hx),
bits AS (SELECT CAST(h // (1::HUGEINT << {q}) AS BIGINT) AS register_id,
                CAST(h % (1::HUGEINT << {q}) AS BIGINT) AS tail FROM hv),
rmax AS (SELECT register_id,
                MAX(CASE WHEN tail = 0 THEN {q + 1}
                     ELSE {q} - (SELECT count(*) FROM range(0, {q}) rr
                                 WHERE tail >= (1::BIGINT << rr.range))
                          + 1 END) AS rho
         FROM bits GROUP BY 1),
regs AS (SELECT g.range AS register_id,
                CAST(COALESCE(rmax.rho, 0) AS BIGINT) AS rho
         FROM range(0, {1 << p}) g
         LEFT JOIN rmax ON rmax.register_id = g.range)"""


def tfidf_top_terms_sql(k: int = 3, round_to: int = 6) -> str:
    """Exact mirror of stages/textops.tfidf_top_terms: per-doc top-k
    terms by tf·ln(N/df), ranked on the ROUNDED score (mathematical
    ties like 2·ln4 = 4·ln2 are one-ulp unstable at raw precision),
    term asc tiebreak."""
    return f"""
WITH raw AS (SELECT doc_id, {_STRIP_SPLIT} AS toks FROM documents),
tok AS (SELECT doc_id, unnest(toks) AS term FROM raw
        WHERE toks[1] <> ''),
nn AS (SELECT count(DISTINCT doc_id) AS n FROM tok),
dft AS (SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY 1),
tf AS (SELECT doc_id, term, count(*) AS c FROM tok GROUP BY 1, 2),
sc AS (SELECT tf.doc_id, tf.term,
              round(tf.c * ln(CAST(nn.n AS DOUBLE) / dft.df),
                    {round_to}) AS tfidf
       FROM tf JOIN dft USING (term) CROSS JOIN nn),
rk AS (SELECT doc_id, term, tfidf,
              row_number() OVER (PARTITION BY doc_id
                                 ORDER BY tfidf DESC, term) AS r
       FROM sc)
SELECT doc_id, term, tfidf FROM rk WHERE r <= {k}
"""


def token_hll_sql(p: int = 10) -> str:
    """Exact mirror of stages/textops.token_hll (see _hll_regs_ctes)."""
    return f"""
WITH {_hll_regs_ctes(p)}
SELECT register_id, rho FROM regs ORDER BY 1
"""


def hll_estimate_sql(p: int = 10, round_to: int = 6) -> str:
    """Exact mirror of stages/textops.hll_estimate: the standard HLL
    estimator (alpha·m²/Σ2^−rho) with the small-range linear-counting
    branch; identical double literals, rounded mean (shared
    convention)."""
    m = 1 << p
    return f"""
WITH {_hll_regs_ctes(p)},
s AS (SELECT SUM(power(2.0, -rho)) AS z,
             CAST(SUM(CASE WHEN rho = 0 THEN 1 ELSE 0 END) AS BIGINT)
               AS v
      FROM regs),
e AS (SELECT v,
             (0.7213 / (1.0 + 1.079 / {m})) * {m} * {m} / z AS raw_e
      FROM s)
SELECT CAST({m} AS BIGINT) AS m, v AS n_empty,
       round(CASE WHEN raw_e <= 2.5 * {m} AND v > 0
                  THEN {m} * ln(CAST({m} AS DOUBLE) / v)
                  ELSE raw_e END, {round_to}) AS estimate
FROM e
"""


def duplicate_spans_sql(k: int = 5) -> str:
    """Exact mirror of stages/corpus.duplicate_spans: per-doc counts of
    k-token windows whose token sequence repeats anywhere in the corpus
    (the oracle groups by the gram STRING; the impl's 128-bit double
    hash is collision-free at any test scale by the md5 accept-rule)."""
    return f"""
WITH raw AS (SELECT doc_id, {_STRIP_SPLIT} AS toks FROM documents),
wins AS (
  SELECT doc_id, unnest(list_transform(range(len(toks) - {k} + 1),
           i -> array_to_string(list_slice(toks, i + 1, i + {k}), ' '))) AS g
  FROM raw WHERE len(toks) >= {k} AND toks[1] <> ''),
pg AS (SELECT g, doc_id, count(*) AS cnt FROM wins GROUP BY 1, 2),
gg AS (SELECT g, CAST(SUM(cnt) AS BIGINT) AS tot, MIN(doc_id) AS first_doc
       FROM pg GROUP BY 1)
SELECT pg.doc_id,
       CAST(SUM(pg.cnt) AS BIGINT) AS n_windows,
       CAST(SUM(CASE WHEN gg.tot >= 2 THEN pg.cnt ELSE 0 END) AS BIGINT)
         AS n_dup_windows,
       CAST(SUM(CASE WHEN gg.tot >= 2 AND pg.doc_id = gg.first_doc
                THEN 1 ELSE 0 END) AS BIGINT) AS n_first_copies
FROM pg JOIN gg USING (g)
GROUP BY 1
"""


# shared CTE chain: per-token -ln P under the add-one-smoothed bigram
# LM of stages/corpus.lm_perplexity. The probability expressions keep
# the impl's operand structure ((count + 1.0) / (den)) so the IEEE
# divisions are identical; per-doc means are rounded (shared
# convention) to absorb summation-order / libm-ln ulp drift.
_LM_NLL_CTES = f"""
raw AS (SELECT doc_id, {_STRIP_SPLIT} AS toks FROM documents),
tok AS (
  SELECT raw.doc_id, u.i, raw.toks[u.i + 1] AS tok,
         CASE WHEN u.i = 0 THEN NULL ELSE raw.toks[u.i] END AS prev
  FROM raw, LATERAL (SELECT unnest(range(len(raw.toks))) AS i) u
  WHERE raw.toks[1] <> ''),
uni AS (SELECT tok, count(*) AS c1 FROM tok GROUP BY 1),
mdl AS (SELECT (SELECT count(*) FROM uni) AS v,
               (SELECT count(*) FROM tok) AS n),
big AS (SELECT prev, tok, count(*) AS c2 FROM tok
        WHERE prev IS NOT NULL GROUP BY 1, 2),
nl AS (
  SELECT t.doc_id,
         -ln(CASE WHEN t.prev IS NULL
              THEN (u1.c1 + 1.0) / (mdl.n + mdl.v)
              ELSE (COALESCE(b.c2, 0) + 1.0) / (up.c1 + mdl.v) END) AS nll
  FROM tok t
  JOIN uni u1 ON u1.tok = t.tok
  LEFT JOIN uni up ON up.tok = t.prev
  LEFT JOIN big b ON b.prev = t.prev AND b.tok = t.tok
  CROSS JOIN mdl)"""


def lm_perplexity_sql(round_to: int = 6) -> str:
    """Exact mirror of stages/corpus.lm_perplexity (see _LM_NLL_CTES)."""
    return f"""
WITH {_LM_NLL_CTES}
SELECT doc_id, CAST(count(*) AS BIGINT) AS ntok,
       round(SUM(nll) / count(*), {round_to}) AS nll
FROM nl GROUP BY 1
"""


def perplexity_buckets_sql(round_to: int = 6) -> str:
    """Exact mirror of stages/corpus.perplexity_buckets: per-lang
    head/middle/tail split by NLL tertile VALUE thresholds
    (tie-inclusive: t_k = smallest score v with #(nll <= v) >=
    ceil(k*n/3); all ties fall into the lower bucket)."""
    return f"""
WITH {_LM_NLL_CTES},
sc AS (
  SELECT nl.doc_id, any_value(d.lang) AS lang,
         round(SUM(nll) / count(*), {round_to}) AS nll
  FROM nl JOIN documents d ON d.doc_id = nl.doc_id
  GROUP BY 1),
hist AS (SELECT lang, nll, count(*) AS c FROM sc GROUP BY 1, 2),
cdf AS (SELECT lang, nll,
               SUM(c) OVER (PARTITION BY lang ORDER BY nll) AS cum,
               SUM(c) OVER (PARTITION BY lang) AS n
        FROM hist),
thr AS (SELECT lang,
               MIN(CASE WHEN cum >= (n + 2) // 3 THEN nll END) AS t1,
               MIN(CASE WHEN cum >= (2 * n + 2) // 3 THEN nll END) AS t2
        FROM cdf GROUP BY lang),
b AS (SELECT sc.lang,
             CASE WHEN sc.nll <= thr.t1 THEN 'head'
                  WHEN sc.nll <= thr.t2 THEN 'middle'
                  ELSE 'tail' END AS bucket,
             sc.nll
      FROM sc JOIN thr ON thr.lang = sc.lang)
SELECT lang, bucket, CAST(count(*) AS BIGINT) AS n_docs,
       round(SUM(nll) / count(*), {round_to}) AS avg_nll
FROM b GROUP BY 1, 2
"""


def importance_weights_sql(target_lang: str = "en",
                           round_to: int = 6) -> str:
    """Exact mirror of stages/corpus.importance_weights: DSIR-style
    mean per-token log-ratio of the target-lang unigram LM over the
    raw-corpus unigram LM, add-one smoothed over the shared vocab."""
    return f"""
WITH raw AS (SELECT doc_id, lang, {_STRIP_SPLIT} AS toks FROM documents),
tok AS (SELECT raw.doc_id, raw.lang, raw.toks[u.i + 1] AS tok
        FROM raw, LATERAL (SELECT unnest(range(len(raw.toks))) AS i) u
        WHERE raw.toks[1] <> ''),
cnt AS (SELECT tok, count(*) AS c_all,
               CAST(SUM(CASE WHEN lang = '{target_lang}'
                        THEN 1 ELSE 0 END) AS BIGINT) AS c_tgt
        FROM tok GROUP BY 1),
mdl AS (SELECT count(*) AS v, CAST(SUM(c_all) AS BIGINT) AS n,
               CAST(SUM(c_tgt) AS BIGINT) AS nt FROM cnt),
lr AS (SELECT t.doc_id,
              ln((c.c_tgt + 1.0) / (mdl.nt + mdl.v))
            - ln((c.c_all + 1.0) / (mdl.n + mdl.v)) AS lr
       FROM tok t JOIN cnt c ON c.tok = t.tok CROSS JOIN mdl)
SELECT doc_id, CAST(count(*) AS BIGINT) AS ntok,
       round(SUM(lr) / count(*), {round_to}) AS logw
FROM lr GROUP BY 1
"""


def decontaminate_sql(n: int = 4, bench_mod: int = 97) -> str:
    """Exact mirror of stages/corpus.decontaminate: distinct shared
    word n-grams between each non-benchmark doc and the benchmark set
    (doc_id % bench_mod == 0)."""
    return f"""
WITH raw AS (SELECT doc_id, {_STRIP_SPLIT} AS toks FROM documents),
grams AS (
  SELECT doc_id, unnest(list_transform(range(len(toks) - {n} + 1),
           i -> array_to_string(list_slice(toks, i + 1, i + {n}), ' '))) AS g
  FROM raw WHERE len(toks) >= {n}),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % {bench_mod} = 0),
hits AS (
  SELECT DISTINCT t.doc_id, t.g FROM grams t JOIN bench b ON t.g = b.g
  WHERE t.doc_id % {bench_mod} <> 0)
SELECT doc_id, count(*)::BIGINT AS n_hit FROM hits GROUP BY 1 ORDER BY doc_id
"""


def stratified_sample_sql(per_lang: int = 20) -> str:
    """Exact mirror of stages/corpus.stratified_sample: per-language
    smallest-md5(doc_id) draw with rank."""
    return f"""
WITH h AS (SELECT COALESCE(lang, '') AS lang, doc_id,
                  md5(CAST(doc_id AS VARCHAR)) AS h
           FROM documents),
r AS (SELECT lang, doc_id,
             row_number() OVER (PARTITION BY lang ORDER BY h) AS sample_rank
      FROM h)
SELECT lang, doc_id, sample_rank::BIGINT AS sample_rank
FROM r WHERE sample_rank <= {per_lang} ORDER BY lang, sample_rank
"""


def pack_sequences_sql(seq_len: int = 512) -> str:
    """Exact mirror of stages/corpus.pack_sequences: token counts in
    doc_id order → exclusive prefix sum → per-sequence doc/token
    totals."""
    return f"""
WITH raw AS (SELECT doc_id, {_STRIP_SPLIT} AS toks FROM documents),
c AS (SELECT doc_id,
             CASE WHEN toks[1] = '' THEN 0 ELSE len(toks) END AS cnt
      FROM raw),
o AS (SELECT doc_id, cnt,
             COALESCE(SUM(cnt) OVER (ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
               0)::BIGINT AS off
      FROM c),
spans AS (
  SELECT doc_id, off, cnt,
         unnest(range(off // {seq_len}, (off + cnt - 1) // {seq_len} + 1))
           AS seq_id
  FROM o WHERE cnt > 0)
SELECT seq_id,
       count(*)::BIGINT AS n_docs,
       SUM(least(off + cnt, (seq_id + 1) * {seq_len})
           - greatest(off, seq_id * {seq_len}))::BIGINT AS n_tokens
FROM spans GROUP BY 1 ORDER BY seq_id
"""


def repetition_filter_sql(max_dup_frac: float = 0.02) -> str:
    """Exact mirror of stages/corpus.repetition_filter: duplicate
    3-gram fraction per doc, flagged above the threshold."""
    return f"""
WITH raw AS (SELECT doc_id, {_STRIP_SPLIT} AS toks FROM documents),
g AS (
  SELECT doc_id, unnest(list_transform(range(len(toks) - 2),
           i -> array_to_string(list_slice(toks, i + 1, i + 3), ' '))) AS gr
  FROM raw WHERE len(toks) >= 3),
s AS (SELECT doc_id, count(*) AS total, count(DISTINCT gr) AS dis
      FROM g GROUP BY 1)
SELECT doc_id, round(1.0 - dis::DOUBLE / total::DOUBLE, 6) AS dup_frac
FROM s WHERE 1.0 - dis::DOUBLE / total::DOUBLE > {max_dup_frac!r}
ORDER BY doc_id
"""


def chunk_documents_sql(chunk_len: int = 64, stride: int = 48) -> str:
    """Exact mirror of stages/corpus.chunk_documents: overlapping token
    windows (chunk c covers [c·stride, c·stride+chunk_len), last chunk
    is the first one reaching the end); first_tok_crc via the shared
    crc32 CTE machinery."""
    n_chunks = (f"CASE WHEN n <= {chunk_len} THEN 1 "
                f"ELSE (n - {chunk_len} + {stride} - 1) // {stride} + 1 END")
    return f"""
WITH RECURSIVE
{_crc32_ctes(f'''rawt AS (SELECT doc_id, {_STRIP_SPLIT} AS toks FROM documents),
raw AS (SELECT doc_id, toks,
               CASE WHEN toks[1] = '' THEN 0 ELSE len(toks) END AS n
        FROM rawt),
items AS (
  SELECT doc_id, unnest(range({n_chunks})) AS iid,
         unnest(list_transform(range({n_chunks}),
           c -> toks[c * {stride} + 1])) AS s
  FROM raw WHERE n > 0)''')},
base AS (
  SELECT doc_id, unnest(range({n_chunks})) AS chunk_id, n
  FROM raw WHERE n > 0)
SELECT b.doc_id, b.chunk_id,
       least({chunk_len}, b.n - b.chunk_id * {stride})::BIGINT AS n_tokens,
       c.crc AS first_tok_crc
FROM base b JOIN crcf c ON c.doc_id = b.doc_id AND c.iid = b.chunk_id
ORDER BY b.doc_id, b.chunk_id
"""


def _corpus_clean_ctes(min_tokens: int, max_dup_frac: float,
                       contam_n: int, bench_mod: int) -> str:
    """The corpus_clean CTE chain ending in r(doc_id, reason) — shared
    by corpus_clean_sql and corpus_clean_spans_sql."""
    return f"""raw AS (SELECT doc_id, text, {_STRIP_SPLIT} AS toks
       FROM (SELECT doc_id, COALESCE(text, '') AS text FROM documents)),
t AS (SELECT doc_id, text, toks,
             CASE WHEN toks[1] = '' THEN 0 ELSE len(toks) END AS n
      FROM raw),
rep AS (
  SELECT doc_id, count(*) AS total, count(DISTINCT gr) AS dis
  FROM (SELECT doc_id, unnest(list_transform(range(len(toks) - 2),
               i -> array_to_string(list_slice(toks, i + 1, i + 3), ' ')))
                 AS gr
        FROM t WHERE len(toks) >= 3) g GROUP BY 1),
grams AS (
  SELECT doc_id, unnest(list_transform(range(len(toks) - {contam_n} + 1),
           i -> array_to_string(list_slice(toks, i + 1, i + {contam_n}),
                                ' '))) AS g
  FROM t WHERE len(toks) >= {contam_n}),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % {bench_mod} = 0),
contam AS (
  SELECT DISTINCT tg.doc_id FROM grams tg JOIN bench b ON tg.g = b.g
  WHERE tg.doc_id % {bench_mod} <> 0),
surv AS (SELECT doc_id, min(doc_id) OVER (PARTITION BY md5(text)) AS s
         FROM t),
r AS (
  SELECT t.doc_id,
         (CASE WHEN t.doc_id <> surv.s THEN 1 ELSE 0 END)
       + (CASE WHEN rep.doc_id IS NOT NULL
                AND 1.0 - rep.dis::DOUBLE / rep.total::DOUBLE
                    > {max_dup_frac!r} THEN 2 ELSE 0 END)
       + (CASE WHEN contam.doc_id IS NOT NULL THEN 4 ELSE 0 END)
       + (CASE WHEN t.n < {min_tokens} THEN 8 ELSE 0 END) AS reason
  FROM t
  JOIN surv ON surv.doc_id = t.doc_id
  LEFT JOIN rep ON rep.doc_id = t.doc_id
  LEFT JOIN contam ON contam.doc_id = t.doc_id)"""


def corpus_clean_sql(min_tokens: int = 20, max_dup_frac: float = 0.02,
                     contam_n: int = 4, bench_mod: int = 97) -> str:
    """Exact mirror of stages/corpus.corpus_clean: reason bitmask
    1=duplicate (md5 non-survivor), 2=repetitious, 4=contaminated,
    8=too short; keep = reason == 0."""
    return f"""
WITH {_corpus_clean_ctes(min_tokens, max_dup_frac, contam_n, bench_mod)}
SELECT doc_id, (CASE WHEN reason = 0 THEN 1 ELSE 0 END)::BIGINT AS keep,
       reason::BIGINT AS reason
FROM r ORDER BY doc_id
"""


def corpus_clean_spans_sql(min_tokens: int = 20,
                           max_dup_frac: float = 0.02,
                           contam_n: int = 4, bench_mod: int = 97,
                           span_k: int = 5,
                           max_span_dup_frac: float = 0.5) -> str:
    """Exact mirror of stages/corpus.corpus_clean_spans: corpus_clean's
    bitmask plus bit 16 = span-duplication-heavy (the fraction of the
    doc's k-token windows that repeat anywhere in the corpus exceeds
    ``max_span_dup_frac``; docs with no window never set it)."""
    return f"""
WITH {_corpus_clean_ctes(min_tokens, max_dup_frac, contam_n, bench_mod)},
wins AS (
  SELECT doc_id, unnest(list_transform(range(len(toks) - {span_k} + 1),
           i -> array_to_string(list_slice(toks, i + 1, i + {span_k}),
                                ' '))) AS g
  FROM raw WHERE len(toks) >= {span_k} AND toks[1] <> ''),
pg AS (SELECT g, doc_id, count(*) AS cnt FROM wins GROUP BY 1, 2),
gg AS (SELECT g, CAST(SUM(cnt) AS BIGINT) AS tot FROM pg GROUP BY 1),
spanr AS (
  SELECT pg.doc_id, CAST(SUM(pg.cnt) AS BIGINT) AS nw,
         CAST(SUM(CASE WHEN gg.tot >= 2 THEN pg.cnt ELSE 0 END)
              AS BIGINT) AS nd
  FROM pg JOIN gg USING (g) GROUP BY 1),
r2 AS (
  SELECT r.doc_id, r.reason
       + (CASE WHEN spanr.nw > 0
               AND CAST(spanr.nd AS DOUBLE) / spanr.nw
                   > {max_span_dup_frac!r} THEN 16 ELSE 0 END) AS reason
  FROM r LEFT JOIN spanr ON spanr.doc_id = r.doc_id)
SELECT doc_id, (CASE WHEN reason = 0 THEN 1 ELSE 0 END)::BIGINT AS keep,
       reason::BIGINT AS reason
FROM r2 ORDER BY doc_id
"""


def remove_polygon_necks_sql(radius: float = 3.0,
                             gap_threshold: float = 30.0) -> str:
    """Exact mirror of stages/vector_ops.remove_polygon_necks: the ring
    is axis-aligned with INTEGER unit-step vertices and distances are
    translation-invariant, so the neck segmentation depends only on the
    corridor length (5 distinct cases), computed in SQL from first
    principles: pairwise d² ≤ r², seam-remapped index ranges, max index
    gap, then the literal run-emission rule (runs of gap ≥ threshold;
    a run ended by a non-neck vertex emits iff len > 1; a run reaching
    the LAST vertex emits at any length)."""
    from .core.features import POINTS_CTE
    return f"""
WITH {POINTS_CTE},
feat AS (SELECT rec_id,
                10 + 2 * ((CAST(z AS BIGINT) % 200) % 5) AS cl
         FROM pts),
cls AS (SELECT DISTINCT cl FROM feat),
pts12 AS (
  SELECT c.cl, t.k,
         CASE t.k WHEN 0 THEN 0 WHEN 1 THEN 10 WHEN 2 THEN 10
                  WHEN 3 THEN 10 + c.cl WHEN 4 THEN 10 + c.cl
                  WHEN 5 THEN 20 + c.cl WHEN 6 THEN 20 + c.cl
                  WHEN 7 THEN 10 + c.cl WHEN 8 THEN 10 + c.cl
                  WHEN 9 THEN 10 WHEN 10 THEN 10 ELSE 0 END AS x,
         CASE t.k WHEN 0 THEN 0 WHEN 1 THEN 0 WHEN 2 THEN 4
                  WHEN 3 THEN 4 WHEN 4 THEN 0 WHEN 5 THEN 0
                  WHEN 6 THEN 10 WHEN 7 THEN 10 WHEN 8 THEN 6
                  WHEN 9 THEN 6 WHEN 10 THEN 10 ELSE 10 END AS y
  FROM cls c, (SELECT unnest(range(12)) AS k) t),
segs AS (
  SELECT a.cl, a.k, a.x AS x0, a.y AS y0, b.x AS x1, b.y AS y1,
         abs(b.x - a.x) + abs(b.y - a.y) AS steps
  FROM pts12 a JOIN pts12 b
    ON b.cl = a.cl AND b.k = (a.k + 1) % 12),
walk AS (
  SELECT cl, k, unnest(range(steps)) AS s,
         x0, y0, (x1 - x0) // steps AS dx, (y1 - y0) // steps AS dy
  FROM segs),
ringv AS (
  SELECT cl, row_number() OVER (PARTITION BY cl ORDER BY k, s) - 1 AS i,
         x0 + dx * s AS vx, y0 + dy * s AS vy
  FROM walk),
nn AS (SELECT cl, count(*) AS nv FROM ringv GROUP BY cl),
ring AS (      -- the shapefile closing vertex repeats vertex 0
  SELECT * FROM ringv
  UNION ALL
  SELECT r.cl, n.nv AS i, r.vx, r.vy
  FROM ringv r JOIN nn n ON n.cl = r.cl WHERE r.i = 0),
rn AS (SELECT cl, nv + 1 AS n FROM nn),
inr AS (
  SELECT a.cl, a.i, b.i AS j
  FROM ring a JOIN ring b ON b.cl = a.cl
  WHERE (a.vx - b.vx) * (a.vx - b.vx)
      + (a.vy - b.vy) * (a.vy - b.vy) <= {radius * radius!r}),
rng AS (
  SELECT cl, i, min(j) AS mn, max(j) AS mx FROM inr GROUP BY 1, 2),
remap AS (
  SELECT v.cl, v.i,
         CASE WHEN g.mx - g.mn = n.n - 1 AND v.j < n.n / 2.0
              THEN v.j + n.n ELSE v.j END AS jj
  FROM inr v
  JOIN rng g ON g.cl = v.cl AND g.i = v.i
  JOIN rn n ON n.cl = v.cl),
diffs AS (
  SELECT cl, i,
         jj - lag(jj) OVER (PARTITION BY cl, i ORDER BY jj) AS d
  FROM remap),
gaps AS (SELECT cl, i, max(d) AS mg FROM diffs GROUP BY 1, 2),
neck AS (
  SELECT cl, i FROM gaps
  WHERE mg IS NOT NULL AND mg >= {gap_threshold!r}),
runs AS (
  SELECT cl, i,
         i - row_number() OVER (PARTITION BY cl ORDER BY i) AS grp
  FROM neck),
seg0 AS (
  SELECT r.cl, min(r.i) AS a, max(r.i) AS b, count(*) AS len
  FROM runs r GROUP BY r.cl, r.grp),
emitted AS (
  SELECT s.cl, s.a, s.len,
         row_number() OVER (PARTITION BY s.cl ORDER BY s.a) AS seg_id
  FROM seg0 s JOIN rn n ON n.cl = s.cl
  WHERE s.len > 1 OR s.b = n.n - 1)
SELECT f.rec_id, e.seg_id::BIGINT AS seg_id, e.len::BIGINT AS n_points
FROM feat f JOIN emitted e ON e.cl = f.cl
ORDER BY f.rec_id, e.seg_id
"""


def embedding_dup_clusters_sql(threshold: float = 0.35) -> str:
    """Exact mirror of stages/corpus.embedding_dup_clusters: min-label
    transitive closure over the embedding cosine near-dup pair graph."""
    pair_q = cosine_neardup_sql(threshold)
    return f"""
WITH RECURSIVE
base AS MATERIALIZED (SELECT doc_a, doc_b FROM ({pair_q}) q),
sym AS (SELECT doc_a AS a, doc_b AS b FROM base
        UNION SELECT doc_b, doc_a FROM base),
cc(node, lbl) AS (
  SELECT a, a FROM sym
  UNION
  SELECT s.a, c.lbl FROM cc c JOIN sym s ON s.b = c.node)
SELECT node AS vec_id, min(lbl)::BIGINT AS cluster_id
FROM cc GROUP BY node ORDER BY vec_id
"""


def pages_exact_dedup_sql(n: int = 20_000, hot_frac: float = 0.2) -> str:
    """Oracle for the skewed-corpus exact text dedup
    (stages/dedup.pages_exact_dedup over the hot_frac=0.2 20k corpus):
    the skew rule (sources/pages.skew_ids) replayed over range(n),
    then grouped by the TEXT EQUIVALENCE CLASS. A generated text is a
    function of exactly (start, ntok) with start = (e*7919 + 13) % 96
    (96 = len(_WORDS); token j is _WORDS[(start + j*104729) % 96]) and
    ntok = 20 + (e*2654435761 + 31) % 180 — and on this exact corpus
    the map (start, ntok) -> text is also injective, so the md5(text)
    groups the impl counts are exactly these key groups (both
    directions pytest-pinned in
    tests/test_pages.py::test_skewed_corpus_text_classes)."""
    thresh = int(round(hot_frac * 1000))
    return f"""
WITH ids AS (SELECT range AS id FROM range(0, {n})),
eff AS (SELECT CASE WHEN (id * 2246822519 + 3) % 1000 < {thresh}
                    THEN 42 ELSE id END AS e FROM ids),
k AS (SELECT (e * 7919 + 13) % 96 AS s,
             20 + (e * 2654435761 + 31) % 180 AS ntok FROM eff),
g AS (SELECT s, ntok, count(*) AS c FROM k GROUP BY s, ntok)
SELECT CAST(sum(c) AS BIGINT) AS n_pages,
       CAST(count(*) AS BIGINT) AS n_distinct,
       CAST(max(c) AS BIGINT) AS max_group
FROM g
"""


# ---------------------------------------------------------------------------
# Data-selection family (stages/selection.py)
# ---------------------------------------------------------------------------

def dataset_mixture_sql(rates: dict[str, float] | None = None,
                        round_to: int = 6) -> str:
    """Exact mirror of stages/selection.dataset_mixture: keep iff
    md5(source ':' doc_id)[:8 hex]/2^32 < rate(source); identical md5
    bytes and identical single float division on both sides."""
    if rates is None:
        from .stages.selection import default_mixture_rates
        rates = default_mixture_rates()
    vals = ", ".join(f"('{s}', {r!r})" for s, r in sorted(rates.items()))
    return f"""
WITH r(source, rate) AS (VALUES {vals}),
d AS (SELECT COALESCE(source, '') AS source,
             ('0x' || substr(md5(COALESCE(source, '') || ':'
                                 || CAST(doc_id AS VARCHAR)),
                             1, 8))::BIGINT / 4294967296.0 AS u
      FROM documents),
j AS (SELECT d.source, COALESCE(r.rate, 1.0) AS rate, d.u
      FROM d LEFT JOIN r USING (source))
SELECT source, max(rate) AS rate,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(CASE WHEN u < rate THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
       round(CAST(sum(CASE WHEN u < rate THEN 1 ELSE 0 END) AS DOUBLE)
             / count(*), {round_to}) AS frac_kept
FROM j GROUP BY source ORDER BY source
"""


def quality_classifier_sql(round_to: int = 6) -> str:
    """Exact mirror of stages/selection.quality_classifier: the per-doc
    accumulator S = sum count(t)*((crc32(t)*A + B) mod P) is INTEGER on
    both sides (HUGEINT here, Python int there), so the only float ops
    are the final m = S/(n*P) - 0.5 and sigmoid — identical IEEE
    expressions. crc32 replays through the byte-loop CTE kernel over
    the DISTINCT vocabulary (vocab-bounded)."""
    from .stages.selection import _QC_A, _QC_B, _QC_P
    return f"""
WITH RECURSIVE
{_crc32_ctes(f'''raw AS (SELECT doc_id, {_STRIP_SPLIT} AS toks
  FROM (SELECT doc_id, COALESCE(text, '') AS text FROM documents)),
tok AS (SELECT doc_id AS did, unnest(toks) AS term FROM raw
        WHERE toks[1] <> ''),
vocab AS (SELECT DISTINCT term FROM tok),
items AS (SELECT 0 AS doc_id,
                 row_number() OVER (ORDER BY term) AS iid,
                 term AS s FROM vocab)''')},
w AS (SELECT i.s AS term,
             (crcf.crc::HUGEINT * {_QC_A}::HUGEINT + {_QC_B}::HUGEINT)
               % {_QC_P}::HUGEINT AS h
      FROM crcf JOIN items i ON i.iid = crcf.iid),
tf AS (SELECT did, term, count(*) AS c FROM tok GROUP BY 1, 2),
acc AS (SELECT tf.did, sum(tf.c::HUGEINT * w.h) AS s,
               sum(tf.c) AS n
        FROM tf JOIN w USING (term) GROUP BY tf.did),
sc AS (SELECT did AS doc_id, CAST(n AS BIGINT) AS n_tokens,
              round(1.0 / (1.0 + exp(-(CAST(s AS DOUBLE)
                    / CAST(n::HUGEINT * {_QC_P}::HUGEINT AS DOUBLE)
                    - 0.5))), {round_to}) AS score
       FROM acc
       UNION ALL
       SELECT doc_id, 0::BIGINT, 0.5 FROM raw WHERE toks[1] = '')
SELECT doc_id, n_tokens, score,
       CASE WHEN score >= 0.5 THEN 'keep' ELSE 'drop' END AS label
FROM sc ORDER BY doc_id
"""


def token_kl_divergence_sql(round_to: int = 6) -> str:
    """Mirror of stages/selection.token_kl_divergence: KL(source ||
    corpus) over token unigrams; per-term ratio expressions identical,
    final sum rounded (sum order is engine-unspecified on both
    sides)."""
    return f"""
WITH raw AS (SELECT source, {_STRIP_SPLIT} AS toks
             FROM (SELECT COALESCE(source, '') AS source,
                          COALESCE(text, '') AS text FROM documents)),
tok AS (SELECT source, unnest(toks) AS term FROM raw WHERE toks[1] <> ''),
st AS (SELECT source, term, count(*) AS c FROM tok GROUP BY 1, 2),
ct AS (SELECT term, sum(c) AS tc FROM st GROUP BY 1),
tot AS (SELECT CAST(sum(c) AS DOUBLE) AS n FROM st),
per AS (SELECT source, CAST(sum(c) AS DOUBLE) AS cs FROM st GROUP BY 1)
SELECT s.source,
       CAST(max(p.cs) AS BIGINT) AS n_tokens,
       CAST(count(*) AS BIGINT) AS n_terms,
       round(sum((CAST(s.c AS DOUBLE) / p.cs)
                 * ln((CAST(s.c AS DOUBLE) / p.cs)
                      / (CAST(ct.tc AS DOUBLE) / tot.n))), {round_to}) AS kl
FROM st s JOIN ct USING (term) JOIN per p ON p.source = s.source
CROSS JOIN tot
GROUP BY s.source ORDER BY s.source
"""


def embedding_quantize_sql(round_to: int = 6) -> str:
    """Mirror of stages/selection.embedding_quantize: per-dim scale
    max|x|/127 (1.0 when all-zero), q = clamp(floor(x/s + 0.5)),
    err = x - q*s — identical IEEE expressions; per-label mse rounded,
    max_abs_err exact then rounded."""
    return f"""
WITH ex AS (SELECT vec_id, CAST(label AS BIGINT) AS label,
                   unnest(range(len(embedding))) AS i,
                   unnest(CAST(embedding AS DOUBLE[])) AS x
            FROM embeddings
            WHERE embedding IS NOT NULL AND label IS NOT NULL),
dm AS (SELECT i, max(abs(x)) AS ma FROM ex GROUP BY i),
sc AS (SELECT i, CASE WHEN ma = 0 THEN 1.0 ELSE ma / 127.0 END AS s
       FROM dm),
e AS (SELECT vec_id, label,
             x - GREATEST(-127.0, LEAST(127.0, floor(x / s + 0.5))) * s
               AS err
      FROM ex JOIN sc USING (i))
SELECT label, CAST(count(DISTINCT vec_id) AS BIGINT) AS n_vecs,
       round(sum(err * err) / count(*), {round_to}) AS mse,
       round(max(abs(err)), {round_to}) AS max_abs_err
FROM e GROUP BY label ORDER BY label
"""


def kcenter_sample_sql(k: int = 6, round_to: int = 6) -> str:
    """Mirror of stages/selection.kcenter_sample: unrolled greedy
    farthest-point rounds — each pick maximizes the ROUNDED
    list_distance to the nearest selected vector, ties -> lowest
    vec_id (the same rounded-first rule the impl applies before its
    argmax)."""
    ctes = ["""sel0 AS (SELECT vec_id, v, 0::BIGINT AS rnk, 0.0 AS dist
        FROM ev ORDER BY vec_id LIMIT 1)"""]
    for r in range(1, k):
        p = f"""pick{r} AS (
  SELECT e.vec_id, e.v, {r}::BIGINT AS rnk, d.dist
  FROM ev e JOIN (
    SELECT e2.vec_id,
           min(round(list_distance(e2.v, s.v), {round_to})) AS dist
    FROM ev e2 JOIN sel{r - 1} s ON TRUE
    WHERE e2.vec_id NOT IN (SELECT vec_id FROM sel{r - 1})
    GROUP BY e2.vec_id ORDER BY dist DESC, e2.vec_id LIMIT 1) d
  ON d.vec_id = e.vec_id)"""
        s = f"""sel{r} AS (SELECT * FROM sel{r - 1}
        UNION ALL SELECT * FROM pick{r})"""
        ctes.extend([p, s])
    body = ",\n".join(ctes)
    return f"""
WITH ev AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
            FROM embeddings WHERE embedding IS NOT NULL),
{body}
SELECT rnk AS "rank", vec_id, dist FROM sel{k - 1} ORDER BY rnk
"""


def events_funnel_sql(steps: tuple[str, ...] = ("view", "click",
                                                "purchase"),
                      horizon_us: int = 7 * 24 * 3600 * 1_000_000) -> str:
    """Mirror of stages/selection.events_funnel: earliest-qualifying
    completion chain per user (strictly-after ordering, horizon
    against the step-0 time); gap totals integer microseconds, so the
    whole result is exact."""
    assert len(steps) == 3, "oracle is written for 3-step funnels"
    s0, s1, s2 = steps
    return f"""
WITH ev AS (SELECT user_id, event_type, epoch_us(ts) AS t FROM events),
c0 AS (SELECT user_id, min(t) AS t0 FROM ev
       WHERE event_type = '{s0}' GROUP BY 1),
c1 AS (SELECT e.user_id, min(e.t) AS t1 FROM ev e
       JOIN c0 ON c0.user_id = e.user_id
       WHERE e.event_type = '{s1}' AND e.t > c0.t0 GROUP BY 1),
h1 AS (SELECT c1.user_id, t1, t0 FROM c1 JOIN c0 USING (user_id)
       WHERE t1 - t0 <= {horizon_us}),
c2 AS (SELECT e.user_id, min(e.t) AS t2 FROM ev e
       JOIN h1 ON h1.user_id = e.user_id
       WHERE e.event_type = '{s2}' AND e.t > h1.t1 GROUP BY 1),
h2 AS (SELECT c2.user_id, t2, t0 FROM c2 JOIN h1 USING (user_id)
       WHERE t2 - t0 <= {horizon_us})
SELECT 0::BIGINT AS step_index, '{s0}' AS step,
       CAST(count(*) AS BIGINT) AS n_users, 0::BIGINT AS total_gap_us
FROM c0
UNION ALL
SELECT 1::BIGINT, '{s1}', CAST(count(*) AS BIGINT),
       CAST(COALESCE(sum(t1 - t0), 0) AS BIGINT) FROM h1
UNION ALL
SELECT 2::BIGINT, '{s2}', CAST(count(*) AS BIGINT),
       CAST(COALESCE(sum(t2 - t0), 0) AS BIGINT) FROM h2
ORDER BY step_index
"""


def events_retention_sql(week_us: int = 7 * 24 * 3600 * 1_000_000) -> str:
    """Mirror of stages/relational.events_retention: fixed unix-epoch
    weeks, first-event cohort, distinct active (user, week) — all
    integer arithmetic, exact."""
    return f"""
WITH w AS (SELECT user_id, epoch_us(ts) // {week_us} AS wk FROM events),
f AS (SELECT user_id, min(wk) AS cw FROM w GROUP BY 1),
a AS (SELECT DISTINCT w.user_id, f.cw, w.wk - f.cw AS off
      FROM w JOIN f USING (user_id))
SELECT cw AS cohort_week, off AS week_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM a GROUP BY 1, 2 ORDER BY 1, 2
"""


def events_interval_join_sql(left_type: str = "error",
                             right_type: str = "click",
                             before_us: int = 3600 * 1_000_000,
                             after_us: int = 3600 * 1_000_000) -> str:
    """Mirror of stages/relational.events_interval_join: inclusive
    [t-before, t+after] window counts per left event — exact integer
    microseconds."""
    return f"""
WITH ev AS (SELECT event_id, user_id, event_type, epoch_us(ts) AS t
            FROM events),
l AS (SELECT event_id, user_id, t FROM ev
      WHERE event_type = '{left_type}'),
r AS (SELECT user_id, t FROM ev WHERE event_type = '{right_type}')
SELECT l.event_id, l.user_id,
       CAST(COALESCE(sum(CASE WHEN r.t BETWEEN l.t - {before_us}
                                           AND l.t + {after_us}
                              THEN 1 ELSE 0 END), 0) AS BIGINT)
         AS n_right
FROM l LEFT JOIN r ON r.user_id = l.user_id
GROUP BY l.event_id, l.user_id ORDER BY l.event_id
"""


def token_zipf_fit_sql(k: int = 100, round_to: int = 6) -> str:
    """Mirror of stages/textops.token_zipf_fit: identical closed-form
    least squares over the top-k ln(rank)/ln(freq) spectrum; slope /
    intercept / r2 computed from UNROUNDED intermediates, outputs
    rounded."""
    return f"""
WITH raw AS (SELECT doc_id, {_STRIP_SPLIT} AS toks FROM documents),
tok AS (SELECT doc_id, unnest(toks) AS term FROM raw
        WHERE toks[1] <> ''),
tc AS (SELECT term, count(*) AS tf FROM tok GROUP BY 1),
top AS (SELECT term, tf,
               row_number() OVER (ORDER BY tf DESC, term) AS r
        FROM tc),
xy AS (SELECT ln(CAST(r AS DOUBLE)) AS x, ln(CAST(tf AS DOUBLE)) AS y
       FROM top WHERE r <= {k}),
s AS (SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy,
             sum(x * x) AS sxx, sum(x * y) AS sxy, sum(y * y) AS syy
      FROM xy),
fit AS (SELECT n, sx, sy, sxy, syy,
               (n * sxy - sx * sy) / (n * sxx - sx * sx) AS sl
        FROM s WHERE n >= 2),
fit2 AS (SELECT n, sy, sxy, syy, sl,
                (sy - sl * sx) / n AS ic FROM fit),
fin AS (SELECT n, sl, ic,
               syy - sy * sy / n AS sst,
               syy - ic * sy - sl * sxy AS sse FROM fit2)
SELECT CAST(n AS BIGINT) AS k, round(sl, {round_to}) AS slope,
       round(ic, {round_to}) AS intercept,
       round(CASE WHEN sst > 0 THEN 1.0 - sse / sst ELSE 1.0 END,
             {round_to}) AS r2
FROM fin
"""


def bm25_topk_sql(n_query_terms: int = 3, k: int = 20, k1: float = 1.2,
                  b: float = 0.75, round_to: int = 6) -> str:
    """Mirror of stages/textops.bm25_topk: query = top-df terms
    (df desc, term asc), Lucene idf, identical float expression
    shapes; top-k on the ROUNDED score, doc_id asc tiebreak."""
    return f"""
WITH raw AS (SELECT doc_id, {_STRIP_SPLIT} AS toks FROM documents),
d AS (SELECT doc_id, len(toks) AS dl FROM raw WHERE toks[1] <> ''),
tok AS (SELECT doc_id, unnest(toks) AS term FROM raw
        WHERE toks[1] <> ''),
dft AS (SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY 1),
q AS (SELECT term, df FROM (
        SELECT term, df,
               row_number() OVER (ORDER BY df DESC, term) AS r
        FROM dft) WHERE r <= {n_query_terms}),
st AS (SELECT CAST(count(*) AS BIGINT) AS n,
              CAST(sum(dl) AS DOUBLE) / count(*) AS avgdl FROM d),
tf AS (SELECT t.doc_id, t.term, count(*) AS tf
       FROM tok t JOIN q USING (term) GROUP BY 1, 2),
sc AS (SELECT tf.doc_id,
              sum(ln(1.0 + (st.n - q.df + 0.5) / (q.df + 0.5))
                  * (tf.tf * ({k1} + 1.0))
                  / (tf.tf + {k1} * (1.0 - {b}
                                     + {b} * d.dl / st.avgdl)))
                AS s
       FROM tf JOIN q USING (term) JOIN d ON d.doc_id = tf.doc_id
       CROSS JOIN st GROUP BY tf.doc_id),
full_sc AS (SELECT d.doc_id, d.dl,
                   round(COALESCE(sc.s, 0.0), {round_to}) AS score
            FROM d LEFT JOIN sc ON sc.doc_id = d.doc_id)
SELECT doc_id, dl, score FROM full_sc
ORDER BY score DESC, doc_id LIMIT {k}
"""


def length_quantiles_sql(qs: tuple[float, ...] = (0.5, 0.9, 0.99)) -> str:
    """Mirror of stages/selection.length_quantiles: lower discrete
    quantile (smallest dl with cum count >= ceil(q*n)) per lang —
    all-integer, exact."""
    picks = ",\n  ".join(
        f"CAST(min(CASE WHEN cum >= ceil({q} * n) THEN dl END) AS BIGINT)"
        f" AS p{int(q * 100)}" for q in qs)
    return f"""
WITH raw AS (SELECT COALESCE(lang, '') AS lang, {_STRIP_SPLIT} AS toks
             FROM documents),
d AS (SELECT lang, len(toks) AS dl FROM raw WHERE toks[1] <> ''),
h AS (SELECT lang, dl, count(*) AS c FROM d GROUP BY 1, 2),
cum AS (SELECT lang, dl,
               sum(c) OVER (PARTITION BY lang ORDER BY dl) AS cum,
               sum(c) OVER (PARTITION BY lang) AS n
        FROM h)
SELECT lang, CAST(max(n) AS BIGINT) AS n_docs,
  {picks}
FROM cum GROUP BY lang ORDER BY lang
"""


def incremental_dedup_sql(mod: int = 3) -> str:
    """Mirror of stages/selection.incremental_dedup: per-md5 existing/
    incoming resolution — exact integer counts."""
    return f"""
WITH d AS (SELECT doc_id, md5(COALESCE(text, '')) AS h FROM documents),
g AS (SELECT h,
             sum(CASE WHEN doc_id % {mod} = 0 THEN 1 ELSE 0 END) AS n_ex,
             sum(CASE WHEN doc_id % {mod} <> 0 THEN 1 ELSE 0 END)
               AS n_inc
      FROM d GROUP BY h)
SELECT CAST(COALESCE(sum(n_inc), 0) AS BIGINT) AS n_incoming,
       CAST(COALESCE(sum(CASE WHEN n_ex > 0 THEN n_inc ELSE 0 END), 0)
            AS BIGINT) AS n_hit_existing,
       CAST(COALESCE(sum(CASE WHEN n_ex = 0
                          THEN greatest(n_inc - 1, 0) ELSE 0 END), 0)
            AS BIGINT) AS n_dup_within,
       CAST(COALESCE(sum(CASE WHEN n_ex = 0 AND n_inc > 0
                          THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_kept
FROM g
"""


def embedding_pq_sql(m: int = 8, n_codes: int = 16,
                     round_to: int = 6) -> str:
    """Mirror of stages/selection.embedding_pq: codebook = sub-vectors
    of the n_codes lowest vec_ids; assignment by ROUNDED euclidean
    distance (ties -> lowest code); mse from the chosen unrounded
    distances."""
    # embedding dim is discovered from the data via len(v); subspace
    # width = len(v) // m, expressed inline so the SQL is generic
    return f"""
WITH ev AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
            FROM embeddings WHERE embedding IS NOT NULL),
w AS (SELECT max(len(v)) // {m} AS sub FROM ev),
cb AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS code, v
       FROM (SELECT vec_id, v FROM ev ORDER BY vec_id
             LIMIT {n_codes})),
sp AS (SELECT range AS s FROM range(0, {m})),
dd AS (SELECT e.vec_id, sp.s, cb.code,
              -- d2 = left-to-right sum of per-element squared diffs:
              -- the IDENTICAL IEEE expression the impl accumulates
              -- (numpy sequential sum over the short sub-vector), so
              -- sse needs no sqrt-then-square round-trip (1-ulp drift)
              list_sum(list_transform(range(w.sub), i ->
                (e.v[CAST(sp.s * w.sub + i + 1 AS BIGINT)]
                 - cb.v[CAST(sp.s * w.sub + i + 1 AS BIGINT)])
                * (e.v[CAST(sp.s * w.sub + i + 1 AS BIGINT)]
                   - cb.v[CAST(sp.s * w.sub + i + 1 AS BIGINT)])))
                AS d2
       FROM ev e CROSS JOIN sp CROSS JOIN cb CROSS JOIN w),
a AS (SELECT vec_id, s, code, d2 FROM (
        SELECT *, row_number() OVER (PARTITION BY vec_id, s
                   ORDER BY round(sqrt(d2), {round_to}), code) AS rn
        FROM dd) WHERE rn = 1),
cc AS (SELECT s, code, count(*) AS cnt FROM a GROUP BY 1, 2),
tp AS (SELECT s, code AS top_code, cnt AS top_code_count FROM (
         SELECT *, row_number() OVER (PARTITION BY s
                    ORDER BY cnt DESC, code) AS rn FROM cc)
       WHERE rn = 1),
er AS (SELECT s, count(*) AS n_vecs, sum(d2) AS sse
       FROM a GROUP BY s)
SELECT er.s AS subspace, CAST(er.n_vecs AS BIGINT) AS n_vecs,
       round(er.sse / (er.n_vecs * w.sub), {round_to}) AS mse,
       tp.top_code, CAST(tp.top_code_count AS BIGINT) AS top_code_count
FROM er JOIN tp ON tp.s = er.s CROSS JOIN w
ORDER BY subspace
"""


def ann_recall_eval_sql(k: int = 10, query_vec_id: int = 0,
                        nprobe: int = 4, round_to: int = 6) -> str:
    """Mirror of stages/selection.ann_recall_eval: recall@k of the
    seeded-IVF search vs the brute-force truth — both sides are the
    existing exact mirrors, composed."""
    truth = ann_cosine_topk_sql(k=k, query_vec_id=query_vec_id)
    approx = ann_ivf_topk_sql(k=k, query_vec_id=query_vec_id,
                              nprobe=nprobe)
    return f"""
WITH truth AS ({truth}),
approx AS ({approx}),
hit AS (SELECT CAST(count(*) AS BIGINT) AS n
        FROM truth JOIN approx USING (vec_id))
SELECT 'ivf_seeded' AS variant, {k}::BIGINT AS k, hit.n AS n_hit,
       round(CAST(hit.n AS DOUBLE) / {k}, {round_to}) AS recall
FROM hit
"""


def time_decay_aggregate_sql(halflife_us: int = 7 * 24 * 3600 * 1_000_000,
                             round_to: int = 6) -> str:
    """Mirror of stages/selection.time_decay_aggregate: per-event decay
    2^(-(T - t)/halflife) to the corpus horizon T; identical float
    expression shape, per-user sum rounded."""
    return f"""
WITH t AS (SELECT max(epoch_us(ts)) AS tmax FROM events)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
       round(sum(value * pow(2.0,
             -CAST(t.tmax - epoch_us(ts) AS DOUBLE) / {halflife_us})),
             {round_to}) AS score
FROM events CROSS JOIN t
GROUP BY user_id ORDER BY user_id
"""


def q6_forecast_revenue_sql(round_to: int = 4) -> str:
    return f"""
SELECT round(COALESCE(sum(l_extendedprice * l_discount), 0.0),
             {round_to}) AS revenue,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1997-01-01'
  AND l_discount >= CAST(0.05 AS DOUBLE)
  AND l_discount <= CAST(0.07 AS DOUBLE)
  AND l_quantity < 24
"""


def q3_shipping_priority_sql(segment: str = "BUILDING",
                             cutoff: str = "1997-01-01", k: int = 10,
                             round_to: int = 4) -> str:
    return f"""
WITH c AS (SELECT c_custkey FROM customer
           WHERE c_mktsegment = '{segment}'),
o AS (SELECT o_orderkey, o_orderdate
      FROM orders JOIN c ON o_custkey = c_custkey
      WHERE o_orderdate < TIMESTAMP '{cutoff}'),
r AS (SELECT l_orderkey,
             round(sum(l_extendedprice * (1.0 - l_discount)),
                   {round_to}) AS revenue
      FROM lineitem JOIN o ON l_orderkey = o_orderkey
      WHERE l_shipdate > TIMESTAMP '{cutoff}'
      GROUP BY l_orderkey)
SELECT r.l_orderkey, r.revenue, o.o_orderdate
FROM r JOIN o ON o.o_orderkey = r.l_orderkey
ORDER BY revenue DESC, l_orderkey LIMIT {k}
"""


def hll_error_eval_sql(p: int = 10, round_to: int = 6) -> str:
    """Mirror of stages/textops.hll_error_eval: the hll_estimate
    mirror joined with the exact COUNT(DISTINCT token); rel_err from
    the ROUNDED estimate on both sides."""
    est = hll_estimate_sql(p=p, round_to=round_to)
    return f"""
WITH est AS ({est}),
ex AS (SELECT CAST(count(DISTINCT term) AS BIGINT) AS exact FROM (
  SELECT unnest({_STRIP_SPLIT}) AS term FROM documents
  WHERE {_STRIP_SPLIT}[1] <> ''))
SELECT ex.exact, est.estimate,
       CASE WHEN ex.exact = 0 THEN 0.0
            ELSE round(abs(est.estimate - ex.exact) / ex.exact,
                       {round_to}) END AS rel_err
FROM ex CROSS JOIN est
"""


def minhash_error_eval_sql(threshold: float = 0.6, seed: int = 42,
                           round_to: int = 6) -> str:
    """Mirror of stages/dedup.minhash_error_eval: the minhash_pairs
    CTE chain extended with the per-pair signature-match fraction
    (exact dyadic n/64); abs_err against the ROUNDED jaccard."""
    from .stages.dedup import _MERSENNE, _NUM_HASHES, _minhash_params
    a, b = _minhash_params(seed)
    fns = ", ".join(f"({j}, {int(a[j])}::HUGEINT, {int(b[j])}::HUGEINT)"
                    for j in range(_NUM_HASHES))
    rpb = _NUM_HASHES // 16
    return f"""
WITH RECURSIVE
{_crc32_ctes(f'''raw AS (SELECT doc_id, {_STRIP_SPLIT} AS toks
  FROM (SELECT doc_id, COALESCE(text, '') AS text FROM documents)),
items AS (
  SELECT doc_id, unnest(range(len(toks) - 2)) AS iid,
         unnest(list_transform(range(len(toks) - 2),
           i -> toks[i + 1] || ' ' || toks[i + 2] || ' ' || toks[i + 3])) AS s
  FROM raw WHERE len(toks) >= 3
  UNION ALL
  SELECT doc_id, 0 AS iid, array_to_string(toks, ' ') AS s
  FROM raw WHERE len(toks) < 3 AND toks[1] <> '')''')},
fn(j, fa, fb) AS (SELECT * FROM (VALUES {fns}) v(j, fa, fb)),
csets AS MATERIALIZED (
  SELECT doc_id, list(DISTINCT crc ORDER BY crc) AS cs FROM crcf
  GROUP BY doc_id
  UNION ALL
  SELECT doc_id, [0]::BIGINT[] AS cs FROM raw WHERE toks[1] = ''),
shq AS (SELECT doc_id, unnest(cs) AS crc FROM csets),
sigs AS MATERIALIZED (
  SELECT s.doc_id, fn.j,
         min(((fn.fa * s.crc::HUGEINT + fn.fb)
              % {_MERSENNE}::HUGEINT))::BIGINT AS sig
  FROM shq s CROSS JOIN fn GROUP BY s.doc_id, fn.j),
bands AS MATERIALIZED (
  SELECT doc_id, j // {rpb} AS band,
         list(sig ORDER BY j) AS key FROM sigs GROUP BY doc_id, j // {rpb}),
cand AS MATERIALIZED (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM bands x JOIN bands y
    ON x.band = y.band AND x.key = y.key AND x.doc_id < y.doc_id),
jac AS (
  SELECT c.doc_a, c.doc_b,
         len(list_intersect(sa.cs, sb.cs))::DOUBLE
           / (len(sa.cs) + len(sb.cs)
              - len(list_intersect(sa.cs, sb.cs)))::DOUBLE AS jx
  FROM cand c
  JOIN csets sa ON sa.doc_id = c.doc_a
  JOIN csets sb ON sb.doc_id = c.doc_b),
kept AS (SELECT doc_a, doc_b, round(jx, {round_to}) AS jaccard
         FROM jac WHERE jx >= {threshold!r}),
est AS (
  SELECT k.doc_a, k.doc_b,
         sum(CASE WHEN xa.sig = xb.sig THEN 1
                  ELSE 0 END)::DOUBLE / {_NUM_HASHES} AS e
  FROM kept k
  JOIN sigs xa ON xa.doc_id = k.doc_a
  JOIN sigs xb ON xb.doc_id = k.doc_b AND xb.j = xa.j
  GROUP BY 1, 2)
SELECT k.doc_a, k.doc_b, k.jaccard,
       round(e.e, {round_to}) AS est_jaccard,
       round(abs(e.e - k.jaccard), {round_to}) AS abs_err
FROM kept k JOIN est e ON e.doc_a = k.doc_a AND e.doc_b = k.doc_b
ORDER BY k.doc_a, k.doc_b
"""


def raster_to_polygons_sql(rows: int = 256, cols: int = 256,
                           n_classes: int = 6,
                           class_width: float = 175.0,
                           k_doubling: int = 20) -> str:
    """Exact mirror of stages/vectorize.raster_to_polygons (round-4:
    previously rows-only). The impl's ring trace with the
    sharpest-clockwise-turn saddle rule is a PURE SUCCESSOR
    PERMUTATION over directed boundary edges (the turn rule pairs each
    in-edge with a distinct out-edge at every saddle —
    fuzz-established over random grids incl. corner-touching and
    NoData holes, tests/test_vectorize_oracle.py), so
    n_rings = #cycles of succ — counted here by POINTER DOUBLING
    (f←f∘f, m←min(m, m∘f), {20} rounds covers rings ≤ 2^20 edges).
    perimeter = #directed boundary edges; area = #cells per class
    (signed shoelace over rings telescopes to the cell count)."""
    nod = _NOD
    vals = (f"vals AS MATERIALIZED (SELECT i AS cell, "
            f"CASE WHEN ((i * 2246822519 + 1013904223) % 4294967296) "
            f"% 17 = 0 THEN {nod} "
            f"ELSE ((i * 2654435761) % 4294967296) / 4294967296.0 "
            f"* 1000.0 END AS v FROM range(0, {rows * cols}) t(i))")
    sides = [
        (0, "r > 0", f"b.cell - {cols}", "c", "r", "c + 1", "r"),
        (1, f"c < {cols - 1}", "b.cell + 1",
         "c + 1", "r", "c + 1", "r + 1"),
        (2, f"r < {rows - 1}", f"b.cell + {cols}",
         "c + 1", "r + 1", "c", "r + 1"),
        (3, "c > 0", "b.cell - 1", "c", "r + 1", "c", "r"),
    ]
    edge_sel = " UNION ALL ".join(
        f"""SELECT b.cell * 4 + {sid} AS eid, b.k,
       {sx} AS sx, {sy} AS sy, {ex} AS ex, {ey} AS ey
FROM (SELECT cell, k, cell // {cols} AS r, cell % {cols} AS c
      FROM kl) b
LEFT JOIN kl nb ON ({guard}) AND nb.cell = {nbcell}
WHERE nb.cell IS NULL OR nb.k <> b.k"""
        for sid, guard, nbcell, sx, sy, ex, ey in sides)
    dbl, prev = [], "pd0"
    for t in range(1, k_doubling + 1):
        dbl.append(f"""pd{t} AS MATERIALIZED (
  SELECT a.eid, b.f AS f, LEAST(a.m, b.m) AS m
  FROM {prev} a JOIN {prev} b ON b.eid = a.f)""")
        prev = f"pd{t}"
    return f"""
WITH
{vals},
kl AS MATERIALIZED (
  SELECT cell, LEAST(GREATEST(CAST(floor(v / {class_width!r}) AS BIGINT),
               0), {n_classes - 1}) AS k
  FROM vals WHERE v <> {nod}),
edges AS MATERIALIZED ({edge_sel}),
succ AS MATERIALIZED (
  SELECT eid, f FROM (
    SELECT e.eid, o.eid AS f,
           row_number() OVER (PARTITION BY e.eid ORDER BY
             -((e.ex - e.sx) * (o.ey - o.sy)
               - (e.ey - e.sy) * (o.ex - o.sx)),
             -((e.ex - e.sx) * (o.ex - o.sx)
               + (e.ey - e.sy) * (o.ey - o.sy)),
             o.eid) AS rn
    FROM edges e JOIN edges o
      ON o.k = e.k AND o.sx = e.ex AND o.sy = e.ey)
  WHERE rn = 1),
pd0 AS MATERIALIZED (SELECT eid, f, eid AS m FROM succ),
{",".join(dbl)},
lab AS (SELECT e.eid, e.k, p.m FROM edges e JOIN {prev} p USING (eid)),
per_v AS (
  SELECT k AS value,
         CAST(count(DISTINCT m) AS BIGINT) AS n_rings,
         CAST(count(*) AS BIGINT) AS perimeter
  FROM lab GROUP BY k),
areas AS (SELECT k AS value, CAST(count(*) AS BIGINT) AS area
          FROM kl GROUP BY k)
SELECT value, n_rings, perimeter, area
FROM per_v JOIN areas USING (value) ORDER BY value
"""


def contour_polylines_sql(rows: int = 256, cols: int = 256,
                          levels: tuple = (250.0, 500.0, 750.0),
                          round_to: int = 4,
                          k_doubling: int = 17) -> str:
    """Exact mirror of stages/vectorize.contour_polylines (round-4:
    previously rows-only). Marching squares replayed per (square,
    level) with the impl's exact case table (codes 6/9 disambiguated
    by the centre mean); polyline/ring counts via LIST-RANKING pointer
    doubling over the (segment, exit-side) functional graph — on a
    contour graph every vertex has degree <= 2, so components are
    paths/cycles, the doubled pointer state stays O(segments), and the
    walk order the impl uses cannot change the component count.
    n_closed = components with no degree-1 endpoint. Endpoint floats
    join exactly because both sides evaluate the identical IEEE
    interpolation expressions."""
    nod = _NOD

    def z(cell):
        return (f"(CASE WHEN (({cell}) * 2246822519 + 1013904223) "
                f"% 4294967296 % 17 = 0 THEN {nod} "
                f"ELSE ((({cell}) * 2654435761) % 4294967296) "
                f"/ 4294967296.0 * 1000.0 END)")

    lv = ", ".join(f"({l!r})" for l in levels)
    dbl = ",".join(f"""pd{t} AS MATERIALIZED (
  SELECT a.lvl, a.sid, a.side,
         b.f_sid, b.f_side, LEAST(a.m, COALESCE(b.m, a.m)) AS m
  FROM pd{t - 1} a LEFT JOIN pd{t - 1} b
    ON b.lvl = a.lvl AND b.sid = a.f_sid AND b.side = a.f_side)"""
                   for t in range(1, k_doubling + 1))
    return f"""
WITH RECURSIVE
lvls(l) AS (VALUES {lv}),
sq AS (
  SELECT r, c, {z(f'r * {cols} + c')} AS a,
         {z(f'r * {cols} + c + 1')} AS b,
         {z(f'(r + 1) * {cols} + c')} AS cc,
         {z(f'(r + 1) * {cols} + c + 1')} AS d
  FROM (SELECT i // {cols - 1} AS r, i % {cols - 1} AS c
        FROM range(0, {(rows - 1) * (cols - 1)}) t(i))),
base AS MATERIALIZED (
  SELECT lv.l AS lvl, q.r, q.c, q.a, q.b, q.cc, q.d,
         ((CASE WHEN q.a >= lv.l THEN 1 ELSE 0 END)
        + (CASE WHEN q.b >= lv.l THEN 2 ELSE 0 END)
        + (CASE WHEN q.cc >= lv.l THEN 4 ELSE 0 END)
        + (CASE WHEN q.d >= lv.l THEN 8 ELSE 0 END)) AS code,
         ((q.a + q.b + q.cc + q.d) / 4.0 >= lv.l) AS ch,
         (q.r * {cols} + q.c) AS sqid
  FROM sq q CROSS JOIN lvls lv
  WHERE q.a <> {nod} AND q.b <> {nod} AND q.cc <> {nod}
    AND q.d <> {nod}),
lets AS MATERIALIZED (
  SELECT lvl, sqid * 2 + 0 AS sid, r, c, a, b, cc, d,
    CASE WHEN code IN (1, 14) THEN 'T' WHEN code IN (2, 13) THEN 'T'
         WHEN code IN (4, 11) THEN 'L' WHEN code IN (7, 8) THEN 'R'
         WHEN code IN (3, 12) THEN 'L' WHEN code IN (5, 10) THEN 'T'
         WHEN code IN (6, 9) THEN 'T' END AS e1,
    CASE WHEN code IN (1, 14) THEN 'L' WHEN code IN (2, 13) THEN 'R'
         WHEN code IN (4, 11) THEN 'B' WHEN code IN (7, 8) THEN 'B'
         WHEN code IN (3, 12) THEN 'R' WHEN code IN (5, 10) THEN 'B'
         WHEN code = 6 THEN (CASE WHEN ch THEN 'R' ELSE 'L' END)
         WHEN code = 9 THEN (CASE WHEN ch THEN 'L' ELSE 'R' END)
         END AS e2
  FROM base WHERE code NOT IN (0, 15)
  UNION ALL
  SELECT lvl, sqid * 2 + 1, r, c, a, b, cc, d,
    CASE WHEN code = 6 THEN (CASE WHEN ch THEN 'L' ELSE 'R' END)
         WHEN code = 9 THEN (CASE WHEN ch THEN 'R' ELSE 'L' END) END,
    'B'
  FROM base WHERE code IN (6, 9)),
segs AS MATERIALIZED (
  SELECT lvl, sid,
    CASE e1 WHEN 'T' THEN c + (lvl - a) / (b - a)
            WHEN 'B' THEN c + (lvl - cc) / (d - cc)
            WHEN 'L' THEN CAST(c AS DOUBLE)
            WHEN 'R' THEN CAST(c + 1 AS DOUBLE) END AS x1,
    CASE e1 WHEN 'T' THEN CAST(r AS DOUBLE)
            WHEN 'B' THEN CAST(r + 1 AS DOUBLE)
            WHEN 'L' THEN r + (lvl - a) / (cc - a)
            WHEN 'R' THEN r + (lvl - b) / (d - b) END AS y1,
    CASE e2 WHEN 'T' THEN c + (lvl - a) / (b - a)
            WHEN 'B' THEN c + (lvl - cc) / (d - cc)
            WHEN 'L' THEN CAST(c AS DOUBLE)
            WHEN 'R' THEN CAST(c + 1 AS DOUBLE) END AS x2,
    CASE e2 WHEN 'T' THEN CAST(r AS DOUBLE)
            WHEN 'B' THEN CAST(r + 1 AS DOUBLE)
            WHEN 'L' THEN r + (lvl - a) / (cc - a)
            WHEN 'R' THEN r + (lvl - b) / (d - b) END AS y2
  FROM lets),
ends AS MATERIALIZED (
  SELECT lvl, sid, 1 AS side, x1 AS x, y1 AS y FROM segs
  UNION ALL
  SELECT lvl, sid, 2, x2, y2 FROM segs),
deg AS MATERIALIZED (
  SELECT lvl, x, y, count(*) AS dg FROM ends GROUP BY lvl, x, y),
nxt AS MATERIALIZED (
  SELECT a.lvl, a.sid, a.side,
         b.sid AS nsid,
         (CASE WHEN b.side = 1 THEN 2 ELSE 1 END) AS nside
  FROM ends a
  JOIN deg d ON d.lvl = a.lvl AND d.x = a.x AND d.y = a.y AND d.dg = 2
  JOIN ends b ON b.lvl = a.lvl AND b.x = a.x AND b.y = a.y
             AND b.sid <> a.sid),
pd0 AS MATERIALIZED (
  SELECT e.lvl, e.sid, e.side,
         n.nsid AS f_sid, n.nside AS f_side, e.sid AS m
  FROM ends e LEFT JOIN nxt n
    ON n.lvl = e.lvl AND n.sid = e.sid AND n.side = e.side),
{dbl},
lab AS (SELECT lvl, sid, min(m) AS comp
        FROM pd{k_doubling} GROUP BY lvl, sid),
open_comp AS (
  SELECT DISTINCT l.lvl, l.comp
  FROM ends e JOIN deg d ON d.lvl = e.lvl AND d.x = e.x AND d.y = e.y
                         AND d.dg = 1
  JOIN lab l ON l.lvl = e.lvl AND l.sid = e.sid),
comps AS (SELECT lvl, comp FROM lab GROUP BY lvl, comp)
SELECT s.lvl AS level,
       CAST(count(DISTINCT s.sid) AS BIGINT) AS n_segments,
       (SELECT count(*) FROM comps c WHERE c.lvl = s.lvl) AS n_polylines,
       (SELECT count(*) FROM comps c WHERE c.lvl = s.lvl
          AND NOT EXISTS (SELECT 1 FROM open_comp o
                          WHERE o.lvl = c.lvl AND o.comp = c.comp))
         AS n_closed,
       round(sum(sqrt((s.x2 - s.x1) * (s.x2 - s.x1)
                      + (s.y2 - s.y1) * (s.y2 - s.y1))), {round_to})
         AS total_length
FROM segs s GROUP BY s.lvl ORDER BY level
"""


def _pca_spectrum_ctes(k: int = 4, p: int = 16) -> str:
    """Shared CTE chain computing the top-``k`` eigenvalues of the
    embeddings covariance — the mirror of stages/embeddings
    .pca_embeddings' LAPACK ``eigvalsh`` (round-4: the rows-only PCA
    pair gets exact oracles). Covariance from the identical moment
    algebra (Σxxᵀ − n·μμᵀ)/(n−1); each eigenpair via REPEATED MATRIX
    SQUARING (a recursive CTE of ``p`` Frobenius-normalized
    self-multiplications ⇒ the 2^p-th power iterate — eigengap ratio
    r collapses to r^(2^p) ≈ 0, so the dominant eigenvector is exact
    to machine precision), Rayleigh quotient against the UNSQUARED
    matrix, then rank-one deflation. 64×64 matrices: ~17 M joined rows
    total, ≈1 s in DuckDB. Exposes lam0..lam{k-1}, tr, nn, mu, x."""
    comps = []
    prev_m = "m0"
    for c in range(k):
        comps.append(f"""
sq{c}(it, i, j, v) AS (
  SELECT 0, i, j, v / (SELECT sqrt(sum(v * v)) FROM {prev_m})
  FROM {prev_m}
  UNION ALL
  (WITH cur AS (SELECT * FROM sq{c} WHERE it < {p}),
   mm AS (SELECT a.i, b.j, sum(a.v * b.v) AS v
          FROM cur a JOIN cur b ON a.j = b.i GROUP BY a.i, b.j),
   fn AS (SELECT sqrt(sum(v * v)) AS s FROM mm),
   tt AS (SELECT max(it) AS it FROM cur)
   SELECT tt.it + 1, mm.i, mm.j, mm.v / fn.s FROM mm, fn, tt)
),
vraw{c} AS MATERIALIZED (
  SELECT i, sum(v * sin(CAST(j + 1 AS DOUBLE))) AS y
  FROM sq{c} WHERE it = {p} GROUP BY i),
vec{c} AS MATERIALIZED (
  SELECT i, y / (SELECT sqrt(sum(y * y)) FROM vraw{c}) AS val
  FROM vraw{c}),
lam{c} AS MATERIALIZED (
  SELECT sum(a.val * m.v * b.val) AS l
  FROM {prev_m} m JOIN vec{c} a ON a.i = m.i
  JOIN vec{c} b ON b.i = m.j),
m{c + 1} AS MATERIALIZED (
  SELECT m.i, m.j, m.v - lam.l * a.val * b.val AS v
  FROM {prev_m} m JOIN vec{c} a ON a.i = m.i
  JOIN vec{c} b ON b.i = m.j CROSS JOIN lam{c} lam)""")
        prev_m = f"m{c + 1}"
    return f"""
evr AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
        FROM embeddings WHERE embedding IS NOT NULL),
x AS MATERIALIZED (
  SELECT vec_id AS r, unnest(range(len(v))) AS i, unnest(v) AS xi
  FROM evr),
nn AS MATERIALIZED (SELECT CAST(count(*) AS DOUBLE) AS n FROM evr),
mu AS MATERIALIZED (
  SELECT i, sum(xi) / nn.n AS m FROM x, nn GROUP BY i, nn.n),
sxx AS MATERIALIZED (
  SELECT a.i AS i, b.i AS j, sum(a.xi * b.xi) AS s
  FROM x a JOIN x b ON a.r = b.r GROUP BY a.i, b.i),
m0 AS MATERIALIZED (
  SELECT s.i, s.j, (s.s - nn.n * ma.m * mb.m) / (nn.n - 1) AS v
  FROM sxx s JOIN mu ma ON ma.i = s.i JOIN mu mb ON mb.i = s.j
  CROSS JOIN nn),
tr AS (SELECT sum(v) AS t FROM m0 WHERE i = j),{",".join(comps)}"""


def pca_embeddings_sql(k: int = 4, round_to: int = 6) -> str:
    """Exact mirror of stages/embeddings.pca_embeddings (spectrum
    only, matching the impl's sign-free output)."""
    sel = " UNION ALL ".join(
        f"SELECT {c}::BIGINT AS component, (SELECT l FROM lam{c}) AS ev"
        for c in range(k))
    return f"""
WITH RECURSIVE
{_pca_spectrum_ctes(k)},
spec AS ({sel})
SELECT component, round(ev, {round_to}) AS eigenvalue,
       round(ev / tr.t, {round_to}) AS explained_ratio
FROM spec CROSS JOIN tr CROSS JOIN nn
WHERE nn.n >= 2
ORDER BY component
"""


def inverse_pca_sql(k: int = 4, round_to: int = 6) -> str:
    """Exact mirror of stages/embeddings.inverse_pca_embeddings: the
    impl reconstructs row-wise (x̂ = μ + VVᵀ(x−μ)) and sums squared
    errors; analytically sse = sst − (n−1)·Σ top-k λ and
    sst = Σ‖x−μ‖² (V orthonormal), so the oracle needs only the
    spectrum CTEs. Both sides round at {6} dp; the float paths differ
    below 1e-10 relative (spectra are machine-exact after 2^16-power
    squaring)."""
    lam_sum = " + ".join(f"(SELECT l FROM lam{c})" for c in range(k))
    return f"""
WITH RECURSIVE
{_pca_spectrum_ctes(k)},
sst AS (SELECT sum((x.xi - mu.m) * (x.xi - mu.m)) AS s
        FROM x JOIN mu USING (i))
SELECT {k}::BIGINT AS k,
       round(sst.s, {round_to}) AS total_var,
       round(sst.s - (nn.n - 1) * ({lam_sum}), {round_to})
         AS recon_error,
       round(1.0 - (sst.s - (nn.n - 1) * ({lam_sum})) / sst.s,
             {round_to}) AS retained_ratio
FROM sst, nn
WHERE nn.n >= 2
"""


def _bpe_train_ctes(n_merges: int) -> str:
    """Shared WITH RECURSIVE body mirroring stages/corpus.bpe_train's
    merge loop (Sennrich et al. 2016): word counts → per-word symbol
    rows (chars + '</w>') → 1 iteration per merge: argmax pair count
    (ties → lexicographically smallest (left, right); DuckDB binary
    VARCHAR compare ≡ Python code-point tuple compare), then a
    left-to-right NON-OVERLAPPING rewrite. Overlap runs (e.g. 'aaa'
    with pair (a,a)) resolve by gaps-and-islands alternation — take
    the 1st, 3rd, … match of each maximal run of consecutive match
    positions, exactly the impl's scan-and-jump loop. Symbols stay
    raw VARCHAR list elements (one row per position) — no separator
    encoding, so NUL/control-char tokens need no escaping. CTEs that the
    recursive branches reference are MATERIALIZED (DuckDB otherwise
    re-evaluates them per iteration — measured 22 s → 1 s)."""
    strip = _STRIP_SPLIT
    return f"""
raw AS (SELECT {strip} AS toks FROM documents),
tok AS (SELECT unnest(toks) AS token FROM raw WHERE toks[1] <> ''),
wc AS (SELECT token, CAST(count(*) AS BIGINT) AS cnt FROM tok
       GROUP BY token),
words AS MATERIALIZED (
  SELECT row_number() OVER (ORDER BY token) AS wid, token, cnt FROM wc),
init AS MATERIALIZED (
  SELECT wid, cnt,
         unnest(range(length(token) + 1)) AS pos,
         unnest(list_append(
             list_transform(range(length(token)),
                            i -> token[CAST(i + 1 AS BIGINT)]),
             '</w>')) AS sym
  FROM words),
bpe(it, wid, pos, sym, cnt, l, r) AS (
  SELECT 0, wid, CAST(pos AS BIGINT), sym, cnt,
         CAST(NULL AS VARCHAR), CAST(NULL AS VARCHAR)
  FROM init
  UNION ALL
  (WITH cur AS (SELECT * FROM bpe WHERE it < {n_merges}),
   best AS (
     SELECT a.sym AS l, b.sym AS r
     FROM cur a JOIN cur b ON b.wid = a.wid AND b.pos = a.pos + 1
     GROUP BY a.sym, b.sym
     ORDER BY sum(a.cnt) DESC, a.sym, b.sym LIMIT 1),
   hits AS (
     SELECT a.wid, a.pos
     FROM cur a JOIN cur b ON b.wid = a.wid AND b.pos = a.pos + 1
     CROSS JOIN best WHERE a.sym = best.l AND b.sym = best.r),
   keep AS (
     SELECT wid, pos FROM (
       SELECT wid, pos,
              row_number() OVER (PARTITION BY wid, g ORDER BY pos) AS rn
       FROM (SELECT wid, pos,
                    pos - row_number() OVER (PARTITION BY wid
                                             ORDER BY pos) AS g
             FROM hits))
     WHERE rn % 2 = 1)
   SELECT c.it + 1, c.wid,
          row_number() OVER (PARTITION BY c.wid ORDER BY c.pos) - 1
            AS pos,
          CASE WHEN k1.pos IS NOT NULL THEN best.l || best.r
               ELSE c.sym END AS sym,
          c.cnt, best.l, best.r
   FROM cur c
   CROSS JOIN best
   LEFT JOIN keep k1 ON k1.wid = c.wid AND k1.pos = c.pos
   LEFT JOIN keep k2 ON k2.wid = c.wid AND k2.pos = c.pos - 1
   WHERE k2.pos IS NULL)
)"""


def bpe_train_sql(n_merges: int = 50) -> str:
    """Mirror of stages/corpus.bpe_train as ONE recursive CTE — the
    iterative argmax-merge loop runs inside DuckDB (the `_d8_walk_ctes`
    pattern applied to tokenizer training). Output (rank, left, right,
    merged), rank = iteration order."""
    return f"""
WITH RECURSIVE
{_bpe_train_ctes(n_merges)}
SELECT CAST(it - 1 AS BIGINT) AS "rank", l AS "left", r AS "right",
       l || r AS merged
FROM (SELECT DISTINCT it, l, r FROM bpe WHERE it > 0)
ORDER BY it
"""


def bpe_encode_stats_sql(n_merges: int = 50, k: int = 100) -> str:
    """Mirror of stages/corpus.bpe_encode_stats: train (shared CTEs),
    then a SECOND recursive CTE encodes every distinct word with the
    impl's greedy encoder — each iteration applies the single
    lowest-rank applicable merge at its FIRST position (`_bpe_apply`'s
    scan), one merge per word per round; a word drops out of the
    recursion when no trained pair applies, and its final segmentation
    is its max-iteration row set. Subword counts = Σ word-count over
    final positions; top-k (cnt desc, subword asc)."""
    return f"""
WITH RECURSIVE
{_bpe_train_ctes(n_merges)},
ranks AS MATERIALIZED (
  SELECT CAST(it - 1 AS BIGINT) AS rnk, l, r
  FROM (SELECT DISTINCT it, l, r FROM bpe WHERE it > 0)),
enc(it, wid, pos, sym) AS (
  SELECT 0, wid, CAST(pos AS BIGINT), sym FROM init
  UNION ALL
  (WITH cur AS (SELECT * FROM enc),
   pick AS (
     SELECT wid, pos, l, r FROM (
       SELECT a.wid, a.pos, m.l, m.r,
              row_number() OVER (PARTITION BY a.wid
                                 ORDER BY m.rnk, a.pos) AS rn
       FROM cur a JOIN cur b ON b.wid = a.wid AND b.pos = a.pos + 1
       JOIN ranks m ON m.l = a.sym AND m.r = b.sym)
     WHERE rn = 1)
   SELECT c.it + 1, c.wid,
          row_number() OVER (PARTITION BY c.wid ORDER BY c.pos) - 1
            AS pos,
          CASE WHEN p1.pos IS NOT NULL THEN p1.l || p1.r
               ELSE c.sym END AS sym
   FROM cur c
   JOIN (SELECT DISTINCT wid FROM pick) w ON w.wid = c.wid
   LEFT JOIN pick p1 ON p1.wid = c.wid AND p1.pos = c.pos
   LEFT JOIN pick p2 ON p2.wid = c.wid AND p2.pos = c.pos - 1
   WHERE p2.pos IS NULL)
),
fin AS (SELECT wid, sym FROM
          (SELECT *, max(it) OVER (PARTITION BY wid) AS mi FROM enc)
        WHERE it = mi)
SELECT sym AS subword, CAST(sum(w.cnt) AS BIGINT) AS cnt
FROM fin JOIN words w USING (wid)
GROUP BY sym ORDER BY cnt DESC, subword LIMIT {k}
"""


def corpus_summary_sql(round_to: int = 6) -> str:
    """Mirror of stages/textops.corpus_summary — the dataset-card
    counts; null lang/source group under '' like the impl."""
    return f"""
WITH raw AS (SELECT {_STRIP_SPLIT} AS toks FROM documents),
st AS (SELECT CAST(count(*) AS BIGINT) AS n_nonempty,
              CAST(COALESCE(sum(len(toks)), 0) AS BIGINT) AS n_tokens
       FROM raw WHERE toks[1] <> ''),
voc AS (SELECT CAST(count(DISTINCT term) AS BIGINT) AS vocab FROM (
          SELECT unnest(toks) AS term FROM raw WHERE toks[1] <> '')),
d AS (SELECT md5(COALESCE(text, '')) AS h,
             COALESCE(lang, '') AS lang,
             COALESCE(source, '') AS source FROM documents),
agg AS (SELECT CAST(count(*) AS BIGINT) AS n_docs,
               CAST(count(DISTINCT h) AS BIGINT) AS n_dist,
               CAST(count(DISTINCT lang) AS BIGINT) AS n_langs,
               CAST(count(DISTINCT source) AS BIGINT) AS n_sources
        FROM d)
SELECT agg.n_docs, st.n_nonempty, st.n_tokens, voc.vocab,
       agg.n_langs, agg.n_sources,
       CASE WHEN agg.n_docs = 0 THEN 0.0
            ELSE round(1.0 - CAST(agg.n_dist AS DOUBLE) / agg.n_docs,
                       {round_to}) END AS dup_rate,
       CASE WHEN st.n_nonempty = 0 THEN 0.0
            ELSE round(CAST(st.n_tokens AS DOUBLE) / st.n_nonempty,
                       {round_to}) END AS mean_doc_len
FROM agg CROSS JOIN st CROSS JOIN voc
"""
