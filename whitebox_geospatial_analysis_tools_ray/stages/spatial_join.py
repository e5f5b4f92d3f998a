"""Spatial joins: broadcast PIP join + groupby-shuffle cell-partitioned join.

Reference semantics:
- predicate set & semi/anti behaviour —
  ``VectorTools/src/plugins/IsolateVectorFeaturesByLocation.java:240-260,360-552``
- even-odd PIP fill — ``ConversionTools/src/plugins/VectorPolygonsToRaster.java:370-446``
- broadcast clip-geometry pattern — ``VectorTools/src/plugins/Clip.java:253-269``

Two physical strategies (SURVEY.md §7.3/7.4):

1. **Broadcast** (small zone side): the zone table is ``ray.put`` once;
   a plain ``map_batches`` task builds a coarse grid index (or R-tree)
   over zone bboxes ONCE PER WORKER PROCESS and caches it
   (:func:`cached_join`), then streams point batches through a
   vectorized bbox prefilter + exact even-odd PIP refine.
2. **Cell-partitioned shuffle** (both sides large): both sides get an
   H3/S2-style cell key (RectGrid tile id); zones are duplicated into
   every cell their bbox overlaps; ``util.combine`` keyed on the cell runs the
   same refine per cell. Hot cells can be salted (``salt`` param splits
   a cell's points into k sub-groups, replicating the zone side).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..core.geom import Polygon, points_in_polygon, points_in_triangle
from ..core.rng import EAST, NORTH, SOUTH, WEST
from ..core.tiles import RectGrid


def _zone_groups(prow: np.ndarray, zid: np.ndarray) -> list:
    """Split (point row, zone index) pairs by zone with one stable
    argsort: [(zone index, point rows)], zones ascending, each zone's
    rows in pair order."""
    if not len(zid):
        return []
    order = np.argsort(zid, kind="stable")
    z, rows = zid[order], prow[order]
    cut = (np.flatnonzero(z[1:] != z[:-1]) + 1).tolist()
    return [(int(z[a]), rows[a:b])
            for a, b in zip([0] + cut, cut + [len(z)])]


class ZoneGridIndex:
    """Coarse uniform-grid index over zone bounding boxes (pure numpy,
    the environment's stand-in for an STRtree). Built once per worker
    process.

    Cell → zones is a CSR: the zones whose bbox overlaps cell ``c`` are
    ``cell_zone[cell_ptr[c]:cell_ptr[c + 1]]``, ascending. A probe
    expands every point into one (point, zone) pair per zone of its
    cell and splits the pairs by zone, so it costs O(points + pairs)
    whatever the number of occupied cells."""

    def __init__(self, zones: list[dict], ncells: int = 16):
        self.zones = zones
        self.ncells = ncells
        self.w = (EAST - WEST) / ncells
        self.h = (NORTH - SOUTH) / ncells
        cells, zis = [], []
        for zi, z in enumerate(zones):
            bb = z.get("bbox") or (z["xmin"], z["ymin"], z["xmax"], z["ymax"])
            c0 = max(0, int((bb[0] - WEST) // self.w))
            c1 = min(ncells - 1, int((bb[2] - WEST) // self.w))
            r0 = max(0, int((bb[1] - SOUTH) // self.h))
            r1 = min(ncells - 1, int((bb[3] - SOUTH) // self.h))
            for r in range(r0, r1 + 1):
                for c in range(c0, c1 + 1):
                    cells.append(r * ncells + c)
                    zis.append(zi)
        cells = np.array(cells, dtype=np.int64)
        self.cell_zone = np.array(zis, dtype=np.int64)[
            np.argsort(cells, kind="stable")]
        self.cell_ptr = np.zeros(ncells * ncells + 1, dtype=np.int64)
        np.cumsum(np.bincount(cells, minlength=ncells * ncells),
                  out=self.cell_ptr[1:])

    def candidates(self, x: np.ndarray, y: np.ndarray) -> dict[int, np.ndarray]:
        """zone index → boolean mask (one entry per point) of the points
        whose grid cell holds the zone; zones without such a point are
        left out."""
        col = np.clip(((x - WEST) // self.w).astype(np.int64), 0, self.ncells - 1)
        row = np.clip(((y - SOUTH) // self.h).astype(np.int64), 0, self.ncells - 1)
        cell = row * self.ncells + col
        lo = self.cell_ptr[cell]
        cnt = self.cell_ptr[cell + 1] - lo
        prow = np.repeat(np.arange(len(cell), dtype=np.int64), cnt)
        # the k-th pair of point p reads CSR slot lo[p] + k
        slot = (np.arange(len(prow), dtype=np.int64)
                - np.repeat(np.cumsum(cnt) - cnt - lo, cnt))
        out = {}
        for zi, rows in _zone_groups(prow, self.cell_zone[slot]):
            mask = np.zeros(len(cell), dtype=bool)
            mask[rows] = True
            out[zi] = mask
        return out


def _zone_hit_mask(z: dict, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact predicate for one zone over a point batch."""
    if "polygon" in z:
        return points_in_polygon(x, y, z["polygon"])
    if "ax" in z:
        return points_in_triangle(x, y, z["ax"], z["ay"], z["bx"], z["by"],
                                  z["cx"], z["cy"])
    return ((x >= z["xmin"]) & (x <= z["xmax"]) &
            (y >= z["ymin"]) & (y <= z["ymax"]))


def _zone_bbox(z: dict) -> tuple:
    if "polygon" in z:
        return z["polygon"].bbox
    if "ax" in z:
        xs = (z["ax"], z["bx"], z["cx"])
        ys = (z["ay"], z["by"], z["cy"])
        return (min(xs), min(ys), max(xs), max(ys))
    return (z["xmin"], z["ymin"], z["xmax"], z["ymax"])


def _load_zones(zones_ref) -> list[dict]:
    """Fetch a broadcast zone table and fill each zone's ``bbox``."""
    zones = ray.get(zones_ref) if isinstance(zones_ref, ray.ObjectRef) else zones_ref
    for z in zones:
        z["bbox"] = _zone_bbox(z)
    return zones


def _pairs_frame(recs: list, zids: list) -> pd.DataFrame:
    """(rec_id, zone_id) int64 frame from per-zone chunks; typed when empty."""
    if not recs:
        return pd.DataFrame({"rec_id": np.array([], dtype=np.int64),
                             "zone_id": np.array([], dtype=np.int64)})
    return pd.DataFrame({"rec_id": np.concatenate(recs),
                         "zone_id": np.concatenate(zids)})


def _refine_pairs(zone_rows, x: np.ndarray, y: np.ndarray,
                  rec: np.ndarray) -> pd.DataFrame:
    """Inner refine: for each (zone, candidate rows) the exact predicate
    keeps the hits, emitted as (rec_id, zone_id) pairs in zone order."""
    recs, zids = [], []
    for z, rows in zone_rows:
        hit = _zone_hit_mask(z, x[rows], y[rows])
        if hit.any():
            recs.append(rec[rows][hit])
            zids.append(np.full(int(hit.sum()), z["zone_id"], dtype=np.int64))
    return _pairs_frame(recs, zids)


class BroadcastPIPJoin:
    """Inner / semi / anti spatial join of streamed points against a
    broadcast zone table.

    ``__init__`` fetches the zones from the object store and builds the
    grid index once per worker process (see :func:`cached_join`; mirrors
    Clip.java:253-269's one-time merged clip geometry).
    """

    def __init__(self, zones_ref, mode: str = "inner"):
        self.zones = _load_zones(zones_ref)
        self.index = ZoneGridIndex(self.zones)
        self.mode = mode

    def __call__(self, batch: dict) -> pd.DataFrame:
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        rec = np.asarray(batch["rec_id"], dtype=np.int64)
        cand = self.index.candidates(x, y)
        if self.mode == "inner":
            def zone_rows():
                for zi, mask in cand.items():
                    z = self.zones[zi]
                    bb = z["bbox"]
                    rows = np.flatnonzero(mask)
                    xr, yr = x[rows], y[rows]
                    rows = rows[(xr >= bb[0]) & (xr <= bb[2])
                                & (yr >= bb[1]) & (yr <= bb[3])]
                    if len(rows):
                        yield z, rows
            return _refine_pairs(zone_rows(), x, y, rec)
        # semi / anti: does each point hit ANY zone? Each zone tests only
        # its candidate rows not already hit.
        any_hit = np.zeros(len(x), dtype=bool)
        for zi, mask in cand.items():
            rows = np.flatnonzero(mask)
            rows = rows[~any_hit[rows]]
            if len(rows):
                any_hit[rows[_zone_hit_mask(self.zones[zi], x[rows],
                                            y[rows])]] = True
        keep = any_hit if self.mode == "semi" else ~any_hit
        return pd.DataFrame({"rec_id": rec[keep], "x": x[keep], "y": y[keep]})


class RTreePIPJoin:
    """Inner PIP join indexed by the packed-Hilbert R-tree (core/rtree.py
    — the index the north rule names; ZoneGridIndex is the uniform-grid
    alternative). The tree is built once per worker process (see
    :func:`cached_join`); per batch one vectorized frontier descent
    yields (point, zone) bbox candidates, then the exact predicate
    refines per zone. Output is identical to
    ``BroadcastPIPJoin(mode=inner)`` — only the candidate generator
    differs."""

    def __init__(self, zones_ref):
        from ..core.rtree import PackedHilbertRTree
        self.zones = _load_zones(zones_ref)
        self.tree = PackedHilbertRTree(
            np.array([z["bbox"] for z in self.zones], dtype=np.float64))

    def __call__(self, batch: dict) -> pd.DataFrame:
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        rec = np.asarray(batch["rec_id"], dtype=np.int64)
        prow, zid = self.tree.query_points(x, y)
        return _refine_pairs(((self.zones[zi], rows)
                              for zi, rows in _zone_groups(prow, zid)),
                             x, y, rec)


# worker-process cache of built joins: Ray reuses worker processes, so a
# plain task builds the zone index once per process instead of once per
# batch (a many-small-files layout hands the map one small batch per
# file). Keyed by the broadcast ref; holds one zone table at a time to
# bound memory. The zone table itself lives in the object store.
_JOIN_CACHE: dict = {}


def cached_join(cls, zones_ref, *args):
    """This process's ``cls(zones_ref, *args)``, built on first use."""
    key = (cls, zones_ref.hex(), args)
    join = _JOIN_CACHE.get(key)
    if join is None:
        join = cls(zones_ref, *args)
        _JOIN_CACHE.clear()
        _JOIN_CACHE[key] = join
    return join


def _cached_join_map(points: "rd.Dataset", zones: list[dict], cls,
                     *args) -> "rd.Dataset":
    zones_ref = ray.put(zones)

    def pip_join(batch):
        return cached_join(cls, zones_ref, *args)(batch)

    return points.map_batches(pip_join, batch_format="numpy",
                              batch_size=32768)


def broadcast_pip_join(points: "rd.Dataset", zones: list[dict],
                       mode: str = "inner") -> "rd.Dataset":
    return _cached_join_map(points, zones, BroadcastPIPJoin, mode)


def rtree_pip_join(points: "rd.Dataset", zones: list[dict]) -> "rd.Dataset":
    return _cached_join_map(points, zones, RTreePIPJoin)


# ---------------------------------------------------------------------------
# Cell-partitioned shuffle join (large × large path)
# ---------------------------------------------------------------------------

def cell_partitioned_pip_join(points: "rd.Dataset", zones: list[dict],
                              cell_width: float = 500.0, salt: int = 1) -> "rd.Dataset":
    """groupby-shuffle spatial hash join keyed on rect cell ids.

    Zones are replicated to every cell their bbox overlaps (driver-side —
    the zone side is the small-to-medium side); points are keyed by their
    single containing cell, optionally salted (cell_key = cell*salt + h)
    to split hot cells. The per-group refine is the same exact PIP.
    """
    grid = RectGrid.from_extent(WEST, SOUTH, EAST, NORTH,
                                width_x=cell_width, width_y=cell_width)
    # zone replication table: cell -> zones (driver-side, zones are small)
    cell_zone: dict[int, list] = {}
    for z in zones:
        bb = _zone_bbox(z)
        r0, c0 = grid.rowcol_of(np.array([bb[0]]), np.array([bb[1]]))
        r1, c1 = grid.rowcol_of(np.array([bb[2]]), np.array([bb[3]]))
        for r in range(int(r0[0]), int(r1[0]) + 1):
            for c in range(int(c0[0]), int(c1[0]) + 1):
                if 0 <= r < grid.rows and 0 <= c < grid.cols:
                    cell_zone.setdefault(r * grid.cols + c, []).append(z)
    cz_ref = ray.put(cell_zone)

    def key_points(batch):
        cell = grid.tile_of(batch["x"], batch["y"])
        if salt > 1:
            h = (np.asarray(batch["rec_id"], dtype=np.int64) * 2654435761) % salt
            cell = cell * salt + h
        return {"rec_id": np.asarray(batch["rec_id"], dtype=np.int64),
                "x": np.asarray(batch["x"], dtype=np.float64),
                "y": np.asarray(batch["y"], dtype=np.float64),
                "cell_key": cell}

    keyed = points.map_batches(key_points, batch_format="numpy")

    def _cell_join(cz, cell: int, group: pd.DataFrame) -> pd.DataFrame:
        if salt > 1:
            cell //= salt
        return _refine_pairs(((z, slice(None)) for z in cz.get(cell, [])),
                             group["x"].to_numpy(), group["y"].to_numpy(),
                             group["rec_id"].to_numpy())

    # util.combine keyed on cell_key refines each cell inside a pandas
    # sub-groupby — avoids Ray's ~10 ms per-group machinery across
    # hundreds/thousands of cells while keeping cells co-located
    # (salting still splits hot cells first).
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cz = ray.get(cz_ref)
        outs = [_cell_join(cz, int(ck), sub)
                for ck, sub in g.groupby("cell_key", sort=True)]
        return pd.concat(outs, ignore_index=True) if outs else _pairs_frame([], [])

    from .util import combine
    return combine(keyed, "cell_key", per_bucket)


# ---------------------------------------------------------------------------
# Within-distance join (points × broadcast sites)
# ---------------------------------------------------------------------------

def within_distance_join(points: "rd.Dataset", sites: list[dict],
                         radius: float) -> "rd.Dataset":
    """Emit (rec_id, site_id) for every point within `radius` of a site
    (IsolateVectorFeaturesByLocation 'within a distance' predicate).
    Sites are broadcast; distance test is vectorized per batch."""
    sx = np.array([s["sx"] for s in sites])
    sy = np.array([s["sy"] for s in sites])
    sid = np.array([s["site_id"] for s in sites], dtype=np.int64)
    r2 = radius * radius

    def fn(batch):
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        rec = np.asarray(batch["rec_id"], dtype=np.int64)
        d2 = (x[:, None] - sx[None, :]) ** 2 + (y[:, None] - sy[None, :]) ** 2
        pi, si = np.nonzero(d2 <= r2)
        return {"rec_id": rec[pi], "site_id": sid[si]}

    return points.map_batches(fn, batch_format="numpy")
