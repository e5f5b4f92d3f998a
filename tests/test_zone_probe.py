"""The broadcast PIP join's candidate probe and refine, checked without
Ray against brute force.

``ZoneGridIndex.candidates`` must propose exactly the (point, zone)
pairs whose grid cell lies in the zone's bbox cell range, as a
``{zone index: bool mask over the points}`` dict; ``BroadcastPIPJoin``
in every mode must equal the exact predicate applied to every zone.
Points include cell boundaries, the extent's edges, points outside the
extent and the zones' own bbox corners.
"""

import numpy as np
import pandas as pd
import pytest

from whitebox_geospatial_analysis_tools_ray.core.features import (
    rect_zones, seeded_polygons, triangle_zones)
from whitebox_geospatial_analysis_tools_ray.core.rng import (
    EAST, NORTH, SOUTH, WEST)
from whitebox_geospatial_analysis_tools_ray.stages import spatial_join as sj

pytestmark = pytest.mark.no_ray

ZONE_SETS = {"rect": rect_zones, "triangle": triangle_zones,
             "polygon": seeded_polygons}


def _points(zones, ncells=16, seed=3):
    rng = np.random.default_rng(seed)
    w, h = (EAST - WEST) / ncells, (NORTH - SOUTH) / ncells
    xs = [rng.uniform(WEST - 0.1 * (EAST - WEST), EAST + 0.1 * (EAST - WEST),
                      4000)]
    ys = [rng.uniform(SOUTH - 0.1 * (NORTH - SOUTH),
                      NORTH + 0.1 * (NORTH - SOUTH), 4000)]
    # every cell boundary crossed with every other, the extent's edges
    # included, and the same lines pushed outside the extent
    bx = np.concatenate([WEST + w * np.arange(ncells + 1),
                         [WEST - w, EAST + w, np.nextafter(EAST, np.inf)]])
    by = np.concatenate([SOUTH + h * np.arange(ncells + 1),
                         [SOUTH - h, NORTH + h, np.nextafter(NORTH, np.inf)]])
    gx, gy = np.meshgrid(bx, by)
    xs.append(gx.ravel())
    ys.append(gy.ravel())
    # each zone's bbox corners
    for z in zones:
        x0, y0, x1, y1 = z["bbox"]
        xs.append(np.array([x0, x1, x0, x1]))
        ys.append(np.array([y0, y0, y1, y1]))
    return np.concatenate(xs), np.concatenate(ys)


def _zones(kind):
    return sj._load_zones(ZONE_SETS[kind]())


def _cell_reference(index, zones, x, y):
    """zone index → points whose cell is in the zone's bbox cell range,
    one zone and one point at a time."""
    n, w, h = index.ncells, index.w, index.h
    col = [min(max(int((xi - WEST) // w), 0), n - 1) for xi in x]
    row = [min(max(int((yi - SOUTH) // h), 0), n - 1) for yi in y]
    out = {}
    for zi, z in enumerate(zones):
        bb = z["bbox"]
        c0, c1 = max(0, int((bb[0] - WEST) // w)), min(n - 1, int((bb[2] - WEST) // w))
        r0, r1 = max(0, int((bb[1] - SOUTH) // h)), min(n - 1, int((bb[3] - SOUTH) // h))
        m = np.array([c0 <= c <= c1 and r0 <= r <= r1
                      for c, r in zip(col, row)], dtype=bool)
        if m.any():
            out[zi] = m
    return out


@pytest.mark.parametrize("kind", sorted(ZONE_SETS))
def test_candidates_equal_cell_membership(kind):
    zones = _zones(kind)
    x, y = _points(zones)
    index = sj.ZoneGridIndex(zones)
    got = index.candidates(x, y)
    assert isinstance(got, dict)
    for zi, mask in got.items():
        assert type(zi) is int
        assert isinstance(mask, np.ndarray) and mask.dtype == bool
        assert mask.shape == (len(x),)
    want = _cell_reference(index, zones, x, y)
    assert sorted(got) == sorted(want)
    for zi in want:
        np.testing.assert_array_equal(got[zi], want[zi], err_msg=f"zone {zi}")


def test_candidates_of_no_points_and_no_zones():
    index = sj.ZoneGridIndex(_zones("rect"))
    assert index.candidates(np.zeros(0), np.zeros(0)) == {}
    assert sj.ZoneGridIndex([]).candidates(np.array([WEST]),
                                           np.array([SOUTH])) == {}


def _brute_hits(zones, x, y):
    """(n points × n zones) exact predicate, every zone on every point."""
    return np.column_stack([sj._zone_hit_mask(z, x, y) for z in zones])


@pytest.mark.parametrize("kind", sorted(ZONE_SETS))
def test_broadcast_join_modes_equal_brute_force(kind):
    zones = _zones(kind)
    x, y = _points(zones)
    rec = np.arange(len(x), dtype=np.int64) * 7 + 1
    batch = {"rec_id": rec, "x": x, "y": y}
    hits = _brute_hits(zones, x, y)

    got = sj.BroadcastPIPJoin(zones, "inner")(batch)
    pi, zi = np.nonzero(hits)
    zone_ids = np.array([z["zone_id"] for z in zones], dtype=np.int64)
    want = pd.DataFrame({"rec_id": rec[pi], "zone_id": zone_ids[zi]})
    key = ["rec_id", "zone_id"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True),
        want.sort_values(key).reset_index(drop=True))
    assert len(want) > 0

    any_hit = hits.any(axis=1)
    for mode, keep in (("semi", any_hit), ("anti", ~any_hit)):
        got = sj.BroadcastPIPJoin(zones, mode)(batch)
        want = pd.DataFrame({"rec_id": rec[keep], "x": x[keep], "y": y[keep]})
        pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


@pytest.mark.parametrize("kind", sorted(ZONE_SETS))
def test_rtree_join_equals_broadcast_join(kind):
    zones = _zones(kind)
    x, y = _points(zones)
    batch = {"rec_id": np.arange(len(x), dtype=np.int64), "x": x, "y": y}
    key = ["rec_id", "zone_id"]
    a = sj.RTreePIPJoin(zones)(batch).sort_values(key).reset_index(drop=True)
    b = (sj.BroadcastPIPJoin(zones, "inner")(batch)
         .sort_values(key).reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
