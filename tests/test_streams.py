"""Stream-network topology: distributed result == whole-grid mirror,
and invariance to the tiling."""

import numpy as np
import pandas as pd

from whitebox_geospatial_analysis_tools_ray.stages import streams
from whitebox_geospatial_analysis_tools_ray.stages.raster import RasterSpec


def _naive_row_agg(spec, threshold=5.0):
    order, mag, label, stream = streams.stream_topology_naive(spec, threshold)
    cols = spec.cols
    gcell = (np.arange(spec.rows)[:, None] * cols + np.arange(cols)[None, :])
    heads = stream & (label == gcell)
    return pd.DataFrame({
        "row_id": np.arange(spec.rows),
        "n_stream": stream.sum(axis=1).astype(np.int64),
        "max_order": order.max(axis=1).astype(np.int64),
        "sum_order": order.sum(axis=1).astype(np.int64),
        "sum_magnitude": mag.sum(axis=1),
        "n_heads": heads.sum(axis=1).astype(np.int64),
        "sum_label": np.where(stream, label, 0).sum(axis=1)})


def test_stream_order_matches_naive(ray_session):
    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    got = streams.stream_order(spec)
    want = _naive_row_agg(spec)[got.columns]
    pd.testing.assert_frame_equal(got, want)


def test_stream_link_id_matches_naive(ray_session):
    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    got = streams.stream_link_id(spec)
    want = _naive_row_agg(spec)[got.columns]
    pd.testing.assert_frame_equal(got, want)


def test_stream_topology_tiling_invariant(ray_session):
    a = streams.stream_order(RasterSpec(rows=96, cols=64, tile_rows=16))
    b = streams.stream_order(RasterSpec(rows=96, cols=64, tile_rows=48))
    pd.testing.assert_frame_equal(a, b)


def test_link_lengths_consistent(ray_session):
    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    summary = streams.stream_link_lengths(spec)
    order, mag, label, stream = streams.stream_topology_naive(spec)
    labs, counts = np.unique(label[stream], return_counts=True)
    assert summary["n_links"][0] == len(labs)
    assert summary["total_stream_cells"][0] == int(stream.sum())
    assert summary["max_link_len"][0] == int(counts.max())


def test_strahler_semantics_tiny():
    # hand grid: two order-1 tributaries meeting -> order 2 downstream
    spec = RasterSpec(rows=3, cols=3, tile_rows=3)
    z = np.array([[9.0, 8.0, 9.0],
                  [9.0, 5.0, 9.0],
                  [9.0, 1.0, 9.0]])
    # pointers: (0,0)->SE=(1,1) code 4; (0,2)->SW=(1,1) code 16;
    # (0,1)->S=(1,1) code 8; (1,1)->S=(2,1) code 8
    nod = spec.nodata
    ptr = np.full((3, 3), nod)
    ptr[0, 0], ptr[0, 2], ptr[0, 1], ptr[1, 1] = 4.0, 16.0, 8.0, 8.0
    stream = np.array([[1, 1, 1], [0, 1, 0], [0, 1, 0]], dtype=bool)
    order, mag, label, _ = streams._solve_tile(z, ptr, stream, 0, 3, {}, nod)
    assert order[0].tolist() == [1, 1, 1]
    assert order[1, 1] == 2 and order[2, 1] == 2
    assert mag[1, 1] == 3 and mag[2, 1] == 3
    # junction starts a new link; pass-through keeps it
    assert label[1, 1] == 4 and label[2, 1] == 4


def test_snap_pour_points_matches_naive(ray_session):
    from whitebox_geospatial_analysis_tools_ray.stages import hydro
    from whitebox_geospatial_analysis_tools_ray.stages.raster import synth_value
    from whitebox_geospatial_analysis_tools_ray.stages.terrain import d8_kernel

    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    got = hydro.snap_pour_points(spec, snap_dist=5)

    # whole-grid mirror with the reference's col-outer/row-inner > scan
    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    acc, _, _ = hydro._accumulate_tile(z, ptr, np.zeros_like(z), spec.nodata)
    pour = hydro.pour_point_mask(0, spec.rows, cols)
    rows = []
    d = 5
    for pr, pc in zip(*np.nonzero(pour)):
        best, br, bc = -np.inf, -1, -1
        for x in range(pc - d, pc + d + 1):
            for y in range(pr - d, pr + d + 1):
                if 0 <= y < spec.rows and 0 <= x < cols and acc[y, x] > best:
                    best, br, bc = acc[y, x], y, x
        rows.append({"point_cell": pr * cols + pc,
                     "snapped_cell": br * cols + bc, "snap_acc": float(best)})
    want = (pd.DataFrame(rows).sort_values("point_cell")
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)


def _naive_link_slope(spec, threshold=5.0):
    import numpy as np
    from whitebox_geospatial_analysis_tools_ray.stages.raster import synth_value
    from whitebox_geospatial_analysis_tools_ray.stages.terrain import d8_kernel
    from whitebox_geospatial_analysis_tools_ray.stages.hydro import _accumulate_tile
    order, mag, label, stream = streams.stream_topology_naive(spec, threshold)
    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, spec.nodata)[1:-1, 1:-1]
    code = np.where(ptr > 0, np.log2(np.maximum(ptr, 1.0)), -1).astype(int)
    step = np.where(code >= 0, np.take(streams._GRID_LEN, code, mode="clip"), 0.0)
    rows = []
    for lab in np.unique(label[stream]):
        m = stream & (label == lab)
        relief = z[m].max() - z[m].min()
        length = step[m].sum()
        slope = relief / length * 100.0 if length > 0 else np.nan
        rows.append({"label": int(lab), "relief": round(float(relief), 6),
                     "length": round(float(length), 6),
                     "slope_pct": round(float(slope), 6)
                     if np.isfinite(slope) else np.nan})
    return pd.DataFrame(rows).sort_values("label").reset_index(drop=True)


def test_stream_link_slope_matches_naive(ray_session):
    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    got = streams.stream_link_slope(spec)
    want = _naive_link_slope(spec)
    pd.testing.assert_frame_equal(got, want)


def test_find_main_stem_matches_naive(ray_session):
    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    got = streams.find_main_stem(spec)
    ms, stream = streams.find_main_stem_naive(spec)
    want = pd.DataFrame({
        "row_id": np.arange(spec.rows),
        "n_stream": stream.sum(axis=1).astype(np.int64),
        "n_mainstem": ms.sum(axis=1).astype(np.int64)})
    pd.testing.assert_frame_equal(got, want)
    assert want["n_mainstem"].sum() > 0


def test_find_main_stem_tiling_invariant(ray_session):
    a = streams.find_main_stem(RasterSpec(rows=96, cols=64, tile_rows=16))
    b = streams.find_main_stem(RasterSpec(rows=96, cols=64, tile_rows=48))
    pd.testing.assert_frame_equal(a, b)


def test_streams_to_vector_matches_naive(ray_session):
    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    got = streams.streams_to_vector(spec)
    want = streams.streams_to_vector_naive(spec)
    pd.testing.assert_frame_equal(got, want)
    assert (got["n_vertices"] > 0).all()


def test_streams_to_vector_tiling_invariant(ray_session):
    a = streams.streams_to_vector(RasterSpec(rows=96, cols=64, tile_rows=16))
    b = streams.streams_to_vector(RasterSpec(rows=96, cols=64, tile_rows=48))
    pd.testing.assert_frame_equal(a, b)


def test_subbasins_matches_naive(ray_session):
    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    got = streams.subbasins(spec)
    want = streams.subbasins_naive(spec)
    pd.testing.assert_frame_equal(got, want)
    assert got["n_labelled"].sum() > 0


def test_subbasins_tiling_invariant(ray_session):
    a = streams.subbasins(RasterSpec(rows=96, cols=64, tile_rows=16))
    b = streams.subbasins(RasterSpec(rows=96, cols=64, tile_rows=48))
    pd.testing.assert_frame_equal(a, b)


def test_strahler_order_basins_matches_naive(ray_session):
    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    got = streams.strahler_order_basins(spec)
    want = streams.subbasins_naive(spec, plane="order")
    pd.testing.assert_frame_equal(got, want)
    assert got["n_labelled"].sum() > 0
    # basin labels are small Strahler orders, not link ids
    assert got["sum_label"].max() < got["n_labelled"].max() * 16


def test_strahler_order_basins_tiling_invariant(ray_session):
    a = streams.strahler_order_basins(
        RasterSpec(rows=96, cols=64, tile_rows=16))
    b = streams.strahler_order_basins(
        RasterSpec(rows=96, cols=64, tile_rows=48))
    pd.testing.assert_frame_equal(a, b)


def test_hack_order_matches_naive(ray_session):
    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    got = streams.hack_order(spec)
    hk, stream = streams.hack_order_naive(spec)
    want = pd.DataFrame({
        "row_id": np.arange(spec.rows),
        "n_stream": stream.sum(axis=1).astype(np.int64),
        "max_hack": hk.max(axis=1),
        "sum_hack": hk.sum(axis=1)})
    pd.testing.assert_frame_equal(got, want)
    assert (hk[stream] > 0).all()


def test_hack_order_tiling_invariant(ray_session):
    a = streams.hack_order(RasterSpec(rows=96, cols=64, tile_rows=16))
    b = streams.hack_order(RasterSpec(rows=96, cols=64, tile_rows=48))
    pd.testing.assert_frame_equal(a, b)


def test_hillslopes_matches_naive_and_tiling_invariant(ray_session):
    import pandas as pd

    from whitebox_geospatial_analysis_tools_ray.stages.raster import RasterSpec
    from whitebox_geospatial_analysis_tools_ray.stages.streams import (
        hillslopes, hillslopes_naive)

    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    want = hillslopes_naive(spec)
    got = hillslopes(spec).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    alt = hillslopes(RasterSpec(rows=96, cols=96, tile_rows=16)) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(alt, want)
    assert int(want["n_assigned"].sum()) > 0


def test_stream_link_classification_matches_walk_and_tiling(ray_session):
    import pandas as pd

    from whitebox_geospatial_analysis_tools_ray.stages.raster import RasterSpec
    from whitebox_geospatial_analysis_tools_ray.stages import streams

    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    want = streams.stream_link_classification_naive(spec, threshold=2.0)
    got = streams.stream_link_classification(spec, threshold=2.0) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    alt = streams.stream_link_classification(
        RasterSpec(rows=96, cols=96, tile_rows=16), threshold=2.0) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(alt, want)


def test_classification_closed_form_equals_walk_on_valley_network():
    """The min(2, magnitude) closed form must equal the literal
    row-major walk on a network with REAL links (the noise DEM's streams
    are nearly all pits) — a tilted valley produces classes 1-5."""
    import numpy as np

    from whitebox_geospatial_analysis_tools_ray.core.rng import NODATA
    from whitebox_geospatial_analysis_tools_ray.stages.hydro import (
        _accumulate_tile)
    from whitebox_geospatial_analysis_tools_ray.stages.streams import (
        _solve_tile, classification_closed_form_arrays,
        classification_walk_arrays)
    from whitebox_geospatial_analysis_tools_ray.stages.terrain import d8_kernel

    R = C = 16
    z = np.full((R, C), 1000.0)
    # hand-built Y: two tributaries joining a long stem ending in a pit
    trib_a = [(1, 3), (2, 4), (3, 5), (4, 6), (5, 7)]
    trib_b = [(1, 13), (2, 12), (3, 11), (4, 10), (5, 9)]
    stem = [(6, 8), (7, 8), (8, 8), (9, 8), (10, 8), (11, 8), (12, 8),
            (13, 8), (14, 8)]
    paths = [trib_a + [stem[0]], trib_b + [stem[0]], stem]
    h = 500.0
    for path in (trib_a, trib_b):
        for k, (r, c) in enumerate(path):
            z[r, c] = h - 10.0 * k
    for k, (r, c) in enumerate(stem):
        z[r, c] = 420.0 - 10.0 * k
    pad = np.full((R + 2, C + 2), NODATA)
    pad[1:-1, 1:-1] = z
    ptr = d8_kernel(pad, NODATA)[1:-1, 1:-1]
    stream = np.zeros((R, C), dtype=bool)
    for r, c in trib_a + trib_b + stem:
        stream[r, c] = True
    _, mag, _, _ = _solve_tile(z, ptr, stream, 0, C, {}, NODATA)
    walk = classification_walk_arrays(ptr, stream, NODATA)
    closed = classification_closed_form_arrays(ptr, stream, mag)
    assert np.array_equal(walk, closed)
    present = set(np.unique(walk[walk >= 0]).tolist())
    assert {1, 2, 3, 4, 5} <= present, present


def test_remove_short_streams_matches_walk_and_tiling(ray_session):
    import pandas as pd

    from whitebox_geospatial_analysis_tools_ray.stages.raster import RasterSpec
    from whitebox_geospatial_analysis_tools_ray.stages import streams

    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    want = streams.remove_short_streams_naive(spec, threshold=2.0,
                                              min_length=3.0)
    got = streams.remove_short_streams(spec, threshold=2.0,
                                       min_length=3.0).reset_index(drop=True)
    for col in want.columns:
        assert int(got[col].iloc[0]) == int(want[col].iloc[0]), col
    assert int(want["n_removed_links"].iloc[0]) > 0
    alt = streams.remove_short_streams(
        RasterSpec(rows=96, cols=96, tile_rows=16), threshold=2.0,
        min_length=3.0).reset_index(drop=True)
    for col in want.columns:
        assert int(alt[col].iloc[0]) == int(want[col].iloc[0]), col
    # 1-row tiles: the two-row halo spans two neighbour tiles per side
    spec = RasterSpec(rows=40, cols=40, tile_rows=1)
    want = streams.remove_short_streams_naive(spec, threshold=2.0,
                                              min_length=3.0)
    got = streams.remove_short_streams(spec, threshold=2.0,
                                       min_length=3.0).reset_index(drop=True)
    for col in want.columns:
        assert int(got[col].iloc[0]) == int(want[col].iloc[0]), col
    assert int(want["n_removed_links"].iloc[0]) > 0


def test_trace_downslope_flowpaths_matches_naive_and_tiling(ray_session):
    import pandas as pd

    from whitebox_geospatial_analysis_tools_ray.stages.raster import RasterSpec
    from whitebox_geospatial_analysis_tools_ray.stages import hydro

    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    want = hydro.trace_downslope_flowpaths_naive(spec)
    got = hydro.trace_downslope_flowpaths(spec).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert int(want["n_marked"].sum()) > 0
    alt = hydro.trace_downslope_flowpaths(
        RasterSpec(rows=96, cols=96, tile_rows=16)).reset_index(drop=True)
    pd.testing.assert_frame_equal(alt, want, check_dtype=False)


def test_downslope_distance_to_stream_matches_walk_and_tiling(ray_session):
    import pandas as pd

    from whitebox_geospatial_analysis_tools_ray.stages.raster import RasterSpec
    from whitebox_geospatial_analysis_tools_ray.stages import streams

    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    want = streams._downslope_stream_value_naive(spec, 2.0, "dist")
    got = streams.downslope_distance_to_stream(spec)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert int(want["n_reached"].sum()) > 0
    alt = streams.downslope_distance_to_stream(
        RasterSpec(rows=96, cols=96, tile_rows=16))
    pd.testing.assert_frame_equal(alt, want, check_dtype=False)


def test_elevation_above_stream_matches_walk(ray_session):
    import pandas as pd

    from whitebox_geospatial_analysis_tools_ray.stages.raster import RasterSpec
    from whitebox_geospatial_analysis_tools_ray.stages import streams

    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    want = streams._downslope_stream_value_naive(spec, 2.0, "elev")
    got = streams.elevation_above_stream(spec)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_elev_above_pit_and_distance_to_outlet_match_walk(ray_session):
    import pandas as pd

    from whitebox_geospatial_analysis_tools_ray.stages.raster import RasterSpec
    from whitebox_geospatial_analysis_tools_ray.stages import streams

    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    want_e = streams._downslope_pit_value_naive(spec, "elev")
    got_e = streams.elev_above_pit(spec)
    pd.testing.assert_frame_equal(got_e, want_e, check_dtype=False)
    want_d = streams._downslope_pit_value_naive(spec, "dist")
    got_d = streams.distance_to_outlet(spec)
    pd.testing.assert_frame_equal(got_d, want_d, check_dtype=False)
    alt = streams.distance_to_outlet(RasterSpec(rows=96, cols=96,
                                                tile_rows=16))
    pd.testing.assert_frame_equal(alt, want_d, check_dtype=False)


def test_median_upstream_area_sketch_matches_and_brackets(ray_session):
    import numpy as np
    import pandas as pd

    from whitebox_geospatial_analysis_tools_ray.stages.raster import RasterSpec
    from whitebox_geospatial_analysis_tools_ray.stages import streams

    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    want, med, true_med, stream, hist = \
        streams.median_upstream_area_naive(spec)
    got = streams.median_upstream_area(spec)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    alt = streams.median_upstream_area(RasterSpec(rows=96, cols=96,
                                                  tile_rows=16))
    pd.testing.assert_frame_equal(alt, want, check_dtype=False)

    # sketch-vs-true bracketing: the rank element's bucket rule
    n = hist.sum(axis=2)
    nz = stream & (n > 0)
    assert nz.sum() > 0
    # upper bound always holds; lower bound holds for odd counts
    assert np.all(true_med[nz] < med[nz] * streams._MED_RATIO + 1e-9)
    odd = nz & (n % 2 == 1)
    if odd.any():
        assert np.all(med[odd] <= true_med[odd] + 1e-9)


def test_find_saddle_points_matches_walk_and_tiling(ray_session):
    import pandas as pd

    from whitebox_geospatial_analysis_tools_ray.stages.raster import RasterSpec
    from whitebox_geospatial_analysis_tools_ray.stages import streams

    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    want = streams.find_saddle_points_naive(spec)
    got = streams.find_saddle_points(spec)
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  want.reset_index(drop=True),
                                  check_dtype=False)
    assert len(want) > 100
    alt = streams.find_saddle_points(RasterSpec(rows=96, cols=96,
                                                tile_rows=16))
    pd.testing.assert_frame_equal(alt.reset_index(drop=True),
                                  want.reset_index(drop=True),
                                  check_dtype=False)
