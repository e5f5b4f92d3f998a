"""Tests for file sources (.dep/.tas, shapefile) and checkpoint/resume."""

import os

import numpy as np
import pandas as pd
import pytest

VERMONT = "/root/reference/WhiteboxGIS/resources/samples/Vermont DEM/Vermont DEM.dep"
GLACIER = "/root/reference/WhiteboxGIS/resources/samples/Columbia Icefield Map/Glacier.shp"


def test_read_whitebox_raster_header_and_values(ray_session):
    from whitebox_geospatial_analysis_tools_ray.sources.raster_io import (
        read_dep_header, read_whitebox_raster)
    hdr = read_dep_header(VERMONT)
    assert hdr.rows == 369 and hdr.cols == 251
    assert hdr.data_type == "FLOAT" and hdr.nodata == -32768.0
    hdr2, ds = read_whitebox_raster(VERMONT)
    tiles = ds.to_pandas()
    total = sum(len(np.asarray(d)) for d in tiles["data"])
    assert total == 369 * 251
    allv = np.concatenate([np.asarray(d) for d in
                           tiles.sort_values("tile_id")["data"]])
    valid = allv[allv != hdr.nodata]
    # header Min/Max are the reference-computed stats — must agree
    assert abs(valid.min() - hdr.vmin) < 1e-4
    assert abs(valid.max() - hdr.vmax) < 1e-4


def test_raster_roundtrip(tmp_path, ray_session):
    from whitebox_geospatial_analysis_tools_ray.sources.raster_io import (
        read_whitebox_raster, write_whitebox_raster)
    hdr, ds = read_whitebox_raster(VERMONT)
    out = str(tmp_path / "copy.dep")
    write_whitebox_raster(hdr, ds, out)
    hdr2, ds2 = read_whitebox_raster(out)
    a = np.concatenate([np.asarray(d) for d in
                        ds.to_pandas().sort_values("tile_id")["data"]])
    b = np.concatenate([np.asarray(d) for d in
                        ds2.to_pandas().sort_values("tile_id")["data"]])
    assert (a == b).all()


def test_read_shapefile_glacier():
    from whitebox_geospatial_analysis_tools_ray.core.geom import parse_wkb
    from whitebox_geospatial_analysis_tools_ray.sources.shapefile_io import read_shapefile
    df = read_shapefile(GLACIER)
    assert len(df) > 0
    assert df["rec_id"].iloc[0] == 1
    assert set(df["shape_type"]) == {5}
    kind, poly = parse_wkb(df["geometry"].iloc[0])
    assert kind == "polygon" and len(poly.rings) >= 1
    # attributes joined from DBF
    assert df.shape[1] > 5


def test_checkpoint_resume_equals_fresh(tmp_path, ray_session):
    import ray.data as rd
    from whitebox_geospatial_analysis_tools_ray.state.checkpoint import (
        checkpointed_write, is_complete, load_manifest, read_checkpointed)

    df = pd.DataFrame({"k": np.arange(100) % 7, "v": np.arange(100)})
    ds = rd.from_pandas(df)
    out1 = str(tmp_path / "fresh")
    man1 = checkpointed_write(ds, out1, "k", stage="test")
    assert is_complete(out1)
    assert man1["rows"].sum() == 100

    # simulate a partial run: pre-commit 3 partitions, then resume
    out2 = str(tmp_path / "resume")
    os.makedirs(out2)
    sub = df[df["k"] < 3]
    checkpointed_write(rd.from_pandas(sub), out2, "k", stage="test")
    assert len(load_manifest(out2)) == 3
    man2 = checkpointed_write(rd.from_pandas(df), out2, "k", stage="test")
    assert man2["rows"].sum() == 100

    a = read_checkpointed(out1).to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    b = read_checkpointed(out2).to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a[["k", "v"]], b[["k", "v"]])



def test_resume_after_torn_manifest_tail_equals_fresh(tmp_path, ray_session):
    """A job killed mid-append leaves a torn last manifest line. The
    resume drops it with a warning, rewrites that partition, and gives
    the fresh run's output and a whole manifest."""
    import json

    import ray.data as rd
    from whitebox_geospatial_analysis_tools_ray.state.checkpoint import (
        checkpointed_write, load_manifest, read_checkpointed)

    df = pd.DataFrame({"k": np.arange(100) % 7, "v": np.arange(100)})
    fresh = str(tmp_path / "fresh")
    checkpointed_write(rd.from_pandas(df), fresh, "k", stage="test")

    out = str(tmp_path / "torn")
    checkpointed_write(rd.from_pandas(df[df["k"] < 3]), out, "k", stage="test")
    mpath = os.path.join(out, "_MANIFEST.jsonl")
    with open(mpath) as f:
        lines = f.read().splitlines()
    assert len(lines) == 3
    with open(mpath, "w") as f:
        f.write("\n".join(lines[:2] + [lines[2][:len(lines[2]) // 2]]))
    with pytest.warns(UserWarning, match="torn last line"):
        assert len(load_manifest(out)) == 2
    with pytest.warns(UserWarning, match="torn last line"):
        man = checkpointed_write(rd.from_pandas(df), out, "k", stage="test")
    assert man["rows"].sum() == 100 and len(man) == 7

    a = read_checkpointed(fresh).to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    b = read_checkpointed(out).to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a[["k", "v"]], b[["k", "v"]])
    with open(mpath) as f:
        assert sorted(json.loads(ln)["partition"] for ln in f) == list(range(7))
    assert not [f for f in os.listdir(out) if f.startswith(".tmp")]

def test_xyz_source(tmp_path, ray_session):
    from whitebox_geospatial_analysis_tools_ray.sources.xyz import read_xyz
    p = tmp_path / "pts.xyz"
    p.write_text("x y z\n1.0 2.0 3.0\n4.0 5.0 6.0\nbad line\n7 8 9\n")
    df = read_xyz(str(p)).to_pandas()
    assert len(df) == 3
    assert df["z"].tolist() == [3.0, 6.0, 9.0]


def test_wkt_roundtrip():
    import numpy as np

    from whitebox_geospatial_analysis_tools_ray.core.features import seeded_polygons
    from whitebox_geospatial_analysis_tools_ray.sources.xyz import (
        point_to_wkt, polygon_to_wkt, wkt_to_geometry)

    poly = seeded_polygons()[1]["polygon"]  # has a hole
    rt = wkt_to_geometry(polygon_to_wkt(poly))
    assert len(rt.rings) == len(poly.rings)
    for a, b in zip(poly.rings, rt.rings):
        np.testing.assert_allclose(a, b)
    assert wkt_to_geometry(point_to_wkt(1.5, -2.25)) == (1.5, -2.25)


def test_shapefile_writer_roundtrip(tmp_path, ray_session):
    import numpy as np
    import pandas as pd
    from whitebox_geospatial_analysis_tools_ray.sources import shapefile_io as sio
    feats = [
        {"shape_type": 5, "rings": [np.array([[0.0, 0.0], [10.0, 0.0],
                                              [10.0, 8.0], [0.0, 8.0],
                                              [0.0, 0.0]])]},
        {"shape_type": 5, "rings": [np.array([[20.0, 5.0], [30.0, 5.0],
                                              [25.0, 15.0], [20.0, 5.0]])]},
    ]
    attrs = pd.DataFrame({"zone": [1.0, 2.0], "name": ["a", "b"]})
    p = str(tmp_path / "t.shp")
    sio.write_shapefile(p, feats, attrs)
    df = sio.read_shapefile(p)
    assert len(df) == 2
    assert (df["rec_id"].to_numpy() == [1, 2]).all()
    assert (df["shape_type"] == 5).all()
    assert df["zone"].tolist() == [1.0, 2.0]
    assert df["name"].str.strip().tolist() == ["a", "b"]


def test_shapefile_writer_points(tmp_path):
    import numpy as np
    import pandas as pd
    from whitebox_geospatial_analysis_tools_ray.sources import shapefile_io as sio
    feats = [{"shape_type": 1, "rings": [np.array([[i * 2.0, i * 3.0]])]}
             for i in range(5)]
    p = str(tmp_path / "pts.shp")
    sio.write_shapefile(p, feats, pd.DataFrame({"v": np.arange(5.0)}))
    df = sio.read_shapefile(p)
    assert len(df) == 5
    assert np.allclose(df["x"], np.arange(5) * 2.0)


def test_gml_roundtrip(tmp_path):
    import numpy as np
    from whitebox_geospatial_analysis_tools_ray.sources import xyz
    feats = [(1, [np.array([[0.5, 0.25], [10.125, 0.0], [5.0, 8.0]])]),
             (2, [np.array([[20.0, 0.0], [30.0, 0.0], [30.0, 9.0],
                            [20.0, 9.0]]),
                  np.array([[24.0, 2.0], [26.0, 2.0], [25.0, 4.0]])])]
    p = str(tmp_path / "t.gml")
    xyz.export_gml(feats, p)
    back = xyz.parse_gml_polygons(open(p).read())
    assert len(back) == 2
    for (fid, rings), (fid2, rings2) in zip(feats, back):
        assert fid == fid2 and len(rings) == len(rings2)
        for a, b in zip(rings, rings2):
            np.testing.assert_array_equal(a, b)  # repr() roundtrips doubles


def test_hillshade_matches_reference_shipped_output(ray_session):
    """GOLDEN-FILE conformance against the reference's OWN precomputed
    output: the Vermont DEM sample ships `hillshade.dep` ("Created by
    the Hillshade tool", 2012 — altitude 30°, azimuth 315°, output
    min–max normalised to [0, 1]). Running the DISTRIBUTED pipeline
    (read .dep → Horn-gradient hillshade stencil over row-band tiles →
    global min/max normalise) reproduces it within float32 storage
    noise on every cell not adjacent to NoData (the 2012 edge rule
    differs from today's centre-replacement; ~0.7% of cells)."""
    import numpy as np

    from whitebox_geospatial_analysis_tools_ray.sources.raster_io import (
        read_whitebox_raster)
    from whitebox_geospatial_analysis_tools_ray.stages.raster import (
        RasterSpec, stencil_apply)

    hdr, ds = read_whitebox_raster(VERMONT)
    spec = RasterSpec(rows=hdr.rows, cols=hdr.cols, tile_rows=64,
                      nodata=hdr.nodata)

    deg2rad = np.pi / 180.0
    rad2deg = 180.0 / np.pi
    az = (315.0 - 90.0) * deg2rad
    alt = 30.0 * deg2rad
    res = 90.0  # the sample's ~90 m grid

    def kernel(p):
        z = p[1:-1, 1:-1]
        H, W = z.shape

        def nb(dy, dx):
            v = p[1 + dy:1 + dy + H, 1 + dx:1 + dx + W]
            return np.where(v == spec.nodata, z, v)

        m0, m1, m2, m3 = nb(-1, 1), nb(0, 1), nb(1, 1), nb(1, 0)
        m4, m5, m6, m7 = nb(1, -1), nb(0, -1), nb(-1, -1), nb(-1, 0)
        fy = (m6 - m4 + 2 * (m7 - m3) + m0 - m2) / (8 * res)
        fx = (m2 - m4 + 2 * (m1 - m5) + m0 - m6) / (8 * res)
        with np.errstate(divide="ignore", invalid="ignore"):
            tan_s = np.sqrt(fx * fx + fy * fy)
            aspect = (180.0 - np.arctan(fy / fx) * rad2deg
                      + 90.0 * np.sign(fx)) * deg2rad
            t1 = tan_s / np.sqrt(1 + tan_s * tan_s)
            hs = t1 * (np.sin(alt) / tan_s
                       - np.cos(alt) * np.sin(az - aspect))
        hs = np.where(fx != 0, hs, 0.5)
        hs = np.where(z != spec.nodata, hs, spec.nodata)
        out = np.full_like(p, spec.nodata)
        out[1:-1, 1:-1] = hs
        return out

    shaded = stencil_apply(ds, spec, kernel, halo=1)
    tiles = shaded.to_pandas().sort_values("tile_id")
    hs = np.concatenate([np.asarray(d) for d in tiles["data"]]) \
        .reshape(hdr.rows, hdr.cols)

    ref_hdr, ref_ds = read_whitebox_raster(
        VERMONT.replace("Vermont DEM.dep", "hillshade.dep"))
    ref = np.concatenate(
        [np.asarray(d) for d in
         ref_ds.to_pandas().sort_values("tile_id")["data"]]) \
        .reshape(ref_hdr.rows, ref_hdr.cols)

    dem_tiles = read_whitebox_raster(VERMONT)[1].to_pandas() \
        .sort_values("tile_id")
    dem = np.concatenate([np.asarray(d) for d in dem_tiles["data"]]) \
        .reshape(hdr.rows, hdr.cols)
    valid = (dem != hdr.nodata) & (ref != ref_hdr.nodata) \
        & (hs != spec.nodata)
    lo, hi = hs[valid].min(), hs[valid].max()
    hsn = (hs - lo) / (hi - lo)

    pad = np.full((hdr.rows + 2, hdr.cols + 2), hdr.nodata)
    pad[1:-1, 1:-1] = dem
    adj_nod = np.zeros_like(valid)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            adj_nod |= (pad[1 + dy:1 + dy + hdr.rows,
                            1 + dx:1 + dx + hdr.cols] == hdr.nodata)
    core = valid & ~adj_nod
    assert core.sum() > 90_000
    diff = np.abs(hsn - ref)[core]
    assert diff.max() < 5e-5, diff.max()
    cc = np.corrcoef(hsn[valid].ravel(), ref[valid].ravel())[0, 1]
    assert cc > 0.999, cc


def test_bce_composite_matches_reference_shipped_output(ray_session):
    """Second GOLDEN FILE: LandsatData/ColourComposite432.dep was
    "Created by the Balance Contrast Enhancement tool" (2013) from the
    shipped bands 4/3/2. Reproducing the chain — CreateColourComposite
    channel scaling (CreateColourComposite.java:246-267) → BCE parabola
    remap (BalanceContrastEnhancement.java:240-365, E=100, integer-
    division channel mean as the reference declares) — matches the
    shipped packed composite EXACTLY on the green and blue channels and
    within ±1 on < 0.6% of red cells (a 2013-binary arithmetic
    difference in the red parabola; every red input maps to a unique
    golden output, so the input composite itself is reproduced
    exactly)."""
    import numpy as np

    from whitebox_geospatial_analysis_tools_ray.sources.raster_io import (
        read_whitebox_raster)

    D = ("/root/reference/WhiteboxGIS/resources/samples/LandsatData/")

    def arr(p):
        hdr, ds = read_whitebox_raster(p)
        a = np.concatenate(
            [np.asarray(d) for d in
             ds.to_pandas().sort_values("tile_id")["data"]]) \
            .reshape(hdr.rows, hdr.cols)
        return hdr, a

    h4, b4 = arr(D + "band4.dep")
    _, b3 = arr(D + "band3.dep")
    _, b2 = arr(D + "band2.dep")
    hg, gold = arr(D + "ColourComposite432.dep")
    nod = h4.nodata
    gi = gold.astype(np.int64)
    valid = (b4 != nod) & (b3 != nod) & (b2 != nod) & (gold != hg.nodata)
    assert valid.sum() == 316905

    def chan(b):
        # display range 0..255 → (int)((v − min)/range·255), clamped
        return np.clip(np.trunc((b - 0.0) / 255.0 * 255), 0,
                       255).astype(np.int64)

    def bce(ch, E=100):
        x = ch[valid]
        low, high, n = int(x.min()), int(x.max()), x.size
        e = int(x.sum()) // n          # the reference's long division
        s = int((x ** 2).sum()) / n
        L, H = 0, 255
        bb = (high * high * (E - L) - s * (H - L)
              + low * low * (H - E)) \
            / (2 * (high * (E - L) - e * (H - L) + low * (H - E)))
        aa = (H - L) / ((high - low) * (high + low - 2 * bb))
        cc = L - aa * ((low - bb) * (low - bb))
        return np.clip(np.trunc(aa * ((ch - bb) * (ch - bb)) + cc),
                       0, 255).astype(np.int64)

    rr, gg, bb = bce(chan(b4)), bce(chan(b3)), bce(chan(b2))
    gr, ggold, bgold = gi & 0xFF, (gi >> 8) & 0xFF, (gi >> 16) & 0xFF
    assert (gg[valid] == ggold[valid]).all()
    assert (bb[valid] == bgold[valid]).all()
    red_diff = np.abs(rr - gr)[valid]
    assert (red_diff <= 1).all()
    assert (red_diff > 0).mean() < 0.006
