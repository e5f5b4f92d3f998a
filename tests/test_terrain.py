"""Terrain/D8 kernels vs literal Java-mirror nested loops, and
halo-exchange correctness (multi-tile == single-tile)."""

import math

import numpy as np
import pytest

from whitebox_geospatial_analysis_tools_ray.core.rng import NODATA
from whitebox_geospatial_analysis_tools_ray.stages import terrain
from whitebox_geospatial_analysis_tools_ray.stages.raster import (
    RasterSpec, raster_row_checksums, stencil_apply, synth_value)

DX = (1, 1, 1, 0, -1, -1, -1, 0)
DY = (-1, 0, 1, 1, 1, 0, -1, -1)


def _get(a, r, c):
    if 0 <= r < a.shape[0] and 0 <= c < a.shape[1]:
        return a[r, c]
    return NODATA


def _slope_naive(a):
    """Literal mirror of Slope.java:243-258 (gridRes=1, zConv=1)."""
    out = np.full(a.shape, NODATA)
    for r in range(a.shape[0]):
        for c in range(a.shape[1]):
            z = a[r, c]
            if z == NODATA:
                continue
            N = []
            for i in range(8):
                v = _get(a, r + DY[i], c + DX[i])
                N.append(z if v == NODATA else v)
            fy = (N[6] - N[4] + 2 * (N[7] - N[3]) + N[0] - N[2]) / 8.0
            fx = (N[2] - N[4] + 2 * (N[1] - N[5]) + N[0] - N[6]) / 8.0
            out[r, c] = np.float32(math.atan(math.sqrt(fx * fx + fy * fy))
                                   * (180.0 / math.pi))
    return out


def _d8_naive(a):
    """Literal mirror of FlowPointerD8.java:199-271 (gridRes=1)."""
    out = np.full(a.shape, NODATA)
    diag = math.sqrt(2.0)
    for r in range(a.shape[0]):
        for c in range(a.shape[1]):
            z = a[r, c]
            if z == NODATA:
                continue
            max_slope, flow = -99999999.0, 0.0
            for i in range(8):
                z2 = _get(a, r + DY[i], c + DX[i])
                if z2 != NODATA:
                    dist = diag if i % 2 == 0 else 1.0
                    s = (z - z2) / dist
                    if s > max_slope:
                        max_slope, flow = s, float(1 << i)
            out[r, c] = flow if max_slope > 0 else 0.0
    return out


def _pad(a, halo=1):
    return np.pad(a, halo, constant_values=NODATA)


@pytest.fixture(scope="module")
def grid():
    a = synth_value(np.arange(24 * 17, dtype=np.int64)).reshape(24, 17)
    return a


def test_slope_kernel_matches_naive(grid):
    got = terrain.slope_kernel(_pad(grid), NODATA)[1:-1, 1:-1]
    np.testing.assert_array_equal(got, _slope_naive(grid))


def test_d8_kernel_matches_naive(grid):
    got = terrain.d8_kernel(_pad(grid), NODATA)[1:-1, 1:-1]
    np.testing.assert_array_equal(got, _d8_naive(grid))


def test_hillshade_kernel_bounds(grid):
    got = terrain.hillshade_kernel(_pad(grid), NODATA)[1:-1, 1:-1]
    valid = got[grid != NODATA]
    assert ((valid >= 0) & (valid <= 255)).all()
    assert (valid == np.trunc(valid)).all()
    assert (got[grid == NODATA] == NODATA).all()


def test_aspect_kernel_range(grid):
    got = terrain.aspect_kernel(_pad(grid), NODATA)[1:-1, 1:-1]
    valid = got[grid != NODATA]
    assert (((valid >= 0) & (valid <= 360)) | (valid == -1)).all()


def test_stencil_multi_tile_equals_single_tile(ray_session):
    """Halo exchange must be invisible: multi-tile and 1-tile runs agree,
    and the shuffle plan equals the overlap-read plan, also when the last
    tile is short (70 = 4·16 + 6)."""
    import pandas as pd

    def run(spec, regen=None):
        from whitebox_geospatial_analysis_tools_ray.stages.raster import synth_raster
        out = terrain.slope(synth_raster(spec), spec, regen=regen)
        return (raster_row_checksums(out, spec).to_pandas()
                .sort_values("row_id").reset_index(drop=True))

    for rows in (64, 70):
        multi = run(RasterSpec(rows=rows, cols=32, tile_rows=16))
        single = run(RasterSpec(rows=rows, cols=32, tile_rows=rows))
        regen = run(RasterSpec(rows=rows, cols=32, tile_rows=16), synth_value)
        pd.testing.assert_frame_equal(multi, single)
        pd.testing.assert_frame_equal(regen, single)


def test_multiscale_elev_residual_matches_naive(ray_session):
    import pandas as pd

    from whitebox_geospatial_analysis_tools_ray.stages import meri
    from whitebox_geospatial_analysis_tools_ray.stages.raster import RasterSpec

    spec = RasterSpec(rows=96, cols=96, tile_rows=32)
    got = meri.multiscale_elev_residual(spec)
    want = meri.multiscale_elev_residual_naive(spec)
    pd.testing.assert_frame_equal(got, want)
    assert got["row_sum"].sum() > 0


def test_multiscale_elev_residual_tiling_invariant(ray_session):
    import pandas as pd

    from whitebox_geospatial_analysis_tools_ray.stages import meri
    from whitebox_geospatial_analysis_tools_ray.stages.raster import RasterSpec

    a = meri.multiscale_elev_residual(RasterSpec(rows=96, cols=64,
                                                 tile_rows=16))
    b = meri.multiscale_elev_residual(RasterSpec(rows=96, cols=64,
                                                 tile_rows=48))
    pd.testing.assert_frame_equal(a, b)


def test_meri_radius_ladder():
    from whitebox_geospatial_analysis_tools_ray.stages.meri import radius_ladder

    # base 2 over a 96x96 grid: floor(log2(48)) = 5 -> 1,2,4,8,16,32
    assert radius_ladder(96, 96, 2.0) == [1, 2, 4, 8, 16, 32]
    # non-integer base collapses duplicate floors (the ladder dedups)
    ladder = radius_ladder(256, 256, 1.5)
    assert ladder == sorted(set(ladder))
