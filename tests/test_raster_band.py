"""The row-band model of ``stages/raster.py``: ``RasterSpec.band`` and
``padded_band`` agree, tile by tile, with slices of one whole-grid
NoData pad, on ragged grids and on halos wider than a tile. The
halo-exchange ``stencil_apply`` refuses a halo wider than a tile."""

import numpy as np
import pytest

from whitebox_geospatial_analysis_tools_ray.core.rng import NODATA
from whitebox_geospatial_analysis_tools_ray.stages.raster import (
    RasterSpec, padded_band, stencil_apply, synth_class_value, synth_value)

pytestmark = pytest.mark.no_ray

SPECS = [
    RasterSpec(rows=70, cols=9, tile_rows=16),   # rows % tile_rows != 0
    RasterSpec(rows=65, cols=7, tile_rows=16),   # 1-row last tile
    RasterSpec(rows=64, cols=8, tile_rows=16),   # even split
    RasterSpec(rows=10, cols=5, tile_rows=2),    # halo 3 > tile_rows
    RasterSpec(rows=9, cols=4, tile_rows=1),     # 1-row tiles
]


def _whole_pad(spec, halo, regen):
    grid = regen(np.arange(spec.rows * spec.cols, dtype=np.int64))
    pad = np.full((spec.rows + 2 * halo, spec.cols + 2 * halo), NODATA)
    pad[halo:halo + spec.rows, halo:halo + spec.cols] = grid.reshape(
        spec.rows, spec.cols)
    return pad


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.rows}x{s.cols}"
                         f"/{s.tile_rows}")
def test_bands_partition_the_rows(spec):
    bands = [spec.band(tid) for tid in range(spec.n_tiles)]
    assert bands[0][0] == 0 and bands[-1][1] == spec.rows
    assert all(r1 == nxt for (_, r1), (nxt, _) in zip(bands, bands[1:]))
    assert all(0 < r1 - r0 <= spec.tile_rows for r0, r1 in bands)
    assert np.array_equal(
        np.concatenate([spec.band_cells(t) for t in range(spec.n_tiles)]),
        np.arange(spec.rows * spec.cols))


@pytest.mark.parametrize("regen", [synth_value, synth_class_value])
@pytest.mark.parametrize("halo", [1, 2, 3])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.rows}x{s.cols}"
                         f"/{s.tile_rows}")
def test_padded_band_is_a_slice_of_the_whole_pad(spec, halo, regen):
    pad = _whole_pad(spec, halo, regen)
    for tid in range(spec.n_tiles):
        r0, r1 = spec.band(tid)
        got = padded_band(spec, tid, halo, regen)
        assert got.dtype == np.float64
        assert got.shape == (r1 - r0 + 2 * halo, spec.cols + 2 * halo)
        np.testing.assert_array_equal(got, pad[r0:r1 + 2 * halo])


def test_last_band_is_short():
    assert RasterSpec(rows=65, cols=7, tile_rows=16).band(4) == (64, 65)
    assert RasterSpec(rows=70, cols=9, tile_rows=16).band(4) == (64, 70)


@pytest.mark.parametrize("tile_rows, halo", [(1, 2), (2, 3)])
def test_halo_exchange_rejects_halo_wider_than_a_tile(tile_rows, halo):
    spec = RasterSpec(rows=9, cols=4, tile_rows=tile_rows)
    with pytest.raises(ValueError, match=f"tile_rows={tile_rows} < "
                       f"halo={halo}"):
        stencil_apply(None, spec, lambda p: p, halo=halo)
