"""Terrain derivatives + D8 flow pointer — TILE-STENCIL ops (SURVEY.md §2.9).

Exact reference semantics (all 3×3, neighbour order i=0..7 =
NE,E,SE,S,SW,W,NW,N with Dx={1,1,1,0,-1,-1,-1,0}, Dy={-1,0,1,1,1,0,-1,-1}):

- Slope (TerrainAnalysisTools/src/plugins/Slope.java:243-258): NoData
  neighbours replaced by the centre value; Horn gradients
  fy=(N6-N4+2*(N7-N3)+N0-N2)/8h, fx=(N2-N4+2*(N1-N5)+N0-N6)/8h;
  slope = atan(sqrt(fx²+fy²))·180/π cast to float32 (output FLOAT).
- Aspect (Aspect.java, same gradients): fx≠0 →
  180 − atan(fy/fx)·180/π + 90·sign(fx) (float32); fx==0 → −1.
- Hillshade (Hillshade.java:193-293): azimuth' = (az−90)°→rad,
  alt→rad; fx≠0 → tanSlope=sqrt(fx²+fy²),
  aspect=(180−atan(fy/fx)·deg+90·sign(fx))·rad,
  z = tanSlope/sqrt(1+tanSlope²) · (sin(alt)/tanSlope −
  cos(alt)·sin(az'−aspect)); fx==0 → 0.5; then (int)(z·255) truncated
  toward zero, clamped below at 0.
- FlowPointerD8 (HydroTools/src/plugins/FlowPointerD8.java:199-271):
  slope to each non-NoData neighbour = (z−z2)/dist, dist = gridRes·√2
  for even i (diagonals) and gridRes for odd i; steepest STRICTLY
  greater wins with first-i tie-break; pointer = 2^i; no positive slope
  → 0; NoData → NoData.

All run on the shared halo-exchange machinery (`raster.stencil_apply`);
grid cell size is 1.0 in the conformance setup.
"""

from __future__ import annotations

import math

import numpy as np
import ray.data as rd

from .raster import RasterSpec, padded_band, stencil_apply, tile_task

# Neighbour order i=0..7: NE,E,SE,S,SW,W,NW,N (reference Dx/Dy above).
_DX = (1, 1, 1, 0, -1, -1, -1, 0)
_DY = (-1, 0, 1, 1, 1, 0, -1, -1)
_RAD2DEG = 180.0 / np.pi


def _neighbours(p: np.ndarray) -> list[np.ndarray]:
    """N[i] views of the interior of a halo-1 padded array."""
    H, W = p.shape
    return [p[1 + dy:H - 1 + dy, 1 + dx:W - 1 + dx]
            for dx, dy in zip(_DX, _DY)]


def _gradients(p: np.ndarray, nodata: float, grid_res: float):
    """(fy, fx, centre, valid-mask) with NoData neighbours → centre value."""
    z = p[1:-1, 1:-1]
    N = [np.where(n == nodata, z, n) for n in _neighbours(p)]
    eight = 8.0 * grid_res
    fy = (N[6] - N[4] + 2 * (N[7] - N[3]) + N[0] - N[2]) / eight
    fx = (N[2] - N[4] + 2 * (N[1] - N[5]) + N[0] - N[6]) / eight
    return fy, fx, z, z != nodata


def slope_kernel(p: np.ndarray, nodata: float, grid_res: float = 1.0) -> np.ndarray:
    fy, fx, z, valid = _gradients(p, nodata, grid_res)
    s = np.arctan(np.sqrt(fx * fx + fy * fy)) * _RAD2DEG
    s = s.astype(np.float32).astype(np.float64)  # output raster is FLOAT
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = np.where(valid, s, nodata)
    return out


def aspect_kernel(p: np.ndarray, nodata: float, grid_res: float = 1.0) -> np.ndarray:
    fy, fx, z, valid = _gradients(p, nodata, grid_res)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = 180.0 - np.arctan(fy / fx) * _RAD2DEG + 90.0 * np.sign(fx)
    a = np.where(fx != 0, a.astype(np.float32).astype(np.float64), -1.0)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = np.where(valid, a, nodata)
    return out


def hillshade_kernel(p: np.ndarray, nodata: float, grid_res: float = 1.0,
                     azimuth_deg: float = 315.0, altitude_deg: float = 45.0
                     ) -> np.ndarray:
    fy, fx, z, valid = _gradients(p, nodata, grid_res)
    az = np.deg2rad(azimuth_deg - 90.0)
    alt = np.deg2rad(altitude_deg)
    sin_t, cos_t = np.sin(alt), np.cos(alt)
    with np.errstate(divide="ignore", invalid="ignore"):
        tan_slope = np.sqrt(fx * fx + fy * fy)
        aspect = (180.0 - np.arctan(fy / fx) * _RAD2DEG
                  + 90.0 * np.sign(fx)) * np.pi / 180.0
        term1 = tan_slope / np.sqrt(1 + tan_slope * tan_slope)
        term2 = sin_t / tan_slope
        term3 = cos_t * np.sin(az - aspect)
        h = term1 * (term2 - term3)
    h = np.where(fx != 0, h, 0.5)
    h = np.trunc(h * 255.0)  # Java (int) cast truncates toward zero
    h = np.maximum(h, 0.0)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = np.where(valid, h, nodata)
    return out


def d8_kernel(p: np.ndarray, nodata: float, grid_res: float = 1.0) -> np.ndarray:
    z = p[1:-1, 1:-1]
    valid = z != nodata
    diag = grid_res * np.sqrt(2.0)
    max_slope = np.full(z.shape, -99999999.0)
    flow = np.zeros(z.shape)
    for i, n in enumerate(_neighbours(p)):
        dist = diag if i % 2 == 0 else grid_res
        with np.errstate(invalid="ignore"):
            s = (z - n) / dist
        better = (n != nodata) & (s > max_slope)
        max_slope = np.where(better, s, max_slope)
        flow = np.where(better, float(1 << i), flow)
    res = np.where(max_slope > 0, flow, 0.0)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = np.where(valid, res, nodata)
    return out


def slope(ds: "rd.Dataset", spec: RasterSpec, regen=None) -> "rd.Dataset":
    return stencil_apply(ds, spec, lambda p: slope_kernel(p, spec.nodata),
                         halo=1, regen=regen)


def aspect(ds: "rd.Dataset", spec: RasterSpec, regen=None) -> "rd.Dataset":
    return stencil_apply(ds, spec, lambda p: aspect_kernel(p, spec.nodata),
                         halo=1, regen=regen)


def hillshade(ds: "rd.Dataset", spec: RasterSpec, regen=None) -> "rd.Dataset":
    return stencil_apply(ds, spec, lambda p: hillshade_kernel(p, spec.nodata),
                         halo=1, regen=regen)


def flow_pointer_d8(ds: "rd.Dataset", spec: RasterSpec,
                    regen=None) -> "rd.Dataset":
    return stencil_apply(ds, spec, lambda p: d8_kernel(p, spec.nodata),
                         halo=1, regen=regen)


# ---------------------------------------------------------------------------
# Curvature family (PlanCurv/ProfCurv/TangentialCurv/TotalCurv.java:256-270:
# central-difference gradients over 2h, second derivatives over h², NoData
# neighbours → centre; plan/prof/tan are NoData where p == 0; outputs are
# curvature · (180/π) · 100 (degrees per 100 units)).
# ---------------------------------------------------------------------------

def _curv_terms(p: np.ndarray, nodata: float, grid_res: float):
    z = p[1:-1, 1:-1]
    N = [np.where(n == nodata, z, n) for n in _neighbours(p)]
    h2 = grid_res * 2.0
    hs = grid_res * grid_res
    hs4 = 4.0 * hs
    zx = (N[1] - N[5]) / h2
    zy = (N[7] - N[3]) / h2
    zxx = (N[1] - 2 * z + N[5]) / hs
    zyy = (N[7] - 2 * z + N[3]) / hs
    zxy = (-N[6] + N[0] + N[4] - N[2]) / hs4
    return z, zx, zy, zxx, zyy, zxy


def curvature_kernel(p: np.ndarray, nodata: float, kind: str,
                     grid_res: float = 1.0) -> np.ndarray:
    z, zx, zy, zxx, zyy, zxy = _curv_terms(p, nodata, grid_res)
    valid = z != nodata
    zx2, zy2 = zx * zx, zy * zy
    pp = zx2 + zy2
    scale = _RAD2DEG * 100.0
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "plan":
            c = (zxx * zy2 - 2 * zxy * zx * zy + zyy * zx2) / pp ** 1.5
        elif kind == "prof":
            q = pp + 1
            c = (zxx * zx2 + 2 * zxy * zx * zy + zyy * zy2) / (pp * q ** 1.5)
        elif kind == "tan":
            q = pp + 1
            c = (zxx * zy2 - 2 * zxy * zx * zy + zyy * zx2) / (pp * q ** 1.5)
        elif kind == "total":
            c = zxx * zxx + 2 * zxy * zxy + zyy * zyy
        else:
            raise ValueError(kind)
    c = c * scale
    if kind != "total":
        c = np.where(pp > 0, c, nodata)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = np.where(valid, c, nodata)
    return out


def curvature(ds: "rd.Dataset", spec: RasterSpec, kind: str,
              regen=None) -> "rd.Dataset":
    return stencil_apply(
        ds, spec, lambda p: curvature_kernel(p, spec.nodata, kind),
        halo=1, regen=regen)


def tri_kernel(p: np.ndarray, nodata: float) -> np.ndarray:
    """TopographicRuggednessIndex (TerrainAnalysisTools/src/plugins/
    TopographicRuggednessIndex.java:229-246): √(Σ(zN−z)²/N) over the
    valid 8-neighbours (zFactor 1)."""
    z = p[1:-1, 1:-1]
    valid = z != nodata
    ss = np.zeros_like(z)
    n = np.zeros_like(z)
    for nb in _neighbours(p):
        ok = nb != nodata
        d = np.where(ok, nb - z, 0.0)
        ss += d * d
        n += ok
    with np.errstate(divide="ignore", invalid="ignore"):
        tri = np.sqrt(ss / n)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = np.where(valid & (n > 0), tri, nodata)
    return out


def tri(ds: "rd.Dataset", spec: RasterSpec, regen=None) -> "rd.Dataset":
    return stencil_apply(ds, spec, lambda p: tri_kernel(p, spec.nodata),
                         halo=1, regen=regen)


def horizon_angle_east(spec: RasterSpec, max_dist: float = 1e9,
                       round_to: int = 6) -> pd.DataFrame:
    """HorizonAngle (TerrainAnalysisTools/src/plugins/HorizonAngle.java
    :286-352,399-403) at azimuth 90°: the ray east along the row samples
    every column (the horizontal-intersection loop is empty at this
    azimuth); angle = atan(max over eastward cells of (z2−z)/dist) in
    degrees; no eastward cell → NoData (the aSmallValue sentinel).

    Rows are wholly contained in row-band tiles, so the scan is
    embarrassingly parallel per band — no messages at all. O(cols²) per
    row, vectorized per offset. Output: (row_id, n_valid, sum_angle)."""
    import pandas as pd

    from .raster import synth_value

    cols = spec.cols

    def per_tile(tid: int) -> "pd.DataFrame":
        r0, r1 = spec.band(tid)
        cell = np.arange(r0 * cols, r1 * cols, dtype=np.int64)
        z = synth_value(cell).reshape(r1 - r0, cols)
        valid = z != spec.nodata
        best = np.full(z.shape, -np.inf)
        for d in range(1, cols):
            if d > max_dist:
                break
            zn = z[:, d:]
            cur = best[:, :-d]
            # NoData samples: getValue returns NoData (a huge
            # negative) and participates — replicate exactly
            s = (zn - z[:, :-d]) / float(d)
            best[:, :-d] = np.maximum(cur, s)
        has_east = np.zeros(z.shape, dtype=bool)
        has_east[:, :-1] = True
        angle = np.degrees(np.arctan(best))
        ok = valid & has_east
        return pd.DataFrame({
            "row_id": np.arange(r0, r1),
            "n_valid": ok.sum(axis=1).astype(np.int64),
            "row_sum": np.round(
                np.where(ok, angle, 0.0).sum(axis=1), round_to)})

    return (tile_task(spec.n_tiles, per_tile).to_pandas()
            .sort_values("row_id").reset_index(drop=True))


def relative_aspect_kernel(p: np.ndarray, nodata: float,
                           azimuth: float = 90.0,
                           grid_res: float = 1.0) -> np.ndarray:
    """RelativeAspect (TerrainAnalysisTools/src/plugins/RelativeAspect
    .java:269-278): |aspect − azimuth| folded above 180; fx == 0 → −1."""
    fy, fx, z, valid = _gradients(p, nodata, grid_res)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = 180.0 - np.arctan(fy / fx) * _RAD2DEG + 90.0 * np.sign(fx)
    rel = np.abs(a - azimuth)
    rel = np.where(rel > 180.0, 360.0 - rel, rel)
    rel = np.where(fx != 0, rel, -1.0)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = np.where(valid, rel, nodata)
    return out


def relative_aspect(ds: "rd.Dataset", spec: RasterSpec,
                    azimuth: float = 90.0, regen=None) -> "rd.Dataset":
    return stencil_apply(
        ds, spec,
        lambda p: relative_aspect_kernel(p, spec.nodata, azimuth),
        halo=1, regen=regen)


def pennock_kernel(p: np.ndarray, nodata: float,
                   slope_t: float = 3.0, prof_t: float = 0.1,
                   plan_t: float = 0.0) -> np.ndarray:
    """Pennocks_Landform_Classification (TerrainAnalysisTools/src/
    plugins/Pennocks_Landform_Classification.java:262-335): classes
    1-7 from profile/plan curvature (−(…)/p^1.5 forms, degrees) and
    Horn slope against thresholds; p == 0 or unmatched → NoData."""
    z, zx, zy, zxx, zyy, zxy = _curv_terms(p, nodata, 1.0)
    fy, fx, _, valid = _gradients(p, nodata, 1.0)
    zx2, zy2 = zx * zx, zy * zy
    pp = zx2 + zy2
    q = pp + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.arctan(np.sqrt(fx * fx + fy * fy)) * _RAD2DEG
        plan = -1.0 * (zxx * zy2 - 2 * zxy * zx * zy + zyy * zx2) \
            / pp ** 1.5 * _RAD2DEG
        prof = -1.0 * (zxx * zx2 + 2 * zxy * zx * zy + zyy * zy2) \
            / (pp * q) ** 1.5 * _RAD2DEG
    steep = slope > slope_t
    conds = [
        steep & (prof < -prof_t) & (plan <= -plan_t),
        steep & (prof < -prof_t) & (plan > plan_t),
        steep & (prof > prof_t) & (plan <= plan_t),
        steep & (prof > prof_t) & (plan > plan_t),
        steep & (prof >= -prof_t) & (prof < prof_t) & (plan <= -plan_t),
        steep & (prof >= -prof_t) & (prof < prof_t) & (plan > plan_t),
        slope <= slope_t,
    ]
    cls = np.full(z.shape, nodata)
    assigned = np.zeros(z.shape, dtype=bool)
    for k, cond in enumerate(conds, start=1):  # first match wins
        take = cond & ~assigned
        cls = np.where(take, float(k), cls)
        assigned |= cond
    cls = np.where(pp > 0, cls, nodata)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = np.where(valid, cls, nodata)
    return out


def pennock(ds: "rd.Dataset", spec: RasterSpec, regen=None) -> "rd.Dataset":
    return stencil_apply(ds, spec,
                         lambda p: pennock_kernel(p, spec.nodata),
                         halo=1, regen=regen)


def directional_relief_east(spec: RasterSpec,
                            round_to: int = 6) -> pd.DataFrame:
    """DirectionalRelief (TerrainAnalysisTools/src/plugins/
    DirectionalRelief.java:293-392) at azimuth 90°: relief = mean of
    eastward samples − z; a sample at column x is valid when BOTH
    (row, x) and (row−1, x) are valid (the interpolation pair,
    :330-339) and equals z(row, x) exactly at this azimuth; no samples
    → 0. Per-row suffix sums (O(cols)); one halo row (overlap-read).
    Output: (row_id, n_valid, row_sum)."""
    import pandas as pd

    from .raster import synth_value

    cols = spec.cols

    def per_tile(tid: int) -> "pd.DataFrame":
        r0, r1 = spec.band(tid)
        lo = max(r0 - 1, 0)
        cell = np.arange(lo * cols, r1 * cols, dtype=np.int64)
        zext = synth_value(cell).reshape(-1, cols)
        pad_up = np.full((1, cols), spec.nodata)
        zup = np.vstack([pad_up, zext])[: r1 - lo + 1]
        z = zext[r0 - lo:]
        up = zup[r0 - lo: r0 - lo + (r1 - r0)]
        valid = z != spec.nodata
        sample_ok = valid & (up != spec.nodata)
        sz = np.where(sample_ok, z, 0.0)
        # suffix (strictly east) sums, right-to-left
        ssum = np.cumsum(sz[:, ::-1], axis=1)[:, ::-1]
        scnt = np.cumsum(sample_ok[:, ::-1], axis=1)[:, ::-1]
        est_sum = np.zeros_like(z)
        est_cnt = np.zeros_like(z)
        est_sum[:, :-1] = ssum[:, 1:]
        est_cnt[:, :-1] = scnt[:, 1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            relief = est_sum / est_cnt - z
        relief = np.where(est_cnt > 0, relief, 0.0)
        out = np.where(valid, np.round(relief, round_to), 0.0)
        return pd.DataFrame({
            "row_id": np.arange(r0, r1),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "row_sum": np.round(out.sum(axis=1), round_to)})

    return (tile_task(spec.n_tiles, per_tile).to_pandas()
            .sort_values("row_id").reset_index(drop=True))


def fetch_analysis_east(spec: RasterSpec, height_increment: float = 0.05,
                        round_to: int = 6) -> pd.DataFrame:
    """FetchAnalysis (TerrainAnalysisTools/src/plugins/FetchAnalysis
    .java:290-331,388) at azimuth 90°: fetch = distance to the FIRST
    eastward column whose z ≥ z₀ + d·heightIncrement (samples are the
    row's own cells at this azimuth, NoData sentinel participating
    exactly as getValue does); no obstacle → 0; NoData centre → NoData.
    Per-row offset sweep; message-free across row bands.
    Output: (row_id, n_valid, row_sum)."""
    import pandas as pd

    from .raster import synth_value

    cols = spec.cols

    def per_tile(tid: int) -> "pd.DataFrame":
        r0, r1 = spec.band(tid)
        cell = np.arange(r0 * cols, r1 * cols, dtype=np.int64)
        z = synth_value(cell).reshape(r1 - r0, cols)
        valid = z != spec.nodata
        fetch = np.zeros_like(z)
        unhit = np.ones_like(valid)
        for d in range(1, cols):
            zn = z[:, d:]
            hit = unhit[:, :-d] & (zn >= z[:, :-d]
                                   + d * height_increment)
            fetch[:, :-d] = np.where(hit, float(d), fetch[:, :-d])
            unhit[:, :-d] &= ~hit
        out = np.where(valid, fetch, 0.0)
        return pd.DataFrame({
            "row_id": np.arange(r0, r1),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "row_sum": np.round(out.sum(axis=1), round_to)})

    return (tile_task(spec.n_tiles, per_tile).to_pandas()
            .sort_values("row_id").reset_index(drop=True))


def exposure_wind_flux_east(spec: RasterSpec, azimuth: float = 350.0,
                            round_to: int = 6) -> "rd.Dataset":
    """ExposureTowardsWindFlux (TerrainAnalysisTools/src/plugins/
    ExposureTowardsWindFlux.java:264-301, horizon-angle variant):
    relAspect = azimuth − aspect; the output is written ONLY where
    relAspect > 180 (the reference's literal branch — other cells keep
    the output raster's NoData initial value), as
    cos(slope)·sin(HA) + sin(slope)·cos(HA)·cos(360 − relAspect), all
    inputs in degrees (Horn slope/aspect with their FLOAT casts; the
    azimuth-90 horizon-angle scan). Azimuth 350 keeps the written set
    non-trivial against east horizon angles. One overlap-read pass per
    band: slope/aspect need a 1-row halo, the HA scan is row-local."""
    import pandas as pd
    import ray.data as rd

    from .raster import raster_row_checksums

    cols = spec.cols

    def per_tile(tid: int) -> "pd.DataFrame":
        p = padded_band(spec, tid, 1)
        slope = slope_kernel(p, spec.nodata)[1:-1, 1:-1]
        aspect = aspect_kernel(p, spec.nodata)[1:-1, 1:-1]
        z = p[1:-1, 1:-1]
        best = np.full(z.shape, -np.inf)
        for d in range(1, cols):
            s = (z[:, d:] - z[:, :-d]) / float(d)
            best[:, :-d] = np.maximum(best[:, :-d], s)
        ha = np.degrees(np.arctan(best))
        ha_valid = (z != spec.nodata)
        ha_valid[:, -1] = False
        ra = azimuth - aspect
        written = ra > 180.0
        ra2 = np.radians(360.0 - ra)
        sl = np.radians(slope)
        hr = np.radians(ha)
        with np.errstate(invalid="ignore"):
            f = (np.cos(sl) * np.sin(hr)
                 + np.sin(sl) * np.cos(hr) * np.cos(ra2))
        ok = written & (slope != spec.nodata) & \
            (aspect != spec.nodata) & ha_valid
        return {"tile_id": [tid],
                "data": [np.where(ok, f, spec.nodata).ravel()]}

    tiles = tile_task(spec.n_tiles, per_tile)
    return raster_row_checksums(tiles, spec, round_to=round_to)


RAD_PARAMS = dict(latitude=0.7854, julian_day=172, dew_point=10.0,
                  opt_air_mass=1.5, y_dust=0.05, albedo=0.2)


def radiation_on_slope_kernel(p: np.ndarray, nodata: float,
                              prm=None) -> np.ndarray:
    """RadiationOnSlope (WhiteboxGIS/resources/plugins/Scripts/
    RadiationOnSlope.groovy:160-218): total incident daily radiation on
    a slope (Kcs) — the literal equivalent-latitude / longitude-
    difference solar-geometry chain over the reference's own
    slope/aspect degrees (slope_kernel / aspect_kernel here, including
    aspect = −1 on flats fed into toRadians exactly as the script
    does)."""
    prm = prm or RAD_PARAMS
    lat = prm["latitude"]
    isc = 4.921
    w = 0.2618
    wp = 1.12 * math.exp(0.0614 * prm["dew_point"])
    asa = -0.124 - (0.0207 * wp)
    bsa = -0.0682 - (0.0248 * wp)
    tsa = math.exp(asa + (bsa * prm["opt_air_mass"]))
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
    a_s = -0.0363 - (0.0084 * wp)
    b_s = -0.0572 - (0.0173 * wp)
    ts = math.exp(a_s + (b_s * prm["opt_air_mass"]))
    ys = 1.0 - ts + prm["y_dust"]

    slope_deg = slope_kernel(p, nodata)[1:-1, 1:-1]
    aspect_deg = aspect_kernel(p, nodata)[1:-1, 1:-1]
    z = p[1:-1, 1:-1]
    valid = z != nodata
    beta = np.deg2rad(slope_deg)
    alpha = np.deg2rad(aspect_deg)
    with np.errstate(divide="ignore", invalid="ignore"):
        eq_slope = np.arctan(np.sin(beta) * np.sin(alpha)
                             / (np.cos(beta) * math.cos(lat)
                                - np.sin(beta) * math.sin(lat)
                                * np.cos(alpha)))
        # asin arg clamped (float rounding can exceed |1| by ulps);
        # steep cells where |−tan(eqLat)·tan(dec)| > 1 have no sunrise/
        # sunset solution — the groovy yields NaN there; normalized to
        # NoData on BOTH engines (DuckDB raises on out-of-domain acos)
        eq_lat = np.arcsin(np.clip(
            np.sin(beta) * np.cos(alpha) * math.cos(lat)
            + np.cos(beta) * math.sin(lat), -1.0, 1.0))
        acos_arg = -np.tan(eq_lat) * math.tan(dec)
        no_sun = np.abs(acos_arg) > 1.0
        acos_arg = np.clip(acos_arg, -1.0, 1.0)
        thr = -math.acos(-math.tan(dec) * math.tan(lat)) / w
        ths = math.acos(-math.tan(dec) * math.tan(lat)) / w
        tss = (np.arccos(acos_arg) - eq_slope) / w
        tsr = (-np.arccos(acos_arg) - eq_slope) / w
        tsr = np.maximum(tsr, thr)
        tss = np.minimum(tss, ths)
        ket = isc * eo * (np.cos(eq_lat) * math.cos(dec)
                          * ((np.sin(w * tss + eq_slope)
                              - np.sin(w * tsr + eq_slope)) / w)
                          + np.sin(eq_lat) * math.sin(dec) * (tss - tsr))
        kdif = 0.5 * ys * ket
        kdir = t * ket
        kg = kdir + kdif
        kbs = 0.5 * ys * prm["albedo"] * kg
        kcs = 11.575 * (kg + kbs)
    res = np.where(valid & ~no_sun, kcs, nodata)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = res
    return out


def radiation_on_slope(ds, spec: RasterSpec, regen=None):
    from .raster import stencil_apply
    return stencil_apply(
        ds, spec,
        lambda p: radiation_on_slope_kernel(p, spec.nodata),
        halo=1, regen=regen)
