"""D-infinity flow pointer + fractional flow accumulation
(HydroTools/src/plugins/FlowPointerDinf.java 313, FlowAccumDinf.java
485 LoC — Tarboton's method with the reference's exact quirks).

POINTER (FlowPointerDinf.java:177-279): 8 triangular facets with
acVals={0,1,1,2,2,3,3,4}, afVals={1,-1,…}; per facet s1=(e0−e1)/res
(0 → 0.00001 substitution), s2=(e1−e2)/res, r=atan(s2/s1),
s=√(s1²+s2²) with the reference's sign flips, clamped to [0, 45°];
steepest s wins (``s >= maxSlope && s != 0.00001``); the one-sided
e0>e1 / e0>e2 fallback; final angle TRUNCATED to whole degrees —
``Math.round((deg)*10)/10`` where Math.round yields a long and /10 is
Java INTEGER division (round-half-up to decidegrees, then floor-divide
by 10) — mapped 360−θ+90 (mod 360); no positive
facet → −1; NoData → NoData.

ACCUMULATION (FlowAccumDinf.java:403-480): each cell splits its
accumulated value between the two cells bounding its 45° sector with
linear proportions; resolution order is Kahn's in-degree topological
walk over the fractional-flow DAG (:250-268 counts inflowing
neighbours by sector test).

Ray plan: the pointer is a pure 1-halo stencil (overlap-read). The
accumulation runs the band fixed point of hydro.py, but tile-locally it
uses IN-TILE-EDGE Kahn ordering (z-order is not a topological order
for Dinf: a boundary-rounded direction can send a sliver of flow to a
non-lower cell), with external inflows entering as static seeds.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from .raster import RasterSpec, padded_band, synth_value

_AC = (0, 1, 1, 2, 2, 3, 3, 4)
_AF = (1, -1, 1, -1, 1, -1, 1, -1)
_E1C = (1, 0, 0, -1, -1, 0, 0, 1)
_E1R = (0, -1, -1, 0, 0, 1, 1, 0)
_E2C = (1, 1, -1, -1, -1, -1, 1, 1)
_E2R = (-1, -1, -1, -1, 1, 1, 1, 1)
_ATAN1 = float(np.arctan(1.0))

# sector table (FlowAccumDinf.java:410-467): for sector k = floor(θ/45),
# receiver1 = (dc1, dr1) with p1 = (45(k+1) − θ)/45, receiver2 with p2
_R1 = ((0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1))
_R2 = ((1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1))


def dinf_pointer_kernel(p: np.ndarray, nodata: float,
                        grid_res: float = 1.0) -> np.ndarray:
    """Flow direction in degrees on the padded array's interior."""
    z = p[1:-1, 1:-1]
    H, W = z.shape
    valid = z != nodata
    diag = grid_res * np.sqrt(2.0)

    def shift(dr, dc):
        return p[1 + dr:1 + dr + H, 1 + dc:1 + dc + W]

    max_slope = np.full(z.shape, -9999999.0)
    flow = np.full(z.shape, 360.0)
    for a in range(8):
        e1 = shift(_E1R[a], _E1C[a])
        e2 = shift(_E2R[a], _E2C[a])
        ok = (e1 != nodata) & (e2 != nodata)
        both = ok & (z > e1) & (z > e2)
        with np.errstate(divide="ignore", invalid="ignore"):
            s1 = (z - e1) / grid_res
            s1 = np.where(s1 == 0.0, 0.00001, s1)
            s2 = (e1 - e2) / grid_res
            r = np.arctan(s2 / s1)
            s = np.sqrt(s1 * s1 + s2 * s2)
        neg = ((s1 < 0) & (s2 < 0)) | ((s1 < 0) & (s2 == 0)) \
            | ((s1 == 0) & (s2 < 0)) | ((s1 == 0.001) & (s2 < 0))
        s = np.where(neg, -s, s)
        # clamp r to [0, atan(1)] with the reference's replacements
        s = np.where(r < 0, s1, np.where(r > _ATAN1,
                                         (z - e2) / diag, s))
        r = np.clip(r, 0.0, _ATAN1)
        fd = _AF[a] * r + _AC[a] * (np.pi / 2.0)
        accept = both & (s >= max_slope) & (s != 0.00001)
        max_slope = np.where(accept, s, max_slope)
        flow = np.where(accept, fd, flow)
        # one-sided fallback (e0 > e1 XOR-ish branch)
        single = ok & ~both & ((z > e1) | (z > e2))
        r_s = np.where(z > e1, 0.0, _ATAN1)
        s_s = np.where(z > e1, (z - e1) / grid_res, (z - e2) / diag)
        fd_s = _AF[a] * r_s + _AC[a] * (np.pi / 2.0)
        accept = single & (s_s >= max_slope) & (s_s != 0.00001)
        max_slope = np.where(accept, s_s, max_slope)
        flow = np.where(accept, fd_s, flow)

    # FlowPointerDinf.java:275 — Math.round returns LONG and /10 is Java
    # integer division, so the direction truncates to whole degrees:
    # round-half-up to decidegrees, then integer-divide by 10.
    deg = np.floor(flow * (180.0 / np.pi) * 10.0 + 0.5) // 10.0
    deg = 360.0 - deg + 90.0
    deg = np.where(deg > 360.0, deg - 360.0, deg)
    res = np.where(max_slope <= 0, -1.0, deg)
    out = np.full_like(p, nodata)
    out[1:-1, 1:-1] = np.where(valid, res, nodata)
    return out


def flow_pointer_dinf(ds: "rd.Dataset", spec: RasterSpec, regen=None):
    """The Dinf pointer as a 1-halo stencil Dataset stage (the same
    overlap-read plan as flow_pointer_fd8) — degrees, −1 for no
    positive facet, NoData propagated."""
    from .raster import stencil_apply

    return stencil_apply(ds, spec,
                         lambda p: dinf_pointer_kernel(p, spec.nodata),
                         halo=1, regen=regen)


def _sector_split(fd: float):
    """((dc1, dr1, p1), (dc2, dr2, p2)) for a direction in [0, 360]."""
    k = min(int(fd // 45.0), 7)
    p2 = (fd - 45.0 * k) / 45.0
    p1 = 1.0 - p2
    return (_R1[k] + (p1,)), (_R2[k] + (p2,))


def _tile_pointer_dinf(spec: RasterSpec, tid: int):
    pad = padded_band(spec, tid, 1)
    return pad[1:-1, 1:-1], dinf_pointer_kernel(pad, spec.nodata)[1:-1, 1:-1]


def _dinf_tile_accum(z, fd, inflow, nodata):
    """Kahn in-degree topological accumulation over IN-TILE edges;
    ``inflow`` carries external (cross-band) contributions."""
    H, W = z.shape
    valid = z != nodata
    acc = np.where(valid, 1.0 + inflow, 0.0)
    # build in-tile edges + in-degrees
    edges = [[] for _ in range(H * W)]  # sender -> [(recv_lin, p)]
    indeg = np.zeros(H * W, dtype=np.int64)
    for r in range(H):
        for c in range(W):
            if not valid[r, c] or not (0 <= fd[r, c] <= 360):
                continue
            for dc, dr, p in _sector_split(float(fd[r, c])):
                if p <= 0:
                    continue
                r2, c2 = r + dr, c + dc
                if 0 <= c2 < W and 0 <= r2 < H and valid[r2, c2]:
                    edges[r * W + c].append((r2 * W + c2, p))
                    indeg[r2 * W + c2] += 1
    out_up: dict[int, float] = {}
    out_dn: dict[int, float] = {}
    stack = list(np.flatnonzero((indeg == 0) & valid.ravel()))
    flat_acc = acc.ravel()
    fd_flat = fd.ravel()
    while stack:
        u = int(stack.pop())
        # cross-band emission for edges leaving the tile vertically
        r, c = divmod(u, W)
        if valid[r, c] and 0 <= fd_flat[u] <= 360:
            for dc, dr, p in _sector_split(float(fd_flat[u])):
                if p <= 0:
                    continue
                r2, c2 = r + dr, c + dc
                if 0 <= c2 < W and not (0 <= r2 < H):
                    tgt = out_up if r2 < 0 else out_dn
                    tgt[c2] = tgt.get(c2, 0.0) + flat_acc[u] * p
        for v, p in edges[u]:
            flat_acc[v] += flat_acc[u] * p
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    return flat_acc.reshape(H, W), out_up, out_dn


def flow_accumulation_dinf(spec: RasterSpec | None = None,
                           max_rounds: int = 64,
                           round_to: int = 4) -> pd.DataFrame:
    """(row_id, n_valid, sum_acc) per raster row — banded fixed point
    via stages/fixed_point.updn_fixed_point: per-tile (z, fd) state is
    built once in the object store and only the O(cols) up/dn message
    dicts travel per round."""
    from .fixed_point import updn_fixed_point

    spec = spec or RasterSpec()

    def build(tid: int):
        return _tile_pointer_dinf(spec, tid)

    def kernel(state, tid: int, inflow):
        z, fd = state
        return _dinf_tile_accum(z, fd, inflow, spec.nodata)

    def final(state, tid: int, acc) -> pd.DataFrame:
        z, _ = state
        valid = z != spec.nodata
        r0 = spec.band(tid)[0]
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + z.shape[0]),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "sum_acc": np.round(np.where(valid, acc, 0.0).sum(axis=1),
                                round_to)})

    frames = updn_fixed_point(spec, build, kernel, final, max_rounds,
                              "Dinf accumulation")
    return (pd.concat(frames, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def flow_accumulation_dinf_naive(spec: RasterSpec,
                                 round_to: int = 4) -> pd.DataFrame:
    """Whole-grid mirror (single tile, no external inflow)."""
    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    fd = dinf_pointer_kernel(pad, spec.nodata)[1:-1, 1:-1]
    acc, _, _ = _dinf_tile_accum(z, fd, np.zeros_like(z), spec.nodata)
    valid = z != spec.nodata
    return pd.DataFrame({
        "row_id": np.arange(spec.rows),
        "n_valid": valid.sum(axis=1).astype(np.int64),
        "sum_acc": np.round(np.where(valid, acc, 0.0).sum(axis=1),
                            round_to)})


def _dinf_tile_flux(z, fd, loading, eff, absorp, inflow, nodata):
    """MassFluxDinf (HydroTools/src/plugins/MassFluxDinf.java:265,
    327-408): out initialized to loading (+ external inflow); on
    resolution, xfer = (out − absorption)·efficiency splits along the
    same Dinf sector proportions — the literal formula, no clamp
    (unlike MassFluxD8's max(0, ·))."""
    H, W = z.shape
    valid = z != nodata
    out = np.where(valid, loading + inflow, 0.0)
    edges = [[] for _ in range(H * W)]
    indeg = np.zeros(H * W, dtype=np.int64)
    for r in range(H):
        for c in range(W):
            if not valid[r, c] or not (0 <= fd[r, c] <= 360):
                continue
            for dc, dr, p in _sector_split(float(fd[r, c])):
                if p <= 0:
                    continue
                r2, c2 = r + dr, c + dc
                if 0 <= c2 < W and 0 <= r2 < H and valid[r2, c2]:
                    edges[r * W + c].append((r2 * W + c2, p))
                    indeg[r2 * W + c2] += 1
    out_up: dict[int, float] = {}
    out_dn: dict[int, float] = {}
    stack = list(np.flatnonzero((indeg == 0) & valid.ravel()))
    flat = out.ravel()
    fd_flat = fd.ravel()
    ab_flat = absorp.ravel()
    ef_flat = eff.ravel()
    while stack:
        u = int(stack.pop())
        r, c = divmod(u, W)
        if valid[r, c] and 0 <= fd_flat[u] <= 360:
            xfer = (flat[u] - ab_flat[u]) * ef_flat[u]
            for dc, dr, p in _sector_split(float(fd_flat[u])):
                if p <= 0:
                    continue
                r2, c2 = r + dr, c + dc
                if 0 <= c2 < W and not (0 <= r2 < H):
                    tgt = out_up if r2 < 0 else out_dn
                    tgt[c2] = tgt.get(c2, 0.0) + xfer * p
        for v, p in edges[u]:
            xfer = (flat[u] - ab_flat[u]) * ef_flat[u]
            flat[v] += xfer * p
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    return flat.reshape(H, W), out_up, out_dn


def mass_flux_dinf(spec: RasterSpec | None = None, max_rounds: int = 64,
                   round_to: int = 4) -> pd.DataFrame:
    """(row_id, n_valid, sum_flux) per raster row — the Dinf flux over
    the same banded fixed point as flow_accumulation_dinf, loading /
    efficiency / absorption from hydro._flux_params."""
    from .fixed_point import updn_fixed_point
    from .hydro import _flux_params

    spec = spec or RasterSpec()
    cols = spec.cols

    def build(tid: int):
        z, fd = _tile_pointer_dinf(spec, tid)
        r0 = spec.band(tid)[0]
        cell = np.arange(r0 * cols, (r0 + z.shape[0]) * cols,
                         dtype=np.int64)
        ld, ef, ab = (a.reshape(z.shape) for a in _flux_params(cell))
        return z, fd, ld, ef, ab

    def kernel(state, tid: int, inflow):
        z, fd, ld, ef, ab = state
        return _dinf_tile_flux(z, fd, ld, ef, ab, inflow, spec.nodata)

    def final(state, tid: int, out) -> pd.DataFrame:
        z = state[0]
        valid = z != spec.nodata
        r0 = spec.band(tid)[0]
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + z.shape[0]),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "sum_flux": np.round(np.where(valid, out, 0.0).sum(axis=1),
                                 round_to)})

    frames = updn_fixed_point(spec, build, kernel, final, max_rounds,
                              "Dinf mass flux")
    return (pd.concat(frames, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def mass_flux_dinf_naive(spec: RasterSpec, round_to: int = 4) -> pd.DataFrame:
    from .hydro import _flux_params

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    fd = dinf_pointer_kernel(pad, spec.nodata)[1:-1, 1:-1]
    ld, ef, ab = (a.reshape(z.shape) for a in _flux_params(cell))
    out, _, _ = _dinf_tile_flux(z, fd, ld, ef, ab, np.zeros_like(z),
                                spec.nodata)
    valid = z != spec.nodata
    return pd.DataFrame({
        "row_id": np.arange(spec.rows, dtype=np.int64),
        "n_valid": valid.sum(axis=1).astype(np.int64),
        "sum_flux": np.round(np.where(valid, out, 0.0).sum(axis=1),
                             round_to)})


# ---------------------------------------------------------------------------
# FlowAccumMDInf (GeasyTools/src/plugins/FlowAccumMDInf.java:413-587 —
# Seibert & McGlynn MD∞): per cell, 8 triangular facets (neighbour
# order xd/yd :50-51, N anticlockwise); facet normal → downslope
# direction hr and slope hs = −tan(acos(nz/‖n‖)) (:455-476), the
# outside-facet corner fallback (:479-487), the one-sided
# p2-NoData branch WITH its literal dd[ii] distance bug (:493-499);
# valley slopes gated by the four in-facet/boundary rules (:508-521),
# hExp-powered normalization (:531-546, one-hot at hExp ≥ 10), the
# rFacet[7]==0 → 2π substitution (:548-550), and the linear two-corner
# split per facet (:553-561).
#
# Resolution in the reference is a row-major scan + recursive DFS
# gated on "all strictly-higher neighbours processed" (:576-587,
# tmpCount from :260-290).  When every portion edge targets a
# strictly-LOWER neighbour — asserted at runtime by the kernel — a
# cell's inflows are all complete when it resolves, so ANY
# topological order over the portion DAG yields identical sums and
# the banded Kahn fixed point of flow_accumulation_dinf applies
# unchanged.  (If an up-edge ever appeared, the literal walk would
# DROP that contribution from the already-written output — the kernel
# raises rather than silently diverging.)
# ---------------------------------------------------------------------------

_MD_XD = (0, -1, -1, -1, 0, 1, 1, 1)
_MD_YD = (-1, -1, 0, 1, 1, 1, 0, -1)
_MD_DD = (1.0, np.sqrt(2.0), 1.0, np.sqrt(2.0),
          1.0, np.sqrt(2.0), 1.0, np.sqrt(2.0))


def mdinf_portions_kernel(pad: np.ndarray, nodata: float,
                          grid_res: float = 1.0,
                          h_exp: float = 1.0) -> np.ndarray:
    """Per-cell 8-neighbour flow portions on the padded array's
    interior; portions[c] flows to neighbour (xd[c], yd[c])."""
    pi = np.pi
    z = pad[1:-1, 1:-1]
    H, W = z.shape
    valid = z != nodata

    def nb(c):
        return pad[1 + _MD_YD[c]:1 + _MD_YD[c] + H,
                   1 + _MD_XD[c]:1 + _MD_XD[c] + W]

    rF = np.zeros((8, H, W))
    sF = np.full((8, H, W), nodata)
    for c in range(8):
        i, ii = c, (c + 1) % 8
        p1, p2 = nb(i), nb(ii)
        ok = (p1 != nodata) & (p2 != nodata)
        z1 = p1 - z
        z2 = p2 - z
        nx = (_MD_YD[i] * z2 - _MD_YD[ii] * z1) * grid_res
        ny = (_MD_XD[ii] * z1 - _MD_XD[i] * z2) * grid_res
        nz = (_MD_XD[i] * _MD_YD[ii] - _MD_XD[ii] * _MD_YD[i]) \
            * grid_res ** 2
        with np.errstate(all="ignore"):
            hr = np.where(
                nx == 0, np.where(ny >= 0, 0.0, pi),
                np.where(nx >= 0, pi / 2 - np.arctan(ny / nx),
                         3 * pi / 2 - np.arctan(ny / nx)))
            hs = -np.tan(np.arccos(
                nz / np.sqrt(nx * nx + ny * ny + nz * nz)))
        outside = (hr < i * pi / 4) | (hr > (i + 1) * pi / 4)
        hr = np.where(outside, np.where(p1 < p2, i * pi / 4, ii * pi / 4),
                      hr)
        hs = np.where(outside,
                      np.where(p1 < p2, (z - p1) / (_MD_DD[i] * grid_res),
                               (z - p2) / (_MD_DD[ii] * grid_res)), hs)
        one = (~ok) & (p1 != nodata) & (p1 < z)
        rF[c] = np.where(ok, hr, np.where(one, i / 4 * pi, 0.0))
        sF[c] = np.where(ok, hs,
                         np.where(one, (z - p1) / (_MD_DD[ii] * grid_res),
                                  nodata))

    valley = np.zeros((8, H, W))
    for c in range(8):
        i, ii, ip = c, (c + 1) % 8, (c + 7) % 8
        cond = (sF[i] > 0) & (
            ((rF[i] > i * pi / 4) & (rF[i] < (i + 1) * pi / 4))
            | (rF[i] == rF[ii])
            | ((sF[ii] == nodata) & (rF[i] == (i + 1) * pi / 4))
            | ((sF[ip] == nodata) & (rF[i] == i * pi / 4)))
        valley[i] = np.where(cond & valid, sF[i], 0.0)

    vpow = valley ** h_exp
    vs = vpow.sum(axis=0)
    if h_exp < 10:
        vnorm = np.where(vs > 0, vpow / np.where(vs > 0, vs, 1.0), 0.0)
    else:  # one-hot steepest facet (first max wins via argmax)
        imax = np.argmax(valley, axis=0)
        vnorm = np.where((vs > 0)
                         & (np.arange(8)[:, None, None] == imax[None]),
                         1.0, 0.0)
        vnorm = np.where(valley.max(axis=0) > 0, vnorm, 0.0)
    rF[7] = np.where(rF[7] == 0, 2 * pi, rF[7])
    portions = np.zeros((8, H, W))
    for c in range(8):
        i, ii = c, (c + 1) % 8
        live = vnorm[i] > 0
        portions[i] += np.where(
            live, vnorm[i] * (((i + 1) * pi / 4 - rF[i]) / (pi / 4)), 0.0)
        portions[ii] += np.where(
            live, vnorm[i] * ((rF[i] - i * pi / 4) / (pi / 4)), 0.0)

    # the Kahn-equivalence guard: every live edge must be strictly downhill
    for c in range(8):
        m = (portions[c] > 0) & valid
        nbz = nb(c)
        if bool((m & (nbz != nodata) & (z <= nbz)).any()):
            raise ValueError(
                "MDInf portion edge to a non-lower neighbour: the "
                "literal walk's drop semantics would apply (see header)")
    return portions


def _tile_portions_mdinf(spec: RasterSpec, tid: int, h_exp: float):
    pad = padded_band(spec, tid, 1)
    return pad[1:-1, 1:-1], mdinf_portions_kernel(pad, spec.nodata,
                                                  h_exp=h_exp)


def _mdinf_tile_accum(z, por, inflow, nodata):
    """Kahn accumulation over the portion DAG's in-tile edges."""
    H, W = z.shape
    valid = z != nodata
    acc = np.where(valid, 1.0 + inflow, 0.0)
    edges = [[] for _ in range(H * W)]
    indeg = np.zeros(H * W, dtype=np.int64)
    for c in range(8):
        dc, dr = _MD_XD[c], _MD_YD[c]
        send = (por[c] > 0) & valid
        for r, cc in zip(*np.nonzero(send)):
            r2, c2 = r + dr, cc + dc
            if 0 <= c2 < W and 0 <= r2 < H and valid[r2, c2]:
                edges[r * W + cc].append((r2 * W + c2, por[c][r, cc]))
                indeg[r2 * W + c2] += 1
    out_up: dict[int, float] = {}
    out_dn: dict[int, float] = {}
    stack = list(np.flatnonzero((indeg == 0) & valid.ravel()))
    flat = acc.ravel()
    while stack:
        u = int(stack.pop())
        r, cc = divmod(u, W)
        for c in range(8):
            p = por[c][r, cc]
            if p <= 0:
                continue
            r2, c2 = r + _MD_YD[c], cc + _MD_XD[c]
            if 0 <= c2 < W and not (0 <= r2 < H):
                tgt = out_up if r2 < 0 else out_dn
                tgt[c2] = tgt.get(c2, 0.0) + flat[u] * p
        for v, p in edges[u]:
            flat[v] += flat[u] * p
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    return flat.reshape(H, W), out_up, out_dn


def flow_accumulation_mdinf(spec: RasterSpec | None = None,
                            h_exp: float = 1.0, max_rounds: int = 64,
                            round_to: int = 4) -> pd.DataFrame:
    """(row_id, n_valid, sum_acc) per raster row — MD∞ over the same
    banded fixed point as flow_accumulation_dinf."""
    from .fixed_point import updn_fixed_point

    spec = spec or RasterSpec()

    def build(tid: int):
        return _tile_portions_mdinf(spec, tid, h_exp)

    def kernel(state, tid: int, inflow):
        z, por = state
        return _mdinf_tile_accum(z, por, inflow, spec.nodata)

    def final(state, tid: int, acc) -> pd.DataFrame:
        z = state[0]
        valid = z != spec.nodata
        r0 = spec.band(tid)[0]
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + z.shape[0]),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "sum_acc": np.round(np.where(valid, acc, 0.0).sum(axis=1),
                                round_to)})

    frames = updn_fixed_point(spec, build, kernel, final, max_rounds,
                              "MDInf accumulation")
    return (pd.concat(frames, ignore_index=True)
            .sort_values("row_id").reset_index(drop=True))


def flow_accumulation_mdinf_literal(spec: RasterSpec, h_exp: float = 1.0,
                                    round_to: int = 4) -> pd.DataFrame:
    """The reference's literal schedule: row-major scan + recursive DFS
    gated on strictly-higher-neighbour counts (FlowAccumMDInf.java:
    260-310, 576-587), upSlope written AT processing time — the drop
    semantics included.  Single-process mirror for the Kahn claim."""
    import sys

    cols = spec.cols
    cell = np.arange(spec.rows * cols, dtype=np.int64)
    z = synth_value(cell).reshape(spec.rows, cols)
    pad = np.full((spec.rows + 2, cols + 2), spec.nodata)
    pad[1:-1, 1:-1] = z
    por = mdinf_portions_kernel(pad, spec.nodata, h_exp=h_exp)
    valid = z != spec.nodata
    H, W = z.shape
    count = np.zeros((H, W), dtype=np.int64)
    for c in range(8):
        nbz = pad[1 + _MD_YD[c]:1 + _MD_YD[c] + H,
                  1 + _MD_XD[c]:1 + _MD_XD[c] + W]
        count += (valid & (nbz != spec.nodata) & (z < nbz)).astype(np.int64)
    area = np.where(valid, 1.0, 0.0)
    upslope = np.full((H, W), spec.nodata)
    done = np.zeros((H, W), dtype=bool)
    sys.setrecursionlimit(1_000_000)

    def resolve(r, cc):
        stack = [(r, cc)]
        while stack:
            r, cc = stack.pop()
            if done[r, cc]:
                continue
            done[r, cc] = True
            upslope[r, cc] = area[r, cc]
            nxt = []
            for c in range(8):
                p = por[c][r, cc]
                r2, c2 = r + _MD_YD[c], cc + _MD_XD[c]
                if not (0 <= r2 < H and 0 <= c2 < W and valid[r2, c2]):
                    continue
                if p > 0:
                    area[r2, c2] += area[r, cc] * p
                if z[r, cc] > z[r2, c2]:
                    count[r2, c2] -= 1
                    if count[r2, c2] == 0:
                        nxt.append((r2, c2))
            stack.extend(reversed(nxt))   # DFS in literal c order

    for r in range(H):
        for cc in range(W):
            if valid[r, cc] and count[r, cc] == 0 and not done[r, cc]:
                resolve(r, cc)
    return pd.DataFrame({
        "row_id": np.arange(H),
        "n_valid": valid.sum(axis=1).astype(np.int64),
        "sum_acc": np.round(
            np.where(valid, np.where(done, upslope, 0.0), 0.0).sum(axis=1),
            round_to)})
