"""SURFPixelMatching / FindTiePoints detection half — the vendored
jopensurf SURF detector (Photogrammetry/src/jopensurf/*.java),
replicated with its exact float semantics:

- **Integral image** (IntegralImage.java:85-138): intensity =
  (v − displayMin)/displayRange (NoData → 0), accumulated
  row-sequentially in FLOAT32 (``sum += (float) intensity``) and added
  to the previous row in float32 — i.e. a float32 double-cumsum.
- **BoxIntegral** (ImageTransformUtils.java:50-70): four clamped
  corner gathers combined in float32, ``max(0, A − B − C + D)``.
- **Response layers** (ResponseLayer.java:59-95): Dxx/Dyy/Dxy box
  compositions evaluated in float32 then widened, normalized by
  1/filter², response = Dxx·Dyy − 0.81f·Dxy², laplacian sign bit.
  Layer ladder per FastHessian.buildResponseMap (:142-165): octave 0 →
  filters 9,15,21,27 at step 2 (init sample), octave k → two new
  filters at step 2·2^k and width w/2^k (integer division), filter_map
  rows [0,1,2,3], [1,3,4,5], [3,5,6,7], [5,7,8,9] (:177-191).
- **Extrema** (:194-247): 3×3×3 strict comparison on the coarsest
  (top) grid with the SIGNED two-branch test (|response| ≥ threshold,
  maxima of positive / minima of negative), then the 3-D quadratic
  interpolation (:249-298) — LU solve of the scale-space Hessian;
  accepted when |offset| < 0.5 on all three axes; x = (c + xc)·step,
  scale = 0.1333·(filter + xi·filterStep), laplacian from the middle
  layer.  (Commons-math LU inverse ≡ numpy solve to float noise —
  documented substitution.)
- **Orientation** (Surf.java:187-249): Gauss25-weighted Haar responses
  over the radius-6 disc at scale steps, π/3 sliding window advanced by
  FLOAT32 0.15 steps with float32 response sums (the loop variable
  itself accumulates in float32 — replicated), dominant direction by
  strict > on the squared resultant.
- **Descriptor** (Surf.java:251-345): the literal overlapping 4×4
  subregion walk (i = −12,−7,−2,3 via the i−4/i+9 dance), 9×9 samples
  per subregion on the rotated axes, σ = 2.5s inner / 1.5 outer
  gaussian weights (gaussian() at :444-446), float32 descriptor slots,
  double length accumulator, final /len in double narrowed to float32.

Pipeline (the SURFPixelMatching physical plan): the two images'
integral images broadcast via ``ray.put``; the 10 response layers per
image build as INDEPENDENT Ray tasks; NMS + interpolation per
octave-triple on the (tiny) collected layers; interest points stream
through a descriptor ``map_batches`` against the broadcast integral
image; the InterestPointMatcher rule (already explicit in
``surf_match_points``) joins the two sets — right image = the left
shifted by (SHIFT_R, SHIFT_C), so matches must recover the shift.
At 100-TB scale each image is one independent pipeline instance (the
reference fans the per-point loops over a thread pool,
Surf.java:148-159).  Not SQL-expressible — rows-only oracle;
conformance = pure-loop literal mirrors (integral / response /
orientation / descriptor) + shift-recovery and determinism tests.

Parameters per FindTiePoints.groovy:88-130: balance 0.81 (hard-coded
in ResponseLayer.java:91), octaves 4, init sample 2
(Surf.java:70), threshold = dialog value / 1000.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..core.rng import NODATA

OCTAVES = 4
INIT_SAMPLE = 2
THRESHOLD = 0.004          # dialog default 4.0 / 1000 (FindTiePoints:128)
MATCH_THRESHOLD = 0.6      # FindTiePoints dialog default (:91)
SHIFT_R, SHIFT_C = 19, -13

GAUSS25 = np.array([
    [0.02546481, 0.02350698, 0.01849125, 0.01239505, 0.00708017,
     0.00344629, 0.00142946],
    [0.02350698, 0.02169968, 0.01706957, 0.01144208, 0.00653582,
     0.00318132, 0.00131956],
    [0.01849125, 0.01706957, 0.01342740, 0.00900066, 0.00514126,
     0.00250252, 0.00103800],
    [0.01239505, 0.01144208, 0.00900066, 0.00603332, 0.00344629,
     0.00167749, 0.00069579],
    [0.00708017, 0.00653582, 0.00514126, 0.00344629, 0.00196855,
     0.00095820, 0.00039744],
    [0.00344629, 0.00318132, 0.00250252, 0.00167749, 0.00095820,
     0.00046640, 0.00019346],
    [0.00142946, 0.00131956, 0.00103800, 0.00069579, 0.00039744,
     0.00019346, 0.00008024]])


def integral_image(values: np.ndarray, image_min: float = 0.0,
                   image_range: float = 1000.0,
                   nodata: float = NODATA) -> np.ndarray:
    """Float32 double-cumsum of normalized intensities; returned in
    (row, col) layout (Java stores [col][row] — irrelevant here)."""
    inten = np.where(values == nodata, 0.0,
                     (values - image_min) / image_range)
    rowsum = np.cumsum(inten.astype(np.float32), axis=1, dtype=np.float32)
    return np.cumsum(rowsum, axis=0, dtype=np.float32)


def box_integral(ii: np.ndarray, row, col, rows, cols):
    """ImageTransformUtils.BoxIntegral:50-70, vectorized over equally
    shaped integer index arrays; float32 combine, max(0, ·)."""
    height, width = ii.shape
    row = np.asarray(row)
    col = np.asarray(col)
    r1 = np.minimum(row, height) - 1
    c1 = np.minimum(col, width) - 1
    r2 = np.minimum(row + rows, height) - 1
    c2 = np.minimum(col + cols, width) - 1

    def at(r, c):
        ok = (r >= 0) & (c >= 0)
        return np.where(ok, ii[np.clip(r, 0, height - 1),
                              np.clip(c, 0, width - 1)],
                        np.float32(0.0)).astype(np.float32)

    out = at(r1, c1) - at(r1, c2) - at(r2, c1) + at(r2, c2)
    return np.maximum(np.float32(0.0), out)


def layer_specs(height: int, width: int, octaves: int = OCTAVES,
                init_sample: int = INIT_SAMPLE):
    """(width, height, step, filter) ladder per buildResponseMap."""
    w = width // init_sample
    h = height // init_sample
    s = init_sample
    specs = []
    inc = 3
    first = 9
    for k in range(octaves):
        inc = 2 * inc
        sizes = [first + j * inc for j in range(4)]
        if k > 0:
            v = 2 ** k
            specs.append((w // v, h // v, s * v, sizes[2]))
            specs.append((w // v, h // v, s * v, sizes[3]))
        else:
            for f in sizes:
                specs.append((w, h, s, f))
        first += inc
    return specs


def filter_map(octaves: int = OCTAVES):
    fm = []
    for k in range(octaves):
        if k > 0:
            a = 1 + (k - 1) * 2
            fm.append([a, a + 2, a + 3, a + 4])
        else:
            fm.append([0, 1, 2, 3])
    return fm


def build_response_layer(ii: np.ndarray, width: int, height: int,
                         step: int, filt: int):
    """ResponseLayer.buildResponseLayer:59-95 vectorized over the whole
    layer grid. Returns (responses, laplacian) in (row, col) layout."""
    b = (filt - 1) // 2
    lobe = filt // 3
    w = filt
    inv_area = 1.0 / (w * w)
    ar = np.arange(height)[:, None] * step            # rows
    ac = np.arange(width)[None, :] * step             # cols
    r = np.broadcast_to(ar, (height, width))
    c = np.broadcast_to(ac, (height, width))
    dxx = box_integral(ii, r - lobe + 1, c - b, 2 * lobe - 1, w) \
        - box_integral(ii, r - lobe + 1, c - lobe // 2,
                       2 * lobe - 1, lobe) * np.float32(3)
    dyy = box_integral(ii, r - b, c - lobe + 1, w, 2 * lobe - 1) \
        - box_integral(ii, r - lobe // 2, c - lobe + 1,
                       lobe, 2 * lobe - 1) * np.float32(3)
    dxy = box_integral(ii, r - lobe, c + 1, lobe, lobe) \
        + box_integral(ii, r + 1, c - lobe, lobe, lobe) \
        - box_integral(ii, r - lobe, c - lobe, lobe, lobe) \
        - box_integral(ii, r + 1, c + 1, lobe, lobe)
    dxx = dxx.astype(np.float64) * inv_area
    dyy = dyy.astype(np.float64) * inv_area
    dxy = dxy.astype(np.float64) * inv_area
    resp = dxx * dyy - np.float64(np.float32(0.81)) * dxy * dxy
    lap = (dxx + dyy >= 0).astype(np.int8)
    return resp, lap


def detect_points(ii: np.ndarray, octaves: int = OCTAVES,
                  init_sample: int = INIT_SAMPLE,
                  threshold: float = THRESHOLD,
                  layers=None):
    """FastHessian.getIPoints:77-104 — NMS over octave triples + 3-D
    interpolation. ``layers`` may carry pre-built (resp, lap) tuples
    (the distributed path builds them as Ray tasks)."""
    height, width = ii.shape
    specs = layer_specs(height, width, octaves, init_sample)
    if layers is None:
        layers = [build_response_layer(ii, *spec) for spec in specs]
    fm = filter_map(octaves)
    thr = np.float64(np.float32(threshold))
    points = []
    for o in range(octaves):
        for i in range(2):
            bspec, mspec, tspec = (specs[fm[o][i]], specs[fm[o][i + 1]],
                                   specs[fm[o][i + 2]])
            bresp = layers[fm[o][i]][0]
            mresp = layers[fm[o][i + 1]][0]
            mlap = layers[fm[o][i + 1]][1]
            tresp = layers[fm[o][i + 2]][0]
            tw, th, tstep, tfilt = tspec
            mscale = mspec[0] // tw          # width ratios (int div)
            bscale = bspec[0] // tw
            border = (tfilt + 1) // (2 * tstep)
            if th - border <= border or tw - border <= border:
                continue
            rr = np.arange(border + 1, th - border)
            cc = np.arange(border + 1, tw - border)
            R = np.repeat(rr, len(cc))
            C = np.tile(cc, len(rr))
            cand = mresp[R * mscale, C * mscale]
            keep = np.abs(cand) >= thr
            is_ext = keep.copy()
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    tv = tresp[R + dr, C + dc]
                    mv = mresp[(R + dr) * mscale, (C + dc) * mscale]
                    bv = bresp[(R + dr) * bscale, (C + dc) * bscale]
                    pos = (tv >= cand) | (bv >= cand)
                    neg = (tv <= cand) | (bv <= cand)
                    if dr != 0 or dc != 0:
                        pos |= mv >= cand
                        neg |= mv <= cand
                    is_ext &= ~np.where(cand > 0, pos, neg)
            fstep = mspec[3] - bspec[3]
            for j in np.flatnonzero(is_ext):
                r0, c0 = int(R[j]), int(C[j])

                def m_at(r, c):
                    return mresp[r * mscale, c * mscale]

                def b_at(r, c):
                    return bresp[r * bscale, c * bscale]

                v = m_at(r0, c0)
                dx = (m_at(r0, c0 + 1) - m_at(r0, c0 - 1)) / 2.0
                dy = (m_at(r0 + 1, c0) - m_at(r0 - 1, c0)) / 2.0
                ds = (tresp[r0, c0] - b_at(r0, c0)) / 2.0
                dxx = m_at(r0, c0 + 1) + m_at(r0, c0 - 1) - 2 * v
                dyy = m_at(r0 + 1, c0) + m_at(r0 - 1, c0) - 2 * v
                dss = tresp[r0, c0] + b_at(r0, c0) - 2 * v
                dxy = (m_at(r0 + 1, c0 + 1) - m_at(r0 + 1, c0 - 1)
                       - m_at(r0 - 1, c0 + 1) + m_at(r0 - 1, c0 - 1)) / 4.0
                dxs = (tresp[r0, c0 + 1] - tresp[r0, c0 - 1]
                       - b_at(r0, c0 + 1) + b_at(r0, c0 - 1)) / 4.0
                dys = (tresp[r0 + 1, c0] - tresp[r0 - 1, c0]
                       - b_at(r0 + 1, c0) + b_at(r0 - 1, c0)) / 4.0
                H = np.array([[dxx, dxy, dxs],
                              [dxy, dyy, dys],
                              [dxs, dys, dss]])
                d = np.array([dx, dy, ds])
                try:
                    X = np.linalg.solve(H, d)
                except np.linalg.LinAlgError:
                    continue
                xc, xr, xi = -X[0], -X[1], -X[2]
                if abs(xi) < 0.5 and abs(xr) < 0.5 and abs(xc) < 0.5:
                    x = np.float32((c0 + xc) * tstep)
                    y = np.float32((r0 + xr) * tstep)
                    scale = np.float32(float(np.float32(0.1333))
                                       * (mspec[3] + xi * fstep))
                    lap = int(mlap[r0 * mscale, c0 * mscale])
                    points.append((float(x), float(y), float(scale), lap))
    return points


def _haar_x(ii, row, col, s):
    return box_integral(ii, row - s // 2, col, s, s // 2) \
        - box_integral(ii, row - s // 2, col - s // 2, s, s // 2)


def _haar_y(ii, row, col, s):
    return box_integral(ii, row, col - s // 2, s // 2, s) \
        - box_integral(ii, row - s // 2, col - s // 2, s // 2, s)


def _get_angle(x, y):
    """Surf.getAngle:347-364, vectorized."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where((x >= 0) & (y >= 0), np.arctan(y / x),
            np.where((x < 0) & (y >= 0), np.pi - np.arctan(-y / x),
            np.where((x < 0) & (y < 0), np.pi + np.arctan(y / x),
                     2 * np.pi - np.arctan(-y / x))))
    return np.where(np.isnan(a), 0.0, a)


def orientation_of(ii: np.ndarray, x: float, y: float,
                   scale: float) -> float:
    """Surf.getOrientation:187-249 — float32 window sums and float32
    0.15-step window origin, replicated."""
    s = int(np.floor(scale + 0.5))           # Math.round(float)
    r = int(np.floor(y + 0.5))
    c = int(np.floor(x + 0.5))
    ij = [(i, j) for i in range(-6, 7) for j in range(-6, 7)
          if i * i + j * j < 36]
    iv = np.array([i for i, _ in ij])
    jv = np.array([j for _, j in ij])
    gauss = GAUSS25[np.abs(iv), np.abs(jv)]
    hx = gauss * _haar_x(ii, r + jv * s, c + iv * s, 4 * s)
    hy = gauss * _haar_y(ii, r + jv * s, c + iv * s, 4 * s)
    ang = _get_angle(hx, hy)
    hx32 = hx.astype(np.float32)
    hy32 = hy.astype(np.float32)
    ang32 = ang.astype(np.float32)

    best = np.float32(0.0)
    orientation = 0.0
    ang1 = np.float32(0.0)
    two_pi = 2 * math.pi
    while float(ang1) < two_pi:
        a1 = float(ang1)
        a2 = a1 - 5.0 * math.pi / 3.0 if a1 + math.pi / 3.0 > two_pi \
            else a1 + math.pi / 3.0
        a2 = np.float32(a2)
        if a1 < float(a2):
            m = (ang32 > a1) & (ang32 < float(a2))
        elif float(a2) < a1:
            m = ((ang32 > 0) & (ang32 < float(a2))) \
                | ((ang32 > a1) & (ang32 < two_pi))
        else:
            m = np.zeros_like(ang32, dtype=bool)
        # float32 sequential accumulation of the selected responses
        sx = np.float32(0.0)
        sy = np.float32(0.0)
        for k in np.flatnonzero(m):
            sx = np.float32(sx + hx32[k])
            sy = np.float32(sy + hy32[k])
        mag = np.float32(sx * sx + sy * sy)
        if mag > best:
            best = mag
            # Surf.java:243 — orientation = (float) getAngle(sumX, sumY):
            # the double angle is NARROWED to float32 before storage
            # (later widened back for cos/sin in the descriptor)
            orientation = float(np.float32(_get_angle(float(sx), float(sy))))
        ang1 = np.float32(ang1 + np.float32(0.15))
    return orientation


def descriptor_of(ii: np.ndarray, x: float, y: float, scale: float,
                  orientation: float) -> np.ndarray:
    """Surf.getMDescriptor:251-345 (free-oriented), subregions
    vectorized over their 9×9 samples."""
    xr = int(np.floor(x + 0.5))
    yr = int(np.floor(y + 0.5))
    co = math.cos(orientation)
    si = math.sin(orientation)
    desc = np.zeros(64, dtype=np.float32)
    length = 0.0
    count = 0
    cx = -0.5
    i = -8
    while i < 12:
        j = -8
        i = i - 4
        cx += 1.0
        cy = -0.5
        while j < 12:
            cy += 1.0
            j = j - 4
            ix = i + 5
            jx = j + 5
            xs = np.floor(xr + (-jx * scale * si + ix * scale * co) + 0.5)
            ys = np.floor(yr + (jx * scale * co + ix * scale * si) + 0.5)
            k = np.repeat(np.arange(i, i + 9), 9)
            l = np.tile(np.arange(j, j + 9), 9)
            sample_x = np.floor(xr + (-l * scale * si + k * scale * co)
                                + 0.5).astype(np.int64)
            sample_y = np.floor(yr + (l * scale * co + k * scale * si)
                                + 0.5).astype(np.int64)
            # Surf.java:302 `2.5F * scale` — scale is declared DOUBLE in
            # getMDescriptor, so the float literal widens and the
            # multiply is a double multiply (exact: ≤26 mantissa bits)
            sig = 2.5 * float(scale)
            dxs = xs - sample_x
            dys = ys - sample_y
            g1 = (1.0 / (2.0 * math.pi * sig * sig)) \
                * np.exp(-(dxs * dxs + dys * dys) / (2.0 * sig * sig))
            hsize = int(2 * np.floor(scale + 0.5))
            rx = _haar_x(ii, sample_y, sample_x, hsize).astype(np.float64)
            ry = _haar_y(ii, sample_y, sample_x, hsize).astype(np.float64)
            rrx = g1 * (-rx * si + ry * co)
            rry = g1 * (rx * co + ry * si)
            # Java accumulates sequentially in double — cumsum's last
            # element reproduces that order exactly (np .sum is pairwise)
            dx = float(np.cumsum(rrx)[-1])
            dy = float(np.cumsum(rry)[-1])
            mdx = float(np.cumsum(np.abs(rrx))[-1])
            mdy = float(np.cumsum(np.abs(rry))[-1])
            g2 = (1.0 / (2.0 * math.pi * 1.5 * 1.5)) \
                * math.exp(-((cx - 2.0) ** 2 + (cy - 2.0) ** 2)
                           / (2.0 * 1.5 * 1.5))
            desc[count] = np.float32(dx * g2)
            desc[count + 1] = np.float32(dy * g2)
            desc[count + 2] = np.float32(mdx * g2)
            desc[count + 3] = np.float32(mdy * g2)
            count += 4
            length += (dx * dx + dy * dy + mdx * mdx + mdy * mdy) \
                * (g2 * g2)
            j += 9
        i += 9
    length = math.sqrt(length)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Java divides unconditionally: a flat patch yields NaN slots,
        # and NaN distances never win a strict-< scan (replicated by
        # the matcher's NaN -> +inf mapping)
        desc = (desc.astype(np.float64) / length).astype(np.float32)
    return desc


# ---------------------------------------------------------------------------
# The distributed SURFPixelMatching pipeline over the synthetic image
# pair (right = left translated by (SHIFT_R, SHIFT_C)).
# ---------------------------------------------------------------------------


def blob_image(rows: int = 256, cols: int = 256) -> np.ndarray:
    """Deterministic blob-structured test image (sum of sinusoids) —
    SURF needs scale-space structure; iid noise yields no extrema above
    the dialog threshold (verified)."""
    r = np.arange(rows)[:, None]
    c = np.arange(cols)[None, :]
    return (500.0
            + 220.0 * np.sin(2 * np.pi * r / 41.0 + 0.7)
            * np.cos(2 * np.pi * c / 33.0 - 1.1)
            + 160.0 * np.cos(2 * np.pi * r / 23.0 - 0.4)
            * np.sin(2 * np.pi * c / 57.0 + 2.0)
            + 90.0 * np.sin(2 * np.pi * (r + c) / 71.0 + 1.3)
            ) * np.ones((rows, cols))


def _image_pair(spec_rows: int = 256, spec_cols: int = 256):
    left = blob_image(spec_rows, spec_cols)
    right = np.full_like(left, NODATA)
    sr, sc = SHIFT_R, SHIFT_C
    src_r = np.arange(spec_rows) - sr
    src_c = np.arange(spec_cols) - sc
    ok_r = (src_r >= 0) & (src_r < spec_rows)
    ok_c = (src_c >= 0) & (src_c < spec_cols)
    right[np.ix_(ok_r, ok_c)] = left[np.ix_(src_r[ok_r], src_c[ok_c])]
    return left, right


def surf_pixel_matching(sf_dir: str, threshold: float = THRESHOLD,
                        match_threshold: float = MATCH_THRESHOLD,
                        round_to: int = 6) -> pd.DataFrame:
    """Detect on both images (response layers as independent Ray
    tasks), orient+describe points in a streamed map_batches against
    the broadcast integral images, match with the InterestPointMatcher
    rule. Output: matched pairs (lx, ly, rx, ry, dist)."""
    import ray
    import ray.data as rd

    left, right = _image_pair()
    iis = {"L": integral_image(left), "R": integral_image(right)}
    ii_ref = ray.put(iis)
    specs = layer_specs(*iis["L"].shape)

    def build(batch) -> pd.DataFrame:
        ii_all = ray.get(ii_ref)
        rows = []
        for idx in batch["id"]:
            img = "L" if int(idx) < len(specs) else "R"
            spec = specs[int(idx) % len(specs)]
            resp, lap = build_response_layer(ii_all[img], *spec)
            rows.append({"img": img, "layer": int(idx) % len(specs),
                         "resp": resp.tobytes(), "lap": lap.tobytes(),
                         "h": resp.shape[0], "w": resp.shape[1]})
        return pd.DataFrame(rows)

    built = (rd.range(2 * len(specs))
             .map_batches(build, batch_format="numpy", batch_size=2)
             .to_pandas())
    layers = {"L": [None] * len(specs), "R": [None] * len(specs)}
    for rec in built.itertuples():
        resp = np.frombuffer(rec.resp).reshape(rec.h, rec.w)
        lap = np.frombuffer(rec.lap, dtype=np.int8).reshape(rec.h, rec.w)
        layers[rec.img][rec.layer] = (resp, lap)

    pts = {img: detect_points(iis[img], threshold=threshold,
                              layers=layers[img]) for img in ("L", "R")}

    def describe(batch) -> pd.DataFrame:
        ii_all = ray.get(ii_ref)
        out = {"img": [], "pid": [], "x": [], "y": [], "lap": [],
               "desc": []}
        for n in range(len(batch["pid"])):
            img = batch["img"][n]
            ii = ii_all[img]
            x, y, s = (float(batch["x"][n]), float(batch["y"][n]),
                       float(batch["scale"][n]))
            ori = orientation_of(ii, x, y, s)
            d = descriptor_of(ii, x, y, s, ori)
            out["img"].append(img)
            out["pid"].append(int(batch["pid"][n]))
            out["x"].append(x)
            out["y"].append(y)
            out["lap"].append(int(batch["lap"][n]))
            out["desc"].append(d.tobytes())
        return pd.DataFrame(out)

    items = []
    for img in ("L", "R"):
        for pid, (x, y, s, lap) in enumerate(pts[img]):
            items.append({"img": img, "pid": pid, "x": x, "y": y,
                          "scale": s, "lap": lap})
    if not items:
        return pd.DataFrame(columns=["lx", "ly", "rx", "ry", "dist"])
    desc = (rd.from_items(items)
            .map_batches(describe, batch_format="numpy", batch_size=64)
            .to_pandas())

    def side(img):
        d = desc[desc["img"] == img].sort_values("pid")
        mat = np.stack([np.frombuffer(b, dtype=np.float32)
                        .astype(np.float64) for b in d["desc"]])
        return (d["x"].to_numpy(), d["y"].to_numpy(),
                d["lap"].to_numpy(), mat)

    lx, ly, llap, lmat = side("L")
    rx, ry, rlap, rmat = side("R")
    # InterestPointMatcher rule (explicit in photogrammetry.surf_match_points)
    out = {"lx": [], "ly": [], "rx": [], "ry": [], "dist": []}
    dm = np.sqrt(((lmat[:, None, :] - rmat[None, :, :]) ** 2).sum(axis=2))
    dm[llap[:, None] != rlap[None, :]] = np.inf
    dm = np.where(np.isnan(dm), np.inf, dm)   # Java: NaN never wins <
    for a in range(len(lx)):
        j1 = int(np.argmin(dm[a]))
        d1 = dm[a, j1]
        d2 = np.partition(dm[a], 1)[1]
        if not np.isfinite(d1) or d1 / d2 > match_threshold:
            continue
        back = dm[:, j1]
        if int(np.argmin(back)) != a:
            continue
        out["lx"].append(round(float(lx[a]), round_to))
        out["ly"].append(round(float(ly[a]), round_to))
        out["rx"].append(round(float(rx[j1]), round_to))
        out["ry"].append(round(float(ry[j1]), round_to))
        out["dist"].append(round(float(d1), round_to))
    return (pd.DataFrame(out).sort_values(["lx", "ly"])
            .reset_index(drop=True))
