"""Geographic ↔ UTM coordinate transforms (vectorized, no pyproj).

Semantics follow the reference's LL2UTM/UTM2LL
(WhiteboxAPI/src/whitebox/georeference/LL2UTM.java:117-188 — the Dutch
(2010) transverse-Mercator series with k0=0.9996, 500 km false easting,
10,000 km false northing in the south; zone = 1 + floor((lon+180)/6);
M-series at :169-173) and Ellipsoid.java:39-50 (WGS-84 a=6378137,
b=6356752.314). CoordinateSystemTransformation.java (1,809 LoC) reduces
to applying this per cell/vertex — here a single vectorized numpy kernel
used inside map_batches, so a reprojection is one stateless MB stage.
"""

from __future__ import annotations

import numpy as np

A_WGS84 = 6378137.0
B_WGS84 = 6356752.314
K0 = 0.9996
_DRAD = np.pi / 180.0


def utm_zone(lon: np.ndarray) -> np.ndarray:
    return (1 + np.floor((np.asarray(lon, dtype=np.float64) + 180.0) / 6.0)
            ).astype(np.int64)


def ll_to_utm(lat, lon, zone=None, a: float = A_WGS84, b: float = B_WGS84):
    """Vectorized forward transform. Returns (easting, northing, zone).

    Matches LL2UTM.convertGeographicCoordinates term for term."""
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    if zone is None:
        zone = utm_zone(lon)
    else:
        zone = np.broadcast_to(np.asarray(zone, dtype=np.int64), lat.shape)
    # explicit products (not **) so the DuckDB oracle mirrors the exact
    # float64 operation order
    e = np.sqrt(1.0 - (b / a) * (b / a))
    esq = 1.0 - (b / a) * (b / a)
    e0sq = e * e / (1.0 - e * e)
    phi = lat * _DRAD
    zcm = 3.0 + 6.0 * (zone - 1) - 180.0
    sphi = e * np.sin(phi)
    N = a / np.sqrt(1.0 - sphi * sphi)
    tphi = np.tan(phi)
    T = tphi * tphi
    cphi = np.cos(phi)
    C = e0sq * cphi * cphi
    Aa = (lon - zcm) * _DRAD * cphi
    M = phi * (1 - esq * (1 / 4.0 + esq * (3 / 64.0 + 5 * esq / 256.0)))
    M = M - np.sin(2 * phi) * (esq * (3 / 8.0 + esq * (3 / 32.0 + 45 * esq / 1024.0)))
    M = M + np.sin(4 * phi) * (esq * esq * (15 / 256.0 + esq * 45 / 1024.0))
    M = M - np.sin(6 * phi) * (esq * esq * esq * (35 / 3072.0))
    M = M * a
    x = K0 * N * Aa * (1 + Aa * Aa * ((1 - T + C) / 6.0
        + Aa * Aa * (5 - 18 * T + T * T + 72 * C - 58 * e0sq) / 120.0))
    x = x + 500000.0
    y = K0 * (M + N * tphi * (Aa * Aa * (1 / 2.0
        + Aa * Aa * ((5 - T + 9 * C + 4 * C * C) / 24.0
        + Aa * Aa * (61 - 58 * T + T * T + 600 * C - 330 * e0sq) / 720.0))))
    y = np.where(lat < 0, 10000000.0 + y, y)
    return x, y, zone


def utm_to_ll(easting, northing, zone, southern=False,
              a: float = A_WGS84, b: float = B_WGS84):
    """Vectorized inverse (footpoint-latitude series, same source)."""
    x = np.asarray(easting, dtype=np.float64) - 500000.0
    y = np.asarray(northing, dtype=np.float64)
    if southern:
        y = y - 10000000.0
    zone = np.asarray(zone, dtype=np.float64)
    e = np.sqrt(1.0 - (b / a) ** 2)
    esq = 1.0 - (b / a) ** 2
    e0sq = e * e / (1.0 - e * e)
    M = y / K0
    mu = M / (a * (1 - esq * (1 / 4.0 + esq * (3 / 64.0 + 5 * esq / 256.0))))
    e1 = (1 - np.sqrt(1 - esq)) / (1 + np.sqrt(1 - esq))
    phi1 = mu + e1 * (3 / 2.0 - 27 * e1 * e1 / 32.0) * np.sin(2 * mu)
    phi1 = phi1 + e1 * e1 * (21 / 16.0 - 55 * e1 * e1 / 32.0) * np.sin(4 * mu)
    phi1 = phi1 + e1 ** 3 * (151 / 96.0) * np.sin(6 * mu)
    phi1 = phi1 + e1 ** 4 * (1097 / 512.0) * np.sin(8 * mu)
    C1 = e0sq * np.cos(phi1) ** 2
    T1 = np.tan(phi1) ** 2
    N1 = a / np.sqrt(1 - (e * np.sin(phi1)) ** 2)
    R1 = N1 * (1 - esq) / (1 - (e * np.sin(phi1)) ** 2)
    D = x / (N1 * K0)
    phi = D * D * (1 / 2.0 - D * D * (5 + 3 * T1 + 10 * C1 - 4 * C1 * C1
                                      - 9 * e0sq) / 24.0)
    phi = phi + D ** 6 * (61 + 90 * T1 + 298 * C1 + 45 * T1 * T1
                          - 252 * e0sq - 3 * C1 * C1) / 720.0
    phi = phi1 - (N1 * np.tan(phi1) / R1) * phi
    lon = D * (1 + D * D * ((-1 - 2 * T1 - C1) / 6.0
        + D * D * (5 - 2 * C1 + 28 * T1 - 3 * C1 * C1 + 8 * e0sq
                   + 24 * T1 * T1) / 120.0)) / np.cos(phi1)
    zcm = 3.0 + 6.0 * (zone - 1) - 180.0
    return phi / _DRAD, zcm + lon / _DRAD


def utm_project_query(sf_dir: str, round_to: int = 4):
    """CoordinateSystemTransformation as a query: geocode document points
    to (lat, lon) and project to UTM. Output
    (rec_id, utm_zone, easting, northing), values rounded."""
    import pandas as pd

    from ..stages.points import read_points

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        lat = batch["y"].to_numpy() * 0.04 - 80.0
        lon = batch["x"].to_numpy() * 0.09 - 180.0
        e_, n_, z_ = ll_to_utm(lat, lon)
        return pd.DataFrame({
            "rec_id": batch["rec_id"],
            "utm_zone": z_,
            "easting": np.round(e_, round_to),
            "northing": np.round(n_, round_to)})

    return read_points(sf_dir).map_batches(fn, batch_format="pandas")


def _d(v: float) -> str:
    """Exact DOUBLE literal for DuckDB (e-notation forces DOUBLE, not
    DECIMAL, so long multiplication chains keep float64 semantics)."""
    s = repr(float(v))
    return s if ("e" in s or "E" in s) else s + "e0"


def utm_project_sql(round_to: int = 4) -> str:
    """DuckDB mirror of utm_project_query — same float64 op order."""
    from ..core.rng import geocode_sql

    a, b = A_WGS84, B_WGS84
    e = float(np.sqrt(1.0 - (b / a) * (b / a)))
    esq = 1.0 - (b / a) * (b / a)
    e0sq = e * e / (1.0 - e * e)
    D, dr = _d, _d(_DRAD)
    # the M-series coefficients, folded in float64 exactly as numpy does
    m1 = D(1 - esq * (1 / 4.0 + esq * (3 / 64.0 + 5 * esq / 256.0)))
    m2 = D(esq * (3 / 8.0 + esq * (3 / 32.0 + 45 * esq / 1024.0)))
    m3 = D(esq * esq * (15 / 256.0 + esq * 45 / 1024.0))
    m4 = D(esq * esq * esq * (35 / 3072.0))
    xs, ys = geocode_sql("doc_id")
    return f"""
WITH pts AS (
  SELECT doc_id AS rec_id, ({xs}) AS x, ({ys}) AS y FROM documents),
ll AS (
  SELECT rec_id, y * {D(0.04)} - {D(80)} AS lat,
         x * {D(0.09)} - {D(180)} AS lon FROM pts),
t1 AS (
  SELECT rec_id, lat, lon,
         CAST(1 + floor((lon + {D(180)}) / {D(6)}) AS BIGINT) AS zone,
         lat * {dr} AS phi
  FROM ll),
t2 AS (
  SELECT *, {D(3)} + {D(6)} * (zone - 1) - {D(180)} AS zcm,
         {D(e)} * sin(phi) AS sphi, tan(phi) AS tphi, cos(phi) AS cphi
  FROM t1),
t3 AS (
  SELECT *,
         {D(a)} / sqrt({D(1)} - sphi * sphi) AS N,
         tphi * tphi AS T,
         {D(e0sq)} * cphi * cphi AS C,
         (lon - zcm) * {dr} * cphi AS Aa,
         (((phi * {m1}
            - sin({D(2)} * phi) * {m2})
            + sin({D(4)} * phi) * {m3})
            - sin({D(6)} * phi) * {m4}) * {D(a)} AS M
  FROM t2)
SELECT rec_id, zone AS utm_zone,
       round({D(K0)} * N * Aa * (1 + Aa * Aa * ((1 - T + C) / {D(6)}
             + Aa * Aa * (5 - 18 * T + T * T + 72 * C
                          - 58 * {D(e0sq)}) / {D(120)}))
             + {D(500000)}, {round_to}) AS easting,
       round(CASE WHEN lat < 0 THEN {D(10000000)} ELSE {D(0)} END
             + {D(K0)} * (M + N * tphi * (Aa * Aa * ({D(0.5)}
               + Aa * Aa * ((5 - T + 9 * C + 4 * C * C) / {D(24)}
               + Aa * Aa * (61 - 58 * T + T * T + 600 * C
                            - 330 * {D(e0sq)}) / {D(720)})))), {round_to}
             ) AS northing
FROM t3
"""


# ---------------------------------------------------------------------------
# Ellipsoid table + datum shifts (round 2: CoordinateSystemTransformation
# beyond WGS-84).
# ---------------------------------------------------------------------------

#: Verbatim (name → (a, b)) from the reference's Ellipsoid.java:24-50
#: enum — including its literal FISCHER_1960 minor-axis typo
#: (635678428, missing the decimal point), kept for parity and flagged.
ELLIPSOIDS: dict[str, tuple[float, float]] = {
    "Airy": (6377563.396, 6356256.91),
    "Modified Airy": (6377340.189, 6356034.45),
    "Australian National": (6378160.0, 6356774.72),
    "Bessel 1841": (6377397.16, 6356078.96),
    "Bessel 1841 (Namibia)": (6377483.87, 6356165.38),
    "Clarke 1866": (6378206.4, 6356583.80),
    "Clarke 1880": (6378249.15, 6356514.87),
    "Everest 1830": (6377276.35, 6356075.41),
    "Everest 1948": (6377304.06, 6356103.04),
    "Everest 1956": (6377301.24, 6356100.23),
    "Everest 1969": (6377295.66, 6356094.67),
    "Everest (Sabah & Sarawak)": (6377298.56, 6356097.55),
    "Fischer 1960": (6378166.0, 635678428.0),   # reference typo, verbatim
    "Modified Fischer 1960": (6378155.0, 6356773.32),
    "Fischer 1968": (6378150.0, 6356768.34),
    "GRS 1980": (6378137.0, 6356752.314),
    "Helmert 1906": (6378200.0, 6356818.17),
    "Heyford": (6378388.0, 6356911.95),
    "Hough": (6378270.0, 6356794.34),
    "International 1924": (6378388.0, 6356911.9462),
    "Krassovsky": (6378245.0, 6356863.02),
    "SGS 85": (6378136.0, 6356751.30),
    "South America 1969": (6378160.0, 6356774.719),
    "WGS 60": (6378165.0, 6356783.29),
    "WGS 66": (6378145.0, 6356759.77),
    "WGS 72": (6378135.0, 6356750.52),
    "WGS 84": (6378137.0, 6356752.314),
}


def get_ellipsoid(name: str) -> tuple[float, float]:
    """Ellipsoid.getEllipsoidByName semantics: case- and
    space-insensitive lookup."""
    key = name.lower().replace(" ", "")
    for n, ab in ELLIPSOIDS.items():
        if n.lower().replace(" ", "") == key:
            return ab
    raise KeyError(f"unknown ellipsoid {name!r}")


#: Standard 3-parameter datum→WGS-84 shifts (DMA TR 8350.2 molodensky
#: constants; dx/dy/dz move LOCAL datum coordinates to WGS-84).
DATUMS: dict[str, tuple[str, float, float, float]] = {
    "NAD27 (CONUS)": ("Clarke 1866", -8.0, 160.0, 176.0),
    "ED50": ("International 1924", -87.0, -98.0, -121.0),
    "Tokyo": ("Bessel 1841", -148.0, 507.0, 685.0),
    "Pulkovo 1942": ("Krassovsky", 28.0, -130.0, -95.0),
    "WGS 72": ("WGS 72", 0.0, 0.0, 4.5),
    "WGS 84": ("WGS 84", 0.0, 0.0, 0.0),
}


def molodensky_shift(lat, lon, h, from_ab: tuple[float, float],
                     to_ab: tuple[float, float],
                     dx: float, dy: float, dz: float):
    """Abridged Molodensky datum transformation (radian-free driver:
    degrees in / degrees out; h in metres). Standard public formulas
    (DMA TR 8350.2): dphi = (−dx sinφ cosλ − dy sinφ sinλ + dz cosφ
    + (a·Δf + f·Δa)·sin 2φ) / Rm, dlam = (−dx sinλ + dy cosλ)
    / (Rn cosφ), dh = dx cosφ cosλ + dy cosφ sinλ + dz sinφ
    + (a·Δf + f·Δa)·sin²φ − Δa."""
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    a, b = from_ab
    a2, b2 = to_ab
    f = (a - b) / a
    f2 = (a2 - b2) / a2
    da = a2 - a
    df = f2 - f
    esq = 2.0 * f - f * f
    phi = lat * _DRAD
    lam = lon * _DRAD
    sphi = np.sin(phi)
    cphi = np.cos(phi)
    slam = np.sin(lam)
    clam = np.cos(lam)
    w = np.sqrt(1.0 - esq * sphi * sphi)
    rm = a * (1.0 - esq) / (w * w * w)
    rn = a / w
    adf = a * df + f * da
    dphi = (-dx * sphi * clam - dy * sphi * slam + dz * cphi
            + adf * np.sin(2.0 * phi)) / rm
    dlam = (-dx * slam + dy * clam) / (rn * cphi)
    dh = (dx * cphi * clam + dy * cphi * slam + dz * sphi
          + adf * sphi * sphi - da)
    return (lat + dphi / _DRAD, lon + dlam / _DRAD, h + dh)


def wgs84_to_datum(lat, lon, h, datum: str):
    """WGS-84 → local datum (the inverse shift: negate dx/dy/dz)."""
    ell, dx, dy, dz = DATUMS[datum]
    return molodensky_shift(lat, lon, h, ELLIPSOIDS["WGS 84"],
                            get_ellipsoid(ell), -dx, -dy, -dz)


def datum_to_wgs84(lat, lon, h, datum: str):
    ell, dx, dy, dz = DATUMS[datum]
    return molodensky_shift(lat, lon, h, get_ellipsoid(ell),
                            ELLIPSOIDS["WGS 84"], dx, dy, dz)


def utm_project_datum_query(sf_dir: str, datum: str = "NAD27 (CONUS)",
                            round_to: int = 4):
    """CoordinateSystemTransformation with a non-WGS-84 datum: geocode
    document points to WGS-84 (lat, lon), Molodensky-shift into the
    target datum, LL2UTM on the datum's ellipsoid. Output
    (rec_id, utm_zone, easting, northing). Exact SQL oracle."""
    import pandas as pd

    from ..stages.points import read_points

    ell_name, _, _, _ = DATUMS[datum]
    ab = get_ellipsoid(ell_name)

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        lat = batch["y"].to_numpy() * 0.04 - 80.0
        lon = batch["x"].to_numpy() * 0.09 - 180.0
        lat2, lon2, _ = wgs84_to_datum(lat, lon, np.zeros_like(lat), datum)
        e_, n_, z_ = ll_to_utm(lat2, lon2, a=ab[0], b=ab[1])
        return pd.DataFrame({
            "rec_id": batch["rec_id"],
            "utm_zone": z_,
            "easting": np.round(e_, round_to),
            "northing": np.round(n_, round_to)})

    return read_points(sf_dir).map_batches(fn, batch_format="pandas")


def utm_project_datum_sql(datum: str = "NAD27 (CONUS)",
                          round_to: int = 4) -> str:
    """DuckDB mirror of utm_project_datum_query — Molodensky + LL2UTM
    with the same float64 op order."""
    from ..core.rng import geocode_sql

    ell_name, sdx, sdy, sdz = DATUMS[datum]
    a2, b2 = get_ellipsoid(ell_name)          # target datum ellipsoid
    dx, dy, dz = -sdx, -sdy, -sdz             # WGS-84 → datum: negated
    a, b = A_WGS84, B_WGS84                   # source ellipsoid (WGS-84)
    f = (a - b) / a
    f2 = (a2 - b2) / a2
    da = a2 - a
    df = f2 - f
    esq_m = 2.0 * f - f * f
    adf = a * df + f * da
    # LL2UTM constants on the TARGET ellipsoid
    e = float(np.sqrt(1.0 - (b2 / a2) * (b2 / a2)))
    esq = 1.0 - (b2 / a2) * (b2 / a2)
    e0sq = e * e / (1.0 - e * e)
    D, dr = _d, _d(_DRAD)
    m1 = D(1 - esq * (1 / 4.0 + esq * (3 / 64.0 + 5 * esq / 256.0)))
    m2 = D(esq * (3 / 8.0 + esq * (3 / 32.0 + 45 * esq / 1024.0)))
    m3 = D(esq * esq * (15 / 256.0 + esq * 45 / 1024.0))
    m4 = D(esq * esq * esq * (35 / 3072.0))
    xs, ys = geocode_sql("doc_id")
    return f"""
WITH pts AS (
  SELECT doc_id AS rec_id, ({xs}) AS x, ({ys}) AS y FROM documents),
ll0 AS (
  SELECT rec_id, y * {D(0.04)} - {D(80)} AS lat0,
         x * {D(0.09)} - {D(180)} AS lon0 FROM pts),
tr AS (
  SELECT rec_id, lat0, lon0, lat0 * {dr} AS phi0, lon0 * {dr} AS lam0
  FROM ll0),
md AS (
  SELECT rec_id, lat0, lon0,
         sin(phi0) AS sphi, cos(phi0) AS cphi,
         sin(lam0) AS slam, cos(lam0) AS clam,
         sqrt({D(1)} - {D(esq_m)} * sin(phi0) * sin(phi0)) AS w,
         phi0
  FROM tr),
sh AS (
  SELECT rec_id,
         lat0 + (({D(-dx)} * sphi * clam - {D(dy)} * sphi * slam
                 + {D(dz)} * cphi + {D(adf)} * sin({D(2)} * phi0))
                 / ({D(a)} * {D(1.0 - esq_m)} / (w * w * w))) / {dr} AS lat,
         lon0 + (({D(-dx)} * slam + {D(dy)} * clam)
                 / (({D(a)} / w) * cphi)) / {dr} AS lon
  FROM md),
t1 AS (
  SELECT rec_id, lat, lon,
         CAST(1 + floor((lon + {D(180)}) / {D(6)}) AS BIGINT) AS zone,
         lat * {dr} AS phi
  FROM sh),
t2 AS (
  SELECT *, {D(3)} + {D(6)} * (zone - 1) - {D(180)} AS zcm,
         {D(e)} * sin(phi) AS sphi, tan(phi) AS tphi, cos(phi) AS cphi
  FROM t1),
t3 AS (
  SELECT *,
         {D(a2)} / sqrt({D(1)} - sphi * sphi) AS N,
         tphi * tphi AS T,
         {D(e0sq)} * cphi * cphi AS C,
         (lon - zcm) * {dr} * cphi AS Aa,
         (((phi * {m1}
            - sin({D(2)} * phi) * {m2})
            + sin({D(4)} * phi) * {m3})
            - sin({D(6)} * phi) * {m4}) * {D(a2)} AS M
  FROM t2)
SELECT rec_id, zone AS utm_zone,
       round({D(K0)} * N * Aa * (1 + Aa * Aa * ((1 - T + C) / {D(6)}
             + Aa * Aa * (5 - 18 * T + T * T + 72 * C
                          - 58 * {D(e0sq)}) / {D(120)}))
             + {D(500000)}, {round_to}) AS easting,
       round(CASE WHEN lat < 0 THEN {D(10000000)} ELSE {D(0)} END
             + {D(K0)} * (M + N * tphi * (Aa * Aa * ({D(0.5)}
               + Aa * Aa * ((5 - T + 9 * C + 4 * C * C) / {D(24)}
               + Aa * Aa * (61 - 58 * T + T * T + 600 * C
                            - 330 * {D(e0sq)}) / {D(720)})))), {round_to}
             ) AS northing
FROM t3
"""
