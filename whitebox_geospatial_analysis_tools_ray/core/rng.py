"""Deterministic hashing / geocoding shared by the engine and its SQL oracles.

Every derived coordinate must be computable BIT-IDENTICALLY in two places:
vectorized numpy inside Ray ``map_batches`` stages, and ANSI SQL run by
DuckDB (the driver's correctness oracle). We therefore restrict ourselves
to exact int64 arithmetic (multiply, add, modulo — no overflow for the id
ranges involved) followed by a fixed-order float64 expression.

The geocode rule plays the role of the reference pipeline's
"url → point feature" step (BASELINE.json north_star): it maps a stable
integer id (or a url hash) to an (x, y) point in the world extent.

World extent follows FIXTURES.md: west=0, south=0, east=4000, north=4000.
"""

from __future__ import annotations

import numpy as np

# World extent (FIXTURES.md §4): all layers live in this box.
WEST = 0.0
SOUTH = 0.0
EAST = 4000.0
NORTH = 4000.0
EXTENT = (WEST, SOUTH, EAST, NORTH)

# LCG / multiplicative-hash constants (Knuth & xxhash primes).
_AX = 2654435761
_AY = 2246822519
_CY = 1013904223
_M = 4294967296  # 2**32

# NoData sentinel — matches WhiteboxRasterBase.java:510 default.
NODATA = -32768.0

# Side of the square gate raster for the queries whose exact oracle is a
# sequential recursive-CTE closure, too slow at the 256×256 default.
GATE_SIDE = 96


def geocode_xy(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map integer ids to deterministic (x, y) points in the world extent.

    SQL equivalent (must stay in sync — see ``geocode_sql``)::

        ((id * 2654435761) % 4294967296) / 4294967296.0 * 4000.0
        ((id * 2246822519 + 1013904223) % 4294967296) / 4294967296.0 * 4000.0
    """
    ids = np.asarray(ids, dtype=np.int64)
    ax = (ids * _AX) % _M
    ay = (ids * _AY + _CY) % _M
    x = ax.astype(np.float64) / float(_M) * (EAST - WEST) + WEST
    y = ay.astype(np.float64) / float(_M) * (NORTH - SOUTH) + SOUTH
    return x, y


def geocode_sql(id_expr: str) -> tuple[str, str]:
    """SQL expressions mirroring :func:`geocode_xy` exactly (float64 op order)."""
    x = f"((({id_expr}) * {_AX}) % {_M}) / {float(_M)!r} * {EAST - WEST!r} + {WEST!r}"
    y = f"((({id_expr}) * {_AY} + {_CY}) % {_M}) / {float(_M)!r} * {NORTH - SOUTH!r} + {SOUTH!r}"
    return x, y


def hash_u32(ids: np.ndarray, mult: int = _AX, add: int = 0) -> np.ndarray:
    """Generic deterministic 32-bit mix, exact in int64 (SQL: same expression)."""
    ids = np.asarray(ids, dtype=np.int64)
    return (ids * mult + add) % _M


def uniform01(ids: np.ndarray, mult: int = _AX, add: int = 0) -> np.ndarray:
    """Deterministic uniform [0,1) from ids; identical in SQL."""
    return hash_u32(ids, mult, add).astype(np.float64) / float(_M)
