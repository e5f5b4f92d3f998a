"""Multimodal (image/audio) columns as opaque binary + typed metadata.

The reference imports images as rasters through ImageIO
(ImportImage.java:528); a 100 TB training-data pipeline needs the same
shape over Arrow: media as an opaque ``binary`` column with typed
metadata, decoded/feature-extracted inside a plain-task ``map_batches``
stage. Every stage here is a module-level batch function; what decoder
state exists (the JPEG DCT basis) is cached per worker process by the
codec module itself, so no stage needs an actor.

The FAKEIMG / FAKEVID / PCM payloads are deterministic stand-ins
(``b"FAKEIMG" + u32 width + u32 height + payload`` for an image); the
REAL path below decodes genuine PNG/BMP/JPEG bytes with the from-scratch
codecs. A malformed payload raises a typed error naming its ``doc_id``.
"""

from __future__ import annotations

import struct

import numpy as np
import pandas as pd
import ray.data as rd

from ..sources import read_table
from ..sources.jpeg import decode_jpeg
from ..sources.png import decode_png

_MAGIC = b"FAKEIMG"


def encode_fake_image(doc_id: int, payload: bytes) -> bytes:
    """Deterministic container: width/height derive from doc_id (SQL
    mirror: width = 16 + doc_id % 64, height = 16 + (doc_id * 7) % 48)."""
    w = 16 + doc_id % 64
    h = 16 + (doc_id * 7) % 48
    return _MAGIC + struct.pack(">II", w, h) + payload


def media_table(sf_dir: str) -> "rd.Dataset":
    """documents → media rows (doc_id, media_type, payload:binary).
    The text bytes stand in for the image payload."""
    ds = read_table(f"{sf_dir}/documents.parquet",
                    columns=["doc_id", "text"])

    def pack(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "media_type": "image/fake",
            "payload": [encode_fake_image(
                            int(i), (t if isinstance(t, str) else "")
                            .encode("utf-8"))
                        for i, t in zip(batch["doc_id"], batch["text"])],
        })

    return ds.map_batches(pack, batch_format="pandas")


def _decode_fake(doc_id, buf: bytes) -> tuple[int, int, int]:
    if not buf.startswith(_MAGIC):
        raise NotImplementedError(
            f"doc_id {doc_id}: not a FAKEIMG payload; no other image "
            "format is decoded by this stage")
    w, h = struct.unpack(">II", buf[7:15])
    return w, h, len(buf) - 15


def decode_fake_images(batch: pd.DataFrame) -> pd.DataFrame:
    """FAKEIMG payloads → (doc_id, width, height, n_payload_bytes,
    aspect_milli), one row per image."""
    dims = [_decode_fake(i, b) for i, b in zip(batch["doc_id"],
                                               batch["payload"])]
    w, h, nb = (np.array(x, dtype=np.int64) for x in zip(*dims))
    return pd.DataFrame({
        "doc_id": batch["doc_id"].to_numpy(),
        "width": w, "height": h, "n_payload_bytes": nb,
        "aspect_milli": (w * 1000) // h,
    })


def image_features(sf_dir: str) -> "rd.Dataset":
    """media → per-image features via the decode stage.
    Output: (doc_id, width, height, n_payload_bytes, aspect_milli)."""
    return media_table(sf_dir).map_batches(
        decode_fake_images, batch_format="pandas", batch_size=256)


# ---------------------------------------------------------------------------
# Video frame sampling: opaque FAKEVID container (deterministic stand-in
# for an MP4 — b"FAKEVID" + u32 n_frames + u32 fps + per-frame u32
# checksums). The sampling stage emits every VIDEO_STRIDE-th frame, one
# row per sampled frame — the schema/fan-out a real libav sampler
# produces; swapping the parser for av.open is the only change.
# ---------------------------------------------------------------------------

_VMAGIC = b"FAKEVID"
VIDEO_STRIDE = 10


def encode_fake_video(doc_id: int) -> bytes:
    n_frames = 8 + doc_id % 120
    fps = 24 + (doc_id % 3) * 6
    frames = [(doc_id * 2654435761 + f * 97) % 4294967296
              for f in range(n_frames)]
    return (_VMAGIC + struct.pack(">II", n_frames, fps)
            + struct.pack(f">{n_frames}I", *frames))


def sample_frames(batch: pd.DataFrame) -> pd.DataFrame:
    """Parse each FAKEVID container and emit every VIDEO_STRIDE-th frame
    (one output row per sampled frame)."""
    out = {"doc_id": [], "frame_idx": [], "t_ms": [], "checksum": []}
    for doc_id, buf in zip(batch["doc_id"], batch["payload"]):
        buf = bytes(buf)
        if buf[:7] != _VMAGIC or len(buf) < 15:
            raise ValueError(f"doc_id {doc_id}: not a FAKEVID payload")
        n, fps = struct.unpack(">II", buf[7:15])
        if len(buf) < 15 + 4 * n:
            raise ValueError(f"doc_id {doc_id}: FAKEVID payload truncated")
        frames = struct.unpack(f">{n}I", buf[15:15 + 4 * n])
        for f in range(0, n, VIDEO_STRIDE):
            out["doc_id"].append(int(doc_id))
            out["frame_idx"].append(f)
            out["t_ms"].append(f * 1000 // fps)
            out["checksum"].append(frames[f])
    return pd.DataFrame(out)


def video_frame_sample(sf_dir: str) -> "rd.Dataset":
    """documents → fake videos → sampled frames
    (doc_id, frame_idx, t_ms, checksum)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def pack(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "payload": [encode_fake_video(int(i)) for i in batch["doc_id"]]})

    return (ds.map_batches(pack, batch_format="pandas")
            .map_batches(sample_frames, batch_format="pandas",
                         batch_size=256))


def video_frame_sample_sql() -> str:
    """Exact mirror: frame grid + checksum hash rule from doc_id."""
    return f"""
WITH v AS (SELECT doc_id, 8 + doc_id % 120 AS n_frames,
                  24 + (doc_id % 3) * 6 AS fps
           FROM documents),
f AS (SELECT v.doc_id, g.f AS frame_idx, v.fps
      FROM v, LATERAL (SELECT unnest(range(0, v.n_frames, {VIDEO_STRIDE})) AS f)
           g(f))
SELECT doc_id, frame_idx,
       frame_idx * 1000 // fps AS t_ms,
       (doc_id * 2654435761 + frame_idx * 97) % 4294967296 AS checksum
FROM f
"""


# ---------------------------------------------------------------------------
# REAL decode path — the PNG/BMP/JPEG codecs (sources/png.py, bmp.py,
# jpeg.py) un-stub the decode stage: payloads are genuine image files,
# decoded in plain tasks, with EXACT oracles because the
# synthetic image content is a closed-form pattern.
# ---------------------------------------------------------------------------

def synth_image(doc_id: int) -> np.ndarray:
    """Deterministic greyscale image per doc: w = 16 + id%32,
    h = 16 + id%24, pixel[y, x] = (id + x + y) % 256."""
    w = 16 + doc_id % 32
    h = 16 + doc_id % 24
    y, x = np.mgrid[0:h, 0:w]
    return ((doc_id + x + y) % 256).astype(np.uint8)


def media_table_png(sf_dir: str) -> "rd.Dataset":
    """documents → (doc_id, payload = real PNG bytes of synth_image)."""
    import ray.data as rd

    from ..sources.png import write_png

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def pack(batch: pd.DataFrame) -> pd.DataFrame:
        import struct as _struct
        import zlib as _zlib
        payloads = []
        for did in batch["doc_id"]:
            a = synth_image(int(did))
            # in-memory PNG (write_png writes to a path; inline here)
            sig = b"\x89PNG\r\n\x1a\n"

            def chunk(tag, p):
                return _struct.pack(">I", len(p)) + tag + p + _struct.pack(
                    ">I", _zlib.crc32(tag + p) & 0xFFFFFFFF)

            hh, ww = a.shape
            ihdr = _struct.pack(">IIBBBBB", ww, hh, 8, 0, 0, 0, 0)
            raw = b"".join(b"\x00" + a[r].tobytes() for r in range(hh))
            payloads.append(sig + chunk(b"IHDR", ihdr)
                            + chunk(b"IDAT", _zlib.compress(raw, 6))
                            + chunk(b"IEND", b""))
        return pd.DataFrame({"doc_id": batch["doc_id"].to_numpy(),
                             "payload": payloads})

    return ds.map_batches(pack, batch_format="pandas")


def decode_image(doc_id, buf: bytes) -> np.ndarray:
    """One REAL image payload (PNG/BMP/JPEG by magic sniff) → its first
    channel as a 2-D array, via the from-scratch codecs."""
    if buf[:8] == b"\x89PNG\r\n\x1a\n":
        a = decode_png(buf)
    elif buf[:2] == b"\xFF\xD8":
        a = decode_jpeg(buf)
    elif buf[:2] == b"BM":
        (off,) = struct.unpack_from("<I", buf, 10)
        _, w, h, _, bpp, comp = struct.unpack_from("<IiiHHI", buf, 14)
        if bpp != 24 or comp != 0 or h <= 0:
            raise NotImplementedError(f"doc_id {doc_id}: 24-bit BI_RGB "
                                      "BMP only")
        stride = (w * 3 + 3) & ~3
        a = np.frombuffer(buf, dtype=np.uint8, offset=off,
                          count=h * stride)
        a = a.reshape(h, stride)[::-1, :w * 3].reshape(h, w, 3)
    else:
        raise ValueError(f"doc_id {doc_id}: unknown image container")
    return a[:, :, 0] if a.ndim == 3 else a


def decode_real_images(batch: pd.DataFrame) -> pd.DataFrame:
    """REAL image payloads → (doc_id, width, height, sum_intensity)."""
    w, h, sums = [], [], []
    for doc_id, buf in zip(batch["doc_id"], batch["payload"]):
        a = decode_image(doc_id, bytes(buf))
        h.append(a.shape[0])
        w.append(a.shape[1])
        sums.append(int(a.astype(np.int64).sum()))
    return pd.DataFrame({
        "doc_id": batch["doc_id"].to_numpy(),
        "width": np.array(w, dtype=np.int64),
        "height": np.array(h, dtype=np.int64),
        "sum_intensity": np.array(sums, dtype=np.int64)})


def image_features_real(sf_dir: str) -> "rd.Dataset":
    """Real PNG decode in plain tasks → exact per-image stats."""
    return media_table_png(sf_dir).map_batches(
        decode_real_images, batch_format="pandas", batch_size=128)


def image_features_real_sql() -> str:
    """Closed-form oracle: Σ_{x<w, y<h} (id + x + y) % 256 over the
    synth pattern dims."""
    return """
WITH dims AS (SELECT doc_id, 16 + doc_id % 32 AS w, 16 + doc_id % 24 AS h
              FROM documents),
px AS (SELECT d.doc_id, d.w, d.h,
              CAST((d.doc_id + gx.i + gy.i) % 256 AS BIGINT) AS v
       FROM dims d
       JOIN range(0, 48) gx(i) ON gx.i < d.w
       JOIN range(0, 40) gy(i) ON gy.i < d.h)
SELECT doc_id, CAST(MAX(w) AS BIGINT) AS width,
       CAST(MAX(h) AS BIGINT) AS height,
       CAST(SUM(v) AS BIGINT) AS sum_intensity
FROM px GROUP BY doc_id
"""


RESIZE_OUT = 16      # resized images are RESIZE_OUT × RESIZE_OUT


def resize_images(batch: pd.DataFrame) -> pd.DataFrame:
    """REAL nearest-neighbour resize (pure integer index math —
    out[i, j] = in[i·h // H, j·w // W]) → (doc_id, resized_sum)."""
    sums = []
    for doc_id, buf in zip(batch["doc_id"], batch["payload"]):
        a = decode_image(doc_id, bytes(buf))
        h, w = a.shape
        ri = (np.arange(RESIZE_OUT, dtype=np.int64) * h) // RESIZE_OUT
        ci = (np.arange(RESIZE_OUT, dtype=np.int64) * w) // RESIZE_OUT
        sums.append(int(a[np.ix_(ri, ci)].astype(np.int64).sum()))
    return pd.DataFrame({
        "doc_id": batch["doc_id"].to_numpy(),
        "resized_sum": np.array(sums, dtype=np.int64)})


def image_resize_stats(sf_dir: str) -> "rd.Dataset":
    return media_table_png(sf_dir).map_batches(
        resize_images, batch_format="pandas", batch_size=128)


def image_resize_stats_sql() -> str:
    return f"""
WITH dims AS (SELECT doc_id, 16 + doc_id % 32 AS w, 16 + doc_id % 24 AS h
              FROM documents),
px AS (SELECT d.doc_id,
              CAST((d.doc_id + (gx.i * d.w) // {RESIZE_OUT}
                    + (gy.i * d.h) // {RESIZE_OUT}) % 256 AS BIGINT) AS v
       FROM dims d
       CROSS JOIN range(0, {RESIZE_OUT}) gx(i)
       CROSS JOIN range(0, {RESIZE_OUT}) gy(i))
SELECT doc_id, CAST(SUM(v) AS BIGINT) AS resized_sum
FROM px GROUP BY doc_id
"""


# ---------------------------------------------------------------------------
# Audio: opaque PCM binary column + per-frame energy analysis
# ---------------------------------------------------------------------------

AUDIO_FRAME = 160     # 10 ms at 16 kHz


def encode_fake_audio(doc_id: int) -> bytes:
    """Deterministic 16-bit little-endian PCM: sample i of doc d is
    ((d·7919 + i·104729) mod 65536) − 32768; length 800 + (d mod 5)·160
    samples (whole 10 ms frames by construction). Integer arithmetic
    only, so the SQL oracle replays it exactly."""
    n = 800 + (doc_id % 5) * AUDIO_FRAME
    i = np.arange(n, dtype=np.int64)
    s = (doc_id * 7919 + i * 104729) % 65536 - 32768
    return s.astype("<i2").tobytes()


def audio_table(sf_dir: str) -> "rd.Dataset":
    """documents → audio rows (doc_id, media_type, pcm: binary)."""
    ds = read_table(f"{sf_dir}/documents.parquet",
                    columns=["doc_id"])

    def pack(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "media_type": "audio/pcm16",
            "pcm": [encode_fake_audio(int(i)) for i in batch["doc_id"]]})

    return ds.map_batches(pack, batch_format="pandas")


def analyze_audio_frames(batch: pd.DataFrame) -> pd.DataFrame:
    """Decode the PCM binary column and compute per-frame energy — the
    window-level feature extraction an audio curation pipeline runs
    (VAD / loudness gating)."""
    ids, nfr, mx, rms = [], [], [], []
    for doc_id, buf in zip(batch["doc_id"], batch["pcm"]):
        s = np.frombuffer(buf, dtype="<i2").astype(np.int64)
        f = len(s) // AUDIO_FRAME
        ss = (s * s).reshape(f, AUDIO_FRAME).sum(axis=1)
        ids.append(int(doc_id))
        nfr.append(f)
        # half-away rounding to match DuckDB round()
        mx.append(np.floor(np.sqrt(ss.max() / AUDIO_FRAME) * 1e6
                           + 0.5) / 1e6)
        rms.append(np.floor(np.sqrt(ss.sum() / (f * AUDIO_FRAME)) * 1e6
                            + 0.5) / 1e6)
    return pd.DataFrame({
        "doc_id": np.asarray(ids, dtype=np.int64),
        "n_frames": np.asarray(nfr, dtype=np.int64),
        "max_frame_rms": np.asarray(mx, dtype=np.float64),
        "rms": np.asarray(rms, dtype=np.float64)})


def audio_frame_stats(sf_dir: str) -> "rd.Dataset":
    """(doc_id, n_frames, max_frame_rms, rms) per audio row; exact SQL
    oracle replays the PCM formula."""
    return audio_table(sf_dir).map_batches(
        analyze_audio_frames, batch_format="pandas", batch_size=256)


def audio_frame_stats_sql(frame: int = AUDIO_FRAME) -> str:
    """Exact mirror of audio_frame_stats: integer PCM replay + frame
    energy aggregation."""
    return f"""
WITH d AS (SELECT doc_id, 800 + (doc_id % 5) * {frame} AS n FROM documents),
s AS (SELECT doc_id, unnest(range(n)) AS i FROM d),
v AS (SELECT doc_id, i // {frame} AS f,
             (doc_id * 7919 + i * 104729) % 65536 - 32768 AS x
      FROM s),
fr AS (SELECT doc_id, f, sum(x * x)::BIGINT AS ss FROM v GROUP BY 1, 2)
SELECT doc_id,
       count(*)::BIGINT AS n_frames,
       round(sqrt(max(ss) / {frame}.0), 6) AS max_frame_rms,
       round(sqrt(sum(ss) / (count(*) * {frame}.0)), 6) AS rms
FROM fr GROUP BY doc_id ORDER BY doc_id
"""
