"""Deduplication stages: exact, coordinate-tolerance, MinHash-LSH, SimHash.

Reference semantics:
- tolerance dedup, first-survivor-wins —
  ``WhiteboxGIS/resources/plugins/Scripts/EliminateCoincidentPoints.groovy:133-188``
  (reference scans in record order, O(n²); we use the snap-to-grid key
  with survivor = min(rec_id), which reproduces first-wins per snapped
  cell — the documented, order-insensitive large-scale formulation,
  SURVEY.md §2.7).
- exact dedup has no direct reference tool (ListUniqueValues.groovy is
  the closest); it is required by the graft for URL/text dedup.

All hashing is content-derived and deterministic (md5 / crc32), never
Python's randomized ``hash()``.
"""

from __future__ import annotations

import re
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..sources import read_table
from .util import combine
from .vhash import text_md5_codes

from .util import SQL_WS as _SQL_WS, sql_ws_re as _sql_ws_re
_TOKEN_RE = _sql_ws_re()


def exact_dedup(sf_dir: str) -> "rd.Dataset":
    """Exact text dedup: hash-partition on md5(text), survivor = min doc_id.

    Output: (text_md5, survivor_id, dup_count). Partial per-batch combine
    before the shuffle (the shuffle moves one row per distinct hash per
    batch, never the text payload); md5 runs once per distinct text
    (``vhash.text_md5_codes``, null text ≡ "").
    """
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        codes, md5_hex = text_md5_codes(batch["text"])
        df = pd.DataFrame({"text_md5": md5_hex[codes],
                           "doc_id": batch["doc_id"].to_pandas()})
        g = df.groupby("text_md5", sort=False)["doc_id"]
        return g.agg(survivor="min", c="count").reset_index()

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        a = (df.groupby("text_md5", sort=False)
             .agg(survivor_id=("survivor", "min"), dup_count=("c", "sum"))
             .reset_index())
        return a.astype({"survivor_id": "int64", "dup_count": "int64"})

    def recombine(df: pd.DataFrame) -> pd.DataFrame:
        # algebraic second level for skew-oversized buckets: min/sum
        # over combine's OUTPUT schema
        return (df.groupby("text_md5", sort=False)
                .agg(survivor_id=("survivor_id", "min"),
                     dup_count=("dup_count", "sum"))
                .reset_index()
                .astype({"survivor_id": "int64", "dup_count": "int64"}))

    # content hashes are an UNBOUNDED key — bucketed vectorized combine
    # (Ray's per-group aggregate machinery cost 4.8 s for 4.7k groups)
    return combine(partials, "text_md5", fold, recombine)


def pages_exact_dedup(pages_dir: str, num_buckets: int | None = None,
                      max_bucket_rows: int = 4_000_000,
                      hier_counter=None) -> pd.DataFrame:
    """Exact text dedup over a PAGES corpus directory (the 2M-page
    bench corpus shape) reduced to a one-row summary — the second
    scaling-evidence pipeline (bench.py --scaling): a genuine
    unbounded-key all-to-all, unlike the flagship whose shuffle moves
    pre-aggregated partials only.

    Partial plan, per Arrow batch: ``vhash.text_md5_codes`` groups
    equal texts with Arrow's hash kernel and md5s each distinct text
    once (null text ≡ ""); ``np.bincount`` of the codes counts each
    text; a fold by md5 then merges distinct texts whose md5s collide,
    so the partial emits one (md5, count) row per distinct md5.

    Scale shape: only those partial rows leave each read task (never
    the text payload); the bucketed combine emits ONE summary row per
    bucket; the driver folds ≤ num_buckets rows.
    Output: (n_pages, n_distinct, max_group).
    """
    ds = read_table(pages_dir, columns=["text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        codes, md5_hex = text_md5_codes(batch["text"])
        counts = np.bincount(codes, minlength=len(md5_hex))
        return (pd.DataFrame({"text_md5": md5_hex, "c": counts})
                .groupby("text_md5", sort=False, as_index=False)["c"].sum())

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        per_key = df.groupby("text_md5", sort=False)["c"].sum()
        return pd.DataFrame({
            "n_pages": [int(per_key.sum())],
            "n_distinct": [int(len(per_key))],
            "max_group": [int(per_key.max()) if len(per_key) else 0]})

    def recombine(df: pd.DataFrame) -> pd.DataFrame:
        # valid ONLY because util.combine's hierarchical slicer snaps
        # slice edges to key-group boundaries: slices hold disjoint key
        # sets, so n_distinct sums and max_group maxes exactly
        return pd.DataFrame({
            "n_pages": [int(df["n_pages"].sum())],
            "n_distinct": [int(df["n_distinct"].sum())],
            "max_group": [int(df["max_group"].max()) if len(df) else 0]})

    buckets = combine(partials, "text_md5", fold, recombine,
                      num_buckets=num_buckets,
                      max_bucket_rows=max_bucket_rows,
                      hier_counter=hier_counter).to_pandas()
    if len(buckets) == 0:
        return pd.DataFrame({"n_pages": [0], "n_distinct": [0],
                             "max_group": [0]})
    return pd.DataFrame({
        "n_pages": [int(buckets["n_pages"].sum())],
        "n_distinct": [int(buckets["n_distinct"].sum())],
        "max_group": [int(buckets["max_group"].max())]})


def coincident_dedup(points: "rd.Dataset", tol: float = 50.0) -> "rd.Dataset":
    """Tolerance dedup of points: snap-grid key (floor(x/tol), floor(y/tol)),
    survivor = min(rec_id) per snapped cell. Output
    (snap_x, snap_y, survivor_id, n_coincident)."""

    def partial(batch):
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        rec = np.asarray(batch["rec_id"], dtype=np.int64)
        df = pd.DataFrame({"snap_x": np.floor(x / tol).astype(np.int64),
                           "snap_y": np.floor(y / tol).astype(np.int64),
                           "rec_id": rec})
        g = df.groupby(["snap_x", "snap_y"], sort=False)["rec_id"]
        return g.agg(survivor="min", c="count").reset_index()

    partials = points.map_batches(partial, batch_format="numpy")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        a = (df.groupby(["snap_x", "snap_y"], sort=False)
             .agg(survivor_id=("survivor", "min"),
                  n_coincident=("c", "sum")).reset_index())
        return a.astype({"survivor_id": "int64", "n_coincident": "int64"})

    # snapped cells are an UNBOUNDED key (grow with extent/data)
    return combine(partials, ["snap_x", "snap_y"], fold)


# ---------------------------------------------------------------------------
# MinHash + LSH near-dedup
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1
_NUM_HASHES = 64
_BANDS = 16  # 16 bands × 4 rows


def _minhash_params(seed: int = 42):
    g = np.random.default_rng(seed)
    a = g.integers(1, _MERSENNE, _NUM_HASHES, dtype=np.int64)
    b = g.integers(0, _MERSENNE, _NUM_HASHES, dtype=np.int64)
    return a, b


def _shingle_crcs(text: str, k: int = 3) -> np.ndarray:
    if not isinstance(text, str):   # null text cell ≡ empty document
        text = ""
    toks = _TOKEN_RE.split(text.strip(_SQL_WS).lower())
    if len(toks) < k:
        sh = [" ".join(toks)] if toks and toks[0] else []
    else:
        sh = [" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)]
    if not sh:
        return np.array([0], dtype=np.int64)
    return np.unique(np.array([zlib.crc32(s.encode()) for s in sh], dtype=np.int64))


def _mod_mersenne_affine(a: np.ndarray, b: np.ndarray,
                         x: np.ndarray) -> np.ndarray:
    """EXACT (a·x + b) mod (2⁶¹−1) for a,b < p and x < 2³², vectorized
    as (hashes × shingles) in uint64 with no overflow: split a into
    31/30-bit halves and fold with 2⁶¹ ≡ 1 (mod p). The previous naive
    ``(a[:,None]*x+b) % p`` silently WRAPPED int64 (a·x reaches 2⁹³),
    computing a different — still pairwise-independent, but NOT the
    oracle's — hash family; exact Jaccard verification masked the
    difference on test data. This matches the SQL HUGEINT arithmetic
    bit-for-bit."""
    M = np.uint64(_MERSENNE)
    au, bu = a.astype(np.uint64), b.astype(np.uint64)
    xu = x.astype(np.uint64)
    a_hi = (au >> np.uint64(31))[:, None]         # < 2^30
    a_lo = (au & np.uint64((1 << 31) - 1))[:, None]   # < 2^31
    b_col = bu[:, None]
    out = np.empty((len(au), len(xu)), dtype=np.uint64)
    # column-chunked + in-place: the naive whole-matrix expression
    # allocates ~12 full-size uint64 temporaries (memory-bound —
    # measured 5.4 s for a 64×265k batch); 16k-column chunks keep every
    # temp L2-resident and reuse two scratch buffers (measured 3.4×)
    CH = 16384
    for s in range(0, len(xu), CH):
        xc = xu[s:s + CH][None, :]
        t_hi = a_hi * xc                          # < 2^62
        np.add((t_hi & M), (t_hi >> np.uint64(61)), out=t_hi)  # < 2^61+2
        y1 = t_hi >> np.uint64(30)                # t_hi·2^31 ≡ y1+y0·2^31
        t_hi &= np.uint64((1 << 30) - 1)          # y0
        t_hi <<= np.uint64(31)
        t_hi += y1                                # s1 < 2^61 + 2^31
        t_lo = a_lo * xc                          # < 2^63
        np.add((t_lo & M), (t_lo >> np.uint64(61)), out=t_lo)  # < 2^61+4
        t_hi += t_lo
        t_hi += b_col                             # < 3·2^61, fits uint64
        np.mod(t_hi, M, out=out[:, s:s + CH])
    return out.view(np.int64)


_MINHASH_A, _MINHASH_B = _minhash_params(42)


def minhash_bands(batch: pd.DataFrame) -> pd.DataFrame:
    """Minhash signatures + LSH band keys per doc: (band_id, band_hash,
    doc_id), one row per (band, doc).

    The hash params are seeded module constants, identical in every
    worker. The whole batch computes as ONE (64 × total-shingles)
    affine pass + per-doc ``minimum.reduceat`` (no per-doc matmul), and
    band keys are a uint64 polynomial mix of the band's signature rows
    (64-bit — the same collision odds as the previous truncated md5,
    ~10⁵ keys²/2⁶⁴, without 16 hashlib calls per doc)."""
    rpb = _NUM_HASHES // _BANDS
    crcs_list = [_shingle_crcs(t) for t in batch["text"]]
    nsh = np.array([len(c) for c in crcs_list], dtype=np.int64)
    if len(nsh) == 0 or nsh.sum() == 0:
        return pd.DataFrame({"band_id": pd.Series([], dtype="int64"),
                             "band_hash": pd.Series([], dtype="int64"),
                             "doc_id": pd.Series([], dtype="int64")})
    offs = np.concatenate([[0], np.cumsum(nsh)[:-1]])
    # boilerplate-heavy web batches repeat shingles across docs —
    # run the affine pass over the batch-UNIQUE crcs only and
    # gather (measured ~2× fewer affine columns at sf0.1)
    ux, inv = np.unique(np.concatenate(crcs_list),
                        return_inverse=True)
    # row-major layout so the per-shingle gather is a contiguous
    # 512-byte memcpy per row instead of a 64-way strided read
    # (measured 0.59 s → 0.07 s on the sf0.1 batch)
    hvt = np.ascontiguousarray(
        _mod_mersenne_affine(_MINHASH_A, _MINHASH_B, ux).T)   # (U, 64)
    sig = np.minimum.reduceat(hvt[inv], offs, axis=0).T  # (64, n_docs)
    P = np.uint64(0x9E3779B97F4A7C15)
    n = sig.shape[1]
    band_hash = np.empty((_BANDS, n), dtype=np.uint64)
    for band in range(_BANDS):
        acc = np.zeros(n, dtype=np.uint64)
        for r in range(band * rpb, (band + 1) * rpb):
            acc = acc * P + sig[r].astype(np.uint64)
        band_hash[band] = acc
    doc_ids = batch["doc_id"].to_numpy(dtype=np.int64)
    return pd.DataFrame({
        "band_id": np.repeat(np.arange(_BANDS, dtype=np.int64), n),
        "band_hash": band_hash.reshape(-1).view(np.int64),
        "doc_id": np.tile(doc_ids, _BANDS)})


def minhash_candidates(sf_dir: str, max_bucket: int = 1024,
                       dedup_pairs: bool = True) -> "rd.Dataset":
    """LSH bucket → candidate pairs (doc_a < doc_b), deduplicated.

    shingle→minhash→band in plain tasks; groupby (band_id, band_hash);
    pairs per bucket; exact pair-dedup via a second groupby.

    MEGA-BUCKET CAP: an LSH bucket larger than ``max_bucket`` (the
    boilerplate-heavy web-corpus case — thousands of near-identical
    pages landing in one band hash) would emit O(m²) pairs. Above the
    cap the bucket degrades to STAR pairs (min-id hub → every other
    member): O(m) pairs that preserve the connected components a
    dedup pass actually consumes. Below the cap output is unchanged."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    bands = ds.map_batches(minhash_bands, batch_format="pandas",
                           batch_size=1024)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(g["doc_id"].unique())
        if len(ids) < 2:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64")})
        if len(ids) > max_bucket:   # star expansion: same components
            return pd.DataFrame({"doc_a": np.full(len(ids) - 1, ids[0]),
                                 "doc_b": ids[1:]})
        ia, ib = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"doc_a": ids[ia], "doc_b": ids[ib]})

    # util.combine hands many (band, hash) LSH buckets to one pandas
    # pass — Ray's per-group machinery costs ~10 ms per group, which
    # dominates when keys number in the thousands (measured on the link
    # stats).
    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # singleton (band, hash) groups — the overwhelming majority —
        # emit nothing; drop them VECTORIZED before the per-group loop
        # (a Python loop over ~16×n_docs mostly-singleton groups was
        # the whole stage cost: measured 37 s at sf0.1, ~1 s after)
        g = g.drop_duplicates(["band_id", "band_hash", "doc_id"])
        sz = g.groupby(["band_id", "band_hash"], sort=False)["doc_id"] \
              .transform("size")
        g = g[sz > 1]
        outs = [pairs(sub) for _, sub in g.groupby(["band_id", "band_hash"],
                                                   sort=False)]
        out = (pd.concat(outs, ignore_index=True) if outs else
               pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64")}))
        return out.drop_duplicates()  # within-bucket pair dedup

    cand = combine(bands, ["band_id", "band_hash"], pairs_bucket)
    if not dedup_pairs:
        # caller tolerates cross-bucket duplicate pairs (the verify
        # paths group per pair anyway) — skip a whole shuffle stage
        return cand
    # cross-bucket dedup: a pair can recur in different LSH buckets — one
    # more combine keyed on the pair
    return combine(cand, ["doc_a", "doc_b"],
                   lambda g: g.drop_duplicates(["doc_a", "doc_b"]))


def minhash_verified_pairs(sf_dir: str, threshold: float = 0.6,
                           max_driver_pairs: int = 200_000) -> pd.DataFrame:
    """Verify LSH candidates with EXACT n-gram Jaccard (shingle sets).

    SIZE-ADAPTIVE (the ``dup_clusters`` pattern): candidate pairs are
    dup METADATA — orders of magnitude smaller than the corpus. Below
    ``max_driver_pairs`` the verify runs on the driver against a
    DISTRIBUTED filtered shingle scan (only docs that appear in some
    pair compute + ship their shingle sets — at most 2×pairs docs, one
    map stage, zero shuffles past the candidate groupby). Above the
    bound it falls back to the fully distributed two-shuffle plan:
    pair side-rows keyed by doc pick up shingle sets in a doc-bucketed
    combine, then a pair-keyed combine computes exact Jaccard.
    Either path consumes candidates WITHOUT the cross-bucket pair dedup
    shuffle (``dedup_pairs=False``) — both verifies group per pair, so
    duplicate candidate rows cost nothing and a whole all-to-all stage
    disappears. Output: (doc_a, doc_b, jaccard) for pairs ≥ threshold."""
    import ray

    cand = minhash_candidates(sf_dir, dedup_pairs=False).materialize()
    n_cand = cand.count()

    empty = pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                          "doc_b": pd.Series([], dtype="int64"),
                          "jaccard": pd.Series([], dtype="float64")})
    if n_cand == 0:
        return empty
    if n_cand <= max_driver_pairs:
        pairs_df = (cand.to_pandas()
                    .drop_duplicates(["doc_a", "doc_b"])
                    .sort_values(["doc_a", "doc_b"]))
        involved = np.unique(np.concatenate(
            [pairs_df["doc_a"].to_numpy(np.int64),
             pairs_df["doc_b"].to_numpy(np.int64)]))
        inv_ref = ray.put(involved)   # broadcast once, read per task

        def crcs_involved(batch: pd.DataFrame) -> pd.DataFrame:
            inv = ray.get(inv_ref)
            sub = batch[np.isin(batch["doc_id"].to_numpy(np.int64), inv)]
            return pd.DataFrame({
                "doc_id": sub["doc_id"].to_numpy(np.int64),
                # explicit object dtype: an all-filtered batch must not
                # degrade the column to float64 (block schema mismatch)
                "crcs": pd.Series(
                    [_shingle_crcs(t).tobytes() for t in sub["text"]],
                    dtype="object")})

        docs = (read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
                .map_batches(crcs_involved, batch_format="pandas")
                .to_pandas())                 # ≤ 2×pairs rows by filter
        lut = {int(d): np.frombuffer(c, dtype=np.int64)
               for d, c in zip(docs["doc_id"], docs["crcs"])}
        out = {"doc_a": [], "doc_b": [], "jaccard": []}
        for a, b in zip(pairs_df["doc_a"].to_numpy(),
                        pairs_df["doc_b"].to_numpy()):
            sa, sb = lut[int(a)], lut[int(b)]
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            denom = len(sa) + len(sb) - inter
            j = inter / denom if denom else 0.0
            if j >= threshold:
                out["doc_a"].append(int(a))
                out["doc_b"].append(int(b))
                out["jaccard"].append(round(j, 6))
        return (pd.DataFrame(out).reset_index(drop=True)
                if out["doc_a"] else empty)

    def pair_sides(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch["doc_a"].to_numpy()
        b = batch["doc_b"].to_numpy()
        did = np.concatenate([a, b])
        return pd.DataFrame({
            "doc_id": did,
            "doc_a": np.concatenate([a, a]),
            "doc_b": np.concatenate([b, b]),
            "crcs": [b""] * (2 * len(a)),
            "role": np.zeros(2 * len(a), dtype=np.int64)})

    def shingle_rows(batch: pd.DataFrame) -> pd.DataFrame:
        did = batch["doc_id"].to_numpy().astype(np.int64)
        return pd.DataFrame({
            "doc_id": did,
            "doc_a": np.full(len(batch), -1, dtype=np.int64),
            "doc_b": np.full(len(batch), -1, dtype=np.int64),
            "crcs": batch["text"].map(
                lambda t: _shingle_crcs(t).tobytes()),
            "role": np.ones(len(batch), dtype=np.int64)})

    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    unioned = (cand.map_batches(pair_sides, batch_format="pandas")
               .union(docs.map_batches(shingle_rows,
                                       batch_format="pandas")))

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        sides = g[g["role"] == 0]
        if len(sides) == 0:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64"),
                                 "side": pd.Series([], dtype="int64"),
                                 "crcs": pd.Series([], dtype=object)})
        lut = dict(zip(g.loc[g["role"] == 1, "doc_id"],
                       g.loc[g["role"] == 1, "crcs"]))
        a = sides["doc_a"].to_numpy()
        b = sides["doc_b"].to_numpy()
        did = sides["doc_id"].to_numpy()
        return pd.DataFrame({
            "doc_a": a, "doc_b": b,
            "side": (b == did).astype(np.int64),
            "crcs": [lut[d] for d in did]})

    attached = combine(unioned, "doc_id", attach)

    def verify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = {"doc_a": [], "doc_b": [], "jaccard": []}
        for (a, b), sub in g.groupby(["doc_a", "doc_b"], sort=False):
            sa_rows = sub.loc[sub["side"] == 0, "crcs"]
            sb_rows = sub.loc[sub["side"] == 1, "crcs"]
            if len(sa_rows) == 0 or len(sb_rows) == 0:
                continue
            sa = np.frombuffer(sa_rows.iloc[0], dtype=np.int64)
            sb = np.frombuffer(sb_rows.iloc[0], dtype=np.int64)
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            denom = len(sa) + len(sb) - inter
            j = inter / denom if denom else 0.0
            if j >= threshold:
                out["doc_a"].append(int(a))
                out["doc_b"].append(int(b))
                out["jaccard"].append(round(j, 6))
        return pd.DataFrame(out) if out["doc_a"] else pd.DataFrame(
            {"doc_a": pd.Series([], dtype="int64"),
             "doc_b": pd.Series([], dtype="int64"),
             "jaccard": pd.Series([], dtype="float64")})

    out = combine(attached, ["doc_a", "doc_b"], verify_bucket).to_pandas()
    return (out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
            if len(out) else out)


def ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.5) -> "rd.Dataset":
    """EXACT all-pairs n-gram (3-token shingle) Jaccard join — no LSH
    candidate step, via an inverted shingle index (the standalone
    n-gram-Jaccard dedup of the LLM-pipeline checklist; the MinHash
    path reuses the same shingle sets as its verify).

    Plan: per batch emit (shingle_crc, doc_id, set_size) postings —
    set size rides along, so NO extra join is needed; a
    shingle-keyed combine emits co-occurrence pairs per shared
    shingle; a pair-keyed combine counts |A∩B| and computes
    jaccard = inter / (|A| + |B| − inter). Per-shingle pair fan-out
    is O(df²) — exact by construction; at 100-TB corpus scale the
    boilerplate mega-postings make LSH-first (minhash_verified_pairs)
    the right entry point and this operator the per-bucket verify."""
    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])

    def postings(batch: pd.DataFrame) -> pd.DataFrame:
        crc_l, doc_l, sz_l = [], [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            crcs = _shingle_crcs(text)
            crc_l.append(crcs)
            doc_l.append(np.full(len(crcs), int(doc_id), dtype=np.int64))
            sz_l.append(np.full(len(crcs), len(crcs), dtype=np.int64))
        crc = np.concatenate(crc_l)
        return pd.DataFrame({"crc": crc,
                             "doc_id": np.concatenate(doc_l),
                             "sz": np.concatenate(sz_l)})

    posts = docs.map_batches(postings, batch_format="pandas")

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # fully vectorized per-run pair expansion (no Python loop over
        # the bucket's distinct shingles): sort postings by (crc,
        # doc_id), then for each element at local index k of an
        # n-run emit it as doc_a against the n−1−k following elements
        # — identical pair set (and doc_a < doc_b order) to the old
        # per-run triu_indices
        empty = pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                              "doc_b": pd.Series([], dtype="int64"),
                              "sa": pd.Series([], dtype="int64"),
                              "sb": pd.Series([], dtype="int64")})
        if len(g) < 2:
            return empty
        order = np.lexsort((g["doc_id"].to_numpy(), g["crc"].to_numpy()))
        crc = g["crc"].to_numpy()[order]
        d = g["doc_id"].to_numpy()[order]
        s = g["sz"].to_numpy()[order]
        starts = np.flatnonzero(np.concatenate([[True], crc[1:] != crc[:-1]]))
        run_len = np.diff(np.concatenate([starts, [len(crc)]]))
        run_of = np.repeat(np.arange(len(starts)), run_len)
        local = np.arange(len(crc)) - starts[run_of]
        cnt_a = run_len[run_of] - 1 - local          # pairs led by each elem
        total = int(cnt_a.sum())
        if total == 0:
            return empty
        a_idx = np.repeat(np.arange(len(crc)), cnt_a)
        csum = np.concatenate([[0], np.cumsum(cnt_a)[:-1]])
        within = np.arange(total) - np.repeat(csum, cnt_a)
        b_idx = a_idx + 1 + within
        a, b = d[a_idx], d[b_idx]
        return pd.DataFrame({"doc_a": a, "doc_b": b,
                             "sa": s[a_idx], "sb": s[b_idx]})

    paired = combine(posts, "crc", pairs_in_bucket)

    def reduce_pairs(g: pd.DataFrame) -> pd.DataFrame:
        agg = (g.groupby(["doc_a", "doc_b"], sort=False)
               .agg(inter=("sa", "size"), sa=("sa", "first"),
                    sb=("sb", "first")).reset_index())
        j = agg["inter"] / (agg["sa"] + agg["sb"] - agg["inter"])
        keep = j >= threshold
        return pd.DataFrame({
            "doc_a": agg.loc[keep, "doc_a"].astype(np.int64),
            "doc_b": agg.loc[keep, "doc_b"].astype(np.int64),
            # half-away-from-zero to match the DuckDB oracle's round()
            "jaccard": np.floor(j[keep].to_numpy() * 1e6 + 0.5) / 1e6})

    return combine(paired, ["doc_a", "doc_b"], reduce_pairs)


# ---------------------------------------------------------------------------
# SimHash near-dedup
# ---------------------------------------------------------------------------

def _simhash_of(text: str) -> int:
    """64-bit SimHash of one document: per-token crc32 (duplicates kept)
    → ×golden-ratio odd constant mod 2⁶⁴ → per-bit ±1 votes."""
    if not isinstance(text, str):   # null text cell ≡ empty document
        return 0
    toks = _TOKEN_RE.split(text.strip(_SQL_WS).lower())
    if not toks or not toks[0]:
        return 0
    crcs = np.array([zlib.crc32(t.encode()) for t in toks], dtype=np.uint64)
    crcs = (crcs * np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    bits = ((crcs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1))
    votes = (2 * bits.astype(np.int64) - 1).sum(axis=0)
    return int("".join("1" if v > 0 else "0" for v in votes[::-1]), 2)


def simhash_signatures(sf_dir: str) -> "rd.Dataset":
    """64-bit SimHash per document from token crc32s; output
    (doc_id, simhash_hex, band0..band3 hex) for hamming-banded bucketing."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        sig_arr = np.array([_simhash_of(t) for t in batch["text"]],
                           dtype=np.uint64)
        out = pd.DataFrame({"doc_id": batch["doc_id"],
                            "simhash": [f"{s:016x}" for s in sig_arr]})
        for band in range(4):
            part = (sig_arr >> np.uint64(band * 16)) & np.uint64(0xFFFF)
            out[f"band{band}"] = [f"{int(v):04x}" for v in part]
        return out

    return ds.map_batches(fn, batch_format="pandas")


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (numpy < 2.0 has no
    bitwise_count): unpack the byte view, sum 8 bytes per word."""
    b = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1)
    return b.sum(axis=1).astype(np.int64)


def simhash_neardup_pairs(sf_dir: str, max_hamming: int = 3,
                          max_bucket: int = 4096) -> "rd.Dataset":
    """SimHash near-duplicate PAIRS (doc_a, doc_b, hamming): banded
    candidate generation + exact Hamming verify — the pair-emitting
    completion of simhash_signatures.

    EXACT for ``max_hamming <= 3``: 4 disjoint 16-bit bands mean 3
    flipped bits can touch at most 3 bands, so every qualifying pair
    collides in >= 1 band (pigeonhole) — banding loses nothing vs
    all-pairs, which is what the DuckDB oracle computes.

    Plan: stateless signature map → 4 postings per doc keyed
    (band, value) (the sig rides along, so the verify needs NO extra
    join) → a combine keyed on (band, value) emits pairs (mega-buckets
    degrade to star pairs like minhash_candidates) → a pair-keyed
    combine dedups + vectorized XOR-popcount filter."""
    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])

    def postings(batch: pd.DataFrame) -> pd.DataFrame:
        sig = np.array([_simhash_of(t) for t in batch["text"]],
                       dtype=np.uint64)
        did = batch["doc_id"].to_numpy(dtype=np.int64)
        outs = []
        for band in range(4):
            val = ((sig >> np.uint64(band * 16)) & np.uint64(0xFFFF)).astype(np.int64)
            bkey = band * 65536 + val      # int64 band key (NUL-free)
            outs.append(pd.DataFrame({
                "bkey": bkey, "doc_id": did,
                "sig": sig.view(np.int64)}))
        return pd.concat(outs, ignore_index=True)

    posts = docs.map_batches(postings, batch_format="pandas")

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, sub in g.groupby("bkey", sort=False):
            sub = sub.drop_duplicates("doc_id")
            n = len(sub)
            if n < 2:
                continue
            d = sub["doc_id"].to_numpy()
            s = sub["sig"].to_numpy()
            order = np.argsort(d)
            d, s = d[order], s[order]
            if n > max_bucket:      # star pairs: same components
                ia = np.zeros(n - 1, dtype=np.intp)
                ib = np.arange(1, n, dtype=np.intp)
            else:
                ia, ib = np.triu_indices(n, k=1)
            outs.append((d[ia], d[ib], s[ia], s[ib]))
        if not outs:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64"),
                                 "ha": pd.Series([], dtype="int64"),
                                 "hb": pd.Series([], dtype="int64")})
        a = np.concatenate([o[0] for o in outs])
        b = np.concatenate([o[1] for o in outs])
        return pd.DataFrame({"doc_a": a, "doc_b": b,
                             "ha": np.concatenate([o[2] for o in outs]),
                             "hb": np.concatenate([o[3] for o in outs])})

    paired = combine(posts, "bkey", pairs_in_bucket)

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64"),
                                 "hamming": pd.Series([], dtype="int64")})
        g = g.drop_duplicates(["doc_a", "doc_b"])
        ham = _popcount64(g["ha"].to_numpy().view(np.uint64)
                          ^ g["hb"].to_numpy().view(np.uint64))
        keep = ham <= max_hamming
        return pd.DataFrame({
            "doc_a": g["doc_a"].to_numpy()[keep],
            "doc_b": g["doc_b"].to_numpy()[keep],
            "hamming": ham[keep]})

    return combine(paired, ["doc_a", "doc_b"], verify)


def minhash_error_eval(sf_dir: str, threshold: float = 0.6,
                       round_to: int = 6) -> pd.DataFrame:
    """Sketch-accuracy evaluation for the MinHash family: for every
    VERIFIED near-dup pair, the signature-estimated Jaccard (matching
    signature rows / 64) against the exact shingle-set Jaccard — the
    calibration every LSH deployment runs to validate its band/row
    choice (E[est] = J, σ = √(J(1−J)/64)). est is an exact dyadic
    n/64 and the error is taken against the ROUNDED exact Jaccard, so
    the whole evaluation replays exactly in SQL.

    Scale: pairs are dup metadata (tiny); signatures recompute ONLY
    for involved docs via a broadcast id set — one filtered map over
    the corpus, no shuffle. Output: (doc_a, doc_b, jaccard,
    est_jaccard, abs_err), pair-sorted.
    """
    import ray

    empty = pd.DataFrame({
        "doc_a": pd.Series([], dtype="int64"),
        "doc_b": pd.Series([], dtype="int64"),
        "jaccard": pd.Series([], dtype="float64"),
        "est_jaccard": pd.Series([], dtype="float64"),
        "abs_err": pd.Series([], dtype="float64")})
    pairs = minhash_verified_pairs(sf_dir, threshold=threshold)
    if len(pairs) == 0:
        return empty
    involved = np.unique(np.concatenate(
        [pairs["doc_a"].to_numpy(np.int64),
         pairs["doc_b"].to_numpy(np.int64)]))
    inv_ref = ray.put(involved)
    a, b = _minhash_params()

    def sigs_involved(batch: pd.DataFrame) -> pd.DataFrame:
        inv = ray.get(inv_ref) if isinstance(inv_ref, ray.ObjectRef) \
            else inv_ref
        sub = batch[np.isin(batch["doc_id"].to_numpy(np.int64), inv)]
        out = {"doc_id": sub["doc_id"].to_numpy(np.int64),
               "sig": pd.Series([
                   np.min(_mod_mersenne_affine(a, b, _shingle_crcs(t)),
                          axis=1).tobytes() for t in sub["text"]],
                   dtype="object")}
        return pd.DataFrame(out)

    sig_df = (read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
              .map_batches(sigs_involved, batch_format="pandas")
              .to_pandas())
    sigs = {int(d): np.frombuffer(s, dtype=np.int64)
            for d, s in zip(sig_df["doc_id"], sig_df["sig"])}
    est = np.fromiter(
        ((sigs[int(x)] == sigs[int(y)]).sum() / _NUM_HASHES
         for x, y in zip(pairs["doc_a"], pairs["doc_b"])),
        dtype=np.float64, count=len(pairs))
    out = pairs.copy()
    out["est_jaccard"] = np.round(est, round_to)
    out["abs_err"] = np.round(np.abs(est - out["jaccard"].to_numpy()),
                              round_to)
    return (out.sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True))
