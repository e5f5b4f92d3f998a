"""Data-selection stages for large-scale training-data pipelines:
deterministic mixture sampling, hashed-linear quality classification,
per-domain distribution divergence, embedding quantization, and greedy
k-center (farthest-point) diversity sampling.

These extend the curation family (stages/corpus.py, stages/textops.py)
from *filtering* into *selection*: choosing WHICH surviving documents /
vectors feed a training run. No direct reference tool exists (the
closest are the reclass/stratified-sampling tools whose deterministic
hash-substitution rule ``stratified_sample`` already carries); they are
required by the graft's web-corpus axis:

- ``dataset_mixture``     — per-source acceptance rates (the domain-
  mixture step of every LLM data recipe, e.g. The Pile / LLaMA tables).
- ``quality_classifier``  — a fastText-shaped hashed bag-of-tokens
  linear scorer (Joulin et al. 2016, arXiv:1607.01759) with
  deterministic pseudo-weights so the whole model is a pure function
  of the text and replays exactly in SQL.
- ``token_kl_divergence`` — KL(source ‖ corpus) over token unigrams,
  the divergence feature DSIR-style selection builds on.
- ``embedding_quantize``  — int8 scalar quantization error report, the
  memory-scale path for the ANN family (4× smaller vectors).
- ``embedding_pq``        — product quantization (Jégou et al. 2011),
  the 32× IVF-PQ code layout.
- ``kcenter_sample``      — greedy farthest-point sampling (Gonzalez
  1985 2-approximation), the classic diversity-selection kernel.
- ``length_quantiles``    — exact mergeable-histogram length quantiles.
- ``incremental_dedup``   — cross-shard ingest dedup vs an existing
  corpus.
- ``ann_recall_eval``     — recall@k of the seeded IVF vs brute truth.
- ``time_decay_aggregate``— per-user exponentially decayed engagement.
- ``events_funnel``       — ordered multi-step funnel conversion with
  a horizon (the retention/interval-join siblings live in
  stages/relational.py with the as-of join).

All hashing is content-derived and deterministic (zlib crc32 /
hashlib md5), never Python's randomized ``hash()``. Scale notes are on
each operator; none materializes the corpus on the driver — finals are
source-/label-/k-bounded.
"""

from __future__ import annotations

import hashlib
import re
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..sources import read_table
from .util import SQL_WS as _SQL_WS, sql_ws_re as _sql_ws_re
from .util import combine
from .vhash import text_md5_codes
_WS = _sql_ws_re()

# hashed-linear classifier constants: weight(t) = ((crc32(t)·A + B)
# mod P) / P − 0.5, P = 2⁶¹−1 (the minhash family's Mersenne prime —
# the affine fold stays exact in HUGEINT on the oracle side and in
# Python ints here)
_QC_P = (1 << 61) - 1
_QC_A = 1103515245
_QC_B = 12345


def _tok(text) -> list[str]:
    t = (text or "").strip(_SQL_WS).lower() if isinstance(text, str) else ""
    return _WS.split(t) if t else []


# ---------------------------------------------------------------------------
# Deterministic dataset mixture sampling
# ---------------------------------------------------------------------------

def default_mixture_rates(n_sources: int = 20) -> dict[str, float]:
    """The registry's concrete mixture: srcN → (1 + N mod 4)/4, i.e.
    0.25 / 0.5 / 0.75 / 1.0 cycling — four distinct retention tiers so
    the query exercises every branch. Sources absent from the dict
    keep rate 1.0."""
    return {f"src{i}": (1 + i % 4) / 4.0 for i in range(n_sources)}


def dataset_mixture(sf_dir: str, rates: dict[str, float] | None = None,
                    round_to: int = 6) -> pd.DataFrame:
    """Deterministic domain-mixture sampling: document ``doc_id`` of
    ``source`` is KEPT iff u(doc) < rate(source), with
    u = int(md5(source ‖ ':' ‖ doc_id)[:8 hex], 16) / 2³² — a
    content-derived uniform, so the sample is reproducible shard by
    shard with no coordination (the property reservoir/seeded-RNG
    sampling loses under re-partitioning).

    Scale: stateless per-batch accept test + per-source count partials
    → single bounded combine (#sources rows). Zero shuffles of
    document payloads; at 100 TB the only cross-node traffic is
    O(sources × blocks) count rows.

    Output: (source, rate, n_docs, n_kept, frac_kept) — one row per
    source present in the data, source asc.
    """
    rates = default_mixture_rates() if rates is None else rates

    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "source"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # null source groups under '' (shared dirty-shard rule)
        src = b["source"].fillna("").astype(str)
        u = np.fromiter(
            (int(hashlib.md5(f"{s}:{d}".encode("utf-8")).hexdigest()[:8],
                 16) for s, d in zip(src, b["doc_id"])),
            dtype=np.float64, count=len(b)) / 4294967296.0
        r = src.map(lambda s: rates.get(s, 1.0)).to_numpy(dtype=np.float64)
        return pd.DataFrame({"source": src,
                             "n_docs": np.ones(len(b), dtype=np.int64),
                             "n_kept": (u < r).astype(np.int64)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                "source": pd.Series([], dtype="object"),
                "rate": pd.Series([], dtype="float64"),
                "n_docs": pd.Series([], dtype="int64"),
                "n_kept": pd.Series([], dtype="int64"),
                "frac_kept": pd.Series([], dtype="float64")})
        g = (df.groupby("source", sort=True)
             .agg(n_docs=("n_docs", "sum"), n_kept=("n_kept", "sum"))
             .reset_index())
        g["rate"] = g["source"].map(lambda s: rates.get(s, 1.0))
        g["frac_kept"] = np.round(
            g["n_kept"].to_numpy(dtype=np.float64)
            / g["n_docs"].to_numpy(dtype=np.float64), round_to)
        return g[["source", "rate", "n_docs", "n_kept", "frac_kept"]].astype(
            {"n_docs": "int64", "n_kept": "int64"})

    return combine(docs.map_batches(partial, batch_format="pandas"),
                   "source", fold).to_pandas()


# ---------------------------------------------------------------------------
# Hashed-linear quality classifier (fastText-shaped)
# ---------------------------------------------------------------------------

def quality_classifier(sf_dir: str, round_to: int = 6) -> "rd.Dataset":
    """fastText-shaped hashed bag-of-tokens linear classifier
    (Joulin et al. 2016): score(doc) = σ(mean_t w(t)) over token
    OCCURRENCES, w(t) = ((crc32(t)·A + B) mod P)/P − 0.5 — the weights
    are a deterministic hash of the token, standing in for trained
    parameters (the real model ships as a weight table; the plumbing —
    hash, lookup, mean, sigmoid — is identical and is what scales).

    EXACT replay: the per-doc accumulator is the INTEGER
    S = Σ count(t)·h(t) with h(t) = (crc32(t)·A + B) mod P — no float
    sum-order drift; the only float ops are the final
    m = S/(n·P) − 0.5 and σ(m), identical single IEEE expressions on
    both sides.

    Scale: stateless map_batches, zero shuffles; per-batch token-hash
    memo. Output: (doc_id, n_tokens, score, label) per document,
    label = 'keep' iff score ≥ 0.5 (⇔ mean weight ≥ 0).
    """

    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        memo: dict[str, int] = {}
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        n_out = np.zeros(len(b), dtype=np.int64)
        sc = np.zeros(len(b), dtype=np.float64)
        for i, text in enumerate(b["text"]):
            toks = _tok(text)
            n = len(toks)
            n_out[i] = n
            if n == 0:
                sc[i] = 0.5
                continue
            s = 0
            for t in toks:
                h = memo.get(t)
                if h is None:
                    h = (zlib.crc32(t.encode("utf-8")) * _QC_A
                         + _QC_B) % _QC_P
                    memo[t] = h
                s += h
            m = float(s) / float(n * _QC_P) - 0.5
            sc[i] = 1.0 / (1.0 + np.exp(-m))
        sc = np.round(sc, round_to)
        return pd.DataFrame({
            "doc_id": ids, "n_tokens": n_out, "score": sc,
            "label": np.where(sc >= 0.5, "keep", "drop")})

    return docs.map_batches(score, batch_format="pandas")


# ---------------------------------------------------------------------------
# Per-source token-distribution divergence
# ---------------------------------------------------------------------------

def token_kl_divergence(sf_dir: str, round_to: int = 6) -> pd.DataFrame:
    """KL(P_source ‖ P_corpus) over token unigrams, per source — the
    domain-shift feature importance-resampling selection (DSIR, Xie et
    al. 2023) thresholds on. P_source(t) = c_st/C_s,
    P_corpus(t) = c_t/C; every source term is corpus-supported so the
    KL is finite by construction.

    Scale: ONE distributed (source, token) count pass (vocab-bounded ×
    sources — the same boundedness as the LM-model passes), bucketed
    unbounded-key combine, then a driver-side vectorized fold over the
    compact count table. Document text never reaches a shuffle.

    Output: (source, n_tokens, n_terms, kl) — source asc; kl rounded.
    """
    from .util import escape_nul, keyed_group_sum

    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["text", "source"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cnt: dict[tuple[str, str], int] = {}
        for src, text in zip(b["source"].fillna("").astype(str),
                             b["text"]):
            for t in _tok(text):
                k = (src, t)
                cnt[k] = cnt.get(k, 0) + 1
        if not cnt:
            return pd.DataFrame({"source": pd.Series([], dtype="object"),
                                 "term": pd.Series([], dtype="object"),
                                 "c": pd.Series([], dtype="int64")})
        ks = list(cnt.keys())
        return pd.DataFrame({"source": [k[0] for k in ks],
                             "term": [k[1] for k in ks],
                             "c": np.fromiter(cnt.values(), dtype=np.int64,
                                              count=len(cnt))})

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        return keyed_group_sum(df, ["source", "term"], ["c"]) \
            .astype({"c": "int64"})

    counts = combine(docs.map_batches(partial, batch_format="pandas"),
                     ["source", "term"], comb).to_pandas()
    if counts.empty:
        return pd.DataFrame({"source": pd.Series([], dtype="object"),
                             "n_tokens": pd.Series([], dtype="int64"),
                             "n_terms": pd.Series([], dtype="int64"),
                             "kl": pd.Series([], dtype="float64")})
    # corpus-wide per-term sums + lookup in ESCAPED key space: the raw
    # terms out of comb can carry embedded NULs, which pandas' C-string
    # hashtables silently merge in groupby AND in Series.map (same
    # hazard class as util.escape_nul documents)
    term_esc = escape_nul(counts["term"].astype(str))
    corpus = (counts.assign(__term_esc=term_esc)
              .groupby("__term_esc", sort=False)["c"].sum())
    C = float(counts["c"].sum())
    ct = term_esc.map(corpus).to_numpy(dtype=np.float64)
    rows = []
    for src, g in counts.groupby("source", sort=True):
        cs = g["c"].to_numpy(dtype=np.float64)
        Cs = float(cs.sum())
        gct = ct[g.index.to_numpy()]
        kl = float(np.sum((cs / Cs) * np.log((cs / Cs) / (gct / C))))
        rows.append((src, int(Cs), len(g), round(kl, round_to)))
    return pd.DataFrame(rows, columns=["source", "n_tokens", "n_terms",
                                       "kl"]).astype(
        {"n_tokens": "int64", "n_terms": "int64"})


# ---------------------------------------------------------------------------
# Embedding int8 scalar quantization report
# ---------------------------------------------------------------------------

def embedding_quantize(sf_dir: str, round_to: int = 6) -> pd.DataFrame:
    """Symmetric per-dimension int8 scalar quantization of the
    embedding table, with a per-label reconstruction-error report —
    the 4×-memory path every 100-TB ANN deployment takes (the IVF
    lists store int8 codes; queries dequantize per batch).

    q_d(x) = clamp(⌊x/s_d + 0.5⌋, −127, 127), s_d = max|x_d|/127 (1.0
    when the dimension is all-zero). ⌊·+0.5⌋ (not banker's rounding)
    so the impl and the SQL oracle round identically.

    Scale: pass 1 = per-dim |max| partials (64-row bounded combine);
    pass 2 = stateless quantize + per-label error partials (labels-
    bounded). Two streamed passes, zero shuffles.

    Output: (label, n_vecs, mse, max_abs_err) — label asc, errors
    rounded.
    """

    # materialize once: the max-abs and error passes both consume the
    # same pruned columns — one storage read, two object-store scans
    ds = read_table(f"{sf_dir}/embeddings.parquet",
                    columns=["vec_id", "embedding",
                             "label"]).materialize()

    def _clean(b: pd.DataFrame) -> pd.DataFrame:
        # dirty-shard tolerance: skip rows with a null embedding/label
        keep = b["embedding"].notna() & b["label"].notna()
        return b[keep] if not keep.all() else b

    def _mat(b: pd.DataFrame) -> np.ndarray:
        return np.asarray([np.asarray(e, dtype=np.float64)
                           for e in b["embedding"]])

    def maxabs_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = _clean(b)
        if len(b) == 0:
            return pd.DataFrame({"dim": pd.Series([], dtype="int64"),
                                 "ma": pd.Series([], dtype="float64")})
        X = _mat(b)
        ma = np.abs(X).max(axis=0)
        return pd.DataFrame({"dim": np.arange(X.shape[1], dtype=np.int64),
                             "ma": ma})

    def maxabs_comb(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"dim": pd.Series([], dtype="int64"),
                                 "ma": pd.Series([], dtype="float64")})
        return (df.groupby("dim", sort=True)["ma"].max().reset_index()
                .astype({"dim": "int64"}))

    ma = combine(ds.map_batches(maxabs_partial, batch_format="pandas"),
                 "dim", maxabs_comb).to_pandas()
    empty = pd.DataFrame({"label": pd.Series([], dtype="int64"),
                          "n_vecs": pd.Series([], dtype="int64"),
                          "mse": pd.Series([], dtype="float64"),
                          "max_abs_err": pd.Series([], dtype="float64")})
    if ma.empty:
        return empty
    scale = ma.sort_values("dim")["ma"].to_numpy(dtype=np.float64) / 127.0
    scale[scale == 0.0] = 1.0

    import ray
    s_ref = ray.put(scale)

    def err_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = _clean(b)
        if len(b) == 0:
            return pd.DataFrame({"label": pd.Series([], dtype="int64"),
                                 "n_vecs": pd.Series([], dtype="int64"),
                                 "n_cells": pd.Series([], dtype="int64"),
                                 "sse": pd.Series([], dtype="float64"),
                                 "mx": pd.Series([], dtype="float64")})
        s = ray.get(s_ref) if isinstance(s_ref, ray.ObjectRef) else s_ref
        X = _mat(b)
        q = np.clip(np.floor(X / s + 0.5), -127.0, 127.0)
        err = X - q * s
        lab = b["label"].to_numpy(dtype=np.int64)
        d = pd.DataFrame({"label": lab,
                          "sse_r": (err * err).sum(axis=1),
                          "mx_r": np.abs(err).max(axis=1)})
        g = (d.groupby("label", sort=True)
             .agg(n_vecs=("sse_r", "size"), sse=("sse_r", "sum"),
                  mx=("mx_r", "max")).reset_index())
        g["n_cells"] = g["n_vecs"] * X.shape[1]
        return g[["label", "n_vecs", "n_cells", "sse", "mx"]].astype(
            {"label": "int64", "n_vecs": "int64", "n_cells": "int64"})

    def err_comb(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return empty
        g = (df.groupby("label", sort=True)
             .agg(n_vecs=("n_vecs", "sum"), n_cells=("n_cells", "sum"),
                  sse=("sse", "sum"), mx=("mx", "max")).reset_index())
        return pd.DataFrame({
            "label": g["label"].astype("int64"),
            "n_vecs": g["n_vecs"].astype("int64"),
            "mse": np.round(g["sse"].to_numpy(dtype=np.float64)
                            / g["n_cells"].to_numpy(dtype=np.float64),
                            round_to),
            "max_abs_err": np.round(g["mx"].to_numpy(dtype=np.float64),
                                    round_to)})

    return combine(ds.map_batches(err_partial, batch_format="pandas"),
                   "label", err_comb).to_pandas()


# ---------------------------------------------------------------------------
# Greedy k-center (farthest-point) diversity sampling
# ---------------------------------------------------------------------------

def kcenter_sample(sf_dir: str, k: int = 6,
                   round_to: int = 6) -> pd.DataFrame:
    """Greedy farthest-point sampling over the embedding table
    (Gonzalez 1985; the coreset/diversity-selection kernel): seed with
    the lowest vec_id, then k−1 times add the vector maximizing the
    ROUNDED euclidean distance to its nearest already-selected vector
    (ties → lowest vec_id). Rounding before the min/argmax makes the
    selection order an exact function of the table.

    Scale: k driver rounds, each a stateless map_batches computing a
    per-batch (min-dist, argmax) partial against the ≤k-row broadcast
    selected matrix — O(k · N · d) work, O(k × blocks) rows ever reach
    the driver, no shuffle. (The same shape as the broadcast ANN
    brute-force pass; k is small by construction.)

    Output: (rank, vec_id, dist) — rank 0 = the seed with dist 0.0;
    dist = distance to the nearest earlier-selected vector.
    """
    import ray

    # materialize once: the k greedy rounds then re-scan object-store
    # blocks instead of re-reading the parquet k times (k extra
    # storage scans at 100 TB; spill-backed blocks are the cheaper
    # re-read path)
    ds = read_table(f"{sf_dir}/embeddings.parquet",
                    columns=["vec_id", "embedding"]).materialize()

    def seed_partial(b: pd.DataFrame) -> pd.DataFrame:
        cols = {"vec_id": pd.Series([], dtype="int64"),
                "emb": pd.Series([], dtype="object")}
        b = b[b["embedding"].notna()]   # dirty-shard tolerance
        if len(b) == 0:
            return pd.DataFrame(cols)
        j = int(b["vec_id"].to_numpy().argmin())
        return pd.DataFrame({"vec_id": [int(b["vec_id"].iloc[j])],
                             "emb": [list(map(float, b["embedding"]
                                              .iloc[j]))]})

    seeds = ds.map_batches(seed_partial, batch_format="pandas").to_pandas()
    if seeds.empty:
        return pd.DataFrame({"rank": pd.Series([], dtype="int64"),
                             "vec_id": pd.Series([], dtype="int64"),
                             "dist": pd.Series([], dtype="float64")})
    j = int(seeds["vec_id"].to_numpy().argmin())
    seed_id = int(seeds["vec_id"].iloc[j])

    sel_ids = [seed_id]
    sel_mat = np.asarray(seeds["emb"].iloc[j], dtype=np.float64)[None, :]
    out = [(0, seed_id, 0.0)]

    for r in range(1, k):
        ref = ray.put((np.asarray(sel_ids, dtype=np.int64), sel_mat))

        def far_partial(b: pd.DataFrame) -> pd.DataFrame:
            cols = {"vec_id": pd.Series([], dtype="int64"),
                    "dist": pd.Series([], dtype="float64"),
                    "emb": pd.Series([], dtype="object")}
            b = b[b["embedding"].notna()]   # dirty-shard tolerance
            if len(b) == 0:
                return pd.DataFrame(cols)
            sids, S = ray.get(ref) if isinstance(ref, ray.ObjectRef) \
                else ref
            ids = b["vec_id"].to_numpy(dtype=np.int64)
            keep = ~np.isin(ids, sids)
            if not keep.any():
                return pd.DataFrame(cols)
            X = np.asarray([np.asarray(e, dtype=np.float64)
                            for e in b["embedding"].to_numpy()[keep]])
            ids = ids[keep]
            D = np.round(np.sqrt(((X[:, None, :] - S[None, :, :]) ** 2)
                                 .sum(axis=2)), round_to)
            dmin = D.min(axis=1)
            # per-batch winner: max dist, tie → lowest vec_id; the
            # winner's vector rides along so no second pass is needed
            order = np.lexsort((ids, -dmin))
            w = order[0]
            return pd.DataFrame({"vec_id": [ids[w]], "dist": [dmin[w]],
                                 "emb": [X[w].tolist()]})

        cand = (ds.map_batches(far_partial, batch_format="pandas")
                .to_pandas())
        if cand.empty:
            break
        cand = cand.sort_values(["dist", "vec_id"],
                                ascending=[False, True], kind="stable")
        vid = int(cand.iloc[0]["vec_id"])
        out.append((r, vid, float(cand.iloc[0]["dist"])))
        sel_ids.append(vid)
        sel_mat = np.vstack([
            sel_mat,
            np.asarray(cand.iloc[0]["emb"], dtype=np.float64)[None, :]])

    return pd.DataFrame(out, columns=["rank", "vec_id", "dist"]).astype(
        {"rank": "int64", "vec_id": "int64", "dist": "float64"})


# ---------------------------------------------------------------------------
# Event funnel analysis
# ---------------------------------------------------------------------------

def events_funnel(sf_dir: str,
                  steps: tuple[str, ...] = ("view", "click", "purchase"),
                  horizon_us: int = 7 * 24 * 3600 * 1_000_000
                  ) -> pd.DataFrame:
    """Ordered funnel conversion over the event stream: a user
    completes step i when a ``steps[i]`` event exists STRICTLY after
    their step-(i−1) completion time, with every completion within
    ``horizon_us`` of the step-0 time. Completion times are the
    EARLIEST qualifying events (the standard funnel semantics).

    Scale: same per-user hash-bucket co-location as the as-of join —
    one pruned read, bounded bucket key, vectorized per-bucket pandas
    groupby-min chain (no per-user Python loop), then a step-bounded
    combine. Gap totals stay integer microseconds end to end, so the
    result is exact with no float drift.

    Output: (step_index, step, n_users, total_gap_us) — one row per
    step, step_index asc; total_gap_us = Σ over completing users of
    (t_i − t_0), 0 for step 0.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    if len(set(steps)) != len(steps):
        raise ValueError(f"funnel steps must be distinct, got {steps!r}")
    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["ts", "user_id", "event_type"])
    step_ix = {s: i for i, s in enumerate(steps)}

    def to_steps(t: "pa.Table") -> pd.DataFrame:
        et = t["event_type"].to_pandas()
        keep = et.isin(steps).to_numpy()
        return pd.DataFrame({
            "ts_us": pc.cast(t["ts"], pa.int64()).to_numpy()[keep],
            "user_id": t["user_id"].to_numpy()[keep],
            "six": et[keep].map(step_ix).to_numpy(dtype=np.int64)})

    def funnel_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        zero = pd.DataFrame({
            "step_index": pd.Series([], dtype="int64"),
            "n_users": pd.Series([], dtype="int64"),
            "total_gap_us": pd.Series([], dtype="int64")})
        if len(g) == 0:
            return zero
        rows = []
        # step 0: earliest step-0 event per user
        cur = (g[g["six"] == 0].groupby("user_id")["ts_us"].min()
               .rename("t"))
        rows.append((0, len(cur), 0))
        t0 = cur
        for i in range(1, len(steps)):
            if len(cur) == 0:
                rows.append((i, 0, 0))
                continue
            ev = g[g["six"] == i].merge(cur.reset_index(), on="user_id")
            ev = ev[(ev["ts_us"] > ev["t"])]
            nxt = ev.groupby("user_id")["ts_us"].min().rename("t")
            # horizon applies against the user's step-0 time
            nxt = nxt[(nxt - t0.reindex(nxt.index)) <= horizon_us]
            gaps = (nxt - t0.reindex(nxt.index))
            rows.append((i, len(nxt), int(gaps.sum()) if len(nxt) else 0))
            cur = nxt
        return pd.DataFrame(rows, columns=["step_index", "n_users",
                                           "total_gap_us"]).astype("int64")

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        base = pd.DataFrame({"step_index": np.arange(len(steps),
                                                     dtype=np.int64)})
        if len(df) == 0:
            g = base.assign(n_users=np.int64(0), total_gap_us=np.int64(0))
        else:
            g = (df.groupby("step_index", sort=True)
                 .agg(n_users=("n_users", "sum"),
                      total_gap_us=("total_gap_us", "sum")).reset_index())
            g = base.merge(g, on="step_index", how="left").fillna(0)
        g["step"] = [steps[i] for i in g["step_index"]]
        return g[["step_index", "step", "n_users", "total_gap_us"]].astype(
            {"step_index": "int64", "n_users": "int64",
             "total_gap_us": "int64"})

    partials = combine(ds.map_batches(to_steps, batch_format="pyarrow"),
                       "user_id", funnel_in_bucket)
    return combine(partials, (), comb).to_pandas()


# ---------------------------------------------------------------------------
# Exact distributed length quantiles
# ---------------------------------------------------------------------------

def length_quantiles(sf_dir: str,
                     qs: tuple[float, ...] = (0.5, 0.9, 0.99)
                     ) -> pd.DataFrame:
    """Exact per-language token-length quantiles via a mergeable count
    histogram: v_q = the smallest length whose cumulative doc count
    ≥ ⌈q·n⌉ — the lower discrete quantile, all integer arithmetic, so
    the distributed result is EXACT (no t-digest approximation needed:
    token lengths are small integers, the histogram is value-bounded).

    Scale: per-batch (lang, dl) count partials → bucketed combine
    (langs × distinct-lengths rows — compact at any corpus size) →
    driver-side sorted cumsum pick per language. Document text never
    reaches a shuffle.

    Output: (lang, n_docs, p50, p90, p99) — lang asc, int64.
    """
    import math

    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["text", "lang"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cnt: dict[tuple[str, int], int] = {}
        for lang, text in zip(b["lang"], b["text"]):
            lng = lang if isinstance(lang, str) else ""
            dl = len(_tok(text))
            if dl == 0:
                continue
            k = (lng, dl)
            cnt[k] = cnt.get(k, 0) + 1
        ks = list(cnt.keys())
        return pd.DataFrame({
            "lang": [x[0] for x in ks],
            "dl": np.fromiter((x[1] for x in ks), dtype=np.int64,
                              count=len(ks)),
            "c": np.fromiter(cnt.values(), dtype=np.int64,
                             count=len(ks))})

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["lang", "dl"], sort=False)["c"].sum()
                .reset_index().astype({"dl": "int64", "c": "int64"}))

    hist = combine(docs.map_batches(partial, batch_format="pandas"),
                   ["lang", "dl"], comb).to_pandas()
    cols = ["lang", "n_docs"] + [f"p{int(q * 100)}" for q in qs]
    if hist.empty:
        return pd.DataFrame({c: pd.Series(
            [], dtype="object" if c == "lang" else "int64")
            for c in cols})
    rows = []
    for lang, g in hist.groupby("lang", sort=True):
        g = g.sort_values("dl")
        c = g["c"].to_numpy(dtype=np.int64)
        dl = g["dl"].to_numpy(dtype=np.int64)
        n = int(c.sum())
        cum = np.cumsum(c)
        vals = [int(dl[np.searchsorted(cum, math.ceil(q * n))])
                for q in qs]
        rows.append([lang, n] + vals)
    out = pd.DataFrame(rows, columns=cols)
    return out.astype({c: "int64" for c in cols[1:]})


# ---------------------------------------------------------------------------
# Incremental (cross-shard) exact dedup
# ---------------------------------------------------------------------------

def incremental_dedup(sf_dir: str, mod: int = 3) -> pd.DataFrame:
    """Incremental corpus refresh: documents with doc_id % mod == 0
    are the EXISTING corpus, the rest are INCOMING. An incoming doc is
    dropped when its md5(text) already exists in the corpus
    (hit_existing) or when another incoming doc with a smaller doc_id
    shares its hash (dup_within); survivors are kept. The cross-run
    dedup step every ingest pipeline runs against its previous crawl.

    Scale: per-batch (hash, side) partials carry ONLY
    (md5, n_existing, n_incoming, min incoming doc_id) — text never
    ships; one bucketed unbounded-key combine resolves each hash and
    emits per-bucket count partials; the final is a one-row fold.

    Output: one row (n_incoming, n_hit_existing, n_dup_within,
    n_kept) — exact integers.
    """

    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])

    def partial(b: pa.Table) -> pd.DataFrame:
        # one row per distinct text of the batch; comb folds by h
        codes, md5_hex = text_md5_codes(b["text"])
        ex = b["doc_id"].to_numpy() % mod == 0
        return pd.DataFrame({
            "h": md5_hex,
            "n_ex": np.bincount(codes[ex], minlength=len(md5_hex)),
            "n_inc": np.bincount(codes[~ex], minlength=len(md5_hex))})

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby("h", sort=False)
             .agg(n_ex=("n_ex", "sum"), n_inc=("n_inc", "sum"))
             .reset_index())
        n_inc = g["n_inc"].to_numpy(dtype=np.int64)
        has_ex = g["n_ex"].to_numpy(dtype=np.int64) > 0
        hit = np.where(has_ex, n_inc, 0)
        dup = np.where(~has_ex, np.maximum(n_inc - 1, 0), 0)
        kept = np.where(~has_ex & (n_inc > 0), 1, 0)
        return pd.DataFrame({
            "n_incoming": pd.Series([int(n_inc.sum())], dtype="int64"),
            "n_hit_existing": pd.Series([int(hit.sum())], dtype="int64"),
            "n_dup_within": pd.Series([int(dup.sum())], dtype="int64"),
            "n_kept": pd.Series([int(kept.sum())], dtype="int64")})

    parts = combine(docs.map_batches(partial, batch_format="pyarrow"),
                    "h", comb).to_pandas()

    def final(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["n_incoming", "n_hit_existing", "n_dup_within", "n_kept"]
        if len(df) == 0:
            return pd.DataFrame({c: pd.Series([0], dtype="int64")
                                 for c in cols})
        return pd.DataFrame({c: pd.Series([int(df[c].sum())],
                                          dtype="int64") for c in cols})

    return final(parts)


# ---------------------------------------------------------------------------
# Product quantization (PQ) report
# ---------------------------------------------------------------------------

def embedding_pq(sf_dir: str, m: int = 8, n_codes: int = 16,
                 round_to: int = 6) -> pd.DataFrame:
    """Product quantization of the embedding table (Jégou et al. 2011
    — the IVF-PQ memory layout every billion-vector ANN system uses):
    dimensions split into ``m`` contiguous subspaces; each sub-vector
    is assigned to the nearest of ``n_codes`` codebook entries — the
    sub-vectors of the ``n_codes`` lowest vec_ids, the same
    training-free seeded quantizer as the IVF oracle family, so the
    whole operator is a pure function of the table. Assignment by
    ROUNDED euclidean distance, ties → lowest code.

    Scale: codebook = one bounded bottom-k pass, broadcast once;
    assignment + error partials are one stateless matmul-shaped pass
    per batch; the final is subspace-bounded (m rows). Code ids pack
    to m bytes/vector — the 32× compression path.

    Output: (subspace, n_vecs, mse, top_code, top_code_count) —
    subspace asc; mse = mean squared reconstruction error over the
    subspace's dims; top_code = most-assigned code (count desc, code
    asc).
    """
    import ray

    from .embeddings import _lowest_k_vectors

    C = _lowest_k_vectors(sf_dir, n_codes)
    empty = pd.DataFrame({
        "subspace": pd.Series([], dtype="int64"),
        "n_vecs": pd.Series([], dtype="int64"),
        "mse": pd.Series([], dtype="float64"),
        "top_code": pd.Series([], dtype="int64"),
        "top_code_count": pd.Series([], dtype="int64")})
    if C.shape[0] == 0:
        return empty
    d = C.shape[1]
    if d % m != 0:
        # silently truncating the remainder dims would misreport the
        # reconstruction error — fail loudly instead
        raise ValueError(f"embedding dim {d} not divisible into "
                         f"{m} subspaces")
    sub = d // m
    cref = ray.put(C)

    ds = read_table(f"{sf_dir}/embeddings.parquet",
                    columns=["vec_id", "embedding"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cols = {"subspace": pd.Series([], dtype="int64"),
                "n_vecs": pd.Series([], dtype="int64"),
                "sse": pd.Series([], dtype="float64"),
                "code": pd.Series([], dtype="int64"),
                "cnt": pd.Series([], dtype="int64")}
        bb = b[b["embedding"].notna()]
        if len(bb) == 0:
            return pd.DataFrame(cols)
        Cm = ray.get(cref) if isinstance(cref, ray.ObjectRef) else cref
        X = np.asarray([np.asarray(e, dtype=np.float64)
                        for e in bb["embedding"]])
        frames = []
        for s in range(m):
            Xs = X[:, s * sub:(s + 1) * sub]
            Cs = Cm[:, s * sub:(s + 1) * sub]
            D2 = ((Xs[:, None, :] - Cs[None, :, :]) ** 2).sum(axis=2)
            Dr = np.round(np.sqrt(D2), round_to)
            code = Dr.argmin(axis=1)           # first min = lowest code
            sse = D2[np.arange(len(Xs)), code]
            cc = np.bincount(code, minlength=Cm.shape[0])
            nz = np.nonzero(cc)[0]
            frames.append(pd.DataFrame({
                "subspace": np.full(len(nz), s, dtype=np.int64),
                "n_vecs": np.zeros(len(nz), dtype=np.int64),
                "sse": np.zeros(len(nz), dtype=np.float64),
                "code": nz.astype(np.int64),
                "cnt": cc[nz].astype(np.int64)}))
            frames.append(pd.DataFrame({
                "subspace": pd.Series([s], dtype="int64"),
                "n_vecs": pd.Series([len(Xs)], dtype="int64"),
                "sse": pd.Series([float(sse.sum())], dtype="float64"),
                "code": pd.Series([-1], dtype="int64"),
                "cnt": pd.Series([0], dtype="int64")}))
        return pd.concat(frames, ignore_index=True)

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return empty
        tot = (df[df["code"] == -1].groupby("subspace", sort=True)
               .agg(n_vecs=("n_vecs", "sum"), sse=("sse", "sum"))
               .reset_index())
        cc = (df[df["code"] >= 0].groupby(["subspace", "code"],
                                          sort=True)["cnt"].sum()
              .reset_index())
        top = (cc.sort_values(["subspace", "cnt", "code"],
                              ascending=[True, False, True])
               .groupby("subspace", sort=True).head(1)
               .rename(columns={"code": "top_code",
                                "cnt": "top_code_count"}))
        g = tot.merge(top, on="subspace")
        return pd.DataFrame({
            "subspace": g["subspace"].astype("int64"),
            "n_vecs": g["n_vecs"].astype("int64"),
            "mse": np.round(g["sse"].to_numpy(dtype=np.float64)
                            / (g["n_vecs"].to_numpy(dtype=np.float64)
                               * sub), round_to),
            "top_code": g["top_code"].astype("int64"),
            "top_code_count": g["top_code_count"].astype("int64")})

    return combine(ds.map_batches(partial, batch_format="pandas"),
                   "subspace", comb).to_pandas()


# ---------------------------------------------------------------------------
# ANN recall evaluation
# ---------------------------------------------------------------------------

def ann_recall_eval(sf_dir: str, k: int = 10,
                    query_vec_id: int = 0, nprobe: int = 4,
                    round_to: int = 6) -> pd.DataFrame:
    """Recall@k of the seeded-IVF approximate search against the
    brute-force ground truth, as a first-class query — the evaluation
    harness every ANN deployment runs before trusting an index
    (recall@k = |IVF top-k ∩ brute top-k| / k). Both sides are pure
    functions of the table, so the recall itself has an EXACT oracle.

    Scale: two broadcast-query passes (the existing cosine_topk /
    ivf_topk plans — per-batch partial top-k, no shuffle of the
    embedding table) + a driver-side set intersection of 2k ids.

    Output: one row (variant, k, n_hit, recall).
    """
    from .ann import cosine_topk, ivf_topk

    truth = cosine_topk(sf_dir, k=k, query_vec_id=query_vec_id)
    if not isinstance(truth, pd.DataFrame):
        truth = truth.to_pandas()
    approx = ivf_topk(sf_dir, k=k, query_vec_id=query_vec_id,
                      nprobe=nprobe)
    if not isinstance(approx, pd.DataFrame):
        approx = approx.to_pandas()
    if truth.empty:
        # one-row zero result so the 0-row-corpus boundary matches the
        # SQL mirror (count over empty = 0 emits one row there too)
        return pd.DataFrame({
            "variant": pd.Series(["ivf_seeded"], dtype="object"),
            "k": pd.Series([k], dtype="int64"),
            "n_hit": pd.Series([0], dtype="int64"),
            "recall": pd.Series([0.0], dtype="float64")})
    hit = len(set(truth["vec_id"]) & set(approx["vec_id"]))
    return pd.DataFrame({
        "variant": pd.Series(["ivf_seeded"], dtype="object"),
        "k": pd.Series([k], dtype="int64"),
        "n_hit": pd.Series([hit], dtype="int64"),
        "recall": [round(hit / k, round_to)]})


# ---------------------------------------------------------------------------
# Time-decayed engagement aggregate
# ---------------------------------------------------------------------------

def time_decay_aggregate(sf_dir: str,
                         halflife_us: int = 7 * 24 * 3600 * 1_000_000,
                         round_to: int = 6) -> "rd.Dataset":
    """Per-user exponentially time-decayed value score — the streaming
    feature every recommender/engagement system maintains:
    score(u) = Σ_events value · 2^(−(T − t)/halflife), decayed to the
    corpus horizon T = max event ts (deterministic; an incremental
    deployment re-decays by multiplying with 2^(−Δ/halflife)).

    Scale: T comes from a max-partial pass (exact integer µs); the
    decay terms are independent per event, so scoring is a stateless
    map and the per-user sum is one bucketed unbounded-key combine of
    (user, partial-sum, count) rows — event payloads never re-ship.

    Output: (user_id, n_events, score) — user asc, score rounded.
    """
    if halflife_us <= 0:
        raise ValueError(f"halflife_us must be positive, "
                         f"got {halflife_us}")

    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["ts", "user_id", "value"])

    def max_partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"t": pd.Series([], dtype="int64")})
        t = b["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        return pd.DataFrame({"t": [int(t.max())]})

    # the horizon pre-scan reads ONLY the ts column (prune at the
    # read — the events table is the big side here)
    mx = (read_table(f"{sf_dir}/events.parquet", columns=["ts"])
          .map_batches(max_partial, batch_format="pandas").to_pandas())
    if mx.empty:
        return rd.from_pandas(pd.DataFrame({
            "user_id": pd.Series([], dtype="int64"),
            "n_events": pd.Series([], dtype="int64"),
            "score": pd.Series([], dtype="float64")}))
    T = int(mx["t"].max())

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        t = b["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        w = np.exp2(-(T - t).astype(np.float64) / halflife_us)
        d = pd.DataFrame({"user_id": b["user_id"].to_numpy(),
                          "s": b["value"].to_numpy(dtype=np.float64) * w,
                          "n": np.ones(len(b), dtype=np.int64)})
        return (d.groupby("user_id", sort=False)
                .agg(s=("s", "sum"), n=("n", "sum")).reset_index())

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby("user_id", sort=True)
             .agg(s=("s", "sum"), n=("n", "sum")).reset_index())
        return pd.DataFrame({
            "user_id": g["user_id"].astype("int64"),
            "n_events": g["n"].astype("int64"),
            "score": np.round(g["s"].to_numpy(dtype=np.float64),
                              round_to)})

    return combine(ds.map_batches(partial, batch_format="pandas"),
                   "user_id", comb)
