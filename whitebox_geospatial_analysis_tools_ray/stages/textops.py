"""Text-analysis stages over the documents table.

Large-scale training-data operators (graft requirement): token counting,
quality scoring, language ID, document fingerprinting. Each is a
plain-task ``map_batches`` with vectorized pandas string kernels
(classifier profiles are module constants); aggregates use the
partial+final pattern.

Where the kernel is expressible in DuckDB string functions the stage has
an exact SQL oracle (token_count, fingerprint, quality ratios); the
n-gram language classifier is rows-only checked.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray.data as rd


from ..sources import read_table
from .util import SQL_WS as _SQL_WS, sql_ws_re as _sql_ws_re
from .util import combine, groupwise_combine, keyed_group_sum
_WS = _sql_ws_re()


def token_stats_by_lang(sf_dir: str, round_to: int = 6) -> "rd.Dataset":
    """Per-lang token/char statistics.

    token definition shared with the SQL oracle: whitespace-split of
    trimmed text; empty text → 0 tokens.
    Output: (lang, n_docs, total_tokens, avg_tokens, avg_chars).
    """
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"].fillna("")
        stripped = t.str.strip(_SQL_WS)
        ntok = (stripped.str.split(r"[\t\n\f\r ]+").map(len)
               .where(stripped != "", 0))
        nchar = t.str.len()
        # null lang groups under '' (pandas groupby drops NaN keys)
        df = pd.DataFrame({"lang": batch["lang"].fillna(""),
                           "ntok": ntok, "nchar": nchar})
        g = df.groupby("lang", sort=False)
        return g.agg(n=("ntok", "count"), st=("ntok", "sum"),
                     sc=("nchar", "sum")).reset_index()

    partials = ds.map_batches(partial, batch_format="pandas")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        n = int(g["n"].sum()); st = int(g["st"].sum()); sc = int(g["sc"].sum())
        return pd.DataFrame({"lang": [g["lang"].iloc[0]], "n_docs": [n],
                             "total_tokens": [st],
                             "avg_tokens": [round(st / n, round_to)],
                             "avg_chars": [round(sc / n, round_to)]})

    return combine(partials, "lang", groupwise_combine(final, "lang"))


def quality_scores_by_lang(sf_dir: str, round_to: int = 6) -> "rd.Dataset":
    """Quality-signal ratios per lang: punctuation ratio, uppercase ratio,
    digit ratio (chars of class / total chars), averaged over docs.

    Shared definition with SQL: ratio over length(text), docs with empty
    text contribute ratio 0. Output:
    (lang, n_docs, avg_punct_ratio, avg_upper_ratio, avg_digit_ratio)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def ratios(t: pd.Series, pattern: str) -> pd.Series:
        n = t.str.len()
        c = t.str.count(pattern)
        return (c / n).where(n > 0, 0.0)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"].fillna("")
        df = pd.DataFrame({
            "lang": batch["lang"].fillna(""),
            "punct": ratios(t, r"[.,!?;:]"),
            "upper": ratios(t, r"[A-Z]"),
            "digit": ratios(t, r"[0-9]"),
        })
        g = df.groupby("lang", sort=False)
        return g.agg(n=("punct", "count"), sp=("punct", "sum"),
                     su=("upper", "sum"), sd=("digit", "sum")).reset_index()

    partials = ds.map_batches(partial, batch_format="pandas")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        n = int(g["n"].sum())
        return pd.DataFrame({
            "lang": [g["lang"].iloc[0]], "n_docs": [n],
            "avg_punct_ratio": [round(float(g["sp"].sum()) / n, round_to)],
            "avg_upper_ratio": [round(float(g["su"].sum()) / n, round_to)],
            "avg_digit_ratio": [round(float(g["sd"].sum()) / n, round_to)],
        })

    return combine(partials, "lang", groupwise_combine(final, "lang"))


def fingerprint_stats(sf_dir: str) -> "rd.Dataset":
    """Document fingerprint = md5 of whitespace-normalized lowercased text
    (SQL-mirrored). Output: (lang, n_docs, n_distinct_fingerprints)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        import hashlib
        norm = batch["text"].fillna("").map(
            lambda t: _WS.sub(" ", t).lower())
        fp = norm.map(lambda t: hashlib.md5(t.encode("utf-8")).hexdigest())
        # null lang cells group under "" (a NULL shuffle key breaks
        # the sort-based groupby comparator)
        return pd.DataFrame({"lang": batch["lang"].fillna(""), "fp": fp})

    fps = ds.map_batches(partial, batch_format="pandas")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"lang": [g["lang"].iloc[0]],
                             "n_docs": [len(g)],
                             "n_distinct_fingerprints": [int(g["fp"].nunique())]})

    return combine(fps, "lang", groupwise_combine(final, "lang"))


# Stopword profiles for the heuristic language classifier.
_LANG_STOPWORDS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "it", "was", "for"},
    "de": {"der", "die", "und", "das", "ist", "nicht", "ein", "mit", "auf", "zu"},
    "fr": {"le", "la", "et", "les", "des", "est", "un", "une", "dans", "que"},
    "es": {"el", "la", "los", "las", "que", "de", "en", "un", "una", "es"},
    "it": {"il", "la", "che", "di", "e", "un", "una", "per", "non", "sono"},
}


_LANG_PROFILES = {k: frozenset(v) for k, v in _LANG_STOPWORDS.items()}


def predict_lang(batch: pd.DataFrame) -> pd.DataFrame:
    """Stopword-overlap language classifier: (lang, pred_lang) per row."""
    preds = []
    for text in batch["text"]:
        toks = set(_WS.split((text or "").strip(_SQL_WS).lower()))
        scores = {lang: len(toks & sw) for lang, sw in _LANG_PROFILES.items()}
        best = max(sorted(scores), key=lambda k: scores[k])
        preds.append(best if scores[best] > 0 else "unknown")
    # null lang groups under '' (shared dirty-shard rule)
    return pd.DataFrame({"lang": batch["lang"].fillna(""),
                         "pred_lang": preds})


def langid_confusion(sf_dir: str) -> "rd.Dataset":
    """Confusion counts (lang, pred_lang, n) of the heuristic classifier
    vs the table's lang column. Rows-only oracle (classifier is not SQL)."""
    from ray.data.aggregate import Sum

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["lang", "text"])
    pred = ds.map_batches(predict_lang, batch_format="pandas",
                          batch_size=2048)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return (batch.groupby(["lang", "pred_lang"], sort=False)
                .size().rename("c").reset_index())

    partials = pred.map_batches(partial, batch_format="pandas")

    def pair_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lang", "pred_lang"], sort=True)["c"].sum().reset_index()
        return g.rename(columns={"c": "n"}).astype({"n": "int64"})

    return combine(partials, ["lang", "pred_lang"], pair_counts)


# ---------------------------------------------------------------------------
# HyperLogLog distinct-token sketch (mergeable registers, exact oracle)
# ---------------------------------------------------------------------------

def _hll_registers_batch(tokens, p: int) -> np.ndarray:
    """Register maxima for one batch's token iterable (any dups fine).
    h = first 64 bits of md5(token); register = top p bits; rho =
    1-based leading-zero rank of the remaining 64−p bits (tail==0 →
    64−p+1). Deterministic — the DuckDB oracle replays it exactly."""
    import hashlib

    m = 1 << p
    regs = np.zeros(m, dtype=np.int64)
    uniq = set(tokens)
    if not uniq:
        return regs
    hv = np.fromiter(
        (int.from_bytes(hashlib.md5(t.encode("utf-8")).digest()[:8],
                        "big") for t in uniq),
        dtype=np.uint64, count=len(uniq))
    q = 64 - p
    idx = (hv >> np.uint64(q)).astype(np.int64)
    tail = hv & np.uint64((1 << q) - 1)
    # rho = q - bit_length(tail) + 1; tail == 0 -> q + 1
    bl = np.zeros(len(tail), dtype=np.int64)
    nz = tail > 0
    bl[nz] = np.floor(np.log2(tail[nz].astype(np.float64))).astype(np.int64)
    # float log2 can overshoot at 2^k - 1 for large k: exact fixup
    over = nz & (tail < (np.uint64(1) << bl.astype(np.uint64)))
    bl[over] -= 1
    rho = np.where(nz, q - (bl + 1) + 1, q + 1).astype(np.int64)
    np.maximum.at(regs, idx, rho)
    return regs


def token_hll(sf_dir: str, p: int = 10) -> "rd.Dataset":
    """Mergeable HyperLogLog sketch of DISTINCT tokens (Flajolet et
    al. 2007) — the bounded-memory cardinality operator a 100-TB vocab
    needs (exact distinct = an unbounded-key shuffle; this is 2^p
    int64s per worker, max-merged). Registers are a pure function of
    the token set (md5-derived), so the sketch is DETERMINISTIC and
    has an EXACT register-level DuckDB oracle — rare for a sketch.

    Output: (register_id, rho) — all 2^p rows, rho 0 = empty register.
    """
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks: list[str] = []
        for text in batch["text"]:
            t = (text or "").strip(_SQL_WS).lower() if isinstance(text, str) else ""
            if t:
                toks.extend(_WS.split(t))
        regs = _hll_registers_batch(toks, p)
        return pd.DataFrame({"register_id": np.arange(1 << p,
                                                      dtype=np.int64),
                             "rho": regs})

    partials = ds.map_batches(partial, batch_format="pandas")

    # every partial carries all 2^p registers, so the max-merge keyed on
    # register_id emits every register
    def register_max(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("register_id", sort=True)["rho"].max()
                .reset_index().astype({"rho": "int64"}))

    return combine(partials, "register_id", register_max)


def hll_estimate(sf_dir: str, p: int = 10,
                 round_to: int = 6) -> pd.DataFrame:
    """Cardinality estimate from the ``token_hll`` registers — the
    standard HLL formula with the small-range linear-counting
    correction. Output: (m, n_empty, estimate); estimate rounded
    (shared convention — Σ2^−rho / ln order ulps)."""
    import math

    regs = token_hll(sf_dir, p).to_pandas()
    m = 1 << p
    if regs.empty:      # 0-row corpus: Ray skips the combine entirely
        regs = pd.DataFrame({"register_id": np.arange(m, dtype=np.int64),
                             "rho": np.zeros(m, dtype=np.int64)})
    regs = regs.sort_values("register_id")
    rho = regs["rho"].to_numpy(dtype=np.int64)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    e = alpha * m * m / np.sum(np.power(2.0, -rho.astype(np.float64)))
    v = int((rho == 0).sum())
    if e <= 2.5 * m and v > 0:
        e = m * math.log(m / v)
    return pd.DataFrame({"m": pd.Series([m], dtype="int64"),
                         "n_empty": pd.Series([v], dtype="int64"),
                         "estimate": [round(float(e), round_to)]})


# ---------------------------------------------------------------------------
# Per-document TF-IDF top terms
# ---------------------------------------------------------------------------

def tfidf_top_terms(sf_dir: str, k: int = 3,
                    round_to: int = 6) -> "rd.Dataset":
    """Top-k terms per document by TF-IDF (tf(t,d) · ln(N/df(t)),
    N = docs with ≥1 token) — the classic retrieval/keyword-extraction
    weighting over the shared lowercased-whitespace token definition.

    Plan: one distributed pass builds the document-frequency table
    (distinct terms per doc → bucketed df sum — vocab-bounded, the
    same boundedness as the LM models), broadcast once via ``ray.put``;
    scoring + per-doc top-k then run INSIDE a stateless map_batches —
    no shuffle carries per-term rows. Ties: equal tfidf → term asc
    (tf and ln(N/df) are identical IEEE expressions on both sides, so
    the order is deterministic and oracle-replayable).

    Output: (doc_id, term, tfidf) — ≤ k rows per doc, tfidf rounded.
    """
    import math

    import ray

    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])

    def _doc_tokens(text) -> list[str]:
        t = (text or "").strip(_SQL_WS).lower() if isinstance(text, str) else ""
        return _WS.split(t) if t else []

    def df_partial(batch: pd.DataFrame) -> pd.DataFrame:
        cnt: dict[str, int] = {}
        for text in batch["text"]:
            toks = _doc_tokens(text)
            if not toks:
                continue
            for term in set(toks):
                cnt[term] = cnt.get(term, 0) + 1
        return pd.DataFrame({"term": list(cnt.keys()),
                             "df": np.fromiter(cnt.values(),
                                               dtype=np.int64,
                                               count=len(cnt))})

    def df_combine(df: pd.DataFrame) -> pd.DataFrame:
        return keyed_group_sum(df, ["term"], ["df"]) \
            .astype({"df": "int64"})

    dft = combine(docs.map_batches(df_partial, batch_format="pandas"),
                  "term", df_combine).to_pandas()  # vocab-bounded
    # N: docs with >= 1 token — fold the per-batch partial counts
    # (each batch emits its nd on every row; recompute exactly from a
    # dedicated pass to avoid double counting)
    ncnt = docs.map_batches(
        lambda b: pd.DataFrame({"n": [sum(
            1 for t in b["text"] if _doc_tokens(t))]}),
        batch_format="pandas").to_pandas()
    N = int(ncnt["n"].sum()) if len(ncnt) else 0
    if dft.empty or N == 0:
        return rd.from_pandas(pd.DataFrame({
            "doc_id": pd.Series([], dtype="int64"),
            "term": pd.Series([], dtype="object"),
            "tfidf": pd.Series([], dtype="float64")}))
    model_ref = ray.put(dict(zip(dft["term"], dft["df"])))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        dfm = ray.get(model_ref)
        ids: list[int] = []
        terms: list[str] = []
        vals: list[float] = []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            toks = _doc_tokens(text)
            if not toks:
                continue
            tf: dict[str, int] = {}
            for t in toks:
                tf[t] = tf.get(t, 0) + 1
            # rank by the ROUNDED score: mathematically tied scores
            # (e.g. 2·ln4 vs 4·ln2) can differ by an ulp — differently
            # per engine — at raw precision; rounding makes the
            # (score desc, term asc) order oracle-replayable.
            # half-away-from-zero to match DuckDB's round() (scores
            # are >= 0 here, so floor(v·10^r + 0.5) is exactly that)
            q = 10.0 ** round_to
            scored = sorted(
                ((-math.floor(c * math.log(N / dfm[t]) * q + 0.5) / q,
                  t) for t, c in tf.items()))
            for neg, t in scored[:k]:
                ids.append(int(doc_id))
                terms.append(t)
                vals.append(-neg)
        return pd.DataFrame({"doc_id": np.asarray(ids, dtype=np.int64),
                             "term": pd.Series(terms, dtype="object"),
                             "tfidf": np.asarray(vals,
                                                 dtype=np.float64)})

    return docs.map_batches(score, batch_format="pandas")


def _df_table(sf_dir: str, with_stats: bool = False):
    """Distributed (term, df, tf) table over the corpus: document
    frequency AND total term frequency in ONE vocab-bounded pass
    (shared by token_zipf_fit and bm25_topk).

    With ``with_stats=True`` the SAME pass also carries the corpus doc
    stats — per-batch (n_docs, n_tokens) ride along as ``kind=1`` rows
    through the bucketed combine, so bm25 needs TWO corpus passes
    (stats+df, then scoring) instead of three; returns
    (counts_df, n_docs, n_tokens)."""
    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        dfc: dict[str, int] = {}
        tfc: dict[str, int] = {}
        n_docs = 0
        n_toks = 0
        for text in b["text"]:
            t = (text or "").strip(_SQL_WS).lower() if isinstance(text, str) \
                else ""
            toks = _WS.split(t) if t else []
            if not toks:
                continue
            n_docs += 1
            n_toks += len(toks)
            seen = set()
            for tok in toks:
                tfc[tok] = tfc.get(tok, 0) + 1
                if tok not in seen:
                    seen.add(tok)
                    dfc[tok] = dfc.get(tok, 0) + 1
        ks = list(tfc.keys())
        out = pd.DataFrame({
            "kind": np.zeros(len(ks), dtype=np.int64),
            "term": ks,
            "tf": np.fromiter((tfc[k] for k in ks), dtype=np.int64,
                              count=len(ks)),
            "df": np.fromiter((dfc[k] for k in ks), dtype=np.int64,
                              count=len(ks))})
        if with_stats:
            stats = pd.DataFrame({"kind": pd.Series([1], dtype="int64"),
                                  "term": pd.Series([""], dtype="object"),
                                  "tf": pd.Series([n_toks],
                                                  dtype="int64"),
                                  "df": pd.Series([n_docs],
                                                  dtype="int64")})
            out = pd.concat([out, stats], ignore_index=True)
        return out

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        return keyed_group_sum(df, ["kind", "term"], ["tf", "df"]) \
            .astype({"kind": "int64", "tf": "int64", "df": "int64"})

    res = combine(docs.map_batches(partial, batch_format="pandas"),
                  ["kind", "term"], comb).to_pandas()
    if res.empty or "kind" not in res.columns:
        # 0-row corpus: Ray drops the pandas block schema entirely
        res = pd.DataFrame({"kind": pd.Series([], dtype="int64"),
                            "term": pd.Series([], dtype="object"),
                            "tf": pd.Series([], dtype="int64"),
                            "df": pd.Series([], dtype="int64")})
    counts = res[res["kind"] == 0].drop(columns="kind") \
        .reset_index(drop=True)
    if not with_stats:
        return counts
    st = res[res["kind"] == 1]
    return counts, int(st["df"].sum()), int(st["tf"].sum())


def token_zipf_fit(sf_dir: str, k: int = 100,
                   round_to: int = 6) -> pd.DataFrame:
    """Zipf-law fit over the corpus rank-frequency spectrum: take the
    top-k tokens by total frequency (freq desc, token asc), regress
    ln(freq) on ln(rank) by closed-form least squares, and report the
    slope (Zipf exponent ≈ −1 for natural text — a standard corpus
    health check), intercept and R². The sums are k-bounded so the
    fit itself is a driver-side fold over a tiny table.

    Scale: the spectrum comes from the shared vocab-bounded
    ``_df_table`` pass + a per-bucket lossless top-k prune (≤
    buckets×k rows reach the final sort at any corpus size).

    Output: one row (k, slope, intercept, r2) — values rounded.
    """
    counts = _df_table(sf_dir)
    empty = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                          "slope": pd.Series([], dtype="float64"),
                          "intercept": pd.Series([], dtype="float64"),
                          "r2": pd.Series([], dtype="float64")})
    if counts.empty:
        return empty
    top = counts.sort_values(["tf", "term"],
                             ascending=[False, True]).head(k)
    n = len(top)
    if n < 2:
        return empty
    x = np.log(np.arange(1, n + 1, dtype=np.float64))
    y = np.log(top["tf"].to_numpy(dtype=np.float64))
    sx, sy = float(x.sum()), float(y.sum())
    sxx, sxy = float((x * x).sum()), float((x * y).sum())
    syy = float((y * y).sum())
    den = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / den
    intercept = (sy - slope * sx) / n
    sst = syy - sy * sy / n
    sse = syy - intercept * sy - slope * sxy
    r2 = 1.0 - sse / sst if sst > 0 else 1.0
    return pd.DataFrame({"k": pd.Series([n], dtype="int64"),
                         "slope": [round(slope, round_to)],
                         "intercept": [round(intercept, round_to)],
                         "r2": [round(r2, round_to)]})


def bm25_topk(sf_dir: str, n_query_terms: int = 3, k: int = 20,
              k1: float = 1.2, b: float = 0.75,
              round_to: int = 6) -> pd.DataFrame:
    """BM25 retrieval over the corpus (Robertson–Spärck Jones;
    Lucene's idf variant ln(1 + (N − df + 0.5)/(df + 0.5))): the query
    is the corpus's ``n_query_terms`` highest-df terms (df desc, term
    asc — deterministic and oracle-replayable), score(d) =
    Σ_t idf(t) · tf·(k1+1) / (tf + k1·(1 − b + b·dl/avgdl)), top-k
    docs by rounded score desc, doc_id asc.

    Scale: the df/doc-stats pass is vocab-bounded and broadcast once
    via ``ray.put``; scoring + per-batch partial top-k run inside one
    stateless map — document text never reaches a shuffle, the final
    sees O(k × blocks) rows.

    Output: (doc_id, dl, score) — k rows.
    """
    import ray

    counts, N, n_toks = _df_table(sf_dir, with_stats=True)
    empty = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                          "dl": pd.Series([], dtype="int64"),
                          "score": pd.Series([], dtype="float64")})
    if counts.empty or N == 0:
        return empty
    qterms = (counts.sort_values(["df", "term"],
                                 ascending=[False, True])
              .head(n_query_terms))

    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])

    avgdl = float(n_toks) / float(N)
    idf = {t: np.log(1.0 + (N - d + 0.5) / (d + 0.5))
           for t, d in zip(qterms["term"], qterms["df"])}
    model = ray.put((idf, avgdl))

    def score(bt: pd.DataFrame) -> pd.DataFrame:
        w, ad = ray.get(model) if isinstance(model, ray.ObjectRef) \
            else model
        ids, dls, scs = [], [], []
        for doc_id, text in zip(bt["doc_id"], bt["text"]):
            t = (text or "").strip(_SQL_WS).lower() if isinstance(text, str) \
                else ""
            toks = _WS.split(t) if t else []
            if not toks:
                continue
            dl = len(toks)
            s = 0.0
            for qt, qidf in w.items():
                tf = toks.count(qt)
                if tf:
                    s += qidf * (tf * (k1 + 1.0)) \
                        / (tf + k1 * (1.0 - b + b * dl / ad))
            ids.append(doc_id)
            dls.append(dl)
            scs.append(s)
        out = pd.DataFrame({"doc_id": pd.Series(ids, dtype="int64"),
                            "dl": pd.Series(dls, dtype="int64"),
                            "score": np.round(
                                np.asarray(scs, dtype=np.float64),
                                round_to)})
        return out.sort_values(["score", "doc_id"],
                               ascending=[False, True]).head(k)

    parts = docs.map_batches(score, batch_format="pandas")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return empty
        return (df.sort_values(["score", "doc_id"],
                               ascending=[False, True]).head(k)
                .reset_index(drop=True))

    return final(parts.to_pandas())


def hll_error_eval(sf_dir: str, p: int = 10,
                   round_to: int = 6) -> pd.DataFrame:
    """Sketch-accuracy evaluation: the HyperLogLog distinct-token
    estimate against the EXACT distinct count — the calibration check
    every sketch deployment runs before trusting the 2^p-register
    memory bound at corpus scale (expected rel-err ≈ 1.04/√m). Joins
    the two existing exact-oracle kernels, so the evaluation itself
    has an exact oracle.

    Scale: exact side = the vocab-bounded df-table pass (distinct =
    row count of the bounded combine); sketch side = the register
    max-merge pass. Output: one row (exact, estimate, rel_err).
    """
    counts = _df_table(sf_dir)
    exact = int(len(counts))
    est = float(hll_estimate(sf_dir, p=p,
                             round_to=round_to)["estimate"].iloc[0])
    rel = round(abs(est - exact) / exact, round_to) if exact else 0.0
    return pd.DataFrame({
        "exact": pd.Series([exact], dtype="int64"),
        "estimate": pd.Series([est], dtype="float64"),
        "rel_err": pd.Series([rel], dtype="float64")})


def corpus_summary(sf_dir: str, round_to: int = 6) -> pd.DataFrame:
    """One-stop dataset-card report over the documents table — the
    summary block every corpus release ships (doc/token/vocab counts,
    language/source breadth, exact duplicate rate, mean length):

    (n_docs, n_nonempty, n_tokens, vocab, n_langs, n_sources,
     dup_rate, mean_doc_len) — one row; dup_rate = 1 −
    distinct md5(text)/n_docs over ALL docs (null text ≡ "").

    Scale: the token side reuses the fused vocab-bounded df-table
    pass; the second pass streams (lang, source, md5) partials — lang/
    source sets are domain-bounded, the md5 distinct resolves in ONE
    bucketed unbounded-key combine that ships 16-byte digests, never
    text.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    from .vhash import text_md5_codes

    counts, n_nonempty, n_tokens = _df_table(sf_dir, with_stats=True)
    vocab = int(len(counts))

    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["text", "lang", "source"])

    def partial(b: pa.Table) -> pd.DataFrame:
        # one row per distinct text of the batch (n_h counts distinct h)
        md5s = list(text_md5_codes(b["text"])[1])
        langs = sorted({l if isinstance(l, str) else ""
                        for l in pc.unique(b["lang"]).to_pylist()})
        srcs = sorted({s if isinstance(s, str) else ""
                       for s in pc.unique(b["source"]).to_pylist()})
        n = max(len(md5s), len(langs), len(srcs))
        pad = lambda xs: xs + [None] * (n - len(xs))
        return pd.DataFrame({
            "h": pd.Series(pad(md5s), dtype="object"),
            "lang": pd.Series(pad(langs), dtype="object"),
            "source": pd.Series(pad(srcs), dtype="object"),
            "n_docs": [len(b)] + [0] * (n - 1)})

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n_h": pd.Series([df["h"].dropna().nunique()],
                             dtype="int64"),
            "langs": pd.Series([sorted(df["lang"].dropna().unique())],
                               dtype="object"),
            "sources": pd.Series(
                [sorted(df["source"].dropna().unique())],
                dtype="object"),
            "n_docs": pd.Series([int(df["n_docs"].sum())],
                                dtype="int64")})

    parts = combine(docs.map_batches(partial, batch_format="pyarrow"),
                    "h", comb).to_pandas()

    def final(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            n_docs = n_dist = 0
            langs: set = set()
            srcs: set = set()
        else:
            n_docs = int(df["n_docs"].sum())
            n_dist = int(df["n_h"].sum())
            langs = set().union(*df["langs"])
            srcs = set().union(*df["sources"])
        dup = round(1.0 - n_dist / n_docs, round_to) if n_docs else 0.0
        mean_len = (round(n_tokens / n_nonempty, round_to)
                    if n_nonempty else 0.0)
        return pd.DataFrame({
            "n_docs": pd.Series([n_docs], dtype="int64"),
            "n_nonempty": pd.Series([n_nonempty], dtype="int64"),
            "n_tokens": pd.Series([n_tokens], dtype="int64"),
            "vocab": pd.Series([vocab], dtype="int64"),
            "n_langs": pd.Series([len(langs)], dtype="int64"),
            "n_sources": pd.Series([len(srcs)], dtype="int64"),
            "dup_rate": pd.Series([dup], dtype="float64"),
            "mean_doc_len": pd.Series([mean_len], dtype="float64")})

    return final(parts)
