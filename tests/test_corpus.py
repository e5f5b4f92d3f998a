"""Corpus-curation ops: brute-force mirrors + structural properties
(cluster transitivity, per-bucket top-k prune safety, deterministic
sampling)."""
import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from whitebox_geospatial_analysis_tools_ray.stages import corpus

SF = "/root/testdata/sf0.001"


def _write_docs(d, texts, langs=None):
    d.mkdir(exist_ok=True)
    n = len(texts)
    tbl = pa.table({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": texts,
        "lang": langs or ["en"] * n,
        "source": ["t"] * n,
        "n_chars": np.array([len(t) for t in texts], dtype=np.int64)})
    pq.write_table(tbl, d / "documents.parquet")
    return str(d)


def test_dup_clusters_transitive(ray_session, tmp_path):
    """A~B and B~C near-dups must land in ONE cluster even when A and C
    themselves fall below the pair threshold (the reason clustering
    exists at all)."""
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    # a/c vs b: 8 shared shingles of 14 → j=0.571 ≥ 0.5;
    # a vs c: 8 of 20 → j=0.4 < 0.5 (below threshold, linked only via b)
    a = base + " one1 one2 one3 one4 one5 one6"
    b = base
    c = base + " two1 two2 two3 two4 two5 two6"
    filler = [f"u{i} v{i} w{i} x{i} y{i} z{i}" for i in range(4)]
    sf = _write_docs(tmp_path / "cl", [a, b, c] + filler)
    from whitebox_geospatial_analysis_tools_ray.stages.dedup import (
        ngram_jaccard_pairs)
    pairs = ngram_jaccard_pairs(sf, threshold=0.5).to_pandas()
    assert not (((pairs["doc_a"] == 0) & (pairs["doc_b"] == 2)).any())
    out = corpus.dup_clusters(sf, threshold=0.5)
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert got[0] == got[1] == got[2] == 0
    assert all(d not in got for d in (3, 4, 5, 6))


def test_dup_clusters_mirror_union_find(ray_session):
    """Cluster labels equal a driver union-find over the same pair set."""
    from whitebox_geospatial_analysis_tools_ray.stages.dedup import (
        ngram_jaccard_pairs)
    pairs = ngram_jaccard_pairs(SF, threshold=0.5).to_pandas()
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # min-id per component
    want = {n: find(n) for n in parent}
    comp_min: dict[int, int] = {}
    for n, r in want.items():
        comp_min[r] = min(comp_min.get(r, n), n)
    want = {n: comp_min[find(n)] for n in parent}

    out = corpus.dup_clusters(SF, threshold=0.5)
    got = dict(zip(out["doc_id"].astype(int), out["cluster_id"].astype(int)))
    assert got == want and len(got) > 0


def test_boilerplate_ngrams_mirror(ray_session):
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas()
    df: dict[str, int] = {}
    for text in t["text"]:
        toks = corpus._tokens(text)
        for g in {" ".join(toks[i:i + 5]) for i in range(len(toks) - 4)}:
            df[g] = df.get(g, 0) + 1
    want = (pd.DataFrame({"ngram": list(df), "df": list(df.values())})
            .sort_values(["df", "ngram"], ascending=[False, True])
            .head(100).reset_index(drop=True))
    got = corpus.boilerplate_ngrams(SF).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_topk_tokens_mirror(ray_session):
    t = pq.read_table(f"{SF}/documents.parquet", columns=["text"]).to_pandas()
    cnt: dict[str, int] = {}
    for text in t["text"]:
        for tok in corpus._tokens(text):
            cnt[tok] = cnt.get(tok, 0) + 1
    want = (pd.DataFrame({"token": list(cnt), "cnt": list(cnt.values())})
            .sort_values(["cnt", "token"], ascending=[False, True])
            .head(50).reset_index(drop=True))
    got = corpus.topk_tokens(SF).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_bucketed_topk_prune_is_lossless(ray_session, tmp_path):
    """k smaller than the per-bucket key count: global top-k must still
    be exact despite every bucket pruning to its own top-k."""
    texts = []
    # token 'x%02d' appears (i+1) times total, spread over docs
    for i in range(40):
        texts.append(" ".join(f"x{i:02d}" for _ in range(i + 1)))
    sf = _write_docs(tmp_path / "tk", texts)
    got = corpus.topk_tokens(sf, k=5)
    assert list(got["token"]) == ["x39", "x38", "x37", "x36", "x35"]
    assert list(got["cnt"]) == [40, 39, 38, 37, 36]


def test_decontaminate_flags_planted_overlap(ray_session, tmp_path):
    """A doc sharing exactly one 4-gram with the benchmark doc (id 0,
    0 % 97 == 0) is flagged with n_hit 1; disjoint docs are not."""
    bench = "secret eval answer tokens plus more benchmark words here"
    leak = "unrelated prose secret eval answer tokens trailing stuff"
    clean = "totally different content with no shared sequences at all"
    sf = _write_docs(tmp_path / "dc", [bench, leak, clean])
    got = corpus.decontaminate(sf).to_pandas()
    assert list(got["doc_id"]) == [1]
    # 'secret eval answer tokens' + 'eval answer tokens plus'? leak only
    # contains the first; exactly 1 distinct shared 4-gram
    assert list(got["n_hit"]) == [1]


def test_stratified_sample_mirror(ray_session):
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "lang"]).to_pandas()
    t["h"] = [hashlib.md5(str(int(d)).encode()).hexdigest()
              for d in t["doc_id"]]
    want = (t.sort_values(["lang", "h"]).groupby("lang").head(20)
            .reset_index(drop=True))
    want["sample_rank"] = want.groupby("lang").cumcount() + 1
    want = want[["lang", "doc_id", "sample_rank"]]
    got = corpus.stratified_sample(SF)
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True),
                                  check_dtype=False)
    # every language stratum filled
    assert (got.groupby("lang").size() == 20).all()


def test_pack_sequences_mirror_and_boundaries(ray_session):
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas() \
          .sort_values("doc_id")
    cnt = t["text"].map(lambda x: len(corpus._tokens(x))).to_numpy()
    off = np.concatenate([[0], cnt.cumsum()[:-1]])
    L = 512
    agg: dict[int, list[int]] = {}
    for o, c in zip(off, cnt):
        if c == 0:
            continue
        for s in range(o // L, (o + c - 1) // L + 1):
            tok = min(o + c, (s + 1) * L) - max(o, s * L)
            d, tt = agg.setdefault(s, [0, 0])
            agg[s] = [d + 1, tt + tok]
    want = pd.DataFrame({"seq_id": sorted(agg),
                         "n_docs": [agg[s][0] for s in sorted(agg)],
                         "n_tokens": [agg[s][1] for s in sorted(agg)]})
    got = corpus.pack_sequences(SF).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # every sequence but the last is exactly full
    assert (got["n_tokens"].iloc[:-1] == 512).all()
    assert 0 < got["n_tokens"].iloc[-1] <= 512
    # total token conservation
    assert got["n_tokens"].sum() == cnt.sum()


def test_pack_sequences_boundary_split_doc(ray_session, tmp_path):
    """A doc straddling a sequence boundary must count toward BOTH
    sequences with its tokens split exactly."""
    texts = ["w " * 500, "x " * 20, "y " * 5]   # offsets 0, 500, 520
    sf = _write_docs(tmp_path / "pk", [t.strip() for t in texts])
    got = corpus.pack_sequences(sf, seq_len=512)
    assert list(got["seq_id"]) == [0, 1]
    assert list(got["n_docs"]) == [2, 2]        # doc 1 spans both
    assert list(got["n_tokens"]) == [512, 13]


def test_repetition_filter_planted(ray_session, tmp_path):
    """A doc that is one 3-gram repeated is flagged near 1.0; a doc of
    all-distinct 3-grams is not flagged."""
    spam = " ".join(["spam ham eggs"] * 20)     # 60 tokens, 58 3-grams
    clean = " ".join(f"t{i}" for i in range(60))
    sf = _write_docs(tmp_path / "rf", [spam, clean])
    got = corpus.repetition_filter(sf).to_pandas()
    assert list(got["doc_id"]) == [0]
    # 3 distinct 3-grams of 58 → dup_frac = 1 - 3/58
    assert abs(got["dup_frac"].iloc[0] - (1 - 3 / 58)) < 1e-6


def test_pack_sequences_input_order_invariant(ray_session, tmp_path):
    """Packing is defined over doc_id ORDER, not file row order: a
    row-shuffled copy of the documents table must pack identically."""
    t = pq.read_table(f"{SF}/documents.parquet")
    rng = np.random.default_rng(13)
    perm = rng.permutation(t.num_rows)
    d = tmp_path / "perm"
    d.mkdir()
    pq.write_table(t.take(perm), d / "documents.parquet")
    a = corpus.pack_sequences(SF).reset_index(drop=True)
    b = corpus.pack_sequences(str(d)).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_dup_clusters_no_pairs_is_empty(ray_session, tmp_path):
    sf = _write_docs(tmp_path / "np",
                     [f"a{i} b{i} c{i} d{i} e{i}" for i in range(6)])
    out = corpus.dup_clusters(sf)
    assert len(out) == 0
    assert list(out.columns) == ["doc_id", "cluster_id"]


def test_cluster_pairs_long_chain_converges(ray_session):
    """ADVICE regression: a near-dup chain far longer than the old
    32-round cap (0-1-2-...-299, each hop crossing buckets) must still
    resolve to ONE component with min label 0 — pointer-doubled
    hash-to-min converges in O(log diameter), and non-convergence now
    raises instead of returning silently-wrong labels."""
    import ray.data as rd
    n = 300
    pairs = rd.from_pandas(pd.DataFrame({
        "doc_a": np.arange(n - 1, dtype=np.int64),
        "doc_b": np.arange(1, n, dtype=np.int64)}))
    # force the DISTRIBUTED rounds (the default size-adaptive cutoff
    # would route 300 edges to the driver union-find)
    out = corpus.cluster_pairs(pairs, max_rounds=24, driver_max_edges=0)
    assert len(out) == n
    assert (out["cluster_id"] == 0).all()


def test_cluster_pairs_driver_and_distributed_agree(ray_session):
    """The size-adaptive driver union-find and the distributed
    hash-to-min rounds produce IDENTICAL cluster tables."""
    import ray.data as rd
    rng = np.random.default_rng(7)
    a = rng.integers(0, 500, 800).astype(np.int64)
    b = rng.integers(0, 500, 800).astype(np.int64)
    keep = a != b
    pairs_df = pd.DataFrame({"doc_a": a[keep], "doc_b": b[keep]})
    fast = corpus.cluster_pairs(rd.from_pandas(pairs_df))
    slow = corpus.cluster_pairs(rd.from_pandas(pairs_df),
                                driver_max_edges=0)
    pd.testing.assert_frame_equal(fast.reset_index(drop=True),
                                  slow.reset_index(drop=True))


def test_chunk_documents_tiling(ray_session, tmp_path):
    """Chunks tile each doc: short doc = 1 chunk, doc ending exactly on
    a window = no extra chunk, overlap region re-covered."""
    import zlib
    texts = [" ".join(f"t{i}" for i in range(5)),      # 5 < 64 → 1 chunk
             " ".join(f"u{i}" for i in range(64)),     # exactly 64 → 1
             " ".join(f"v{i}" for i in range(65)),     # 65 → chunks 0,1
             ""]                                       # empty → none
    sf = _write_docs(tmp_path / "ch", texts)
    got = (corpus.chunk_documents(sf).to_pandas()
           .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True))
    assert got["doc_id"].tolist() == [0, 1, 2, 2]
    assert got["chunk_id"].tolist() == [0, 0, 0, 1]
    assert got["n_tokens"].tolist() == [5, 64, 64, 17]  # 65-48=17
    assert got["first_tok_crc"].iloc[3] == zlib.crc32(b"v48")


def test_corpus_clean_reason_bits(ray_session, tmp_path):
    """Each rule fires independently and composes in the bitmask."""
    def tail(p):
        return " ".join(f"{p}{i}" for i in range(30))
    bench = "secret eval answer tokens " + tail("b")          # id 0 (bench)
    dup_a = "prose one " + tail("d")                          # id 1 survivor
    dup_b = "prose one " + tail("d")                          # id 2 dup -> 1
    spam = " ".join(["spam ham eggs"] * 12)                   # id 3 rep -> 2
    leak = "xx secret eval answer tokens yy " + tail("l")     # id 4 -> 4
    short = "tiny doc only five tokens here"                  # id 5 -> 8
    clean = "fine document " + tail("z")                      # id 6
    sf = _write_docs(tmp_path / "cc",
                     [bench, dup_a, dup_b, spam, leak, short, clean])
    got = (corpus.corpus_clean(sf).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    reasons = dict(zip(got["doc_id"], got["reason"]))
    assert reasons[0] == 0 and reasons[1] == 0 and reasons[6] == 0
    assert reasons[2] == 1          # duplicate of 1
    assert reasons[3] & 2           # repetitious
    assert reasons[4] == 4          # contaminated only
    assert reasons[5] == 8          # too short only
    assert (got["keep"] == (got["reason"] == 0).astype(int)).all()


def test_bucketed_agg_equals_plain_groupby(ray_session):
    """util.combine's bucketed path (sum) over random partials == a
    pandas groupby sum."""
    import ray.data as rd
    from whitebox_geospatial_analysis_tools_ray.stages.util import combine
    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "k": [f"key{i}" for i in rng.integers(0, 500, 5000)],
        "v": rng.integers(0, 100, 5000)})
    want = (df.groupby("k")["v"].sum().reset_index()
            .sort_values("k").reset_index(drop=True))

    def fold(g):
        return g.groupby("k", sort=False)["v"].sum().reset_index()

    got = (combine(rd.from_pandas(df).repartition(7), ["k"], fold,
                   num_buckets=16)
           .to_pandas().sort_values("k").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_bucketed_ops_survive_hot_key(ray_session, tmp_path):
    """A single key carrying ALL mass (the skew case) still aggregates
    exactly — one bucket absorbs it with a vectorized pandas sum."""
    texts = ["hotword " * 50] * 200 + [f"cold{i} filler words" for i in range(50)]
    sf = _write_docs(tmp_path / "hot", [t.strip() for t in texts])
    got = corpus.topk_tokens(sf, k=3)
    assert got["token"].iloc[0] == "hotword"
    assert got["cnt"].iloc[0] == 200 * 50


def test_find_polygon_chains_block_invariant(ray_session):
    """Phase 1 is a stateless per-member map; phases 2-3 sort the
    compact endpoint table — the result must not depend on the input's
    block structure."""
    from whitebox_geospatial_analysis_tools_ray.stages.chains import (
        find_polygon_chains)
    a = (find_polygon_chains(SF)
         .sort_values(["parent_id", "group_id"]).reset_index(drop=True))
    b = (find_polygon_chains(SF)
         .sort_values(["parent_id", "group_id"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0


# ---------------------------------------------------------------------------
# duplicate_spans (exact repeated k-token span detection)
# ---------------------------------------------------------------------------

def _dup_spans_mirror(texts, k):
    """Literal brute-force: count k-token windows, duplicated windows
    (gram occurs >= 2 times corpus-wide) and corpus-first copies."""
    from collections import Counter, defaultdict
    from whitebox_geospatial_analysis_tools_ray.stages.corpus import _tokens
    per_doc = {}
    tot = Counter()
    first = {}
    for doc_id, t in enumerate(texts):
        toks = _tokens(t)
        if len(toks) < k:
            continue
        grams = [" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)]
        per_doc[doc_id] = Counter(grams)
        for g in grams:
            tot[g] += 1
            first.setdefault(g, doc_id)
    rows = []
    for doc_id, c in per_doc.items():
        nd = sum(n for g, n in c.items() if tot[g] >= 2)
        nf = sum(1 for g in c if tot[g] >= 2 and first[g] == doc_id)
        rows.append((doc_id, sum(c.values()), nd, nf))
    return (pd.DataFrame(rows, columns=["doc_id", "n_windows",
                                        "n_dup_windows", "n_first_copies"])
            .sort_values("doc_id").reset_index(drop=True))


def test_duplicate_spans_mirror_sf(ray_session):
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas()
    got = (corpus.duplicate_spans(SF).to_pandas()
           .sort_values("doc_id").reset_index(drop=True)
           [["doc_id", "n_windows", "n_dup_windows", "n_first_copies"]])
    want = _dup_spans_mirror(list(t.sort_values("doc_id")["text"]), 5)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_duplicate_spans_planted(ray_session, tmp_path):
    # doc0 holds the first copy of the planted 5-gram; doc2 repeats it
    # twice; doc1 is all-unique; doc3 is too short for any window
    span = "q w e r t"
    texts = [f"a b c {span} x y z",
             "u1 u2 u3 u4 u5 u6 u7",
             f"{span} m n {span}",
             "s1 s2"]
    d = _write_docs(tmp_path / "ds", texts)
    got = (corpus.duplicate_spans(d).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    want = _dup_spans_mirror(texts, 5)
    pd.testing.assert_frame_equal(
        got[["doc_id", "n_windows", "n_dup_windows", "n_first_copies"]],
        want, check_dtype=False)
    r0 = got.set_index("doc_id")
    assert 3 not in r0.index                   # ntok < k: no windows
    assert r0.loc[0, "n_dup_windows"] == 1     # the planted span only
    assert r0.loc[0, "n_first_copies"] == 1    # doc0 is corpus-first
    assert r0.loc[2, "n_dup_windows"] == 2     # both repeats counted
    assert r0.loc[2, "n_first_copies"] == 0
    assert r0.loc[1, "n_dup_windows"] == 0


# ---------------------------------------------------------------------------
# lm_perplexity (bigram-LM quality score)
# ---------------------------------------------------------------------------

def _lm_mirror(texts, round_to=6):
    """Literal add-one-smoothed bigram NLL, pure-Python floats."""
    import math
    from collections import Counter
    from whitebox_geospatial_analysis_tools_ray.stages.corpus import _tokens
    toks_of = {i: _tokens(t) for i, t in enumerate(texts)}
    uni = Counter()
    big = Counter()
    for toks in toks_of.values():
        uni.update(toks)
        big.update(zip(toks, toks[1:]))
    V = len(uni)
    N = sum(uni.values())
    rows = []
    for doc_id, toks in toks_of.items():
        if not toks:
            continue
        s = 0.0
        for i, tok in enumerate(toks):
            if i == 0:
                p = (uni[tok] + 1.0) / float(N + V)
            else:
                p = (big[(toks[i - 1], tok)] + 1.0) / (uni[toks[i - 1]] + float(V))
            s += -math.log(p)
        rows.append((doc_id, len(toks), round(s / len(toks), round_to)))
    return (pd.DataFrame(rows, columns=["doc_id", "ntok", "nll"])
            .sort_values("doc_id").reset_index(drop=True))


def test_lm_perplexity_mirror_sf(ray_session):
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas().sort_values("doc_id")
    got = (corpus.lm_perplexity(SF).to_pandas()
           .sort_values("doc_id").reset_index(drop=True)
           [["doc_id", "ntok", "nll"]])
    want = _lm_mirror(list(t["text"]))
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  rtol=0, atol=1.01e-6)


def test_lm_perplexity_separator_safe(ray_session, tmp_path):
    # shared-prefix bigrams ('a b' vs 'a c') would MERGE under a
    # NUL-separated key (pandas string hashtables use C-string
    # semantics); assert the distinct-bigram structure is respected
    texts = ["a b a b a b", "a c a c a c"]
    d = _write_docs(tmp_path / "ds", texts)
    got = (corpus.lm_perplexity(d).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    want = _lm_mirror(texts)
    pd.testing.assert_frame_equal(
        got[["doc_id", "ntok", "nll"]], want, check_dtype=False,
        rtol=0, atol=1.01e-6)
    # a corpus where a key merge would visibly change the score:
    texts2 = ["x y x y x y x y", "x z q r s t u v"]
    d2 = _write_docs(tmp_path / "ds2", texts2)
    got2 = (corpus.lm_perplexity(d2).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    want2 = _lm_mirror(texts2)
    pd.testing.assert_frame_equal(
        got2[["doc_id", "ntok", "nll"]], want2, check_dtype=False,
        rtol=0, atol=1.01e-6)
    assert got2.loc[0, "nll"] < got2.loc[1, "nll"]  # repeated bigram is likelier


def test_perplexity_buckets_mirror(ray_session, tmp_path):
    # two langs, deliberately skewed scores; mirror the tie-inclusive
    # tertile-value threshold rule literally
    texts = ["a a a a a a", "a a a a a b", "b c d e f g",
             "a a a b b b", "q r s t u v", "a b a b a b",
             "m m m m m m", "m n m n m n"]
    langs = ["en", "en", "en", "en", "fr", "fr", "fr", "fr"]
    d = _write_docs(tmp_path / "ds", texts, langs)
    got = (corpus.perplexity_buckets(d)
           .sort_values(["lang", "bucket"]).reset_index(drop=True))
    sc = _lm_mirror(texts)
    sc["lang"] = [langs[i] for i in sc["doc_id"]]
    rows = []
    for lang, g in sc.groupby("lang"):
        vals = np.sort(g["nll"].unique())
        cum = np.array([(g["nll"] <= v).sum() for v in vals])
        n = len(g)
        t1 = vals[np.searchsorted(cum, (n + 2) // 3)]
        t2 = vals[np.searchsorted(cum, (2 * n + 2) // 3)]
        b = np.where(g["nll"] <= t1, "head",
                     np.where(g["nll"] <= t2, "middle", "tail"))
        for bucket in ["head", "middle", "tail"]:
            m = g[b == bucket]
            if len(m):
                rows.append((lang, bucket, len(m),
                             round(m["nll"].mean(), 6)))
    want = (pd.DataFrame(rows, columns=["lang", "bucket", "n_docs",
                                        "avg_nll"])
            .sort_values(["lang", "bucket"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  rtol=0, atol=1.01e-6)


# ---------------------------------------------------------------------------
# BPE tokenizer training / encoding
# ---------------------------------------------------------------------------

def _bpe_mirror_train(texts, n_merges):
    """Literal Sennrich et al. (2016) loop over the word-count table."""
    from collections import Counter
    wc = Counter()
    for t in texts:
        wc.update(corpus._tokens(t))
    segs = {w: list(w) + ["</w>"] for w in wc}
    merges = []
    for _ in range(n_merges):
        pc = Counter()
        for w, seg in segs.items():
            for p in zip(seg, seg[1:]):
                pc[p] += wc[w]
        if not pc:
            break
        bc = max(pc.values())
        pair = min(p for p, c in pc.items() if c == bc)
        merges.append(pair)
        a, b = pair
        for w, seg in segs.items():
            out, j = [], 0
            while j < len(seg):
                if j + 1 < len(seg) and seg[j] == a and seg[j + 1] == b:
                    out.append(a + b); j += 2
                else:
                    out.append(seg[j]); j += 1
            segs[w] = out
    return merges


def test_bpe_train_mirror_sf(ray_session):
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["text"]).to_pandas()
    got = corpus.bpe_train(SF, n_merges=30)
    want = _bpe_mirror_train(list(t["text"]), 30)
    assert list(zip(got["left"], got["right"])) == want
    assert list(got["merged"]) == [a + b for a, b in want]
    assert list(got["rank"]) == list(range(len(want)))


def test_bpe_train_known_answer(ray_session, tmp_path):
    # classic toy corpus: 'aaab' x3, 'aab' x2 → first merge ('a','a')
    texts = ["aaab aaab aaab aab aab"]
    d = _write_docs(tmp_path / "bpe", texts)
    got = corpus.bpe_train(d, n_merges=3)
    assert (got.loc[0, "left"], got.loc[0, "right"]) == ("a", "a")
    want = _bpe_mirror_train(texts, 3)
    assert list(zip(got["left"], got["right"])) == want


def test_bpe_encode_stats_mirror(ray_session, tmp_path):
    texts = ["lower lower lowest newer newer newest wider wide new",
             "low low lowest newest wide wider new newer"]
    d = _write_docs(tmp_path / "bpe2", texts)
    n_merges, k = 10, 50
    got = corpus.bpe_encode_stats(d, n_merges=n_merges, k=k)
    merges = _bpe_mirror_train(texts, n_merges)
    ranks = {p: i for i, p in enumerate(merges)}
    from collections import Counter
    subs = Counter()
    for t in texts:
        for tok in corpus._tokens(t):
            seg = list(tok) + ["</w>"]
            while len(seg) >= 2:
                cand = [(ranks[(seg[i], seg[i + 1])], i)
                        for i in range(len(seg) - 1)
                        if (seg[i], seg[i + 1]) in ranks]
                if not cand:
                    break
                _, i = min(cand)
                seg[i:i + 2] = [seg[i] + seg[i + 1]]
            subs.update(seg)
    want = (pd.DataFrame({"subword": list(subs), "cnt": list(subs.values())})
            .sort_values(["cnt", "subword"], ascending=[False, True])
            .head(k).reset_index(drop=True))
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want,
                                  check_dtype=False)
    # conservation: subword occurrences reassemble the corpus exactly
    total_chars = sum(len(tok) for t in texts for tok in corpus._tokens(t))
    n_words = sum(len(corpus._tokens(t)) for t in texts)
    assert sum(len(s.replace("</w>", "")) * c
               for s, c in subs.items()) == total_chars
    assert sum(c for s, c in subs.items()
               if s.endswith("</w>")) == n_words


def _importance_mirror(texts, langs, target="en", round_to=6):
    import math
    from collections import Counter
    c_all, c_tgt = Counter(), Counter()
    toks_of = {}
    for i, (t, lg) in enumerate(zip(texts, langs)):
        toks = corpus._tokens(t)
        toks_of[i] = toks
        c_all.update(toks)
        if lg == target:
            c_tgt.update(toks)
    V = len(c_all)
    N = sum(c_all.values())
    Nt = sum(c_tgt.values())
    rows = []
    for i, toks in toks_of.items():
        if not toks:
            continue
        s = sum(math.log((c_tgt[t] + 1.0) / float(Nt + V))
                - math.log((c_all[t] + 1.0) / float(N + V)) for t in toks)
        rows.append((i, len(toks), round(s / len(toks), round_to)))
    return (pd.DataFrame(rows, columns=["doc_id", "ntok", "logw"])
            .sort_values("doc_id").reset_index(drop=True))


def test_importance_weights_mirror(ray_session, tmp_path):
    texts = ["the cat sat on the mat", "le chat est noir",
             "the dog ran fast", "der hund ist gross",
             "cats and dogs run", "on the mat sat a cat"]
    langs = ["en", "fr", "en", "de", "en", "fr"]
    d = _write_docs(tmp_path / "iw", texts, langs)
    got = (corpus.importance_weights(d).to_pandas()
           .sort_values("doc_id").reset_index(drop=True)
           [["doc_id", "ntok", "logw"]])
    want = _importance_mirror(texts, langs)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  rtol=0, atol=1.01e-6)
    # English-token docs must weigh above the German doc
    w = dict(zip(got["doc_id"], got["logw"]))
    assert w[0] > w[3] and w[2] > w[3]


def test_importance_weights_mirror_sf(ray_session):
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text", "lang"]).to_pandas() \
          .sort_values("doc_id")
    got = (corpus.importance_weights(SF).to_pandas()
           .sort_values("doc_id").reset_index(drop=True)
           [["doc_id", "ntok", "logw"]])
    want = _importance_mirror(list(t["text"]), list(t["lang"]))
    want["doc_id"] = t["doc_id"].to_numpy()[want["doc_id"].to_numpy()]
    want = want.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  rtol=0, atol=1.01e-6)


def test_duplicate_spans_property_random(ray_session, tmp_path):
    """Random small-vocab corpora (dup-rich): the distributed rolling-
    hash pipeline must equal the literal gram-string mirror — guards
    the window-hash/doc-id alignment and the polynomial-hash grouping."""
    rng = np.random.default_rng(1234)
    vocab = [f"t{i}" for i in range(6)]
    for trial in range(5):
        texts = [" ".join(rng.choice(vocab, size=int(n)))
                 for n in rng.integers(0, 18, size=12)]
        d = _write_docs(tmp_path / f"ds{trial}", texts)
        got = (corpus.duplicate_spans(d).to_pandas()
               .sort_values("doc_id").reset_index(drop=True)
               [["doc_id", "n_windows", "n_dup_windows",
                 "n_first_copies"]])
        want = _dup_spans_mirror(texts, 5)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_nul_bytes_in_tokens_key_distinctly(ray_session, tmp_path):
    """Real web text contains NUL bytes; pandas string hashtables merge
    them silently (groupby/factorize/hash_pandas_object key by C
    string) while DuckDB/Arrow/python treat them as distinct. The
    grouping sites escape keys (util.escape_nul) — these corpora would
    produce corrupted counts without it."""
    texts = ["a\x00b a\x00c a\x00b x", "a\x00c a\x00b x q",
             "plain words only here"]
    d = _write_docs(tmp_path / "nul", texts)
    # topk_tokens: 'a\x00b' (3) and 'a\x00c' (2) must stay distinct
    got = corpus.topk_tokens(d, k=10)
    cnt = dict(zip(got["token"], got["cnt"]))
    assert cnt["a\x00b"] == 3 and cnt["a\x00c"] == 2
    # lm_perplexity vs the NUL-safe python mirror
    lm = (corpus.lm_perplexity(d).to_pandas()
          .sort_values("doc_id").reset_index(drop=True)
          [["doc_id", "ntok", "nll"]])
    pd.testing.assert_frame_equal(lm, _lm_mirror(texts),
                                  check_dtype=False, rtol=0,
                                  atol=1.01e-6)
    # importance_weights mirror
    iw = (corpus.importance_weights(d).to_pandas()
          .sort_values("doc_id").reset_index(drop=True)
          [["doc_id", "ntok", "logw"]])
    pd.testing.assert_frame_equal(
        iw, _importance_mirror(texts, ["en"] * 3), check_dtype=False,
        rtol=0, atol=1.01e-6)
    # duplicate_spans (k=3 windows over NUL tokens) mirror
    got_ds = (corpus.duplicate_spans(d, k=3).to_pandas()
              .sort_values("doc_id").reset_index(drop=True)
              [["doc_id", "n_windows", "n_dup_windows",
                "n_first_copies"]])
    pd.testing.assert_frame_equal(got_ds, _dup_spans_mirror(texts, 3),
                                  check_dtype=False)
    # bpe word counts keep NUL words distinct
    merges = corpus.bpe_train(d, n_merges=5)
    want_merges = _bpe_mirror_train(texts, 5)
    assert list(zip(merges["left"], merges["right"])) == want_merges


def test_corpus_clean_spans_planted(ray_session, tmp_path):
    """Bit 16 fires exactly for the doc that is mostly recycled spans;
    whole-doc-unique but span-recycled content is caught ONLY by it."""
    span = "p q r s t u v w"              # 8 tokens -> 4 windows of 5
    pad_a = " ".join(f"f{i}" for i in range(30))
    pad_b = " ".join(f"g{i}" for i in range(30))
    texts = [f"{span} {pad_a}",           # first copy + unique pad: low frac
             f"{span} x1 {span} x2 {span} x3",  # mostly recycled spans
             pad_b + " tail1 tail2"]      # unique, long
    d = _write_docs(tmp_path / "ccs", texts)
    got = (corpus.corpus_clean_spans(d, min_tokens=5, bench_mod=997)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    r = dict(zip(got["doc_id"], got["reason"]))
    assert r[1] & 16                      # recycled-span doc flagged
    assert not (r[0] & 16)                # first copy + pad: below frac
    assert not (r[2] & 16)
    assert got.loc[got["doc_id"] == 2, "keep"].iloc[0] in (0, 1)
    # keep is exactly reason==0
    assert ((got["reason"] == 0) == (got["keep"] == 1)).all()


# ---------------------------------------------------------------------------
# HyperLogLog distinct-token sketch
# ---------------------------------------------------------------------------

def test_hll_registers_mirror_and_accuracy(ray_session, tmp_path):
    import hashlib
    from whitebox_geospatial_analysis_tools_ray.stages import textops
    # 5000 distinct tokens spread over docs
    rng = np.random.default_rng(5)
    toks = [f"w{i:05d}" for i in range(5000)]
    rng.shuffle(toks)
    texts = [" ".join(toks[i:i + 50]) for i in range(0, 5000, 50)]
    d = _write_docs(tmp_path / "hll", texts)
    regs = (textops.token_hll(d).to_pandas()
            .sort_values("register_id").reset_index(drop=True))
    # literal mirror
    m, q = 1 << 10, 54
    want = np.zeros(m, dtype=np.int64)
    for t in toks:
        hv = int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "big")
        idx, tail = hv >> q, hv & ((1 << q) - 1)
        rho = q + 1 if tail == 0 else q - tail.bit_length() + 1
        want[idx] = max(want[idx], rho)
    assert (regs["rho"].to_numpy() == want).all()
    est = textops.hll_estimate(d)["estimate"].iloc[0]
    assert abs(est - 5000) / 5000 < 0.10      # ~3%/sqrt-ish at p=10


def test_hll_merge_invariance(ray_session, tmp_path):
    """Register maxima must not depend on how docs split into batches:
    one doc per row vs all text in one doc give identical registers."""
    from whitebox_geospatial_analysis_tools_ray.stages import textops
    toks = [f"t{i}" for i in range(300)]
    d1 = _write_docs(tmp_path / "h1", [" ".join(toks)])
    d2 = _write_docs(tmp_path / "h2",
                     [" ".join(toks[i:i + 7]) for i in range(0, 300, 7)])
    r1 = (textops.token_hll(d1).to_pandas()
          .sort_values("register_id")["rho"].to_numpy())
    r2 = (textops.token_hll(d2).to_pandas()
          .sort_values("register_id")["rho"].to_numpy())
    assert (r1 == r2).all()


def test_hll_log2_overshoot_fixup():
    """floor(log2(2^k − 1)) via float64 rounds UP to k for large k —
    the exact shift-compare fixup must keep bit_length right."""
    import numpy as np
    from whitebox_geospatial_analysis_tools_ray.stages.textops import (
        _hll_registers_batch)
    # craft the rank computation directly: tail = 2^53 - 1 has
    # bit_length 53; naive floor(log2) says 53 (log2 rounds to exactly
    # 53.0), so rho must be 54 - 53 + 1 - ... exercised via the kernel
    # on synthetic "tokens" is awkward; test the arithmetic inline:
    q = 54
    for k in [30, 52, 53, 54]:
        tail = np.array([(1 << k) - 1], dtype=np.uint64)
        bl = np.floor(np.log2(tail.astype(np.float64))).astype(np.int64)
        over = tail < (np.uint64(1) << bl.astype(np.uint64))
        bl[over] -= 1
        assert int(bl[0]) + 1 == (int(tail[0])).bit_length(), k


def test_tfidf_top_terms_mirror(ray_session, tmp_path):
    import math
    from collections import Counter
    from whitebox_geospatial_analysis_tools_ray.stages import textops
    texts = ["apple banana apple cherry", "banana cherry cherry date",
             "apple date egg egg egg", ""]
    d = _write_docs(tmp_path / "tfidf", texts)
    got = (textops.tfidf_top_terms(d, k=2).to_pandas()
           .sort_values(["doc_id", "term"]).reset_index(drop=True))
    dfc = Counter()
    toks_of = {}
    for i, t in enumerate(texts):
        toks = t.split()
        if toks:
            toks_of[i] = toks
            dfc.update(set(toks))
    N = len(toks_of)
    rows = []
    for i, toks in toks_of.items():
        tf = Counter(toks)
        sc = sorted(
            ((-math.floor(c * math.log(N / dfc[t]) * 1e6 + 0.5) / 1e6, t)
             for t, c in tf.items()))
        for neg, t in sc[:2]:
            rows.append((i, t, -neg))
    want = (pd.DataFrame(rows, columns=["doc_id", "term", "tfidf"])
            .sort_values(["doc_id", "term"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert 3 not in set(got["doc_id"])      # empty doc excluded
