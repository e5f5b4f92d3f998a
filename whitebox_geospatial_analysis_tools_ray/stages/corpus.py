"""Corpus-curation stages for large-scale training-data pipelines:
near-dup cluster resolution, boilerplate n-gram detection, benchmark
decontamination, vocabulary top-k, and stratified sampling.

These extend the dedup/ANN family (SURVEY.md §2.7 / the LLM-pipeline
checklist) past *pair detection* into the operations a 100-TB curation
run needs next: turning dup pairs into canonical clusters, finding
corpus-wide boilerplate, filtering benchmark contamination, and drawing
deterministic per-stratum samples.

No direct reference tool exists for these (the closest are
``ListUniqueValues.groovy`` and the Clump connected-components tool,
whose per-tile union-find + boundary-merge plan `dup_clusters` reuses in
spirit); they are required by the graft's web-corpus axis.

All hashing is content-derived and deterministic (crc32 / md5), never
Python's randomized ``hash()``.
"""

from __future__ import annotations

import hashlib
import re
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.aggregate import Sum

from ..sources import read_table
from .dedup import ngram_jaccard_pairs
from .util import combine, groupwise_combine, keyed_group_sum
from .vhash import text_md5_codes

from .util import SQL_WS, sql_ws_re
_TOKEN_RE = sql_ws_re()


def _tokens(text: str) -> list[str]:
    if not isinstance(text, str):   # null text cell ≡ empty document
        return []
    toks = _TOKEN_RE.split(text.strip(SQL_WS).lower())
    return [] if toks == [""] else toks


def _bucketed_topk(partials: "rd.Dataset", key: str, val: str,
                   k: int) -> pd.DataFrame:
    """Top-k (val desc, key asc) over per-batch (key, val) count partials.

    ``util.combine`` keyed on ``key`` runs a vectorized pandas sum per
    call (Ray's per-group machinery costs ~1 ms/group — measured 24 s
    for 25k ngram groups). Each call emits only its own top-k (global
    top-k ⊆ union of per-call top-k — every key lives in exactly one
    call), so the final sort sees ≤ calls × k rows regardless of key
    cardinality.
    """
    def topk(g: pd.DataFrame) -> pd.DataFrame:
        # NUL-safe group-sum, then sort/emit the raw key
        # (python-object comparisons and Arrow sorts are NUL-safe)
        agg = keyed_group_sum(g, [key], [val])
        agg = agg.sort_values([val, key],
                              ascending=[False, True]).head(k)
        return pd.DataFrame({key: agg[key].astype(str),
                             val: agg[val].to_numpy(dtype=np.int64)})

    top = (combine(partials, key, topk)
           .sort([val, key], descending=[True, False]).limit(k))
    return top.to_pandas()


# ---------------------------------------------------------------------------
# Near-dup cluster resolution (connected components over dup pairs)
# ---------------------------------------------------------------------------

def dup_clusters(sf_dir: str, threshold: float = 0.5,
                 max_rounds: int = 32) -> pd.DataFrame:
    """Resolve near-dup PAIRS into canonical CLUSTERS: connected
    components over the exact n-gram-Jaccard pair graph, label = min
    doc_id in the component (the survivor a dedup pass would keep).

    Plan (hash-to-min label propagation, all Ray Data):
      1. pairs = ``ngram_jaccard_pairs`` (keyed combines).
      2. labels init: node → node, derived from the edge endpoints.
      3. Each round: one ``util.combine`` keyed on node joins the
         node's current label to its incident edges (union of label
         rows and edge rows → (nbr, my_label) messages plus the self
         row), then a second one takes the min label per node.
         Converges in O(log diameter) rounds; dup components in web
         corpora are tiny chains, so 3-4 rounds typical.
      4. Convergence check reads ONE scalar per round (sum of labels)
         — no driver materialization of the node set.

    At 100-TB scale the edge set is the dup-pair output (orders of
    magnitude smaller than the corpus) and every round is two
    bounded-key shuffles over (node, label) rows only.

    Output: (doc_id, cluster_id) for every doc appearing in ≥1 pair,
    cluster_id = min doc_id of its component.
    """
    return cluster_pairs(ngram_jaccard_pairs(sf_dir, threshold=threshold),
                         max_rounds=max_rounds)


def embedding_dup_clusters(sf_dir: str, threshold: float = 0.35,
                           max_rounds: int = 32) -> pd.DataFrame:
    """Same cluster resolution over the EMBEDDING near-dup pair graph
    (``embeddings.cosine_neardup_pairs`` — the IVF-bucketed exact
    cosine join): (vec_id, cluster_id)."""
    from .embeddings import cosine_neardup_pairs
    out = cluster_pairs(cosine_neardup_pairs(sf_dir, threshold=threshold),
                        max_rounds=max_rounds)
    return out.rename(columns={"doc_id": "vec_id"})


_DRIVER_CLUSTER_MAX_EDGES = 2_000_000


def cluster_pairs(pairs: "rd.Dataset", max_rounds: int = 32,
                  driver_max_edges: int | None = None) -> pd.DataFrame:
    """Connected components over a (doc_a, doc_b) pair Dataset —
    the shared kernel behind ``dup_clusters`` / ``embedding_dup_clusters``
    (see ``dup_clusters`` for the plan). ``driver_max_edges`` overrides
    the size-adaptive cutoff (0 forces the distributed rounds)."""
    cutoff = (_DRIVER_CLUSTER_MAX_EDGES if driver_max_edges is None
              else driver_max_edges)

    # every row carries the node it is routed to ("dest"); each round is
    # two util.combine calls keyed on it
    def to_edges(b: pd.DataFrame) -> pd.DataFrame:
        a = b["doc_a"].to_numpy(dtype=np.int64)
        c = b["doc_b"].to_numpy(dtype=np.int64)
        # both directions so each node sees all neighbours in its group
        node = np.concatenate([a, c])
        return pd.DataFrame({"dest": node, "node": node,
                             "peer": np.concatenate([c, a]),
                             "lbl": np.full(2 * len(b), -1, dtype=np.int64)})

    edges = pairs.map_batches(to_edges, batch_format="pandas").materialize()
    n_edge_rows = edges.count()
    if n_edge_rows == 0:        # no near-dups: empty cluster table
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "cluster_id": pd.Series([], dtype="int64")})

    # size-adaptive: the dup-pair edge set is metadata (orders of
    # magnitude smaller than the corpus). Below the cutoff a driver
    # union-find resolves it in one O(edges) pass — each distributed
    # round costs two shuffles of fixed machinery, pure overhead at
    # small edge counts; above it, the bounded-bucket rounds below are
    # the 100-TB path. Identical output either way (component-min).
    if n_edge_rows <= cutoff:
        df = edges.select_columns(["node", "peer"]).to_pandas()
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(df["node"].to_numpy(), df["peer"].to_numpy()):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        nodes = np.unique(df["node"].to_numpy(dtype=np.int64))
        labs = np.fromiter((find(int(u)) for u in nodes),
                           dtype=np.int64, count=len(nodes))
        return (pd.DataFrame({"doc_id": nodes, "cluster_id": labs})
                .sort_values("doc_id").reset_index(drop=True))

    def init_labels(b: pd.DataFrame) -> pd.DataFrame:
        n = b["node"].unique().astype(np.int64)
        return pd.DataFrame({"dest": n, "node": n,
                             "peer": np.full(len(n), -1, dtype=np.int64),
                             "lbl": n})

    # partial-dedup per block, exact dedup in the first round's groupby
    labels = edges.map_batches(init_labels, batch_format="pandas")

    def propagate(g: pd.DataFrame) -> pd.DataFrame:
        # per group of dest nodes: close the INTRA-group structure with a
        # local union-find first (collapses whole in-group chains in
        # one round — the per-partition contraction that cuts
        # hash-to-min's round count), then emit each edge target the
        # source's group-min label + the self rows. Any propagation
        # schedule reaches the same fixpoint (component min), so the
        # oracle-checked result is unchanged.
        lab = (g.loc[g["peer"] == -1].groupby("node", sort=False)["lbl"]
               .min())
        ed = g.loc[g["peer"] != -1, ["node", "peer"]]
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(ed["node"].to_numpy(), ed["peer"].to_numpy()):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        # pointer doubling: a label value is always a node id inside the
        # same component (labels start as self and only ever adopt
        # component minima), so unioning node<->label treats every label
        # learned in earlier rounds as a shortcut edge — long cross-group
        # chains collapse in O(log diameter) rounds instead of O(diameter)
        for n, l in lab.items():
            if int(n) != int(l):
                ra, rb = find(int(n)), find(int(l))
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        # group min label = min over member nodes' labels and ids
        gmin: dict[int, int] = {}
        for n, l in lab.items():
            r = find(int(n))
            gmin[r] = min(gmin.get(r, int(l)), int(l))
        for x in list(parent):
            r = find(x)
            gmin[r] = min(gmin.get(r, x), x)
        # message targets: edge peers, the nodes themselves, AND the
        # label ids (the (label -> node) messages of hash-to-min): the
        # label's own group learns the group min next round, which is
        # what makes the node<->label shortcut edges above effective
        node = np.concatenate([ed["peer"].to_numpy(dtype=np.int64),
                               lab.index.to_numpy(dtype=np.int64),
                               lab.to_numpy(dtype=np.int64)])
        lbl = np.concatenate([
            np.fromiter((gmin[find(int(x))] for x in ed["node"]),
                        dtype=np.int64, count=len(ed)),
            np.fromiter((gmin[find(int(x))] for x in lab.index),
                        dtype=np.int64, count=len(lab)),
            np.fromiter((gmin[find(int(x))] for x in lab.to_numpy()),
                        dtype=np.int64, count=len(lab))])
        return pd.DataFrame({
            "dest": node, "node": node,
            "peer": np.full(len(node), -1, dtype=np.int64),
            "lbl": lbl})

    def min_label(g: pd.DataFrame) -> pd.DataFrame:
        a = g.groupby("node", sort=False)["lbl"].min().reset_index()
        n = a["node"].to_numpy(dtype=np.int64)
        l = a["lbl"].to_numpy(dtype=np.int64)
        # each node's label row goes to BOTH the node and the LABEL:
        # in the label's group, propagate unions
        # node<->label next to the label's own self-row, so the node
        # learns lbl(lbl) in one round — lbl_i <- lbl(lbl_i) is the
        # pointer-doubling step that makes rounds O(log diameter)
        return pd.DataFrame({
            "dest": np.concatenate([n, l]),
            "node": np.concatenate([n, n]),
            "peer": np.full(2 * len(n), -1, dtype=np.int64),
            "lbl": np.concatenate([l, l])})

    # labels only ever decrease, so the sum-of-labels signature strictly
    # decreases until the component-min fixpoint: sig == prev_sig IS
    # convergence. max_rounds is a safety limit only — with the
    # node<->label pointer doubling above, rounds are O(log diameter),
    # so hitting it means a logic bug, and we raise rather than return
    # silently-wrong cluster ids.
    prev_sig, converged = None, False
    for _ in range(max_rounds):
        msgs = combine(labels.union(edges), "dest", propagate)
        new_labels = combine(msgs, "dest", min_label).materialize()
        sig = new_labels.aggregate(Sum("lbl", alias_name="s"))["s"]
        labels = new_labels
        if sig == prev_sig:
            converged = True
            break
        prev_sig = sig
    if not converged:
        raise RuntimeError(
            f"cluster_pairs: label propagation did not converge within "
            f"{max_rounds} rounds (pointer-doubled hash-to-min should "
            f"need O(log diameter) — this indicates a bug, not big data)")

    out = labels.select_columns(["node", "lbl"]).to_pandas()  # bounded: dup nodes only
    # min_label emits each node's row to two dests; collapse to one
    out = out.groupby("node", sort=False)["lbl"].min().reset_index()
    out = out.rename(columns={"node": "doc_id", "lbl": "cluster_id"})
    return out.sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Boilerplate n-gram detection (CCNet-style repeated-content removal)
# ---------------------------------------------------------------------------

def boilerplate_ngrams(sf_dir: str, n: int = 5, k: int = 100) -> pd.DataFrame:
    """Top-k word n-grams by DOCUMENT frequency — the corpus-wide
    boilerplate detector (the line-dedup analogue for unstructured
    text: n-grams shared by many documents are navigation chrome /
    licence banners and get stripped before training).

    Plan: per batch, per doc, DISTINCT n-grams (so df counts docs, not
    occurrences) → partial (ngram, df) combine per batch → distributed
    groupby(ngram) sum → sort by (df desc, ngram) → limit k. The sort
    input is the distinct-ngram table (already aggregated — tiny next
    to the corpus); the final top-k is bounded.

    Output: (ngram, df) — k rows, df desc then ngram asc.
    """
    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        grams: dict[str, int] = {}
        for text in batch["text"]:
            toks = _tokens(text)
            if len(toks) < n:
                continue
            seen = {" ".join(toks[i:i + n])
                    for i in range(len(toks) - n + 1)}
            for g in seen:
                grams[g] = grams.get(g, 0) + 1
        keys = list(grams.keys())
        return pd.DataFrame({"ngram": keys,
                             "df": np.fromiter(grams.values(), dtype=np.int64,
                                               count=len(grams))})

    return _bucketed_topk(docs.map_batches(partial, batch_format="pandas"),
                          key="ngram", val="df", k=k)


# ---------------------------------------------------------------------------
# Vocabulary top-k (corpus token frequency)
# ---------------------------------------------------------------------------

def topk_tokens(sf_dir: str, k: int = 50) -> pd.DataFrame:
    """Top-k tokens by total occurrence count — the vocabulary /
    tokenizer-training precursor. Classic wordcount: vectorized
    per-batch ``value_counts`` partials → groupby(token) sum →
    sort (cnt desc, token asc) → limit k.

    Output: (token, cnt) — k rows.
    """
    docs = read_table(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks: list[str] = []
        for text in batch["text"]:
            toks.extend(_tokens(text))
        vc = pd.Series(toks, dtype="object").value_counts()
        return pd.DataFrame({"token": vc.index.astype(str),
                             "cnt": vc.to_numpy(dtype=np.int64)})

    return _bucketed_topk(docs.map_batches(partial, batch_format="pandas"),
                          key="token", val="cnt", k=k)


# ---------------------------------------------------------------------------
# Benchmark decontamination (n-gram overlap filter)
# ---------------------------------------------------------------------------

def decontaminate(sf_dir: str, n: int = 4, bench_mod: int = 97) -> "rd.Dataset":
    """Flag training docs sharing any word n-gram with a benchmark set
    — the eval-decontamination pass every LLM data pipeline runs
    before training (n=8..13 on natural text; default 4 here because
    the synthetic corpus draws from a ~31-token vocabulary, where
    4-grams give a realistic contamination rate at every test SF).

    The benchmark set is the deterministic subset doc_id % bench_mod
    == 0 — the sandbox stand-in for the held-out eval suite, which in
    a real pipeline is a FIXED corpus (the boundedness assumption this
    plan relies on: the broadcast n-gram set is O(eval suite), not
    O(corpus); with the mod stand-in it would grow with the corpus, so
    don't scale bench_mod semantics literally). The n-gram set is
    broadcast once via ``ray.put``; the corpus streams through a
    stateless ``map_batches`` doing set-membership counts — no shuffle
    at all.

    Output: (doc_id, n_hit) for non-benchmark docs with ≥1 shared
    n-gram, n_hit = number of DISTINCT contaminated n-grams in the doc.
    """
    import ray

    bench = read_table(f"{sf_dir}/documents.parquet",
                       columns=["doc_id", "text"])

    def bench_grams(batch: pd.DataFrame) -> pd.DataFrame:
        grams = set()
        sel = batch["doc_id"].to_numpy() % bench_mod == 0
        for text in batch.loc[sel, "text"]:
            toks = _tokens(text)
            for i in range(len(toks) - n + 1):
                grams.add(" ".join(toks[i:i + n]))
        return pd.DataFrame({"g": sorted(grams)})

    gset: set[str] = set()
    for b in bench.map_batches(bench_grams, batch_format="pandas") \
                  .iter_batches(batch_format="pandas"):
        gset.update(b["g"])
    gref = ray.put(gset)

    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])

    def scan(batch: pd.DataFrame) -> pd.DataFrame:
        grams = ray.get(gref)
        ids, hits = [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            if int(doc_id) % bench_mod == 0:
                continue
            toks = _tokens(text)
            seen = {" ".join(toks[i:i + n])
                    for i in range(len(toks) - n + 1)}
            h = len(seen & grams)
            if h:
                ids.append(int(doc_id))
                hits.append(h)
        return pd.DataFrame({"doc_id": np.asarray(ids, dtype=np.int64),
                             "n_hit": np.asarray(hits, dtype=np.int64)})

    return docs.map_batches(scan, batch_format="pandas")


# ---------------------------------------------------------------------------
# Stratified deterministic sampling
# ---------------------------------------------------------------------------

def _md5_hex(doc_id: int) -> str:
    return hashlib.md5(str(doc_id).encode("ascii")).hexdigest()


def stratified_sample(sf_dir: str, per_lang: int = 20) -> pd.DataFrame:
    """Deterministic stratified sample: the ``per_lang`` docs with the
    smallest md5(doc_id) per language — a reproducible, seed-free
    uniform draw per stratum (md5 of the id is a uniform permutation).

    Plan: per-batch partial top-n per lang (nsmallest — only
    per_lang × langs rows leave each batch) → ``util.combine`` keyed
    on lang, final top-n per lang. The shuffle carries O(langs × blocks ×
    per_lang) rows regardless of corpus size.

    Output: (lang, doc_id, sample_rank), rank 1..per_lang by md5 order.
    """
    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "lang"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # null lang groups under '' (astype(str) alone would mint a
        # spurious "None" stratum — the shared dirty-shard rule)
        df = pd.DataFrame({
            "lang": batch["lang"].fillna("").astype(str),
            "doc_id": batch["doc_id"].astype(np.int64),
            "h": [_md5_hex(int(d)) for d in batch["doc_id"]]})
        return (df.sort_values(["lang", "h"])
                  .groupby("lang", sort=False).head(per_lang))

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("h").head(per_lang).reset_index(drop=True)
        return pd.DataFrame({"lang": g["lang"],
                             "doc_id": g["doc_id"].astype(np.int64),
                             "sample_rank":
                                 np.arange(1, len(g) + 1, dtype=np.int64)})

    partials = docs.map_batches(partial, batch_format="pandas")
    out = combine(partials, "lang",
                  groupwise_combine(final, "lang")).to_pandas()
    if len(out) == 0:       # empty corpus → typed empty sample
        return pd.DataFrame({"lang": pd.Series([], dtype="object"),
                             "doc_id": pd.Series([], dtype="int64"),
                             "sample_rank": pd.Series([], dtype="int64")})
    return out.sort_values(["lang", "sample_rank"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# Sequence packing (distributed prefix sum)
# ---------------------------------------------------------------------------

def pack_sequences(sf_dir: str, seq_len: int = 512,
                   docs_per_bucket: int = 256) -> pd.DataFrame:
    """Pack the corpus into fixed-length training sequences in doc_id
    order (the tokenize-and-pack step before pretraining): doc d's
    tokens occupy offsets [prefix(d), prefix(d)+cnt(d)), and sequence
    s covers offsets [s·L, (s+1)·L).

    The global prefix sum is ORDER-SENSITIVE, so it runs as the classic
    two-pass scan:
      1. per-bucket token totals (bucket = doc_id // docs_per_bucket —
         one partial row per bucket per block) → driver cumsum of the
         COMPACT bucket-total vector → broadcast base offsets.
      2. ``util.combine`` keyed on bucket: each bucket sorts its docs,
         local cumsum + base offset gives exact per-doc offsets, then
         emits one (seq_id, tokens_in_seq) row per overlapped sequence.
      3. ``util.combine`` keyed on seq_id.
    Nothing unbounded ever lands on the driver: the pass-1 vector is
    O(n_docs / docs_per_bucket) — size docs_per_bucket so that stays
    in driver memory (at 10¹²-doc scale, nest the same two-pass scheme
    one level deeper: bucket totals of bucket totals).

    Output: (seq_id, n_docs, n_tokens) — n_tokens == seq_len except the
    final partial sequence.
    """
    import ray

    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])

    def counts(batch: pd.DataFrame) -> pd.DataFrame:
        did = batch["doc_id"].to_numpy(dtype=np.int64)
        # count via the shared SQL_WS tokenizer (Python str.split()
        # splits on 19 Unicode whitespace codepoints where the oracle's
        # RE2 '\s' covers 5)
        cnt = np.fromiter(
            (len(_tokens(t)) for t in batch["text"]),
            dtype=np.int64, count=len(batch))
        return pd.DataFrame({"bucket": did // docs_per_bucket,
                             "doc_id": did, "cnt": cnt})

    per_doc = docs.map_batches(counts, batch_format="pandas").materialize()

    # pass 1: compact bucket totals → driver cumsum → broadcast
    btdf = per_doc.map_batches(
        lambda b: b.groupby("bucket", sort=False)["cnt"].sum()
                   .reset_index(), batch_format="pandas").to_pandas()
    if len(btdf) == 0:      # empty corpus → no sequences
        return pd.DataFrame({"seq_id": pd.Series([], dtype="int64"),
                             "n_docs": pd.Series([], dtype="int64"),
                             "n_tokens": pd.Series([], dtype="int64")})
    bt = btdf.groupby("bucket")["cnt"].sum().sort_index()
    base = dict(zip(bt.index, np.concatenate([[0], bt.cumsum().to_numpy()[:-1]])))
    base_ref = ray.put(base)

    def spans(g: pd.DataFrame) -> pd.DataFrame:
        b = ray.get(base_ref)
        g = g.sort_values("doc_id")
        cnt = g["cnt"].to_numpy()
        off = (int(b[int(g["bucket"].iloc[0])])
               + np.concatenate([[0], cnt.cumsum()[:-1]]))
        seqs, toks = [], []
        for o, c in zip(off, cnt):
            if c == 0:
                continue
            s0, s1 = o // seq_len, (o + c - 1) // seq_len
            for s in range(s0, s1 + 1):
                seqs.append(s)
                toks.append(min(o + c, (s + 1) * seq_len)
                            - max(o, s * seq_len))
        return pd.DataFrame({
            "seq_id": np.asarray(seqs, dtype=np.int64),
            "tok": np.asarray(toks, dtype=np.int64)})

    spanned = combine(per_doc, "bucket", groupwise_combine(spans, "bucket"))

    def per_seq(g: pd.DataFrame) -> pd.DataFrame:
        agg = (g.groupby("seq_id", sort=False)["tok"]
               .agg(n_docs="size", n_tokens="sum").reset_index())
        return pd.DataFrame({"seq_id": agg["seq_id"].astype(np.int64),
                             "n_docs": agg["n_docs"].astype(np.int64),
                             "n_tokens": agg["n_tokens"].astype(np.int64)})

    out = combine(spanned, "seq_id", per_seq).to_pandas()
    return out.sort_values("seq_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Intra-document repetition filter (Gopher-style quality rule)
# ---------------------------------------------------------------------------

def repetition_filter(sf_dir: str, max_dup_frac: float = 0.02) -> "rd.Dataset":
    """Flag docs whose duplicate-3-gram fraction exceeds the threshold
    (the Gopher repetition rules' ``duplicate n-gram fraction``):
    dup_frac = 1 − distinct_3grams / total_3grams. Stateless
    ``map_batches`` — no shuffle; docs under 3 tokens are never
    flagged. Output (doc_id, dup_frac) rounded half-away to 6 dp."""
    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])

    def scan(batch: pd.DataFrame) -> pd.DataFrame:
        ids, fracs = [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            toks = _tokens(text)
            total = len(toks) - 2
            if total < 1:
                continue
            distinct = len({" ".join(toks[i:i + 3]) for i in range(total)})
            frac = 1.0 - distinct / total
            if frac > max_dup_frac:
                ids.append(int(doc_id))
                # half-away-from-zero, matching DuckDB round()
                fracs.append(np.floor(frac * 1e6 + 0.5) / 1e6)
        return pd.DataFrame({"doc_id": np.asarray(ids, dtype=np.int64),
                             "dup_frac": np.asarray(fracs,
                                                    dtype=np.float64)})

    return docs.map_batches(scan, batch_format="pandas")


# ---------------------------------------------------------------------------
# Document chunking (RAG / embedding prep)
# ---------------------------------------------------------------------------

def chunk_documents(sf_dir: str, chunk_len: int = 64,
                    stride: int = 48) -> "rd.Dataset":
    """Split each doc into overlapping token windows (chunk_len tokens
    every stride — the standard RAG/embedding prep): chunk c covers
    tokens [c·stride, c·stride+chunk_len). The final window is emitted
    iff it contains ≥1 token beyond the previous window's coverage
    (i.e. chunks tile the doc; a doc shorter than chunk_len is one
    chunk). Pure per-doc flat_map — stateless, no shuffle.

    Output: (doc_id, chunk_id, n_tokens, first_tok_crc) where
    first_tok_crc = crc32 of the chunk's first token (a cheap content
    witness the oracle reproduces bit-exactly).
    """
    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])

    def scan(batch: pd.DataFrame) -> pd.DataFrame:
        ids, cids, toks_n, crcs = [], [], [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            toks = _tokens(text)
            n = len(toks)
            if n == 0:
                continue
            c = 0
            while True:
                start = c * stride
                if start >= n:
                    break
                end = min(start + chunk_len, n)
                ids.append(int(doc_id))
                cids.append(c)
                toks_n.append(end - start)
                crcs.append(zlib.crc32(toks[start].encode("utf-8")))
                if end == n:
                    break
                c += 1
        return pd.DataFrame({
            "doc_id": np.asarray(ids, dtype=np.int64),
            "chunk_id": np.asarray(cids, dtype=np.int64),
            "n_tokens": np.asarray(toks_n, dtype=np.int64),
            "first_tok_crc": np.asarray(crcs, dtype=np.int64)})

    return docs.map_batches(scan, batch_format="pandas")


# ---------------------------------------------------------------------------
# Composed cleaning pass (the end-to-end curation decision)
# ---------------------------------------------------------------------------

def corpus_clean(sf_dir: str, min_tokens: int = 20,
                 max_dup_frac: float = 0.02, contam_n: int = 4,
                 bench_mod: int = 97) -> "rd.Dataset":
    """The composed keep/drop pass a curation run actually executes:
    one streamed scan computes the per-doc rules (repetition,
    benchmark contamination, length) plus the content md5, then ONE
    bucketed shuffle on the md5 resolves exact-dup survivorship
    (survivor = min doc_id). Reason bitmask: 1 = duplicate
    (non-survivor), 2 = repetitious (dup-3-gram frac > threshold),
    4 = benchmark-contaminated, 8 = too short; keep = reason == 0.

    Scale shape: the benchmark n-gram set is broadcast once
    (bounded); everything else is stateless per batch; the only
    shuffle carries one compact row per doc keyed by a bounded md5
    bucket. Output: (doc_id, keep, reason).
    """
    import ray

    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])

    def bench_grams(batch: pd.DataFrame) -> pd.DataFrame:
        grams = set()
        sel = batch["doc_id"].to_numpy() % bench_mod == 0
        for text in batch.loc[sel, "text"]:
            toks = _tokens(text)
            for i in range(len(toks) - contam_n + 1):
                grams.add(" ".join(toks[i:i + contam_n]))
        return pd.DataFrame({"g": sorted(grams)})

    gset: set[str] = set()
    for b in docs.map_batches(bench_grams, batch_format="pandas") \
                 .iter_batches(batch_format="pandas"):
        gset.update(b["g"])
    gref = ray.put(gset)

    def scan(batch: pa.Table) -> pd.DataFrame:
        grams = ray.get(gref)
        codes, md5_hex = text_md5_codes(batch["text"])
        ids = batch["doc_id"].to_numpy()
        reasons = []
        for doc_id, text in zip(ids.tolist(),
                                batch["text"].to_pylist()):
            toks = _tokens(text)
            reason = 0
            total3 = len(toks) - 2
            if total3 >= 1:
                distinct = len({" ".join(toks[i:i + 3])
                                for i in range(total3)})
                if 1.0 - distinct / total3 > max_dup_frac:
                    reason |= 2
            if int(doc_id) % bench_mod != 0 and len(toks) >= contam_n:
                seen = {" ".join(toks[i:i + contam_n])
                        for i in range(len(toks) - contam_n + 1)}
                if seen & grams:
                    reason |= 4
            if len(toks) < min_tokens:
                reason |= 8
            reasons.append(reason)
        return pd.DataFrame({"text_md5": md5_hex[codes],
                             "doc_id": ids.astype(np.int64),
                             "reason": np.asarray(reasons,
                                                  dtype=np.int64)})

    partials = docs.map_batches(scan, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        surv = df.groupby("text_md5", sort=False)["doc_id"] \
                 .transform("min")
        reason = df["reason"].to_numpy().copy()
        reason[df["doc_id"].to_numpy() != surv.to_numpy()] |= 1
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "keep": (reason == 0).astype(np.int64),
            "reason": reason.astype(np.int64)})

    return combine(partials, "text_md5", fold)


# ---------------------------------------------------------------------------
# Exact repeated-span detection (suffix-array-style substring dedup)
# ---------------------------------------------------------------------------

def duplicate_spans(sf_dir: str, k: int = 5) -> "rd.Dataset":
    """Exact repeated k-token span detection — the token-window form of
    suffix-array substring dedup (Lee et al. 2022, arXiv:2107.06499
    "Deduplicating Training Data Makes Language Models Better"): every
    k-token window whose token sequence occurs >= 2 times ANYWHERE in
    the corpus is a duplicated span; the minimum-doc_id occurrence is
    the copy a remove-duplicates pass keeps (ExactSubstr keeps one).

    Plan (two bounded-bucket shuffles; no text on the wire after the
    per-batch partial):
      1. per batch: per-TOKEN 64-bit hashes (two independent
         ``pd.util.hash_pandas_object`` keys, vectorized once over the
         batch's token stream) combine into per-WINDOW hashes via a
         wraparound-uint64 polynomial — k strided vector ops, no
         per-window Python string building. The gram travels as that
         128-bit double hash (collision odds ~n²/2¹²⁸, the same
         accept-rule as the md5 dedup keys), never as the string;
      2. ``util.combine`` by gram hash: per gram, total corpus count +
         first holder doc; re-emits per-doc contribution rows;
      3. ``util.combine`` by doc_id: per-doc sums.
    Wire rows are fixed-width ints throughout — at 100 TB the shuffle
    volume is O(distinct (gram, doc) pairs × 32 B), not O(text).

    Output: (doc_id, n_windows, n_dup_windows, n_first_copies) for
    docs with >= 1 window (ntok >= k); n_first_copies counts the
    duplicated grams whose corpus-first holder is this doc.
    """
    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])

    _HK1 = "0123456789123456"           # pandas' default hash key
    _HK2 = "graft.dup.spans!"           # independent 16-byte key
    _P1 = np.uint64(0x9E3779B97F4A7C15)     # odd polynomial multipliers
    _P2 = np.uint64(0xC2B2AE3D27D4EB4F)

    def _empty_partial() -> pd.DataFrame:
        return pd.DataFrame({"h1": pd.Series([], dtype="int64"),
                             "h2": pd.Series([], dtype="int64"),
                             "doc_id": pd.Series([], dtype="int64"),
                             "cnt": pd.Series([], dtype="int64")})

    def _window_hash(th: np.ndarray, P: np.uint64,
                     n_win: int) -> np.ndarray:
        # polynomial over the token-hash stream: w[i] = Σ_j th[i+j]·P^(k-1-j)
        # (uint64 wraparound). k strided adds — fully vectorized.
        acc = np.zeros(n_win, dtype=np.uint64)
        for j in range(k):
            acc = acc * P + th[j:n_win + j]
        return acc

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ids: list[int] = []          # doc_id per window
        toks_flat: list[str] = []
        win_mask_parts: list[np.ndarray] = []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            toks = _tokens(text)
            if len(toks) < k:        # no window can start here; a valid
                continue             # start never reads past its own doc
            n_win = len(toks) - k + 1
            ids.extend([int(doc_id)] * n_win)
            toks_flat.extend(toks)
            m = np.zeros(len(toks), dtype=bool)
            m[:n_win] = True         # valid window starts of this doc
            win_mask_parts.append(m)
        if not ids:
            return _empty_partial()
        from .util import escape_nul
        # hash the NUL-escaped tokens: hash_pandas_object keys by C
        # string, so raw tokens with embedded NULs would collide
        s = escape_nul(pd.Series(toks_flat, dtype="object"))
        th1 = pd.util.hash_pandas_object(
            s, index=False, hash_key=_HK1).to_numpy()
        th2 = pd.util.hash_pandas_object(
            s, index=False, hash_key=_HK2).to_numpy()
        # pad so strided windows at the stream tail stay in bounds; the
        # mask drops them (and every cross-doc window)
        pad = np.zeros(k - 1, dtype=np.uint64)
        th1 = np.concatenate([th1, pad])
        th2 = np.concatenate([th2, pad])
        n = len(s)
        mask = np.concatenate(win_mask_parts)
        w1 = _window_hash(th1, _P1, n)[mask]
        w2 = _window_hash(th2, _P2, n)[mask]
        df = pd.DataFrame({"h1": w1.view(np.int64),
                           "h2": w2.view(np.int64),
                           "doc_id": np.asarray(ids, dtype=np.int64)})
        return (df.groupby(["h1", "h2", "doc_id"], sort=False)
                .size().reset_index(name="cnt")
                .astype({"cnt": "int64"}))

    partials = docs.map_batches(partial, batch_format="pandas")

    def gram_combine(df: pd.DataFrame) -> pd.DataFrame:
        # re-aggregate (a (gram, doc) pair may arrive as several batch
        # partials), then resolve each gram's corpus total + first doc
        a = (df.groupby(["h1", "h2", "doc_id"], sort=False)["cnt"]
             .sum().reset_index())
        g = a.groupby(["h1", "h2"], sort=False)
        tot = g["cnt"].transform("sum")
        first = g["doc_id"].transform("min")
        dup = (tot >= 2).to_numpy()
        return pd.DataFrame({
            "doc_id": a["doc_id"].astype(np.int64),
            "w": a["cnt"].astype(np.int64),
            "d": a["cnt"].where(dup, 0).astype(np.int64),
            "f": (dup & (a["doc_id"].to_numpy()
                         == first.to_numpy())).astype(np.int64)})

    per_doc = combine(partials, ["h1", "h2"], gram_combine)

    def doc_combine(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("doc_id", sort=False)
                .agg(n_windows=("w", "sum"), n_dup_windows=("d", "sum"),
                     n_first_copies=("f", "sum"))
                .reset_index()
                .astype({"n_windows": "int64", "n_dup_windows": "int64",
                         "n_first_copies": "int64"}))

    return combine(per_doc, ["doc_id"], doc_combine)


# ---------------------------------------------------------------------------
# Bigram-LM perplexity scoring (CCNet-style quality filter)
# ---------------------------------------------------------------------------

def lm_perplexity(sf_dir: str, round_to: int = 6,
                  _with_lang: bool = False) -> "rd.Dataset":
    """Per-document bigram-LM mean negative log-likelihood — the
    CCNet-style LM quality score (Wenzek et al. 2020, LREC: CCNet
    buckets documents into head/middle/tail by LM perplexity): score
    every document under an add-one-smoothed token bigram model;
    low-NLL docs are fluent/common, high-NLL docs are noise.

    Model (V = |vocab|, N = total tokens, C1/C2 = unigram/bigram
    corpus counts):  P(t_1) = (C1(t_1)+1)/(N+V);
    P(t_i|t_{i-1}) = (C2(t_{i-1},t_i)+1)/(C1(t_{i-1})+V).

    Plan: ONE counting pass (vectorized per-batch value_counts
    partials → bucketed combines) builds the unigram + bigram tables;
    the driver holds the MODEL only (vocab-sized, never corpus-sized)
    and broadcasts it once via ``ray.put``; scoring is a stateless
    vectorized map_batches (Series.map lookups). Boundedness at scale:
    an n-gram LM's model IS its vocab tables — the production recipe
    (CCNet's) trains once on a fixed bounded sample with a min-count
    prune + OOV bucket and reuses the frozen model; the exact-oracle
    configuration here keeps the full vocab of the synthetic corpus
    (~31 tokens), so the broadcast is trivially bounded.

    Output: (doc_id, ntok, nll) for docs with >= 1 token; nll = mean
    per-token -ln P rounded to ``round_to`` (the shared rounding
    convention that absorbs summation-order ulp drift vs the oracle).
    ``_with_lang=True`` (internal, for ``perplexity_buckets``) adds the
    doc's lang column to the output.
    """
    import ray

    cols = ["doc_id", "text"] + (["lang"] if _with_lang else [])
    docs = read_table(f"{sf_dir}/documents.parquet", columns=cols)

    # tokens are whitespace-split, so a single space is an unambiguous
    # bigram separator — and unlike \x00 it is safe in pandas string
    # hashtables (embedded NULs silently MERGE keys in groupby /
    # hash_pandas_object: C-string semantics in the object hashtable)
    SEP = " "

    def count_partial(batch: pd.DataFrame) -> pd.DataFrame:
        uni: list[str] = []
        big: list[str] = []
        for text in batch["text"]:
            toks = _tokens(text)
            uni.extend(toks)
            big.extend(a + SEP + b for a, b in zip(toks, toks[1:]))
        vu = pd.Series(uni, dtype="object").value_counts()
        vb = pd.Series(big, dtype="object").value_counts()
        return pd.DataFrame({
            "key": np.concatenate([vu.index.to_numpy(dtype=object),
                                   vb.index.to_numpy(dtype=object)]),
            "is_big": np.concatenate([
                np.zeros(len(vu), dtype=np.int64),
                np.ones(len(vb), dtype=np.int64)]),
            "cnt": np.concatenate([vu.to_numpy(dtype=np.int64),
                                   vb.to_numpy(dtype=np.int64)])})

    def count_combine(df: pd.DataFrame) -> pd.DataFrame:
        return keyed_group_sum(df, ["key", "is_big"], ["cnt"]) \
            .astype({"cnt": "int64"})

    counts = combine(
        docs.map_batches(count_partial, batch_format="pandas"),
        ["key", "is_big"], count_combine).to_pandas()  # bounded: model
    if counts.empty:        # 0-token corpus → schema-less empty frame
        counts = pd.DataFrame({"key": pd.Series([], dtype="object"),
                               "is_big": pd.Series([], dtype="int64"),
                               "cnt": pd.Series([], dtype="int64")})

    uni = counts[counts["is_big"] == 0]
    big = counts[counts["is_big"] == 1]
    V = len(uni)
    N = int(uni["cnt"].sum())
    model_ref = ray.put((dict(zip(uni["key"], uni["cnt"])),
                         dict(zip(big["key"], big["cnt"])), N, V))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        c1, c2, n_tot, v = ray.get(model_ref)
        ids: list[int] = []
        ntoks: list[int] = []
        langs: list[str] = []
        doc_of: list[int] = []
        toks_flat: list[str] = []
        prev_flat: list[str | None] = []
        lang_col = batch["lang"] if _with_lang else [None] * len(batch)
        for doc_id, text, lang in zip(batch["doc_id"], batch["text"],
                                      lang_col):
            toks = _tokens(text)
            if not toks:
                continue
            ids.append(int(doc_id))
            ntoks.append(len(toks))
            langs.append(lang)
            doc_of.extend([len(ids) - 1] * len(toks))
            toks_flat.extend(toks)
            prev_flat.append(None)
            prev_flat.extend(toks[:-1])
        if not ids:
            out = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                "ntok": pd.Series([], dtype="int64"),
                                "nll": pd.Series([], dtype="float64")})
            if _with_lang:
                out["lang"] = pd.Series([], dtype="object")
            return out
        tok_s = pd.Series(toks_flat, dtype="object")
        prev_s = pd.Series(prev_flat, dtype="object")
        is_first = prev_s.isna().to_numpy()
        # .map(dict.get), not .map(dict): the dict form goes through a
        # pandas Index hashtable, which merges NUL-containing tokens
        c1_tok = tok_s.map(c1.get).fillna(0).to_numpy(dtype=np.float64)
        c1_prev = prev_s.map(c1.get).fillna(0).to_numpy(dtype=np.float64)
        c2_pair = (prev_s.fillna("") + SEP + tok_s).map(c2.get) \
            .fillna(0).to_numpy(dtype=np.float64)
        num = np.where(is_first, c1_tok + 1.0, c2_pair + 1.0)
        den = np.where(is_first, float(n_tot + v), c1_prev + float(v))
        nll_tok = -np.log(num / den)
        sums = np.bincount(np.asarray(doc_of, dtype=np.int64),
                           weights=nll_tok, minlength=len(ids))
        nt = np.asarray(ntoks, dtype=np.int64)
        out = pd.DataFrame({
            "doc_id": np.asarray(ids, dtype=np.int64),
            "ntok": nt,
            "nll": np.round(sums / nt, round_to)})
        if _with_lang:
            out["lang"] = langs
        return out

    return docs.map_batches(score, batch_format="pandas")


def perplexity_buckets(sf_dir: str, round_to: int = 6) -> pd.DataFrame:
    """CCNet's head/middle/tail split (Wenzek et al. 2020): per lang,
    bucket documents by bigram-LM NLL tertiles and summarize.

    Threshold rule (deterministic, tie-inclusive): t1 = the smallest
    score v with #(nll <= v) >= ceil(n/3); docs with nll <= t1 are
    'head'; t2 likewise at ceil(2n/3) bounds 'middle'; the rest are
    'tail' (all ties at a threshold fall into the lower bucket, so
    buckets are value-defined — no per-doc rank shuffle needed).

    Plan: per-doc scores from ``lm_perplexity`` (1 row/doc, metadata-
    sized); a bucketed (lang, nll) histogram — bounded: scores are
    rounded to 1e-6 over a few-nats range, so distinct values per lang
    are capped regardless of corpus size — drives a driver-side CDF
    walk for the thresholds, broadcast back for a stateless assign +
    partial final agg. No whole-corpus sort.

    Output: (lang, bucket, n_docs, avg_nll).
    """
    import ray

    # materialize: the per-doc score table (1 row/doc, metadata-sized
    # next to the corpus) is consumed TWICE (histogram pass + assign
    # pass) — without this the whole read+score pipeline re-executes
    scores = lm_perplexity(sf_dir, round_to, _with_lang=True).materialize()

    def hist_partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby(["lang", "nll"], sort=False)
                .size().reset_index(name="c").astype({"c": "int64"}))

    def hist_combine(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["lang", "nll"], sort=False)["c"]
                .sum().reset_index().astype({"c": "int64"}))

    hist = combine(scores.map_batches(hist_partial, batch_format="pandas"),
                   ["lang", "nll"], hist_combine).to_pandas()
    out_cols = {"lang": pd.Series([], dtype="object"),
                "bucket": pd.Series([], dtype="object"),
                "n_docs": pd.Series([], dtype="int64"),
                "avg_nll": pd.Series([], dtype="float64")}
    if hist.empty:
        return pd.DataFrame(out_cols)

    thr: dict[str, tuple[float, float]] = {}
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("nll")
        cum = g["c"].cumsum().to_numpy()
        n = int(cum[-1])
        v = g["nll"].to_numpy()
        t1 = float(v[np.searchsorted(cum, (n + 2) // 3)])
        t2 = float(v[np.searchsorted(cum, (2 * n + 2) // 3)])
        thr[str(lang)] = (t1, t2)
    thr_ref = ray.put(thr)

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        t = ray.get(thr_ref)
        t1 = b["lang"].map({k: v[0] for k, v in t.items()}).to_numpy()
        t2 = b["lang"].map({k: v[1] for k, v in t.items()}).to_numpy()
        nll = b["nll"].to_numpy()
        bucket = np.where(nll <= t1, "head",
                          np.where(nll <= t2, "middle", "tail"))
        df = pd.DataFrame({"lang": b["lang"], "bucket": bucket,
                           "nll": nll})
        return (df.groupby(["lang", "bucket"], sort=False)
                .agg(n=("nll", "count"), s=("nll", "sum")).reset_index())

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["lang", "bucket"], sort=False)
             .agg(n_docs=("n", "sum"), s=("s", "sum")).reset_index())
        return pd.DataFrame({
            "lang": g["lang"], "bucket": g["bucket"],
            "n_docs": g["n_docs"].astype(np.int64),
            "avg_nll": np.round(g["s"] / g["n_docs"], round_to)})

    res = combine(scores.map_batches(assign, batch_format="pandas"),
                  ["lang", "bucket"], final).to_pandas()
    return res if not res.empty else pd.DataFrame(out_cols)


# ---------------------------------------------------------------------------
# BPE tokenizer training + encoding (Sennrich et al. 2016)
# ---------------------------------------------------------------------------

def _bpe_word_counts(sf_dir: str) -> pd.DataFrame:
    """Distributed word-count pass (the only corpus-sized stage of BPE
    training): per-batch value_counts partials → bucketed combine.
    Returns the full (token, cnt) table."""
    docs = read_table(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks: list[str] = []
        for text in batch["text"]:
            toks.extend(_tokens(text))
        vc = pd.Series(toks, dtype="object").value_counts()
        return pd.DataFrame({"token": vc.index.to_numpy(dtype=object),
                             "cnt": vc.to_numpy(dtype=np.int64)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        return keyed_group_sum(df, ["token"], ["cnt"]) \
            .astype({"cnt": "int64"})

    out = combine(docs.map_batches(partial, batch_format="pandas"),
                  "token", fold).to_pandas()
    if out.empty:
        out = pd.DataFrame({"token": pd.Series([], dtype="object"),
                            "cnt": pd.Series([], dtype="int64")})
    return out


def bpe_train(sf_dir: str, n_merges: int = 50) -> pd.DataFrame:
    """Byte-pair-encoding merge training (Sennrich et al. 2016, ACL —
    the tokenizer-training step of every LLM data pipeline). Classic
    algorithm: start from character sequences per word (with an
    end-of-word marker '</w>'), repeatedly merge the most frequent
    adjacent symbol pair (ties → lexicographically smallest (left,
    right)), weighted by word frequency.

    Scale shape — the same as production tokenizer trainers (HF
    tokenizers, sentencepiece): the corpus-sized stage is ONE
    distributed word-count pass; the merge loop then runs on the
    bounded (vocab × count) table on the driver. A 100-TB corpus has a
    ~10⁷-entry word-frequency table after whitespace splitting — the
    loop's input is model-sized, never corpus-sized. (This loop
    rescans the vocab per merge — O(merges × vocab chars), plenty for
    the test vocab; a 10⁷-word × 50k-merge production run would swap
    in the incremental pair-index update the HF trainer uses. The
    DISTRIBUTED shape is identical either way.)

    Output: (rank, left, right, merged) — n_merges rows (fewer if the
    vocab saturates). Deterministic; rows-only checked (iterative
    argmax-merge is not SQL-expressible) with a literal mirror test.
    """
    wc = _bpe_word_counts(sf_dir)
    segs: list[list[str]] = [list(t) + ["</w>"] for t in wc["token"]]
    cnts = wc["cnt"].to_numpy(dtype=np.int64)
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        pair_cnt: dict[tuple[str, str], int] = {}
        for seg, c in zip(segs, cnts):
            for a, b in zip(seg, seg[1:]):
                pair_cnt[(a, b)] = pair_cnt.get((a, b), 0) + int(c)
        if not pair_cnt:
            break
        bc = max(pair_cnt.values())
        # ties → lexicographically smallest (left, right)
        pair = min(p for p, c in pair_cnt.items() if c == bc)
        merges.append(pair)
        a, b = pair
        ab = a + b
        for i, seg in enumerate(segs):
            if len(seg) < 2:
                continue
            j, out = 0, []
            while j < len(seg):
                if j + 1 < len(seg) and seg[j] == a and seg[j + 1] == b:
                    out.append(ab)
                    j += 2
                else:
                    out.append(seg[j])
                    j += 1
            segs[i] = out
    return pd.DataFrame({
        "rank": np.arange(len(merges), dtype=np.int64),
        "left": pd.Series([m[0] for m in merges], dtype="object"),
        "right": pd.Series([m[1] for m in merges], dtype="object"),
        "merged": pd.Series([m[0] + m[1] for m in merges],
                            dtype="object")})


def _bpe_apply(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    """Encode one word with trained merges: repeatedly apply the
    lowest-rank applicable merge (the standard greedy BPE encoder)."""
    seg = list(word) + ["</w>"]
    while len(seg) >= 2:
        best_rank, best_i = None, -1
        for i in range(len(seg) - 1):
            r = ranks.get((seg[i], seg[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_rank is None:
            break
        seg[best_i:best_i + 2] = [seg[best_i] + seg[best_i + 1]]
    return seg


def bpe_encode_stats(sf_dir: str, n_merges: int = 50,
                     k: int = 100) -> pd.DataFrame:
    """Apply trained BPE merges to the corpus and report the top-k
    subword units by occurrence — the vocabulary the tokenizer would
    ship. Train via ``bpe_train`` (one distributed count pass +
    driver merge loop), broadcast the merge ranks once via ``ray.put``,
    then encode DISTINCT words per batch (memoized per batch) in a
    stateless map_batches and combine subword count partials.

    Output: (subword, cnt) — k rows, cnt desc then subword asc.
    Rows-only checked (BPE encoding is not SQL-expressible); literal
    mirror + determinism tests in tests/test_corpus.py.
    """
    import ray

    merges = bpe_train(sf_dir, n_merges)
    ranks = {(l, r): int(i) for i, (l, r) in
             enumerate(zip(merges["left"], merges["right"]))}
    ranks_ref = ray.put(ranks)

    docs = read_table(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rk = ray.get(ranks_ref)
        cache: dict[str, list[str]] = {}
        subs: dict[str, int] = {}
        for text in batch["text"]:
            for tok in _tokens(text):
                seg = cache.get(tok)
                if seg is None:
                    seg = _bpe_apply(tok, rk)
                    cache[tok] = seg
                for s in seg:
                    subs[s] = subs.get(s, 0) + 1
        return pd.DataFrame({"subword": list(subs.keys()),
                             "cnt": np.fromiter(subs.values(),
                                                dtype=np.int64,
                                                count=len(subs))})

    return _bucketed_topk(docs.map_batches(partial, batch_format="pandas"),
                          key="subword", val="cnt", k=k)


# ---------------------------------------------------------------------------
# DSIR-style importance weights (data selection for a target domain)
# ---------------------------------------------------------------------------

def importance_weights(sf_dir: str, target_lang: str = "en",
                       round_to: int = 6) -> "rd.Dataset":
    """Per-document log importance weight for TARGET-domain data
    selection — the DSIR recipe (Xie et al. 2023, NeurIPS, "Data
    Selection for Language Models via Importance Resampling"): score
    every doc by the mean per-token log-ratio of a target-domain
    unigram LM over the raw-corpus unigram LM; resampling by these
    weights shifts the corpus toward the target distribution. The
    ``lang == target_lang`` subset stands in for the target domain
    (in production: a fixed bounded high-quality corpus).

    Both models smooth add-one over the SHARED raw vocab V:
    P_t(tok) = (C_t(tok)+1)/(N_t+V), P_r(tok) = (C(tok)+1)/(N+V);
    logw(doc) = mean_i [ ln P_t(t_i) − ln P_r(t_i) ].

    Plan: ONE distributed count pass emits (token, c_all, c_tgt)
    partials → bucketed combine; the driver holds the two vocab-sized
    count tables only, broadcast once via ``ray.put``; scoring is a
    stateless vectorized map_batches. Same boundedness as
    ``lm_perplexity`` (the model is vocab-sized, never corpus-sized).

    Output: (doc_id, ntok, logw) for docs with >= 1 token, logw
    rounded to ``round_to`` (shared convention).
    """
    import ray

    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text", "lang"])

    def count_partial(batch: pd.DataFrame) -> pd.DataFrame:
        alls: list[str] = []
        tgts: list[str] = []
        for text, lang in zip(batch["text"], batch["lang"]):
            toks = _tokens(text)
            alls.extend(toks)
            if lang == target_lang:
                tgts.extend(toks)
        va = pd.Series(alls, dtype="object").value_counts()
        vt = pd.Series(tgts, dtype="object").value_counts()
        df = pd.DataFrame({"token": va.index.to_numpy(dtype=object),
                           "c_all": va.to_numpy(dtype=np.int64)})
        # python-dict map (NUL-safe), not a pandas-Index lookup
        vtd = vt.to_dict()
        df["c_tgt"] = df["token"].map(vtd.get).fillna(0) \
            .astype(np.int64)
        return df

    def count_combine(df: pd.DataFrame) -> pd.DataFrame:
        return keyed_group_sum(df, ["token"], ["c_all", "c_tgt"]) \
            .astype({"c_all": "int64", "c_tgt": "int64"})

    counts = combine(
        docs.map_batches(count_partial, batch_format="pandas"),
        ["token"], count_combine).to_pandas()
    if counts.empty:
        counts = pd.DataFrame({"token": pd.Series([], dtype="object"),
                               "c_all": pd.Series([], dtype="int64"),
                               "c_tgt": pd.Series([], dtype="int64")})
    V = len(counts)
    N = int(counts["c_all"].sum())
    Nt = int(counts["c_tgt"].sum())
    model_ref = ray.put((dict(zip(counts["token"], counts["c_all"])),
                         dict(zip(counts["token"], counts["c_tgt"])),
                         N, Nt, V))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        c_all, c_tgt, n_all, n_t, v = ray.get(model_ref)
        ids: list[int] = []
        ntoks: list[int] = []
        doc_of: list[int] = []
        toks_flat: list[str] = []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            toks = _tokens(text)
            if not toks:
                continue
            ids.append(int(doc_id))
            ntoks.append(len(toks))
            doc_of.extend([len(ids) - 1] * len(toks))
            toks_flat.extend(toks)
        if not ids:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "ntok": pd.Series([], dtype="int64"),
                                 "logw": pd.Series([], dtype="float64")})
        tok_s = pd.Series(toks_flat, dtype="object")
        ca = tok_s.map(c_all.get).fillna(0).to_numpy(dtype=np.float64)
        ct = tok_s.map(c_tgt.get).fillna(0).to_numpy(dtype=np.float64)
        lr = (np.log((ct + 1.0) / float(n_t + v))
              - np.log((ca + 1.0) / float(n_all + v)))
        sums = np.bincount(np.asarray(doc_of, dtype=np.int64),
                           weights=lr, minlength=len(ids))
        nt = np.asarray(ntoks, dtype=np.int64)
        return pd.DataFrame({
            "doc_id": np.asarray(ids, dtype=np.int64),
            "ntok": nt,
            "logw": np.round(sums / nt, round_to)})

    return docs.map_batches(score, batch_format="pandas")


def corpus_clean_spans(sf_dir: str, min_tokens: int = 20,
                       max_dup_frac: float = 0.02, contam_n: int = 4,
                       bench_mod: int = 97, span_k: int = 5,
                       max_span_dup_frac: float = 0.5) -> "rd.Dataset":
    """``corpus_clean`` composed with corpus-wide SPAN-level dedup
    (the full curation pass): bit 16 = span-duplication-heavy — more
    than ``max_span_dup_frac`` of the doc's k-token windows repeat
    somewhere in the corpus (the ExactSubstr signal of
    ``duplicate_spans``; a doc that is mostly recycled spans is dropped
    even when no WHOLE-document dup or repetition rule fires).

    Plan: the two component pipelines keep their own bounded shuffles
    (md5 buckets; gram-hash buckets); their per-doc rows meet in ONE
    extra doc_id-bucketed combine. Output: (doc_id, keep, reason) —
    keep = reason == 0, reason bits 1/2/4/8 from ``corpus_clean`` plus
    16.
    """
    cc = corpus_clean(sf_dir, min_tokens=min_tokens,
                      max_dup_frac=max_dup_frac, contam_n=contam_n,
                      bench_mod=bench_mod)
    sp = duplicate_spans(sf_dir, k=span_k)

    def from_cc(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype(np.int64),
            "reason": b["reason"].astype(np.int64),
            "nw": np.zeros(len(b), dtype=np.int64),
            "nd": np.zeros(len(b), dtype=np.int64)})

    def from_sp(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype(np.int64),
            "reason": np.full(len(b), -1, dtype=np.int64),
            "nw": b["n_windows"].astype(np.int64),
            "nd": b["n_dup_windows"].astype(np.int64)})

    u = (cc.map_batches(from_cc, batch_format="pandas")
         .union(sp.map_batches(from_sp, batch_format="pandas")))

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby("doc_id", sort=False)
             .agg(reason=("reason", "max"), nw=("nw", "sum"),
                  nd=("nd", "sum")).reset_index())
        nw = g["nw"].to_numpy(dtype=np.float64)
        nd = g["nd"].to_numpy(dtype=np.float64)
        hit = (g["nw"].to_numpy() > 0) & (nd / np.where(nw > 0, nw, 1.0)
                                          > max_span_dup_frac)
        reason = g["reason"].to_numpy(dtype=np.int64) + 16 * hit
        return pd.DataFrame({
            "doc_id": g["doc_id"].astype(np.int64),
            "keep": (reason == 0).astype(np.int64),
            "reason": reason.astype(np.int64)})

    return combine(u, ["doc_id"], comb)
