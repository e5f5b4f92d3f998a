"""Similarity search over the embeddings table.

- Brute-force cosine top-k: the scale baseline — broadcast the query
  matrix once (``ray.put``), numpy matmul per Arrow batch, per-batch
  partial top-k, tiny final reduce. No shuffle of the embedding table.
- IVF-style variant: deterministic coarse quantizer (centroids = the
  first ``n_lists`` vectors by vec_id, normalized) assigns each vector
  to a list; queries probe the nearest ``nprobe`` lists only.
  Approximate by construction but fully deterministic, so it carries an
  exact DuckDB oracle (same quantizer in SQL).

Cosines are computed in float64 and ROUNDED to 6 decimals before
ranking so results are stable across summation orders (and match the
DuckDB oracle's double arithmetic); ties break on vec_id.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from ..sources import read_table
from .util import combine


def _top_cosine(partials, k: int):
    """Global top-k (cosine desc, vec_id asc) over per-batch top-k rows,
    in one combine task."""
    def top(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(["cosine", "vec_id"], ascending=[False, True],
                               kind="stable")
                .head(k).reset_index(drop=True))

    return combine(partials, (), top)


def _batch_matrix(batch) -> tuple[np.ndarray, np.ndarray]:
    """(vec_id, matrix) for a batch. Rows with a NULL embedding are
    DROPPED (a null vector has no geometry; the documented rule for
    dirty shards — text ops instead coerce null text to "")."""
    ids = np.asarray(batch["vec_id"], dtype=np.int64)
    vecs = list(batch["embedding"])
    keep = [i for i, e in enumerate(vecs) if e is not None]
    if len(keep) != len(vecs):
        ids = ids[keep]
        vecs = [vecs[i] for i in keep]
    emb = np.asarray([np.asarray(e, dtype=np.float64) for e in vecs])
    return ids, emb


def _bottom_n_by_vec_id(sf_dir: str, n: int) -> "pd.DataFrame":
    """The n lowest vec_ids' rows via a STREAMING read + running
    bottom-n merge — O(n) driver memory instead of materializing the
    whole embeddings table to sort it (100 TB scale shape)."""
    import os

    import pyarrow.parquet as pq

    path = f"{sf_dir}/embeddings.parquet"
    # a sharded table is a DIRECTORY of parquet files (the 100-TB
    # layout) — stream shard by shard, same running bottom-n
    files = (sorted(os.path.join(path, f) for f in os.listdir(path)
                    if f.endswith(".parquet"))
             if os.path.isdir(path) else [path])
    # start from an empty typed frame so a zero-row table degrades to an
    # empty result instead of best=None -> AttributeError downstream
    best = pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                         "embedding": pd.Series([], dtype="object")})
    for f in files:
        for rb in pq.ParquetFile(f).iter_batches(
                batch_size=max(4096, n),
                columns=["vec_id", "embedding"]):
            df = rb.to_pandas()
            # null embedding rows carry no geometry — drop
            # (documented rule)
            df = df[df["embedding"].notna()]
            best = pd.concat([best, df], ignore_index=True)
            best = best.sort_values("vec_id", kind="mergesort").head(n)
    return best.reset_index(drop=True)


def _query_vector(sf_dir: str, vec_id: int = 0) -> "np.ndarray | None":
    """One-row predicate-pushdown read (row-group pruning at scale).
    Returns None when the table has no such row (empty input degrades
    to an empty result downstream instead of an IndexError)."""
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "=", vec_id)])
    if t.num_rows == 0:
        return None
    e = t.column("embedding")[0].as_py()
    if e is None:           # null embedding ≡ no query geometry
        return None
    return np.asarray(e, dtype=np.float64)


def _empty_topk() -> pd.DataFrame:
    return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                         "cosine": pd.Series([], dtype="float64")})


def cosine_topk(sf_dir: str, k: int = 20, query_vec_id: int = 0,
                round_to: int = 6) -> pd.DataFrame:
    """Top-k by cosine similarity to the query vector (vec_id=0).

    Output: (vec_id, cosine) — k rows, rounded, tie-broken by vec_id.
    """
    q = _query_vector(sf_dir, query_vec_id)
    if q is None:           # empty table → empty result
        return _empty_topk()
    qn = q / np.sqrt((q * q).sum())
    q_ref = ray.put(qn)

    ds = read_table(f"{sf_dir}/embeddings.parquet",
                    columns=["vec_id", "embedding"])

    def partial(batch) -> pd.DataFrame:
        qv = ray.get(q_ref) if isinstance(q_ref, ray.ObjectRef) else q_ref
        ids, emb = _batch_matrix(batch)
        norms = np.sqrt((emb * emb).sum(axis=1))
        norms[norms == 0] = 1.0
        cos = np.round((emb @ qv) / norms, round_to)
        # per-batch partial top-k (keep k best, ties by vec_id)
        order = np.lexsort((ids, -cos))[:k]
        return pd.DataFrame({"vec_id": ids[order], "cosine": cos[order]})

    partials = ds.map_batches(partial, batch_format="numpy")
    top = _top_cosine(partials, k)
    return top


def knn_join_topk(sf_dir: str, n_queries: int = 10, k: int = 3,
                  round_to: int = 6) -> pd.DataFrame:
    """kNN join: for each of the first `n_queries` vectors (by vec_id),
    its top-k OTHER vectors by cosine. Broadcast the small query matrix;
    per-batch partial top-k per query; final reduce per query.

    Output: (query_id, vec_id, cosine)."""
    t = _bottom_n_by_vec_id(sf_dir, n_queries)
    if len(t) == 0:         # empty table → empty join
        return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                             "vec_id": pd.Series([], dtype="int64"),
                             "cosine": pd.Series([], dtype="float64")})
    q_ids = t["vec_id"].to_numpy(dtype=np.int64)
    Q = np.asarray([np.asarray(e, dtype=np.float64) for e in t["embedding"]])
    Qn = Q / np.sqrt((Q * Q).sum(axis=1, keepdims=True))
    q_ref = ray.put((q_ids, Qn))

    ds = read_table(f"{sf_dir}/embeddings.parquet",
                    columns=["vec_id", "embedding"])

    def partial(batch) -> pd.DataFrame:
        qi, qm = ray.get(q_ref) if isinstance(q_ref, ray.ObjectRef) else q_ref
        ids, emb = _batch_matrix(batch)
        norms = np.sqrt((emb * emb).sum(axis=1))
        norms[norms == 0] = 1.0
        cos = np.round((emb @ qm.T) / norms[:, None], round_to)  # (n, nq)
        frames = []
        for j, qid in enumerate(qi):
            mask = ids != qid
            c = cos[mask, j]
            vid = ids[mask]
            order = np.lexsort((vid, -c))[:k]
            frames.append(pd.DataFrame({"query_id": qid, "vec_id": vid[order],
                                        "cosine": c[order]}))
        return pd.concat(frames, ignore_index=True)

    partials = ds.map_batches(partial, batch_format="numpy")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["query_id", "cosine", "vec_id"],
                          ascending=[True, False, True], kind="stable")
        return g.groupby("query_id", sort=False).head(k)[
            ["query_id", "vec_id", "cosine"]]

    return combine(partials, "query_id", final)


# ---------------------------------------------------------------------------
# IVF-bucketed approximate variant (the 100 TB scale path)
# ---------------------------------------------------------------------------

def ivf_topk(sf_dir: str, k: int = 20, query_vec_id: int = 0,
             n_lists: int = 16, nprobe: int = 4,
             round_to: int = 6) -> pd.DataFrame:
    """IVF: deterministic coarse quantizer — the centroids are the
    embeddings of the ``n_lists`` lowest vec_ids (normalized). Each
    vector is assigned to the list whose centroid has the highest
    cosine (rounded to ``round_to``; ties → lowest list id); the query
    probes only the ``nprobe`` closest lists (same rule), then ranks
    the probed vectors by exact cosine to the query.

    The quantizer is deliberately training-free so the whole operator
    is a pure function of the table — same quality knobs as a k-means
    IVF (list count, probe count) but with an exact DuckDB oracle; at
    100 TB the centroid table is broadcast once via ``ray.put`` and the
    assignment stays one matmul per Arrow batch, no shuffle.
    Output: (vec_id, cosine) — k rows."""
    seeds = _bottom_n_by_vec_id(sf_dir, n_lists)
    q = _query_vector(sf_dir, query_vec_id)
    if len(seeds) == 0 or q is None:   # empty table → empty result
        return _empty_topk()
    C = np.asarray([np.asarray(e, dtype=np.float64)
                    for e in seeds["embedding"]])
    cent = C / np.maximum(np.sqrt((C * C).sum(axis=1, keepdims=True)), 1e-12)
    cent_ref = ray.put(cent)

    qn = q / np.sqrt((q * q).sum())
    qcos = np.round(cent @ qn, round_to)
    order = np.lexsort((np.arange(len(cent)), -qcos))[:nprobe]
    probe = set(order.tolist())

    ds = read_table(f"{sf_dir}/embeddings.parquet",
                    columns=["vec_id", "embedding"])

    def partial(batch) -> pd.DataFrame:
        Cm = ray.get(cent_ref) if isinstance(cent_ref, ray.ObjectRef) else cent_ref
        ids, emb = _batch_matrix(batch)
        norms = np.maximum(np.sqrt((emb * emb).sum(axis=1)), 1e-12)
        En = emb / norms[:, None]
        # rounded-cosine argmax, ties → lowest list id (np.argmax = first)
        lists = np.argmax(np.round(En @ Cm.T, round_to), axis=1)
        m = np.isin(lists, list(probe))
        if not m.any():
            return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                 "cosine": pd.Series([], dtype="float64")})
        cos = np.round(En[m] @ qn, round_to)
        ids_m = ids[m]
        order = np.lexsort((ids_m, -cos))[:k]
        return pd.DataFrame({"vec_id": ids_m[order], "cosine": cos[order]})

    partials = ds.map_batches(partial, batch_format="numpy")
    return _top_cosine(partials, k)


def ivf_train_centroids(sf_dir: str, n_lists: int = 16, iters: int = 8,
                        round_to: int = 6) -> np.ndarray:
    """Spherical-k-means-trained IVF quantizer:
    broadcast-assign rounds exactly like stages/embeddings
    .kmeans_embeddings, but with COSINE assignment over normalized
    vectors and per-round centroid renormalization — the quantizer an
    IVF index wants on clustered data (the seeded first-n quantizer
    stays for the exact DuckDB oracle).

    Deterministic: init = the n_lists lowest vec_ids (normalized),
    fixed ``iters`` rounds, ties → lowest list id, per-round rounding
    so partial-sum order can never drift an assignment. Per round only
    (n_lists × dim) sums reach the driver."""
    from .embeddings import _coarse_centroids, _read_embeddings

    # trained centroids are a pure function of (table content, params):
    # cache them content-keyed like the persisted index, so repeated
    # queries skip the 8 training rounds (the "train once" scale story)
    import os

    from ..state.checkpoint import commit_cache_key, content_cache_dir
    src = f"{sf_dir}/embeddings.parquet"
    cdir, valid = content_cache_dir(
        src, "graft_ivf_cent", f"{n_lists}|{iters}|{round_to}|v3")
    cpath = os.path.join(cdir, "centroids.npy")
    if valid and os.path.exists(cpath):
        return np.load(cpath)

    # init from the UNBIASED smallest-md5(vec_id) sample fit (the
    # lowest-vec_id init degraded on source-sorted tables where low ids
    # are one domain); the full-table Lloyd rounds
    # below then refine against every shard
    cent = _coarse_centroids(sf_dir, n_lists)
    if len(cent) == 0:      # empty table → no centroids
        return np.zeros((0, 1))
    ds = _read_embeddings(sf_dir)

    for _ in range(iters):
        c_ref = ray.put(cent)

        def partial(batch, _ref=c_ref) -> pd.DataFrame:
            Cm = ray.get(_ref) if isinstance(_ref, ray.ObjectRef) else _ref
            _, emb = _batch_matrix(batch)
            norms = np.maximum(np.sqrt((emb * emb).sum(axis=1)), 1e-12)
            En = emb / norms[:, None]
            a = np.argmax(np.round(En @ Cm.T, round_to), axis=1)
            sums = np.zeros_like(Cm)
            np.add.at(sums, a, En)
            cnt = np.bincount(a, minlength=len(Cm)).astype(np.float64)
            return pd.DataFrame({
                "c": np.arange(len(Cm), dtype=np.int64),
                "n": cnt,
                "sx": [row.tobytes() for row in sums]})

        parts = ds.map_batches(partial, batch_format="numpy").to_pandas()
        new = cent.copy()
        for c, g in parts.groupby("c"):
            if g["n"].sum() > 0:
                s = np.sum([np.frombuffer(b) for b in g["sx"]], axis=0)
                nrm = np.sqrt((s * s).sum())
                if nrm > 0:
                    new[int(c)] = s / nrm
        cent = np.round(new, 9)
    np.save(cpath, cent)
    commit_cache_key(cdir, src, f"{n_lists}|{iters}|{round_to}|v3")
    return cent


def ivf_topk_trained(sf_dir: str, k: int = 20, query_vec_id: int = 0,
                     n_lists: int = 16, nprobe: int = 4, iters: int = 8,
                     round_to: int = 6) -> pd.DataFrame:
    """``ivf_topk`` with the k-means-TRAINED quantizer: same probe rule,
    candidate selection and exact-cosine ranking, but list assignment
    against trained centroids (better recall on clustered data; see
    tests/test_ann_persisted.py's recall@k assertion vs the brute-force
    ground truth). Not SQL-expressible (iterative training) — verified
    by the recall bound + determinism test instead of a DuckDB oracle.
    Output: (vec_id, cosine) — ≤ k rows."""
    cent = ivf_train_centroids(sf_dir, n_lists, iters, round_to)
    q = _query_vector(sf_dir, query_vec_id)
    if len(cent) == 0 or q is None:    # empty table → empty result
        return _empty_topk()
    cent_ref = ray.put(cent)

    qn = q / np.sqrt((q * q).sum())
    qcos = np.round(cent @ qn, round_to)
    probe = set(np.lexsort((np.arange(len(cent)), -qcos))[:nprobe].tolist())

    ds = read_table(f"{sf_dir}/embeddings.parquet",
                    columns=["vec_id", "embedding"])

    def partial(batch) -> pd.DataFrame:
        Cm = (ray.get(cent_ref)
              if isinstance(cent_ref, ray.ObjectRef) else cent_ref)
        ids, emb = _batch_matrix(batch)
        norms = np.maximum(np.sqrt((emb * emb).sum(axis=1)), 1e-12)
        En = emb / norms[:, None]
        lists = np.argmax(np.round(En @ Cm.T, round_to), axis=1)
        m = np.isin(lists, list(probe))
        if not m.any():
            return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                 "cosine": pd.Series([], dtype="float64")})
        cos = np.round(En[m] @ qn, round_to)
        ids_m = ids[m]
        order = np.lexsort((ids_m, -cos))[:k]
        return pd.DataFrame({"vec_id": ids_m[order], "cosine": cos[order]})

    partials = ds.map_batches(partial, batch_format="numpy")
    return _top_cosine(partials, k)


# ---------------------------------------------------------------------------
# Persisted IVF index (build once, query with partition pruning)
# ---------------------------------------------------------------------------

def _ivf_centroids(sf_dir: str, n_lists: int) -> np.ndarray:
    seeds = _bottom_n_by_vec_id(sf_dir, n_lists)
    if len(seeds) == 0:     # empty table → no centroids
        return np.zeros((0, 1))
    C = np.asarray([np.asarray(e, dtype=np.float64)
                    for e in seeds["embedding"]])
    return C / np.maximum(np.sqrt((C * C).sum(axis=1, keepdims=True)),
                          1e-12)


def ivf_build(sf_dir: str, n_lists: int = 16, round_to: int = 6,
              out_dir: str | None = None) -> str:
    """Persist the IVF inverted lists as list_id-partitioned parquet
    via the checkpointed writer (state/checkpoint.py): the one-time
    index build of the 100-TB plan — list assignment is computed ONCE
    and queries then read only their probed partitions instead of
    re-quantizing the whole table per query. Resumable: committed partitions are skipped on
    re-run. The cache key hashes the table's actual CONTENT (size +
    parquet footer bytes) AND the quantizer params — never the path or
    mtime, so a regenerated fixture copied with `cp -p` still misses —
    and ONE dir per source path bounds /tmp growth.
    Returns the index directory."""
    import os

    from ..state.checkpoint import commit_cache_key, content_cache_dir

    src = f"{sf_dir}/embeddings.parquet"
    params = f"{n_lists}|{round_to}|v3"
    if out_dir is None:
        out_dir, valid = content_cache_dir(src, "graft_ivf", params)
        if not valid:
            # stamp the key at build START so an interrupted build is
            # resumed only against the same content
            commit_cache_key(out_dir, src, params)
    # content-validated dir → a completed build never needs rescanning
    if os.path.exists(os.path.join(out_dir, "_SUCCESS")):
        return out_dir
    cent = _ivf_centroids(sf_dir, n_lists)
    if len(cent) == 0:      # empty table → empty index (no partitions)
        return out_dir
    cent_ref = ray.put(cent)

    ds = read_table(src, columns=["vec_id", "embedding"])

    def assign(batch) -> pd.DataFrame:
        Cm = (ray.get(cent_ref)
              if isinstance(cent_ref, ray.ObjectRef) else cent_ref)
        ids, emb = _batch_matrix(batch)
        norms = np.maximum(np.sqrt((emb * emb).sum(axis=1)), 1e-12)
        En = emb / norms[:, None]
        lists = np.argmax(np.round(En @ Cm.T, round_to), axis=1)
        return pd.DataFrame({"list_id": lists.astype(np.int64),
                             "vec_id": ids,
                             "embedding": list(emb)})

    from ..state.checkpoint import checkpointed_write
    checkpointed_write(ds.map_batches(assign, batch_format="numpy"),
                       out_dir, key="list_id", stage="ivf_build",
                       lineage=src)
    return out_dir


def ivf_topk_persisted(sf_dir: str, k: int = 20, query_vec_id: int = 0,
                       n_lists: int = 16, nprobe: int = 4,
                       round_to: int = 6) -> pd.DataFrame:
    """IVF query against the PERSISTED index: probe lists are computed
    from the broadcastable centroid table, then ONLY those partitions'
    parquet files are read (partition pruning — the scan is
    O(probed lists), not O(table)). Results are identical to
    ``ivf_topk`` (same quantizer, candidates and ranking), so it shares
    the same exact DuckDB oracle."""
    import os

    out_dir = ivf_build(sf_dir, n_lists, round_to)
    cent = _ivf_centroids(sf_dir, n_lists)
    q = _query_vector(sf_dir, query_vec_id)
    if len(cent) == 0 or q is None:    # empty table → empty result
        return _empty_topk()
    qn = q / np.sqrt((q * q).sum())
    qcos = np.round(cent @ qn, round_to)
    probe = np.lexsort((np.arange(len(cent)), -qcos))[:nprobe]
    paths = [p for p in (os.path.join(out_dir, f"part-{int(l)}.parquet")
                         for l in probe) if os.path.exists(p)]
    if not paths:
        return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                             "cosine": pd.Series([], dtype="float64")})
    ds = read_table(paths, columns=["vec_id", "embedding"])

    def partial(batch) -> pd.DataFrame:
        ids, emb = _batch_matrix(batch)
        norms = np.maximum(np.sqrt((emb * emb).sum(axis=1)), 1e-12)
        cos = np.round((emb / norms[:, None]) @ qn, round_to)
        order = np.lexsort((ids, -cos))[:k]
        return pd.DataFrame({"vec_id": ids[order], "cosine": cos[order]})

    partials = ds.map_batches(partial, batch_format="numpy")
    return _top_cosine(partials, k).to_pandas()
