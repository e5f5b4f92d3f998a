"""Embedding-space training-data ops: cosine near-dup, PCA, k-means.

These extend the reference's model-state family (SURVEY.md §2.3:
PrincipalComponentAnalysis.java 929 LoC, kMeansClassification.java 453
LoC — two-phase fit-then-apply / iterative driver loops) onto the graft's
embedding column, and add the exact embedding-cosine near-duplicate pass a
100 TB text pipeline needs next to MinHash/SimHash.

Scale notes (documented partitioning assumptions):
- near-dup: IVF-bucketed exact pair join — coarse-quantize (bounded
  sample fit), duplicate each vector into every list within
  min_angle + 2·arccos(threshold) (provably covers all qualifying
  pairs), groupby(list) → in-bucket matmul. Per-bucket cost
  f·N²/n_lists ≤ N²; at real near-dup thresholds (≥0.9) the
  duplication factor f is small. The shuffle key is the coarse list.
- PCA: one pass of partial (n, Σx, Σxᵀx) per batch → driver eigh of the
  D×D covariance (D small) — the classic partial+final two-phase fit.
- k-means: driver loop of (broadcast centroids → per-batch assign +
  partial per-cluster sums → tiny groupby) rounds; deterministic seeded
  init (first k by vec_id) and fixed iteration count.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd
from ray.data.aggregate import Sum

from ..sources import read_table
from .ann import _batch_matrix
from .util import combine, groupwise_combine


def _read_embeddings(sf_dir: str) -> "rd.Dataset":
    return read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])


def _full_matrix(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    df = t.to_pandas()
    df = df[df["embedding"].notna()]   # null embedding ≡ no geometry
    ids = df["vec_id"].to_numpy()
    emb = np.asarray([np.asarray(e, dtype=np.float64)
                      for e in df["embedding"]])
    order = np.argsort(ids)
    return ids[order], emb[order]


def _sample_vec_ids(sf_dir: str, sample_rows: int) -> np.ndarray:
    """UNBIASED bounded training sample: the
    ``sample_rows`` vec_ids with the smallest md5(vec_id) — a
    content-derived uniform draw that is identical whatever the shard
    layout or file order (the previous first-N-file-order sample was
    biased on source-sorted tables). Distributed: per-batch bottom-n
    partials on the 8-byte id column only; the driver merges
    O(blocks × sample_rows) candidate rows, never embeddings."""
    import hashlib

    ds = read_table(f"{sf_dir}/embeddings.parquet",
                    columns=["vec_id"])

    def partial(batch) -> pd.DataFrame:
        ids = np.asarray(batch["vec_id"], dtype=np.int64)
        h = np.array([hashlib.md5(str(int(i)).encode("ascii"))
                      .hexdigest() for i in ids], dtype=object)
        order = np.argsort(h, kind="stable")[:sample_rows]
        return pd.DataFrame({"vec_id": ids[order], "h": h[order]})

    cand = ds.map_batches(partial, batch_format="numpy").to_pandas()
    if len(cand) == 0:
        return np.zeros(0, dtype=np.int64)
    cand = cand.sort_values(["h", "vec_id"], kind="mergesort")
    return cand["vec_id"].to_numpy(np.int64)[:sample_rows]


def _coarse_centroids(sf_dir: str, n_lists: int, seed: int = 42,
                      sample_rows: int = 2000) -> np.ndarray:
    """IVF coarse quantizer fit on a BOUNDED sample: the smallest-
    md5(vec_id) rows (``_sample_vec_ids`` — uniform across shards, NOT
    file order) + 5 cosine-Lloyd rounds. Fully deterministic and
    content-derived: init = the first ``n_lists`` sample rows in
    md5 order (a uniform permutation, so this IS a random draw —
    ``seed`` is kept for API compatibility and unused); assignment by
    9-dp-rounded cosine argmax (ties → lowest list), update =
    renormalized mean rounded to 9 dp — the kmeans oracle's replay
    discipline, so the whole fit is SQL-expressible.
    Returns (n_lists, D) L2-normalized centroids."""
    import pyarrow.parquet as pq

    ids = _sample_vec_ids(sf_dir, sample_rows)
    if len(ids) == 0:       # empty table → no centroids
        return np.zeros((0, 1))
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "in", ids.tolist())])
    df = t.to_pandas()
    df = df[df["embedding"].notna()]   # null embedding ≡ no geometry
    if len(df) == 0:
        return np.zeros((0, 1))
    # sample order = md5 order (the draw order, id tie-break)
    import hashlib
    df["h"] = [hashlib.md5(str(int(i)).encode("ascii")).hexdigest()
               for i in df["vec_id"]]
    df = df.sort_values(["h", "vec_id"], kind="mergesort")
    X = np.asarray([np.asarray(e, dtype=np.float64)
                    for e in df["embedding"]])
    Xn = X / np.maximum(np.sqrt((X * X).sum(axis=1, keepdims=True)), 1e-12)
    Xn = np.round(Xn, 9)
    # greedy farthest-point init over the sample (Gonzalez — the
    # kcenter_sample rule in cosine space): seed = the smallest-md5
    # row, then repeatedly take the sample vector with the LOWEST
    # max-cosine to the chosen set (ties → earliest draw order).
    # Deterministic and spread-out — measured better Lloyd optima than
    # taking the first n_lists draws.
    k0 = min(n_lists, len(Xn))
    chosen = [0]
    best = np.round(Xn @ Xn[0], 9)
    for _ in range(1, k0):
        nxt = int(np.argmin(best))
        chosen.append(nxt)
        best = np.maximum(best, np.round(Xn @ Xn[nxt], 9))
    cent = Xn[chosen].copy()
    for _ in range(5):
        assign = np.argmax(np.round(Xn @ cent.T, 9), axis=1)
        new = cent.copy()
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                v = Xn[m].sum(axis=0) / m.sum()
                new[c] = v / max(np.sqrt((v * v).sum()), 1e-12)
        cent = np.round(new, 9)
    return cent


def _lowest_k_vectors(sf_dir: str, k: int) -> np.ndarray:
    """The k lowest vec_ids' vectors via per-batch partial bottom-k —
    the distributed fix for 'read the whole table to take k rows'."""
    def partial(batch) -> pd.DataFrame:
        ids, emb = _batch_matrix(batch)
        order = np.argsort(ids)[:k]
        return pd.DataFrame({"vec_id": ids[order],
                             "vec": [emb[i].tobytes() for i in order]})

    df = (_read_embeddings(sf_dir)
          .map_batches(partial, batch_format="numpy").to_pandas())
    if len(df) == 0:        # empty table → no vectors (typed-empty out)
        return np.zeros((0, 1))
    df = df.sort_values("vec_id").head(k)
    return np.vstack([np.frombuffer(b) for b in df["vec"]])


def cosine_neardup_pairs(sf_dir: str, threshold: float = 0.35,
                         n_lists: int = 16, seed: int = 42,
                         round_to: int = 6) -> "rd.Dataset":
    """All pairs (a < b) with cosine ≥ threshold — EXACT, via IVF
    buckets, not a full-matrix broadcast + all-pairs matmul.

    Plan: fit coarse centroids on a bounded sample; every vector is
    assigned HOME = its nearest list, and DUPLICATED as a visitor into
    every list within angle ≤ min_angle + 2·θ_t of it
    (θ_t = arccos(threshold)). Coverage proof: for any qualifying pair
    (a,b), angle(a, c_home(b)) ≤ θ_ab + min_angle(b)
    ≤ θ_ab + θ_ab + min_angle(a) ≤ min_angle(a) + 2θ_t, so ``a`` is
    guaranteed present in b's home bucket. Each bucket matmuls its
    members × its homes and emits a pair exactly once (member id <
    home id). Per-bucket cost is f·N²/n_lists (f = duplication
    factor) — never worse than the single N² matmul, and f → small at
    real near-dup thresholds (≥0.9 → θ_t ≈ 26°). No driver
    materialization, no whole-matrix broadcast; the shuffle key is the
    coarse list id."""
    cent = _coarse_centroids(sf_dir, n_lists, seed)
    if len(cent) == 0:      # empty table → empty pair set
        return rd.from_pandas(pd.DataFrame({
            "doc_a": pd.Series([], dtype="int64"),
            "doc_b": pd.Series([], dtype="int64"),
            "cosine": pd.Series([], dtype="float64")}))
    theta_t = float(np.arccos(np.clip(threshold, -1.0, 1.0)))
    cent_ref = ray.put(cent)

    def assign(batch) -> pd.DataFrame:
        C = ray.get(cent_ref) if isinstance(cent_ref, ray.ObjectRef) \
            else cent_ref
        ids, emb = _batch_matrix(batch)
        norms = np.sqrt((emb * emb).sum(axis=1))
        norms[norms == 0] = 1.0
        En = emb / norms[:, None]
        ang = np.arccos(np.clip(En @ C.T, -1.0, 1.0))
        home = ang.argmin(axis=1)
        radius = ang.min(axis=1) + 2.0 * theta_t + 1e-9
        vi, li = np.nonzero(ang <= radius[:, None])
        return pd.DataFrame({
            "list_id": li.astype(np.int64),
            "role": (li == home[vi]).astype(np.int64),   # 1 = home
            "vec_id": ids[vi],
            "vec": [En[i].tobytes() for i in vi]})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        homes = g[g["role"] == 1]
        if len(homes) == 0 or len(g) == 0:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64"),
                                 "cosine": pd.Series([], dtype="float64")})
        A = np.vstack([np.frombuffer(b) for b in g["vec"]])
        B = np.vstack([np.frombuffer(b) for b in homes["vec"]])
        mid = g["vec_id"].to_numpy()
        hid = homes["vec_id"].to_numpy()
        cos = A @ B.T
        ia, ib = np.nonzero(cos >= threshold)
        keep = mid[ia] < hid[ib]                # emit once: in home(max)
        return pd.DataFrame({
            "doc_a": mid[ia][keep], "doc_b": hid[ib][keep],
            "cosine": np.round(cos[ia, ib][keep], round_to)})

    assigned = _read_embeddings(sf_dir).map_batches(
        assign, batch_format="numpy")
    return combine(assigned, "list_id",
                   groupwise_combine(per_bucket, "list_id"))


def cosine_neardup_stats(sf_dir: str, threshold: float = 0.35,
                         n_lists: int = 16, seed: int = 42,
                         round_to: int = 6) -> pd.DataFrame:
    """Scale diagnostic for ``cosine_neardup_pairs``: one row (n_vectors, n_postings, dup_factor, n_pairs).
    dup_factor = postings/vectors is the ``f`` in the plan's per-bucket
    f·N²/n_lists cost — the number a 100-TB operator watches to decide
    whether the threshold/n_lists pairing keeps the bucket matmuls
    bounded. Counting pass only (no vectors shipped)."""
    cent = _coarse_centroids(sf_dir, n_lists, seed)
    cols = {"n_vectors": pd.Series([0], dtype="int64"),
            "n_postings": pd.Series([0], dtype="int64"),
            "dup_factor": pd.Series([0.0], dtype="float64"),
            "n_pairs": pd.Series([0], dtype="int64")}
    if len(cent) == 0:
        return pd.DataFrame(cols)
    theta_t = float(np.arccos(np.clip(threshold, -1.0, 1.0)))
    cent_ref = ray.put(cent)

    def counts(batch) -> pd.DataFrame:
        C = (ray.get(cent_ref)
             if isinstance(cent_ref, ray.ObjectRef) else cent_ref)
        ids, emb = _batch_matrix(batch)
        if len(ids) == 0:
            return pd.DataFrame({"nv": pd.Series([0], dtype="int64"),
                                 "np_": pd.Series([0], dtype="int64")})
        norms = np.sqrt((emb * emb).sum(axis=1))
        norms[norms == 0] = 1.0
        En = emb / norms[:, None]
        ang = np.arccos(np.clip(En @ C.T, -1.0, 1.0))
        radius = ang.min(axis=1) + 2.0 * theta_t + 1e-9
        return pd.DataFrame({
            "nv": pd.Series([len(ids)], dtype="int64"),
            "np_": pd.Series([int((ang <= radius[:, None]).sum())],
                             dtype="int64")})

    parts = _read_embeddings(sf_dir).map_batches(counts,
                                                 batch_format="numpy")

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        nv = int(df["nv"].sum())
        npost = int(df["np_"].sum())
        return pd.DataFrame({
            "n_vectors": pd.Series([nv], dtype="int64"),
            "n_postings": pd.Series([npost], dtype="int64"),
            "dup_factor": pd.Series(
                [round(npost / nv, round_to) if nv else 0.0],
                dtype="float64"),
            "n_pairs": pd.Series([-1], dtype="int64")})

    out = combine(parts, (), fin).to_pandas()
    if out.empty:
        return pd.DataFrame(cols)
    n_pairs = cosine_neardup_pairs(sf_dir, threshold, n_lists, seed,
                                   round_to).count()
    out["n_pairs"] = np.int64(n_pairs)
    return out


def pca_embeddings(sf_dir: str, k: int = 4, round_to: int = 6) -> pd.DataFrame:
    """Distributed PCA fit: per-batch partial (n, Σx, ΣxᵀX) → driver
    covariance + eigh. Output (component, eigenvalue, explained_ratio) —
    eigen-vectors are sign-ambiguous so only spectra are reported."""
    ds = _read_embeddings(sf_dir)

    def partial(batch) -> pd.DataFrame:
        _, emb = _batch_matrix(batch)
        return pd.DataFrame({
            "n": [float(len(emb))],
            "sx": [emb.sum(axis=0).tobytes()],
            "sxx": [(emb.T @ emb).tobytes()],
        })

    parts = ds.map_batches(partial, batch_format="numpy").to_pandas()
    if len(parts) == 0 or float(parts["n"].sum()) < 2.0:
        # empty / single-row table: covariance undefined (n-1 == 0) —
        # degrade to an empty spectrum instead of inf/LinAlgError
        return pd.DataFrame({
            "component": pd.Series([], dtype="int64"),
            "eigenvalue": pd.Series([], dtype="float64"),
            "explained_ratio": pd.Series([], dtype="float64")})
    d = int(np.sqrt(len(np.frombuffer(parts["sxx"].iloc[0]))))
    n = parts["n"].sum()
    sx = np.sum([np.frombuffer(b) for b in parts["sx"]], axis=0)
    sxx = np.sum([np.frombuffer(b).reshape(d, d) for b in parts["sxx"]], axis=0)
    mean = sx / n
    cov = (sxx - np.outer(sx, mean) - np.outer(mean, sx)
           + n * np.outer(mean, mean)) / (n - 1)
    evals = np.linalg.eigvalsh(cov)[::-1][:k]
    total = np.trace(cov)
    return pd.DataFrame({
        "component": np.arange(k, dtype=np.int64),
        "eigenvalue": np.round(evals, round_to),
        "explained_ratio": np.round(evals / total, round_to)})


def kmeans_embeddings(sf_dir: str, k: int = 8, iters: int = 10,
                      round_to: int = 4) -> pd.DataFrame:
    """Lloyd's k-means as a driver loop of broadcast-assign rounds
    (kMeansClassification.java's iterative structure, distributed).

    Deterministic: init = the k lowest vec_ids' vectors (per-batch
    partial bottom-k + tiny driver combine — only k rows ever reach the
    driver); fixed ``iters`` rounds; ties in assignment go to the
    lowest cluster id (argmin). Output: (cluster_id, n, inertia)."""
    centroids = _lowest_k_vectors(sf_dir, k)
    if len(centroids) == 0:  # empty table → empty clustering
        return pd.DataFrame({
            "cluster_id": pd.Series([], dtype="int64"),
            "n": pd.Series([], dtype="int64"),
            "inertia": pd.Series([], dtype="float64")})
    ds = _read_embeddings(sf_dir)

    for _ in range(iters):
        c_ref = ray.put(centroids)

        def partial(batch, _ref=c_ref) -> pd.DataFrame:
            cents = ray.get(_ref) if isinstance(_ref, ray.ObjectRef) else _ref
            _, x = _batch_matrix(batch)
            d2 = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            a = d2.argmin(axis=1)
            sums = np.zeros_like(cents)
            np.add.at(sums, a, x)
            cnt = np.bincount(a, minlength=len(cents)).astype(np.float64)
            return pd.DataFrame({
                "c": np.arange(len(cents), dtype=np.int64),
                "n": cnt,
                "sx": [row.tobytes() for row in sums],
            })

        parts = ds.map_batches(partial, batch_format="numpy").to_pandas()
        agg = parts.groupby("c")
        for c, g in agg:
            nn = g["n"].sum()
            if nn > 0:
                centroids[int(c)] = np.sum(
                    [np.frombuffer(b) for b in g["sx"]], axis=0) / nn
        # round each broadcast round so partial-sum accumulation order can
        # never drift an assignment across engines/parallelism levels
        centroids = np.round(centroids, 9)

    # final assignment + inertia
    c_ref = ray.put(centroids)

    def final(batch) -> pd.DataFrame:
        cents = ray.get(c_ref) if isinstance(c_ref, ray.ObjectRef) else c_ref
        _, x = _batch_matrix(batch)
        d2 = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        a = d2.argmin(axis=1)
        return pd.DataFrame({
            "cluster_id": np.arange(len(cents), dtype=np.int64),
            "n": np.bincount(a, minlength=len(cents)).astype(np.int64),
            "inertia": np.bincount(a, weights=d2.min(axis=1),
                                   minlength=len(cents))})

    parts = ds.map_batches(final, batch_format="numpy").to_pandas()
    out = parts.groupby("cluster_id", as_index=False).agg(
        n=("n", "sum"), inertia=("inertia", "sum"))
    out["inertia"] = out["inertia"].round(round_to)
    out["n"] = out["n"].astype("int64")
    return out.sort_values("cluster_id").reset_index(drop=True)


def kmeans_naive(sf_dir: str, k: int = 8, iters: int = 10,
                 round_to: int = 4) -> pd.DataFrame:
    """Single-process mirror for tests."""
    ids, emb = _full_matrix(sf_dir)
    cents = emb[:k].copy()
    for _ in range(iters):
        d2 = ((emb[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        a = d2.argmin(axis=1)
        for c in range(k):
            m = a == c
            if m.any():
                cents[c] = emb[m].sum(axis=0) / m.sum()
        cents = np.round(cents, 9)
    d2 = ((emb[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    a = d2.argmin(axis=1)
    return pd.DataFrame({
        "cluster_id": np.arange(k, dtype=np.int64),
        "n": np.bincount(a, minlength=k).astype(np.int64),
        "inertia": np.round(np.bincount(a, weights=d2.min(axis=1),
                                        minlength=k), round_to)})


def inverse_pca_embeddings(sf_dir: str, k: int = 4,
                           round_to: int = 6) -> pd.DataFrame:
    """InversePrincipalComponentAnalysis (WhiteboxGIS/resources/plugins/
    source_files + Scripts — reconstruct the signal from the leading
    components): fit = the pca_embeddings partial-moments pass + driver
    eigh (eigenVECTORS this time, sign fixed deterministically: first
    nonzero coordinate made positive); apply = broadcast (mean,
    components) + one stateless map computing per-batch reconstruction
    moments x̂ = μ + V Vᵀ (x − μ). Output one row
    (k, total_var, recon_error, retained_ratio); rows-only, verified
    against the single-process mirror in tests."""
    ds = _read_embeddings(sf_dir)

    def partial(batch) -> pd.DataFrame:
        _, emb = _batch_matrix(batch)
        return pd.DataFrame({
            "n": [float(len(emb))],
            "sx": [emb.sum(axis=0).tobytes()],
            "sxx": [(emb.T @ emb).tobytes()],
        })

    parts = ds.map_batches(partial, batch_format="numpy").to_pandas()
    if len(parts) == 0 or float(parts["n"].sum()) < 2.0:
        # empty / single-row table: see pca_embeddings
        return pd.DataFrame({
            "k": pd.Series([], dtype="int64"),
            "total_var": pd.Series([], dtype="float64"),
            "recon_error": pd.Series([], dtype="float64"),
            "retained_ratio": pd.Series([], dtype="float64")})
    d = int(np.sqrt(len(np.frombuffer(parts["sxx"].iloc[0]))))
    n = parts["n"].sum()
    sx = np.sum([np.frombuffer(b) for b in parts["sx"]], axis=0)
    sxx = np.sum([np.frombuffer(b).reshape(d, d) for b in parts["sxx"]],
                 axis=0)
    mean = sx / n
    cov = (sxx - np.outer(sx, mean) - np.outer(mean, sx)
           + n * np.outer(mean, mean)) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:k]
    V = evecs[:, order]
    for j in range(V.shape[1]):          # deterministic sign
        nz = np.flatnonzero(np.abs(V[:, j]) > 1e-12)
        if len(nz) and V[nz[0], j] < 0:
            V[:, j] = -V[:, j]
    ref = ray.put((mean, V))

    def recon(batch, _ref=ref) -> pd.DataFrame:
        mu, comp = ray.get(_ref) if isinstance(_ref, ray.ObjectRef) else _ref
        _, x = _batch_matrix(batch)
        xc = x - mu
        err = xc - (xc @ comp) @ comp.T
        return pd.DataFrame({"sse": [float((err ** 2).sum())],
                             "sst": [float((xc ** 2).sum())]})

    stats = ds.map_batches(recon, batch_format="numpy").to_pandas()
    sse = float(stats["sse"].sum())
    sst = float(stats["sst"].sum())
    return pd.DataFrame({
        "k": [k],
        "total_var": [round(sst, round_to)],
        "recon_error": [round(sse, round_to)],
        "retained_ratio": [round(1.0 - sse / sst, round_to)]})


def cluster_attributes(sf_dir: str, k: int = 5, iters: int = 8,
                       round_to: int = 4) -> pd.DataFrame:
    """ClusterAttributes (WhiteboxGIS Scripts — k-means over a feature
    table's ATTRIBUTE vectors instead of imagery): the
    kMeansClassification broadcast-round machinery applied to a
    2-D attribute matrix (c_acctbal, c_nationkey) z-scored per
    attribute (one global-moments pass) so neither dominates.
    Deterministic: init = the k lowest custkeys' vectors, fixed
    ``iters`` rounds, per-round centroid rounding (the
    kmeans_embeddings drift rule). Output (cluster_id, n, inertia);
    rows-only, mirror-tested."""
    import ray

    ds = read_table(f"{sf_dir}/customer.parquet",
                    columns=["c_custkey", "c_acctbal", "c_nationkey"])

    def moments(batch) -> pd.DataFrame:
        a = np.asarray(batch["c_acctbal"], dtype=np.float64)
        nk = np.asarray(batch["c_nationkey"], dtype=np.float64)
        return pd.DataFrame({
            "n": [float(len(a))],
            "sa": [a.sum()], "saa": [(a * a).sum()],
            "sn": [nk.sum()], "snn": [(nk * nk).sum()]})

    mdf = ds.map_batches(moments, batch_format="numpy").to_pandas()
    if len(mdf) == 0 or float(mdf["n"].sum()) == 0.0:
        # empty table → empty clustering (typed, like kmeans_embeddings)
        return pd.DataFrame({
            "cluster_id": pd.Series([], dtype="int64"),
            "n": pd.Series([], dtype="int64"),
            "inertia": pd.Series([], dtype="float64")})
    m = mdf.sum()
    n = m["n"]
    mu = np.array([m["sa"] / n, m["sn"] / n])
    var = np.array([m["saa"] / n - mu[0] ** 2, m["snn"] / n - mu[1] ** 2])
    sd = np.sqrt(np.maximum(var, 1e-30))

    def matrix(batch):
        ids = np.asarray(batch["c_custkey"], dtype=np.int64)
        x = np.stack([
            (np.asarray(batch["c_acctbal"], dtype=np.float64) - mu[0])
            / sd[0],
            (np.asarray(batch["c_nationkey"], dtype=np.float64) - mu[1])
            / sd[1]], axis=1)
        return ids, x

    init = ds.take(k)
    centroids = np.stack([
        np.array([(r["c_acctbal"] - mu[0]) / sd[0],
                  (r["c_nationkey"] - mu[1]) / sd[1]])
        for r in sorted(init, key=lambda r: r["c_custkey"])])

    for _ in range(iters):
        c_ref = ray.put(centroids)

        def partial(batch, _ref=c_ref) -> pd.DataFrame:
            cents = ray.get(_ref) if isinstance(_ref, ray.ObjectRef) \
                else _ref
            _, x = matrix(batch)
            d2 = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            a = d2.argmin(axis=1)
            sums = np.zeros_like(cents)
            np.add.at(sums, a, x)
            cnt = np.bincount(a, minlength=len(cents)).astype(np.float64)
            return pd.DataFrame({
                "c": np.arange(len(cents), dtype=np.int64),
                "n": cnt,
                "sx": [row.tobytes() for row in sums]})

        parts = ds.map_batches(partial, batch_format="numpy").to_pandas()
        for c, g in parts.groupby("c"):
            nn = g["n"].sum()
            if nn > 0:
                centroids[int(c)] = np.sum(
                    [np.frombuffer(b) for b in g["sx"]], axis=0) / nn
        centroids = np.round(centroids, 9)

    c_ref = ray.put(centroids)

    def final(batch, _ref=c_ref) -> pd.DataFrame:
        cents = ray.get(_ref) if isinstance(_ref, ray.ObjectRef) else _ref
        _, x = matrix(batch)
        d2 = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        a = d2.argmin(axis=1)
        # NOTE: partials stay unrounded — rounding per partial would make
        # the summed result depend on batching (parallelism-variant)
        return pd.DataFrame({
            "cluster_id": np.arange(len(cents), dtype=np.int64),
            "n": np.bincount(a, minlength=len(cents)).astype(np.int64),
            "inertia": np.bincount(
                a, weights=d2[np.arange(len(a)), a],
                minlength=len(cents))})

    parts = ds.map_batches(final, batch_format="numpy").to_pandas()
    g = parts.groupby("cluster_id").agg(n=("n", "sum"),
                                        inertia=("inertia", "sum"))
    g["inertia"] = g["inertia"].round(round_to)
    return g.reset_index()
