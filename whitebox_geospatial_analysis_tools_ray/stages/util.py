"""Shared stage helpers."""

from __future__ import annotations


def cluster_cpus() -> int:
    """CPUs in the Ray cluster; 8 when Ray cannot say."""
    try:
        import ray
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


def groupwise_combine(final, keys):
    """Adapt a one-group ``final(g) -> DataFrame`` into a ``combine``
    function: identical per-group arithmetic, deterministic key order."""
    import pandas as pd

    def per_groups(df):
        if len(df) == 0:
            return final(df)
        return pd.concat([final(g) for _, g in df.groupby(keys, sort=True)],
                         ignore_index=True)

    return per_groups


def hier_counter_actor():
    """Instrumentation actor for the hierarchical-recombine guard, so
    tests and benchmarks can show the skew path runs.
    ``combine(..., hier_counter=handle)`` calls
    ``record(bucket_rows, n_slices, max_slice_rows)`` every time a
    bucket takes the hierarchical path."""
    import ray

    @ray.remote(num_cpus=0)
    class _HierCounter:
        def __init__(self):
            self.events = []

        def record(self, bucket_rows: int, n_slices: int,
                   max_slice_rows: int):
            self.events.append((int(bucket_rows), int(n_slices),
                                int(max_slice_rows)))

        def get(self):
            return list(self.events)

    return _HierCounter.remote()


# Partial rows one pandas task combines before ``combine`` fans out. On a
# 1-CPU host a pandas groupby-sum takes 0.03 s over 100 k rows and
# 0.2 s (int keys) / 0.5 s (md5 keys) over 1 M rows, so a 250 k-row task
# stays well under a second while one task per combine keeps small
# inputs free of shuffle scheduling.
COMBINE_TASK_ROWS = 250_000


def combine(ds, keys, fn, recombine=None, *, num_buckets=None,
            max_bucket_rows: int = 4_000_000, hier_counter=None):
    """The engine's one keyed combine: every partial aggregation, top-k,
    keyed reduction and co-group ends here.

    ``fn(df) -> DataFrame`` receives a pandas frame of all rows of one or
    more WHOLE key groups (every row sharing a ``keys`` value arrives in
    the same call)
    and does the per-key work itself, vectorized. Wrap a one-group
    ``final(g)`` with :func:`groupwise_combine`. ``keys=()`` means one
    global group: ``fn`` sees every row in one call.

    Fan-out (``num_buckets=None``) is decided from the data: the input is
    materialized and its row count read (metadata after ``materialize``;
    the all-to-all below materializes it anyway, and the stats chain is
    kept).
      * ``keys=()`` or ≤ ``COMBINE_TASK_ROWS`` rows: one
        ``repartition(1)`` task with ``batch_size=None``. Ray's sort-based
        groupby costs ~1–10 ms of Python per group plus one reduce task
        per block, seconds of fixed wall on a few thousand partial rows.
      * more rows: ``max(4·cluster_cpus(), ceil(rows / COMBINE_TASK_ROWS))``
        hash buckets, so the fan-out grows with the partials (at 100 TB a
        single task would get ~10⁹ flagship partial rows). The buckets
        spread over ``min(buckets, max(4·cluster_cpus(), input blocks))``
        sorted tasks and ``fn`` runs once per task, on whole buckets. The
        task count does not shrink with the input's blocks: a combine fed
        by an earlier one-task combine arrives as one block and still
        gets ≥ 4·CPUs tasks.
    On a 1-CPU host, routing the ~10.6 k partial rows of a 62.5 k-page
    skewed dedup through one task instead of 4 sorted buckets moved
    pages/s from 114/121/102/103 k to 152/144/141/147 k in four
    alternating pairs; the flagship (~7 k partial rows) stayed at
    101/110/91/112 k vs 95/107/106/112 k.

    An explicit ``num_buckets`` always takes the bucketed path. Buckets
    hash the key columns with string keys NUL-escaped first
    (``hash_pandas_object`` merges keys at an embedded NUL, so the same
    key could land in different buckets from different blocks); results
    are invariant to the bucket count.

    When ``recombine(fn_output) -> DataFrame`` is given, a task's input
    above ``max_bucket_rows`` rows is reduced
    hierarchically: key-sorted, sliced on key-group boundaries (a key
    never splits; a single group larger than the cap stays whole), ``fn``
    runs per slice and one ``recombine`` folds the slice outputs. Slices
    hold disjoint key sets, so even per-bucket summary combines (keys
    dropped, as in ``pages_exact_dedup``) stay exact, and the pandas
    hash tables per call stay bounded under key skew. ``hier_counter``
    (a :func:`hier_counter_actor`) receives
    ``record(bucket_rows, n_slices, max_slice_rows)`` per engagement.
    """
    import math

    import numpy as np
    import pandas as pd

    keys = [keys] if isinstance(keys, str) else list(keys)
    if keys:
        ds = ds.materialize()
        rows = ds.count()
        if num_buckets is None and rows > COMBINE_TASK_ROWS:
            num_buckets = max(4 * cluster_cpus(),
                              math.ceil(rows / COMBINE_TASK_ROWS))

    def guarded(g: "pd.DataFrame") -> "pd.DataFrame":
        if recombine is None or not keys or len(g) <= max_bucket_rows:
            return fn(g)
        g = g.sort_values(keys, kind="mergesort", ignore_index=True)
        kdf = g[keys]
        new_key = (kdf != kdf.shift()).any(axis=1).to_numpy()
        new_key[0] = True
        starts = np.flatnonzero(new_key)     # key-group starts
        bounds = [0]
        while bounds[-1] < len(g):
            i = bounds[-1]
            target = i + max_bucket_rows
            if target >= len(g):
                bounds.append(len(g))
                break
            # last group start <= target; if that group began at or
            # before i the CURRENT key alone exceeds the cap — keep it
            # whole (extend to the next group start)
            p = int(np.searchsorted(starts, target, side="right")) - 1
            j = int(starts[p])
            if j <= i:
                nx = int(np.searchsorted(starts, i, side="right"))
                j = int(starts[nx]) if nx < len(starts) else len(g)
            bounds.append(j)
        parts = [fn(g.iloc[a:b]) for a, b in zip(bounds, bounds[1:])]
        if hier_counter is not None:
            import ray
            # synchronous: the event must be recorded before this task
            # completes, or a driver-side get() races ahead of the
            # actor's inbox
            ray.get(hier_counter.record.remote(
                len(g), len(parts),
                max(b - a for a, b in zip(bounds, bounds[1:]))))
        return recombine(pd.concat(parts, ignore_index=True))

    if num_buckets is None or not keys:
        return ds.repartition(1).map_batches(
            guarded, batch_format="pandas", batch_size=None)

    def add_bucket(df: "pd.DataFrame") -> "pd.DataFrame":
        kdf = df[keys]
        esc = {c: escape_nul(kdf[c].astype(str))
               for c in kdf.columns if kdf[c].dtype == object}
        if esc:
            kdf = kdf.assign(**esc)
        h = pd.util.hash_pandas_object(kdf, index=False).to_numpy()
        return df.assign(__bucket__=(h % num_buckets).astype("int64"))

    def per_task(df: "pd.DataFrame") -> "pd.DataFrame":
        return guarded(df.drop(columns="__bucket__"))

    # a sort makes one task per input block and tasks² intermediate
    # objects, so the buckets spread over 4·CPUs tasks, or as many as the
    # partials arrive in when that is more; each sorted block holds whole
    # buckets, and fn runs once per block (one call per bucket would cost
    # Ray's ~1–10 ms per group again)
    tasks = min(num_buckets, max(4 * cluster_cpus(), ds.num_blocks()))
    return (ds.map_batches(add_bucket, batch_format="pandas")
            .repartition(tasks)
            .sort("__bucket__")
            .map_batches(per_task, batch_format="pandas", batch_size=None))


def escape_nul(s):
    """Injective escape that removes embedded NULs from a string Series
    so it can key a pandas ``groupby`` / ``hash_pandas_object``.

    pandas' all-string hashtables key by C string (strlen), so object
    strings with embedded '\\x00' SILENTLY MERGE in groupby/factorize/
    nunique/hash_pandas_object (measured: groupby(['a\\0b','a\\0c'])
    yields ONE group) while value_counts, Python sets/dicts, DuckDB and
    Arrow all treat them as distinct. Real web text contains NUL bytes,
    so every token/ngram groupby must key on the escaped form.
    Escape: '\\x01' -> '\\x01\\x03', then '\\x00' -> '\\x01\\x02'
    (prefix-free, hence injective); ``unescape_nul`` reverses it.
    """
    return (s.str.replace("\x01", "\x01\x03", regex=False)
            .str.replace("\x00", "\x01\x02", regex=False))


def unescape_nul(s):
    """Inverse of ``escape_nul``."""
    return (s.str.replace("\x01\x02", "\x00", regex=False)
            .str.replace("\x01\x03", "\x01", regex=False))


def sql_round(x: float, nd: int) -> float:
    """DuckDB's round(DOUBLE, nd): multiply by 10^nd, round HALF-AWAY
    (std::round), divide back — NOT Python's exact-decimal half-even
    round(). Bit-compatible for every finite double: the tie test uses
    the fractional part ``a - floor(a)``, which is exact, where
    ``floor(v + 0.5)`` is not (v = 0.5 - 2^-54 rounds UP to 1 that way).
    Use when an impl result must hash-match a DuckDB oracle on values
    that land on exact binary .5 ties — raster_to_vector_lines'
    coordinate sums hit k/32-style ties at 4 dp where the two rounding
    modes visibly diverge."""
    import math
    p = 10.0 ** nd
    v = x * p
    a = abs(v)
    r = math.floor(a)
    if a - r >= 0.5:
        r += 1.0
    return math.copysign(r, v) / p


def keyed_group_sum(df, keys, vals, sort=False):
    """The ONE sanctioned way to group-sum on text-derived key columns
    (tokens, terms, ngram/model keys) in ``stages/``: every
    object-dtype key column is NUL-escaped before the pandas groupby
    (whose C-string hashtables silently MERGE keys at the first
    embedded NUL — see :func:`escape_nul`) and the RAW key values are
    restored on the result. Non-object key columns pass through
    untouched, so mixed keys like ``["key", "is_big"]`` work.

    Raw ``.groupby`` on a token-named key anywhere else in ``stages/``
    fails ``tests/test_nul_lint.py``.

    Returns ``df.groupby(keys)[vals].sum().reset_index()`` — vals as
    columns (callers re-``astype`` as needed).
    """
    keys, vals = list(keys), list(vals)
    esc = [c for c in keys if df[c].dtype == object]
    if esc:
        df = df.assign(**{c: escape_nul(df[c].astype(str))
                          for c in esc})
    out = df.groupby(keys, sort=sort)[vals].sum().reset_index()
    for c in esc:
        out[c] = unescape_nul(out[c])
    return out


# ---------------------------------------------------------------------------
# The ORACLE tokenizer whitespace class. DuckDB's RE2 '\s' is exactly
# [\t\n\f\r ] (probed: no \v, no \x1c-\x1f, no U+0085/U+00A0/Unicode
# spaces) while Python's str-mode \s and argless str.strip() cover 19
# codepoints. Every impl tokenizer splits/strips with THESE so text
# carrying exotic whitespace tokenizes identically on both sides
# (9 token-family queries diverged on an NBSP fixture before this;
# pinned by tests/test_ws_boundary_r4.py).
# ---------------------------------------------------------------------------
SQL_WS = "\t\n\f\r "

def sql_ws_re():
    import re
    return re.compile(r"[\t\n\f\r ]+")
