"""General relational pipelines over the TPC-H-ish tables.

These exercise the engine's non-spatial operator surface (scan with
column pruning, vectorized filter/projection, broadcast hash join,
partial+final grouped aggregation, sort/top-k, event-time windowing) —
the same physical patterns the geospatial stages use.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..sources import read_table
from .util import combine, groupwise_combine



def q1_pricing_summary(sf_dir: str, round_to: int = 4) -> "rd.Dataset":
    """TPC-H Q1-style pricing summary over lineitem (filter, computed
    columns, grouped agg). Columns match the SQL oracle exactly."""
    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_shipdate"])

    cutoff = pa.scalar(pd.Timestamp("1998-09-02"), type=pa.timestamp("us"))

    def partial(t: pa.Table) -> pd.DataFrame:
        t = t.filter(pc.less_equal(t["l_shipdate"], cutoff))
        disc = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        df = pd.DataFrame({
            "l_returnflag": t["l_returnflag"].to_pandas(),
            "l_linestatus": t["l_linestatus"].to_pandas(),
            "qty": t["l_quantity"].to_numpy(),
            "base": t["l_extendedprice"].to_numpy(),
            "disc": disc.to_numpy(),
        })
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False)
        return g.agg(qty=("qty", "sum"), base=("base", "sum"),
                     disc=("disc", "sum"), n=("qty", "count")).reset_index()

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=True).agg(
            sum_qty=("qty", "sum"), sum_base_price=("base", "sum"),
            sum_disc_price=("disc", "sum"),
            count_order=("n", "sum")).reset_index()
        for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
            g[c] = g[c].round(round_to)
        g["count_order"] = g["count_order"].astype("int64")
        return g

    return combine(partials, ["l_returnflag", "l_linestatus"], fold)


def revenue_by_nation(sf_dir: str, round_to: int = 4) -> "rd.Dataset":
    """customer ⋈ orders ⋈ nation revenue rollup. The dimension side
    (customer×nation, small) is broadcast via ray.put and joined inside
    map_batches with a numpy searchsorted lookup — no shuffle join."""
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"]).to_pandas()
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"]).to_pandas()
    dim = cust.merge(nat, left_on="c_nationkey", right_on="n_nationkey")
    dim = dim.sort_values("c_custkey")
    keys = dim["c_custkey"].to_numpy(dtype=np.int64)
    names = dim["n_name"].to_numpy()
    if len(keys) == 0:      # empty build side -> empty join
        return pd.DataFrame({"n_name": pd.Series([], dtype="object"),
                             "revenue": pd.Series([], dtype="float64"),
                             "n_orders": pd.Series([], dtype="int64")})
    dim_ref = ray.put((keys, names))

    orders = read_table(f"{sf_dir}/orders.parquet",
                        columns=["o_custkey", "o_totalprice"])

    def join(batch) -> pd.DataFrame:
        k, nm = ray.get(dim_ref) if isinstance(dim_ref, ray.ObjectRef) else dim_ref
        ck = np.asarray(batch["o_custkey"], dtype=np.int64)
        pos = np.searchsorted(k, ck)
        pos = np.clip(pos, 0, len(k) - 1)
        hit = k[pos] == ck
        df = pd.DataFrame({"n_name": nm[pos][hit],
                           "price": np.asarray(batch["o_totalprice"])[hit]})
        g = df.groupby("n_name", sort=False)["price"]
        return g.agg(revenue="sum", n_orders="count").reset_index()

    partials = orders.map_batches(join, batch_format="numpy")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("n_name", sort=True).agg(
            revenue=("revenue", "sum"),
            n_orders=("n_orders", "sum")).reset_index()
        g["revenue"] = g["revenue"].round(round_to)
        g["n_orders"] = g["n_orders"].astype("int64")
        return g

    return combine(partials, "n_name", fold)


def top_parts_by_price(sf_dir: str, k: int = 15) -> "rd.Dataset":
    """Global top-k: parts by retail price desc, tie-break p_partkey asc."""
    ds = read_table(f"{sf_dir}/part.parquet",
                    columns=["p_partkey", "p_name", "p_retailprice"])
    return ds.sort(["p_retailprice", "p_partkey"],
                   descending=[True, False]).limit(k)


def events_tumbling_window(sf_dir: str, window_sec: int = 3600,
                           round_to: int = 6) -> "rd.Dataset":
    """Event-time tumbling window per event_type: count + sum(value).

    Window id = floor(epoch_us(ts) / (window_sec * 1e6)) — identical in
    the SQL oracle. Partial per-batch combine → groupby final."""
    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["ts", "event_type", "value"])
    wus = window_sec * 1_000_000

    def partial(t: pa.Table) -> pd.DataFrame:
        epoch = pc.cast(t["ts"], pa.int64()).to_numpy()
        win = epoch // wus
        df = pd.DataFrame({"event_type": t["event_type"].to_pandas(),
                           "window_id": win,
                           "value": t["value"].to_numpy()})
        g = df.groupby(["event_type", "window_id"], sort=False)["value"]
        return g.agg(n="count", s="sum").reset_index()

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["event_type", "window_id"], sort=True).agg(
            n_events=("n", "sum"), sum_value=("s", "sum")).reset_index()
        g["n_events"] = g["n_events"].astype("int64")
        g["sum_value"] = g["sum_value"].round(round_to)
        return g

    return combine(partials, ["event_type", "window_id"], fold)


def user_sessions(sf_dir: str, gap_sec: int = 1800) -> "rd.Dataset":
    """Session windows per user (gap-based): ``util.combine`` keyed on
    user_id; each user's group is sorted by ts and splits on gaps > gap_sec.
    Output: (user_id, n_sessions, n_events, max_session_events)."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        ts = np.sort(g["ts"].astype("int64").to_numpy())
        gaps = np.diff(ts) > gap_sec * 1_000_000
        n_sessions = 1 + int(gaps.sum())
        bounds = np.concatenate([[0], np.nonzero(gaps)[0] + 1, [len(ts)]])
        sizes = np.diff(bounds)
        return pd.DataFrame({"user_id": [int(g["user_id"].iloc[0])],
                             "n_sessions": [n_sessions],
                             "n_events": [len(ts)],
                             "max_session_events": [int(sizes.max())]})

    return combine(ds, "user_id", groupwise_combine(sessions, "user_id"))


def distinct_event_types(sf_dir: str) -> "rd.Dataset":
    """ListUniqueValues (Scripts/ListUniqueValues.groovy): distinct values
    + counts of an attribute."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type"])

    def partial(t: pa.Table) -> pd.DataFrame:
        vc = t["event_type"].to_pandas().value_counts()
        return pd.DataFrame({"event_type": vc.index, "c": vc.to_numpy()})

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_type", sort=True)["c"].sum().reset_index()
        return g.rename(columns={"c": "n"}).astype({"n": "int64"})

    return combine(partials, "event_type", fold)


def attribute_histogram(sf_dir: str):
    """AttributeHistogram (StatsTools family): integer-bin histogram of
    the documents n_chars attribute (bin = n_chars // 100). Partial
    bincounts per block → one bounded-key combine in a single pandas
    task (the repo's small-final rule)."""
    import numpy as np
    import pandas as pd

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["n_chars"])

    def partial(batch):
        b = np.asarray(batch["n_chars"], dtype=np.int64) // 100
        bins, counts = np.unique(b, return_counts=True)
        return {"bin": bins, "c": counts.astype(np.int64)}

    parts = ds.map_batches(partial, batch_format="numpy").to_pandas()
    if len(parts) == 0:     # empty table -> typed empty histogram
        return pd.DataFrame({"bin": pd.Series([], dtype="int64"),
                             "n_docs": pd.Series([], dtype="int64")})
    out = parts.groupby("bin", as_index=False)["c"].sum()
    return pd.DataFrame({"bin": out["bin"].astype(np.int64),
                         "n_docs": out["c"].astype(np.int64)})


def attribute_histogram_sql() -> str:
    return """
SELECT n_chars // 100 AS bin, CAST(count(*) AS BIGINT) AS n_docs
FROM documents GROUP BY 1
"""


def attribute_correlation(sf_dir: str):
    """CorrelationForAttributes (StatsTools/src/plugins/
    CorrelationForAttributes.java:226-263): Pearson r between two
    attribute fields — here n_chars and the derived field
    n_chars % 97. All moments are exact int64 partial sums (one
    map_batches pass + driver combine), so r's double arithmetic is
    bit-identical to SQL."""
    import numpy as np
    import pandas as pd

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["n_chars"])

    def partial(batch):
        x = np.asarray(batch["n_chars"], dtype=np.int64)
        y = x % 97
        return {"n": np.array([len(x)], dtype=np.int64),
                "sx": np.array([x.sum()]), "sy": np.array([y.sum()]),
                "sxx": np.array([(x * x).sum()]),
                "syy": np.array([(y * y).sum()]),
                "sxy": np.array([(x * y).sum()])}

    pdf = ds.map_batches(partial, batch_format="numpy").to_pandas()
    if len(pdf) == 0 or float(pdf["n"].sum()) < 2.0:
        # empty / single row: correlation undefined -> typed empty
        return pd.DataFrame({"n": pd.Series([], dtype="int64"),
                             "pearson_r": pd.Series([], dtype="float64")})
    p = pdf.sum()
    n = float(p["n"])
    cov = float(p["sxy"]) - float(p["sx"]) * float(p["sy"]) / n
    dx = float(p["sxx"]) - float(p["sx"]) * float(p["sx"]) / n
    dy = float(p["syy"]) - float(p["sy"]) * float(p["sy"]) / n
    r = cov / np.sqrt(dx * dy)
    return pd.DataFrame({"n": [np.int64(p["n"])],
                         "pearson_r": [round(float(r), 6)]})


def attribute_correlation_sql() -> str:
    return """
WITH m AS (SELECT CAST(count(*) AS BIGINT) AS n,
  SUM(n_chars) AS sx, SUM(n_chars % 97) AS sy,
  SUM(n_chars * n_chars) AS sxx,
  SUM((n_chars % 97) * (n_chars % 97)) AS syy,
  SUM(n_chars * (n_chars % 97)) AS sxy
FROM documents)
SELECT n,
  round((CAST(sxy AS DOUBLE) - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE)
             / CAST(n AS DOUBLE))
        / sqrt((CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)
                    / CAST(n AS DOUBLE))
               * (CAST(syy AS DOUBLE) - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)
                    / CAST(n AS DOUBLE))), 6) AS pearson_r
FROM m
WHERE n >= 2
"""


# ---------------------------------------------------------------------------
# Large×large shuffle hash join (SURVEY §2.4's "ds.join hash
# join when both sides large"; JoinTables.groovy:162-173 is broadcast-only
# in the reference, this is the scale path it lacks).
# ---------------------------------------------------------------------------

def shuffle_hash_join(left: "rd.Dataset", right: "rd.Dataset",
                      left_on: str, right_on: str,
                      salt: int = 1) -> "rd.Dataset":
    """Distributed inner equi-join: both sides are tagged with the join
    key and co-grouped by ``util.combine``, one pandas merge per group
    of whole keys. Neither side is broadcast.

    Skew handling: ``salt > 1`` splits every key into ``salt``
    sub-groups — LEFT rows are scattered by row position, RIGHT rows
    are replicated to all sub-groups — so a hot key's work is bounded
    by left_count/salt per group at the cost of ×salt right
    duplication (pick the smaller table as RIGHT)."""
    import pandas as pd
    import pyarrow as pa

    on = ["__key", "__salt"]
    lcols = [c for c in left.schema().names]
    rcols = [c for c in right.schema().names]

    # the two tagged streams are UNIONed, so both must emit the SAME
    # schema — each side fills the other side's columns with typed
    # defaults (sliced away again per side inside merge)
    def _default(t):
        if pa.types.is_integer(t):
            return np.int64(0)
        if pa.types.is_floating(t):
            return np.float64(0.0)
        return ""

    ltypes = dict(zip(left.schema().names, left.schema().types))
    rtypes = dict(zip(right.schema().names, right.schema().types))
    allcols = lcols + [c for c in rcols if c not in lcols]

    def _pad(out: pd.DataFrame, own_types) -> pd.DataFrame:
        for c in allcols:
            if c not in out.columns:
                t = rtypes.get(c, ltypes.get(c))
                out[c] = _default(t)
        return out[allcols + on + ["__side"]]

    def tag_left(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        out["__key"] = batch[left_on].to_numpy().astype(np.int64)
        out["__salt"] = np.arange(len(batch), dtype=np.int64) % salt
        out["__side"] = np.int64(0)
        return _pad(out, ltypes)

    def tag_right(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for sgrain in range(salt):
            f = batch.copy()
            f["__key"] = batch[right_on].to_numpy().astype(np.int64)
            f["__salt"] = np.int64(sgrain)
            f["__side"] = np.int64(1)
            frames.append(f)
        return _pad(pd.concat(frames, ignore_index=True), rtypes)

    lt = left.map_batches(tag_left, batch_format="pandas")
    rt = right.map_batches(tag_right, batch_format="pandas")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        ls = g.loc[g["__side"] == 0, lcols + on]
        rs = g.loc[g["__side"] == 1, [c for c in rcols if c != right_on] + on]
        return ls.merge(rs, on=on, how="inner").drop(columns=on)

    return combine(lt.union(rt), on, merge)


def orders_lineitem_join(sf_dir: str, round_to: int = 4,
                         salt: int = 1) -> "rd.Dataset":
    """join_large: orders ⋈ lineitem on orderkey — both sides large, no
    broadcast — aggregated to (o_orderpriority, n_items, revenue).
    Exact SQL oracle."""
    orders = read_table(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_orderpriority"])
    items = read_table(f"{sf_dir}/lineitem.parquet",
                       columns=["l_orderkey", "l_extendedprice"])
    joined = shuffle_hash_join(orders, items, "o_orderkey", "l_orderkey",
                               salt=salt)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("o_orderpriority", sort=False)
        return g.agg(n=("l_extendedprice", "count"),
                     rev=("l_extendedprice", "sum")).reset_index()

    parts = joined.map_batches(partial, batch_format="pandas")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_orderpriority", sort=True).agg(
            n_items=("n", "sum"), rev=("rev", "sum")).reset_index()
        g["n_items"] = g["n_items"].astype("int64")
        g["revenue"] = g["rev"].round(round_to)
        return g.drop(columns=["rev"])

    return combine(parts, "o_orderpriority", fold)


def orders_lineitem_join_sql(round_to: int = 4) -> str:
    return f"""
SELECT o.o_orderpriority,
       CAST(count(*) AS BIGINT) AS n_items,
       round(sum(l.l_extendedprice), {round_to}) AS revenue
FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority
"""


def events_asof_join(sf_dir: str, left_type: str = "purchase",
                     right_type: str = "signup") -> "rd.Dataset":
    """Per-user AS-OF join over the event stream — the custom operator
    the Dataset API lacks (SURVEY §2.11 / the graft brief's named
    example): for every ``left_type`` event, the latest STRICTLY
    PRIOR ``right_type`` event of the same user, and the gap.

    Plan: one pruned read, hash-bucket by user_id (bounded bucket
    key), then ONE vectorized ``searchsorted`` per bucket over
    dense-rank composite keys (user_rank × M + ts_rank — both ranks
    local to the bucket, so the key always fits int64): candidate =
    first right-key ≥ (user, left_ts_rank), minus one; strictly-prior
    semantics falls out of ranking ties together. No per-user Python
    loop. Partitioning assumption (documented): one user's events fit
    one bucket's task — the standard as-of-join co-location; a
    pathological mega-user would need time-sliced carry like the
    banded raster fixed points.

    Output: (event_id, user_id, has_prior, gap_us) — gap in integer
    microseconds (exact), -1 when no prior right event exists.
    """
    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["event_id", "ts", "user_id",
                             "event_type"])

    def to_events(t: "pa.Table") -> pd.DataFrame:
        et = t["event_type"].to_pandas()
        keep = (et == left_type) | (et == right_type)
        return pd.DataFrame({
            "event_id": t["event_id"].to_numpy()[keep],
            "ts_us": pc.cast(t["ts"], pa.int64()).to_numpy()[keep],
            "user_id": t["user_id"].to_numpy()[keep],
            "is_left": (et[keep] == left_type).to_numpy()})

    def asof_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out_empty = pd.DataFrame({
            "event_id": pd.Series([], dtype="int64"),
            "user_id": pd.Series([], dtype="int64"),
            "has_prior": pd.Series([], dtype="int64"),
            "gap_us": pd.Series([], dtype="int64")})
        lf = g[g["is_left"]]
        rt = g[~g["is_left"]]
        if len(lf) == 0:
            return out_empty
        # dense ranks local to the bucket
        u_all = np.concatenate([lf["user_id"].to_numpy(),
                                rt["user_id"].to_numpy()])
        t_all = np.concatenate([lf["ts_us"].to_numpy(),
                                rt["ts_us"].to_numpy()])
        uu, u_rank = np.unique(u_all, return_inverse=True)
        tt, t_rank = np.unique(t_all, return_inverse=True)
        M = np.int64(len(tt) + 1)
        key = u_rank.astype(np.int64) * M + t_rank.astype(np.int64)
        lkey, rkey = key[:len(lf)], key[len(lf):]
        order = np.argsort(rkey, kind="mergesort")
        rkey_s = rkey[order]
        rts_s = rt["ts_us"].to_numpy()[order]
        ruser_s = rt["user_id"].to_numpy()[order]
        # first right >= (user, left_ts_rank) — ties rank together, so
        # idx-1 is the latest STRICTLY prior right event
        idx = np.searchsorted(rkey_s, lkey, side="left") - 1
        luser = lf["user_id"].to_numpy()
        lts = lf["ts_us"].to_numpy()
        valid = idx >= 0
        same_user = np.zeros(len(lf), dtype=bool)
        same_user[valid] = ruser_s[idx[valid]] == luser[valid]
        gap = np.full(len(lf), -1, dtype=np.int64)
        gap[same_user] = lts[same_user] - rts_s[idx[same_user]]
        return pd.DataFrame({
            "event_id": lf["event_id"].to_numpy(),
            "user_id": luser,
            "has_prior": same_user.astype(np.int64),
            "gap_us": gap})

    return combine(ds.map_batches(to_events, batch_format="pyarrow"),
                   "user_id", asof_in_bucket)


def events_sliding_window(sf_dir: str, window_sec: int = 3600,
                          hop_sec: int = 900,
                          round_to: int = 6) -> "rd.Dataset":
    """Event-time SLIDING (hopping) window per event_type — the
    overlapping-window companion of ``events_tumbling_window``: each
    event lands in window_sec / hop_sec consecutive windows
    (window w covers [w·hop, w·hop + window)).

    Plan: stateless fan-out of window_sec/hop_sec vectorized passes per
    batch (each event emits its covering window ids — a constant
    factor, never a shuffle of raw events), per-batch partial
    (event_type, window_id) combine → bounded final. Timestamps stay
    integer µs, so window membership is exact.

    Output: (event_type, window_id, n_events, sum_value)."""
    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["ts", "event_type", "value"])
    wus = window_sec * 1_000_000
    hus = hop_sec * 1_000_000
    k = window_sec // hop_sec

    def partial(t: "pa.Table") -> pd.DataFrame:
        us = pc.cast(t["ts"], pa.int64()).to_numpy()
        et = t["event_type"].to_pandas().to_numpy()
        val = t["value"].to_numpy()
        hi = us // hus
        lo = (us - wus) // hus + 1
        frames = []
        for o in range(k):
            wid = hi - o
            keep = wid >= lo
            frames.append(pd.DataFrame({"event_type": et[keep],
                                        "window_id": wid[keep],
                                        "value": val[keep]}))
        df = pd.concat(frames, ignore_index=True)
        g = df.groupby(["event_type", "window_id"], sort=False)["value"]
        return g.agg(n="count", s="sum").reset_index()

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["event_type", "window_id"], sort=True).agg(
            n_events=("n", "sum"), sum_value=("s", "sum")).reset_index()
        g["n_events"] = g["n_events"].astype("int64")
        g["sum_value"] = g["sum_value"].round(round_to)
        return g

    return combine(partials, ["event_type", "window_id"], fold)


def events_retention(sf_dir: str,
                     week_us: int = 7 * 24 * 3600 * 1_000_000
                     ) -> "rd.Dataset":
    """Cohort retention over the event stream: users are cohorted by
    the calendar week (fixed unix-epoch weeks, so the cohort key is a
    pure function of the timestamp) of their FIRST event; for every
    (cohort_week, week_offset) the count of cohort users active in
    cohort_week + offset. The classic product-analytics retention
    triangle, all integer arithmetic — exact.

    Plan: per-user hash-bucket co-location (the as-of join's plan);
    per bucket a vectorized first-week + distinct-(user, week) pandas
    pass emits (cohort, offset) count partials; weeks-span-bounded
    combine. No per-user Python loop, no payload shuffle.

    Output: (cohort_week, week_offset, n_users) — ordered.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["ts", "user_id"])

    def to_weeks(t: "pa.Table") -> pd.DataFrame:
        return pd.DataFrame({
            "wk": pc.cast(t["ts"], pa.int64()).to_numpy() // week_us,
            "user_id": t["user_id"].to_numpy()})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "cohort_week": pd.Series([], dtype="int64"),
                "week_offset": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64")})
        uw = g[["user_id", "wk"]].drop_duplicates()
        first = uw.groupby("user_id")["wk"].min().rename("cw")
        uw = uw.merge(first.reset_index(), on="user_id")
        uw["off"] = uw["wk"] - uw["cw"]
        out = (uw.groupby(["cw", "off"]).size().rename("n")
               .reset_index())
        return out.rename(columns={"cw": "cohort_week",
                                   "off": "week_offset"}).astype("int64")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                "cohort_week": pd.Series([], dtype="int64"),
                "week_offset": pd.Series([], dtype="int64"),
                "n_users": pd.Series([], dtype="int64")})
        g = (df.groupby(["cohort_week", "week_offset"], sort=True)["n"]
             .sum().rename("n_users").reset_index())
        return g.astype("int64")

    partials = combine(ds.map_batches(to_weeks, batch_format="pyarrow"),
                       "user_id", per_bucket)
    return combine(partials, ["cohort_week", "week_offset"], fold)


def events_interval_join(sf_dir: str, left_type: str = "error",
                         right_type: str = "click",
                         before_us: int = 3600 * 1_000_000,
                         after_us: int = 3600 * 1_000_000
                         ) -> "rd.Dataset":
    """Per-user INTERVAL join over the event stream — the second
    custom join the Dataset API lacks (the as-of join's sibling): for
    every ``left_type`` event, the number of ``right_type`` events of
    the same user with ts ∈ [left_ts − before, left_ts + after].
    All integer microseconds — exact.

    Plan: per-user hash-bucket co-location; per bucket, rights are
    sorted ONCE per (user, ts) composite rank key and every left
    resolves with two vectorized ``searchsorted`` probes (count =
    upper − lower) — no per-event loop, no range-join blowup: output
    is one row per left event regardless of match counts.

    Output: (event_id, user_id, n_right) — ordered by event_id.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["event_id", "ts", "user_id",
                             "event_type"])

    def to_events(t: "pa.Table") -> pd.DataFrame:
        et = t["event_type"].to_pandas()
        keep = ((et == left_type) | (et == right_type)).to_numpy()
        return pd.DataFrame({
            "event_id": t["event_id"].to_numpy()[keep],
            "ts_us": pc.cast(t["ts"], pa.int64()).to_numpy()[keep],
            "user_id": t["user_id"].to_numpy()[keep],
            "is_left": (et[keep] == left_type).to_numpy()})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "event_id": pd.Series([], dtype="int64"),
            "user_id": pd.Series([], dtype="int64"),
            "n_right": pd.Series([], dtype="int64")})
        lf = g[g["is_left"]]
        if len(lf) == 0:
            return empty
        rt = g[~g["is_left"]]
        luser = lf["user_id"].to_numpy()
        lts = lf["ts_us"].to_numpy()
        if len(rt) == 0:
            return pd.DataFrame({
                "event_id": lf["event_id"].to_numpy(),
                "user_id": luser,
                "n_right": np.zeros(len(lf), dtype=np.int64)})
        # composite (user_rank, time_rank) key — BOTH factors are dense
        # ranks local to the bucket (the as-of join's trick), so the
        # int64 product is bounded by bucket_rows² and can never
        # overflow, unlike a (user_rank × raw-time-span) key which
        # breaks at ~1e6 users × year-wide windows. Probe times that
        # are not event times rank via searchsorted on the same time
        # table: rank(x, left) ≤ rank(t) iff t ≥ x, and
        # rank(t) < rank(x, right) iff t ≤ x — inclusive both ends.
        ruser = rt["user_id"].to_numpy()
        rts = rt["ts_us"].to_numpy()
        uu = np.unique(np.concatenate([luser, ruser]))
        lu = np.searchsorted(uu, luser).astype(np.int64)
        ru = np.searchsorted(uu, ruser).astype(np.int64)
        tt = np.unique(rts)
        M = np.int64(len(tt) + 2)
        rkey = ru * M + np.searchsorted(tt, rts).astype(np.int64)
        rkey.sort()
        lo_rank = np.searchsorted(tt, lts - before_us,
                                  side="left").astype(np.int64)
        hi_rank = np.searchsorted(tt, lts + after_us,
                                  side="right").astype(np.int64)
        lo = np.searchsorted(rkey, lu * M + lo_rank, side="left")
        hi = np.searchsorted(rkey, lu * M + hi_rank, side="left")
        return pd.DataFrame({
            "event_id": lf["event_id"].to_numpy(),
            "user_id": luser,
            "n_right": (hi - lo).astype(np.int64)})

    # row order is unspecified (a global sort would be a semantically
    # unneeded all-to-all over one-row-per-left-event output)
    return combine(ds.map_batches(to_events, batch_format="pyarrow"),
                   "user_id", per_bucket)


def q6_forecast_revenue(sf_dir: str, round_to: int = 4) -> pd.DataFrame:
    """TPC-H Q6-style forecasting-revenue-change: one filtered scan of
    lineitem, Σ l_extendedprice·l_discount over a date/discount/
    quantity band. Pure stateless partial-sum map + one-row fold —
    the cheapest possible plan shape (predicate pushdown candidates
    ride the parquet row-group stats at scale).

    Output: one row (revenue, n_items)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount", "l_quantity",
                 "l_shipdate"])
    lo = pa.scalar(pd.Timestamp("1996-01-01"), type=pa.timestamp("us"))
    hi = pa.scalar(pd.Timestamp("1997-01-01"), type=pa.timestamp("us"))

    def partial(t: "pa.Table") -> pd.DataFrame:
        m = pc.and_(pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                            pc.less(t["l_shipdate"], hi)),
                    pc.and_(pc.and_(
                        pc.greater_equal(t["l_discount"], pa.scalar(0.05)),
                        pc.less_equal(t["l_discount"], pa.scalar(0.07))),
                        pc.less(t["l_quantity"], pa.scalar(24.0))))
        t = t.filter(m)
        rev = pc.sum(pc.multiply(t["l_extendedprice"],
                                 t["l_discount"])).as_py() or 0.0
        return pd.DataFrame({"rev": pd.Series([rev], dtype="float64"),
                             "n": pd.Series([t.num_rows],
                                            dtype="int64")})

    parts = ds.map_batches(partial, batch_format="pyarrow")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        rev = float(df["rev"].sum()) if len(df) else 0.0
        n = int(df["n"].sum()) if len(df) else 0
        return pd.DataFrame({"revenue": [round(rev, round_to)],
                             "n_items": pd.Series([n], dtype="int64")})

    return final(parts.to_pandas())


def q3_shipping_priority(sf_dir: str, segment: str = "BUILDING",
                         cutoff: str = "1997-01-01", k: int = 10,
                         round_to: int = 4) -> pd.DataFrame:
    """TPC-H Q3-style shipping priority: top-k open orders of a market
    segment by pending revenue (o_orderdate < cutoff, l_shipdate >
    cutoff). Plan: the SEGMENT's qualifying orders (orderkey →
    orderdate) are a filtered broadcast side (the c_custkey set folds
    in during the same driver prep — both dimension-sized); lineitem
    then streams once, keying revenue partials by orderkey; per-key
    sums must COMPLETE before top-k, so the combine is the bucketed
    unbounded-key shuffle with a lossless per-bucket top-k prune.
    (At a scale where the qualifying orders stop fitting a broadcast,
    the shuffle hash join — stages/relational.join_large — replaces
    the lookup; the aggregation shape is unchanged.)

    Output: (l_orderkey, revenue, o_orderdate) — k rows, revenue desc,
    orderkey asc."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    cut = pd.Timestamp(cutoff)
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    ckeys = cust.filter(pc.equal(cust["c_mktsegment"], segment)
                        )["c_custkey"].to_numpy()
    orders = pq.read_table(f"{sf_dir}/orders.parquet",
                           columns=["o_orderkey", "o_custkey",
                                    "o_orderdate"])
    om = orders.filter(pc.and_(
        pc.is_in(orders["o_custkey"], value_set=pa.array(ckeys)),
        pc.less(orders["o_orderdate"],
                pa.scalar(cut, type=pa.timestamp("us")))))
    okeys = om["o_orderkey"].to_numpy()
    odates = om["o_orderdate"].to_numpy()
    order_sort = np.argsort(okeys)
    okeys, odates = okeys[order_sort], odates[order_sort]
    empty = pd.DataFrame({
        "l_orderkey": pd.Series([], dtype="int64"),
        "revenue": pd.Series([], dtype="float64"),
        "o_orderdate": pd.Series([], dtype="datetime64[us]")})
    if len(okeys) == 0:
        return empty
    side = ray.put((okeys, odates))

    li = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_orderkey", "l_extendedprice",
                             "l_discount", "l_shipdate"])
    cut_sc = pa.scalar(cut, type=pa.timestamp("us"))

    def partial(t: "pa.Table") -> pd.DataFrame:
        ok, _od = ray.get(side) if isinstance(side, ray.ObjectRef) \
            else side
        t = t.filter(pc.greater(t["l_shipdate"], cut_sc))
        lk = t["l_orderkey"].to_numpy()
        pos = np.searchsorted(ok, lk)
        hit = (pos < len(ok)) & (ok[np.minimum(pos, len(ok) - 1)] == lk)
        if not hit.any():
            return pd.DataFrame({"l_orderkey": pd.Series([],
                                                         dtype="int64"),
                                 "rev": pd.Series([], dtype="float64")})
        rev = (t["l_extendedprice"].to_numpy()[hit]
               * (1.0 - t["l_discount"].to_numpy()[hit]))
        d = pd.DataFrame({"l_orderkey": lk[hit], "rev": rev})
        return (d.groupby("l_orderkey", sort=False)["rev"].sum()
                .reset_index())

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        # full per-orderkey sums complete inside the bucket, THEN the
        # lossless top-k prune (global top-k ⊆ union of bucket top-k)
        g = (df.groupby("l_orderkey", sort=False)["rev"].sum()
             .reset_index())
        g["revenue"] = g["rev"].round(round_to)
        g = g.sort_values(["revenue", "l_orderkey"],
                          ascending=[False, True]).head(k)
        return g[["l_orderkey", "revenue"]].astype(
            {"l_orderkey": "int64"})

    parts = combine(li.map_batches(partial, batch_format="pyarrow"),
                    "l_orderkey", comb).to_pandas()

    def final(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return empty
        ok, od = okeys, odates
        g = (df.sort_values(["revenue", "l_orderkey"],
                            ascending=[False, True]).head(k)
             .reset_index(drop=True))
        pos = np.searchsorted(ok, g["l_orderkey"].to_numpy())
        g["o_orderdate"] = pd.Series(od[pos]).astype("datetime64[us]")
        return g[["l_orderkey", "revenue", "o_orderdate"]].astype(
            {"l_orderkey": "int64"})

    return final(parts)
