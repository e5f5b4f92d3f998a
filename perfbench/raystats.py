"""Parse the public ``Dataset.stats()`` text into per-operator numbers and
fold them into the benchmark's Ray Data layer metrics.

Only the printed form is read, no private Ray API. The operator names
differ per pipeline (``ReadParquet->MapBatches(extract_geo_join)``,
``MapBatches(partial)->MapBatches(add_bucket)``, ``Repartition``,
``Sort``, ``MapBatches(write_partition)`` ...), so operators are grouped
by position, not by name: map operators before the first all-to-all
operator are the read/map layer, all-to-all operators are the shuffle,
and map operators after it are the combine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_OP = re.compile(r"^Operator \d+ (?P<name>.+?): (?:(?P<tasks>\d+) tasks executed, "
                 r"(?P<blocks>\d+) blocks produced in [\d.]+s|executed in [\d.]+s)")
_SUB = re.compile(r"^\s*Suboperator \d+ (?P<name>.+?): (?P<tasks>\d+) tasks "
                  r"executed, (?P<blocks>\d+) blocks produced")
_TIME_TOTAL = re.compile(r"([\d.]+)(us|ms|s) total")
_NUMS = re.compile(r"(-?[\d.]+) (min|max|mean|total)")


@dataclass
class OpStats:
    name: str
    tasks: int = 0
    blocks: int = 0
    wall_s: float = 0.0      # Σ remote wall time over the operator's tasks
    udf_s: float = 0.0       # Σ UDF time
    heap_max_mb: float = 0.0
    rows_total: int = 0
    rows_max: float = 0.0
    rows_mean: float = 0.0
    subops: list["OpStats"] = field(default_factory=list)

    @property
    def all_to_all(self) -> bool:
        return bool(self.subops)


def _bullet(op: OpStats, line: str) -> None:
    text = line.strip().lstrip("*").strip()
    if text.startswith("Remote wall time:"):
        m = _TIME_TOTAL.search(text)
        op.wall_s = float(m.group(1)) * _UNIT_S[m.group(2)]
    elif text.startswith("UDF time:"):
        m = _TIME_TOTAL.search(text)
        op.udf_s = float(m.group(1)) * _UNIT_S[m.group(2)]
    elif text.startswith("Peak heap memory usage (MiB):"):
        op.heap_max_mb = dict((k, float(v)) for v, k in _NUMS.findall(text))["max"]
    elif text.startswith("Output num rows per block:"):
        d = dict((k, float(v)) for v, k in _NUMS.findall(text))
        op.rows_total = int(d["total"])
        op.rows_max, op.rows_mean = d["max"], d["mean"]


def parse_stats(text: str) -> list[OpStats]:
    """Top-level operators, in execution order, from ``Dataset.stats()``."""
    ops: list[OpStats] = []
    cur: OpStats | None = None
    for line in text.splitlines():
        m = _OP.match(line)
        if m:
            cur = OpStats(m["name"], int(m["tasks"] or 0), int(m["blocks"] or 0))
            ops.append(cur)
            continue
        m = _SUB.match(line)
        if m and ops:
            cur = OpStats(m["name"], int(m["tasks"]), int(m["blocks"]))
            ops[-1].subops.append(cur)
            continue
        if not line.strip():
            continue
        if not line.startswith((" ", "\t", "*")):
            cur = None          # "Dataset throughput:", iterator sections ...
        elif cur is not None and line.strip().startswith("*"):
            _bullet(cur, line)
    return ops


def _fused(sub: OpStats, prev: OpStats | None) -> bool:
    """An all-to-all's first stage that ran the upstream map in the same
    tasks reports that map's tasks again; count them once."""
    return (prev is not None and not prev.all_to_all
            and sub.tasks == prev.tasks and sub.rows_total == prev.rows_total)


def layer_metrics(ops: list[OpStats], run_wall_s: float) -> dict[str, float]:
    """The ``ray.*`` layer metrics, plus the rows entering the shuffle and
    the UDF calls of the read/map layer."""
    first_a2a = next((i for i, o in enumerate(ops) if o.all_to_all), len(ops))
    read_map = ops[:first_a2a]
    combine = [o for o in ops[first_a2a:] if not o.all_to_all]
    shuffle_wall = 0.0
    block_skew = 1.0
    for i, op in enumerate(ops):
        if not op.all_to_all:
            continue
        prev = ops[i - 1] if i else None
        for j, sub in enumerate(op.subops):
            if not (j == 0 and _fused(sub, prev)):
                shuffle_wall += sub.wall_s
        last = op.subops[-1]
        if last.rows_mean > 0:
            block_skew = max(block_skew, last.rows_max / last.rows_mean)
    op_wall = (sum(o.wall_s for o in read_map) + shuffle_wall
               + sum(o.wall_s for o in combine))
    return {
        "ray.read_map.tasks": sum(o.tasks for o in read_map),
        "ray.read_map.remote_wall_s": sum(o.wall_s for o in read_map),
        "ray.read_map.udf_s": sum(o.udf_s for o in read_map),
        "ray.read_map.peak_heap_mb": max((o.heap_max_mb for o in read_map),
                                         default=0.0),
        "ray.shuffle.remote_wall_s": shuffle_wall,
        "ray.shuffle.block_rows_max_over_mean": block_skew,
        "ray.combine.udf_s": sum(o.udf_s for o in combine),
        "ray.driver_overhead_s": run_wall_s - op_wall,
        "shuffle_input_rows": read_map[-1].rows_total if read_map else 0,
        "udf_calls": read_map[-1].blocks if read_map else 0,
    }
