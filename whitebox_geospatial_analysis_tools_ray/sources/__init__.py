"""Input sources. Every Parquet read in the package goes through
:func:`read_table`, so the read fan-out is decided in one place."""

from __future__ import annotations

MIB = 1024 ** 2


def read_table(path, columns: list[str] | None = None):
    """Read one Parquet file, a directory of them, or a list of files as
    a Ray Dataset of ``columns`` (all when None).

    Fan-out rule:

    - **One file** keeps Ray's default read parallelism, so every sf-dir
      table keeps its plan and a large single file still splits across
      the cluster's CPUs.
    - **Several files** get ``override_num_blocks = min(n_files,
      max(4 · cluster CPUs, 128), ceil(Σ file bytes / 1 MiB))``.

    One task per file: Ray's default splits the blocks of a few large
    shards into many small ones, each its own map task, and on one CPU
    scheduling those tasks takes half the run. On the 4 × 15,625-page
    skewed dedup corpus (``stages.dedup.pages_exact_dedup``, one CPU)
    the default made 44 read/map tasks; one per file cut them to 4, the
    time outside the tasks from 1.44 to 0.44 s and UDF time from 0.46
    to 0.24 s, and pages/s went from ~29 k to ~84 k.

    The task cap, 4 per CPU: with many small files one task per file is
    slow (a 512-shard layout ran 2× slower as 512 ragged 4 k-row tasks),
    so at the cap each read task bundles several files back into whole
    ~16 k-row blocks, and the cap grows with the cluster.

    The size bound: never more tasks than the bytes justify. Without it,
    the 237 tiny partition files (0.76 MB) of a checkpointed flagship
    output read on one CPU as 128 tasks in 4.0 s, against 1.1 s with
    Ray's default and 1.2 s with the bound (one task), min of 3.
    """
    import glob
    import math
    import os

    import ray.data as rd

    from ..stages.util import cluster_cpus

    if isinstance(path, str):
        files = (glob.glob(os.path.join(path, "*.parquet"))
                 if os.path.isdir(path) else [path])
    else:
        files = list(path)
    n_blocks = None
    if len(files) > 1:
        size_blocks = math.ceil(sum(map(os.path.getsize, files)) / MIB)
        n_blocks = min(len(files), max(4 * cluster_cpus(), 128), size_blocks)
    return rd.read_parquet(path, columns=columns,
                           override_num_blocks=n_blocks)
