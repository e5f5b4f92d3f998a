"""Input sources. Every Parquet read in the package goes through
:func:`read_table`, so the read fan-out is decided in one place."""

from __future__ import annotations

MIB = 1024 ** 2


def read_table(path, columns: list[str] | None = None):
    """Read one Parquet file, a directory of them (its ``*.parquet``
    files, sorted) or a list of files (in order) as a Ray Dataset of
    ``columns`` (all when None).

    The reader (``parquet.ParquetFilesDatasource``):

    - **Plan from footers.** Each file's footer gives its row count,
      uncompressed size and schema; there is no plan-time sampling task.
      A single file's size is scaled by Ray's encoding ratio, read in
      the driver from the first rows of its row group 0, since Ray
      picks that file's read parallelism and block split from it.
      Every file is cast to the first file's schema if its own differs.
    - **Whole files, one block per read task.** A read task decodes its
      files with ``pq.read_table(..., use_threads=False)`` (the one CPU
      Ray gives it) and concatenates them into one block, so a
      ``batch_size=None`` map sees one batch per task: a 15,625-row
      shard as one batch, not Ray's 10,000 + 5,625 fragment batches,
      and the 237 tiny partition files of a checkpoint read as one.
    - **Errors name the file.** A footer or data page that fails to
      decode, or a schema that cannot be cast to the first file's,
      raises ``ArrowInvalid: Could not open Parquet input source
      '<path>': <reason>`` from the plan or the task, with no retry.

    Fan-out rule:

    - **One file** is one read task, which Ray splits to its default
      read parallelism (``SplitBlocks``) from the same estimate as
      ``read_parquet``, so every sf-dir table keeps its plan and a
      large single file still spreads across the cluster's CPUs.
    - **Several files** get ``min(n_files, max(4 · cluster CPUs, 128),
      ceil(Σ file bytes / 1 MiB))`` read tasks, each a contiguous run
      of files.

    One task per file: Ray's default splits the blocks of a few large
    shards into many small ones, each its own map task, and on one CPU
    scheduling those tasks takes half the run. On the 4 × 15,625-page
    skewed dedup corpus (``stages.dedup.pages_exact_dedup``, one CPU)
    the default made 44 read/map tasks; one per file cut them to 4, the
    time outside the tasks from 1.44 to 0.44 s and UDF time from 0.46
    to 0.24 s, and pages/s went from ~29 k to ~84 k.

    The task cap, 4 per CPU: with many small files one task per file is
    slow (a 512-shard layout ran 2× slower as 512 ragged 4 k-row tasks),
    so at the cap each read task bundles several files into one block,
    and the cap grows with the cluster.

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
    from .parquet import ParquetFilesDatasource

    if isinstance(path, str):
        files = (sorted(glob.glob(os.path.join(path, "*.parquet")))
                 if os.path.isdir(path) else [path])
    else:
        files = list(path)
    if not files:
        raise ValueError(f"no Parquet files in {path!r}")
    n_blocks = None
    if len(files) > 1:
        size_blocks = math.ceil(sum(map(os.path.getsize, files)) / MIB)
        n_blocks = min(len(files), max(4 * cluster_cpus(), 128), size_blocks)
    return rd.read_datasource(ParquetFilesDatasource(files, columns),
                              override_num_blocks=n_blocks)
