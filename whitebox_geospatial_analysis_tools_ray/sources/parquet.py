"""The Parquet datasource behind :func:`sources.read_table`.

Whole files per read task: the plan reads each file's footer once for
its row count, uncompressed size and schema (and, for a single file,
the first rows of row group 0 for its encoding ratio), and each read
task decodes its files with ``pq.read_table`` and returns them as one
block.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from ray.data import Datasource, ReadTask
from ray.data.block import BlockMetadata

SAMPLE_ROWS = 1024      # Ray's PARQUET_ENCODING_RATIO_ESTIMATE_NUM_ROWS
SAMPLE_BUFFER = 1 << 16  # stream pages, so the sample reads its pages only


def _named(path: str, err: Exception) -> pa.ArrowInvalid:
    """A footer, page or schema error, retyped to name the file."""
    return pa.ArrowInvalid(f"Could not open Parquet input source '{path}': "
                           f"{err}")


def _read_files(paths: list[str], columns: list[str] | None,
                schema: pa.Schema) -> list[pa.Table]:
    """One block: ``paths`` decoded on the task's one CPU, each cast to
    ``schema`` if its own differs, concatenated in order."""
    tables = []
    for path in paths:
        try:
            table = pq.read_table(path, columns=columns, use_threads=False)
            if not table.schema.equals(schema):
                table = table.select(schema.names).cast(schema)
        except (pa.ArrowException, OSError, KeyError) as err:
            raise _named(path, err) from err
        tables.append(table)
    return [pa.concat_tables(tables)]


def _footer(path: str) -> pq.FileMetaData:
    try:
        return pq.read_metadata(path)
    except (pa.ArrowException, OSError) as err:
        raise _named(path, err) from err


def _total_bytes(meta: pq.FileMetaData) -> int:
    """Σ uncompressed size of the file's row groups, all columns."""
    return sum(meta.row_group(i).total_byte_size
               for i in range(meta.num_row_groups))


def _encoding_ratio(path: str, meta: pq.FileMetaData,
                    columns: list[str] | None) -> float:
    """Ray's in-memory / uncompressed size ratio: the Arrow bytes per row
    of the first ``SAMPLE_ROWS`` rows of ``columns`` in row group 0 over
    the footer's uncompressed bytes per row (all columns), at least 1.
    Read in the driver, not in a task, through a buffered stream, so
    only the first pages of each column chunk are read and decoded."""
    if meta.num_rows == 0 or _total_bytes(meta) == 0:
        return 1.0
    try:
        pf = pq.ParquetFile(path, buffer_size=SAMPLE_BUFFER)
        batch = next(pf.iter_batches(
            batch_size=min(SAMPLE_ROWS, meta.row_group(0).num_rows),
            row_groups=[0], columns=columns, use_threads=False))
    except (pa.ArrowException, OSError) as err:
        raise _named(path, err) from err
    return max(batch.nbytes / batch.num_rows
               / (_total_bytes(meta) / meta.num_rows), 1.0)


class ParquetFilesDatasource(Datasource):
    """``files`` (in order) as ``columns`` (all when None), split into
    contiguous runs of whole files, one read task and one block per run.

    Sizes are each file's uncompressed bytes (all columns). Ray picks a
    single file's read parallelism and split from their sum, so one file
    is scaled by its encoding ratio, as ``read_parquet`` scales it: the
    plan is ``read_parquet``'s. Several files keep the footer sizes, since
    ``read_table`` sets their task count itself."""

    def __init__(self, files: list[str], columns: list[str] | None):
        footers = list(map(_footer, files))
        schema = footers[0].schema.to_arrow_schema()
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns],
                               metadata=schema.metadata)
        ratio = (_encoding_ratio(files[0], footers[0], columns)
                 if len(files) == 1 else 1.0)
        self._files, self._columns, self._schema = files, columns, schema
        self._rows = [meta.num_rows for meta in footers]
        self._bytes = [int(_total_bytes(meta) * ratio) for meta in footers]

    def get_name(self) -> str:
        return "Parquet"

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._bytes)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        columns, schema = self._columns, self._schema
        tasks = []
        for run in np.array_split(np.arange(len(self._files)), parallelism):
            if len(run) == 0:
                continue
            paths = [self._files[i] for i in run]
            meta = BlockMetadata(
                num_rows=sum(self._rows[i] for i in run),
                size_bytes=sum(self._bytes[i] for i in run),
                input_files=paths, exec_stats=None)
            tasks.append(ReadTask(
                lambda paths=paths: _read_files(paths, columns, schema),
                meta, schema=schema))
        return tasks
