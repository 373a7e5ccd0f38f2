"""Benchmark input: seeded transcript Parquet, the same for both workloads.

The program under test only ever sees the Parquet files written here: the
library's default ``generate_transcripts`` tables, three files of ~99.5k
turns with disjoint conversations, encoded into ~100k-row partitions.
Long token-soup texts make the ``text`` codec the main encode cost.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ROWS_PER_PARTITION = 100_000
SCAN_PAGE_ROWS = 8192
ROW_GROUP_ROWS = 65536
FLAGSHIP_FILES = 3
FLAGSHIP_TURNS_PER_FILE = 99_500  # whole conversations may overshoot by <500


def write_input(out_dir: str, seed: int, scale: float) -> list[str]:
    """Write the input under ``out_dir``; returns the file paths.
    ``scale`` shrinks it for the self-test."""
    from parquet_go_ray.sources.transcripts import generate_transcripts

    os.makedirs(out_dir, exist_ok=True)
    turns = max(1_000, int(FLAGSHIP_TURNS_PER_FILE * scale))
    paths = []
    for i in range(FLAGSHIP_FILES):
        table = generate_transcripts(turns, seed=seed, start_conv=i * 1_000_000)
        path = os.path.join(out_dir, f"part-{i}.parquet")
        pq.write_table(table, path, row_group_size=ROW_GROUP_ROWS)
        paths.append(path)
    return paths


def read_input(paths: list[str]) -> pa.Table:
    """The input as pyarrow reads it: the reference the outputs are checked
    against."""
    return pa.concat_tables([pq.read_table(p) for p in paths]).combine_chunks()


def lookup_keys(table: pa.Table, seed: int, count: int = 64) -> list[str]:
    """Seeded conversation ids for the point lookups, drawn uniformly from
    the conversations in the input."""
    ids = pc.unique(table.column("conv_id")).sort()
    rng = np.random.default_rng((seed, 11))
    return [ids[int(i)].as_py() for i in rng.integers(0, len(ids), count)]
