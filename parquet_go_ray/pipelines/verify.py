"""Distributed round-trip verification.

The north-rule invariant: decoded text (and every column) bit-identical
per (conv_id, turn_idx) under stable turn ordering. The comparison is
per-key, i.e. order-independent — so instead of a join/shuffle we compare
order-independent multiset hashes: sum over rows of a deterministic
per-row hash (``ops.bucketing.row_hash64``, built on ``col_hash64``;
floats compared by bit pattern), reduced per batch and summed on the
driver — no driver-side materialization, no all-to-all (SURVEY.md §4.3).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..ops.bucketing import row_hash64
from ..ops.text import _mix64


def multiset_hash(batch: pa.Table, columns: list[str] | None = None) -> int:
    """Order-independent content hash of a batch: the sum (mod 2^64) of
    mixed per-row hashes. Floats hash as same-width ints, so the check
    is bit-exact (-0.0 ≠ 0.0). Equal multisets of rows ⇔ equal hashes
    (whp), so a distributed sum over batches verifies round-trip
    equality without any shuffle or driver-side materialization."""
    cols = columns or sorted(batch.column_names)
    bits = {}
    for c in cols:
        col = batch.column(c)
        if pa.types.is_floating(col.type):
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            col = col.view(getattr(pa, f"int{col.type.bit_width}")())
        bits[c] = col
    h = _mix64(row_hash64(pa.table(bits), cols))
    return int(h.sum(dtype=np.uint64))


def dataset_content_hash(ds: ray.data.Dataset, columns: list[str]) -> int:
    """Order-independent content hash of selected columns, distributed."""

    def batch_hash(batch: pa.Table) -> pa.Table:
        return pa.table({"h": pa.array([multiset_hash(batch, columns)], pa.uint64())})

    hashed = ds.map_batches(batch_hash, batch_format="pyarrow")
    total = 0
    for row in hashed.iter_rows():
        total = (total + row["h"]) & 0xFFFFFFFFFFFFFFFF
    return total


def verify_roundtrip(
    input_ds: ray.data.Dataset,
    decoded_ds: ray.data.Dataset,
    columns: list[str] | None = None,
) -> dict:
    """Compare input vs decoded datasets per-key without a shuffle."""
    if columns is None:
        columns = sorted(input_ds.schema().names)
    in_count = input_ds.count()
    out_count = decoded_ds.count()
    in_hash = dataset_content_hash(input_ds, columns)
    out_hash = dataset_content_hash(decoded_ds, columns)
    return {
        "rows_in": in_count,
        "rows_out": out_count,
        "hash_in": in_hash,
        "hash_out": out_hash,
        "match": in_count == out_count and in_hash == out_hash,
    }
