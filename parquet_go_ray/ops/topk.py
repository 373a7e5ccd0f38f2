"""Top-k without a global sort.

A global ``Dataset.sort(...).limit(k)`` is an all-to-all shuffle of every
row to answer a k-row question. Instead: each batch reduces itself to its
local top-k (``np.argpartition`` — O(n) selection, no full sort), the
k-row partials stream to the driver, which folds them into a pool of at
most 8·k rows, and one tiny final sort picks the global winners. Same
pattern as the ANN candidate merge (ops/ann.py).

Multi-key orderings use ``np.lexsort`` on the (tiny) partial only; the
per-batch selection keys on the primary column, widened to k+ties so a
secondary tie-break key can never change the global answer: any row tied
with the local k-th primary value is kept.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .bucketing import col_bucket, derive_num_buckets


def _sort_key(arr: np.ndarray, descending: bool) -> np.ndarray:
    """An array whose ASCENDING order equals the requested order of arr.
    Overflow-safe: ints/datetimes invert via bitwise-not, floats negate,
    object/string keys invert via dense rank codes."""
    if arr.dtype.kind in "Mm":
        arr = arr.view("i8")
    if not descending:
        return arr
    if arr.dtype.kind in "iu":
        return ~arr
    if arr.dtype.kind == "f":
        return -arr
    _, inv = np.unique(arr, return_inverse=True)
    return -inv


def _local_topk(batch: pa.Table, keys, descending, k: int) -> pa.Table:
    n = batch.num_rows
    if n <= k or n == 0:
        return batch
    primary = batch.column(keys[0]).to_numpy(zero_copy_only=False)
    order_key = _sort_key(primary, descending[0])
    part = np.argpartition(order_key, k - 1)
    kth = order_key[part[k - 1]]
    keep = order_key <= kth  # keep ties with the k-th value
    return batch.filter(pa.array(keep))


def topk(
    ds: ray.data.Dataset,
    keys: list[str],
    k: int,
    descending: list[bool] | bool = False,
) -> pa.Table:
    """Global top-k rows ordered by ``keys`` — no ``Dataset.sort`` stage.

    Returns a k-row pyarrow Table (driver-side: the result is tiny by
    definition). Ordering is lexicographic over ``keys`` with per-key
    ``descending`` flags.
    """
    if isinstance(descending, bool):
        descending = [descending] * len(keys)
    partials = ds.map_batches(
        _local_topk,
        fn_kwargs={"keys": keys, "descending": descending, "k": k},
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # Fold the partials driver-side INCREMENTALLY, as ann_topk does: the
    # driver never holds more than 8·k rows, however many blocks there are.
    pool: list[pa.Table] = []
    held = 0
    batches = partials.iter_batches(batch_format="pyarrow", batch_size=max(k, 1))
    for batch in batches:
        pool.append(batch)
        held += batch.num_rows
        if held > 7 * k:
            pool = [_top_rows(pool, keys, descending, k)]
            held = pool[0].num_rows
    if not pool:
        return pa.table({})
    return _top_rows(pool, keys, descending, k)


def _top_rows(tables: list[pa.Table], keys, descending, k: int) -> pa.Table:
    """The first ``k`` rows of ``tables`` in the requested order."""
    merged = pa.concat_tables(tables, promote_options="default").combine_chunks()
    if merged.num_rows == 0:
        return merged
    # Lexsort wants the least-significant key first.
    cols = [
        _sort_key(
            merged.column(name).to_numpy(zero_copy_only=False), desc
        )
        for name, desc in zip(reversed(keys), reversed(descending))
    ]
    order = np.lexsort(cols)[:k]
    return merged.take(pa.array(order, pa.int64()))

def _group_codes(arr: np.ndarray) -> np.ndarray:
    """Dense int codes for an arbitrary-dtype group column (np.unique
    handles ints/floats/strings/objects alike)."""
    _, inv = np.unique(arr, return_inverse=True)
    return inv


def _per_group_topk(batch: pa.Table, by, keys, descending, k) -> pa.Table:
    """Vectorized top-k per group inside one table: one lexsort, then
    segment ranks — no per-group Python. The ordering must be TOTAL
    (callers append a tiebreak key) so results are deterministic."""
    n = batch.num_rows
    if n == 0:
        return batch
    grp = _group_codes(batch.column(by).to_numpy(zero_copy_only=False))
    sort_cols = [
        _sort_key(batch.column(name).to_numpy(zero_copy_only=False), desc)
        for name, desc in zip(reversed(keys), reversed(descending))
    ]
    order = np.lexsort(sort_cols + [grp])  # group-major, then key order
    gs = grp[order]
    starts = np.concatenate(([0], np.flatnonzero(gs[1:] != gs[:-1]) + 1))
    sizes = np.diff(np.append(starts, n))
    rank = np.arange(n) - np.repeat(starts, sizes)
    keep = order[rank < k]
    keep.sort()  # preserve input row order for cheap downstream appends
    return batch.take(pa.array(keep, pa.int64()))


def grouped_topk(
    ds: ray.data.Dataset,
    by: str,
    keys: list[str],
    k: int,
    descending: list[bool] | bool = False,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Top-k rows per ``by``-group, ordered by ``keys`` — the
    partition-wise ``row_number() <= k`` of SQL, with no per-group task
    explosion and no global sort.

    Plan (100-TB shape): (1) every batch pre-reduces itself to its local
    per-group top-k (bounded at k x groups-present-in-batch — the
    combiner step, so the shuffle moves partials, not raw rows);
    (2) partials shuffle on a COARSE bucket ``pk = hash(group) %
    num_buckets`` (the repo-wide high-cardinality groupby pattern:
    num_buckets tasks, each resolving ALL its groups in one vectorized
    pass) and the same kernel runs once more per bucket.

    ``keys`` must define a total order within a group (append a unique
    tiebreak column) — otherwise ties at rank k are dropped
    arbitrarily, same as SQL row_number over a non-total ORDER BY."""
    if isinstance(descending, bool):
        descending = [descending] * len(keys)
    if num_buckets is None:
        num_buckets = derive_num_buckets(ds)

    def local(batch: pa.Table) -> pa.Table:
        return _per_group_topk(batch, by, keys, descending, k)

    def bucketed(batch: pa.Table) -> pa.Table:
        col = batch.column(by)
        if col.null_count:
            raise ValueError(f"grouped_topk: null group keys in {by!r}")
        return batch.append_column(
            "__pk", pa.array(col_bucket(col, num_buckets)))

    def finish(group: pa.Table) -> pa.Table:
        out = _per_group_topk(group, by, keys, descending, k)
        return out.drop_columns(["__pk"])

    partials = ds.map_batches(
        local, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(bucketed, batch_format="pyarrow", zero_copy_batch=True)
    return partials.groupby("__pk").map_groups(
        finish, batch_format="pyarrow"
    )
