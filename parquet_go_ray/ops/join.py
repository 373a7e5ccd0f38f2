"""Broadcast (map-side) joins: the no-shuffle plans for small sides.

Every broadcast join here has one shape: the small side's probe (its
sorted keys / index plus the per-batch ``__call__``) is built ONCE on
the driver and handed to ``_broadcast.broadcast_map_batches``, which
``ray.put``s it once and runs each big-side batch as a stateless task
that fetches it zero-copy. The big side streams through untouched; join
cost is one vectorized searchsorted + take per batch. There is no actor
pool: on a 1-core host with 3 Ray CPUs its ramp made the sf0.1 join
entry queries 1.6-3.8 s against 0.33-1.6 s as tasks. At 100 TB this is the right
plan whenever the small side fits a worker heap (dimension tables,
vocabularies, codebooks); ``shuffle_join`` covers the rest.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ._broadcast import broadcast_map_batches
from .bucketing import col_bucket, col_hash64


class _BroadcastJoiner:
    def __init__(self, small: pa.Table, on: str, small_on: str,
                 select: list[str] | None):
        self.small = small.combine_chunks()
        keys = self.small.column(small_on).to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        # searchsorted emits at most one small-side row per probe key, so a
        # duplicated key would silently drop matches instead of multiplying
        # rows like SQL LEFT JOIN. Fail fast at index-build time.
        if len(sorted_keys) > 1 and (sorted_keys[1:] == sorted_keys[:-1]).any():
            raise ValueError(
                f"broadcast_join small side has duplicate keys in {small_on!r};"
                " a 1:N broadcast join is not supported (use a shuffle join)"
            )
        self.sorted_keys = sorted_keys
        self.order = order
        self.on = on
        self.small_on = small_on
        self.select = select

    def __call__(self, batch: pa.Table) -> pa.Table:
        probe = batch.column(self.on).to_numpy(zero_copy_only=False)
        if len(self.sorted_keys) == 0:  # empty small side -> all-null join
            out = batch
            cols = self.select or [
                c for c in self.small.column_names if c != self.small_on
            ]
            for c in cols:
                out = out.append_column(
                    c, pa.nulls(batch.num_rows, self.small.schema.field(c).type)
                )
            return out
        idx = np.searchsorted(self.sorted_keys, probe)
        idx_c = np.minimum(idx, len(self.sorted_keys) - 1)
        hit = self.sorted_keys[idx_c] == probe
        take = self.order[idx_c]
        out = batch
        cols = self.select or [
            c for c in self.small.column_names if c != self.small_on
        ]
        indices = pa.array(
            np.where(hit, take, -1), mask=~hit
        )  # null index -> null value (left join)
        for c in cols:
            out = out.append_column(c, self.small.column(c).take(indices))
        return out


class _AsofJoiner:
    """Probe of the broadcast as-of join: the small side sorted once on
    the driver. ``by=`` adds an equality dimension: the small side is
    segmented per key; probes loop over the batch's distinct keys
    (bounded, usually few) with one vectorized searchsorted per
    segment."""

    def __init__(self, small: pa.Table, on, small_on, select, by=None,
                 small_by=None, tolerance=None):
        self.on, self.by = on, by
        self.tolerance = tolerance
        sort_keys = ([(small_by, "ascending")] if by else []) + [
            (small_on, "ascending")
        ]
        small = small.combine_chunks().sort_by(sort_keys)
        self.skeys = small.column(small_on).to_numpy(zero_copy_only=False)
        drop = {small_on} | ({small_by} if by else set())
        self.cols = select or [c for c in small.column_names
                               if c not in drop]
        self.payload = {c: small.column(c).combine_chunks()
                        for c in self.cols}
        if by:
            bkeys = small.column(small_by).to_numpy(zero_copy_only=False)
            # segment bounds per distinct key in the (sorted) small side
            self.seg_keys, starts = np.unique(bkeys, return_index=True)
            self.seg_starts = starts
            self.seg_stops = np.append(starts[1:], len(bkeys))

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if len(self.skeys) == 0:
            # empty reference table: every probe row gets null payload
            # (the zero-segment by-path did this; the global path and
            # the tolerance line would index a size-0 array)
            out = batch
            for c in self.cols:
                out = out.append_column(
                    c, pa.nulls(batch.num_rows, self.payload[c].type)
                )
            return out
        on_col = batch.column(self.on)
        keys = on_col.to_numpy(zero_copy_only=False)
        # Null probe timestamps become NaT/NaN, which searchsorted orders
        # AFTER every real key (matching the last row); SQL ASOF JOIN
        # yields null payload for them — mask them out explicitly.
        valid = ~np.asarray(pc.is_null(on_col))
        if self.by is None:
            pos = np.searchsorted(self.skeys, keys, side="right") - 1
            valid &= pos >= 0
        elif len(self.seg_keys) == 0:
            valid = np.zeros(len(keys), dtype=bool)
            pos = np.zeros(len(keys), dtype=np.int64)
        else:
            by_col = batch.column(self.by)
            bvals = by_col.to_numpy(zero_copy_only=False)
            valid &= ~np.asarray(pc.is_null(by_col))
            if not valid.all():
                # null keys can't go through searchsorted (None/NaN
                # compare); park them on segment 0, masked out anyway
                bvals = np.where(valid, bvals, self.seg_keys[0])
            pos = np.full(len(keys), -1, dtype=np.int64)
            si = np.searchsorted(self.seg_keys, bvals)
            si_c = np.minimum(si, len(self.seg_keys) - 1)
            valid &= self.seg_keys[si_c] == bvals
            for s in np.unique(si_c[valid]):
                rows = np.flatnonzero(valid & (si_c == s))
                a, b = self.seg_starts[s], self.seg_stops[s]
                p = np.searchsorted(
                    self.skeys[a:b], keys[rows], side="right"
                ) - 1
                pos[rows] = np.where(p >= 0, a + p, -1)
            valid &= pos >= 0
        if self.tolerance is not None:
            # pandas merge_asof semantics: a match farther back than
            # tolerance yields null payload (datetime64 keys diff to
            # timedelta64, numeric keys to numeric — the caller passes
            # the matching tolerance type)
            matched = self.skeys[np.where(valid, pos, 0)]
            with np.errstate(invalid="ignore"):
                near = (keys - matched) <= self.tolerance
            valid &= near
        pos = np.where(valid, pos, 0)
        out = batch
        vmask = pa.array(valid)
        idx = pa.array(pos, pa.int64())
        for c in self.cols:
            taken = self.payload[c].take(idx)
            col = pc.if_else(vmask, taken, pa.nulls(len(keys), taken.type))
            out = out.append_column(c, col)
        return out


def asof_join_broadcast(
    big: ray.data.Dataset,
    small: pa.Table,
    on: str,
    small_on: str | None = None,
    select: list[str] | None = None,
    by: str | None = None,
    small_by: str | None = None,
    tolerance=None,
) -> ray.data.Dataset:
    """As-of join (nearest earlier ``small_on`` ≤ ``on``, optionally
    within an equality key ``by``): the custom operator the brief names,
    expressed as a broadcast + per-batch ``np.searchsorted`` — no
    shuffle, no sort of the big side. The small side must fit a worker
    heap; it is sorted once on the driver and ``ray.put`` ONCE, and each
    task fetches it zero-copy from the local object store. Rows earlier
    than every small-side timestamp — and rows with a null probe
    timestamp or an unknown/null ``by`` key — get null payload columns,
    exactly like SQL/DuckDB ``ASOF JOIN``.
    Partitioning assumption (documented per the brief): the small side
    is global; if the small side itself outgrows a worker heap,
    hash-partition BOTH sides by ``by`` first and apply this join inside
    each partition. ``tolerance`` (pandas merge_asof semantics) bounds
    how far back a match may reach: pass a ``np.timedelta64`` for
    timestamp keys or a number for numeric keys; matches farther back
    yield null payload."""
    return broadcast_map_batches(big, _AsofJoiner(
        small, on, small_on or on, select, by, small_by or by, tolerance))


def broadcast_join(
    big: ray.data.Dataset,
    small: pa.Table,
    on: str,
    small_on: str | None = None,
    select: list[str] | None = None,
) -> ray.data.Dataset:
    """Left join ``big ⟕ small`` on an equality key, no shuffle. Raises
    ``ValueError`` here, before any task runs, if ``small`` repeats a
    key."""
    return broadcast_map_batches(
        big, _BroadcastJoiner(small, on, small_on or on, select))


class _RangeJoiner:
    """Inner range join probe: each batch is sorted once on the probe
    key; every interval then resolves to a contiguous probe-index
    window via two ``searchsorted`` calls, and the matched (row,
    interval) pairs are emitted by one repeat/gather — O(m log n +
    output), never an n×m mask."""

    def __init__(self, small: pa.Table, on, lo_col, hi_col, select):
        self.small = small.combine_chunks()
        self.lo = self.small.column(lo_col).to_numpy(zero_copy_only=False)
        self.hi = self.small.column(hi_col).to_numpy(zero_copy_only=False)
        self.on = on
        self.select = select or [
            c for c in self.small.column_names if c not in (lo_col, hi_col)
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        probe_col = batch.column(self.on)
        if probe_col.null_count:
            batch = batch.filter(pc.is_valid(probe_col))  # inner join
            probe_col = batch.column(self.on)
        probe = probe_col.to_numpy(zero_copy_only=False)
        if probe.dtype.kind in "Mm":
            probe = probe.view("i8")
        order = np.argsort(probe, kind="stable")
        sorted_probe = probe[order]
        lo, hi = self.lo, self.hi
        if lo.dtype.kind in "Mm":
            lo, hi = lo.view("i8"), hi.view("i8")
        i0 = np.searchsorted(sorted_probe, lo, side="left")
        i1 = np.searchsorted(sorted_probe, hi, side="left")
        counts = i1 - i0
        m = counts > 0
        if not m.any():
            out = batch.slice(0, 0)
            for c in self.select:
                out = out.append_column(
                    c, self.small.column(c).slice(0, 0)
                )
            return out
        reps = counts[m]
        starts = i0[m]
        # matched probe positions: for interval j, sorted rows
        # [starts[j], starts[j]+reps[j])
        offs = np.concatenate(([0], np.cumsum(reps[:-1])))
        flat = np.arange(int(reps.sum())) - np.repeat(offs, reps) \
            + np.repeat(starts, reps)
        big_idx = order[flat]
        small_idx = np.repeat(np.flatnonzero(m), reps)
        out = batch.take(pa.array(big_idx, pa.int64()))
        sm = pa.array(small_idx, pa.int64())
        for c in self.select:
            out = out.append_column(c, self.small.column(c).take(sm))
        return out


def range_join_broadcast(
    big: ray.data.Dataset,
    small: pa.Table,
    on: str,
    lo_col: str,
    hi_col: str,
    select: list[str] | None = None,
) -> ray.data.Dataset:
    """Inner range join ``big.on ∈ [small.lo, small.hi)`` — the interval
    analogue of the as-of join, as a broadcast + per-batch binary
    search. Overlapping intervals are fully supported: a row matching
    several intervals is emitted once per match (SQL
    ``JOIN ... ON t >= lo AND t < hi`` semantics); null probe keys drop
    (inner join). Partitioning assumption: the interval table is global
    and worker-heap-sized (calendars, rate schedules, bucket specs); a
    huge interval side needs a partition-by-range plan instead."""
    return broadcast_map_batches(
        big, _RangeJoiner(small, on, lo_col, hi_col, select))


def build_key_bloom(
    ds: ray.data.Dataset,
    on: str,
    ndv: int | None = None,
    fpp: float = 0.01,
    cast_to: pa.DataType | None = None,
):
    """One streaming pass over ``ds[on]`` → a split-block bloom filter
    of the key set (functions/bloom.py SBBF — the same structure the
    native Parquet writer emits). The bitset accumulates INSIDE tasks
    via a mergeable aggregate (per-block insert, OR-merge); the driver
    receives exactly one final bitset (~1.2 MB per 1M distinct keys at
    1% fpp), never rows. ``ndv`` sizes the filter; defaults to the
    dataset's row count (an upper bound on distinct keys — metadata
    for parquet sources). ``cast_to`` widens the key before hashing
    so both join sides hash the same byte pattern (xxh64 covers the
    value's bytes — an int32 key must hash in the int64 partner's
    domain, same rule as the envelope's bucket hash)."""
    from ..functions.bloom import SplitBlockBloomFilter, optimal_num_blocks

    if ndv is None:
        ndv = ds.count()
    num_blocks = optimal_num_blocks(ndv, fpp)
    nwords = num_blocks * 8

    def accumulate(words: np.ndarray, block: pa.Table) -> np.ndarray:
        key = block.column(on)
        if cast_to is not None and not key.type.equals(cast_to):
            key = key.cast(cast_to)
        if key.null_count:
            key = key.drop_null()
        if len(key) == 0:
            return words
        f = SplitBlockBloomFilter(num_blocks, words)
        f.insert_hashes(col_hash64(key))
        return f.words

    agg = ray.data.aggregate.AggregateFn(
        init=lambda _: np.zeros(nwords, dtype=np.uint32),
        accumulate_block=accumulate,
        merge=np.bitwise_or,
        name="key_bloom",
    )
    words = ds.aggregate(agg)["key_bloom"]
    return SplitBlockBloomFilter(num_blocks, words)


def bloom_prefilter(
    ds: ray.data.Dataset,
    on: str,
    bloom,
    keep_nulls: bool = False,
    cast_to: pa.DataType | None = None,
) -> ray.data.Dataset:
    """Drop rows whose ``on`` key is DEFINITELY absent from ``bloom``
    (a ``SplitBlockBloomFilter``, broadcast once). No false negatives —
    every surviving-key row passes; the ~fpp false-positive remainder
    is dropped by whatever exact operator follows. ``keep_nulls`` passes null-key rows through
    (outer-join sides need them)."""
    return broadcast_map_batches(
        ds, _BloomPrefilter(bloom, on, keep_nulls, cast_to))


class _BloomPrefilter:
    def __init__(self, bloom, on: str, keep_nulls: bool,
                 cast_to: pa.DataType | None = None):
        self.bloom = bloom
        self.on = on
        self.keep_nulls = keep_nulls
        self.cast_to = cast_to

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        key = batch.column(self.on)
        if self.cast_to is not None and not key.type.equals(
            self.cast_to
        ):
            key = key.cast(self.cast_to)
        hit = self.bloom.contains_hashes(col_hash64(key))
        if key.null_count:
            hit[np.asarray(pc.is_null(key))] = self.keep_nulls
        if hit.all():
            return batch
        return batch.filter(pa.array(hit))


def shuffle_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    right_on: str | None = None,
    num_buckets: int = 64,
    how: str = "inner",
    prefilter: str | None = None,
    prefilter_fpp: float = 0.01,
    prefilter_ndv: int | None = None,
) -> ray.data.Dataset:
    """Partitioned hash join for BIG × BIG inputs — the shuffle join
    the broadcast variants explicitly defer to when neither side fits
    a worker heap. ``how``: ``inner`` (default), ``left``, ``right``
    or ``full`` — exactly SQL's OUTER semantics (unmatched rows from
    the outer side(s) emit with the other side's columns null).

    ``prefilter='left'|'right'`` names a side to FILTER before the
    shuffle through a split-block bloom of the OTHER side's keys
    (built in one streaming pass, OR-merged inside tasks, ~1.2 MB/M
    keys broadcast once): on a low-overlap join the dominant side's
    shuffle volume drops to overlap + fpp, for one extra scan of the
    smaller side. Results are bit-identical — bloom false positives
    ship a few extra rows that the exact bucket join then drops. A
    side whose unmatched rows the join must KEEP (left side of a
    LEFT/FULL join, right side of RIGHT/FULL) cannot be prefiltered;
    that combination raises. Pass ``prefilter_ndv`` (an upper bound
    on the bloom side's distinct keys) when you know it — the default
    sizes the filter from ``count()``, which costs one more pass over
    the bloom side's plan if it isn't a bare parquet read.

    Plan: both sides map their batches into a shared ENVELOPE schema
    (union of columns; the absent side's columns are all-null Arrow
    arrays — validity bitmaps only, no data copied) tagged with a
    ``side`` bit and a coarse ``pk = xxh64(key) % num_buckets``, then
    ONE ``union → groupby(pk) → map_groups`` co-locates matching keys
    and joins each bucket vectorized (sort the right side once per
    bucket, ``searchsorted`` ranges, repeat/gather — full M:N
    semantics, one output row per key pair). Unmatched-row detection
    is two extra searchsorted probes per bucket — outer joins cost no
    additional shuffle. Null join keys match nothing (SQL): they drop
    on inner sides; on outer sides they pass straight to the output
    INSIDE the envelope (the other side's columns are already null
    there — no extra pipeline stage), routed to a pk bucket by their
    validity-masked hash. Column names must be disjoint apart from
    the key (rename/select upstream otherwise — same rule as SQL
    without aliases).
    """
    import pyarrow.compute as pc

    if how not in ("inner", "left", "right", "full"):
        raise ValueError(
            f"how must be inner/left/right/full, got {how!r}"
        )
    keep_left = how in ("left", "full")
    keep_right = how in ("right", "full")
    right_on = right_on or on
    if prefilter is not None:
        if prefilter not in ("left", "right"):
            raise ValueError(
                f"prefilter must be left/right/None, got {prefilter!r}"
            )
        if (prefilter == "left" and keep_left) or (
            prefilter == "right" and keep_right
        ):
            raise ValueError(
                f"cannot bloom-prefilter the {prefilter} side of a "
                f"{how} join: its unmatched rows must be kept"
            )
        # hash in the LEFT key's type domain on both sides (the same
        # widening rule the envelope's bucket hash uses)
        key_type = left.schema().base_schema.field(on).type
        if prefilter == "left":
            bloom = build_key_bloom(right, right_on,
                                    ndv=prefilter_ndv,
                                    fpp=prefilter_fpp,
                                    cast_to=key_type)
            left = bloom_prefilter(left, on, bloom, cast_to=key_type)
        else:
            bloom = build_key_bloom(left, on, ndv=prefilter_ndv,
                                    fpp=prefilter_fpp,
                                    cast_to=key_type)
            right = bloom_prefilter(right, right_on, bloom,
                                    cast_to=key_type)
    ls = left.schema()
    rs = right.schema()
    lcols = list(ls.names)
    rcols = [c for c in rs.names if c != right_on]
    clash = set(lcols) & set(rcols)
    if clash:
        raise ValueError(
            f"shuffle_join: column name collision {sorted(clash)};"
            " rename or select before joining"
        )
    l_arrow = ls.base_schema
    r_arrow = rs.base_schema
    r_types = {c: r_arrow.field(c).type for c in rcols}
    l_types = {c: l_arrow.field(c).type for c in lcols}

    def pk_of(key: pa.Array) -> np.ndarray:
        """Bucket ids; null keys (outer-kept) scatter by row index —
        they match nothing, so any bucket is correct, and scattering
        avoids one hot bucket on a high-null corpus."""
        pk = col_bucket(key, num_buckets)
        if key.null_count:
            isnull = np.asarray(pc.is_null(key))
            pk[isnull] = (np.arange(len(pk)) % num_buckets)[isnull]
        return pk

    def env_left(batch: pa.Table) -> pa.Table:
        key = batch.column(on)
        if key.null_count and not keep_left:
            batch = batch.filter(pc.is_valid(key))
        n = batch.num_rows
        cols = {c: batch.column(c) for c in lcols}
        for c in rcols:
            cols[c] = pa.nulls(n, r_types[c])
        cols["__side"] = pa.array(np.zeros(n, np.int8))
        cols["__pk"] = pa.array(pk_of(batch.column(on)))
        return pa.table(cols)

    def env_right(batch: pa.Table) -> pa.Table:
        key = batch.column(right_on)
        if key.null_count and not keep_right:
            batch = batch.filter(pc.is_valid(key))
        n = batch.num_rows
        # the right key travels in the LEFT key's column slot, so it
        # must arrive in the left key's exact Arrow type (an int32 key
        # joining an int64 key would otherwise split the union schema)
        rkey = batch.column(right_on)
        if not rkey.type.equals(l_types[on]):
            rkey = rkey.cast(l_types[on])
        cols = {}
        for c in lcols:
            cols[c] = (rkey if c == on
                       else pa.nulls(n, l_types[c]))
        for c in rcols:
            cols[c] = batch.column(c)
        cols["__side"] = pa.array(np.ones(n, np.int8))
        # hash the CASTED key: xxh64 covers the value's bytes, so an
        # int32 right key must widen to the left type before hashing or
        # equal values land in different buckets
        cols["__pk"] = pa.array(pk_of(rkey))
        return pa.table(cols)

    def join_bucket(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy(zero_copy_only=False)
        lt = group.filter(pa.array(side == 0)).select(lcols)
        rt = group.filter(pa.array(side == 1)).select([on] + rcols)

        def left_with_null_right(t: pa.Table) -> pa.Table:
            cols = {c: t.column(c) for c in lcols}
            for c in rcols:
                cols[c] = pa.nulls(t.num_rows, r_types[c])
            return pa.table(cols)

        def right_with_null_left(t: pa.Table) -> pa.Table:
            # the right key already travels in the `on` slot
            cols = {c: (t.column(on) if c == on
                        else pa.nulls(t.num_rows, l_types[c]))
                    for c in lcols}
            for c in rcols:
                cols[c] = t.column(c)
            return pa.table(cols)

        parts: list[pa.Table] = []
        # null keys match nothing: outer-kept ones go straight to the
        # unmatched output, then the match phase runs null-free
        lkey = lt.column(on)
        if isinstance(lkey, pa.ChunkedArray):
            lkey = lkey.combine_chunks()
        if lkey.null_count:
            if keep_left:
                parts.append(
                    left_with_null_right(lt.filter(pc.is_null(lkey)))
                )
            lt = lt.filter(pc.is_valid(lkey))
        rkey = rt.column(on)
        if isinstance(rkey, pa.ChunkedArray):
            rkey = rkey.combine_chunks()
        if rkey.null_count:
            if keep_right:
                parts.append(
                    right_with_null_left(rt.filter(pc.is_null(rkey)))
                )
            rt = rt.filter(pc.is_valid(rkey))

        empty = {c: lt.column(c).slice(0, 0) for c in lcols}
        for c in rcols:
            empty[c] = rt.column(c).slice(0, 0)
        empty_t = pa.table(empty)

        def finish() -> pa.Table:
            if not parts:
                return empty_t
            return pa.concat_tables(parts, promote_options="none")

        if lt.num_rows == 0 or rt.num_rows == 0:
            if keep_left and lt.num_rows:
                parts.append(left_with_null_right(lt))
            if keep_right and rt.num_rows:
                parts.append(right_with_null_left(rt))
            return finish()
        lk = lt.column(on).to_numpy(zero_copy_only=False)
        rk = rt.column(on).to_numpy(zero_copy_only=False)
        order = np.argsort(rk, kind="stable")
        rk_sorted = rk[order]
        i0 = np.searchsorted(rk_sorted, lk, side="left")
        i1 = np.searchsorted(rk_sorted, lk, side="right")
        counts = i1 - i0
        m = counts > 0
        if keep_left and not m.all():
            parts.append(
                left_with_null_right(
                    lt.take(pa.array(np.flatnonzero(~m), pa.int64()))
                )
            )
        if keep_right:
            # a right row is unmatched iff its key never appears on
            # the left: two searchsorted probes, no join-sized arrays
            lk_sorted = np.sort(lk, kind="stable")
            j0 = np.searchsorted(lk_sorted, rk, side="left")
            j1 = np.searchsorted(lk_sorted, rk, side="right")
            r_unmatched = j1 == j0
            if r_unmatched.any():
                parts.append(
                    right_with_null_left(
                        rt.take(pa.array(
                            np.flatnonzero(r_unmatched), pa.int64()
                        ))
                    )
                )
        reps = counts[m]
        total = int(reps.sum())
        if total == 0:  # keys co-bucketed but none equal
            return finish()
        offs = np.concatenate(([0], np.cumsum(reps[:-1])))
        flat = (np.arange(total) - np.repeat(offs, reps)
                + np.repeat(i0[m], reps))
        l_idx = np.repeat(np.flatnonzero(m), reps)
        r_idx = order[flat]
        out = lt.take(pa.array(l_idx, pa.int64()))
        rsel = pa.array(r_idx, pa.int64())
        for c in rcols:
            out = out.append_column(c, rt.column(c).take(rsel))
        parts.append(out)
        return finish()

    env = (
        left.map_batches(env_left, batch_format="pyarrow",
                         zero_copy_batch=True)
        .union(right.map_batches(env_right, batch_format="pyarrow",
                                 zero_copy_batch=True))
    )
    return env.groupby("__pk").map_groups(
        join_bucket, batch_format="pyarrow"
    )


class _SemiJoiner:
    """Semi / anti filter against a broadcast key set (sorted, unique):
    one membership probe per batch, no payload movement at all."""

    def __init__(self, keys: np.ndarray, on: str, anti: bool):
        self.keys = keys
        self.on = on
        self.anti = anti

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = batch.column(self.on)
        probe = col.to_numpy(zero_copy_only=False)
        if len(self.keys) == 0:
            hit = np.zeros(len(probe), dtype=bool)
        else:
            idx = np.searchsorted(self.keys, probe)
            idx_c = np.minimum(idx, len(self.keys) - 1)
            hit = self.keys[idx_c] == probe
        if col.null_count:
            # SQL semantics: a null key matches nothing (semi drops it);
            # NOT IN over a non-empty set also drops it, but EXISTS-style
            # anti KEEPS it — this operator implements NOT EXISTS.
            hit &= ~np.asarray(pc.is_null(col))
        keep = ~hit if self.anti else hit
        return batch.filter(pa.array(keep))


def broadcast_semi_join(
    big: ray.data.Dataset,
    keys,
    on: str,
    anti: bool = False,
) -> ray.data.Dataset:
    """Left SEMI (``anti=False``) / left ANTI (``anti=True``) join
    against a broadcast key set — the existence filter of SQL
    ``WHERE [NOT] EXISTS (...)``: keeps (or drops) big-side rows whose
    ``on`` key appears in ``keys``; never duplicates rows and moves no
    payload. ``keys`` may be a numpy array, pyarrow Array, or a
    one-column table; it is deduplicated, sorted once, and ``ray.put``
    once. Null big-side keys match nothing:
    semi drops them, anti keeps them (NOT EXISTS semantics)."""
    if isinstance(keys, pa.Table):
        keys = keys.column(0)
    if isinstance(keys, (pa.Array, pa.ChunkedArray)):
        keys = (keys.combine_chunks()
                if isinstance(keys, pa.ChunkedArray) else keys)
        if keys.null_count:
            keys = keys.drop_null()
        keys = keys.to_numpy(zero_copy_only=False)
    return broadcast_map_batches(
        big, _SemiJoiner(np.unique(np.asarray(keys)), on, anti))
