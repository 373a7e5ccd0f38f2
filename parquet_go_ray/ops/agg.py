"""Grouped aggregates Ray Data lacks natively: ordered COLLECT /
STRING_AGG, MODE (most frequent value) and exact COUNT(DISTINCT)
per key.

All follow the repo's standard grouped shape — project to the
minimal columns, co-locate each key's rows on a coarse ``pk =
hash(key) % B`` bucket, ONE all-to-all, then resolve every key in the
bucket vectorized (one lexsort + segment arithmetic; no per-key
tasks, no per-row Python). ``grouped_mode`` and
``grouped_count_distinct`` additionally pre-aggregate (key, value)
pairs INSIDE each batch before the shuffle — the combiner makes
shuffle volume proportional to distinct pairs, not rows, the same
partial-aggregation design the sum/count aggregates and
``doc_frequency`` use.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..functions.bytearray import const_string_array
from .bucketing import col_bucket, derive_num_buckets, multi_bucket_hash
from .window import _sortable


def grouped_collect(
    ds: ray.data.Dataset,
    by: str,
    order_cols: list[str],
    val_col: str,
    sep: str | None = None,
    out_col: str | None = None,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """SQL ``string_agg(val, sep ORDER BY ...)`` (``sep`` given) /
    ordered ``array_agg`` (``sep=None`` → a ``list<val>`` column) per
    ``by`` key. Nulls in ``val_col`` are dropped from the collection,
    matching SQL's string_agg/array_agg null handling; a key whose
    values are all null collects the empty string / empty list. The
    ordering must be total per key (pass a tiebreak column) or the
    element order is implementation-defined, same as SQL."""
    if out_col is None:
        out_col = "collected"
    if sep is not None and not isinstance(sep, str):
        raise ValueError(f"sep must be a string or None, got {sep!r}")
    if num_buckets is None:
        num_buckets = derive_num_buckets(ds)

    proj = [by] + [c for c in order_cols if c != by]
    if val_col not in proj:
        proj = proj + [val_col]

    def project(batch: pa.Table) -> pa.Table:
        keys = batch.column(by)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        if keys.null_count:
            raise ValueError(
                f"grouped_collect: null partition keys in {by!r}"
            )
        cols = {c: batch.column(c) for c in proj}
        cols["__pk"] = pa.array(col_bucket(keys, num_buckets))
        return pa.table(cols)

    def per_bucket(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = group.num_rows
        vcol = group.column(val_col)
        if isinstance(vcol, pa.ChunkedArray):
            vcol = vcol.combine_chunks()
        if n == 0:
            out_type = (pa.string() if sep is not None
                        else pa.list_(vcol.type))
            return pa.table({
                by: group.column(by).slice(0, 0),
                out_col: pa.array([], out_type),
            })
        keys = group.column(by).to_numpy(zero_copy_only=False)
        _, codes = np.unique(keys, return_inverse=True)
        order = np.lexsort(
            [_sortable(group.column(c)) for c in reversed(order_cols)]
            + [codes]
        )
        seg = codes[order]
        new_seg = np.empty(n, dtype=bool)
        new_seg[0] = True
        new_seg[1:] = seg[1:] != seg[:-1]
        starts = np.flatnonzero(new_seg)

        vsorted = pc.take(vcol, pa.array(order))
        if vcol.null_count:
            # drop nulls but keep them countable per segment so the
            # list offsets stay right: count non-nulls per segment
            notnull = np.asarray(pc.is_valid(vsorted))
            keep = np.flatnonzero(notnull)
            C = np.concatenate(([0], np.cumsum(notnull.astype(np.int64))))
            offsets = np.concatenate((C[starts], [C[n]]))
            vsorted = pc.take(vsorted, pa.array(keep))
        else:
            offsets = np.concatenate((starts, [n])).astype(np.int64)
        lists = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32())
            if offsets[-1] <= np.iinfo(np.int32).max
            else pa.array(offsets, pa.int64()),
            vsorted,
        )
        key_col = pc.take(group.column(by), pa.array(order[starts]))
        if sep is not None:
            collected = pc.binary_join(lists, sep)
        else:
            collected = lists
        return pa.table({by: key_col, out_col: collected})

    return (
        ds.map_batches(project, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby("__pk")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def grouped_mode(
    ds: ray.data.Dataset,
    by: str,
    val_col: str,
    out_col: str | None = None,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Most frequent ``val_col`` per ``by`` key → one row per key:
    (by, mode value, its count). Ties break to the SMALLEST value
    (deterministic; mirror in SQL with ``ORDER BY cnt DESC, val``).
    Null values are ignored (SQL aggregate semantics); a key whose
    values are all null emits no row.

    Scale shape: each batch pre-counts its (key, value) pairs with
    Arrow's hash group-by BEFORE the shuffle, so the all-to-all ships
    partial counts (distinct pairs), never rows; each bucket then sums
    partials and takes a segmented argmax — one lexsort, no per-key
    work."""
    if out_col is None:
        out_col = f"mode_{val_col}"
    if num_buckets is None:
        num_buckets = derive_num_buckets(ds)

    def partial_counts(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keys = batch.column(by)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        if keys.null_count:
            raise ValueError(
                f"grouped_mode: null partition keys in {by!r}"
            )
        t = batch.select([by, val_col])
        vcol = t.column(val_col)
        if vcol.null_count:
            t = t.filter(pc.is_valid(vcol))
        part = t.group_by([by, val_col]).aggregate([([], "count_all")])
        part = part.rename_columns([by, val_col, "__cnt"])
        return part.append_column(
            "__pk", pa.array(col_bucket(part.column(by), num_buckets))
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if group.num_rows == 0:
            return pa.table({
                by: group.column(by).slice(0, 0),
                out_col: group.column(val_col).slice(0, 0),
                "n": pa.array([], pa.int64()),
            })
        # sum the per-batch partials, then argmax per key
        tot = group.select([by, val_col, "__cnt"]).group_by(
            [by, val_col]
        ).aggregate([("__cnt", "sum")])
        keys = tot.column(by).to_numpy(zero_copy_only=False)
        _, codes = np.unique(keys, return_inverse=True)
        cnt = tot.column("__cnt_sum").to_numpy(zero_copy_only=False)
        vals = _sortable(tot.column(val_col))
        # (key, -cnt, val): first row per key = (max count, min value)
        order = np.lexsort([vals, -cnt, codes])
        seg = codes[order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        first[1:] = seg[1:] != seg[:-1]
        sel = pa.array(order[np.flatnonzero(first)], pa.int64())
        return pa.table({
            by: pc.take(tot.column(by), sel),
            out_col: pc.take(tot.column(val_col), sel),
            "n": pc.take(tot.column("__cnt_sum"), sel).cast(pa.int64()),
        })

    return (
        ds.map_batches(partial_counts, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby("__pk")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def grouped_count_distinct(
    ds: ray.data.Dataset,
    by: str,
    val_col: str,
    out_col: str | None = None,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Exact ``count(DISTINCT val) GROUP BY by`` — the generic form of
    ``doc_frequency``'s (token, doc) pair-dedup (ops/text.py). Each
    batch DEDUPS its own (key, value) pairs with Arrow's hash group-by
    BEFORE anything moves (shuffle volume bounded by distinct pairs,
    never rows), then ONE coarse-bucket exchange resolves every key
    with two more C++ group-bys. Null values don't count (SQL
    semantics); null keys raise, same as the other grouped ops."""
    import pyarrow.compute as pc

    if out_col is None:
        out_col = f"n_distinct_{val_col}"
    if num_buckets is None:
        num_buckets = derive_num_buckets(ds)

    def pairs(batch: pa.Table) -> pa.Table:
        keys = batch.column(by)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        if keys.null_count:
            raise ValueError(
                f"grouped_count_distinct: null partition keys in {by!r}"
            )
        t = batch.select([by, val_col])
        vcol = t.column(val_col)
        if vcol.null_count:
            t = t.filter(pc.is_valid(vcol))
        d = t.group_by([by, val_col]).aggregate([])  # local pair dedup
        return d.append_column(
            "__pk", pa.array(col_bucket(d.column(by), num_buckets))
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({
                by: group.column(by).slice(0, 0),
                out_col: pa.array([], pa.int64()),
            })
        d = group.select([by, val_col]).group_by(
            [by, val_col]
        ).aggregate([])  # cross-batch pair dedup
        out = d.group_by([by]).aggregate([([], "count_all")])
        return pa.table({
            by: out.column(by),
            out_col: out.column("count_all").cast(pa.int64()),
        })

    return (
        ds.map_batches(pairs, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby("__pk")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def unpivot(
    ds: ray.data.Dataset,
    id_cols: list[str],
    value_cols: list[str],
    var_name: str = "variable",
    value_name: str = "value",
    drop_nulls: bool = False,
) -> ray.data.Dataset:
    """Wide → long: one output row per (input row, value column) —
    pandas-melt semantics, i.e. NULL values KEEP their row by default
    (SQL UNPIVOT without INCLUDE NULLS drops them; pass
    ``drop_nulls=True`` for that behavior). Pure per-batch reshape —
    zero shuffle; value columns must share one Arrow type (cast
    upstream otherwise, same rule as SQL UNPIVOT)."""
    if not value_cols:
        raise ValueError("value_cols must be non-empty")

    def melt(batch: pa.Table) -> pa.Table:
        vt = batch.column(value_cols[0]).type
        for c in value_cols[1:]:
            if not batch.column(c).type.equals(vt):
                raise ValueError(
                    f"unpivot value columns disagree on type: "
                    f"{value_cols[0]}={vt} vs {c}={batch.column(c).type}"
                )
        import pyarrow.compute as pc

        parts = []
        for c in value_cols:
            sub = batch
            if drop_nulls:
                vc = sub.column(c)
                if vc.null_count:
                    sub = sub.filter(pc.is_valid(vc))
            cols = {i: sub.column(i) for i in id_cols}
            cols[var_name] = const_string_array(sub.num_rows, c)
            cols[value_name] = sub.column(c)
            parts.append(pa.table(cols))
        return pa.concat_tables(parts, promote_options="none")

    return ds.map_batches(melt, batch_format="pyarrow",
                          zero_copy_batch=True)


_PIVOT_AGGS = ("sum", "count", "min", "max")


def pivot_fixed(
    ds: ray.data.Dataset,
    by: str,
    cat_col: str,
    val_col: str,
    categories: list,
    agg: str = "sum",
    prefix: str = "",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Long → wide over a FIXED category list (SQL ``SUM(CASE WHEN
    cat='c' THEN val END) AS c ... GROUP BY by`` — static columns, so
    the schema is known up front). One row per key — INCLUDING keys
    none of whose rows carry an in-list category (their columns are
    all NULL / count 0, exactly like the SQL form); one output column
    per category, named ``prefix + str(category)``. Out-of-list and
    null categories contribute key presence only.

    Scale shape: each batch pre-aggregates (key, cat) cells with
    Arrow's hash group-by (the combiner — the shuffle ships at most
    keys x categories partial cells per batch), then one coarse-bucket
    exchange and a vectorized scatter into the (keys x categories)
    matrix per bucket. A category column that SQL would leave NULL
    (no rows for that key/cat) is NULL here too (count: 0)."""
    import pyarrow.compute as pc

    if agg not in _PIVOT_AGGS:
        raise ValueError(f"agg must be one of {_PIVOT_AGGS}, got {agg!r}")
    if not categories:
        raise ValueError("categories must be non-empty")
    cats = list(categories)
    out_names = [f"{prefix}{c}" for c in cats]
    if len(set(out_names)) != len(out_names):
        raise ValueError(f"duplicate pivot column names: {out_names}")
    if num_buckets is None:
        num_buckets = derive_num_buckets(ds)
    arrow_agg = {"sum": "sum", "count": "count", "min": "min",
                 "max": "max"}[agg]

    def partial_cells(batch: pa.Table) -> pa.Table:
        keys = batch.column(by)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        if keys.null_count:
            raise ValueError(
                f"pivot_fixed: null partition keys in {by!r}"
            )
        t = batch.select([by, cat_col, val_col])
        # out-of-list categories collapse to ONE null-cat cell per key
        # (bounded combiner cardinality even on a high-card cat_col)
        # instead of being dropped — the key must survive to the
        # output like SQL's GROUP BY would keep it
        cat = t.column(cat_col)
        if isinstance(cat, pa.ChunkedArray):
            cat = cat.combine_chunks()
        in_list = pc.is_in(cat, value_set=pa.array(cats))
        t = t.set_column(
            t.column_names.index(cat_col), cat_col,
            pc.if_else(in_list, cat, pa.nulls(len(cat), cat.type)),
        )
        cell = t.group_by([by, cat_col]).aggregate(
            [(val_col, arrow_agg)]
        )
        cell = cell.rename_columns([by, cat_col, "__v"])
        return cell.append_column(
            "__pk", pa.array(col_bucket(cell.column(by), num_buckets))
        )

    # partials re-combine with the same op, except count → sum
    merge_agg = "sum" if agg == "count" else arrow_agg

    def per_bucket(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        val_type = group.column("__v").type
        out_type = (pa.int64() if agg == "count" else val_type)
        if group.num_rows == 0:
            cols = {by: group.column(by).slice(0, 0)}
            for nm in out_names:
                cols[nm] = pa.array([], out_type)
            return pa.table(cols)
        tot = group.select([by, cat_col, "__v"]).group_by(
            [by, cat_col]
        ).aggregate([("__v", merge_agg)])
        vname = f"__v_{merge_agg}"
        keys = tot.column(by).to_numpy(zero_copy_only=False)
        ukeys, codes = np.unique(keys, return_inverse=True)
        cat_idx = np.asarray(pc.fill_null(pc.index_in(
            tot.column(cat_col), value_set=pa.array(cats)
        ), -1), dtype=np.int64)  # -1 = the key-presence (null-cat) cell
        vals = tot.column(vname)
        cols = {by: pc.take(
            tot.column(by),
            pa.array(np.unique(codes, return_index=True)[1], pa.int64()),
        )}
        nk = len(ukeys)
        filled = np.full((nk, len(cats)), -1, dtype=np.int64)
        scatter = cat_idx >= 0
        filled[codes[scatter], cat_idx[scatter]] = (
            np.arange(len(codes))[scatter]
        )
        for j, nm in enumerate(out_names):
            sel = filled[:, j]
            take_idx = pa.array(np.maximum(sel, 0), mask=sel < 0)
            colv = pc.take(vals, take_idx)
            if agg == "count":
                colv = pc.fill_null(colv.cast(pa.int64()), 0)
            cols[nm] = colv
        return pa.table(cols)

    return (
        ds.map_batches(partial_cells, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby("__pk")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def explode(
    ds: ray.data.Dataset,
    list_col: str,
    out_col: str | None = None,
    pos_col: str | None = None,
    keep_empty: bool = False,
) -> ray.data.Dataset:
    """SQL ``UNNEST`` (cross join lateral) over a list column: one
    output row per list element, the other columns repeated. Rows
    whose list is NULL or empty disappear — SQL semantics — unless
    ``keep_empty=True`` (pandas ``explode``: they survive with a NULL
    element). NULL elements INSIDE a list are kept either way.
    ``pos_col`` adds the element's 0-based position within its list
    (``UNNEST ... WITH ORDINALITY`` is 1-based — add 1 downstream).

    Pure per-batch reshape — zero shuffle, zero driver state: the
    flattened values come straight off the child array
    (``pc.list_flatten``) and the row repeat is one ``take`` over
    ``pc.list_parent_indices``. Output row count is bounded by the
    batch's total element count, so size ``batch_size`` upstream by
    elements, not rows, for wide lists."""
    if out_col is None:
        out_col = f"{list_col}_elem"

    def f(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = batch.column(list_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        t = col.type
        if not (pa.types.is_list(t) or pa.types.is_large_list(t)
                or pa.types.is_fixed_size_list(t)):
            raise TypeError(
                f"explode: column {list_col!r} has type {t}, not a list"
            )
        parent = pc.list_parent_indices(col)
        flat = pc.list_flatten(col)
        other_names = [c for c in batch.column_names if c != list_col]
        if out_col in other_names:
            raise ValueError(
                f"explode: out_col {out_col!r} collides with an "
                "existing column; pass a distinct out_col"
            )
        if pos_col is not None and pos_col in (*other_names, out_col):
            raise ValueError(
                f"explode: pos_col {pos_col!r} collides with an "
                "existing column"
            )
        others = batch.select(other_names).take(parent)
        cols = {}
        for c in batch.column_names:
            if c == list_col:
                cols[out_col] = flat
            else:
                cols[c] = others.column(c)
        if pos_col is not None:
            lens = np.asarray(
                pc.fill_null(pc.list_value_length(col), 0),
                dtype=np.int64,
            )
            ends = np.cumsum(lens)
            starts = ends - lens  # shape matches lens even when empty
            pos = (np.arange(int(lens.sum()), dtype=np.int64)
                   - np.repeat(starts, lens))
            cols[pos_col] = pa.array(pos, pa.int64())
        out = pa.table(cols)
        if keep_empty:
            lens = np.asarray(
                pc.fill_null(pc.list_value_length(col), 0),
                dtype=np.int64,
            )
            empty_idx = np.flatnonzero(lens == 0)
            if len(empty_idx):
                rest = batch.select(other_names).take(
                    pa.array(empty_idx, pa.int64())
                )
                add = {}
                for c in batch.column_names:
                    if c == list_col:
                        add[out_col] = pa.nulls(len(empty_idx), flat.type)
                    else:
                        add[c] = rest.column(c)
                if pos_col is not None:
                    add[pos_col] = pa.nulls(len(empty_idx), pa.int64())
                out = pa.concat_tables([out, pa.table(add)],
                                       promote_options="none")
        return out

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


_ROLLUP_AGGS = ("sum", "count", "min", "max", "mean")


def _merge_op(op: str) -> str:
    """How a partial re-aggregates when its grouping coarsens."""
    return "sum" if op in ("count", "count_all") else op


def _level_exchange(
    ds: ray.data.Dataset,
    keys: list[str],
    parts: list[tuple[str, str]],
    num_buckets: int,
) -> ray.data.Dataset:
    """Re-aggregate a (keys ∪ partial columns) dataset to a coarser
    ``keys`` grouping: per-batch combiner (Arrow hash group-by over the
    partials' merge ops), null-safe multi-key coarse bucket, ONE
    ``groupby(__pk)``, vectorized per-bucket merge. ``keys == []`` is
    the grand-total grouping set (everything lands in bucket 0 — by
    then the input is an already-aggregated level, rows ≈ groups)."""

    def agg_to(t: pa.Table) -> pa.Table:
        dummy = not keys
        if dummy:
            t = t.append_column(
                "__all", pa.array(np.zeros(t.num_rows, np.int32))
            )
        gkeys = keys if keys else ["__all"]
        if t.num_rows == 0:
            out = {k: t.column(k) for k in keys}
            for p, _ in parts:
                out[p] = t.column(p)
            out["__pk"] = pa.array([], pa.int32())
            return pa.table(out)
        g = t.group_by(gkeys).aggregate(
            [(p, _merge_op(op)) for p, op in parts]
        )
        out = {k: g.column(k) for k in keys}
        for p, op in parts:
            out[p] = g.column(f"{p}_{_merge_op(op)}")
        res = pa.table(out)
        res = res.append_column(
            "__pk", pa.array(multi_bucket_hash(res, keys, num_buckets))
        )
        return res

    def comb(batch: pa.Table) -> pa.Table:
        return agg_to(batch.select(keys + [p for p, _ in parts]))

    def merge(group: pa.Table) -> pa.Table:
        res = agg_to(group.select(keys + [p for p, _ in parts]))
        return res.drop_columns(["__pk"])

    return (
        ds.map_batches(comb, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__pk")
        .map_groups(merge, batch_format="pyarrow")
    )


def rollup(
    ds: ray.data.Dataset,
    by: list[str],
    aggs: list[tuple[str | None, str]],
    cube: bool = False,
    grouping_col: str = "grouping_id",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """``GROUP BY ROLLUP(by...)`` (or ``CUBE`` with ``cube=True``):
    every grouping-set level in one result, key columns NULL where the
    level aggregates them away, plus ``grouping_col`` = SQL's
    ``GROUPING(by...)`` bitmask (bit ``2^(n-1-i)`` set when ``by[i]``
    is rolled up — DuckDB/postgres bit order, so input-NULL keys stay
    distinguishable from rollup NULLs exactly as in SQL).

    ``aggs``: (column, agg) pairs with agg in sum/count/min/max/mean;
    ``(None, "count")`` is ``COUNT(*)`` (output column ``n``, others
    ``{agg}_{col}``). All five re-aggregate from partials (mean ships
    sum+count), so the INPUT is read and shuffled exactly ONCE — the
    finest level is the repo's standard combiner + one-exchange
    aggregate, and every coarser level re-aggregates the previous
    (already tiny) level's partials: the classic rollup cascade.
    Coarser levels come from MATERIALIZED aggregate outputs (bounded
    by group count, not input size) — branching a lazy Dataset would
    re-execute the whole input scan per level instead.

    Input NULL keys group together (Arrow group-by ≡ SQL GROUP BY).
    """
    if not by:
        raise ValueError("by must be non-empty")
    if not aggs:
        raise ValueError("aggs must be non-empty")
    for col, op in aggs:
        if op not in _ROLLUP_AGGS:
            raise ValueError(
                f"agg must be one of {_ROLLUP_AGGS}, got {op!r}"
            )
        if col is None and op != "count":
            raise ValueError("col=None is only valid for 'count'")
    final_names = [("n" if c is None else f"{op}_{c}") for c, op in aggs]
    if len(set(final_names)) != len(final_names):
        raise ValueError(f"duplicate output columns: {final_names}")
    clash = set(final_names + [grouping_col]) & set(by)
    if clash or grouping_col in final_names:
        raise ValueError(
            f"rollup: output column name(s) "
            f"{sorted(clash) or [grouping_col]} collide with the "
            "grouping keys; rename grouping_col or the aggregate"
        )
    if num_buckets is None:
        num_buckets = derive_num_buckets(ds)

    # one partial per distinct (col, op) need; mean needs two
    need: dict[tuple[str | None, str], str] = {}
    for col, op in aggs:
        if op == "mean":
            need.setdefault((col, "sum"), f"__g{len(need)}")
            need.setdefault((col, "count"), f"__g{len(need)}")
        elif col is None:
            need.setdefault((None, "count_all"), f"__g{len(need)}")
        else:
            need.setdefault((col, op), f"__g{len(need)}")
    parts = [(name, op) for (_, op), name in need.items()]

    def initial(batch: pa.Table) -> pa.Table:
        val_cols = sorted({c for (c, _), _ in need.items() if c})
        t = batch.select(by + [c for c in val_cols if c not in by])
        specs, out_names = [], []
        for (col, op), name in need.items():
            specs.append(([], "count_all") if col is None else (col, op))
            out_names.append(name)
        g = t.group_by(by).aggregate(specs)
        out = {k: g.column(k) for k in by}
        for (col, op), name in need.items():
            src = "count_all" if col is None else f"{col}_{op}"
            out[name] = g.column(src)
        res = pa.table(out)
        return res.append_column(
            "__pk", pa.array(multi_bucket_hash(res, by, num_buckets))
        )

    def merge_finest(group: pa.Table) -> pa.Table:
        t = group.select(by + [p for p, _ in parts])
        if t.num_rows == 0:
            return t
        g = t.group_by(by).aggregate(
            [(p, _merge_op(op)) for p, op in parts]
        )
        out = {k: g.column(k) for k in by}
        for p, op in parts:
            out[p] = g.column(f"{p}_{_merge_op(op)}")
        return pa.table(out)

    finest = (
        ds.map_batches(initial, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby("__pk")
        .map_groups(merge_finest, batch_format="pyarrow")
    ).materialize()
    sch = finest.schema()
    key_types = {n: t for n, t in zip(sch.names, sch.types)}

    if cube:
        n = len(by)
        level_keys = sorted(
            ([by[i] for i in range(n) if mask & (1 << (n - 1 - i))]
             for mask in range(1 << n)),
            key=len, reverse=True,
        )
    else:
        level_keys = [by[:k] for k in range(len(by), -1, -1)]

    def finalize(level: ray.data.Dataset, keys: list[str]):
        gid = sum(
            1 << (len(by) - 1 - i)
            for i, c in enumerate(by) if c not in keys
        )

        def fin(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            nrows = batch.num_rows
            out = {}
            for c in by:
                out[c] = (batch.column(c) if c in keys
                          else pa.nulls(nrows, key_types[c]))
            out[grouping_col] = pa.array(
                np.full(nrows, gid, np.int64)
            )
            for (col, op), fname in zip(aggs, final_names):
                if op == "mean":
                    s = batch.column(need[(col, "sum")]).cast(pa.float64())
                    c = batch.column(need[(col, "count")]).cast(
                        pa.float64()
                    )
                    q = pc.divide(s, c)
                    out[fname] = pc.if_else(pc.greater(c, 0.0), q,
                                            pa.nulls(nrows, pa.float64()))
                elif op == "count":
                    p = need[(None, "count_all") if col is None
                             else (col, "count")]
                    out[fname] = batch.column(p).cast(pa.int64())
                else:
                    out[fname] = batch.column(need[(col, op)])
            return pa.table(out)

        return level.map_batches(fin, batch_format="pyarrow",
                                 zero_copy_batch=True)

    outs = []
    prev = finest
    for keys in level_keys:
        if keys == by:
            level = finest
        else:
            # rollup: cascade from the previous (immediately finer)
            # level; cube: every subset re-aggregates the finest
            src = finest if cube else prev
            level = _level_exchange(
                src, keys, parts,
                num_buckets=max(1, num_buckets // 16),
            ).materialize()
            prev = level
        outs.append(finalize(level, keys))
    res = outs[0]
    if len(outs) > 1:
        res = res.union(*outs[1:])
    return res
