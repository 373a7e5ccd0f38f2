"""Window functions per key — N functions for the price of ONE shuffle.

SQL's ``fn(val) OVER (PARTITION BY key ORDER BY ...)`` family: rolling
and expanding frame aggregates (``ROWS BETWEEN k-1 PRECEDING AND
CURRENT ROW`` / ``UNBOUNDED PRECEDING``), LAG/LEAD, the rank functions
(ROW_NUMBER / RANK / DENSE_RANK / NTILE) and FIRST_VALUE. Real engines
resolve every window function that shares a partition+order spec in a
single partition-sort pass; :func:`window_multi` is that shape on Ray
Data — co-locate each key's rows on a coarse ``pk = hash(key) % B``
bucket (ONE all-to-all for the whole spec list), then resolve ALL of a
bucket's keys and ALL requested functions with one lexsort + segment
arithmetic (no per-row Python, no per-key tasks). At 100 TB, adding a
window function to an existing spec costs zero extra shuffles.

Frame-exactness contract (what lets the DuckDB oracle hash-match):
MIN/MAX frames are float-exact (shifted fmax/fmin — no
re-association); SUM/MEAN run on exact int64 prefix-sum differences
and are offered for integer value columns only — rolling SUM over
floats would re-associate float addition and is deliberately refused.
LAG/LEAD move values by Arrow ``take`` (type-preserving, never through
numpy casts). The ordering must be total per key (pass a tiebreak
column) — otherwise frame contents are implementation-defined, same
as SQL; RANK/DENSE_RANK tie groups are rows whose order columns
compare equal (order columns must be non-null for the rank kinds).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

import ray

from .bucketing import col_bucket, derive_num_buckets


def _sortable(col) -> np.ndarray:
    arr = col.to_numpy(zero_copy_only=False)
    return arr.view("i8") if arr.dtype.kind in "Mm" else arr


_FRAME_AGGS = ("max", "min", "sum", "mean", "count")
_SHIFTS = ("lag", "lead")
_RANKS = ("row_number", "rank", "dense_rank", "ntile",
          "percent_rank", "cume_dist")
_KINDS = _FRAME_AGGS + _SHIFTS + _RANKS + ("first_value",)


@dataclass(frozen=True)
class WindowSpec:
    """One window function over the shared (by, order_cols) spec.

    kind: one of max/min/sum/mean/count (frame aggregates; ``window``
    rows ending at the current row, ``window=None`` = expanding),
    lag/lead (``periods`` rows, type-preserving), row_number / rank /
    dense_rank / ntile (``n`` buckets) / percent_rank / cume_dist,
    first_value (partition-start value, type-preserving).

    range_window (frame aggregates only, exclusive with ``window``):
    SQL ``RANGE BETWEEN <delta> PRECEDING AND CURRENT ROW`` — the
    frame is every partition row whose ORDER value is within ``delta``
    of the current row's (requires exactly ONE order column, non-null
    values). ``delta``: a ``datetime.timedelta`` for timestamp order
    columns, or a number in the column's own units (raw ticks for
    temporals). ``delta=0`` is the SQL peers-only frame."""

    kind: str
    val_col: str | None = None
    window: int | None = None
    periods: int = 1
    n: int | None = None
    out_col: str | None = None
    range_window: object = None

    def resolved_out_col(self) -> str:
        if self.out_col is not None:
            return self.out_col
        if self.kind in _FRAME_AGGS:
            if self.range_window is not None:
                return f"range_{self.kind}"
            return f"rolling_{self.kind}"
        if self.kind == "lag":
            return f"lag{self.periods}_{self.val_col}"
        if self.kind == "lead":
            return f"lead{self.periods}_{self.val_col}"
        if self.kind == "ntile":
            return f"ntile{self.n}"
        if self.kind == "first_value":
            return f"first_{self.val_col}"
        return self.kind

    def validate(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.kind in _FRAME_AGGS:
            if self.val_col is None:
                raise ValueError(f"{self.kind} needs val_col")
            if self.range_window is not None and self.window is not None:
                raise ValueError(
                    "window (ROWS frame) and range_window (RANGE "
                    "frame) are mutually exclusive"
                )
            if self.window is None and self.range_window is None:
                if self.kind in ("max", "min"):
                    raise ValueError(
                        f"expanding {self.kind} needs an O(frame) pass "
                        "per row; give an explicit window or "
                        "range_window"
                    )
            elif self.window is not None and self.window < 1:
                raise ValueError(
                    f"window must be >= 1, got {self.window}"
                )
        elif self.range_window is not None:
            raise ValueError(
                f"range_window is only valid for frame aggregates "
                f"{_FRAME_AGGS}, not {self.kind!r}"
            )
        elif self.kind in _SHIFTS:
            if self.val_col is None:
                raise ValueError(f"{self.kind} needs val_col")
            if self.periods < 1:
                raise ValueError(
                    f"{self.kind} periods must be >= 1, got "
                    f"{self.periods} (use the other kind to flip "
                    "direction)"
                )
        elif self.kind == "ntile":
            if self.n is None or self.n < 1:
                raise ValueError(f"ntile needs n >= 1, got {self.n}")
        elif self.kind == "first_value" and self.val_col is None:
            raise ValueError("first_value needs val_col")


def _range_ticks(delta, arrow_type) -> int | float:
    """Resolve a RANGE delta to the order column's own units."""
    import datetime

    if isinstance(delta, datetime.timedelta):
        if not pa.types.is_timestamp(arrow_type):
            raise TypeError(
                f"timedelta range_window needs a timestamp order "
                f"column, got {arrow_type}"
            )
        us = (delta.days * 86_400_000_000
              + delta.seconds * 1_000_000 + delta.microseconds)
        unit = arrow_type.unit
        if unit == "ns":
            ticks = us * 1000
        elif unit == "us":
            ticks = us
        else:
            per = 1_000 if unit == "ms" else 1_000_000
            if us % per:
                raise ValueError(
                    f"range_window {delta!r} is not representable in "
                    f"the order column's {unit} resolution"
                )
            ticks = us // per
    elif isinstance(delta, (bool, np.bool_)):
        raise TypeError(f"range_window must be numeric, got {delta!r}")
    elif isinstance(delta, (int, np.integer)):
        ticks = int(delta)
    elif isinstance(delta, (float, np.floating)):
        ticks = float(delta)
    else:
        raise TypeError(
            f"range_window must be a number or datetime.timedelta, "
            f"got {type(delta).__name__}"
        )
    if ticks < 0:
        raise ValueError(f"range_window must be >= 0, got {delta!r}")
    return ticks


def _range_frame_starts(
    ov: np.ndarray, seg: np.ndarray, ticks
) -> np.ndarray:
    """Sorted-domain frame-start index per row for ``RANGE ticks
    PRECEDING``: the first row of the current row's segment whose
    order value >= ov[i] - ticks.

    Vectorized by MERGING the data values with the shifted query
    values in one segment-major lexsort and counting data elements
    before each query (queries tag-sort BEFORE equal data values, so
    equal-valued rows are inside the frame — SQL's inclusive bound).
    Costs one extra lexsort per delta per bucket, the same complexity
    class as the spec's shared ordering sort."""
    n = len(ov)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if ov.dtype.kind in "iu" and not isinstance(ticks, (int, np.integer)):
        # integer order values: v >= ov - t  <=>  v >= ov - floor(t),
        # so flooring the delta keeps frames EXACT while avoiding the
        # float64 promotion of ov - ticks (ns-epoch timestamps exceed
        # 2^53 and would collapse adjacent values)
        import math

        ticks = min(int(math.floor(ticks)), int(np.iinfo(ov.dtype).max))
    q = ov - ticks
    if ov.dtype.kind in "iu" and ticks > 0:
        # underflow wrap near the domain minimum clamps to -inf
        wrapped = q > ov
        if wrapped.any():
            q[wrapped] = np.iinfo(ov.dtype).min
    tag2 = np.concatenate(
        (np.ones(n, np.int8), np.zeros(n, np.int8))
    )
    m = np.lexsort([
        tag2,
        np.concatenate((ov, q)),
        np.concatenate((seg, seg)),
    ])
    pos = np.empty(2 * n, dtype=np.int64)
    pos[m] = np.arange(2 * n, dtype=np.int64)
    cum_data = np.cumsum(tag2[m].astype(np.int64))
    # merged order is segment-major, so the count of data elements
    # before q[i] is exactly (rows in earlier segments) + (rows in
    # this segment with value < q[i]) = the global frame start
    return cum_data[pos[n:]]


def _range_minmax(
    vals: np.ndarray, start: np.ndarray, idx: np.ndarray, op
) -> np.ndarray:
    """Exact min/max over per-row variable-width frames [start, idx]
    via a sparse table: log2(max frame) doubling levels, then each
    row reads two overlapping power-of-two blocks. NaN marks SQL NULL
    (``op`` is np.fmin/np.fmax, which skip single NaNs)."""
    n = len(vals)
    if n == 0:
        return vals
    L = idx - start + 1
    max_l = int(L.max())
    levels = [vals]
    while (1 << len(levels)) <= max_l:
        half = 1 << (len(levels) - 1)
        prev = levels[-1]
        levels.append(op(prev[:-half], prev[half:]))
    k_of = np.frexp(L.astype(np.float64))[1] - 1  # floor(log2(L))
    res = np.empty(n, dtype=vals.dtype)
    for kv in np.unique(k_of):
        rows = np.flatnonzero(k_of == kv)
        size = 1 << int(kv)
        sp = levels[int(kv)]
        res[rows] = op(sp[start[rows]], sp[idx[rows] - size + 1])
    return res


def rolling_max(
    ds: ray.data.Dataset,
    by: str,
    order_cols: list[str],
    val_col: str,
    window: int,
    out_col: str = "rolling_max",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Per-``by`` rolling max — see :func:`rolling_agg`."""
    return rolling_agg(
        ds, by, order_cols, val_col, window, agg="max", out_col=out_col,
        num_buckets=num_buckets,
    )


def rolling_agg(
    ds: ray.data.Dataset,
    by: str,
    order_cols: list[str],
    val_col: str,
    window: int | None,
    agg: str = "max",
    out_col: str | None = None,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Per-``by`` rolling aggregate of ``val_col`` over the current row
    and the ``window - 1`` preceding rows in ``order_cols`` order —
    SQL's ``agg(val) OVER (PARTITION BY by ORDER BY ... ROWS BETWEEN
    window-1 PRECEDING AND CURRENT ROW)``. ``window=None`` is the
    EXPANDING frame (``ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT
    ROW`` — running totals per key), supported for the prefix-sum
    aggregates (sum/mean/count; max/min would need an O(frame) pass
    per row and are refused). Returns the projected columns plus
    ``out_col``; nulls behave like SQL (ignored within the frame; an
    all-null frame yields NULL, except COUNT → 0). Thin wrapper over
    :func:`window_multi` with a single spec."""
    if agg not in _FRAME_AGGS:
        raise ValueError(f"agg must be one of {_FRAME_AGGS}, got {agg!r}")
    spec = WindowSpec(kind=agg, val_col=val_col, window=window,
                      out_col=out_col or f"rolling_{agg}")
    return window_multi(ds, by, order_cols, [spec],
                        num_buckets=num_buckets)


def shift_by_key(
    ds: ray.data.Dataset,
    by: str,
    order_cols: list[str],
    val_col: str,
    periods: int = 1,
    out_col: str | None = None,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """SQL LAG (``periods`` > 0) / LEAD (``periods`` < 0) of
    ``val_col`` within each ``by`` partition in ``order_cols`` order;
    out-of-partition frames yield NULL. Type-preserving (the shifted
    column keeps ``val_col``'s Arrow type — values move by ``take``,
    never through numpy casts). Thin wrapper over
    :func:`window_multi` with a single spec."""
    if periods == 0:
        raise ValueError("periods must be nonzero (0 is the identity)")
    spec = WindowSpec(
        kind="lag" if periods > 0 else "lead",
        val_col=val_col, periods=abs(periods), out_col=out_col,
    )
    return window_multi(ds, by, order_cols, [spec],
                        num_buckets=num_buckets)


def window_multi(
    ds: ray.data.Dataset,
    by: str,
    order_cols: list[str],
    specs: list[WindowSpec],
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Resolve every window function in ``specs`` over the shared
    ``PARTITION BY by ORDER BY order_cols`` spec in ONE coarse-bucket
    shuffle and ONE lexsort per bucket. Output: ``by`` + ``order_cols``
    + each distinct ``val_col`` + one column per spec."""
    if not specs:
        raise ValueError("specs must be non-empty")
    for s in specs:
        s.validate()
    out_names = [s.resolved_out_col() for s in specs]
    if len(set(out_names)) != len(out_names):
        raise ValueError(f"duplicate out_col names: {out_names}")
    val_cols: list[str] = []
    for s in specs:
        if s.val_col is not None and s.val_col not in val_cols:
            val_cols.append(s.val_col)
    base_cols = [by] + [c for c in order_cols if c != by]
    proj_vals = [c for c in val_cols if c not in base_cols]
    out_schema = base_cols + proj_vals
    need_rank = any(
        s.kind in ("rank", "dense_rank", "percent_rank", "cume_dist")
        for s in specs
    )
    has_range = any(s.range_window is not None for s in specs)
    if has_range and len(order_cols) != 1:
        raise ValueError(
            "RANGE frames need exactly one ORDER BY column, got "
            f"{order_cols}"
        )
    if num_buckets is None:
        num_buckets = derive_num_buckets(ds)

    def project(batch: pa.Table) -> pa.Table:
        keys = batch.column(by)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        if keys.null_count:
            raise ValueError(
                f"window_multi: null partition keys in {by!r}"
            )
        cols = {by: keys}
        for c in out_schema[1:]:
            cols[c] = batch.column(c)
        cols["__pk"] = pa.array(col_bucket(keys, num_buckets))
        return pa.table(cols)

    def _agg_out_type(kind: str) -> pa.DataType:
        return {
            "max": pa.float64(), "min": pa.float64(),
            "mean": pa.float64(), "sum": pa.int64(),
            "count": pa.int64(),
        }[kind]

    def per_bucket(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = group.num_rows

        def vcol_of(name: str) -> pa.Array:
            c = group.column(name)
            return c.combine_chunks() if isinstance(c, pa.ChunkedArray) \
                else c

        if n == 0:
            t = {c: group.column(c).slice(0, 0) for c in out_schema}
            for s in specs:
                if s.kind in _FRAME_AGGS:
                    typ = _agg_out_type(s.kind)
                elif s.kind in ("percent_rank", "cume_dist"):
                    typ = pa.float64()
                elif s.kind in _RANKS:
                    typ = pa.int64()
                else:  # lag/lead/first_value: type-preserving
                    typ = vcol_of(s.val_col).type
                t[s.resolved_out_col()] = pa.array([], typ)
            return pa.table(t)

        keys = group.column(by).to_numpy(zero_copy_only=False)
        _, codes = np.unique(keys, return_inverse=True)
        sorted_order_vals = {
            c: _sortable(group.column(c)) for c in order_cols
        }
        order = np.lexsort(
            [sorted_order_vals[c] for c in reversed(order_cols)]
            + [codes]
        )
        seg = codes[order]
        idx = np.arange(n, dtype=np.int64)
        inv = np.empty(n, dtype=np.int64)
        inv[order] = idx
        new_seg = np.empty(n, dtype=bool)
        new_seg[0] = True
        new_seg[1:] = seg[1:] != seg[:-1]
        first = np.maximum.accumulate(np.where(new_seg, idx, 0))

        # per-row segment length (ntile needs it): boundary diffs
        seg_starts = np.flatnonzero(new_seg)
        seg_lens = np.diff(np.append(seg_starts, n))
        seg_local = np.cumsum(new_seg) - 1
        cnt = seg_lens[seg_local]

        if need_rank:
            # tie group = rows whose order columns compare equal
            # within the segment (order cols must be non-null; NaN
            # order keys would each form their own tie group)
            tiestart = new_seg.copy()
            for c in order_cols:
                ov = sorted_order_vals[c][order]
                tiestart[1:] |= ov[1:] != ov[:-1]
            tie_first = np.maximum.accumulate(
                np.where(tiestart, idx, 0)
            )
            dr = np.cumsum(tiestart)
            if any(s.kind == "cume_dist" for s in specs):
                # last row index of each tie group (CUME_DIST counts
                # the current row's peers too): scatter each group's
                # end backwards over its members
                tie_last = np.empty(n, dtype=np.int64)
                bounds = np.flatnonzero(tiestart)
                ends = np.append(bounds[1:], n) - 1
                tie_last[:] = np.repeat(ends, np.diff(
                    np.append(bounds, n)
                ))

        range_starts: dict[object, np.ndarray] = {}
        if has_range:
            ocol = group.column(order_cols[0])
            if isinstance(ocol, pa.ChunkedArray):
                ocol = ocol.combine_chunks()
            if ocol.null_count:
                raise ValueError(
                    "RANGE frames need non-null order values in "
                    f"{order_cols[0]!r}"
                )
            ov_sorted = sorted_order_vals[order_cols[0]][order]
            if ov_sorted.dtype.kind == "f" and np.isnan(ov_sorted).any():
                raise ValueError(
                    "RANGE frames cannot order by NaN values"
                )
            order_arrow_type = ocol.type
            # SQL RANGE ... AND CURRENT ROW ends at the current row's
            # LAST PEER (rows with equal order value after it included)
            peer_start = new_seg.copy()
            peer_start[1:] |= ov_sorted[1:] != ov_sorted[:-1]
            pbounds = np.flatnonzero(peer_start)
            pends = np.append(pbounds[1:], n) - 1
            range_end = np.repeat(
                pends, np.diff(np.append(pbounds, n))
            )

        def range_start_of(s: "WindowSpec") -> np.ndarray:
            ticks = _range_ticks(s.range_window, order_arrow_type)
            if ticks not in range_starts:
                range_starts[ticks] = _range_frame_starts(
                    ov_sorted, seg, ticks
                )
            return range_starts[ticks]

        # cache per-val-col sorted state shared across specs
        sorted_f64: dict[str, np.ndarray] = {}
        prefix_cnt: dict[str, np.ndarray] = {}
        prefix_sum: dict[str, np.ndarray] = {}

        def f64_sorted(name: str) -> np.ndarray:
            if name not in sorted_f64:
                sorted_f64[name] = vcol_of(name).to_numpy(
                    zero_copy_only=False
                ).astype(np.float64, copy=False)[order]
            return sorted_f64[name]

        def cnt_prefix(name: str) -> np.ndarray:
            """Cumsum of non-null counts in sorted domain (leading 0);
            any value type (COUNT over strings is legal)."""
            if name not in prefix_cnt:
                vcol = vcol_of(name)
                notnull = (
                    ~np.asarray(pc.is_null(vcol))
                    if vcol.null_count
                    else np.ones(n, dtype=bool)
                )[order]
                prefix_cnt[name] = np.concatenate(
                    ([0], np.cumsum(notnull.astype(np.int64)))
                )
            return prefix_cnt[name]

        def sum_prefix(name: str) -> np.ndarray:
            """Cumsum of null-zeroed int64 values in sorted domain
            (leading 0); integer value columns only (checked at the
            spec site)."""
            if name not in prefix_sum:
                vi = pc.fill_null(vcol_of(name), 0).to_numpy(
                    zero_copy_only=False
                ).astype(np.int64, copy=False)[order]
                prefix_sum[name] = np.concatenate(
                    ([0], np.cumsum(vi))
                )
            return prefix_sum[name]

        t = {c: group.column(c) for c in out_schema}
        for s in specs:
            oc = s.resolved_out_col()
            if s.kind in ("max", "min"):
                vcol = vcol_of(s.val_col)
                vals = f64_sorted(s.val_col)
                # NaN marks SQL NULL; fmax/fmin ignore NaN unless both
                op = np.fmax if s.kind == "max" else np.fmin
                if s.range_window is not None:
                    # variable-width frames: sparse-table range query
                    acc = _range_minmax(
                        vals, range_start_of(s), range_end, op
                    )
                else:
                    acc = vals.copy()
                    for sh in range(1, s.window):
                        same = seg[sh:] == seg[:-sh]
                        acc[sh:] = np.where(
                            same, op(acc[sh:], vals[:-sh]), acc[sh:]
                        )
                res = acc[inv]
                mask = np.isnan(res) if vcol.null_count else None
                t[oc] = pa.array(res, pa.float64(), mask=mask)
            elif s.kind in ("sum", "mean", "count"):
                vcol = vcol_of(s.val_col)
                if s.kind in ("sum", "mean") and not pa.types.is_integer(
                    vcol.type
                ):
                    raise ValueError(
                        f"rolling {s.kind} is exact-int only (float "
                        "frames re-associate); cast explicitly if "
                        "approximate is acceptable"
                    )
                if s.range_window is not None:
                    start = range_start_of(s)
                    hi = range_end
                elif s.window is None:
                    start = first
                    hi = idx
                else:
                    start = np.maximum(first, idx - s.window + 1)
                    hi = idx
                C = cnt_prefix(s.val_col)
                fcnt = C[hi + 1] - C[start]
                if s.kind == "count":
                    t[oc] = pa.array(fcnt[inv], pa.int64())
                else:
                    S = sum_prefix(s.val_col)
                    fsum = S[hi + 1] - S[start]
                    empty = fcnt == 0
                    if s.kind == "sum":
                        res = fsum[inv]
                        typ = pa.int64()
                    else:
                        res = (
                            fsum / np.maximum(fcnt, 1).astype(
                                np.float64
                            )
                        )[inv]
                        typ = pa.float64()
                    mask = empty[inv] if empty.any() else None
                    t[oc] = pa.array(res, typ, mask=mask)
            elif s.kind in _SHIFTS:
                vcol = vcol_of(s.val_col)
                p = s.periods if s.kind == "lag" else -s.periods
                src = idx - p
                ok = (src >= 0) & (src < n)
                src_clamped = np.clip(src, 0, n - 1)
                ok &= seg[src_clamped] == seg
                # null indices -> null outputs through take
                take_idx = pa.array(order[src_clamped], mask=~ok)
                shifted_sorted = pc.take(vcol, take_idx)
                t[oc] = pc.take(shifted_sorted, pa.array(inv))
            elif s.kind == "row_number":
                t[oc] = pa.array((idx - first + 1)[inv], pa.int64())
            elif s.kind == "rank":
                t[oc] = pa.array(
                    (tie_first - first + 1)[inv], pa.int64()
                )
            elif s.kind == "dense_rank":
                t[oc] = pa.array((dr - dr[first] + 1)[inv], pa.int64())
            elif s.kind == "percent_rank":
                # SQL: (rank - 1) / (cnt - 1); single-row partition → 0
                rk = (tie_first - first).astype(np.float64)
                denom = np.maximum(cnt - 1, 1).astype(np.float64)
                t[oc] = pa.array((rk / denom)[inv], pa.float64())
            elif s.kind == "cume_dist":
                # SQL: rows with order key <= current / cnt
                peers = (tie_last - first + 1).astype(np.float64)
                t[oc] = pa.array(
                    (peers / cnt.astype(np.float64))[inv], pa.float64()
                )
            elif s.kind == "ntile":
                # SQL NTILE: the first (cnt % n) tiles get
                # ceil(cnt/n) rows, the rest floor(cnt/n)
                rn0 = idx - first
                small = cnt // s.n
                big = cnt % s.n
                size_big = small + 1
                cut = big * size_big
                tile = np.where(
                    rn0 < cut,
                    rn0 // size_big,
                    big + (rn0 - cut) // np.maximum(small, 1),
                )
                t[oc] = pa.array((tile + 1)[inv], pa.int64())
            elif s.kind == "first_value":
                vcol = vcol_of(s.val_col)
                # value at partition start (expanding-frame
                # FIRST_VALUE); type-preserving via take
                t[oc] = pc.take(
                    pc.take(vcol, pa.array(order[first])),
                    pa.array(inv),
                )
        return pa.table(t)

    return (
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__pk")
        .map_groups(per_bucket, batch_format="pyarrow")
    )
