"""Distributed EXACT quantiles without a global sort.

``Dataset.sort`` answers a k-number question with an all-to-all shuffle
of every row. This operator is the classic distributed-selection plan
instead: histogram refinement. Each round makes ONE streaming pass that
bins every in-range value into ``n_bins`` equal-width buckets per
unresolved target (a vectorized searchsorted per batch — long-form
nonzero counts only), the tiny count table flows through a Ray
``groupby().sum()`` (bounded: n_bins x targets rows out), and each
target's rank localizes into one bucket, shrinking its candidate range
~n_bins x per round. When a target's range holds few enough rows, the
final pass pulls just those values and finishes with one in-memory
partition. Driver state is O(n_bins x targets) counts — never data.

Semantics: the q-quantile is the value at 0-based index
``floor((n - 1) * q)`` of the ascending sort ("lower" interpolation) —
among duplicated boundary values any sort order yields the same VALUE,
so results are exactly SQL's ``row_number() OVER (ORDER BY col)``
selection. Nulls and NaNs are excluded (SQL aggregate semantics).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .bucketing import col_bucket, derive_num_buckets

_PULL_CAP = 262_144  # rows a final exact pass may pull to the driver


def _col_f64(batch: pa.Table, col: str) -> np.ndarray:
    vals = batch.column(col)
    if vals.null_count:
        vals = vals.drop_null()
    arr = vals.to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    if arr.dtype.kind == "f":
        arr = arr[~np.isnan(arr)]
    return arr


def exact_quantiles(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
    n_bins: int = 1024,
    max_rounds: int = 8,
) -> pa.Table:
    """Exact ``qs`` quantiles of ``ds[col]`` → ``{q, value}`` table.

    Passes over the data: 1 (count + min/max) + rounds (histogram,
    usually 1-2: each round shrinks every candidate range ~n_bins x)
    + 1 (pull the terminal ranges). All passes stream; nothing
    data-sized ever lands on the driver.
    """
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")

    stats = ds.map_batches(
        lambda b, c=col: _minmax_count(b, c), batch_format="pyarrow"
    ).to_pandas()
    n = int(stats["n"].sum()) if "n" in stats.columns else 0
    if n == 0:
        return pa.table({"q": pa.array(qs, pa.float64()),
                         "value": pa.nulls(len(qs), pa.float64())})
    glo, ghi = float(stats["lo"].min()), float(stats["hi"].max())

    # target state: [rank within range, lo, hi_inclusive, value, count]
    targets = {
        i: [int(np.floor((n - 1) * q)), glo, ghi, None, n]
        for i, q in enumerate(qs)
    }

    for _ in range(max_rounds):
        active = {i: t for i, t in targets.items()
                  if t[3] is None and t[4] > _PULL_CAP}
        if not active:
            break
        spec = {i: (t[1], t[2]) for i, t in active.items()}
        counts = _pass_histograms(ds, col, spec, n_bins)
        for i, t in active.items():
            c = counts.get(i)
            if c is None or c.sum() == 0:  # empty range: degenerate
                t[3] = t[1]
                continue
            cum = np.cumsum(c)
            k = int(np.searchsorted(cum, t[0] + 1))
            edges = np.linspace(t[1], t[2], n_bins + 1)
            t[0] -= int(cum[k - 1]) if k else 0
            t[1], t[2] = float(edges[k]), float(edges[k + 1])
            t[4] = int(c[k])
            if not (t[1] < t[2]):
                # width underflow: every value in the bucket equals lo
                # (the bucket that holds the rank), so that IS the answer
                t[3] = t[1]

    _final_pull(ds, col, targets)
    return pa.table({
        "q": pa.array(qs, pa.float64()),
        "value": pa.array([targets[i][3] for i in range(len(qs))],
                          pa.float64()),
    })


def _minmax_count(batch: pa.Table, col: str) -> pa.Table:
    arr = _col_f64(batch, col)
    if len(arr) == 0:
        return pa.table({"n": pa.array([0], pa.int64()),
                         "lo": pa.array([np.inf]),
                         "hi": pa.array([-np.inf])})
    return pa.table({"n": pa.array([len(arr)], pa.int64()),
                     "lo": pa.array([float(arr.min())]),
                     "hi": pa.array([float(arr.max())])})


def _pass_histograms(ds, col, spec: dict, n_bins: int) -> dict:
    """One streaming pass: per batch, per target, bin the in-range
    values; nonzero (target, bin, count) rows pre-aggregate through a
    Ray groupby — the driver sees at most len(spec) x n_bins rows."""

    def hist(batch: pa.Table) -> pa.Table:
        arr = _col_f64(batch, col)
        tids, bins, cnts = [], [], []
        for tid, (lo, hi) in spec.items():
            sel = arr[(arr >= lo) & (arr <= hi)]
            if len(sel) == 0:
                continue
            edges = np.linspace(lo, hi, n_bins + 1)
            idx = np.clip(
                np.searchsorted(edges, sel, side="right") - 1,
                0, n_bins - 1,
            )
            c = np.bincount(idx, minlength=n_bins)
            nz = np.flatnonzero(c)
            tids.append(np.full(len(nz), tid, np.int32))
            bins.append(nz.astype(np.int32))
            cnts.append(c[nz])
        if not tids:
            return pa.table({"tid": pa.array([], pa.int32()),
                             "bin": pa.array([], pa.int32()),
                             "cnt": pa.array([], pa.int64())})
        return pa.table({
            "tid": pa.array(np.concatenate(tids)),
            "bin": pa.array(np.concatenate(bins)),
            "cnt": pa.array(np.concatenate(cnts).astype(np.int64)),
        })

    rows = (
        ds.map_batches(hist, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["tid", "bin"]).sum("cnt")
        .to_pandas()
    )
    out = {}
    for tid, grp in rows.groupby("tid"):
        c = np.zeros(n_bins, np.int64)
        c[grp["bin"].to_numpy()] = grp["sum(cnt)"].to_numpy()
        out[int(tid)] = c
    return out


def _final_pull(ds, col, targets: dict) -> None:
    """Pull each unresolved target's terminal range (≤ _PULL_CAP rows
    after refinement) and finish with one in-memory selection."""
    spec = {i: t for i, t in targets.items() if t[3] is None}
    if not spec:
        return

    def grab(batch: pa.Table) -> pa.Table:
        arr = _col_f64(batch, col)
        tids, vals = [], []
        for tid, t in spec.items():
            sel = arr[(arr >= t[1]) & (arr <= t[2])]
            if len(sel):
                tids.append(np.full(len(sel), tid, np.int32))
                vals.append(sel)
        if not tids:
            return pa.table({"tid": pa.array([], pa.int32()),
                             "v": pa.array([], pa.float64())})
        return pa.table({"tid": pa.array(np.concatenate(tids)),
                         "v": pa.array(np.concatenate(vals))})

    pulled = ds.map_batches(
        grab, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    for tid, t in spec.items():
        vs = pulled.loc[pulled["tid"] == tid, "v"].to_numpy()
        if len(vs) == 0:
            t[3] = t[1]
            continue
        k = min(t[0], len(vs) - 1)
        t[3] = float(np.partition(vs, k)[k])


def grouped_quantile(
    ds: ray.data.Dataset,
    by: str,
    col: str,
    q: float,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Exact per-group q-quantile (same "lower" index semantics as
    :func:`exact_quantiles`) → one row per group.

    Unlike the global operator, per-group exactness has no combinable
    partial (quantiles don't merge), so the plan co-locates each
    group's (key, value) PAIRS — projected to two columns, never whole
    rows — on a coarse ``pk = xxh64(key) % num_buckets`` bucket, then
    one lexsort + segment arithmetic resolves ALL of a bucket's groups
    vectorized. Shuffle volume is the projected pair stream; driver
    sees nothing. Nulls/NaNs drop per SQL aggregate semantics; groups
    with only nulls vanish (as SQL GROUP BY of an empty aggregate)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    if num_buckets is None:
        num_buckets = derive_num_buckets(ds)

    def project(batch: pa.Table) -> pa.Table:
        keys = batch.column(by)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        if keys.null_count:
            raise ValueError(f"grouped_quantile: null group keys in {by!r}")
        vals = batch.column(col).to_numpy(zero_copy_only=False)
        vals = vals.astype(np.float64, copy=False)
        ok = ~np.isnan(vals)
        import pyarrow.compute as pc

        if batch.column(col).null_count:
            ok &= np.asarray(pc.is_valid(batch.column(col)))
        t = pa.table({
            by: keys,
            "__v": pa.array(vals),
            "__pk": pa.array(col_bucket(keys, num_buckets)),
        })
        return t.filter(pa.array(ok)) if not ok.all() else t

    def per_bucket(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n == 0:
            return pa.table({by: group.column(by).slice(0, 0),
                             "value": pa.array([], pa.float64())})
        keys = group.column(by).to_numpy(zero_copy_only=False)
        vals = group.column("__v").to_numpy(zero_copy_only=False)
        _, codes = np.unique(keys, return_inverse=True)
        order = np.lexsort([vals, codes])
        cs = codes[order]
        starts = np.concatenate(([0], np.flatnonzero(cs[1:] != cs[:-1]) + 1))
        sizes = np.diff(np.append(starts, n))
        pick = starts + np.floor((sizes - 1) * q).astype(np.int64)
        sel = order[pick]
        return pa.table({
            by: group.take(pa.array(sel, pa.int64())).column(by),
            "value": pa.array(vals[sel]),
        })

    return (
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__pk")
        .map_groups(per_bucket, batch_format="pyarrow")
    )
