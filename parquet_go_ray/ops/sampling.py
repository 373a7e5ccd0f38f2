"""Deterministic stratified (per-group) sampling.

The balanced-corpus primitive of a 100-TB training-data pipeline: keep
group g at rate(g) — downsample the dominant web domains / languages,
keep the rare ones — with a pure per-row hash filter, so the sample is
REPRODUCIBLE on any cluster size, partitioning, or execution order
(same contract as the global sampler in ``functions/selector.py``).

Two hash modes:

- ``xxh64`` (default): the engine path — the library's column hash
  (``ops.bucketing.col_hash64``, vectorized XXH64 over the id column's
  buffers); zero per-row Python.
- ``md5``: SQL-parity mode, matching DuckDB
  ``CAST(('0x' || substring(md5(CAST(id AS VARCHAR)), 1, 8)) AS
  UBIGINT) % 100`` exactly so the driver's oracle gate can replay the
  predicate (md5 has no vectorized numpy form — this mode is
  oracle-forced per-row, same boundary as ``fingerprint_documents``;
  use xxh64 at scale).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .bucketing import col_hash64


def _rates_for(keys: pa.Array, rates: dict, default_rate: float) -> np.ndarray:
    """Per-row keep-rate in [0, 100): dictionary-encode the group key
    once per batch, map the (few) distinct codes through the dict.
    Null keys take the default rate (a null dictionary index is
    undefined memory if read raw — fill it first)."""
    enc = pc.dictionary_encode(keys)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    dic = enc.dictionary
    lut = np.array(
        [float(rates.get(v.as_py(), default_rate)) for v in dic],
        dtype=np.float64,
    )
    idx = enc.indices
    if idx.null_count:
        codes = np.asarray(idx.fill_null(-1))
        return np.where(codes < 0, float(default_rate), lut[codes])
    return lut[np.asarray(idx)]


def _hash_mod100(ids: pa.Array, hash_mode: str) -> np.ndarray:
    if hash_mode == "xxh64":
        return (col_hash64(ids) % np.uint64(100)).astype(np.float64)
    if hash_mode == "md5":
        return np.array([
            int(hashlib.md5(str(v).encode()).hexdigest()[:8], 16) % 100
            for v in ids.to_pylist()
        ], dtype=np.float64)
    raise ValueError(f"hash_mode must be 'xxh64' or 'md5', not {hash_mode!r}")


def stratified_sample(
    ds: ray.data.Dataset,
    key_col: str,
    id_col: str,
    rates: dict,
    default_rate: float = 100.0,
    hash_mode: str = "xxh64",
) -> ray.data.Dataset:
    """Keep each row iff ``hash(id) % 100 < rate(key)`` — rates in
    percent per distinct ``key_col`` value, ``default_rate`` for keys
    not in ``rates``. A pure filter: no shuffle, no state, identical
    output for any partitioning."""

    def keep(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        keys = batch.column(key_col)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        r = _rates_for(keys, rates, default_rate)
        h = _hash_mod100(batch.column(id_col), hash_mode)
        return batch.filter(pa.array(h < r))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def bottom_k_sample(
    ds: ray.data.Dataset,
    cols: list[str],
    id_col: str,
    k: int,
    seed: int = 0,
) -> pa.Table:
    """Uniform sample WITHOUT replacement of ``k`` rows (their ``cols``
    projection), deterministic given ``id_col`` and ``seed`` and
    identical for ANY partitioning of the input.

    Streaming exact global bottom-k by hash priority (the ivf_sample
    machinery generalized): each batch keeps only its local bottom-k
    by ``mix64(id ^ seed)``, and the driver folds the candidate stream
    — the global bottom-k of per-block bottom-ks IS the exact global
    bottom-k. Driver memory O(k + one candidate batch); one pass; no
    shuffle."""
    from ..ops.text import _mix64

    sd = np.uint64((seed * 0x9E3779B97F4A7C15 + 1) & ((1 << 64) - 1))
    proj = list(dict.fromkeys([id_col] + cols))

    def local_bottom(batch: pa.Table) -> pa.Table:
        ids = (
            batch.column(id_col)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            .view(np.uint64)
        )
        pri = (_mix64(ids ^ sd) >> np.uint64(11)).astype(
            np.float64
        ) * (2.0**-53)
        kk = min(k, len(pri))
        idx = (
            np.sort(np.argpartition(pri, kk - 1)[:kk]) if kk
            else np.arange(0)
        )
        out = batch.select(proj).take(pa.array(idx, pa.int64()))
        return out.append_column("__pri", pa.array(pri[idx]))

    return _fold_bottom_k(ds, local_bottom, proj, k)


def _fold_bottom_k(
    ds: ray.data.Dataset, local_bottom, proj: list[str], k: int
) -> pa.Table:
    """Driver fold shared by the priority samplers: the global
    bottom-k of per-block bottom-ks IS the exact global bottom-k.
    Driver memory O(k + one candidate batch); one pass; no shuffle."""
    cand = ds.map_batches(
        local_bottom, batch_format="pyarrow", zero_copy_batch=True
    )
    pool: pa.Table | None = None
    for b in cand.iter_batches(batch_format="pyarrow"):
        t = pa.table(b)
        if t.num_rows == 0 or "__pri" not in t.column_names:
            continue
        pool = t if pool is None else pa.concat_tables([pool, t])
        if pool.num_rows > 4 * k:
            pri = pool.column("__pri").to_numpy(zero_copy_only=False)
            keep = np.sort(np.argpartition(pri, k - 1)[:k])
            pool = pool.take(pa.array(keep, pa.int64()))
    if pool is None:
        # preserve the real column types on the empty result
        base = ds.schema().base_schema
        return pa.table(
            {c: pa.array([], base.field(c).type) for c in proj}
        )
    pri = pool.column("__pri").to_numpy(zero_copy_only=False)
    kk = min(k, pool.num_rows)
    keep = np.sort(np.argpartition(pri, kk - 1)[:kk]) if kk else []
    return pool.take(pa.array(keep, pa.int64())).drop_columns(["__pri"])


def weighted_sample(
    ds: ray.data.Dataset,
    cols: list[str],
    id_col: str,
    weight_col: str,
    k: int,
    seed: int = 0,
) -> pa.Table:
    """Sample ``k`` rows WITHOUT replacement with inclusion tilted by
    ``weight_col`` — the quality-weighted corpus-sampling primitive
    (keep high-quality docs preferentially without hard thresholds).

    Efraimidis–Spirakis A-ES (2006, public): each row draws priority
    ``e = -ln(u) / w`` with ``u`` a deterministic id-hash uniform; the
    global bottom-k by ``e`` is exactly the sequential
    weighted-without-replacement draw. Same execution shape as
    :func:`bottom_k_sample` (per-block bottom-k, driver fold, no
    shuffle) and the same determinism contract: identical for any
    partitioning, reproducible given (id, seed). Rows with null,
    zero, negative or NaN weight are EXCLUDED (they'd need w→0⁺
    limit semantics; filter or clamp upstream to keep them)."""
    from ..ops.text import _mix64

    sd = np.uint64((seed * 0x9E3779B97F4A7C15 + 1) & ((1 << 64) - 1))
    proj = list(dict.fromkeys([id_col] + cols))

    def local_bottom(batch: pa.Table) -> pa.Table:
        ids = (
            batch.column(id_col)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            .view(np.uint64)
        )
        w = (
            pc.fill_null(batch.column(weight_col), 0.0)
            .cast(pa.float64())
            .to_numpy(zero_copy_only=False)
        )
        u = (_mix64(ids ^ sd) >> np.uint64(11)).astype(
            np.float64
        ) * (2.0**-53)
        ok = (w > 0) & np.isfinite(w)
        # u in (0, 1]: shift the open end so log(0) can't happen
        pri = np.full(len(u), np.inf)
        pri[ok] = -np.log1p(-u[ok] * (1 - 2e-16)) / w[ok]
        kk = min(k, int(ok.sum()))
        if kk:
            cand_idx = np.flatnonzero(ok)
            sub = np.argpartition(pri[cand_idx], kk - 1)[:kk]
            idx = np.sort(cand_idx[sub])
        else:
            idx = np.arange(0)
        out = batch.select(proj).take(pa.array(idx, pa.int64()))
        return out.append_column("__pri", pa.array(pri[idx]))

    return _fold_bottom_k(ds, local_bottom, proj, k)


def split_dataset(
    ds: ray.data.Dataset,
    fractions: dict[str, float],
    by: str = "doc_id",
    seed: int = 0,
) -> dict[str, ray.data.Dataset]:
    """Deterministic train/valid/test split: every row lands in
    EXACTLY one split by a seeded hash of ``by`` mapped onto adjacent
    fraction intervals. Splitting ``by`` a GROUP key (conv_id, URL
    domain) keeps whole groups together — the leakage-safe form.
    Fractions must sum to 1 (±1e-9); each returned dataset is a lazy
    per-batch filter, so downstream pipelines stream as usual and the
    same row set comes back on any partitioning or rerun."""
    from .text import _mix64

    if not fractions:
        raise ValueError("need at least one split")
    tot = float(sum(fractions.values()))
    if abs(tot - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {tot}")
    names = list(fractions)
    edges = np.cumsum([fractions[n] for n in names])
    edges[-1] = 1.0  # close FP drift so the last interval is [.., 1]
    bounds = np.concatenate(([0.0], edges))
    sd = np.uint64((seed * 0x9E3779B97F4A7C15 + 5) & ((1 << 64) - 1))

    def make_filter(lo: float, hi: float, last: bool):
        def keep(batch: pa.Table) -> pa.Table:
            u = (_mix64(col_hash64(batch.column(by)) ^ sd)
                 >> np.uint64(11)).astype(np.float64) * (2.0**-53)
            m = (u >= lo) & ((u <= hi) if last else (u < hi))
            return batch.filter(pa.array(m))

        return keep

    return {
        n: ds.map_batches(
            make_filter(bounds[i], bounds[i + 1], i == len(names) - 1),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        for i, n in enumerate(names)
    }


def approx_quantiles_sampled(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
    id_col: str,
    sample_rows: int = 4096,
    seed: int = 0,
) -> pa.Table:
    """Approximate quantiles from a uniform ``bottom_k_sample`` — ONE
    streaming pass (exact_quantiles takes several refinement passes;
    at 100 TB a pass is the unit of cost). Rank error ~
    sqrt(q(1-q)/sample_rows) with high probability (~0.8% at the
    default 4096). Same "lower" index semantics as exact_quantiles;
    nulls excluded; deterministic given ``id_col`` and ``seed``."""
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
    sample = bottom_k_sample(ds, [col], id_col, sample_rows, seed=seed)
    vcol = sample.column(col)
    if isinstance(vcol, pa.ChunkedArray):
        vcol = vcol.combine_chunks()
    if vcol.null_count:
        vcol = vcol.drop_null()
    vals = np.sort(vcol.to_numpy(zero_copy_only=False))
    out_q, out_v = [], []
    for q in qs:
        out_q.append(q)
        if len(vals) == 0:
            out_v.append(None)
        else:
            # floor((n-1) * q): the same "lower" index exact_quantiles
            # uses (int(q * n) would bias one rank high at interior qs)
            out_v.append(vals[int((len(vals) - 1) * q)])
    return pa.table({
        "q": pa.array(out_q, pa.float64()),
        "value": pa.array(out_v),
    })


def grouped_cap_sample(
    ds: ray.data.Dataset,
    by: str,
    id_col: str,
    k: int,
    hash_mode: str = "xxh64",
    seed: int = 0,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Cap each ``by`` group at ``k`` rows — the per-domain /
    per-source cap every curation pipeline applies so one giant site
    cannot dominate the corpus. The kept subset is the k rows with the
    SMALLEST deterministic priority ``hash(id, seed)``: a uniform
    without-replacement sample per group, reproducible on any cluster
    size, partitioning and row order (priority depends only on ids).

    Plan: one map_batches stamps the priority column, then
    ``grouped_topk`` does its usual two-level combine (each batch
    pre-reduces to its local per-group bottom-k BEFORE the shuffle, so
    the all-to-all ships at most k x groups-present partials, never
    rows). ``hash_mode='md5'`` is the SQL-parity mode (DuckDB can
    replay the priority; per-row, oracle-only); ``'xxh64'`` is the
    vectorized engine path."""
    import hashlib

    from ..ops.topk import grouped_topk

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if hash_mode not in ("xxh64", "md5"):
        raise ValueError(
            f"hash_mode must be 'xxh64' or 'md5', not {hash_mode!r}"
        )
    sd = np.uint64((seed * 0x9E3779B97F4A7C15 + 1) & ((1 << 64) - 1))

    def stamp(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        if hash_mode == "xxh64":
            from ..ops.text import _mix64

            idc = (ids.combine_chunks()
                   if isinstance(ids, pa.ChunkedArray) else ids)
            if pa.types.is_string(idc.type) \
                    or pa.types.is_large_string(idc.type) \
                    or pa.types.is_binary(idc.type) \
                    or pa.types.is_large_binary(idc.type):
                # string doc ids are the NORMAL per-domain-cap case
                raw = col_hash64(idc)
            else:
                raw = (idc.to_numpy(zero_copy_only=False)
                       .astype(np.int64).view(np.uint64))
            pri = (_mix64(raw ^ sd) >> np.uint64(11)).astype(np.int64)
        else:  # md5 SQL-parity: first 8 hex digits as an integer
            pri = np.fromiter(
                (int(hashlib.md5(str(v).encode()).hexdigest()[:8], 16)
                 for v in ids.to_pylist()),
                dtype=np.int64, count=len(ids),
            )
        return batch.append_column("__pri", pa.array(pri, pa.int64()))

    stamped = ds.map_batches(stamp, batch_format="pyarrow",
                             zero_copy_batch=True)
    out = grouped_topk(stamped, by=by, keys=["__pri", id_col], k=k,
                       descending=False, num_buckets=num_buckets)
    return out.drop_columns(["__pri"])
