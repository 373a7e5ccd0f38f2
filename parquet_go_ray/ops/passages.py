"""Cross-document repeated-passage detection — substring-dedup lite.

The curation signal behind suffix-array substring dedup (Lee et al.
2021, "Deduplicating Training Data Makes Language Models Better",
public) re-expressed in the engine's coarse-bucket shape: a PASSAGE is
a sliding ``window``-token n-gram; a passage is DUPLICATED when it
appears in ≥ ``min_df`` distinct documents; a document's
``dup_fraction`` is the share of its distinct passages that are
duplicated — the thing RefinedWeb/Gopher-style pipelines threshold to
drop boilerplate-heavy pages. (WITHIN-doc repetition is a different
signal — ``ops.text.repetition_batch``; exact suffix arrays over
100 TB are out of contract — this is the hashed-window approximation,
exact at the window granularity with 2^-64 hash collisions.)

Plan shape at 100 TB — the corpus is scanned ONCE and nothing lands
on the driver:

1. per batch: window hashes via the vectorized gram kernel
   (``ops.decontam.ngram_hashes``), then (doc, window) pairs deduped
   batch-locally (one lexsort — the combiner); plus one zero row per
   doc so windowless docs survive to the output;
2. ONE exchange co-partitions pairs by ``pk = wh % num_buckets``:
   each bucket task computes every window's document frequency and
   its docs' per-bucket (distinct, duplicated) partial counts —
   vectorized segment sums, no per-window Python;
3. ONE id-sized exchange sums partials per doc.

``stride`` > 1 samples every stride-th window position (the standard
cost dial: shuffle volume divides by stride; a duplicated passage
shorter than ``window + stride - 1`` tokens can then be missed).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .bucketing import col_bucket, derive_num_buckets
from .decontam import ngram_hashes

__all__ = ["repeated_passages"]


def repeated_passages(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    window: int = 50,
    min_df: int = 2,
    stride: int = 1,
    lower: bool = True,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Per-doc repeated-passage stats: ``(doc_id, n_windows,
    dup_windows, dup_fraction)`` where ``n_windows`` counts the doc's
    DISTINCT window hashes and ``dup_windows`` those appearing in
    ≥ ``min_df`` distinct docs (see module docstring)."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if min_df < 2:
        raise ValueError(f"min_df must be >= 2, got {min_df}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if num_buckets is None:
        num_buckets = derive_num_buckets(ds)

    def pairs(batch: pa.Table) -> pa.Table:
        """kind 0: one (pk, wh, doc) row per DISTINCT (doc, window);
        kind 1: one zero row per doc (windowless docs included)."""
        g, m = ngram_hashes(batch.column(text_col), window, lower)
        if stride > 1 and len(g):
            pos = np.arange(len(g), dtype=np.int64) - np.repeat(
                np.concatenate(([0], np.cumsum(m)))[:-1], m
            )
            take = (pos % stride) == 0
            g = g[take]
            m = np.ceil(m / stride).astype(np.int64)
        n = len(batch)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), m)
        order = np.lexsort((g, doc_idx))
        gd, dd = g[order], doc_idx[order]
        first = np.ones(len(gd), dtype=bool)
        first[1:] = (gd[1:] != gd[:-1]) | (dd[1:] != dd[:-1])
        gd, dd = gd[first], dd[first]
        ids = batch.column(id_col)
        docs_of_pairs = ids.take(pa.array(dd))
        rk_all = col_bucket(ids, num_buckets)
        return pa.table(
            {
                "pk": np.concatenate(
                    (
                        (gd % np.uint64(num_buckets)).astype(np.int32),
                        rk_all,
                    )
                ),
                "kind": np.concatenate(
                    (np.zeros(len(gd), np.int8), np.ones(n, np.int8))
                ),
                "wh": np.concatenate(
                    (gd, np.zeros(n, np.uint64))
                ),
                id_col: pa.concat_arrays(
                    [
                        docs_of_pairs.combine_chunks()
                        if isinstance(docs_of_pairs, pa.ChunkedArray)
                        else docs_of_pairs,
                        ids.combine_chunks()
                        if isinstance(ids, pa.ChunkedArray)
                        else ids,
                    ]
                ),
            }
        )

    part_schema_cols = ("rk", id_col, "tot", "dup")

    def bucket_df(group: pa.Table) -> pa.Table:
        """Resolve every window's df in this bucket; emit per-doc
        partials routed by rk = hash(doc). kind-1 zero rows pass
        through unchanged (their pk already IS the doc's rk)."""
        if group.num_rows == 0:
            return pa.table({
                "rk": pa.array([], pa.int32()),
                id_col: group.column(id_col).slice(0, 0),
                "tot": pa.array([], pa.int64()),
                "dup": pa.array([], pa.int64()),
            })
        kind = group.column("kind").to_numpy(zero_copy_only=False)
        zero_rows = group.filter(pa.array(kind == 1))
        pair_rows = group.filter(pa.array(kind == 0))
        out = [
            pa.table({
                "rk": zero_rows.column("pk"),
                id_col: zero_rows.column(id_col),
                "tot": pa.array(
                    np.zeros(zero_rows.num_rows, np.int64)
                ),
                "dup": pa.array(
                    np.zeros(zero_rows.num_rows, np.int64)
                ),
            })
        ]
        if pair_rows.num_rows:
            wh = pair_rows.column("wh").to_numpy(zero_copy_only=False)
            order = np.argsort(wh, kind="stable")
            whs = wh[order]
            seg = np.ones(len(whs), dtype=bool)
            seg[1:] = whs[1:] != whs[:-1]
            seg_id = np.cumsum(seg) - 1
            df = np.bincount(seg_id)  # pairs are distinct per doc
            dup_sorted = df[seg_id] >= min_df
            dup = np.empty(len(wh), dtype=bool)
            dup[order] = dup_sorted
            ids = pair_rows.column(id_col)
            rk = col_bucket(ids, num_buckets)
            # per-doc partials within this bucket: one combine pass
            import pandas as pd

            part = pd.DataFrame({
                "rk": rk,
                id_col: ids.to_pandas(),
                "tot": np.ones(len(dup), np.int64),
                "dup": dup.astype(np.int64),
            }).groupby(["rk", id_col], as_index=False, sort=False).sum()
            out.append(pa.Table.from_pandas(part, preserve_index=False))
        tables = [t.select(list(part_schema_cols)) for t in out]
        return pa.concat_tables(
            [t.cast(tables[0].schema) for t in tables]
        )

    def doc_sum(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({
                id_col: group.column(id_col).slice(0, 0),
                "n_windows": pa.array([], pa.int64()),
                "dup_windows": pa.array([], pa.int64()),
                "dup_fraction": pa.array([], pa.float64()),
            })
        import pandas as pd

        df = group.select([id_col, "tot", "dup"]).to_pandas()
        agg = df.groupby(id_col, as_index=False, sort=False).sum()
        tot = agg["tot"].to_numpy(np.int64)
        dup = agg["dup"].to_numpy(np.int64)
        frac = np.divide(
            dup, tot, out=np.zeros(len(tot), np.float64),
            where=tot > 0,
        )
        return pa.table({
            id_col: pa.Array.from_pandas(agg[id_col]),
            "n_windows": pa.array(tot, pa.int64()),
            "dup_windows": pa.array(dup, pa.int64()),
            "dup_fraction": pa.array(frac, pa.float64()),
        })

    return (
        ds.map_batches(pairs, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby("pk")
        .map_groups(bucket_df, batch_format="pyarrow")
        .groupby("rk")
        .map_groups(doc_sum, batch_format="pyarrow")
    )
