"""Training-corpus assembly: deterministic domain mixing,
fixed-token-budget sequence packing, and document chunking.

Ops every large-scale pretraining pipeline runs downstream of
curation (The Pile / Llama-style domain re-weighting; GPT-style
sequence packing; RAG/embedding chunking), none expressible as a
single SQL query:

- :func:`mix_datasets` downsamples each source to hit target mixture
  proportions by deterministic id-hash coin flips — no shuffle, no
  coordination, invariant to partitioning, reproducible across runs
  and cluster sizes. Each source is touched once; only its row COUNT
  is needed up front (metadata-cheap for parquet inputs).
- :func:`pack_sequences` packs documents into sequences of at most
  ``max_tokens`` tokens, greedy-sequential in id order within
  hash-derived buckets: one coarse-bucket shuffle co-locates each
  bucket, then packing is a searchsorted jump per PACK (not per row)
  over the bucket's token cumsum — the only Python loop is over pack
  boundaries, and concatenated text assembles via one vectorized
  ``binary_join`` per bucket.

Reference parity note: the reference (hexbee-net/parquet-go) is a
columnar codec library with no corpus-assembly surface — this module
is engine-beyond-reference (SURVEY.md §2.8) for the LLM-pipeline
workloads the north rule targets.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..functions.bloom import xxh64
from ..functions.bytearray import const_string_array
from .bucketing import col_bucket, col_hash64, derive_num_buckets
from .text import _mix64

__all__ = ["mix_datasets", "pack_sequences", "chunk_documents"]


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def mix_datasets(
    sources: dict[str, ray.data.Dataset],
    weights: dict[str, float],
    id_col: str = "doc_id",
    seed: int = 1,
    source_col: str = "source_name",
) -> ray.data.Dataset:
    """Union of ``sources`` downsampled to the target mixture
    ``weights``, tagged with ``source_col``.

    The achievable total is set by the scarcest source relative to its
    weight (``s = min_i n_i / w_i``); source ``i`` keeps each row with
    probability ``s·w_i / n_i`` by a seeded hash of its id — exact in
    expectation, per-row deterministic, so re-runs and resumes pick the
    SAME rows without any global selection step. Sources are never
    UPsampled (a weight that would need row duplication instead caps
    the total — repeat-epoch oversampling is a training-loader concern,
    out of this op's contract).

    Each source's ``count()`` executes its plan once up front — hand
    this op raw ``read_parquet`` datasets (count is metadata-only
    there) rather than transformed pipelines.
    """
    if set(sources) != set(weights):
        raise ValueError(
            f"sources/weights key mismatch: {sorted(sources)} vs "
            f"{sorted(weights)}"
        )
    if not sources:
        raise ValueError("need at least one source")
    wsum = float(sum(weights.values()))
    if wsum <= 0:
        raise ValueError("weights must sum > 0")
    w = {name: weights[name] / wsum for name in sources}
    counts = {name: ds.count() for name, ds in sources.items()}
    nonzero = {n for n in sources if w[n] > 0}
    if any(counts[n] == 0 for n in nonzero):
        raise ValueError(
            "a positively-weighted source is empty: "
            f"{[n for n in nonzero if counts[n] == 0]}"
        )
    scale = min(counts[n] / w[n] for n in nonzero)

    out = []
    for name, ds in sources.items():
        rate = 0.0 if w[name] == 0 else min(
            1.0, scale * w[name] / counts[name]
        )
        out.append(_tag_and_sample(ds, id_col, rate, seed, name,
                                   source_col))
    mixed = out[0]
    for extra in out[1:]:
        mixed = mixed.union(extra)
    return mixed


def _tag_and_sample(
    ds: ray.data.Dataset, id_col: str, rate: float, seed: int,
    name: str, source_col: str,
) -> ray.data.Dataset:
    # the source NAME (all of it) is mixed into the hash so the same id
    # in two sources draws independent coins
    name_salt = np.uint64(xxh64(name.encode()))
    thresh = np.uint64(int(rate * float(1 << 64)) - 1) if rate >= 1.0 \
        else np.uint64(int(rate * float(1 << 64)))

    def keep(batch: pa.Table) -> pa.Table:
        h = _mix64((col_hash64(batch.column(id_col)) ^ name_salt) * _GOLDEN
                   + np.uint64(seed))
        kept = batch.filter(pa.array(h < thresh)) if rate < 1.0 else batch
        return kept.append_column(
            source_col, const_string_array(kept.num_rows, name)
        )

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def pack_sequences(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_tokens: int = 2048,
    tokens_col: str | None = None,
    concat_text: bool = False,
    sep: str = "\n\n",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Pack documents into sequences of ≤ ``max_tokens`` whitespace
    tokens (or a precomputed ``tokens_col``). Returns one row per pack:
    ``(pack_id, doc_ids: list, n_docs, n_tokens)`` plus the
    sep-joined ``text`` when ``concat_text=True``.

    Documents are packed greedy-sequential in id order within their
    hash bucket — deterministic, invariant to input partitioning, and
    parallel across buckets (each bucket is one independent packing
    problem; cross-bucket packing would serialize the corpus for a
    ~2% fill gain). A document longer than ``max_tokens`` becomes its
    own single-doc pack (flagged ``oversize`` — truncation is the
    tokenizer stage's decision, not this op's).
    """
    if max_tokens < 1:
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
    if num_buckets is None:
        num_buckets = derive_num_buckets(ds)
    want_text = bool(concat_text)

    def project(batch: pa.Table) -> pa.Table:
        if tokens_col is not None:
            ntok = pc.fill_null(
                batch.column(tokens_col).cast(pa.int64()), 0
            )
        else:  # null text counts as an empty doc (1 empty token)
            ntok = pc.list_value_length(
                pc.split_pattern(
                    pc.fill_null(batch.column(text_col), ""),
                    pattern=" ",
                )
            ).cast(pa.int64())
        cols = {
            "rk": col_bucket(batch.column(id_col), num_buckets),
            id_col: batch.column(id_col),
            "__ntok": ntok,
        }
        if want_text:
            cols[text_col] = pc.fill_null(batch.column(text_col), "")
        return pa.table(cols)

    def pack(group: pa.Table) -> pa.Table:
        fields = [
            ("pack_id", pa.int64()),
            (id_col + "s", pa.list_(group.schema.field(id_col).type)),
            ("n_docs", pa.int64()),
            ("n_tokens", pa.int64()),
            ("oversize", pa.bool_()),
        ] + ([("text", pa.string())] if want_text else [])
        if group.num_rows == 0:
            return pa.table(
                {n: pa.array([], t) for n, t in fields}
            )
        rk = int(group.column("rk")[0].as_py())
        order = pc.sort_indices(group, sort_keys=[(id_col, "ascending")])
        g = group.take(order)
        ntok = g.column("__ntok").to_numpy(zero_copy_only=False)
        n = len(ntok)
        cum = np.concatenate(([0], np.cumsum(ntok)))
        # greedy sequential: each iteration closes ONE pack at the
        # furthest row still within budget (always >= 1 row)
        bounds = [0]
        while bounds[-1] < n:
            i = bounds[-1]
            j = int(np.searchsorted(cum, cum[i] + max_tokens,
                                    side="right")) - 1
            bounds.append(max(j, i + 1))
        bounds = np.asarray(bounds, dtype=np.int64)
        starts, stops = bounds[:-1], bounds[1:]
        n_docs = stops - starts
        tok_tot = cum[stops] - cum[starts]
        ids = g.column(id_col)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        id_lists = pa.ListArray.from_arrays(
            pa.array(bounds, pa.int32()), ids
        )
        cols = {
            "pack_id": pa.array(
                (np.int64(rk) << 40) + np.arange(len(starts)),
                pa.int64(),
            ),
            id_col + "s": id_lists,
            "n_docs": pa.array(n_docs, pa.int64()),
            "n_tokens": pa.array(tok_tot, pa.int64()),
            "oversize": pa.array(tok_tot > max_tokens),
        }
        if want_text:
            txt = g.column(text_col)
            if isinstance(txt, pa.ChunkedArray):
                txt = txt.combine_chunks()
            cols["text"] = pc.binary_join(
                pa.ListArray.from_arrays(
                    pa.array(bounds, pa.int32()), txt
                ),
                sep,
            )
        return pa.table(cols)

    return (
        ds.map_batches(project, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby("rk")
        .map_groups(pack, batch_format="pyarrow")
    )


def chunk_documents(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_tokens: int = 512,
    overlap: int = 0,
) -> ray.data.Dataset:
    """Split each document into chunks of ≤ ``max_tokens`` whitespace
    tokens with ``overlap`` tokens of context carried between
    consecutive chunks — the dual of :func:`pack_sequences` (that op
    packs short docs up; this one cuts long docs down, the standard
    pre-embedding / RAG-indexing step). Returns one row per chunk:
    ``(id_col, chunk_idx, text, n_tokens)``.

    Pure per-batch flat-map — zero shuffle, order-independent. The
    whole batch is tokenized with ONE Arrow ``split_pattern`` kernel;
    chunk token ranges are computed vectorized and their text
    reassembles via one ``take`` + ``binary_join`` (split-on-space /
    join-with-space are exact inverses, empty tokens included, so an
    overlap-0 chunking concatenates back to the original text
    byte-identically — pinned in tests).
    """
    if max_tokens < 1:
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
    if not 0 <= overlap < max_tokens:
        raise ValueError(
            f"overlap must be in [0, max_tokens), got {overlap}"
        )
    step = max_tokens - overlap

    def chunk(batch: pa.Table) -> pa.Table:
        # null text chunks as an empty doc (one empty chunk)
        toks = pc.split_pattern(
            pc.fill_null(batch.column(text_col), ""), pattern=" "
        )
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        m = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        m = m.astype(np.int64)
        doc_off = np.concatenate(([0], np.cumsum(m)))[:-1]
        # chunks per doc: 1 covers m <= max_tokens; each further step
        # tokens need one more chunk
        c = np.maximum(
            1, -(-(m - max_tokens) // step) + 1
        ).astype(np.int64)
        c[m == 0] = 1  # split never yields 0 tokens, but be explicit
        n_chunks = int(c.sum())
        doc_of = np.repeat(np.arange(len(m), dtype=np.int64), c)
        coff = np.concatenate(([0], np.cumsum(c)))[:-1]
        cidx = np.arange(n_chunks, dtype=np.int64) - np.repeat(coff, c)
        starts = cidx * step
        stops = np.minimum(starts + max_tokens, m[doc_of])
        lens = stops - starts
        # flat token positions of every chunk token (overlap re-reads)
        choff = np.concatenate(([0], np.cumsum(lens)))
        pos = (
            np.arange(int(choff[-1]), dtype=np.int64)
            - np.repeat(choff[:-1], lens)
            + np.repeat(doc_off[doc_of] + starts, lens)
        )
        flat = toks.flatten()
        text = pc.binary_join(
            pa.ListArray.from_arrays(
                pa.array(choff, pa.int32()), flat.take(pa.array(pos))
            ),
            " ",
        )
        return pa.table({
            id_col: batch.column(id_col).take(pa.array(doc_of)),
            "chunk_idx": pa.array(cidx, pa.int64()),
            "text": text,
            "n_tokens": pa.array(lens, pa.int64()),
        })

    return ds.map_batches(chunk, batch_format="pyarrow",
                          zero_copy_batch=True)
