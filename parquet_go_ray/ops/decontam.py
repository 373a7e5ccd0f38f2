"""Benchmark decontamination: flag / drop training documents whose
token n-grams overlap an evaluation set.

The standard curation step for LLM training corpora (GPT-3 used
13-gram overlap, Llama-style pipelines 8–13): any training document
sharing at least ``min_hits`` n-grams with the benchmark is
contaminated. Shape at 100 TB:

- the BENCHMARK side is small by construction (an eval set): its
  distinct n-gram hashes are collected once via a mergeable aggregate
  (per-block sorted-unique arrays, union-merged inside tasks — the
  driver receives ONE sorted ``uint64`` array, 8 B per distinct gram,
  a few MB for any real benchmark) and broadcast with ``ray.put``;
- the CORPUS side streams: each batch computes its gram hashes with
  the same vectorized token-hash kernel the dedup/langid family uses
  (``ops/text.hashed_tokens`` — zero per-row Python) and probes the
  sorted set with one ``searchsorted``. No shuffle, no driver data
  path; the corpus is touched exactly once.

Matching is by 64-bit gram hash (splitmix-finalized polynomial over
token hashes): a false positive needs a 2^-64 collision — negligible
against corpus sizes, and decontamination errs on dropping anyway.

A benchmark too large to broadcast (billions of distinct grams) is
outside this op's contract — route that through ``ops.join.shuffle_join``
on an exploded gram table instead; the docstring boundary mirrors the
broadcast-join rule everywhere else in this engine.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ._broadcast import broadcast_map_batches
from .text import _mix64, _POLY_BASE, hashed_tokens

__all__ = [
    "ngram_hashes",
    "build_ngram_set",
    "decontaminate",
    "collect_benchmark_embeddings",
    "decontaminate_embeddings",
]


def ngram_hashes(
    col, n: int, lower: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """(flat gram hashes, per-doc gram counts) for whitespace-token
    ``n``-grams. A doc with fewer than ``n`` tokens contributes zero
    grams. Gram hash = splitmix64 over a base-``_POLY_BASE`` polynomial
    of the ``n`` token hashes, so equal token sequences hash equal
    across batches and datasets."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    h, counts = hashed_tokens(col, lower=lower)
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    # hashed_tokens pads empty docs with one sentinel hash-0 token so
    # its own reduceat segments stay non-empty; those docs have zero
    # real tokens, hence zero grams (a real token hashing to exactly 0
    # is a 2^-64 event — it would cost one spurious gram, not a crash).
    eff = counts.copy()
    sentinel = (counts == 1) & (h[starts] == np.uint64(0))
    eff[sentinel] = 0
    m = np.maximum(eff - n + 1, 0)
    total = int(m.sum())
    if total == 0:
        return np.zeros(0, np.uint64), m
    seg0 = np.concatenate(([0], np.cumsum(m[:-1])))
    gs = (
        np.arange(total, dtype=np.int64)
        - np.repeat(seg0, m)
        + np.repeat(starts, m)
    )
    g = h[gs].copy()
    base = np.uint64(_POLY_BASE)
    for j in range(1, n):
        g = g * base + h[gs + j]
    return _mix64(g), m


def build_ngram_set(
    ds: ray.data.Dataset,
    text_col: str = "text",
    n: int = 13,
    lower: bool = True,
) -> np.ndarray:
    """One streaming pass over the benchmark → the sorted array of its
    distinct gram hashes. Accumulation is a mergeable aggregate
    (sorted-unique per block, union on merge) so tasks combine
    locally and the driver receives a single array bounded by the
    benchmark's distinct grams — never rows."""

    def accumulate(acc: np.ndarray, block: pa.Table) -> np.ndarray:
        g, _ = ngram_hashes(block.column(text_col), n, lower)
        if len(g) == 0:
            return acc
        return np.union1d(acc, g)

    agg = ray.data.aggregate.AggregateFn(
        init=lambda _: np.zeros(0, dtype=np.uint64),
        accumulate_block=accumulate,
        merge=np.union1d,
        name="ngram_set",
    )
    out = ds.aggregate(agg)
    return (np.zeros(0, np.uint64) if out is None
            else np.asarray(out["ngram_set"], dtype=np.uint64))


class _Decontaminator:
    """Broadcast probe: the sorted gram set; each batch is one
    searchsorted."""

    def __init__(self, grams: np.ndarray, text_col: str, n: int,
                 lower: bool, mode: str, min_hits: int):
        self.grams = grams
        self.text_col = text_col
        self.n = n
        self.lower = lower
        self.mode = mode
        self.min_hits = min_hits

    def __call__(self, batch: pa.Table) -> pa.Table:
        g, m = ngram_hashes(batch.column(self.text_col), self.n, self.lower)
        s = self.grams
        if len(s) and len(g):
            pos = np.searchsorted(s, g)
            hit = (pos < len(s)) & (s[np.minimum(pos, len(s) - 1)] == g)
        else:
            hit = np.zeros(len(g), dtype=bool)
        doc_of = np.repeat(np.arange(len(m), dtype=np.int64), m)
        hits = np.bincount(doc_of[hit], minlength=len(m)).astype(np.int64)
        contaminated = hits >= self.min_hits
        if self.mode == "drop":
            return batch.filter(pa.array(~contaminated))
        batch = batch.append_column(
            "contaminated_ngrams", pa.array(hits, pa.int64()))
        return batch.append_column(
            "is_contaminated", pa.array(contaminated, pa.bool_()))


def decontaminate(
    corpus: ray.data.Dataset,
    benchmark: ray.data.Dataset | None = None,
    *,
    gram_set: np.ndarray | None = None,
    text_col: str = "text",
    benchmark_text_col: str | None = None,
    n: int = 13,
    lower: bool = True,
    mode: str = "flag",
    min_hits: int = 1,
) -> ray.data.Dataset:
    """Flag (``mode="flag"``: appends ``contaminated_ngrams`` — the
    number of gram POSITIONS in the doc whose gram appears in the
    benchmark — and ``is_contaminated``) or drop (``mode="drop"``)
    corpus documents sharing ≥ ``min_hits`` token ``n``-grams with
    ``benchmark``. Pass a precomputed ``gram_set`` (from
    :func:`build_ngram_set`) to reuse one benchmark index across many
    corpus runs."""
    if mode not in ("flag", "drop"):
        raise ValueError(f"mode {mode!r}: expected 'flag' or 'drop'")
    if gram_set is None:
        if benchmark is None:
            raise ValueError("need a benchmark dataset or a gram_set")
        gram_set = build_ngram_set(
            benchmark, benchmark_text_col or text_col, n, lower)
    return broadcast_map_batches(corpus, _Decontaminator(
        np.asarray(gram_set, dtype=np.uint64), text_col, n, lower, mode,
        min_hits))


# ---------------------------------------------------------------------------
# Embedding-space decontamination

def collect_benchmark_embeddings(
    ds: ray.data.Dataset, emb_col: str = "embedding"
) -> "np.ndarray":
    """One streaming pass over the (small by construction) benchmark →
    its L2-normalized embedding matrix on the driver. Same contract as
    :func:`build_ngram_set`: the BENCHMARK side is an eval set, a few
    thousand rows; a benchmark too large to broadcast is outside this
    op's contract."""
    from .ann import _emb_matrix, _normalize

    mats = [
        _normalize(_emb_matrix(pa.table(b), emb_col))
        for b in ds.iter_batches(batch_format="pyarrow")
        if b.num_rows
    ]
    if not mats:
        return np.zeros((0, 0))
    return np.concatenate(mats, axis=0)


class _EmbDecontaminator:
    """Broadcast probe: the benchmark matrix; per batch ONE matmul +
    row-max."""

    def __init__(self, bench: np.ndarray, emb_col: str, threshold: float,
                 mode: str):
        self.bench = bench
        self.emb_col = emb_col
        self.threshold = threshold
        self.mode = mode

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .ann import _emb_matrix, _normalize

        if self.bench.size:
            emb = _normalize(_emb_matrix(batch, self.emb_col))
            sim = (emb @ self.bench.T).max(axis=1)
        else:
            sim = np.zeros(len(batch))
        hit = sim >= self.threshold
        if self.mode == "drop":
            return batch.filter(pa.array(~hit))
        batch = batch.append_column(
            "benchmark_similarity", pa.array(sim, pa.float64()))
        return batch.append_column(
            "is_contaminated", pa.array(hit, pa.bool_()))


def decontaminate_embeddings(
    corpus: ray.data.Dataset,
    benchmark: ray.data.Dataset | None = None,
    *,
    bench_matrix: "np.ndarray | None" = None,
    emb_col: str = "embedding",
    benchmark_emb_col: str | None = None,
    threshold: float = 0.95,
    mode: str = "flag",
) -> ray.data.Dataset:
    """Semantic decontamination: flag (``mode='flag'``: appends
    ``benchmark_similarity`` = max cosine vs any benchmark embedding,
    and ``is_contaminated``) or drop corpus rows whose embedding is
    within cosine ``threshold`` of the benchmark — the paraphrase-
    robust complement to token n-gram :func:`decontaminate` (surface
    rewrites evade n-grams; embeddings don't). Same 100-TB shape: the
    benchmark matrix is collected once, ``ray.put`` broadcast, probed
    per batch with one matmul; no shuffle, corpus touched once. Pass
    a precomputed ``bench_matrix`` (from
    :func:`collect_benchmark_embeddings`) to reuse across runs."""
    if mode not in ("flag", "drop"):
        raise ValueError(f"mode {mode!r}: expected 'flag' or 'drop'")
    if bench_matrix is None:
        if benchmark is None:
            raise ValueError(
                "need a benchmark dataset or a bench_matrix"
            )
        bench_matrix = collect_benchmark_embeddings(
            benchmark, benchmark_emb_col or emb_col
        )
    return broadcast_map_batches(corpus, _EmbDecontaminator(
        np.ascontiguousarray(bench_matrix), emb_col, threshold, mode))
