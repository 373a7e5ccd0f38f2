"""N-gram language-model quality scoring — the CCNet quality filter.

CCNet (Wenzek et al. 2020, public) ranks web documents by the
perplexity of a language model trained on a clean reference corpus
(they used KenLM over Wikipedia); low-perplexity docs read like the
reference, high-perplexity docs are gibberish/boilerplate/wrong
language. This module is that filter with the engine's sketch
machinery instead of a KenLM binary (not in this container, and the
exact counts of a 100-TB reference wouldn't fit a node anyway):

- TRAIN (:func:`train_ngram_lm`, one streaming aggregate, no
  shuffle): count-min sketches of unigram and bigram token-hash
  counts over the reference corpus + total token count. Driver holds
  2 x depth x width int64 counters (a few MB) — mergeable, so tasks
  combine locally.
- SCORE (:func:`lm_perplexity`, one map_batches pass): per doc,
  mean negative log2 of the interpolated bigram probability
  ``p(w_i | w_{i-1}) = λ·c(w_{i-1} w_i)/c(w_{i-1}) + (1-λ)·(c(w_i)+α)
  / (N + α·V)`` — CMS lookups, fully vectorized off the
  ``hashed_tokens`` kernel. Output ``lm_bits_per_token`` (log2
  perplexity): lower = more reference-like.

CMS overcounting makes frequent-looking n-grams slightly MORE
probable — scores are biased optimistic by at most the classic
e/width error, uniformly across docs, so the RANKING the filter
thresholds on is stable (pinned in tests: reference-like docs score
strictly below shuffled/garbage docs).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ._broadcast import broadcast_map_batches
from .sketch import _cms_positions
from .text import _mix64, hashed_tokens

__all__ = ["train_ngram_lm", "lm_perplexity"]

_BI_SALT = np.uint64(0xA24BAED4963EE407)


def _bigram_hashes(h: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Hashes of adjacent token pairs within each doc (no cross-doc
    pairs); docs with < 2 tokens contribute none."""
    if len(h) == 0:
        return h
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    prev = h[:-1]
    nxt = h[1:]
    pair = _mix64(prev * _BI_SALT + nxt)
    # drop pairs that straddle a doc boundary
    keep = np.ones(len(pair), dtype=bool)
    boundary = starts[1:] - 1  # last token index of each doc but one
    keep[boundary[boundary >= 0]] = False
    return pair[keep]


class NgramLM:
    """Broadcastable sketch-backed bigram LM (see module docstring)."""

    def __init__(self, uni: np.ndarray, bi: np.ndarray, total: int,
                 lam: float = 0.8, alpha: float = 1.0,
                 vocab_guess: int = 1 << 17):
        self.uni = uni
        self.bi = bi
        self.total = int(total)
        self.lam = float(lam)
        self.alpha = float(alpha)
        self.vocab_guess = int(vocab_guess)

    def save(self, path: str) -> None:
        """Persist to one ``.npz`` (atomic rename) so rolling ingest
        runs re-score against a fixed reference model instead of
        retraining per shard."""
        import os

        tmp = path + ".tmp"
        np.savez_compressed(
            tmp, uni=self.uni, bi=self.bi,
            meta=np.array([self.total, self.vocab_guess], np.int64),
            params=np.array([self.lam, self.alpha], np.float64),
        )
        os.replace(tmp + ".npz" if not tmp.endswith(".npz") else tmp,
                   path)

    @staticmethod
    def load(path: str) -> "NgramLM":
        with np.load(path) as z:
            total, vocab = (int(x) for x in z["meta"])
            lam, alpha = (float(x) for x in z["params"])
            return NgramLM(z["uni"].copy(), z["bi"].copy(), total,
                           lam, alpha, vocab)

    def _lookup(self, cms: np.ndarray, h: np.ndarray) -> np.ndarray:
        depth, width = cms.shape
        pos = _cms_positions(h, depth, width)
        return cms[np.arange(depth)[:, None], pos].min(axis=0)

    def bits_per_token(
        self, h: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Mean -log2 p per token for each doc segment."""
        n_docs = len(counts)
        if len(h) == 0 or n_docs == 0:
            return np.zeros(n_docs)
        cu = self._lookup(self.uni, h).astype(np.float64)
        denom = self.total + self.alpha * self.vocab_guess
        p_uni = (cu + self.alpha) / denom
        p = (1 - self.lam) * p_uni
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        has_prev = np.ones(len(h), dtype=bool)
        has_prev[starts] = False
        # bigram term for every token with a predecessor in its doc
        if len(h) > 1:
            pair = _mix64(h[:-1] * _BI_SALT + h[1:])
            cb = self._lookup(self.bi, pair).astype(np.float64)
            cprev = np.maximum(cu[:-1], 1.0)
            p_bi = np.minimum(cb / cprev, 1.0)
            p[1:][has_prev[1:]] += (
                self.lam * p_bi[has_prev[1:]]
            )
        # tokens WITHOUT a predecessor score on the unigram alone —
        # OUTSIDE the bigram branch, or a batch holding one single-
        # token doc would score (1-lam)*p_uni and the result would
        # depend on batch layout (caught by the invariance test)
        p[~has_prev] = p_uni[~has_prev]
        bits = -np.log2(np.clip(p, 1e-12, 1.0))
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        seg_bits = np.add.reduceat(bits, np.minimum(
            starts, len(bits) - 1
        ))
        seg_bits[counts == 0] = 0.0
        return seg_bits / np.maximum(counts, 1)


def train_ngram_lm(
    reference: ray.data.Dataset,
    text_col: str = "text",
    lower: bool = True,
    width: int | None = None,
    depth: int = 4,
    lam: float = 0.8,
    alpha: float = 1.0,
) -> NgramLM:
    """One streaming pass over the reference corpus → a broadcastable
    :class:`NgramLM` (two CMS matrices + total count). ``width``
    defaults to the reference's size via
    :func:`..ops.boilerplate.derive_cms_width` — the scoring side
    reads width back off the matrix shapes."""
    if width is None:
        from .boilerplate import derive_cms_width

        width = derive_cms_width(reference)

    def accumulate(acc, block: pa.Table):
        uni, bi, tot = acc
        h, counts = hashed_tokens(block.column(text_col), lower=lower)
        # hashed_tokens pads empty docs with one sentinel 0-hash token
        sent = np.concatenate(([0], np.cumsum(counts)))[:-1]
        real = np.ones(len(h), dtype=bool)
        real[sent[(counts == 1)]] &= h[sent[counts == 1]] != 0
        hr = h[real]
        if len(hr):
            pos = _cms_positions(hr, depth, width)
            for i in range(depth):
                np.add.at(uni[i], pos[i], 1)
            pair = _bigram_hashes(h, counts)
            if len(pair):
                pos = _cms_positions(pair, depth, width)
                for i in range(depth):
                    np.add.at(bi[i], pos[i], 1)
        return uni, bi, tot + len(hr)

    agg = ray.data.aggregate.AggregateFn(
        init=lambda _: (
            np.zeros((depth, width), dtype=np.int64),
            np.zeros((depth, width), dtype=np.int64),
            0,
        ),
        accumulate_block=accumulate,
        merge=lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
        name="ngram_lm",
    )
    out = reference.aggregate(agg)
    if out is None:
        uni = np.zeros((depth, width), dtype=np.int64)
        return NgramLM(uni, uni.copy(), 0, lam, alpha)
    uni, bi, tot = out["ngram_lm"]
    return NgramLM(np.asarray(uni), np.asarray(bi), tot, lam, alpha)


class _LmScorer:
    def __init__(self, lm: NgramLM, text_col: str, lower: bool):
        self.lm = lm
        self.text_col = text_col
        self.lower = lower

    def __call__(self, batch: pa.Table) -> pa.Table:
        h, counts = hashed_tokens(
            batch.column(self.text_col), lower=self.lower
        )
        bits = self.lm.bits_per_token(h, counts)
        return batch.append_column(
            "lm_bits_per_token", pa.array(bits, pa.float64())
        )


def lm_perplexity(
    corpus: ray.data.Dataset,
    lm: NgramLM,
    text_col: str = "text",
    lower: bool = True,
) -> ray.data.Dataset:
    """Append ``lm_bits_per_token`` (log2 perplexity under ``lm``) to
    each corpus row — threshold or stratify on it downstream (CCNet
    kept the low-perplexity head/middle of the distribution)."""
    return broadcast_map_batches(
        corpus, _LmScorer(lm, text_col, lower))
