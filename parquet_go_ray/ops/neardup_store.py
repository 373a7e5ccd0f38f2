"""Incremental NEAR-duplicate dedup: a persisted MinHash-LSH band
store — the near-dup sibling of :class:`..ops.dedup.ExactDedupStore`.

A rolling 100-TB ingest must answer "is this new document a near-dup
of anything already ingested?" without rescanning the corpus. The
one-shot :func:`..ops.dedup.dedup_minhash` compares a corpus against
itself; this store persists the corpus's LSH *band hashes* (8 bytes
per band per doc — 128 B/doc at the default 16 bands, ~0.1–1% of
typical document text) so each new shard probes history with two
id-sized exchanges and zero corpus reads.

Layout under ``path``: ``part=NNNNN/bands.parquet`` — the corpus's
DISTINCT banded hashes (band index folded into the hash, so one sorted
``uint64`` column serves all bands), partitioned by ``h % num_parts``
and sorted — plus ``meta.json`` pinning the signature parameters
(``num_perm``/``bands``/``k``/``seed``): a probe with different
parameters would silently match nothing, so the store's own meta is
authoritative and probes always reuse it.

Decision rule — documented boundary: a document is flagged as a
near-dup of history when ≥ ``min_band_hits`` of its bands collide with
a stored band (the classic LSH OR-construction; probability
``1-(1-s^r)^b`` at Jaccard ``s`` with ``r = num_perm/bands`` rows per
band — the defaults ``num_perm=128, bands=16`` give r=8: ≈0.95 at
s=0.8, ≈0.06 at s=0.5). There is NO exact-Jaccard verification: the
store keeps band hashes, not text, and decontamination-style filters
err toward dropping. For verified in-corpus dedup compose with
``dedup_minhash``; raise ``min_band_hits`` (AND-ish construction) when
probe precision matters more than recall.

Scale shape (mirrors ``ExactDedupStore``): ``filter_new`` ships ONE
all-to-all of ~12 B/row/band hash envelopes co-partitioned with the
store's parts (each task probes exactly its own part file, per-process
cached, via searchsorted), then ONE id-sized exchange to resolve
per-doc hit counts and anti-join survivors — the driver never sees a
row. ``append`` merges per touched part with atomic rename (crash
leaves parts old or new, never torn; same SINGLE-WRITER contract as
the exact store).

Reference parity note: the reference engine (hexbee-net/parquet-go)
has no dedup surface at all — this family is engine-beyond-reference
(SURVEY.md §2.8), built for the LLM-curation workloads the north rule
targets.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .bucketing import col_bucket
from .dedup import _GOLDEN, _band_hashes, minhash_signatures
from .text import _mix64

__all__ = ["MinHashDedupStore"]


_PART_CACHE: dict = {}  # (part_path, mtime) -> sorted uint64 band hashes


def _part_band_array(part_path: str) -> np.ndarray:
    """Read (and per-process cache) one part's sorted banded-hash
    array — each probe task touches its part file once per run."""
    import pyarrow.parquet as pq

    key = (part_path, os.path.getmtime(part_path))
    hit = _PART_CACHE.get(key)
    if hit is None:
        hit = pq.read_table(part_path).column("h").to_numpy(
            zero_copy_only=False
        )
        # evict stale generations of this part only (append bumped its
        # mtime); bound total resident arrays
        for k in [k for k in _PART_CACHE if k[0] == part_path]:
            del _PART_CACHE[k]
        while len(_PART_CACHE) >= 128:
            del _PART_CACHE[next(iter(_PART_CACHE))]
        _PART_CACHE[key] = hit
    return hit


def _texts_bytes(col) -> list[bytes]:
    return [
        t.encode() if isinstance(t, str) else (t or b"")
        for t in col.to_pylist()
    ]


def _banded_hashes(
    col, num_perm: int, bands: int, k: int, seed: int
) -> np.ndarray:
    """(n_docs, bands) uint64: each doc's band hashes with the band
    index folded in, so band j of a probe can only collide with band j
    of a stored doc even though all bands share one sorted array."""
    sig = minhash_signatures(
        _texts_bytes(col), num_perm=num_perm, k=k, seed=seed
    )
    bh = _band_hashes(sig, bands)
    fold = (np.arange(bands, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    return _mix64(bh ^ fold[None, :])


class MinHashDedupStore:
    """Persisted, hash-partitioned MinHash-LSH band store for
    incremental near-duplicate filtering (see module docstring).

    Sizing contract: one part's band hashes must fit a task heap
    (8 B × bands × corpus_docs / num_parts) — pick ``num_parts`` at
    build time for the corpus you expect (65536 parts holds ~5 × 10^10
    docs at 16 bands / 100 MB per part task)."""

    def __init__(self, path: str):
        self.path = path
        with open(os.path.join(path, "meta.json")) as f:
            self.meta = json.load(f)
        self.num_parts = int(self.meta["num_parts"])

    # -- shared combiner ------------------------------------------------

    @staticmethod
    def _band_parts_partial(
        text_col: str, num_perm: int, bands: int, k: int, seed: int,
        num_parts: int,
    ):
        """Batch-local banded-hash dedup + part stamp — one copy so the
        part-routing formula cannot drift between build and append."""

        def partial(batch: pa.Table) -> pa.Table:
            hs = _banded_hashes(
                batch.column(text_col), num_perm, bands, k, seed
            ).reshape(-1)
            hs = np.unique(hs)
            return pa.table(
                {
                    "part": (hs % np.uint64(num_parts)).astype(np.int32),
                    "h": hs,
                }
            )

        return partial

    # -- build ----------------------------------------------------------

    @staticmethod
    def build(
        ds: ray.data.Dataset,
        path: str,
        text_col: str = "text",
        num_perm: int = 128,
        bands: int = 16,
        k: int = 5,
        seed: int = 1,
        num_parts: int = 64,
    ) -> "MinHashDedupStore":
        """One shuffle: batch-local banded-hash dedup → groupby part →
        per-part sorted-unique parquet. Driver sees only the
        parts-sized manifest."""
        if num_perm % bands:
            raise ValueError(
                f"num_perm ({num_perm}) must be divisible by bands ({bands})"
            )
        os.makedirs(path, exist_ok=True)
        for name in os.listdir(path):  # stale-rebuild guard
            full = os.path.join(path, name)
            if name.startswith("part=") and os.path.isdir(full):
                shutil.rmtree(full)
            elif name == "meta.json":
                os.remove(full)

        partial = MinHashDedupStore._band_parts_partial(
            text_col, num_perm, bands, k, seed, num_parts
        )

        def write_part(group: pa.Table) -> pa.Table:
            import pyarrow.parquet as pq

            if group.num_rows == 0:
                return pa.table({"part": pa.array([], pa.int32()),
                                 "rows": pa.array([], pa.int64())})
            part = int(group.column("part")[0].as_py())
            hs = np.unique(
                group.column("h").to_numpy(zero_copy_only=False)
            )
            d = os.path.join(path, f"part={part:05d}")
            os.makedirs(d, exist_ok=True)
            tmp = os.path.join(d, ".bands.parquet.tmp")
            pq.write_table(pa.table({"h": pa.array(hs, pa.uint64())}), tmp)
            os.replace(tmp, os.path.join(d, "bands.parquet"))
            return pa.table({"part": pa.array([part], pa.int32()),
                             "rows": pa.array([len(hs)], pa.int64())})

        manifest = (
            ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("part")
            .map_groups(write_part, batch_format="pyarrow")
            .take_all()
        )
        meta = {
            "num_parts": num_parts,
            "text_col": text_col,
            "num_perm": num_perm,
            "bands": bands,
            "k": k,
            "seed": seed,
            "rows": int(sum(r["rows"] for r in manifest)),
            "parts_written": len(manifest),
        }
        tmp = os.path.join(path, ".meta.json.tmp")
        with open(tmp, "w") as f:
            json.dump(meta, f)
        os.replace(tmp, os.path.join(path, "meta.json"))
        return MinHashDedupStore(path)

    # -- probe ----------------------------------------------------------

    def filter_new(
        self,
        ds: ray.data.Dataset,
        text_col: str | None = None,
        id_col: str = "doc_id",
        min_band_hits: int = 1,
    ) -> ray.data.Dataset:
        """Rows of ``ds`` NOT flagged as near-dups of store history
        (< ``min_band_hits`` band collisions). Output column set is
        the id column only — join survivors back to the shard for
        payloads, keeping both exchanges id-sized. Intra-shard
        near-dups are NOT collapsed here (compose with
        ``dedup_minhash`` for that — same contract as the exact
        store)."""
        m = self.meta
        text_col = text_col or m["text_col"]
        num_parts = self.num_parts
        store_path = self.path
        num_perm, bands = int(m["num_perm"]), int(m["bands"])
        k, seed = int(m["k"]), int(m["seed"])

        def envelope(batch: pa.Table) -> pa.Table:
            hs = _banded_hashes(
                batch.column(text_col), num_perm, bands, k, seed
            )
            n = len(batch)
            flat = hs.reshape(-1)  # row-major: doc-major order
            ids = batch.column(id_col).take(
                pa.array(np.repeat(np.arange(n, dtype=np.int64), bands))
            )
            return pa.table(
                {
                    "part": (flat % np.uint64(num_parts)).astype(np.int32),
                    "h": flat,
                    id_col: ids,
                }
            )

        def probe(group: pa.Table) -> pa.Table:
            """Emit one row per HIT band occurrence — bounded by the
            shard's duplicated band rows, not its size."""
            if group.num_rows == 0:
                return group.select([id_col])
            part = int(group.column("part")[0].as_py())
            pf = os.path.join(
                store_path, f"part={part:05d}", "bands.parquet"
            )
            h = group.column("h").to_numpy(zero_copy_only=False)
            if os.path.exists(pf):
                hs = _part_band_array(pf)
                pos = np.searchsorted(hs, h)
                hit = (pos < len(hs)) & (
                    hs[np.minimum(pos, max(len(hs) - 1, 0))] == h
                )
            else:
                hit = np.zeros(len(h), dtype=bool)
            return group.select([id_col]).filter(pa.array(hit))

        hits = (
            ds.map_batches(envelope, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("part")
            .map_groups(probe, batch_format="pyarrow")
        )

        # Resolve per-doc hit counts + anti-join survivors in ONE
        # id-co-partitioned exchange: hit rows (kind=0, one per hit
        # band) union source ids (kind=1), grouped by rk = hash(id).
        def hit_rows(batch: pa.Table) -> pa.Table:
            rk = col_bucket(batch.column(id_col), num_parts)
            return pa.table({
                "rk": rk,
                "kind": np.zeros(len(batch), dtype=np.int8),
                id_col: batch.column(id_col),
            })

        def source_rows(batch: pa.Table) -> pa.Table:
            rk = col_bucket(batch.column(id_col), num_parts)
            return pa.table({
                "rk": rk,
                "kind": np.ones(len(batch), dtype=np.int8),
                id_col: batch.column(id_col),
            })

        def anti(group: pa.Table) -> pa.Table:
            if group.num_rows == 0:
                return group.select([id_col])
            kind = group.column("kind").to_numpy(zero_copy_only=False)
            ids = group.column(id_col)
            hit_ids = ids.filter(pa.array(kind == 0))
            src = group.filter(pa.array(kind == 1)).select([id_col])
            if len(hit_ids) == 0:
                return src
            counts = pd.Series(hit_ids.to_pandas()).value_counts()
            dup = pa.array(counts.index[counts >= min_band_hits])
            if len(dup) == 0:
                return src
            keep = pc.invert(pc.is_in(src.column(id_col), value_set=dup))
            return src.filter(keep)

        left = hits.map_batches(hit_rows, batch_format="pyarrow",
                                zero_copy_batch=True)
        right = ds.map_batches(source_rows, batch_format="pyarrow",
                               zero_copy_batch=True)
        return (
            left.union(right)
            .groupby("rk")
            .map_groups(anti, batch_format="pyarrow")
        )

    # -- grow -----------------------------------------------------------

    def append(self, ds: ray.data.Dataset,
               text_col: str | None = None) -> dict:
        """Merge a shard's distinct banded hashes into the store
        (sorted union per touched part, atomic rename). SINGLE-WRITER
        contract as in ``ExactDedupStore.append``: concurrent appends
        are read-modify-write races — serialize ingest shards."""
        text_col = text_col or self.meta["text_col"]
        store_path = self.path
        partial = self._band_parts_partial(
            text_col, int(self.meta["num_perm"]),
            int(self.meta["bands"]), int(self.meta["k"]),
            int(self.meta["seed"]), self.num_parts,
        )

        def merge_part(group: pa.Table) -> pa.Table:
            import pyarrow.parquet as pq

            if group.num_rows == 0:
                return pa.table({"part": pa.array([], pa.int32()),
                                 "added": pa.array([], pa.int64())})
            part = int(group.column("part")[0].as_py())
            new = np.unique(
                group.column("h").to_numpy(zero_copy_only=False)
            )
            d = os.path.join(store_path, f"part={part:05d}")
            pf = os.path.join(d, "bands.parquet")
            before = 0
            if os.path.exists(pf):
                old = pq.read_table(pf).column("h").to_numpy(
                    zero_copy_only=False
                )
                before = len(old)
                new = np.union1d(old, new)
            os.makedirs(d, exist_ok=True)
            tmp = os.path.join(d, ".bands.parquet.tmp")
            pq.write_table(pa.table({"h": pa.array(new, pa.uint64())}), tmp)
            os.replace(tmp, pf)
            return pa.table({
                "part": pa.array([part], pa.int32()),
                "added": pa.array([len(new) - before], pa.int64()),
            })

        manifest = (
            ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("part")
            .map_groups(merge_part, batch_format="pyarrow")
            .take_all()
        )
        added = int(sum(r["added"] for r in manifest))
        self.meta["rows"] = int(self.meta["rows"]) + added
        tmp = os.path.join(self.path, ".meta.json.tmp")
        with open(tmp, "w") as f:
            json.dump(self.meta, f)
        os.replace(tmp, os.path.join(self.path, "meta.json"))
        return {"parts_touched": len(manifest), "added": added}
