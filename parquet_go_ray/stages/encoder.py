"""The encode path's two stages, both plain Ray tasks.

Phase 1 (``fragment_task``, one task per read split or Dataset block):
read the split (``fused_read_fragments``) or take the block, salt rows
into buckets, drop the buckets a previous run completed, and compress
each bucket's rows to one zstd Arrow IPC fragment. The task returns a
small metadata dict plus one fragment chunk per FRAG_CHUNK_BUCKETS
buckets, each as its own task output: the driver owns them, hands them
to the merges by reference, and Ray can rebuild a lost one by lineage.

Phase 2 (``merge_encode_task``): one task per partition takes its
chunks as arguments, decodes its fragments, merges and sorts them, and
runs the real per-column encode — the engine's ColumnStore-write
analogue (the reference's datastore/column.go:42-101). Symbol tables and
codec choices are built *per partition* and never shared across
partitions, so task retries reproduce byte-identical blobs
(SURVEY.md §3.4).
"""

from __future__ import annotations

import os
import time
from itertools import groupby

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray as _ray

from ..state import manifest as mf
from ..state.blob import encode_table
from . import salt
from .salt import BUCKET_COL, SRC_COL

FRAG_COL = "_frag"
FRAG_SRCS_COL = "_frag_srcs"


def _ipc_zstd_bytes(tbl: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    opts = pa.ipc.IpcWriteOptions(compression="zstd")
    with pa.ipc.new_stream(sink, tbl.schema, options=opts) as w:
        w.write_table(tbl)
    return sink.getvalue().to_pybytes()


def _ipc_read_bytes(b) -> pa.Table:
    return pa.ipc.open_stream(pa.BufferReader(b)).read_all()


def encode_fragments(batch: pa.Table) -> pa.Table:
    """Compress each bucket's rows of ``batch`` into one zstd Arrow IPC
    fragment, so the exchange moves ~blob-sized bytes instead of raw
    rows (~3x fewer on transcript text). IPC+zstd is the transient wire
    format — cheap C++ encode, no per-fragment codec selection; the real
    per-column encode runs once per merged partition in phase 2. An
    empty batch gives an empty fragment table."""
    b = batch.column(BUCKET_COL).to_numpy(zero_copy_only=False)
    order = np.argsort(b, kind="stable")
    batch = batch.take(pa.array(order))
    b = b[order]
    change = np.flatnonzero(b[1:] != b[:-1]) + 1
    starts = np.concatenate(([0], change)) if len(b) else change
    ends = np.append(starts[1:], len(b))
    out_bucket, out_frag, out_srcs = [], [], []
    has_src = SRC_COL in batch.column_names
    for s, e in zip(starts, ends):
        seg = batch.slice(int(s), int(e - s))
        srcs = (
            pc.unique(seg.column(SRC_COL)).to_pylist() if has_src else []
        )
        drop = [BUCKET_COL] + ([SRC_COL] if has_src else [])
        tbl = seg.drop_columns(drop)
        out_bucket.append(int(b[s]))
        out_frag.append(_ipc_zstd_bytes(tbl))
        out_srcs.append(sorted(int(x) for x in srcs))
    return pa.table(
        {
            BUCKET_COL: pa.array(out_bucket, pa.int64()),
            FRAG_COL: pa.array(out_frag, pa.large_binary()),
            FRAG_SRCS_COL: pa.array(out_srcs, pa.list_(pa.int32())),
        }
    )


# Buckets per chunk. Locally a merge reads a chunk zero-copy from plasma
# whatever its size; on a multi-node cluster a chunk is transferred to at
# most min(K, nodes-that-merge-its-buckets) nodes, so K bounds the
# over-fetch factor of the exchange.
FRAG_CHUNK_BUCKETS = 16


def num_chunks(num_buckets: int) -> int:
    """Fragment chunks per phase-1 task: its task outputs after the meta."""
    return -(-num_buckets // FRAG_CHUNK_BUCKETS)


def encode_fragments_refs(batch: pa.Table, num_buckets: int,
                          _t0: float | None = None) -> tuple[dict, list]:
    """``encode_fragments``, packed for the task-output exchange.

    Returns ``(meta, chunks)``. ``chunks[j]`` holds the fragments of
    buckets ``j*K .. j*K+K-1`` (K = FRAG_CHUNK_BUCKETS) as one
    ``(uint8 buf, int64 offs)`` pair — bucket b's fragment is
    ``buf[offs[b % K]:offs[b % K + 1]]``, empty where the batch has no
    rows of b — or is None when the batch has none of those buckets.
    ``meta["buckets"]`` maps each bucket present to its ``srcs``.
    ``meta["cpu_s"]`` is the phase-1 CPU time (process_time: user+sys of
    every thread in the worker, incl. Arrow's IPC/zstd pool) since
    ``_t0``, a scaling signal immune to wall-clock noise."""
    t0 = time.process_time() if _t0 is None else _t0
    out = encode_fragments(batch)
    buckets = out.column(BUCKET_COL).to_pylist()
    chunks: list = [None] * num_chunks(num_buckets)
    if buckets:
        # The fragments sit back to back in bucket order in the column's
        # value buffer, so a chunk's buf is one contiguous slice of it.
        # Chunk layout: (uint8 buffer, int64 offsets) numpy pair — NOT a
        # list of bytes. Numpy arrays come out of plasma as ZERO-COPY
        # views, so a consumer that needs fragment i of 16 touches only
        # its slice; a list[bytes] chunk is heap-copied whole into every
        # consumer (measured: 21 µs/turn merge CPU and 4x busy-CPU
        # inflation at 32 CPUs from exactly that copy amplification).
        frags = out.column(FRAG_COL).combine_chunks()
        _, offs_buf, values_buf = frags.buffers()
        voffs = np.frombuffer(offs_buf, np.int64)[
            frags.offset : frags.offset + len(frags) + 1]
        values = np.frombuffer(values_buf, np.uint8)
        start = 0
        for j, grp in groupby(buckets, key=lambda b: b // FRAG_CHUNK_BUCKETS):
            slots = np.array(list(grp)) % FRAG_CHUNK_BUCKETS
            end = start + len(slots)
            sizes = np.zeros(FRAG_CHUNK_BUCKETS + 1, np.int64)
            sizes[slots + 1] = np.diff(voffs[start : end + 1])
            chunks[j] = (values[voffs[start] : voffs[end]], np.cumsum(sizes))
            start = end
    meta = {
        "buckets": dict(zip(buckets, out.column(FRAG_SRCS_COL).to_pylist())),
        "cpu_s": time.process_time() - t0,  # incl. the packing above
    }
    return meta, chunks


def bucket_fragments(
    batch: pa.Table,
    *,
    num_buckets: int,
    key: str,
    turn_col: str,
    turns_per_salt: int,
    done_ids: list[int] | None,
    path_index: dict[str, int] | None = None,
    _t0: float | None = None,
) -> tuple[dict, list]:
    """Phase 1 over one batch of rows: salt into buckets, drop the rows
    of partitions a previous run completed (resume), then pack the
    fragments with ``encode_fragments_refs``."""
    t = salt.assign_buckets(
        batch,
        num_buckets,
        key=key,
        turn_col=turn_col,
        turns_per_salt=turns_per_salt,
        path_index=path_index,
    )
    if done_ids:
        b = t.column(BUCKET_COL).to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(~np.isin(b, done_ids)))
    return encode_fragments_refs(t, num_buckets, _t0=_t0)


def fused_read_fragments(splits: list[tuple[int, list[int]]], *,
                         paths: list[str], columns: list[str] | None,
                         **frag_kwargs):
    """Fused phase-1 source: parquet row-groups → ``bucket_fragments``
    inside ONE task, so RAW ROWS NEVER ENTER THE OBJECT STORE — only
    ~3x-compressed fragment chunks do.

    Why: materializing the raw Arrow blocks into plasma costs kernel
    time that scales superlinearly with writer concurrency on a single
    node (measured on the 20M-turn bench input: the unfused read's
    /proc stime is 28 CPU-s at 8-way but 307 CPU-s at 32-way — shm
    page-fault/TLB contention — while utime stays ~28 CPU-s). Fusing
    read→salt→fragment keeps the raw table in the task heap, cutting
    object-store traffic to the compressed fragments. Single-thread
    parquet decode per task (``use_threads=False``): Ray supplies the
    parallelism, and per-task arrow thread pools would oversubscribe
    the node.

    ``splits`` are read-split descriptors: (input-file index, row-group
    list). Yields one ``bucket_fragments`` result per split.
    """
    import pyarrow.parquet as pq

    for src, rgs in splits:
        t0 = time.process_time()  # split CPU incl. parquet decode + salt
        pf = pq.ParquetFile(paths[src])
        t = pf.read_row_groups(list(rgs), columns=columns, use_threads=False)
        t = t.append_column(
            SRC_COL, pa.array(np.full(t.num_rows, src, dtype=np.int32))
        )
        yield bucket_fragments(t, _t0=t0, **frag_kwargs)


@_ray.remote(num_cpus=1)
def fragment_task(source, where: str, frag_kwargs: dict,
                  read_kwargs: dict | None):
    """Phase 1: one plain Ray task per read split or Dataset block.

    ``source`` is a read split ``(file index, row groups)`` read by
    ``fused_read_fragments`` with ``read_kwargs``, or (``read_kwargs``
    None) a Ray Data block. Submit with ``num_returns=1 +
    num_chunks(num_buckets)``: the outputs are the meta dict, then the
    chunks of ``encode_fragments_refs``. ``where`` names the input in a
    failure's message."""
    try:
        if read_kwargs is None:
            from ray.data.block import BlockAccessor

            t0 = time.process_time()
            table = BlockAccessor.for_block(source).to_arrow()
            meta, chunks = bucket_fragments(table, _t0=t0, **frag_kwargs)
        else:
            [(meta, chunks)] = fused_read_fragments(
                [source], **read_kwargs, **frag_kwargs)
    except Exception as e:
        raise RuntimeError(f"encode phase 1 failed on {where}: {e!r}") from e
    return (meta, *chunks)


class MergeEncoderActor:
    """Phase 2 body: all fragments of one partition → one blob. Decode
    the fragments, merge, sort-within-partition (the per-conversation
    merge that preserves the stable turn ordering invariant), then run
    the real per-column encode."""

    def __init__(
        self,
        checkpoint_dir: str,
        sort_keys: tuple[str, ...] = ("conv_id", "turn_idx"),
        choices: dict | None = None,
        input_files: list[str] | None = None,
        page_rows: int | None = None,
    ):
        self.checkpoint_dir = checkpoint_dir
        self.sort_keys = list(sort_keys)
        self.choices = choices
        self.input_files = input_files or []
        self.page_rows = page_rows

    def lineage(self, bucket: int, srcs: list[int]) -> list[str]:
        """The partition's manifest ``input_fragments``: its bucket and
        the input files that fed it."""
        return [f"bucket={bucket}"] + [
            self.input_files[i] if 0 <= i < len(self.input_files) else f"src={i}"
            for i in srcs
        ]

    def _fragment_tables(self, bucket: int, chunks: list) -> list[pa.Table]:
        i = bucket % FRAG_CHUNK_BUCKETS
        out = []
        for buf, offs in chunks:
            frag = buf[offs[i] : offs[i + 1]]  # view — no chunk-wide copy
            out.append(_ipc_read_bytes(pa.py_buffer(frag)))
        return out

    def __call__(self, bucket: int, chunks: list, srcs: list[int]) -> dict:
        pid = f"{bucket:06d}"
        if os.path.exists(mf.entry_path(self.checkpoint_dir, pid)):
            # A retried task whose first attempt already wrote the blob.
            entry = mf.read_entry(self.checkpoint_dir, pid)
            return _summary(pid, entry["rows"], entry.get("raw_bytes") or 0,
                            entry["blob_bytes"], skipped=True)
        tables = self._fragment_tables(bucket, chunks)
        merged = pa.concat_tables(tables).combine_chunks()
        # The partition's Arrow size, measured on its merged rows: the
        # same however phase 1 split them (a sliced fragment's nbytes
        # depends on its validity-bitmap offset).
        raw_bytes = merged.nbytes
        keys = [k for k in self.sort_keys if k in merged.column_names]
        if keys:
            idx = pc.sort_indices(
                merged, sort_keys=[(k, "ascending") for k in keys]
            )
            merged = merged.take(idx)
        blob, meta = encode_table(merged, choices=self.choices, page_rows=self.page_rows)
        mf.write_partition(
            self.checkpoint_dir,
            pid,
            blob,
            meta,
            input_fragments=self.lineage(bucket, srcs),
            raw_bytes=raw_bytes,
        )
        return _summary(pid, merged.num_rows, raw_bytes, len(blob), False)


def _summary(pid, rows, raw_bytes, blob_bytes, skipped) -> dict:
    return {"partition_id": pid, "rows": rows, "raw_bytes": raw_bytes,
            "blob_bytes": blob_bytes, "skipped": skipped}


@_ray.remote(num_cpus=1)
def merge_encode_task(bucket: int, srcs: list[int], merge_kwargs: dict,
                      *chunks) -> dict:
    """Phase 2: one plain Ray task per partition.

    The exchange is the map-task/reduce-task shuffle of Exoshuffle
    (SIGCOMM 2023): the driver reads only the phase-1 metas, and passes
    each merge the chunk refs of the splits that hold rows of its
    bucket as top-level arguments. Ray fetches them (zero-copy on the
    same node), keeps them alive while any merge that takes them is
    pending, and frees them after — no barrier beyond phase 1 itself,
    no actor, and fragment bytes never touch the driver.

    Limit: the driver holds O(splits × buckets) meta entries at once."""
    t0 = time.process_time()
    enc = MergeEncoderActor(**merge_kwargs)
    try:
        out = enc(bucket, list(chunks), srcs)
    except Exception as e:
        raise RuntimeError(
            f"encode merge of partition {bucket:06d} "
            f"(inputs {enc.lineage(bucket, srcs)[1:]}) failed: {e!r}"
        ) from e
    out["cpu_s"] = time.process_time() - t0  # merge-side UDF CPU
    return out
