"""The encode path's two stages.

Phase 1 (``bucket_fragments``, fed by ``fused_read_fragments`` for local
files or by one ``map_batches`` for a Dataset): salt rows into buckets,
drop the buckets a previous run completed, and compress each
(split, bucket) row fragment to zstd Arrow IPC in the object store.

Phase 2 (``merge_encode_task``): one task per partition pulls its
fragments, merges and sorts them, and runs the real per-column encode —
the engine's ColumnStore-write analogue (the reference's
datastore/column.go:42-101). Symbol tables and codec
choices are built *per partition* and never shared across partitions,
so task retries reproduce byte-identical blobs (SURVEY.md §3.4).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray as _ray

from ..state import manifest as mf
from ..state.blob import encode_table
from . import salt
from .salt import BUCKET_COL, SRC_COL

FRAG_COL = "_frag"
FRAG_ROWS_COL = "_frag_rows"
FRAG_RAW_COL = "_frag_raw"
FRAG_SRCS_COL = "_frag_srcs"
FRAG_CPU_COL = "_cpu_s"


def _ipc_zstd_bytes(tbl: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    opts = pa.ipc.IpcWriteOptions(compression="zstd")
    with pa.ipc.new_stream(sink, tbl.schema, options=opts) as w:
        w.write_table(tbl)
    return sink.getvalue().to_pybytes()


def _ipc_read_bytes(b) -> pa.Table:
    return pa.ipc.open_stream(pa.BufferReader(b)).read_all()


def encode_fragments(batch: pa.Table, _t0: float | None = None) -> pa.Table:
    """Compress each bucket's rows of ``batch`` into one zstd Arrow IPC
    fragment, so the exchange moves ~blob-sized bytes instead of raw
    rows (~3x fewer on transcript text). IPC+zstd is the transient wire
    format — cheap C++ encode, no per-fragment codec selection; the real
    per-column encode runs once per merged partition in phase 2. An
    empty batch gives an empty fragment table."""
    import time as _time

    t0 = _time.process_time() if _t0 is None else _t0
    b = batch.column(BUCKET_COL).to_numpy(zero_copy_only=False)
    order = np.argsort(b, kind="stable")
    batch = batch.take(pa.array(order))
    b = b[order]
    change = np.flatnonzero(b[1:] != b[:-1]) + 1
    starts = np.concatenate(([0], change)) if len(b) else change
    ends = np.append(starts[1:], len(b))
    out_bucket, out_frag, out_rows, out_raw, out_srcs = [], [], [], [], []
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
        out_rows.append(tbl.num_rows)
        out_raw.append(tbl.nbytes)
        out_srcs.append(sorted(int(x) for x in srcs))
    # UDF CPU seconds of this split (process_time: user+sys of every
    # thread in the worker, incl. Arrow's IPC/zstd pool) — carried on
    # the first meta row so the driver can report a wall-noise-immune
    # scaling signal (VERDICT r2 #1). Not a data column; dropped by the
    # merge (which reads columns by name).
    cpu = _time.process_time() - t0
    n_out = len(out_bucket)
    return pa.table(
        {
            BUCKET_COL: pa.array(out_bucket, pa.int64()),
            FRAG_COL: pa.array(out_frag, pa.large_binary()),
            FRAG_ROWS_COL: pa.array(out_rows, pa.int64()),
            FRAG_RAW_COL: pa.array(out_raw, pa.int64()),
            FRAG_SRCS_COL: pa.array(out_srcs, pa.list_(pa.int32())),
            FRAG_CPU_COL: pa.array(
                [cpu] + [0.0] * (n_out - 1) if n_out else [], pa.float64()
            ),
        }
    )


@_ray.remote(num_cpus=0)
class FragmentRefHolder:
    """Pins fragment objects for the ref-based exchange.

    ``encode_fragments_refs`` puts each fragment's bytes into the object
    store with this actor as the object's OWNER and registers the ref
    here, so the fragment outlives the producing map task (a ref
    serialized inside an Arrow column is out-of-band — Ray's refcounting
    can't see it). The pipeline clears the holder after the run,
    releasing every fragment at once."""

    def __init__(self):
        self.refs = []

    def add(self, refs) -> int:
        self.refs.extend(refs)
        return len(self.refs)

    def clear(self) -> None:
        self.refs = []


# Buckets per put: one ray.put(_owner=...) costs ~4ms (an ownership
# handshake with the holder — measured vs 0.45ms plain), so per-fragment
# puts add seconds per block and serialize through the holder. Chunking
# K consecutive buckets per object cuts puts 16x. Cost model: locally a
# chunk is read zero-copy from plasma whatever its size; on a multi-node
# cluster a chunk is transferred to at most min(K, nodes-that-merge-its-
# buckets) nodes, so K bounds the over-fetch factor of the exchange.
FRAG_CHUNK_BUCKETS = 16
FRAG_IDX_COL = "_frag_idx"


def encode_fragments_refs(batch: pa.Table, holder,
                          _t0: float | None = None) -> pa.Table:
    """``encode_fragments``, with each fragment's bytes put into the
    object store and replaced in the output by a ~200-byte cloudpickled
    ObjectRef (+ intra-chunk index). The driver collects only these
    metadata rows; payload bytes move point-to-point — producing
    worker's plasma store → consuming merge task's ``ray.get``."""
    import time as _time

    from ray import cloudpickle

    t0 = _time.process_time() if _t0 is None else _t0
    out = encode_fragments(batch, _t0=t0)
    frags = [f.as_py() for f in out.column(FRAG_COL)]
    n = len(frags)
    blobs: list[bytes] = []
    idxs: list[int] = []
    refs = []
    for s in range(0, n, FRAG_CHUNK_BUCKETS):
        chunk = frags[s : s + FRAG_CHUNK_BUCKETS]
        # Chunk layout: (uint8 buffer, int64 offsets) numpy pair — NOT a
        # list of bytes. ray.get returns numpy arrays as ZERO-COPY plasma
        # views, so a consumer that needs fragment i of 16 touches only
        # its slice; a list[bytes] chunk is heap-copied whole into every
        # consumer (measured: 21 µs/turn merge CPU and 4x busy-CPU
        # inflation at 32 CPUs from exactly that copy amplification).
        buf = np.frombuffer(b"".join(chunk), dtype=np.uint8)
        offs = np.zeros(len(chunk) + 1, dtype=np.int64)
        np.cumsum([len(c) for c in chunk], out=offs[1:])
        r = _ray.put((buf, offs), _owner=holder)
        refs.append(r)
        rb = cloudpickle.dumps(r)
        blobs.extend([rb] * len(chunk))
        idxs.extend(range(len(chunk)))
    if refs:
        holder.add.remote(refs)  # in-band borrow until registered; see class doc
    i = out.schema.get_field_index(FRAG_COL)
    out = out.set_column(i, FRAG_COL, pa.array(blobs, pa.large_binary()))
    out = out.append_column(FRAG_IDX_COL, pa.array(idxs, pa.int32()))
    if out.num_rows:  # extend the CPU accounting over the put loop
        cpu = _time.process_time() - t0
        ci = out.schema.get_field_index(FRAG_CPU_COL)
        out = out.set_column(
            ci, FRAG_CPU_COL,
            pa.array([cpu] + [0.0] * (out.num_rows - 1), pa.float64()),
        )
    return out


def bucket_fragments(
    batch: pa.Table,
    *,
    num_buckets: int,
    key: str,
    turn_col: str,
    turns_per_salt: int,
    done_ids: list[int] | None,
    holder,
    path_index: dict[str, int] | None = None,
    _t0: float | None = None,
) -> pa.Table:
    """Phase 1 over one batch of rows: salt into buckets, drop the rows
    of partitions a previous run completed (resume), then emit the
    ref-fragment table of ``encode_fragments_refs``."""
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
    return encode_fragments_refs(t, holder, _t0=_t0)


def fused_read_fragments(batch: pa.Table, *, paths: list[str],
                         columns: list[str] | None, **frag_kwargs):
    """Fused phase-1 source: parquet row-groups → ``bucket_fragments``
    inside ONE task, so RAW ROWS NEVER ENTER THE OBJECT STORE — only
    ~3x-compressed fragment chunks do.

    Why: materializing the raw Arrow blocks into plasma costs kernel
    time that scales superlinearly with writer concurrency on a single
    node (measured on the 20M-turn bench input: the unfused read's
    /proc stime is 28 CPU-s at 8-way but 307 CPU-s at 32-way — shm
    page-fault/TLB contention — while utime stays ~28 CPU-s). Fusing
    read→salt→fragment keeps the raw table in the task heap, cutting
    object-store traffic to the compressed fragments and removing the
    driver's metadata-probe job. Single-thread parquet decode per task
    (``use_threads=False``): Ray supplies the parallelism, and per-task
    arrow thread pools would oversubscribe the node.

    Batch rows are read-split descriptors: ``_src`` (input-file index)
    + ``_rgs`` (row-group list). Yields one fragment table per split.
    """
    import time as _time

    import pyarrow.parquet as pq

    for src, rgs in zip(
        batch.column("_src").to_pylist(), batch.column("_rgs").to_pylist()
    ):
        t0 = _time.process_time()  # split CPU incl. parquet decode + salt
        pf = pq.ParquetFile(paths[src])
        t = pf.read_row_groups(list(rgs), columns=columns, use_threads=False)
        t = t.append_column(
            SRC_COL, pa.array(np.full(t.num_rows, src, dtype=np.int32))
        )
        yield bucket_fragments(t, _t0=t0, **frag_kwargs)


class MergeEncoderActor:
    """Phase 2 body: all ref-fragment rows of one partition → one blob.
    Pull and decode the fragments, merge, sort-within-partition (the
    per-conversation merge that preserves the stable turn ordering
    invariant), then run the real per-column encode."""

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

    def _fragment_tables(self, rows: list[dict]) -> list[pa.Table]:
        from ray import cloudpickle

        uniq: dict[bytes, int] = {}
        refs = []
        for r in rows:
            if r[FRAG_COL] not in uniq:
                uniq[r[FRAG_COL]] = len(refs)
                refs.append(cloudpickle.loads(r[FRAG_COL]))
        chunks = _ray.get(refs)  # zero-copy plasma views, one pull per chunk
        out = []
        for r in rows:
            buf, offs = chunks[uniq[r[FRAG_COL]]]
            i = int(r[FRAG_IDX_COL])
            frag = buf[offs[i] : offs[i + 1]]  # view — no chunk-wide copy
            out.append(_ipc_read_bytes(pa.py_buffer(frag)))
        return out

    def __call__(self, rows: list[dict]) -> dict:
        bucket = int(rows[0][BUCKET_COL])
        pid = f"{bucket:06d}"
        if os.path.exists(mf.entry_path(self.checkpoint_dir, pid)):
            # A retried task whose first attempt already wrote the blob.
            entry = mf.read_entry(self.checkpoint_dir, pid)
            return _summary(pid, entry["rows"], entry.get("raw_bytes") or 0,
                            entry["blob_bytes"], skipped=True)
        tables = self._fragment_tables(rows)
        merged = pa.concat_tables(tables).combine_chunks()
        srcs = sorted({int(x) for r in rows for x in r[FRAG_SRCS_COL]})
        fragments = [f"bucket={bucket}"] + [
            self.input_files[i] if 0 <= i < len(self.input_files) else f"src={i}"
            for i in srcs
        ]
        keys = [k for k in self.sort_keys if k in merged.column_names]
        if keys:
            idx = pc.sort_indices(
                merged, sort_keys=[(k, "ascending") for k in keys]
            )
            merged = merged.take(idx)
        raw_bytes = sum(int(r[FRAG_RAW_COL]) for r in rows)
        blob, meta = encode_table(merged, choices=self.choices, page_rows=self.page_rows)
        mf.write_partition(
            self.checkpoint_dir,
            pid,
            blob,
            meta,
            input_fragments=fragments,
            raw_bytes=raw_bytes,
        )
        return _summary(pid, merged.num_rows, raw_bytes, len(blob), False)


def _summary(pid, rows, raw_bytes, blob_bytes, skipped) -> dict:
    return {"partition_id": pid, "rows": rows, "raw_bytes": raw_bytes,
            "blob_bytes": blob_bytes, "skipped": skipped}


@_ray.remote(num_cpus=1)
def merge_encode_task(rows: list[dict], merge_kwargs: dict) -> dict:
    """Phase 2: one plain Ray task per partition.

    The exchange is the classic map-output-tracker pattern: the driver
    collects the ~250-byte ref rows phase 1 emits per (split, bucket)
    fragment, groups them by bucket in a dict, and launches one merge
    task per partition — no sort shuffle (a fixed multi-second
    coordination barrier at any data size), no actor-pool sizing (tasks
    pack the cluster elastically as soon as fragments are ready).
    Fragment bytes never touch the driver.

    Limit: the tracker holds O(splits × buckets) metadata rows in driver
    memory at once (~250 B each), so ~10^7 fragments cost a few GB on
    the driver."""
    import time as _time

    t0 = _time.process_time()
    out = MergeEncoderActor(**merge_kwargs)(rows)
    out["cpu_s"] = _time.process_time() - t0  # merge-side UDF CPU
    return out
