"""The flagship pipeline: transcript Parquet → encoded partition blobs.

Lifecycle (SURVEY.md §3.4) — one exchange, one encode per partition,
all plain Ray tasks (the map/reduce shuffle of Exoshuffle, SIGCOMM 2023):

    phase 1  fragment_task per read split (local files: footers planned
             on the driver, read by fused_read_fragments) or per block
             of a Dataset / remote URI (streamed from Ray Data):
             salted conv_id hash → drop rows of completed partitions
             (resume) → zstd-IPC fragments, returned as task outputs:
             one small meta + one (buf, offs) chunk per 16 buckets
    exchange driver reads the metas and groups chunk refs by bucket
    phase 2  merge_encode_task per non-empty partition, its chunk refs
             as arguments: merge, sort (conv_id, turn_idx), auto-select
             codecs, encode, atomically write blob + lineage → one
             summary row per partition

The driver owns every chunk (a task output), so Ray frees each once the
merges that take it are done, and can rebuild a lost one by lineage.
Fragment bytes move point-to-point through the object store and never
touch the driver. Skew is handled in the bucket key itself
(stages/salt.py). Memory: a partition is bounded by rows_per_partition
plus the per-conversation salt cap.

This module never calls ray.init() — the driver owns the session.
"""

from __future__ import annotations

import json
import os
import time

import ray

from ..stages.encoder import (
    FRAG_CHUNK_BUCKETS,
    fragment_task,
    merge_encode_task,
    num_chunks,
)
from ..stages.salt import DEFAULT_TURNS_PER_SALT
from ..state import manifest as mf

DEFAULT_ROWS_PER_PARTITION = 250_000


def _list_parquet_files(input_path: str | list[str]) -> list[str]:
    """Expand dir / file / list-of-either into a sorted file list
    (local filesystem; remote URIs take the Ray Data read path)."""
    paths = [input_path] if isinstance(input_path, str) else list(input_path)
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            out += sorted(
                os.path.join(p, f)
                for f in os.listdir(p)
                if f.endswith(".parquet")
            )
        else:
            out.append(p)
    return out


def _read_footers(input_files: list[str]) -> list[list[int]]:
    """Per-file row-group row counts. Footers are read driver-side in a
    small thread pool — one ~8 KB tail read per file; at real scale this
    planning would itself shard over files, but it is metadata-only."""
    from concurrent.futures import ThreadPoolExecutor

    import pyarrow.parquet as pq

    def rg_rows(p: str) -> list[int]:
        md = pq.ParquetFile(p).metadata
        return [md.row_group(i).num_rows for i in range(md.num_row_groups)]

    with ThreadPoolExecutor(max(1, min(16, len(input_files)))) as ex:
        return list(ex.map(rg_rows, input_files))


def _plan_read_splits(
    per_file: list[list[int]], total_rows: int, target_splits: int
) -> list[tuple[int, list[int]]]:
    """Row-group-aligned read splits of ~equal row counts (the fused
    analogue of the reference's row-group iterator walk,
    file-reader.go:193-253): (file index, row groups) pairs."""
    per_split = max(1, total_rows // max(1, target_splits))
    items = []
    for src, rows in enumerate(per_file):
        cur: list[int] = []
        cur_rows = 0
        for g, n in enumerate(rows):
            cur.append(g)
            cur_rows += n
            if cur_rows >= per_split:
                items.append((src, cur))
                cur, cur_rows = [], 0
        if cur:
            items.append((src, cur))
    return items


def encode_pipeline(
    input_path: str | list[str] | ray.data.Dataset,
    checkpoint_dir: str,
    *,
    columns: list[str] | None = None,
    key: str = "conv_id",
    turn_col: str = "turn_idx",
    rows_per_partition: int = DEFAULT_ROWS_PER_PARTITION,
    turns_per_salt: int = DEFAULT_TURNS_PER_SALT,
    num_buckets: int | None = None,
    choices: dict | None = None,
    page_rows: int | None = None,
    read_blocks: int | None = None,
) -> dict:
    """Run the encode job; returns the run summary (also written to
    ``<checkpoint_dir>/metrics.json``). Safe to re-run after
    interruption: rows of completed partitions are dropped in phase 1.

    Local parquet files take the fused read (``fused_read_fragments``):
    parquet decode, salt and fragment encode run in ONE task per
    row-group-aligned split, so raw rows never enter the object store.
    A ``ray.data.Dataset`` or a remote URI is read by Ray Data, and each
    block it streams out feeds the same phase-1 task. For path inputs
    ``read_blocks`` fixes the number of read splits (default: sized
    from the cluster's CPUs)."""
    t0 = time.time()
    files = (
        None if isinstance(input_path, ray.data.Dataset)
        else _list_parquet_files(input_path)
    )
    fused = bool(files) and all(os.path.exists(p) for p in files)
    if fused:
        input_files = files
        per_file = _read_footers(files)
        total_rows = sum(sum(r) for r in per_file)
    else:
        ds = (
            input_path if files is None
            else ray.data.read_parquet(input_path, columns=columns)
        )
        input_files = ds.input_files()
        total_rows = ds.count()  # parquet metadata only — no data read
    if num_buckets is None:
        num_buckets = max(1, -(-total_rows // rows_per_partition))
    if files is not None:
        # Exchange cost scales with block COUNT, not just bytes: each
        # block emits one fragment per bucket, so block count drives both
        # fragment count and orchestration (measured 184k→270k turns/s
        # going 124→32 blocks at 32 CPUs) — few, large blocks.
        # ``read_blocks`` fixes the plan regardless of cluster size (a real
        # deployment's block count comes from the data layout); scaling
        # benchmarks use it so both legs run the identical task graph.
        cpus = int(ray.cluster_resources().get("CPU", 8))
        blocks = read_blocks
        if blocks is None:
            blocks = min(max(cpus, num_buckets // 4), 2 * cpus)
        blocks = min(blocks, max(1, total_rows // 5000))

    os.makedirs(checkpoint_dir, exist_ok=True)
    run_path = os.path.join(checkpoint_dir, "run.json")
    run_cfg = {
        "num_buckets": num_buckets,
        "turns_per_salt": turns_per_salt,
        "key": key,
        "input_files": input_files,
    }
    if os.path.exists(run_path):
        with open(run_path) as f:
            prev = json.load(f)
        if prev["num_buckets"] != num_buckets or prev["turns_per_salt"] != turns_per_salt:
            raise ValueError(
                "resume config mismatch: partitioning params changed "
                f"({prev['num_buckets']}/{prev['turns_per_salt']} -> "
                f"{num_buckets}/{turns_per_salt}); use a fresh checkpoint dir"
            )
    else:
        with open(run_path, "w") as f:
            json.dump(run_cfg, f)

    completed = mf.completed_partitions(checkpoint_dir)
    merge_kwargs = {
        "checkpoint_dir": checkpoint_dir,
        "sort_keys": (key, turn_col),
        "choices": choices,
        "input_files": input_files,
        "page_rows": page_rows,
    }
    frag_kwargs = {
        "num_buckets": num_buckets,
        "key": key,
        "turn_col": turn_col,
        "turns_per_salt": turns_per_salt,
        "done_ids": sorted(int(p) for p in completed) or None,
    }
    phase1 = fragment_task.options(num_returns=1 + num_chunks(num_buckets))
    if fused:
        read_kwargs = {"paths": input_files, "columns": columns}
        outs = [
            phase1.remote(split, f"{input_files[split[0]]} row groups {split[1]}",
                          frag_kwargs, read_kwargs)
            for split in _plan_read_splits(per_file, total_rows, blocks)
        ]
    else:
        if files is not None:
            ds = ray.data.read_parquet(
                input_path,
                columns=columns,
                override_num_blocks=blocks,
                # per-partition lineage (compacted to int32 by the salt)
                include_paths=True,
            )
        frag_kwargs["path_index"] = {p: i for i, p in enumerate(input_files)}
        # One task per block as Ray Data streams them out of the read.
        outs = [
            phase1.remote(block, f"Dataset block {i}", frag_kwargs, None)
            for i, block in enumerate(
                ref for bundle in ds.iter_internal_ref_bundles()
                for ref in bundle.block_refs
            )
        ]
    try:
        metas = ray.get([o[0] for o in outs])
        merges = [
            merge_encode_task.remote(b, sorted(srcs), merge_kwargs, *refs)
            for b, (srcs, refs) in sorted(_partitions(metas, outs).items())
        ]
        # The chunks now live on as merge arguments only, so each is
        # freed as soon as the merges that take it are done.
        outs = None
        rows = ray.get(merges)
    finally:
        # Also on failure: a caller that keeps the exception keeps this
        # frame, which must not pin the chunks.
        outs = merges = None
    phase1_cpu = sum(m["cpu_s"] for m in metas)
    merge_cpu = sum(float(r.get("cpu_s") or 0.0) for r in rows)
    return _finish(
        checkpoint_dir, rows, t0, num_buckets,
        extra={
            # UDF CPU seconds (process_time inside the task bodies): the
            # wall-noise-immune scaling signal — flat per row across
            # cluster sizes ⇔ no contention-induced work inflation
            # (VERDICT r2 #1).
            "phase1_cpu_s": round(phase1_cpu, 3),
            "merge_cpu_s": round(merge_cpu, 3),
            "udf_cpu_s": round(phase1_cpu + merge_cpu, 3),
        },
    )


def _partitions(metas: list[dict], outs: list[list]) -> dict:
    """Map-output tracker: per bucket, the input files of its rows and
    the chunk refs of the splits that hold them. Buckets with no rows,
    or completed by a previous run, get no entry."""
    parts: dict[int, tuple[set, list]] = {}
    for meta, o in zip(metas, outs):
        for b, srcs in meta["buckets"].items():
            p_srcs, p_refs = parts.setdefault(b, (set(), []))
            p_srcs.update(srcs)
            p_refs.append(o[1 + b // FRAG_CHUNK_BUCKETS])
    return parts


def _finish(checkpoint_dir: str, rows: list[dict], t0: float,
            num_buckets: int, extra: dict | None = None) -> dict:
    encoded_rows = sum(r["rows"] for r in rows if not r["skipped"])
    blob_bytes = sum(r["blob_bytes"] for r in rows)
    raw_bytes = sum(r["raw_bytes"] for r in rows)
    elapsed = time.time() - t0
    summary = {
        "partitions": len(rows),
        "partitions_skipped": sum(1 for r in rows if r["skipped"]),
        "rows_total": int(sum(r["rows"] for r in rows)),
        "rows_encoded": int(encoded_rows),
        "raw_bytes": int(raw_bytes),
        "blob_bytes": int(blob_bytes),
        "elapsed_sec": elapsed,
        "turns_per_sec": (encoded_rows / elapsed) if elapsed > 0 else 0.0,
        "bytes_per_turn": (blob_bytes / max(1, sum(r["rows"] for r in rows))),
        "num_buckets": num_buckets,
    }
    if extra:
        summary.update(extra)
    with open(os.path.join(checkpoint_dir, "metrics.json"), "w") as f:
        json.dump(summary, f, indent=2)
    return summary
