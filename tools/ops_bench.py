"""Reproducible timings for the curation/analytic operators.

Times each op over $GRAFT_SF_DIR (default /root/testdata/sf0.1) and
prints one JSON line — the committed form of the ad-hoc timing
snippets recorded in NOTES_r5.md, so a reviewer can rerun them.
These are NOT part of the driver bench gate (`bench.py` owns that);
at sf0.1 every line is fixed-overhead-dominated (stage startup) — the
numbers bound op latency floors, not throughput.

The broadcast-probe operators are timed through the `__ray_entry__`
queries that use them (the four broadcast joins, `ann_topk`,
`tfidf_topk`, `decontaminate`), plus `decontam_61mib_gram_set`: a
61 MiB n-gram set (8M grams) over 200k synthetic docs in 16 files.

Usage: python tools/ops_bench.py  [--runs N] [--only NAME,NAME,...]
(`--only` times just the named lines; `boilerplate_rewrite` needs
`boilerplate_sketch` and `lm_score` needs `lm_train`.) Ray starts with
$RAY_GRAFT_CPUS logical CPUs (default 32).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

# runnable as `python tools/ops_bench.py` from anywhere
sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def main() -> None:
    import numpy as np
    import pyarrow as pa

    import ray

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    runs = 2
    if "--runs" in sys.argv:
        runs = int(sys.argv[sys.argv.index("--runs") + 1])
    only = None
    if "--only" in sys.argv:
        only = set(sys.argv[sys.argv.index("--only") + 1].split(","))
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
        )
    import ray.data

    def docs():
        return ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )

    def events_val():
        return ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["value"]
        )

    def emb():
        return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")

    def orders():
        return ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey"],
        )

    def consume(ds):
        for _ in ds.iter_batches(batch_format="pyarrow"):
            pass

    timings: dict[str, float] = {}

    def timed(name: str, fn) -> None:
        if only is not None and name not in only:
            return
        fn()  # cold
        best = float("inf")
        for _ in range(runs):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        timings[name] = round(best, 3)

    from parquet_go_ray.ops.neardup_store import MinHashDedupStore

    def neardup():
        shutil.rmtree("/tmp/pgr_opsbench_nds", ignore_errors=True)
        s = MinHashDedupStore.build(
            docs(), "/tmp/pgr_opsbench_nds", num_parts=16
        )
        consume(s.filter_new(docs()))

    timed("neardup_store_build_selfprobe", neardup)

    from parquet_go_ray.ops.sketch import approx_quantiles_kll

    timed("kll_quantiles_events", lambda: approx_quantiles_kll(
        events_val(), "value", k=512))

    from parquet_go_ray.ops.passages import repeated_passages

    timed("repeated_passages_w8", lambda: consume(
        repeated_passages(docs(), window=8)))

    from parquet_go_ray.ops.mixing import chunk_documents, pack_sequences

    timed("pack_sequences_2048", lambda: consume(
        pack_sequences(docs(), max_tokens=2048, concat_text=True)))
    timed("chunk_documents_128_16", lambda: consume(
        chunk_documents(docs(), max_tokens=128, overlap=16)))

    from parquet_go_ray.ops.sampling import weighted_sample

    timed("weighted_sample_500", lambda: weighted_sample(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "n_chars"]),
        ["n_chars"], "doc_id", "n_chars", 500))

    from parquet_go_ray.ops.graph import connected_components

    def cc():
        e = orders().map_batches(
            lambda b: pa.table({
                "a": pa.compute.add(b.column("o_orderkey"), 10**9),
                "b": b.column("o_custkey").cast(pa.int64()),
            }),
            batch_format="pyarrow",
        )
        consume(connected_components(e))

    timed("connected_components_orders", cc)

    from parquet_go_ray.ops.embeddings import quantize_embeddings

    timed("quantize_embeddings", lambda: consume(
        quantize_embeddings(emb(), "embedding")))

    from parquet_go_ray.ops.boilerplate import (line_df_sketch,
                                                remove_boilerplate_lines)

    sketch = {}

    def boiler_sketch():
        sketch["cms"] = line_df_sketch(docs())

    timed("boilerplate_sketch", boiler_sketch)
    timed("boilerplate_rewrite", lambda: consume(
        remove_boilerplate_lines(docs(), cms=sketch["cms"],
                                 min_docs=10)))

    from parquet_go_ray.ops.lm_score import lm_perplexity, train_ngram_lm

    lmbox = {}

    def lm_train():
        lmbox["lm"] = train_ngram_lm(docs())

    timed("lm_train", lm_train)
    timed("lm_score", lambda: consume(
        lm_perplexity(docs(), lmbox["lm"])))

    from parquet_go_ray.ops.profile import profile_corpus

    timed("profile_corpus", lambda: profile_corpus(docs()))

    import __ray_entry__

    def run_query(fn):
        out = fn(sf_dir)
        if isinstance(out, ray.data.Dataset):
            consume(out)

    entry_queries = __ray_entry__.queries()
    for name in ("broadcast_join_lineitem_part",
                 "semi_anti_join_lineitem_part", "range_join_events",
                 "asof_join_events", "tfidf_topk_documents",
                 "ann_cosine_embeddings", "decontam_documents"):
        timed(name, lambda fn=entry_queries[name]: run_query(fn))

    from parquet_go_ray.ops.decontam import decontaminate

    big = {}

    def big_decontam():
        if not big:
            big["dir"] = _synthetic_docs(200_000, 16)
            rng = np.random.default_rng(1)
            big["grams"] = np.unique(
                rng.integers(0, 2**63, 8_000_000, dtype=np.uint64))
        consume(decontaminate(
            ray.data.read_parquet(big["dir"]),
            gram_set=big["grams"], n=13))

    timed("decontam_61mib_gram_set", big_decontam)
    if big:
        shutil.rmtree(big["dir"], ignore_errors=True)

    print(json.dumps({
        "metric": "ops_bench_best_warm_sec",
        "sf_dir": sf_dir,
        "runs": runs,
        "timings": timings,
    }))
    ray.shutdown()


def _synthetic_docs(n_docs: int, n_files: int) -> str:
    """``n_docs`` seeded 40-word docs over a 5,000-word vocabulary,
    written as ``n_files`` parquet files into a new temp directory."""
    import tempfile

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(0)
    vocab = np.array([f"w{i}" for i in range(5000)], dtype=object)
    words = vocab[rng.integers(0, len(vocab), (n_docs, 40))]
    text = [" ".join(row) for row in words]
    out = tempfile.mkdtemp(prefix="pgr_opsbench_docs_")
    per = -(-n_docs // n_files)
    for f in range(n_files):
        lo, hi = f * per, min((f + 1) * per, n_docs)
        pq.write_table(pa.table({
            "doc_id": pa.array(np.arange(lo, hi), pa.int64()),
            "text": pa.array(text[lo:hi]),
        }), os.path.join(out, f"docs-{f:02d}.parquet"))
    return out


if __name__ == "__main__":
    main()
