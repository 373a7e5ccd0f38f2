"""End-to-end curation pipeline (pipelines/curate.py) — plumbing
test: stage order, column contracts, report arithmetic. The
operators themselves are oracled in their own test files."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


BOILER = "Cookie banner | Accept | Decline"


def _corpus(rng):
    """60 docs: 15 boilerplate-carrying, 10 exact dups, 6 near-dups,
    5 benchmark-contaminated, the rest clean."""
    mk = lambda n=30: " ".join(
        f"w{int(x)}" for x in rng.integers(0, 5000, n)
    )
    base = [mk() for _ in range(40)]
    texts = list(base)
    texts += [base[i] for i in range(10)]            # exact dups
    texts += [base[i].replace("w", "v", 1) for i in range(10, 16)]
    bench_passage = " ".join(f"b{i}" for i in range(15))
    texts += [bench_passage + " " + mk(10) for _ in range(4)]
    texts = [
        (BOILER + "\n" + t) if i % 4 == 0 else t
        for i, t in enumerate(texts)
    ]
    return texts, bench_passage


class TestCuratePipeline:
    def test_full_stack(self, ray_session):
        import ray

        from parquet_go_ray.pipelines.curate import curate_corpus

        rng = np.random.default_rng(71)
        texts, bench_passage = _corpus(rng)
        docs = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        })).repartition(4)
        bench = ray.data.from_arrow(pa.table({
            "text": pa.array([bench_passage]),
        }))
        ref = ray.data.from_arrow(pa.table({
            "text": pa.array(texts[:20]),
        }))

        out = curate_corpus(
            docs,
            benchmark=bench,
            reference=ref,
            boilerplate_min_docs=10,
            near_dup_threshold=0.7,
            max_bits_per_token=50.0,  # permissive: plumbing test
            decontam_n=8,
            pack_tokens=128,
        )
        res = out["dataset"].to_pandas()
        rep = out["report"]

        # exact dups collapsed (min id kept), near-dups collapsed,
        # contaminated docs dropped
        assert rep["before"]["docs"] == len(texts)
        assert rep["after"]["docs"] == len(res)
        assert rep["docs_removed"] >= 10 + 6 + 4
        # no boilerplate line survives anywhere
        assert not res["text"].str.contains(BOILER, regex=False).any()
        # no benchmark n-gram survives
        assert not res["text"].str.contains("b0 b1 b2", regex=False).any()
        # survivors carry the LM score column and respect the cap
        assert (res["lm_bits_per_token"] <= 50.0).all()
        # the clean docs survived (ids 16..39 minus contaminated none)
        surv = set(res["doc_id"])
        assert set(range(16, 40)) <= surv
        # packing consumed the curated stream: every surviving doc
        # placed exactly once
        packed = out["packed"].to_pandas()
        placed = sorted(i for ids in packed["doc_ids"] for i in ids)
        assert placed == sorted(surv)
        assert (packed["n_tokens"] <= 128).all() or \
            packed["oversize"].any()

    def test_minimal_stages(self, ray_session):
        import ray

        from parquet_go_ray.pipelines.curate import curate_corpus

        docs = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(12), pa.int64()),
            "text": pa.array(
                [f"unique text number {i} alpha beta" for i in range(6)]
                * 2
            ),
        }))
        out = curate_corpus(docs, profile=False)
        res = out["dataset"].to_pandas()
        assert sorted(res["doc_id"]) == list(range(6))  # dups gone
        assert out["report"] == {}
        assert "packed" not in out


class TestCurateShard:
    def test_rolling_ingest(self, ray_session, tmp_path):
        import ray

        from parquet_go_ray.ops.dedup import ExactDedupStore
        from parquet_go_ray.ops.neardup_store import MinHashDedupStore
        from parquet_go_ray.pipelines.curate import curate_shard

        rng = np.random.default_rng(79)
        mk = lambda: " ".join(
            f"w{int(x)}" for x in rng.integers(0, 5000, 40)
        )
        history = [mk() for _ in range(30)]
        hist_ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(30), pa.int64()),
            "text": pa.array(history),
        }))
        ep = str(tmp_path / "exact")
        npth = str(tmp_path / "near")
        es = ExactDedupStore.build(hist_ds, ep, num_parts=4)
        ns = MinHashDedupStore.build(hist_ds, npth, num_parts=4)

        # shard: 3 copies of history docs, 2 near-copies, 4 fresh
        # (one duplicated within the shard)
        fresh = [mk() for _ in range(3)]
        shard_texts = (
            history[:3]
            + [history[5].replace("w", "x", 1),
               history[6].replace("w", "x", 1)]
            + fresh + [fresh[0]]
        )
        shard = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(100, 100 + len(shard_texts)),
                               pa.int64()),
            "text": pa.array(shard_texts),
        })).repartition(3)

        out = curate_shard(shard, exact_store=es, near_store=ns,
                           near_dup_threshold=0.7)
        rep = out["report"]
        surv = sorted(out["dataset"].to_pandas()["doc_id"])
        assert rep["shard_docs"] == 9
        assert rep["after_intra_shard"] == 8      # intra-shard dup gone
        assert rep["after_exact_history"] == 5    # 3 exact copies gone
        assert rep["after_near_history"] == 3     # 2 near copies gone
        assert surv == [105, 106, 107]            # the fresh docs
        assert rep["exact_appended"] == 3
        # a re-ingest of the same shard yields nothing new
        again = curate_shard(shard, exact_store=es, near_store=ns,
                             near_dup_threshold=0.7, append=False)
        assert again["dataset"].count() == 0


class TestIdColumnCheck:
    def test_non_integer_ids_rejected_before_any_stage(self, ray_session):
        """A string (or missing) id column fails up front with a message
        naming the column and its type, in both entry points."""
        import pytest
        import ray

        from parquet_go_ray.pipelines.curate import curate_corpus, curate_shard

        docs = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([f"d{i}" for i in range(6)]),
            "text": pa.array([f"some text number {i}" for i in range(6)]),
        }))
        for run in (curate_corpus, curate_shard):
            with pytest.raises(ValueError, match="'doc_id' has type string"):
                run(docs)
            with pytest.raises(ValueError, match="'uid' is not in the dataset"):
                run(docs, id_col="uid")
