"""Training-data ops tests: dedup, text analysis, ANN."""

import numpy as np
import pyarrow as pa
import pytest

from parquet_go_ray.ops.dedup import (
    minhash_signatures,
    ngram_jaccard,
    simhash64,
)


def test_minhash_estimates_jaccard():
    a = b"the quick brown fox jumps over the lazy dog and runs far away home"
    b_ = b"the quick brown fox jumps over the lazy cat and runs far away home"
    c = b"completely different content with nothing shared at all zzz qqq"
    sigs = minhash_signatures([a, b_, c], num_perm=128)
    est_ab = (sigs[0] == sigs[1]).mean()
    est_ac = (sigs[0] == sigs[2]).mean()
    true_ab = ngram_jaccard(a, b_, 5)
    assert abs(est_ab - true_ab) < 0.2
    assert est_ac < 0.2 < est_ab


def test_minhash_deterministic():
    texts = [b"hello world foo bar"] * 3
    s1 = minhash_signatures(texts)
    s2 = minhash_signatures(texts)
    assert (s1 == s2).all()
    assert (s1[0] == s1[1]).all()  # identical docs, identical sigs


def test_simhash_near_duplicates_close():
    base = "the quick brown fox jumps over the lazy dog " * 5
    near = base.replace("dog", "cat", 1)
    far = "totally unrelated words about databases and columnar storage " * 5
    h = simhash64([base, near, far])
    d_near = bin(int(h[0]) ^ int(h[1])).count("1")
    d_far = bin(int(h[0]) ^ int(h[2])).count("1")
    assert d_near < d_far


def test_ngram_jaccard_bounds():
    assert ngram_jaccard("abcdef", "abcdef") == 1.0
    assert ngram_jaccard("abcdefgh", "zzzzzzzz") == 0.0
    assert 0.0 < ngram_jaccard("abcdefgh", "abcdefgx") < 1.0


class TestRayOps:
    @pytest.fixture()
    def docs_ds(self, ray_session):
        import ray

        texts = (
            ["unique document number %d with content" % i for i in range(50)]
            + ["duplicated corpus entry shared text"] * 5
        )
        t = pa.table(
            {"doc_id": pa.array(range(55), pa.int64()), "text": pa.array(texts)}
        )
        return ray.data.from_arrow(t)

    def test_dedup_exact(self, docs_ds):
        from parquet_go_ray.ops.dedup import dedup_exact

        ids = sorted(r["doc_id"] for r in dedup_exact(docs_ds).iter_rows())
        assert len(ids) == 51  # 50 unique + 1 survivor of the 5 dups
        assert 50 in ids and 51 not in ids

    def test_dedup_minhash_collapses_near_dups(self, ray_session):
        import ray

        from parquet_go_ray.ops.dedup import dedup_minhash

        rng = np.random.default_rng(0)
        base = "the quick brown fox jumps over the lazy dog in the warm sun "
        texts = [base * 4, (base * 4).replace("dog", "dig", 1)] + [
            " ".join(
                "".join(rng.choice(list("abcdefghijklmnop"), 7)) for _ in range(40)
            )
            for _ in range(20)
        ]
        ds = ray.data.from_arrow(
            pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)})
        )
        ids = sorted(r["doc_id"] for r in dedup_minhash(ds, threshold=0.6).iter_rows())
        assert 0 in ids and 1 not in ids  # near-dup pair collapsed to min id
        assert len(ids) == 21

    def test_dedup_simhash_collapses_near_dups(self, ray_session):
        import ray

        from parquet_go_ray.ops.dedup import dedup_simhash

        base = "alpha beta gamma delta epsilon zeta eta theta " * 8
        texts = [base, base.replace("theta", "thetb", 1)] + [
            f"doc {i} " + " ".join(f"w{i}_{j}" for j in range(30)) for i in range(15)
        ]
        ds = ray.data.from_arrow(
            pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)})
        )
        ids = sorted(r["doc_id"] for r in dedup_simhash(ds, max_hamming=8).iter_rows())
        assert 0 in ids and 1 not in ids

    def test_ann_topk_exact(self, ray_session):
        import ray

        from parquet_go_ray.ops.ann import ann_topk

        rng = np.random.default_rng(3)
        emb = rng.normal(size=(200, 16)).astype(np.float32)
        t = pa.table(
            {
                "vec_id": pa.array(range(200), pa.int64()),
                "embedding": pa.array(list(emb), pa.list_(pa.float32())),
            }
        )
        ds = ray.data.from_arrow(t)
        out = ann_topk(ds, emb[:3].astype(np.float64), k=4)
        df = out.to_pandas()
        # rank 1 of query i is vector i itself (cosine 1.0)
        top1 = df[df["rank"] == 1].sort_values("query_id")
        assert top1["vec_id"].tolist() == [0, 1, 2]
        assert len(df) == 12
        # Brute-force check for query 0.
        emb64 = emb.astype(np.float64)
        n = emb64 / np.linalg.norm(emb64, axis=1, keepdims=True)
        scores = n @ n[0]
        expect = set(np.argsort(-scores)[:4])
        got = set(df[df["query_id"] == 0]["vec_id"])
        assert got == expect

    def test_ann_ivf_mostly_agrees(self, ray_session):
        import ray

        from parquet_go_ray.ops.ann import ann_ivf, ann_topk

        rng = np.random.default_rng(4)
        emb = rng.normal(size=(300, 16)).astype(np.float32)
        t = pa.table(
            {
                "vec_id": pa.array(range(300), pa.int64()),
                "embedding": pa.array(list(emb), pa.list_(pa.float32())),
            }
        )
        ds = ray.data.from_arrow(t)
        q = emb[:2].astype(np.float64)
        exact = ann_topk(ds, q, k=3).to_pandas()
        approx = ann_ivf(ds, q, k=3, n_clusters=8, n_probe=4).to_pandas()
        # Self-match must survive bucketing.
        assert set(approx[approx["rank"] == 1]["vec_id"]) >= {0, 1} or len(
            set(exact["vec_id"]) & set(approx["vec_id"])
        ) >= 3

    def test_langid_scripts(self, ray_session):
        import ray

        from parquet_go_ray.ops.text import apply, langid_batch

        t = pa.table(
            {
                "doc_id": pa.array(range(4), pa.int64()),
                "text": pa.array(
                    [
                        "the cat sat on the mat and it was the best of all",
                        "der hund ist in den garten gelaufen und hat die katze gesehen",
                        "这是一个中文文档 包含很多汉字 用于测试语言识别",
                        "это русский текст для проверки определения языка",
                    ]
                ),
            }
        )
        out = apply(ray.data.from_arrow(t), langid_batch).to_pandas()
        pred = out.sort_values("doc_id")["lang_pred"].tolist()
        assert pred[0] == "en"
        assert pred[1] == "de"
        assert pred[2] == "zh"
        assert pred[3] == "ru"


def test_broadcast_join(ray_session):
    import pyarrow as pa
    import ray

    from parquet_go_ray.ops.join import broadcast_join

    big = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3, 2, 9], pa.int64()), "v": pa.array(list("abcde"))})
    )
    small = pa.table(
        {"k": pa.array([1, 2, 3], pa.int64()), "name": pa.array(["one", "two", "three"])}
    )
    out = broadcast_join(big, small, on="k").to_pandas()
    out = out.sort_values(["k", "v"]).reset_index(drop=True)
    assert out["name"].tolist() == ["one", "two", "two", "three", None]


def test_broadcast_join_rejects_duplicate_small_keys(ray_session):
    import ray

    from parquet_go_ray.ops.join import broadcast_join

    big = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2], pa.int64()), "v": pa.array(["a", "b"])})
    )
    small = pa.table(
        {"k": pa.array([1, 1, 2], pa.int64()), "name": pa.array(["x", "y", "z"])}
    )
    # the index is built on the driver, so the call itself raises
    with pytest.raises(ValueError, match="duplicate keys"):
        broadcast_join(big, small, on="k")


class TestTopK:
    def test_numeric_desc_matches_sort(self, ray_session):
        import ray

        from parquet_go_ray.ops.topk import topk

        rng = np.random.default_rng(11)
        vals = rng.integers(0, 1000, 5000)
        t = pa.table(
            {"id": pa.array(range(5000), pa.int64()), "v": pa.array(vals, pa.int64())}
        )
        ds = ray.data.from_arrow(t).repartition(8)
        got = topk(ds, ["v", "id"], k=10, descending=[True, False]).to_pandas()
        exp = (
            t.to_pandas()
            .sort_values(["v", "id"], ascending=[False, True])
            .head(10)
            .reset_index(drop=True)
        )
        assert got["id"].tolist() == exp["id"].tolist()
        assert got["v"].tolist() == exp["v"].tolist()

    def test_ascending_with_heavy_ties(self, ray_session):
        import ray

        from parquet_go_ray.ops.topk import topk

        # Every v value duplicated many times: tie-handling must keep
        # candidates so the secondary key decides.
        t = pa.table(
            {
                "id": pa.array(range(400), pa.int64()),
                "v": pa.array([i % 5 for i in range(400)], pa.int64()),
            }
        )
        ds = ray.data.from_arrow(t).repartition(6)
        got = topk(ds, ["v", "id"], k=7, descending=False).to_pandas()
        exp = (
            t.to_pandas().sort_values(["v", "id"]).head(7).reset_index(drop=True)
        )
        assert got["id"].tolist() == exp["id"].tolist()

    def test_string_keys(self, ray_session):
        import ray

        from parquet_go_ray.ops.topk import topk

        words = [f"w{i:04d}" for i in range(300)]
        rng = np.random.default_rng(5)
        rng.shuffle(words)
        t = pa.table({"w": pa.array(words)})
        ds = ray.data.from_arrow(t).repartition(4)
        got = topk(ds, ["w"], k=5, descending=True)
        assert got.column("w").to_pylist() == sorted(words, reverse=True)[:5]


class TestIvfIndex:
    def _clustered(self, n_clusters=16, n_per=200, dim=16, seed=7):
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(n_clusters, dim)) * 10
        emb = (
            np.repeat(centers, n_per, axis=0)
            + rng.normal(size=(n_clusters * n_per, dim)) * 0.1
        ).astype(np.float32)
        t = pa.table(
            {
                "vec_id": pa.array(range(len(emb)), pa.int64()),
                "embedding": pa.array(list(emb), pa.list_(pa.float32())),
            }
        )
        return t, emb

    def test_probe_is_pruned_read(self, ray_session, tmp_path):
        """VERDICT r4 item 2 done-bar: a query set touches
        ~n_probe/n_clusters of the corpus — pinned via the index's
        byte/row accounting, not hand-waved."""
        import ray

        from parquet_go_ray.ops.ann import ivf_build

        t, emb = self._clustered()
        ds = ray.data.from_arrow(t).repartition(8)
        idx = ivf_build(
            ds, str(tmp_path / "ivf"), n_clusters=16, sample_rows=512
        )
        # every row landed in exactly one bucket
        assert idx.meta["rows_total"] == len(emb)
        assert sum(b["rows"] for b in idx.meta["buckets"]) == len(emb)
        # queries from two true clusters, n_probe=2 → ≤4 buckets probed
        q = np.vstack((emb[:3], emb[-3:])).astype(np.float64)
        out = idx.query(q, k=5, n_probe=2)
        st = idx.last_probe_stats
        assert st["buckets_probed"] <= 4
        frac = st["buckets_probed"] / st["buckets_total"]
        # rows/bytes touched track the probed-bucket fraction (3x slack
        # for bucket-size variance), and are strictly a minority read
        assert st["rows_read"] <= st["rows_total"] * frac * 3
        assert st["bytes_read"] <= st["bytes_total"] * frac * 3
        assert st["bytes_read"] < st["bytes_total"] * 0.5
        # self-match survives the pruning
        df = out.to_pandas()
        top1 = df[df["rank"] == 1].sort_values("query_id")
        assert top1["vec_id"].tolist() == [
            0, 1, 2, len(emb) - 3, len(emb) - 2, len(emb) - 1,
        ]

    def test_existing_index_is_reused_not_rebuilt(
        self, ray_session, tmp_path, monkeypatch
    ):
        import ray

        import parquet_go_ray.ops.ann as annmod

        t, emb = self._clustered(n_clusters=4, n_per=50)
        ds = ray.data.from_arrow(t)
        path = str(tmp_path / "ivf")
        annmod.ivf_build(ds, path, n_clusters=4, sample_rows=128)

        def boom(*a, **k):
            raise AssertionError("rebuild on an existing index")

        monkeypatch.setattr(annmod, "ivf_build", boom)
        out = annmod.ann_ivf(
            ds, emb[:2].astype(np.float64), k=3, n_clusters=4, n_probe=2,
            index_path=path,
        )
        assert set(
            out.to_pandas().query("rank == 1")["vec_id"]
        ) == {0, 1}
        assert annmod.ann_ivf.last_probe_stats["bytes_read"] <= (
            annmod.ann_ivf.last_probe_stats["bytes_total"]
        )

    def test_sample_is_not_head_biased(self, ray_session):
        """ivf_sample must draw from the whole corpus: with 10 blocks,
        a head sample would contain only ids < 1000; the uniform sample
        must span the id range."""
        import ray

        from parquet_go_ray.ops.ann import ivf_sample

        n = 10_000
        # embed the row id so the sample reveals where it came from
        emb = np.zeros((n, 2), dtype=np.float32)
        emb[:, 0] = np.arange(n)
        t = pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array(list(emb), pa.list_(pa.float32())),
            }
        )
        ds = ray.data.from_arrow(t).repartition(10)
        s = ivf_sample(ds, sample_rows=256, seed=1)
        assert s.shape == (256, 2)
        origins = s[:, 0]
        assert origins.max() > n * 0.8 and origins.min() < n * 0.2
        # deterministic across calls
        s2 = ivf_sample(ds, sample_rows=256, seed=1)
        assert np.array_equal(np.sort(origins), np.sort(s2[:, 0]))


class TestAnnIvfRecall:
    def test_ann_ivf_recall_oracle(self, ray_session):
        """Pinned recall oracle (VERDICT r2 #9): IVF with n_probe=6/16
        buckets keeps recall@10 >= 0.9 against the exact scan on the
        driver-generated embeddings table. Deterministic: fixed input
        file + seeded kmeans centroids."""
        import os

        import __ray_entry__ as em

        sf_dir = "/root/testdata/sf0.001"
        if not os.path.exists(os.path.join(sf_dir, "embeddings.parquet")):
            pytest.skip("testdata missing")
        out = em.queries()["ann_ivf_recall_embeddings"](sf_dir)
        recalls = [r["recall_at_10"] for r in out.to_pylist()]
        assert len(recalls) == 10
        assert sum(recalls) / len(recalls) >= 0.9, recalls


def test_asof_join_broadcast(ray_session):
    """Nearest-earlier semantics: exact hits take that row, probes
    before the first key get nulls, ties at equal timestamps match."""
    import numpy as np

    import ray as _ray

    from parquet_go_ray.ops.join import asof_join_broadcast

    rates = pa.table({
        "ts": pa.array([100, 200, 300], pa.int64()),
        "rate": pa.array([1, 2, 3], pa.int64()),
    })
    big = _ray.data.from_arrow(pa.table({
        "id": pa.array(range(6), pa.int64()),
        "ts": pa.array([50, 100, 150, 250, 300, 999], pa.int64()),
    }))
    out = pa.concat_tables(list(
        asof_join_broadcast(big, rates, on="ts")
        .iter_batches(batch_format="pyarrow")
    )).sort_by("id")
    assert out.column("rate").to_pylist() == [None, 1, 1, 2, 3, 3]


def test_asof_join_null_probe_timestamps(ray_session):
    """Null big-side timestamps must yield null payload — NOT match the
    last small-side row via NaT ordering (ADVICE r3)."""
    import ray

    from parquet_go_ray.ops.join import asof_join_broadcast

    ts = pa.array([10, None, 25, None, 5], pa.int64()).cast(
        pa.timestamp("us")
    )
    big = ray.data.from_arrow(
        pa.table({"id": pa.array(range(5), pa.int64()), "ts": ts})
    )
    small = pa.table({
        "ts": pa.array([8, 20], pa.int64()).cast(pa.timestamp("us")),
        "rate": pa.array([100, 200], pa.int64()),
    })
    out = asof_join_broadcast(big, small, on="ts").to_pandas()
    out = out.sort_values("id").reset_index(drop=True)
    got = [None if __import__("pandas").isna(v) else int(v)
           for v in out["rate"]]
    assert got == [100, None, 200, None, None]


def test_asof_join_by_key(ray_session):
    """Per-key as-of: each probe matches the nearest-earlier row of ITS
    key segment; unknown and null keys yield null payload."""
    import pandas as pd
    import ray

    from parquet_go_ray.ops.join import asof_join_broadcast

    big = ray.data.from_arrow(pa.table({
        "id": pa.array(range(7), pa.int64()),
        "k": pa.array(["a", "b", "a", "zz", None, "b", "a"]),
        "ts": pa.array([5, 5, 30, 10, 10, 50, 1], pa.int64()),
    }))
    small = pa.table({
        "k": pa.array(["a", "a", "b"]),
        "ts": pa.array([3, 20, 40], pa.int64()),
        "rate": pa.array([1, 2, 3], pa.int64()),
    })
    out = asof_join_broadcast(
        big, small, on="ts", by="k"
    ).to_pandas().sort_values("id").reset_index(drop=True)
    got = [None if pd.isna(v) else int(v) for v in out["rate"]]
    #        a@5  b@5   a@30  zz   null  b@50  a@1
    assert got == [1, None, 2, None, None, 3, None]


def test_asof_join_small_side_not_reshipped(ray_session, monkeypatch):
    """The small side's probe must be ``ray.put`` ONCE at plan time and
    reach the tasks as an object-store ref — not captured in each
    task's closure (VERDICT r3 item 6)."""
    import ray

    from parquet_go_ray.ops import _broadcast
    from parquet_go_ray.ops import join as join_mod

    puts = []
    orig_put = ray.put

    def spy_put(x, **kw):
        ref = orig_put(x, **kw)
        # from_arrow also ray.puts its block; count only the probe
        if isinstance(x, join_mod._AsofJoiner):
            puts.append(ref)
        return ref

    monkeypatch.setattr(_broadcast.ray, "put", spy_put)
    big = ray.data.from_arrow(pa.table({
        "ts": pa.array([1, 2], pa.int64()),
    }))
    small = pa.table({
        "ts": pa.array([1], pa.int64()),
        "rate": pa.array([7], pa.int64()),
    })
    out = join_mod.asof_join_broadcast(big, small, on="ts").take_all()
    assert [r["rate"] for r in sorted(out, key=lambda r: r["ts"])] == [7, 7]
    assert len(puts) == 1  # shipped exactly once, as a ref


class TestGroupedTopK:
    def _make(self, n=30_000, groups=400, seed=3):
        rng = np.random.default_rng(seed)
        return pa.table({
            "g": pa.array(rng.integers(0, groups, n)),
            "v": pa.array(rng.normal(size=n)),
            "id": pa.array(np.arange(n)),
        })

    def test_matches_pandas_window(self, ray_session):
        import ray

        from parquet_go_ray.ops.topk import grouped_topk

        t = self._make()
        got = grouped_topk(
            ray.data.from_arrow(t).repartition(8),
            by="g", keys=["v", "id"], k=3, descending=[True, False],
        ).to_pandas()
        exp = (t.to_pandas()
               .sort_values(["v", "id"], ascending=[False, True])
               .groupby("g").head(3))
        key = ["g", "v", "id"]
        assert (got.sort_values(key).reset_index(drop=True)[key]
                .equals(exp.sort_values(key).reset_index(drop=True)[key]))

    def test_small_groups_and_k_larger_than_group(self, ray_session):
        import ray

        from parquet_go_ray.ops.topk import grouped_topk

        t = pa.table({"g": pa.array([1, 1, 2]),
                      "v": pa.array([5.0, 3.0, 9.0]),
                      "id": pa.array([0, 1, 2])})
        got = grouped_topk(
            ray.data.from_arrow(t), by="g", keys=["v", "id"], k=10,
        ).to_pandas()
        assert len(got) == 3  # k > group size keeps everything once

    def test_string_groups(self, ray_session):
        import ray

        from parquet_go_ray.ops.topk import grouped_topk

        rng = np.random.default_rng(5)
        t = pa.table({
            "g": pa.array([f"dom-{i % 37}.com" for i in range(4000)]),
            "v": pa.array(rng.normal(size=4000)),
            "id": pa.array(np.arange(4000)),
        })
        got = grouped_topk(
            ray.data.from_arrow(t).repartition(4),
            by="g", keys=["v", "id"], k=2, descending=[True, False],
        ).to_pandas()
        exp = (t.to_pandas()
               .sort_values(["v", "id"], ascending=[False, True])
               .groupby("g").head(2))
        key = ["g", "v", "id"]
        assert (got.sort_values(key).reset_index(drop=True)[key]
                .equals(exp.sort_values(key).reset_index(drop=True)[key]))

    def test_null_group_keys_raise(self, ray_session):
        import ray

        from parquet_go_ray.ops.topk import grouped_topk

        t = pa.table({"g": pa.array([1, None]), "v": pa.array([1.0, 2.0]),
                      "id": pa.array([0, 1])})
        with pytest.raises(Exception, match="null group keys"):
            grouped_topk(ray.data.from_arrow(t), "g", ["v", "id"], 1
                         ).to_pandas()


class TestRangeJoin:
    def test_overlapping_intervals_match_duckdb(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.join import range_join_broadcast

        rng = np.random.default_rng(7)
        n = 10_000
        mask = rng.random(n) < 0.05
        t = pa.table({
            "id": pa.array(np.arange(n)),
            "v": pa.array(np.where(mask, 0, rng.uniform(0, 100, n)),
                          mask=mask),
        })
        iv = pa.table({
            "lo": pa.array(np.arange(0, 100, 10) - 5.0),
            "hi": pa.array(np.arange(0, 100, 10) + 10.0),
            "bucket": pa.array(np.arange(10)),
        })
        got = range_join_broadcast(
            ray.data.from_arrow(t).repartition(4), iv,
            on="v", lo_col="lo", hi_col="hi",
        ).to_pandas()
        con = duckdb.connect()
        con.register("t", t.to_pandas())
        con.register("r", iv.to_pandas())
        exp = con.sql(
            "SELECT t.id, t.v, r.bucket FROM t JOIN r"
            " ON t.v >= r.lo AND t.v < r.hi"
        ).df()
        key = ["id", "bucket"]
        assert (got.sort_values(key).reset_index(drop=True)[["id", "v", "bucket"]]
                .equals(exp.sort_values(key).reset_index(drop=True)))

    def test_no_matches_yields_schema(self, ray_session):
        import ray

        from parquet_go_ray.ops.join import range_join_broadcast

        t = pa.table({"id": pa.array([1, 2]), "v": pa.array([500.0, 600.0])})
        iv = pa.table({"lo": pa.array([0.0]), "hi": pa.array([1.0]),
                       "bucket": pa.array([0])})
        out = range_join_broadcast(
            ray.data.from_arrow(t), iv, on="v", lo_col="lo", hi_col="hi",
        )
        assert out.count() == 0
        assert out.schema().names == ["id", "v", "bucket"]

    def test_timestamp_intervals(self, ray_session):
        import ray

        from parquet_go_ray.ops.join import range_join_broadcast

        ts = pa.array(
            np.arange(0, 100, 1, dtype="datetime64[us]").astype(
                "datetime64[us]"
            )
        )
        t = pa.table({"ts": ts, "id": pa.array(np.arange(100))})
        iv = pa.table({
            "lo": pa.array(np.array([10, 50], dtype="datetime64[us]")),
            "hi": pa.array(np.array([20, 60], dtype="datetime64[us]")),
            "w": pa.array([0, 1]),
        })
        got = range_join_broadcast(
            ray.data.from_arrow(t), iv, on="ts", lo_col="lo", hi_col="hi",
        ).to_pandas()
        assert len(got) == 20
        assert sorted(got["id"]) == list(range(10, 20)) + list(range(50, 60))


class TestExactQuantiles:
    def _run(self, ray_session, vals, qs, **kw):
        import ray

        from parquet_go_ray.ops.quantiles import exact_quantiles

        t = pa.table({"v": pa.array(vals)})
        return exact_quantiles(
            ray.data.from_arrow(t).repartition(4), "v", qs, **kw
        ).to_pandas()

    def test_matches_numpy_lower_interpolation(self, ray_session):
        rng = np.random.default_rng(0)
        vals = rng.normal(50, 20, 100_000)
        qs = [0.0, 0.1, 0.5, 0.95, 1.0]
        got = self._run(ray_session, vals, qs)
        sv = np.sort(vals)
        exp = [sv[int(np.floor((len(sv) - 1) * q))] for q in qs]
        assert np.array_equal(got["value"].to_numpy(), exp)

    def test_refinement_rounds_engage(self, ray_session):
        # Tiny pull cap forces at least one histogram round; result
        # must stay exact.
        import parquet_go_ray.ops.quantiles as qm

        rng = np.random.default_rng(1)
        vals = rng.uniform(0, 1, 60_000)
        old = qm._PULL_CAP
        qm._PULL_CAP = 500
        try:
            got = self._run(ray_session, vals, [0.5], n_bins=64)
        finally:
            qm._PULL_CAP = old
        sv = np.sort(vals)
        assert got["value"][0] == sv[int(np.floor((len(sv) - 1) * 0.5))]

    def test_heavy_duplicates_width_underflow(self, ray_session):
        import parquet_go_ray.ops.quantiles as qm

        vals = np.repeat([7.0, 7.0, 9.0], 40_000)
        old = qm._PULL_CAP
        qm._PULL_CAP = 100  # duplicates can never fit the cap
        try:
            got = self._run(ray_session, vals, [0.25, 0.9], n_bins=16)
        finally:
            qm._PULL_CAP = old
        assert list(got["value"]) == [7.0, 9.0]

    def test_nulls_nans_and_empty(self, ray_session):
        vals = pa.array([1.0, None, float("nan"), 3.0, 2.0])
        got = self._run(ray_session, vals, [0.0, 0.5, 1.0])
        assert list(got["value"]) == [1.0, 2.0, 3.0]
        empty = self._run(ray_session, pa.array([], pa.float64()), [0.5])
        assert empty["value"].isna().all()

    def test_invalid_q_raises(self, ray_session):
        with pytest.raises(ValueError, match="outside"):
            self._run(ray_session, [1.0], [1.5])


class TestStratifiedSample:
    def _events(self, n=40_000, seed=11):
        rng = np.random.default_rng(seed)
        types = np.array(["click", "view", "rare_a", "rare_b"])
        return pa.table({
            "id": pa.array(np.arange(n)),
            "kind": pa.array(types[rng.choice(
                4, n, p=[0.6, 0.3, 0.05, 0.05]
            )]),
        })

    def test_rates_honored_and_deterministic(self, ray_session):
        import ray

        from parquet_go_ray.ops.sampling import stratified_sample

        t = self._events()
        rates = {"click": 10, "view": 50}
        out1 = stratified_sample(
            ray.data.from_arrow(t).repartition(8), "kind", "id", rates,
            default_rate=100,
        ).to_pandas()
        # identical output under a different partitioning
        out2 = stratified_sample(
            ray.data.from_arrow(t).repartition(3), "kind", "id", rates,
            default_rate=100,
        ).to_pandas()
        key = ["id"]
        assert (out1.sort_values(key).reset_index(drop=True)
                .equals(out2.sort_values(key).reset_index(drop=True)))
        src = t.to_pandas().groupby("kind").size()
        got = out1.groupby("kind").size()
        assert abs(got["click"] / src["click"] - 0.10) < 0.02
        assert abs(got["view"] / src["view"] - 0.50) < 0.03
        assert got["rare_a"] == src["rare_a"]  # default 100% keeps all

    def test_md5_mode_matches_sql_predicate(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.sampling import stratified_sample

        t = self._events(3000)
        out = stratified_sample(
            ray.data.from_arrow(t), "kind", "id",
            {"click": 15}, default_rate=60, hash_mode="md5",
        ).to_pandas()
        con = duckdb.connect()
        con.register("t", t.to_pandas())
        exp = con.sql(
            "SELECT id, kind FROM t WHERE CAST(('0x' ||"
            " substring(md5(CAST(id AS VARCHAR)), 1, 8)) AS UBIGINT)"
            " % 100 < CASE kind WHEN 'click' THEN 15 ELSE 60 END"
        ).df()
        assert (out.sort_values("id").reset_index(drop=True)
                .equals(exp.sort_values("id").reset_index(drop=True)))

    def test_string_ids_and_bad_mode(self, ray_session):
        import ray

        from parquet_go_ray.ops.sampling import stratified_sample

        t = pa.table({"id": pa.array([f"doc-{i}" for i in range(2000)]),
                      "kind": pa.array(["a", "b"] * 1000)})
        out = stratified_sample(
            ray.data.from_arrow(t), "kind", "id", {"a": 30}, 70
        ).to_pandas()
        frac_a = (out["kind"] == "a").sum() / 1000
        assert 0.2 < frac_a < 0.4
        with pytest.raises(Exception, match="hash_mode"):
            stratified_sample(
                ray.data.from_arrow(t), "kind", "id", {}, 50,
                hash_mode="bogus",
            ).to_pandas()

    def test_null_ids_do_not_change_other_rows_coins(self, ray_session):
        """A null id in a batch must not move the other ids' hashes:
        the kept id set is the same whether or not the blocks carry
        null-id rows (the output must not depend on the batching)."""
        import ray

        from parquet_go_ray.ops.sampling import stratified_sample

        def kept(with_nulls: bool) -> list[int]:
            blocks = []
            for b in range(4):
                ids = list(range(b * 100, (b + 1) * 100))
                ids += [None] if with_nulls else []
                blocks.append(pa.table({
                    "id": pa.array(ids, pa.int64()),
                    "kind": pa.array(["k"] * len(ids)),
                }))
            out = stratified_sample(
                ray.data.from_arrow(blocks), "kind", "id", {"k": 50}
            ).to_pandas()
            return sorted(int(i) for i in out["id"].dropna())

        plain = kept(False)
        assert 150 < len(plain) < 250
        assert kept(True) == plain


class TestDocFrequency:
    def test_matches_sql_distinct_count(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.text import doc_frequency

        rng = np.random.default_rng(2)
        vocab = [f"w{i}" for i in range(50)]
        texts = [" ".join(rng.choice(vocab, rng.integers(3, 12)))
                 for _ in range(2000)]
        texts[7] = "a  b c "  # double space + trailing: empty tokens
        t = pa.table({"doc_id": pa.array(np.arange(2000)),
                      "text": pa.array(texts)})
        got = doc_frequency(
            ray.data.from_arrow(t).repartition(4)
        ).to_pandas()
        con = duckdb.connect()
        con.register("d", t.to_pandas())
        exp = con.sql(
            "SELECT token, count(DISTINCT doc_id) AS df FROM (SELECT"
            " doc_id, unnest(string_split(text, ' ')) AS token FROM d)"
            " GROUP BY token"
        ).df()
        key = "token"
        assert (got.sort_values(key).reset_index(drop=True)
                .equals(exp.sort_values(key).reset_index(drop=True)))


class TestHyperLogLog:
    def test_error_band_across_cardinalities(self):
        from parquet_go_ray.functions.bloom import xxh64_fixed
        from parquet_go_ray.ops.sketch import hll_estimate, hll_registers

        for n in (100, 5_000, 200_000):
            reg = hll_registers(
                xxh64_fixed(np.arange(n, dtype=np.int64)), 14
            )
            est = hll_estimate(reg)
            assert abs(est - n) / n < 0.03, (n, est)

    def test_merge_equals_single_shot(self):
        from parquet_go_ray.functions.bloom import xxh64_fixed
        from parquet_go_ray.ops.sketch import hll_registers

        h = xxh64_fixed(np.arange(30_000, dtype=np.int64))
        whole = hll_registers(h, 12)
        parts = np.maximum(
            hll_registers(h[:13_000], 12), hll_registers(h[13_000:], 12)
        )
        assert (whole == parts).all()

    def test_distributed_strings_and_validation(self, ray_session):
        import ray

        from parquet_go_ray.ops.sketch import approx_distinct

        t = pa.table({"s": pa.array([f"u-{i % 2345}" for i in range(80_000)])})
        est = approx_distinct(ray.data.from_arrow(t).repartition(6), "s")
        assert abs(est - 2345) / 2345 < 0.03
        with pytest.raises(ValueError, match="p must be"):
            approx_distinct(ray.data.from_arrow(t), "s", p=25)

    def test_rank_boundaries(self):
        # hashes whose suffix stresses the float-exponent bit-length:
        # all-ones (rounds up to 2^64) and a single low bit.
        from parquet_go_ray.ops.sketch import hll_registers

        p = 4
        h = np.array([(1 << 64) - 1, 1 << (64 - p)], dtype=np.uint64)
        reg = hll_registers(h, p)
        # first: register 15, remaining bits all ones -> rank 1
        assert reg[15] == 1
        # second: register 1, remaining bits zero -> sentinel caps rank
        assert reg[1] == 64 - p + 1


class TestGroupedQuantile:
    def test_matches_pandas_per_group(self, ray_session):
        import ray

        from parquet_go_ray.ops.quantiles import grouped_quantile

        rng = np.random.default_rng(13)
        t = pa.table({
            "g": pa.array(rng.integers(0, 200, 40_000)),
            "v": pa.array(rng.normal(size=40_000)),
        })
        got = grouped_quantile(
            ray.data.from_arrow(t).repartition(8), "g", "v", 0.5
        ).to_pandas().sort_values("g").reset_index(drop=True)
        exp = (t.to_pandas().groupby("g")["v"]
               .quantile(0.5, interpolation="lower")
               .reset_index().rename(columns={"v": "value"}))
        assert np.array_equal(got["g"].to_numpy(), exp["g"].to_numpy())
        assert np.array_equal(got["value"].to_numpy(),
                              exp["value"].to_numpy())

    def test_nulls_nans_drop_and_string_groups(self, ray_session):
        import ray

        from parquet_go_ray.ops.quantiles import grouped_quantile

        t = pa.table({
            "g": pa.array(["a", "a", "a", "b", "b", "c"]),
            "v": pa.array([3.0, None, 1.0, float("nan"), 5.0, None]),
        })
        got = grouped_quantile(
            ray.data.from_arrow(t), "g", "v", 0.5
        ).to_pandas().sort_values("g").reset_index(drop=True)
        # a: {1,3} -> lower median 1; b: {5}; c: all null -> vanishes
        assert list(got["g"]) == ["a", "b"]
        assert list(got["value"]) == [1.0, 5.0]


class TestShuffleJoin:
    def test_m_to_n_matches_duckdb(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.join import shuffle_join

        rng = np.random.default_rng(17)
        lt = pa.table({
            "k": pa.array(rng.integers(0, 300, 5000)),
            "lv": pa.array(np.arange(5000)),
        })
        rt = pa.table({
            "rk": pa.array(rng.integers(100, 400, 2000)),  # partial overlap
            "rv": pa.array([f"r{i}" for i in range(2000)]),
        })
        got = shuffle_join(
            ray.data.from_arrow(lt).repartition(6),
            ray.data.from_arrow(rt).repartition(3),
            on="k", right_on="rk",
        ).to_pandas()
        con = duckdb.connect()
        con.register("l", lt.to_pandas())
        con.register("r", rt.to_pandas())
        exp = con.sql(
            "SELECT k, lv, rv FROM l JOIN r ON l.k = r.rk"
        ).df()
        key = ["k", "lv", "rv"]
        assert (got.sort_values(key).reset_index(drop=True)[key]
                .equals(exp.sort_values(key).reset_index(drop=True)[key]))

    def test_null_keys_drop_and_clash_raises(self, ray_session):
        import ray

        from parquet_go_ray.ops.join import shuffle_join

        lt = pa.table({"k": pa.array([1, None, 2]), "a": pa.array([1, 2, 3])})
        rt = pa.table({"k2": pa.array([None, 2]), "b": pa.array([9, 8])})
        got = shuffle_join(
            ray.data.from_arrow(lt), ray.data.from_arrow(rt),
            on="k", right_on="k2",
        ).to_pandas()
        assert got.to_dict("records") == [{"k": 2, "a": 3, "b": 8}]
        rt2 = pa.table({"k2": pa.array([1]), "a": pa.array([7])})
        with pytest.raises(ValueError, match="collision"):
            shuffle_join(ray.data.from_arrow(lt),
                         ray.data.from_arrow(rt2), on="k", right_on="k2")

    def test_string_keys(self, ray_session):
        import ray

        from parquet_go_ray.ops.join import shuffle_join

        lt = pa.table({"k": pa.array(["a", "b", "b", "z"]),
                       "x": pa.array([1, 2, 3, 4])})
        rt = pa.table({"k2": pa.array(["b", "a"]),
                       "y": pa.array([10, 20])})
        got = shuffle_join(
            ray.data.from_arrow(lt), ray.data.from_arrow(rt),
            on="k", right_on="k2",
        ).to_pandas().sort_values(["k", "x"]).reset_index(drop=True)
        assert got["y"].tolist() == [20, 10, 10]


class TestShuffleJoinOuter:
    """LEFT / RIGHT / FULL OUTER shuffle join vs DuckDB: M:N
    multiplicities, unmatched keys on both sides, and null join keys
    (which SQL keeps on outer sides but never matches)."""

    def _tables(self, n_l=4000, n_r=1500, seed=23):
        rng = np.random.default_rng(seed)
        lt = pa.table({
            "k": pa.array(
                [None if i % 97 == 0 else int(x)
                 for i, x in enumerate(rng.integers(0, 300, n_l))],
                pa.int64(),
            ),
            "lv": pa.array(np.arange(n_l), pa.int64()),
        })
        rt = pa.table({
            "rk": pa.array(
                [None if i % 53 == 0 else int(x)
                 for i, x in enumerate(rng.integers(150, 450, n_r))],
                pa.int64(),
            ),
            "rv": pa.array([f"r{i}" for i in range(n_r)]),
        })
        return lt, rt

    @pytest.mark.parametrize("how,sql", [
        ("left", "LEFT JOIN"),
        ("right", "RIGHT JOIN"),
        ("full", "FULL JOIN"),
        ("inner", "JOIN"),
    ])
    def test_matches_duckdb(self, ray_session, how, sql):
        import duckdb
        import ray

        from parquet_go_ray.ops.join import shuffle_join

        lt, rt = self._tables()
        got = shuffle_join(
            ray.data.from_arrow(lt).repartition(5),
            ray.data.from_arrow(rt).repartition(3),
            on="k", right_on="rk", how=how,
        ).to_pandas()
        con = duckdb.connect()
        con.register("l", lt.to_pandas())
        con.register("r", rt.to_pandas())
        exp = con.sql(
            f"SELECT coalesce(l.k, r.rk) AS k, lv, rv"
            f" FROM l {sql} r ON l.k = r.rk"
        ).df()
        # null keys on an outer side surface with k = the side's key:
        # our envelope carries the right key in the k slot, same as
        # the coalesce above; null-key rows keep k NULL on both paths
        key = ["k", "lv", "rv"]
        g = got.sort_values(key).reset_index(drop=True)[key]
        x = exp.sort_values(key).reset_index(drop=True)[key]
        assert len(g) == len(x), how
        for c in key:
            assert g[c].fillna(-1 if c != "rv" else "<N>").tolist() \
                == x[c].fillna(-1 if c != "rv" else "<N>").tolist(), \
                (how, c)

    def test_rejects_unknown_how(self, ray_session):
        import ray

        from parquet_go_ray.ops.join import shuffle_join

        lt, rt = self._tables(10, 10)
        with pytest.raises(ValueError, match="how must be"):
            shuffle_join(ray.data.from_arrow(lt),
                         ray.data.from_arrow(rt),
                         on="k", right_on="rk", how="outer")


class TestRepetitionStats:
    def test_matches_sql_and_known_values(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.text import repetition_stats

        t = pa.table({
            "doc_id": pa.array([0, 1, 2, 3]),
            "text": pa.array([
                "spam spam spam spam ham",   # top_frac 4/5
                "all tokens here distinct",  # 1/4
                "x",                         # single token
                None,                        # drops
            ]),
        })
        got = repetition_stats(
            ray.data.from_arrow(t)
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert got["doc_id"].tolist() == [0, 1, 2]
        assert got["n_tokens"].tolist() == [5, 4, 1]
        assert got["n_distinct"].tolist() == [2, 4, 1]
        assert got["top_token_frac"].tolist() == [0.8, 0.25, 1.0]
        con = duckdb.connect()
        con.register("d", t.to_pandas())
        exp = con.sql(
            "WITH tok AS (SELECT doc_id, unnest(string_split(text, ' '))"
            " AS token FROM d), cnt AS (SELECT doc_id, token, count(*)"
            " AS c FROM tok GROUP BY doc_id, token) SELECT doc_id,"
            " CAST(sum(c) AS BIGINT) AS n_tokens, CAST(count(*) AS"
            " BIGINT) AS n_distinct, CAST(max(c) AS DOUBLE) /"
            " CAST(sum(c) AS DOUBLE) AS top_token_frac FROM cnt"
            " GROUP BY doc_id"
        ).df().sort_values("doc_id").reset_index(drop=True)
        assert got.equals(exp)

    def test_random_corpus_matches_sql(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.text import repetition_stats

        rng = np.random.default_rng(23)
        vocab = [f"w{i}" for i in range(30)]
        texts = [" ".join(rng.choice(vocab, rng.integers(1, 40)))
                 for _ in range(1500)]
        t = pa.table({"doc_id": pa.array(np.arange(1500)),
                      "text": pa.array(texts)})
        got = repetition_stats(
            ray.data.from_arrow(t).repartition(5)
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("d", t.to_pandas())
        exp = con.sql(
            "WITH tok AS (SELECT doc_id, unnest(string_split(text, ' '))"
            " AS token FROM d), cnt AS (SELECT doc_id, token, count(*)"
            " AS c FROM tok GROUP BY doc_id, token) SELECT doc_id,"
            " CAST(sum(c) AS BIGINT) AS n_tokens, CAST(count(*) AS"
            " BIGINT) AS n_distinct, CAST(max(c) AS DOUBLE) /"
            " CAST(sum(c) AS DOUBLE) AS top_token_frac FROM cnt"
            " GROUP BY doc_id"
        ).df().sort_values("doc_id").reset_index(drop=True)
        assert got.equals(exp)


class TestTfIdf:
    def test_matches_sql_window(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.text import tfidf_topk

        rng = np.random.default_rng(31)
        vocab = [f"w{i}" for i in range(40)]
        texts = [" ".join(rng.choice(vocab, rng.integers(2, 25)))
                 for _ in range(1200)]
        t = pa.table({"doc_id": pa.array(np.arange(1200)),
                      "text": pa.array(texts)})
        got = tfidf_topk(
            ray.data.from_arrow(t).repartition(5), k=2
        ).to_pandas()
        con = duckdb.connect()
        con.register("documents", t.to_pandas())
        exp = con.sql(
            "WITH tok AS (SELECT doc_id, unnest(string_split(text, ' '))"
            " AS token FROM documents), tf AS (SELECT doc_id, token,"
            " count(*) AS c FROM tok GROUP BY doc_id, token), df AS"
            " (SELECT token, count(DISTINCT doc_id) AS df FROM tok GROUP"
            " BY token), s AS (SELECT tf.doc_id, tf.token, CAST(tf.c AS"
            " DOUBLE) / CAST(df.df AS DOUBLE) AS score FROM tf JOIN df"
            " USING (token)) SELECT doc_id, token, score FROM (SELECT"
            " doc_id, token, score, row_number() OVER (PARTITION BY"
            " doc_id ORDER BY score DESC, token) AS rn FROM s)"
            " WHERE rn <= 2"
        ).df()
        key = ["doc_id", "token"]
        assert (got.sort_values(key).reset_index(drop=True)[
                    ["doc_id", "token", "score"]]
                .equals(exp.sort_values(key).reset_index(drop=True)))

    def test_rare_term_outranks_common(self, ray_session):
        import ray

        from parquet_go_ray.ops.text import tfidf_topk

        t = pa.table({
            "doc_id": pa.array([0, 1, 2]),
            "text": pa.array([
                "common common unique",   # unique: df 1 -> top term
                "common filler filler",
                "common filler other",
            ]),
        })
        got = tfidf_topk(ray.data.from_arrow(t), k=1).to_pandas()
        d0 = got[got["doc_id"] == 0]
        assert d0["token"].tolist() == ["unique"]


def test_shuffle_join_mixed_key_widths(ray_session):
    """An int32 right key joining an int64 left key must widen BEFORE
    bucket hashing (xxh64 covers the value's bytes) — otherwise equal
    values land in different buckets and silently never match."""
    import ray

    from parquet_go_ray.ops.join import shuffle_join

    lt = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                   "a": pa.array([10, 20, 30])})
    rt = pa.table({"k2": pa.array(np.array([2, 3], np.int32)),
                   "b": pa.array(["x", "y"])})
    got = shuffle_join(
        ray.data.from_arrow(lt), ray.data.from_arrow(rt),
        on="k", right_on="k2",
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert got.to_dict("records") == [
        {"k": 2, "a": 20, "b": "x"}, {"k": 3, "a": 30, "b": "y"},
    ]


def test_stratified_sample_null_keys_take_default(ray_session):
    import ray

    from parquet_go_ray.ops.sampling import stratified_sample

    t = pa.table({
        "id": pa.array(range(1000)),
        "kind": pa.array([None if i % 3 == 0 else "a" for i in range(1000)]),
    })
    out = stratified_sample(
        ray.data.from_arrow(t), "kind", "id", {"a": 0}, default_rate=100
    ).to_pandas()
    assert out["kind"].isna().all()  # rate-0 'a' all dropped
    assert len(out) == 334           # every null-key row kept (rate 100)


class TestSemiAntiJoin:
    def test_semi_anti_partition_and_nulls(self, ray_session):
        import ray

        from parquet_go_ray.ops.join import broadcast_semi_join

        t = pa.table({
            "k": pa.array([1, 2, None, 3, 2]),
            "v": pa.array(list("abcde")),
        })
        ds = ray.data.from_arrow(t)
        semi = broadcast_semi_join(
            ds, np.array([2, 3, 9]), on="k"
        ).to_pandas()
        anti = broadcast_semi_join(
            ds, np.array([2, 3, 9]), on="k", anti=True
        ).to_pandas()
        assert sorted(semi["v"]) == ["b", "d", "e"]
        # NOT EXISTS keeps the null-key row
        assert sorted(anti["v"]) == ["a", "c"]
        # semi + anti partition the input exactly
        assert len(semi) + len(anti) == t.num_rows

    def test_empty_and_arrow_key_inputs(self, ray_session):
        import ray

        from parquet_go_ray.ops.join import broadcast_semi_join

        t = pa.table({"k": pa.array([1, 2]), "v": pa.array(["a", "b"])})
        ds = ray.data.from_arrow(t)
        none = broadcast_semi_join(ds, np.array([], np.int64), on="k")
        assert none.count() == 0
        keys = pa.table({"k": pa.array([2, 2, None])})  # dedup + null drop
        semi = broadcast_semi_join(ds, keys, on="k").to_pandas()
        assert semi["v"].tolist() == ["b"]


class TestRollingMax:
    def test_matches_duckdb_window_frame(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.window import rolling_max

        rng = np.random.default_rng(41)
        n = 12_000
        mask = rng.random(n) < 0.08
        t = pa.table({
            "u": pa.array(rng.integers(0, 150, n)),
            "ts": pa.array(rng.integers(0, 10**5, n)),
            "eid": pa.array(np.arange(n)),
            "v": pa.array(np.where(mask, 0, rng.normal(size=n)),
                          mask=mask),
        })
        got = rolling_max(
            ray.data.from_arrow(t).repartition(5),
            "u", ["ts", "eid"], "v", window=4,
        ).to_pandas()
        con = duckdb.connect()
        con.register("t", t.to_pandas())
        exp = con.sql(
            "SELECT u, ts, eid, v, MAX(v) OVER (PARTITION BY u ORDER BY"
            " ts, eid ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS"
            " rolling_max FROM t"
        ).df()
        key = ["u", "ts", "eid"]
        assert (got.sort_values(key).reset_index(drop=True)[
                    exp.columns.tolist()]
                .equals(exp.sort_values(key).reset_index(drop=True)))

    def test_window_one_and_null_frames(self, ray_session):
        import ray

        from parquet_go_ray.ops.window import rolling_max

        t = pa.table({
            "u": pa.array([1, 1, 1]),
            "ts": pa.array([1, 2, 3]),
            "eid": pa.array([0, 1, 2]),
            "v": pa.array([None, None, 5.0]),
        })
        got = rolling_max(
            ray.data.from_arrow(t), "u", ["ts", "eid"], "v", window=1
        ).to_pandas().sort_values("ts")
        # window=1: rolling max == the value itself (nulls stay null)
        assert got["rolling_max"].tolist()[2] == 5.0
        assert np.isnan(got["rolling_max"].tolist()[0])
        with pytest.raises(ValueError, match="window"):
            rolling_max(ray.data.from_arrow(t), "u", ["ts"], "v", 0)


class TestApproxTopkFrequent:
    def _zipf_table(self, n=60_000, seed=9):
        rng = np.random.default_rng(seed)
        ids = (rng.zipf(1.35, size=n) % 500).astype(np.int64)
        vals = pa.array([f"url-{i:04d}" for i in ids])
        return pa.table({"u": vals}), ids

    def test_matches_exact_topk_on_skewed_data(self, ray_session):
        from collections import Counter

        import ray

        from parquet_go_ray.ops.sketch import approx_topk_frequent

        t, ids = self._zipf_table()
        exact = Counter(f"url-{i:04d}" for i in ids)
        ds = ray.data.from_arrow(t).repartition(8)
        out = approx_topk_frequent(ds, "u", k=10).to_pylist()
        true_top = [v for v, _ in exact.most_common(10)]
        got = [r["value"] for r in out]
        # CMS never undercounts and the heavy head is far above the
        # overcount bound (e/width * N ≈ 20 at defaults), so the heavy
        # head matches exactly
        assert got[:5] == true_top[:5]
        assert set(got) == set(true_top)
        for r in out:
            true = exact[r["value"]]
            assert true <= r["est_count"] <= true + 40, r

    def test_deterministic_across_runs(self, ray_session):
        import ray

        from parquet_go_ray.ops.sketch import approx_topk_frequent

        t, _ = self._zipf_table(n=20_000, seed=2)
        ds = ray.data.from_arrow(t).repartition(5)
        a = approx_topk_frequent(ds, "u", k=8).to_pylist()
        b = approx_topk_frequent(ds, "u", k=8).to_pylist()
        assert a == b

    def test_int_column_and_nulls(self, ray_session):
        import ray

        from parquet_go_ray.ops.sketch import approx_topk_frequent

        vals = [7] * 50 + [3] * 30 + [11] * 5 + [None] * 10
        t = pa.table({"x": pa.array(vals, pa.int64())})
        out = approx_topk_frequent(
            ray.data.from_arrow(t).repartition(3), "x", k=2
        ).to_pylist()
        assert [r["value"] for r in out] == [7, 3]
        assert out[0]["est_count"] >= 50 and out[1]["est_count"] >= 30


class TestRollingAgg:
    """rolling_agg vs DuckDB's window engine, value-for-value, on a
    keyed table with nulls and ties (r5: sum/mean/count join max)."""

    def _table(self, n=4000, seed=13):
        rng = np.random.default_rng(seed)
        return pa.table({
            "k": pa.array(rng.integers(0, 40, n), pa.int64()),
            "ts": pa.array(np.arange(n), pa.int64()),
            "v": pa.array(
                [None if i % 11 == 0 else int(x)
                 for i, x in enumerate(rng.integers(-50, 1000, n))],
                pa.int64(),
            ),
        })

    @pytest.mark.parametrize("agg,sql", [
        ("sum", "SUM(v)"),
        ("count", "COUNT(v)"),
        ("mean", "AVG(v)"),
        ("min", "MIN(v)"),
    ])
    def test_matches_duckdb_window(self, ray_session, agg, sql):
        import duckdb
        import ray

        from parquet_go_ray.ops.window import rolling_agg

        t = self._table()
        w = 7
        got = (
            rolling_agg(
                ray.data.from_arrow(t).repartition(5),
                by="k", order_cols=["ts"], val_col="v", window=w, agg=agg,
            )
            .to_pandas()
            .sort_values(["k", "ts"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", t)
        exp = con.sql(
            f"""SELECT k, ts, v, {sql} OVER (
                    PARTITION BY k ORDER BY ts
                    ROWS BETWEEN {w - 1} PRECEDING AND CURRENT ROW
                ) AS r FROM t ORDER BY k, ts"""
        ).df()
        assert got["k"].tolist() == exp["k"].tolist()
        g = got[f"rolling_{agg}"]
        if agg == "mean":
            import pandas as pd

            pd.testing.assert_series_equal(
                g, exp["r"], check_names=False, check_dtype=False
            )
        else:
            assert g.fillna(-10**9).tolist() == (
                exp["r"].fillna(-10**9).tolist()
            ), agg

    def test_sum_refuses_floats(self, ray_session):
        import ray

        from parquet_go_ray.ops.window import rolling_agg

        t = pa.table({
            "k": pa.array([1, 1], pa.int64()),
            "ts": pa.array([1, 2], pa.int64()),
            "v": pa.array([1.5, 2.5], pa.float64()),
        })
        out = rolling_agg(
            ray.data.from_arrow(t), by="k", order_cols=["ts"],
            val_col="v", window=2, agg="sum",
        )
        with pytest.raises(Exception, match="exact-int only"):
            out.take_all()


class TestShiftByKey:
    @pytest.mark.parametrize("periods,fn", [(1, "LAG(v, 1)"),
                                            (3, "LAG(v, 3)"),
                                            (-2, "LEAD(v, 2)")])
    def test_matches_duckdb_lag_lead(self, ray_session, periods, fn):
        import duckdb
        import ray

        from parquet_go_ray.ops.window import shift_by_key

        rng = np.random.default_rng(21)
        n = 3000
        t = pa.table({
            "k": pa.array(rng.integers(0, 25, n), pa.int64()),
            "ts": pa.array(np.arange(n), pa.int64()),
            "v": pa.array(
                [None if i % 13 == 0 else f"s{int(x)}"
                 for i, x in enumerate(rng.integers(0, 500, n))],
            ),
        })
        out = shift_by_key(
            ray.data.from_arrow(t).repartition(4),
            by="k", order_cols=["ts"], val_col="v", periods=periods,
            out_col="r",
        ).to_pandas().sort_values(["k", "ts"]).reset_index(drop=True)
        # type preserved end to end
        con = duckdb.connect()
        con.register("t", t)
        exp = con.sql(
            f"""SELECT k, ts, v, {fn} OVER (
                    PARTITION BY k ORDER BY ts) AS r
                FROM t ORDER BY k, ts"""
        ).df()
        assert out["r"].fillna("§").tolist() == (
            exp["r"].fillna("§").tolist()
        )

    def test_rejects_zero_periods(self, ray_session):
        import ray

        from parquet_go_ray.ops.window import shift_by_key

        t = pa.table({"k": [1], "ts": [1], "v": [1]})
        with pytest.raises(ValueError, match="nonzero"):
            shift_by_key(ray.data.from_arrow(t), "k", ["ts"], "v", 0)


def test_expanding_frame_matches_duckdb(ray_session):
    """window=None = running totals per key (UNBOUNDED PRECEDING)."""
    import duckdb
    import ray

    from parquet_go_ray.ops.window import rolling_agg

    rng = np.random.default_rng(31)
    n = 2000
    t = pa.table({
        "k": pa.array(rng.integers(0, 12, n), pa.int64()),
        "ts": pa.array(np.arange(n), pa.int64()),
        "v": pa.array(
            [None if i % 9 == 0 else int(x)
             for i, x in enumerate(rng.integers(0, 100, n))],
            pa.int64(),
        ),
    })
    got = rolling_agg(
        ray.data.from_arrow(t).repartition(4), by="k", order_cols=["ts"],
        val_col="v", window=None, agg="sum",
    ).to_pandas().sort_values(["k", "ts"]).reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", t)
    exp = con.sql(
        """SELECT k, ts, v, SUM(v) OVER (
               PARTITION BY k ORDER BY ts
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS r
           FROM t ORDER BY k, ts"""
    ).df()
    assert got["rolling_sum"].fillna(-1).tolist() == (
        exp["r"].fillna(-1).tolist()
    )
    import pytest as _pytest

    with _pytest.raises(ValueError, match="expanding max"):
        rolling_agg(ray.data.from_arrow(t), "k", ["ts"], "v", None, "max")


class TestWindowMulti:
    """window_multi vs DuckDB's window engine: every function family
    resolved in ONE shuffle + one lexsort per bucket, value-for-value.
    The tie-heavy order column exercises RANK vs DENSE_RANK vs
    ROW_NUMBER divergence; uneven partition sizes exercise NTILE's
    first-(cnt%n)-tiles-get-one-extra rule."""

    def _table(self, n=3000, seed=29):
        rng = np.random.default_rng(seed)
        return pa.table({
            "k": pa.array(rng.integers(0, 23, n), pa.int64()),
            # coarse order key -> many ties within a partition
            "o": pa.array(rng.integers(0, 50, n), pa.int64()),
            # unique tiebreak for the total-order functions
            "i": pa.array(np.arange(n), pa.int64()),
            "v": pa.array(
                [None if i % 13 == 0 else int(x)
                 for i, x in enumerate(rng.integers(-9, 900, n))],
                pa.int64(),
            ),
            "s": pa.array([f"s{i % 17}" for i in range(n)]),
        })

    def test_all_kinds_match_duckdb(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.window import WindowSpec, window_multi

        t = self._table()
        specs = [
            WindowSpec("max", val_col="v", window=5, out_col="rmax"),
            WindowSpec("sum", val_col="v", window=5, out_col="rsum"),
            WindowSpec("count", val_col="s", window=5, out_col="rcnt"),
            WindowSpec("lag", val_col="v", periods=2, out_col="lag2"),
            WindowSpec("lead", val_col="s", periods=1, out_col="lead1"),
            WindowSpec("row_number", out_col="rn"),
            WindowSpec("ntile", n=4, out_col="nt"),
            WindowSpec("first_value", val_col="s", out_col="fv"),
        ]
        got = (
            window_multi(
                ray.data.from_arrow(t).repartition(4),
                by="k", order_cols=["o", "i"], specs=specs,
            )
            .to_pandas()
            .sort_values(["k", "o", "i"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", t)
        exp = con.sql(
            """SELECT k, o, i, v, s,
                 MAX(v) OVER w5 AS rmax,
                 SUM(v) OVER w5 AS rsum,
                 COUNT(s) OVER w5 AS rcnt,
                 LAG(v, 2) OVER w AS lag2,
                 LEAD(s, 1) OVER w AS lead1,
                 ROW_NUMBER() OVER w AS rn,
                 NTILE(4) OVER w AS nt,
                 FIRST_VALUE(s) OVER w AS fv
               FROM t
               WINDOW w AS (PARTITION BY k ORDER BY o, i),
                 w5 AS (PARTITION BY k ORDER BY o, i
                        ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
               ORDER BY k, o, i"""
        ).df()
        assert got["k"].tolist() == exp["k"].tolist()
        for c in ("rmax", "rsum", "rcnt", "lag2", "rn", "nt"):
            assert got[c].fillna(-10**9).tolist() == (
                exp[c].fillna(-10**9).tolist()
            ), c
        for c in ("lead1", "fv"):
            assert got[c].fillna("<N>").tolist() == (
                exp[c].fillna("<N>").tolist()
            ), c
        # shifted/first_value string columns stayed Arrow strings
        assert got["lead1"].dtype == object and got["fv"].dtype == object

    def test_rank_dense_rank_with_ties(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.window import WindowSpec, window_multi

        t = self._table(n=2000, seed=7)
        got = (
            window_multi(
                ray.data.from_arrow(t).repartition(3),
                by="k", order_cols=["o"],  # ties on purpose
                specs=[
                    WindowSpec("rank", out_col="r"),
                    WindowSpec("dense_rank", out_col="dr"),
                ],
            )
            .to_pandas()
            .sort_values(["k", "o"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", t)
        exp = con.sql(
            """SELECT k, o,
                 RANK() OVER w AS r, DENSE_RANK() OVER w AS dr
               FROM t WINDOW w AS (PARTITION BY k ORDER BY o)
               ORDER BY k, o"""
        ).df()
        assert got["r"].tolist() == exp["r"].tolist()
        assert got["dr"].tolist() == exp["dr"].tolist()

    def test_one_shuffle_for_all_specs(self, ray_session):
        """The whole spec list compiles to exactly one groupby
        all-to-all (the point of the operator)."""
        import ray

        from parquet_go_ray.ops.window import WindowSpec, window_multi

        t = self._table(n=500)
        out = window_multi(
            ray.data.from_arrow(t), by="k", order_cols=["o", "i"],
            specs=[
                WindowSpec("max", val_col="v", window=3),
                WindowSpec("row_number"),
                WindowSpec("lag", val_col="v"),
            ],
        )
        plan = repr(out)
        assert plan.count("Aggregate") + plan.count("Sort") <= 1

    def test_spec_validation(self, ray_session):
        import ray

        from parquet_go_ray.ops.window import WindowSpec, window_multi

        t = self._table(n=10)
        ds = ray.data.from_arrow(t)
        with pytest.raises(ValueError, match="kind must be"):
            window_multi(ds, "k", ["i"], [WindowSpec("median")])
        with pytest.raises(ValueError, match="needs val_col"):
            window_multi(ds, "k", ["i"], [WindowSpec("sum")])
        with pytest.raises(ValueError, match="ntile needs n"):
            window_multi(ds, "k", ["i"], [WindowSpec("ntile")])
        with pytest.raises(ValueError, match="duplicate out_col"):
            window_multi(ds, "k", ["i"], [
                WindowSpec("row_number", out_col="x"),
                WindowSpec("rank", out_col="x"),
            ])
        with pytest.raises(ValueError, match="non-empty"):
            window_multi(ds, "k", ["i"], [])


class TestRedactPii:
    DOCS = [
        "contact me at john.doe+spam@example.co.uk or call +1 (555) 123-4567 now",
        "server 192.168.10.255 responded; card 4111111111111111 declined",
        "no pii here at all, just words and 42 small numbers",
        "",
        None,
        "double email a@b.io c@d.org and ip 8.8.8.8",
    ]

    def test_matches_duckdb_regexp_replace(self, ray_session):
        """Same RE2 patterns replayed by DuckDB's regexp_replace(...,
        'g') produce the identical redacted text."""
        import duckdb
        import ray

        from parquet_go_ray.ops.text import PII_PATTERNS, redact_pii

        t = pa.table({
            "doc_id": pa.array(range(len(self.DOCS)), pa.int64()),
            "text": pa.array(self.DOCS),
        })
        got = (
            redact_pii(ray.data.from_arrow(t))
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", t)
        expr = "coalesce(text, '')"
        for kind in PII_PATTERNS:
            pat, tag = PII_PATTERNS[kind]
            expr = f"regexp_replace({expr}, '{pat}', '{tag}', 'g')"
        exp = con.sql(
            f"SELECT doc_id, {expr} AS text FROM t ORDER BY doc_id"
        ).df()
        assert got["text"].tolist() == exp["text"].tolist()
        # the tags actually landed and counts are exact
        assert "<EMAIL>" in got["text"][0] and "<PHONE>" in got["text"][0]
        assert "<IP>" in got["text"][1] and "<NUM>" in got["text"][1]
        assert got["n_redactions"].tolist() == [2, 2, 0, 0, 0, 3]

    def test_subset_kinds_and_out_col(self, ray_session):
        import ray

        from parquet_go_ray.ops.text import redact_pii

        t = pa.table({"text": pa.array(["mail x@y.zz ip 1.2.3.4"])})
        out = redact_pii(
            ray.data.from_arrow(t), kinds=("email",), out_col="clean"
        ).take_all()[0]
        assert out["text"] == "mail x@y.zz ip 1.2.3.4"  #原 column untouched
        assert out["clean"] == "mail <EMAIL> ip 1.2.3.4"
        with pytest.raises(ValueError, match="unknown PII kinds"):
            redact_pii(ray.data.from_arrow(t), kinds=("ssn",))


class TestBottomKSample:
    def test_exact_partitioning_invariant_and_uniform(self, ray_session):
        import ray

        from parquet_go_ray.ops.sampling import bottom_k_sample
        from parquet_go_ray.ops.text import _mix64

        n = 30_000
        t = pa.table({
            "event_id": pa.array(np.arange(n), pa.int64()),
            "value": pa.array(np.arange(n) * 3.5),
        })
        s1 = bottom_k_sample(
            ray.data.from_arrow(t).repartition(3), ["value"], "event_id",
            512, seed=4,
        )
        s2 = bottom_k_sample(
            ray.data.from_arrow(t).repartition(11), ["value"], "event_id",
            512, seed=4,
        )
        a = sorted(s1.column("event_id").to_pylist())
        assert a == sorted(s2.column("event_id").to_pylist())
        assert len(a) == 512
        # exactness: equals the k globally-smallest priorities
        sd = np.uint64((4 * 0x9E3779B97F4A7C15 + 1) & ((1 << 64) - 1))
        pri = _mix64(np.arange(n, dtype=np.int64).view(np.uint64) ^ sd)
        expect = sorted(np.argsort(pri)[:512].tolist())
        assert a == expect
        # uniformity: spans the id range
        assert a[0] < n * 0.05 and a[-1] > n * 0.95

    def test_approx_quantiles_error_band(self, ray_session):
        import ray

        from parquet_go_ray.ops.quantiles import exact_quantiles
        from parquet_go_ray.ops.sampling import approx_quantiles_sampled

        rng = np.random.default_rng(6)
        n = 50_000
        vals = rng.lognormal(3.0, 1.0, n)
        t = pa.table({
            "event_id": pa.array(np.arange(n), pa.int64()),
            "value": pa.array(vals),
        })
        ds = ray.data.from_arrow(t).repartition(6)
        qs = [0.1, 0.5, 0.9, 0.99]
        approx = approx_quantiles_sampled(
            ds, "value", qs, "event_id", sample_rows=4096
        ).to_pylist()
        srt = np.sort(vals)
        for row in approx:
            # rank error bound: ~3 sigma of sqrt(q(1-q)/k)
            rank = np.searchsorted(srt, row["value"]) / n
            q = row["q"]
            tol = 3 * np.sqrt(max(q * (1 - q), 1e-4) / 4096) + 1e-3
            assert abs(rank - q) <= tol, (q, rank, tol)
        # deterministic
        again = approx_quantiles_sampled(
            ds, "value", qs, "event_id", sample_rows=4096
        ).to_pylist()
        assert again == approx


class TestGroupedCollect:
    """grouped_collect vs DuckDB string_agg(... ORDER BY), incl. null
    values (dropped from the collection) and list output."""

    def _table(self, n=3000, seed=31):
        rng = np.random.default_rng(seed)
        return pa.table({
            "k": pa.array(rng.integers(0, 50, n), pa.int64()),
            "o": pa.array(rng.permutation(n), pa.int64()),
            "v": pa.array(
                [None if i % 17 == 0 else f"v{int(x)}"
                 for i, x in enumerate(rng.integers(0, 30, n))],
            ),
        })

    def test_string_agg_matches_duckdb(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.agg import grouped_collect

        t = self._table()
        got = (
            grouped_collect(
                ray.data.from_arrow(t).repartition(5),
                by="k", order_cols=["o"], val_col="v", sep=",",
            )
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", t)
        exp = con.sql(
            "SELECT k, coalesce(string_agg(v, ',' ORDER BY o), '')"
            " AS collected FROM t GROUP BY k ORDER BY k"
        ).df()
        assert got["k"].tolist() == exp["k"].tolist()
        assert got["collected"].tolist() == exp["collected"].tolist()

    def test_list_output_ordered(self, ray_session):
        import ray

        from parquet_go_ray.ops.agg import grouped_collect

        t = pa.table({
            "k": pa.array([2, 1, 2, 1, 2], pa.int64()),
            "o": pa.array([1, 2, 0, 1, 2], pa.int64()),
            "v": pa.array([10, 20, 30, None, 50], pa.int64()),
        })
        got = (
            grouped_collect(ray.data.from_arrow(t), "k", ["o"], "v")
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        assert [list(x) for x in got["collected"]] == [[20], [30, 10, 50]]


class TestGroupedMode:
    def test_matches_duckdb_with_ties(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.agg import grouped_mode

        rng = np.random.default_rng(41)
        n = 5000
        t = pa.table({
            "k": pa.array(rng.integers(0, 60, n), pa.int64()),
            "v": pa.array(
                [None if i % 23 == 0 else f"c{int(x)}"
                 for i, x in enumerate(rng.integers(0, 6, n))],
            ),
        })
        got = (
            grouped_mode(ray.data.from_arrow(t).repartition(4),
                         by="k", val_col="v")
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", t)
        exp = con.sql(
            """SELECT k, v AS mode_v, cnt AS n FROM (
                 SELECT k, v, count(*) AS cnt,
                   row_number() OVER (PARTITION BY k
                     ORDER BY count(*) DESC, v) AS rn
                 FROM t WHERE v IS NOT NULL GROUP BY k, v)
               WHERE rn = 1 ORDER BY k"""
        ).df()
        assert got["k"].tolist() == exp["k"].tolist()
        assert got["mode_v"].tolist() == exp["mode_v"].tolist()
        assert got["n"].tolist() == exp["n"].tolist()

    def test_shuffle_ships_partials_not_rows(self, ray_session):
        """The combiner collapses each batch to distinct (k, v) pairs
        before the all-to-all."""
        import ray

        from parquet_go_ray.ops.agg import grouped_mode
        from parquet_go_ray.ops import agg as agg_mod

        t = pa.table({
            "k": pa.array([1] * 10000, pa.int64()),
            "v": pa.array(["x"] * 10000),
        })
        out = grouped_mode(ray.data.from_arrow(t), "k", "v").to_pandas()
        assert out.to_dict("records") == [{"k": 1, "mode_v": "x", "n": 10000}]


class TestExtractMatches:
    def test_matches_duckdb_regexp_extract_all(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.text import extract_matches

        docs = [
            "see https://example.com/a and http://foo.org too",
            "no urls here",
            None,
            "dup https://example.com/a https://example.com/a",
            "unicode café https://über.example.de/päth end",
            "",
        ]
        t = pa.table({
            "doc_id": pa.array(range(len(docs)), pa.int64()),
            "text": pa.array(docs),
        })
        pat = r"https?://[^\s]+"
        got = (
            extract_matches(ray.data.from_arrow(t), pat)
            .to_pandas().sort_values(["doc_id", "match"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", t)
        exp = con.sql(
            f"SELECT doc_id, unnest(regexp_extract_all(text, '{pat}'))"
            " AS match FROM t ORDER BY doc_id, match"
        ).df()
        assert got["doc_id"].tolist() == exp["doc_id"].tolist()
        assert got["match"].tolist() == exp["match"].tolist()

    def test_capture_group_and_sliced_column(self, ray_session):
        import ray

        from parquet_go_ray.ops.text import extract_matches_batch

        t = pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array([
                "a@x.com b@y.org", "no", "c@z.io",
            ]),
        })
        # slice to exercise non-zero Arrow offsets in the buffer walk
        sl = t.slice(1, 2)
        out = extract_matches_batch(
            sl, r"([a-z])@([a-z])\.[a-z]+", group=2,
        )
        assert out.column("doc_id").to_pylist() == [2]
        assert out.column("match").to_pylist() == ["z"]

    def test_no_cross_doc_matches(self, ray_session):
        from parquet_go_ray.ops.text import extract_matches_batch

        t = pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["endfoo", "barstart"]),
        })
        out = extract_matches_batch(t, r"foobar")
        assert out.num_rows == 0


class TestBloomPrefilterJoin:
    """Bloom-prefiltered shuffle join: bit-identical results, most of
    the non-overlapping side never enters the shuffle."""

    def test_no_false_negatives_and_prunes(self, ray_session):
        import ray

        from parquet_go_ray.ops.join import (
            bloom_prefilter,
            build_key_bloom,
        )

        keys = pa.table({"k": pa.array(np.arange(2000), pa.int64())})
        bloom = build_key_bloom(ray.data.from_arrow(keys), "k")
        probe = pa.table({
            "k": pa.array(np.arange(1000, 50000), pa.int64()),
            "x": pa.array(np.arange(49000), pa.int64()),
        })
        kept = bloom_prefilter(
            ray.data.from_arrow(probe), "k", bloom
        ).to_pandas()
        got_keys = set(kept["k"])
        # every true-overlap key survives (no false negatives)
        assert set(range(1000, 2000)) <= got_keys
        # the 48k non-members mostly pruned (fpp 1% → ~480 leak)
        assert len(kept) < 1000 + 48000 * 0.05

    def test_join_identical_with_and_without(self, ray_session):
        import ray

        from parquet_go_ray.ops.join import shuffle_join

        rng = np.random.default_rng(59)
        lt = pa.table({
            "k": pa.array(rng.integers(0, 100000, 20000), pa.int64()),
            "lv": pa.array(np.arange(20000), pa.int64()),
        })
        rt = pa.table({
            "rk": pa.array(rng.integers(0, 500, 800).astype(np.int32)),
            "rv": pa.array([f"r{i}" for i in range(800)]),
        })
        key = ["k", "lv", "rv"]

        def run(**kw):
            return (
                shuffle_join(
                    ray.data.from_arrow(lt).repartition(4),
                    ray.data.from_arrow(rt), on="k", right_on="rk",
                    **kw,
                )
                .to_pandas().sort_values(key).reset_index(drop=True)[key]
            )

        base = run()
        pre = run(prefilter="left")
        assert base.equals(pre)  # int32 right key widens before hashing
        assert len(base) > 0

    def test_outer_kept_side_refuses_prefilter(self, ray_session):
        import ray

        from parquet_go_ray.ops.join import shuffle_join

        lt = pa.table({"k": pa.array([1, 2], pa.int64()),
                       "a": pa.array([1, 2], pa.int64())})
        rt = pa.table({"rk": pa.array([2, 3], pa.int64()),
                       "b": pa.array([8, 9], pa.int64())})
        with pytest.raises(ValueError, match="cannot bloom-prefilter"):
            shuffle_join(ray.data.from_arrow(lt),
                         ray.data.from_arrow(rt),
                         on="k", right_on="rk", how="left",
                         prefilter="left")
        # but filtering the INNER side of a left join is legal
        import pandas as pd

        got = shuffle_join(
            ray.data.from_arrow(lt), ray.data.from_arrow(rt),
            on="k", right_on="rk", how="left", prefilter="right",
        ).to_pandas().sort_values("k").reset_index(drop=True)
        assert got["k"].tolist() == [1, 2]
        assert got["b"].fillna(-1).tolist() == [-1, 8]


class TestGroupedCountDistinct:
    def test_matches_duckdb(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.agg import grouped_count_distinct

        rng = np.random.default_rng(67)
        n = 8000
        t = pa.table({
            "k": pa.array(rng.integers(0, 40, n), pa.int64()),
            "v": pa.array(
                [None if i % 19 == 0 else int(x)
                 for i, x in enumerate(rng.integers(0, 200, n))],
                pa.int64(),
            ),
        })
        got = (
            grouped_count_distinct(
                ray.data.from_arrow(t).repartition(5), by="k", val_col="v",
            )
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", t)
        exp = con.sql(
            "SELECT k, count(DISTINCT v) AS n_distinct_v FROM t"
            " GROUP BY k ORDER BY k"
        ).df()
        assert got["k"].tolist() == exp["k"].tolist()
        assert got["n_distinct_v"].tolist() == exp["n_distinct_v"].tolist()


class TestAsofTolerance:
    def test_matches_pandas_merge_asof(self, ray_session):
        import pandas as pd
        import ray

        from parquet_go_ray.ops.join import asof_join_broadcast

        rng = np.random.default_rng(71)
        big_ts = np.sort(rng.integers(0, 10000, 500)).astype(
            "datetime64[us]"
        )
        big = pa.table({
            "eid": pa.array(np.arange(500), pa.int64()),
            "ts": pa.array(big_ts),
        })
        small_ts = np.sort(rng.choice(10000, 40, replace=False)).astype(
            "datetime64[us]"
        )
        small = pa.table({
            "sts": pa.array(small_ts),
            "rate": pa.array(np.arange(40), pa.int64()),
        })
        tol = np.timedelta64(300, "us")
        got = (
            asof_join_broadcast(
                ray.data.from_arrow(big), small, on="ts",
                small_on="sts", tolerance=tol,
            )
            .to_pandas().sort_values("eid").reset_index(drop=True)
        )
        exp = pd.merge_asof(
            big.to_pandas().sort_values("ts"),
            small.to_pandas().rename(columns={"sts": "ts"}),
            on="ts", tolerance=pd.Timedelta(tol), direction="backward",
        ).sort_values("eid").reset_index(drop=True)
        assert got["rate"].fillna(-1).tolist() == (
            exp["rate"].fillna(-1).tolist()
        )
        # tolerance actually nulled something the unbounded join kept
        unbounded = (
            asof_join_broadcast(ray.data.from_arrow(big), small,
                                on="ts", small_on="sts")
            .to_pandas()
        )
        assert got["rate"].isna().sum() > unbounded["rate"].isna().sum()


class TestGroupedCapSample:
    def test_md5_mode_matches_duckdb(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.sampling import grouped_cap_sample

        rng = np.random.default_rng(73)
        n = 4000
        t = pa.table({
            "dom": pa.array(rng.integers(0, 25, n), pa.int64()),
            "doc_id": pa.array(rng.permutation(n), pa.int64()),
            "x": pa.array(np.arange(n), pa.int64()),
        })
        got = (
            grouped_cap_sample(
                ray.data.from_arrow(t).repartition(5),
                by="dom", id_col="doc_id", k=7, hash_mode="md5",
            )
            .to_pandas().sort_values(["dom", "doc_id"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", t)
        exp = con.sql(
            """SELECT dom, doc_id, x FROM (
                 SELECT dom, doc_id, x, row_number() OVER (
                   PARTITION BY dom ORDER BY
                   CAST(('0x' || substring(md5(CAST(doc_id AS VARCHAR)),
                   1, 8)) AS UBIGINT), doc_id) AS rn FROM t)
               WHERE rn <= 7 ORDER BY dom, doc_id"""
        ).df()
        assert got["doc_id"].tolist() == exp["doc_id"].tolist()
        assert got["x"].tolist() == exp["x"].tolist()

    def test_xxh64_partitioning_invariant_and_capped(self, ray_session):
        import ray

        from parquet_go_ray.ops.sampling import grouped_cap_sample

        rng = np.random.default_rng(79)
        n = 3000
        t = pa.table({
            "dom": pa.array(rng.integers(0, 10, n), pa.int64()),
            "doc_id": pa.array(np.arange(n), pa.int64()),
        })

        def run(parts):
            return sorted(
                grouped_cap_sample(
                    ray.data.from_arrow(t).repartition(parts),
                    by="dom", id_col="doc_id", k=50,
                ).to_pandas().itertuples(index=False)
            )

        a, b = run(2), run(9)
        assert a == b  # partitioning-invariant
        import pandas as pd

        df = pd.DataFrame(a, columns=["dom", "doc_id"])
        assert (df.groupby("dom").size() == 50).all()


class TestPercentRankCumeDist:
    def test_matches_duckdb_with_ties(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.window import WindowSpec, window_multi

        rng = np.random.default_rng(83)
        n = 2500
        t = pa.table({
            "k": pa.array(rng.integers(0, 20, n), pa.int64()),
            "o": pa.array(rng.integers(0, 30, n), pa.int64()),  # ties
        })
        got = (
            window_multi(
                ray.data.from_arrow(t).repartition(4),
                by="k", order_cols=["o"],
                specs=[
                    WindowSpec("percent_rank", out_col="pr"),
                    WindowSpec("cume_dist", out_col="cd"),
                ],
            )
            .to_pandas().sort_values(["k", "o"]).reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", t)
        exp = con.sql(
            """SELECT k, o, percent_rank() OVER w AS pr,
                 cume_dist() OVER w AS cd
               FROM t WINDOW w AS (PARTITION BY k ORDER BY o)
               ORDER BY k, o"""
        ).df()
        import pandas as pd

        pd.testing.assert_series_equal(got["pr"], exp["pr"],
                                       check_names=False)
        pd.testing.assert_series_equal(got["cd"], exp["cd"],
                                       check_names=False)


class TestUnpivot:
    def test_matches_duckdb_unpivot(self, ray_session):
        import duckdb
        import ray

        from parquet_go_ray.ops.agg import unpivot

        t = pa.table({
            "id": pa.array([1, 2, 3], pa.int64()),
            "a": pa.array([10.0, None, 30.0]),
            "b": pa.array([1.5, 2.5, None]),
        })
        got = (
            unpivot(ray.data.from_arrow(t), ["id"], ["a", "b"])
            .to_pandas().sort_values(["id", "variable"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", t)
        exp = con.sql(
            """SELECT id, variable, value FROM (
                 SELECT id, 'a' AS variable, a AS value FROM t
                 UNION ALL SELECT id, 'b', b FROM t)
               ORDER BY id, variable"""
        ).df()
        assert got["variable"].tolist() == exp["variable"].tolist()
        assert got["value"].fillna(-1).tolist() == (
            exp["value"].fillna(-1).tolist()
        )

    def test_type_mismatch_raises(self, ray_session):
        import ray

        from parquet_go_ray.ops.agg import unpivot

        t = pa.table({"id": pa.array([1]), "a": pa.array([1.0]),
                      "b": pa.array(["x"])})
        out = unpivot(ray.data.from_arrow(t), ["id"], ["a", "b"])
        with pytest.raises(Exception, match="disagree on type"):
            out.take_all()


class TestPivotFixed:
    @pytest.mark.parametrize("agg,sql_agg", [
        ("sum", "SUM"), ("count", "COUNT"),
        ("min", "MIN"), ("max", "MAX"),
    ])
    def test_matches_duckdb_case_when(self, ray_session, agg, sql_agg):
        import duckdb
        import ray

        from parquet_go_ray.ops.agg import pivot_fixed

        rng = np.random.default_rng(89)
        n = 6000
        t = pa.table({
            "k": pa.array(rng.integers(0, 50, n), pa.int64()),
            "cat": pa.array(
                rng.choice(["x", "y", "z", "other"], n).tolist()
            ),
            "v": pa.array(
                [None if i % 13 == 0 else int(val)
                 for i, val in enumerate(rng.integers(0, 100, n))],
                pa.int64(),
            ),
        })
        got = (
            pivot_fixed(
                ray.data.from_arrow(t).repartition(4),
                by="k", cat_col="cat", val_col="v",
                categories=["x", "y", "z"], agg=agg, prefix="c_",
            )
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", t)
        exp = con.sql(
            f"""SELECT k,
                 {sql_agg}(CASE WHEN cat = 'x' THEN v END) AS c_x,
                 {sql_agg}(CASE WHEN cat = 'y' THEN v END) AS c_y,
                 {sql_agg}(CASE WHEN cat = 'z' THEN v END) AS c_z
               FROM t GROUP BY k ORDER BY k"""
        ).df()
        assert got["k"].tolist() == exp["k"].tolist()
        for c in ("c_x", "c_y", "c_z"):
            assert got[c].fillna(-1).tolist() == (
                exp[c].fillna(-1).tolist()
            ), (agg, c)


class TestWindowMultiProperty:
    """Hypothesis: random keyed tables (ties, nulls, empty) through a
    mixed window_multi spec == DuckDB's window engine. Adversarial
    shrinking covers the degenerate shapes fixed differentials miss
    (single-row partitions, all-null frames, empty input)."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4),          # key
                st.integers(0, 6),          # order (ties likely)
                st.one_of(st.none(), st.integers(-50, 50)),  # value
            ),
            max_size=120,
        ),
        st.integers(1, 4),                  # rolling window
    )
    def test_random_tables_match_duckdb(self, ray_session, rows, w):
        import duckdb
        import ray

        from parquet_go_ray.ops.window import WindowSpec, window_multi

        t = pa.table({
            "k": pa.array([r[0] for r in rows], pa.int64()),
            "o": pa.array([r[1] for r in rows], pa.int64()),
            "i": pa.array(range(len(rows)), pa.int64()),  # tiebreak
            "v": pa.array([r[2] for r in rows], pa.int64()),
        })
        out = window_multi(
            ray.data.from_arrow(t), by="k", order_cols=["o", "i"],
            specs=[
                WindowSpec("max", val_col="v", window=w, out_col="m"),
                WindowSpec("count", val_col="v", window=w,
                           out_col="c"),
                WindowSpec("sum", val_col="v", window=None,
                           out_col="s"),
                WindowSpec("lag", val_col="v", out_col="lg"),
                WindowSpec("row_number", out_col="rn"),
                WindowSpec("cume_dist", out_col="cd"),
            ],
            num_buckets=2,
        ).to_pandas()
        if len(rows) == 0:
            # zero input blocks: Ray's groupby yields a schema-less
            # empty frame — nothing to compare beyond emptiness
            assert len(out) == 0
            return
        got = out.sort_values(["k", "o", "i"]).reset_index(drop=True)
        con = duckdb.connect()
        con.register("t", t)
        exp = con.sql(
            f"""SELECT k, o, i, v,
                 MAX(v) OVER wf AS m, COUNT(v) OVER wf AS c,
                 CAST(SUM(v) OVER w AS BIGINT) AS s,
                 LAG(v, 1) OVER w AS lg,
                 ROW_NUMBER() OVER w AS rn,
                 CUME_DIST() OVER (PARTITION BY k ORDER BY o, i) AS cd
               FROM t
               WINDOW w AS (PARTITION BY k ORDER BY o, i
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
                 wf AS (PARTITION BY k ORDER BY o, i
                 ROWS BETWEEN {w - 1} PRECEDING AND CURRENT ROW)
               ORDER BY k, o, i"""
        ).df()
        assert len(got) == len(exp)
        for c in ("m", "c", "s", "lg", "rn"):
            assert got[c].fillna(-10**9).tolist() == (
                exp[c].fillna(-10**9).tolist()
            ), c
        assert np.allclose(got["cd"], exp["cd"])


def test_window_multi_string_keys(ray_session):
    """String partition keys through the object-dtype unique/lexsort
    path (domains, conv_ids — the transcript-shaped case)."""
    import duckdb
    import ray

    from parquet_go_ray.ops.window import WindowSpec, window_multi

    rng = np.random.default_rng(97)
    n = 1500
    t = pa.table({
        "conv": pa.array([f"conv-{int(x)}" for x in
                          rng.integers(0, 30, n)]),
        "turn": pa.array(rng.permutation(n), pa.int64()),
        "v": pa.array(rng.integers(0, 100, n), pa.int64()),
    })
    got = (
        window_multi(
            ray.data.from_arrow(t).repartition(3),
            by="conv", order_cols=["turn"],
            specs=[
                WindowSpec("row_number", out_col="rn"),
                WindowSpec("lag", val_col="v", out_col="prev_v"),
                WindowSpec("sum", val_col="v", window=None,
                           out_col="running"),
            ],
        )
        .to_pandas().sort_values(["conv", "turn"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t)
    exp = con.sql(
        """SELECT conv, turn, v, ROW_NUMBER() OVER w AS rn,
             LAG(v, 1) OVER w AS prev_v,
             CAST(SUM(v) OVER (PARTITION BY conv ORDER BY turn
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
               AS BIGINT) AS running
           FROM t WINDOW w AS (PARTITION BY conv ORDER BY turn)
           ORDER BY conv, turn"""
    ).df()
    assert got["conv"].tolist() == exp["conv"].tolist()
    for c in ("rn", "prev_v", "running"):
        assert got[c].fillna(-1).tolist() == exp[c].fillna(-1).tolist(), c


class TestReviewFixesR5:
    """Regressions pinned from the round-5 self-review."""

    def test_left_join_all_null_string_key_batch(self, ray_session):
        """A batch whose string join keys are ALL null used to crash
        pk_of (integer fill for a non-numeric type); LEFT join keeps
        those rows with null right columns."""
        import ray

        from parquet_go_ray.ops.join import shuffle_join

        lt = pa.table({
            "k": pa.array([None, None], pa.string()),
            "a": pa.array([1, 2], pa.int64()),
        })
        rt = pa.table({
            "rk": pa.array(["x"], pa.string()),
            "b": pa.array([9], pa.int64()),
        })
        got = shuffle_join(
            ray.data.from_arrow(lt), ray.data.from_arrow(rt),
            on="k", right_on="rk", how="left",
        ).to_pandas().sort_values("a").reset_index(drop=True)
        assert got["a"].tolist() == [1, 2]
        assert got["b"].isna().all()

    def test_bloom_prefilter_all_null_batch(self, ray_session):
        import ray

        from parquet_go_ray.ops.join import (
            bloom_prefilter,
            build_key_bloom,
        )

        keys = pa.table({"k": pa.array(["x", "y"], pa.string())})
        bloom = build_key_bloom(ray.data.from_arrow(keys), "k")
        probe = pa.table({
            "k": pa.array([None, None], pa.string()),
            "v": pa.array([1, 2], pa.int64()),
        })
        dropped = bloom_prefilter(
            ray.data.from_arrow(probe), "k", bloom
        ).to_pandas()
        assert len(dropped) == 0
        kept = bloom_prefilter(
            ray.data.from_arrow(probe), "k", bloom, keep_nulls=True
        ).to_pandas()
        assert len(kept) == 2

    def test_cc_relabel_group_empty_block(self, ray_session):
        from parquet_go_ray.ops.dedup import _cc_relabel_group

        out = _cc_relabel_group(pa.table({
            "node": pa.array([], pa.int64()),
            "nbr": pa.array([], pa.int64()),
        }))
        assert out.num_rows == 0
        assert out.column_names == ["kind", "a", "b"]

    def test_ivf_rebuild_clears_stale_buckets(self, ray_session, tmp_path):
        """Rebuilding an index at the same path must not serve rows
        from the previous build (stale part files / stale bucket dirs
        whose bucket is empty in the new build)."""
        import ray

        from parquet_go_ray.ops.ann import IvfIndex, ivf_build

        rng = np.random.default_rng(3)

        def table(n, start):
            emb = rng.normal(size=(n, 8))
            return pa.table({
                "vec_id": pa.array(np.arange(start, start + n), pa.int64()),
                "embedding": pa.array(list(emb)),
            })

        p = str(tmp_path / "idx")
        ivf_build(ray.data.from_arrow(table(400, 0)), p,
                  n_clusters=4, sample_rows=128)
        # rebuild with a much smaller, disjoint-id corpus
        ivf_build(ray.data.from_arrow(table(40, 10_000)), p,
                  n_clusters=4, sample_rows=32)
        idx = IvfIndex(p)
        total = 0
        import glob as _glob

        import pyarrow.parquet as pq

        for f in _glob.glob(f"{p}/bucket=*/part-*.parquet"):
            t = pq.read_table(f, columns=["vec_id"])
            ids = t.column("vec_id").to_numpy()
            assert (ids >= 10_000).all(), f"stale rows in {f}"
            total += len(ids)
        assert total == 40

    def test_approx_quantiles_lower_index_semantics(self, ray_session):
        import ray

        from parquet_go_ray.ops.sampling import approx_quantiles_sampled

        # sample == full input (k >= n), so the quantile is exact and
        # must use floor((n-1)*q), not int(n*q)
        t = pa.table({
            "id": pa.array(range(4), pa.int64()),
            "v": pa.array([10.0, 20.0, 30.0, 40.0]),
        })
        out = approx_quantiles_sampled(
            ray.data.from_arrow(t), "v", [0.5], id_col="id",
            sample_rows=100,
        )
        assert out.column("value").to_pylist() == [20.0]  # floor(1.5)=1

    def test_bottom_k_empty_preserves_types(self, ray_session):
        import ray

        from parquet_go_ray.ops.sampling import bottom_k_sample

        t = pa.table({
            "id": pa.array([], pa.int64()),
            "text": pa.array([], pa.string()),
        })
        out = bottom_k_sample(ray.data.from_arrow(t), ["text"], "id", 5)
        assert out.schema.field("text").type == pa.string()
        assert out.schema.field("id").type == pa.int64()


class TestShuffleJoinProperty:
    """Hypothesis: random tables (dup keys, nulls, empty sides,
    skewed overlap) through every join mode == DuckDB."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=12, deadline=None)
    @given(
        st.lists(st.one_of(st.none(), st.integers(0, 8)), max_size=60),
        st.lists(st.one_of(st.none(), st.integers(4, 12)), max_size=40),
        st.sampled_from(["inner", "left", "right", "full"]),
    )
    def test_random_tables_match_duckdb(self, ray_session, lk, rk, how):
        import duckdb
        import ray

        from parquet_go_ray.ops.join import shuffle_join

        lt = pa.table({
            "k": pa.array(lk, pa.int64()),
            "lv": pa.array(range(len(lk)), pa.int64()),
        })
        rt = pa.table({
            "rk": pa.array(rk, pa.int64()),
            "rv": pa.array(range(len(rk)), pa.int64()),
        })
        out = shuffle_join(
            ray.data.from_arrow(lt), ray.data.from_arrow(rt),
            on="k", right_on="rk", how=how, num_buckets=3,
        ).to_pandas()
        con = duckdb.connect()
        con.register("l", lt)
        con.register("r", rt)
        sql = {"inner": "JOIN", "left": "LEFT JOIN",
               "right": "RIGHT JOIN", "full": "FULL JOIN"}[how]
        exp = con.sql(
            f"SELECT coalesce(l.k, r.rk) AS k, lv, rv"
            f" FROM l {sql} r ON l.k = r.rk"
        ).df()
        if len(exp) == 0:
            assert len(out) == 0
            return
        key = ["k", "lv", "rv"]
        g = out.sort_values(key).reset_index(drop=True)[key] \
            if len(out) else out
        x = exp.sort_values(key).reset_index(drop=True)[key]
        assert len(g) == len(x)
        for c in key:
            assert g[c].fillna(-1).tolist() == x[c].fillna(-1).tolist(), c


class TestReviewFixesR5b:
    """Second self-review round, regressions pinned."""

    def test_cap_sample_string_ids(self, ray_session):
        import ray

        from parquet_go_ray.ops.sampling import grouped_cap_sample

        t = pa.table({
            "dom": pa.array(["a.com", "a.com", "a.com", "b.org"]),
            "doc_id": pa.array(["u1", "u2", "u3", "u4"]),
        })
        got = grouped_cap_sample(
            ray.data.from_arrow(t), by="dom", id_col="doc_id", k=2,
        ).to_pandas()
        assert len(got) == 3  # a.com capped at 2, b.org keeps 1
        assert (got.groupby("dom").size() <= 2).all()

    def test_pivot_keeps_keys_without_in_list_rows(self, ray_session):
        import ray

        from parquet_go_ray.ops.agg import pivot_fixed

        t = pa.table({
            "k": pa.array([1, 2], pa.int64()),
            "cat": pa.array(["x", "other"]),
            "v": pa.array([5, 7], pa.int64()),
        })
        got = (
            pivot_fixed(ray.data.from_arrow(t), "k", "cat", "v",
                        categories=["x", "y"], agg="sum")
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        assert got["k"].tolist() == [1, 2]  # k=2 survives, all-null
        assert got["x"].fillna(-1).tolist() == [5, -1]
        cnt = (
            pivot_fixed(ray.data.from_arrow(t), "k", "cat", "v",
                        categories=["x", "y"], agg="count")
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        assert cnt["x"].tolist() == [1, 0] and cnt["y"].tolist() == [0, 0]

    def test_unpivot_drop_nulls(self, ray_session):
        import ray

        from parquet_go_ray.ops.agg import unpivot

        t = pa.table({"id": pa.array([1, 2], pa.int64()),
                      "a": pa.array([10.0, None])})
        kept = unpivot(ray.data.from_arrow(t), ["id"], ["a"],
                       drop_nulls=True).to_pandas()
        assert kept["id"].tolist() == [1]

    def test_const_string_overflow_raises(self):
        from parquet_go_ray.functions.bytearray import const_string_array

        with pytest.raises(ValueError, match="overflows"):
            const_string_array(2**28, "0123456789abcdef")

    def test_asof_empty_small_table(self, ray_session):
        import ray

        from parquet_go_ray.ops.join import asof_join_broadcast

        big = pa.table({
            "eid": pa.array([1, 2], pa.int64()),
            "ts": pa.array(np.array([5, 9], "datetime64[us]")),
        })
        small = pa.table({
            "sts": pa.array(np.array([], "datetime64[us]")),
            "rate": pa.array([], pa.int64()),
        })
        for tol in (None, np.timedelta64(3, "us")):
            got = asof_join_broadcast(
                ray.data.from_arrow(big), small, on="ts",
                small_on="sts", tolerance=tol,
            ).to_pandas()
            assert got["rate"].isna().all() and len(got) == 2

    def test_ivf_rebuild_failure_keeps_old_index(
        self, ray_session, tmp_path, monkeypatch
    ):
        """A rebuild that dies mid-build must leave the previous
        index intact and serving (staged-swap contract)."""
        import ray

        from parquet_go_ray.ops import ann as ann_mod
        from parquet_go_ray.ops.ann import IvfIndex, ivf_build

        rng = np.random.default_rng(7)
        t = pa.table({
            "vec_id": pa.array(np.arange(100), pa.int64()),
            "embedding": pa.array(list(rng.normal(size=(100, 4)))),
        })
        p = str(tmp_path / "idx")
        ivf_build(ray.data.from_arrow(t), p, n_clusters=2,
                  sample_rows=32)
        rows_before = IvfIndex(p).meta["rows_total"]

        def boom(*a, **k):
            raise RuntimeError("kmeans died")

        monkeypatch.setattr(ann_mod, "kmeans_lite", boom)
        with pytest.raises(RuntimeError, match="kmeans died"):
            ivf_build(ray.data.from_arrow(t), p, n_clusters=2,
                      sample_rows=32)
        assert IvfIndex(p).meta["rows_total"] == rows_before


class TestRangeFrames:
    """SQL RANGE BETWEEN <delta> PRECEDING AND CURRENT ROW frames
    (window_multi range_window) == DuckDB, incl. the standard's
    current-row-PEERS frame end and duplicate order values."""

    def _table(self, rng, n=800):
        import datetime

        base = datetime.datetime(2024, 3, 1)
        ks = rng.integers(0, 6, size=n)
        # duplicate timestamps on purpose: peers must share frames
        offs = np.sort(rng.integers(0, 4000, size=n)) * 60
        ts = [base + datetime.timedelta(seconds=int(o)) for o in offs]
        v = rng.integers(-50, 200, size=n).astype(object)
        v[rng.random(n) < 0.1] = None
        return pa.table({
            "k": pa.array([f"u{int(x)}" for x in ks]),
            "ts": pa.array(ts, pa.timestamp("us")),
            "v": pa.array(list(v), pa.int64()),
        })

    def _run(self, t, specs):
        import ray

        from parquet_go_ray.ops.window import WindowSpec, window_multi

        return window_multi(
            ray.data.from_arrow(t), "k", ["ts"],
            [WindowSpec(**s) for s in specs], num_buckets=3,
        ).to_pandas()

    def test_timestamp_interval_vs_duckdb(self, ray_session, rng):
        import datetime

        import duckdb

        t = self._table(rng)
        delta = datetime.timedelta(minutes=30)
        out = self._run(t, [
            dict(kind="sum", val_col="v", range_window=delta,
                 out_col="r_sum"),
            dict(kind="count", val_col="v", range_window=delta,
                 out_col="r_cnt"),
            dict(kind="mean", val_col="v", range_window=delta,
                 out_col="r_mean"),
            dict(kind="max", val_col="v", range_window=delta,
                 out_col="r_max"),
            dict(kind="min", val_col="v", range_window=delta,
                 out_col="r_min"),
        ])
        con = duckdb.connect()
        con.register("t", t)
        ref = con.sql(
            "SELECT k, ts, v,"
            " CAST(SUM(v) OVER w AS BIGINT) AS r_sum,"
            " COUNT(v) OVER w AS r_cnt,"
            " AVG(v) OVER w AS r_mean,"
            " CAST(MAX(v) OVER w AS DOUBLE) AS r_max,"
            " CAST(MIN(v) OVER w AS DOUBLE) AS r_min"
            " FROM t WINDOW w AS (PARTITION BY k ORDER BY ts"
            " RANGE BETWEEN INTERVAL 30 MINUTES PRECEDING"
            " AND CURRENT ROW)"
        ).df()
        key = ["k", "ts", "v"]
        a = out.sort_values(key, na_position="last").reset_index(drop=True)
        b = ref.sort_values(key, na_position="last").reset_index(drop=True)
        assert len(a) == len(b)
        for c in ("r_sum", "r_cnt", "r_mean", "r_max", "r_min"):
            av = a[c].astype("float64").fillna(-1e18)
            bv = b[c].astype("float64").fillna(-1e18)
            assert np.allclose(av, bv), c

    def test_numeric_range_and_peers(self, ray_session):
        import duckdb

        t = pa.table({
            "k": pa.array(["a"] * 6),
            "ts": pa.array([10, 10, 11, 13, 13, 20], pa.int64()),
            "v": pa.array([1, 2, 4, 8, 16, 32], pa.int64()),
        })
        out = self._run(t, [
            dict(kind="sum", val_col="v", range_window=1,
                 out_col="r_sum"),
            dict(kind="sum", val_col="v", range_window=0,
                 out_col="peer_sum"),
        ])
        con = duckdb.connect()
        con.register("t", t)
        ref = con.sql(
            "SELECT k, ts, v,"
            " CAST(SUM(v) OVER (PARTITION BY k ORDER BY ts RANGE"
            "  BETWEEN 1 PRECEDING AND CURRENT ROW) AS BIGINT)"
            "  AS r_sum,"
            " CAST(SUM(v) OVER (PARTITION BY k ORDER BY ts RANGE"
            "  BETWEEN 0 PRECEDING AND CURRENT ROW) AS BIGINT)"
            "  AS peer_sum"
            " FROM t"
        ).df()
        key = ["k", "ts", "v"]
        a = out.sort_values(key).reset_index(drop=True)
        b = ref.sort_values(key).reset_index(drop=True)
        assert a["r_sum"].tolist() == b["r_sum"].tolist()
        assert a["peer_sum"].tolist() == b["peer_sum"].tolist()
        # peers share frames: rows at ts=10 both see 1+2
        assert a.loc[a.ts == 10, "peer_sum"].tolist() == [3, 3]

    def test_validation(self, ray_session):
        import datetime

        import ray

        from parquet_go_ray.ops.window import WindowSpec, window_multi

        with pytest.raises(ValueError, match="mutually exclusive"):
            WindowSpec(kind="sum", val_col="v", window=3,
                       range_window=5).validate()
        with pytest.raises(ValueError, match="only valid for frame"):
            WindowSpec(kind="lag", val_col="v",
                       range_window=5).validate()
        t = pa.table({
            "k": pa.array(["a", "a"]),
            "o1": pa.array([1, 2], pa.int64()),
            "o2": pa.array([1, 2], pa.int64()),
            "v": pa.array([1, 2], pa.int64()),
        })
        with pytest.raises(ValueError, match="exactly one ORDER BY"):
            window_multi(
                ray.data.from_arrow(t), "k", ["o1", "o2"],
                [WindowSpec(kind="sum", val_col="v", range_window=1)],
            )
        tn = pa.table({
            "k": pa.array(["a", "a"]),
            "ts": pa.array([1, None], pa.int64()),
            "v": pa.array([1, 2], pa.int64()),
        })
        with pytest.raises(Exception, match="non-null order"):
            window_multi(
                ray.data.from_arrow(tn), "k", ["ts"],
                [WindowSpec(kind="sum", val_col="v", range_window=1)],
            ).to_pandas()
        with pytest.raises(Exception, match="timestamp order"):
            window_multi(
                ray.data.from_arrow(t.drop_columns(["o2"])), "k", ["o1"],
                [WindowSpec(kind="sum", val_col="v",
                            range_window=datetime.timedelta(minutes=1))],
            ).to_pandas()

    def test_range_min_max_expanding_equivalent(self, ray_session, rng):
        # a range wider than the whole partition == expanding frame
        t = self._table(rng, n=300)
        out = self._run(t, [
            dict(kind="max", val_col="v", range_window=10**15,
                 out_col="r_max"),
        ])
        import duckdb

        con = duckdb.connect()
        con.register("t", t)
        ref = con.sql(
            "SELECT k, ts, v, CAST(MAX(v) OVER (PARTITION BY k"
            " ORDER BY ts) AS DOUBLE) AS r_max FROM t"
        ).df()
        key = ["k", "ts", "v"]
        a = out.sort_values(key, na_position="last").reset_index(drop=True)
        b = ref.sort_values(key, na_position="last").reset_index(drop=True)
        av = a["r_max"].astype("float64").fillna(-1e18)
        bv = b["r_max"].astype("float64").fillna(-1e18)
        assert np.allclose(av, bv)


class TestReviewFixesR5c:
    """Third self-review round (3a682a2..HEAD), regressions pinned."""

    def test_json_string_backslash_unescape(self, ray_session):
        import json

        import ray

        from parquet_go_ray.ops.jsonops import json_field

        vals = ["a\\b", "C:\\temp", "x\\\\y", "tab\there", "q\"uote"]
        docs = [json.dumps({"s": v}) for v in vals] + ['{"s": 1}', None]
        t = pa.table({"j": pa.array(docs, pa.string())})
        got = json_field(
            ray.data.from_arrow(t), "j", "s", out_type="string"
        ).to_pandas()["s"].tolist()
        assert got[:5] == vals          # exact round-trip incl. \\
        assert got[5] is None and got[6] is None

    def test_json_int64_overflow_is_null(self, ray_session):
        import pandas as pd

        import ray

        from parquet_go_ray.ops.jsonops import json_field

        docs = [
            '{"k": 99999999999999999999999}',       # > 2^63: null
            '{"k": 9223372036854775807}',           # max: kept
            '{"k": -9223372036854775808}',          # min: kept
            '{"k": 9223372036854775808}',           # max+1: null
            '{"k": -9223372036854775809}',          # min-1: null
            '{"k": 42}',
        ]
        t = pa.table({"j": pa.array(docs, pa.string())})
        rows = json_field(
            ray.data.from_arrow(t), "j", "k", out_type="int64"
        ).take_all()  # arrow rows: int64 survives (pandas would
        got = [r["k"] for r in rows]  # promote the nullable col to f64)
        assert got == [None, 9223372036854775807, -9223372036854775808,
                       None, None, 42]

    def test_explode_pos_col_empty_block(self, ray_session):
        import ray

        from parquet_go_ray.ops.agg import explode

        t = pa.table({
            "id": pa.array([1, 2], pa.int64()),
            "vals": pa.array([[1, 2], [3]], pa.list_(pa.int64())),
        })
        ds = ray.data.from_arrow(t).filter(lambda r: r["id"] > 99)
        got = explode(ds, "vals", pos_col="pos").to_pandas()
        assert len(got) == 0

    def test_explode_out_col_collision_raises(self, ray_session):
        import ray

        from parquet_go_ray.ops.agg import explode

        t = pa.table({
            "id": pa.array([1], pa.int64()),
            "vals": pa.array([[1, 2]], pa.list_(pa.int64())),
        })
        with pytest.raises(Exception, match="collides"):
            explode(ray.data.from_arrow(t), "vals",
                    out_col="id").materialize()
        with pytest.raises(Exception, match="collides"):
            explode(ray.data.from_arrow(t), "vals",
                    pos_col="id").materialize()

    def test_col_hash64_nullable_dates(self):
        from parquet_go_ray.ops.bucketing import col_hash64

        a = pa.array([1, 2, None], pa.date32())
        h = col_hash64(a)
        assert len(h) == 3
        # same epoch ticks in a different temporal width still routes
        # nulls consistently and distinct values distinctly
        assert h[0] != h[1]
        b = pa.array([1, None], pa.date64())
        h2 = col_hash64(b)
        assert len(h2) == 2
        ts = pa.array([1, None], pa.timestamp("ns"))
        assert len(col_hash64(ts)) == 2

    def test_set_op_type_mismatch_raises(self, ray_session):
        import ray

        from parquet_go_ray.ops.setops import set_op

        left = ray.data.from_arrow(
            pa.table({"a": pa.array([1, 2], pa.int32())}))
        right = ray.data.from_arrow(
            pa.table({"a": pa.array([1, 2], pa.int64())}))
        with pytest.raises(TypeError, match="types differ"):
            set_op(left, right, "intersect")

    def test_rollup_name_collision_raises(self, ray_session):
        import ray

        from parquet_go_ray.ops.agg import rollup

        ds = ray.data.from_arrow(pa.table({
            "sum_v": pa.array([1], pa.int64()),
            "v": pa.array([2], pa.int64()),
        }))
        with pytest.raises(ValueError, match="collide"):
            rollup(ds, by=["sum_v"], aggs=[("v", "sum")])
        with pytest.raises(ValueError, match="collide"):
            rollup(ds, by=["v"], aggs=[("v", "sum")],
                   grouping_col="v")

    def test_range_window_int_order_float_delta_exact(self, ray_session):
        """Float delta on an integer order column must not promote the
        merge arrays to float64 (frames stay exact; floor(t) semantics
        identical on an integer domain)."""
        import ray

        from parquet_go_ray.ops.window import WindowSpec, window_multi

        # values near 2^63 would collapse under a float64 round-trip
        base = 9_223_372_036_854_770_000
        t = pa.table({
            "k": pa.array(["a"] * 4),
            "o": pa.array([base + i for i in range(4)], pa.int64()),
            "v": pa.array([1, 2, 3, 4], pa.int64()),
        })
        got = window_multi(
            ray.data.from_arrow(t), by="k", order_cols=["o"],
            specs=[WindowSpec(kind="sum", val_col="v", out_col="s",
                              range_window=1.5)],
        ).to_pandas().sort_values("o")
        # floor(1.5)=1 → frame = rows within 1 tick back
        assert got["s"].tolist() == [1, 3, 5, 7]
