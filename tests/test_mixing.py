"""Domain mixing + sequence packing (ops/mixing.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _src(ids, prefix="d"):
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array([f"{prefix} body {i} tok tok" for i in ids]),
    })


class TestMixDatasets:
    def test_proportions_and_determinism(self, ray_session):
        import ray

        from parquet_go_ray.ops.mixing import mix_datasets

        srcs = {
            "web": ray.data.from_arrow(_src(range(20_000))).repartition(8),
            "code": ray.data.from_arrow(_src(range(4_000))).repartition(3),
            "books": ray.data.from_arrow(_src(range(2_000))),
        }
        w = {"web": 0.5, "code": 0.3, "books": 0.2}
        out = mix_datasets(srcs, w).to_pandas()
        got = out.groupby("source_name").size()
        # scarcest source: books (2000 / 0.2 -> scale 10000)
        assert got["books"] == 2000  # rate 1.0 keeps everything
        assert abs(got["web"] - 5000) < 300   # hash-rate tolerance
        assert abs(got["code"] - 3000) < 250
        # per-row deterministic: a re-run picks the SAME rows
        again = mix_datasets(srcs, w).to_pandas()
        for name in w:
            assert sorted(out[out.source_name == name]["doc_id"]) == \
                sorted(again[again.source_name == name]["doc_id"])
        # seed changes the draw
        other = mix_datasets(srcs, w, seed=2).to_pandas()
        assert sorted(other[other.source_name == "web"]["doc_id"]) != \
            sorted(out[out.source_name == "web"]["doc_id"])

    def test_source_name_salts_all_of_the_name(self, ray_session):
        """Two sources whose names share their first 8 bytes, with the
        same ids and equal weights, draw independent coins."""
        import ray

        from parquet_go_ray.ops.mixing import mix_datasets

        srcs = {
            "wikipedia_en": ray.data.from_arrow(_src(range(4_000))),
            "wikipedia_fr": ray.data.from_arrow(_src(range(4_000))),
            "books": ray.data.from_arrow(_src(range(2_000))),
        }
        out = mix_datasets(srcs, {n: 1.0 for n in srcs}).to_pandas()
        en, fr = (set(out[out.source_name == n]["doc_id"])
                  for n in ("wikipedia_en", "wikipedia_fr"))
        assert abs(len(en) - 2000) < 200 and abs(len(fr) - 2000) < 200
        # rate 0.5 each: independent coins share ~1/4 of the 4000 ids
        assert abs(len(en & fr) - 1000) < 150, len(en & fr)

    def test_zero_weight_source_dropped(self, ray_session):
        import ray

        from parquet_go_ray.ops.mixing import mix_datasets

        srcs = {
            "a": ray.data.from_arrow(_src(range(100))),
            "b": ray.data.from_arrow(_src(range(100), "x")),
        }
        out = mix_datasets(srcs, {"a": 1.0, "b": 0.0}).to_pandas()
        assert set(out["source_name"]) == {"a"}
        assert len(out) == 100

    def test_errors(self, ray_session):
        import ray

        from parquet_go_ray.ops.mixing import mix_datasets

        a = ray.data.from_arrow(_src(range(10)))
        with pytest.raises(ValueError, match="key mismatch"):
            mix_datasets({"a": a}, {"b": 1.0})
        empty = ray.data.from_arrow(_src([]))
        with pytest.raises(ValueError, match="empty"):
            mix_datasets({"a": a, "e": empty}, {"a": 0.5, "e": 0.5})


class TestPackSequences:
    def _run(self, ray, table, **kw):
        from parquet_go_ray.ops.mixing import pack_sequences

        return pack_sequences(
            ray.data.from_arrow(table).repartition(4), **kw
        ).to_pandas()

    def test_invariants(self, ray_session):
        import ray

        rng = np.random.default_rng(5)
        n = 3000
        ntok = rng.integers(1, 400, n)
        t = pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array([" ".join(["w"] * int(k)) for k in ntok]),
        })
        out = self._run(ray, t, max_tokens=512)
        # every doc exactly once
        all_ids = sorted(i for ids in out["doc_ids"] for i in ids)
        assert all_ids == list(range(n))
        # no pack over budget (none oversize: max doc 399 < 512)
        assert not out["oversize"].any()
        assert (out["n_tokens"] <= 512).all()
        assert (out["n_docs"] >= 1).all()
        # token totals match the docs
        by_id = dict(zip(range(n), ntok))
        for ids, tok in zip(out["doc_ids"], out["n_tokens"]):
            assert tok == sum(by_id[i] for i in ids)
        # packing is reasonably tight (greedy sequential: >= 60% fill)
        multi = out[out.n_docs > 1]
        assert multi["n_tokens"].mean() > 0.6 * 512

    def test_partitioning_invariance(self, ray_session):
        import ray

        from parquet_go_ray.ops.mixing import pack_sequences

        rng = np.random.default_rng(9)
        n = 500
        t = pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(
                [" ".join(["w"] * int(k))
                 for k in rng.integers(1, 100, n)]
            ),
        })

        def canon(df):
            return sorted(
                (tuple(ids), int(tok))
                for ids, tok in zip(df["doc_ids"], df["n_tokens"])
            )

        a = pack_sequences(
            ray.data.from_arrow(t).repartition(2), max_tokens=256,
            num_buckets=8,
        ).to_pandas()
        b = pack_sequences(
            ray.data.from_arrow(t).repartition(13), max_tokens=256,
            num_buckets=8,
        ).to_pandas()
        assert canon(a) == canon(b)

    def test_oversize_and_concat(self, ray_session):
        import ray

        t = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["a b", " ".join(["x"] * 50), "c d e"]),
        })
        out = self._run(ray, t, max_tokens=10, concat_text=True,
                        num_buckets=1)
        over = out[out.oversize]
        assert len(over) == 1 and over.iloc[0]["doc_ids"].tolist() == [2]
        assert over.iloc[0]["n_tokens"] == 50
        # packing is strictly sequential in id order: the oversize doc
        # between 1 and 3 closes doc 1's pack, so each ends up alone
        small = out[~out.oversize].sort_values("pack_id")
        assert [ids.tolist() for ids in small["doc_ids"]] == [[1], [3]]
        assert small["text"].tolist() == ["a b", "c d e"]

    def test_concat_joins_within_pack(self, ray_session):
        import ray

        t = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["a b", "c", "d e"]),
        })
        out = self._run(ray, t, max_tokens=10, concat_text=True,
                        num_buckets=1)
        assert len(out) == 1
        assert out.iloc[0]["text"] == "a b\n\nc\n\nd e"
        assert out.iloc[0]["doc_ids"].tolist() == [1, 2, 3]

    def test_tokens_col_passthrough(self, ray_session):
        import ray

        t = pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["ignored", "ignored"]),
            "n_tok": pa.array([7, 5], pa.int64()),
        })
        out = self._run(ray, t, max_tokens=12, tokens_col="n_tok",
                        num_buckets=1)
        assert len(out) == 1 and out.iloc[0]["n_tokens"] == 12


class TestChunkDocuments:
    def _run(self, ray, table, **kw):
        from parquet_go_ray.ops.mixing import chunk_documents

        return chunk_documents(
            ray.data.from_arrow(table).repartition(3), **kw
        ).to_pandas()

    @staticmethod
    def _scalar_ref(text, max_tokens, overlap):
        toks = text.split(" ")
        step = max_tokens - overlap
        out, i = [], 0
        while True:
            chunk = toks[i : i + max_tokens]
            out.append(" ".join(chunk))
            if i + max_tokens >= len(toks):
                return out
            i += step

    @pytest.mark.parametrize("overlap", [0, 7])
    def test_matches_scalar_reference(self, ray_session, overlap):
        import ray

        rng = np.random.default_rng(21)
        texts = [
            " ".join(f"w{int(x)}"
                     for x in rng.integers(0, 100, int(n)))
            for n in rng.integers(1, 200, 50)
        ] + ["", "one", "a  b"]  # empty / single / repeated-space
        t = pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        })
        out = self._run(ray, t, max_tokens=32, overlap=overlap)
        got = {
            i: g.sort_values("chunk_idx")["text"].tolist()
            for i, g in out.groupby("doc_id")
        }
        for i, text in enumerate(texts):
            assert got[i] == self._scalar_ref(text, 32, overlap), i
        assert (out["n_tokens"] <= 32).all()

    def test_overlap_zero_reconstructs_exactly(self, ray_session):
        import ray

        texts = ["x " * 500 + "tail", "a  b   c", ""]
        t = pa.table({
            "doc_id": pa.array(range(3), pa.int64()),
            "text": pa.array(texts),
        })
        out = self._run(ray, t, max_tokens=64, overlap=0)
        for i, text in enumerate(texts):
            g = out[out.doc_id == i].sort_values("chunk_idx")
            assert " ".join(g["text"]) == text, i

    def test_bad_overlap(self, ray_session):
        import ray

        from parquet_go_ray.ops.mixing import chunk_documents

        ds = ray.data.from_arrow(
            pa.table({"doc_id": pa.array([1], pa.int64()),
                      "text": pa.array(["x"])})
        )
        with pytest.raises(ValueError, match="overlap"):
            chunk_documents(ds, max_tokens=8, overlap=8)


class TestNullText:
    def test_null_text_pack_and_chunk(self, ray_session):
        import ray

        from parquet_go_ray.ops.mixing import (chunk_documents,
                                               pack_sequences)

        t = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["a b c", None, "d e"]),
        })
        ds = ray.data.from_arrow(t)
        packed = pack_sequences(ds, max_tokens=10, concat_text=True,
                                num_buckets=1).to_pandas()
        assert sorted(i for ids in packed["doc_ids"] for i in ids) == \
            [1, 2, 3]
        assert packed["text"].notna().all()
        chunks = chunk_documents(ds, max_tokens=4).to_pandas()
        assert sorted(chunks["doc_id"]) == [1, 2, 3]
        assert chunks[chunks.doc_id == 2]["text"].tolist() == [""]
