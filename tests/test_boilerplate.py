"""Boilerplate line removal (ops/boilerplate.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


BOILER = "Accept cookies | Privacy | Terms"
FOOTER = "(c) 2026 Example Corp"


def _corpus(n=40, rng=None):
    rng = rng or np.random.default_rng(53)
    texts = []
    for i in range(n):
        body = [
            f"unique line {i} {int(x)}" for x in rng.integers(0, 9999, 4)
        ]
        lines = [BOILER] + body[:2] + ["", FOOTER] + body[2:]
        texts.append("\n".join(lines))
    return texts


class TestRemoveBoilerplate:
    def _run(self, ray, texts, **kw):
        from parquet_go_ray.ops.boilerplate import \
            remove_boilerplate_lines

        t = pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        })
        return (
            remove_boilerplate_lines(
                ray.data.from_arrow(t).repartition(4), **kw
            ).to_pandas().sort_values("doc_id")
        )

    def test_repeated_lines_removed_unique_kept(self, ray_session):
        import ray

        texts = _corpus()
        out = self._run(ray, texts, min_docs=10)
        for i, (orig, new, dropped) in enumerate(
            zip(texts, out["text"], out["boilerplate_lines_removed"])
        ):
            olines = orig.split("\n")
            exp = [l for l in olines if l not in (BOILER, FOOTER)]
            assert new.split("\n") == exp, i
            assert dropped == 2
        # blank lines survived (keep_blank default)
        assert all("\n\n" in t or "" in t.split("\n")
                   for t in out["text"])

    def test_min_docs_threshold(self, ray_session):
        import ray

        # the boilerplate appears in only 5 docs -> below min_docs=10
        texts = _corpus(5)
        out = self._run(ray, texts, min_docs=10)
        assert (out["boilerplate_lines_removed"] == 0).all()
        assert out["text"].tolist() == texts

    def test_long_lines_protected(self, ray_session):
        import ray

        long_line = "x" * 600  # > max_line_chars default 500
        texts = [f"{long_line}\nunique {i}" for i in range(30)]
        out = self._run(ray, texts, min_docs=5)
        assert (out["boilerplate_lines_removed"] == 0).all()
        out2 = self._run(ray, texts, min_docs=5, max_line_chars=10_000)
        assert (out2["boilerplate_lines_removed"] == 1).all()

    def test_sketch_reuse_and_within_doc_repeat(self, ray_session):
        import ray

        from parquet_go_ray.ops.boilerplate import (
            line_df_sketch, remove_boilerplate_lines)

        # a line repeated 20x WITHIN one doc counts once (df = 1)
        texts = ["\n".join(["solo repeat"] * 20 + ["body"])] + [
            f"other {i}" for i in range(10)
        ]
        t = pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        })
        ds = ray.data.from_arrow(t)
        cms = line_df_sketch(ds)
        out = remove_boilerplate_lines(
            ds, min_docs=2, cms=cms
        ).to_pandas().sort_values("doc_id")
        assert (out["boilerplate_lines_removed"] == 0).all()
        assert out["text"].iloc[0] == texts[0]

    def test_bad_min_docs(self, ray_session):
        import ray

        from parquet_go_ray.ops.boilerplate import \
            remove_boilerplate_lines

        ds = ray.data.from_arrow(
            pa.table({"doc_id": pa.array([1], pa.int64()),
                      "text": pa.array(["x"])})
        )
        with pytest.raises(ValueError, match="min_docs"):
            remove_boilerplate_lines(ds, min_docs=1)


# The eleven broadcast-probe operators: (module, operator, probe class).
BROADCAST_OPS = [
    ("join", "broadcast_join", "_BroadcastJoiner"),
    ("join", "asof_join_broadcast", "_AsofJoiner"),
    ("join", "range_join_broadcast", "_RangeJoiner"),
    ("join", "broadcast_semi_join", "_SemiJoiner"),
    ("join", "bloom_prefilter", "_BloomPrefilter"),
    ("ann", "ann_topk", "CosineTopK"),
    ("text", "tfidf_topk", "_TfIdfScorer"),
    ("decontam", "decontaminate", "_Decontaminator"),
    ("decontam", "decontaminate_embeddings", "_EmbDecontaminator"),
    ("boilerplate", "remove_boilerplate_lines", "_BoilerplateRemover"),
    ("lm_score", "lm_perplexity", "_LmScorer"),
]


def _probe_input(n=40):
    rng = np.random.default_rng(7)
    emb = rng.normal(size=(n, 8))
    return pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "k": pa.array(rng.integers(0, 12, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 100, n), pa.int64()),
        "text": pa.array(_corpus(n)),
        "embedding": pa.array(list(emb), pa.list_(pa.float64())),
    })


def _op_and_probe(name, t, ds):
    """(the operator's Ray output, the same probe built here on the
    driver) for one broadcast operator over ``t`` / ``ds``."""
    import ray

    from parquet_go_ray.ops import (ann, boilerplate, decontam, join,
                                    lm_score, text)

    small = pa.table({
        "k": pa.array(range(0, 10), pa.int64()),
        "name": pa.array([f"n{i}" for i in range(10)]),
    })
    if name == "broadcast_join":
        return (join.broadcast_join(ds, small, on="k"),
                join._BroadcastJoiner(small, "k", "k", None))
    if name == "asof_join_broadcast":
        rates = pa.table({
            "k": pa.array([0, 0, 1, 1, 2], pa.int64()),
            "ts": pa.array([10, 50, 0, 30, 70], pa.int64()),
            "rate": pa.array([1, 2, 3, 4, 5], pa.int64()),
        })
        return (join.asof_join_broadcast(ds, rates, on="ts", by="k"),
                join._AsofJoiner(rates, "ts", "ts", None, "k", "k"))
    if name == "range_join_broadcast":
        iv = pa.table({
            "lo": pa.array([0, 20, 25, 90], pa.int64()),
            "hi": pa.array([10, 40, 60, 100], pa.int64()),
            "label": pa.array(["a", "b", "c", "d"]),
        })
        return (join.range_join_broadcast(ds, iv, "ts", "lo", "hi"),
                join._RangeJoiner(iv, "ts", "lo", "hi", None))
    if name == "broadcast_semi_join":
        keys = np.array([3, 1, 3, 7], np.int64)
        return (join.broadcast_semi_join(ds, keys, on="k", anti=True),
                join._SemiJoiner(np.unique(keys), "k", True))
    if name == "bloom_prefilter":
        bloom = join.build_key_bloom(ray.data.from_arrow(small), "k")
        return (join.bloom_prefilter(ds, "k", bloom),
                join._BloomPrefilter(bloom, "k", False))
    if name == "ann_topk":
        q = np.random.default_rng(8).normal(size=(3, 8))
        # the driver-side fold only orders and ranks the candidates
        got = ann.ann_topk(ds, q, k=15, id_col="doc_id").drop_columns(
            ["rank"])
        return got, ann.CosineTopK(q, 15, "doc_id", "embedding")
    if name == "tfidf_topk":
        docs = [set(x.split(" ")) for x in t.column("text").to_pylist()]
        vocab = sorted(set().union(*docs))
        df_tbl = pa.table({
            "token": pa.array(vocab),
            "df": pa.array([sum(w in d for d in docs) for w in vocab],
                           pa.int64()),
        })
        return (text.tfidf_topk(ds, k=2),
                text._TfIdfScorer(df_tbl, "text", "doc_id", 2))
    if name == "decontaminate":
        grams = np.unique(decontam.ngram_hashes(
            pa.array([t.column("text")[5].as_py()]), 3)[0])
        return (decontam.decontaminate(ds, gram_set=grams, n=3),
                decontam._Decontaminator(grams, "text", 3, True, "flag", 1))
    if name == "decontaminate_embeddings":
        m = ann._normalize(np.random.default_rng(9).normal(size=(4, 8)))
        return (decontam.decontaminate_embeddings(
                    ds, bench_matrix=m, threshold=0.5),
                decontam._EmbDecontaminator(m, "embedding", 0.5, "flag"))
    if name == "remove_boilerplate_lines":
        cms = boilerplate.line_df_sketch(ds)
        return (boilerplate.remove_boilerplate_lines(ds, cms=cms,
                                                     min_docs=10),
                boilerplate._BoilerplateRemover(cms, "text", 10, 500,
                                                True))
    assert name == "lm_perplexity"
    lm = lm_score.train_ngram_lm(ds)
    return (lm_score.lm_perplexity(ds, lm),
            lm_score._LmScorer(lm, "text", True))


def _sorted(t: pa.Table) -> pa.Table:
    keys = [c for c in t.column_names if c != "embedding"]
    return t.combine_chunks().sort_by([(c, "ascending") for c in keys])


# The float64 inner-product column (a BLAS matmul of unit vectors) of
# the two embedding probes. BLAS may round one row's dot product
# differently with the number of rows that share the matmul.
_INNER_PRODUCT_COLS = {"ann_topk": "score",
                       "decontaminate_embeddings": "benchmark_similarity"}


def _inner_product_atol(x: np.ndarray, y: np.ndarray) -> float:
    """Bound on |a − b| for two float64 evaluations a, b of xᵢᵀyⱼ: each
    lies within γ_d·‖xᵢ‖‖yⱼ‖ of the exact value, γ_d = d·u/(1 − d·u),
    u = 2⁻⁵³ (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., §3.1, eq. 3.5). A row max is 1-Lipschitz in the max norm,
    so the bound also holds for a max over ``y``."""
    d = x.shape[1]
    u = 2.0 ** -53
    gamma = d * u / (1 - d * u)
    return (2 * gamma * np.linalg.norm(x, axis=1).max()
            * np.linalg.norm(y, axis=1).max())


class TestBroadcastDispatch:
    @pytest.mark.parametrize("name", [op for _, op, _ in BROADCAST_OPS])
    def test_ray_output_matches_driver_probe(self, ray_session, name):
        """Each broadcast operator over a 3-block dataset returns what
        its probe, built on the driver, returns on the whole input
        table. Every column is compared exactly except the two float64
        inner-product columns, ``ann_topk``'s ``score`` and
        ``decontaminate_embeddings``' ``benchmark_similarity``: those
        are compared at ``rtol=0`` and ``atol = 2·γ_d·max‖x̂‖·max‖ŷ‖``
        over the normalised inputs (Higham §3.1, eq. 3.5; see
        ``_inner_product_atol``), after the test asserts that no
        whole-table score lies close enough to the k-th score or to the
        threshold for that rounding to change an id or a flag."""
        import ray

        from parquet_go_ray.ops import ann

        t = _probe_input()
        ds = ray.data.from_arrow(t).repartition(3)
        got, probe = _op_and_probe(name, t, ds)
        if not isinstance(got, pa.Table):
            got = pa.concat_tables(
                ray.get(got.to_arrow_refs())).combine_chunks()
        want = probe(t)
        assert got.num_rows > 0
        got, want = _sorted(got), _sorted(want.cast(got.schema))
        col = _INNER_PRODUCT_COLS.get(name)
        if col is None:
            assert got.equals(want)
            return
        # the unique ids lead the sort keys, so ``col`` cannot reorder rows
        x = ann._normalize(ann._emb_matrix(t, "embedding"))
        if name == "ann_topk":
            atol = _inner_product_atol(x, probe.queries)
            whole = np.sort(x @ probe.queries.T, axis=0)[::-1]
            assert (whole[probe.k - 1] - whole[probe.k] > 2 * atol).all()
        else:
            atol = _inner_product_atol(x, probe.bench)
            sim = want.column(col).to_numpy()
            assert (np.abs(sim - probe.threshold) > atol).all()
        np.testing.assert_allclose(got.column(col).to_numpy(),
                                   want.column(col).to_numpy(),
                                   rtol=0, atol=atol)
        assert got.drop_columns([col]).equals(want.drop_columns([col]))

    def test_no_actor_pool_or_concurrency_knob(self):
        """Guard against re-growth: no operator in ``ops/`` builds a
        per-actor state outside the two stateful model stages, and none
        of the broadcast operators takes a ``concurrency`` option."""
        import ast
        import importlib
        import inspect
        import pathlib

        import parquet_go_ray.ops as ops_pkg

        allowed = {("text.py", "apply_actor"),
                   ("multimodal.py", "media_pipeline")}
        found = set()
        for path in pathlib.Path(ops_pkg.__file__).parent.glob("*.py"):
            src = path.read_text()
            for node in ast.parse(src).body:
                seg = ast.get_source_segment(src, node) or ""
                if "fn_constructor_kwargs" in seg:
                    found.add((path.name, getattr(node, "name", "?")))
        assert found <= allowed, sorted(found - allowed)
        for mod, op, _ in BROADCAST_OPS:
            fn = getattr(
                importlib.import_module(f"parquet_go_ray.ops.{mod}"), op)
            assert "concurrency" not in inspect.signature(fn).parameters, op
