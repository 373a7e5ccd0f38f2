"""End-to-end corpus curation: the full CCNet/RefinedWeb-style stack
as ONE streaming Ray Data pipeline.

Composes the engine's curation operators in the order production
pipelines run them, with each stage's cost profile documented where
it is invoked. Stages that need a corpus-wide artifact (the
boilerplate line sketch, the LM counts, the benchmark gram set) build
it in its own streaming aggregate and broadcast it; the document
stream itself is scanned once per required pass and never collected
on the driver. Exact near-dup clustering is the one shuffle-bearing
stage (LSH banding + verify — see ``ops.dedup``).

This is deliberately a THIN composition — every stage is the public
operator with its own oracle/differential tests; the pipeline's own
test checks the plumbing (stage order, column contracts, report
arithmetic), not the operators again.
"""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data

from ..ops.boilerplate import line_df_sketch, remove_boilerplate_lines
from ..ops.decontam import build_ngram_set, decontaminate
from ..ops.dedup import dedup_exact, dedup_minhash
from ..ops.lm_score import lm_perplexity, train_ngram_lm
from ..ops.mixing import pack_sequences
from ..ops.profile import profile_corpus

__all__ = ["curate_corpus", "curate_shard"]


def _check_id_col(ds: ray.data.Dataset, id_col: str) -> None:
    """Near-dup clustering keys documents by an integer id: reject any
    other id type from the schema, before a stage runs."""
    schema = ds.schema()
    if schema is None:  # no blocks: nothing to check
        return
    types = dict(zip(schema.names, schema.types))
    if id_col not in types:
        raise ValueError(
            f"id column {id_col!r} is not in the dataset (columns {schema.names})"
        )
    typ = types[id_col]
    if not (isinstance(typ, pa.DataType) and pa.types.is_integer(typ)):
        raise ValueError(
            f"id column {id_col!r} has type {typ}; curation needs integer doc ids"
        )


def curate_corpus(
    docs: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    benchmark: ray.data.Dataset | None = None,
    reference: ray.data.Dataset | None = None,
    boilerplate_min_docs: int = 10,
    near_dup_threshold: float = 0.8,
    max_bits_per_token: float | None = None,
    decontam_n: int = 13,
    pack_tokens: int | None = None,
    profile: bool = True,
) -> dict:
    """Run the curation stack over ``docs``; returns a dict with the
    curated ``dataset`` (lazy — consume it to execute), optional
    ``packed`` sequences, and ``report`` (profiles before/after when
    ``profile=True``).

    Stages (each optional where its input is):

    1. boilerplate line removal (CMS sketch pass + rewrite pass);
    2. exact dedup then MinHash near-dup (keep one rep per cluster);
    3. benchmark n-gram decontamination (``benchmark`` given);
    4. LM quality filter (``reference`` given + ``max_bits_per_token``):
       drop docs scoring above the threshold;
    5. sequence packing (``pack_tokens`` given).
    """
    _check_id_col(docs, id_col)
    report: dict = {}
    if profile:
        report["before"] = profile_corpus(docs, text_col)

    # 1. boilerplate — two passes over the current stream, no shuffle
    cms = line_df_sketch(docs, text_col)
    cur = remove_boilerplate_lines(
        docs, text_col, min_docs=boilerplate_min_docs, cms=cms
    )

    # 2. dedup — exact first (cheap hash groupby), then near-dup on
    # the survivors (LSH + verify). Both dedup ops return SURVIVOR ID
    # rows; rows are restored with a shuffle semi-filter (the right
    # side is ids-only, so shuffle_join emits exactly the left
    # columns — one co-partitioned exchange each, no broadcast of a
    # corpus-sized id set). The boilerplate-rewritten stream feeds
    # both the dedup scan and the filter, so materialize it once
    # instead of re-running the rewrite per consumer.
    from ..ops.join import shuffle_join

    cur = cur.materialize()
    cur = shuffle_join(
        cur, dedup_exact(cur, text_col, id_col), on=id_col
    ).materialize()
    near_surv = dedup_minhash(
        cur, text_col, id_col, threshold=near_dup_threshold
    ).map_batches(  # driver path returns (id, sig); keep ids only
        lambda b: b.select([id_col]), batch_format="pyarrow",
        zero_copy_batch=True,
    )
    cur = shuffle_join(cur, near_surv, on=id_col)

    # 3. decontamination — benchmark gram set built once, broadcast
    if benchmark is not None:
        gs = build_ngram_set(benchmark, text_col, n=decontam_n)
        cur = decontaminate(
            cur, gram_set=gs, text_col=text_col, n=decontam_n,
            mode="drop",
        )
        report["benchmark_grams"] = int(len(gs))

    # 4. quality — LM trained on the reference corpus, broadcast
    if reference is not None and max_bits_per_token is not None:
        lm = train_ngram_lm(reference, text_col)
        cur = lm_perplexity(cur, lm, text_col)
        thresh = float(max_bits_per_token)

        def keep(batch):
            import pyarrow as pa
            import pyarrow.compute as pc

            return batch.filter(
                pc.less_equal(
                    batch.column("lm_bits_per_token"),
                    pa.scalar(thresh),
                )
            )

        cur = cur.map_batches(keep, batch_format="pyarrow",
                              zero_copy_batch=True)
        report["lm_tokens_trained"] = lm.total

    out: dict = {"dataset": cur, "report": report}

    # 5. packing — consumes the curated stream
    if pack_tokens is not None:
        out["packed"] = pack_sequences(
            cur, text_col, id_col, max_tokens=pack_tokens,
            concat_text=True,
        )

    if profile:
        report["after"] = profile_corpus(cur, text_col)
        report["docs_removed"] = (
            report["before"]["docs"] - report["after"]["docs"]
        )
    return out


def curate_shard(
    shard: ray.data.Dataset,
    *,
    exact_store=None,
    near_store=None,
    text_col: str = "text",
    id_col: str = "doc_id",
    near_dup_threshold: float = 0.8,
    append: bool = True,
) -> dict:
    """Rolling-ingest curation: dedup ONE new shard against corpus
    HISTORY via the persisted stores, without touching the corpus.

    Order matters and is the cheap-to-expensive order: intra-shard
    exact dedup (one hash groupby over the shard), intra-shard
    near-dup (LSH over the shard), then history probes —
    ``exact_store.filter_new`` (one id-sized exchange against the
    16 B/doc fingerprint parts) and ``near_store.filter_new`` (band
    envelopes against the LSH band parts). With ``append=True`` the
    SURVIVORS' fingerprints/bands are merged into the stores
    (single-writer contract — serialize shards). Returns
    ``{"dataset": survivors, "report": {...}}``; the dataset is
    materialized (the append must observe the final survivor set,
    and the probes consume the stream multiple times)."""
    from ..ops.join import shuffle_join

    _check_id_col(shard, id_col)
    report: dict = {"shard_docs": shard.count()}
    cur = shard.materialize()

    cur = shuffle_join(
        cur, dedup_exact(cur, text_col, id_col), on=id_col
    ).materialize()
    near_surv = dedup_minhash(
        cur, text_col, id_col, threshold=near_dup_threshold
    ).map_batches(
        lambda b: b.select([id_col]), batch_format="pyarrow",
        zero_copy_batch=True,
    )
    cur = shuffle_join(cur, near_surv, on=id_col).materialize()
    report["after_intra_shard"] = cur.count()

    if exact_store is not None:
        ids = exact_store.filter_new(cur, text_col, id_col)
        cur = shuffle_join(cur, ids, on=id_col).materialize()
        report["after_exact_history"] = cur.count()
    if near_store is not None:
        ids = near_store.filter_new(cur, text_col, id_col)
        cur = shuffle_join(cur, ids, on=id_col).materialize()
        report["after_near_history"] = cur.count()

    if append:
        if exact_store is not None:
            report["exact_appended"] = exact_store.append(
                cur, text_col
            )["added"]
        if near_store is not None:
            report["near_appended"] = near_store.append(
                cur, text_col
            )["added"]
    return {"dataset": cur, "report": report}
