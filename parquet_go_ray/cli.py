"""CLI entrypoint — the ``ray job submit`` surface.

    ray job submit -- python -m parquet_go_ray.cli encode \
        --input /data/transcripts --checkpoint /data/ckpt
    python -m parquet_go_ray.cli decode --checkpoint /data/ckpt --out /data/decoded
    python -m parquet_go_ray.cli verify --input /data/transcripts --checkpoint /data/ckpt
    python -m parquet_go_ray.cli manifest --checkpoint /data/ckpt
    python -m parquet_go_ray.cli export --input /data/in --out /data/std_parquet
    python -m parquet_go_ray.cli scan --input /data/std_parquet/*.parquet \
        --filter value '>' 75.0 --out /data/filtered
    python -m parquet_go_ray.cli curate --input /data/corpus \
        --out /data/curated --benchmark /data/evals --pack-tokens 2048

Re-running ``encode`` against an existing checkpoint resumes: completed
partitions are skipped before the exchange. This module owns its Ray
session (library code never calls ray.init)."""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="parquet_go_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("encode", help="encode parquet -> partition blobs")
    pe.add_argument("--input", required=True)
    pe.add_argument("--checkpoint", required=True)
    pe.add_argument("--rows-per-partition", type=int, default=250_000)
    pe.add_argument("--turns-per-salt", type=int, default=65536)
    pe.add_argument("--key", default="conv_id")
    pe.add_argument("--turn-col", default="turn_idx")

    pd = sub.add_parser("decode", help="decode blobs -> parquet")
    pd.add_argument("--checkpoint", required=True)
    pd.add_argument("--out", required=True)
    pd.add_argument("--columns", nargs="*", default=None)

    pv = sub.add_parser("verify", help="round-trip multiset-hash check")
    pv.add_argument("--input", required=True)
    pv.add_argument("--checkpoint", required=True)

    pm = sub.add_parser("manifest", help="print the lineage manifest")
    pm.add_argument("--checkpoint", required=True)

    px = sub.add_parser(
        "export",
        help="write standard Parquet files with the ENGINE's writer "
        "(selector-driven encodings, per-chunk statistics)",
    )
    px.add_argument("--input", required=True,
                    help="parquet file/dir, or a blob checkpoint with "
                    "--from-checkpoint")
    px.add_argument("--out", required=True)
    px.add_argument("--from-checkpoint", action="store_true")
    px.add_argument("--codec", default="zstd",
                    choices=["none", "snappy", "gzip", "brotli", "zstd"])
    px.add_argument("--rows-per-file", type=int, default=250_000)

    ps = sub.add_parser(
        "scan",
        help="read Parquet through the ENGINE's page decoders "
        "(zone-map row-group pruning with --filter)",
    )
    ps.add_argument("--input", required=True, nargs="+")
    ps.add_argument("--columns", nargs="*", default=None)
    ps.add_argument("--filter", nargs=3, action="append", default=None,
                    metavar=("COL", "OP", "VALUE"),
                    help="e.g. --filter value '>' 75.0 (repeatable, ANDed)")
    ps.add_argument("--out", default=None,
                    help="write result to parquet; default prints a summary")

    pc = sub.add_parser(
        "curate",
        help="run the curation stack (boilerplate -> dedup -> "
        "decontam -> LM quality -> optional packing) over a corpus",
    )
    pc.add_argument("--input", required=True,
                    help="parquet file/dir with (doc_id, text)")
    pc.add_argument("--out", required=True)
    pc.add_argument("--text-col", default="text")
    pc.add_argument("--id-col", default="doc_id")
    pc.add_argument("--benchmark", default=None,
                    help="parquet of benchmark docs for n-gram decontam")
    pc.add_argument("--reference", default=None,
                    help="parquet of reference docs for the LM filter")
    pc.add_argument("--max-bits-per-token", type=float, default=None)
    pc.add_argument("--near-dup-threshold", type=float, default=0.8)
    pc.add_argument("--boilerplate-min-docs", type=int, default=10)
    pc.add_argument("--decontam-n", type=int, default=13)
    pc.add_argument("--pack-tokens", type=int, default=None,
                    help="also write packed sequences to the sibling "
                         "directory OUT_packed")

    args = p.parse_args(argv)

    if args.cmd == "manifest":  # no Ray needed
        from .state import manifest as mf

        print(json.dumps(mf.read_manifest(args.checkpoint), indent=2))
        return 0

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
    try:
        if args.cmd == "encode":
            from .pipelines.encode import encode_pipeline

            summary = encode_pipeline(
                args.input,
                args.checkpoint,
                rows_per_partition=args.rows_per_partition,
                turns_per_salt=args.turns_per_salt,
                key=args.key,
                turn_col=args.turn_col,
            )
            print(json.dumps(summary))
        elif args.cmd == "decode":
            from .pipelines.decode import decode_pipeline

            ds = decode_pipeline(args.checkpoint, columns=args.columns)
            ds.write_parquet(f"local://{args.out}")
            print(json.dumps({"written": args.out}))
        elif args.cmd == "verify":
            from .pipelines.decode import decode_pipeline
            from .pipelines.verify import verify_roundtrip

            result = verify_roundtrip(
                ray.data.read_parquet(args.input),
                decode_pipeline(args.checkpoint),
            )
            print(json.dumps(result))
            return 0 if result["match"] else 1
        elif args.cmd == "export":
            from .sources.parquet_write import write_parquet_files_native

            if args.from_checkpoint:
                from .pipelines.decode import decode_pipeline

                ds = decode_pipeline(args.input)
            else:
                ds = ray.data.read_parquet(args.input)
            manifest = write_parquet_files_native(
                ds, args.out, codec=args.codec,
                rows_per_file=args.rows_per_file,
            ).take_all()
            print(json.dumps({
                "files": len(manifest),
                "rows": int(sum(r["rows"] for r in manifest)),
                "bytes": int(sum(r["bytes"] for r in manifest)),
                "out": args.out,
            }))
        elif args.cmd == "curate":
            from .pipelines.curate import curate_corpus

            out = curate_corpus(
                ray.data.read_parquet(args.input),
                text_col=args.text_col,
                id_col=args.id_col,
                benchmark=(ray.data.read_parquet(args.benchmark)
                           if args.benchmark else None),
                reference=(ray.data.read_parquet(args.reference)
                           if args.reference else None),
                boilerplate_min_docs=args.boilerplate_min_docs,
                near_dup_threshold=args.near_dup_threshold,
                max_bits_per_token=args.max_bits_per_token,
                decontam_n=args.decontam_n,
                pack_tokens=args.pack_tokens,
            )
            out["dataset"].write_parquet(f"local://{args.out}")
            if "packed" in out:
                # a sibling, so OUT holds only the curated docs' schema
                out["packed"].write_parquet(
                    f"local://{args.out.rstrip('/')}_packed")
            print(json.dumps(out["report"]))
        elif args.cmd == "scan":
            from .sources.parquet_pages import read_parquet_native

            filters = None
            if args.filter:
                def _coerce(v: str):
                    try:
                        return int(v)
                    except ValueError:
                        try:
                            return float(v)
                        except ValueError:
                            return v
                filters = [(c, op, _coerce(v)) for c, op, v in args.filter]
            ds = read_parquet_native(
                args.input, columns=args.columns, filters=filters
            )
            if args.out:
                ds.write_parquet(f"local://{args.out}")
                print(json.dumps({"written": args.out}))
            else:
                n = 0
                schema = None
                for b in ds.iter_batches(batch_format="pyarrow"):
                    n += b.num_rows
                    schema = schema or [str(f) for f in b.schema]
                print(json.dumps({"rows": n, "schema": schema}))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
