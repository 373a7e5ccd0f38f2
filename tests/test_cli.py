"""CLI surface smoke tests (subprocess — the CLI owns its own Ray
session, so it cannot run inside the suite's session fixture)."""

from __future__ import annotations

import json
import subprocess
import sys


def _run(args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "parquet_go_ray.cli"] + args,
        capture_output=True, text=True, timeout=timeout,
        cwd="/root/repo",
    )


class TestCli:
    def test_curate_subcommand(self, tmp_path):
        out = str(tmp_path / "curated")
        r = _run([
            "curate",
            "--input", "/root/testdata/sf0.001/documents.parquet",
            "--out", out,
            "--near-dup-threshold", "0.8",
        ])
        assert r.returncode == 0, r.stderr[-2000:]
        rep = json.loads(r.stdout.strip().splitlines()[-1])
        assert rep["before"]["docs"] == 500
        assert 0 < rep["after"]["docs"] <= 500
        assert rep["docs_removed"] == \
            rep["before"]["docs"] - rep["after"]["docs"]
        import pyarrow.parquet as pq

        got = pq.read_table(out)
        assert got.num_rows == rep["after"]["docs"]
        assert "text" in got.column_names

    def test_curate_packs_outside_curated_output(self, tmp_path):
        """``--pack-tokens`` writes the packs to the sibling
        ``OUT_packed``; reading ``OUT`` back gives only the curated
        docs (packs inside OUT made it read the packed schema)."""
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        rng = np.random.default_rng(3)
        words = np.array([f"w{i}" for i in range(400)])
        docs = str(tmp_path / "docs.parquet")
        pq.write_table(pa.table({
            "doc_id": pa.array(range(300), pa.int64()),
            "text": [" ".join(rng.choice(words, int(n)))
                     for n in rng.integers(10, 80, 300)],
        }), docs)
        out = str(tmp_path / "curated")
        r = _run([
            "curate", "--input", docs, "--out", out,
            "--pack-tokens", "64",
        ])
        assert r.returncode == 0, r.stderr[-2000:]
        rep = json.loads(r.stdout.strip().splitlines()[-1])
        got = pq.read_table(out)
        assert got.num_rows == rep["after"]["docs"]
        assert "text" in got.column_names
        packs = pq.read_table(out + "_packed")
        assert packs.num_rows > 0 and "pack_id" in packs.column_names

    def test_encode_then_verify(self, tmp_path):
        import pyarrow.parquet as pq

        from parquet_go_ray.sources.transcripts import generate_transcripts

        inp = tmp_path / "in"
        inp.mkdir()
        t = generate_transcripts(2000, seed=7)
        pq.write_table(t, str(inp / "t.parquet"))
        ckpt = str(tmp_path / "ckpt")
        r = _run([
            "encode", "--input", str(inp), "--checkpoint", ckpt,
            "--rows-per-partition", "500",
        ])
        assert r.returncode == 0, r.stderr[-2000:]
        summary = json.loads(r.stdout.strip().splitlines()[-1])
        assert summary["rows_encoded"] == t.num_rows
        assert summary["partitions"] >= 2

        r = _run(["verify", "--input", str(inp), "--checkpoint", ckpt])
        assert r.returncode == 0, r.stderr[-2000:]
        result = json.loads(r.stdout.strip().splitlines()[-1])
        assert result["match"] and result["rows_out"] == t.num_rows

    def test_bad_subcommand_exits_nonzero(self):
        r = _run(["frobnicate"], timeout=60)
        assert r.returncode != 0
