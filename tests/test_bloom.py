"""Split-block bloom filters + XXH64 (parquet-format BloomFilter.md).

The reference ships only the generated thrift shapes
(/root/reference/parquet/parquet.go BloomFilterHeader) — the codec
behind them is engine-original. External verification is limited
(pyarrow 16 / DuckDB 1.0 neither write nor read blooms), so the pins
are: published XXH64 test vectors, scalar-vs-vectorized fuzz equality,
structural fpp behavior, and files-stay-readable interop.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from parquet_go_ray.functions.bloom import (
    SplitBlockBloomFilter,
    optimal_num_blocks,
    xxh64,
    xxh64_bytes,
    xxh64_fixed,
)
from parquet_go_ray.sources.parquet_pages import (
    _bloom_value_hash,
    _rg_bloom_may_match,
    read_bloom_filter,
    read_row_group_native,
)
from parquet_go_ray.sources.parquet_write import write_parquet_native


class TestXXH64:
    def test_published_vectors(self):
        # Public XXH64 test vectors, seed 0.
        assert xxh64(b"") == 0xEF46DB3751D8E999
        assert xxh64(b"a") == 0xD24EC4F1A98C6E5B
        assert xxh64(b"abc") == 0x44BC2CF5AD770999

    def test_vectorized_equals_scalar_all_paths(self):
        # Covers <4, 4-7, 8-31 (tail combos), and >=32 (stripe) paths.
        rng = np.random.default_rng(0)
        for L in list(range(0, 67)) + [100, 255, 1024]:
            blobs = [rng.integers(0, 256, L, dtype=np.uint8).tobytes()
                     for _ in range(5)]
            lens = np.full(5, L)
            flat = np.frombuffer(b"".join(blobs), np.uint8)
            got = list(xxh64_bytes(lens, flat))
            assert got == [xxh64(b) for b in blobs], f"L={L}"

    def test_fixed_width_matches_plain_bytes(self):
        rng = np.random.default_rng(1)
        iv = rng.integers(-(2**62), 2**62, 100)
        assert list(xxh64_fixed(iv)) == [
            xxh64(int(x).to_bytes(8, "little", signed=True)) for x in iv
        ]
        fv = rng.normal(size=100).astype(np.float32)
        assert list(xxh64_fixed(fv)) == [
            xxh64(np.float32(x).tobytes()) for x in fv
        ]

    def test_mixed_lengths_bucketing(self):
        blobs = [b"", b"x", b"hello", b"x" * 40, b"hello", b"y" * 40]
        lens = np.array([len(b) for b in blobs])
        flat = np.frombuffer(b"".join(blobs), np.uint8)
        got = list(xxh64_bytes(lens, flat))
        assert got == [xxh64(b) for b in blobs]
        assert got[2] == got[4]  # equal inputs, equal hashes

    def test_many_lengths_in_one_batch_equal_scalar(self):
        # Rows of every length class interleaved in one call: stripe
        # counts and tail steps differ row by row.
        rng = np.random.default_rng(2)
        lens = rng.permutation(np.concatenate(
            [np.arange(0, 140), rng.integers(0, 400, 200)]))
        blobs = [rng.integers(0, 256, L, dtype=np.uint8).tobytes()
                 for L in lens]
        flat = np.frombuffer(b"".join(blobs), np.uint8)
        assert list(xxh64_bytes(lens, flat)) == [xxh64(b) for b in blobs]


class TestSBBF:
    def test_insert_query_and_fpp(self):
        n = 20_000
        bf = SplitBlockBloomFilter(optimal_num_blocks(n, 0.01))
        h = xxh64_fixed(np.arange(n, dtype=np.int64))
        bf.insert_hashes(h)
        assert bool(bf.contains_hashes(h).all())  # no false negatives
        absent = xxh64_fixed(np.arange(10**7, 10**7 + 50_000, dtype=np.int64))
        fp = bf.contains_hashes(absent).mean()
        assert fp < 0.02  # sized for 1% (power-of-2 round-up helps)

    def test_serialize_roundtrip(self):
        bf = SplitBlockBloomFilter(8)
        bf.insert_hashes(xxh64_fixed(np.arange(100, dtype=np.int64)))
        back = SplitBlockBloomFilter.from_bytes(bf.to_bytes())
        assert back.num_blocks == 8
        assert (back.words == bf.words).all()
        with pytest.raises(ValueError):
            SplitBlockBloomFilter.from_bytes(b"\x00" * 33)

    def test_sizing_monotone(self):
        assert optimal_num_blocks(10, 0.01) >= 1
        assert optimal_num_blocks(10**6, 0.01) > optimal_num_blocks(10**3, 0.01)
        assert optimal_num_blocks(10**4, 0.001) > optimal_num_blocks(10**4, 0.1)


def _bloom_table(n=4000, seed=7):
    rng = np.random.default_rng(seed)
    return pa.table({
        "id": pa.array(rng.permutation(n * 10)[:n].astype(np.int64)),
        "name": pa.array([f"u-{i * 13 % 2048}" for i in range(n)]),
        "score": pa.array(rng.normal(size=n)),
        "tag": pa.array(
            [bytes([i % 256] * 4) for i in range(n)], pa.binary(4)
        ),
    })


class TestFileLoop:
    def test_write_read_and_membership(self, tmp_path):
        t = _bloom_table()
        path = str(tmp_path / "b.parquet")
        write_parquet_native(
            t, path, row_group_rows=1000,
            bloom_filter_columns=["id", "name", "tag"],
        )
        assert pq.read_table(path).equals(t)  # files stay standard
        assert read_row_group_native(path, 1).equals(t.slice(1000, 1000))
        assert read_bloom_filter(path, 0, 2) is None  # score: no bloom
        bf = read_bloom_filter(path, 2, 0)
        ids = t.column("id").slice(2000, 1000).to_pylist()
        assert all(
            bf.contains(_bloom_value_hash(v, "INT64", 0)) for v in ids[:300]
        )
        other = [int(v) + 10**9 for v in ids[:300]]
        fp = sum(
            bf.contains(_bloom_value_hash(v, "INT64", 0)) for v in other
        )
        assert fp <= 15
        bft = read_bloom_filter(path, 0, 3)  # FLBA
        assert bft.contains(
            _bloom_value_hash(bytes([5] * 4), "FIXED_LEN_BYTE_ARRAY", 4)
        )

    def test_duckdb_ignores_bloom_region(self, tmp_path):
        import duckdb

        t = _bloom_table(1500)
        path = str(tmp_path / "dd.parquet")
        write_parquet_native(t, path, bloom_filter_columns=["id"])
        n, s = duckdb.sql(
            f"SELECT count(*), sum(id) FROM read_parquet('{path}')"
        ).fetchone()
        assert n == 1500 and s == sum(t.column("id").to_pylist())

    def test_rg_bloom_pruning_decides_correctly(self, tmp_path):
        # Shuffled ids: every row group spans the full min/max range, so
        # zone maps can never prune — exactly the case blooms exist for.
        t = _bloom_table(4000, seed=9)
        path = str(tmp_path / "p.parquet")
        write_parquet_native(
            t, path, row_group_rows=1000, bloom_filter_columns=["id"]
        )
        md = pq.ParquetFile(path).metadata
        n2i = {"id": 0}
        ids = t.column("id").to_pylist()
        target = ids[2500]  # lives in row group 2 only
        keep = [
            _rg_bloom_may_match(path, pq.ParquetFile(path).metadata, g,
                                n2i, [("id", "==", target)])
            for g in range(md.num_row_groups)
        ]
        assert keep[2] is True  # never a false negative
        assert sum(keep) <= 2  # others pruned (tiny fp allowance)
        # non-equality ops and bloom-less columns never prune
        assert _rg_bloom_may_match(path, md, 0, n2i, [("id", ">", 0)])
        assert _rg_bloom_may_match(
            path, md, 0, {"score": 2}, [("score", "==", 0.5)]
        )

    def test_distributed_read_with_eq_filter(self, ray_session, tmp_path):
        from parquet_go_ray.sources.parquet_pages import read_parquet_native

        t = _bloom_table(4000, seed=11)
        path = str(tmp_path / "d.parquet")
        write_parquet_native(
            t, path, row_group_rows=500, bloom_filter_columns=["id"]
        )
        target = int(t.column("id")[1234].as_py())
        got = read_parquet_native(
            path, columns=["id", "name"], filters=[("id", "==", target)]
        ).to_pandas()
        assert list(got["id"]) == [target]
        assert list(got["name"]) == [t.column("name")[1234].as_py()]

    def test_struct_child_and_fpp_dict(self, tmp_path):
        t = pa.table({
            "s": pa.array(
                [{"a": i, "b": f"k{i % 50}"} for i in range(800)],
                pa.struct([("a", pa.int64()), ("b", pa.string())]),
            ),
        })
        path = str(tmp_path / "s.parquet")
        write_parquet_native(
            t, path, bloom_filter_columns={"s.a": 0.005}
        )
        assert pq.read_table(path).equals(t)
        bf = read_bloom_filter(path, 0, 0)
        assert bf is not None
        assert bf.contains(_bloom_value_hash(17, "INT64", 0))
        assert read_bloom_filter(path, 0, 1) is None


class TestUnsignedLiterals:
    """ADVICE r4: INT32/INT64 literals >= 2^31 / 2^63 (the UINT domain)
    used to raise OverflowError out of the signed to_bytes encode — and
    the read task crashed instead of probing the bloom filter."""

    def test_value_hash_uint_domain(self):
        # unsigned bit pattern == what the writer hashed
        assert _bloom_value_hash(2**63 + 5, "INT64", 0) == _bloom_value_hash(
            (2**63 + 5) - 2**64, "INT64", 0
        )
        assert _bloom_value_hash(2**31 + 7, "INT32", 0) == _bloom_value_hash(
            (2**31 + 7) - 2**32, "INT32", 0
        )

    def test_uint64_bloom_filter_end_to_end(self, ray_session, tmp_path):
        from parquet_go_ray.sources.parquet_pages import read_parquet_native

        rng = np.random.default_rng(3)
        vals = (rng.permutation(4000).astype(np.uint64) + (1 << 63))
        t = pa.table({"u": pa.array(vals, pa.uint64()),
                      "i": pa.array(np.arange(4000, dtype=np.int64))})
        path = str(tmp_path / "u.parquet")
        write_parquet_native(
            t, path, row_group_rows=1000, bloom_filter_columns=["u"]
        )
        target = int(vals[2345])
        md = pq.ParquetFile(path).metadata
        keep = [
            _rg_bloom_may_match(path, md, g, {"u": 0}, [("u", "==", target)])
            for g in range(md.num_row_groups)
        ]
        assert keep[2] is True and sum(keep) <= 2
        got = read_parquet_native(
            path, filters=[("u", "==", target)]
        ).to_pandas()
        assert list(got["u"]) == [target] and list(got["i"]) == [2345]
