"""Input-size-derived coarse-bucket counts (VERDICT r4 item 5): the
fixed 64-bucket default meant a 1/64 slice of the input per map_groups
task no matter the scale. num_buckets now derives from the dataset's
metadata size estimate so per-bucket input bytes stay near a target."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray

from parquet_go_ray.ops.bucketing import (
    DEFAULT_NUM_BUCKETS,
    derive_num_buckets,
    estimated_size_bytes,
)


@pytest.fixture()
def big_parquet(tmp_path):
    rng = np.random.default_rng(11)
    n = 200_000
    t = pa.table({
        "k": rng.integers(0, 10_000, n),
        "v": rng.normal(size=n),
        "pad": [f"pad-{i % 977:06d}" for i in range(n)],
    })
    path = str(tmp_path / "big.parquet")
    pq.write_table(t, path)
    return path, t


def test_scales_with_input_and_respects_bounds(ray_session, big_parquet):
    path, t = big_parquet
    ds = ray.data.read_parquet(path)
    est = estimated_size_bytes(ds)
    assert est and est > 1_000_000  # metadata-only estimate exists

    # default ~1 GiB target: small input keeps the historical default
    assert derive_num_buckets(ds) == DEFAULT_NUM_BUCKETS
    # forcing a small target scales the count with input size
    target = 64 * 1024
    nb = derive_num_buckets(ds, target_bucket_bytes=target)
    assert nb == min(1 << 16, max(64, -(-est // target)))
    assert nb > DEFAULT_NUM_BUCKETS
    # cap
    assert derive_num_buckets(ds, target_bucket_bytes=1) == 1 << 16


def test_per_bucket_bytes_bounded_on_skewed_keys(ray_session, big_parquet):
    """With the derived count, per-bucket input bytes stay within a
    small multiple of the target even when key frequencies are skewed
    (hash-uniform buckets; only a single mega-key could exceed it)."""
    path, t = big_parquet
    ds = ray.data.read_parquet(path)
    est = estimated_size_bytes(ds)
    target = 256 * 1024
    nb = derive_num_buckets(ds, target_bucket_bytes=target)

    # Zipf-skewed key draw over 10k distinct keys
    rng = np.random.default_rng(5)
    keys = (rng.zipf(1.3, size=200_000) % 10_000).astype(np.int64)
    from parquet_go_ray.ops.bucketing import col_bucket

    pk = col_bucket(pa.array(keys), nb)
    counts = np.bincount(pk, minlength=nb)
    bytes_per_row = est / len(t)
    peak = counts.max() * bytes_per_row
    # a single mega-key is irreducible by hashing (it must land in ONE
    # bucket — salting is the separate skew tool); beyond it, hash
    # dispersion keeps every bucket within a small multiple of target
    hottest_key = np.bincount(keys).max() * bytes_per_row
    assert peak <= hottest_key + 4 * target, (peak, hottest_key, target, nb)
    # and the non-mega-key mass spreads: remove the single hottest key
    # and the residual peak is near-uniform
    top = np.bincount(keys).argmax()
    pk2 = col_bucket(pa.array(keys[keys != top]), nb)
    resid_peak = np.bincount(pk2, minlength=nb).max() * bytes_per_row
    assert resid_peak <= 4 * max(target, est / nb), (resid_peak, target, nb)


def test_unknown_size_falls_back_to_default(ray_session):
    ds = ray.data.from_items([{"a": i} for i in range(100)]).map_batches(
        lambda b: b, batch_format="pyarrow"
    )
    # transformed plan: metadata inference may not know the size; the
    # helper must never execute the plan to find out
    nb = derive_num_buckets(ds)
    assert nb >= DEFAULT_NUM_BUCKETS


class TestColHash64:
    """Null-safe whole-row routing hash (set_op / rollup exchanges)."""

    def test_equality_consistent_across_types(self):
        import pyarrow as pa
        from parquet_go_ray.ops.bucketing import col_hash64

        # equal values hash equal regardless of construction; nulls
        # collapse to one stamp; -0.0 ≡ +0.0; NaN ≡ NaN
        f = col_hash64(pa.array([0.0, -0.0, float("nan"), float("nan"),
                                 None, None, 1.5]))
        assert f[0] == f[1] and f[2] == f[3] and f[4] == f[5]
        assert f[0] != f[6] and f[4] != f[0]

        s = col_hash64(pa.array(["x", "x", None, ""]))
        assert s[0] == s[1] and s[2] != s[3]  # null is NOT ""

        import datetime
        ts = pa.array(
            [datetime.datetime(2024, 1, 1), None,
             datetime.datetime(2024, 1, 1)],
            pa.timestamp("us"),
        )
        h = col_hash64(ts)
        assert h[0] == h[2] and h[1] != h[0]

        import decimal
        d = pa.array([decimal.Decimal("1.50"), None,
                      decimal.Decimal("1.50")],
                     pa.decimal128(10, 2))
        hd = col_hash64(d)  # string-form fallback path
        assert hd[0] == hd[2] and hd[1] != hd[0]

    def test_nested_rejected(self):
        import pyarrow as pa
        import pytest
        from parquet_go_ray.ops.bucketing import col_hash64

        with pytest.raises(TypeError, match="nested"):
            col_hash64(pa.array([[1], [2]], pa.list_(pa.int64())))

    def test_multi_bucket_routing_stable(self, rng):
        import pyarrow as pa
        from parquet_go_ray.ops.bucketing import multi_bucket_hash

        t = pa.table({
            "a": pa.array(rng.integers(0, 50, 1000)),
            "b": pa.array([f"s{i % 7}" for i in range(1000)]),
        })
        pk1 = multi_bucket_hash(t, ["a", "b"], 64)
        pk2 = multi_bucket_hash(t, ["a", "b"], 64)
        assert (pk1 == pk2).all()
        # equal rows route to equal buckets: duplicate the table
        import numpy as np
        dup = pa.concat_tables([t, t])
        pkd = multi_bucket_hash(dup, ["a", "b"], 64)
        assert (pkd[:1000] == pkd[1000:]).all()
        # [] keys → bucket 0 (grand total)
        assert (multi_bucket_hash(t, [], 8) == 0).all()
