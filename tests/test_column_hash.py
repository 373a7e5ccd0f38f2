"""The library's one column hash (``ops.bucketing.col_hash64``): what it
must keep equal to the raw XXH64 kernels (so HLL/CMS registers and
bucket ids of the ops built on it do not move), verify's row-multiset
hash built on it, and a guard against private copies of the hash."""

from __future__ import annotations

import pathlib
import re

import numpy as np
import pyarrow as pa
import pytest

import parquet_go_ray
from parquet_go_ray.functions.bloom import xxh64_bytes, xxh64_fixed
from parquet_go_ray.functions.bytearray import arrow_strings_to_parts
from parquet_go_ray.ops.bucketing import col_bucket, col_hash64
from parquet_go_ray.pipelines.verify import multiset_hash


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
def test_strings_hash_as_raw_xxh64(typ):
    arr = pa.array(["", "a", "conv-000123", "ü" * 40], typ)
    lens, data = arrow_strings_to_parts(arr)
    assert (col_hash64(arr) == xxh64_bytes(lens, data)).all()


@pytest.mark.parametrize("typ", [pa.int32(), pa.int64()])
def test_ints_hash_as_raw_xxh64(typ):
    vals = np.array([0, 1, -1, 2**31 - 1, -7], typ.to_pandas_dtype())
    assert (col_hash64(pa.array(vals, typ)) == xxh64_fixed(vals)).all()


def test_timestamps_hash_their_ticks():
    ticks = np.array([0, 1_700_000_000_000_000, -5], np.int64)
    ts = pa.array(ticks, pa.timestamp("us"))
    assert (col_hash64(ts) == xxh64_fixed(ticks)).all()
    assert (col_hash64(ts) == xxh64_fixed(ts.to_numpy())).all()


def test_nullable_int64_valid_values_hash_as_null_free():
    vals = [5, None, 7, None, -3]
    h = col_hash64(pa.array(vals, pa.int64()))
    valid = [i for i, v in enumerate(vals) if v is not None]
    free = col_hash64(pa.array([vals[i] for i in valid], pa.int64()))
    assert (h[valid] == free).all()
    assert h[1] == h[3]


def test_col_bucket_is_hash_mod_n():
    arr = pa.chunked_array([["x", "y"], ["z"]])
    pk = col_bucket(arr, 7)
    assert pk.dtype == np.int32
    assert (pk == col_hash64(arr) % np.uint64(7)).all()


def test_floats_hash_as_sql_distinct(ray_session):
    # -0.0 == 0.0 and every NaN payload is one value, as in SQL DISTINCT:
    # the sketches built on col_hash64 count [0.0, -0.0, NaN, NaN'] as 2.
    import ray

    from parquet_go_ray.ops.sketch import approx_distinct

    other_nan = np.array([0x7FF8000000000001], np.uint64).view(np.float64)
    vals = np.concatenate([[0.0, -0.0, np.nan], other_nan])
    h = col_hash64(pa.array(vals, pa.float64()))
    assert h[0] == h[1] and h[2] == h[3] and h[0] != h[2]
    t = pa.table({"f": pa.array(vals, pa.float64())})
    assert round(approx_distinct(ray.data.from_arrow(t), "f")) == 2


class TestMultisetHash:
    """verify's order-independent content hash, bit-exact per row."""

    @staticmethod
    def _t(f=(1.5, -0.0, 2.0), s=("a", None, "c"), i=(1, 2, 3)):
        return pa.table({"f": pa.array(f, pa.float64()),
                         "s": pa.array(s, pa.string()),
                         "i": pa.array(i, pa.int64())})

    def test_row_permutation_invariant(self):
        t = self._t()
        assert multiset_hash(t) == multiset_hash(t.take([2, 0, 1]))
        assert multiset_hash(t) == multiset_hash(
            pa.concat_tables([t.slice(2), t.slice(0, 2)]))

    def test_negative_zero_is_not_zero(self):
        assert multiset_hash(self._t()) != multiset_hash(
            self._t(f=(1.5, 0.0, 2.0)))

    def test_null_is_not_empty_string(self):
        assert multiset_hash(self._t()) != multiset_hash(
            self._t(s=("a", "", "c")))

    def test_swapping_two_rows_values_in_one_column(self):
        assert multiset_hash(self._t()) != multiset_hash(
            self._t(i=(2, 1, 3)))

    def test_float32_bits(self):
        a = pa.table({"f": pa.array([0.0], pa.float32())})
        b = pa.table({"f": pa.array([-0.0], pa.float32())})
        assert multiset_hash(a) != multiset_hash(b)

    def test_nested_column_raises(self):
        t = pa.table({"l": pa.array([[1], [2]], pa.list_(pa.int64()))})
        with pytest.raises(TypeError):
            multiset_hash(t)


# Modules allowed to call the raw XXH64 kernels: the kernels themselves,
# the column hash built on them, and the Parquet bloom filter (whose
# hash the Parquet spec fixes).
_RAW_XXH64_OK = {"functions/bloom.py", "ops/bucketing.py",
                 "sources/parquet_write.py"}


def test_no_private_copy_of_the_column_hash():
    root = pathlib.Path(parquet_go_ray.__file__).parent
    bad = []
    for py in sorted(root.rglob("*.py")):
        rel = py.relative_to(root).as_posix()
        text = py.read_text()
        if "hash_pandas_object" in text:
            bad.append(f"{rel}: hash_pandas_object")
        if rel not in _RAW_XXH64_OK and re.search(
                r"\bxxh64_(bytes|fixed)\(", text):
            bad.append(f"{rel}: xxh64_bytes/xxh64_fixed call")
    assert not bad, "hash columns with ops.bucketing.col_hash64: " + \
        "; ".join(bad)
