"""Column-level encode/decode + codec auto-selector tests."""

import numpy as np
import pyarrow as pa
import pytest

from parquet_go_ray.functions.column import (
    decode_column,
    decode_values,
    encode_column,
    encode_values,
)
from parquet_go_ray.functions.selector import (
    candidate_codecs,
    column_stats,
    select_codec,
)


def col_roundtrip(arr, codec, compression="none"):
    vseg, seg, meta = encode_column(arr, codec, compression)
    out = decode_column(vseg, seg, meta, arr.type)
    if pa.types.is_floating(arr.type):
        # Bitwise comparison (NaN-safe), per the bit-identical decode rule.
        assert arr.is_valid().equals(out.is_valid())
        a = arr.drop_null().to_numpy(zero_copy_only=False)
        b = out.drop_null().to_numpy(zero_copy_only=False)
        assert (a.view(np.uint64) == b.view(np.uint64)).all()
    else:
        assert out.equals(
            arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        )
    return meta


@pytest.mark.parametrize(
    "arr,codec",
    [
        (pa.array([1, 2, 3, None, 5], pa.int32()), "for"),
        (pa.array([1, 2, 3, None, 5], pa.int64()), "delta"),
        (pa.array(["a", None, "bb", None, "ccc"]), "delta_length"),
        (pa.array(["x", "y", "x", None] * 10), "dict"),
        (pa.array([True, None, False, True]), "rle"),
        (pa.array([1.5, None, float("nan"), -0.0]), "plain"),
        (pa.array([None, None, None], pa.string()), "plain"),  # all-null
    ],
)
def test_nullable_roundtrip(arr, codec):
    meta = col_roundtrip(arr, codec)
    assert meta["null_count"] == arr.null_count


def test_timestamp_roundtrip():
    ts = pa.array(
        [1_700_000_000_000_000 + i * 1_000_000 for i in range(100)],
        pa.timestamp("us"),
    )
    col_roundtrip(ts, "delta")
    col_roundtrip(ts, "for")


def test_compressed_column_roundtrip():
    arr = pa.array(["hello world"] * 500 + [None] * 20)
    meta = col_roundtrip(arr, "delta_length", "zstd")
    assert meta["compression"] == "zstd"


def test_stats_recorded():
    _, _, meta = encode_column(pa.array([5, 1, None, 9]), "plain")
    assert meta["stats"] == {"min": 1, "max": 9}
    assert meta["null_count"] == 1
    # Booleans: no min/max, like the reference (datastore/boolean.go:35-45).
    _, _, bmeta = encode_column(pa.array([True, False]), "plain")
    assert bmeta["stats"] == {}


def test_illegal_codec_rejected():
    with pytest.raises(ValueError):
        encode_values(pa.array([1.5, 2.5]), "delta")  # floats: plain/dict only
    with pytest.raises(ValueError):
        encode_values(pa.array(["a"]), "for")


class TestSelector:
    def test_low_cardinality_compresses_hard(self):
        arr = pa.array(["user", "assistant", "tool"] * 2000)
        codec, compression, stats = select_codec(arr)
        # dict must be in the pruned candidates; the winner (dict, or
        # plain+zstd on this degenerate cyclic input) must be tiny.
        assert "dict" in candidate_codecs(arr.type, stats)
        assert stats["sample_bytes_per_row"] < 0.5

    def test_sorted_ints_prefer_delta_or_for(self):
        arr = pa.array(np.arange(10_000, dtype=np.int64) * 1_000_000)
        codec, _, _ = select_codec(arr)
        assert codec in ("delta", "for")

    def test_high_entropy_text_gets_compressed(self, rng):
        words = ["".join(rng.choice(list("abcdefgh"), 8)) for _ in range(2000)]
        arr = pa.array([" ".join(rng.choice(words, 30)) for _ in range(500)])
        codec, compression, _ = select_codec(arr)
        assert compression == "zstd" or codec == "fsst"

    def test_bool_runs_prefer_rle(self):
        arr = pa.array([True] * 1000 + [False] * 1000)
        codec, _, _ = select_codec(arr)
        assert codec == "rle"

    def test_deterministic(self):
        arr = pa.array(["x", "y"] * 500)
        assert select_codec(arr) == select_codec(arr)

    def test_legality_respected(self):
        stats = column_stats(pa.array([1.0, 2.0] * 100))
        cands = candidate_codecs(pa.float64(), stats)
        assert set(cands) <= {"plain", "dict"}

    @pytest.mark.parametrize(
        "typ,legal",
        [
            (pa.bool_(), {"plain", "rle"}),
            (pa.int32(), {"plain", "dict", "delta", "for"}),
            (pa.int64(), {"plain", "dict", "delta", "for"}),
            (pa.float64(), {"plain", "dict"}),
            (pa.string(),
             {"plain", "dict", "delta_length", "delta_prefix", "fsst"}),
            (pa.binary(16),
             {"plain", "dict", "delta_length", "delta_prefix", "fsst"}),
            (pa.decimal128(10, 2), {"plain"}),
            (pa.month_day_nano_interval(), {"plain"}),
        ],
    )
    def test_legal_codecs_pinned(self, typ, legal):
        """Guard against drift: the registry's built-in table is the one
        legality source, and each physical family keeps its set."""
        from parquet_go_ray.functions.selector import legal_codecs

        assert set(legal_codecs(typ)) == legal

    def test_choice_does_not_depend_on_native_kernels(self):
        """The (codec, compression) choice and the blob bytes are the same
        whether or not the native kernels load: a sorted, path-like column
        whose fsst and delta_prefix trials land within the 5% near-tie
        band, encoded here and in a child process that has both kernels
        switched off before the selector is imported."""
        import json
        import os
        import subprocess
        import sys

        script = """
import hashlib, json, sys

import numpy as np
import pyarrow as pa

from parquet_go_ray.functions import _fsst_native, _wire_native

if sys.argv[1] == "off":
    _fsst_native._LIB, _fsst_native._TRIED = None, True
    _wire_native._LIB, _wire_native._TRIED = None, True

from parquet_go_ray.functions.selector import select_codec
from parquet_go_ray.state.blob import encode_table

rng = np.random.default_rng(5)
vocab = ["".join(rng.choice(list("abcdefgh"), 9)) for _ in range(13)]
col = pa.array(sorted({"/".join(rng.choice(vocab, 7)) for _ in range(5000)}))
codec, compression, _ = select_codec(col)
blob, _ = encode_table(pa.table({"path": col}))
print(json.dumps([codec, compression, hashlib.sha256(blob).hexdigest(),
                  _fsst_native.lib() is not None]))
"""
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

        def run(mode: str) -> list:
            proc = subprocess.run(
                [sys.executable, "-c", script, mode], cwd=repo,
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": repo},
            )
            assert proc.returncode == 0, proc.stderr[-3000:]
            return json.loads(proc.stdout.strip().splitlines()[-1])

        native, numpy_only = run("on"), run("off")
        assert numpy_only[3] is False
        assert native[:3] == numpy_only[:3]


def test_library_reads_no_environment():
    """Guard against re-growth: no module of the package reads
    ``os.environ`` or ``os.getenv``, so a blob's bytes depend only on
    its rows and never on the process that wrote it."""
    import ast
    import pathlib

    import parquet_go_ray

    root = pathlib.Path(parquet_go_ray.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in (
                "environ", "getenv"
            ):
                found.append((str(path.relative_to(root)), node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                a.name in ("environ", "getenv") for a in node.names
            ):
                found.append((str(path.relative_to(root)), node.lineno))
    assert not found, found
