"""Column projection, zone-map pruning, codec registry, INT96 tests."""

import numpy as np
import pyarrow as pa
import pytest

from parquet_go_ray.functions import registry
from parquet_go_ray.functions.plain import int96_decode_timestamps
from parquet_go_ray.sources.transcripts import generate_transcripts
from parquet_go_ray.state.blob import decode_table, encode_table


def test_decode_projection():
    t = generate_transcripts(1000, seed=2)
    blob, _ = encode_table(t)
    out = decode_table(blob, columns=["text", "conv_id"])
    assert out.column_names == ["text", "conv_id"]
    assert out.combine_chunks().column("text").equals(
        t.combine_chunks().column("text")
    )
    with pytest.raises(KeyError):
        decode_table(blob, columns=["nope"])


def test_registry_builtins_present():
    names = set(registry.all_codecs())
    assert {"plain", "dict", "rle", "delta", "for", "delta_length",
            "delta_prefix", "fsst"} <= names
    assert {c.name for c in registry.codecs_for_family("bytes")} >= {
        "plain", "dict", "delta_length", "delta_prefix", "fsst"
    }


def test_registry_custom_codec_roundtrip():
    """A user codec registered by name becomes usable end-to-end."""
    import zlib

    from parquet_go_ray.functions.bytearray import (
        arrow_strings_to_parts,
        parts_to_arrow_strings,
    )
    from parquet_go_ray.functions.column import decode_values, encode_values

    def enc(values):
        lens, data = arrow_strings_to_parts(values)
        payload = (
            len(lens).to_bytes(4, "little")
            + lens.astype("<i8").tobytes()
            + zlib.compress(data.tobytes())
        )
        return payload, {}

    def dec(payload, typ, count):
        n = int.from_bytes(payload[:4], "little")
        assert n == count
        lens = np.frombuffer(payload[4 : 4 + 8 * n], dtype="<i8")
        data = np.frombuffer(zlib.decompress(payload[4 + 8 * n :]), dtype=np.uint8)
        return parts_to_arrow_strings(lens.copy(), data)

    registry.register(
        registry.Codec(name="test_zlib", families={"bytes"}, encode=enc, decode=dec)
    )
    try:
        arr = pa.array(["hello", "world", "hello world"] * 20)
        payload, _ = encode_values(arr, "test_zlib")
        out = decode_values(payload, "test_zlib", pa.string(), len(arr))
        assert out.equals(arr)
    finally:
        registry._REGISTRY.pop("test_zlib", None)


def test_int96_decode():
    # 1970-01-02T00:00:00.000000005 = day 2440589, 5 ns into the day.
    raw = (5).to_bytes(8, "little") + (2440589).to_bytes(4, "little")
    out = int96_decode_timestamps(raw, 1)
    assert out[0] == 86_400_000_000_000 + 5
    # Epoch day itself.
    raw2 = (0).to_bytes(8, "little") + (2440588).to_bytes(4, "little")
    assert int96_decode_timestamps(raw2, 1)[0] == 0


def test_int96_encode_roundtrip():
    """INT96 wire parity both directions (ref types/int96.go:13-75);
    pre-1970 values exercise the floor-division day split."""
    import numpy as np

    from parquet_go_ray.functions.plain import int96_encode_timestamps

    ns_day = 86_400_000_000_000
    vals = np.array(
        [0, 5, ns_day + 5, -1, -ns_day, -ns_day - 7, 3 * ns_day // 2],
        dtype=np.int64,
    )
    raw = int96_encode_timestamps(vals)
    assert len(raw) == 12 * len(vals)
    back = int96_decode_timestamps(raw, len(vals))
    assert (back == vals).all()
    # Golden: epoch+5ns encodes as nanos=5, julian day 2440588.
    one = int96_encode_timestamps(np.array([5], dtype=np.int64))
    assert one == (5).to_bytes(8, "little") + (2440588).to_bytes(4, "little")
    # -1 ns = last nanosecond of the PREVIOUS julian day.
    neg = int96_encode_timestamps(np.array([-1], dtype=np.int64))
    assert neg == (ns_day - 1).to_bytes(8, "little") + (2440587).to_bytes(4, "little")


class TestZoneMapPruning:
    @pytest.fixture(scope="class")
    def ckpt(self, tmp_path_factory):
        import pyarrow.parquet as pq

        from parquet_go_ray.pipelines.encode import encode_pipeline

        path = tmp_path_factory.mktemp("zin")
        t = generate_transcripts(6000, seed=13)
        pq.write_table(t, str(path / "t.parquet"))
        ck = str(tmp_path_factory.mktemp("zck") / "c")
        return ck, path, t

    def test_prune_and_filter(self, ray_session, ckpt):
        from parquet_go_ray.pipelines.decode import decode_pipeline
        from parquet_go_ray.pipelines.encode import encode_pipeline

        ck, path, t = ckpt
        encode_pipeline(str(path), ck, rows_per_partition=1500)

        # Column projection through the pipeline.
        ds = decode_pipeline(ck, columns=["conv_id", "turn_idx"], concurrency=(1, 2))
        got = ds.take_batch(10, batch_format="pyarrow")
        assert got.column_names == ["conv_id", "turn_idx"]

        # Predicate with impossible range prunes every partition.
        empty = decode_pipeline(
            ck, predicate=("turn_idx", ">", 10_000_000), concurrency=(1, 2)
        )
        assert empty.count() == 0

        # Real predicate: row-exact filtering.
        sel = decode_pipeline(ck, predicate=("turn_idx", "==", 0), concurrency=(1, 2))
        import pyarrow.compute as pc

        expect = pc.sum(pc.equal(t.column("turn_idx"), 0)).as_py()
        assert sel.count() == expect


def test_zonemap_truncated_string_max_not_pruned():
    """A 64-char-capped string max is a prefix (lexicographically smaller)
    of the true max; pruning must keep the partition for max-side and
    equality predicates (ADVICE r1)."""
    from parquet_go_ray.functions.column import encode_column
    from parquet_go_ray.pipelines.decode import _partition_may_match

    arr = pa.array(["x" * 100, "apple"])
    _, _, meta = encode_column(arr, "plain")
    assert meta["stats"].get("max_trunc") is True
    entry = {"columns": {"text": {"stats": meta["stats"]}}}
    # True max is 'x'*100 > 'x'*70: partition must survive.
    assert _partition_may_match(entry, ("text", ">", "x" * 70))
    assert _partition_may_match(entry, ("text", ">=", "x" * 100))
    assert _partition_may_match(entry, ("text", "==", "x" * 100))
    # Min side is unaffected by max truncation and stays exact.
    assert not _partition_may_match(entry, ("text", "<", "apple"))
    assert _partition_may_match(entry, ("text", "<", "applf"))
    # Equality below the recorded min is still prunable.
    assert not _partition_may_match(entry, ("text", "==", "aaa"))

    # Untruncated strings keep exact max-side pruning.
    _, _, meta2 = encode_column(pa.array(["b", "m"]), "plain")
    assert "max_trunc" not in meta2["stats"]
    e2 = {"columns": {"text": {"stats": meta2["stats"]}}}
    assert not _partition_may_match(e2, ("text", ">", "z"))
