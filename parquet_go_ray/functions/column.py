"""Column-level encode/decode: logical type ↔ physical codec dispatch,
null handling via RLE'd definition levels, per-column stats.

The engine analogue of the reference's ColumnStore write/read paths
(/root/reference/datastore/column.go:42-177): nulls are *not* stored in
the value stream — a definition level 0 marks a null and only advances
levels (ref datastore/column.go:136-142, datastore/dict.go:55-59). Our
flat transcript schema needs def levels ≡ the Arrow validity bitmap,
RLE-encoded at bit width 1 with the v1 4-byte size prefix; all-valid
columns store nothing (the reference's ConstDecoder case, SURVEY §1.4).

Min/max/null-count stats mirror datastore/{int32,byte-array}.go typed
stat stores; booleans carry no min/max, exactly like the reference
(datastore/boolean.go:35-45).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .bytearray import (
    arrow_strings_to_parts,
    delta_length_decode,
    delta_length_encode,
    delta_prefix_decode,
    delta_prefix_encode,
    parts_to_arrow_strings,
    plain_decode_bytes,
    plain_encode_bytes,
)
from .delta import delta_decode, delta_encode
from .dictionary import dict_decode, dict_encode
from .for_bitpack import for_decode, for_encode
from .fsst import fsst_decode, fsst_encode
from .hybrid import hybrid_decode_sized, hybrid_encode_sized
from .plain import (
    plain_decode_bool,
    plain_decode_numeric,
    plain_encode_bool,
    plain_encode_numeric,
    rle_decode_bool,
    rle_encode_bool,
)

__all__ = [
    "encode_values",
    "decode_values",
    "encode_column",
    "decode_column",
]


def _physical(typ: pa.DataType) -> str:
    """Physical families: 'int32' 'int64' 'float32' 'float64' 'bool'
    'bytes' 'decimal128' (SURVEY §1.2/§1.3 logical-type mapping)."""
    if pa.types.is_boolean(typ):
        return "bool"
    if (
        pa.types.is_timestamp(typ)
        or pa.types.is_date64(typ)
        or pa.types.is_time64(typ)
        or pa.types.is_duration(typ)
    ):
        return "int64"
    if pa.types.is_interval(typ):
        # month_day_nano: 16-byte fixed values, raw-buffer path like
        # DECIMAL-as-FIXED_LEN_BYTE_ARRAY (ref datastore/byte-array.go:34-54;
        # INTERVAL logical type in schema.json:169-236).
        return "decimal128"
    if pa.types.is_date32(typ) or pa.types.is_time32(typ):
        return "int32"
    if pa.types.is_unsigned_integer(typ):
        # uint32/uint64 don't fit their signed width; widen or reinterpret.
        return "int64" if typ.bit_width >= 32 else "int32"
    if pa.types.is_integer(typ):
        return "int64" if typ.bit_width > 32 else "int32"
    if pa.types.is_float32(typ):
        return "float32"
    if pa.types.is_floating(typ):
        return "float64"
    if pa.types.is_decimal128(typ):
        return "decimal128"
    if (
        pa.types.is_string(typ)
        or pa.types.is_large_string(typ)
        or pa.types.is_binary(typ)
        or pa.types.is_large_binary(typ)
        or pa.types.is_fixed_size_binary(typ)
    ):
        return "bytes"
    raise TypeError(f"unsupported column type: {typ}")


_FAMS_ALL = frozenset({"int32", "int64", "float32", "float64", "bool", "bytes"})

# The built-in codecs: id -> (physical families it is legal for, speed
# rank). The selector reads legality and its near-tie break (higher =
# faster single-core encode) from here through the registry. Ranks are
# constants: whether a native kernel loads changes speed, never which
# codec a blob holds (fsst ranks with dict on every host).
_BUILTINS: dict[str, tuple[frozenset, int]] = {
    "plain": (_FAMS_ALL | {"decimal128"}, 5),
    "dict": (_FAMS_ALL - {"bool"}, 3),
    "rle": (frozenset({"bool"}), 4),
    "delta": (frozenset({"int32", "int64"}), 4),
    "for": (frozenset({"int32", "int64"}), 4),
    "delta_length": (frozenset({"bytes"}), 5),
    "delta_prefix": (frozenset({"bytes"}), 2),
    "fsst": (frozenset({"bytes"}), 3),
}


_PHYS_NP = {
    "int32": np.int32,
    "int64": np.int64,
    "float32": np.float32,
    "float64": np.float64,
}


def _to_physical_numpy(values: pa.Array, phys: str) -> np.ndarray:
    typ = values.type
    if pa.types.is_uint64(typ):
        values = values.view(pa.int64())  # bit reinterpretation, no range check
    elif phys in ("int32", "int64") and not pa.types.is_integer(typ):
        values = values.cast(pa.int64() if phys == "int64" else pa.int32())
    elif pa.types.is_integer(typ) and typ.bit_width <= 32 and phys == "int32":
        values = values.cast(pa.int32())
    elif pa.types.is_integer(typ) and phys == "int64" and typ.bit_width < 64:
        values = values.cast(pa.int64())
    return values.to_numpy(zero_copy_only=False).astype(_PHYS_NP[phys], copy=False)


def encode_values(values: pa.Array, codec: str) -> tuple[bytes, dict]:
    """Encode a null-free value array with the given codec id.

    Built-in ids dispatch directly; anything else resolves through the
    codec registry (functions/registry.py — the user-extension surface).
    Returns (payload, meta). meta may carry symtab_hash / dict sizes.
    """
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if codec not in _BUILTINS:
        from . import registry

        return registry.get(codec).encode(values)
    phys = _physical(values.type)
    meta: dict = {}
    if phys == "decimal128":
        # 16-byte LE two's-complement values, raw buffer slice (PLAIN for
        # FIXED_LEN_BYTE_ARRAY-backed DECIMAL, ref datastore/byte-array.go:34-54).
        if codec != "plain":
            raise ValueError("decimal128 supports only the plain codec")
        buf = values.buffers()[1]
        off = values.offset * 16
        return bytes(memoryview(buf)[off : off + len(values) * 16]), meta
    if codec == "dict":
        return dict_encode(values)
    if phys == "bool":
        np_vals = values.to_numpy(zero_copy_only=False)
        if codec == "plain":
            return plain_encode_bool(np_vals), meta
        if codec == "rle":
            return rle_encode_bool(np_vals), meta
    elif phys == "bytes":
        lens, data = arrow_strings_to_parts(values)
        if codec == "plain":
            return plain_encode_bytes(lens, data), meta
        if codec == "delta_length":
            return delta_length_encode(lens, data), meta
        if codec == "delta_prefix":
            return delta_prefix_encode(lens, data), meta
        if codec == "fsst":
            payload = fsst_encode(lens, data)
            meta["symtab_hash"] = _fsst_symtab_hash(payload)
            return payload, meta
    elif phys in ("float32", "float64"):
        np_vals = values.to_numpy(zero_copy_only=False)
        if codec == "plain":
            return plain_encode_numeric(np_vals), meta
    else:  # int32 / int64
        np_vals = _to_physical_numpy(values, phys)
        dtype = _PHYS_NP[phys]
        if codec == "plain":
            return plain_encode_numeric(np_vals), meta
        if codec == "delta":
            return delta_encode(np_vals, dtype=dtype), meta
        if codec == "for":
            return for_encode(np_vals, dtype=dtype), meta
    raise ValueError(f"codec {codec!r} is not legal for physical type {phys}")


def decode_values(payload, codec: str, typ: pa.DataType, count: int) -> pa.Array:
    """Decode ``count`` null-free values and cast back to the logical type."""
    if codec not in _BUILTINS:
        from . import registry

        return registry.get(codec).decode(payload, typ, count)
    phys = _physical(typ)
    if phys == "decimal128":
        return pa.Array.from_buffers(typ, count, [None, pa.py_buffer(bytes(payload))])
    if codec == "dict":
        arr, _ = dict_decode(payload, count)
        return _cast_logical(arr, typ)
    if phys == "bool":
        if codec == "plain":
            return pa.array(plain_decode_bool(payload, count))
        if codec == "rle":
            vals, _ = rle_decode_bool(payload, count)
            return pa.array(vals)
    elif phys == "bytes":
        binary = pa.types.is_binary(typ) or pa.types.is_large_binary(typ)
        if codec == "plain":
            lens, data = plain_decode_bytes(payload, count)
        elif codec == "delta_length":
            lens, data, _ = delta_length_decode(payload, count)
        elif codec == "delta_prefix":
            lens, data, _ = delta_prefix_decode(payload, count)
        elif codec == "fsst":
            lens, data, _ = fsst_decode(payload, count)
        else:
            raise ValueError(f"bad codec {codec} for bytes")
        return _cast_logical(parts_to_arrow_strings(lens, data, binary=binary), typ)
    elif phys in ("float32", "float64"):
        if codec == "plain":
            return pa.array(plain_decode_numeric(payload, _PHYS_NP[phys], count))
    else:
        dtype = _PHYS_NP[phys]
        if codec == "plain":
            vals = plain_decode_numeric(payload, dtype, count)
        elif codec == "delta":
            vals, _ = delta_decode(payload, dtype=dtype, expect=count)
        elif codec == "for":
            vals, _ = for_decode(payload, dtype=dtype, expect=count)
        else:
            raise ValueError(f"bad codec {codec} for ints")
        if len(vals) != count:
            raise ValueError("value count mismatch")
        return _cast_logical(pa.array(vals), typ)
    raise ValueError(f"codec {codec!r} is not legal for physical type {phys}")


def _fsst_symtab_hash(payload: bytes) -> str:
    """sha1 of the FSST stream's symbol-table header — recorded in the
    lineage manifest alongside dict symbol-table hashes (north rule)."""
    import hashlib

    from .varint import uvarint_decode

    n_sym, pos = uvarint_decode(payload, 0)
    sym_lens = payload[pos : pos + n_sym]
    pos += n_sym
    total = sum(sym_lens)
    return hashlib.sha1(payload[: pos + total]).hexdigest()


def _cast_logical(arr: pa.Array, typ: pa.DataType) -> pa.Array:
    if arr.type.equals(typ):
        return arr
    if pa.types.is_dictionary(arr.type):
        arr = arr.cast(arr.type.value_type)
        if arr.type.equals(typ):
            return arr
    if pa.types.is_uint64(typ) and pa.types.is_int64(arr.type):
        return arr.view(typ)  # reinterpretation inverse of the encode view
    return arr.cast(typ)


def _stats(values: pa.Array, typ: pa.DataType) -> dict:
    # Booleans carry no min/max, like the reference (datastore/boolean.go:35-45).
    if (
        pa.types.is_boolean(typ)
        or pa.types.is_nested(typ)
        or pa.types.is_interval(typ)
        or len(values) == 0
    ):
        return {}
    if pa.types.is_duration(typ):  # no min_max kernel; stat the int64 view
        values = values.cast(pa.int64())
    mm = pc.min_max(values)
    mn, mx = mm["min"].as_py(), mm["max"].as_py()
    # Cap giant string stats so the manifest stays small. A truncated max
    # is a PREFIX of the true max and therefore lexicographically smaller,
    # so it is no longer a valid upper bound — record the fact so zone-map
    # pruning (pipelines/decode.py) keeps the partition for max-side and
    # equality predicates. A truncated min is still a valid (looser) lower
    # bound: prefix <= full string, so min-side checks only get more
    # conservative and need no flag.
    out = {}
    if isinstance(mn, str):
        if len(mx) > 64:
            out["max_trunc"] = True
        mn, mx = mn[:64], mx[:64]
    elif isinstance(mn, bytes):
        if len(mx) > 64:
            out["max_trunc"] = True
        mn, mx = mn[:64].hex(), mx[:64].hex()
    else:
        mn, mx = _json_safe(mn), _json_safe(mx)
    out["min"] = mn
    out["max"] = mx
    return out


def _json_safe(v):
    import datetime
    import decimal

    if isinstance(v, (datetime.datetime, datetime.date, datetime.time)):
        return v.isoformat()
    if isinstance(v, decimal.Decimal):
        return str(v)
    if isinstance(v, float) and (v != v or v in (float("inf"), float("-inf"))):
        return repr(v)
    return v


def encode_column(
    arr: pa.Array | pa.ChunkedArray,
    codec: str,
    compression: str = "none",
    page_rows: int | None = None,
) -> tuple[bytes, bytes, dict]:
    """Full column encode. Returns (validity_seg, value_seg, colmeta).

    value_seg is block-compressed with ``compression``; validity_seg is the
    RLE'd definition-level stream (empty when the column has no nulls).

    ``page_rows``: split the column into independently decodable pages of
    that many rows — the reference's page-within-chunk granularity
    (/root/reference/layout/chunk.go:129-217): row-range reads touch only
    overlapping pages, and each page carries its own min/max stats for
    finer pruning. Pages nest the normal single-segment layout.
    """
    from .block import compress

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if page_rows and len(arr) > page_rows:
        return _encode_column_paged(arr, codec, compression, page_rows)
    n = len(arr)
    null_count = arr.null_count
    if null_count:
        valid = arr.is_valid().to_numpy(zero_copy_only=False).astype(np.uint8)
        validity_seg = hybrid_encode_sized(valid, 1)
        values = arr.drop_null()
    else:
        validity_seg = b""
        values = arr
    if pa.types.is_list(values.type) or pa.types.is_large_list(
        values.type
    ) or pa.types.is_fixed_size_list(values.type):
        payload, enc_meta = _encode_list_values(values)
        codec = "list"
    elif pa.types.is_struct(values.type):
        payload, enc_meta = _encode_struct_values(values)
        codec = "struct"
    elif pa.types.is_map(values.type):
        payload, enc_meta = _encode_map_values(values)
        codec = "map"
    elif pa.types.is_nested(values.type):  # union, run-end encoded, ...
        raise TypeError(f"unsupported nested type: {values.type}")
    else:
        payload, enc_meta = encode_values(values, codec)
    raw_len = len(payload)
    value_seg = compress(payload, compression)
    colmeta = {
        "codec": codec,
        "compression": compression,
        "rows": n,
        "null_count": null_count,
        "raw_len": raw_len,
        "stats": _stats(values, arr.type),
        **enc_meta,
    }
    return validity_seg, value_seg, colmeta


def _register_builtins() -> None:
    """Expose the built-in codecs through the registry so they appear in
    the same introspection surface as user codecs (SURVEY.md §2.6)."""
    from . import registry

    for name, (fams, rank) in _BUILTINS.items():
        registry.register(
            registry.Codec(
                name=name,
                families=fams,
                encode=(lambda v, _n=name: encode_values(v, _n)),
                decode=(lambda p, t, c, _n=name: decode_values(p, _n, t, c)),
                speed_rank=rank,
            )
        )


_register_builtins()


def _child_codec(child: pa.Array) -> tuple[str, str]:
    """Codec choice for a nested structure's child: nested children
    recurse (encode_column overrides the codec id), leaves go through
    the sampled-stats selector."""
    if pa.types.is_nested(child.type):
        return "nested", "none"
    from .selector import select_codec

    codec, comp, _ = select_codec(child.drop_null())
    return codec, comp


def _encode_list_values(values: pa.Array) -> tuple[bytes, dict]:
    """Encode a null-free list array: the engine's repetition-level case
    (SURVEY §1.4 — rep levels ≡ ListArray offsets; the reference
    reassembles repeated values by scanning rep levels until rl < maxR,
    /root/reference/datastore/column.go:159-177). Layout:

        [uvarint len(lengths_seg)][lengths: FOR int32]
        [uvarint len(child_validity)][child validity seg]
        [uvarint len(child_meta_json)][child colmeta JSON]
        [child value payload]

    The child array encodes recursively through the normal column path
    (its own codec chosen by the selector; nested children — structs,
    lists of lists — recurse through encode_column), so element nulls,
    arbitrary nesting depth, and nested stats work unchanged."""
    import json as _json

    from .varint import uvarint_encode

    if pa.types.is_fixed_size_list(values.type) or pa.types.is_large_list(
        values.type
    ):
        values = values.cast(pa.list_(values.type.value_type))
    offsets = values.offsets.to_numpy(zero_copy_only=False)
    lengths = np.diff(offsets).astype(np.int32)
    child = values.flatten()  # respects offsets; drops unreferenced slices
    from .for_bitpack import for_encode

    lengths_seg = for_encode(lengths, dtype=np.int32)
    child_codec, child_comp = _child_codec(child)
    child_validity, child_payload, child_meta = encode_column(
        child, child_codec, child_comp
    )
    child_meta_b = _json.dumps(child_meta, separators=(",", ":")).encode()
    out = bytearray()
    out += uvarint_encode(len(lengths_seg))
    out += lengths_seg
    out += uvarint_encode(len(child_validity))
    out += child_validity
    out += uvarint_encode(len(child_meta_b))
    out += child_meta_b
    out += child_payload
    return bytes(out), {"child_codec": child_meta["codec"]}


def _encode_struct_values(values: pa.Array) -> tuple[bytes, dict]:
    """Encode a null-free struct array: the engine analogue of the
    reference's group-column assembly (/root/reference/schema/column.go:
    332-379) — per-field definition levels become per-child validity
    segments, and every child recurses through encode_column, so
    struct<list<struct<...>>> nests to arbitrary depth. Layout:

        [uvarint n_fields]
        per field:
          [uvarint len(child_validity)][child validity seg]
          [uvarint len(child_meta_json)][child colmeta JSON]
          [uvarint len(child_payload)][child payload]
    """
    import json as _json

    from .varint import uvarint_encode

    typ = values.type
    if typ.num_fields == 0:
        raise TypeError("empty struct types are not supported")
    out = bytearray()
    out += uvarint_encode(typ.num_fields)
    child_codecs = []
    for i in range(typ.num_fields):
        child = values.field(i)
        codec, comp = _child_codec(child)
        validity, payload, meta = encode_column(child, codec, comp)
        meta_b = _json.dumps(meta, separators=(",", ":")).encode()
        out += uvarint_encode(len(validity))
        out += validity
        out += uvarint_encode(len(meta_b))
        out += meta_b
        out += uvarint_encode(len(payload))
        out += payload
        child_codecs.append(meta["codec"])
    return bytes(out), {"child_codecs": child_codecs}


def _decode_struct_values(payload, typ: pa.DataType, count: int) -> pa.Array:
    import json as _json

    from .varint import uvarint_decode

    n_fields, pos = uvarint_decode(payload, 0)
    if n_fields != typ.num_fields:
        raise ValueError(
            f"struct field count mismatch: stored {n_fields}, type {typ.num_fields}"
        )
    children = []
    for i in range(n_fields):
        ln, pos = uvarint_decode(payload, pos)
        validity = bytes(payload[pos : pos + ln])
        pos += ln
        ln, pos = uvarint_decode(payload, pos)
        meta = _json.loads(bytes(payload[pos : pos + ln]).decode())
        pos += ln
        ln, pos = uvarint_decode(payload, pos)
        child_payload = bytes(payload[pos : pos + ln])
        pos += ln
        children.append(
            decode_column(validity, child_payload, meta, typ.field(i).type)
        )
    return pa.StructArray.from_arrays(children, fields=list(typ))


def _map_as_list_type(typ: pa.DataType) -> pa.DataType:
    return pa.list_(
        pa.struct(
            [
                pa.field("key", typ.key_type, nullable=False),
                pa.field("value", typ.item_type),
            ]
        )
    )


def _encode_map_values(values: pa.Array) -> tuple[bytes, dict]:
    """Maps are the LIST<STRUCT<key, value>> group shape of the reference
    schema dialect (/root/reference/schema.json:66-100, mapParent at
    schema/column.go:9-15): encode through the list path."""
    values = values.combine_chunks() if isinstance(values, pa.ChunkedArray) else values
    offsets = values.offsets
    entries = pa.StructArray.from_arrays(
        [values.keys, values.items], names=["key", "value"]
    )
    aslist = pa.ListArray.from_arrays(offsets, entries)
    return _encode_list_values(aslist)


def _decode_map_values(payload, typ: pa.DataType, count: int) -> pa.Array:
    lst = _decode_list_values(payload, _map_as_list_type(typ), count)
    entries = lst.values
    return pa.MapArray.from_arrays(
        lst.offsets, entries.field(0), entries.field(1), type=typ
    )


def _decode_list_values(payload, typ: pa.DataType, count: int) -> pa.Array:
    import json as _json

    from .for_bitpack import for_decode
    from .varint import uvarint_decode

    value_type = typ.value_type
    ln, pos = uvarint_decode(payload, 0)
    lengths, _ = for_decode(payload[pos : pos + ln], dtype=np.int32, expect=count)
    if len(lengths) and int(lengths.min()) < 0:
        raise ValueError("negative list length")
    pos += ln
    ln, pos = uvarint_decode(payload, pos)
    child_validity = bytes(payload[pos : pos + ln])
    pos += ln
    ln, pos = uvarint_decode(payload, pos)
    child_meta = _json.loads(bytes(payload[pos : pos + ln]).decode())
    pos += ln
    child_payload = bytes(payload[pos:])
    child = decode_column(child_validity, child_payload, child_meta, value_type)
    offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))).astype(
        np.int32
    )
    out = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), child)
    if pa.types.is_fixed_size_list(typ) or pa.types.is_large_list(typ):
        out = out.cast(typ)
    return out


def _encode_column_paged(
    arr: pa.Array, codec: str, compression: str, page_rows: int
) -> tuple[bytes, bytes, dict]:
    n = len(arr)
    pages = []
    payload = bytearray()
    null_count = 0
    for start in range(0, n, page_rows):
        page = arr.slice(start, page_rows)
        v_seg, s_seg, meta = encode_column(page, codec, compression)
        pages.append(
            {
                "rows": len(page),
                "validity_off": len(payload),
                "validity_len": len(v_seg),
                "value_off": len(payload) + len(v_seg),
                "value_len": len(s_seg),
                "meta": meta,
            }
        )
        payload += v_seg
        payload += s_seg
        null_count += meta["null_count"]
    # Column-level stats roll up from the per-page stats.
    mins = [p["meta"]["stats"].get("min") for p in pages if p["meta"].get("stats")]
    maxs = [p["meta"]["stats"].get("max") for p in pages if p["meta"].get("stats")]
    stats: dict = {}
    try:
        if mins and all(m is not None for m in mins):
            stats = {"min": min(mins), "max": max(maxs)}
            if any(p["meta"]["stats"].get("max_trunc") for p in pages):
                stats["max_trunc"] = True
    except TypeError:
        stats = {}
    colmeta = {
        "codec": "paged",
        "compression": "none",  # pages compress themselves
        "rows": n,
        "null_count": null_count,
        "raw_len": len(payload),
        "page_rows": page_rows,
        "pages": pages,
        "stats": stats,
    }
    return b"", bytes(payload), colmeta


def _decode_column_paged(
    value_seg: bytes,
    colmeta: dict,
    typ: pa.DataType,
    row_offset: int = 0,
    row_count: int | None = None,
) -> pa.Array:
    """Decode a paged column, touching only the pages overlapping
    [row_offset, row_offset + row_count)."""
    n = colmeta["rows"]
    if row_count is None:
        row_count = n - row_offset
    end = min(n, row_offset + max(0, row_count))
    mv = memoryview(value_seg)
    out = []
    pos = 0
    for p in colmeta["pages"]:
        p_rows = p["rows"]
        p_start, p_end = pos, pos + p_rows
        pos = p_end
        if p_end <= row_offset or p_start >= end:
            continue  # page skipped entirely — never sliced, never decoded
        v = bytes(mv[p["validity_off"] : p["validity_off"] + p["validity_len"]])
        s = bytes(mv[p["value_off"] : p["value_off"] + p["value_len"]])
        arr = decode_column(v, s, p["meta"], typ)
        lo = max(0, row_offset - p_start)
        hi = min(p_rows, end - p_start)
        out.append(arr.slice(lo, hi - lo))
    if not out:
        return pa.nulls(0, typ).cast(typ)
    return pa.concat_arrays(out) if len(out) > 1 else out[0]


def decode_column(
    validity_seg: bytes,
    value_seg: bytes,
    colmeta: dict,
    typ: pa.DataType,
    row_offset: int = 0,
    row_count: int | None = None,
) -> pa.Array:
    from .block import decompress

    if colmeta["codec"] == "paged":
        return _decode_column_paged(value_seg, colmeta, typ, row_offset, row_count)
    n = colmeta["rows"]
    null_count = colmeta["null_count"]
    payload = decompress(value_seg, colmeta["compression"], colmeta["raw_len"])
    if colmeta["codec"] == "list":
        values = _decode_list_values(payload, typ, n - null_count)
    elif colmeta["codec"] == "struct":
        values = _decode_struct_values(payload, typ, n - null_count)
    elif colmeta["codec"] == "map":
        values = _decode_map_values(payload, typ, n - null_count)
    else:
        values = decode_values(payload, colmeta["codec"], typ, n - null_count)
    if null_count:
        valid_np, _ = hybrid_decode_sized(validity_seg, 1, n)
        valid = valid_np.astype(bool)
        # Nulls re-enter via a take with null indices (vectorized scatter).
        idx = np.cumsum(valid, dtype=np.int64) - 1
        indices = pa.array(idx, mask=~valid)
        values = values.take(indices)
    if row_offset or (row_count is not None and row_count < n - row_offset):
        cnt = (n - row_offset) if row_count is None else row_count
        values = values.slice(row_offset, max(0, cnt))
    return values
