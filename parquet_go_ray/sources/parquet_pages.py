"""Engine-native reader for real Parquet column-chunk page streams.

The engine's wire codecs (hybrid RLE/bit-pack, dictionary, delta,
plain) are Parquet-compatible at the stream level; this module proves
it end-to-end by reading ACTUAL Parquet files written by standard
writers (pyarrow et al.) through those codecs — the capability the
reference implements in ``file-reader.go:193-253`` (footer walk),
``layout/chunk.go:129-217`` (page walk) and ``layout/page-v1.go:69-116``
(level + value streams).

Division of labour (SURVEY §2.3 delegates the *container*, not the
*wire*): pyarrow's footer metadata supplies column-chunk offsets,
physical types and level depths — the thrift-heavy container walk —
while every byte of the page stream itself (thrift-compact page
headers, v1/v2 level streams, dictionary pages, data page payloads) is
parsed HERE with the engine's own decoders:

- page headers: a ~100-line thrift compact-protocol struct reader
  (the subset the 11k-LoC generated ``parquet/parquet.go`` covers for
  ``PageHeader`` in the reference);
- definition levels: ``hybrid_decode_sized`` (v1) / ``hybrid_decode``
  (v2, unframed) — ref ``layout/page-v1.go:69-77``;
- RLE_DICTIONARY / PLAIN_DICTIONARY indices: bit-width byte + hybrid
  runs, bounds-checked against the dictionary — ref
  ``types/dict.go:61-117``;
- PLAIN values incl. BYTE_ARRAY / FIXED_LEN_BYTE_ARRAY / BOOLEAN /
  INT96 — ref ``types/*.go`` plain paths;
- DELTA_BINARY_PACKED / DELTA_LENGTH_BYTE_ARRAY / DELTA_BYTE_ARRAY —
  ref ``encoding/delta-binary-packed-*.go``.

Scope: flat columns of any physical type, one-level lists/structs on
vectorized fast paths, and ARBITRARY struct/list nesting via raw leaf
streams + general Dremel record assembly (``sources/dremel.py``:
list boundaries from rep-level runs, element slots from def
thresholds, struct children zipped over the shared node-level entry
stream), plus MAP groups reassembled through their
list<struct<key,value>> view; v1 and v2 data pages; UNCOMPRESSED /
SNAPPY / ZSTD / GZIP / BROTLI codecs. Every reference container shape
now reads natively; pyarrow supplies only footer metadata (SURVEY
§2.3 delegates the container, not the wire).
"""

from __future__ import annotations

import bisect as _bisect
import functools as _functools
import os as _os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.block import decompress
from .iosrc import is_remote, open_source, stat_source
from ..functions.bytearray import (
    delta_length_decode,
    delta_prefix_decode,
    parts_to_arrow_strings,
    plain_decode_bytes,
)
from ..functions.delta import delta_decode
from ..functions.hybrid import hybrid_decode, hybrid_decode_sized
from ..functions.plain import (
    bss_decode,
    int96_decode_timestamps,
    plain_decode_bool,
    plain_decode_numeric,
)

# --- thrift compact protocol (PageHeader subset) -----------------------

_T_STOP = 0
_T_TRUE = 1
_T_FALSE = 2
_T_BYTE = 3
_T_I16 = 4
_T_I32 = 5
_T_I64 = 6
_T_DOUBLE = 7
_T_BINARY = 8
_T_LIST = 9
_T_SET = 10
_T_MAP = 11
_T_STRUCT = 12


class _Compact:
    """Minimal thrift compact-protocol reader: returns structs as
    ``{field_id: value}`` dicts (nested structs recurse). Covers every
    type that can appear in ``PageHeader`` and its children."""

    def __init__(self, buf, pos: int = 0):
        self.b = buf
        self.p = pos

    def varint(self) -> int:
        out = 0
        shift = 0
        while True:
            if self.p >= len(self.b):
                raise ValueError("truncated thrift varint")
            byte = self.b[self.p]
            self.p += 1
            out |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return out
            shift += 7
            if shift > 63:
                raise ValueError("thrift varint overflow")

    def zigzag(self) -> int:
        v = self.varint()
        return (v >> 1) ^ -(v & 1)

    def read_struct(self) -> dict:
        out: dict = {}
        last_fid = 0
        while True:
            if self.p >= len(self.b):
                raise ValueError("truncated thrift struct")
            head = self.b[self.p]
            self.p += 1
            if head == _T_STOP:
                return out
            delta = head >> 4
            typ = head & 0x0F
            fid = last_fid + delta if delta else self.zigzag()
            last_fid = fid
            out[fid] = self.read_val(typ)

    def read_val(self, typ: int):
        if typ == _T_TRUE:
            return True
        if typ == _T_FALSE:
            return False
        if typ == _T_BYTE:
            v = self.b[self.p]
            self.p += 1
            return v
        if typ in (_T_I16, _T_I32, _T_I64):
            return self.zigzag()
        if typ == _T_DOUBLE:
            v = np.frombuffer(bytes(self.b[self.p : self.p + 8]), "<f8")[0]
            self.p += 8
            return float(v)
        if typ == _T_BINARY:
            n = self.varint()
            v = bytes(self.b[self.p : self.p + n])
            if len(v) < n:
                raise ValueError("truncated thrift binary")
            self.p += n
            return v
        if typ in (_T_LIST, _T_SET):
            head = self.b[self.p]
            self.p += 1
            size = head >> 4
            etype = head & 0x0F
            if size == 0xF:
                size = self.varint()
            if etype in (_T_TRUE, _T_FALSE):
                # bool LIST elements are one byte each (1=true, 2=false),
                # unlike struct fields where the bool lives in the header
                out = [self.b[self.p + i] == 1 for i in range(size)]
                self.p += size
                return out
            return [self.read_val(etype) for _ in range(size)]
        if typ == _T_MAP:
            size = self.varint()
            if size == 0:
                return {}
            kv = self.b[self.p]
            self.p += 1
            kt, vt = kv >> 4, kv & 0x0F
            return {self.read_val(kt): self.read_val(vt) for _ in range(size)}
        if typ == _T_STRUCT:
            return self.read_struct()
        raise ValueError(f"unsupported thrift compact type {typ}")


# PageType / Encoding enums (parquet.thrift)
DATA_PAGE = 0
DICTIONARY_PAGE = 2
DATA_PAGE_V2 = 3

PLAIN = 0
PLAIN_DICTIONARY = 2
RLE = 3
DELTA_BINARY_PACKED = 5
DELTA_LENGTH_BYTE_ARRAY = 6
DELTA_BYTE_ARRAY = 7
RLE_DICTIONARY = 8
BYTE_STREAM_SPLIT = 9


def read_page_header(buf, pos: int) -> tuple[dict, int]:
    """Parse one thrift-compact ``PageHeader``; returns a normalized
    dict and the stream position of the page payload."""
    r = _Compact(buf, pos)
    s = r.read_struct()
    hdr = {
        "type": s.get(1),
        "uncompressed_size": s.get(2),
        "compressed_size": s.get(3),
        "crc": s.get(4),
    }
    if 5 in s:  # DataPageHeader
        d = s[5]
        hdr.update(
            num_values=d.get(1),
            encoding=d.get(2),
            def_encoding=d.get(3),
            rep_encoding=d.get(4),
        )
        if isinstance(d.get(5), dict):  # optional Statistics
            hdr["page_statistics"] = _page_stats_dict(d[5])
    if 7 in s:  # DictionaryPageHeader
        d = s[7]
        hdr.update(num_values=d.get(1), encoding=d.get(2))
    if 8 in s:  # DataPageHeaderV2
        d = s[8]
        hdr.update(
            num_values=d.get(1),
            num_nulls=d.get(2),
            num_rows=d.get(3),
            encoding=d.get(4),
            def_levels_len=d.get(5, 0),
            rep_levels_len=d.get(6, 0),
            values_compressed=d.get(7, True),
        )
        if isinstance(d.get(8), dict):  # optional Statistics
            hdr["page_statistics"] = _page_stats_dict(d[8])
    return hdr, r.p


def _page_stats_dict(st: dict) -> dict:
    """Normalize a page-header ``Statistics`` struct (null_count /
    min_value / max_value; legacy min/max fields 1-2 accepted when the
    v2 fields are absent)."""
    return {
        "null_count": st.get(3),
        "min": st.get(6, st.get(2)),
        "max": st.get(5, st.get(1)),
    }


# --- value decoding per physical type ----------------------------------

_NUMERIC_DTYPES = {
    "INT32": np.dtype("<i4"),
    "INT64": np.dtype("<i8"),
    "FLOAT": np.dtype("<f4"),
    "DOUBLE": np.dtype("<f8"),
}


def _decode_plain(data, phys: int | str, count: int, type_length: int):
    phys = str(phys)
    if phys in _NUMERIC_DTYPES:
        return pa.array(plain_decode_numeric(data, _NUMERIC_DTYPES[phys], count))
    if phys == "BOOLEAN":
        return pa.array(plain_decode_bool(data, count))
    if phys == "BYTE_ARRAY":
        lens, blob = plain_decode_bytes(data, count)
        return parts_to_arrow_strings(lens, blob, binary=True)
    if phys == "FIXED_LEN_BYTE_ARRAY":
        raw = bytes(data[: count * type_length])
        if len(raw) < count * type_length:
            raise ValueError("truncated FIXED_LEN_BYTE_ARRAY page")
        vals = [raw[i * type_length : (i + 1) * type_length] for i in range(count)]
        return pa.array(vals, pa.binary(type_length))
    if phys == "INT96":
        return pa.array(int96_decode_timestamps(data, count))
    raise NotImplementedError(f"physical type {phys}")


def _bit_width(max_level: int) -> int:
    return int(max_level).bit_length()


class _ChunkReader:
    """Decodes one column chunk's page stream into a pyarrow array."""

    def __init__(self, phys: str, type_length: int, max_def: int, codec: str,
                 max_rep: int = 0, elem_nullable: bool = False,
                 keep_defs: bool = False):
        self.phys = str(phys)
        self.type_length = type_length or 0
        self.max_def = max_def
        self.codec = codec
        self.max_rep = max_rep
        self.elem_nullable = elem_nullable
        self.keep_defs = keep_defs
        self.dictionary: pa.Array | None = None
        self.values: list[pa.Array] = []
        self.validity: list[np.ndarray] = []
        self.reps: list[np.ndarray] = []
        self.defs: list[np.ndarray] = []

    def _decompress(self, payload, uncompressed: int) -> bytes:
        if self.codec == "none":
            return bytes(payload)
        if self.codec == "lz4_raw":
            try:
                return decompress(bytes(payload), "lz4_raw", uncompressed)
            except Exception:
                return _lz4_hadoop_decompress(bytes(payload), uncompressed)
        return decompress(bytes(payload), self.codec, uncompressed)

    def _decode_values(self, enc: int, data, nn: int) -> pa.Array:
        if enc in (PLAIN_DICTIONARY, RLE_DICTIONARY):
            if self.dictionary is None:
                raise ValueError("dictionary-encoded page before dictionary page")
            width = data[0]
            idx, _ = hybrid_decode(data, width, nn, 1)
            if nn and int(idx.max()) >= len(self.dictionary):
                raise ValueError("dictionary index out of range")
            return self.dictionary.take(pa.array(idx.astype(np.int64)))
        if enc == PLAIN:
            return _decode_plain(data, self.phys, nn, self.type_length)
        if enc == DELTA_BINARY_PACKED:
            dt = np.int32 if self.phys == "INT32" else np.int64
            vals, _ = delta_decode(data, 0, dtype=dt, expect=nn)
            return pa.array(vals)
        if enc == DELTA_LENGTH_BYTE_ARRAY:
            lens, blob, _ = delta_length_decode(data, nn)
            return parts_to_arrow_strings(lens, blob, binary=True)
        if enc == DELTA_BYTE_ARRAY:
            lens, blob, _ = delta_prefix_decode(data, nn)
            return parts_to_arrow_strings(lens, blob, binary=True)
        if enc == BYTE_STREAM_SPLIT:
            widths = {"FLOAT": 4, "INT32": 4, "DOUBLE": 8, "INT64": 8,
                      "FIXED_LEN_BYTE_ARRAY": self.type_length}
            w = widths.get(self.phys)
            if not w:
                raise ValueError(f"BYTE_STREAM_SPLIT on {self.phys}")
            return _decode_plain(
                bss_decode(data, w, nn), self.phys, nn, self.type_length
            )
        if enc == RLE and self.phys == "BOOLEAN":
            # Boolean RLE data pages carry a 4-byte-size-framed hybrid
            # stream of 1-bit values (same framing as v1 levels).
            bits, _ = hybrid_decode_sized(data, 1, nn)
            return pa.array(bits.astype(bool))
        raise NotImplementedError(f"encoding {enc} for {self.phys}")

    def add_page(self, hdr: dict, payload) -> None:
        typ = hdr["type"]
        if typ == DICTIONARY_PAGE:
            data = self._decompress(payload, hdr["uncompressed_size"])
            self.dictionary = _decode_plain(
                data, self.phys, hdr["num_values"], self.type_length
            )
            return
        if typ == DATA_PAGE:
            data = self._decompress(payload, hdr["uncompressed_size"])
            n = hdr["num_values"]
            pos = 0
            if self.max_rep > 0:
                # v1 order: repetition levels first, 4-byte-size-framed.
                reps, pos = hybrid_decode_sized(
                    data, _bit_width(self.max_rep), n, pos
                )
                self.reps.append(reps)
            if self.max_def > 0:
                # then definition levels, same framing.
                defs, pos = hybrid_decode_sized(
                    data, _bit_width(self.max_def), n, pos
                )
                valid = defs == self.max_def
                if self.max_rep > 0 or self.keep_defs:
                    self.defs.append(defs)
            else:
                valid = np.ones(n, dtype=bool)
                if self.keep_defs:
                    self.defs.append(np.zeros(n, dtype=np.uint64))
            nn = int(valid.sum())
            self.values.append(self._decode_values(hdr["encoding"], data[pos:], nn))
            self.validity.append(valid)
            return
        if typ == DATA_PAGE_V2:
            n = hdr["num_values"]
            dl = hdr.get("def_levels_len") or 0
            rl = hdr.get("rep_levels_len") or 0
            if rl and self.max_rep == 0:
                raise ValueError("rep levels on a flat column")
            # v2: level streams sit OUTSIDE the compressed region,
            # unframed (lengths live in the header).
            if self.max_rep > 0:
                if rl:
                    reps, _ = hybrid_decode(
                        payload[:rl], _bit_width(self.max_rep), n
                    )
                else:
                    reps = np.zeros(n, dtype=np.uint64)
                self.reps.append(reps)
            levels = payload[rl : rl + dl]
            if self.max_def > 0 and dl:
                defs, _ = hybrid_decode(levels, _bit_width(self.max_def), n)
                valid = defs == self.max_def
            elif self.max_def > 0:
                defs = np.full(n, self.max_def, dtype=np.uint64)
                valid = np.ones(n, dtype=bool)
            else:
                defs = np.zeros(n, dtype=np.uint64)
                valid = np.ones(n, dtype=bool)
            if self.max_rep > 0 or self.keep_defs:
                self.defs.append(defs)
            body = payload[rl + dl :]
            if hdr.get("values_compressed", True):
                body = self._decompress(
                    body, hdr["uncompressed_size"] - dl - rl
                )
            else:
                body = bytes(body)
            nn = int(valid.sum())
            self.values.append(self._decode_values(hdr["encoding"], body, nn))
            self.validity.append(valid)
            return
        # INDEX_PAGE etc.: skip.

    def _finish_list(self, values: pa.Array) -> pa.Array:
        """Record assembly for one repetition level (list<primitive>):
        rep==0 starts a row; def distinguishes present element / null
        element / empty list / null list (ref layout/chunk.go rep-scan
        reassembly, vectorized over the whole chunk)."""
        defs = np.concatenate(self.defs) if self.defs else np.empty(0, np.uint64)
        reps = np.concatenate(self.reps) if self.reps else np.empty(0, np.uint64)
        def_empty = self.max_def - (2 if self.elem_nullable else 1)
        starts = np.flatnonzero(reps == 0)
        elem_slot = defs > def_empty
        if len(starts):
            counts = np.add.reduceat(elem_slot.astype(np.int64), starts)
            list_valid = defs[starts] >= def_empty
        else:
            counts = np.empty(0, np.int64)
            list_valid = np.empty(0, bool)
        # Scatter dense values into element slots (null elements when
        # the element is optional and def == max_def - 1).
        evalid = defs[elem_slot] == self.max_def
        if bool(evalid.all()):
            elems = values
        elif len(values) == 0:
            # Every element slot is null: nothing dense to scatter.
            elems = pa.nulls(len(evalid), values.type)
        else:
            idx = np.where(evalid, np.cumsum(evalid) - 1, 0)
            taken = values.take(pa.array(idx, pa.int64()))
            elems = pc.if_else(
                pa.array(evalid), taken, pa.nulls(len(evalid), values.type)
            )
        offsets = np.zeros(len(counts) + 1, dtype=np.int32)
        np.cumsum(counts, out=offsets[1:])
        mask = None if bool(list_valid.all()) else pa.array(~list_valid)
        return pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), elems, mask=mask
        )

    def raw_streams(self) -> tuple[pa.Array, np.ndarray, np.ndarray]:
        """(dense values, rep levels, def levels) without any record
        assembly — the inputs to general Dremel assembly
        (sources/dremel.py) for arbitrarily nested columns."""
        if self.values:
            values = pa.concat_arrays(
                [v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v
                 for v in self.values]
            )
        else:
            values = pa.array([], pa.null())
        n = sum(len(v) for v in self.validity)
        defs = (np.concatenate(self.defs).astype(np.uint8) if self.defs
                else np.full(n, self.max_def, dtype=np.uint8))
        reps = (np.concatenate(self.reps).astype(np.uint8) if self.reps
                else np.zeros(n, dtype=np.uint8))
        return values, reps, defs

    def finish(self) -> pa.Array:
        if not self.values:
            return pa.array([], pa.null())
        values = pa.concat_arrays(
            [v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v
             for v in self.values]
        )
        if self.max_rep > 0:
            return self._finish_list(values)
        valid = np.concatenate(self.validity)
        if bool(valid.all()):
            return values
        if len(values) == 0:
            # All-null chunk (or an all-null row-range window): there are
            # no dense values to scatter — values.take(idx) would raise
            # ArrowIndexError. Mirrors the guard in dremel._assemble.
            return pa.nulls(len(valid), values.type)
        # Scatter non-null values back to row positions, then mask.
        idx = np.where(valid, np.cumsum(valid) - 1, 0)
        taken = values.take(pa.array(idx, pa.int64()))
        return pc.if_else(
            pa.array(valid), taken, pa.nulls(len(valid), values.type)
        )


_CODEC_MAP = {
    "UNCOMPRESSED": "none",
    "SNAPPY": "snappy",
    "ZSTD": "zstd",
    "GZIP": "gzip",
    "BROTLI": "brotli",
    # pyarrow's metadata prints "LZ4" for BOTH wire enums: 7 (LZ4_RAW,
    # what it writes) and 5 (deprecated Hadoop-framed). Decode tries
    # raw first and falls back to the Hadoop framing — the same
    # dual-read strategy Arrow C++ uses.
    "LZ4": "lz4_raw",
    "LZ4_RAW": "lz4_raw",
}


def _lz4_hadoop_decompress(data: bytes, uncompressed: int) -> bytes:
    """Deprecated Hadoop LZ4 framing (wire enum 5): repeated
    [4-byte BE uncompressed length, 4-byte BE compressed length,
    raw-LZ4 block] records."""
    import pyarrow as _pa

    codec = _pa.Codec("lz4_raw")
    out = bytearray()
    pos = 0
    while pos < len(data) and len(out) < uncompressed:
        if pos + 8 > len(data):
            raise ValueError("truncated Hadoop-LZ4 frame header")
        ulen = int.from_bytes(data[pos:pos + 4], "big")
        clen = int.from_bytes(data[pos + 4:pos + 8], "big")
        pos += 8
        out += codec.decompress(data[pos:pos + clen], ulen, asbytes=True)
        pos += clen
    if len(out) != uncompressed:
        raise ValueError("Hadoop-LZ4 frame length mismatch")
    return bytes(out)


def _offset_index_window(path: str, row_group: int, column: int,
                         entry_range: tuple[int, int], chunk_start: int,
                         md) -> tuple[int, int, int, int] | None:
    """Byte window of the data pages overlapping ``entry_range`` rows,
    from the chunk's OffsetIndex (when the writer emitted one):
    ``(dict_prefix_end, win_start, win_stop, first_row_of_window)``.
    None when there is no index, one page, or the window would span the
    whole chunk anyway — the caller then reads the chunk in one piece.
    The kept byte stream (dictionary prefix + window) is a valid
    contiguous page walk, so the caller's skip/decode loop is
    unchanged."""
    try:
        idx = read_page_index(path, row_group, column)
    except (ValueError, KeyError, IndexError, OSError):
        return None
    if not idx or "offset_index" not in idx:
        return None
    locs = idx["offset_index"]
    if len(locs) < 2:
        return None
    firsts = [p["first_row_index"] for p in locs]
    k0 = max(0, _bisect.bisect_right(firsts, entry_range[0]) - 1)
    k1 = _bisect.bisect_left(firsts, entry_range[1], lo=k0)
    if k1 <= k0:
        k1 = k0 + 1  # empty window still needs one page for schema
    if k0 == 0 and k1 == len(locs):
        return None
    chunk_end = chunk_start + md.total_compressed_size
    win_start = locs[k0]["offset"]
    win_stop = (locs[k1]["offset"] if k1 < len(locs) else chunk_end)
    return locs[0]["offset"], win_start, win_stop, firsts[k0]


def _read_chunk(pf: pq.ParquetFile, path: str, row_group: int, column: int,
                keep_defs: bool = False,
                entry_range: tuple[int, int] | None = None,
                raw: bool = False,
                ):
    """``entry_range=(start, stop)``: decode only the pages overlapping
    that level-entry window (== rows for flat columns), skipping the
    others without decompressing — the page-walk skipping of the
    reference's chunk reader (layout/chunk.go:129-217). Page headers
    are still walked (they carry num_values); payload bytes of skipped
    pages are never touched. Repeated columns (lists) ignore the range
    (entries ≠ rows there) — the caller slices assembled rows.

    ``raw=True`` skips all record assembly and returns ``(dense values,
    rep levels, def levels)`` for general Dremel assembly — the only
    mode that accepts max_repetition_level > 1."""
    md = pf.metadata.row_group(row_group).column(column)
    sch = pf.schema.column(column)
    elem_nullable = False
    if not raw:
        if sch.max_repetition_level > 1:
            raise NotImplementedError(
                "multiply-nested columns (rep level > 1): use raw streams"
                " + sources/dremel.assemble_column"
            )
        if sch.max_repetition_level == 1:
            top = md.path_in_schema.split(".")[0]
            ft = pf.schema_arrow.field(top).type
            if not (pa.types.is_list(ft) or pa.types.is_large_list(ft)
                    or pa.types.is_fixed_size_list(ft)):
                raise NotImplementedError(f"repeated non-list column {ft}")
            elem_nullable = ft.value_field.nullable
    codec = _CODEC_MAP.get(md.compression)
    if codec is None:
        raise NotImplementedError(f"codec {md.compression}")
    start = md.data_page_offset
    if md.dictionary_page_offset is not None:
        start = min(start, md.dictionary_page_offset)
    row0 = 0
    window = None
    if entry_range is not None and not raw and sch.max_repetition_level == 0:
        window = _offset_index_window(path, row_group, column,
                                      entry_range, start, md)
    if window is not None:
        # OffsetIndex-guided byte-range read: only the dictionary-page
        # prefix and the data pages overlapping the row window leave
        # storage — at 100 TB this turns a whole-chunk fetch into two
        # small range requests instead of filtering after the fact.
        prefix_end, win_start, win_stop, row0 = window
        with open_source(path) as f:
            f.seek(start)
            buf = f.read(prefix_end - start)
            f.seek(win_start)
            buf += f.read(win_stop - win_start)
    else:
        with open_source(path) as f:
            f.seek(start)
            buf = f.read(md.total_compressed_size)
    rdr = _ChunkReader(
        md.physical_type,
        getattr(sch, "length", 0),
        sch.max_definition_level,
        codec,
        max_rep=sch.max_repetition_level,
        elem_nullable=elem_nullable,
        keep_defs=keep_defs or raw,
    )
    if sch.max_repetition_level > 0 or raw:
        entry_range = None  # entries != rows; caller slices rows
    pos = 0
    rows = row0
    first_kept = None
    while rows < md.num_values and pos < len(buf):
        hdr, pos = read_page_header(buf, pos)
        payload = buf[pos : pos + hdr["compressed_size"]]
        if len(payload) < hdr["compressed_size"]:
            raise ValueError("truncated page payload")
        pos += hdr["compressed_size"]
        is_data = hdr["type"] in (DATA_PAGE, DATA_PAGE_V2)
        if entry_range is not None and is_data:
            n = hdr["num_values"]
            if rows + n <= entry_range[0] or rows >= entry_range[1]:
                rows += n  # outside the window: skip payload entirely
                continue
            if first_kept is None:
                first_kept = rows
        if hdr.get("crc") is not None:
            # PageHeader.crc covers the on-wire payload (levels included
            # for v2). Only pages actually decoded pay the check —
            # row-range-skipped payloads above are never touched.
            if (zlib.crc32(payload) & 0xFFFFFFFF) != (hdr["crc"] & 0xFFFFFFFF):
                raise ValueError(
                    f"page CRC mismatch in {path!r} row_group={row_group} "
                    f"column={column}: corrupt page at chunk offset {pos}"
                )
        rdr.add_page(hdr, payload)
        if is_data:
            rows += hdr["num_values"]
    if raw:
        return rdr.raw_streams()
    arr = rdr.finish()
    defs = (np.concatenate(rdr.defs) if keep_defs and rdr.defs
            else (np.empty(0, np.uint64) if keep_defs else None))
    if entry_range is not None:
        a = entry_range[0] - (first_kept or 0)
        b = entry_range[1] - (first_kept or 0)
        a = max(0, a)
        arr = arr.slice(a, max(0, b - a))
        if defs is not None:
            defs = defs[a:b]
    return arr, defs


def _parquet_file(path: str) -> pq.ParquetFile:
    """``pq.ParquetFile`` over any registered byte source: local paths
    go straight to pyarrow (mmap-friendly); remote uris (http/mem/…)
    hand pyarrow the seekable range reader, so the footer walk costs
    range requests, not a whole-object download."""
    if is_remote(path):
        return pq.ParquetFile(open_source(path))
    return pq.ParquetFile(path)


@_functools.lru_cache(maxsize=16)
def _footer_struct_at(path: str, _version: int, _size: int) -> dict:
    with open_source(path) as f:
        f.seek(-8, 2)
        flen = int.from_bytes(f.read(4), "little")
        f.seek(-8 - flen, 2)
        return _Compact(f.read(flen)).read_struct()


def _footer_struct(path: str) -> dict:
    """Engine-parsed FileMetaData, cached per (path, version, size) so a
    row-group task touching many columns parses the footer once. The
    version token is mtime_ns locally, ETag/Last-Modified over HTTP, a
    generation counter for mem:// (see ``iosrc.stat_source``)."""
    size, version = stat_source(path)
    return _footer_struct_at(path, version, size)


def read_page_index(path: str, row_group: int = 0,
                    column: int = 0) -> dict | None:
    """Parse the optional ColumnIndex / OffsetIndex structures of one
    column chunk straight from the footer (the engine's own thrift
    reader — pyarrow's Python API doesn't expose the raw offsets).
    Returns ``{"column_index": {...}, "offset_index": [...]}`` with
    whichever structures the writer emitted, or None if neither exists.
    """
    md = _footer_struct(path)
    col = md[4][row_group][1][column]  # FileMetaData.row_groups[].columns[]
    with open_source(path) as f:
        out: dict = {}
        if 6 in col:  # column_index_offset / _length (ColumnChunk 6/7)
            f.seek(col[6])
            ci = _Compact(f.read(col[7])).read_struct()
            out["column_index"] = {
                "null_pages": ci[1],
                "min_values": ci[2],
                "max_values": ci[3],
                "boundary_order": ci[4],
                "null_counts": ci.get(5),
            }
        if 4 in col:  # offset_index_offset / _length (ColumnChunk 4/5)
            f.seek(col[4])
            oi = _Compact(f.read(col[5])).read_struct()
            out["offset_index"] = [
                {"offset": p[1], "compressed_page_size": p[2],
                 "first_row_index": p[3]}
                for p in oi[1]
            ]
    return out or None


def read_bloom_filter(path: str, row_group: int = 0, column: int = 0):
    """Load one chunk's split-block bloom filter (parquet-format
    BloomFilter.md): ColumnMetaData fields 14/15 point at a
    thrift-compact BloomFilterHeader {1: numBytes, 2: algorithm union
    (BLOCK), 3: hash union (XXHASH), 4: compression union
    (UNCOMPRESSED)} followed by the raw bitset. Returns a
    ``functions.bloom.SplitBlockBloomFilter`` or None when the chunk
    carries no filter; raises on an algorithm/hash/compression the spec
    names but this engine doesn't speak (there are none today — the
    unions are single-member)."""
    from ..functions.bloom import SplitBlockBloomFilter

    md = _footer_struct(path)
    col = md[4][row_group][1][column]
    meta = col.get(3)
    if not meta or 14 not in meta:
        return None
    with open_source(path) as f:
        f.seek(meta[14])
        if 15 in meta:
            raw = f.read(meta[15])
        else:
            raw = f.read(64)  # header fits; bitset read after parsing
        r = _Compact(raw)
        hdr = r.read_struct()
        nbytes = hdr[1]
        for fid, name in ((2, "algorithm"), (3, "hash"), (4, "compression")):
            union = hdr.get(fid)
            if union is not None and 1 not in union:
                raise NotImplementedError(
                    f"bloom filter {name} {union} not supported"
                )
        bitset = raw[r.p : r.p + nbytes]
        if len(bitset) < nbytes:
            f.seek(meta[14] + r.p)
            bitset = f.read(nbytes)
        if len(bitset) < nbytes:
            raise ValueError("truncated bloom filter bitset")
        return SplitBlockBloomFilter.from_bytes(bitset)


def _bloom_value_hash(value, phys: str, type_length: int) -> int:
    """XXH64 of a predicate literal's PLAIN representation, mirroring
    the writer's `_bloom_hash_values` per physical type."""
    from ..functions.bloom import xxh64

    phys = str(phys)
    if phys == "INT32":
        # mask to the physical width: unsigned literals >= 2^31 share
        # the signed bit pattern the writer hashed (ADVICE r4)
        return xxh64((int(value) & 0xFFFFFFFF).to_bytes(4, "little"))
    if phys == "INT64":
        return xxh64(
            (int(value) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        )
    if phys == "FLOAT":
        return xxh64(np.float32(value).tobytes())
    if phys == "DOUBLE":
        return xxh64(np.float64(value).tobytes())
    if phys in ("BYTE_ARRAY", "FIXED_LEN_BYTE_ARRAY"):
        raw = value.encode() if isinstance(value, str) else bytes(value)
        return xxh64(raw)
    raise ValueError(f"no bloom literal encoding for {phys}")


def _rg_bloom_may_match(path: str, md, row_group: int, name_to_idx: dict,
                        filters) -> bool:
    """Equality-predicate bloom check for one row group: False only
    when a present filter PROVES the literal absent. Any missing
    filter, unsupported type, or parse trouble keeps the group (same
    never-prune-on-absent-evidence posture as the zone maps)."""
    for col, op, val in filters:
        if op not in ("=", "==", "in"):
            continue
        i = name_to_idx.get(col)
        if i is None:
            continue
        try:
            bf = read_bloom_filter(path, row_group, i)
            if bf is None:
                continue
            cmd = md.row_group(row_group).column(i)
            tl = getattr(md.schema.column(i), "length", 0)
            vals = val if op == "in" else (val,)
            if not any(
                bf.contains(_bloom_value_hash(v, cmd.physical_type, tl))
                for v in vals
            ):
                return False
        except (ValueError, NotImplementedError, KeyError, OSError,
                OverflowError):
            continue
    return True


def _cast_to_logical(arr: pa.Array, typ: pa.DataType) -> pa.Array:
    """Cast a physical-typed chunk to the footer's Arrow (logical) type.

    Unsigned logical ints are stored as the same-width SIGNED physical
    type with the unsigned bit pattern (ref layout/page-dict.go:208-235
    special-cases UINT_8/16/32 decode) — a value cast would raise on
    anything ≥ 2^(w-1), so same-width targets are bit-reinterpreted via
    ``Array.view``. A remaining failed cast on an integer target is a
    real representation bug and raises loudly instead of silently
    keeping the physical type (VERDICT r3 item 4)."""
    at = arr.type
    if at.equals(typ):
        return arr
    if pa.types.is_unsigned_integer(typ) and pa.types.is_integer(at):
        if typ.bit_width == at.bit_width:
            return arr.view(typ)  # uint32/uint64: reinterpret the bits
        # uint8/16 zero-extended into INT32: values are non-negative,
        # a plain value cast is exact.
        return arr.cast(typ)
    if (pa.types.is_list(typ) or pa.types.is_large_list(typ)) and (
        pa.types.is_list(at) or pa.types.is_large_list(at)
    ):
        la = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        values = _cast_to_logical(la.values, typ.value_type)
        mask = None
        if la.null_count:
            mask = la.is_null()
        cls = pa.LargeListArray if pa.types.is_large_list(typ) else pa.ListArray
        offsets = la.offsets
        if pa.types.is_large_list(typ) != pa.types.is_large_list(at):
            offsets = offsets.cast(
                pa.int64() if pa.types.is_large_list(typ) else pa.int32()
            )
        return cls.from_arrays(offsets, values, mask=mask)
    try:
        return arr.cast(typ)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        if pa.types.is_integer(typ):
            raise ValueError(
                f"physical type {at} cannot represent logical type {typ}"
                " (value out of range?)"
            )
        return arr  # non-integer representation gap: keep physical


def _assemble_struct(pf: pq.ParquetFile, path: str, row_group: int,
                     indices: list[int], field: pa.Field,
                     entry_range: tuple[int, int] | None = None) -> pa.Array:
    """Rebuild a one-level struct column from its leaf chunks: child
    def levels distinguish struct-null (def < 1) from child-null
    (def < max_def) — every leaf agrees on the parent level, so the
    struct validity comes from any one of them."""
    t = field.type
    md = pf.metadata.row_group(row_group)
    children: dict[str, pa.Array] = {}
    struct_valid: np.ndarray | None = None
    for j in indices:
        child_name = md.column(j).path_in_schema.split(".", 1)[1]
        if "." in child_name:
            raise NotImplementedError("multi-level struct nesting")
        arr, defs = _read_chunk(pf, path, row_group, j, keep_defs=True,
                                entry_range=entry_range)
        ch = t.field(child_name)
        arr = _cast_to_logical(arr, ch.type)
        children[child_name] = arr
        if field.nullable and struct_valid is None:
            struct_valid = defs >= 1
    fields = [t.field(i) for i in range(t.num_fields)]
    arrs = [children[f.name] for f in fields]
    mask = None
    if struct_valid is not None and not bool(struct_valid.all()):
        mask = pa.array(~struct_valid)
    return pa.StructArray.from_arrays(arrs, fields=fields, mask=mask)


def read_row_group_native(path: str, row_group: int,
                          columns: list[str] | None = None,
                          row_range: tuple[int, int] | None = None) -> pa.Table:
    """Read one row group natively; columns cast to the file's Arrow
    schema (timestamps, dictionary-free strings, …) so output matches
    ``pq.read_table`` for flat schemas. ``row_range=(start, stop)``
    reads only that row window: flat/struct chunks skip non-overlapping
    pages without decompressing; list chunks decode and slice rows."""
    pf = _parquet_file(path)
    arrow_schema = pf.schema_arrow
    md = pf.metadata.row_group(row_group)
    if row_range is not None:
        row_range = (max(0, row_range[0]), min(md.num_rows, row_range[1]))
    tops = [
        # top-level field name ("f.list.element" lists, "s.a" structs)
        md.column(i).path_in_schema.split(".")[0]
        for i in range(md.num_columns)
    ]
    out = {}
    for i, top in enumerate(tops):
        if top in out or (columns is not None and top not in columns):
            continue
        field = arrow_schema.field(top)
        is_list_col = pf.schema.column(i).max_repetition_level > 0
        from .dremel import assemble_column, column_depth

        if pa.types.is_map(field.type):
            # Assemble the list<struct<key,value>> view, then rewrap as
            # a MapArray (same physical layout; nulls ride the offsets).
            mt = field.type
            entry = pa.struct([
                pa.field("key", mt.key_type, nullable=False),
                pa.field("value", mt.item_field.type, mt.item_field.nullable),
            ])
            synth = pa.field(
                top, pa.list_(pa.field("element", entry, nullable=False)),
                field.nullable,
            )
            streams = []
            for j in [j for j, tn in enumerate(tops) if tn == top]:
                v, r, d = _read_chunk(pf, path, row_group, j, raw=True)
                streams.append((r, d, v))
            la = assemble_column(synth, streams)
            offs = np.asarray(la.offsets, dtype=np.int32)
            if la.null_count:
                row_null = np.asarray(pc.is_null(la))
                omask = np.concatenate((row_null, [False]))
                offsets_arr = pa.array(offs, pa.int32(), mask=omask)
            else:
                offsets_arr = pa.array(offs, pa.int32())
            arr = pa.MapArray.from_arrays(
                offsets_arr, la.values.field(0), la.values.field(1),
            )
            if row_range is not None:
                arr = arr.slice(row_range[0], row_range[1] - row_range[0])
        elif column_depth(field.type) >= 2:
            # General Dremel assembly from raw leaf streams (leaf order
            # == footer order == depth-first schema order).
            streams = []
            for j in [j for j, tn in enumerate(tops) if tn == top]:
                v, r, d = _read_chunk(pf, path, row_group, j, raw=True)
                streams.append((r, d, v))
            arr = assemble_column(field, streams)
            if row_range is not None:
                arr = arr.slice(row_range[0], row_range[1] - row_range[0])
        elif pa.types.is_struct(field.type):
            arr = _assemble_struct(
                pf, path, row_group,
                [j for j, tn in enumerate(tops) if tn == top], field,
                entry_range=row_range,
            )
        else:
            arr = _read_chunk(pf, path, row_group, i,
                              entry_range=row_range)[0]
            if row_range is not None and is_list_col:
                arr = arr.slice(row_range[0], row_range[1] - row_range[0])
        arr = _cast_to_logical(arr, field.type)
        out[top] = arr
    return pa.table(out)


_FILTER_OPS = {
    "<": lambda lo, hi, v: lo is None or lo < v,
    "<=": lambda lo, hi, v: lo is None or lo <= v,
    ">": lambda lo, hi, v: hi is None or hi > v,
    ">=": lambda lo, hi, v: hi is None or hi >= v,
    "=": lambda lo, hi, v: (lo is None or lo <= v) and (hi is None or hi >= v),
    "==": lambda lo, hi, v: (lo is None or lo <= v) and (hi is None or hi >= v),
    # "in": keep the group if ANY listed value could be present.
    "in": lambda lo, hi, vs: any(
        (lo is None or lo <= v) and (hi is None or hi >= v) for v in vs
    ),
}


def _rg_may_match(md_rg, name_to_idx: dict, filters) -> bool:
    """Conjunctive zone-map check: can this row group contain rows
    satisfying every (col, op, value) predicate? Missing/partial stats
    keep the group (never prune on absent evidence — the same guard the
    blob zone maps apply to truncated string maxima)."""
    for col, op, val in filters:
        i = name_to_idx.get(col)
        if i is None or op not in _FILTER_OPS:
            continue
        st = md_rg.column(i).statistics
        if st is None or st.null_count is None:
            continue
        lo = st.min if st.has_min_max else None
        hi = st.max if st.has_min_max else None
        if not _FILTER_OPS[op](lo, hi, val):
            return False
    return True


def read_parquet_native(paths, columns: list[str] | None = None,
                        concurrency: int | None = None,
                        max_rows_per_task: int = 131_072,
                        filters: list[tuple] | None = None):
    """Distributed engine-native Parquet read: one Ray Data task per
    (file, row_group) — the Dataset-idiomatic shape of the reference's
    row-group iterator (``file-reader.go:193-253``). Each task touches
    only its row group's byte range and requested columns.

    ``filters=[(col, op, value), ...]`` (conjunctive; ops < <= > >= =)
    prunes row groups against footer Statistics inside the listing
    tasks — the read-side consumer of the zone maps the native WRITER
    emits — then applies the predicate exactly per batch, so results
    are identical with or without stats."""
    import ray
    import pyarrow.compute as _pc

    if isinstance(paths, str):
        paths = [paths]

    # A filter on a column outside the projection would KeyError inside
    # the read tasks; union filter columns into the read set and drop
    # them again before yielding, so filters compose with any projection.
    read_columns = columns
    drop_after_filter: list[str] = []
    if filters and columns is not None:
        extra = [c for c, _, _ in filters if c not in columns]
        if extra:
            # preserve order, dedupe
            drop_after_filter = list(dict.fromkeys(extra))
            read_columns = list(columns) + drop_after_filter

    has_eq = bool(filters) and any(
        op in ("=", "==", "in") for _, op, _ in filters
    )

    def _list_groups(batch: pa.Table):
        # Footer walk runs IN the tasks (one open per file, parallel) —
        # the driver never touches file metadata, so a 100 TB listing
        # of many files doesn't serialize on the driver. Row groups
        # larger than max_rows_per_task split into row-range slices
        # (page-skipping decode), so a single huge row group still
        # fans out across the cluster.
        out_p, out_g, out_a, out_b = [], [], [], []
        for p in batch.column("path").to_pylist():
            md = _parquet_file(p).metadata
            n2i = {
                md.row_group(0).column(i).path_in_schema.split(".")[0]: i
                for i in range(md.num_columns)
            } if md.num_row_groups else {}
            for g in range(md.num_row_groups):
                if filters and not _rg_may_match(
                    md.row_group(g), n2i, filters
                ):
                    continue
                if has_eq and not _rg_bloom_may_match(
                    p, md, g, n2i, filters
                ):
                    continue
                n = md.row_group(g).num_rows
                splits = max(1, -(-n // max_rows_per_task))
                step = -(-n // splits)
                for s in range(0, n, step):
                    out_p.append(p)
                    out_g.append(g)
                    out_a.append(s)
                    out_b.append(min(n, s + step))
        yield pa.table({"path": pa.array(out_p, pa.string()),
                        "row_group": pa.array(out_g, pa.int32()),
                        "row_start": pa.array(out_a, pa.int64()),
                        "row_stop": pa.array(out_b, pa.int64())})

    _OP_KERNEL = {"<": _pc.less, "<=": _pc.less_equal, ">": _pc.greater,
                  ">=": _pc.greater_equal, "=": _pc.equal, "==": _pc.equal,
                  "in": lambda a, vs: _pc.is_in(
                      a, value_set=pa.array(list(vs))
                  )}

    def _read(batch: pa.Table):
        for p, g, a, b in zip(
            batch.column("path").to_pylist(),
            batch.column("row_group").to_pylist(),
            batch.column("row_start").to_pylist(),
            batch.column("row_stop").to_pylist(),
        ):
            t = read_row_group_native(p, g, read_columns, row_range=(a, b))
            if filters:
                mask = None
                for col, op, val in filters:
                    ct = t.column(col).type
                    if isinstance(val, int) and pa.types.is_integer(ct):
                        # type the literal explicitly: pyarrow's scalar
                        # inference rejects ints >= 2^63 (uint64 domain)
                        val = pa.scalar(val, ct)
                    elif op == "in" and pa.types.is_integer(ct) and not (
                        isinstance(val, (pa.Array, pa.ChunkedArray))
                    ):
                        val = pa.array(list(val), ct)
                    m = _OP_KERNEL[op](t.column(col), val)
                    mask = m if mask is None else _pc.and_kleene(mask, m)
                if mask is not None:
                    t = t.filter(mask)
            if drop_after_filter:
                t = t.drop_columns(drop_after_filter)
            yield t

    kw = {"concurrency": concurrency} if concurrency else {}
    if len(paths) > 4:
        # Distributed footer walk, then pull only the TINY slice
        # manifest (path, rg, row-range — ~50 B/slice) to plan blocks.
        items = ray.data.from_items(
            [{"path": p} for p in paths]
        ).map_batches(
            _list_groups, batch_size=8, batch_format="pyarrow", **kw
        ).take_all()
    else:
        items = [
            r
            for p in paths
            for b in _list_groups(pa.table({"path": [p]}))
            for r in b.to_pylist()
        ]
    ds = ray.data.from_items(items, override_num_blocks=max(1, len(items)))
    return ds.map_batches(
        _read, batch_size=1, batch_format="pyarrow", zero_copy_batch=True, **kw
    )
