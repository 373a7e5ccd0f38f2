"""Optional C fast path for the hybrid-RLE / bitpack / delta hot loops.

VERDICT r3 item 1: per-core encode is dominated by the Python-kernel tax
of these three wire codecs (thousands of small ``pack`` calls per column
chunk; ``np.add.reduceat``-style multi-pass vectorization where the
sequential algorithm is one pass). This module extends the proven
``_fsst_native`` pattern: a ~200-line C kernel compiled with the system
compiler at first use (cached under /tmp, keyed by source hash), exposed
via ctypes, degrading silently to the numpy paths — no compiler or no
dlopen → every hook returns ``None`` and the callers keep their numpy
implementations.

Every kernel replicates its numpy twin BYTE-IDENTICALLY (same run
detection, same 504-value bit-packed run cap, same 8-alignment borrow,
same delta block/miniblock layout and padding rules) — pinned by
tests/test_wire_native.py fuzz equality. Decode error paths return a
negative code and the wrapper falls back to the numpy decoder so the
exception type AND message stay exactly the numpy ones.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

import numpy as np

from parquet_go_ray.functions import _native_cache

_C_SRC = r"""
#include <stdint.h>
#include <string.h>

static inline int64_t put_uvarint(uint8_t* out, int64_t op, uint64_t v) {
    while (v >= 0x80) { out[op++] = (uint8_t)(v | 0x80); v >>= 7; }
    out[op++] = (uint8_t)v;
    return op;
}

static inline int64_t put_svarint(uint8_t* out, int64_t op, int64_t v) {
    uint64_t zz = ((uint64_t)v << 1) ^ (uint64_t)(v >> 63);
    return put_uvarint(out, op, zz);
}

/* LSB-first bit packing: value i occupies bits [i*w, (i+1)*w) of a
   little-endian bit stream (bit k of byte b is (b>>k)&1). out region
   must be zeroed by the caller (or is zeroed here for the exact size).
   Values beyond nreal read as 0 (padding). */
static void pack_span(const uint64_t* v, int64_t nreal, int64_t ntotal,
                      int width, uint8_t* out) {
    int64_t nbytes = (ntotal * width + 7) / 8;
    memset(out, 0, (size_t)nbytes);
    uint64_t mask = width >= 64 ? ~0ULL : ((1ULL << width) - 1);
    int64_t bit = 0;
    for (int64_t t = 0; t < ntotal; t++) {
        uint64_t x = t < nreal ? (v[t] & mask) : 0;
        int rem = width;
        while (rem > 0) {
            int64_t byte = bit >> 3; int o = (int)(bit & 7);
            int take = 8 - o; if (take > rem) take = rem;
            out[byte] |= (uint8_t)((x & ((1U << take) - 1)) << o);
            x >>= take; bit += take; rem -= take;
        }
    }
}

void pgr_pack(const uint64_t* v, int64_t n, int width, uint8_t* out) {
    pack_span(v, n, n, width, out);
}

void pgr_unpack(const uint8_t* data, int width, int64_t count,
                uint64_t* out) {
    int64_t bit = 0;
    for (int64_t t = 0; t < count; t++) {
        uint64_t x = 0; int rem = width; int got = 0;
        while (rem > 0) {
            int64_t byte = bit >> 3; int o = (int)(bit & 7);
            int take = 8 - o; if (take > rem) take = rem;
            x |= ((uint64_t)((data[byte] >> o) & ((1U << take) - 1))) << got;
            got += take; bit += take; rem -= take;
        }
        out[t] = x;
    }
}

/* Bit-packed runs of <= 63 groups (504 values); ntotal % 8 == 0. */
static int64_t emit_bitpack(uint8_t* out, int64_t op, const uint64_t* v,
                            int64_t nreal, int64_t ntotal, int width) {
    for (int64_t off = 0; off < ntotal; off += 504) {
        int64_t chunk = ntotal - off < 504 ? ntotal - off : 504;
        int64_t groups = chunk / 8;
        op = put_uvarint(out, op, (uint64_t)((groups << 1) | 1));
        int64_t creal = nreal - off;
        if (creal < 0) creal = 0;
        if (creal > chunk) creal = chunk;
        pack_span(v + off, creal, chunk, width, out + op);
        op += groups * width;
    }
    return op;
}

/* RLE / bit-packed hybrid encode; mirrors functions/hybrid.py
   hybrid_encode exactly (byte-identical): run boundaries, >=8 long-run
   RLE with 8-alignment borrow from the run head, trailing zero pad. */
int64_t pgr_hybrid_encode(const uint64_t* v, int64_t n, int width,
                          uint8_t* out) {
    if (n == 0 || width == 0) return 0;
    int64_t op = 0, pend = 0, i = 0;
    int vb = (width + 7) / 8;
    while (i < n) {
        uint64_t x = v[i];
        int64_t j = i + 1;
        while (j < n && v[j] == x) j++;
        int64_t len = j - i;
        if (len >= 8) {
            int64_t k = (8 - ((i - pend) & 7)) & 7;
            int64_t rle_len = len - k;
            if (rle_len >= 8) {
                int64_t span = (i + k) - pend;
                op = emit_bitpack(out, op, v + pend, span, span, width);
                op = put_uvarint(out, op, (uint64_t)(rle_len << 1));
                for (int b = 0; b < vb; b++)
                    out[op++] = (uint8_t)(x >> (8 * b));
                pend = j;
            }
        }
        i = j;
    }
    int64_t rem = n - pend;
    if (rem > 0) {
        int64_t ntotal = (rem + 7) & ~(int64_t)7;
        op = emit_bitpack(out, op, v + pend, rem, ntotal, width);
    }
    return op;
}

/* Hybrid decode: fills out[0..count); returns new pos, or a negative
   error code (the wrapper re-runs the numpy decoder for the exact
   exception). */
int64_t pgr_hybrid_decode(const uint8_t* data, int64_t nd, int width,
                          int64_t count, int64_t pos, uint64_t* out) {
    if (width == 0 || count == 0) return pos;
    int vb = (width + 7) / 8;
    int64_t filled = 0;
    while (filled < count) {
        uint64_t header = 0; int shift = 0;
        for (;;) {
            if (pos >= nd) return -1;
            uint8_t b = data[pos++];
            header |= ((uint64_t)(b & 0x7F)) << shift;
            if (!(b & 0x80)) break;
            shift += 7;
            if (shift > 63) return -1;
        }
        if (header & 1) {
            int64_t groups = (int64_t)(header >> 1);
            if (groups == 0) return -1;
            /* reject BEFORE multiplying: a file-controlled varint can
               otherwise overflow nbytes/nvals to a negative value that
               passes the bounds check and sends pgr_unpack out of
               bounds (width is validated 1..64 by the wrapper) */
            if (groups > (nd - pos) / width) return -1;
            if (groups > INT64_MAX / 8) return -1;
            int64_t nbytes = groups * width;
            if (nbytes > nd - pos) return -1;
            int64_t nvals = groups * 8;
            int64_t take = nvals < count - filled ? nvals : count - filled;
            pgr_unpack(data + pos, width, take, out + filled);
            pos += nbytes;
            filled += take;
        } else {
            int64_t run = (int64_t)(header >> 1);
            if (run == 0) return -1;
            if (vb > nd - pos) return -1;
            uint64_t value = 0;
            for (int b = 0; b < vb; b++)
                value |= ((uint64_t)data[pos + b]) << (8 * b);
            pos += vb;
            int64_t take = run < count - filled ? run : count - filled;
            for (int64_t t = 0; t < take; t++) out[filled + t] = value;
            filled += take;
        }
    }
    return pos;
}

static inline int64_t sext(uint64_t u, int nbits) {
    if (nbits >= 64) return (int64_t)u;
    uint64_t m = 1ULL << (nbits - 1);
    u &= (m << 1) - 1;
    return (int64_t)((u ^ m) - m);
}

static inline int bitlen(uint64_t x) {
    int n = 0;
    while (x) { n++; x >>= 1; }
    return n;
}

/* DELTA_BINARY_PACKED encode; mirrors functions/delta.py delta_encode
   byte-for-byte (wrap arithmetic at nbits, per-block signed min, padding
   rules, empty trailing miniblocks). v = raw value bits zero-extended to
   u64. */
int64_t pgr_delta_encode(const uint64_t* v, int64_t n, int nbits,
                         int64_t block, int64_t miniblocks, uint8_t* out) {
    int64_t mb_size = block / miniblocks;
    uint64_t mask = nbits >= 64 ? ~0ULL : ((1ULL << nbits) - 1);
    int64_t op = 0;
    op = put_uvarint(out, op, (uint64_t)block);
    op = put_uvarint(out, op, (uint64_t)miniblocks);
    op = put_uvarint(out, op, (uint64_t)n);
    op = put_svarint(out, op, n ? sext(v[0], nbits) : 0);
    if (n <= 1) return op;
    int64_t nd = n - 1;
    int64_t nblocks = (nd + block - 1) / block;
    for (int64_t b = 0; b < nblocks; b++) {
        int64_t base = b * block;
        int64_t nreal = nd - base < block ? nd - base : block;
        /* signed min over real deltas */
        int64_t mind = 0; int first = 1;
        for (int64_t t = 0; t < nreal; t++) {
            uint64_t d = (v[base + t + 1] - v[base + t]) & mask;
            int64_t sd = sext(d, nbits);
            if (first || sd < mind) { mind = sd; first = 0; }
        }
        op = put_svarint(out, op, mind);
        int64_t wpos = op;           /* miniblock width bytes */
        op += miniblocks;
        uint64_t umind = (uint64_t)mind & mask;
        for (int64_t m = 0; m < miniblocks; m++) {
            int64_t mstart = m * mb_size;
            if (base + mstart >= nd) { out[wpos + m] = 0; continue; }
            int64_t mreal = nreal - mstart;
            if (mreal > mb_size) mreal = mb_size;
            if (mreal < 0) mreal = 0;
            uint64_t mx = 0;
            for (int64_t t = 0; t < mreal; t++) {
                int64_t g = base + mstart + t;
                uint64_t rel = ((v[g + 1] - v[g]) & mask) - umind;
                rel &= mask;
                if (rel > mx) mx = rel;
            }
            int w = bitlen(mx);
            out[wpos + m] = (uint8_t)w;
            if (w == 0) { continue; }
            /* pack mb_size rel values (zeros past mreal) */
            int64_t nbytes = mb_size * w / 8;
            memset(out + op, 0, (size_t)nbytes);
            int64_t bit = 0;
            for (int64_t t = 0; t < mb_size; t++) {
                uint64_t x = 0;
                if (t < mreal) {
                    int64_t g = base + mstart + t;
                    x = (((v[g + 1] - v[g]) & mask) - umind) & mask;
                }
                int rem = w;
                while (rem > 0) {
                    int64_t byte = op + (bit >> 3); int o = (int)(bit & 7);
                    int take = 8 - o; if (take > rem) take = rem;
                    out[byte] |= (uint8_t)((x & ((1U << take) - 1)) << o);
                    x >>= take; bit += take; rem -= take;
                }
            }
            op += nbytes;
        }
    }
    return op;
}

/* DELTA_BINARY_PACKED decode into raw value bits (u64, zero-extended);
   the wrapper views the result as int32/int64. Returns new pos or a
   negative code (wrapper falls back to numpy for the exact error). */
int64_t pgr_delta_decode(const uint8_t* data, int64_t nd_bytes, int64_t pos,
                         int nbits, int64_t expect_count,
                         uint64_t* out, int64_t* out_count) {
    uint64_t mask = nbits >= 64 ? ~0ULL : ((1ULL << nbits) - 1);
    uint64_t hdr[3];
    for (int k = 0; k < 3; k++) {
        uint64_t u = 0; int shift = 0;
        for (;;) {
            if (pos >= nd_bytes) return -1;
            uint8_t b = data[pos++];
            u |= ((uint64_t)(b & 0x7F)) << shift;
            if (!(b & 0x80)) break;
            shift += 7;
            if (shift > 63) return -1;
        }
        hdr[k] = u;
    }
    int64_t block = (int64_t)hdr[0], miniblocks = (int64_t)hdr[1];
    int64_t count = (int64_t)hdr[2];
    if (block % 128 != 0 || block == 0 || block > (1 << 20)) return -1;
    if (miniblocks == 0 || block % miniblocks != 0) return -1;
    int64_t mb_size = block / miniblocks;
    /* svarint first value */
    uint64_t zz = 0; int shift = 0;
    for (;;) {
        if (pos >= nd_bytes) return -1;
        uint8_t b = data[pos++];
        zz |= ((uint64_t)(b & 0x7F)) << shift;
        if (!(b & 0x80)) break;
        shift += 7;
        if (shift > 63) return -1;
    }
    int64_t first = (int64_t)(zz >> 1) ^ -(int64_t)(zz & 1);
    if (expect_count >= 0 && count != expect_count) return -1;
    *out_count = count;
    if (count == 0) return pos;
    int64_t ndl = count - 1;
    if (ndl > block * (nd_bytes - pos > 0 ? nd_bytes - pos : 1)) return -1;
    out[0] = (uint64_t)first & mask;
    uint64_t acc = out[0];
    int64_t got = 0;
    while (got < ndl) {
        /* svarint min_delta */
        uint64_t z2 = 0; shift = 0;
        for (;;) {
            if (pos >= nd_bytes) return -1;
            uint8_t b = data[pos++];
            z2 |= ((uint64_t)(b & 0x7F)) << shift;
            if (!(b & 0x80)) break;
            shift += 7;
            if (shift > 63) return -1;
        }
        int64_t mind = (int64_t)(z2 >> 1) ^ -(int64_t)(z2 & 1);
        uint64_t umind = (uint64_t)mind & mask;
        if (pos + miniblocks > nd_bytes) return -1;
        const uint8_t* ws = data + pos;
        pos += miniblocks;
        for (int64_t m = 0; m < miniblocks && got < ndl; m++) {
            int w = ws[m];
            if (w > nbits) return -2;  /* width exceeds type width */
            int64_t nbytes = mb_size * w / 8;
            if (pos + nbytes > nd_bytes) return -1;
            int64_t take = mb_size < ndl - got ? mb_size : ndl - got;
            int64_t bit = 0;
            for (int64_t t = 0; t < take; t++) {
                uint64_t x = 0; int rem = w; int gotb = 0;
                while (rem > 0) {
                    int64_t byte = pos + (bit >> 3); int o = (int)(bit & 7);
                    int tk = 8 - o; if (tk > rem) tk = rem;
                    x |= ((uint64_t)((data[byte] >> o) & ((1U << tk) - 1)))
                         << gotb;
                    gotb += tk; bit += tk; rem -= tk;
                }
                acc = (acc + ((x + umind) & mask)) & mask;
                out[1 + got + t] = acc;
            }
            pos += nbytes;
            got += take;
        }
    }
    return pos;
}
"""


def _compile() -> ctypes.CDLL | None:
    key = hashlib.sha1(_C_SRC.encode()).hexdigest()[:16]
    try:
        so_path = os.path.join(_native_cache.cache_dir(), f"pgr_wire_{key}.so")
        if not os.path.exists(so_path):
            with tempfile.NamedTemporaryFile(
                "w", suffix=".c", delete=False
            ) as f:
                f.write(_C_SRC)
                c_path = f.name
            try:
                for cc in ("cc", "gcc", "clang"):
                    r = subprocess.run(
                        [cc, "-O2", "-shared", "-fPIC", "-o",
                         so_path + ".tmp", c_path],
                        capture_output=True,
                        timeout=60,
                    )
                    if r.returncode == 0:
                        os.replace(so_path + ".tmp", so_path)
                        break
                else:
                    return None
            finally:
                os.unlink(c_path)
        lib = _native_cache.safe_cdll(so_path)
    except Exception:
        return None
    u8p = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    u64p = np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS")
    i64 = ctypes.c_int64
    lib.pgr_pack.restype = None
    lib.pgr_pack.argtypes = [u64p, i64, ctypes.c_int, u8p]
    lib.pgr_unpack.restype = None
    lib.pgr_unpack.argtypes = [u8p, ctypes.c_int, i64, u64p]
    lib.pgr_hybrid_encode.restype = i64
    lib.pgr_hybrid_encode.argtypes = [u64p, i64, ctypes.c_int, u8p]
    lib.pgr_hybrid_decode.restype = i64
    lib.pgr_hybrid_decode.argtypes = [u8p, i64, ctypes.c_int, i64, i64, u64p]
    lib.pgr_delta_encode.restype = i64
    lib.pgr_delta_encode.argtypes = [u64p, i64, ctypes.c_int, i64, i64, u8p]
    lib.pgr_delta_decode.restype = i64
    lib.pgr_delta_decode.argtypes = [
        u8p, i64, i64, ctypes.c_int, i64, u64p,
        np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS"),
    ]
    return lib


_LIB: ctypes.CDLL | None = None
_TRIED = False


def lib() -> ctypes.CDLL | None:
    global _LIB, _TRIED
    if not _TRIED:
        _TRIED = True
        _LIB = _compile()
    return _LIB


def _as_u8(data) -> np.ndarray:
    if isinstance(data, np.ndarray) and data.dtype == np.uint8:
        return np.ascontiguousarray(data)
    return np.frombuffer(bytes(data) if not isinstance(
        data, (bytes, bytearray, memoryview)
    ) else data, dtype=np.uint8)


def pack(values: np.ndarray, width: int) -> bytes | None:
    L = lib()
    if L is None:
        return None
    v = np.ascontiguousarray(values, dtype=np.uint64)
    out = np.zeros((len(v) * width + 7) // 8, dtype=np.uint8)
    L.pgr_pack(v, len(v), width, out)
    return out.tobytes()


def unpack(data, width: int, count: int) -> np.ndarray | None:
    L = lib()
    if L is None:
        return None
    if not 1 <= width <= 64:
        return None
    buf = _as_u8(data)
    if len(buf) * 8 < count * width:
        return None  # pgr_unpack reads blindly; let numpy raise
    out = np.empty(count, dtype=np.uint64)
    L.pgr_unpack(buf, width, count, out)
    return out


def hybrid_encode(values: np.ndarray, width: int) -> bytes | None:
    L = lib()
    if L is None:
        return None
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(v)
    # worst case: alternating 8-value bitpack spans (5B header) and
    # 8-long RLE runs (5B header + 8B value) plus final pad group
    bound = ((n + 7) // 8 + 64) * (width + 16)
    out = np.empty(max(64, bound), dtype=np.uint8)
    total = L.pgr_hybrid_encode(v, n, width, out)
    return out[:total].tobytes()


def hybrid_decode(data, width: int, count: int,
                  pos: int = 0) -> tuple[np.ndarray, int] | None:
    L = lib()
    if L is None:
        return None
    if not 1 <= width <= 64:
        # dict-index bit width comes straight from the file byte; the C
        # kernel assumes 1..64 — let the numpy decoder raise cleanly
        return None
    buf = _as_u8(data)
    out = np.zeros(count, dtype=np.uint64)
    new_pos = L.pgr_hybrid_decode(buf, len(buf), width, count, pos, out)
    if new_pos < 0:
        return None  # caller falls back to numpy for the exact error
    return out, int(new_pos)


def delta_encode(values: np.ndarray, nbits: int, block: int,
                 miniblocks: int) -> bytes | None:
    """``values``: raw value bits zero-extended to uint64."""
    L = lib()
    if L is None:
        return None
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(v)
    nd = max(0, n - 1)
    nblocks = -(-nd // block) if nd else 0
    bound = 64 + nblocks * (10 + miniblocks) + (nd + block) * (nbits // 8 + 1)
    out = np.empty(max(64, bound), dtype=np.uint8)
    total = L.pgr_delta_encode(v, n, nbits, block, miniblocks, out)
    return out[:total].tobytes()


def delta_decode(data, pos: int, nbits: int,
                 expect: int | None) -> tuple[np.ndarray, int] | None:
    """Returns (raw-bit u64 values, new_pos) or None (unavailable or
    decode error — caller re-runs numpy for the exact exception)."""
    L = lib()
    if L is None:
        return None
    buf = _as_u8(data)
    if expect is not None:
        cap = expect
    else:
        # count lives in the 3rd uvarint; decode it cheaply in Python
        p = pos
        for _ in range(2):
            while p < len(buf) and buf[p] & 0x80:
                p += 1
            p += 1
        cap, shift = 0, 0
        while p < len(buf):
            b = int(buf[p]); p += 1
            cap |= (b & 0x7F) << shift
            if not (b & 0x80):
                break
            shift += 7
        if cap > len(buf) * 8192:  # implausible; let numpy raise
            return None
    out = np.empty(max(1, cap), dtype=np.uint64)
    out_count = np.zeros(1, dtype=np.int64)
    new_pos = L.pgr_delta_decode(
        buf, len(buf), pos, nbits, -1 if expect is None else expect,
        out, out_count,
    )
    if new_pos < 0:
        return None
    return out[: int(out_count[0])], int(new_pos)
