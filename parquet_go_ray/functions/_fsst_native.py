"""Optional C fast path for the FSST scan/expand hot loops.

The numpy FSST implementation (functions/fsst.py) tops out ≈10 MB/s/core
on transcript text — the vectorized matcher pays ~15 memory passes per
chunk while the sequential algorithm is a single pass (profile in
NOTES_r3.md). This module compiles a ~100-line C kernel with the system
compiler at first use (cached under /tmp, keyed by source hash) and
exposes it via ctypes. Everything degrades silently to the numpy path:
no compiler or no dlopen → ``scan = unscan = None``.

The kernel replicates the numpy matcher EXACTLY (same single-probe hash
table, same lut1/lut2, same greedy left-to-right scan, same escape-run
parity on decode), so encoded streams are byte-identical whichever path
runs — pinned by tests/test_fsst.py::test_native_matches_numpy.
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

static inline uint64_t load_be8(const uint8_t* data, int64_t i, int64_t n) {
    uint64_t w = 0;
    int64_t take = n - i < 8 ? n - i : 8;
    for (int64_t k = 0; k < take; k++) w = (w << 8) | data[i + k];
    return w << (8 * (8 - take));
}

/* Greedy FSST scan over concatenated values; mirrors _Matcher.match +
   _greedy_positions + the emit loop of fsst_encode. Returns total output
   bytes; enc_lens[v] = encoded length of value v. */
int64_t fsst_scan(const uint8_t* data, int64_t n,
                  const int64_t* voff, int64_t nv,
                  const uint64_t* slot_key, const uint64_t* slot_mask,
                  const int8_t* slot_len, const int16_t* slot_code,
                  const int16_t* lut1, const int16_t* lut2, int has3,
                  uint8_t* out, int64_t* enc_lens)
{
    int64_t op = 0;
    for (int64_t v = 0; v < nv; v++) {
        int64_t i = voff[v], end = voff[v + 1];
        int64_t start_op = op;
        while (i < end) {
            int64_t rem = end - i;
            if (has3 && rem >= 3) {
                uint64_t w8 = load_be8(data, i, n);
                uint64_t h = ((w8 >> 40) * 0x9E3779B97F4A7C15ULL) >> 52;
                int16_t cd = slot_code[h];
                if (cd >= 0) {
                    int8_t L = slot_len[h];
                    if (L <= rem && (w8 & slot_mask[h]) == slot_key[h]) {
                        out[op++] = (uint8_t)cd;
                        i += L;
                        continue;
                    }
                }
            }
            if (rem >= 2) {
                uint32_t k2 = ((uint32_t)data[i] << 8) | data[i + 1];
                int16_t c2 = lut2[k2];
                if (c2 >= 0) { out[op++] = (uint8_t)c2; i += 2; continue; }
            }
            int16_t c1 = lut1[data[i]];
            if (c1 >= 0) { out[op++] = (uint8_t)c1; }
            else { out[op++] = 255; out[op++] = data[i]; }
            i += 1;
        }
        enc_lens[v] = op - start_op;
    }
    return op;
}

/* Expansion (decode) mirroring the numpy escape-run-parity pass.
   pass 0: compute sizes only (out may be NULL); pass 1: fill.
   Records the output offset at every encoded-value boundary so
   out_lens match numpy's out_off[enc_off] exactly.
   Returns total output bytes, or -1 for a code out of range. */
int64_t fsst_unscan(const uint8_t* buf, int64_t n,
                    const int64_t* enc_off, int64_t nv,
                    const uint8_t* sym_data, const int64_t* sym_off,
                    const int64_t* sym_lens, int64_t n_sym,
                    uint8_t* out, int64_t* out_lens, int fill)
{
    int64_t op = 0, bi = 0, last = -1;
    int esc_pending = 0;
    for (int64_t p = 0; p <= n; p++) {
        while (bi <= nv && enc_off[bi] == p) {
            if (bi > 0 && out_lens) out_lens[bi - 1] = op - last;
            last = op;
            bi++;
        }
        if (p == n) break;
        uint8_t b = buf[p];
        if (esc_pending) {
            if (fill) out[op] = b;
            op++;
            esc_pending = 0;
        } else if (b == 255) {
            esc_pending = 1;
        } else {
            if ((int64_t)b >= n_sym) return -1;
            int64_t L = sym_lens[b];
            if (fill) memcpy(out + op, sym_data + sym_off[b], (size_t)L);
            op += L;
        }
    }
    return op;
}
"""


def _compile() -> ctypes.CDLL | None:
    key = hashlib.sha1(_C_SRC.encode()).hexdigest()[:16]
    try:
        so_path = os.path.join(_native_cache.cache_dir(), f"pgr_fsst_{key}.so")
        if not os.path.exists(so_path):
            with tempfile.NamedTemporaryFile(
                "w", suffix=".c", delete=False
            ) as f:
                f.write(_C_SRC)
                c_path = f.name
            try:
                for cc in ("cc", "gcc", "clang"):
                    r = subprocess.run(
                        [cc, "-O2", "-shared", "-fPIC", "-o", so_path + ".tmp", c_path],
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
    i64p = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    lib.fsst_scan.restype = ctypes.c_int64
    lib.fsst_scan.argtypes = [
        u8p, ctypes.c_int64, i64p, ctypes.c_int64,
        np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.int8, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.int16, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.int16, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.int16, flags="C_CONTIGUOUS"),
        ctypes.c_int, u8p, i64p,
    ]
    lib.fsst_unscan.restype = ctypes.c_int64
    lib.fsst_unscan.argtypes = [
        u8p, ctypes.c_int64, i64p, ctypes.c_int64,
        u8p, i64p, i64p, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int,
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


def scan(
    data: np.ndarray, value_offsets: np.ndarray, matcher
) -> tuple[np.ndarray, np.ndarray] | None:
    """(encoded buffer, per-value encoded lengths) or None if unavailable."""
    L = lib()
    if L is None:
        return None
    data = np.ascontiguousarray(data, dtype=np.uint8)
    voff = np.ascontiguousarray(value_offsets, dtype=np.int64)
    nv = len(voff) - 1
    out = np.empty(max(1, 2 * len(data)), dtype=np.uint8)
    enc_lens = np.zeros(max(1, nv), dtype=np.int64)
    total = L.fsst_scan(
        data, len(data), voff, nv,
        matcher.slot_key, matcher.slot_mask, matcher.slot_len,
        matcher.slot_code, matcher.lut1, matcher.lut2,
        int(matcher.has3), out, enc_lens,
    )
    return out[:total], enc_lens[:nv]


def unscan(
    buf: np.ndarray,
    enc_off: np.ndarray,
    sym_data: np.ndarray,
    sym_off: np.ndarray,
    sym_lens: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """(output buffer, per-value output lengths), None if unavailable.
    Raises ValueError on a code out of range (mirrors the numpy path)."""
    L = lib()
    if L is None:
        return None
    buf = np.ascontiguousarray(buf, dtype=np.uint8)
    enc_off = np.ascontiguousarray(enc_off, dtype=np.int64)
    sym_data = np.ascontiguousarray(sym_data, dtype=np.uint8)
    sym_off = np.ascontiguousarray(sym_off, dtype=np.int64)
    sym_lens64 = np.ascontiguousarray(sym_lens, dtype=np.int64)
    nv = len(enc_off) - 1
    n_sym = len(sym_lens64)
    total = L.fsst_unscan(
        buf, len(buf), enc_off, nv, sym_data, sym_off, sym_lens64, n_sym,
        None, None, 0,
    )
    if total < 0:
        raise ValueError("fsst code out of range")
    out = np.empty(max(1, int(total)), dtype=np.uint8)
    out_lens = np.zeros(max(1, nv), dtype=np.int64)
    L.fsst_unscan(
        buf, len(buf), enc_off, nv, sym_data, sym_off, sym_lens64, n_sym,
        out.ctypes.data, out_lens.ctypes.data, 1,
    )
    return out[: int(total)], out_lens[:nv]
