"""Split-block bloom filters (SBBF) + XXH64 — the Parquet spec's
point-lookup pruning structure (parquet-format BloomFilter.md; the
reference carries only the generated thrift shapes,
/root/reference/parquet/parquet.go BloomFilterHeader/BloomFilterAlgorithm,
with no codec behind them — this implements the real thing).

Layout per spec: the filter is ``z`` 256-bit blocks (8 little-endian
uint32 words). A value's XXH64 (seed 0) picks the block from its high
32 bits (multiply-shift: ``((h >> 32) * z) >> 32``) and derives one bit
per word from its low 32 bits via the 8 published odd SALT constants
(``bit_i = (x * SALT[i]) >> 27``). Insert sets the 8 bits; a query is a
conjunction — absent means DEFINITELY not in the chunk, so equality
filters can skip whole row groups.

Hashing is the spec-mandated XXH64 of the value's PLAIN encoding
(little-endian bytes for ints/floats, raw bytes for BYTE_ARRAY/FLBA —
no length prefix). Implemented twice: a scalar reference (pinned
against the published XXH64 test vectors) and a fully vectorized numpy
kernel — fixed-width values as one ``(n, width)`` byte matrix, and
variable-length columns walking all rows' bytes together by offset —
so hashing stays vectorized without a C dependency.

Pure public knowledge: the XXH64 spec (Cyan4973/xxHash
doc/xxhash_spec.md) and the parquet-format bloom filter document.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "xxh64",
    "xxh64_fixed",
    "xxh64_bytes",
    "SplitBlockBloomFilter",
    "optimal_num_blocks",
]

_P1 = 0x9E3779B185EBCA87
_P2 = 0xC2B2AE3D27D4EB4F
_P3 = 0x165667B19E3779F9
_P4 = 0x85EBCA77C2B2AE63
_P5 = 0x27D4EB2F165667C5
_M64 = (1 << 64) - 1

# The 8 SBBF salt constants from the parquet-format spec (one per
# 32-bit word of a 256-bit block).
SALT = np.array(
    [0x47B6137B, 0x44974D91, 0x8824AD5B, 0xA2B7289D,
     0x705495C7, 0x2DF1424B, 0x9EFC4947, 0x5C6BFB31],
    dtype=np.uint32,
)


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _M64


def _round(acc: int, inp: int) -> int:
    acc = (acc + inp * _P2) & _M64
    return (_rotl(acc, 31) * _P1) & _M64


def xxh64(data: bytes, seed: int = 0) -> int:
    """Scalar XXH64 reference (spec doc algorithm), used as the golden
    twin for the vectorized kernel and for one-off lookups."""
    n = len(data)
    off = 0
    if n >= 32:
        v1 = (seed + _P1 + _P2) & _M64
        v2 = (seed + _P2) & _M64
        v3 = seed & _M64
        v4 = (seed - _P1) & _M64
        while off + 32 <= n:
            v1 = _round(v1, int.from_bytes(data[off:off + 8], "little"))
            v2 = _round(v2, int.from_bytes(data[off + 8:off + 16], "little"))
            v3 = _round(v3, int.from_bytes(data[off + 16:off + 24], "little"))
            v4 = _round(v4, int.from_bytes(data[off + 24:off + 32], "little"))
            off += 32
        h = (_rotl(v1, 1) + _rotl(v2, 7) + _rotl(v3, 12) + _rotl(v4, 18)) & _M64
        for v in (v1, v2, v3, v4):
            h = ((h ^ _round(0, v)) * _P1 + _P4) & _M64
    else:
        h = (seed + _P5) & _M64
    h = (h + n) & _M64
    while off + 8 <= n:
        h ^= _round(0, int.from_bytes(data[off:off + 8], "little"))
        h = (_rotl(h, 27) * _P1 + _P4) & _M64
        off += 8
    if off + 4 <= n:
        h ^= (int.from_bytes(data[off:off + 4], "little") * _P1) & _M64
        h = (_rotl(h, 23) * _P2 + _P3) & _M64
        off += 4
    while off < n:
        h ^= (data[off] * _P5) & _M64
        h = (_rotl(h, 11) * _P1) & _M64
        off += 1
    h ^= h >> 33
    h = (h * _P2) & _M64
    h ^= h >> 29
    h = (h * _P3) & _M64
    h ^= h >> 32
    return h


# --- vectorized kernel --------------------------------------------------

def _vrotl(x: np.ndarray, r: int) -> np.ndarray:
    r = np.uint64(r)
    return (x << r) | (x >> np.uint64(64 - int(r)))


def _vround(acc: np.ndarray, inp: np.ndarray) -> np.ndarray:
    acc = acc + inp * np.uint64(_P2)
    return _vrotl(acc, 31) * np.uint64(_P1)


def _le(mat: np.ndarray, off: int, width: int) -> np.ndarray:
    """Little-endian uint read at byte offset ``off`` of every row."""
    chunk = np.ascontiguousarray(mat[:, off:off + width])
    dt = {8: "<u8", 4: "<u4"}[width]
    return chunk.view(dt).reshape(len(mat)).astype(np.uint64)


def _merge(lanes) -> np.ndarray:
    """Fold the four stripe accumulators into one hash per row."""
    u64 = np.uint64
    v1, v2, v3, v4 = lanes
    h = _vrotl(v1, 1) + _vrotl(v2, 7) + _vrotl(v3, 12) + _vrotl(v4, 18)
    for v in lanes:
        h = (h ^ _vround(np.zeros(len(v), u64), v)) * u64(_P1) + u64(_P4)
    return h


def _avalanche(h: np.ndarray) -> np.ndarray:
    u64 = np.uint64
    h = h ^ (h >> u64(33))
    h = h * u64(_P2)
    h = h ^ (h >> u64(29))
    h = h * u64(_P3)
    return h ^ (h >> u64(32))


def _xxh64_matrix(mat: np.ndarray, seed: int = 0) -> np.ndarray:
    """XXH64 of every row of an ``(n, L)`` uint8 matrix — the loop
    count is a function of L only, so each step is one numpy pass over
    all rows (all arithmetic wraps mod 2^64 as numpy uint64 does)."""
    n_rows, L = mat.shape
    u64 = np.uint64
    off = 0
    if L >= 32:
        v1 = np.full(n_rows, (seed + _P1 + _P2) & _M64, u64)
        v2 = np.full(n_rows, (seed + _P2) & _M64, u64)
        v3 = np.full(n_rows, seed & _M64, u64)
        v4 = np.full(n_rows, (seed - _P1) & _M64, u64)
        while off + 32 <= L:
            v1 = _vround(v1, _le(mat, off, 8))
            v2 = _vround(v2, _le(mat, off + 8, 8))
            v3 = _vround(v3, _le(mat, off + 16, 8))
            v4 = _vround(v4, _le(mat, off + 24, 8))
            off += 32
        h = _merge((v1, v2, v3, v4))
    else:
        h = np.full(n_rows, (seed + _P5) & _M64, u64)
    h = h + u64(L)
    while off + 8 <= L:
        h = h ^ _vround(np.zeros(n_rows, u64), _le(mat, off, 8))
        h = _vrotl(h, 27) * u64(_P1) + u64(_P4)
        off += 8
    if off + 4 <= L:
        h = h ^ (_le(mat, off, 4) * u64(_P1))
        h = _vrotl(h, 23) * u64(_P2) + u64(_P3)
        off += 4
    while off < L:
        h = h ^ (mat[:, off].astype(u64) * u64(_P5))
        h = _vrotl(h, 11) * u64(_P1)
        off += 1
    return _avalanche(h)


def xxh64_fixed(values: np.ndarray) -> np.ndarray:
    """Vectorized XXH64 over a fixed-width numeric array: each value is
    hashed as its PLAIN little-endian bytes (what the Parquet bloom
    spec mandates for INT32/INT64/FLOAT/DOUBLE)."""
    v = np.ascontiguousarray(values)
    mat = v.view(np.uint8).reshape(len(v), v.dtype.itemsize)
    return _xxh64_matrix(mat)


def _words(data: np.ndarray, width: int) -> np.ndarray:
    """The little-endian ``width``-byte word at every byte offset of
    ``data`` — an unaligned strided view, no copy."""
    return np.ndarray((len(data) - width + 1,), dtype=f"<u{width}",
                      buffer=data, strides=(1,))


def _rows(mask: np.ndarray):
    """Index of the rows ``mask`` selects: ``None`` for none, a full
    slice for all (no gather), else their positions."""
    if not mask.any():
        return None
    return slice(None) if mask.all() else np.flatnonzero(mask)


def xxh64_bytes(lens: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Vectorized XXH64 over a variable-length byte-array column given
    as flat parts (lengths + concatenated payload — the engine's native
    string layout). All rows walk their bytes together by offset:
    stripe ``s`` reads the 32 bytes at ``offset + 32 s`` of every row
    still that long (rows sorted by stripe count, so those are a
    prefix), then at most 3 + 1 + 3 tail steps read at per-row offsets.
    The number of numpy passes follows the longest row, not the number
    of distinct lengths."""
    lens = np.asarray(lens, dtype=np.int64)
    n = len(lens)
    u64 = np.uint64
    data = np.concatenate(
        [np.asarray(data, dtype=np.uint8).ravel(), np.zeros(8, np.uint8)]
    )
    w8, w4 = _words(data, 8), _words(data, 4)
    off = np.zeros(n, dtype=np.int64)
    np.cumsum(lens[:-1], out=off[1:])
    stripes = lens >> 5
    h = np.full(n, _P5, u64)  # seed 0: rows shorter than one stripe
    order = np.flatnonzero(stripes)
    if len(order):
        order = order[np.argsort(-stripes[order], kind="stable")]
        neg = -stripes[order]  # ascending
        base = off[order]
        lanes = np.arange(0, 32, 8)
        v = np.tile(np.array([(_P1 + _P2) & _M64, _P2, 0, -_P1 & _M64],
                             dtype=u64), (len(order), 1))  # (rows, 4 lanes)
        for s in range(int(-neg[0])):
            k = int(np.searchsorted(neg, -s, side="left"))  # rows > s stripes
            v[:k] = _vround(v[:k], w8[(base[:k, None] + 32 * s) + lanes])
        h[order] = _merge(v.T)
    h += lens.astype(u64)
    off += stripes << 5
    rem = lens & 31
    for j in range(3):  # 8-byte words
        if (idx := _rows(rem >= 8 * (j + 1))) is not None:
            x = h[idx] ^ _vround(np.zeros(len(off[idx]), u64), w8[off[idx]])
            h[idx] = _vrotl(x, 27) * u64(_P1) + u64(_P4)
            off[idx] += 8
    if (idx := _rows(rem & 4)) is not None:  # one 4-byte word
        x = h[idx] ^ (w4[off[idx]].astype(u64) * u64(_P1))
        h[idx] = _vrotl(x, 23) * u64(_P2) + u64(_P3)
        off[idx] += 4
    for j in range(3):  # single bytes
        if (idx := _rows((rem & 3) > j)) is not None:
            x = h[idx] ^ (data[off[idx]].astype(u64) * u64(_P5))
            h[idx] = _vrotl(x, 11) * u64(_P1)
            off[idx] += 1
    return _avalanche(h)


# --- split-block bloom filter -------------------------------------------

_BYTES_PER_BLOCK = 32


def optimal_num_blocks(ndv: int, fpp: float = 0.01) -> int:
    """Blocks for a target false-positive rate: the SBBF sizing formula
    ``m = -8n / ln(1 - fpp^(1/8))`` bits (8 probe bits per key), rounded
    up to a power-of-two block count in [1, 2^22] (32 B – 128 MiB, the
    bounds Arrow's implementation uses)."""
    ndv = max(1, int(ndv))
    if not 0.0 < fpp < 1.0:
        raise ValueError(f"fpp must be in (0, 1), got {fpp}")
    bits = -8.0 * ndv / np.log(1.0 - fpp ** (1.0 / 8.0))
    blocks = max(1, int(np.ceil(bits / 256.0)))
    return 1 << min(22, int(np.ceil(np.log2(blocks))))


class SplitBlockBloomFilter:
    """The bitset: ``num_blocks`` 256-bit blocks stored as a flat
    little-endian uint32 word array (the exact serialized layout —
    ``to_bytes`` is a view, no re-packing)."""

    def __init__(self, num_blocks: int,
                 words: np.ndarray | None = None) -> None:
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        self.num_blocks = int(num_blocks)
        if words is None:
            words = np.zeros(self.num_blocks * 8, dtype=np.uint32)
        if len(words) != self.num_blocks * 8:
            raise ValueError("words length != num_blocks * 8")
        self.words = words

    def _positions(self, hashes: np.ndarray):
        h = np.asarray(hashes, dtype=np.uint64)
        block = ((h >> np.uint64(32))
                 * np.uint64(self.num_blocks)) >> np.uint64(32)
        x = (h & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        # (n, 8): bit index inside word i = top 5 bits of x * SALT[i]
        bits = (x[:, None] * SALT[None, :]) >> np.uint32(27)
        word_idx = (block[:, None] * np.uint64(8)
                    + np.arange(8, dtype=np.uint64)[None, :])
        return word_idx.astype(np.int64), np.uint32(1) << bits

    def insert_hashes(self, hashes: np.ndarray) -> None:
        word_idx, masks = self._positions(hashes)
        np.bitwise_or.at(self.words, word_idx.ravel(), masks.ravel())

    def contains_hashes(self, hashes: np.ndarray) -> np.ndarray:
        word_idx, masks = self._positions(hashes)
        hit = (self.words[word_idx] & masks) == masks
        return hit.all(axis=1)

    def contains(self, hash_value: int) -> bool:
        return bool(self.contains_hashes(
            np.array([hash_value], dtype=np.uint64))[0])

    def to_bytes(self) -> bytes:
        return self.words.astype("<u4", copy=False).tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SplitBlockBloomFilter":
        if len(raw) == 0 or len(raw) % _BYTES_PER_BLOCK:
            raise ValueError(
                f"SBBF bitset must be a multiple of {_BYTES_PER_BLOCK}"
                f" bytes, got {len(raw)}"
            )
        words = np.frombuffer(raw, dtype="<u4").copy()
        return cls(len(raw) // _BYTES_PER_BLOCK, words)
