"""FSST string compression (Boncz, Neumann, Leis — VLDB 2020), engine-new.

Not present in the reference (SURVEY.md §2.7); required by the north rule
for long text turns. A 255-entry table of 1–8-byte symbols replaces each
longest-matching symbol occurrence with a 1-byte code; bytes with no match
are emitted as ``ESC literal`` (2 bytes). Decode is random-access per value.

This implementation is fully vectorized numpy — no per-byte Python loops:

- *matching*: rolling big-endian uint64 keys give every length-L window in
  one shift-or pass; ``searchsorted`` against the per-length sorted symbol
  keys yields the longest match at every position simultaneously.
- *greedy scan*: the left-to-right "jump by matched length" recurrence is
  resolved with pointer doubling (``f = f[f]``) in O(log n) vectorized
  passes, enumerating exactly the positions the sequential greedy encoder
  would visit.
- *table build*: the paper's iterative scheme — encode a sample with the
  current table, count symbol and adjacent-pair frequencies, keep the top
  255 candidates by gain = freq × length, repeat.
- *decode*: one pass classifying escape runs by parity, then two ragged
  scatters (symbol bytes, literals).
"""

from __future__ import annotations

import numpy as np

from .delta import delta_decode, delta_encode
from .varint import uvarint_decode, uvarint_encode

__all__ = ["build_symbol_table", "fsst_encode", "fsst_decode"]

ESC = 255
MAX_SYMBOLS = 255  # codes 0..254; 255 is the escape byte
MAX_SYM_LEN = 8
_SAMPLE_CAP = 1 << 16
_BUILD_ROUNDS = 4
_ENCODE_CHUNK = 1 << 20  # scan granularity (bytes), value-aligned


def _window_keys(data: np.ndarray) -> np.ndarray:
    """w8[i] = the 8 bytes at data[i:i+8] as a big-endian uint64 (input is
    zero-padded at the end). One zero-copy sliding-window view + one
    byteswap pass; length-L keys are then ``w8 >> (8*(8-L))``."""
    n = len(data)
    padded = np.concatenate([data, np.zeros(7, dtype=np.uint8)])
    win = np.lib.stride_tricks.sliding_window_view(padded, 8)[:n]
    return win.view(">u8").ravel().astype(np.uint64)


def _sym_key(sym: bytes) -> int:
    return int.from_bytes(sym, "big")


_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)
_TABLE_BITS = 12  # 4096 slots for ≤255 keys


class _Matcher:
    """Single-probe longest-match, the scheme of the FSST paper's fast
    encoder: one hash table keyed by the FIRST 3 BYTES of every symbol of
    length ≥ 3 holding exactly ONE candidate per slot (ties won by higher
    gain = lower code; losing symbols simply never match), plus direct
    LUTs for 2- and 1-byte symbols. Match cost per position is one hash
    probe + two LUT gathers regardless of how many symbol lengths exist —
    round 1 probed six per-length hash tables per position."""

    def __init__(self, symbols: list[bytes]):
        self.symbols = symbols
        size = 1 << _TABLE_BITS
        self.slot_key = np.zeros(size, dtype=np.uint64)  # left-aligned bytes
        self.slot_mask = np.zeros(size, dtype=np.uint64)  # top len(s) bytes
        self.slot_len = np.zeros(size, dtype=np.int8)
        self.slot_code = np.full(size, -1, dtype=np.int16)
        self.lut1 = np.full(256, -1, dtype=np.int16)
        self.lut2 = np.full(65536, -1, dtype=np.int16)
        self.has3 = False
        for code, s in enumerate(symbols):  # ascending code = descending gain
            L = len(s)
            if L == 1:
                if self.lut1[s[0]] < 0:
                    self.lut1[s[0]] = code
            elif L == 2:
                k = _sym_key(s)
                if self.lut2[k] < 0:
                    self.lut2[k] = code
            else:
                k3 = _sym_key(s[:3])
                h = (
                    (k3 * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
                ) >> (64 - _TABLE_BITS)
                if self.slot_code[h] < 0:  # first (highest-gain) wins
                    self.slot_key[h] = _sym_key(s + b"\x00" * (8 - L))
                    self.slot_mask[h] = (
                        ~np.uint64(0) << np.uint64(8 * (8 - L))
                    ) if L < 8 else ~np.uint64(0)
                    self.slot_len[h] = L
                    self.slot_code[h] = code
                    self.has3 = True

    def match(self, data: np.ndarray, boundary_end: np.ndarray):
        """Longest valid match at every position.

        boundary_end[i] = exclusive end of the value containing position i
        (matches must not cross value boundaries).
        Returns (matched_len:int8, matched_code:int16), arrays of len(data)
        — narrow dtypes keep the scan memory-bandwidth-friendly.
        """
        n = len(data)
        matched_len = np.zeros(n, dtype=np.int8)
        matched_code = np.zeros(n, dtype=np.int16)
        if n == 0 or not self.symbols:
            return matched_len, matched_code
        # room[i] = bytes left in the value at position i, clipped to the
        # max symbol length; a length-L match needs room >= L (also kills
        # matches on the end-of-buffer padding). int32 end offsets halve
        # the memory traffic of this pass (callers chunk below 2**31).
        room = np.minimum(
            boundary_end.astype(np.int32, copy=False)
            - np.arange(n, dtype=np.int32),
            MAX_SYM_LEN,
        ).astype(np.int8)
        w8 = _window_keys(data)  # shared by the 2-byte and 3+-byte probes
        code = self.lut1[data]
        hit = code >= 0  # a 1-byte match always fits (room >= 1)
        matched_len[hit] = 1
        matched_code[hit] = code[hit]
        if n >= 2:
            # The top two window bytes ARE the 2-byte key — no separate
            # shift-or construction pass.
            k2 = (w8 >> np.uint64(48)).astype(np.uint16)
            code = self.lut2[k2]
            hit = (code >= 0) & (room >= 2)
            matched_len[hit] = 2
            matched_code[hit] = code[hit]
        if self.has3:
            h = ((w8 >> np.uint64(40)) * _HASH_MULT) >> np.uint64(
                64 - _TABLE_BITS
            )
            cd = self.slot_code[h]
            ln = self.slot_len[h]
            hit = (
                (cd >= 0)
                & ((w8 & self.slot_mask[h]) == self.slot_key[h])
                & (room >= ln)
            )
            matched_len[hit] = ln[hit]
            matched_code[hit] = cd[hit]
        return matched_len, matched_code


def _greedy_positions(jump: np.ndarray, value_offsets: np.ndarray) -> np.ndarray:
    """Positions visited by the greedy scan `i = start; while i < end:
    i += jump[i]` run independently for every value.

    Greedy jumps never cross a value boundary, so each value's walk is
    independent — ALL values walk in parallel: the frontier holds each
    still-active value's current position and one gather advances every
    value by one token. Total work is O(total tokens) plus one final sort
    (round 2's pointer-doubling did n·log n gathers — 10× slower on
    realistic value lengths). int32 throughout: callers chunk the input
    well below 2**31."""
    n = len(jump)
    if n == 0:
        return np.empty(0, dtype=np.int32)
    f = np.empty(n + 1, dtype=np.int32)
    f[:n] = np.arange(n, dtype=np.int32)
    f[:n] += jump.astype(np.int32)
    f[n] = n  # sentinel: finished walkers park here (f[n] == n)
    np.minimum(f, n, out=f)
    cur = value_offsets[:-1].astype(np.int32)
    ends = value_offsets[1:].astype(np.int32)
    alive = cur < ends  # skip zero-length values
    cur, ends = cur[alive], ends[alive]
    visited = []
    raw: list[tuple[np.ndarray, np.ndarray]] = []
    step = 0
    while len(cur):
        if len(cur) >= 256:
            # Wide phase: filter finished values every round (cheap while
            # the frontier is large — one gather advances every value).
            visited.append(cur)
            cur = f[cur]
            alive = cur < ends
            if not alive.all():
                cur, ends = cur[alive], ends[alive]
        else:
            # Tail phase (a few long values walking alone): batch 32
            # unfiltered steps between compactions so per-round Python
            # overhead doesn't dominate — finished walkers park on the
            # clamped last slot and are dropped by the post-filter.
            raw.append((cur, ends))
            cur = f[cur]
            step += 1
            if step % 32 == 0:
                alive = cur < ends
                cur, ends = cur[alive], ends[alive]
    if raw:
        rc = np.concatenate([c for c, _ in raw])
        re_ = np.concatenate([e for _, e in raw])
        visited.append(rc[rc < re_])
    if not visited:
        return np.empty(0, dtype=np.int32)
    out = np.concatenate(visited)
    out.sort()
    return out


def _encode_tokens(
    data: np.ndarray, value_offsets: np.ndarray, matcher: _Matcher
):
    """Greedy-tokenize the concatenated buffer.

    Returns (positions, lens, codes): per visited position its matched
    length (0 = escaped literal) and code.
    """
    n = len(data)
    if n < (1 << 31):  # chunked callers: narrow index dtype
        value_offsets = value_offsets.astype(np.int32, copy=False)
    boundary_end = np.repeat(value_offsets[1:], np.diff(value_offsets))
    matched_len, matched_code = matcher.match(data, boundary_end)
    jump = np.maximum(matched_len, 1)
    pos = _greedy_positions(jump, value_offsets)
    return pos, matched_len[pos], matched_code[pos]


def build_symbol_table(
    lengths: np.ndarray, data: np.ndarray, rounds: int = _BUILD_ROUNDS
) -> list[bytes]:
    """Iteratively learn up to 255 symbols from a sample of the input."""
    total = int(lengths.sum())
    if total == 0:
        return []
    # Deterministic sample: whole values from the head up to the cap.
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    n_values = int(np.searchsorted(offsets, _SAMPLE_CAP, side="left"))
    n_values = max(1, min(n_values, len(lengths)))
    cut = int(offsets[n_values])
    sample = data[:cut]
    sample_off = offsets[: n_values + 1]

    symbols: list[bytes] = []
    for _ in range(rounds):
        matcher = _Matcher(symbols)
        pos, lens, codes = _encode_tokens(sample, sample_off, matcher)
        # Token byte-strings as (key, len) pairs.
        tok_len = np.maximum(lens, 1)
        w8 = _window_keys(sample)
        tok_key = w8[pos] >> (
            (np.uint64(8) - tok_len.astype(np.uint64)) * np.uint64(8)
        )
        # Candidates: tokens themselves + adjacent-pair concatenations that
        # stay within one value and within 8 bytes.
        boundary_end = np.repeat(sample_off[1:], np.diff(sample_off))
        cand_keys = [tok_key]
        cand_lens = [tok_len]
        if len(pos) > 1:
            a_len, b_len = tok_len[:-1], tok_len[1:]
            merged_len = a_len + b_len
            ok = (merged_len <= MAX_SYM_LEN) & (
                pos[:-1] + merged_len <= boundary_end[pos[:-1]]
            )
            if ok.any():
                ml = merged_len[ok]
                mp = pos[:-1][ok]
                mk = w8[mp] >> (
                    (np.uint64(8) - ml.astype(np.uint64)) * np.uint64(8)
                )
                cand_keys.append(mk)
                cand_lens.append(ml)
        keys = np.concatenate(cand_keys)
        lens_all = np.concatenate(cand_lens).astype(np.int64)
        # Count per (len, key) pair. An 8-byte key uses all 64 bits, so the
        # pair can't pack into one word — but a len-partitioned unique (8
        # plain uint64 sorts) beats np.unique(axis=0)'s void-dtype row sort
        # by ~20× (it was 88% of round 2's table-build time).
        u_len_parts, u_key_parts, count_parts = [], [], []
        for L in range(1, MAX_SYM_LEN + 1):
            kl = keys[lens_all == L]
            if not len(kl):
                continue
            u, c = np.unique(kl, return_counts=True)
            u_key_parts.append(u)
            count_parts.append(c)
            u_len_parts.append(np.full(len(u), L, dtype=np.int64))
        u_len = np.concatenate(u_len_parts)
        u_key = np.concatenate(u_key_parts)
        counts = np.concatenate(count_parts)
        gain = counts * u_len
        order = np.argsort(-gain, kind="stable")[:MAX_SYMBOLS]
        symbols = [
            int(u_key[i]).to_bytes(int(u_len[i]), "big") for i in order
        ]
    return symbols


def fsst_encode(lengths: np.ndarray, data: np.ndarray) -> bytes:
    """Encode null-free (lengths, data) string parts. Self-contained stream:

    [uvarint n_symbols][n_symbols length bytes][symbol bytes]
    [delta-BP int32 encoded-lengths per value][encoded buffer]
    """
    lengths = lengths.astype(np.int64)
    symbols = build_symbol_table(lengths, data)
    matcher = _Matcher(symbols)
    offsets = np.concatenate(([0], np.cumsum(lengths)))

    # Native single-pass scan when the C kernel is available (byte-
    # identical output to the numpy path below — pinned by test).
    from . import _fsst_native

    native = _fsst_native.scan(data, offsets, matcher)
    if native is not None:
        out_buf, enc_lens64 = native
        header = bytearray()
        header += uvarint_encode(len(symbols))
        header += bytes(len(s) for s in symbols)
        header += b"".join(symbols)
        header += delta_encode(enc_lens64.astype(np.int32), dtype=np.int32)
        return bytes(header) + out_buf.tobytes()

    # Chunk the scan at VALUE boundaries (greedy jumps never cross a value
    # boundary, so per-chunk restarts are exact) — bounds the working set
    # so temporaries stay cache/TLB-friendly instead of allocating
    # 8×corpus-size match arrays in one shot.
    n_values = len(lengths)
    out_parts: list[bytes] = []
    enc_lens_parts: list[np.ndarray] = []
    v0 = 0
    while v0 < n_values:
        v1 = int(
            np.searchsorted(offsets, offsets[v0] + _ENCODE_CHUNK, side="left")
        )
        v1 = max(v0 + 1, min(v1, n_values))
        base = int(offsets[v0])
        chunk = data[base : int(offsets[v1])]
        chunk_off = offsets[v0 : v1 + 1] - base
        pos, lens, codes = _encode_tokens(chunk, chunk_off, matcher)

        out_sizes = np.where(lens > 0, 1, 2)  # code byte vs ESC+literal
        out_off = np.concatenate(([0], np.cumsum(out_sizes)))
        total_out = int(out_off[-1])
        out = np.empty(total_out, dtype=np.uint8)
        is_code = lens > 0
        out[out_off[:-1][is_code]] = codes[is_code].astype(np.uint8)
        lit = ~is_code
        out[out_off[:-1][lit]] = ESC
        out[out_off[:-1][lit] + 1] = chunk[pos[lit]]

        # Encoded length of each value = output offset delta at value
        # starts; every value start is a visited position.
        starts_idx = np.searchsorted(pos, chunk_off[:-1])
        enc_starts = np.concatenate([out_off[starts_idx], [total_out]])
        enc_lens_parts.append(np.diff(enc_starts))
        out_parts.append(out.tobytes())
        v0 = v1

    enc_value_lens = (
        np.concatenate(enc_lens_parts)
        if enc_lens_parts
        else np.zeros(0, dtype=np.int64)
    )
    header = bytearray()
    header += uvarint_encode(len(symbols))
    header += bytes(len(s) for s in symbols)
    header += b"".join(symbols)
    header += delta_encode(enc_value_lens.astype(np.int32), dtype=np.int32)
    return bytes(header) + b"".join(out_parts)


def fsst_decode(data, count: int, pos: int = 0):
    """Returns (lengths, out_data, new_pos)."""
    n_sym, pos = uvarint_decode(data, pos)
    if n_sym > 255:
        raise ValueError(f"fsst symbol table too large: {n_sym}")
    sym_lens = np.frombuffer(bytes(data[pos : pos + n_sym]), dtype=np.uint8).astype(
        np.int64
    )
    if len(sym_lens) != n_sym:
        raise ValueError("truncated fsst symbol lengths")
    pos += n_sym
    sym_total = int(sym_lens.sum())
    sym_data = np.frombuffer(bytes(data[pos : pos + sym_total]), dtype=np.uint8)
    if len(sym_data) != sym_total:
        raise ValueError("truncated fsst symbol data")
    pos += sym_total
    sym_off = np.concatenate(([0], np.cumsum(sym_lens)))
    enc_lens_arr, pos = delta_decode(data, pos, dtype=np.int32, expect=count)
    enc_lens = enc_lens_arr.astype(np.int64)
    if len(enc_lens) and int(enc_lens.min()) < 0:
        raise ValueError("negative fsst value length")
    total_enc = int(enc_lens.sum())
    if total_enc > len(data) - pos:
        raise ValueError("truncated fsst payload")
    buf = np.frombuffer(data, dtype=np.uint8, count=total_enc, offset=pos)
    pos += total_enc

    n = len(buf)
    if n == 0:
        return enc_lens, np.empty(0, dtype=np.uint8), pos

    # Native expansion (same escape-run-parity semantics; raises the same
    # ValueError on out-of-range codes).
    from . import _fsst_native

    enc_off_n = np.concatenate(([0], np.cumsum(enc_lens)))
    native = _fsst_native.unscan(buf, enc_off_n, sym_data, sym_off, sym_lens)
    if native is not None:
        out_n, out_lens_n = native
        return out_lens_n, out_n, pos

    # Classify escape runs by parity: inside each maximal run of ESC bytes,
    # even offsets are control escapes, odd offsets are escaped literals.
    is_esc = buf == ESC
    run_start = is_esc & ~np.concatenate(([False], is_esc[:-1]))
    run_id_pos = np.cumsum(run_start)
    starts = np.flatnonzero(run_start)
    control = np.zeros(n, dtype=bool)
    if len(starts):
        esc_pos = np.flatnonzero(is_esc)
        run_of = run_id_pos[esc_pos] - 1
        offset_in_run = esc_pos - starts[run_of]
        control[esc_pos[offset_in_run % 2 == 0]] = True
    consumed = np.zeros(n, dtype=bool)
    consumed[1:] = control[:-1]

    code_mask = ~control & ~consumed
    codes = buf[code_mask].astype(np.int64)
    if len(codes) and codes.max() >= n_sym:
        raise ValueError("fsst code out of range")

    out_sizes = np.zeros(n, dtype=np.int64)
    out_sizes[code_mask] = sym_lens[codes]
    out_sizes[consumed] = 1
    out_off = np.concatenate(([0], np.cumsum(out_sizes)))
    out = np.empty(int(out_off[-1]), dtype=np.uint8)

    # Scatter literals.
    lit_pos = np.flatnonzero(consumed)
    out[out_off[lit_pos]] = buf[lit_pos]
    # Ragged scatter of symbol bytes.
    code_pos = np.flatnonzero(code_mask)
    if len(code_pos):
        cl = sym_lens[codes]
        tgt_start = out_off[code_pos]
        src_start = sym_off[codes]
        total = int(cl.sum())
        intra = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(cl)))[:-1], cl
        )
        out[np.repeat(tgt_start, cl) + intra] = sym_data[
            np.repeat(src_start, cl) + intra
        ]

    # Per-value output lengths from encoded-length boundaries.
    enc_off = np.concatenate(([0], np.cumsum(enc_lens)))
    out_lens = np.diff(out_off[enc_off])
    return out_lens, out, pos
