"""Boilerplate line removal — CCNet-style cross-document line dedup.

The curation step that strips navigation bars, cookie banners and
footer text from web documents (Wenzek et al. 2020 "CCNet", public:
drop a LINE when it repeats across many documents). The exact form
needs the full (line, doc) pair set through a shuffle twice (the text
itself rides both exchanges); at 100 TB the standard engineering
answer is a sketch, and that is what this module does:

- PASS 1 (streaming aggregate, no shuffle): a count-min sketch of
  per-doc-DISTINCT line hashes — each batch contributes one CMS built
  vectorized; sketches merge by element-wise add; the driver holds
  ``depth x width`` int64 counters (a few MB), never a line.
- PASS 2 (map_batches, no shuffle): each batch recomputes its line
  hashes, looks them up in the ``ray.put``-broadcast sketch, and
  drops lines whose estimated document frequency ≥ ``min_docs``;
  surviving lines reassemble per doc with one ``binary_join``.

CMS never undercounts, so errors DROP extra lines (the safe direction
for boilerplate; fpp is bounded by the classic e/width overcount on a
corpus with D distinct (doc, line) pairs — size ``width`` ≥ a few
times D/min_docs to keep it negligible). Protected lines: anything
longer than ``max_line_chars`` is never dropped regardless of the
sketch (a long repeated passage is the `ops.passages` signal, not
boilerplate), and blank lines are preserved as document structure.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ._broadcast import broadcast_map_batches
from .sketch import _cms_positions
from .text import _mix64

__all__ = ["line_df_sketch", "remove_boilerplate_lines"]

_HASH_PREFIX = 1024  # bytes of each line fed to the hash sweep


def derive_cms_width(ds: ray.data.Dataset, divisor: int = 16) -> int:
    """Default CMS width from the input's metadata-estimated bytes:
    roughly one counter per ``divisor`` input bytes (≈ a few counters
    per distinct line), clamped to [2^16, 2^24] and rounded to a
    power of two. A fixed 2^20 meant every partial shipped 32 MB even
    for a 2 MB corpus — the aggregate's cost was ALL sketch movement
    (measured: kernels 50 ms, pass 6.4 s). At true scale pass
    ``width`` explicitly if the corpus outgrows the 2^24 cap."""
    from .bucketing import estimated_size_bytes

    est = estimated_size_bytes(ds)
    if est is None:
        return 1 << 20
    want = max(1 << 16, min(1 << 24, est // max(divisor, 1)))
    return 1 << int(np.ceil(np.log2(want)))


def _line_hashes(col) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    """(flat line hashes, per-doc line counts, flat line strings) for
    newline-split docs; hashing runs off the Arrow buffers (one
    utf8 pass), no per-line Python."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_large_string(arr.type):
        arr = arr.cast(pa.string())
    arr = pc.fill_null(arr, "")
    lines = pc.split_pattern(arr, pattern="\n")
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    flat = lines.values
    counts = np.asarray(pc.list_value_length(lines), dtype=np.int64)
    off = np.frombuffer(flat.buffers()[1], dtype=np.int32)[
        flat.offset : flat.offset + len(flat) + 1
    ].astype(np.int64)
    data = np.frombuffer(flat.buffers()[2], dtype=np.uint8)
    lens = off[1:] - off[:-1]
    # polynomial hash over each line's first _HASH_PREFIX bytes, total
    # length mixed in. Truncation keeps the column sweep bounded; two
    # lines colliding need identical 1 KiB prefixes AND equal length —
    # and lines that long are protected from dropping anyway
    # (max_line_chars), so a collision there is inert.
    h = _ragged_poly_hash(
        data, off[:-1], np.minimum(lens, _HASH_PREFIX)
    )
    h = _mix64(h + lens.view(np.uint64))
    return h, counts, flat


def _ragged_poly_hash(
    flat_bytes: np.ndarray, starts: np.ndarray, lens: np.ndarray
) -> np.ndarray:
    """FNV-style polynomial hash per segment via a length-sorted
    prefix sweep: lines sort by length descending, so the lines still
    live at byte position ``j`` are a contiguous PREFIX and each step
    is one slice op over exactly the live lines — total work is
    proportional to the hashed bytes (the boolean-mask form cost
    O(n_lines) per step regardless of how many were live)."""
    n = len(lens)
    h = np.zeros(n, dtype=np.uint64)
    base = np.uint64(0x100000001B3)
    if n == 0 or lens.max(initial=0) == 0:
        return h
    order = np.argsort(-lens, kind="stable")
    sl = lens[order]
    ss = starts[order]
    sl_asc = sl[::-1]
    hs = np.zeros(n, dtype=np.uint64)
    for j in range(int(sl[0])):
        lc = n - int(np.searchsorted(sl_asc, j, side="right"))
        if lc == 0:
            break
        hs[:lc] = hs[:lc] * base + flat_bytes[ss[:lc] + j]
    h[order] = hs
    return h


def line_df_sketch(
    ds: ray.data.Dataset,
    text_col: str = "text",
    width: int | None = None,
    depth: int = 4,
) -> np.ndarray:
    """Pass 1: count-min of per-doc-distinct line hashes. Returns the
    ``(depth, width)`` int64 counter matrix (8·depth·width bytes).
    ``width`` defaults to :func:`derive_cms_width` (input-sized,
    capped 2^24 ≈ 512 MB of counters — pass it explicitly past that;
    the probe side reads the width back off the matrix shape)."""
    if width is None:
        width = derive_cms_width(ds)

    def accumulate(acc: np.ndarray, block: pa.Table) -> np.ndarray:
        h, counts, _ = _line_hashes(block.column(text_col))
        if len(h):
            # distinct per doc: count a line once per containing doc
            doc = np.repeat(
                np.arange(len(counts), dtype=np.int64), counts
            )
            order = np.lexsort((h, doc))
            hs, dd = h[order], doc[order]
            first = np.ones(len(hs), dtype=bool)
            first[1:] = (hs[1:] != hs[:-1]) | (dd[1:] != dd[:-1])
            hs = hs[first]
            pos = _cms_positions(hs, depth, width)
            for i in range(depth):
                np.add.at(acc[i], pos[i], 1)
        return acc

    agg = ray.data.aggregate.AggregateFn(
        init=lambda _: np.zeros((depth, width), dtype=np.int64),
        accumulate_block=accumulate,
        merge=lambda a, b: a + b,
        name="line_cms",
    )
    out = ds.aggregate(agg)
    return (np.zeros((depth, width), dtype=np.int64) if out is None
            else np.asarray(out["line_cms"]))


class _BoilerplateRemover:
    """Broadcast probe: the line-frequency sketch; per batch one hash
    pass + CMS lookup + binary_join reassembly."""

    def __init__(self, cms: np.ndarray, text_col: str, min_docs: int,
                 max_line_chars: int, keep_blank: bool):
        self.cms = cms
        self.text_col = text_col
        self.min_docs = min_docs
        self.max_line_chars = max_line_chars
        self.keep_blank = keep_blank

    def __call__(self, batch: pa.Table) -> pa.Table:
        depth, width = self.cms.shape
        h, counts, flat = _line_hashes(batch.column(self.text_col))
        if len(h):
            pos = _cms_positions(h, depth, width)
            est = self.cms[
                np.arange(depth)[:, None], pos
            ].min(axis=0)
            line_len = pc.utf8_length(flat).to_numpy(
                zero_copy_only=False
            )
            drop = est >= self.min_docs
            drop &= line_len <= self.max_line_chars
            if self.keep_blank:
                drop &= line_len > 0
            keep = ~drop
            seg0 = np.concatenate(([0], np.cumsum(counts)))
            # split_pattern yields >= 1 line per (filled) doc, so no
            # segment is empty; clamp is belt-and-braces for reduceat
            idx = np.minimum(seg0[:-1], max(len(keep) - 1, 0))
            new_counts = np.add.reduceat(
                keep.astype(np.int64), idx
            ) if len(counts) and len(keep) else np.zeros(
                len(counts), np.int64
            )
            new_counts[counts == 0] = 0
            kept_flat = flat.filter(pa.array(keep))
            new_off = np.concatenate(
                ([0], np.cumsum(new_counts))
            )
            text = pc.binary_join(
                pa.ListArray.from_arrays(
                    pa.array(new_off, pa.int32()), kept_flat
                ),
                "\n",
            )
            dropped = counts - new_counts
        else:
            text = pc.fill_null(batch.column(self.text_col), "")
            dropped = np.zeros(len(batch), np.int64)
        out = batch.set_column(
            batch.schema.get_field_index(self.text_col),
            self.text_col, text,
        )
        return out.append_column(
            "boilerplate_lines_removed", pa.array(dropped, pa.int64())
        )


def remove_boilerplate_lines(
    ds: ray.data.Dataset,
    text_col: str = "text",
    min_docs: int = 10,
    cms: np.ndarray | None = None,
    width: int | None = None,
    depth: int = 4,
    max_line_chars: int = 500,
    keep_blank: bool = True,
) -> ray.data.Dataset:
    """Drop every line appearing in ≥ ``min_docs`` documents (by CMS
    estimate — overcounts only, so errors drop extra boilerplate) and
    rewrite ``text``; appends ``boilerplate_lines_removed``. Pass a
    precomputed ``cms`` (from :func:`line_df_sketch`) to reuse one
    corpus sketch across runs — without it the corpus is scanned
    twice (pass 1 + pass 2), still with zero shuffles."""
    if min_docs < 2:
        raise ValueError(f"min_docs must be >= 2, got {min_docs}")
    if cms is None:
        cms = line_df_sketch(ds, text_col, width=width, depth=depth)
    return broadcast_map_batches(ds, _BoilerplateRemover(
        np.ascontiguousarray(cms), text_col, min_docs, max_line_chars,
        keep_blank))
