"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded around calls into the library's layers by wrapping the
library's public functions from here; the library itself is not changed.
The driver process records one span per benchmark operation; every Ray
worker of a traced session installs the wrappers at start-up
(``install_worker`` is the session's ``worker_process_setup_hook``) and
hands its finished spans to one collector actor whenever its outermost
span ends. The driver fetches them from the collector after the run.

A span is a dict: ``id``, ``name``, ``parent`` (span id or None), ``pid``,
``start`` and ``end`` (``time.perf_counter_ns``, CLOCK_MONOTONIC on Linux,
so spans of different processes share one clock) and ``attrs``.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager

COLLECTOR_NAME = "perfbench_span_collector"


class Tracer:
    """Records nested spans per thread; ``sink`` receives each finished
    tree of spans when its outermost span ends (None keeps them here)."""

    def __init__(self, sink=None):
        self.spans: list[dict] = []
        self._sink = sink
        self._local = threading.local()
        self._ids = itertools.count()
        self._pid = os.getpid()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and "col" not in attrs and "col" in parent["attrs"]:
            attrs["col"] = parent["attrs"]["col"]
        rec = {
            "id": f"{self._pid}:{next(self._ids)}",
            "name": name,
            "parent": parent["id"] if parent else None,
            "pid": self._pid,
            "start": time.perf_counter_ns(),
            "end": None,
            "attrs": attrs,
        }
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            stack.pop()
            self.spans.append(rec)
            if not stack and self._sink is not None:
                done, self.spans = self.spans, []
                self._sink(done)


def _wrap(tracer: Tracer, fn, name: str, before=None, after=None):
    """Wrap ``fn`` in a span. ``before(args, kwargs)`` returns start
    attributes; ``after(rec, args, kwargs, out)`` adds attributes from
    the result."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = before(args, kwargs) if before else {}
        with tracer.span(name, **attrs) as rec:
            out = fn(*args, **kwargs)
            if after is not None:
                after(rec, args, kwargs, out)
            return out

    return traced


def _wrap_gen(tracer: Tracer, fn, name: str, before=None):
    """Span over a generator function's whole iteration."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = before(args, kwargs) if before else {}
        with tracer.span(name, **attrs):
            yield from fn(*args, **kwargs)

    return traced


class _ComputeProxy:
    """Stands in for ``pyarrow.compute`` inside the encoder module so its
    ``sort_indices`` calls (the within-partition sort) get a span."""

    def __init__(self, real, sort_indices):
        self._real = real
        self.sort_indices = sort_indices

    def __getattr__(self, name):
        return getattr(self._real, name)


def _rows(args, kwargs) -> dict:
    """Span attributes of a call whose first argument is a table."""
    return {"rows": int(args[0].num_rows)}


def _patch_sources(tracer: Tracer, pq) -> None:
    """sources: pyarrow's parquet read inside fused_read_fragments."""

    def after_read(rec, args, kwargs, out):
        rec["attrs"]["rows"] = int(out.num_rows)

    pq.ParquetFile.read_row_groups = _wrap(
        tracer, pq.ParquetFile.read_row_groups, "sources.read_row_groups",
        after=after_read,
    )


def _patch_encode(tracer: Tracer, encoder) -> None:
    """salt, encoder, blob, selector, column, block and manifest on the
    encode path."""
    import pyarrow.compute as pc

    from parquet_go_ray.functions import block, column
    from parquet_go_ray.stages import salt
    from parquet_go_ray.state import blob, manifest

    salt.assign_buckets = _wrap(
        tracer, salt.assign_buckets, "salt.assign_buckets", before=_rows
    )

    def after_fragments(rec, args, kwargs, out):
        frags = out.column(encoder.FRAG_COL)
        rec["attrs"]["fragments"] = len(frags)
        rec["attrs"]["frag_bytes"] = int(
            pc.sum(pc.binary_length(frags)).as_py() or 0
        )

    encoder.encode_fragments = _wrap(
        tracer, encoder.encode_fragments, "encoder.encode_fragments",
        before=_rows, after=after_fragments,
    )
    encoder.encode_fragments_refs = _wrap(
        tracer, encoder.encode_fragments_refs, "encoder.encode_fragments_refs",
        before=_rows,
    )
    encoder.fused_read_fragments = _wrap_gen(
        tracer, encoder.fused_read_fragments, "encoder.fused_read_fragments"
    )
    encoder.MergeEncoderActor.__call__ = _wrap(
        tracer, encoder.MergeEncoderActor.__call__, "encoder.merge"
    )
    encoder.MergeEncoderActor._fragment_tables = _wrap(
        tracer, encoder.MergeEncoderActor._fragment_tables,
        "encoder.fragment_decode",
    )
    encoder.pc = _ComputeProxy(
        encoder.pc,
        _wrap(tracer, encoder.pc.sort_indices, "encoder.sort", before=_rows),
    )

    # Per-column attribution follows encode_table's column order:
    # select_codec(col i) always precedes encode_column(col i), and the
    # index moves on after the latter.
    orig_encode_table = encoder.encode_table
    orig_encode_column = blob.encode_column

    @functools.wraps(orig_encode_table)
    def encode_table(table, *args, **kwargs):
        tracer._local.cols = list(table.column_names)
        tracer._local.col_idx = 0
        with tracer.span("blob.encode_table", rows=int(table.num_rows)):
            return orig_encode_table(table, *args, **kwargs)

    def current_col():
        cols = getattr(tracer._local, "cols", None)
        idx = getattr(tracer._local, "col_idx", 0)
        return cols[idx] if cols and idx < len(cols) else None

    @functools.wraps(orig_encode_column)
    def encode_column(*args, **kwargs):
        with tracer.span("column.encode_column", col=current_col()):
            out = orig_encode_column(*args, **kwargs)
        tracer._local.col_idx = getattr(tracer._local, "col_idx", 0) + 1
        return out

    encoder.encode_table = encode_table
    blob.encode_column = encode_column
    blob.select_codec = _wrap(
        tracer, blob.select_codec, "selector.select_codec",
        before=lambda a, k: {"col": current_col()},
    )
    column.encode_values = _wrap(
        tracer, column.encode_values, "column.encode_values",
        before=lambda a, k: {"rows": len(a[0])},
    )
    block.compress = _wrap(tracer, block.compress, "block.compress")
    manifest.write_partition = _wrap(
        tracer, manifest.write_partition, "manifest.write_partition"
    )


def _patch_decode(tracer: Tracer, decode) -> None:
    """decode, blob, column and block on the decode path; the colmeta
    dict passed to decode_column names the column."""
    from parquet_go_ray.functions import block, column
    from parquet_go_ray.state import blob

    decode.decode_table = _wrap(tracer, decode.decode_table, "blob.decode_table")
    blob.read_header = _wrap(tracer, blob.read_header, "blob.read_header")
    blob.decode_column = _wrap(
        tracer, blob.decode_column, "column.decode",
        before=lambda a, k: {"col": a[2].get("name"),
                             "paged": a[2].get("codec") == "paged"},
    )
    column.decode_column = _wrap(
        tracer, column.decode_column, "column.decode_page"
    )
    block.decompress = _wrap(tracer, block.decompress, "block.decompress")
    decode.BlobDecoder.__call__ = _wrap_gen(
        tracer, decode.BlobDecoder.__call__, "decode.blob_decoder"
    )
    decode.BlobDecoder._decode_one = _wrap(
        tracer, decode.BlobDecoder._decode_one, "decode.decode_one"
    )


class SpanCollector:
    """Ray actor body (created by the driver as a named actor with no CPU
    reservation) that keeps every worker's spans until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []

    def add(self, spans: list[dict]) -> None:
        self.spans.extend(spans)

    def take(self) -> list[dict]:
        out, self.spans = self.spans, []
        return out


def install_worker() -> None:
    """``worker_process_setup_hook`` of a traced Ray session: wraps the
    library's layer functions in this worker. Each span is named
    ``<layer>.<function>``; the layers are the library's modules."""
    import pyarrow.parquet as pq
    import ray

    from parquet_go_ray.pipelines import decode
    from parquet_go_ray.stages import encoder

    state: dict = {}

    def sink(spans: list[dict]) -> None:
        if "actor" not in state:
            state["actor"] = ray.get_actor(COLLECTOR_NAME)
        # Synchronous: a decode actor may be torn down right after its
        # last batch, which would drop a fire-and-forget call.
        ray.get(state["actor"].add.remote(spans))

    tracer = Tracer(sink=sink)
    _patch_sources(tracer, pq)
    _patch_encode(tracer, encoder)
    _patch_decode(tracer, decode)
