"""parquet_go_ray — a Ray-Data-native per-column lightweight-compression engine.

Built from scratch (NOT a port) with the codec capabilities of the reference
parquet-go library (see SURVEY.md): dictionary encoding with hash symbol
tables, RLE/bit-packed hybrid streams, delta-binary-packed integers,
delta-length / delta(prefix) byte arrays, boolean RLE, plain encodings,
plus engine-new FSST string compression and frame-of-reference bit-packing,
selected per column per partition by a sampled-statistics auto-selector.

Execution is Ray: the encode is plain tasks (one phase-1 task per read
split, whose fragment chunks are task outputs, then one merge task per
partition), the decode and the operators are ``ray.data.Dataset``
pipelines over zero-copy Arrow batches; salted ``conv_id`` bucketing
handles skew, and a per-partition lineage manifest gives
checkpoint/resume.
"""

__version__ = "0.1.0"


def _tune_allocator() -> None:
    """Keep large allocations on the reusable heap instead of fresh
    mmap/munmap cycles. The engine's kernels allocate many short-lived
    multi-MB numpy arrays; on VMs with expensive page faults (like this
    sandbox) glibc's default 128 KiB mmap threshold makes every such
    array fault its pages in from scratch — measured 3-4x end-to-end on
    the FSST kernels. Best-effort: silently skipped off glibc."""
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    except Exception:
        pass


_tune_allocator()
