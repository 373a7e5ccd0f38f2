"""The one execution shape of every broadcast-probe operator (joins,
ann/tf-idf scoring, decontam, boilerplate removal, LM scoring).

A *probe* is the small-side state plus its per-batch ``__call__``. The
caller builds it ONCE on the driver (sort, index, normalize), it is
``ray.put`` once, and each batch runs as a stateless task that
``ray.get``s it — numpy and Arrow buffers come back zero-copy from the
node's object store, and the Ray worker pool is reused across calls.

There is no actor pool. A pool pays seconds of ramp on every call and
keeps its CPUs after the call returns. Measured with
``tools/ops_bench.py`` on a 1-core host with 3 Ray CPUs, tasks beat it
on small state (the four sf0.1 broadcast-join entry queries: 1.6-3.8 s
with pools, 0.33-1.6 s as tasks) and on large state (a 61 MiB n-gram
set over 200k docs: 8.5-9.0 s with a pool, 4.8-5.0 s as tasks), so no
state-size threshold selects between them.
"""

from __future__ import annotations

import ray


def _probe_batch(batch, probe_ref):
    return ray.get(probe_ref)(batch)


def broadcast_map_batches(ds: ray.data.Dataset, probe) -> ray.data.Dataset:
    """``probe(batch)`` over every pyarrow batch of ``ds``, with
    ``probe`` shipped once through the object store."""
    return ds.map_batches(
        _probe_batch,
        fn_kwargs={"probe_ref": ray.put(probe)},
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
