"""Encode/scan benchmark for parquet_go_ray.

    python3 perfbench/run.py --workload encode_flagship --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py`` and README.md) through the public
pipelines ``encode_pipeline`` and ``decode_pipeline`` on a local Ray
session with ``RAY_CPUS`` logical CPUs, checks every output against the
input, and prints as its last stdout line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the same operations once
untraced and once traced and reports the per-layer ledger instead.

Run from the repository root. Scratch data, results and span files go to
``.bench_build/`` under the repository root; the process exits non-zero
on any failed or wrong operation, and when the library is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Stated logical CPU count for every workload. With 3, decode_pipeline's
# default actor pool is one fixed actor (concurrency (1, 1)) and two CPUs
# stay free for its read tasks. With 4 it autoscales (1, 2), and whether
# a second actor starts mid-call made single decodes vary ~1.7x as much.
# With one logical CPU the default pool holds the only CPU and its read
# task never runs (see README.md).
RAY_CPUS = 3
OBJECT_STORE_BYTES = 512 * 1024**2
SETUP_REPS = 2
OP_TIMEOUT_S = 60.0
RSS_INTERVAL_S = 0.2
UNIX_SOCKET_MAX = 107
# Longest suffix Ray appends to its temp dir for a socket path:
# "/session_YYYY-MM-DD_HH-MM-SS_ffffff_<pid>/sockets/plasma_store".
RAY_SOCKET_SUFFIX = 70

# One round of operations per workload, repeated in whole rounds until
# the measured operation time reaches the session's share of --seconds.
ROUNDS = {
    "encode_flagship": ("encode",),
    "scan": ("scan_full", "scan_projected", "lookup"),
}
# Fixed read-back after each session's timed operations: every run
# reports every end-to-end metric, so encode_flagship also reads its last
# checkpoint.
READBACK = {
    "encode_flagship": ("scan_full", "scan_projected", "lookup") * 2,
    "scan": (),
}
PROJECTION = ["conv_id", "turn_idx", "ts"]
SORT_KEYS = [("conv_id", "ascending"), ("turn_idx", "ascending")]


class OpFailed(Exception):
    """An operation raised, hung past its timeout or returned wrong rows."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size factor (the self-test uses a small one)")
    return p.parse_args(argv)


# ---------------------------------------------------------------- context


def memcpy_gibs(nbytes: int = 64 * 1024**2, reps: int = 5) -> float:
    """Single-process memcpy bandwidth, best of ``reps`` copies."""
    import numpy as np

    src = np.ones(nbytes, dtype=np.uint8)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return nbytes / best / 1024**3


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(") ", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(name))
    return kids


def _descendants(pid: int) -> list[int]:
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        for c in kids.get(p, ()):
            out.append(c)
            todo.append(c)
    return out


def _is_busy_ray_worker(pid: int) -> bool:
    """A Ray worker running a task or an actor. Idle pooled workers
    ("ray::IDLE") are left out: they keep the memory of earlier tasks, and
    whether two or three of them did left the sum bimodal (~0.5 GB)."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") and not cmd.startswith(b"ray::IDLE")


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


class RssSampler:
    """Peak of the summed RSS of this process and its busy Ray workers,
    sampled every RSS_INTERVAL_S while an operation runs; ``peak`` is reset
    to 0 when the operation starts."""

    def __init__(self):
        self.peak = 0
        self.active = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        me = os.getpid()
        while not self._stop.wait(RSS_INTERVAL_S):
            if self.active.is_set():
                pids = [me] + [p for p in _descendants(me) if _is_busy_ray_worker(p)]
                self.peak = max(self.peak, sum(_rss_bytes(p) for p in pids))

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5)


# ---------------------------------------------------------------- checks


def same_rows(got, want) -> bool:
    """Row multiset equality: both sides sorted on (conv_id, turn_idx),
    which is unique per row in every workload input."""
    if got.num_rows != want.num_rows:
        return False
    if got.num_rows == 0:
        return True
    if got.column_names != want.column_names:
        return False
    got = got.sort_by(SORT_KEYS).combine_chunks()
    return got.equals(want)


def blob_digest(ckpt: str) -> str:
    h = hashlib.sha1()
    bdir = os.path.join(ckpt, "blobs")
    for name in sorted(os.listdir(bdir)):
        h.update(name.encode())
        with open(os.path.join(bdir, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def decode_locally(ckpt: str):
    """Decode every blob in this process with ``state.blob.decode_table``."""
    import pyarrow as pa

    from parquet_go_ray.state import manifest as mf
    from parquet_go_ray.state.blob import decode_table

    tables = []
    for pid in sorted(mf.completed_partitions(ckpt)):
        with open(mf.blob_path(ckpt, pid), "rb") as f:
            tables.append(decode_table(f.read()))
    return pa.concat_tables(tables)


# ---------------------------------------------------------------- session


def ray_temp_dir(work: str, sys_tmp: str) -> str:
    """Ray's session dir: inside the checkout when its socket paths fit
    the AF_UNIX limit, else a fresh directory under ``sys_tmp``."""
    inside = os.path.join(work, "ray")
    if len(inside) + RAY_SOCKET_SUFFIX <= UNIX_SOCKET_MAX:
        return inside
    return tempfile.mkdtemp(prefix="pgrb-", dir=sys_tmp)


def start_ray(temp_dir: str, traced: bool):
    import ray

    from perfbench import tracer

    runtime_env = (
        {"worker_process_setup_hook": "perfbench.tracer.install_worker"}
        if traced else None
    )
    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        _temp_dir=temp_dir,
        runtime_env=runtime_env,
    )
    if traced:
        collector = ray.remote(num_cpus=0)(tracer.SpanCollector).options(
            name=tracer.COLLECTOR_NAME).remote()
        ray.get(collector.take.remote())
        return collector
    return None


def stop_ray(timeout: float = 60.0) -> None:
    import ray

    t = threading.Thread(target=ray.shutdown, daemon=True)
    t.start()
    t.join(timeout)


# ---------------------------------------------------------------- bench


class Bench:
    """One run: set-up repetitions, timed operations and their checks."""

    def __init__(self, args, work: str):
        self.args = args
        self.work = work
        self.input_dir = os.path.join(work, "input")
        self.ops: list[dict] = []  # every operation attempted
        self.failures: list[str] = []
        self.ref = None  # input sorted on SORT_KEYS
        self.ref_proj = None
        self.keys: list[str] = []
        self.key_i = 0
        self.digests: dict[str, str] = {}
        self.bytes_per_turn: dict[str, float] = {}
        self.ckpt_i = 0
        self.scan_ckpt: str | None = None
        self.rss = RssSampler()
        self.tracer = None  # driver-side Tracer while a traced loop runs
        self.input_turns = 0
        self.input_bytes = 0

    # -- operations

    def _new_ckpt(self) -> str:
        self.ckpt_i += 1
        return os.path.join(self.work, f"ckpt-{self.ckpt_i}")

    def run_op(self, kind: str, fn, check, timed: bool = True, **attrs) -> dict:
        """Run ``fn`` in a thread with a timeout, then ``check`` its result
        outside the timed interval. Failures are recorded, not raised."""
        box: dict = {}

        def target():
            try:
                box["out"] = fn()
            except BaseException as e:  # reported as a failed operation
                box["err"] = e

        rec = {"kind": kind, "ok": False, "timed": timed, **attrs}
        th = threading.Thread(target=target, daemon=True)
        with self._op_span(kind) as span:
            if timed:
                self.rss.peak = 0
                self.rss.active.set()
            t0 = time.perf_counter()
            th.start()
            th.join(OP_TIMEOUT_S)
            rec["wall_s"] = time.perf_counter() - t0
            self.rss.active.clear()
            if timed:
                rec["peak_rss"] = self.rss.peak
        if span is not None:
            rec["span_id"] = span["id"]
        self.ops.append(rec)
        t_check = time.perf_counter()
        try:
            return self._check(rec, th, box, check)
        finally:
            if not th.is_alive():
                self._release(rec)
            rec["check_s"] = time.perf_counter() - t_check

    @staticmethod
    def _release(rec: dict) -> None:
        """Record the CPUs a finished pipeline call still holds, then free
        them. Ray Data keeps an actor or task slot per call until the
        driver's garbage collector reclaims the call's objects; without
        this, held CPUs pile up and a later call stalls for 8-17 s."""
        import gc

        import ray

        rec["cpus_held"] = RAY_CPUS - ray.available_resources().get("CPU", 0.0)
        gc.collect()

    def _op_span(self, kind: str):
        from contextlib import nullcontext

        return self.tracer.span(f"op.{kind}") if self.tracer else nullcontext()

    def _check(self, rec, th, box, check) -> dict:
        kind = rec["kind"]
        if th.is_alive():
            self.failures.append(f"{kind}: no result after {OP_TIMEOUT_S:.0f} s")
            raise OpFailed(self.failures[-1])
        if "err" in box:
            err = box["err"]
            self.failures.append(f"{kind}: {type(err).__name__}: {err}")
            return rec
        try:
            check(rec, box["out"])
        except OpFailed as e:
            self.failures.append(f"{kind}: {e}")
            return rec
        rec["ok"] = True
        return rec

    def encode(self, kind: str, page_rows=None, timed=True) -> dict:
        from parquet_go_ray.pipelines.encode import encode_pipeline
        from perfbench.workloads import ROWS_PER_PARTITION

        ckpt = self._new_ckpt()

        def fn():
            return encode_pipeline(self.input_dir, ckpt,
                                   rows_per_partition=ROWS_PER_PARTITION,
                                   page_rows=page_rows)

        def check(rec, summary):
            rec["summary"] = summary
            rec["turns"] = summary["rows_encoded"]
            rec["ckpt"] = ckpt
            if summary["rows_encoded"] != self.ref.num_rows:
                raise OpFailed(f"encoded {summary['rows_encoded']} of {self.ref.num_rows} rows")
            cfg = str(page_rows)
            bpt = summary["bytes_per_turn"]
            if self.bytes_per_turn.setdefault(cfg, bpt) != bpt:
                raise OpFailed(f"bytes/turn {bpt!r} != {self.bytes_per_turn[cfg]!r} of the first pass")
            digest = blob_digest(ckpt)
            if self.digests.get(cfg) != digest:
                if not same_rows(decode_locally(ckpt), self.ref):
                    raise OpFailed("blobs do not decode to the input rows")
                self.digests.setdefault(cfg, digest)

        return self.run_op(kind, fn, check, timed=timed)

    def decode(self, kind: str, ckpt: str, columns=None, predicate=None, want=None,
               timed=True) -> dict:
        import pyarrow as pa

        from parquet_go_ray.pipelines.decode import decode_pipeline

        def fn():
            ds = decode_pipeline(ckpt, columns=columns, predicate=predicate)
            batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
            return pa.concat_tables(batches) if batches else None

        def check(rec, got):
            rec["turns"] = 0 if got is None else got.num_rows
            if got is None:
                ok = want.num_rows == 0
            else:
                if columns is not None:
                    got = got.select(columns)
                ok = same_rows(got, want)
            if not ok:
                raise OpFailed(f"rows differ from the input ({rec['turns']} vs {want.num_rows})")

        return self.run_op(kind, fn, check, timed=timed)

    def lookup(self, ckpt: str, kind: str = "lookup", timed=True) -> dict:
        import pyarrow.compute as pc

        key = self.keys[self.key_i % len(self.keys)]
        self.key_i += 1
        want = self.ref.filter(pc.equal(self.ref.column("conv_id"), key))
        return self.decode(kind, ckpt, predicate=("conv_id", "==", key), want=want,
                           timed=timed)

    def run_kind(self, kind: str) -> dict:
        if kind == "encode":
            rec = self.encode("encode")
            if rec["ok"]:
                old, self.scan_ckpt = self.scan_ckpt, rec["ckpt"]
                if old:
                    shutil.rmtree(old, ignore_errors=True)
            return rec
        if kind == "scan_full":
            return self.decode("scan_full", self.scan_ckpt, want=self.ref)
        if kind == "scan_projected":
            return self.decode("scan_projected", self.scan_ckpt,
                               columns=PROJECTION, want=self.ref_proj)
        return self.lookup(self.scan_ckpt)

    # -- phases

    def setup_once(self, traced: bool, temp_dir: str):
        """Ray start, input generation, warm-up and (scan) the checkpoint
        encode and a warm-up lookup. Returns (seconds, collector)."""
        from perfbench.workloads import SCAN_PAGE_ROWS, write_input

        n_ops = len(self.ops)
        t0 = time.perf_counter()
        # Input generation runs in a thread while Ray starts its processes.
        shutil.rmtree(self.input_dir, ignore_errors=True)
        gen: dict = {}

        def generate():
            try:
                gen["paths"] = write_input(self.input_dir, self.args.seed, self.args.scale)
            except BaseException as e:  # re-raised below
                gen["err"] = e

        th = threading.Thread(target=generate)
        th.start()
        collector = start_ray(temp_dir, traced)
        th.join()
        if "err" in gen:
            raise gen["err"]
        paths = gen["paths"]
        gen_done = time.perf_counter()
        if self.ref is None:
            self._load_reference(paths)
        t_ref = time.perf_counter() - gen_done
        # The first encode of a session warms its worker pool; for scan it
        # is the checkpoint encode the timed decodes read.
        if self.args.workload == "scan":
            rec = self.encode("setup_encode", page_rows=SCAN_PAGE_ROWS, timed=False)
        else:
            rec = self.encode("warmup", timed=False)
        if rec["ok"]:
            if self.scan_ckpt:
                shutil.rmtree(self.scan_ckpt, ignore_errors=True)
            self.scan_ckpt = rec["ckpt"]
        # The first decode of a session is ~30% faster than the ones after
        # it; scan's timed decodes start after it.
        if self.args.workload == "scan" and rec["ok"]:
            self.lookup(self.scan_ckpt, kind="warmup", timed=False)
        check_s = sum(o["check_s"] for o in self.ops[n_ops:])
        return time.perf_counter() - t0 - t_ref - check_s, collector

    def _load_reference(self, paths):
        from perfbench.workloads import lookup_keys, read_input

        table = read_input(paths)
        self.input_turns = table.num_rows
        self.input_bytes = sum(os.path.getsize(p) for p in paths)
        self.ref = table.sort_by(SORT_KEYS).combine_chunks()
        self.ref_proj = self.ref.select(PROJECTION)
        self.keys = lookup_keys(table, self.args.seed)

    def timed_loop(self, seconds: float) -> list[dict]:
        rnd = ROUNDS[self.args.workload]
        start = len(self.ops)
        measured, i = 0.0, 0
        while i % len(rnd) or measured < seconds:
            rec = self.run_kind(rnd[i % len(rnd)])
            measured += rec["wall_s"]
            i += 1
        return self.ops[start:]

    def read_back(self) -> None:
        for kind in READBACK[self.args.workload]:
            self.run_kind(kind)


# ---------------------------------------------------------------- metrics


def _rate(ops, kind):
    """Median turns per second over the successful operations of ``kind``."""
    rates = [o["turns"] / o["wall_s"] for o in ops if o["kind"] == kind and o["ok"]]
    return statistics.median(rates) if rates else None


def end_to_end(bench: Bench, setup_times: list[float]) -> dict:
    ops = bench.ops
    enc_kind = "setup_encode" if bench.args.workload == "scan" else "encode"
    enc = [o for o in ops if o["kind"] == enc_kind and o["ok"]]
    look = sorted(o["wall_s"] * 1e3 for o in ops if o["kind"] == "lookup" and o["ok"])
    rss = [o["peak_rss"] for o in ops if o.get("peak_rss")]
    ok = sum(1 for o in ops if o["ok"])
    m = {
        "encode_turns_per_s": (_rate(ops, enc_kind), "turns/s"),
        "encode_bytes_per_turn": (enc[0]["summary"]["bytes_per_turn"] if enc else None, "B/turn"),
        "scan_full_turns_per_s": (_rate(ops, "scan_full"), "turns/s"),
        "scan_projected_turns_per_s": (_rate(ops, "scan_projected"), "turns/s"),
        "scan_lookup_p50_ms": (statistics.median(look) if look else None, "ms"),
        "scan_lookup_p90_ms": (
            statistics.quantiles(look, n=10, method="inclusive")[8]
            if len(look) > 1 else (look[0] if look else None), "ms"),
        "setup_s": (statistics.median(setup_times) if setup_times else None, "s"),
        "peak_rss_mb": (statistics.median(rss) / 1024**2 if rss else None, "MB"),
        "ok_op_frac": (ok / len(ops) if ops else None, "frac"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items() if v is not None}


def checkpoint_layout(ckpt: str) -> tuple[int, int, dict[str, float], dict]:
    """(partitions, pages over all columns, value bytes/turn per column,
    selector decision per column and partition) from the manifest; for a
    paged column the codec of its pages comes from the blob header."""
    from parquet_go_ray.state import manifest as mf
    from parquet_go_ray.state.blob import read_header

    entries = mf.read_manifest(ckpt)
    rows = sum(e["rows"] for e in entries.values()) or 1
    pages = 0
    col_bytes: dict[str, float] = {}
    decisions: dict[str, dict] = {}
    for pid, entry in entries.items():
        with open(mf.blob_path(ckpt, pid), "rb") as f:
            header, _ = read_header(f.read())
        paged = {c["name"]: c["pages"] for c in header["columns"] if c.get("codec") == "paged"}
        pages += sum(len(paged.get(c["name"], [None])) for c in header["columns"])
        for col, c in entry["columns"].items():
            col_bytes[col] = col_bytes.get(col, 0.0) + c["value_bytes"] / rows
            codec, compression = c["codec"], c["compression"]
            if col in paged:
                meta = paged[col][0]["meta"]
                codec, compression = f"paged:{meta['codec']}", meta["compression"]
            decisions.setdefault(col, {})[pid] = {
                "codec": codec,
                "compression": compression,
                "codec_note": c.get("codec_note"),
            }
    return len(entries), pages, col_bytes, decisions


def run_untraced(bench: Bench, temp_dir: str) -> dict:
    """SETUP_REPS sessions, each a set-up, an equal share of the timed
    operations and the read-back. Ray sessions differ: the median decode
    time of one session moved by up to ~15% from the next, so the timed
    operations are spread over all of them."""
    setup_times = []
    for rep in range(SETUP_REPS):
        seconds, _ = bench.setup_once(False, temp_dir)
        setup_times.append(seconds)
        bench.timed_loop(bench.args.seconds / SETUP_REPS)
        bench.read_back()
        if rep < SETUP_REPS - 1:
            stop_ray()
    return end_to_end(bench, setup_times)


def run_traced(bench: Bench, temp_dir: str, report: dict) -> dict:
    """Untraced half, then a traced session over the same timed
    operations and the read-back."""
    import ray

    from perfbench import ledger
    from perfbench.tracer import Tracer

    primary = "scan_full" if bench.args.workload == "scan" else "encode"
    bench.setup_once(False, temp_dir)
    untraced = bench.timed_loop(bench.args.seconds / 2)
    stop_ray()
    bench.tracer = Tracer()
    first = len(bench.ops)
    _, collector = bench.setup_once(True, temp_dir)
    traced = bench.timed_loop(bench.args.seconds / 2)
    for _ in range(SETUP_REPS):
        bench.read_back()
    worker_spans = ray.get(collector.take.remote())
    spans = ledger.attach(bench.tracer.spans, worker_spans)
    ledger.add_self_times(spans)

    def med(ops):
        vals = [o["wall_s"] for o in ops if o["kind"] == primary and o["ok"]]
        return statistics.median(vals) if vals else 0.0

    ops = []
    for o in bench.ops[first:]:
        if o["kind"] == "warmup" or not o["ok"]:
            continue
        kind = "encode" if o["kind"] == "setup_encode" else o["kind"]
        ops.append({**o, "kind": kind})
    partitions, pages, col_bytes, decisions = checkpoint_layout(bench.scan_ckpt)
    metrics = ledger.per_layer_metrics(
        spans, ops, col_bytes, pages, partitions, med(traced) - med(untraced)
    )
    for col, per_pid in decisions.items():
        trials = metrics.get(f"selector.trials.{col}", (None,))[0]
        for d in per_pid.values():
            d["trials"] = trials
    report["selector"] = decisions
    report["layers"] = ledger.layer_table(spans)
    report["spans"] = spans
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "parquet_go_ray", "__init__.py")):
        print("perfbench: parquet_go_ray/ not found in the repository root", file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, ".bench_build")
    work = os.path.join(build_dir, f"pb{os.getpid()}")
    results_dir = os.path.join(build_dir, "perfbench")
    sys_tmp = tempfile.gettempdir()
    kernel_tmp = os.path.join(build_dir, "tmp")
    for d in (work, results_dir, kernel_tmp):
        os.makedirs(d, exist_ok=True)
    # Workers inherit this environment from the Ray session started below:
    # they import the library and this package from the checkout, and the
    # library's compile-at-first-use kernels are cached inside it.
    os.environ["TMPDIR"] = kernel_tmp
    tempfile.tempdir = None
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    # A call still hung at exit must not start a fresh cluster once the
    # session is shut down (Ray's auto-init on API use).
    os.environ["RAY_ENABLE_AUTO_CONNECT"] = "0"
    sys.path.insert(0, ROOT)

    # Library and Ray output goes to stderr; stdout carries only the result.
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    from parquet_go_ray.functions import _fsst_native, _wire_native

    _fsst_native.lib()  # build step: compile the native kernels once
    _wire_native.lib()

    nproc = shutil.which("nproc")
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": subprocess.run([nproc], capture_output=True, text=True).stdout.strip()
        if nproc else None,
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "ray_logical_cpus": RAY_CPUS,
        "memcpy_gibs": round(memcpy_gibs(), 3),
    }
    bench = Bench(args, work)
    temp_dir = ray_temp_dir(work, sys_tmp)
    report: dict = {}
    metrics: dict = {}
    hung = False
    try:
        if args.trace:
            metrics = run_traced(bench, temp_dir, report)
        else:
            metrics = run_untraced(bench, temp_dir)
    except OpFailed:
        # A hung call's thread still drives Ray; a clean shutdown under it
        # makes Ray's core worker end this process. Report, then kill.
        hung = True
    finally:
        bench.rss.close()
        if not hung:
            stop_ray()
            _remove(work, temp_dir)

    attempted = len(bench.ops)
    failed = sum(1 for o in bench.ops if not o["ok"])
    correct = failed == 0 and not bench.failures and attempted > 0
    context.update(
        input_turns=bench.input_turns,
        input_bytes=bench.input_bytes,
        ops={k: sum(1 for o in bench.ops if o["kind"] == k)
             for k in sorted({o["kind"] for o in bench.ops})},
        failures=bench.failures,
    )
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans = report.pop("spans", None)
    if spans is not None:
        with open(stem + "-spans.jsonl", "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
    with open(stem + ".json", "w") as f:
        json.dump({"context": context, "metrics": metrics, **report,
                   "ops": [{k: v for k, v in o.items() if k != "summary"}
                           for o in bench.ops]}, f, indent=1, default=str)

    for name, row in report.get("layers", {}).items():
        print(f"layer {name:34s} n={row['count']:5d} total_ms={row['total_ms']:10.1f} "
              f"self_ms={row['self_ms']:10.1f}", file=out)
    for col, per_pid in report.get("selector", {}).items():
        for pid, d in sorted(per_pid.items()):
            print(f"selector {col} part-{pid}: codec={d['codec']} compression={d['compression']} "
                  f"codec_note={d['codec_note']} trials={d['trials']}", file=out)
    print("context " + json.dumps(context), file=out)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), file=out)
    out.flush()
    if hung:
        kill_descendants()
        _remove(work, temp_dir)
        os._exit(1)
    return 0 if correct else 1


def _remove(*dirs: str) -> None:
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)


def kill_descendants(timeout: float = 30.0) -> None:
    """SIGKILL every process this one started (Ray's daemons and workers)
    and wait until each has ended."""
    import signal

    pids = _descendants(os.getpid())
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    for pid in pids:
        try:
            os.waitpid(pid, 0)  # reaps our own children
            continue
        except ChildProcessError:
            pass
        while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
            time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
