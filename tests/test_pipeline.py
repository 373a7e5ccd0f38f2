"""End-to-end Ray Data pipeline tests: encode → decode → verify, resume,
salting. Ray is initialised once per session (conftest.ray_session)."""

import gc
import os
import re
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from parquet_go_ray.sources.transcripts import generate_transcripts
from parquet_go_ray.stages.salt import assign_buckets, stable_hash_strings
from parquet_go_ray.state import manifest as mf
from parquet_go_ray.state.blob import decode_table


@pytest.fixture(scope="module")
def transcripts_parquet(tmp_path_factory):
    path = tmp_path_factory.mktemp("input")
    t = generate_transcripts(8000, seed=42)
    pq.write_table(t, str(path / "transcripts-0000.parquet"), row_group_size=2048)
    return str(path), t


def test_salting_is_deterministic_and_splits_hot_keys():
    t = generate_transcripts(5000, seed=11)
    b1 = assign_buckets(t, num_buckets=8, turns_per_salt=16)
    b2 = assign_buckets(t, num_buckets=8, turns_per_salt=16)
    assert b1.column("_bucket").equals(b2.column("_bucket"))
    # A conversation longer than turns_per_salt lands in >1 bucket.
    df = b1.select(["conv_id", "_bucket"]).to_pandas()
    sizes = df.groupby("conv_id")["_bucket"].nunique()
    lens = df.groupby("conv_id").size()
    hot = lens[lens > 16 * 4]
    if len(hot):
        assert (sizes[hot.index] > 1).any()


def test_stable_hash_cross_call():
    a = stable_hash_strings(["conv-1", "conv-2"])
    b = stable_hash_strings(np.array(["conv-1", "conv-2"], dtype=object))
    assert (a == b).all()


def test_encode_decode_verify(ray_session, transcripts_parquet, tmp_path):
    import ray

    from parquet_go_ray.pipelines.decode import decode_pipeline
    from parquet_go_ray.pipelines.encode import encode_pipeline
    from parquet_go_ray.pipelines.verify import verify_roundtrip

    input_dir, original = transcripts_parquet
    ckpt = str(tmp_path / "ckpt")
    summary = encode_pipeline(input_dir, ckpt, rows_per_partition=2000)
    assert summary["rows_encoded"] == original.num_rows
    assert summary["partitions"] >= 4
    assert summary["blob_bytes"] < summary["raw_bytes"]

    decoded = decode_pipeline(ckpt, concurrency=(1, 2))
    result = verify_roundtrip(
        ray.data.read_parquet(input_dir), decoded
    )
    assert result["match"], result

    # Per-key bit-exactness, driver-side on the small test table.
    df_in = original.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    df_out = (
        decoded.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    for col in original.column_names:
        assert df_in[col].equals(df_out[col]), col


@pytest.mark.parametrize("input_kind", ["path", "dataset"])
def test_resume_skips_completed(ray_session, transcripts_parquet, tmp_path, input_kind):
    import ray

    from parquet_go_ray.pipelines.encode import encode_pipeline

    input_dir, original = transcripts_parquet

    def source():
        return input_dir if input_kind == "path" else ray.data.read_parquet(input_dir)

    ckpt = str(tmp_path / "ckpt_resume")
    s1 = encode_pipeline(source(), ckpt, rows_per_partition=2000)
    assert s1["partitions_skipped"] == 0

    # Simulate a partial run: delete one partition's blob+entry.
    victim = sorted(mf.completed_partitions(ckpt))[0]
    os.remove(mf.blob_path(ckpt, victim))
    os.remove(mf.entry_path(ckpt, victim))

    s2 = encode_pipeline(source(), ckpt, rows_per_partition=2000)
    # Only the victim partition re-encodes; all others are filtered out
    # in phase 1 (their rows never reach a merge task).
    assert s2["partitions"] == 1
    assert s2["rows_encoded"] < original.num_rows
    assert victim in mf.completed_partitions(ckpt)

    # And a third run is a full no-op.
    s3 = encode_pipeline(source(), ckpt, rows_per_partition=2000)
    assert s3["rows_encoded"] == 0


def test_resume_rejects_partitioning_change(ray_session, transcripts_parquet, tmp_path):
    from parquet_go_ray.pipelines.encode import encode_pipeline

    input_dir, _ = transcripts_parquet
    ckpt = str(tmp_path / "ckpt_cfg")
    encode_pipeline(input_dir, ckpt, rows_per_partition=2000)
    with pytest.raises(ValueError, match="resume config mismatch"):
        encode_pipeline(input_dir, ckpt, rows_per_partition=999)


def test_hot_conversation_splits_across_partitions(ray_session, tmp_path):
    """North-rule skew case: one conversation far bigger than
    turns_per_salt must land in multiple partitions (no partition takes
    the whole hot key), and the per-(conv_id, turn_idx) invariant must
    survive the split."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from parquet_go_ray.pipelines.decode import decode_pipeline
    from parquet_go_ray.pipelines.encode import encode_pipeline

    # 1 hot conversation of 3000 turns + background chatter.
    hot = pa.table(
        {
            "conv_id": pa.array(["conv-hot"] * 3000),
            "turn_idx": pa.array(np.arange(3000, dtype=np.int32)),
            "role": pa.array(["user", "assistant"] * 1500),
            "text": pa.array([f"turn {i} payload" for i in range(3000)]),
            "tool": pa.array([None] * 3000, pa.string()),
            "ts": pa.array(
                1_700_000_000_000_000 + np.arange(3000) * 1_000_000,
                pa.timestamp("us"),
            ),
        }
    )
    bg = generate_transcripts(1000, seed=21)
    t = pa.concat_tables([hot, bg.select(hot.column_names)])
    input_dir = tmp_path / "hot_in"
    input_dir.mkdir()
    pq.write_table(t, str(input_dir / "t.parquet"))
    ckpt = str(tmp_path / "hot_ck")
    encode_pipeline(
        str(input_dir),
        ckpt,
        rows_per_partition=800,
        turns_per_salt=500,  # hot conv must split into ~6 salt blocks
    )
    # The hot conversation appears in more than one partition blob.
    from parquet_go_ray.state import manifest as mf
    from parquet_go_ray.state.blob import decode_table

    parts_with_hot = 0
    for pid in sorted(mf.completed_partitions(ckpt)):
        with open(mf.blob_path(ckpt, pid), "rb") as f:
            tab = decode_table(f.read(), columns=["conv_id", "turn_idx"])
        if pc.sum(pc.equal(tab.column("conv_id"), "conv-hot")).as_py():
            parts_with_hot += 1
            # Within a partition, the hot conv's turns stay sorted.
            sel = tab.filter(pc.equal(tab.column("conv_id"), "conv-hot"))
            ti = sel.column("turn_idx").to_numpy()
            assert (np.diff(ti) > 0).all()
    assert parts_with_hot > 1

    # Full decode reassembles every turn exactly once.
    decoded = decode_pipeline(ckpt, concurrency=(1, 2))
    df = decoded.to_pandas()
    hot_rows = df[df["conv_id"] == "conv-hot"].sort_values("turn_idx")
    assert hot_rows["turn_idx"].tolist() == list(range(3000))
    assert hot_rows["text"].tolist() == [f"turn {i} payload" for i in range(3000)]


def test_partition_blobs_are_sorted_within(ray_session, transcripts_parquet, tmp_path):
    from parquet_go_ray.pipelines.encode import encode_pipeline

    input_dir, _ = transcripts_parquet
    ckpt = str(tmp_path / "ckpt_sorted")
    encode_pipeline(input_dir, ckpt, rows_per_partition=2000)
    pid = sorted(mf.completed_partitions(ckpt))[0]
    with open(mf.blob_path(ckpt, pid), "rb") as f:
        t = decode_table(f.read())
    df = t.select(["conv_id", "turn_idx"]).to_pandas()
    assert df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True).equals(
        df.reset_index(drop=True)
    )
    # Lineage entry carries codec choices + bucket id + input file paths.
    entry = mf.read_entry(ckpt, pid)
    assert entry["input_fragments"][0] == f"bucket={int(pid)}"
    assert any(f.endswith(".parquet") for f in entry["input_fragments"][1:])
    assert "codec" in entry["columns"]["text"]


def test_fragment_exchange_compresses_shuffled_bytes():
    """Phase 1 must ship substantially fewer bytes than the raw rows it
    replaces (the point of the compressed-fragment exchange)."""
    from parquet_go_ray.stages.encoder import FRAG_COL, encode_fragments

    t = generate_transcripts(20000, seed=21)
    batch = assign_buckets(t.combine_chunks(), num_buckets=8)
    frags = encode_fragments(batch)
    frag_bytes = sum(len(f.as_py()) for f in frags.column(FRAG_COL))
    assert frag_bytes < t.nbytes / 2, (frag_bytes, t.nbytes)


def test_encode_fragments_empty_batch():
    """A batch whose rows all belong to completed partitions reaches
    encode_fragments empty; it yields an empty fragment table with the
    usual schema."""
    from parquet_go_ray.stages.encoder import encode_fragments

    batch = assign_buckets(generate_transcripts(200, seed=3), num_buckets=4)
    empty = encode_fragments(batch.slice(0, 0))
    assert empty.num_rows == 0
    assert empty.schema == encode_fragments(batch).schema


def test_retried_merge_returns_written_partition(tmp_path):
    """A retried merge task whose partition is already on disk returns
    the written entry's summary and encodes nothing."""
    from parquet_go_ray.stages.encoder import MergeEncoderActor
    from parquet_go_ray.state.blob import encode_table

    t = generate_transcripts(300, seed=5)
    blob, meta = encode_table(t)
    ckpt = str(tmp_path / "ckpt")
    mf.write_partition(ckpt, "000003", blob, meta, raw_bytes=t.nbytes)
    # No fragment chunks: the check must run before any fragment read.
    out = MergeEncoderActor(ckpt)(3, [None], [0])
    assert out == {"partition_id": "000003", "rows": t.num_rows,
                   "raw_bytes": t.nbytes, "blob_bytes": len(blob),
                   "skipped": True}


# sha256 over the per-blob sha256 hex digests, concatenated in blob-name
# order, of the transcripts_parquet fixture at rows_per_partition=2000.
GOLDEN_BLOBS_SHA256 = "8ec3fc73bfb0bb1346423827d9ac0837e1f03827fa4e525b249db9aadf18ea93"


def _blobs_digest(ckpt: str) -> str:
    """The GOLDEN_BLOBS_SHA256 digest of a checkpoint's blobs."""
    import hashlib

    bdir = os.path.join(ckpt, "blobs")
    h = hashlib.sha256()
    for name in sorted(n for n in os.listdir(bdir) if n.endswith(".blob")):
        with open(os.path.join(bdir, name), "rb") as f:
            h.update(hashlib.sha256(f.read()).hexdigest().encode())
    return h.hexdigest()


def _entries_but_wall_time(ckpt: str) -> dict:
    """A checkpoint's manifest entries without their ``finished_at``."""
    out = {}
    for pid in mf.completed_partitions(ckpt):
        e = mf.read_entry(ckpt, pid)
        e.pop("finished_at")
        out[pid] = e
    return out


def test_blobs_match_golden_for_path_and_dataset_inputs(
    ray_session, transcripts_parquet, tmp_path
):
    """Both input kinds — a local dir (fused read) and a ray.data.Dataset
    (Ray Data read) — produce byte-identical partition blobs, pinned to
    a golden hash: the route must never leak into the stored format.
    (Holds when the sort keys are unique per row, as in transcripts;
    pc.sort_indices is stable, so fragment arrival order cancels out.)"""
    import ray

    from parquet_go_ray.pipelines.encode import encode_pipeline

    input_dir, _ = transcripts_parquet

    def blobs_digest(source, ckpt: str) -> str:
        encode_pipeline(source, ckpt, rows_per_partition=2000)
        return _blobs_digest(ckpt)

    path = blobs_digest(input_dir, str(tmp_path / "c_path"))
    dataset = blobs_digest(ray.data.read_parquet(input_dir), str(tmp_path / "c_ds"))
    assert path == dataset == GOLDEN_BLOBS_SHA256


def _driver_object_refs() -> dict:
    """Objects the driver holds a reference to, with their counts. The
    driver owns every fragment chunk (a phase-1 task output), so a
    chunk it no longer references is freed."""
    import ray

    worker = ray._private.worker.global_worker
    return worker.core_worker.get_all_reference_counts()


def _is_chunk(object_id: bytes) -> bool:
    """An object id is its task's id then its 4-byte little-endian
    return index: a phase-1 task returns its meta at index 1 and its
    chunks after it, a merge task only index 1."""
    return int.from_bytes(bytes.fromhex(object_id.decode())[-4:], "little") > 1


def _refs_left(before: dict, chunks_only: bool = False,
               timeout_s: float = 30.0) -> dict:
    """The call's objects (or only its chunks) still referenced once its
    in-flight tasks are done: a failed call returns while its other
    tasks may still run."""
    gc.collect()  # a dropped exception's frames may sit in a cycle
    deadline = time.monotonic() + timeout_s
    while True:
        left = {k: v for k, v in _driver_object_refs().items()
                if k not in before and (_is_chunk(k) or not chunks_only)}
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.1)


def test_failed_phase1_releases_pinned_fragments(
    ray_session, transcripts_parquet, tmp_path
):
    """No fragment chunk of a call outlives it: after a successful call,
    after calls whose phase 1 fails and after one whose merge fails —
    also while the caller keeps the exception, which holds only the
    failed phase's small task results. A failure names the input file
    of the split, or the partition and its input files."""
    from parquet_go_ray.pipelines.encode import encode_pipeline

    input_dir, table = transcripts_parquet
    path = os.path.join(input_dir, "transcripts-0000.parquet")
    before = _driver_object_refs()
    encode_pipeline(input_dir, str(tmp_path / "ok"), rows_per_partition=2000)
    assert not _refs_left(before)

    with pytest.raises(Exception, match="no_such_col") as err:
        encode_pipeline(input_dir, str(tmp_path / "p1"), key="no_such_col",
                        rows_per_partition=2000)
    assert f"encode phase 1 failed on {path} row groups [" in str(err.value)
    assert not _refs_left(before, chunks_only=True)
    del err
    assert not _refs_left(before)

    # One good file, whose splits put chunks, and one without the key.
    bad = str(tmp_path / "no_conv_id.parquet")
    pq.write_table(table.drop_columns(["conv_id"]), bad)
    with pytest.raises(Exception, match="conv_id") as err:
        encode_pipeline([path, bad], str(tmp_path / "p1b"),
                        rows_per_partition=2000, read_blocks=4)
    assert f"encode phase 1 failed on {bad} row groups [" in str(err.value)
    assert not _refs_left(before, chunks_only=True)
    del err
    assert not _refs_left(before)

    with pytest.raises(Exception, match="no_such_codec") as err:
        encode_pipeline(input_dir, str(tmp_path / "p2"), rows_per_partition=2000,
                        choices={"text": ("no_such_codec", "zstd")})
    assert re.search(r"encode merge of partition \d{6} \(inputs \['"
                     + re.escape(path) + r"'\]\) failed", str(err.value))
    assert not _refs_left(before, chunks_only=True)
    del err
    assert not _refs_left(before)


def test_encode_has_no_actor_or_out_of_band_refs():
    """Guard against re-growth: the encode path is plain tasks. No Ray
    actor class, no ``ray.put(_owner=...)``, no refs pickled into
    columns, no Ray Data stage of its own."""
    import ast
    import pathlib

    import parquet_go_ray

    root = pathlib.Path(parquet_go_ray.__file__).parent
    found = []
    for rel in ("stages/encoder.py", "pipelines/encode.py"):
        for node in ast.walk(ast.parse((root / rel).read_text())):
            if isinstance(node, ast.ClassDef) and any(
                "remote" in ast.unparse(d) for d in node.decorator_list
            ):
                found.append((rel, "remote class", node.name))
            elif isinstance(node, ast.keyword) and node.arg == "_owner":
                found.append((rel, "_owner=", node.lineno))
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "cloudpickle" in name
                for name in [getattr(node, "module", None) or ""]
                + [a.name for a in node.names]
            ):
                found.append((rel, "cloudpickle import", node.lineno))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("map_batches", "from_items")):
                found.append((rel, node.func.attr, node.lineno))
    assert not found, found


_FAULT_SCRIPT = """
import os, sys

import pyarrow.parquet as pq
import ray

from parquet_go_ray.pipelines.encode import encode_pipeline
from parquet_go_ray.sources.transcripts import generate_transcripts

work = sys.argv[1]


def crash_first_attempts():
    # Worker set-up hook: the first phase-1 task and the first merge
    # task to run kill their worker; the marker file makes it once.
    from parquet_go_ray.stages import encoder

    def crash_once(name, fn):
        def wrapped(*args, **kwargs):
            try:
                os.close(os.open(os.path.join(work, name),
                                 os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return fn(*args, **kwargs)
            os._exit(1)
        return wrapped

    encoder.bucket_fragments = crash_once(
        "phase1.crashed", encoder.bucket_fragments)
    encoder.MergeEncoderActor._fragment_tables = crash_once(
        "merge.crashed", encoder.MergeEncoderActor._fragment_tables)


ray.init(address="local", num_cpus=2, include_dashboard=False,
         log_to_driver=False,
         runtime_env={"worker_process_setup_hook": crash_first_attempts})
src = os.path.join(work, "input")
os.makedirs(src)
pq.write_table(generate_transcripts(8000, seed=42),
               os.path.join(src, "transcripts-0000.parquet"),
               row_group_size=2048)
for ckpt in ("faulted", "clean"):  # the markers exist by the second run
    s = encode_pipeline(src, os.path.join(work, ckpt), rows_per_partition=2000)
    assert s["rows_encoded"] == s["rows_total"] > 0, s
ray.shutdown()
"""


def test_worker_crashes_are_retried_to_identical_blobs(tmp_path):
    """A phase-1 task and a merge task whose first attempt kills its
    worker are retried by Ray; the blobs match the golden hash and the
    manifest entries match an uninterrupted run's but for wall time."""
    import subprocess
    import sys

    script = tmp_path / "fault_run.py"
    script.write_text(_FAULT_SCRIPT)
    work = tmp_path / "work"
    work.mkdir()
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, str(script), str(work)], cwd=repo,
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": repo},
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert (work / "phase1.crashed").exists()
    assert (work / "merge.crashed").exists()

    faulted, clean = str(work / "faulted"), str(work / "clean")
    assert _entries_but_wall_time(faulted) == _entries_but_wall_time(clean)
    assert _blobs_digest(faulted) == GOLDEN_BLOBS_SHA256


_RESUME_SCRIPT = """
import os, sys

import pyarrow.parquet as pq
import ray

from parquet_go_ray.pipelines.encode import encode_pipeline
from parquet_go_ray.sources.transcripts import generate_transcripts
from parquet_go_ray.state import manifest as mf

work = sys.argv[1]
flag = os.path.join(work, "crash.on")
PID = "000001"


def crash_between_renames():
    # Worker set-up hook: while the flag file exists, the merge of
    # partition PID dies after its blob is renamed into place and
    # before its manifest entry is, on every attempt.
    from parquet_go_ray.state import manifest

    atomic_write = manifest._atomic_write

    def crashing_write(path, data):
        if (os.path.basename(path) == f"part-{PID}.json"
                and os.path.exists(flag)):
            os._exit(1)
        atomic_write(path, data)

    manifest._atomic_write = crashing_write


ray.init(address="local", num_cpus=2, include_dashboard=False,
         log_to_driver=False,
         runtime_env={"worker_process_setup_hook": crash_between_renames})
src = os.path.join(work, "input")
os.makedirs(src)
table = generate_transcripts(8000, seed=42)
pq.write_table(table, os.path.join(src, "transcripts-0000.parquet"),
               row_group_size=2048)
faulted = os.path.join(work, "faulted")
open(flag, "w").close()
try:
    encode_pipeline(src, faulted, rows_per_partition=2000)
except Exception:
    pass
else:
    sys.exit("the faulted run did not fail")
assert os.path.exists(mf.blob_path(faulted, PID)), "blob not renamed"
assert PID not in mf.completed_partitions(faulted), "entry written"
os.remove(flag)
s = encode_pipeline(src, faulted, rows_per_partition=2000)  # resume
assert 0 < s["rows_encoded"] < table.num_rows, s
s = encode_pipeline(src, os.path.join(work, "clean"), rows_per_partition=2000)
assert s["rows_encoded"] == table.num_rows, s
ray.shutdown()
"""


def test_crash_between_blob_and_manifest_resumes_to_identical_blobs(tmp_path):
    """A merge that dies after renaming its blob and before renaming its
    manifest entry leaves a partition that does not count as done; a
    resume re-encodes it, and the checkpoint ends with the manifest
    entries of an uninterrupted run (but for wall time) and the golden
    blobs."""
    import subprocess
    import sys

    script = tmp_path / "resume_run.py"
    script.write_text(_RESUME_SCRIPT)
    work = tmp_path / "work"
    work.mkdir()
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, str(script), str(work)], cwd=repo,
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": repo},
    )
    assert proc.returncode == 0, proc.stderr[-3000:]

    faulted, clean = str(work / "faulted"), str(work / "clean")
    assert _entries_but_wall_time(faulted) == _entries_but_wall_time(clean)
    assert _blobs_digest(faulted) == GOLDEN_BLOBS_SHA256
