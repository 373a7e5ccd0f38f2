"""Per-layer ledger: turns the spans of a traced run into self times and
the per-layer metrics named in BENCHMARK.json.

Every worker span is tied to the benchmark operation (a driver span named
``op.<kind>``) whose interval contains the start of its outermost span;
worker spans outside every operation (warm-up, set-up) are dropped.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

COLUMNS = ("conv_id", "turn_idx", "role", "text", "tool", "ts")


def attach(driver_spans: list[dict], worker_spans: list[dict]) -> list[dict]:
    """Re-parent each worker root span onto the operation containing it."""
    ops = [s for s in driver_spans if s["name"].startswith("op.")]
    by_id = {s["id"]: s for s in worker_spans}
    attached = set()
    for s in worker_spans:
        if s["parent"] is None:
            op = next((o for o in ops if o["start"] <= s["start"] <= o["end"]), None)
            if op is not None:
                s["parent"] = op["id"]
                attached.add(s["id"])

    def root_id(s):
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
        return s["id"]

    return list(driver_spans) + [s for s in worker_spans if root_id(s) in attached]


def add_self_times(spans: list[dict]) -> None:
    """Self time = duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    for s in spans:
        ivs = sorted(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ())
        )
        covered, cur_lo, cur_hi = 0, None, None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        s["self_ns"] = (s["end"] - s["start"]) - covered


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """name -> {count, total_ms, self_ms} over operation spans."""
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += (s["end"] - s["start"]) / 1e6
        row["self_ms"] += s["self_ns"] / 1e6
    return dict(sorted(out.items()))


class _View:
    def __init__(self, spans: list[dict], ops: list[dict]):
        self.by_id = {s["id"]: s for s in spans}
        self.op_kind = {o["span_id"]: o["kind"] for o in ops}
        self.spans = spans
        self._op_cache: dict[str, str | None] = {}

    def op_of(self, s: dict) -> str | None:
        sid = s["id"]
        if sid not in self._op_cache:
            cur = s
            while cur is not None and cur["id"] not in self.op_kind:
                cur = self.by_id.get(cur["parent"]) if cur["parent"] else None
            self._op_cache[sid] = cur["id"] if cur is not None else None
        return self._op_cache[sid]

    def select(self, name: str, kinds: set[str], **attrs) -> list[dict]:
        out = []
        for s in self.spans:
            if s["name"] != name:
                continue
            op = self.op_of(s)
            if op is None or self.op_kind[op] not in kinds:
                continue
            if any(s["attrs"].get(k) != v for k, v in attrs.items()):
                continue
            out.append(s)
        return out

    def parent_name(self, s: dict) -> str | None:
        p = self.by_id.get(s["parent"]) if s["parent"] else None
        return p["name"] if p else None


def _dur(spans) -> int:
    return sum(s["end"] - s["start"] for s in spans)


def _per(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    spans: list[dict],
    ops: list[dict],
    column_bytes: dict[str, float],
    lookup_pages_total: int,
    lookup_partitions_total: int,
    overhead_s: float,
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json as name -> (value, unit).

    ``ops`` are the traced operations (``span_id``, ``kind``, ``turns``,
    ``wall_s`` and, for encodes, the pipeline ``summary``)."""
    v = _View(spans, ops)
    enc, full, look = {"encode"}, {"scan_full"}, {"lookup"}
    enc_ops = [o for o in ops if o["kind"] == "encode"]
    full_ops = [o for o in ops if o["kind"] == "scan_full"]
    turns_e = sum(o["turns"] for o in enc_ops)
    turns_f = sum(o["turns"] for o in full_ops)
    m: dict[str, tuple[float, str]] = {}

    def ns_e(name, **attrs):
        return _per(_dur(v.select(name, enc, **attrs)), turns_e)

    m["sources.read_row_groups.ns_per_turn"] = (ns_e("sources.read_row_groups"), "ns/turn")
    m["salt.assign_buckets.ns_per_turn"] = (ns_e("salt.assign_buckets"), "ns/turn")
    frag = v.select("encoder.encode_fragments", enc)
    m["encoder.encode_fragments.ns_per_turn"] = (_per(_dur(frag), turns_e), "ns/turn")
    m["encoder.fragment_bytes_per_turn"] = (
        _per(sum(s["attrs"].get("frag_bytes", 0) for s in frag), turns_e), "B/turn")
    m["encoder.fragments"] = (
        _per(sum(s["attrs"].get("fragments", 0) for s in frag), len(enc_ops)), "count")
    m["encoder.fragment_decode.ns_per_turn"] = (ns_e("encoder.fragment_decode"), "ns/turn")
    m["encoder.sort.ns_per_turn"] = (ns_e("encoder.sort"), "ns/turn")

    for col in COLUMNS:
        sel = v.select("selector.select_codec", enc, col=col)
        m[f"selector.select_codec.{col}.ns_per_turn"] = (_per(_dur(sel), turns_e), "ns/turn")
        trials = [
            s for s in v.select("column.encode_values", enc, col=col)
            if v.parent_name(s) == "selector.select_codec"
        ]
        m[f"selector.trials.{col}"] = (_per(len(trials), len(sel)), "trials/call")
    for col in COLUMNS:
        real = [
            s for s in v.select("column.encode_values", enc, col=col)
            if v.parent_name(s) == "column.encode_column"
        ]
        m[f"column.encode_values.{col}.ns_per_turn"] = (_per(_dur(real), turns_e), "ns/turn")
    for col in COLUMNS:
        comp = [
            s for s in v.select("block.compress", enc, col=col)
            if v.parent_name(s) == "column.encode_column"
        ]
        m[f"block.compress.{col}.ns_per_turn"] = (_per(_dur(comp), turns_e), "ns/turn")
    enc_tables = v.select("blob.encode_table", enc)
    m["blob.encode_table.ns_per_turn"] = (_per(_dur(enc_tables), turns_e), "ns/turn")
    m["manifest.write_partition.ns_per_turn"] = (ns_e("manifest.write_partition"), "ns/turn")
    for col in COLUMNS:
        m[f"column.{col}.bytes_per_turn"] = (column_bytes.get(col, 0.0), "B/turn")

    for key, field in (("phase1_cpu_ns_per_turn", "phase1_cpu_s"),
                       ("merge_cpu_ns_per_turn", "merge_cpu_s")):
        vals = [o["summary"].get(field, 0.0) * 1e9 / o["turns"] for o in enc_ops if o["turns"]]
        m[f"pipelines.encode.{key}"] = (statistics.median(vals) if vals else 0.0, "ns/turn")
    orch = [o["wall_s"] - o["summary"].get("udf_cpu_s", 0.0) for o in enc_ops]
    m["pipelines.encode.orchestration_s"] = (statistics.median(orch) if orch else 0.0, "s")

    dec_tables = v.select("blob.decode_table", full)
    headers = v.select("blob.read_header", full)
    m["blob.read_header.us_per_partition"] = (_per(_dur(headers) / 1e3, len(dec_tables)), "us/partition")
    for col in COLUMNS:
        m[f"block.decompress.{col}.ns_per_turn"] = (
            _per(_dur(v.select("block.decompress", full, col=col)), turns_f), "ns/turn")
    for col in COLUMNS:
        m[f"column.decode.{col}.ns_per_turn"] = (
            _per(_dur(v.select("column.decode", full, col=col)), turns_f), "ns/turn")
    m["blob.decode_table.ns_per_turn"] = (_per(_dur(dec_tables), turns_f), "ns/turn")
    dec_by_op = defaultdict(int)
    for s in dec_tables:
        dec_by_op[v.op_of(s)] += s["end"] - s["start"]
    orch = [o["wall_s"] - dec_by_op[o["span_id"]] / 1e9 for o in full_ops]
    m["pipelines.decode.orchestration_s"] = (statistics.median(orch) if orch else 0.0, "s")

    n_look = sum(1 for o in ops if o["kind"] == "lookup")
    decoded_blobs = len(v.select("decode.decode_one", look))
    m["decode.partitions_pruned_frac"] = (
        1.0 - _per(decoded_blobs, n_look * lookup_partitions_total), "frac")
    pages = len(v.select("column.decode_page", look)) + sum(
        1 for s in v.select("column.decode", look) if not s["attrs"].get("paged")
    )
    m["decode.pages_decoded_frac"] = (_per(pages, n_look * lookup_pages_total), "frac")

    text_enc = _dur(v.select("selector.select_codec", enc, col="text")) + _dur(
        v.select("column.encode_column", enc, col="text"))
    m["blob.encode_table.text_share"] = (_per(text_enc, _dur(enc_tables)), "frac")
    m["blob.decode_table.conv_id_share"] = (
        _per(_dur(v.select("column.decode", full, col="conv_id")), _dur(dec_tables)), "frac")
    m["blob.encode_table.child_coverage"] = (_coverage(enc_tables), "frac")
    m["blob.decode_table.child_coverage"] = (_coverage(dec_tables), "frac")
    held = [o.get("cpus_held", 0.0) for o in ops]
    m["pipelines.cpus_held_after_op"] = (_per(sum(held), len(held)), "cpus")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def _coverage(spans: list[dict]) -> float:
    """Share of the spans' summed duration covered by their children."""
    return 1.0 - _per(sum(s["self_ns"] for s in spans), _dur(spans))
