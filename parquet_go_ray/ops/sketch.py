"""HyperLogLog: mergeable approximate-distinct sketch.

The cardinality question a 100-TB pipeline asks constantly (how many
distinct users / URLs / shingles?) where the exact answer needs a
full shuffle (``groupby`` over every key) but a 16 KiB sketch answers
within ~1%. Classic HLL (Flajolet et al. 2007, public): ``m = 2^p``
registers; each value's XXH64 routes to register ``h >> (64-p)`` and
contributes ``rank = clz(remaining bits) + 1``; registers keep the max.
Sketches merge by element-wise max — embarrassingly tree-reducible, so
the Ray plan is: one register array per BATCH (vectorized
``np.maximum.at``), stream the m-byte rows to the driver, one final
max-reduce. Nothing data-sized moves.

Estimator: alpha_m * m^2 / sum(2^-reg) with the standard small-range
linear-counting correction; 64-bit hashes need no large-range
correction. Expected relative error ~1.04/sqrt(m) (0.8% at p=14).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .bucketing import col_hash64


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1 + 1.079 / m)


def hll_registers(hashes: np.ndarray, p: int) -> np.ndarray:
    """Register array (uint8, len 2^p) for a batch of 64-bit hashes."""
    m = 1 << p
    reg = np.zeros(m, dtype=np.uint8)
    if len(hashes) == 0:
        return reg
    h = hashes.astype(np.uint64, copy=False)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)  # sentinel low bits
    # rank = clz64(rest) + 1 = 65 - bit_length(rest). bit_length comes
    # from the float64 exponent (exact integer log2 would overflow
    # float precision past 2^53, so correct the one case where the
    # conversion ROUNDS UP across a power of two).
    f = rest.astype(np.float64)
    bits = (((f.view(np.uint64) >> np.uint64(52)) & np.uint64(0x7FF))
            .astype(np.int64) - 1023)  # floor(log2) modulo rounding
    bits = np.minimum(bits, 63)
    bits -= ((np.uint64(1) << bits.astype(np.uint64)) > rest)
    rank = (64 - bits).astype(np.uint8)  # sentinel caps it at 64 - p + 1
    np.maximum.at(reg, idx, rank)
    return reg


def hll_estimate(reg: np.ndarray) -> float:
    m = len(reg)
    est = _alpha(m) * m * m / np.sum(np.ldexp(1.0, -reg.astype(np.int64)))
    zeros = int((reg == 0).sum())
    if est <= 2.5 * m and zeros:
        return m * float(np.log(m / zeros))  # linear counting
    return float(est)


def approx_distinct(
    ds: ray.data.Dataset, col: str, p: int = 14
) -> float:
    """Approximate ``count(DISTINCT col)`` via one streaming pass."""
    if not 4 <= p <= 18:
        raise ValueError(f"p must be in [4, 18], got {p}")

    def sketch(batch: pa.Table) -> pa.Table:
        reg = hll_registers(col_hash64(batch.column(col).drop_null()), p)
        return pa.table({"reg": pa.array([reg.tobytes()], pa.binary())})

    rows = ds.map_batches(
        sketch, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    merged = np.zeros(1 << p, dtype=np.uint8)
    for raw in rows["reg"]:
        np.maximum(merged, np.frombuffer(raw, np.uint8), out=merged)
    return hll_estimate(merged)


# --- Count-min heavy hitters --------------------------------------------
#
# The frequent-items question (top URLs / domains / tokens by count)
# where the exact answer is a full groupby shuffle over every distinct
# key. Count-min (Cormode & Muthukrishnan 2005, public): a (depth x
# width) counter matrix; each value adds its count at one position per
# row (double hashing per Kirsch-Mitzenmacher: pos_i = h1 + i*h2 mod
# width). Estimates = min over rows — never undercounts, overcounts by
# <= e/width * N with high probability. Sketches merge by element-wise
# SUM, so the Ray plan mirrors approx_distinct: one sketch row + a
# bounded local-candidate list per BATCH, streamed to the driver, one
# tree-foldable reduction. Nothing data-sized moves, and the candidate
# union (any value locally frequent somewhere) is what keeps the final
# top-k honest without a second pass.


def _cms_positions(
    hashes: np.ndarray, depth: int, width: int
) -> np.ndarray:
    """(depth, n) positions via double hashing off one 64-bit hash."""
    h1 = (hashes & np.uint64(0xFFFFFFFF)).astype(np.uint64)
    h2 = (hashes >> np.uint64(32)).astype(np.uint64) | np.uint64(1)
    i = np.arange(depth, dtype=np.uint64)[:, None]
    return ((h1[None, :] + i * h2[None, :]) % np.uint64(width)).astype(
        np.int64
    )


def approx_topk_frequent(
    ds: ray.data.Dataset,
    col: str,
    k: int = 10,
    width: int = 8192,
    depth: int = 4,
    candidates_per_batch: int | None = None,
) -> pa.Table:
    """Approximate top-k most frequent values of ``col`` in one
    streaming pass. Returns (value, est_count) sorted by est_count
    desc, value asc (deterministic).

    Driver memory: depth*width int64 counters (256 KiB at defaults) +
    the bounded candidate union. est_count >= true count always (CMS
    never undercounts); a value missing from every batch's local
    candidates is the one blind spot — candidates_per_batch (default
    max(8k, 64)) bounds it to values rarer than every batch's local
    top-C, which cannot include a global top-k value unless the
    distribution shifts per batch faster than C covers."""
    cap = candidates_per_batch or max(8 * k, 64)

    def sketch(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        column = batch.column(col)
        if isinstance(column, pa.ChunkedArray):
            column = column.combine_chunks()
        vc = pc.value_counts(column.drop_null() if column.null_count
                             else column)
        vals = vc.field("values")
        cnts = vc.field("counts").to_numpy(zero_copy_only=False)
        cms = np.zeros((depth, width), dtype=np.int64)
        if len(vals):
            pos = _cms_positions(col_hash64(vals), depth, width)
            for i in range(depth):
                np.add.at(cms[i], pos[i], cnts)
        top = np.argsort(-cnts, kind="stable")[:cap]
        cand = vals.take(pa.array(top, pa.int64())) if len(vals) else vals
        n_c = len(cand)
        return pa.table(
            {
                "kind": pa.array(
                    np.concatenate(
                        (np.int8([0]), np.ones(n_c, dtype=np.int8))
                    )
                ),
                "cms": pa.array(
                    [cms.tobytes()] + [None] * n_c, pa.binary()
                ),
                "value": pa.concat_arrays(
                    [pa.nulls(1, cand.type), cand]
                ),
            }
        )

    merged = np.zeros((depth, width), dtype=np.int64)
    cand_chunks: list[pa.Array] = []
    for b in ds.map_batches(
        sketch, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        if b.num_rows == 0 or "kind" not in b.column_names:
            continue
        kind = b.column("kind").to_numpy(zero_copy_only=False)
        for raw in b.filter(pa.array(kind == 0)).column("cms").to_pylist():
            merged += np.frombuffer(raw, np.int64).reshape(depth, width)
        cv = b.filter(pa.array(kind == 1)).column("value")
        if len(cv):
            cand_chunks.append(
                cv.combine_chunks() if isinstance(cv, pa.ChunkedArray)
                else cv
            )
    if not cand_chunks:
        return pa.table(
            {
                "value": pa.array([], pa.string()),
                "est_count": pa.array([], pa.int64()),
            }
        )
    import pyarrow.compute as pc

    cand = pc.unique(pa.concat_arrays(cand_chunks))
    pos = _cms_positions(col_hash64(cand), depth, width)
    est = merged[np.arange(depth)[:, None], pos].min(axis=0)
    # Full (est desc, value asc) sort BEFORE the k-cut: candidate
    # arrival order depends on block completion order, so any
    # index-based tie-break at the boundary would be nondeterministic.
    all_out = pa.table(
        {"value": cand, "est_count": pa.array(est, pa.int64())}
    )
    idx = pc.sort_indices(
        all_out,
        sort_keys=[("est_count", "descending"), ("value", "ascending")],
    )
    return all_out.take(idx[:k])


# ---------------------------------------------------------------------------
# KLL-style mergeable quantile sketch

class KllSketch:
    """Mergeable streaming quantile sketch (multilevel random sampler
    in the KLL/MRL family — Karnin-Lang-Liberty 2016 / Manku et al.
    1998, both public). Level ``l`` retains a sorted array whose items
    each represent ``2^l`` input values; a level past its capacity
    ``k`` compacts by promoting every other item (alternating parity)
    to the next level. Memory is O(k log(n/k)) items regardless of n;
    rank error is O(log(n/k)/k) · n — at the default k=512 under 0.5%
    through trillions of rows.

    Built for the Ray aggregate path: ``add_block`` folds a whole
    sorted batch in (one ``np.sort`` + repeated vectorized halving —
    never per-row Python), ``merge`` is level-wise concatenation +
    compaction, so sketches tree-reduce and the driver receives one
    O(k log n) object. Compaction parity comes from a per-sketch
    counter, not an RNG: runs are reproducible given one merge order,
    and the alternation keeps the estimator unbiased over compactions.
    Merge order under Ray scheduling is nondeterministic, so (as with
    HLL) distributed results carry an error BAND, not bit-equality.
    """

    def __init__(self, k: int = 512):
        if k < 8:
            raise ValueError(f"k must be >= 8, got {k}")
        self.k = int(k)
        self.levels: list[np.ndarray] = []
        self.count = 0  # total weight of inserted values
        self._parity = 0

    # -- ingest ---------------------------------------------------------

    def add_array(self, vals: np.ndarray) -> "KllSketch":
        """Fold a batch of values in (nulls/NaNs must be pre-dropped)."""
        v = np.sort(np.asarray(vals, dtype=np.float64))
        if len(v) == 0:
            return self
        self.count += len(v)
        lvl = 0
        while len(v) > self.k:
            if len(v) & 1:  # odd holdout stays at this level's weight
                self._push(lvl, v[-1:])
                v = v[:-1]
            off = self._parity & 1
            self._parity += 1
            v = v[off::2]
            lvl += 1
        self._push(lvl, v)
        self._compact()
        return self

    def add_block(self, block: pa.Table, col: str) -> "KllSketch":
        c = block.column(col)
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        if c.null_count:
            c = c.drop_null()
        v = c.to_numpy(zero_copy_only=False).astype(np.float64)
        return self.add_array(v[~np.isnan(v)])

    def _push(self, lvl: int, arr: np.ndarray) -> None:
        while len(self.levels) <= lvl:
            self.levels.append(np.empty(0, np.float64))
        if len(arr):
            self.levels[lvl] = np.sort(
                np.concatenate((self.levels[lvl], arr))
            )

    def _compact(self) -> None:
        lvl = 0
        while lvl < len(self.levels):
            v = self.levels[lvl]
            if len(v) > self.k:
                if len(v) & 1:
                    keep, v = v[-1:], v[:-1]
                else:
                    keep = v[:0]
                off = self._parity & 1
                self._parity += 1
                self.levels[lvl] = keep
                self._push(lvl + 1, v[off::2])
            lvl += 1

    # -- combine --------------------------------------------------------

    def merge(self, other: "KllSketch") -> "KllSketch":
        if other.k != self.k:
            raise ValueError(f"k mismatch: {self.k} vs {other.k}")
        for lvl, arr in enumerate(other.levels):
            self._push(lvl, arr)
        self.count += other.count
        self._parity += other._parity
        self._compact()
        return self

    # -- query ----------------------------------------------------------

    def _items_weights(self) -> tuple[np.ndarray, np.ndarray]:
        items = np.concatenate(
            [v for v in self.levels if len(v)] or [np.empty(0)]
        )
        weights = np.concatenate(
            [
                np.full(len(v), 1 << l, np.int64)
                for l, v in enumerate(self.levels)
                if len(v)
            ]
            or [np.empty(0, np.int64)]
        )
        order = np.argsort(items, kind="stable")
        return items[order], weights[order]

    def quantiles(self, qs) -> np.ndarray:
        """Estimated values at quantiles ``qs`` (floor((n-1)·q) rank
        contract, matching ops.quantiles)."""
        qs = np.atleast_1d(np.asarray(qs, dtype=np.float64))
        if self.count == 0:
            return np.full(len(qs), np.nan)
        items, weights = self._items_weights()
        cum = np.cumsum(weights)
        ranks = np.floor(qs * (self.count - 1)).astype(np.int64)
        idx = np.searchsorted(cum, ranks + 1)
        return items[np.minimum(idx, len(items) - 1)]

    # -- wire -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        import struct

        head = struct.pack(
            "<qqqq", self.k, self.count, self._parity, len(self.levels)
        )
        lens = np.array([len(v) for v in self.levels], np.int64)
        flat = (np.concatenate(self.levels) if self.levels
                else np.empty(0, np.float64))
        return head + lens.tobytes() + flat.tobytes()

    @staticmethod
    def from_bytes(raw: bytes) -> "KllSketch":
        import struct

        k, count, parity, n_lvl = struct.unpack_from("<qqqq", raw)
        sk = KllSketch(k)
        sk.count, sk._parity = count, parity
        off = 32
        lens = np.frombuffer(raw, np.int64, n_lvl, off)
        off += 8 * n_lvl
        flat = np.frombuffer(raw, np.float64, int(lens.sum()), off)
        pos = 0
        for n in lens:
            sk.levels.append(flat[pos : pos + n].copy())
            pos += int(n)
        return sk


def approx_quantiles_kll(
    ds: ray.data.Dataset,
    col: str,
    qs=(0.25, 0.5, 0.75),
    k: int = 512,
) -> pa.Table:
    """Streaming approximate quantiles of ``col`` via one mergeable
    KLL aggregate — the bounded-memory complement to the exact
    histogram-refinement path (``ops.quantiles.quantiles``): ONE pass,
    no shuffle, driver holds one O(k log n) sketch. Returns
    (q, value); rank error O(log(n/k)/k)."""
    agg = ray.data.aggregate.AggregateFn(
        init=lambda _: KllSketch(k),
        accumulate_block=lambda s, block: s.add_block(block, col),
        merge=lambda a, b: a.merge(b),
        name="kll",
    )
    out = ds.aggregate(agg)
    sk = out["kll"] if out else KllSketch(k)
    qs = np.atleast_1d(np.asarray(qs, dtype=np.float64))
    return pa.table(
        {
            "q": pa.array(qs, pa.float64()),
            "value": pa.array(sk.quantiles(qs), pa.float64()),
        }
    )
