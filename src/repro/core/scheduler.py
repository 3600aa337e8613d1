"""Load-balanced work scheduling (paper Algorithm 1, §3.3.1).

The scheduler turns per-request sequence lengths into:

1. a **work queue per CTA** — query tiles × KV chunks × KV heads, assigned
   longest-first through a min-cost priority queue so every CTA finishes at
   roughly the same time (Stream-K-inspired, but without atomic aggregation:
   LLM serving needs deterministic outputs, so the aggregation order is
   planned, not raced);
2. an **index mapping between partial and final outputs** — tiles whose KV
   was split into multiple chunks produce partial attention states in the
   workspace and a merge entry records which slots contract (in ascending
   ``kv_start`` order, hence deterministically) into which output rows.

Tiles whose KV fits one chunk bypass the workspace and write straight to the
final output (the *writethrough* optimization, Appendix D.2).

The scheduler runs on CPU once per generation step; the plan is reusable
across layers with the same sequence lengths (§3.3.1).  It is built with
NumPy directly in the layout the wrapper copies into its workspace sections
(a CTA-major work-item table, per-CTA offsets, merge metadata and merge
slots), so planning creates no per-item Python objects; the
:class:`WorkItem`/:class:`MergeEntry` lists of :attr:`SchedulePlan.cta_queues`
and :attr:`SchedulePlan.merges` are views derived on first use.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields
from functools import cached_property
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sparse.bsr import ceil_div

#: Default cost-model hyperparameters (α, β) of Algorithm 1: the cost of a
#: tile is ``α·l_q + β·l_kv``.  KV traffic dominates attention time, so β
#: is weighted by the relative byte volume of a KV token vs a query row.
DEFAULT_ALPHA = 1.0
DEFAULT_BETA = 2.0


@dataclass(frozen=True)
class WorkItem:
    """One unit of kernel work: a query tile × KV chunk × KV head.

    ``partial_slot == -1`` means writethrough (single-chunk tile writes the
    final output directly).
    """

    mapping_idx: int
    group: int
    q_tile: int  # tile index within the group
    q_start: int  # first query row within the group
    q_rows: int  # valid query rows in this tile
    kv_start: int
    kv_stop: int
    kv_head: int
    partial_slot: int

    @property
    def kv_len(self) -> int:
        return self.kv_stop - self.kv_start


@dataclass(frozen=True)
class MergeEntry:
    """Contract ``slots`` (ascending kv order) into one output tile."""

    mapping_idx: int
    group: int
    q_start: int
    q_rows: int
    kv_head: int
    slots: Tuple[int, ...]


#: Work-item table columns: the :class:`WorkItem` fields, in order.
ITEM_FIELDS = len(fields(WorkItem))
#: Merge table columns: the :class:`MergeEntry` fields before ``slots``.
MERGE_FIELDS = len(fields(MergeEntry)) - 1
COL_MAPPING, COL_GROUP, COL_QTILE, COL_QSTART, COL_QROWS = 0, 1, 2, 3, 4
COL_KVSTART, COL_KVSTOP, COL_KVHEAD, COL_SLOT = 5, 6, 7, 8

#: Work-item table columns that make up a merge table row.
_MERGE_COLS = [COL_MAPPING, COL_GROUP, COL_QSTART, COL_QROWS, COL_KVHEAD]

_item_row = attrgetter(*(f.name for f in fields(WorkItem)))
_merge_row = attrgetter(*(f.name for f in fields(MergeEntry)[:MERGE_FIELDS]))


def _indptr(counts) -> np.ndarray:
    """CSR offsets ``[0, c0, c0 + c1, ...]`` of per-row counts."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


@dataclass(eq=False)
class SchedulePlan:
    """The full plan for one kernel launch of one mapping, as the workspace
    stores it.

    ``items`` is the ``(n, ITEM_FIELDS)`` work-item table (columns in
    :class:`WorkItem` field order) in CTA-major order: CTA ``c`` drains rows
    ``cta_indptr[c]:cta_indptr[c + 1]`` in order.  Merge entry ``i``
    contracts partial slots ``merge_slots[merge_indptr[i]:merge_indptr[i +
    1]]`` into the tile ``merge_meta[i]`` (mapping, group, q_start, q_rows,
    kv_head).
    """

    items: np.ndarray
    cta_indptr: np.ndarray
    merge_meta: np.ndarray
    merge_indptr: np.ndarray
    merge_slots: np.ndarray
    num_partial_slots: int
    q_tile_size: int
    kv_chunk_size: int

    @classmethod
    def from_queues(
        cls,
        cta_queues: Sequence[Sequence[WorkItem]],
        merges: Sequence[MergeEntry],
        num_partial_slots: int,
        q_tile_size: int,
        kv_chunk_size: int,
    ) -> "SchedulePlan":
        """Build a plan from hand-made per-CTA queues and merge entries."""
        items = [_item_row(w) for q in cta_queues for w in q]
        return cls(
            items=np.asarray(items, dtype=np.int64).reshape(len(items), ITEM_FIELDS),
            cta_indptr=_indptr([len(q) for q in cta_queues]),
            merge_meta=np.asarray(
                [_merge_row(m) for m in merges], dtype=np.int64
            ).reshape(len(merges), MERGE_FIELDS),
            merge_indptr=_indptr([len(m.slots) for m in merges]),
            merge_slots=np.asarray([s for m in merges for s in m.slots], dtype=np.int64),
            num_partial_slots=num_partial_slots,
            q_tile_size=q_tile_size,
            kv_chunk_size=kv_chunk_size,
        )

    @cached_property
    def cta_queues(self) -> List[List[WorkItem]]:
        """Per-CTA :class:`WorkItem` queues (a view of ``items``)."""
        rows = self.items.tolist()
        bounds = self.cta_indptr.tolist()
        return [[WorkItem(*r) for r in rows[a:b]] for a, b in zip(bounds, bounds[1:])]

    @cached_property
    def merges(self) -> List[MergeEntry]:
        """:class:`MergeEntry` list (a view of the merge tables)."""
        slots = self.merge_slots.tolist()
        bounds = self.merge_indptr.tolist()
        return [
            MergeEntry(*meta, tuple(slots[a:b]))
            for meta, a, b in zip(self.merge_meta.tolist(), bounds, bounds[1:])
        ]

    @property
    def num_work_items(self) -> int:
        return len(self.items)

    def cta_costs(self) -> np.ndarray:
        """Per-CTA modelled cost ``Σ α·q_rows + β·kv_len`` (float64)."""
        cost = DEFAULT_ALPHA * self.items[:, COL_QROWS] + DEFAULT_BETA * (
            self.items[:, COL_KVSTOP] - self.items[:, COL_KVSTART]
        )
        # Costs are integer-valued, so these float sums are exact.
        csum = np.concatenate(([0.0], np.cumsum(cost)))
        return csum[self.cta_indptr[1:]] - csum[self.cta_indptr[:-1]]

    @property
    def load_balance(self) -> float:
        """Mean/max of per-CTA modelled cost (1.0 = perfect balance)."""
        costs = self.cta_costs()
        mx = float(costs.max()) if costs.size else 0.0
        return (float(costs.sum()) / (costs.size * mx)) if mx > 0 else 1.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchedulePlan):
            return NotImplemented
        return (
            (self.num_partial_slots, self.q_tile_size, self.kv_chunk_size)
            == (other.num_partial_slots, other.q_tile_size, other.kv_chunk_size)
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in (
                    "items", "cta_indptr", "merge_meta", "merge_indptr", "merge_slots",
                )
            )
        )


def _enumerate(
    qo_lens: np.ndarray,
    kv_lens: np.ndarray,
    q_tile_size: int,
    num_kv_heads: int,
    mapping_idx: int,
    l_kv: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step 4: the work-item table in creation order, plus its merges.

    Creation order is (group, query tile, KV head, KV chunk).  A
    (tile, head) *unit* whose KV spans more than one chunk gets one partial
    slot per chunk, numbered consecutively in creation order, and one merge
    entry; merges are in creation order too, so the merge slots are simply
    ``0 .. num_partial_slots - 1``.  Returns ``(items, merge_meta,
    merge_indptr)``.
    """
    n_tiles = np.where(qo_lens > 0, -(-qo_lens // q_tile_size), 0)
    n_chunks = np.maximum(-(-kv_lens // l_kv), 1)

    # One row per (group, tile, head) unit; the KV columns are filled per item.
    per_group = n_tiles * num_kv_heads
    u_group = np.repeat(np.arange(qo_lens.size), per_group)
    u_local = np.arange(u_group.size) - np.repeat(np.cumsum(per_group) - per_group, per_group)
    units = np.empty((u_group.size, ITEM_FIELDS), dtype=np.int64)
    units[:, COL_MAPPING] = mapping_idx
    units[:, COL_GROUP] = u_group
    units[:, COL_QTILE], units[:, COL_KVHEAD] = np.divmod(u_local, num_kv_heads)
    units[:, COL_QSTART] = units[:, COL_QTILE] * q_tile_size
    units[:, COL_QROWS] = np.minimum(q_tile_size, qo_lens[u_group] - units[:, COL_QSTART])
    u_chunks = n_chunks[u_group]

    i_unit = np.repeat(np.arange(u_group.size), u_chunks)
    items = units[i_unit]
    kv_start = (np.arange(i_unit.size) - np.repeat(np.cumsum(u_chunks) - u_chunks, u_chunks)) * l_kv
    items[:, COL_KVSTART] = kv_start
    items[:, COL_KVSTOP] = np.minimum(kv_start + l_kv, kv_lens[items[:, COL_GROUP]])
    split = u_chunks[i_unit] > 1
    items[:, COL_SLOT] = np.where(split, np.cumsum(split) - 1, -1)

    merged = np.flatnonzero(u_chunks > 1)
    merge_meta = units[np.ix_(merged, _MERGE_COLS)]
    return items, merge_meta, _indptr(u_chunks[merged])


def _plan(
    items: np.ndarray,
    order: np.ndarray,
    cta: Sequence[int],
    num_ctas: int,
    merge_meta: np.ndarray,
    merge_indptr: np.ndarray,
    q_tile_size: int,
    kv_chunk_size: int,
) -> SchedulePlan:
    """Lay ``items`` out CTA-major: item ``order[k]`` went to CTA ``cta[k]``."""
    cta = np.asarray(cta, dtype=np.int64)
    num_partial_slots = int(merge_indptr[-1])
    return SchedulePlan(
        items=items[order[np.argsort(cta, kind="stable")]],
        cta_indptr=_indptr(np.bincount(cta, minlength=num_ctas)),
        merge_meta=merge_meta,
        merge_indptr=merge_indptr,
        merge_slots=np.arange(num_partial_slots, dtype=np.int64),
        num_partial_slots=num_partial_slots,
        q_tile_size=q_tile_size,
        kv_chunk_size=kv_chunk_size,
    )


def plan_schedule(
    qo_lens: Sequence[int],
    kv_lens: Sequence[int],
    q_tile_size: int,
    num_ctas: int,
    num_kv_heads: int = 1,
    mapping_idx: int = 0,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    min_kv_chunk: int = 64,
    chunk_granularity: int = 64,
    split_kv: bool = True,
    causal: bool = False,
    q_pos_offset: Optional[Sequence[int]] = None,
    kv_pos_offset: Optional[Sequence[int]] = None,
) -> SchedulePlan:
    """Algorithm 1: balanced assignment of attention work to CTAs.

    Parameters
    ----------
    qo_lens, kv_lens:
        Per-group query and KV lengths for one mapping.
    q_tile_size:
        The compile-time ``T_q``; block rows ``B_r`` align with it.
    num_ctas:
        Fixed persistent grid size (CUDAGraph requires it constant).
    num_kv_heads:
        KV heads are an extra parallel dimension of the work (Algorithm 1
        omits it "for simplicity"; we schedule it explicitly).
    min_kv_chunk:
        Lower bound on the KV chunk size so chunks stay big enough to be
        bandwidth-efficient.
    chunk_granularity:
        Chunk sizes round up to this granularity (the kernel's KV tile
        size) so no chunk is a sliver smaller than one inner tile.
    split_kv:
        Disable to emulate schedulers without KV splitting (ablations).
    causal / q_pos_offset / kv_pos_offset:
        When causal, each work item's cost weighs only the KV *visible* to
        its query tile (a prefill tile near the top of the triangle does a
        fraction of the last tile's work).  Offsets default to the
        decode/prefill convention (queries are the trailing positions).
    """
    qo_lens = np.asarray(qo_lens, dtype=np.int64)
    kv_lens = np.asarray(kv_lens, dtype=np.int64)
    if qo_lens.shape != kv_lens.shape:
        raise ValueError("qo_lens and kv_lens must align")
    if q_tile_size <= 0 or num_ctas <= 0 or num_kv_heads <= 0:
        raise ValueError("q_tile_size, num_ctas and num_kv_heads must be positive")

    # Step 3: maximum KV chunk size L_kv from total tile-KV work over CTAs.
    n_tiles_per_group = np.where(qo_lens > 0, -(-qo_lens // q_tile_size), 0)
    total_tile_kv = int((n_tiles_per_group * kv_lens).sum()) * num_kv_heads
    if split_kv and total_tile_kv > 0:
        l_kv = max(ceil_div(total_tile_kv, num_ctas), min_kv_chunk)
        l_kv = ceil_div(l_kv, chunk_granularity) * chunk_granularity
    else:
        l_kv = max(int(kv_lens.max(initial=0)), 1)

    # Step 4: enumerate work items, assigning partial slots to split tiles.
    items, merge_meta, merge_indptr = _enumerate(
        qo_lens, kv_lens, q_tile_size, num_kv_heads, mapping_idx, l_kv
    )
    q_rows = items[:, COL_QROWS]
    kv_start = items[:, COL_KVSTART]
    weight = items[:, COL_KVSTOP] - kv_start
    if causal:
        # KV positions each item actually computes over: those up to its
        # tile's last query position.
        q_pos = kv_lens - qo_lens if q_pos_offset is None else np.asarray(
            q_pos_offset, dtype=np.int64
        )
        group = items[:, COL_GROUP]
        vis_end = q_pos[group] + items[:, COL_QSTART] + q_rows
        if kv_pos_offset is not None:
            vis_end = vis_end - np.asarray(kv_pos_offset, dtype=np.int64)[group]
        weight = np.minimum(np.maximum(vis_end - kv_start, 0), weight)

    # Step 5: longest-first order (stable: ties broken by creation order).
    order = np.argsort(-weight, kind="stable")

    # Steps 6-13: min-cost priority queue over CTAs, ties to the lower CTA.
    q_cost = alpha * q_rows[order]
    kv_cost = beta * weight[order]
    # While idle (zero-cost) CTAs remain, the heap pops them in index order,
    # as long as every CTA it has already fed costs more than zero.
    first = (0.0 + q_cost[:num_ctas]) + kv_cost[:num_ctas]
    n_first = first.size if (first > 0).all() else int(np.argmin(first > 0))
    cta: List[int] = list(range(n_first))
    if n_first < len(order):
        heap = list(zip(first[:n_first].tolist(), cta))
        heap += [(0.0, c) for c in range(n_first, num_ctas)]
        heapq.heapify(heap)
        replace = heapq.heapreplace
        for q, kv in zip(q_cost[n_first:].tolist(), kv_cost[n_first:].tolist()):
            current_cost, c = heap[0]
            replace(heap, (current_cost + q + kv, c))
            cta.append(c)

    return _plan(
        items, order, cta, num_ctas, merge_meta, merge_indptr, q_tile_size, l_kv
    )


def plan_signature(
    qo_lens: Sequence[int],
    kv_lens: Sequence[int],
    q_tile_size: int,
    num_ctas: int,
    num_kv_heads: int = 1,
    mapping_idx: int = 0,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    min_kv_chunk: int = 64,
    chunk_granularity: int = 64,
    split_kv: bool = True,
    causal: bool = False,
    q_pos_offset: Optional[Sequence[int]] = None,
    kv_pos_offset: Optional[Sequence[int]] = None,
) -> Tuple:
    """Hashable key over every :func:`plan_schedule` input.

    Two calls with equal signatures produce identical
    :class:`SchedulePlan` objects (the scheduler is deterministic), which
    is what lets a plan cache (§3.3.1: the plan is reusable across layers
    with the same sequence lengths) substitute a cached plan without any
    behavioral difference.  Exact per-group lengths are captured — not a
    bucketed shape class — so a hit can never return a merely-similar
    plan.
    """

    def _bytes(arr) -> Optional[bytes]:
        if arr is None:
            return None
        return np.ascontiguousarray(np.asarray(arr, dtype=np.int64)).tobytes()

    return (
        _bytes(qo_lens), _bytes(kv_lens), int(q_tile_size), int(num_ctas),
        int(num_kv_heads), int(mapping_idx), float(alpha), float(beta),
        int(min_kv_chunk), int(chunk_granularity), bool(split_kv), bool(causal),
        _bytes(q_pos_offset), _bytes(kv_pos_offset),
    )


def plan_unbalanced(
    qo_lens: Sequence[int],
    kv_lens: Sequence[int],
    q_tile_size: int,
    num_ctas: int,
    num_kv_heads: int = 1,
    mapping_idx: int = 0,
) -> SchedulePlan:
    """Baseline scheduler: one whole-KV work item per tile, dealt in order.

    No KV splitting, no cost balancing — items go to CTAs round-robin in
    enumeration order, the discipline of a conventional grid launch where
    blocks map to (request, tile, head) coordinates.  Used by ablations and
    the FlashAttention-library baseline.
    """
    qo_lens = np.asarray(qo_lens, dtype=np.int64)
    kv_lens = np.asarray(kv_lens, dtype=np.int64)
    l_kv = max(int(kv_lens.max(initial=0)), 1)
    items, merge_meta, merge_indptr = _enumerate(
        qo_lens, kv_lens, q_tile_size, num_kv_heads, mapping_idx, l_kv
    )
    order = np.arange(len(items))
    return _plan(
        items, order, order % num_ctas, num_ctas, merge_meta, merge_indptr,
        q_tile_size, l_kv,
    )
