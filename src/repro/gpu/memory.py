"""DRAM / cache traffic model for the random accesses to ``x``.

SpMV's vector gather is the classic RANDOM ACCESS cost (Figure 2 of the
paper).  GPUs fetch DRAM in 32-byte sectors, so the cost of gathering
``x[ColIdx[j]]`` depends on how the column indices cluster:

* within a row, consecutive nonzeros often live in nearby columns — every
  distinct 32-byte sector a row touches is one fetch;
* across rows, sectors are reused through L2; how often depends on whether
  the active slice of ``x`` fits in L2.

``x_traffic_bytes`` turns both effects into an estimated DRAM byte count,
computed *exactly* from the matrix structure (per-row distinct sectors and
global distinct sectors) plus a capacity-miss factor.
"""

from __future__ import annotations

import numpy as np

from .device import DeviceSpec

#: DRAM sector granularity on Ampere/Hopper.
SECTOR_BYTES = 32

#: L2 sectors served per SM per cycle for random gathers.  Even when x
#: fits in L2, every distinct sector a warp touches is one L2
#: transaction, and that throughput — not DRAM bytes — is what makes
#: RANDOM ACCESS ~25% of CSR SpMV time in the paper's Figure 2.
L2_SECTORS_PER_SM_CYCLE = 0.8


def sector_counts(csr, value_bytes: int) -> tuple[int, int]:
    """(per-row distinct sector fetches summed, globally distinct sectors).

    A "sector" is a 32-byte aligned span of ``x``; ``value_bytes`` is the
    size of one x element, so a sector holds ``32 // value_bytes``
    consecutive elements.

    One exact O(nnz) pass, no sort and no hash.  With column indices
    ascending within each row, a row's distinct sectors are its runs of
    equal sector ids, so the per-row sum is the number of nonzero steps
    in ``np.diff(sectors)`` plus every non-empty row's first entry.  The
    same steps check that precondition: a negative step is allowed only
    at a row start; otherwise the rows are sorted once
    (:meth:`CSRMatrix.sort_indices`) and counted again.  The global
    count is the population of a sector bitmap over the columns.
    """
    elems_per_sector = _elems_per_sector(value_bytes)
    if csr.nnz == 0:
        return 0, 0
    sectors = csr.indices // elems_per_sector
    per_row = _runs(sectors, csr.indptr)
    if per_row is None:
        return sector_counts(csr.sort_indices(), value_bytes)
    bitmap = np.zeros(csr.shape[1] // elems_per_sector + 1, dtype=bool)
    bitmap[sectors] = True
    return per_row, int(np.count_nonzero(bitmap))


def _elems_per_sector(value_bytes: int) -> int:
    return max(1, SECTOR_BYTES // value_bytes)


def _runs(sectors: np.ndarray, indptr: np.ndarray) -> int | None:
    """Runs of equal ids in the rows *indptr* delimits in *sectors*
    (non-empty), summed: each row's distinct sector count when its ids
    ascend, else ``None``.  A row's runs are its nonzero steps in
    ``np.diff(sectors)`` plus its first entry; a negative step is
    allowed only at a row start."""
    step = np.diff(sectors)
    # The steps into the first entry of every non-empty row but the
    # first (which starts at 0) cross a row boundary.
    starts = indptr[:-1][np.diff(indptr) > 0]
    boundary_step = step[starts[1:] - 1]
    if np.count_nonzero(step < 0) != np.count_nonzero(boundary_step < 0):
        return None
    return int(1 + np.count_nonzero(step) + np.count_nonzero(boundary_step == 0))


def _row_sectors(csr, rows: np.ndarray, value_bytes: int):
    """``(sector ids, distinct sectors summed per row)`` of the entries
    of *csr*'s distinct rows *rows*: :func:`sector_counts`' per-row sum
    restricted to *rows*, in O(entries of *rows*).  Rows whose column
    ids do not ascend are counted as distinct ``(row, sector)`` pairs,
    which is what the sort fallback counts."""
    eps = _elems_per_sector(value_bytes)
    rows = np.asarray(rows, dtype=np.int64)
    lo = csr.indptr[rows].astype(np.int64)
    lens = csr.indptr[rows + 1] - lo
    ptr = np.concatenate(([0], np.cumsum(lens)))
    if ptr[-1] == 0:
        return np.zeros(0, dtype=np.int64), 0
    pos = np.arange(ptr[-1], dtype=np.int64) + np.repeat(lo - ptr[:-1], lens)
    sectors = csr.indices[pos] // eps
    per_row = _runs(sectors, ptr)
    if per_row is None:
        owner = np.repeat(np.arange(rows.size, dtype=np.int64), lens)
        per_row = np.unique(owner * (csr.shape[1] // eps + 1) + sectors).size
    return sectors, int(per_row)


class SectorMemo:
    """:func:`sector_counts` of one CSR structure, counted once.

    Every band plan holds one (``DASPMatrix.sectors``), and every plan
    with the same ``indptr``/``indices`` shares it: the clone a value
    patch writes and the rebuild a compaction makes.  :meth:`counts`
    runs the O(nnz) pass on its first read; :meth:`derive` gives the
    memo of a structure that differs only in some rows, re-counting
    just those rows.  The memo holds no plan data: it is never
    serialized, budgeted or listed in a plan's array inventory, so a
    loaded plan counts on its first read.
    """

    __slots__ = ("_counts", "_refs")

    def __init__(self, counts: tuple[int, int] | None = None,
                 refs: np.ndarray | None = None) -> None:
        self._counts = counts
        #: nonzeros per sector, kept once a structural delta derives
        #: from this structure (the distinct count is its support size)
        self._refs = refs

    def counts(self, csr, value_bytes: int) -> tuple[int, int]:
        """:func:`sector_counts` of *csr*, this memo's structure, at
        ``value_bytes`` (always the owning plan's value size)."""
        if self._counts is None:
            self._counts = sector_counts(csr, value_bytes)
        return self._counts

    def derive(self, old, new, rows: np.ndarray,
               value_bytes: int) -> "SectorMemo":
        """The memo of *new*, which equals *old* (this memo's structure)
        outside the distinct rows *rows*.

        The per-row sum trades *rows*' old distinct sectors for their
        new ones (:func:`_row_sectors`); the distinct count follows the
        per-sector reference counts, moved by the entries *rows* lost
        and gained.  An uncounted memo derives an uncounted one: *new*
        then counts on its first read, like a fresh build.
        """
        if self._counts is None:
            return SectorMemo()
        if self._refs is None:
            eps = _elems_per_sector(value_bytes)
            self._refs = np.bincount(old.indices // eps,
                                     minlength=old.shape[1] // eps + 1)
        gone, gone_pairs = _row_sectors(old, rows, value_bytes)
        came, came_pairs = _row_sectors(new, rows, value_bytes)
        refs = self._refs.copy()
        np.subtract.at(refs, gone, 1)
        np.add.at(refs, came, 1)
        # a sector leaves the support only through a lost entry and
        # joins it only through a gained one
        left = np.unique(gone[refs[gone] == 0]).size
        joined = np.unique(came[self._refs[came] == 0]).size
        per_row, distinct = self._counts
        return SectorMemo((per_row - gone_pairs + came_pairs,
                           distinct + joined - left), refs)


def x_traffic_from_counts(counts: tuple[int, int], device: DeviceSpec,
                          *, bypass_l1: bool = False) -> float:
    """:func:`x_traffic_bytes` for already computed :func:`sector_counts`."""
    from .device import get_device

    device = get_device(device)
    per_row, uniq = counts
    if uniq == 0:
        return 0.0
    touched_bytes = uniq * SECTOR_BYTES
    # Effective L2 available to x: matrix streaming pollutes the cache
    # unless the kernel bypasses it for streamed data.
    l2_share = 0.75 if bypass_l1 else 0.5
    capacity = device.l2_bytes * l2_share
    if touched_bytes <= capacity:
        miss_rate = 0.0
    else:
        miss_rate = 1.0 - capacity / touched_bytes
    refetches = max(per_row - uniq, 0)
    dram_bytes = (uniq + refetches * miss_rate) * SECTOR_BYTES
    # L2-hit gathers are not free: every distinct sector per row is one
    # L2 transaction.  Convert that transaction time into equivalent DRAM
    # bytes so one number drives the cost model.
    l2_rate = device.sms * device.clock_hz * L2_SECTORS_PER_SM_CYCLE
    equiv_bytes_per_sector = device.measured_bw / l2_rate
    gather_factor = 0.72 if bypass_l1 else 1.0
    return dram_bytes + per_row * equiv_bytes_per_sector * gather_factor


def x_traffic_bytes(csr, value_bytes: int, device: DeviceSpec,
                    *, bypass_l1: bool = False) -> float:
    """Estimated DRAM bytes fetched for ``x`` during one SpMV.

    Model: every *globally distinct* sector must come from DRAM at least
    once (compulsory misses).  Re-fetches of a sector by later rows hit L2
    when the touched slice of ``x`` fits there; otherwise they miss with
    probability proportional to the capacity overflow.  ``bypass_l1``
    models the paper's cache-bypass optimization (Section 3.3), which
    stops the streamed matrix data from evicting ``x`` — we credit it with
    a modestly lower capacity-miss rate.
    """
    return x_traffic_from_counts(sector_counts(csr, value_bytes), device,
                                 bypass_l1=bypass_l1)


def rhs_block_factor_from_counts(nnz: int, per_row: int, value_bytes: int,
                                 k: int) -> float:
    """:func:`rhs_block_traffic_factor` for a matrix with ``nnz`` entries
    whose per-row sector count (:func:`sector_counts`) is ``per_row``."""
    if k <= 1 or per_row == 0:
        return 1.0
    occupancy = nnz / per_row
    burst_bytes = occupancy * k * value_bytes
    burst_sectors = -(-int(np.ceil(burst_bytes)) // SECTOR_BYTES)
    return float(min(k, max(1, burst_sectors)))


def rhs_block_traffic_factor(csr, value_bytes: int, k: int) -> float:
    """Gather-traffic scaling for a row-major ``(n, k)`` RHS block (SpMM).

    SpMV gathers scattered single elements: every distinct 32-byte sector
    a row touches moves a full sector however few useful elements it
    holds.  With ``k`` right-hand sides stored row-major, one column
    index addresses ``k`` *contiguous* values, so each former
    one-sector transaction becomes a dense burst of
    ``ceil(occupancy * k * value_bytes / 32)`` sectors, where
    ``occupancy`` is the average number of useful x elements the SpMV
    sector carried.  The factor therefore sits between ~``k * vb / 32``
    (fully scattered columns) and ``k`` (densely clustered columns) —
    never above the naive per-RHS rescan.
    """
    if k <= 1:
        return 1.0
    per_row, _ = sector_counts(csr, value_bytes)
    return rhs_block_factor_from_counts(csr.nnz, per_row, value_bytes, k)


def effective_bandwidth(device: DeviceSpec, threads: int) -> float:
    """Achievable DRAM bandwidth (bytes/s) given the launched thread count.

    Small kernels cannot saturate HBM: bandwidth ramps with the number of
    outstanding threads until the device's latency-hiding capacity is
    reached.  The ramp floor (15%) reflects single-wave latency-bound
    transfers.
    """
    if threads <= 0:
        threads = 1
    # HBM saturates at roughly 16 resident warps per SM of memory
    # parallelism — far below the occupancy ceiling.
    saturation = device.sms * 16 * 32
    utilization = min(1.0, threads / saturation)
    ramp = 0.15 + 0.85 * utilization
    return device.measured_bw * ramp
