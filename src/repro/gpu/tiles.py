"""Order-sensitive MMA tile counters for the large-k SpMM engine.

The DASP plan's own padding counters are *permutation-invariant*: rows
are classified by length and the medium rows re-sorted by length, so
shuffling the row order never changes how many zero slots the plan
stores.  What row order *does* change is how well consecutive rows
share column support — which is exactly what a tensor-core SpMM tier
cares about (Acc-SpMM, arXiv 2501.09251): a tile of ``MMA_M``
consecutive rows is consumed as dense ``MMA_M x MMA_K`` A-fragments
over the *union* of the rows' columns, so rows with disjoint supports
pay ``MMA_M - 1`` zero slots for every real nonzero while rows with
overlapping supports amortize each fetched column across the tile.

:func:`mma_tile_stats` measures that: it tiles the rows (in a given
order) into groups of ``MMA_M``, takes each tile's distinct-column
union, and counts the ``MMA_K``-column chunks, slots, and zero padding
the MMA units would consume.  These counters are the objective the
row-reordering pass in :mod:`repro.core.spmm_block` optimizes, and
:func:`tile_gather_bytes` converts the unions into modeled RHS gather
traffic (each distinct column fetches ``tile_k`` contiguous X values —
one coalesced burst per column per column-tile).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import check
from .memory import SECTOR_BYTES
from .mma import MmaShape, shape_for_dtype

__all__ = ["TileStats", "mma_tile_stats", "tile_gather_bytes"]


@dataclass(frozen=True)
class TileStats:
    """Aggregate MMA tile counters for one row order.

    Attributes
    ----------
    n_tiles:
        Row tiles of ``MMA_M`` consecutive rows (last one padded).
    n_chunks:
        ``MMA_K``-column chunks over all tile unions — one A-fragment
        (and one MMA issue per ``MMA_N`` rhs columns) each.
    slots:
        Stored A-fragment slots, ``n_chunks * MMA_M * MMA_K``.
    nnz:
        Real nonzeros covered (fills ``nnz`` of the ``slots``).
    gather_cols:
        Sum of distinct-column union sizes over tiles — distinct X rows
        fetched per column-tile pass.
    """

    n_tiles: int
    n_chunks: int
    slots: int
    nnz: int
    gather_cols: int

    @property
    def padding_slots(self) -> int:
        """Zero slots the MMA units chew through (``slots - nnz``)."""
        return self.slots - self.nnz

    @property
    def occupancy(self) -> float:
        """Real nonzeros per stored slot (1.0 = perfectly dense tiles)."""
        return self.nnz / self.slots if self.slots else 1.0

    @property
    def padding_waste(self) -> float:
        """Share of MMA slots wasted on padding (``1 - occupancy``)."""
        return 1.0 - self.occupancy

    @property
    def union_ratio(self) -> float:
        """Distinct X fetches per nonzero (``gather_cols / nnz``).

        1.0 means no two rows of any tile share a column (every nonzero
        fetches its own X entry); overlapping supports pull it below
        1.0 — the deduplication a tile-resident RHS gather achieves,
        and the traffic channel through which row reordering pays off.
        """
        return self.gather_cols / self.nnz if self.nnz else 1.0


def mma_tile_stats(csr, *, mma_shape: MmaShape | None = None,
                   perm: np.ndarray | None = None) -> TileStats:
    """Measure MMA tile density for *csr* rows taken in ``perm`` order.

    Rows are grouped into tiles of ``MMA_M`` consecutive rows of the
    permuted matrix; each tile's distinct-column union is consumed in
    ``MMA_K``-column chunks.  Unlike the DASP plan's padding ratio this
    is order-sensitive: it is the measured objective for the
    row-reordering pass.
    """
    shape = mma_shape or shape_for_dtype(csr.data.dtype)
    M, K = shape.m, shape.k
    m, n = csr.shape
    if m == 0 or csr.nnz == 0:
        return TileStats(n_tiles=-(-m // M) if m else 0, n_chunks=0,
                         slots=0, nnz=int(csr.nnz), gather_cols=0)
    if perm is not None:
        order = np.asarray(perm, dtype=np.int64)
        check(order.shape == (m,), f"perm must have shape ({m},)")
        check(np.array_equal(np.sort(order), np.arange(m)),
              "perm must be a permutation of the rows")
        csr = csr.permute_rows(order)
    # One (tile, column) key per nonzero; a sort brings each tile's
    # duplicate columns together, so a tile's union size is the number
    # of key steps inside it (no hashing).
    tile_of_nnz = np.repeat(np.arange(m, dtype=np.int64) // M,
                            csr.row_lengths())
    keys = np.sort(tile_of_nnz * n + csr.indices)
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    n_tiles = -(-m // M)
    union_sizes = np.bincount(keys[first] // n, minlength=n_tiles)
    chunks = -(-union_sizes // K)
    n_chunks = int(chunks.sum())
    return TileStats(
        n_tiles=n_tiles,
        n_chunks=n_chunks,
        slots=n_chunks * M * K,
        nnz=int(csr.nnz),
        gather_cols=int(union_sizes.sum()),
    )


def tile_gather_bytes(stats: TileStats, value_bytes: int, k: int,
                      tile_k: int) -> float:
    """Modeled RHS gather traffic for a column-tiled large-k pass.

    Every distinct column in a tile union fetches ``tile_k`` contiguous
    X values (the row-major RHS block makes that one coalesced burst of
    ``ceil(tile_k * value_bytes / 32)`` sectors), once per column tile.
    The last column tile may be narrower; tiles are charged exactly.
    """
    check(k >= 1, "k must be positive")
    check(tile_k >= 1, "tile_k must be positive")
    total = 0.0
    for j0 in range(0, k, tile_k):
        width = min(tile_k, k - j0)
        sectors = -(-(width * value_bytes) // SECTOR_BYTES)
        total += stats.gather_cols * sectors * SECTOR_BYTES
    return total
