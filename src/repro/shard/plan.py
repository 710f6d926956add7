"""Row sharding — nnz-balanced contiguous row partitions of a matrix.

A :class:`ShardedPlan` splits one matrix into ``S`` contiguous row
bands, each carrying its own full DASP layout (long / medium / short
plans).  Shard boundaries never split a row, so ``y = A @ x`` over the
shards is a pure concatenation of per-shard outputs — and because every
row's value is computed with row-local floating-point association (see
``run_long_rows`` / ``run_medium_rows``), the gathered result is
**bit-identical** to the unsharded kernel for any ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .._util import check
from ..core.classify import DEFAULT_MAX_LEN
from ..core.format import DASPMatrix
from ..core.medium_rows import DEFAULT_THRESHOLD


def shard_csr(csr, shards: int) -> np.ndarray:
    """Return ``row_starts`` (length ``S + 1``) of an nnz-balanced
    contiguous row partition of *csr*.

    Cut points are placed where the cumulative nonzero count crosses
    ``i * nnz / S`` (binary search on ``indptr``), then nudged so every
    shard holds at least one row — boundaries always fall *between*
    rows, never inside one.  ``shards`` is clamped to the row count.
    """
    check(shards >= 1, "shards must be >= 1")
    m = int(csr.shape[0])
    S = max(1, min(int(shards), m)) if m else 1
    if S == 1:
        return np.array([0, m], dtype=np.int64)
    nnz = int(csr.indptr[-1])
    targets = np.arange(1, S, dtype=np.float64) * (nnz / S)
    cuts = np.searchsorted(csr.indptr, targets).astype(np.int64)
    # Enforce strictly increasing cuts inside (0, m): every shard gets
    # at least one row even when the nnz mass is concentrated.
    for i in range(S - 1):
        lo = (cuts[i - 1] if i else 0) + 1
        hi = m - (S - 1 - i)
        cuts[i] = min(max(int(cuts[i]), lo), hi)
    return np.concatenate(([0], cuts, [m])).astype(np.int64)


@dataclass
class RowShard:
    """One contiguous row band of a :class:`ShardedPlan`."""

    row_start: int
    row_end: int
    dasp: DASPMatrix

    @property
    def n_rows(self) -> int:
        return self.row_end - self.row_start

    @property
    def nnz(self) -> int:
        return self.dasp.nnz


@dataclass
class ShardedPlan:
    """A matrix partitioned into row shards, each with its own DASP plan.

    Duck-types the :class:`DASPMatrix` attributes the serving layer
    reads (``shape`` / ``dtype`` / ``csr`` / ``mma_shape`` /
    ``bands()``), so it can live in the
    :class:`~repro.serve.plan_cache.PlanRegistry` as a composite entry.
    Left out, ``csr`` is the concatenation of the band CSRs — bitwise
    the whole matrix: bands are contiguous row slices, so values and
    column indices line up exactly and the pointer array is the
    shifted concatenation.
    """

    shape: tuple[int, int]
    dtype: np.dtype
    mma_shape: object
    row_starts: np.ndarray
    shards: list
    csr: object = None

    def __post_init__(self) -> None:
        if self.csr is None:
            from ..formats.csr import CSRMatrix

            sub_csrs = [s.dasp.csr for s in self.shards]
            offsets = np.concatenate(
                ([0], np.cumsum([c.indptr[-1] for c in sub_csrs])))
            indptr = np.concatenate(
                [np.asarray(c.indptr[:-1]) + off
                 for c, off in zip(sub_csrs, offsets[:-1])]
                + [offsets[-1:]]).astype(np.int64)
            self.csr = CSRMatrix(
                self.shape, indptr,
                np.concatenate([np.asarray(c.indices) for c in sub_csrs]),
                np.concatenate([np.asarray(c.data) for c in sub_csrs]))

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def nnz(self) -> int:
        return sum(s.nnz for s in self.shards)

    def bands(self) -> tuple:
        """Row bands ``(row_start, row_end, dasp)``, one per shard."""
        return tuple((s.row_start, s.row_end, s.dasp) for s in self.shards)

    def _with_bands(self, dasps) -> "ShardedPlan":
        """Inverse of :meth:`bands`: this partition over the band layouts
        *dasps*, its CSR the concatenation of theirs."""
        return replace(self, csr=None,
                       shards=[replace(s, dasp=d)
                               for s, d in zip(self.shards, dasps)])

    # ------------------------------------------------------------------
    # serialization inventory (repro.store)
    # ------------------------------------------------------------------
    def array_inventory(self, *, include_csr: bool = False) -> dict:
        """Ordered ``name -> ndarray`` inventory over every shard.

        Shard ``i``'s arrays are prefixed ``s{i}.``; with
        ``include_csr=True`` the ``row_starts`` partition and each
        band's sub-CSR join the inventory.  The *top-level* CSR is
        deliberately absent even then: it is the concatenation of the
        band CSRs — storing it too would double the artifact's CSR
        payload.  The default covers only the device-resident packed
        arrays, matching :func:`repro.serve.plan_nbytes` on composites.
        """
        inv: dict = {}
        if include_csr:
            inv["row_starts"] = np.asarray(self.row_starts)
        for i, s in enumerate(self.shards):
            sub = s.dasp.array_inventory(include_csr=include_csr)
            for name, arr in sub.items():
                inv[f"s{i}.{name}"] = arr
        return inv

    def to_arrays(self) -> tuple[dict, dict]:
        """``(meta, arrays)`` pair fully describing this composite plan
        (see :meth:`repro.core.DASPMatrix.to_arrays`)."""
        meta = {
            "kind": "sharded",
            "shape": [int(self.shape[0]), int(self.shape[1])],
            "dtype": np.dtype(self.dtype).name,
            "shards": [{"row_start": int(s.row_start),
                        "row_end": int(s.row_end),
                        "dasp": s.dasp.to_arrays()[0]}
                       for s in self.shards],
        }
        return meta, self.array_inventory(include_csr=True)

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "ShardedPlan":
        """Rebuild a composite plan from a :meth:`to_arrays` pair (the
        top-level CSR is regenerated from the band CSRs)."""
        bands = []
        for i, sm in enumerate(meta["shards"]):
            prefix = f"s{i}."
            sub = {name[len(prefix):]: arr for name, arr in arrays.items()
                   if name.startswith(prefix)}
            dasp = DASPMatrix.from_arrays(sm["dasp"], sub)
            bands.append(RowShard(row_start=int(sm["row_start"]),
                                  row_end=int(sm["row_end"]), dasp=dasp))
        return cls(
            shape=(int(meta["shape"][0]), int(meta["shape"][1])),
            dtype=np.dtype(meta["dtype"]),
            mma_shape=bands[0].dasp.mma_shape if bands else None,
            row_starts=np.asarray(arrays["row_starts"]),
            shards=bands,
        )


def _cut_bands(csr, shards: int, build) -> ShardedPlan:
    """Partition *csr* into ``shards`` row bands, band ``i``'s layout
    ``build(i, sub_csr)``."""
    row_starts = shard_csr(csr, shards)
    bands = []
    for i in range(row_starts.size - 1):
        a, b = int(row_starts[i]), int(row_starts[i + 1])
        sub = csr.row_slice(np.arange(a, b, dtype=np.int64))
        bands.append(RowShard(row_start=a, row_end=b, dasp=build(i, sub)))
    return ShardedPlan(
        shape=tuple(csr.shape),
        dtype=np.dtype(csr.data.dtype),
        mma_shape=bands[0].dasp.mma_shape,
        row_starts=row_starts,
        shards=bands,
        csr=csr,
    )


def build_sharded_plan(csr, shards: int, *, max_len: int = DEFAULT_MAX_LEN,
                       threshold: float = DEFAULT_THRESHOLD,
                       mma_shape=None) -> ShardedPlan:
    """Partition *csr* into ``shards`` row bands and build each band's
    DASP layout."""
    return _cut_bands(csr, shards, lambda i, sub: DASPMatrix.from_csr(
        sub, max_len=max_len, threshold=threshold, mma_shape=mma_shape))


def traced_preprocess_sharded(csr, device, shards: int, *, obs,
                              injector=None, fingerprint: str | None = None,
                              max_len: int = DEFAULT_MAX_LEN,
                              threshold: float = DEFAULT_THRESHOLD,
                              ) -> tuple[ShardedPlan, float]:
    """Build a :class:`ShardedPlan` charging per-shard preprocessing.

    Each band is built through :func:`repro.core.preprocess.
    traced_preprocess` under a shard-scoped fingerprint
    (``{fp}#s{i}``), so preprocess fault rules can target individual
    shards; the returned cost is the sum over bands (preprocessing is
    a host-side pass and does not parallelize across the worker pool).
    """
    from ..core.preprocess import traced_preprocess

    pre_total = 0.0

    def build(i, sub):
        nonlocal pre_total
        sub_fp = f"{fingerprint}#s{i}" if fingerprint is not None else None
        dasp, pre = traced_preprocess(sub, device, obs=obs, injector=injector,
                                      fingerprint=sub_fp, max_len=max_len,
                                      threshold=threshold)
        pre_total += pre
        return dasp

    plan = _cut_bands(csr, shards, build)
    return plan, pre_total
