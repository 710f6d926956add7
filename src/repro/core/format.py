"""`DASPMatrix` — the paper's MMA-friendly sparse matrix container.

Bundles the three category plans (long / medium / short), the empty-row
bookkeeping and the packing parameters.  Built from CSR via
:meth:`DASPMatrix.from_csr` (the paper's preprocessing step, Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .._util import check
from ..gpu.mma import MmaShape, shape_for_dtype
from .classify import DEFAULT_MAX_LEN, RowClassification, classify_rows
from .long_rows import LongRowsPlan, build_long_rows
from .medium_rows import DEFAULT_THRESHOLD, MediumRowsPlan, build_medium_rows
from .short_rows import ShortRowsPlan, build_short_rows


@dataclass
class DASPMatrix:
    """A sparse matrix converted to the DASP blocked layout.

    Attributes
    ----------
    shape / dtype:
        Logical matrix shape and value dtype.
    csr:
        The source CSR matrix (kept for reference SpMV and the memory
        model's x-traffic analysis).
    mma_shape:
        MMA instruction geometry (m8n8k4 FP64 by default).
    classification:
        Row category assignment.
    long_plan / medium_plan / short_plan:
        Packed per-category data structures.
    """

    shape: tuple[int, int]
    dtype: np.dtype
    csr: object
    mma_shape: MmaShape
    max_len: int
    threshold: float
    classification: RowClassification
    long_plan: LongRowsPlan
    medium_plan: MediumRowsPlan
    short_plan: ShortRowsPlan
    #: ``repro.core.delta.DeltaState`` once the plan has been patched —
    #: never serialized (``array_inventory`` walks only the three
    #: category plans) and ``None`` for a freshly built plan.
    delta: object = None

    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, csr, *, max_len: int = DEFAULT_MAX_LEN,
                 threshold: float = DEFAULT_THRESHOLD,
                 mma_shape: MmaShape | None = None) -> "DASPMatrix":
        """Convert a CSR matrix into the DASP layout (Section 3.2)."""
        shape = mma_shape or shape_for_dtype(csr.data.dtype)
        check(np.dtype(csr.data.dtype) == shape.in_dtype,
              f"matrix dtype {csr.data.dtype} != MMA input dtype {shape.in_dtype}")
        cls_result = classify_rows(csr, max_len=max_len)
        return cls(
            shape=csr.shape,
            dtype=np.dtype(csr.data.dtype),
            csr=csr,
            mma_shape=shape,
            max_len=int(max_len),
            threshold=float(threshold),
            classification=cls_result,
            long_plan=build_long_rows(csr, cls_result.long, shape),
            medium_plan=build_medium_rows(csr, cls_result.medium, shape,
                                          threshold=threshold),
            short_plan=build_short_rows(csr, cls_result.short, shape),
        )

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Real nonzeros (excludes padding)."""
        return (self.long_plan.orig_nnz + self.medium_plan.orig_nnz
                + self.short_plan.orig_nnz)

    @property
    def stored_elements(self) -> int:
        """Stored slots including every padded zero."""
        return (self.long_plan.padded_nnz + self.medium_plan.reg_nnz
                + self.medium_plan.irreg_nnz + self.short_plan.padded_nnz)

    @property
    def padding_ratio(self) -> float:
        """Overall stored/real ratio — the zero-fill rate the paper quotes
        (e.g. 0.85% fill for 'rel19' means ratio 1.0085)."""
        return self.stored_elements / self.nnz if self.nnz else 1.0

    def bands(self) -> tuple:
        """Row bands ``(row_start, row_end, dasp)`` of this plan: a plain
        plan is one band starting at row 0 (a sharded plan has one per
        shard, see :meth:`repro.shard.ShardedPlan.bands`)."""
        return ((0, self.shape[0], self),)

    def _with_bands(self, dasps) -> "DASPMatrix":
        """Inverse of :meth:`bands`: the plan over the band layouts
        *dasps* — for a plain plan, its one band."""
        (dasp,) = dasps
        return dasp

    def category_nnz(self) -> dict[str, int]:
        """Real nonzeros per category (Figure 12b's numerator)."""
        return {
            "long": self.long_plan.orig_nnz,
            "medium": self.medium_plan.orig_nnz,
            "short": self.short_plan.orig_nnz,
        }

    def value_slabs(self) -> list:
        """Ordered ``(name, array)`` list of every payload slab holding
        matrix *values* (as opposed to column ids / pointers) — the
        arrays a :class:`~repro.core.delta.ValueUpdate` patches in
        place.  Order is load-bearing: ``repro.core.delta`` indexes it
        by the slab ids of its row-slot table."""
        from .long_rows import VALUE_SLAB_FIELDS as _LONG
        from .medium_rows import VALUE_SLAB_FIELDS as _MEDIUM
        from .short_rows import VALUE_SLAB_FIELDS as _SHORT

        out = []
        for prefix, plan, names in (("long.", self.long_plan, _LONG),
                                    ("medium.", self.medium_plan, _MEDIUM),
                                    ("short.", self.short_plan, _SHORT)):
            out.extend((prefix + n, getattr(plan, n)) for n in names)
        return out

    # ------------------------------------------------------------------
    # serialization inventory (repro.store)
    # ------------------------------------------------------------------
    def array_inventory(self, *, include_csr: bool = False) -> dict:
        """Ordered ``name -> ndarray`` inventory of this plan's payloads.

        With ``include_csr=False`` (default) the inventory covers exactly
        the packed per-category arrays a server keeps device-resident —
        the same set :func:`repro.serve.plan_nbytes` charges against the
        cache budget.  ``include_csr=True`` adds the source CSR arrays
        (``csr.indptr`` / ``csr.indices`` / ``csr.data``), which the
        on-disk artifact must carry: the memory model's x-traffic
        analysis and the merge-CSR fallback both read ``plan.csr``.
        """
        inv: dict = {}
        if include_csr:
            inv["csr.indptr"] = np.asarray(self.csr.indptr)
            inv["csr.indices"] = np.asarray(self.csr.indices)
            inv["csr.data"] = np.asarray(self.csr.data)
        for prefix, plan in (("long", self.long_plan),
                             ("medium", self.medium_plan),
                             ("short", self.short_plan)):
            for f in fields(plan):
                v = getattr(plan, f.name)
                if isinstance(v, np.ndarray):
                    inv[f"{prefix}.{f.name}"] = v
        return inv

    def to_arrays(self) -> tuple[dict, dict]:
        """``(meta, arrays)`` pair fully describing this plan.

        ``meta`` is a JSON-serializable dict (shape, dtype, MMA
        geometry, packing parameters and the scalar plan fields);
        ``arrays`` is the full :meth:`array_inventory` including the
        source CSR.  :meth:`from_arrays` inverts the pair exactly — the
        classification arrays are *not* stored because they are
        recoverable bit-for-bit from the plans and the CSR row lengths.
        """
        meta = {
            "kind": "dasp",
            "shape": [int(self.shape[0]), int(self.shape[1])],
            "dtype": np.dtype(self.dtype).name,
            "mma": {
                "m": int(self.mma_shape.m),
                "n": int(self.mma_shape.n),
                "k": int(self.mma_shape.k),
                "in_dtype": np.dtype(self.mma_shape.in_dtype).name,
                "acc_dtype": np.dtype(self.mma_shape.acc_dtype).name,
                "name": str(self.mma_shape.name),
            },
            "max_len": int(self.max_len),
            "threshold": float(self.threshold),
            "plans": {
                "long": {"orig_nnz": int(self.long_plan.orig_nnz)},
                "medium": {
                    "orig_nnz": int(self.medium_plan.orig_nnz),
                    "threshold": float(self.medium_plan.threshold),
                    "loop_num": int(self.medium_plan.loop_num),
                },
                "short": {"orig_nnz": int(self.short_plan.orig_nnz)},
            },
        }
        return meta, self.array_inventory(include_csr=True)

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "DASPMatrix":
        """Rebuild a plan from a :meth:`to_arrays` pair.

        The arrays may be read-only views (e.g. ``np.memmap`` slices of
        an artifact file); nothing here writes into them.  The row
        classification is re-derived in O(m) from the CSR row lengths
        and the plans' own row indices — no sort, and bit-identical to
        what :func:`~repro.core.classify.classify_rows` produced at
        build time.
        """
        from ..formats.csr import CSRMatrix

        shape = (int(meta["shape"][0]), int(meta["shape"][1]))
        mm = meta["mma"]
        mma = MmaShape(m=int(mm["m"]), n=int(mm["n"]), k=int(mm["k"]),
                       in_dtype=np.dtype(mm["in_dtype"]),
                       acc_dtype=np.dtype(mm["acc_dtype"]),
                       name=str(mm["name"]))
        csr = CSRMatrix(shape, arrays["csr.indptr"], arrays["csr.indices"],
                        arrays["csr.data"])
        pm = meta["plans"]
        long_plan = LongRowsPlan(
            row_idx=arrays["long.row_idx"],
            group_ptr=arrays["long.group_ptr"],
            val=arrays["long.val"],
            cid=arrays["long.cid"],
            shape=mma,
            orig_nnz=int(pm["long"]["orig_nnz"]),
        )
        medium_plan = MediumRowsPlan(
            row_idx=arrays["medium.row_idx"],
            rowblock_ptr=arrays["medium.rowblock_ptr"],
            reg_val=arrays["medium.reg_val"],
            reg_cid=arrays["medium.reg_cid"],
            irreg_ptr=arrays["medium.irreg_ptr"],
            irreg_val=arrays["medium.irreg_val"],
            irreg_cid=arrays["medium.irreg_cid"],
            shape=mma,
            threshold=float(pm["medium"]["threshold"]),
            loop_num=int(pm["medium"]["loop_num"]),
            orig_nnz=int(pm["medium"]["orig_nnz"]),
        )
        short_plan = ShortRowsPlan(
            shape=mma,
            val13=arrays["short.val13"], cid13=arrays["short.cid13"],
            rows13_one=arrays["short.rows13_one"],
            rows13_three=arrays["short.rows13_three"],
            val22=arrays["short.val22"], cid22=arrays["short.cid22"],
            rows22_a=arrays["short.rows22_a"],
            rows22_b=arrays["short.rows22_b"],
            val4=arrays["short.val4"], cid4=arrays["short.cid4"],
            rows4=arrays["short.rows4"],
            val1=arrays["short.val1"], cid1=arrays["short.cid1"],
            rows1=arrays["short.rows1"],
            orig_nnz=int(pm["short"]["orig_nnz"]),
        )
        lens = csr.row_lengths()
        idx = np.arange(lens.size, dtype=np.int64)
        classification = RowClassification(
            max_len=int(meta["max_len"]),
            long=np.asarray(long_plan.row_idx),
            medium=np.asarray(medium_plan.row_idx),
            short={k: idx[lens == k] for k in (1, 2, 3, 4)},
            empty=idx[lens == 0],
        )
        return cls(
            shape=shape,
            dtype=np.dtype(meta["dtype"]),
            csr=csr,
            mma_shape=mma,
            max_len=int(meta["max_len"]),
            threshold=float(meta["threshold"]),
            classification=classification,
            long_plan=long_plan,
            medium_plan=medium_plan,
            short_plan=short_plan,
        )

    def summary(self) -> str:
        """One-line human-readable structure summary."""
        c = self.classification
        return (
            f"DASP {self.shape[0]}x{self.shape[1]} nnz={self.nnz} "
            f"[long: {c.n_long} rows / {self.long_plan.n_groups} groups, "
            f"medium: {c.n_medium} rows / {self.medium_plan.n_blocks} blocks "
            f"(+{self.medium_plan.irreg_nnz} irregular), "
            f"short: {c.n_short} rows, empty: {c.n_empty}] "
            f"padding x{self.padding_ratio:.4f}"
        )
