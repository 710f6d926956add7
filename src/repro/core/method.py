"""`DASPMethod` — DASP wrapped in the common :class:`SpMVMethod` interface
so it can be measured alongside the five baselines.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DeviceSpec
from ..gpu.events import KernelEvents, PreprocessEvents
from ..gpu.kernel import SpMVMethod
from ..gpu.memory import x_traffic_from_counts
from .format import DASPMatrix
from .long_rows import long_rows_events
from .medium_rows import medium_rows_events
from .preprocess import dasp_preprocess_events
from .short_rows import short_rows_events
from .spmv import dasp_spmv


class DASPMethod(SpMVMethod):
    """The paper's algorithm as a pluggable SpMV method.

    Parameters mirror :meth:`DASPMatrix.from_csr`; the defaults are the
    paper's (MAX_LEN = 256, threshold = 0.75).
    """

    name = "DASP"
    supported_dtypes = (np.float64, np.float32, np.float16)

    def __init__(self, *, max_len: int = 256, threshold: float = 0.75) -> None:
        self.max_len = max_len
        self.threshold = threshold

    def prepare(self, csr) -> DASPMatrix:
        return DASPMatrix.from_csr(csr, max_len=self.max_len,
                                   threshold=self.threshold)

    def run(self, plan: DASPMatrix, x: np.ndarray) -> np.ndarray:
        return dasp_spmv(plan, x)

    def events(self, plan: DASPMatrix, device: DeviceSpec) -> KernelEvents:
        from .spmm import gather_analysis

        return gather_analysis(plan, device)[0]

    def events_for_counts(self, plan: DASPMatrix, device: DeviceSpec,
                          counts: tuple[int, int]) -> KernelEvents:
        """:meth:`events` with the x-gather analysis already done:
        ``counts`` is :func:`repro.gpu.memory.sector_counts` of
        ``plan.csr`` at the plan's value size.  Every other event is
        structural (block counts, padding, row splits)."""
        # DASP's kernels bypass the L1/L2 for the streamed matrix data
        # (Section 3.3's "bypass cache method"), reserving cache for x.
        total_x = x_traffic_from_counts(counts, device, bypass_l1=True)
        nnz = max(plan.nnz, 1)
        shares = {
            "long": plan.long_plan.orig_nnz / nnz,
            "medium": plan.medium_plan.orig_nnz / nnz,
            "short": plan.short_plan.orig_nnz / nnz,
        }
        ev = long_rows_events(plan.long_plan, device,
                              x_bytes=total_x * shares["long"])
        ev = ev.combine(medium_rows_events(plan.medium_plan, device,
                                           x_bytes=total_x * shares["medium"]))
        ev = ev.combine(short_rows_events(plan.short_plan, device,
                                          x_bytes=total_x * shares["short"]))
        # Category kernels are independent and issued on concurrent CUDA
        # streams: the critical path is the deepest dependent chain (two
        # kernels for long rows — the reduction waits on the partials),
        # while each extra concurrent kernel still costs a fraction of a
        # launch in CPU-side issue time.
        sp = plan.short_plan
        n_short_kernels = sum(1 for n in (sp.rows13_one.size, sp.rows22_a.size,
                                          sp.rows4.size, sp.rows1.size) if n)
        total_kernels = (2 if plan.long_plan.n_rows else 0) \
            + (1 if plan.medium_plan.n_rows else 0) + n_short_kernels
        chain = 2 if plan.long_plan.n_rows else (1 if total_kernels else 0)
        ev.kernel_launches = chain + 0.35 * max(total_kernels - chain, 0)
        return ev

    def preprocess_events(self, plan: DASPMatrix) -> PreprocessEvents:
        return dasp_preprocess_events(plan)
