"""DASP SpMV — the ``k = 1`` column of :func:`repro.core.spmm.dasp_spmm_on_plan`.

The vectorized engine runs the same three category kernels as SpMM on
``x`` as a one-column block, so ``dasp_spmm(A, X)[:, j]`` is
``dasp_spmv(A, X[:, j])`` by construction; ``engine="warp"`` runs the
lane-accurate emulation instead.
"""

from __future__ import annotations

import numpy as np

from .._util import check
from .format import DASPMatrix
from .spmm import dasp_spmm_on_plan


def dasp_spmv(matrix, x: np.ndarray, *, engine: str = "vectorized",
              cast_output: bool = False, obs=None) -> np.ndarray:
    """Compute ``y = A @ x`` with the DASP algorithm.

    Parameters
    ----------
    matrix:
        A :class:`DASPMatrix` (or a CSR matrix, converted on the fly).
    x:
        Dense input vector of length ``A.shape[1]``.
    engine:
        ``"vectorized"`` (default; the NumPy category kernels, shared
        with SpMM) or ``"warp"``
        (lane-accurate emulation of the paper's Algorithms 2-5 on the
        8x4 fragment layout, FP64 and FP16; intended for small matrices
        and validation).
    cast_output:
        When true, cast ``y`` back to the matrix dtype (FP16 in the half
        precision path); by default ``y`` stays in the MMA accumulator
        dtype (FP64 for FP64, FP32 for FP16) as the hardware produces it.
    obs:
        :class:`repro.obs.Obs` handle; defaults to the process-wide
        one.  Counts invocations and, when tracing, opens an ``spmv``
        span.
    """
    from ..obs import get_obs

    if obs is None:
        obs = get_obs()
    dasp = matrix if isinstance(matrix, DASPMatrix) else DASPMatrix.from_csr(matrix)
    x = np.asarray(x)
    check(x.shape == (dasp.shape[1],), "x has wrong length")
    obs.counter("core.spmv_calls_total", {"engine": engine}).inc()

    with obs.span("spmv", attrs={"engine": engine} if obs.tracing else None):
        if engine == "warp":
            from .warp_kernels import dasp_spmv_warp

            y = dasp_spmv_warp(dasp, x)
            if dasp.delta is not None and dasp.delta.overlay is not None:
                # Patched plan: dirty rows were computed from stale slabs —
                # overwrite them from the delta overlay (repro.core.delta).
                from .delta import apply_overlay_spmm

                y = apply_overlay_spmm(dasp, x[:, None], y[:, None])[:, 0]
        else:
            y = dasp_spmm_on_plan(dasp, x[:, None], engine=engine)[:, 0]

    if cast_output:
        return y.astype(dasp.dtype)
    return y
