"""repro — a from-scratch reproduction of DASP (SC '23).

DASP accelerates general sparse matrix-vector multiplication by
reorganizing the matrix into a layout dense matrix-multiply-accumulate
(MMA / tensor-core) units can consume.  This package implements the DASP
data structure and kernels, every baseline the paper compares against,
and the substrates the evaluation needs (sparse formats, a lane-accurate
GPU warp/MMA simulator with an analytic cost model, and a synthetic
SuiteSparse-like matrix collection).

Quickstart::

    import numpy as np
    from repro import CSRMatrix, DASPMatrix, dasp_spmv

    A = CSRMatrix.from_dense(np.eye(8))
    y = dasp_spmv(DASPMatrix.from_csr(A), np.ones(8))

See README.md / DESIGN.md / EXPERIMENTS.md for the full map.
"""

from . import (
    analysis,
    baselines,
    bench,
    cluster,
    core,
    formats,
    gpu,
    matrices,
    obs,
    overload,
    precision,
    resilience,
    serve,
    solvers,
    store,
)
from ._util import ReproError, ValidationError, geomean
from .core import DASPMatrix, DASPMethod, dasp_spmm, dasp_spmv
from .formats import BSRMatrix, COOMatrix, CSRMatrix, to_csr
from .formats.mmio import MatrixMarketError
from .cluster import NoHealthyReplicaError, RouterClosedError
from .gpu import A100, H800, DeviceSpec, get_device
from .overload import (
    AdmissionConfig,
    AdmissionRejectedError,
    HedgeConfig,
    OverloadConfig,
    RetryBudgetConfig,
)
from .resilience import (
    CircuitOpenError,
    DeadlineExceededError,
    InjectedFault,
    KernelFault,
    NumericFault,
    PlanTooLargeError,
    PreprocessFault,
    ResilienceError,
    ServerClosedError,
)
from .serve import QueueFullError, RequestShedError
from .store import ArtifactError, PlanStore, fingerprint_csr

__version__ = "1.0.0"

__all__ = [
    "A100",
    "AdmissionConfig",
    "AdmissionRejectedError",
    "ArtifactError",
    "BSRMatrix",
    "COOMatrix",
    "CSRMatrix",
    "CircuitOpenError",
    "DASPMatrix",
    "DASPMethod",
    "DeadlineExceededError",
    "DeviceSpec",
    "H800",
    "HedgeConfig",
    "InjectedFault",
    "KernelFault",
    "MatrixMarketError",
    "NoHealthyReplicaError",
    "NumericFault",
    "OverloadConfig",
    "PlanStore",
    "PlanTooLargeError",
    "PreprocessFault",
    "QueueFullError",
    "ReproError",
    "RequestShedError",
    "ResilienceError",
    "RetryBudgetConfig",
    "RouterClosedError",
    "ServerClosedError",
    "ValidationError",
    "__version__",
    "analysis",
    "baselines",
    "bench",
    "cluster",
    "core",
    "dasp_spmm",
    "dasp_spmv",
    "fingerprint_csr",
    "formats",
    "geomean",
    "get_device",
    "gpu",
    "matrices",
    "obs",
    "overload",
    "precision",
    "resilience",
    "serve",
    "solvers",
    "store",
    "to_csr",
]
