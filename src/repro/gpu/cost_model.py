"""Analytic time model turning :class:`KernelEvents` into seconds.

The model is additive over the paper's Figure 2 taxonomy:

``total = (RANDOM_ACCESS + COMPUTE + MISC) * imbalance + launch``

* RANDOM ACCESS — DRAM traffic for the ``x`` gather.
* COMPUTE — arithmetic pipe occupancy: CUDA-core flops at a derated SpMV
  efficiency (dependent loads and FMA latency in per-thread row loops keep
  real kernels far from peak — the derate is calibrated so the standard
  CSR kernel's average COMPUTE share matches the paper's 21.1%), MMA-unit
  flops at a streaming efficiency, plus shuffles / bookkeeping
  instructions / atomics.
* MISC — streaming the matrix arrays (values, column indices, pointers)
  and writing ``y`` / auxiliary arrays.
* launch — fixed kernel-launch overhead.

Choosing an *additive* rather than a ``max()`` roofline is deliberate: the
paper's Figure 2 measures the three parts by ablation and they sum to the
total, and Figure 1 shows baseline SpMV achieving well below Triad
bandwidth — i.e. the compute and bookkeeping portions are not hidden
behind memory traffic in practice.  DASP's whole premise is that shrinking
the COMPUTE part (with MMA units) raises achieved bandwidth toward the
Triad peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceSpec, get_device
from .events import KernelEvents, PreprocessEvents, TimeParts
from .memory import effective_bandwidth

# ----------------------------------------------------------------------
# Calibration constants (documented rationale next to each)
# ----------------------------------------------------------------------

#: Fraction of peak CUDA-core flops an irregular SpMV inner loop sustains.
#: Calibrated so the standard CSR kernel's COMPUTE share averages ~21%
#: over the synthetic collection, matching the paper's Figure 2 (21.1%).
CUDA_SPMV_EFFICIENCY = 0.028

#: Fraction of peak tensor-core flops a streaming SpMV MMA pipeline
#: sustains (no operand reuse, fragments fed straight from loads).
MMA_SPMV_EFFICIENCY = 0.50

#: Warp-level shuffle instructions retired per SM per cycle.
SHFL_PER_SM_CYCLE = 2.0

#: Thread-level bookkeeping instructions retired per SM per cycle
#: (4 schedulers x 32 lanes, derated for dependence stalls).
INSTR_PER_SM_CYCLE = 96.0

#: Global-memory atomic adds per SM per cycle (serialization-heavy).
ATOMIC_PER_SM_CYCLE = 0.25

#: How strongly load imbalance degrades memory-traffic time (the DRAM is
#: shared device-wide, so stragglers only partially serialize traffic).
IMBALANCE_MEM_COUPLING = 0.35

#: Sustained time per warp iteration on a straggler's critical path
#: (dependent loads software-pipelined at a few outstanding per warp).
SERIAL_ITER_NS = 3.0

#: Host (CPU) effective memory bandwidth for preprocessing passes, bytes/s.
HOST_BW = 25e9

#: Cost per sorted key for host-side sorts (comparison sort, cache-hot).
HOST_SORT_NS_PER_KEY_LOG = 1.2

#: Fixed cost of one device allocation during preprocessing.
ALLOC_OVERHEAD_S = 8e-6


def estimate_time(events: KernelEvents, device, *, dtype_bits: int = 64) -> TimeParts:
    """Estimate one SpMV invocation's time decomposition on *device*."""
    device = get_device(device)
    bw = effective_bandwidth(device, events.threads) * events.mem_efficiency
    # Compute pipes saturate at far lower occupancy than HBM (a few
    # resident warps per SM suffice), so their utilization ramp is steeper.
    compute_util = 0.10 + 0.90 * min(1.0, max(events.threads, 1)
                                     / (device.sms * 8 * 32))
    cyc = device.sms * device.clock_hz * compute_util

    random_access = events.bytes_x / bw

    compute = 0.0
    if events.flops_cuda:
        compute += events.flops_cuda / (
            device.cuda_flops(dtype_bits) * CUDA_SPMV_EFFICIENCY * compute_util)
    if events.flops_mma:
        compute += events.flops_mma / (
            device.tensor_flops(dtype_bits) * MMA_SPMV_EFFICIENCY * compute_util)
    if events.shfl_count:
        compute += events.shfl_count / (cyc * SHFL_PER_SM_CYCLE)
    if events.extra_instr:
        compute += events.extra_instr / (cyc * INSTR_PER_SM_CYCLE)
    if events.atomic_count:
        compute += events.atomic_count / (cyc * ATOMIC_PER_SM_CYCLE)

    misc = (events.bytes_stream + events.bytes_y) / bw
    launch = events.kernel_launches * device.launch_overhead_s

    # Imbalance hits the arithmetic pipes of the straggling SMs in full;
    # DRAM bandwidth is a device-global resource that other warps keep
    # saturating while stragglers finish, so traffic time degrades with a
    # weaker coupling.
    comp_scale = events.imbalance
    mem_scale = 1.0 + (events.imbalance - 1.0) * IMBALANCE_MEM_COUPLING
    parts = TimeParts(
        random_access=random_access * mem_scale,
        compute=compute * comp_scale,
        misc=misc * mem_scale,
        launch=launch,
    )
    # Straggler critical path: a single warp's sequential chain runs
    # concurrently with everything else, so only the portion that pokes
    # past the parallel work is exposed (charged to COMPUTE: it is
    # latency, not traffic).
    serial_s = events.serial_iters * SERIAL_ITER_NS * 1e-9
    parallel_s = parts.random_access + parts.compute + parts.misc
    if serial_s > parallel_s:
        parts.compute += serial_s - parallel_s
    return parts


def estimate_preprocess_time(events: PreprocessEvents, device) -> float:
    """Estimate format-conversion (preprocessing) time in seconds."""
    device = get_device(device)
    t = events.device_bytes / device.measured_bw
    t += events.host_bytes / HOST_BW
    if events.sort_keys > 1:
        t += events.sort_keys * np.log2(events.sort_keys) * HOST_SORT_NS_PER_KEY_LOG * 1e-9
    t += events.kernel_launches * device.launch_overhead_s
    t += events.allocations * ALLOC_OVERHEAD_S
    return float(t)


# ----------------------------------------------------------------------
# Performance metrics
# ----------------------------------------------------------------------


def spmv_gflops(nnz: int, seconds: float) -> float:
    """SpMV rate in GFlops (2 flops per nonzero, the paper's metric)."""
    if seconds <= 0:
        return float("nan")
    return 2.0 * nnz / seconds / 1e9


def effective_bandwidth_gbs(csr, seconds: float, *, value_bytes: int | None = None) -> float:
    """Figure 1's bandwidth metric: useful CSR bytes moved / time.

    Counts each matrix value + index once, each x element once, and each
    y element once — the algorithm-independent lower bound on traffic.
    """
    if seconds <= 0:
        return float("nan")
    vb = csr.data.dtype.itemsize if value_bytes is None else value_bytes
    m, n = csr.shape
    useful = csr.nnz * (vb + 4) + (m + 1) * 8 + n * vb + m * vb
    return useful / seconds / 1e9


@dataclass
class Measurement:
    """One (method, matrix, device, precision) model measurement."""

    method: str
    matrix: str
    device: str
    dtype_bits: int
    nnz: int
    time_s: float
    parts: TimeParts

    @property
    def gflops(self) -> float:
        return spmv_gflops(self.nnz, self.time_s)
