"""Tests for the analytic cost model."""

import numpy as np
import pytest

from repro.gpu import (
    A100,
    H800,
    KernelEvents,
    PreprocessEvents,
    estimate_preprocess_time,
    estimate_time,
    spmv_gflops,
)
from repro.gpu.cost_model import effective_bandwidth_gbs
from tests.conftest import random_csr


def make_events(**kw):
    defaults = dict(bytes_val=8e6, bytes_idx=4e6, bytes_ptr=1e5, bytes_x=2e6,
                    bytes_y=1e6, flops_cuda=2e6, threads=500_000)
    defaults.update(kw)
    return KernelEvents(**defaults)


class TestEstimateTime:
    def test_parts_positive(self):
        parts = estimate_time(make_events(), A100)
        assert parts.random_access > 0 and parts.compute > 0
        assert parts.misc > 0 and parts.launch > 0
        assert parts.total == pytest.approx(
            parts.random_access + parts.compute + parts.misc + parts.launch)

    def test_more_bytes_more_time(self):
        t1 = estimate_time(make_events(), A100).total
        t2 = estimate_time(make_events(bytes_val=80e6), A100).total
        assert t2 > t1

    def test_mma_cheaper_than_cuda_for_same_flops(self):
        cuda = estimate_time(make_events(flops_cuda=1e9, flops_mma=0), A100)
        mma = estimate_time(make_events(flops_cuda=0, flops_mma=1e9), A100)
        assert mma.compute < cuda.compute

    def test_imbalance_scales_compute_fully(self):
        base = estimate_time(make_events(), A100)
        skew = estimate_time(make_events(imbalance=3.0), A100)
        assert skew.compute == pytest.approx(3.0 * base.compute)

    def test_imbalance_scales_memory_partially(self):
        base = estimate_time(make_events(), A100)
        skew = estimate_time(make_events(imbalance=3.0), A100)
        assert base.misc < skew.misc < 3.0 * base.misc

    def test_mem_efficiency_slows_traffic(self):
        fast = estimate_time(make_events(), A100)
        slow = estimate_time(make_events(mem_efficiency=0.5), A100)
        assert slow.misc == pytest.approx(2.0 * fast.misc)
        assert slow.compute == pytest.approx(fast.compute)

    def test_serial_path_hidden_when_short(self):
        base = estimate_time(make_events(), A100)
        with_serial = estimate_time(make_events(serial_iters=10), A100)
        assert with_serial.total == pytest.approx(base.total)

    def test_serial_path_exposed_when_long(self):
        base = estimate_time(make_events(), A100)
        huge = estimate_time(make_events(serial_iters=1e8), A100)
        assert huge.total > 10 * base.total

    def test_launch_overhead_per_kernel(self):
        one = estimate_time(make_events(kernel_launches=1), A100)
        three = estimate_time(make_events(kernel_launches=3), A100)
        assert three.launch == pytest.approx(3 * one.launch)

    def test_fractional_launches(self):
        frac = estimate_time(make_events(kernel_launches=1.5), A100)
        assert frac.launch == pytest.approx(1.5 * A100.launch_overhead_s)

    def test_small_kernels_see_lower_bandwidth(self):
        big = estimate_time(make_events(threads=1_000_000), A100)
        small = estimate_time(make_events(threads=100), A100)
        assert small.misc > big.misc

    def test_h800_faster_memory(self):
        ev = make_events(flops_cuda=0)
        assert estimate_time(ev, H800).misc < estimate_time(ev, A100).misc

    def test_fp16_tensor_flops_cheap(self):
        ev = make_events(flops_cuda=0, flops_mma=1e9)
        t64 = estimate_time(ev, A100, dtype_bits=64).compute
        t16 = estimate_time(ev, A100, dtype_bits=16).compute
        assert t16 < t64 / 10  # 312 vs 19.5 TFlops

    def test_device_by_name(self):
        ev = make_events()
        assert estimate_time(ev, "A100").total == estimate_time(ev, A100).total


class TestFractions:
    def test_sum_to_one(self):
        fr = estimate_time(make_events(), A100).fractions()
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_keys(self):
        fr = estimate_time(make_events(), A100).fractions()
        assert set(fr) == {"random_access", "compute", "misc"}


class TestPreprocessTime:
    def test_zero_events(self):
        assert estimate_preprocess_time(PreprocessEvents(), A100) == 0.0

    def test_host_slower_than_device(self):
        host = estimate_preprocess_time(PreprocessEvents(host_bytes=1e8), A100)
        dev = estimate_preprocess_time(PreprocessEvents(device_bytes=1e8), A100)
        assert host > dev

    def test_sort_term(self):
        t = estimate_preprocess_time(PreprocessEvents(sort_keys=1e6), A100)
        assert t > 0

    def test_fixed_overheads(self):
        t = estimate_preprocess_time(
            PreprocessEvents(kernel_launches=10, allocations=5), A100)
        assert t == pytest.approx(10 * A100.launch_overhead_s + 5 * 8e-6)


class TestMetrics:
    def test_spmv_gflops(self):
        assert spmv_gflops(1_000_000, 1e-3) == pytest.approx(2.0)

    def test_spmv_gflops_zero_time(self):
        assert np.isnan(spmv_gflops(10, 0.0))

    def test_effective_bandwidth_gbs(self, rng):
        csr = random_csr(100, 100, rng)
        gbs = effective_bandwidth_gbs(csr, 1e-6)
        useful = csr.nnz * 12 + 101 * 8 + 200 * 8
        assert gbs == pytest.approx(useful / 1e-6 / 1e9)
