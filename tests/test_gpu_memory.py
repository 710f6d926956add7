"""Tests for the x-gather traffic / bandwidth-ramp model."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.formats import CSRMatrix
from repro.gpu import (A100, H800, effective_bandwidth,
                       rhs_block_traffic_factor, sector_counts,
                       x_traffic_bytes)
from repro.matrices import representative_suite
from tests.conftest import random_csr


def unique_sector_counts(csr, value_bytes):
    """Reference: distinct (row, sector) keys and distinct sectors by
    ``np.unique`` (the hash-based implementation ``sector_counts``
    replaced)."""
    elems_per_sector = max(1, 32 // value_bytes)
    if csr.nnz == 0:
        return 0, 0
    sectors = csr.indices.astype(np.int64) // elems_per_sector
    rows = np.repeat(np.arange(csr.shape[0], dtype=np.int64),
                     csr.row_lengths())
    keys = rows * (int(sectors.max()) + 2) + sectors
    return int(np.unique(keys).size), int(np.unique(sectors).size)


@pytest.fixture(scope="module")
def suite():
    return [(e.name, e.matrix()) for e in representative_suite()]


@st.composite
def messy_csrs(draw):
    """CSRs in any row order: unsorted rows, duplicate column indices,
    empty rows, and single-column shapes."""
    n = draw(st.one_of(st.just(1), st.integers(1, 300)))
    rows = draw(st.lists(
        st.lists(st.integers(0, n - 1), max_size=12), max_size=24))
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([c for r in rows for c in r], dtype=np.int64)
    return CSRMatrix((len(rows), n), indptr, indices,
                     np.ones(indices.size))


def csr_with_cols(cols_per_row, n):
    """Build a CSR matrix with explicit column lists per row."""
    indptr = np.cumsum([0] + [len(c) for c in cols_per_row])
    indices = np.concatenate([np.asarray(c, dtype=np.int64) for c in cols_per_row]) \
        if indptr[-1] else np.zeros(0, np.int64)
    return CSRMatrix((len(cols_per_row), n), indptr, indices,
                     np.ones(int(indptr[-1])))


class TestSectorCounts:
    def test_dense_row_one_sector_fp64(self):
        # 4 consecutive FP64 columns share one 32-byte sector
        csr = csr_with_cols([[0, 1, 2, 3]], 8)
        per_row, uniq = sector_counts(csr, 8)
        assert per_row == 1 and uniq == 1

    def test_scattered_row(self):
        csr = csr_with_cols([[0, 4, 8, 12]], 16)
        per_row, uniq = sector_counts(csr, 8)
        assert per_row == 4 and uniq == 4

    def test_fp16_wider_sectors(self):
        # 16 consecutive FP16 values share one sector
        csr = csr_with_cols([list(range(16))], 32)
        per_row, uniq = sector_counts(csr, 2)
        assert per_row == 1

    def test_cross_row_reuse_counted_once_globally(self):
        csr = csr_with_cols([[0], [0], [0]], 4)
        per_row, uniq = sector_counts(csr, 8)
        assert per_row == 3 and uniq == 1

    def test_empty(self):
        assert sector_counts(CSRMatrix.empty((3, 3)), 8) == (0, 0)

    def test_unsorted_row_with_duplicates(self):
        csr = csr_with_cols([[12, 0, 1, 12, 4], [], [3, 0]], 16)
        assert sector_counts(csr, 8) == (4, 3) == unique_sector_counts(csr, 8)

    def test_row_start_continuing_the_previous_sector(self):
        # the second row's sector equals the first row's last one: still
        # a fresh fetch for that row
        csr = csr_with_cols([[0, 5], [6, 7]], 8)
        assert sector_counts(csr, 8) == (3, 2)

    @pytest.mark.parametrize("value_bytes", [1, 2, 4, 8])
    def test_suite_matches_unique_reference(self, suite, value_bytes):
        for name, csr in suite:
            assert sector_counts(csr, value_bytes) == \
                unique_sector_counts(csr, value_bytes), name

    @given(messy_csrs(), st.sampled_from([1, 2, 4, 8, 16, 64]))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_row_order_matches_unique_reference(self, csr, value_bytes):
        assert sector_counts(csr, value_bytes) == \
            unique_sector_counts(csr, value_bytes)


#: x_traffic_bytes (fp64 A100, fp64 A100 bypass, fp16 H800 bypass) and
#: rhs_block_traffic_factor (fp64 k=8, fp16 k=32) of every suite matrix,
#: as the hash-based sector counting computed them.
SUITE_TRAFFIC = {
    'pwtk': (2592186.52153927, 1893254.2955082743, 600424.939271255, 5.0, 14.0),
    'FullChip': (2269618.1048069345, 1701325.0354609927, 964511.2226720648, 3.0, 5.0),
    'mip1': (1852337.122406094, 1347122.7281323876, 394752.12955465587, 6.0, 20.0),
    'mc2depi': (1855855.5686892567, 1425816.0094562648, 1095957.246963563, 3.0, 3.0),
    'webbase-1M': (2013320.6568163908, 1561563.9929078014, 1237228.6963562754, 3.0, 3.0),
    'circuit5M': (4272146.059889677, 3187945.1631205673, 1803571.1740890688, 3.0, 5.0),
    'Si41Ge41H72': (7668145.3867874965, 5541224.678486997, 4025330.1376518216, 3.0, 4.0),
    'Ga41As41H72': (7885026.77633307, 5699619.278959811, 4154306.720647773, 3.0, 4.0),
    'in-2004': (3375590.9213291304, 2497625.4633569736, 1947178.105263158, 3.0, 3.0),
    'eu-2005': (4734431.261491989, 3464790.508274232, 2668744.680161943, 3.0, 3.0),
    'shipsec1': (2246026.7730496456, 1639539.2765957448, 519546.17004048586, 5.0, 14.0),
    'mac_econ_fwd500': (1548629.9087207776, 1159813.53427896, 1063137.6842105263, 3.0, 3.0),
    'scircuit': (876093.4068820594, 668867.2529550828, 407232.9068825911, 3.0, 4.0),
    'pdb1HYS': (1860633.23154715, 1348615.926713948, 411008.25910931174, 5.0, 14.0),
    'consph': (1714108.7733123193, 1247598.3167848699, 386991.2874493927, 5.0, 14.0),
    'cant': (1585039.962568952, 1155116.7730496454, 361537.81376518216, 5.0, 14.0),
    'cop20k_A': (1117930.5194378775, 831789.9739952718, 284916.85829959513, 5.0, 12.0),
    'dc2': (1507710.2738376674, 1141551.3971631206, 659150.8987854251, 3.0, 5.0),
    'rma10': (965232.8605200945, 705495.659574468, 224539.20647773278, 5.0, 14.0),
    'conf5_4-8x8-10': (1979350.462962963, 1436108.3333333333, 906624.1295546558, 3.0, 4.0),
    'ASIC_680k': (2070350.1477541372, 1566812.1063829786, 877217.0364372471, 3.0, 5.0),
}


class TestSuiteTrafficPinned:
    def test_covers_the_suite(self, suite):
        assert {name for name, _ in suite} == set(SUITE_TRAFFIC)

    def test_traffic_and_rhs_factor_unchanged(self, suite):
        for name, csr in suite:
            got = (x_traffic_bytes(csr, 8, A100),
                   x_traffic_bytes(csr, 8, A100, bypass_l1=True),
                   x_traffic_bytes(csr, 2, H800, bypass_l1=True),
                   rhs_block_traffic_factor(csr, 8, 8),
                   rhs_block_traffic_factor(csr, 2, 32))
            assert got == SUITE_TRAFFIC[name], name


class TestXTraffic:
    def test_zero_for_empty(self):
        assert x_traffic_bytes(CSRMatrix.empty((3, 3)), 8, A100) == 0.0

    def test_reuse_cheaper_than_scatter(self, rng):
        dense_cols = csr_with_cols([[0, 1, 2, 3]] * 64, 8)
        scattered = csr_with_cols(
            [[int(c) for c in rng.choice(4096, 4, replace=False)]
             for _ in range(64)], 4096)
        assert x_traffic_bytes(dense_cols, 8, A100) < x_traffic_bytes(scattered, 8, A100)

    def test_bypass_reduces_traffic(self, rng):
        csr = random_csr(200, 5000, rng)
        with_bypass = x_traffic_bytes(csr, 8, A100, bypass_l1=True)
        without = x_traffic_bytes(csr, 8, A100, bypass_l1=False)
        assert with_bypass <= without

    def test_monotone_in_nnz(self, rng):
        small = random_csr(50, 1000, rng)
        big = random_csr(500, 1000, rng)
        if big.nnz > small.nnz * 2:
            assert x_traffic_bytes(big, 8, A100) > x_traffic_bytes(small, 8, A100)

    def test_accepts_device_name(self, rng):
        csr = random_csr(10, 10, rng)
        assert x_traffic_bytes(csr, 8, "A100") == x_traffic_bytes(csr, 8, A100)


class TestEffectiveBandwidth:
    def test_ramp_floor(self):
        assert effective_bandwidth(A100, 1) >= 0.14 * A100.measured_bw

    def test_saturates(self):
        assert effective_bandwidth(A100, 10_000_000) == pytest.approx(A100.measured_bw)

    def test_monotone(self):
        bws = [effective_bandwidth(A100, t) for t in (10, 1000, 50_000, 500_000)]
        assert bws == sorted(bws)

    def test_zero_threads_safe(self):
        assert effective_bandwidth(A100, 0) > 0
