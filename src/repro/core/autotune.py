"""Parameter tuning helpers for DASP's knobs.

The paper fixes ``MAX_LEN = 256`` and ``threshold = 0.75`` and derives
``LOOP_NUM`` from the medium-row count.  These helpers sweep the knobs
against the cost model so the ablation benchmarks can show *why* the
paper's defaults are sensible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.device import get_device
from .method import DASPMethod

#: Candidate MAX_LEN values (must exceed the short bound of 4 and stay a
#: multiple of one warp-group's 64 elements to keep the long path aligned).
MAX_LEN_CANDIDATES = (64, 128, 256, 512, 1024)

#: Candidate regular-block occupancy thresholds.
THRESHOLD_CANDIDATES = (0.25, 0.5, 0.75, 0.9, 1.0)


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one parameter sweep."""

    parameter: str
    best_value: float
    times: dict  # value -> modeled seconds

    @property
    def best_time(self) -> float:
        return self.times[self.best_value]


def tune_max_len(csr, device, *, candidates=MAX_LEN_CANDIDATES,
                 threshold: float = 0.75) -> TuneResult:
    """Sweep MAX_LEN and return modeled SpMV times per candidate."""
    device = get_device(device)
    times = {}
    for max_len in candidates:
        method = DASPMethod(max_len=max_len, threshold=threshold)
        times[max_len] = method.measure(csr, device).time_s
    best = min(times, key=times.get)
    return TuneResult("max_len", best, times)


def tune_threshold(csr, device, *, candidates=THRESHOLD_CANDIDATES,
                   max_len: int = 256) -> TuneResult:
    """Sweep the regular-block threshold and return modeled times."""
    device = get_device(device)
    times = {}
    for threshold in candidates:
        method = DASPMethod(max_len=max_len, threshold=threshold)
        times[threshold] = method.measure(csr, device).time_s
    best = min(times, key=times.get)
    return TuneResult("threshold", best, times)

