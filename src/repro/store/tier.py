"""Load-vs-rebuild cost comparison for the disk plan tier.

A warm start only pays off if reading the packed arrays back is cheaper
than re-running the CSR -> DASP conversion.  Both sides are modeled
with the same machinery as the rest of the repo:

* **rebuild** — :func:`repro.gpu.cost_model.estimate_preprocess_time`
  over the exact :class:`~repro.gpu.events.PreprocessEvents` scalars
  the original build reported (rows / nnz / stored elements / medium
  sort keys / allocations), which the artifact header carries in its
  ``modeled`` section — no payload read needed to decide;
* **load** — streaming the payload at NVMe sequential bandwidth
  (CRC verify and page-cache fill happen in the same pass), plus one
  pinned-copy upload of the packed device arrays at the host bandwidth
  the preprocess model already uses, plus a fixed open/parse/mmap
  overhead.

The asymmetry that makes warm starts win is the paper's Figure 13 one:
preprocessing is dominated by the medium-row sort and multiple passes
over the CSR payload, while a load is one sequential read of the same
bytes.
"""

from __future__ import annotations

import numpy as np

from ..gpu.cost_model import HOST_BW, estimate_preprocess_time
from ..gpu.device import get_device
from ..gpu.events import PreprocessEvents

#: Modeled sequential read bandwidth (bytes/s) for artifact loads.  The
#: target node class (A100/H800 servers, DGX-style) stripes several
#: PCIe-4 NVMe drives for exactly this weight/plan warm-start pattern;
#: 20 GB/s is a conservative striped-read figure (a single Gen4 drive
#: sustains ~7 GB/s, DGX A100 ships four in RAID 0).
DISK_BW = 20e9

#: Fixed cost of opening an artifact: header parse + mmap setup.
OPEN_OVERHEAD_S = 20e-6


def modeled_load_time(header: dict, device="A100", *,
                      log_bytes: int = 0) -> float:
    """Modeled seconds to warm-start from an artifact *header*, plus
    streaming *log_bytes* of its delta log (replaying the deltas is
    priced by the caller)."""
    md = header["modeled"]
    t = OPEN_OVERHEAD_S
    t += (float(md["payload_bytes"]) + log_bytes) / DISK_BW  # stream + CRC
    t += float(md["packed_bytes"]) / HOST_BW      # upload packed arrays
    return float(t)


def modeled_rebuild_time(header: dict, device="A100") -> float:
    """Modeled seconds to rebuild the plan from CSR instead.

    Reconstructs the :class:`PreprocessEvents` of the original build
    from the header's ``modeled`` scalars — the same accounting as
    :func:`repro.core.preprocess.dasp_preprocess_events`, summed over
    shards for composite plans.
    """
    md = header["modeled"]
    value_bytes = np.dtype(header["dtype"]).itemsize
    entry_bytes = value_bytes + 4  # value + column index
    host = (float(md["rows"]) + 1) * 8 * 2
    host += float(md["nnz"]) * entry_bytes
    host += 2 * float(md["stored_elements"]) * entry_bytes
    events = PreprocessEvents(
        device_bytes=0.0,
        host_bytes=host,
        sort_keys=float(md["sort_keys"]),
        kernel_launches=0,
        allocations=int(md["allocations"]),
    )
    return float(estimate_preprocess_time(events, get_device(device)))


def load_beats_rebuild(header: dict, device="A100") -> bool:
    """Whether warm-starting from this artifact is modeled cheaper than
    rebuilding — the gate :class:`repro.store.PlanStore` applies before
    committing to a full load."""
    return modeled_load_time(header, device) < modeled_rebuild_time(
        header, device)
