"""`repro.cluster` — multi-replica serving fabric.

The scale-out layer over :mod:`repro.serve`: a consistent-hash ring
(:class:`HashRing`) places matrix fingerprints onto replicas with
virtual nodes and a seeded stable hash, a :class:`Router` fronts real
:class:`~repro.serve.SpMVServer` replicas with cache-affine placement
and health-aware failover, :class:`ReplicaHealth` filters raw replica
signals (queue depth, open breakers, deadline-miss rate) through
hysteresis so routing doesn't flap, :class:`Placement` is the one
preference/hedge policy the router and the driver share, and
:func:`run_cluster_workload` replays the deterministic virtual-time
Poisson/Zipf workload over N simulated replicas — bit-identical to the
single-replica driver at N=1, linear modeled throughput as N grows,
and failover under injected replica failure.

See ``docs/DESIGN.md`` ("Cluster placement, health and failover") for
the design rationale.
"""

from .driver import (
    ClusterConfig,
    ClusterStats,
    ElasticConfig,
    run_cluster_workload,
)
from .health import HealthConfig, ReplicaHealth, ReplicaSignals
from .placement import Placement
from .ring import DEFAULT_VNODES, HashRing, stable_hash
from .router import NoHealthyReplicaError, Router, RouterClosedError

__all__ = [
    "ClusterConfig",
    "ClusterStats",
    "DEFAULT_VNODES",
    "ElasticConfig",
    "HashRing",
    "HealthConfig",
    "NoHealthyReplicaError",
    "Placement",
    "ReplicaHealth",
    "ReplicaSignals",
    "Router",
    "RouterClosedError",
    "run_cluster_workload",
    "stable_hash",
]
