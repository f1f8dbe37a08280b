"""HPC platform catalog and resource topology descriptions.

The paper evaluates on three platforms (§IV): OLCF Frontier (Exp 1, up to 640
concurrent services), NCSA Delta (Exps 2-3, 256 cores / 16 GPUs per pilot)
and "R3", a cloud server exposing remote ML capabilities.  We describe each
platform's topology (nodes, cores, GPUs, memory) and its communication
characteristics (intra-platform latency), both calibrated to the figures
printed in the paper.

A :class:`PlatformSpec` is immutable; mutable node state lives in
:class:`repro.hpc.node.NodeState` instances created per allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

__all__ = [
    "LatencySpec",
    "PlatformSpec",
    "PLATFORMS",
    "get_platform",
    "register_platform",
    "FRONTIER",
    "DELTA",
    "R3",
    "LOCALHOST",
]


@dataclass(frozen=True)
class LatencySpec:
    """A (mean, std) one-way message latency model, in milliseconds.

    Samples are truncated at ``floor_ms`` to keep latencies physical even in
    the gaussian tail.
    """

    mean_ms: float
    std_ms: float
    floor_ms: float = 1e-3

    def sample(self, rng) -> float:
        """Draw one one-way latency, in **seconds**."""
        return max(rng.normal(self.mean_ms, self.std_ms), self.floor_ms) * 1e-3

    @property
    def mean_s(self) -> float:
        return self.mean_ms * 1e-3


@dataclass(frozen=True)
class PlatformSpec:
    """Static description of a compute platform.

    Attributes mirror what a pilot job needs to carve resources: node count
    and per-node cores/GPUs/memory, plus the platform's internal network
    latency and the default launch method for placing executables on nodes.
    """

    name: str
    nodes: int
    cores_per_node: int
    gpus_per_node: int
    mem_per_node_gb: float
    #: one-way latency between two nodes of this platform
    intra_latency: LatencySpec
    #: default launch method name (see repro.hpc.launcher)
    launch_method: str = "MPIEXEC"
    #: batch queue base wait (seconds, scale of an exponential wait model)
    queue_wait_scale_s: float = 0.0
    #: shared-filesystem read bandwidth *per client* (GB/s)
    fs_bandwidth_gbps: float = 2.0
    #: aggregate shared-filesystem bandwidth (GB/s); concurrent model loads
    #: share this pool once they exceed per-client capacity
    fs_aggregate_gbps: float = 100.0
    #: per-node mean time between failures (seconds; 0 = faults never
    #: injected unless a FaultModel overrides).  Leadership-class machines
    #: publish node MTBFs in the weeks; experiments compress the scale.
    node_mtbf_s: float = 0.0
    #: per-node mean time to repair after a crash (seconds)
    node_mttr_s: float = 300.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"{self.name}: nodes must be >= 1")
        if self.cores_per_node < 1:
            raise ValueError(f"{self.name}: cores_per_node must be >= 1")
        if self.gpus_per_node < 0:
            raise ValueError(f"{self.name}: gpus_per_node must be >= 0")

    def with_overrides(self, **kwargs) -> "PlatformSpec":
        """Return a copy with selected fields replaced (for experiments)."""
        return replace(self, **kwargs)


# ---------------------------------------------------------------------------
# Platform catalog.
#
# Topology numbers are the public machine specs; latency figures are the ones
# the paper reports in §IV-C: inter-node 0.063 +/- 0.014 ms (local scenario,
# Delta) and node-to-node 0.47 +/- 0.04 ms (Delta <-> R3 remote scenario).
# ---------------------------------------------------------------------------

#: OLCF Frontier: 9408 nodes, 64 cores (8 reserved for the OS -> 56 usable),
#: 8 effective GPUs (MI250X GCDs) per node.  Used for Experiment 1 (bootstrap
#: scaling to 640 service instances, one GPU each -> 80 nodes).
FRONTIER = PlatformSpec(
    name="frontier",
    nodes=9408,
    cores_per_node=56,
    gpus_per_node=8,
    mem_per_node_gb=512.0,
    intra_latency=LatencySpec(mean_ms=0.063, std_ms=0.014),
    launch_method="MPIEXEC",
    fs_bandwidth_gbps=2.0,     # Lustre per-client read cap
    fs_aggregate_gbps=250.0,   # shared pool under concurrent model loads
    description="OLCF Frontier (exascale, AMD MI250X), Experiment 1 platform",
)

#: NCSA Delta: A100 GPU partition; 64 cores + 4 GPUs per node.  The paper's
#: pilots use 256 cores / 16 GPUs = 4 such nodes (Table II).
DELTA = PlatformSpec(
    name="delta",
    nodes=124,
    cores_per_node=64,
    gpus_per_node=4,
    mem_per_node_gb=256.0,
    intra_latency=LatencySpec(mean_ms=0.063, std_ms=0.014),
    launch_method="MPIEXEC",
    fs_bandwidth_gbps=2.0,
    fs_aggregate_gbps=100.0,
    description="NCSA Delta (A100), Experiments 2-3 local platform",
)

#: R3: the cloud-based server hosting remote, persistent ML services.
R3 = PlatformSpec(
    name="r3",
    nodes=2,
    cores_per_node=32,
    gpus_per_node=8,
    mem_per_node_gb=384.0,
    intra_latency=LatencySpec(mean_ms=0.05, std_ms=0.01),
    launch_method="FORK",
    fs_bandwidth_gbps=1.0,
    fs_aggregate_gbps=10.0,
    description="Cloud server exposing remote ML capabilities (REST/ZeroMQ)",
)

#: A laptop-scale platform for examples and integration tests.
LOCALHOST = PlatformSpec(
    name="localhost",
    nodes=1,
    cores_per_node=8,
    gpus_per_node=2,
    mem_per_node_gb=16.0,
    intra_latency=LatencySpec(mean_ms=0.02, std_ms=0.005),
    launch_method="FORK",
    description="Single-node platform for local runs",
)


PLATFORMS: Dict[str, PlatformSpec] = {
    spec.name: spec for spec in (FRONTIER, DELTA, R3, LOCALHOST)
}


def get_platform(name: str) -> PlatformSpec:
    """Look up a platform by name (raises KeyError with a helpful message)."""
    try:
        return PLATFORMS[name]
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; known: {sorted(PLATFORMS)}") from None


def register_platform(spec: PlatformSpec, overwrite: bool = False) -> None:
    """Add a custom platform to the catalog."""
    if spec.name in PLATFORMS and not overwrite:
        raise ValueError(f"platform {spec.name!r} already registered")
    PLATFORMS[spec.name] = spec
