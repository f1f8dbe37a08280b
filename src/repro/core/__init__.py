"""The paper's primary contribution: service-oriented runtime extensions.

Extends the pilot runtime with service management (launch/init/publish/ready
lifecycle, heartbeat liveness, priority scheduling), an endpoint registry
with fleet load telemetry, request clients with RT decomposition and
retry-on-busy, load-balancing policies, and an autoscaler that grows and
shrinks service groups against queue-delay SLOs -- the architecture of
Fig. 2 plus the paper's §IV-E future work (continuous batching, bounded
admission, dynamic rerouting, elasticity).
"""

from .autoscaler import Autoscaler
from .client import InferenceResult, RequestTimeout, ServiceClient
from .load_balancer import (
    JoinShortestQueueBalancer,
    LeastLoadedBalancer,
    LoadBalancer,
    RandomBalancer,
    RoundRobinBalancer,
    create_balancer,
)
from .registry import EndpointRegistry, ServiceInfo
from .service import ServiceInstance
from .service_manager import ServiceHandle, ServiceManager

__all__ = [
    "Autoscaler",
    "InferenceResult",
    "RequestTimeout",
    "ServiceClient",
    "JoinShortestQueueBalancer",
    "LeastLoadedBalancer",
    "LoadBalancer",
    "RandomBalancer",
    "RoundRobinBalancer",
    "create_balancer",
    "EndpointRegistry",
    "ServiceInfo",
    "ServiceInstance",
    "ServiceHandle",
    "ServiceManager",
]
