"""repro: a service-oriented pilot runtime for hybrid HPC/ML workflows.

Reproduction of *"Scalable Runtime Architecture for Data-driven, Hybrid HPC
and ML Workflow Applications"* (IPPS/IPDPS 2025, arXiv:2503.13343): a
RADICAL-Pilot-like runtime extended with service-based execution so ML
models can be served, at scale, to HPC workflow tasks across local and
remote platforms.

Quickstart::

    from repro import (Session, PilotManager, TaskManager, ServiceManager,
                       PilotDescription, TaskDescription, ServiceDescription,
                       ServiceClient)

    with Session(seed=1) as session:
        pmgr = PilotManager(session)
        smgr = ServiceManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", gpus=4))
        (svc,) = smgr.start_services(
            ServiceDescription(model="llama-8b"), pilot)
        session.run(until=svc.ready)

        client = ServiceClient(session, platform="delta")
        def ask():
            result = yield from client.infer(svc.address, "what is a pilot?")
            return result
        proc = session.engine.process(ask())
        print(session.run(until=proc).text)
"""

from .pilot import (
    DataManager,
    Pilot,
    PilotDescription,
    PilotManager,
    PilotState,
    Profiler,
    ServiceDescription,
    ServiceState,
    Session,
    StagingDirective,
    StateError,
    Task,
    TaskDescription,
    TaskManager,
    TaskState,
)
from .data import DataConfig, DataServices
from .observability import (
    AnomalyEvent,
    BenchResult,
    CampaignAttribution,
    Dashboard,
    ObservabilityConfig,
    ObservabilityServices,
)
from .resilience import (
    FaultModel,
    PilotResubmitPolicy,
    ResilienceConfig,
    ResilienceServices,
    RetryPolicy,
)
from .core import (
    Autoscaler,
    EndpointRegistry,
    InferenceResult,
    JoinShortestQueueBalancer,
    LeastLoadedBalancer,
    LoadBalancer,
    RandomBalancer,
    RequestTimeout,
    RoundRobinBalancer,
    ServiceClient,
    ServiceHandle,
    ServiceInfo,
    ServiceInstance,
    ServiceManager,
    create_balancer,
)

__version__ = "1.0.0"

__all__ = [
    "AnomalyEvent",
    "BenchResult",
    "CampaignAttribution",
    "Dashboard",
    "DataConfig",
    "DataManager",
    "DataServices",
    "FaultModel",
    "PilotResubmitPolicy",
    "ResilienceConfig",
    "ObservabilityConfig",
    "ObservabilityServices",
    "ResilienceServices",
    "RetryPolicy",
    "Pilot",
    "PilotDescription",
    "PilotManager",
    "PilotState",
    "Profiler",
    "ServiceDescription",
    "ServiceState",
    "Session",
    "StagingDirective",
    "StateError",
    "Task",
    "TaskDescription",
    "TaskManager",
    "TaskState",
    "Autoscaler",
    "EndpointRegistry",
    "InferenceResult",
    "JoinShortestQueueBalancer",
    "LeastLoadedBalancer",
    "LoadBalancer",
    "RandomBalancer",
    "RequestTimeout",
    "RoundRobinBalancer",
    "ServiceClient",
    "ServiceHandle",
    "ServiceInfo",
    "ServiceInstance",
    "ServiceManager",
    "create_balancer",
    "__version__",
]
