"""Experiment drivers: parameterised reproductions of the paper's §IV runs.

Three experiments (Table II):

* :func:`run_experiment1` -- bootstrap-time weak scaling on Frontier:
  1..640 llama-8b services, one GPU each (Fig. 3);
* :func:`run_experiment2` -- NOOP response-time strong/weak scaling with
  local (Delta) or remote (R3) services (Figs. 4-5);
* :func:`run_experiment3` -- llama-8b inference-time strong/weak scaling,
  local or remote (Fig. 6).

Each driver builds a fresh virtual-time session, runs the configuration to
completion and returns structured results (component arrays + stats), which
the benchmark harness renders as the paper's figure series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import autoscaler
from ..core.client import InferenceResult, ServiceClient
from ..core.service_manager import ServiceHandle, ServiceManager
from ..pilot.description import PilotDescription, ServiceDescription
from ..pilot.pilot_manager import PilotManager
from ..pilot.session import Session
from .metrics import (
    BootstrapMetrics,
    ResponseMetrics,
    bootstrap_metrics,
    response_metrics,
)

__all__ = [
    "EXP1_INSTANCE_COUNTS",
    "STRONG_SCALING_GRID",
    "WEAK_SCALING_GRID",
    "REQUESTS_PER_CLIENT",
    "Exp1Result",
    "Exp23Result",
    "run_experiment1",
    "run_experiment2",
    "run_experiment3",
    "run_service_workload",
    "run_autoscaled_workload",
]

#: §IV-B: "We increase the number of instances during each experiment run".
EXP1_INSTANCE_COUNTS: Tuple[int, ...] = (1, 2, 4, 8, 20, 40, 80, 160, 320, 640)

#: §IV-C strong scaling: 16 clients against 1..16 services.
STRONG_SCALING_GRID: Tuple[Tuple[int, int], ...] = (
    (16, 1), (16, 2), (16, 4), (16, 8), (16, 16))

#: §IV-C weak scaling: clients == services.
WEAK_SCALING_GRID: Tuple[Tuple[int, int], ...] = (
    (1, 1), (2, 2), (4, 4), (8, 8), (16, 16))

#: §IV-C: "each client sending a fixed number of inference requests (1024)".
REQUESTS_PER_CLIENT = 1024


@dataclass
class Exp1Result:
    """One Experiment-1 run: BT decomposition at a given instance count."""

    n_services: int
    platform: str
    model: str
    metrics: BootstrapMetrics
    wallclock_s: float  # simulated time until all services READY

    def row(self) -> Dict[str, float]:
        means = self.metrics.component_means()
        return {
            "n_services": self.n_services,
            "launch_mean_s": means["launch"],
            "init_mean_s": means["init"],
            "publish_mean_s": means["publish"],
            "bt_mean_s": float(self.metrics.total.mean()),
            "bt_max_s": float(self.metrics.total.max()),
        }


def run_experiment1(n_services: int, seed: int = 0,
                    platform: str = "frontier") -> Exp1Result:
    """Bootstrap *n_services* model instances, one GPU each (Fig. 3)."""
    if n_services < 1:
        raise ValueError("n_services must be >= 1")
    with Session(seed=seed, platforms=[platform, "localhost"]) as session:
        pmgr = PilotManager(session)
        smgr = ServiceManager(session, registry_platform=platform)
        (pilot,) = pmgr.submit_pilots(PilotDescription(
            resource=platform, gpus=n_services, runtime_s=1e7))
        descriptions = [
            ServiceDescription(model="llama-8b", gpus_per_rank=1,
                               startup_timeout_s=1e6)
            for _ in range(n_services)]
        handles = smgr.start_services(descriptions, pilot)
        t0 = session.now
        session.run(until=smgr.wait_ready(handles))
        wallclock = session.now - t0
        metrics = bootstrap_metrics(session.profiler,
                                    [h.uid for h in handles])
        return Exp1Result(n_services=n_services, platform=platform,
                          model="llama-8b", metrics=metrics,
                          wallclock_s=wallclock)


@dataclass
class Exp23Result:
    """One Experiment-2/3 run: RT decomposition for a client/service grid."""

    n_clients: int
    n_services: int
    deployment: str            # "local" | "remote"
    model: str
    n_requests_per_client: int
    metrics: ResponseMetrics
    makespan_s: float
    per_client: List[List[InferenceResult]] = field(default_factory=list)
    #: admission-control rejections (bounded-queue shedding) across the fleet
    shed_total: int = 0
    #: client-side busy/timeout retries across all clients
    retries_total: int = 0
    #: requests that exhausted their retries without a successful reply
    #: (excluded from ``metrics``, see :func:`response_metrics`)
    failed_total: int = 0
    #: autoscaler (time, "up"|"down", count) actions, when autoscaling ran
    scale_events: List[Tuple[float, str, int]] = field(default_factory=list)
    #: autoscaler (time, instance count) samples, when autoscaling ran
    count_trace: List[Tuple[float, int]] = field(default_factory=list)

    def row(self) -> Dict[str, float]:
        means = self.metrics.component_means()
        return {
            "clients": self.n_clients,
            "services": self.n_services,
            "rt_mean_s": float(self.metrics.response_time.mean()),
            "communication_mean_s": means["communication"],
            "service_mean_s": means["service"],
            "inference_mean_s": means["inference"],
            "throughput_rps": self.metrics.throughput(self.makespan_s),
        }


def run_service_workload(n_clients: int, n_services: int,
                         deployment: str = "local",
                         model: str = "noop",
                         n_requests: int = REQUESTS_PER_CLIENT,
                         seed: int = 0,
                         prompt: str = "noop request",
                         max_tokens: int = 128,
                         backend: str = "ollama",
                         max_concurrency: int = 1,
                         max_batch_size: int = 0,
                         max_queue_depth: int = 0,
                         balancer=None,
                         models: Optional[List[str]] = None) -> Exp23Result:
    """Common driver for Experiments 2 and 3 (and the batching ablation).

    Local deployment bootstraps services on a Delta pilot (Table II:
    256 cores / 16 GPUs); remote deployment attaches persistent services on
    R3.  Clients run on Delta either way and each issues *n_requests*
    sequentially, round-robin over the available services (the paper's
    rudimentary load balancing).

    *balancer*: a shared :class:`~repro.core.load_balancer.LoadBalancer`
    used by every client (default: per-client round-robin).  *models*: a
    per-service model list overriding *model* (heterogeneous fleets for the
    load-balancing ablation).  *max_batch_size* / *max_queue_depth*
    configure the adaptive data plane (0 keeps the paper's serial/unbounded
    baseline).
    """
    if deployment not in ("local", "remote"):
        raise ValueError("deployment must be 'local' or 'remote'")
    if n_clients < 1 or n_services < 1:
        raise ValueError("n_clients and n_services must be >= 1")
    service_models = list(models) if models is not None \
        else [model] * n_services
    if len(service_models) != n_services:
        raise ValueError("models list must have n_services entries")

    with Session(seed=seed,
                 platforms=["delta", "r3", "localhost"]) as session:
        smgr = ServiceManager(session, registry_platform="delta")
        handles: List[ServiceHandle]

        if deployment == "local":
            pmgr = PilotManager(session)
            (pilot,) = pmgr.submit_pilots(PilotDescription(
                resource="delta", cores=256, gpus=16, runtime_s=1e8))
            descriptions = [
                ServiceDescription(model=svc_model, backend=backend,
                                   gpus_per_rank=0 if svc_model == "noop" else 1,
                                   max_concurrency=max_concurrency,
                                   max_batch_size=max_batch_size,
                                   max_queue_depth=max_queue_depth,
                                   startup_timeout_s=1e6)
                for svc_model in service_models]
            handles = smgr.start_services(descriptions, pilot)
        else:
            handles = [
                smgr.start_remote(
                    ServiceDescription(model=svc_model, backend=backend,
                                       max_concurrency=max_concurrency,
                                       max_batch_size=max_batch_size,
                                       max_queue_depth=max_queue_depth),
                    platform="r3")
                for svc_model in service_models]

        session.run(until=smgr.wait_ready(handles))
        targets = [h.address for h in handles]

        clients = [ServiceClient(session, platform="delta")
                   for _ in range(n_clients)]
        params = {"max_tokens": max_tokens}

        def client_proc(client: ServiceClient):
            results = yield from client.run_workload(
                targets, n_requests, prompt=prompt, params=params,
                balancer=balancer)
            return results

        t0 = session.now
        procs = [session.engine.process(client_proc(c)) for c in clients]
        session.run(until=session.engine.all_of(procs))
        makespan = session.now - t0

        per_client = [proc.value for proc in procs]   # each row built once
        all_results = [r for rows in per_client for r in rows]
        shed = sum(h.instance.shed_count for h in handles
                   if h.instance is not None)
        return Exp23Result(
            n_clients=n_clients, n_services=n_services,
            deployment=deployment, model=model,
            n_requests_per_client=n_requests,
            metrics=response_metrics(all_results),
            makespan_s=makespan,
            per_client=per_client,
            shed_total=shed,
            retries_total=sum(c.retries for c in clients),
            failed_total=sum(1 for r in all_results if not r.ok))


def run_experiment2(n_clients: int, n_services: int,
                    deployment: str = "local",
                    n_requests: int = REQUESTS_PER_CLIENT,
                    seed: int = 0) -> Exp23Result:
    """NOOP response-time scaling (Figs. 4-5)."""
    return run_service_workload(
        n_clients, n_services, deployment=deployment, model="noop",
        n_requests=n_requests, seed=seed, prompt="noop")


def run_experiment3(n_clients: int, n_services: int,
                    deployment: str = "remote",
                    n_requests: int = 32,
                    seed: int = 0) -> Exp23Result:
    """llama-8b inference-time scaling (Fig. 6).

    Defaults to far fewer requests per client than Experiment 2: at ~3-8 s
    per inference the paper's 1024 requests would add nothing but simulated
    hours; the queueing/served-time shape is established within tens of
    requests per client (the benchmark harness can raise this).
    """
    return run_service_workload(
        n_clients, n_services, deployment=deployment, model="llama-8b",
        n_requests=n_requests, seed=seed,
        prompt="summarize the role of runtime systems in hybrid workflows")


def run_autoscaled_workload(burst_s: float = 180.0,
                            idle_s: float = 300.0,
                            n_bursts: int = 2,
                            autoscale: bool = True,
                            seed: int = 0) -> Exp23Result:
    """Bursty-load scaling study: elastic instance counts vs a fixed fleet.

    16 clients on Delta hammer a llama-8b fleet (Ollama hosts beating every
    2 s) back-to-back during each of *n_bursts* windows of *burst_s*
    seconds, separated by *idle_s* of silence; a request times out after
    120 s and asks for 64 tokens.  With ``autoscale=True`` an
    :class:`Autoscaler` (remote attachment on R3, so launches are cheap)
    grows the fleet toward the queue-delay SLO during bursts and shrinks it
    back during idles; with ``autoscale=False`` the fleet stays at
    :data:`~repro.core.autoscaler.MIN_INSTANCES`.
    Clients resolve targets from the registry before every request (the
    fleet changes underneath them) and use join-shortest-queue routing over
    the published telemetry.

    Returns an :class:`Exp23Result` whose ``scale_events``/``count_trace``
    record the autoscaler's actions.
    """
    from ..core.load_balancer import JoinShortestQueueBalancer

    n_clients = 16
    with Session(seed=seed,
                 platforms=["delta", "r3", "localhost"]) as session:
        smgr = ServiceManager(session, registry_platform="delta")
        description = ServiceDescription(model="llama-8b", backend="ollama",
                                         heartbeat_interval_s=2.0)
        scaler = smgr.start_autoscaler(description, "r3")
        if not autoscale:
            scaler.stop()  # fleet frozen at MIN_INSTANCES
        session.run(until=smgr.wait_ready(scaler.handles))

        registry = smgr.registry

        def resolve():
            return [info.address for info in registry.list_services()]

        balancer = JoinShortestQueueBalancer(registry)
        clients = [ServiceClient(session, platform="delta", timeout_s=120.0)
                   for _ in range(n_clients)]
        params = {"max_tokens": 64}
        engine = session.engine

        def client_proc(client: ServiceClient):
            for k in range(n_bursts):
                start = k * (burst_s + idle_s)
                if engine.now < start:
                    yield engine.timeout(start - engine.now)
                while engine.now < start + burst_s:
                    yield from client.run_workload(
                        resolve, 1, prompt="burst", params=params,
                        balancer=balancer)

        t0 = session.now
        procs = [session.engine.process(client_proc(c)) for c in clients]
        session.run(until=session.engine.all_of(procs))
        makespan = session.now - t0
        # Trailing cooldown: let the autoscaler observe the idle fleet and
        # shrink back before the trace is captured.
        session.run(until=session.now + idle_s)
        scaler.stop()

        per_client = [list(c.results) for c in clients]
        all_results = [r for rows in per_client for r in rows]
        # all_handles includes scaled-down instances: their sheds count too
        shed = sum(h.instance.shed_count for h in scaler.all_handles
                   if h.instance is not None)
        n_services = max((count for _, count in scaler.count_trace),
                         default=autoscaler.MIN_INSTANCES)
        return Exp23Result(
            n_clients=n_clients, n_services=n_services,
            deployment="remote", model="llama-8b",
            n_requests_per_client=len(all_results) // max(1, n_clients),
            metrics=response_metrics(all_results),
            makespan_s=makespan,
            per_client=per_client,
            shed_total=shed,
            retries_total=sum(c.retries for c in clients),
            failed_total=sum(1 for r in all_results if not r.ok),
            scale_events=list(scaler.scale_events),
            count_trace=list(scaler.count_trace))
