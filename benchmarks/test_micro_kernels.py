"""Microbenchmarks: the substrate the experiments stand on.

These use pytest-benchmark's statistical loop (multiple rounds) to track
the kernel costs that bound simulation scale: DES event throughput, bus
round-trips, scheduler grant/release cycles, MLP training and the Markov
generator.
"""

import heapq
import itertools
from time import perf_counter

import pytest

from repro.comm import MessageBus
from repro.hpc import DELTA, Fabric, NodeList
from repro.pilot import Session, TaskDescription
from repro.pilot.agent.scheduler import AgentScheduler
from repro.pilot.task import Task
from repro.serving import LlamaModel, default_generator
from repro.sim import RngHub, SimulationEngine
from repro.utils import IdRegistry
from repro.workflows import MLPClassifier, MLPConfig

import numpy as np


@pytest.mark.benchmark(group="micro")
def test_micro_engine_event_throughput(benchmark):
    """Cost of scheduling + draining 10k timeout events."""

    def run():
        engine = SimulationEngine()
        for i in range(10_000):
            engine.timeout(float(i % 100))
        engine.run()
        return engine.now

    result = benchmark(run)
    assert result == 99.0


class _MinimalKernel:
    """What a DES kernel costs with nothing in it (after SNIPPETS.md
    snippet 3): one heap of ``(t, seq, fn, arg)`` and a list of stop
    predicates asked before every pop.  No priorities, no cancellation,
    no events -- the comparator, not a candidate."""

    def __init__(self):
        self.now = 0.0
        self.stop_predicates = []
        self._heap = []
        self._seq = itertools.count()

    def call_later(self, delay, fn, arg=None):
        heapq.heappush(self._heap,
                       (self.now + delay, next(self._seq), fn, arg))

    def run(self):
        heap, stops = self._heap, self.stop_predicates
        while heap:
            for stop in stops:
                if stop():
                    return
            self.now, _seq, fn, arg = heapq.heappop(heap)
            fn(arg)


def _mixed_program(kernel):
    """20k timers over 100 distinct times + 100 chains of 200 zero-delay
    hops (one chain starting at each of the times); seconds per event."""
    fired = [0]

    def tick(_arg):
        fired[0] += 1

    def hop(left):
        fired[0] += 1
        if left:
            kernel.call_later(0.0, hop, left - 1)

    started = perf_counter()
    for i in range(20_000):
        kernel.call_later(float(i % 100), tick)
    for chain in range(100):
        kernel.call_later(float(chain), hop, 199)
    kernel.run()
    elapsed = perf_counter() - started
    assert fired[0] == 40_000 and kernel.now == 99.0
    return elapsed / fired[0]


def test_micro_engine_vs_minimal_heap_kernel(emit):
    """What the kernel may cost: at most 1.5x a minimal one-heap kernel
    per event on a mixed timer + zero-delay-chain program.  Measured
    0.71-0.84x in four runs on a 2-vCPU box (CPython 3.11), and once
    1.56x on the same box under load -- the now-queue and the Deferred
    pool pay for the priorities, cancellation and Event dispatch the
    minimal kernel lacks -- so the bound is the floor a kernel change
    starts from, not a target.  Each run writes its reading to
    ``benchmarks/results/test_micro_engine_vs_minimal_heap_kernel.txt``,
    pass or fail."""
    ours = min(_mixed_program(SimulationEngine()) for _ in range(7))
    minimal = min(_mixed_program(_MinimalKernel()) for _ in range(7))
    reading = (f"SimulationEngine {ours * 1e6:.3f} us/event vs minimal heap "
               f"kernel {minimal * 1e6:.3f} us/event = {ours / minimal:.2f}x "
               f"(bound 1.5x)")
    emit(reading)  # kept whether or not the bound holds
    assert ours <= 1.5 * minimal, reading


@pytest.mark.benchmark(group="micro")
def test_micro_process_switch_throughput(benchmark):
    """Cost of 10k generator-process resumptions."""

    def run():
        engine = SimulationEngine()

        def proc():
            for _ in range(10_000):
                yield engine.timeout(0.001)

        engine.process(proc())
        engine.run()
        return engine.now

    benchmark(run)


@pytest.mark.benchmark(group="micro")
def test_micro_bus_round_trips(benchmark):
    """1000 request/reply round trips over the latency-modelled bus."""

    def run():
        engine = SimulationEngine()
        fabric = Fabric(RngHub(0).stream("f"))
        fabric.add_platform(DELTA)
        bus = MessageBus(engine, fabric, IdRegistry())
        server = bus.bind("svc", platform="delta")
        server.handle_with(lambda m: server.reply(m, m.payload))
        client = bus.connect(platform="delta")

        def requester():
            for i in range(1000):
                yield client.request(server.address, i)

        engine.process(requester())
        engine.run()
        return bus.delivered_count

    delivered = benchmark(run)
    assert delivered == 2000


@pytest.mark.benchmark(group="micro")
def test_micro_scheduler_grant_release(benchmark):
    """1000 schedule/release cycles on a 16-node pilot."""

    def run():
        with Session(seed=0) as session:
            nodes = NodeList.build(16, cores=64, gpus=4, mem_gb=256)
            sched = AgentScheduler(session, nodes, "pilot.micro")
            landed = []
            for i in range(1000):
                task = Task(session, TaskDescription(
                    executable="x", cores_per_rank=8, gpus_per_rank=1),
                    f"t{i}")
                sched.schedule(task, landed.append)
                session.run()
                assert landed[-1] is task
                sched.release(task)
            return len(nodes)

    benchmark(run)


@pytest.mark.benchmark(group="micro")
def test_micro_mlp_fit(benchmark):
    """One small MLP training run (the HPO trial payload)."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(256, 10))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)

    def run():
        model = MLPClassifier(MLPConfig(hidden=32, epochs=12, seed=1))
        model.fit(X, y)
        return model.score(X, y)

    accuracy = benchmark(run)
    assert accuracy > 0.75


@pytest.mark.benchmark(group="micro")
def test_micro_markov_generation(benchmark):
    """256-token completion from the synthetic LLM."""
    generator = default_generator()
    rng = RngHub(3).stream("gen")

    def run():
        return generator.generate("hybrid workflows", 256, rng)

    text = benchmark(run)
    assert len(text.split()) == 256


@pytest.mark.benchmark(group="micro")
def test_micro_llama_cost_model(benchmark):
    """Full backend inference (cost model + text generation)."""
    model = LlamaModel()
    rng = RngHub(4).stream("llm")

    def run():
        _, span = model.infer_batch(["the scheduler"], rng,
                                    [{"max_tokens": 128}])
        return span

    duration = benchmark(run)
    assert duration > 0
