"""The three benchmark workloads, each driven through the public DFI API.

Every workload has three parts:

* ``make_inputs(seed)`` builds every input from the seed alone, before
  any timing starts (equal seeds give equal inputs);
* ``run_pass(inputs, seed)`` builds a fresh ``Cluster(seed=seed)``,
  declares the flow, opens every endpoint, and runs the flow to
  completion. Each simulated thread waits on a gate after its ``open_*``
  returns; the gate opens when the last endpoint is open, so the timed
  region (gate to completion) holds no set-up work and the set-up region
  (start to gate) holds no flow work;
* ``reference(inputs)`` derives once what a correct pass delivers, and
  ``check(reference, outputs)`` judges each pass with ``checks.py``.

A pass returns a :class:`PassResult`: the op count, the host seconds of
the timed region, the raw outputs, and the exact tallies of the
per-layer table. All workloads run in one process and one OS thread.
"""

from __future__ import annotations

import random
import signal
import time
from dataclasses import dataclass, field

import checks
from repro.common.config import DEFAULT_HARDWARE
from repro.common.errors import FlowError
from repro.core import (
    FLOW_END,
    AggregationSpec,
    DfiRuntime,
    Endpoint,
    FlowOptions,
    Optimization,
    Ordering,
    Schema,
)
from repro.obs import analyze_cluster
from repro.simnet import Cluster, CongestionConfig

#: Host seconds a pass may take before it counts as hung and fails.
PASS_BUDGET_S = 60.0


@dataclass
class PassResult:
    """One pass of one workload."""

    ops: int
    setup_end: float              # perf_counter() when the gate opened
    timed_s: float = 0.0          # host seconds, gate to completion
    outputs: dict = field(default_factory=dict)
    tallies: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)   # raised Flow*Errors
    analyze_s: float = 0.0        # host seconds of analyze_cluster


class _Gate:
    """Simulated barrier: every thread calls :meth:`wait` right after its
    ``open_*`` returns; the last arrival stamps host time and releases
    the others."""

    def __init__(self, env, parties: int) -> None:
        self.event = env.event()
        self.parties = parties
        self.arrived = 0
        self.host_time = None

    def wait(self):
        self.arrived += 1
        if self.arrived == self.parties:
            self.host_time = time.perf_counter()
            self.event.succeed()
        else:
            yield self.event


def _shuffle_segments(sources) -> int:
    """Segments the channels of shuffle source endpoints sent."""
    return sum(channel.segments_sent
               for source in sources for channel in source._channels)


class Workload:
    """Interface shared by the workloads (see the module docstring)."""

    name = ""
    #: Tuples pushed through a flow per op (the base of
    #: ``schema.ns_per_tuple``).
    tuples_per_op = 1

    def make_inputs(self, seed: int):
        raise NotImplementedError

    def op_count(self, inputs) -> int:
        raise NotImplementedError

    def run_pass(self, inputs, seed: int, setup_only: bool = False,
                 profiler=None, budget_s: float = PASS_BUDGET_S
                 ) -> PassResult:
        """One pass. ``inputs`` may be ``None`` when ``setup_only``;
        ``profiler`` is enabled for the timed region only; a timed region
        longer than ``budget_s`` host seconds is cut and fails."""
        raise NotImplementedError

    def reference(self, inputs):
        """What a correct pass delivers, derived from the inputs alone."""
        return inputs

    def check(self, reference, outputs) -> list[str]:
        raise NotImplementedError


class ShuffleBulk(Workload):
    """1 source thread -> 8 targets, bandwidth shuffle, 64 B tuples
    ``(key u64, pad 56 B)`` hashed on the key, ``push_batch`` of 1024 /
    ``consume_batch``. One op is one tuple delivered."""

    name = "shuffle_bulk"
    TARGETS = 8
    TUPLES = 1 << 16
    BATCH = 1024
    KEY_SPACE = 1 << 16
    PAD_POOL = 1024
    SCHEMA = (("key", "uint64"), ("pad", 56))

    def make_inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        pads = [rng.randbytes(56) for _ in range(self.PAD_POOL)]
        tuples = [(rng.randrange(self.KEY_SPACE),
                   pads[rng.randrange(self.PAD_POOL)])
                  for _ in range(self.TUPLES)]
        return [tuples[start:start + self.BATCH]
                for start in range(0, len(tuples), self.BATCH)]

    def op_count(self, inputs):
        return sum(len(batch) for batch in inputs)

    def run_pass(self, inputs, seed, setup_only=False, profiler=None,
                 budget_s=PASS_BUDGET_S):
        cluster = Cluster(node_count=1 + self.TARGETS, seed=seed)
        dfi = DfiRuntime(cluster)
        dfi.init_shuffle_flow(
            "bulk", [Endpoint(0, 0)],
            [Endpoint(1 + n, 0) for n in range(self.TARGETS)],
            Schema(*self.SCHEMA), shuffle_key="key",
            optimization=Optimization.BANDWIDTH)
        gate = _Gate(cluster.env, 1 + self.TARGETS)
        received = [[] for _ in range(self.TARGETS)]
        sources = []
        errors = []

        def source_thread():
            source = yield from dfi.open_source("bulk", 0)
            sources.append(source)
            yield from gate.wait()
            try:
                for batch in inputs:
                    yield from source.push_batch(batch)
                yield from source.close()
            except FlowError as exc:
                errors.append(f"source: {exc!r}")

        def target_thread(index):
            target = yield from dfi.open_target("bulk", index)
            yield from gate.wait()
            out = received[index]
            try:
                while (batch := (yield from target.consume_batch())) \
                        is not FLOW_END:
                    out.extend(batch)
            except FlowError as exc:
                errors.append(f"target {index}: {exc!r}")

        cluster.node(0).spawn(source_thread())
        for n in range(self.TARGETS):
            cluster.node(1 + n).spawn(target_thread(n))
        result = _run(cluster, gate, setup_only, profiler, budget_s,
                      errors)
        if not setup_only:
            result.ops = sum(len(out) for out in received)
            result.outputs = {"received": received}
            result.tallies.update({
                "core.segments": _shuffle_segments(sources),
                "core.retransmits": 0})
        return result

    def reference(self, inputs):
        return checks.shuffle_reference(inputs)

    def check(self, reference, outputs):
        return checks.check_shuffle(reference, outputs["received"])


class ReplicatedRpc(Workload):
    """Closed loop: 2 client threads (one request in flight each) issue
    16 B requests ``(rid u64, payload u64)`` over a latency replicate
    flow with switch multicast and global ordering to 4 replica threads;
    each replica answers ``(rid, payload ^ replica)`` to the issuing
    client over a latency shuffle with direct routing. One op is one
    request whose 4 responses all reached its client."""

    name = "replicated_rpc"
    tuples_per_op = 5            # one request + four responses
    PROFILE = DEFAULT_HARDWARE
    CLIENTS = 2
    REPLICAS = 4
    REQUESTS_PER_CLIENT = 512
    SCHEMA = (("rid", "uint64"), ("value", "uint64"))

    def make_inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        return [[((client << 32) | seq, rng.getrandbits(64))
                 for seq in range(self.REQUESTS_PER_CLIENT)]
                for client in range(self.CLIENTS)]

    def op_count(self, inputs):
        return sum(len(requests) for requests in inputs)

    def run_pass(self, inputs, seed, setup_only=False, profiler=None,
                 budget_s=PASS_BUDGET_S):
        clients, replicas = self.CLIENTS, self.REPLICAS
        cluster = Cluster(node_count=clients + replicas,
                          profile=self.PROFILE, seed=seed)
        dfi = DfiRuntime(cluster)
        schema = Schema(*self.SCHEMA)
        client_nodes = range(clients)
        replica_nodes = range(clients, clients + replicas)
        dfi.init_replicate_flow(
            "req", [Endpoint(c, 0) for c in client_nodes],
            [Endpoint(r, 0) for r in replica_nodes], schema,
            optimization=Optimization.LATENCY, ordering=Ordering.GLOBAL,
            options=FlowOptions(multicast=True))
        dfi.init_shuffle_flow(
            "resp", [Endpoint(r, 1) for r in replica_nodes],
            [Endpoint(c, 1) for c in client_nodes], schema,
            optimization=Optimization.LATENCY)
        gate = _Gate(cluster.env, clients + replicas)
        delivered = [[] for _ in range(replicas)]
        responses = [[] for _ in range(clients)]
        completed = [0] * clients
        req_sources, resp_sources = [], []
        errors = []

        def client_thread(index):
            response_target = yield from dfi.open_target("resp", index)
            request_source = yield from dfi.open_source("req", index)
            req_sources.append(request_source)
            yield from gate.wait()
            got = responses[index]
            try:
                for request in inputs[index]:
                    yield from request_source.push(request)
                    answers = []
                    while len(answers) < replicas:
                        answer = yield from response_target.consume()
                        if answer is FLOW_END:
                            raise FlowError("response flow ended early")
                        answers.append(answer)
                    got.append(answers)
                    completed[index] += 1
                yield from request_source.close()
                while (extra := (yield from response_target.consume())) \
                        is not FLOW_END:
                    got.append([extra])
            except FlowError as exc:
                errors.append(f"client {index}: {exc!r}")

        def replica_thread(index):
            request_target = yield from dfi.open_target("req", index)
            response_source = yield from dfi.open_source("resp", index)
            resp_sources.append(response_source)
            yield from gate.wait()
            log = delivered[index]
            try:
                while (request := (yield from request_target.consume())) \
                        is not FLOW_END:
                    rid, value = request
                    log.append(rid)
                    yield from response_source.push(
                        (rid, value ^ index), target=rid >> 32)
                yield from response_source.close()
            except FlowError as exc:
                errors.append(f"replica {index}: {exc!r}")

        for c in client_nodes:
            cluster.node(c).spawn(client_thread(c))
        for i, r in enumerate(replica_nodes):
            cluster.node(r).spawn(replica_thread(i))
        result = _run(cluster, gate, setup_only, profiler, budget_s,
                      errors)
        if not setup_only:
            result.ops = sum(completed)
            result.outputs = {"delivered": delivered,
                              "responses": responses}
            result.tallies.update({
                "core.segments": (
                    sum(source.segments_sent for source in req_sources)
                    + _shuffle_segments(resp_sources)),
                "core.retransmits": sum(source.retransmissions
                                        for source in req_sources)})
        return result

    def check(self, reference, outputs):
        return checks.check_rpc(reference, outputs["delivered"],
                                outputs["responses"], self.REPLICAS)


class IncastCombine(Workload):
    """8 sender nodes -> 1 combiner target, SUM over 1024 groups, 64 B
    tuples ``(group u64, value u64, pad 48 B)`` pushed one at a time,
    under ``CongestionConfig.datacenter()`` with causal observability on;
    the timed region ends with ``analyze_cluster``. One op is one tuple
    folded at the target."""

    name = "incast_combine"
    SENDERS = 8
    TUPLES_PER_SENDER = 1 << 13
    GROUPS = 1024
    PAD_POOL = 256
    SCHEMA = (("group", "uint64"), ("value", "uint64"), ("pad", 48))

    def make_inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        pads = [rng.randbytes(48) for _ in range(self.PAD_POOL)]
        return [[(rng.randrange(self.GROUPS), rng.randrange(1 << 16),
                  pads[rng.randrange(self.PAD_POOL)])
                 for _ in range(self.TUPLES_PER_SENDER)]
                for _ in range(self.SENDERS)]

    def op_count(self, inputs):
        return sum(len(tuples) for tuples in inputs)

    def run_pass(self, inputs, seed, setup_only=False, profiler=None,
                 budget_s=PASS_BUDGET_S):
        senders = self.SENDERS
        cluster = Cluster(node_count=1 + senders, seed=seed)
        cluster.enable_observability(causal=True)
        dfi = DfiRuntime(cluster)
        dfi.init_combiner_flow(
            "incast", [Endpoint(1 + n, 0) for n in range(senders)],
            Endpoint(0, 0), Schema(*self.SCHEMA),
            aggregation=AggregationSpec("sum", group_by="group",
                                        value="value"),
            options=FlowOptions(congestion=CongestionConfig.datacenter()))
        gate = _Gate(cluster.env, 1 + senders)
        outputs = {"aggregates": None, "report": None}
        folded = []
        sources = []
        errors = []

        def sender_thread(index):
            source = yield from dfi.open_source("incast", index)
            sources.append(source)
            yield from gate.wait()
            try:
                for values in inputs[index]:
                    yield from source.push(values)
                yield from source.close()
            except FlowError as exc:
                errors.append(f"sender {index}: {exc!r}")

        def target_thread():
            target = yield from dfi.open_target("incast")
            yield from gate.wait()
            try:
                outputs["aggregates"] = yield from target.consume_all()
                folded.append(target.tuples_aggregated)
            except FlowError as exc:
                errors.append(f"target: {exc!r}")

        def analyze(result):
            start = time.perf_counter()
            outputs["report"] = analyze_cluster(cluster, "incast")
            result.analyze_s = time.perf_counter() - start

        for n in range(senders):
            cluster.node(1 + n).spawn(sender_thread(n))
        cluster.node(0).spawn(target_thread())
        result = _run(cluster, gate, setup_only, profiler, budget_s,
                      errors, epilogue=analyze)
        if not setup_only:
            result.ops = sum(folded)
            result.outputs = outputs
            result.tallies.update({
                "core.segments": _shuffle_segments(sources),
                "core.retransmits": 0})
        return result

    def reference(self, inputs):
        return checks.expected_sums(inputs)

    def check(self, reference, outputs):
        return checks.check_incast(reference, outputs["aggregates"],
                                   outputs["report"])


def _tallies(cluster: Cluster) -> dict:
    """Exact simulated tallies of a finished pass, from public surfaces:
    the kernel's event counter and the NIC, link, congestion and causal
    sections of ``metrics_snapshot()``."""
    snapshot = cluster.metrics_snapshot()
    nics = snapshot["nics"].values()
    congestion = snapshot.get("congestion", {})
    causal = snapshot.get("causal", {})
    return {
        "simnet.events": cluster.env.events_executed,
        "simnet.sim_ns": cluster.now,
        "simnet.hol_wait_ns": sum(link["hol_wait_ns"]
                                  for link in snapshot["links"].values()),
        "simnet.congestion.ecn_marks": congestion.get("ecn_marks", 0),
        "simnet.congestion.pfc_stalls": congestion.get("pfc_stalls", 0),
        "rdma.wqes": sum(nic["wqes_processed"] for nic in nics),
        "rdma.bytes_posted": sum(nic["bytes_posted"] for nic in nics),
        "rdma.doorbell_trains": sum(nic["doorbell_trains"] for nic in nics),
        "rdma.engine_wait_ns": sum(nic["engine_wait_ns"] for nic in nics),
        "obs.causal_edges": causal.get("edges", 0),
        "obs.causal_dropped": sum(causal.get("dropped", {}).values()),
    }


class _OverBudget(BaseException):
    """Raised by the pass watchdog (a ``BaseException`` so no handler in
    the simulated threads swallows it)."""


def _over_budget(_signum, _frame):
    raise _OverBudget


def _run(cluster, gate, setup_only, profiler, budget_s, errors,
         epilogue=None) -> PassResult:
    """Run to the gate (set-up), then to completion (the timed region,
    which ends after ``epilogue``). A watchdog cuts a timed region that
    runs past ``budget_s`` host seconds; the pass then carries an error."""
    cluster.run(until=gate.event)
    if gate.host_time is None:
        raise RuntimeError("the simulation ended before every endpoint "
                           "opened")
    result = PassResult(ops=0, setup_end=gate.host_time, errors=errors)
    if setup_only:
        return result
    previous = signal.signal(signal.SIGALRM, _over_budget)
    # Re-arms every second in case the first alarm lands inside a
    # simulated thread, whose failure the kernel re-raises later.
    signal.setitimer(signal.ITIMER_REAL, budget_s, 1.0)
    if profiler is not None:
        profiler.enable()
    try:
        cluster.run()
        if epilogue is not None:
            epilogue(result)
    except _OverBudget:
        errors.append(f"not complete after {budget_s} s of host time; "
                      f"simulated clock at {cluster.now:.0f} ns")
    finally:
        if profiler is not None:
            profiler.disable()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    result.timed_s = time.perf_counter() - gate.host_time
    result.tallies = _tallies(cluster)
    return result


WORKLOADS = {workload.name: workload
             for workload in (ShuffleBulk(), ReplicatedRpc(),
                              IncastCombine())}
