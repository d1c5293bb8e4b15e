"""Integration tests for replicate flows: naive, multicast, ordered, lossy."""

import pytest

from repro.common import HardwareProfile
from repro.common.errors import FlowError
from repro.core import (
    FLOW_END,
    DfiRuntime,
    FlowOptions,
    GapNotification,
    Optimization,
    Ordering,
    Schema,
)
from repro.simnet import Cluster

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))


def run_replicate(node_count=4, sources=1, targets=3, n=200,
                  optimization=Optimization.BANDWIDTH,
                  ordering=Ordering.NONE, multicast=False, loss=0.0,
                  seed=1, options_extra=None):
    profile = HardwareProfile(multicast_loss_probability=loss)
    cluster = Cluster(node_count=node_count, profile=profile, seed=seed)
    dfi = DfiRuntime(cluster)
    options = FlowOptions(multicast=multicast, retransmit_timeout=20_000,
                          **(options_extra or {}))
    dfi.init_replicate_flow(
        "rep",
        sources=[f"node0|{t}" for t in range(sources)],
        targets=[f"node{i + 1}|0" for i in range(targets)],
        schema=SCHEMA, optimization=optimization, ordering=ordering,
        options=options)
    received = {i: [] for i in range(targets)}
    source_stats = {}

    def source_thread(index):
        source = yield from dfi.open_source("rep", index)
        for i in range(n):
            yield from source.push((index * 10 ** 6 + i, i))
        yield from source.close()
        source_stats[index] = source

    def target_thread(index):
        target = yield from dfi.open_target("rep", index)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                return
            received[index].append(item)

    for s in range(sources):
        cluster.env.process(source_thread(s))
    for t in range(targets):
        cluster.env.process(target_thread(t))
    cluster.run()
    return cluster, received, source_stats


def test_naive_every_target_gets_every_tuple():
    _c, received, _s = run_replicate()
    expected = [(i, i) for i in range(200)]
    for rows in received.values():
        assert rows == expected


def test_naive_latency_mode():
    _c, received, _s = run_replicate(optimization=Optimization.LATENCY, n=80)
    for rows in received.values():
        assert rows == [(i, i) for i in range(80)]


def test_naive_uplink_carries_n_copies():
    """The bottleneck the paper shows in Fig. 8a: N writes on the uplink."""
    cluster, received, _s = run_replicate(targets=3, n=600)
    source_node = cluster.node(0)
    payload_total = sum(len(rows) for rows in received.values()) * 16
    assert source_node.uplink.bytes_carried >= payload_total


def test_multicast_single_uplink_copy():
    """With multicast, the uplink carries each segment exactly once."""
    cluster, received, _s = run_replicate(multicast=True, targets=3, n=600)
    for rows in received.values():
        assert sorted(rows) == [(i, i) for i in range(600)]
    uplink = cluster.node(0).uplink.bytes_carried
    received_total = sum(
        node.downlink.bytes_carried for node in cluster.nodes[1:])
    assert received_total >= 2.5 * uplink  # replicated in the switch


def test_naive_global_ordering_multiple_sources():
    _c, received, _s = run_replicate(sources=3, ordering=Ordering.GLOBAL,
                                     n=100)
    assert received[0] == received[1] == received[2]
    assert len(received[0]) == 300


def test_multicast_global_ordering_multiple_sources():
    _c, received, _s = run_replicate(sources=2, multicast=True,
                                     ordering=Ordering.GLOBAL, n=150)
    assert received[0] == received[1] == received[2]
    assert len(received[0]) == 300


def test_multicast_with_loss_recovers_all_tuples():
    """Loss injection forces NACK-driven retransmissions."""
    cluster, received, stats = run_replicate(
        multicast=True, loss=0.05, n=400,
        optimization=Optimization.LATENCY, seed=9)
    for rows in received.values():
        assert sorted(rows) == [(i, i) for i in range(400)]
    assert cluster.fabric.multicast_drops > 0
    assert stats[0].retransmissions > 0


def test_multicast_ordered_with_loss_keeps_global_order():
    cluster, received, _s = run_replicate(
        multicast=True, loss=0.03, ordering=Ordering.GLOBAL,
        optimization=Optimization.LATENCY, n=300, seed=5)
    assert received[0] == received[1] == received[2]
    assert len(received[0]) == 300
    assert cluster.fabric.multicast_drops > 0


def test_multicast_deterministic_given_seed():
    def run_once():
        cluster, received, _s = run_replicate(
            multicast=True, loss=0.05, n=150,
            optimization=Optimization.LATENCY, seed=21)
        return cluster.now, received

    t1, r1 = run_once()
    t2, r2 = run_once()
    assert t1 == t2
    assert r1 == r2


def test_gap_notify_surfaces_gap_to_application():
    """gap_notify mode: the application sees a GapNotification instead of
    a transparent retransmission (the NOPaxos hook)."""
    profile = HardwareProfile(multicast_loss_probability=0.2)
    cluster = Cluster(node_count=3, profile=profile, seed=13)
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "rep", sources=["node0|0"], targets=["node1|0", "node2|0"],
        schema=SCHEMA, optimization=Optimization.LATENCY,
        ordering=Ordering.GLOBAL,
        options=FlowOptions(multicast=True, gap_notify=True,
                            retransmit_timeout=10_000))
    outcomes = {0: [], 1: []}
    gaps = {0: 0, 1: 0}

    def source_thread(env):
        source = yield from dfi.open_source("rep", 0)
        for i in range(200):
            yield from source.push((i, i))
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("rep", index)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                return
            if isinstance(item, GapNotification):
                gaps[index] += 1
                target.skip_gap(item.missing_seq)
                continue
            outcomes[index].append(item)

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(0))
    cluster.env.process(target_thread(1))
    cluster.run()
    assert gaps[0] + gaps[1] > 0  # losses surfaced as gaps
    # Delivered tuples stay a subsequence of the pushed order.
    for rows in outcomes.values():
        keys = [k for k, _v in rows]
        assert keys == sorted(keys)
        assert len(rows) < 200  # skipped gaps mean missing tuples


def test_skip_gap_on_unordered_flow_requires_source():
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "rep", sources=["node0|0"], targets=["node1|0"], schema=SCHEMA,
        options=FlowOptions(multicast=True))
    holder = {}

    def target_thread(env):
        target = yield from dfi.open_target("rep", 0)
        holder["target"] = target
        while (yield from target.consume()) is not FLOW_END:
            pass

    def source_thread(env):
        source = yield from dfi.open_source("rep", 0)
        yield from source.close()

    cluster.env.process(target_thread(cluster.env))
    cluster.env.process(source_thread(cluster.env))
    cluster.run()
    with pytest.raises(FlowError, match="source_index"):
        holder["target"].skip_gap(0)


def test_replicate_descriptor_validations():
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    with pytest.raises(Exception, match="routing"):
        from repro.core import FlowDescriptor, FlowType, Endpoint
        FlowDescriptor(name="bad", flow_type=FlowType.REPLICATE,
                       sources=(Endpoint(0, 0),), targets=(Endpoint(1, 0),),
                       schema=SCHEMA, shuffle_key="key")


def test_open_replicate_on_shuffle_flow_rejected():
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("shuf", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key")
    from repro.core.replicate import NaiveReplicateSource

    def bad(env):
        yield from NaiveReplicateSource.open(dfi.registry, "shuf", 0)

    cluster.env.process(bad(cluster.env))
    with pytest.raises(FlowError, match="not replicate"):
        cluster.run()


def _closed_loop_rpc(loss, seed, clients=2, replicas=4, requests=32):
    """Clients issue one ordered multicast request at a time and wait for
    every replica's answer before the next, so a source sits idle while
    its requests are in flight. Runs under a simulated-time guard and
    returns what each replica delivered plus the request sources."""
    profile = HardwareProfile(multicast_loss_probability=loss)
    cluster = Cluster(node_count=clients + replicas, profile=profile,
                      seed=seed)
    dfi = DfiRuntime(cluster)
    replica_nodes = range(clients, clients + replicas)
    dfi.init_replicate_flow(
        "req", [f"node{c}|0" for c in range(clients)],
        [f"node{r}|0" for r in replica_nodes], SCHEMA,
        optimization=Optimization.LATENCY, ordering=Ordering.GLOBAL,
        options=FlowOptions(multicast=True))
    dfi.init_shuffle_flow(
        "resp", [f"node{r}|1" for r in replica_nodes],
        [f"node{c}|1" for c in range(clients)], SCHEMA,
        optimization=Optimization.LATENCY)
    delivered = [[] for _ in range(replicas)]
    completed = [0] * clients
    sources = []

    def client_thread(index):
        answers = yield from dfi.open_target("resp", index)
        source = yield from dfi.open_source("req", index)
        sources.append(source)
        for seq in range(requests):
            yield from source.push(((index << 32) | seq, seq))
            for _ in range(replicas):
                assert (yield from answers.consume()) is not FLOW_END
            completed[index] += 1
        yield from source.close()
        assert (yield from answers.consume()) is FLOW_END

    def replica_thread(index):
        requests_in = yield from dfi.open_target("req", index)
        answers_out = yield from dfi.open_source("resp", index)
        while (request := (yield from requests_in.consume())) \
                is not FLOW_END:
            delivered[index].append(request[0])
            yield from answers_out.push(request, target=request[0] >> 32)
        yield from answers_out.close()

    for client in range(clients):
        cluster.node(client).spawn(client_thread(client))
    for index, node_id in enumerate(replica_nodes):
        cluster.node(node_id).spawn(replica_thread(index))
    cluster.run(until=1e9)  # 1 s simulated; lossless finishes in ~0.1 ms
    return completed, delivered, sources


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_idle_multicast_source_answers_nacks(seed):
    """A closed-loop source is idle while its client waits for replies;
    a NACK landing then must still trigger the retransmission, or the
    ordered flow stalls behind the lost request forever."""
    clients, replicas, requests = 2, 4, 32
    completed, delivered, sources = _closed_loop_rpc(
        loss=3e-2, seed=seed, clients=clients, replicas=replicas,
        requests=requests)
    assert completed == [requests] * clients
    expected = sorted((c << 32) | s for c in range(clients)
                      for s in range(requests))
    assert sorted(delivered[0]) == expected  # each request exactly once
    assert all(log == delivered[0] for log in delivered)  # one order
    assert sum(source.retransmissions for source in sources) > 0
