"""Memory stability of long-running clusters cycling many flows.

A 256-1024-node serving cluster opens and closes flows continuously; the
per-cluster stores (flow registry, NIC region tables, fabric caches,
kernel timer pool) must reach a steady state instead of growing per
flow. ``FlowRegistry.release_flow`` is the lifecycle hook under test.
"""

import pytest

from repro.common.errors import MemoryRegionError, RegistryError
from repro.core import (
    FLOW_END,
    DfiRuntime,
    Endpoint,
    FlowOptions,
    Ordering,
    Schema,
)
from repro.rdma.nic import get_nic
from repro.simnet import Cluster
from repro.simnet.kernel import _TIMEOUT_POOL_CAP

_SCHEMA = Schema(("key", "uint64"), ("pad", 24))
_PAD = b"p" * 24


def _run_shuffle_cycle(dfi, cluster, name, tuples=64):
    """One full flow lifetime: init, open, transfer, close."""
    dfi.init_shuffle_flow(name, [Endpoint(0, 0)],
                          [Endpoint(1, 0), Endpoint(2, 0)], _SCHEMA,
                          shuffle_key="key",
                          options=FlowOptions(source_segments=2,
                                              target_segments=4,
                                              credit_threshold=2))

    def source_thread():
        source = yield from dfi.open_source(name, 0)
        for i in range(tuples):
            yield from source.push((i * 2654435761, _PAD))
        yield from source.close()

    def target_thread(index, node_id):
        target = yield from dfi.open_target(name, index)
        while (yield from target.consume()) is not FLOW_END:
            pass

    cluster.node(0).spawn(source_thread())
    cluster.node(1).spawn(target_thread(0, 1))
    cluster.node(2).spawn(target_thread(1, 2))
    cluster.run()


def _footprint(cluster, registry):
    return {
        "flows": len(registry._flows),
        "rings": len(registry._rings),
        "ring_signals": len(registry._ring_signals),
        "sequencers": len(registry._sequencers),
        "backchannel": len(registry._backchannel),
        "backchannel_signals": len(registry._backchannel_signals),
        "ready": len(registry._ready_targets) + len(registry._ready_signals),
        "regions": [len(get_nic(node)._regions) for node in cluster.nodes],
        "region_bytes": [get_nic(node).registered_bytes()
                         for node in cluster.nodes],
    }


def test_flow_cycle_memory_reaches_steady_state():
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    registry = dfi.registry

    _run_shuffle_cycle(dfi, cluster, "cycle0")
    held = _footprint(cluster, registry)
    assert held["flows"] == 1 and held["rings"] == 2
    assert sum(held["regions"]) > 0

    registry.release_flow("cycle0")
    steady = _footprint(cluster, registry)
    # Everything name-keyed is gone and the ring/credit regions behind
    # the published handles were deregistered from the target NICs.
    assert steady["flows"] == steady["rings"] == 0
    assert steady["ring_signals"] == steady["backchannel"] == 0
    assert steady["backchannel_signals"] == steady["ready"] == 0
    assert sum(steady["regions"]) < sum(held["regions"])
    assert sum(steady["region_bytes"]) < sum(held["region_bytes"])

    # Repeated cycles on the SAME cluster: the footprint after every
    # release is identical to the first — no per-flow residue anywhere.
    for cycle in range(1, 5):
        _run_shuffle_cycle(dfi, cluster, f"cycle{cycle}")
        registry.release_flow(f"cycle{cycle}")
        assert _footprint(cluster, registry) == steady, f"cycle {cycle}"
    # Released names become reusable.
    _run_shuffle_cycle(dfi, cluster, "cycle0")
    registry.release_flow("cycle0")
    assert _footprint(cluster, registry) == steady


def _run_batched_cycle(dfi, cluster, name, batches=8, batch=1024):
    """One flow lifetime pushed in full-segment batches so steady-state
    flushes ride the fused macro-event fast path."""
    dfi.init_shuffle_flow(name, [Endpoint(0, 0)],
                          [Endpoint(1, 0), Endpoint(2, 0)], _SCHEMA,
                          shuffle_key="key", options=FlowOptions())

    def source_thread():
        source = yield from dfi.open_source(name, 0)
        for b in range(batches):
            yield from source.push_batch(
                [(i * 2654435761, _PAD)
                 for i in range(b * batch, (b + 1) * batch)])
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target(name, index)
        while (yield from target.consume_batch()) is not FLOW_END:
            pass

    cluster.node(0).spawn(source_thread())
    cluster.node(1).spawn(target_thread(0))
    cluster.node(2).spawn(target_thread(1))
    cluster.run()


def test_fastpath_macro_pool_steady_over_flow_cycles():
    """Five fast-path flow cycles on one cluster: the registry/NIC
    footprint is identical after every release and the kernel's recycled
    MacroEvent pool reaches a steady bounded size instead of growing."""
    from repro.common import config
    from repro.simnet.kernel import _MACRO_POOL_CAP

    saved = config.FASTPATH_ENABLED
    config.FASTPATH_ENABLED = True
    try:
        cluster = Cluster(node_count=3)
        dfi = DfiRuntime(cluster)
        registry = dfi.registry

        _run_batched_cycle(dfi, cluster, "fp0")
        # The fused path actually ran: macro records were scheduled,
        # executed, and recycled into the pool.
        assert cluster.env._macro_pool, "fast path never scheduled a macro"
        registry.release_flow("fp0")
        steady = _footprint(cluster, registry)
        pool_sizes = [len(cluster.env._macro_pool)]
        for cycle in range(1, 5):
            _run_batched_cycle(dfi, cluster, f"fp{cycle}")
            registry.release_flow(f"fp{cycle}")
            assert _footprint(cluster, registry) == steady, f"cycle {cycle}"
            pool_sizes.append(len(cluster.env._macro_pool))
        assert max(pool_sizes) <= _MACRO_POOL_CAP
        # Identical workloads recycle into an identical pool: the record
        # count settles after the first cycle rather than creeping up.
        assert len(set(pool_sizes[1:])) == 1, pool_sizes
    finally:
        config.FASTPATH_ENABLED = saved


def test_release_flow_drops_sequencer_region():
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    master_nic = get_nic(cluster.node(0))
    before = len(master_nic._regions)
    dfi.init_replicate_flow("ordered", [Endpoint(0, 0)],
                            [Endpoint(1, 0), Endpoint(2, 0)], _SCHEMA,
                            ordering=Ordering.GLOBAL)
    assert len(master_nic._regions) == before + 1  # the u64 counter
    handle = dfi.registry.sequencer("ordered")
    dfi.registry.release_flow("ordered")
    assert len(master_nic._regions) == before
    with pytest.raises(MemoryRegionError):
        master_nic.region(handle.rkey)


def test_release_flow_lifecycle_errors():
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    registry = dfi.registry
    with pytest.raises(RegistryError):
        registry.release_flow("never-existed")
    _run_shuffle_cycle(dfi, cluster, "once")
    registry.release_flow("once")
    with pytest.raises(RegistryError):  # double release is a bug, not a no-op
        registry.release_flow("once")


def test_nic_deregister_unknown_rkey_raises():
    cluster = Cluster(node_count=1)
    nic = get_nic(cluster.node(0))
    region = nic.register_memory(128)
    nic.deregister_memory(region.rkey)
    with pytest.raises(MemoryRegionError):
        nic.deregister_memory(region.rkey)


def test_fabric_loopback_cache_bounded_by_node_count():
    from repro.bench.flows import run_shuffle_mesh

    # The mesh includes same-node channels (source i -> target i), so the
    # loopback serialization cache is exercised on every node — and must
    # hold at most one entry per node, however much traffic flowed.
    result = run_shuffle_mesh(2, 4, tuples_per_source=64)
    cluster = result["cluster"]
    assert 0 < len(cluster.fabric._loopback_last) <= cluster.node_count


def test_timeout_pool_stays_capped():
    from repro.bench.flows import run_shuffle_mesh

    result = run_shuffle_mesh(1, 4, tuples_per_source=128)
    env = result["cluster"].env
    assert len(env._timeout_pool) <= _TIMEOUT_POOL_CAP
