"""Batched push paths: ``push_batch`` / ``push_bytes`` correctness.

The batched APIs are wall-clock optimizations — they must deliver exactly
the same tuples to exactly the same targets as one-by-one pushes, stay
deterministic across same-seed runs, and reject malformed input.
"""

import pytest

from repro.common.errors import FlowError
from repro.core import (
    FLOW_END,
    DfiRuntime,
    Endpoint,
    Optimization,
    Schema,
)
from repro.core.routing import key_hash_router, radix_router
from repro.simnet import Cluster

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))


def build(node_count, seed=0):
    cluster = Cluster(node_count=node_count, seed=seed)
    return cluster, DfiRuntime(cluster)


def run_flow(cluster, dfi, name, source_fn):
    descriptor = dfi.registry.descriptor(name)
    received = {i: [] for i in range(descriptor.target_count)}

    def source_thread(index):
        source = yield from dfi.open_source(name, index)
        yield from source_fn(source, index)
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target(name, index)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                return
            received[index].append(item)

    for s in range(descriptor.source_count):
        cluster.env.process(source_thread(s))
    for t in range(descriptor.target_count):
        cluster.env.process(target_thread(t))
    cluster.run()
    return received


TUPLES = [(i * 7919 + 3, i) for i in range(700)]


def _per_tuple(source, _index):
    for values in TUPLES:
        yield from source.push(values)


def _batched(source, _index):
    for start in range(0, len(TUPLES), 100):
        yield from source.push_batch(TUPLES[start:start + 100])


# -- equivalence with per-tuple pushes -----------------------------------

@pytest.mark.parametrize("optimization",
                         [Optimization.BANDWIDTH, Optimization.LATENCY])
def test_push_batch_matches_per_tuple_delivery(optimization):
    _assert_batch_matches_per_tuple(optimization, 3)


@pytest.mark.parametrize("targets", [1, 8])
def test_push_batch_matches_per_tuple_delivery_fan_out(targets):
    _assert_batch_matches_per_tuple(Optimization.BANDWIDTH, targets)


def _assert_batch_matches_per_tuple(optimization, targets):
    results = []
    for fn in (_per_tuple, _batched):
        cluster, dfi = build(1 + targets)
        dfi.init_shuffle_flow(
            "f", [Endpoint(0, 0)],
            [Endpoint(n, 0) for n in range(1, 1 + targets)],
            SCHEMA, shuffle_key="key", optimization=optimization)
        results.append(run_flow(cluster, dfi, "f", fn))
    per_tuple, batched = results
    # Same tuples on the same targets, in the same per-channel order.
    assert batched == per_tuple
    assert sum(len(v) for v in batched.values()) == len(TUPLES)


def test_push_batch_single_channel_preserves_order():
    cluster, dfi = build(2)
    dfi.init_shuffle_flow("f", [Endpoint(0, 0)], [Endpoint(1, 0)], SCHEMA,
                          shuffle_key="key")
    received = run_flow(cluster, dfi, "f", _batched)
    assert received[0] == TUPLES


def test_push_batch_accepts_iterators_and_empty_batches():
    cluster, dfi = build(2)
    dfi.init_shuffle_flow("f", [Endpoint(0, 0)], [Endpoint(1, 0)], SCHEMA,
                          shuffle_key="key")

    def source_fn(source, _index):
        yield from source.push_batch([])
        yield from source.push_batch(iter(TUPLES[:50]))

    received = run_flow(cluster, dfi, "f", source_fn)
    assert received[0] == TUPLES[:50]


def test_push_batch_with_explicit_target_bypasses_router():
    cluster, dfi = build(3)
    dfi.init_shuffle_flow("f", [Endpoint(0, 0)],
                          [Endpoint(1, 0), Endpoint(2, 0)], SCHEMA,
                          shuffle_key="key")

    def source_fn(source, _index):
        yield from source.push_batch(TUPLES[:40], target=1)

    received = run_flow(cluster, dfi, "f", source_fn)
    assert received[0] == []
    assert received[1] == TUPLES[:40]


# -- push_bytes ----------------------------------------------------------

def test_push_bytes_delivers_packed_tuples():
    cluster, dfi = build(3)
    dfi.init_shuffle_flow("f", [Endpoint(0, 0)],
                          [Endpoint(1, 0), Endpoint(2, 0)], SCHEMA,
                          shuffle_key="key")
    blob = b"".join(SCHEMA.pack(values) for values in TUPLES[:300])

    def source_fn(source, _index):
        yield from source.push_bytes(blob[:len(blob) // 2], target=0)
        yield from source.push_bytes(
            memoryview(blob)[len(blob) // 2:], target=1)

    received = run_flow(cluster, dfi, "f", source_fn)
    assert received[0] == TUPLES[:150]
    assert received[1] == TUPLES[150:300]


def test_push_bytes_rejects_partial_tuples():
    cluster, dfi = build(2)
    dfi.init_shuffle_flow("f", [Endpoint(0, 0)], [Endpoint(1, 0)], SCHEMA,
                          shuffle_key="key")

    def source_fn(source, _index):
        with pytest.raises(FlowError):
            yield from source.push_bytes(b"x" * (SCHEMA.tuple_size + 1))
        yield from source.push_bytes(b"")  # empty is a no-op

    run_flow(cluster, dfi, "f", source_fn)


def test_push_bytes_requires_target_with_multiple_channels():
    cluster, dfi = build(3)
    dfi.init_shuffle_flow("f", [Endpoint(0, 0)],
                          [Endpoint(1, 0), Endpoint(2, 0)], SCHEMA,
                          shuffle_key="key")

    def source_fn(source, _index):
        with pytest.raises(FlowError):
            yield from source.push_bytes(b"\0" * SCHEMA.tuple_size)

    run_flow(cluster, dfi, "f", source_fn)


# -- determinism ---------------------------------------------------------

def test_batched_runs_are_deterministic():
    outcomes = []
    for _ in range(2):
        cluster, dfi = build(4, seed=7)
        dfi.init_shuffle_flow(
            "f", [Endpoint(0, 0)], [Endpoint(n, 0) for n in (1, 2, 3)],
            SCHEMA, shuffle_key="key")
        received = run_flow(cluster, dfi, "f", _batched)
        outcomes.append((cluster.env.now, received))
    assert outcomes[0] == outcomes[1]


# -- route_many consistency ----------------------------------------------

@pytest.mark.parametrize("target_count", [3, 8])
def test_route_many_matches_route(target_count):
    router = key_hash_router(SCHEMA, "key")
    tuples = ([(i * 2654435761 % 2 ** 61, i) for i in range(500)]
              + [(f"str-{i}", i) for i in range(50)])  # TypeError fallback
    groups = router.route_many(tuples, target_count)
    expected = [[] for _ in range(target_count)]
    for values in tuples:
        expected[router(values, target_count)].append(values)
    assert groups == expected


@pytest.mark.parametrize("target_count", [3, 4])
def test_radix_route_many_matches_route(target_count):
    router = radix_router(SCHEMA, "key", bits=6, shift=2)
    tuples = [(i * 7919, i) for i in range(300)]
    groups = router.route_many(tuples, target_count)
    expected = [[] for _ in range(target_count)]
    for values in tuples:
        expected[router(values, target_count)].append(values)
    assert groups == expected
