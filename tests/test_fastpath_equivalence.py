"""Bit-exact equivalence of the fused fast path and the event path.

Steady-state event elision (``post_write_train_fused``) is a wall-clock
optimization only: every externally observable timestamp — when each
``push_batch`` returns (credit/CQ backpressure), when each consumed
batch arrives, when the flow ends — must be bit-identical with the fast
path on and off, across seeds, ring geometries, and trains that don't
divide evenly into segments. The tests here run the same workload twice
(``config.FASTPATH_ENABLED`` toggled in-process; channels read it at
endpoint construction) and compare full timelines with ``==``, while
also asserting the fused run executed strictly fewer kernel events —
the equivalence is never vacuous.

De-elision: a fault or congestion plane installed *mid-run* (between
flushes) must flip ``QueuePair.steady_state()`` on the very next flush
and keep the timeline bit-identical to the event path under the same
mid-run install.
"""

import pytest

from repro.common import config
from repro.core import (
    FLOW_END,
    DfiRuntime,
    Endpoint,
    FlowOptions,
    Schema,
)
from repro.simnet import Cluster
from repro.simnet.faults import FaultPlan, link_degrade

_SCHEMA = Schema(("key", "uint64"), ("pad", 24))
_PAD = b"p" * 24
_TARGETS = 2


@pytest.fixture(autouse=True)
def _restore_fastpath_flag():
    saved = config.FASTPATH_ENABLED
    yield
    config.FASTPATH_ENABLED = saved


def _traced_shuffle(fastpath, *, seed=0, options=None, count=4096,
                    batch=1024, node_count=1 + _TARGETS, mid_run=None):
    """Run one 1:N shuffle and return ``(timeline, events_executed)``.

    The timeline captures every externally observable instant: the
    simulated time each source batch push returned, the close time, and
    each target's per-batch ``(arrival time, batch length)`` sequence.
    ``mid_run`` (if given) is called as ``mid_run(cluster, source)`` from
    the source thread after half the batches, between flushes.
    """
    config.FASTPATH_ENABLED = fastpath
    cluster = Cluster(node_count=node_count, seed=seed)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "eq", [Endpoint(0, 0)],
        [Endpoint(1 + n, 0) for n in range(_TARGETS)],
        _SCHEMA, shuffle_key="key",
        options=options if options is not None else FlowOptions())
    batches = [[(i * 2654435761 % (1 << 64), _PAD)
                for i in range(start, min(start + batch, count))]
               for start in range(0, count, batch)]
    timeline = {"push": [], "close": None,
                "deliver": [[] for _ in range(_TARGETS)],
                "end": [None] * _TARGETS}

    def source_thread():
        source = yield from dfi.open_source("eq", 0)
        half = len(batches) // 2
        for index, chunk in enumerate(batches):
            if mid_run is not None and index == half:
                mid_run(cluster, source)
            yield from source.push_batch(chunk)
            timeline["push"].append(cluster.now)
        yield from source.close()
        timeline["close"] = cluster.now

    def target_thread(index):
        target = yield from dfi.open_target("eq", index)
        while True:
            got = yield from target.consume_batch()
            if got is FLOW_END:
                break
            timeline["deliver"][index].append((cluster.now, len(got)))
        timeline["end"][index] = cluster.now

    events_before = cluster.env.events_executed
    cluster.node(0).spawn(source_thread())
    for n in range(_TARGETS):
        cluster.node(1 + n).spawn(target_thread(n))
    cluster.run()
    events = cluster.env.events_executed - events_before
    delivered = sum(length for deliveries in timeline["deliver"]
                    for _, length in deliveries)
    assert delivered == count
    return timeline, events


def _assert_equivalent(**kwargs):
    on, events_on = _traced_shuffle(True, **kwargs)
    off, events_off = _traced_shuffle(False, **kwargs)
    assert on == off
    assert events_on < events_off, \
        "fast path never engaged: equivalence would be vacuous"


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_bit_identical_across_seeds(seed):
    _assert_equivalent(seed=seed)


@pytest.mark.parametrize("options", [
    FlowOptions(source_segments=2, target_segments=4, credit_threshold=2),
    FlowOptions(target_segments=16, credit_threshold=4),
    FlowOptions(source_segments=8, target_segments=8, credit_threshold=3),
], ids=["small-rings", "deep-target", "mid-rings"])
def test_bit_identical_across_ring_sizes(options):
    _assert_equivalent(options=options)


@pytest.mark.parametrize("count,batch", [
    (4096, 700),    # trains end in a partial batch
    (3333, 1000),   # neither count nor batch aligns with segments
    (4099, 1024),   # full-segment trains plus a 3-tuple tail
])
def test_bit_identical_non_divisible_trains(count, batch):
    _assert_equivalent(count=count, batch=batch)


def _assert_de_elides(install):
    """``install(cluster)`` mid-run must flip ``steady_state()`` off on
    every source channel and leave the timeline bit-identical to the
    event path under the same mid-run install."""
    flipped = {}

    def mid_run(cluster, source):
        channels = source._channels
        assert all(channel.qp.steady_state() for channel in channels)
        install(cluster)
        flipped["ok"] = not any(channel.qp.steady_state()
                                for channel in channels)

    on, _ = _traced_shuffle(True, mid_run=mid_run, node_count=2 + _TARGETS)
    assert flipped["ok"], "installed plane did not de-elide"
    off, _ = _traced_shuffle(False, mid_run=mid_run, node_count=2 + _TARGETS)
    assert on == off


def test_mid_run_fault_install_de_elides():
    # Degrade an idle node (the extra node 3) far from the flow: the
    # plane is *active* (so every subsequent flush takes the event path)
    # while the flow's own links and timing are untouched.
    def install(cluster):
        cluster.install_faults(FaultPlan(
            [link_degrade(1 + _TARGETS, at=cluster.now + 1.0,
                          duration=10.0, factor=2.0)]))

    _assert_de_elides(install)


def test_mid_run_congestion_install_de_elides():
    from repro.simnet.congestion import CongestionConfig

    def install(cluster):
        cluster.install_congestion(CongestionConfig.unbounded())

    _assert_de_elides(install)

