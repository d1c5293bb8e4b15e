"""The DFI runtime facade: the public API of the library.

Mirrors the paper's programming model (Figure 1)::

    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("value", "uint64"))
    dfi.init_shuffle_flow("shuffle", sources=["node0|0"],
                          targets=["node1|0", "node2|0"],
                          schema=schema, shuffle_key="key")

    # inside a source thread (a simulated process):
    source = yield from dfi.open_source("shuffle", 0)
    yield from source.push((7, 40))
    yield from source.close()

    # inside a target thread:
    target = yield from dfi.open_target("shuffle", 0)
    while (item := (yield from target.consume())) is not FLOW_END:
        ...
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import FlowError
from repro.core.combiner import CombinerSource, CombinerTarget
from repro.core.flowdef import (
    AggregationSpec,
    FlowDescriptor,
    FlowOptions,
    FlowType,
    Optimization,
    Ordering,
)
from repro.core.nodes import parse_endpoints
from repro.core.registry import FlowRegistry
from repro.core.replicate import ReplicateSource, ReplicateTarget
from repro.core.schema import Schema
from repro.core.shuffle import ShuffleSource, ShuffleTarget
from repro.simnet.cluster import Cluster


class DfiRuntime:
    """Per-cluster entry point for initializing and opening flows."""

    def __init__(self, cluster: Cluster, registry: FlowRegistry | None = None,
                 master_node_id: int = 0) -> None:
        self.cluster = cluster
        self.registry = registry or FlowRegistry(cluster, master_node_id)

    # -- flow initialization ------------------------------------------------
    def init_flow(self, descriptor: FlowDescriptor) -> FlowDescriptor:
        """Publish a fully specified flow descriptor."""
        return self.registry.initialize_flow(descriptor)

    def init_shuffle_flow(self, name: str, sources, targets, schema: Schema,
                          shuffle_key: "str | int | None" = None,
                          routing: "Callable | None" = None,
                          optimization: Optimization = Optimization.BANDWIDTH,
                          options: FlowOptions = FlowOptions(),
                          ) -> FlowDescriptor:
        """Initialize a shuffle flow (1:1, N:1, 1:N or N:M).

        Routing uses ``shuffle_key`` (hash partitioning) or ``routing`` (an
        application partition function); with neither, pushes must name
        their target explicitly.
        """
        return self.init_flow(FlowDescriptor(
            name=name, flow_type=FlowType.SHUFFLE,
            sources=parse_endpoints(sources),
            targets=parse_endpoints(targets),
            schema=schema, shuffle_key=shuffle_key, routing=routing,
            optimization=optimization, options=options))

    def init_replicate_flow(self, name: str, sources, targets,
                            schema: Schema,
                            optimization: Optimization = Optimization.BANDWIDTH,
                            ordering: Ordering = Ordering.NONE,
                            options: FlowOptions = FlowOptions(),
                            ) -> FlowDescriptor:
        """Initialize a replicate flow (1:N or N:M), optionally with global
        ordering and/or switch multicast (``options.multicast``)."""
        return self.init_flow(FlowDescriptor(
            name=name, flow_type=FlowType.REPLICATE,
            sources=parse_endpoints(sources),
            targets=parse_endpoints(targets),
            schema=schema, optimization=optimization, ordering=ordering,
            options=options))

    def init_combiner_flow(self, name: str, sources, target, schema: Schema,
                           aggregation: AggregationSpec,
                           optimization: Optimization = Optimization.BANDWIDTH,
                           options: FlowOptions = FlowOptions(),
                           ) -> FlowDescriptor:
        """Initialize an N:1 combiner flow with the given aggregation."""
        return self.init_flow(FlowDescriptor(
            name=name, flow_type=FlowType.COMBINER,
            sources=parse_endpoints(sources),
            targets=parse_endpoints([target]),
            schema=schema, aggregation=aggregation,
            optimization=optimization, options=options))

    # -- endpoint opening ----------------------------------------------------
    def open_source(self, name: str, source_index: int):
        """Generator: open source endpoint ``source_index`` of ``name``.

        Blocks (in simulated time) until the matching targets have
        published their receive buffers.
        """
        descriptor = self.registry.descriptor(name)
        if descriptor.flow_type is FlowType.SHUFFLE:
            opener = ShuffleSource.open
        elif descriptor.flow_type is FlowType.REPLICATE:
            opener = ReplicateSource.open
        elif descriptor.flow_type is FlowType.COMBINER:
            if descriptor.options.in_network_aggregation:
                from repro.core.sharp import SharpCombinerSource
                opener = SharpCombinerSource.open
            else:
                opener = CombinerSource.open
        else:  # pragma: no cover - enum is exhaustive
            raise FlowError(f"unknown flow type {descriptor.flow_type}")
        endpoint = yield from opener(self.registry, name, source_index)
        return endpoint

    def open_target(self, name: str, target_index: int = 0):
        """Generator: open target endpoint ``target_index`` of ``name``."""
        descriptor = self.registry.descriptor(name)
        if descriptor.flow_type is FlowType.SHUFFLE:
            return ShuffleTarget.open(self.registry, name, target_index)
        if descriptor.flow_type is FlowType.REPLICATE:
            endpoint = yield from ReplicateTarget.open(self.registry, name,
                                                       target_index)
            return endpoint
        if descriptor.flow_type is FlowType.COMBINER:
            if target_index != 0:
                raise FlowError("combiner flows have a single target (0)")
            if descriptor.options.in_network_aggregation:
                from repro.core.sharp import SharpCombinerTarget
                return SharpCombinerTarget.open(self.registry, name)
            return CombinerTarget.open(self.registry, name)
        raise FlowError(  # pragma: no cover - enum is exhaustive
            f"unknown flow type {descriptor.flow_type}")

    # -- introspection -----------------------------------------------------
    @property
    def fastpath_enabled(self) -> bool:
        """True when steady-state event elision is available to this
        runtime's flows (``REPRO_NO_FASTPATH`` kill switch off).

        Availability, not activity: each endpoint additionally requires
        telemetry off at open time, and every flush re-checks the
        fault/congestion planes — an active plane de-elides the train
        instantly. The toggle is wall-clock only;
        simulated metrics are bit-identical either way (the fingerprint
        gate in CI).
        """
        from repro.common.config import fastpath_enabled

        return fastpath_enabled()

    def registered_memory_by_node(self) -> dict[int, int]:
        """Bytes of NIC-registered memory per node — the measurement behind
        the paper's Section 6.1.4 memory-consumption discussion."""
        from repro.rdma.nic import get_nic

        return {node.node_id: get_nic(node).registered_bytes()
                for node in self.cluster.nodes}
