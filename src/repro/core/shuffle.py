"""Shuffle flows: DFI's central abstraction (paper Sections 5.1-5.3).

Each (source thread, target thread) pair owns a private channel consisting
of a source-side send ring and a target-side receive ring. Data moves with
one-sided RDMA writes; synchronization is footer-based (bandwidth mode) or
credit-based (latency mode), exactly as in the paper:

*Bandwidth mode* — tuples are batched into 8 KiB segments. Before writing
remote segment *n* the source must know it is writable; it learns this from
a pipelined RDMA read of segment *n+1*'s footer issued together with the
previous write, so the check is off the critical path. If the ring is full
the source polls the footer with a small random backoff. Writes are
signaled only on send-ring wrap-around (selective signaling).

*Latency mode* — segments hold exactly one tuple and are written
immediately. A credit counter on the target (incremented per consume)
bounds in-flight segments; the source refreshes its cached copy with an
asynchronous RDMA read when the local estimate drops below a threshold, so
the common-case push issues exactly one write and nothing else.
"""

from __future__ import annotations

from collections import deque
from struct import Struct as _Struct
from typing import TYPE_CHECKING

from repro.common.errors import (
    FlowAbortedError,
    FlowClosedError,
    FlowError,
    FlowPeerFailedError,
    FlowTimeoutError,
    QpFlushedError,
)
from repro.common import config as _config
from repro.core.backoff import traced_backoff
from repro.core.flowdef import (
    FLOW_END,
    FlowDescriptor,
    FlowType,
    Optimization,
)
from repro.core.registry import FlowRegistry, RingHandle
from repro.core.routing import key_hash_router
from repro.core.segment import (
    BLANK_FOOTER,
    FLAG_ABORTED,
    FLAG_CLOSED,
    FLAG_CONSUMABLE,
    FOOTER_SIZE,
    FOOTER_STRUCT,
    SegmentRing,
    footer_consumable,
    pack_footer,
    pack_footer_into,
)
from repro.obs import (
    BACKOFF,
    CREDIT,
    FAULT_DETECT,
    FLOW_CLOSE,
    FOOTER_POLL,
    PREREAD,
    REROUTE,
    SEG_CONSUME,
    SEG_WRITE,
    endpoint_obs,
)
from repro.core.writers import _congestion_grace
from repro.rdma.completion import Opcode, WorkRequest
from repro.rdma.nic import get_nic
from repro.simnet.congestion import stall_is_congestion

#: C-speed footer "used bytes" parse for the drain hot loop
#: (little-endian u32 at the footer head; see repro.core.segment).
_FOOTER_USED = _Struct("<I").unpack_from

#: Prebound footer encoder for the fused staging hot path, with the
#: flag word of a plain CONSUMABLE footer (source_index 0) computed
#: once through :func:`pack_footer_into` itself so any change to the
#: footer's flag packing stays authoritative.
_FOOTER_PACK_INTO = FOOTER_STRUCT.pack_into


def _consumable_word() -> int:
    scratch = bytearray(FOOTER_SIZE)
    pack_footer_into(scratch, 0, 0, FLAG_CONSUMABLE, 0)
    return FOOTER_STRUCT.unpack_from(scratch)[1]


_CONSUMABLE_WORD = _consumable_word()

if TYPE_CHECKING:
    from repro.simnet.node import Node


def segment_payload_size(descriptor: FlowDescriptor) -> int:
    """Per-segment payload bytes for a flow: the configured segment size in
    bandwidth mode, exactly one tuple in latency mode."""
    if descriptor.optimization is Optimization.LATENCY:
        return descriptor.latency_segment_size()
    size = descriptor.options.segment_size
    if size < descriptor.schema.tuple_size:
        raise FlowError(
            f"segment size {size} smaller than one tuple "
            f"({descriptor.schema.tuple_size} B)")
    return size


class _RingWriteWaiter:
    """Wakes a target thread when any of its receive rings is written.

    Real DFI busy-polls footer flags (a sub-100ns cache load). Simulating
    every load would swamp the event kernel, so we register write hooks on
    the ring regions and charge the profile's poll cost on each wakeup
    instead — same observable timing, constant event count.
    """

    def __init__(self, env, regions) -> None:
        self._env = env
        self._regions = list(regions)
        self._hooks: list = []

    def arm(self):
        event = self._env.event()
        fired = [False]

        def hook(_offset, _length):
            if not fired[0]:
                fired[0] = True
                event.succeed()

        for region in self._regions:
            region.add_write_hook(hook)
            self._hooks.append((region, hook))
        return event

    def disarm(self) -> None:
        for region, hook in self._hooks:
            region.remove_write_hook(hook)
        self._hooks.clear()


class BandwidthSourceChannel:
    """Source half of one bandwidth-optimized channel."""

    def __init__(self, node: "Node", descriptor: FlowDescriptor,
                 handle: RingHandle, channel_tag: tuple) -> None:
        self.node = node
        self.env = node.env
        self.profile = node.cluster.profile
        self.schema = descriptor.schema
        self.segment_payload = segment_payload_size(descriptor)
        nic = get_nic(node)
        self.qp = nic.create_qp(node.cluster.node(handle.node_id))
        # The C++ implementation keeps a full send ring so segment memory
        # stays untouched until the NIC finished its DMA. Writes are posted
        # zero-copy (``assume_stable=True``), so staging slots must stay
        # untouched until the simulated write commits. A 2N-slot staging
        # ring (N = source_segments) guarantees that: the wrap-around wait
        # before flush f with f % N == 0 implies every write up to f-1 has
        # committed, and a slot is only repacked 2N flushes after it was
        # posted — at which point the latest wrap wait already covered it.
        # Memory accounting still reports the N-segment ring the *protocol*
        # requires (the §6.1.4 unit); the extra staging is an emulation
        # artifact of not having real DMA-completion reuse.
        self._ring_segments = descriptor.options.source_segments
        self._pipelined_preread = descriptor.options.pipelined_footer_read
        self._slot_size = self.segment_payload + FOOTER_SIZE
        self._staging_slots = 2 * self._ring_segments
        self._staging = bytearray(self._staging_slots * self._slot_size)
        self._staging_view = memoryview(self._staging)
        self._staging_base = 0
        self._flushes = 0
        self._scratch = nic.register_memory(FOOTER_SIZE)
        self.remote = handle
        self._remote_slot = handle.segment_size + FOOTER_SIZE
        self._rng = node.backoff_rng
        self._max_retries = descriptor.options.max_backoff_retries
        self._local_index = 0
        self._remote_index = 0
        self._used = 0
        self._seq = 0
        self._cpu_debt = 0.0
        self._pending_footer_read = None
        self._wrap_wr = None
        # Doorbell trains: whole-segment batches ride one doorbell ring
        # with a single *windowed* footer read standing in for the
        # per-segment pre-reads. The window is capped at half the target
        # ring so the source and target keep double-buffering (a window
        # spanning the full ring would serialize the pipeline). Trains
        # require tuple-aligned segments (the whole slot goes out as one
        # contiguous payload+footer write).
        self._train_window = max(1, min(self._ring_segments,
                                        handle.segment_count // 2))
        self._train_ok = (self.segment_payload % self.schema.tuple_size == 0)
        #: Remote slots proven writable by the last windowed footer read.
        self._window_left = 0
        #: In-flight windowed footer read (pipelined with the last train).
        self._pending_window_read = None
        self.closed = False
        #: Segments transferred over the wire (stats).
        self.segments_sent = 0
        #: Tuples pushed into this channel (stats).
        self.tuples_sent = 0
        # Observability: cache the registry/tracer at construction so the
        # disabled hot path pays one ``is None`` check (see repro.obs).
        # The push/flush counters mirror the always-on tallies above, so
        # they are harvested at read time instead of bumped per event.
        self._metrics, self._tracer = endpoint_obs(
            node, channel_tag[0], descriptor.options)
        if self._metrics is not None:
            self._metrics.add_collector(self._collect_obs)
        plane = node.cluster.obs
        self._pending_segments = (plane.pending_segments
                                  if plane is not None else None)
        self._tid = f"s{channel_tag[1]}->t{channel_tag[2]}"
        self._flow = channel_tag[0]
        self._causal = node.causal
        if self._causal is not None:
            self._causal.open(self._flow, node.node_id)
        # Steady-state event elision (DESIGN.md, "Steady-state event
        # elision"): route this channel's doorbell trains through the
        # fused macro-event path when nothing can observe the machinery
        # difference — telemetry off. The *dynamic* parts of the
        # steady-state predicate (fault plan, congestion plane) are
        # re-checked inside ``post_write_train_fused`` on every flush, so
        # a plane turning active de-elides the very next train.
        self._fused = (_config.FASTPATH_ENABLED
                       and self._metrics is None
                       and self._tracer is None)
        #: Remote ring region, resolved once on the first fused train (the
        #: rkey registration lives as long as the flow, so the lookup and
        #: the whole-ring range check are loop-invariant).
        self._remote_region = None
        #: Reused entry list for fused trains (cleared per flush; the
        #: macro-event copies nothing out of it after posting returns).
        self._fused_entries = []

    def _collect_obs(self):
        """Read-time counter harvest (see MetricsRegistry.add_collector)."""
        return (("core.tuples_pushed", self.tuples_sent),
                ("core.segments_flushed", self.segments_sent))

    @property
    def memory_bytes(self) -> int:
        return self._ring_segments * (self.segment_payload + FOOTER_SIZE)

    def push(self, values: tuple):
        """Generator: append one tuple; flushes when the segment fills.

        Matches the paper's asynchronous push — it returns right after the
        copy into the send buffer unless the segment is full *and* the
        remote ring has no writable slot.
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        self.schema.pack_into(self._staging,
                              self._staging_base + self._used, values)
        self._used += self.schema.tuple_size
        self._cpu_debt += (self.profile.cpu_tuple_overhead
                           + self.schema.tuple_size
                           * self.profile.cpu_copy_per_byte)
        self.tuples_sent += 1
        if self._used + self.schema.tuple_size > self.segment_payload:
            yield from self._flush(0)

    def push_batch(self, tuples):
        """Generator: append a batch of tuples, flushing as segments fill.

        The same per-tuple CPU debt accrues as for one-by-one pushes, but
        it is charged as **one coalesced compute timeout per batch** (plus
        the post cost of every flush the batch triggers) instead of one
        kernel event per flush, and each filled segment is packed with a
        single ``struct`` call — that is where the wall-clock win comes
        from. ``tuples`` must be a sequence (it is sliced per segment).
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        if not isinstance(tuples, (list, tuple)):
            tuples = list(tuples)
        total = len(tuples)
        if not total:
            return
        tuple_size = self.schema.tuple_size
        per_tuple = (self.profile.cpu_tuple_overhead
                     + tuple_size * self.profile.cpu_copy_per_byte)
        capacity = self.segment_payload
        # One coalesced CPU charge: leftover debt from earlier pushes, the
        # batch's per-tuple work, and the post cost of every flush this
        # batch will trigger (a flush fires each time the staged tuple
        # count reaches a full segment).
        seg_tuples = capacity // tuple_size
        flushes = (self._used // tuple_size + total) // seg_tuples
        debt = (self._cpu_debt + total * per_tuple
                + flushes * self.profile.cpu_post_cost)
        self._cpu_debt = 0.0
        yield self.node.compute(debt)
        index = 0
        while index < total:
            if (self._train_ok and self._used == 0
                    and total - index >= seg_tuples):
                # Whole segments remain: assemble a doorbell train. The
                # common case — window in hand, no wrap WQE to reap —
                # skips the _train_begin generator entirely.
                if (self._window_left
                        and (self._local_index or self._wrap_wr is None)):
                    cap = min(self._window_left,
                              self._ring_segments - self._local_index)
                else:
                    cap = yield from self._train_begin()
                cap = min(cap, (total - index) // seg_tuples)
                if self._fused and self.qp.steady_state():
                    entries = self._fused_entries
                    entries.clear()
                    for _ in range(cap):
                        self.schema.pack_many_into(
                            self._staging, self._staging_base,
                            tuples[index:index + seg_tuples])
                        index += seg_tuples
                        self._train_stage_fused(entries)
                    self.tuples_sent += cap * seg_tuples
                    self._train_finish_fused(entries)
                    continue
                for _ in range(cap):
                    self.schema.pack_many_into(
                        self._staging, self._staging_base,
                        tuples[index:index + seg_tuples])
                    index += seg_tuples
                    self._train_stage_full_segment()
                self.tuples_sent += cap * seg_tuples
                self._train_finish()
                continue
            room = (capacity - self._used) // tuple_size
            take = min(room, total - index)
            if take:
                self.schema.pack_many_into(
                    self._staging, self._staging_base + self._used,
                    tuples[index:index + take])
                self._used += take * tuple_size
                self.tuples_sent += take
                index += take
            if self._used + tuple_size > capacity:
                if self._train_ok and self._used == capacity:
                    yield from self._flush_train_single()
                else:
                    yield from self._flush(0, charge_cpu=False)

    def push_bytes(self, data):
        """Generator: append pre-packed tuple bytes — no per-tuple type
        interpretation at all, just slab copies into the staging segment.

        ``data`` must hold a whole number of tuples packed in this flow's
        schema. CPU debt is charged exactly as if the tuples had been
        pushed individually.
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        tuple_size = self.schema.tuple_size
        size = len(data)
        if size % tuple_size:
            raise FlowError(
                f"push_bytes got {size} bytes, not a multiple of the "
                f"{tuple_size}-byte tuple size")
        if not size:
            return
        per_tuple = (self.profile.cpu_tuple_overhead
                     + tuple_size * self.profile.cpu_copy_per_byte)
        total = size // tuple_size
        capacity = self.segment_payload
        seg_tuples = capacity // tuple_size
        flushes = (self._used // tuple_size + total) // seg_tuples
        debt = (self._cpu_debt + total * per_tuple
                + flushes * self.profile.cpu_post_cost)
        self._cpu_debt = 0.0
        yield self.node.compute(debt)
        view = memoryview(data)
        index = 0
        while index < size:
            if (self._train_ok and self._used == 0
                    and size - index >= capacity):
                if (self._window_left
                        and (self._local_index or self._wrap_wr is None)):
                    cap = min(self._window_left,
                              self._ring_segments - self._local_index)
                else:
                    cap = yield from self._train_begin()
                cap = min(cap, (size - index) // capacity)
                if self._fused and self.qp.steady_state():
                    entries = self._fused_entries
                    entries.clear()
                    for _ in range(cap):
                        base = self._staging_base
                        self._staging[base:base + capacity] = \
                            view[index:index + capacity]
                        index += capacity
                        self._train_stage_fused(entries)
                    self.tuples_sent += cap * seg_tuples
                    self._train_finish_fused(entries)
                    continue
                for _ in range(cap):
                    base = self._staging_base
                    self._staging[base:base + capacity] = \
                        view[index:index + capacity]
                    index += capacity
                    self._train_stage_full_segment()
                self.tuples_sent += cap * seg_tuples
                self._train_finish()
                continue
            room = ((capacity - self._used) // tuple_size) * tuple_size
            take = min(room, size - index)
            if take:
                base = self._staging_base + self._used
                self._staging[base:base + take] = view[index:index + take]
                self._used += take
                self.tuples_sent += take // tuple_size
                index += take
            if self._used + tuple_size > capacity:
                if self._train_ok and self._used == capacity:
                    yield from self._flush_train_single()
                else:
                    yield from self._flush(0, charge_cpu=False)

    def close(self):
        """Generator: flush remaining tuples, send the close marker, and
        wait for it to be acknowledged."""
        wr = yield from self.begin_close()
        if wr is not None and not wr.done.triggered:
            yield wr.done

    def begin_close(self):
        """Generator: post the close marker without waiting for its ack
        (lets a source close many channels concurrently)."""
        if self.closed:
            return None
        wr = yield from self._flush(FLAG_CLOSED)
        self.closed = True
        if self._tracer is not None:
            self._tracer.emit(self.env.now, FLOW_CLOSE,
                              self.node.node_id, self._tid, None)
        if self._causal is not None:
            self._causal.close(self._flow, self.node.node_id)
        return wr

    def abort(self):
        """Generator: abort the channel — staged tuples are dropped and
        the target's consume path raises FlowAbortedError."""
        if self.closed:
            return
        self._used = 0  # discard staged tuples: abort voids delivery
        wr = yield from self._flush(FLAG_CLOSED | FLAG_ABORTED)
        self.closed = True
        if self._tracer is not None:
            self._tracer.emit(self.env.now, FLOW_CLOSE, self.node.node_id,
                              self._tid, {"aborted": True})
        if self._causal is not None:
            self._causal.close(self._flow, self.node.node_id)
        if not wr.done.triggered:
            yield wr.done

    def release(self) -> None:
        """Deregister the footer-read scratch region. Called by the owning
        source once the channel's close/abort marker is acknowledged — a
        closed channel posts no more reads, and a flow-cycling cluster
        must shed every per-channel NIC region (``tests/test_scale_memory``
        pins the steady state). Idempotent."""
        if self._scratch is not None:
            get_nic(self.node).deregister_memory(self._scratch.rkey)
            self._scratch = None

    def _flush(self, extra_flags: int, charge_cpu: bool = True):
        # Charge the CPU work accumulated by pushes plus the post cost
        # (``push_batch`` pre-charges both as one coalesced timeout and
        # passes ``charge_cpu=False``).
        if charge_cpu:
            debt = self._cpu_debt + self.profile.cpu_post_cost
            self._cpu_debt = 0.0
            yield self.node.compute(debt)
        # Selective signaling: on wrap-around ensure the previous cycle's
        # signaled write finished before its slot is reused.
        if self._local_index == 0 and self._wrap_wr is not None:
            if not self._wrap_wr.done.triggered:
                yield self._wrap_wr.done
            self._wrap_wr = None
            self.qp.send_cq.poll(max_entries=64)
        # A windowed proof from a preceding train covers this slot too —
        # and the window read pipelined behind the last train proves slots
        # from the *pre-flush* remote index, so it goes stale here.
        self._pending_window_read = None
        if self._window_left > 0:
            self._window_left -= 1
        else:
            yield from self._ensure_remote_writable()
        flags = FLAG_CONSUMABLE | extra_flags
        signaled = self._local_index == self._ring_segments - 1
        if extra_flags & FLAG_CLOSED:
            signaled = True
        remote_offset = self._remote_index * self._remote_slot
        base = self._staging_base
        if self._used == self.segment_payload:
            # Full segment: the footer is packed in place right after the
            # payload, and the whole slot goes out as one zero-copy write
            # (the staging ring keeps the slot stable until it commits).
            pack_footer_into(self._staging, base + self._used,
                             self._used, flags, self._seq)
            wr = self.qp.post_write(
                self._staging_view[base:base + self._used + FOOTER_SIZE],
                self.remote.rkey, remote_offset, signaled=signaled,
                assume_stable=True)
        else:
            # Partial segment (final flush): write only the used payload,
            # then the footer at its fixed end-of-segment position. RC
            # guarantees per-QP write ordering, so the footer still lands
            # strictly after the payload.
            if self._used:
                self.qp.post_write(
                    self._staging_view[base:base + self._used],
                    self.remote.rkey, remote_offset, signaled=False,
                    assume_stable=True)
            wr = self.qp.post_write(
                pack_footer(self._used, flags, self._seq), self.remote.rkey,
                remote_offset + self.remote.segment_size,
                signaled=signaled)
        if signaled:
            self._wrap_wr = wr
        self.segments_sent += 1
        metrics = self._metrics
        if metrics is not None:
            now = self.env.now
            self._pending_segments[
                (self.remote.node_id, self.remote.rkey, self._seq)] = now
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(now, SEG_WRITE, self.node.node_id, self._tid,
                            {"seq": self._seq, "bytes": self._used})
        self._seq += 1
        # Pipeline the footer pre-read of the *next* remote segment with
        # this write (paper Section 5.2).
        next_remote = (self._remote_index + 1) % self.remote.segment_count
        if self._pipelined_preread:
            self._pending_footer_read = self.qp.post_read(
                self._scratch, 0, self.remote.rkey,
                next_remote * self._remote_slot + self.remote.segment_size,
                FOOTER_SIZE, signaled=False)
        self._remote_index = next_remote
        self._local_index = (self._local_index + 1) % self._ring_segments
        self._used = 0
        self._flushes += 1
        self._staging_base = (self._flushes % self._staging_slots
                              ) * self._slot_size
        return wr

    # -- doorbell trains --------------------------------------------------
    def _train_begin(self):
        """Generator: establish the right to write a train of remote
        slots. Returns the train cap: remote slots proven writable,
        bounded by the send ring's wrap-around point (the signaled
        wrap WQE must be the last of its train)."""
        if self._local_index == 0 and self._wrap_wr is not None:
            if not self._wrap_wr.done.triggered:
                yield self._wrap_wr.done
            self._wrap_wr = None
            self.qp.send_cq.poll(max_entries=64)
        if not self._window_left:
            yield from self._acquire_train_window()
        return min(self._window_left,
                   self._ring_segments - self._local_index)

    def _acquire_train_window(self):
        """Generator: make ``_window_left`` positive with one footer read.

        Reading the footer ``W - 1`` slots ahead of the current remote
        index proves the whole ``W``-slot window: the target consumes in
        ring order and blanks each footer as it drains, so a
        non-consumable footer at slot ``r + W - 1`` implies every slot in
        ``r .. r + W - 1`` has been drained (or never written).
        """
        if self._window_left:
            return
        window = self._train_window
        wr = self._pending_window_read
        self._pending_window_read = None
        if wr is None:
            # A leftover per-segment pre-read proves exactly one slot —
            # the current one (window of 1).
            wr = self._pending_footer_read
            self._pending_footer_read = None
            if wr is not None:
                window = 1
        metrics = self._metrics
        if metrics is not None:
            metrics.inc("core.preread_hits" if wr is not None
                        else "core.preread_misses")
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(self.env.now, PREREAD, self.node.node_id,
                            self._tid, {"hit": wr is not None})
        if wr is None:
            wr = self._read_footer_ahead(window)
        attempt = 0
        while True:
            if wr.done.triggered:
                data = wr.done.value
            else:
                wait_from = self.env.now
                data = yield wr.done
                if self._causal is not None:
                    self._causal.edge(self.env.now, wait_from, "credit_stall",
                                      self.node.node_id, self._tid,
                                      self._flow)
            if not footer_consumable(data):
                self._window_left = window
                return
            if (self._max_retries is not None
                    and attempt >= self._max_retries
                    and not _congestion_grace(self.node,
                                              self.remote.node_id, metrics)):
                raise FlowTimeoutError(
                    f"remote ring on node {self.remote.node_id} still "
                    f"full after {attempt} backoff rounds")
            if metrics is not None:
                metrics.inc("core.backoff_rounds")
                tracer = self._tracer
                if tracer is not None:
                    tracer.emit(self.env.now, BACKOFF, self.node.node_id,
                                self._tid, {"attempt": attempt})
            yield self.env.timeout(traced_backoff(
                self._rng, attempt, self._causal, self.node.node_id,
                self._tid, self._flow))
            attempt += 1
            window = self._train_window
            wr = self._read_footer_ahead(window)
            if metrics is not None:
                tracer = self._tracer
                if tracer is not None:
                    tracer.emit(self.env.now, FOOTER_POLL,
                                self.node.node_id, self._tid,
                                {"attempt": attempt})

    def _train_stage_full_segment(self):
        """Stage one full staging slot as a doorbell-deferred WQE (payload
        and footer as one contiguous zero-copy write) and advance the ring
        state. ``ring_doorbell`` submits the whole train later."""
        base = self._staging_base
        pack_footer_into(self._staging, base + self.segment_payload,
                         self.segment_payload, FLAG_CONSUMABLE, self._seq)
        signaled = self._local_index == self._ring_segments - 1
        wr = self.qp.post_write(
            self._staging_view[base:base + self._slot_size],
            self.remote.rkey, self._remote_index * self._remote_slot,
            signaled=signaled, assume_stable=True, doorbell=False)
        if signaled:
            self._wrap_wr = wr
        self.segments_sent += 1
        metrics = self._metrics
        if metrics is not None:
            now = self.env.now
            self._pending_segments[
                (self.remote.node_id, self.remote.rkey, self._seq)] = now
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(now, SEG_WRITE, self.node.node_id, self._tid,
                            {"seq": self._seq, "train": True})
        self._seq += 1
        self._remote_index = (self._remote_index + 1
                              ) % self.remote.segment_count
        self._local_index = (self._local_index + 1) % self._ring_segments
        self._flushes += 1
        self._staging_base = (self._flushes % self._staging_slots
                              ) * self._slot_size
        self._window_left -= 1

    def _train_stage_fused(self, entries) -> None:
        """Stage one full staging slot directly as a fused train entry,
        skipping ``post_write``'s staging machinery: the steady-state
        predicate holds (caller checked ``qp.steady_state()``), so no
        telemetry block runs, the remote region is the cached
        loop-invariant one, and unsignaled WQEs — which the ring protocol
        drops without ever observing — get no WorkRequest at all. Ring
        state advances exactly as in :meth:`_train_stage_full_segment`."""
        base = self._staging_base
        _FOOTER_PACK_INTO(self._staging, base + self.segment_payload,
                          self.segment_payload, _CONSUMABLE_WORD, self._seq)
        if self._local_index == self._ring_segments - 1:
            wr = WorkRequest(self.env, None, Opcode.WRITE, True)
            self._wrap_wr = wr
        else:
            wr = None
        entries.append((wr, self._slot_size,
                        ((0, self._staging_view[base:base + self._slot_size]),),
                        self._remote_index * self._remote_slot))
        self.segments_sent += 1
        self._seq += 1
        self._remote_index = (self._remote_index + 1
                              ) % self.remote.segment_count
        self._local_index = (self._local_index + 1) % self._ring_segments
        self._flushes += 1
        self._staging_base = (self._flushes % self._staging_slots
                              ) * self._slot_size
        self._window_left -= 1

    def _train_finish_fused(self, entries) -> None:
        """Fused counterpart of :meth:`_train_finish`: post the directly
        built entries through ``post_ring_train_fused`` (one macro-event
        arm), then pipeline the next window read as usual."""
        region = self._remote_region
        if region is None:
            region = self._resolve_remote_region()
        self.qp.post_ring_train_fused(entries, region)
        self._pending_footer_read = None
        if self._window_left == 0 and self._pipelined_preread:
            self._pending_window_read = self._read_footer_ahead(
                self._train_window)

    def _resolve_remote_region(self):
        """One-time lookup + whole-ring range check for the fused path
        (``post_write`` re-checks per WQE; fused trains only ever target
        ring slots, so one bound proof covers every offset)."""
        region = self.qp._get_remote_nic().region(self.remote.rkey)
        region.check_range(0, self.remote.segment_count * self._remote_slot)
        self._remote_region = region
        return region

    def _flush_train_single(self):
        """Generator: flush the (full) current staging slot as a train of
        one. Even a one-WQE train wins over the eager ``_flush``: the
        windowed proof replaces the per-segment footer pre-read (one READ
        round-trip per window instead of per segment) and the write
        expands lazily instead of arming three timers."""
        if self._local_index == 0 and self._wrap_wr is not None:
            if not self._wrap_wr.done.triggered:
                yield self._wrap_wr.done
            self._wrap_wr = None
            self.qp.send_cq.poll(max_entries=64)
        if not self._window_left:
            yield from self._acquire_train_window()
        if self._fused and self.qp.steady_state():
            entries = self._fused_entries
            entries.clear()
            self._train_stage_fused(entries)
            self._used = 0
            self._train_finish_fused(entries)
            return
        self._train_stage_full_segment()
        self._used = 0
        self._train_finish()

    def _train_finish(self) -> None:
        """Ring the doorbell for the staged train. When the train used up
        the window, pipeline the next window's footer read behind it —
        the train analogue of the paper's per-segment footer pre-read."""
        self.qp.ring_doorbell(fused=self._fused)
        # Any per-segment pre-read refers to a slot the train wrote over.
        self._pending_footer_read = None
        if self._window_left == 0 and self._pipelined_preread:
            self._pending_window_read = self._read_footer_ahead(
                self._train_window)

    def _read_footer_ahead(self, window: int):
        """Unsignaled read of the footer ``window - 1`` slots ahead of the
        current remote index (see :meth:`_acquire_train_window`)."""
        slot = (self._remote_index + window - 1) % self.remote.segment_count
        return self.qp.post_read(
            self._scratch, 0, self.remote.rkey,
            slot * self._remote_slot + self.remote.segment_size,
            FOOTER_SIZE, signaled=False)

    def _ensure_remote_writable(self):
        wr = self._pending_footer_read
        self._pending_footer_read = None
        metrics = self._metrics
        if metrics is not None:
            metrics.inc("core.preread_hits" if wr is not None
                        else "core.preread_misses")
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(self.env.now, PREREAD, self.node.node_id,
                            self._tid, {"hit": wr is not None})
        if wr is None:
            wr = self._read_current_remote_footer()
        attempt = 0
        while True:
            if wr.done.triggered:
                data = wr.done.value
            else:
                wait_from = self.env.now
                data = yield wr.done
                if self._causal is not None:
                    self._causal.edge(self.env.now, wait_from, "credit_stall",
                                      self.node.node_id, self._tid,
                                      self._flow)
            if not footer_consumable(data):
                return
            # Remote ring full: back off (exponential + jitter), then
            # re-poll the footer.
            if (self._max_retries is not None
                    and attempt >= self._max_retries
                    and not _congestion_grace(self.node,
                                              self.remote.node_id, metrics)):
                raise FlowTimeoutError(
                    f"remote ring on node {self.remote.node_id} still "
                    f"full after {attempt} backoff rounds")
            if metrics is not None:
                metrics.inc("core.backoff_rounds")
                tracer = self._tracer
                if tracer is not None:
                    tracer.emit(self.env.now, BACKOFF, self.node.node_id,
                                self._tid, {"attempt": attempt})
            yield self.env.timeout(traced_backoff(
                self._rng, attempt, self._causal, self.node.node_id,
                self._tid, self._flow))
            attempt += 1
            wr = self._read_current_remote_footer()

    def _read_current_remote_footer(self):
        footer_offset = (self._remote_index * self._remote_slot
                         + self.remote.segment_size)
        return self.qp.post_read(self._scratch, 0, self.remote.rkey,
                                 footer_offset, FOOTER_SIZE, signaled=False)


class LatencySourceChannel:
    """Source half of one latency-optimized channel (credit-based)."""

    def __init__(self, node: "Node", descriptor: FlowDescriptor,
                 handle: RingHandle, channel_tag: tuple) -> None:
        if handle.credit_rkey is None:
            raise FlowError("latency channels need a credit counter handle")
        self.node = node
        self.env = node.env
        self.profile = node.cluster.profile
        self.schema = descriptor.schema
        self.segment_payload = segment_payload_size(descriptor)
        nic = get_nic(node)
        self.qp = nic.create_qp(node.cluster.node(handle.node_id))
        self._scratch = nic.register_memory(8)
        self.remote = handle
        self._remote_slot = handle.segment_size + FOOTER_SIZE
        # Zero-copy staging: one slot per remote segment. A slot posted at
        # send s is only repacked at send s + segment_count, and holding a
        # credit then implies the target consumed segment s — which in turn
        # implies the write had committed. So the slot is stable for the
        # write's whole lifetime.
        self._slot_size = self.segment_payload + FOOTER_SIZE
        self._staging = bytearray(handle.segment_count * self._slot_size)
        self._staging_view = memoryview(self._staging)
        self._rng = node.backoff_rng
        self._max_retries = descriptor.options.max_backoff_retries
        self._threshold = descriptor.options.credit_threshold
        self._sent = 0
        self._cached_consumed = 0
        self._pending_credit_read = None
        self._credit_read_issued = 0.0
        self.closed = False
        self.segments_sent = 0
        self.tuples_sent = 0
        self._metrics, self._tracer = endpoint_obs(
            node, channel_tag[0], descriptor.options)
        if self._metrics is not None:
            self._metrics.add_collector(self._collect_obs)
        plane = node.cluster.obs
        self._pending_segments = (plane.pending_segments
                                  if plane is not None else None)
        self._tid = f"s{channel_tag[1]}->t{channel_tag[2]}"
        self._flow = channel_tag[0]
        self._causal = node.causal
        if self._causal is not None:
            self._causal.open(self._flow, node.node_id)

    def _collect_obs(self):
        """Read-time counter harvest (see MetricsRegistry.add_collector)."""
        return (("core.tuples_pushed", self.tuples_sent),
                ("core.segments_flushed", self.segments_sent))

    @property
    def memory_bytes(self) -> int:
        return 8  # only the credit-read scratch; no local ring is needed

    @property
    def _available_credits(self) -> int:
        return self.remote.segment_count - (self._sent
                                            - self._cached_consumed)

    def push(self, values: tuple):
        """Generator: transfer one tuple immediately (one RDMA write)."""
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        cost = (self.profile.cpu_tuple_overhead
                + self.schema.tuple_size * self.profile.cpu_copy_per_byte
                + self.profile.cpu_post_cost)
        yield self.node.compute(cost)
        yield from self._acquire_credit()
        # Pack straight into the staging slot — no intermediate bytes.
        base = self._slot_base()
        self.schema.pack_into(self._staging, base, values)
        self._finish_slot(base, self.schema.tuple_size, FLAG_CONSUMABLE)
        self.tuples_sent += 1
        if (self._available_credits <= self._threshold
                and self._pending_credit_read is None):
            self._refresh_credit_async()

    def push_batch(self, tuples):
        """Generator: push a batch of tuples. Latency mode is inherently
        per-tuple (one segment each, credits acquired per write), so this
        is a loop over :meth:`push` with identical simulated timing."""
        for values in tuples:
            yield from self.push(values)

    def push_bytes(self, data):
        """Generator: push pre-packed tuple bytes, one segment per tuple."""
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        tuple_size = self.schema.tuple_size
        size = len(data)
        if size % tuple_size:
            raise FlowError(
                f"push_bytes got {size} bytes, not a multiple of the "
                f"{tuple_size}-byte tuple size")
        cost = (self.profile.cpu_tuple_overhead
                + tuple_size * self.profile.cpu_copy_per_byte
                + self.profile.cpu_post_cost)
        view = memoryview(data)
        for start in range(0, size, tuple_size):
            yield self.node.compute(cost)
            yield from self._acquire_credit()
            base = self._slot_base()
            self._staging[base:base + tuple_size] = (
                view[start:start + tuple_size])
            self._finish_slot(base, tuple_size, FLAG_CONSUMABLE)
            self.tuples_sent += 1
            if (self._available_credits <= self._threshold
                    and self._pending_credit_read is None):
                self._refresh_credit_async()

    def close(self):
        """Generator: send the close marker and wait for its ack."""
        wr = yield from self.begin_close()
        if wr is not None and not wr.done.triggered:
            yield wr.done

    def begin_close(self):
        """Generator: post the close marker without waiting for its ack."""
        if self.closed:
            return None
        yield self.node.compute(self.profile.cpu_post_cost)
        yield from self._acquire_credit()
        wr = self._write_slot(b"", FLAG_CONSUMABLE | FLAG_CLOSED,
                              signaled=True)
        self.closed = True
        if self._tracer is not None:
            self._tracer.emit(self.env.now, FLOW_CLOSE,
                              self.node.node_id, self._tid, None)
        if self._causal is not None:
            self._causal.close(self._flow, self.node.node_id)
        return wr

    def abort(self):
        """Generator: abort the channel (targets raise
        FlowAbortedError)."""
        if self.closed:
            return
        yield self.node.compute(self.profile.cpu_post_cost)
        yield from self._acquire_credit()
        wr = self._write_slot(
            b"", FLAG_CONSUMABLE | FLAG_CLOSED | FLAG_ABORTED,
            signaled=True)
        self.closed = True
        if self._tracer is not None:
            self._tracer.emit(self.env.now, FLOW_CLOSE, self.node.node_id,
                              self._tid, {"aborted": True})
        if self._causal is not None:
            self._causal.close(self._flow, self.node.node_id)
        if not wr.done.triggered:
            yield wr.done

    def release(self) -> None:
        """Deregister the credit-read scratch region once the channel is
        closed (see ``BandwidthSourceChannel.release``). An in-flight
        asynchronous credit read holds the region object itself, not the
        rkey, so dropping the NIC table entry is safe. Idempotent."""
        if self._scratch is not None:
            get_nic(self.node).deregister_memory(self._scratch.rkey)
            self._scratch = None

    def _slot_base(self) -> int:
        """Staging-buffer offset of the slot for the next send."""
        return (self._sent % self.remote.segment_count) * self._slot_size

    def _finish_slot(self, base: int, used: int, flags: int,
                     signaled: bool = False):
        """Pad + footer the staged slot at ``base`` and post it zero-copy."""
        if used < self.segment_payload:
            # Close/abort markers: zero the unused payload so the wire
            # bytes match the padded form the protocol defines.
            self._staging[base + used:base + self.segment_payload] = (
                bytes(self.segment_payload - used))
        pack_footer_into(self._staging, base + self.segment_payload,
                         used, flags, self._sent)
        wr = self.qp.post_write(
            self._staging_view[base:base + self._slot_size],
            self.remote.rkey,
            (self._sent % self.remote.segment_count) * self._remote_slot,
            signaled=signaled, assume_stable=True)
        metrics = self._metrics
        if metrics is not None:
            now = self.env.now
            self._pending_segments[
                (self.remote.node_id, self.remote.rkey, self._sent)] = now
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(now, SEG_WRITE, self.node.node_id, self._tid,
                            {"seq": self._sent, "bytes": used})
        self._sent += 1
        self.segments_sent += 1
        return wr

    def _write_slot(self, payload: bytes, flags: int, signaled: bool = False):
        base = self._slot_base()
        used = len(payload)
        if used:
            self._staging[base:base + used] = payload
        return self._finish_slot(base, used, flags, signaled)

    def _refresh_credit_async(self) -> None:
        if self._metrics is not None:
            self._credit_read_issued = self.env.now
        self._pending_credit_read = self.qp.post_read(
            self._scratch, 0, self.remote.credit_rkey,
            self.remote.credit_offset, 8, signaled=False)

    def _acquire_credit(self):
        metrics = self._metrics
        # Harvest a finished asynchronous refresh first.
        pending = self._pending_credit_read
        if pending is not None and pending.done.triggered:
            self._apply_credit(pending.done.value)
            self._pending_credit_read = None
            if metrics is not None:
                metrics.observe("core.credit_rtt",
                                self.env.now - self._credit_read_issued)
        attempt = 0
        while self._available_credits <= 0:
            if metrics is not None:
                metrics.inc("core.credit_stalls")
            if self._pending_credit_read is None:
                self._refresh_credit_async()
            wait_from = self.env.now
            data = yield self._pending_credit_read.done
            if self._causal is not None and self.env.now > wait_from:
                self._causal.edge(self.env.now, wait_from, "credit_stall",
                                  self.node.node_id, self._tid, self._flow)
            self._pending_credit_read = None
            self._apply_credit(data)
            if metrics is not None:
                metrics.observe("core.credit_rtt",
                                self.env.now - self._credit_read_issued)
                tracer = self._tracer
                if tracer is not None:
                    tracer.emit(self.env.now, CREDIT, self.node.node_id,
                                self._tid,
                                {"credits": self._available_credits})
            if self._available_credits <= 0:
                if (self._max_retries is not None
                        and attempt >= self._max_retries
                        and not _congestion_grace(
                            self.node, self.remote.node_id, metrics)):
                    raise FlowTimeoutError(
                        f"no credit from node {self.remote.node_id} "
                        f"after {attempt} backoff rounds")
                if metrics is not None:
                    metrics.inc("core.backoff_rounds")
                    tracer = self._tracer
                    if tracer is not None:
                        tracer.emit(self.env.now, BACKOFF,
                                    self.node.node_id, self._tid,
                                    {"attempt": attempt})
                yield self.env.timeout(traced_backoff(
                    self._rng, attempt, self._causal, self.node.node_id,
                    self._tid, self._flow))
                attempt += 1

    def _apply_credit(self, data: bytes) -> None:
        consumed = int.from_bytes(data, "little")
        if consumed > self._cached_consumed:
            self._cached_consumed = consumed


class TargetChannel:
    """Target half of one channel: a receive ring drained in ring order."""

    def __init__(self, node: "Node", descriptor: FlowDescriptor,
                 ring: SegmentRing, credit_region, credit_offset: int) -> None:
        self.node = node
        self.schema = descriptor.schema
        self.ring = ring
        self._credit_region = credit_region
        self._credit_offset = credit_offset
        self._track_credits = (descriptor.optimization
                               is Optimization.LATENCY)
        #: Publish the consumed counter once per :meth:`drain` (latency
        #: mode) instead of once per segment. Both placements are
        #: observationally identical — a drain runs inside one event
        #: continuation, so no remote credit read can sample between the
        #: per-segment writes — but the toggle lets tests prove that.
        self.credit_coalescing = True
        self._footer_offsets = tuple(ring.footer_offset(index)
                                     for index in range(ring.segment_count))
        self._index = 0
        self._consumed = 0
        self.done = False
        self.aborted = False
        self.tuples_received = 0
        self._metrics, self._tracer = endpoint_obs(
            node, descriptor.name, descriptor.options)
        if self._metrics is not None:
            self._metrics.add_collector(self._collect_obs)
        plane = node.cluster.obs
        self._pending_segments = (plane.pending_segments
                                  if plane is not None else None)
        # Histograms cached lazily on first sample (per-segment sites are
        # hot enough for the observe() name lookup to show in the bench).
        self._seg_latency_hist = None
        self._drain_hist = None
        self._tid = f"t<-s{credit_offset // 8}"
        self._flow = descriptor.name
        self._causal = node.causal
        if self._causal is not None:
            self._causal.open(self._flow, node.node_id)

    def _collect_obs(self):
        """Read-time counter harvest (see MetricsRegistry.add_collector)."""
        return (("core.tuples_consumed", self.tuples_received),
                ("core.segments_consumed", self._consumed))

    @property
    def memory_bytes(self) -> int:
        return self.ring.total_bytes

    def _note_segment(self, seq: int, tuples: int, now: float) -> None:
        """Per-segment metrics bookkeeping (called only with metrics on):
        the write->consume latency pop and the SEG_CONSUME trace event
        (the consume counters are harvested at read time from the
        always-on ``tuples_received``/``_consumed`` tallies)."""
        metrics = self._metrics
        stamp = self._pending_segments.pop(
            (self.node.node_id, self.ring.region.rkey, seq), None)
        if stamp is not None:
            hist = self._seg_latency_hist
            if hist is None:
                hist = self._seg_latency_hist = metrics.histogram(
                    "core.seg_latency")
            hist.record(now - stamp)
            if self._causal is not None:
                # Segment-span context edge: write stamp -> consume time.
                # Non-walkable ("seg" is not in WALK_CATEGORIES) — it feeds
                # the straggler ranking, not the blame decomposition.
                self._causal.edge(now, stamp, "seg", self.node.node_id,
                                  self._tid, self._flow)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(now, SEG_CONSUME, self.node.node_id, self._tid,
                        {"seq": seq, "tuples": tuples})

    def poll(self):
        """Check the current segment; return ``(footer, tuples)`` (tuples
        may be empty for a bare close marker) or ``None`` if nothing
        arrived. Per-segment granularity — kept for consumers that need
        the decoded footer (ordered replicate); bulk paths use
        :meth:`drain`."""
        if self.done:
            return None
        mem = self.ring.region.mem
        footer_offset = self._footer_offsets[self._index]
        if not (mem[footer_offset + 4] & FLAG_CONSUMABLE):
            return None
        footer = self.ring.read_footer(self._index)
        count = footer.used // self.schema.tuple_size
        if count:
            payload = self.ring.payload_view(self._index, footer.used)
            tuples = self.schema.unpack_many(payload, count)
        else:
            tuples = []
        if footer.closed:
            self.done = True
            if self._causal is not None:
                self._causal.close(self._flow, self.node.node_id)
        if footer.aborted:
            self.aborted = True
            tuples = []  # abort voids any delivery guarantee
        # Release the segment: reset the footer locally (writable again).
        # Direct memory write — no write hooks should fire for local resets.
        mem[footer_offset:footer_offset + FOOTER_SIZE] = BLANK_FOOTER
        self._index = self.ring.next_index(self._index)
        self._consumed += 1
        self.tuples_received += len(tuples)
        if self._metrics is not None:
            self._note_segment(footer.seq, len(tuples), self.node.env.now)
        if self._track_credits:
            self._credit_region.write_u64(self._credit_offset,
                                          self._consumed)
        return footer, tuples

    def drain(self, out) -> int:
        """Consume every consecutive consumable segment in one pass.

        Unpacked tuples are appended to ``out`` (list or deque); footers
        are released with direct hook-free memory writes as the pass
        walks the ring, and in latency mode the consumed-credit counter
        is published with **one** ``write_u64`` per drain instead of one
        per segment (unless :attr:`credit_coalescing` is off). Returns
        the number of segments drained.
        """
        if self.done:
            return 0
        mem = self.ring.region.mem
        offsets = self._footer_offsets
        segment_count = len(offsets)
        payload_view = self.ring.payload_view
        unpack_rows = self.schema.unpack_rows
        extend = out.extend
        index = self._index
        consumed = self._consumed
        per_segment_credits = (self._track_credits
                               and not self.credit_coalescing)
        metrics = self._metrics
        # A drain pass runs inside one event continuation, so sim time is
        # constant across it — read the clock once, not per segment.
        now = self.node.env.now if metrics is not None else 0.0
        tuple_size = self.schema.tuple_size
        drained = 0
        received = 0
        while True:
            footer_offset = offsets[index]
            flags = mem[footer_offset + 4]
            if not (flags & FLAG_CONSUMABLE):
                break
            used = _FOOTER_USED(mem, footer_offset)[0]
            if flags & (FLAG_CLOSED | FLAG_ABORTED):
                if flags & FLAG_ABORTED:
                    self.aborted = True
                    used = 0  # abort voids its own segment's delivery
                if flags & FLAG_CLOSED:
                    self.done = True
                    if self._causal is not None:
                        self._causal.close(self._flow, self.node.node_id)
            if used:
                tuples = unpack_rows(payload_view(index, used))
                extend(tuples)
                received += len(tuples)
            if metrics is not None:
                # Read the sequence number before the release blanks it.
                self._note_segment(
                    int.from_bytes(
                        mem[footer_offset + 8:footer_offset + 16],
                        "little"),
                    used // tuple_size, now)
            mem[footer_offset:footer_offset + FOOTER_SIZE] = BLANK_FOOTER
            index += 1
            if index == segment_count:
                index = 0
            drained += 1
            if per_segment_credits:
                self._credit_region.write_u64(self._credit_offset,
                                              consumed + drained)
            if self.done:
                break
        if drained:
            self._index = index
            self._consumed = consumed + drained
            self.tuples_received += received
            if metrics is not None:
                hist = self._drain_hist
                if hist is None:
                    hist = self._drain_hist = metrics.histogram(
                        "core.drain_segments")
                hist.record(drained)
            if self._track_credits and not per_segment_credits:
                self._credit_region.write_u64(self._credit_offset,
                                              self._consumed)
        return drained

    def drain_bytes(self, out) -> int:
        """Like :meth:`drain` but appends one zero-copy payload
        ``memoryview`` per data segment (each a whole number of packed
        tuples) instead of unpacking. The views alias ring memory that
        this call already released for overwrite — they are valid only
        until the consuming process yields back to the simulator."""
        if self.done:
            return 0
        mem = self.ring.region.mem
        offsets = self._footer_offsets
        segment_count = len(offsets)
        payload_rows_view = self.ring.payload_rows_view
        append = out.append
        tuple_size = self.schema.tuple_size
        index = self._index
        consumed = self._consumed
        per_segment_credits = (self._track_credits
                               and not self.credit_coalescing)
        metrics = self._metrics
        # Constant sim time across the pass — see :meth:`drain`.
        now = self.node.env.now if metrics is not None else 0.0
        drained = 0
        received = 0
        while True:
            footer_offset = offsets[index]
            flags = mem[footer_offset + 4]
            if not (flags & FLAG_CONSUMABLE):
                break
            used = _FOOTER_USED(mem, footer_offset)[0]
            if flags & (FLAG_CLOSED | FLAG_ABORTED):
                if flags & FLAG_ABORTED:
                    self.aborted = True
                    used = 0
                if flags & FLAG_CLOSED:
                    self.done = True
                    if self._causal is not None:
                        self._causal.close(self._flow, self.node.node_id)
            if used:
                # Whole-row contract checked at the segment layer: the
                # chunks feed columnar fold/unpack kernels downstream.
                append(payload_rows_view(index, used, tuple_size))
                received += used // tuple_size
            if metrics is not None:
                self._note_segment(
                    int.from_bytes(
                        mem[footer_offset + 8:footer_offset + 16],
                        "little"),
                    used // tuple_size, now)
            mem[footer_offset:footer_offset + FOOTER_SIZE] = BLANK_FOOTER
            index += 1
            if index == segment_count:
                index = 0
            drained += 1
            if per_segment_credits:
                self._credit_region.write_u64(self._credit_offset,
                                              consumed + drained)
            if self.done:
                break
        if drained:
            self._index = index
            self._consumed = consumed + drained
            self.tuples_received += received
            if metrics is not None:
                hist = self._drain_hist
                if hist is None:
                    hist = self._drain_hist = metrics.histogram(
                        "core.drain_segments")
                hist.record(drained)
            if self._track_credits and not per_segment_credits:
                self._credit_region.write_u64(self._credit_offset,
                                              self._consumed)
        return drained


class ShuffleSource:
    """The per-thread source endpoint of a shuffle flow."""

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 source_index: int, channels: list) -> None:
        self.registry = registry
        self.descriptor = descriptor
        self.source_index = source_index
        self.node = registry.cluster.node(
            descriptor.sources[source_index].node_id)
        self._channels = channels
        schema = descriptor.schema
        if descriptor.routing is not None:
            self._router = descriptor.routing
        elif descriptor.shuffle_key is not None:
            self._router = key_hash_router(schema, descriptor.shuffle_key)
        elif len(channels) == 1:
            self._router = lambda _values, _count: 0
        else:
            self._router = None  # direct routing only
        self.closed = False
        #: Failure policy (``FlowOptions.on_target_failure``).
        self._policy = descriptor.options.on_target_failure
        #: Channel indices still routable (failed targets drop out).
        self._live = list(range(len(channels)))
        #: Channel indices declared failed.
        self._failed: set[int] = set()

    @classmethod
    def open(cls, registry: FlowRegistry, name: str, source_index: int):
        """Generator: open source endpoint ``source_index`` of flow
        ``name``, waiting for the targets to publish their rings."""
        descriptor = registry.descriptor(name)
        if descriptor.flow_type not in (FlowType.SHUFFLE, FlowType.COMBINER):
            raise FlowError(
                f"flow {name!r} is a {descriptor.flow_type.value} flow")
        if not 0 <= source_index < descriptor.source_count:
            raise FlowError(
                f"source index {source_index} out of range "
                f"[0, {descriptor.source_count})")
        node = registry.cluster.node(
            descriptor.sources[source_index].node_id)
        latency = descriptor.optimization is Optimization.LATENCY
        channel_cls = (LatencySourceChannel if latency
                       else BandwidthSourceChannel)
        channels = []
        for target_index in range(descriptor.target_count):
            handle = yield from registry.wait_ring(name, source_index,
                                                   target_index)
            tag = (name, source_index, target_index)
            channels.append(channel_cls(node, descriptor, handle, tag))
        return cls(registry, descriptor, source_index, channels)

    # -- the push primitive ----------------------------------------------
    def push(self, values: tuple, target: "int | None" = None):
        """Generator: push one tuple into the flow.

        Routing follows the descriptor (shuffle key or routing function)
        unless ``target`` names a target index directly (the paper's third
        routing option).
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        explicit = target is not None
        if explicit:
            if not 0 <= target < len(self._channels):
                raise FlowError(
                    f"routed to target {target}, valid range "
                    f"[0, {len(self._channels)})")
            if target in self._failed:
                raise FlowPeerFailedError(
                    f"target {target} of flow {self.descriptor.name!r} "
                    f"has failed")
        else:
            if self._router is None:
                raise FlowError(
                    "flow has no shuffle key or routing function; pass "
                    "target= explicitly")
            live = self._live
            if not live:
                raise FlowPeerFailedError(
                    f"every target of flow {self.descriptor.name!r} has "
                    f"failed")
            target = live[self._router(values, len(live))]
        try:
            yield from self._channels[target].push(values)
        except (QpFlushedError, FlowTimeoutError) as exc:
            yield from self._handle_channel_failure(target, exc)
            if explicit:
                raise FlowPeerFailedError(
                    f"target {target} of flow {self.descriptor.name!r} "
                    f"failed ({exc})") from exc
            # Reroute policy: the survivors absorb the key space — resend
            # this tuple through the shrunken live set.
            yield from self.push(values)

    def push_many(self, tuples, target: "int | None" = None):
        """Generator: push a batch of tuples (convenience wrapper).

        Per-tuple semantics and event patterns — kept for callers that
        depend on the exact interleaving of per-tuple pushes. New code
        wanting wall-clock throughput should use :meth:`push_batch`.
        """
        for values in tuples:
            yield from self.push(values, target=target)

    def push_batch(self, tuples, target: "int | None" = None):
        """Generator: push a batch of tuples through the batched channel
        path — whole segments are packed with one ``struct`` call instead
        of one per tuple.

        Without an explicit ``target`` the batch is partitioned by the
        flow's router first and each per-channel group is pushed as its
        own batch; tuple order is preserved *within* each channel (the
        only ordering a multi-channel shuffle ever guarantees).
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        channels = self._channels
        if target is not None:
            if not 0 <= target < len(channels):
                raise FlowError(
                    f"routed to target {target}, valid range "
                    f"[0, {len(channels)})")
            if target in self._failed:
                raise FlowPeerFailedError(
                    f"target {target} of flow {self.descriptor.name!r} "
                    f"has failed")
            try:
                yield from channels[target].push_batch(tuples)
            except (QpFlushedError, FlowTimeoutError) as exc:
                yield from self._handle_channel_failure(target, exc)
                raise FlowPeerFailedError(
                    f"target {target} of flow {self.descriptor.name!r} "
                    f"failed ({exc})") from exc
            return
        live = self._live
        if not live:
            raise FlowPeerFailedError(
                f"every target of flow {self.descriptor.name!r} has failed")
        if len(live) == 1:
            index = live[0]
            try:
                yield from channels[index].push_batch(tuples)
            except (QpFlushedError, FlowTimeoutError) as exc:
                yield from self._handle_channel_failure(index, exc)
                yield from self.push_batch(tuples)
            return
        if self._router is None:
            raise FlowError(
                "flow has no shuffle key or routing function; pass "
                "target= explicitly")
        router = self._router
        count = len(live)
        route_many = getattr(router, "route_many", None)
        if route_many is not None:
            groups = route_many(tuples, count)
        else:
            groups = [[] for _ in range(count)]
            appends = [group.append for group in groups]
            for values in tuples:
                appends[router(values, count)](values)
        for slot, group in enumerate(groups):
            if group:
                index = live[slot]
                try:
                    yield from channels[index].push_batch(group)
                except (QpFlushedError, FlowTimeoutError) as exc:
                    yield from self._handle_channel_failure(index, exc)
                    # The live set just shrank, so the remaining groups'
                    # slots no longer line up — re-partition the failed
                    # group plus everything not yet pushed over the
                    # survivors. Tuples the dead target already consumed
                    # may recur on a survivor: reroute is at-least-once
                    # across a failure.
                    remaining = [values for rest in groups[slot:]
                                 for values in rest]
                    yield from self.push_batch(remaining)
                    return

    def push_bytes(self, data, target: "int | None" = None):
        """Generator: push pre-packed tuple bytes (zero per-tuple packing).

        Raw bytes carry no routable key, so a multi-target flow needs an
        explicit ``target``.
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        if target is None:
            if len(self._channels) != 1:
                raise FlowError(
                    "push_bytes cannot route packed tuples; pass target= "
                    "explicitly")
            target = 0
        if not 0 <= target < len(self._channels):
            raise FlowError(
                f"routed to target {target}, valid range "
                f"[0, {len(self._channels)})")
        if target in self._failed:
            raise FlowPeerFailedError(
                f"target {target} of flow {self.descriptor.name!r} has "
                f"failed")
        try:
            yield from self._channels[target].push_bytes(data)
        except (QpFlushedError, FlowTimeoutError) as exc:
            yield from self._handle_channel_failure(target, exc)
            # Packed bytes carry no routable key, so there is no reroute:
            # the failure always surfaces.
            raise FlowPeerFailedError(
                f"target {target} of flow {self.descriptor.name!r} "
                f"failed ({exc})") from exc

    def close(self):
        """Generator: close every live channel (targets see FLOW_END once
        all sources have closed). Close markers are posted to all channels
        first, then acknowledged in parallel. A target failing during
        close follows the flow's failure policy: under ``"reroute"`` the
        close still succeeds on the survivors, under ``"abort"`` the
        survivors are aborted and FlowPeerFailedError is raised."""
        work_requests = []
        failures = []
        for index, channel in enumerate(self._channels):
            try:
                wr = yield from channel.begin_close()
            except (QpFlushedError, FlowTimeoutError) as exc:
                failures.append((index, exc))
                continue
            if wr is not None:
                work_requests.append((index, wr))
        for index, wr in work_requests:
            try:
                if not wr.done.triggered:
                    yield wr.done
                elif wr.error is not None:
                    raise wr.error
            except (QpFlushedError, FlowTimeoutError) as exc:
                failures.append((index, exc))
        self.closed = True
        for index, exc in failures:
            yield from self._handle_channel_failure(index, exc)
        for channel in self._channels:
            if channel.closed:
                channel.release()

    def abort(self):
        """Generator: abort the flow — staged data is dropped and every
        target's consume raises FlowAbortedError (the fault-tolerance
        extension; paper Section 7 lists flow fault tolerance as future
        work).

        The abort is recorded in the registry *before* any marker goes
        out: a target opening afterwards (e.g. one racing
        ``extend_targets``) sees the flag instead of waiting for ring
        traffic that will never come. Published-but-unadopted rings of
        such targets get the abort marker here too."""
        name = self.descriptor.name
        self.registry.mark_flow_aborted(name)
        descriptor = self.registry.descriptor(name)
        channels = list(self._channels)
        latency = descriptor.optimization is Optimization.LATENCY
        channel_cls = (LatencySourceChannel if latency
                       else BandwidthSourceChannel)
        for target_index in range(len(self._channels),
                                  descriptor.target_count):
            handle = self.registry.published_ring(name, self.source_index,
                                                  target_index)
            if handle is not None:
                tag = (name, self.source_index, target_index)
                channels.append(
                    channel_cls(self.node, descriptor, handle, tag))
        for channel in channels:
            try:
                yield from channel.abort()
            except (QpFlushedError, FlowTimeoutError):
                pass  # aborting toward a dead peer: nothing left to void
            channel.release()
        self.closed = True

    def adopt_new_targets(self):
        """Generator: pick up targets added to the flow at runtime
        (elasticity — paper Section 7 future work). New channels are
        opened for every target index beyond the currently known set;
        the router immediately includes them in its fan-out."""
        if self.registry.flow_aborted(self.descriptor.name):
            raise FlowAbortedError(
                f"flow {self.descriptor.name!r} was aborted")
        descriptor = self.registry.descriptor(self.descriptor.name)
        latency = descriptor.optimization is Optimization.LATENCY
        channel_cls = (LatencySourceChannel if latency
                       else BandwidthSourceChannel)
        for target_index in range(len(self._channels),
                                  descriptor.target_count):
            handle = yield from self.registry.wait_ring(
                descriptor.name, self.source_index, target_index)
            tag = (descriptor.name, self.source_index, target_index)
            self._channels.append(
                channel_cls(self.node, descriptor, handle, tag))
            self._live.append(len(self._channels) - 1)
        self.descriptor = descriptor

    def retire_target(self, target_index: int):
        """Generator: stop sending to the *last* target (scale-in). The
        target observes this source's close marker; once every source
        retired it, the target drains to FLOW_END."""
        if target_index != len(self._channels) - 1:
            raise FlowError(
                "only the last target can be retired (index "
                f"{len(self._channels) - 1}, got {target_index})")
        if len(self._channels) == 1:
            raise FlowError("cannot retire the only target; close the "
                            "flow instead")
        channel = self._channels.pop()
        index = len(self._channels)
        if index in self._live:
            self._live.remove(index)
        self._failed.discard(index)
        try:
            yield from channel.close()
        except (QpFlushedError, FlowTimeoutError):
            pass  # the retired target is already gone; nothing to close

    # -- failure policy ----------------------------------------------------
    def _handle_channel_failure(self, index: int, exc: Exception):
        """Generator: apply the flow's failure policy after channel
        ``index`` hit a transport flush or exhausted its retry budget.

        Returns normally only when the reroute policy can absorb the
        failure; otherwise raises (FlowTimeoutError for a stall whose
        peer is not known dead, FlowPeerFailedError after aborting the
        survivors under the abort policy)."""
        channel = self._channels[index]
        channel.closed = True  # no further traffic toward the dead ring
        if index not in self._failed:
            self._failed.add(index)
            if index in self._live:
                self._live.remove(index)
        faults = self.node.cluster.faults
        peer = self.registry.cluster.node(
            self.descriptor.targets[index].node_id)
        peer_dead = (isinstance(exc, QpFlushedError)
                     or (faults is not None and faults.active
                         and faults.peer_failed(self.node, peer)))
        metrics, tracer = endpoint_obs(self.node, self.descriptor.name,
                                       self.descriptor.options)
        if metrics is not None:
            metrics.inc("core.target_failures")
        if not peer_dead:
            # A stall, not a detected failure (e.g. a slow consumer ran
            # the retry budget out): surface the timeout unchanged.
            raise exc
        now = self.node.env.now
        if metrics is not None:
            metrics.inc("core.peer_failures_detected")
        if tracer is not None:
            tracer.emit(now, FAULT_DETECT, self.node.node_id,
                        f"src{self.source_index}",
                        {"target": index, "peer_node": peer.node_id,
                         "cause": type(exc).__name__})
        if (self._policy == "reroute" and self._router is not None
                and self._live):
            if metrics is not None:
                metrics.inc("core.reroutes")
            if tracer is not None:
                tracer.emit(now, REROUTE, self.node.node_id,
                            f"src{self.source_index}",
                            {"target": index,
                             "survivors": len(self._live)})
            return  # the survivors absorb the failed target's share
        yield from self._abort_survivors()
        raise FlowPeerFailedError(
            f"target {index} of flow {self.descriptor.name!r} failed "
            f"({exc})") from exc

    def _abort_survivors(self):
        """Generator: best-effort abort of every remaining live channel
        (the abort-policy teardown — some survivors may be dead too)."""
        self.registry.mark_flow_aborted(self.descriptor.name)
        for index in list(self._live):
            channel = self._channels[index]
            try:
                yield from channel.abort()
            except (QpFlushedError, FlowTimeoutError):
                pass  # that target is gone as well
        self._live.clear()
        self.closed = True

    @property
    def failed_targets(self) -> tuple:
        """Indices of targets this source has declared failed."""
        return tuple(sorted(self._failed))

    # -- introspection -----------------------------------------------------
    @property
    def tuples_sent(self) -> int:
        return sum(channel.tuples_sent for channel in self._channels)

    @property
    def memory_bytes(self) -> int:
        """Send-side buffer memory of this endpoint (§6.1.4 accounting)."""
        return sum(channel.memory_bytes for channel in self._channels)


class ShuffleTarget:
    """The per-thread target endpoint of a shuffle flow."""

    #: Flow types this endpoint class may open (subclasses override).
    _allowed_flow_types = (FlowType.SHUFFLE, FlowType.COMBINER)

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 target_index: int, channels: list[TargetChannel]) -> None:
        self.registry = registry
        self.descriptor = descriptor
        self.target_index = target_index
        self.node = registry.cluster.node(
            descriptor.targets[target_index].node_id)
        self._channels = channels
        self._buffer: deque = deque()
        # Doorbell set: channel indices whose ring saw a write since the
        # channel was last drained. A persistent write hook per ring feeds
        # it, so a scan touches only channels that actually received data
        # instead of round-robin-polling every idle ring (O(dirty), not
        # O(channels), on N:1 flows). An insertion-ordered dict keeps the
        # drain order deterministic (write-arrival order). All channels
        # start dirty; hooks are registered here — synchronously with ring
        # allocation, before any simulated write can land — so no doorbell
        # ring is ever missed. The same hook doubles as the consume
        # wake-up (succeeding ``_wake_event`` when one is armed),
        # replacing the per-wakeup transient hooks of ``_RingWriteWaiter``
        # — rings keep exactly one hook, so every RDMA write stays on the
        # region's single-hook fast path. Bounded: keys are channel
        # indices, so the set never exceeds the flow's source count and
        # dies with the target (scale audit: no per-message growth).
        self._dirty: dict = dict.fromkeys(range(len(channels)))
        self._wake_event = None
        # A flow aborted before this target opened (abort racing
        # extend_targets): surface the abort instead of waiting for ring
        # traffic that will never come.
        self._abort_seen = registry.flow_aborted(descriptor.name)
        self._peer_timeout = descriptor.options.peer_timeout
        self._env = self.node.env
        # Merged wake+poll (the target half of steady-state event
        # elision): with no peer-timeout bound, the post-wake poll charge
        # is an unconditional constant, so the doorbell hook can schedule
        # the armed wake event directly at ``commit + cpu_poll_cost``
        # instead of a zero-delay wake whose resume immediately arms a
        # poll timeout for that same instant. The consuming process
        # resumes at the identical simulated time (a zero-delay wake
        # never advances the clock, and ``_poll_delay`` is the exact
        # float ``node.compute(cpu_poll_cost)`` would charge —
        # ``_cpu_scale`` is construction-constant); one kernel event and
        # one generator round-trip per wakeup are elided. With a
        # peer-timeout bound the wake outcome feeds a deadline decision,
        # so those flows keep the event-by-event wait verbatim.
        if _config.FASTPATH_ENABLED and self._peer_timeout is None:
            self._poll_delay = (self.node.cluster.profile.cpu_poll_cost
                                / self.node._cpu_scale)
        else:
            self._poll_delay = None
        for index, channel in enumerate(channels):
            channel.ring.region.add_write_hook(
                self._make_doorbell(index))

    def _make_doorbell(self, index: int):
        dirty = self._dirty
        poll_delay = self._poll_delay
        if poll_delay is not None:
            env = self._env

            def ring_doorbell(_offset, _length):
                dirty[index] = None
                event = self._wake_event
                if event is not None:
                    self._wake_event = None
                    # Fused wake: trigger the armed event at the exact
                    # instant the event path's post-wake poll timeout
                    # would fire (mirrors Timeout construction).
                    event._value = None
                    env._schedule(event, poll_delay)
            return ring_doorbell

        def ring_doorbell(_offset, _length):
            dirty[index] = None
            event = self._wake_event
            if event is not None:
                self._wake_event = None
                event.succeed()
        return ring_doorbell

    def _arm(self):
        """Arm the doorbell wake-up: returns a fresh event the next ring
        write will succeed. Timing-identical to the transient-hook waiter
        it replaces (one event per arm, fired by the first write that
        lands while armed)."""
        event = self._env.event()
        self._wake_event = event
        return event

    def _disarm(self) -> None:
        self._wake_event = None

    def _bounded_wait(self, wait_event):
        """Generator: block on the armed doorbell. With ``peer_timeout``
        unset this is a plain wait (the pre-fault-plane event pattern,
        bit-for-bit). With it set, the wait is bounded: a doorbell that
        stays silent past the bound raises FlowPeerFailedError (a pending
        peer is known dead) or FlowTimeoutError (pure stall). Progress
        resets the bound naturally — every wait starts a fresh window."""
        if self._peer_timeout is None:
            yield wait_event
            return
        while True:
            timer = self._env.timeout(self._peer_timeout)
            yield self._env.any_of([wait_event, timer])
            if wait_event.triggered:
                return
            if stall_is_congestion(self.node):
                # The silence is explained by active throttling on an
                # inbound path — congestion, not peer death. Re-arm the
                # deadline instead of misfiring; throttle state
                # self-clears, so the grace loop cannot spin forever.
                metrics, _tracer = endpoint_obs(self.node,
                                                self.descriptor.name,
                                                self.descriptor.options)
                if metrics is not None:
                    metrics.inc("core.congestion_grace")
                continue
            self._disarm()
            self._raise_peer_failure()

    def _raise_peer_failure(self):
        """No progress within the detection bound: classify and raise."""
        pending = [index for index, channel in enumerate(self._channels)
                   if not channel.done]
        faults = self.node.cluster.faults
        metrics, tracer = endpoint_obs(self.node, self.descriptor.name,
                                       self.descriptor.options)
        if faults is not None and faults.active:
            dead = []
            for index in pending:
                peer = self.registry.cluster.node(
                    self.descriptor.sources[index].node_id)
                if faults.peer_failed(self.node, peer):
                    dead.append(index)
            if dead:
                if metrics is not None:
                    metrics.inc("core.peer_failures_detected")
                if tracer is not None:
                    tracer.emit(self._env.now, FAULT_DETECT,
                                self.node.node_id,
                                f"tgt{self.target_index}",
                                {"sources": dead})
                raise FlowPeerFailedError(
                    f"flow {self.descriptor.name!r}: source(s) {dead} "
                    f"failed before closing their channels")
        if metrics is not None:
            metrics.inc("core.consume_timeouts")
        raise FlowTimeoutError(
            f"flow {self.descriptor.name!r}: no segment arrived within "
            f"{self._peer_timeout:.0f} ns; channels {pending} still open")

    @classmethod
    def open(cls, registry: FlowRegistry, name: str,
             target_index: int) -> "ShuffleTarget":
        """Open target endpoint ``target_index`` of flow ``name``:
        allocates the receive rings and publishes them for the sources."""
        descriptor = registry.descriptor(name)
        if descriptor.flow_type not in cls._allowed_flow_types:
            raise FlowError(
                f"flow {name!r} is a {descriptor.flow_type.value} flow")
        if not 0 <= target_index < descriptor.target_count:
            raise FlowError(
                f"target index {target_index} out of range "
                f"[0, {descriptor.target_count})")
        node = registry.cluster.node(
            descriptor.targets[target_index].node_id)
        nic = get_nic(node)
        payload = segment_payload_size(descriptor)
        credit_region = nic.register_memory(8 * descriptor.source_count)
        channels = []
        for source_index in range(descriptor.source_count):
            ring = SegmentRing.allocate(
                nic, descriptor.options.target_segments, payload)
            credit_offset = 8 * source_index
            channels.append(TargetChannel(node, descriptor, ring,
                                          credit_region, credit_offset))
            registry.publish_ring(name, source_index, target_index,
                                  RingHandle(
                                      node_id=node.node_id,
                                      rkey=ring.region.rkey,
                                      segment_count=ring.segment_count,
                                      segment_size=ring.segment_size,
                                      credit_rkey=credit_region.rkey,
                                      credit_offset=credit_offset))
        return cls(registry, descriptor, target_index, channels)

    # -- the consume primitive ----------------------------------------------
    def consume(self):
        """Generator: return the next tuple, or :data:`FLOW_END` once every
        source has closed and all data has been drained.

        Buffered tuples are always delivered before an abort surfaces: a
        single drain pass can pick up data segments *and* an abort marker,
        and per-channel FIFO delivery holds up to the abort point —
        :class:`FlowAbortedError` is raised once the buffer is empty.
        """
        buffer = self._buffer
        if buffer:
            return buffer.popleft()
        while True:
            wait_event = self._arm()
            progressed = self._scan(buffer)
            if buffer:
                self._disarm()
                return buffer.popleft()
            if self._abort_seen:
                self._disarm()
                raise FlowAbortedError(
                    f"flow {self.descriptor.name!r} was aborted by a "
                    f"source")
            if self._finished():
                self._disarm()
                return FLOW_END
            if progressed:
                # Close markers or empty segments arrived; rescan.
                self._disarm()
                continue
            yield from self._bounded_wait(wait_event)
            self._disarm()
            if self._poll_delay is None:
                # Event path: charge the poll separately. (The fused
                # wake above already fired at wake + poll cost.)
                yield self.node.compute(
                    self.node.cluster.profile.cpu_poll_cost)

    def consume_batch(self):
        """Generator: return every tuple available right now as one list,
        or :data:`FLOW_END` once all sources closed and data drained.

        Batch-size contract: the list holds **all** tuples buffered at
        return time — every ready channel is drained first (all of its
        consecutive consumable segments), so a batch spans segments and
        channels; the flow never returns after just the first buffered
        segment. Its length is bounded by what the receive rings can hold
        (``source_count * target_segments`` segments) plus whatever an
        earlier per-tuple ``consume`` left buffered, and is at least 1 —
        an exhausted flow returns :data:`FLOW_END`, never ``[]``. As with
        :meth:`consume`, buffered tuples are delivered before an abort is
        raised.
        """
        buffer = self._buffer
        if buffer:
            # Leftovers from per-tuple consumes: drain into the deque so
            # FIFO order holds across the mix, then hand over everything.
            if self._dirty:
                self._scan(buffer)
            batch = list(buffer)
            buffer.clear()
            return batch
        if self._dirty:
            # Hot path: drain straight into the batch list — no deque
            # round-trip per tuple.
            batch: list = []
            self._scan(batch)
            if batch:
                return batch
        while True:
            wait_event = self._arm()
            batch = []
            progressed = self._scan(batch)
            if batch:
                self._disarm()
                return batch
            if self._abort_seen:
                self._disarm()
                raise FlowAbortedError(
                    f"flow {self.descriptor.name!r} was aborted by a "
                    f"source")
            if self._finished():
                self._disarm()
                return FLOW_END
            if progressed:
                self._disarm()
                continue
            yield from self._bounded_wait(wait_event)
            self._disarm()
            if self._poll_delay is None:
                # Event path: charge the poll separately. (The fused
                # wake above already fired at wake + poll cost.)
                yield self.node.compute(
                    self.node.cluster.profile.cpu_poll_cost)

    def consume_bytes(self):
        """Generator: return a list of zero-copy payload ``memoryview``
        chunks — one per drained segment, each a whole number of tuples
        packed in the flow's schema — or :data:`FLOW_END`. The mirror of
        ``push_bytes``: tuples cross the consume boundary without ever
        being unpacked (``Schema.unpack_rows``/``row_views`` decode on
        demand).

        Lifetime rule: the views alias receive-ring memory whose segments
        this call already released for reuse. They stay valid only until
        the consuming process next yields to the simulator (its next
        ``yield``/``yield from`` — another consume, a push, a compute);
        after that a source may overwrite them. Copy with ``bytes(view)``
        to keep data longer.

        Cannot be mixed with tuple-returning consumes while unpacked
        tuples are buffered (raises :class:`FlowError`).
        """
        if self._buffer:
            raise FlowError(
                "consume_bytes with unpacked tuples buffered; drain them "
                "with consume/consume_batch first")
        chunks: list = []
        if self._dirty:
            self._scan_bytes(chunks)
        if chunks:
            return chunks
        while True:
            wait_event = self._arm()
            progressed = self._scan_bytes(chunks)
            if chunks:
                self._disarm()
                return chunks
            if self._abort_seen:
                self._disarm()
                raise FlowAbortedError(
                    f"flow {self.descriptor.name!r} was aborted by a "
                    f"source")
            if self._finished():
                self._disarm()
                return FLOW_END
            if progressed:
                self._disarm()
                continue
            yield from self._bounded_wait(wait_event)
            self._disarm()
            if self._poll_delay is None:
                # Event path: charge the poll separately. (The fused
                # wake above already fired at wake + poll cost.)
                yield self.node.compute(
                    self.node.cluster.profile.cpu_poll_cost)

    def _finished(self) -> bool:
        """True once the flow is fully drained (hook for subclasses)."""
        return all(channel.done for channel in self._channels)

    def _scan(self, out) -> bool:
        """Drain every doorbell'd channel into ``out`` (any container
        with ``extend`` — the tuple buffer deque, or a batch list that
        goes straight to the caller without a deque round-trip).

        Each dirty channel is drained of all its consecutive consumable
        segments; a channel leaves the dirty set only here, immediately
        before the drain, so a write landing later re-marks it via the
        hook and nothing is ever missed. Drains fire no write hooks
        themselves (footer releases are direct memory stores), so the
        set cannot grow while it is walked by our own doing.
        """
        progressed = False
        dirty = self._dirty
        channels = self._channels
        while dirty:
            index = next(iter(dirty))
            del dirty[index]
            channel = channels[index]
            if channel.drain(out):
                progressed = True
                if channel.aborted:
                    self._abort_seen = True
        return progressed

    def _scan_bytes(self, out: list) -> bool:
        """Doorbell-set scan for the zero-copy path: chunks, not tuples."""
        progressed = False
        dirty = self._dirty
        channels = self._channels
        while dirty:
            index = next(iter(dirty))
            del dirty[index]
            channel = channels[index]
            if channel.drain_bytes(out):
                progressed = True
                if channel.aborted:
                    self._abort_seen = True
        return progressed

    # -- introspection -----------------------------------------------------
    @property
    def tuples_received(self) -> int:
        return sum(channel.tuples_received for channel in self._channels)

    @property
    def memory_bytes(self) -> int:
        """Receive-side buffer memory of this endpoint."""
        return sum(channel.memory_bytes for channel in self._channels)
