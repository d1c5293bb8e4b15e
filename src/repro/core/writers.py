"""Low-level remote-ring writers used by replicate flows.

Two synchronization strategies, mirroring the shuffle-flow channel designs
(paper Sections 5.2 / 5.3):

* :class:`FooterRingWriter` — bandwidth protocol: pipelined footer pre-read
  of segment *n+1* with the write of *n*, random-backoff polling on a full
  ring, selective signaling;
* :class:`CreditRingWriter` — latency protocol: a target-side consumed
  counter read asynchronously when the local credit estimate runs low.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common import config as _config
from repro.common.errors import FlowTimeoutError
from repro.core.backoff import traced_backoff
from repro.core.registry import RingHandle
from repro.core.segment import (
    FOOTER_SIZE,
    footer_consumable,
    pack_footer,
    pack_footer_into,
)
from repro.rdma.nic import get_nic
from repro.simnet.congestion import stall_is_congestion

if TYPE_CHECKING:
    from repro.simnet.node import Node


def _congestion_grace(node: "Node", remote_id: int, metrics) -> bool:
    """A writer whose backoff budget ran out is forgiven while the path to
    the remote ring is visibly congestion-throttled: the ring is full
    because the fabric is slow, not because the peer went silent, so
    raising ``FlowTimeoutError`` would misreport congestion as failure.
    Throttle state self-clears (queues drain, rates recover), so grace is
    bounded — once the path looks healthy again the very next exhausted
    round raises."""
    remote = node.cluster.node(remote_id)
    if not stall_is_congestion(node, remote):
        return False
    if metrics is not None:
        metrics.inc("core.congestion_grace")
    return True


class FooterRingWriter:
    """Writes whole segment slots to a remote ring, footer-synchronized."""

    def __init__(self, node: "Node", handle: RingHandle,
                 tag: tuple, signal_interval: int = 16,
                 max_retries: "int | None" = None) -> None:
        self.node = node
        self.env = node.env
        nic = get_nic(node)
        self.qp = nic.create_qp(node.cluster.node(handle.node_id))
        self._scratch = nic.register_memory(FOOTER_SIZE)
        self.handle = handle
        self.slot_size = handle.segment_size + FOOTER_SIZE
        self._rng = node.backoff_rng
        self._max_retries = max_retries
        self._remote_index = 0
        self._pending_read = None
        self._signal_interval = signal_interval
        self._since_signal = 0
        self._signal_wr = None
        self.segments_written = 0
        # Doorbell trains (see BandwidthSourceChannel): one windowed
        # footer read proves a half-ring of slots writable at once.
        self._train_window = max(1, handle.segment_count // 2)
        self._window_left = 0
        self._pending_window_read = None
        #: Observability registry of the owning node (``None`` when the
        #: plane is off — one attribute check per guarded site).
        self._metrics = node.metrics
        self._causal = node.causal
        self._flow = tag[0]
        # Replicate passes (flow, source_index, target_index); tests may
        # construct writers with a bare (flow,) tag.
        self._tid = (f"r{tag[1]}->t{tag[2]}" if len(tag) >= 3
                     else f"r{tag[0]}")
        # Steady-state event elision (see BandwidthSourceChannel): fuse
        # doorbell trains into macro-events when telemetry is off;
        # fault/congestion planes are re-checked per flush inside
        # ``post_write_train_fused``.
        self._fused = (_config.FASTPATH_ENABLED
                       and self._metrics is None)

    def write_segment(self, payload: bytes, flags: int, seq: int,
                      source_index: int = 0):
        """Generator: transfer one segment into the next remote slot,
        synchronizing on its writability first.

        Full segments go out as one contiguous payload+footer write.
        Partial segments (final flushes, close markers) write only the
        used payload followed by a separate footer write at the fixed
        end-of-segment position — RC per-QP ordering keeps the footer
        landing strictly after the payload.
        """
        # A windowed proof from a preceding train covers this slot; the
        # pipelined window read goes stale once the index advances.
        self._pending_window_read = None
        if self._window_left > 0:
            self._window_left -= 1
        else:
            yield from self._ensure_writable()
        if (self._signal_wr is not None
                and self._since_signal >= self._signal_interval):
            if not self._signal_wr.done.triggered:
                yield self._signal_wr.done
            self._signal_wr = None
            self._since_signal = 0
            self.qp.send_cq.poll(max_entries=64)
        signaled = self._since_signal + 1 >= self._signal_interval
        remote_offset = self._remote_index * self.slot_size
        footer = pack_footer(len(payload), flags, seq, source_index)
        if len(payload) == self.handle.segment_size:
            # Gather post: payload + footer leave as one wire write with
            # no concatenation copy.
            wr = self.qp.post_write([payload, footer], self.handle.rkey,
                                    remote_offset, signaled=signaled)
        else:
            if payload:
                self.qp.post_write(payload, self.handle.rkey,
                                   remote_offset, signaled=False)
            wr = self.qp.post_write(
                footer, self.handle.rkey,
                remote_offset + self.handle.segment_size, signaled=signaled)
        if signaled:
            self._signal_wr = wr
        self._since_signal += 1
        self.segments_written += 1
        if self._metrics is not None:
            self._metrics.inc("core.segments_written")
        next_index = (self._remote_index + 1) % self.handle.segment_count
        self._pending_read = self.qp.post_read(
            self._scratch, 0, self.handle.rkey,
            next_index * self.slot_size + self.handle.segment_size,
            FOOTER_SIZE, signaled=False)
        self._remote_index = next_index
        return wr

    def write_segments(self, segments, source_index: int = 0):
        """Generator: transfer a train of *full* segments, one doorbell
        ring per windowed chunk.

        ``segments`` is a sequence of ``(payload, flags, seq)`` tuples
        whose payloads each fill a whole segment (partial segments and
        close markers must go through :meth:`write_segment`). Each chunk
        is bounded by the writability window and the selective-signaling
        interval, so at most the last WQE of a chunk is signaled and one
        footer read proves a half-ring of slots. Returns the last posted
        work request.
        """
        handle = self.handle
        rkey = handle.rkey
        slot_size = self.slot_size
        segment_size = handle.segment_size
        segment_count = handle.segment_count
        interval = self._signal_interval
        post_write = self.qp.post_write
        wr = None
        index = 0
        total = len(segments)
        while index < total:
            if (self._signal_wr is not None
                    and self._since_signal >= interval):
                if not self._signal_wr.done.triggered:
                    yield self._signal_wr.done
                self._signal_wr = None
                self._since_signal = 0
                self.qp.send_cq.poll(max_entries=64)
            if not self._window_left:
                yield from self._acquire_window()
            take = min(self._window_left, total - index,
                       interval - self._since_signal)
            # Per-chunk state lives in locals across the inner loop; the
            # chunk bound guarantees only its last WQE can be signaled.
            remote_index = self._remote_index
            since_signal = self._since_signal
            for payload, flags, seq in segments[index:index + take]:
                since_signal += 1
                signaled = since_signal >= interval
                wr = post_write(
                    [payload,
                     pack_footer(segment_size, flags, seq, source_index)],
                    rkey, remote_index * slot_size, signaled=signaled,
                    doorbell=False)
                if signaled:
                    self._signal_wr = wr
                remote_index += 1
                if remote_index == segment_count:
                    remote_index = 0
            self._remote_index = remote_index
            self._since_signal = since_signal
            self.segments_written += take
            self._window_left -= take
            index += take
            if self._metrics is not None:
                self._metrics.inc("core.segments_written", take)
            self.qp.ring_doorbell(fused=self._fused)
            # Any per-segment pre-read refers to a slot this train wrote.
            self._pending_read = None
            if self._window_left == 0:
                self._pending_window_read = self._read_footer_ahead(
                    self._train_window)
        return wr

    def _acquire_window(self):
        """Generator: make ``_window_left`` positive with one footer read
        ``W - 1`` slots ahead (the windowed-writability proof — see
        ``BandwidthSourceChannel._acquire_train_window``)."""
        window = self._train_window
        wr = self._pending_window_read
        self._pending_window_read = None
        if wr is None:
            wr = self._pending_read
            self._pending_read = None
            if wr is not None:
                window = 1
        metrics = self._metrics
        if metrics is not None:
            metrics.inc("core.preread_hits" if wr is not None
                        else "core.preread_misses")
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
                                              self.handle.node_id, metrics)):
                raise FlowTimeoutError(
                    f"remote ring on node {self.handle.node_id} still "
                    f"full after {attempt} backoff rounds")
            if metrics is not None:
                metrics.inc("core.backoff_rounds")
            yield self.env.timeout(traced_backoff(
                self._rng, attempt, self._causal, self.node.node_id,
                self._tid, self._flow))
            attempt += 1
            window = self._train_window
            wr = self._read_footer_ahead(window)

    def _read_footer_ahead(self, window: int):
        slot = (self._remote_index + window - 1) % self.handle.segment_count
        return self.qp.post_read(
            self._scratch, 0, self.handle.rkey,
            slot * self.slot_size + self.handle.segment_size,
            FOOTER_SIZE, signaled=False)

    def _ensure_writable(self):
        wr = self._pending_read
        self._pending_read = None
        metrics = self._metrics
        if metrics is not None:
            metrics.inc("core.preread_hits" if wr is not None
                        else "core.preread_misses")
        if wr is None:
            wr = self._read_footer()
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
            if (self._max_retries is not None
                    and attempt >= self._max_retries
                    and not _congestion_grace(self.node,
                                              self.handle.node_id, metrics)):
                raise FlowTimeoutError(
                    f"remote ring on node {self.handle.node_id} still "
                    f"full after {attempt} backoff rounds")
            if metrics is not None:
                metrics.inc("core.backoff_rounds")
            yield self.env.timeout(traced_backoff(
                self._rng, attempt, self._causal, self.node.node_id,
                self._tid, self._flow))
            attempt += 1
            wr = self._read_footer()

    def _read_footer(self):
        offset = (self._remote_index * self.slot_size
                  + self.handle.segment_size)
        return self.qp.post_read(self._scratch, 0, self.handle.rkey, offset,
                                 FOOTER_SIZE, signaled=False)


class CreditRingWriter:
    """Writes segment slots to a remote ring under credit flow control."""

    def __init__(self, node: "Node", handle: RingHandle, tag: tuple,
                 credit_threshold: int,
                 max_retries: "int | None" = None) -> None:
        if handle.credit_rkey is None:
            raise ValueError("credit writer needs a credit counter handle")
        self.node = node
        self.env = node.env
        nic = get_nic(node)
        self.qp = nic.create_qp(node.cluster.node(handle.node_id))
        self._scratch = nic.register_memory(8)
        self.handle = handle
        self.slot_size = handle.segment_size + FOOTER_SIZE
        self._rng = node.backoff_rng
        self._max_retries = max_retries
        self._threshold = credit_threshold
        self._sent = 0
        self._cached_consumed = 0
        self._pending_read = None
        self.segments_written = 0
        self._metrics = node.metrics
        self._causal = node.causal
        self._flow = tag[0]
        # Replicate passes (flow, source_index, target_index); tests may
        # construct writers with a bare (flow,) tag.
        self._tid = (f"r{tag[1]}->t{tag[2]}" if len(tag) >= 3
                     else f"r{tag[0]}")
        self._credit_read_issued = 0.0

    @property
    def _available(self) -> int:
        return self.handle.segment_count - (self._sent
                                            - self._cached_consumed)

    def write_segment(self, payload: bytes, flags: int, seq: int,
                      source_index: int = 0):
        """Generator: transfer one segment after acquiring a credit."""
        yield from self._acquire_credit()
        remote_offset = ((self._sent % self.handle.segment_count)
                         * self.slot_size)
        footer = pack_footer(len(payload), flags, seq, source_index)
        if len(payload) == self.handle.segment_size:
            wr = self.qp.post_write([payload, footer], self.handle.rkey,
                                    remote_offset, signaled=False)
        else:
            if payload:
                self.qp.post_write(payload, self.handle.rkey,
                                   remote_offset, signaled=False)
            wr = self.qp.post_write(
                footer, self.handle.rkey,
                remote_offset + self.handle.segment_size, signaled=False)
        self._sent += 1
        self.segments_written += 1
        if self._metrics is not None:
            self._metrics.inc("core.segments_written")
        if self._available <= self._threshold and self._pending_read is None:
            self._refresh_async()
        return wr

    def _refresh_async(self) -> None:
        if self._metrics is not None:
            self._credit_read_issued = self.env.now
        self._pending_read = self.qp.post_read(
            self._scratch, 0, self.handle.credit_rkey,
            self.handle.credit_offset, 8, signaled=False)

    def _acquire_credit(self):
        metrics = self._metrics
        pending = self._pending_read
        if pending is not None and pending.done.triggered:
            self._apply(pending.done.value)
            self._pending_read = None
            if metrics is not None:
                metrics.observe("core.credit_rtt",
                                self.env.now - self._credit_read_issued)
        attempt = 0
        while self._available <= 0:
            if metrics is not None:
                metrics.inc("core.credit_stalls")
            if self._pending_read is None:
                self._refresh_async()
            wait_from = self.env.now
            data = yield self._pending_read.done
            if self._causal is not None and self.env.now > wait_from:
                self._causal.edge(self.env.now, wait_from, "credit_stall",
                                  self.node.node_id, self._tid, self._flow)
            self._pending_read = None
            self._apply(data)
            if metrics is not None:
                metrics.observe("core.credit_rtt",
                                self.env.now - self._credit_read_issued)
            if self._available <= 0:
                if (self._max_retries is not None
                        and attempt >= self._max_retries
                        and not _congestion_grace(
                            self.node, self.handle.node_id, metrics)):
                    raise FlowTimeoutError(
                        f"no credit from node {self.handle.node_id} "
                        f"after {attempt} backoff rounds")
                if metrics is not None:
                    metrics.inc("core.backoff_rounds")
                yield self.env.timeout(traced_backoff(
                    self._rng, attempt, self._causal, self.node.node_id,
                    self._tid, self._flow))
                attempt += 1

    def _apply(self, data: bytes) -> None:
        consumed = int.from_bytes(data, "little")
        if consumed > self._cached_consumed:
            self._cached_consumed = consumed


def build_slot(payload: bytes, segment_size: int, flags: int, seq: int,
               source_index: int = 0) -> bytes:
    """Assemble one wire slot: payload, zero padding, 16-byte footer."""
    used = len(payload)
    if used > segment_size:
        raise ValueError(
            f"payload of {used} bytes exceeds segment size "
            f"{segment_size}")
    # One allocation: a pre-zeroed slot, payload and footer packed in place.
    slot = bytearray(segment_size + FOOTER_SIZE)
    slot[:used] = payload
    pack_footer_into(slot, segment_size, used, flags, seq, source_index)
    return bytes(slot)
