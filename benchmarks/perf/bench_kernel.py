"""Wall-clock microbench of the discrete-event kernel.

Measures raw events/sec through ``Environment`` for the event shapes the
DFI hot path produces: timeout storms (NIC timers), zero-delay wakeup
chains (process resume cascades), process ping-pong through manual
events, and a flow-shaped macro-mix (the 64-node 8×8 shuffle mesh). Run
with::

    PYTHONPATH=src python benchmarks/perf/bench_kernel.py [--profile]

Emits ``benchmarks/perf/BENCH_kernel.json``. ``--profile`` wraps the run in cProfile and prints the top 20 entries by
cumulative time.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, os.pardir, "src"))

from profutil import maybe_profiled  # noqa: E402

from repro.simnet import Environment  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUTPUT = os.path.join(HERE, "BENCH_kernel.json")


def bench_timeout_storm(n: int) -> dict:
    """n independent timeouts with distinct delays (heap-heavy)."""
    env = Environment()
    for i in range(n):
        env.timeout(float(i % 97) + 1.0)
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    return {"name": "timeout_storm", "events": n, "wall_seconds": wall,
            "events_per_sec": n / wall}


def bench_zero_delay_chain(n: int) -> dict:
    """One process yielding n zero-delay timeouts (self-wakeup chain)."""
    env = Environment()

    def chain(env):
        for _ in range(n):
            yield env.timeout(0.0)

    env.process(chain(env))
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    return {"name": "zero_delay_chain", "events": n, "wall_seconds": wall,
            "events_per_sec": n / wall}


def bench_ping_pong(n: int) -> dict:
    """Two processes handing control back and forth via manual events."""
    env = Environment()
    state = {"ping": env.event(), "pong": env.event()}

    def pinger(env):
        for _ in range(n):
            state["ping"].succeed()
            event = state["pong"] = env.event()
            yield event

    def ponger(env):
        for _ in range(n):
            event = state["ping"]
            yield event
            state["ping"] = env.event()
            state["pong"].succeed()

    env.process(ponger(env))
    env.process(pinger(env))
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    events = 2 * n
    return {"name": "ping_pong", "events": events, "wall_seconds": wall,
            "events_per_sec": events / wall}


def bench_pooled_timeouts(n: int) -> dict:
    """Sequential timeouts from one process (pool-friendly shape)."""
    env = Environment()

    def worker(env):
        for i in range(n):
            yield env.timeout(1.0)

    env.process(worker(env))
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    return {"name": "sequential_timeouts", "events": n,
            "wall_seconds": wall, "events_per_sec": n / wall}


def bench_callback_schedule(n: int) -> dict:
    """n direct callbacks via ``schedule_at`` (one timer churn each)."""
    env = Environment()
    sink = []
    append = sink.append
    for i in range(n):
        env.schedule_at(float(i % 97) + 1.0, lambda: append(None))
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    assert len(sink) == n
    return {"name": "callback_schedule", "events": n, "wall_seconds": wall,
            "events_per_sec": n / wall}


def bench_train_schedule(n: int) -> dict:
    """The same n callbacks posted as trains of 16 via ``schedule_train``
    (one chained recycled timer walks each sorted action list) — the
    kernel shape a doorbell-batched NIC produces."""
    env = Environment()
    sink = []
    append = sink.append
    for base in range(0, n, 16):
        env.schedule_train([(float(base % 97) + 1.0 + 0.01 * i, append, None)
                            for i in range(min(16, n - base))])
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    assert len(sink) == n
    return {"name": "train_schedule", "events": n, "wall_seconds": wall,
            "events_per_sec": n / wall}


def bench_flow_mesh(_n: int) -> dict:
    """64-node 8×8 shuffle mesh: the kernel under a real flow-shaped
    event mix (fabric arrivals, doorbell trains, footer polls, credit
    writes) rather than a synthetic timer storm. ``events`` counts
    scheduled kernel events (``env._sequence``)."""
    from repro.bench.flows import run_shuffle_mesh

    result = run_shuffle_mesh(8, 8, tuples_per_source=512)
    cluster = result.pop("cluster")
    events = cluster.env._sequence
    wall = result["wall_seconds"]
    return {"name": "flow_mesh_64", "events": events, "wall_seconds": wall,
            "events_per_sec": events / wall, "sim_ns": result["sim_ns"],
            "nodes": result["nodes"]}


def main() -> None:
    n = int(os.environ.get("BENCH_KERNEL_EVENTS", 200_000))
    results = {"bench": "kernel", "scenarios": []}
    for fn in (bench_timeout_storm, bench_zero_delay_chain,
               bench_ping_pong, bench_pooled_timeouts,
               bench_callback_schedule, bench_train_schedule,
               bench_flow_mesh):
        entry = fn(n)
        results["scenarios"].append(entry)
        print(f"{entry['name']:>20}: {entry['events_per_sec']:12.0f} "
              f"events/s")
    with open(OUTPUT, "w") as fh:
        json.dump(results, fh, indent=2)
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    maybe_profiled(main)
