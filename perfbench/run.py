"""The DFI simulator benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload shuffle_bulk --seed 0 --trace 0
    python3 perfbench/run.py --workload shuffle_bulk --seed 0 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off:
``ops_per_s`` (lower decile over passes), ``setup_s`` (median over fresh
processes) and ``peak_rss_mb``. ``--trace 1`` runs untraced passes, then
profiles the timed region of further passes and prints the per-layer
table. Every pass is checked against its inputs; the last stdout line is
one JSON object, and the exit code is 1 when any check failed. See
``perfbench/README.md``.
"""

import time

#: Taken before anything else is imported: ``setup_s`` counts importing
#: ``repro`` (the set-up probes run this file in a fresh process).
T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh processes whose set-up time feeds the ``setup_s`` median,
#: spread evenly over the measuring window.
SETUP_PROBES = 11
#: Fewest timed passes per run, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Traced runs: the layer self times must sum to the profiled wall time
#: within this share.
COVERAGE_TOLERANCE = 0.10

WORKLOAD_NAMES = ("shuffle_bulk", "replicated_rpc", "incast_combine")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def calibrate(rounds: int = 5) -> float:
    """Median seconds of a fixed pure-Python loop (``host.calib_s``):
    recorded so host drift between runs days apart can be told from a
    regression. Never used to normalise a gated metric."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total = (total + i * i) % 1_000_003
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def fresh_setup_seconds(args) -> float:
    """One ``setup_s`` sample: a fresh interpreter imports ``repro``,
    builds the cluster, declares the flow and opens every endpoint, then
    reports the host seconds that took."""
    probe = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(probe.stdout.strip().splitlines()[-1])


class Tally:
    """Ops attempted and failed, plus every problem found."""

    def __init__(self, workload, inputs) -> None:
        self.workload = workload
        self.reference = workload.reference(inputs)
        self.ops_per_pass = workload.op_count(inputs)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.fingerprint = None

    def judge(self, result, label: str) -> None:
        """Check one pass: outputs against inputs, no raised flow error,
        and the same simulated time and event count as every other pass
        of this seed (traced or not)."""
        problems = list(result.errors)
        problems += self.workload.check(self.reference, result.outputs)
        result.outputs = None   # only one pass's outputs alive at a time
        fingerprint = (result.tallies["simnet.sim_ns"],
                       result.tallies["simnet.events"])
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif fingerprint != self.fingerprint:
            problems.append(f"simulated (ns, events) {fingerprint} differs "
                            f"from the first pass's {self.fingerprint}")
        self.attempted += self.ops_per_pass
        if problems:
            self.failed += self.ops_per_pass
            self.problems += [f"{label}: {problem}" for problem in problems]


def run_passes(workload, inputs, seed, seconds, tally, label,
               profiler=None, between=None) -> list:
    """Passes until ``seconds`` of host time have gone (at least
    ``MIN_PASSES``), each checked. ``between(fraction)``, if given, runs
    before each pass with the share of the window already gone. Each
    pass starts on a collected heap, as a pass in a fresh process
    would, so the previous pass's garbage does not bill this one."""
    results = []
    start = time.perf_counter()
    deadline = start + seconds
    while len(results) < MIN_PASSES or time.perf_counter() < deadline:
        if between is not None:
            between((time.perf_counter() - start) / seconds)
        gc.collect()
        result = workload.run_pass(inputs, seed, profiler=profiler)
        tally.judge(result, f"{label} pass {len(results)}")
        results.append(result)
    return results


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, inputs, args, tally) -> dict:
    setup = []

    def probe_when_due(fraction):
        # Probes spread over the window sample the host as the passes do.
        if len(setup) < min(SETUP_PROBES, 1 + fraction * SETUP_PROBES):
            setup.append(fresh_setup_seconds(args))

    tally.judge(workload.run_pass(inputs, args.seed), "warm-up pass")
    results = run_passes(workload, inputs, args.seed, args.seconds, tally,
                         "untraced", between=probe_when_due)
    while len(setup) < SETUP_PROBES:
        setup.append(fresh_setup_seconds(args))
    rates = [result.ops / result.timed_s for result in results]
    # The lower decile: the rate nine passes in ten reach. A shared host
    # switches between a fast and a slow phase within a run; the slow
    # phase repeats closely between runs, so this lands on the same speed
    # where the median lands on whichever phase held more of the window.
    sustained = statistics.quantiles(rates, n=10, method="inclusive")[0]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(f"{len(results)} passes of {tally.ops_per_pass} ops; ops/s "
          f"min {min(rates):.1f} decile {sustained:.1f} "
          f"median {statistics.median(rates):.1f} max {max(rates):.1f}; "
          f"setup samples "
          f"{', '.join(f'{s:.4f}' for s in setup)}")
    return {
        "ops_per_s": metric(sustained, "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }


def per_layer(workload, inputs, args, tally, input_s, calib_s) -> dict:
    # Imported here, so the set-up probes do not time the profiler's import.
    import cProfile

    from layers import LAYERS, Attribution, call_count, layer_table

    tally.judge(workload.run_pass(inputs, args.seed), "warm-up pass")
    plain = run_passes(workload, inputs, args.seed, args.seconds / 2,
                       tally, "untraced")
    profiler = cProfile.Profile()
    traced = run_passes(workload, inputs, args.seed, args.seconds / 2,
                        tally, "traced", profiler=profiler)
    table, unattributed = layer_table(profiler, Attribution(SRC, HERE))
    tally.problems += [f"traced run: {problem}" for problem in unattributed]

    passes = len(traced)
    traced_s = sum(result.timed_s for result in traced)
    profiled_s = sum(self_s for self_s, _calls in table.values())
    coverage = profiled_s / traced_s
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        tally.problems.append(
            f"traced run: layer self times sum to {profiled_s:.3f} s of "
            f"{traced_s:.3f} s traced wall time (outside "
            f"±{COVERAGE_TOLERANCE:.0%})")

    tallies = traced[0].tallies
    ops = traced[0].ops or 1           # a failed pass still prints a table
    out = {}
    for layer in LAYERS:
        self_s, calls = table[layer]
        out[f"{layer}.self_s"] = metric(self_s / passes, "s")
        out[f"{layer}.calls"] = metric(round(calls / passes), "count")
    for name in ("simnet.events", "simnet.congestion.ecn_marks",
                 "simnet.congestion.pfc_stalls", "rdma.wqes",
                 "rdma.doorbell_trains", "core.segments",
                 "core.retransmits", "obs.causal_edges",
                 "obs.causal_dropped"):
        out[name] = metric(tallies[name], "count")
    out["simnet.sim_ns"] = metric(tallies["simnet.sim_ns"], "sim-ns")
    out["simnet.hol_wait_ns"] = metric(tallies["simnet.hol_wait_ns"],
                                       "sim-ns")
    out["rdma.engine_wait_ns"] = metric(tallies["rdma.engine_wait_ns"],
                                        "sim-ns")
    out["rdma.bytes_posted"] = metric(tallies["rdma.bytes_posted"], "B")
    out["rdma.posts"] = metric(
        (call_count(profiler, "rdma/qp.py", "post_write")
         + call_count(profiler, "rdma/qp.py", "post_send_multicast"))
        / passes, "count")
    out["simnet.events_per_op"] = metric(tallies["simnet.events"] / ops,
                                         "events/op")

    def per(layers, count):
        return (1e9 * sum(table[layer][0] for layer in layers) / passes
                / max(count, 1))

    out["simnet.ns_per_event"] = metric(
        per(("simnet.kernel",), tallies["simnet.events"]), "ns")
    out["rdma.ns_per_wqe"] = metric(
        per(("rdma.qp", "rdma.mem"), tallies["rdma.wqes"]), "ns")
    out["core.ns_per_segment"] = metric(
        per(("core.shuffle", "core.replicate", "core.combiner"),
            tallies["core.segments"]), "ns")
    out["schema.ns_per_tuple"] = metric(
        per(("schema.route", "schema.codec", "schema.fold"),
            ops * workload.tuples_per_op), "ns")
    out["obs.analyze_s"] = metric(
        statistics.median(result.analyze_s for result in plain), "s")
    out["trace.overhead"] = metric(
        statistics.median(result.timed_s for result in traced)
        / statistics.median(result.timed_s for result in plain), "ratio")
    out["trace.coverage"] = metric(coverage, "ratio")
    out["bench.input_s"] = metric(input_s, "s")
    out["host.calib_s"] = metric(calib_s, "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        result = workload.run_pass(None, args.seed, setup_only=True)
        print(repr(result.setup_end - T0))
        return 0

    calib_s = calibrate()
    start = time.perf_counter()
    inputs = workload.make_inputs(args.seed)
    input_s = time.perf_counter() - start
    tally = Tally(workload, inputs)
    if args.trace:
        metrics = per_layer(workload, inputs, args, tally, input_s, calib_s)
    else:
        metrics = end_to_end(workload, inputs, args, tally)
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        print(f"{name:<{width}} {entry['value']:>16.6g} {entry['unit']}")
    print(f"host.calib_s {calib_s:.6f} s   bench.input_s {input_s:.6f} s")
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not tally.problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
