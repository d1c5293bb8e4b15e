"""Reproducer for a known gap: ``replicated_rpc`` under multicast loss.

Runs the ``replicated_rpc`` workload (2 clients, 4 replicas, ordered
multicast requests) on ``HardwareProfile(multicast_loss_probability=1e-3)``
with a host-time budget, and prints how far it got. On the lossless
profile the pass ends at about 2 ms simulated; with loss the ordered
request flow does not complete, and the watchdog cuts the pass.

Usage (from the repository root)::

    python3 perfbench/lossy_rpc.py --seed 0 --requests 1024 --seconds 24

Exit code 0 when every request completed, 1 otherwise.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.common.config import DEFAULT_HARDWARE  # noqa: E402
from workloads import ReplicatedRpc  # noqa: E402

LOSS = 1e-3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--requests", type=int, default=1024,
                        help="requests over both clients")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="host-time budget of the pass")
    args = parser.parse_args(argv)

    class LossyRpc(ReplicatedRpc):
        PROFILE = DEFAULT_HARDWARE.with_multicast_loss(LOSS)
        REQUESTS_PER_CLIENT = args.requests // ReplicatedRpc.CLIENTS

    workload = LossyRpc()
    inputs = workload.make_inputs(args.seed)
    result = workload.run_pass(inputs, args.seed, budget_s=args.seconds)
    problems = result.errors + workload.check(workload.reference(inputs),
                                              result.outputs)
    print(f"loss {LOSS}: {result.ops}/{workload.op_count(inputs)} "
          f"requests completed in {result.timed_s:.1f} s host, simulated "
          f"clock at {result.tallies['simnet.sim_ns'] / 1e9:.6f} s, "
          f"{result.tallies['core.retransmits']} retransmits")
    for problem in problems[:5]:
        print(f"  {problem}")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
