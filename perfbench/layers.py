"""Per-layer self time from the stdlib deterministic profiler.

The traced run profiles the timed region of a pass with ``cProfile``
and charges every function's self time to the layer of the file that
defines it (:data:`LAYER_FILES`). Code outside the program — builtins,
the standard library, numpy, and the program's own helper package
``repro/common`` — is *transparent*: its self time is charged, edge by
edge, to the layer of whoever called it (recursively, when the caller is
transparent too). Generated code is attributed by the ``compile()``
filename the schema code generator gives it (:data:`GENERATED`).

Self time, not wall-clock spans, is the right measure for a simulator
built on generators: a ``yield from`` suspends the caller while other
simulated threads run, so a span around it would charge their work to
the caller.
"""

from __future__ import annotations

import os
import pstats

LAYERS = (
    "simnet.kernel", "simnet.wire", "simnet.congestion",
    "rdma.qp", "rdma.mem",
    "core.shuffle", "core.replicate", "core.combiner",
    "schema.route", "schema.codec", "schema.fold",
    "obs", "bench",
)

#: ``repro``-relative file -> layer.
LAYER_FILES = {
    "simnet/kernel.py": "simnet.kernel",
    "simnet/sync.py": "simnet.kernel",
    "simnet/shard.py": "simnet.kernel",
    "simnet/shardexec.py": "simnet.kernel",
    "simnet/__init__.py": "simnet.kernel",
    "simnet/link.py": "simnet.wire",
    "simnet/fabric.py": "simnet.wire",
    "simnet/node.py": "simnet.wire",
    "simnet/cluster.py": "simnet.wire",
    "simnet/faults.py": "simnet.wire",
    "simnet/congestion.py": "simnet.congestion",
    "rdma/qp.py": "rdma.qp",
    "rdma/nic.py": "rdma.qp",
    "rdma/completion.py": "rdma.qp",
    "rdma/__init__.py": "rdma.qp",
    "rdma/memory.py": "rdma.mem",
    "core/shuffle.py": "core.shuffle",
    "core/writers.py": "core.shuffle",
    "core/segment.py": "core.shuffle",
    "core/backoff.py": "core.shuffle",
    "core/flow.py": "core.shuffle",
    "core/registry.py": "core.shuffle",
    "core/flowdef.py": "core.shuffle",
    "core/nodes.py": "core.shuffle",
    "core/__init__.py": "core.shuffle",
    "core/replicate.py": "core.replicate",
    "core/ordering.py": "core.replicate",
    "core/combiner.py": "core.combiner",
    "core/sharp.py": "core.combiner",
    "core/routing.py": "schema.route",
    "core/schema.py": "schema.codec",
    "core/types.py": "schema.codec",
    "obs/__init__.py": "obs",
    "obs/metrics.py": "obs",
    "obs/trace.py": "obs",
    "obs/causal.py": "obs",
    "obs/analyze.py": "obs",
}

#: ``compile()`` filename prefix of generated code -> layer.
GENERATED = {
    "<schema-router": "schema.route",
    "<schema-kernels": "schema.codec",
    "<schema-fold": "schema.fold",
}

#: ``repro`` sub-packages whose code is charged to its caller.
TRANSPARENT_PACKAGES = ("common/",)


class Attribution:
    """Classifies profiler entries by file. ``src_root`` is the directory
    holding the ``repro`` package; ``bench_root`` the benchmark's own
    directory."""

    def __init__(self, src_root: str, bench_root: str) -> None:
        self.repro_root = os.path.join(os.path.abspath(src_root),
                                       "repro") + os.sep
        self.bench_root = os.path.abspath(bench_root) + os.sep

    def classify(self, filename: str):
        """Layer name, ``None`` for transparent code, or ``("?", why)``
        for code that must be attributed but cannot be."""
        if filename == "~":
            return None                                  # builtin
        if filename.startswith("<"):
            for prefix, layer in GENERATED.items():
                if filename.startswith(prefix):
                    return layer
            if filename.startswith("<schema"):
                return ("?", f"unknown generated schema code {filename}")
            return None              # stdlib-generated (<string>, frozen)
        path = os.path.abspath(filename)
        if path.startswith(self.bench_root):
            return "bench"
        if path.startswith(self.repro_root):
            rel = path[len(self.repro_root):].replace(os.sep, "/")
            layer = LAYER_FILES.get(rel)
            if layer is not None:
                return layer
            if rel.startswith(TRANSPARENT_PACKAGES) or rel == "__init__.py":
                return None
            return ("?", f"repro/{rel} belongs to no layer")
        return None                                      # stdlib, numpy


def layer_table(profile, attribution: Attribution) -> tuple[dict, list]:
    """Aggregate a ``cProfile.Profile`` into ``{layer: [self_s, calls]}``.

    Returns the table and a list of problems (unattributable code). A
    transparent function's time and calls go to its callers' layers in
    proportion to the self time it spent under each caller; a
    transparent function with no caller in the profile (the profiled
    region's own top frame) is charged to ``bench``.
    """
    stats = pstats.Stats(profile).stats
    problems: list[str] = []
    own: dict = {}
    for func in stats:
        layer = attribution.classify(func[0])
        if isinstance(layer, tuple):
            problems.append(layer[1])
            layer = "bench"
        own[func] = layer

    shares_memo: dict = {}

    def shares(func, active=frozenset()) -> dict:
        """Layer distribution of ``func``'s own self time."""
        layer = own.get(func, "bench")
        if layer is not None:
            return {layer: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        callers = stats[func][4] if func in stats else {}
        total = {}
        weight_sum = 0.0
        for caller, edge in callers.items():
            if caller in active:
                continue           # recursion among transparent frames
            weight = edge[2] or edge[1] * 1e-9
            weight_sum += weight
            for layer, share in shares(caller, active | {func}).items():
                total[layer] = total.get(layer, 0.0) + weight * share
        if weight_sum <= 0.0:
            result = {"bench": 1.0}
        else:
            result = {layer: value / weight_sum
                      for layer, value in total.items()}
        if not active:
            shares_memo[func] = result
        return result

    table = {layer: [0.0, 0] for layer in LAYERS}
    for func, (_cc, calls, self_s, _cum, _callers) in stats.items():
        for layer, share in shares(func).items():
            row = table[layer]
            row[0] += self_s * share
            row[1] += calls * share
    for row in table.values():
        row[1] = round(row[1])
    return table, sorted(set(problems))


def call_count(profile, filename_suffix: str, function: str) -> int:
    """Calls the profile saw into ``function`` defined in a file ending
    with ``filename_suffix``."""
    return sum(calls for (filename, _line, name), (_cc, calls, *_rest)
               in pstats.Stats(profile).stats.items()
               if name == function and filename.endswith(filename_suffix))
