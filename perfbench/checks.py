"""Output checks, computed from the generated inputs alone.

Each check takes the inputs a workload was fed and the raw outputs its
threads collected, and returns a list of problems (empty when the pass
is correct). None of them consults the program's router, sequencer or
aggregate code: the expected results are rebuilt here from the inputs.
"""

from __future__ import annotations

from collections import Counter


def shuffle_reference(inputs) -> tuple:
    """What a correct shuffle delivers, from the inputs: a pad -> id map
    and the sorted integer codes ``key << 20 | pad id`` of every sent
    tuple (integer codes keep the per-pass check cheap)."""
    pad_ids: dict = {}
    codes = sorted((key << 20) | pad_ids.setdefault(pad, len(pad_ids))
                   for batch in inputs for key, pad in batch)
    return pad_ids, codes


def check_shuffle(reference, received) -> list[str]:
    """Exactly-once delivery of every ``(key, pad)`` tuple, every key on
    exactly one target, and pad bytes intact. ``reference`` comes from
    :func:`shuffle_reference`."""
    pad_ids, sent = reference
    problems = []
    got = []
    for index, target in enumerate(received):
        for key, pad in target:
            pad_id = pad_ids.get(pad)
            if pad_id is None:
                problems.append(f"target {index}: key {key} arrived with "
                                f"pad bytes that were never sent")
                break
            got.append((key << 20) | pad_id)
    got.sort()
    if got != sent:
        missing = sum((Counter(sent) - Counter(got)).values())
        extra = sum((Counter(got) - Counter(sent)).values())
        problems.append(f"delivered multiset differs from the sent one: "
                        f"{missing} missing, {extra} unexpected")
    owners = Counter(key for target in received
                     for key in {key for key, _pad in target})
    shared = sorted(key for key, count in owners.items() if count > 1)
    if shared:
        problems.append(f"{len(shared)} keys landed on more than one "
                        f"target, first {shared[0]}")
    return problems


def check_rpc(inputs, delivered, responses, replicas: int) -> list[str]:
    """Every replica delivers every request once in one identical order
    that keeps each client's issue order, and every request gets one
    matching response from each replica."""
    problems = []
    requests = [request for client in inputs for request in client]
    expected = sorted(rid for rid, _ in requests)
    for index, log in enumerate(delivered):
        if sorted(log) != expected:
            problems.append(f"replica {index} did not deliver every "
                            f"request exactly once")
    if any(log != delivered[0] for log in delivered[1:]):
        problems.append("replicas delivered in different orders")
    if delivered:
        for client, issued in enumerate(inputs):
            order = [rid for rid in delivered[0] if rid >> 32 == client]
            if order != [rid for rid, _ in issued]:
                problems.append(f"delivery order breaks client {client}'s "
                                f"issue order")
    for client, issued in enumerate(inputs):
        answers = responses[client]
        if len(answers) != len(issued):
            problems.append(f"client {client}: {len(answers)} response "
                            f"sets for {len(issued)} requests")
        for (rid, value), got in zip(issued, answers):
            senders = sorted(answer_value ^ value
                             for answer_rid, answer_value in got
                             if answer_rid == rid)
            if senders != list(range(replicas)):
                problems.append(f"client {client}: request {rid:#x} got "
                                f"responses {got!r}")
                break
    return problems


def expected_sums(inputs) -> dict:
    """``SUM(value) GROUP BY group`` over every sender's tuples."""
    sums: dict = {}
    for sender in inputs:
        for group, value, _pad in sender:
            sums[group] = sums.get(group, 0) + value
    return sums


def check_incast(expected, aggregates, report) -> list[str]:
    """Aggregates equal ``expected`` (from :func:`expected_sums`), and the
    blame categories of the critical-path report sum to the flow's
    completion window."""
    problems = []
    got = aggregates or {}
    if got != expected:
        wrong = sorted(group for group in expected.keys() | got.keys()
                       if got.get(group) != expected.get(group))
        problems.append(f"{len(wrong)} aggregates differ from the Python "
                        f"SUM, first at group {wrong[0]}")
    if report is None:
        problems.append("no critical-path report")
    else:
        window = report["total_ns"]
        blamed = sum(report["blame"].values())
        if not window > 0 or abs(blamed - window) > 1e-6 * window:
            problems.append(f"blame categories sum to {blamed!r} ns, the "
                            f"completion window is {window!r} ns")
    return problems
