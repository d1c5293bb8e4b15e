"""Tests of the benchmark itself: input generation, the output checks,
and the layer attribution.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


class SmallShuffle(workloads.ShuffleBulk):
    TUPLES = 4096
    KEY_SPACE = 256          # every key repeats


class SmallRpc(workloads.ReplicatedRpc):
    REQUESTS_PER_CLIENT = 16


class SmallIncast(workloads.IncastCombine):
    TUPLES_PER_SENDER = 512


SMALL = {workload.name: workload
         for workload in (SmallShuffle(), SmallRpc(), SmallIncast())}


@pytest.fixture(scope="module")
def passes():
    """One real pass of each (shrunken) workload: name -> (workload,
    reference, result)."""
    out = {}
    for name, workload in SMALL.items():
        inputs = workload.make_inputs(3)
        out[name] = (workload, workload.reference(inputs),
                     workload.run_pass(inputs, 3))
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_repeat_for_equal_seeds(name):
    workload = SMALL[name]
    assert workload.make_inputs(5) == workload.make_inputs(5)
    assert workload.make_inputs(5) != workload.make_inputs(6)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_real_pass_is_correct_and_deterministic(passes, name):
    workload, reference, result = passes[name]
    assert result.errors == []
    assert workload.check(reference, result.outputs) == []
    inputs = workload.make_inputs(3)
    assert result.ops == workload.op_count(inputs)
    again = workload.run_pass(inputs, 3)
    for tally in ("simnet.sim_ns", "simnet.events"):
        assert again.tallies[tally] == result.tallies[tally]


def test_shuffle_check_rejects_a_dropped_tuple(passes):
    workload, reference, result = passes["shuffle_bulk"]
    doctored = copy.deepcopy(result.outputs)
    doctored["received"][2].pop()
    assert workload.check(reference, doctored)


def test_shuffle_check_rejects_altered_pad_bytes(passes):
    workload, reference, result = passes["shuffle_bulk"]
    doctored = copy.deepcopy(result.outputs)
    key, pad = doctored["received"][0][0]
    doctored["received"][0][0] = (key, bytes(len(pad)))
    assert workload.check(reference, doctored)


def test_shuffle_check_rejects_a_key_on_two_targets(passes):
    workload, reference, result = passes["shuffle_bulk"]
    doctored = copy.deepcopy(result.outputs)
    doctored["received"][1].append(doctored["received"][0].pop())
    problems = workload.check(reference, doctored)
    assert any("more than one target" in problem for problem in problems)


def test_rpc_check_rejects_two_swapped_replica_deliveries(passes):
    workload, reference, result = passes["replicated_rpc"]
    doctored = copy.deepcopy(result.outputs)
    log = doctored["delivered"][1]
    log[3], log[4] = log[4], log[3]
    assert workload.check(reference, doctored)


def test_rpc_check_rejects_a_swap_on_every_replica(passes):
    """Identical orders that break one client's issue order."""
    workload, reference, result = passes["replicated_rpc"]
    doctored = copy.deepcopy(result.outputs)
    for log in doctored["delivered"]:
        first, second = [index for index, rid in enumerate(log)
                         if rid >> 32 == 0][:2]
        log[first], log[second] = log[second], log[first]
    problems = workload.check(reference, doctored)
    assert any("issue order" in problem for problem in problems)


def test_rpc_check_rejects_a_missing_response(passes):
    workload, reference, result = passes["replicated_rpc"]
    doctored = copy.deepcopy(result.outputs)
    doctored["responses"][0][5].pop()
    assert workload.check(reference, doctored)


def test_incast_check_rejects_an_aggregate_off_by_one(passes):
    workload, reference, result = passes["incast_combine"]
    doctored = copy.deepcopy(result.outputs)
    group = next(iter(doctored["aggregates"]))
    doctored["aggregates"][group] += 1
    assert workload.check(reference, doctored)


def test_incast_check_rejects_blame_that_misses_the_window(passes):
    workload, reference, result = passes["incast_combine"]
    doctored = copy.deepcopy(result.outputs)
    doctored["report"]["blame"]["wire"] += 1000.0
    assert workload.check(reference, doctored)


def test_expected_sums_is_a_plain_group_by():
    inputs = [[(1, 5, b""), (2, 7, b"")], [(1, 3, b"")]]
    assert checks.expected_sums(inputs) == {1: 8, 2: 7}


def test_attribution_classifies_program_generated_and_outside_code():
    attribution = layers.Attribution(os.path.join(ROOT, "src"), HERE)
    repro = os.path.join(ROOT, "src", "repro")
    assert attribution.classify(
        os.path.join(repro, "simnet", "kernel.py")) == "simnet.kernel"
    assert attribution.classify(
        os.path.join(repro, "core", "writers.py")) == "core.shuffle"
    assert attribution.classify(
        "<schema-router 'Q56s'[0]>") == "schema.route"
    assert attribution.classify("<schema-fold 'QQ48s' sum>") == "schema.fold"
    assert attribution.classify(
        os.path.join(HERE, "workloads.py")) == "bench"
    assert attribution.classify("~") is None
    assert attribution.classify(os.__file__) is None
    assert attribution.classify(
        os.path.join(repro, "common", "config.py")) is None
    assert attribution.classify("<schema-new-kernel>")[0] == "?"
    assert attribution.classify(
        os.path.join(repro, "apps", "perftest", "x.py"))[0] == "?"


def test_layer_table_charges_builtins_to_their_caller():
    import cProfile

    profile = cProfile.Profile()
    profile.enable()
    sorted(range(50_000), key=lambda value: -value)
    profile.disable()
    table, problems = layers.layer_table(
        profile, layers.Attribution(os.path.join(ROOT, "src"), HERE))
    assert problems == []
    assert table["bench"][0] > 0.0
    assert sum(row[0] for name, row in table.items() if name != "bench") \
        == 0.0


def test_run_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it fails without
    printing a result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shuffle_bulk",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_watchdog_cuts_a_pass_that_overruns_its_budget():
    workload = SMALL["shuffle_bulk"]
    inputs = workload.make_inputs(3)
    result = workload.run_pass(inputs, 3, budget_s=1e-4)
    assert any("not complete" in error for error in result.errors)
