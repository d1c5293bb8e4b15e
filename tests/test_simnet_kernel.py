"""Unit tests for the discrete-event kernel."""

from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.simnet import Environment, Interrupt
from repro.simnet.kernel import _CAL_FAR, _CAL_RING, _CAL_SHIFT


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(10)
        yield env.timeout(5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert env.now == 15
    assert p.value == 15


def test_timeout_value_passthrough():
    env = Environment()

    def proc(env):
        got = yield env.timeout(3, value="hello")
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "hello"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def waiter(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(waiter(env, 30, "c"))
    env.process(waiter(env, 10, "a"))
    env.process(waiter(env, 20, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def waiter(env, tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in range(6):
        env.process(waiter(env, tag))
    env.run()
    assert order == list(range(6))


def test_process_waits_on_process():
    env = Environment()

    def child(env):
        yield env.timeout(7)
        return 42

    def parent(env):
        result = yield env.process(child(env))
        return result + 1

    p = env.process(parent(env))
    env.run()
    assert p.value == 43
    assert env.now == 7


def test_wait_on_already_finished_process():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        return "early"

    def parent(env, child_proc):
        yield env.timeout(10)
        result = yield child_proc
        return result

    child_proc = env.process(child(env))
    parent_proc = env.process(parent(env, child_proc))
    env.run()
    assert parent_proc.value == "early"
    assert env.now == 10


def test_manual_event_succeed():
    env = Environment()
    gate = env.event()
    results = []

    def waiter(env):
        value = yield gate
        results.append(value)

    def firer(env):
        yield env.timeout(100)
        gate.succeed("go")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert results == ["go"]


def test_event_cannot_trigger_twice():
    env = Environment()
    gate = env.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_failed_event_raises_in_waiter():
    env = Environment()
    gate = env.event()

    def waiter(env):
        try:
            yield gate
        except ValueError as exc:
            return f"caught {exc}"

    p = env.process(waiter(env))
    gate.fail(ValueError("boom"))
    env.run()
    assert p.value == "caught boom"


def test_unhandled_process_failure_propagates_to_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("explode")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="explode"):
        env.run()


def test_process_failure_caught_by_waiter_is_defused():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("explode")

    def guardian(env):
        try:
            yield env.process(bad(env))
        except RuntimeError:
            return "handled"

    p = env.process(guardian(env))
    env.run()
    assert p.value == "handled"


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_all_of_collects_values_in_order():
    env = Environment()

    def proc(env):
        values = yield env.all_of([
            env.timeout(30, value="slow"),
            env.timeout(10, value="fast"),
        ])
        return values

    p = env.process(proc(env))
    env.run()
    assert p.value == ["slow", "fast"]
    assert env.now == 30


def test_any_of_returns_first():
    env = Environment()

    def proc(env):
        index, value = yield env.any_of([
            env.timeout(30, value="slow"),
            env.timeout(10, value="fast"),
        ])
        return index, value

    p = env.process(proc(env))
    env.run(p)
    assert p.value == (1, "fast")
    assert env.now == 10


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def proc(env):
        values = yield env.all_of([])
        return values

    p = env.process(proc(env))
    env.run()
    assert p.value == []


def test_run_until_time_stops_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(100)

    env.process(proc(env))
    env.run(until=50)
    assert env.now == 50
    env.run()
    assert env.now == 100


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(10)
        return "finished"

    p = env.process(proc(env))
    assert env.run(until=p) == "finished"


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_run_until_event_deadlock_detected():
    env = Environment()
    gate = env.event()

    def waiter(env):
        yield gate

    env.process(waiter(env))
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=gate)


def test_interrupt_raises_inside_process():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(1000)
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, env.now)

    def interrupter(env, victim):
        yield env.timeout(5)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert victim.value == ("interrupted", "wake up", 5)


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_active_process_tracking():
    env = Environment()
    seen = []

    def proc(env):
        seen.append(env.active_process)
        yield env.timeout(1)

    p = env.process(proc(env))
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(25)
    assert env.peek() == 25
    env.run()
    assert env.peek() == float("inf")


# -- reference model for the calendar queue ----------------------------------
# A program is a list of actions; each action schedules a callback that logs
# ``(now, path)`` and then schedules its child actions. Kinds:
#   ("at", delay, children)      -> schedule_at(now + delay, ...)
#   ("pooled", delay, children)  -> pooled_timeout(delay) + callback
#   ("train", [(delay, children), ...], ()) -> schedule_train, sorted delays
_BUCKET = float(1 << _CAL_SHIFT)
_WINDOW = float(_CAL_RING << _CAL_SHIFT)
_DELAYS = st.one_of(
    st.sampled_from([0.0, 1.0, _BUCKET, _WINDOW, _CAL_FAR]),  # ties, edges
    st.floats(0.5, _BUCKET - 1.0),        # current bucket: front heap
    st.floats(_BUCKET, _WINDOW),          # calendar ring window
    st.floats(_WINDOW, 1e12),             # spill heap
    st.floats(_CAL_FAR, 4 * _CAL_FAR),    # past bucket arithmetic
)


def _train(children):
    steps = st.lists(st.tuples(_DELAYS, st.lists(children, max_size=2)
                               .map(tuple)), min_size=1, max_size=4)
    return steps.map(lambda steps: ("train", tuple(
        sorted(steps, key=itemgetter(0))), ()))


_ACTION = st.recursive(
    st.tuples(st.sampled_from(["at", "pooled"]), _DELAYS, st.just(())),
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["at", "pooled"]), _DELAYS,
                  st.lists(children, max_size=3).map(tuple)),
        _train(children)),
    max_leaves=24)


def _run_kernel(program):
    env = Environment()
    log = []

    def fire(path, children):
        log.append((env.now, path))
        for index, child in enumerate(children):
            schedule(child, path + (index,))

    def schedule(action, path):
        kind, spec, children = action
        if kind == "at":
            env.schedule_at(env.now + spec, lambda: fire(path, children))
        elif kind == "pooled":
            env.pooled_timeout(spec).callbacks.append(
                lambda _event: fire(path, children))
        else:
            env.schedule_train([
                (env.now + delay, lambda arg: fire(*arg),
                 (path + (step,), kids))
                for step, (delay, kids) in enumerate(spec)])

    for index, action in enumerate(program):
        schedule(action, (index,))
    env.run()
    return log, env.now, env.events_executed


def _run_model(program):
    """The same program on a plain list: every step runs the entry that
    ``sorted`` puts first by ``(when, schedule-order)``. Times in the past
    clamp to now, as does a zero delay; a train re-arms one entry per hop
    at its next action's time and runs every due action in that hop."""
    pending = []
    log = []
    state = {"now": 0.0, "order": 0}

    def push(when, fn):
        now = state["now"]
        pending.append((when if when > now else now, state["order"], fn))
        state["order"] += 1

    def fire(path, children):
        log.append((state["now"], path))
        for index, child in enumerate(children):
            schedule(child, path + (index,))

    def schedule(action, path):
        kind, spec, children = action
        now = state["now"]
        if kind == "at":
            push(now + spec, lambda: fire(path, children))
        elif kind == "pooled":
            push(now + spec if spec else now, lambda: fire(path, children))
        else:
            steps = [(now + delay, path + (step,), kids)
                     for step, (delay, kids) in enumerate(spec)]
            cursor = [0]

            def hop():
                while (cursor[0] < len(steps)
                       and steps[cursor[0]][0] <= state["now"]):
                    _when, step_path, kids = steps[cursor[0]]
                    cursor[0] += 1
                    fire(step_path, kids)
                if cursor[0] < len(steps):
                    push(steps[cursor[0]][0], hop)

            push(steps[0][0], hop)

    for index, action in enumerate(program):
        schedule(action, (index,))
    executed = 0
    while pending:
        entry = sorted(pending, key=itemgetter(0, 1))[0]
        pending.remove(entry)
        state["now"] = entry[0]
        executed += 1
        entry[2]()
    return log, state["now"], executed


@settings(max_examples=100, deadline=None)
@given(st.lists(_ACTION, min_size=1, max_size=6))
@example([("at", 0.0, (("pooled", 0.0, ()), ("at", 1.0, ()))),
          ("pooled", 3.0, (("at", _BUCKET, ()),)),
          ("at", _WINDOW - 1.0, (("pooled", _WINDOW, ()),)),
          ("pooled", 1e9, (("at", 0.0, ()), ("pooled", 5.0, ()))),
          ("train", ((0.0, ()), (_BUCKET, (("at", 2.0, ()),)),
                     (_BUCKET, ()), (2e6, ())), ()),
          ("at", _CAL_FAR, (("pooled", 1.0, ()), ("at", -5.0, ())))])
def test_calendar_queue_matches_sorted_reference(program):
    """Zero-delay deque, front heap, calendar ring, spill heap and the
    past-``_CAL_FAR`` lane must together fire exactly what a plain
    ``sorted`` over ``(when, schedule-order)`` fires, in that order —
    including actions scheduled from inside callbacks and train hops."""
    assert _run_kernel(program) == _run_model(program)
