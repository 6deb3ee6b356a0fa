"""How a task resumes after it yields: settled futures, kills while
waiting, failures and wrong yields."""

import pytest

from repro.sim.engine import Engine
from repro.sim.futures import Future, FutureState
from repro.sim.tasks import Task, TaskKilled


class CountingTask(Task):
    """A task that counts how many times it is stepped."""

    def __init__(self, *args, **kw) -> None:
        self.steps = 0
        super().__init__(*args, **kw)

    def _step(self, value, error):
        self.steps += 1
        super()._step(value, error)


@pytest.fixture
def eng():
    return Engine()


def test_yielding_a_resolved_future_resumes_through_defer(eng):
    order = []

    def body():
        fut = Future(eng)
        fut.resolve("v")
        # deferred before the yield, so it runs before the resume
        eng.defer(0.0, order.append, "other")
        order.append((yield fut))

    t = CountingTask(eng, body(), "t")
    eng.run()
    assert order == ["other", "v"]
    assert t.steps == 2
    # the first step, the other callback, and the resume
    assert eng.events_fired == 3
    assert eng.now == 0.0


def test_yielding_a_failed_future_raises_through_defer(eng):
    order = []

    def body():
        fut = Future(eng)
        fut.fail(ValueError("early"))
        eng.defer(0.0, order.append, "other")
        try:
            yield fut
        except ValueError as exc:
            order.append(str(exc))
        return "recovered"

    t = CountingTask(eng, body(), "t")
    eng.run()
    assert order == ["other", "early"]
    assert t.steps == 2
    assert t.done.result() == "recovered"


def test_failed_future_raises_inside_the_generator_when_it_settles(eng):
    def body():
        fut = Future(eng)
        fut.fail_later(2.0, KeyError("late"))
        try:
            yield fut
        except KeyError:
            return eng.now
        return None

    t = Task(eng, body(), "t")
    eng.run()
    assert t.done.result() == 2.0


def test_task_killed_while_waiting_ignores_the_later_settle(eng):
    fut = Future(eng)
    never = Future(eng)
    seen = []

    def body():
        try:
            yield fut
        except TaskKilled:
            seen.append("killed")
        seen.append((yield never))

    t = CountingTask(eng, body(), "t")
    eng.schedule(1.0, t.kill)
    fut.resolve_later(5.0, "too late")
    eng.run()
    # one step to start, one to deliver the kill; the settle steps nothing
    assert t.steps == 2
    assert seen == ["killed"]
    assert not t.finished
    assert fut.state is FutureState.DONE


def test_kill_and_settle_at_one_instant_steps_once(eng):
    fut = Future(eng)

    def body():
        yield fut

    t = CountingTask(eng, body(), "t")

    def kill_then_settle():
        t.kill()
        fut.resolve("same instant")

    eng.schedule(1.0, kill_then_settle)
    eng.run()
    assert t.steps == 2
    assert isinstance(t.done.error, TaskKilled)


def test_yielding_a_non_future_fails_done_with_type_error(eng):
    def body():
        yield "not a future"

    t = Task(eng, body(), "t")
    eng.run()
    assert t.done.state is FutureState.FAILED
    assert isinstance(t.done.error, TypeError)
    assert "yielded str; only Future or None may be yielded" \
        in str(t.done.error)


def test_wrong_yield_type_error_is_thrown_into_the_generator(eng):
    def body():
        try:
            yield 42
        except TypeError as exc:
            return type(exc).__name__
        return None

    t = Task(eng, body(), "t")
    eng.run()
    assert t.done.result() == "TypeError"
