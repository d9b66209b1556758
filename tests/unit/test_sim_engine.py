"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import (
    AllOf,
    Interrupt,
    SimulationError,
    Timeout,
    _CallbackShim,
)


class TestClockAndScheduling:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_call_in_order(self, sim):
        log = []
        sim.call_in(2.0, lambda: log.append("b"))
        sim.call_in(1.0, lambda: log.append("a"))
        sim.run()
        assert log == ["a", "b"]
        assert sim.now == 2.0

    def test_same_time_fifo(self, sim):
        log = []
        for name in "abc":
            sim.call_in(1.0, lambda name=name: log.append(name))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_cannot_schedule_in_past(self, sim):
        sim.call_in(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_run_until(self, sim):
        log = []
        sim.call_in(1.0, lambda: log.append(1))
        sim.call_in(10.0, lambda: log.append(10))
        sim.run(until=5.0)
        assert log == [1]
        assert sim.now == 5.0
        sim.run()
        assert log == [1, 10]

    def test_peek(self, sim):
        assert sim.peek() is None
        sim.call_in(3.0, lambda: None)
        assert sim.peek() == 3.0


class TestProcesses:
    def test_timeout_sequencing(self, sim):
        log = []

        def worker(name, delay):
            yield Timeout(delay)
            log.append((sim.now, name))

        sim.spawn(worker("slow", 2.0))
        sim.spawn(worker("fast", 1.0))
        sim.run()
        assert log == [(1.0, "fast"), (2.0, "slow")]

    def test_negative_timeout(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_wait_on_event_value(self, sim):
        gate = sim.event()
        got = []

        def waiter():
            value = yield gate
            got.append(value)

        sim.spawn(waiter())
        sim.call_in(4.0, lambda: gate.succeed("payload"))
        sim.run()
        assert got == ["payload"]

    def test_wait_on_already_fired_event(self, sim):
        gate = sim.event()
        gate.succeed(7)
        got = []

        def waiter():
            got.append((yield gate))

        sim.spawn(waiter())
        sim.run()
        assert got == [7]

    def test_event_fires_once(self, sim):
        gate = sim.event()
        gate.succeed()
        with pytest.raises(SimulationError):
            gate.succeed()

    def test_event_value_before_fire(self, sim):
        gate = sim.event()
        with pytest.raises(SimulationError):
            _ = gate.value

    def test_event_fail_raises_in_waiter(self, sim):
        gate = sim.event()
        caught = []

        def waiter():
            try:
                yield gate
            except RuntimeError as error:
                caught.append(str(error))

        sim.spawn(waiter())
        sim.call_in(1.0, lambda: gate.fail(RuntimeError("boom")))
        sim.run()
        assert caught == ["boom"]

    def test_wait_on_process(self, sim):
        log = []

        def child():
            yield Timeout(3.0)
            return "child-result"

        def parent():
            result = yield sim.spawn(child())
            log.append((sim.now, result))

        sim.spawn(parent())
        sim.run()
        assert log == [(3.0, "child-result")]

    def test_all_of(self, sim):
        def waiter(events, log):
            values = yield AllOf(events)
            log.append((sim.now, values))

        first, second = sim.event(), sim.event()
        log = []
        sim.spawn(waiter([first, second], log))
        sim.call_in(1.0, lambda: first.succeed("a"))
        sim.call_in(2.0, lambda: second.succeed("b"))
        sim.run()
        assert log == [(2.0, ["a", "b"])]

    def test_callbacks_share_one_shim_class(self, sim):
        # A trial registers thousands of callbacks; each must park an
        # instance of one slotted class, not build a class of its own.
        event = sim.event()
        seen = []
        sim._add_callback(event, seen.append)
        sim._add_callback(event, seen.append)
        first, second = event._waiters
        assert type(first) is type(second) is _CallbackShim
        assert not hasattr(first, "__dict__")
        event.succeed("v")
        sim.run()
        assert seen == ["v", "v"]

    def test_all_of_empty(self, sim):
        log = []

        def waiter():
            values = yield AllOf([])
            log.append(values)

        sim.spawn(waiter())
        sim.run()
        assert log == [[]]

    def test_unsupported_yield(self, sim):
        def bad():
            yield 42

        sim.spawn(bad())
        with pytest.raises(SimulationError):
            sim.run()


class TestInterrupt:
    def test_interrupt_wakes_with_exception(self, sim):
        log = []

        def sleeper():
            try:
                yield Timeout(100.0)
            except Interrupt as interrupt:
                log.append((sim.now, interrupt.cause))

        process = sim.spawn(sleeper())
        sim.call_in(1.0, lambda: process.interrupt("stop"))
        sim.run()
        assert log == [(1.0, "stop")]

    def test_interrupt_while_waiting_event(self, sim):
        gate = sim.event()
        log = []

        def waiter():
            try:
                yield gate
            except Interrupt:
                log.append(sim.now)

        process = sim.spawn(waiter())
        sim.call_in(2.0, lambda: process.interrupt())
        sim.run()
        assert log == [2.0]

    def test_interrupt_finished_process_is_noop(self, sim):
        def quick():
            yield Timeout(0.0)

        process = sim.spawn(quick())
        sim.run()
        process.interrupt()  # must not raise
        sim.run()

    def test_unhandled_interrupt_terminates_quietly(self, sim):
        def sleeper():
            yield Timeout(100.0)

        process = sim.spawn(sleeper())
        sim.call_in(1.0, lambda: process.interrupt())
        sim.run()
        assert process.finished.fired
