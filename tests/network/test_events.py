"""Unit tests for the slotted integer-tick discrete-event queue."""

import types

import pytest

from repro.exceptions import SimulationError
from repro.network import EventQueue


class TestScheduling:
    def test_schedule_and_step(self):
        queue = EventQueue()
        fired = []
        queue.schedule(10, lambda: fired.append("a"))
        queue.schedule(5, lambda: fired.append("b"))
        assert len(queue) == 2
        assert queue.step()
        assert fired == ["b"]
        assert queue.now == 5

    def test_fifo_for_equal_ticks(self):
        queue = EventQueue()
        fired = []
        for label in "abc":
            queue.schedule(1, lambda label=label: fired.append(label))
        queue.run()
        assert fired == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule(-1, lambda: None)

    def test_float_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule(0.5, lambda: None)

    def test_bool_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule(True, lambda: None)

    def test_step_empty_queue(self):
        assert not EventQueue().step()

    def test_processed_counter(self):
        queue = EventQueue()
        queue.schedule(1, lambda: None)
        queue.schedule(2, lambda: None)
        queue.run()
        assert queue.processed == 2

    def test_zero_delay_fires_at_current_tick(self):
        queue = EventQueue()
        ticks = []
        queue.schedule(0, lambda: ticks.append(queue.now))
        queue.run()
        assert ticks == [0]


class TestRun:
    def test_run_until(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1, lambda: fired.append(1))
        queue.schedule(2, lambda: fired.append(2))
        queue.schedule(3, lambda: fired.append(3))
        processed = queue.run(until=2)
        assert processed == 2
        assert fired == [1, 2]
        assert len(queue) == 1

    def test_run_until_boundary_is_inclusive_across_ties(self):
        # Every event scheduled exactly at the boundary tick fires, in
        # scheduling order, regardless of how many tie on it.
        queue = EventQueue()
        fired = []
        queue.schedule(3, lambda: fired.append("late"))
        for label in "abc":
            queue.schedule(2, lambda label=label: fired.append(label))
        assert queue.run(until=2) == 3
        assert fired == ["a", "b", "c"]
        assert queue.now == 2
        assert len(queue) == 1

    def test_run_until_parks_then_resumes(self):
        queue = EventQueue()
        fired = []
        queue.schedule(5, lambda: fired.append("five"))
        assert queue.run(until=4) == 0
        # The parked batch must still fire once the horizon allows it...
        assert queue.run(until=5) == 1
        assert fired == ["five"]

    def test_earlier_event_scheduled_while_parked_fires_first(self):
        # run(until=) can leave the next batch parked out of the heap; an
        # event scheduled later but for an earlier tick must still win.
        queue = EventQueue()
        fired = []
        queue.schedule(10, lambda: fired.append("ten"))
        queue.run(until=5)  # parks the tick-10 batch
        queue.schedule(3, lambda: fired.append("three"))
        queue.run()
        assert fired == ["three", "ten"]

    def test_run_max_events(self):
        queue = EventQueue()
        for _ in range(5):
            queue.schedule(1, lambda: None)
        assert queue.run(max_events=3) == 3
        assert len(queue) == 2

    def test_max_events_skips_cancelled_heads_without_counting(self):
        # Cancelled events at the head of the queue are skipped silently:
        # they neither fire nor consume max_events budget.
        queue = EventQueue()
        fired = []
        cancelled = [queue.schedule(1, lambda: fired.append("dead")) for _ in range(3)]
        for label in "ab":
            queue.schedule(2, lambda label=label: fired.append(label))
        for event in cancelled:
            queue.cancel(event)
        assert queue.run(max_events=2) == 2
        assert fired == ["a", "b"]
        assert len(queue) == 0

    def test_events_can_schedule_events(self):
        queue = EventQueue()
        fired = []

        def cascade():
            fired.append("first")
            queue.schedule(1, lambda: fired.append("second"))

        queue.schedule(1, cascade)
        queue.run()
        assert fired == ["first", "second"]
        assert queue.now == 2

    def test_zero_delay_cascade_joins_current_tick_batch(self):
        # A zero-delay event scheduled from inside a callback fires within
        # the same tick, after the already-scheduled events of that tick.
        queue = EventQueue()
        fired = []

        def cascade():
            fired.append("cascade")
            queue.schedule(0, lambda: fired.append("chained"))

        queue.schedule(2, cascade)
        queue.schedule(2, lambda: fired.append("sibling"))
        queue.run()
        assert fired == ["cascade", "sibling", "chained"]
        assert queue.now == 2

    def test_time_advances_monotonically(self):
        queue = EventQueue()
        ticks = []
        queue.schedule(3, lambda: ticks.append(queue.now))
        queue.schedule(1, lambda: ticks.append(queue.now))
        queue.schedule(2, lambda: ticks.append(queue.now))
        queue.run()
        assert ticks == sorted(ticks)

    def test_step_from_a_callback_keeps_run_in_order(self):
        # run() walks a tick's slot in one loop; a callback that steps the
        # queue itself consumes the next event, which run() must not repeat.
        queue = EventQueue()
        fired = []

        def stepper():
            fired.append("stepper")
            assert queue.step()

        queue.schedule(1, stepper)
        queue.schedule(1, lambda: fired.append("stepped"))
        queue.schedule(1, lambda: fired.append("third"))
        queue.schedule(2, lambda: fired.append("later"))
        assert queue.run() == 3
        assert fired == ["stepper", "stepped", "third", "later"]
        assert queue.processed == 4


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule(1, lambda: fired.append("x"))
        queue.cancel(event)
        queue.run()
        assert fired == []
        assert len(queue) == 0

    def test_cancel_after_fire_is_noop(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1, lambda: fired.append("live"))
        event = queue.schedule(1, lambda: None)
        queue.run()
        assert len(queue) == 0
        # Cancelling a fired event must not resurrect nor double-count:
        # the live counter stays exactly where the run left it.
        queue.cancel(event)
        assert len(queue) == 0
        queue.schedule(1, lambda: fired.append("after"))
        assert len(queue) == 1
        queue.run()
        assert fired == ["live", "after"]

    def test_double_cancel_decrements_once(self):
        queue = EventQueue()
        event = queue.schedule(1, lambda: None)
        queue.schedule(1, lambda: None)
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 1
        assert queue.run() == 1

    def test_len_is_live_counter(self):
        # __len__ must track schedule/cancel/fire exactly (it is O(1), not
        # a heap scan — this pins the bookkeeping, not the complexity).
        queue = EventQueue()
        events = [queue.schedule(i, lambda: None) for i in range(10)]
        assert len(queue) == 10
        for event in events[::2]:
            queue.cancel(event)
        assert len(queue) == 5
        queue.run(max_events=2)
        assert len(queue) == 3
        queue.run()
        assert len(queue) == 0
        assert queue.processed == 5

    def test_cancel_mid_batch(self):
        # Cancelling a later event of the tick batch currently dispatching
        # must suppress it even though its slot already left the heap.
        queue = EventQueue()
        fired = []
        events = {}

        def killer():
            fired.append("killer")
            queue.cancel(events["victim"])

        queue.schedule(1, killer)
        events["victim"] = queue.schedule(1, lambda: fired.append("victim"))
        queue.schedule(1, lambda: fired.append("survivor"))
        queue.run()
        assert fired == ["killer", "survivor"]


def _firings(as_process):
    """Log the firings of a two-step start, as a process or as plain events.

    The first step schedules a sibling one tick on; the second step comes
    one tick after the first, either as the process's next step or as a
    freshly scheduled event, and schedules a tail event.
    """
    queue = EventQueue()
    log = []
    handle = {}

    def first():
        log.append(("first", queue.now, handle["event"].seq))
        queue.schedule(1, lambda: log.append(("sibling", queue.now, None)))

    def second():
        log.append(("second", queue.now, handle["event"].seq))
        tail = queue.schedule(0, lambda: log.append(("tail", queue.now, None)))
        log.append(("scheduled", queue.now, tail.seq))

    def body():
        first()
        yield 1
        second()

    if as_process:
        handle["event"] = queue.process(3, body, "start")
    else:

        def start():
            first()
            handle["event"] = queue.schedule(1, second, "again")

        handle["event"] = queue.schedule(3, start, "start")
    queue.schedule(4, lambda: log.append(("queued", queue.now, None)))
    queue.run()
    return log, queue.processed, len(queue)


class TestProcess:
    def test_steps_order_like_new_events(self):
        # Re-arming a process's event instead of allocating one must not
        # move any firing's tick, sequence number or place in its tick.
        assert _firings(as_process=True) == _firings(as_process=False)
        assert _firings(as_process=True)[0] == [
            ("first", 3, 0),
            ("queued", 4, None),
            ("sibling", 4, None),
            ("second", 4, 3),
            ("scheduled", 4, 4),
            ("tail", 4, None),
        ]

    def test_zero_delay_yield_joins_the_current_tick(self):
        queue = EventQueue()
        fired = []

        def bounce():
            for _ in range(2):
                fired.append(("bounce", queue.now))
                yield 0
            fired.append(("bounce", queue.now))

        def sibling():
            fired.append(("sibling", queue.now))
            queue.schedule(0, lambda: fired.append(("chained", queue.now)))

        queue.process(1, bounce)
        queue.schedule(1, sibling)
        queue.run()
        # The first re-arm joins the batch ahead of the chained event that
        # the sibling schedules after it.
        assert fired == [
            ("bounce", 1),
            ("sibling", 1),
            ("bounce", 1),
            ("chained", 1),
            ("bounce", 1),
        ]
        assert queue.now == 1

    def test_yielded_delay_is_validated(self):
        for delay in (-1, 0.5, True):
            queue = EventQueue()

            def body(delay=delay):
                yield delay

            queue.process(0, body)
            with pytest.raises(SimulationError, match="delay|integer ticks"):
                queue.run()
            # The refused step is not queued: the process is over.
            assert len(queue) == 0
            assert queue.run() == 0

    def test_cancelled_process_never_starts(self):
        queue = EventQueue()
        started = []

        def start():
            started.append(queue.now)
            yield 1

        pending = queue.process(2, start)
        queue.cancel(pending)
        assert queue.run() == 0
        assert started == []
        assert pending.generator is None
        # Cancelled between steps, a running process never resumes.
        running = queue.process(0, start)
        assert queue.run(max_events=1) == 1
        queue.cancel(running)
        assert queue.run() == 0
        assert started == [0]

    def test_only_a_running_process_holds_a_generator(self):
        queue = EventQueue()
        steps = []

        def body():
            for _ in range(3):
                steps.append(queue.now)
                yield 2
            steps.append(queue.now)

        event = queue.process(5, body)
        assert event.generator is None
        assert queue.run(until=4) == 0
        assert event.generator is None
        assert len(queue) == 1
        assert queue.run(max_events=1) == 1
        assert isinstance(event.generator, types.GeneratorType)
        assert (len(queue), event.tick) == (1, 7)
        assert queue.run() == 3
        assert steps == [5, 7, 9, 11]
        # A finished process lets its generator go.
        assert event.generator is None
        assert (len(queue), queue.processed) == (0, 4)
