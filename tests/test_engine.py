"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(30, lambda: order.append("c"))
        engine.schedule(10, lambda: order.append("a"))
        engine.schedule(20, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_fifo_order(self):
        engine = Engine()
        order = []
        for name in "abc":
            engine.schedule(5, lambda n=name: order.append(n))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(42, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [42]
        assert engine.now == 42

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        engine = Engine()
        engine.schedule(10, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(5, lambda: None)

    def test_events_can_schedule_events(self):
        engine = Engine()
        log = []

        def chain(n):
            log.append(engine.now)
            if n > 0:
                engine.schedule(10, lambda: chain(n - 1))

        engine.schedule(0, lambda: chain(3))
        engine.run()
        assert log == [0, 10, 20, 30]


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        engine = Engine()
        fired = []
        engine.schedule(10, lambda: fired.append(10))
        engine.schedule(100, lambda: fired.append(100))
        engine.run(until=50)
        assert fired == [10]
        assert engine.now == 50
        assert engine.pending == 1

    def test_run_until_then_resume(self):
        engine = Engine()
        fired = []
        engine.schedule(100, lambda: fired.append(100))
        engine.run(until=50)
        engine.run()
        assert fired == [100]

    def test_run_until_advances_clock_when_idle(self):
        engine = Engine()
        engine.run(until=500)
        assert engine.now == 500


class TestSameCycleOrdering:
    """The batched fast path must preserve exact (time, seq) order."""

    def test_same_cycle_events_scheduled_during_dispatch_run_after(self):
        engine = Engine()
        order = []

        def first():
            order.append("first")
            engine.schedule_at(engine.now, lambda: order.append("late"))

        engine.schedule(5, first)
        engine.schedule(5, lambda: order.append("second"))
        engine.run()
        assert order == ["first", "second", "late"]

    def test_zero_delay_during_run_interleaves_by_schedule_order(self):
        engine = Engine()
        order = []

        def outer():
            engine.schedule(0, lambda: order.append("imm1"))
            engine.schedule_at(engine.now, lambda: order.append("heap"))
            engine.schedule(0, lambda: order.append("imm2"))

        engine.schedule(3, outer)
        engine.run()
        assert order == ["imm1", "heap", "imm2"]

    def test_zero_delay_chains_run_at_the_same_cycle(self):
        engine = Engine()
        times = []

        def chain(n):
            times.append(engine.now)
            if n > 0:
                engine.schedule(0, lambda: chain(n - 1))

        engine.schedule(7, lambda: chain(3))
        engine.run()
        assert times == [7, 7, 7, 7]
        assert engine.now == 7

    def test_zero_delay_outside_run_behaves_like_schedule_at_now(self):
        engine = Engine()
        order = []
        engine.schedule(0, lambda: order.append("a"))
        engine.schedule(0, lambda: order.append("b"))
        assert engine.pending == 2
        engine.run()
        assert order == ["a", "b"]

    def test_zero_delay_can_schedule_future_events(self):
        engine = Engine()
        log = []

        def now_then_later():
            engine.schedule(0, lambda: engine.schedule(
                10, lambda: log.append(engine.now)))

        engine.schedule(1, now_then_later)
        engine.run()
        assert log == [11]


class TestReset:
    def test_reset_clears_clock_queue_and_sequence(self):
        engine = Engine()
        engine.schedule(10, lambda: None)
        engine.schedule(20, lambda: None)
        engine.run(until=15)
        assert engine.now == 15
        assert engine.pending == 1
        engine.reset()
        assert engine.now == 0
        assert engine.pending == 0
        assert engine._seq == 0

    def test_reset_engine_matches_fresh_engine(self):
        def exercise(engine):
            order = []
            engine.schedule(5, lambda: order.append((engine.now, "a")))
            engine.schedule(5, lambda: order.append((engine.now, "b")))
            engine.schedule(1, lambda: order.append((engine.now, "c")))
            engine.run()
            return order, engine.now

        reused = Engine()
        exercise(reused)
        reused.reset()
        assert exercise(reused) == exercise(Engine())

    def test_reset_allows_scheduling_at_early_times_again(self):
        engine = Engine()
        engine.schedule(100, lambda: None)
        engine.run()
        engine.reset()
        fired = []
        engine.schedule_at(5, lambda: fired.append(5))
        engine.run()
        assert fired == [5]


class TestResetWithSanitizer:
    """Engine.reset() must rewind an attached sanitizer's per-run
    progress counters (``on_engine_reset``); before the hook existed, a
    reused sanitized engine accumulated same-cycle counts across runs
    and tripped a false ``engine.livelock``."""

    @staticmethod
    def _sanitized_engine(max_same_cycle):
        from repro.sanitizer import Sanitizer, SanitizerConfig

        engine = Engine()
        sanitizer = Sanitizer(SanitizerConfig(
            max_same_cycle_events=max_same_cycle))
        sanitizer.attach_engine(engine)
        return engine

    @staticmethod
    def _burst(engine, events):
        # Events at time 0 dispatch with event_time == now from the
        # first one on, so every dispatch counts as same-cycle.
        for _ in range(events):
            engine.schedule_at(0, lambda: None)
        engine.run()

    def test_reset_rewinds_same_cycle_counter(self):
        engine = self._sanitized_engine(max_same_cycle=10)
        for _ in range(5):  # 8 same-cycle events per run, reset between
            self._burst(engine, 8)
            engine.reset()

    def test_without_reset_counter_accumulates(self):
        from repro.sanitizer import SanitizerViolation

        engine = self._sanitized_engine(max_same_cycle=10)
        self._burst(engine, 8)
        with pytest.raises(SanitizerViolation, match="livelock"):
            self._burst(engine, 8)

    def test_reset_engine_matches_fresh_engine_when_sanitized(self):
        def exercise(engine):
            order = []
            engine.schedule(5, lambda: order.append((engine.now, "a")))
            engine.schedule(5, lambda: order.append((engine.now, "b")))
            engine.run()
            return order, engine.now

        reused = self._sanitized_engine(max_same_cycle=100)
        exercise(reused)
        reused.reset()
        assert exercise(reused) == exercise(
            self._sanitized_engine(max_same_cycle=100))

    def test_reset_without_sanitizer_is_unaffected(self):
        engine = Engine()
        engine.schedule(10, lambda: None)
        engine.run()
        engine.reset()
        assert engine.now == 0 and engine.pending == 0


class TestStepAndAdvance:
    def test_step_runs_single_event(self):
        engine = Engine()
        fired = []
        engine.schedule(1, lambda: fired.append(1))
        engine.schedule(2, lambda: fired.append(2))
        assert engine.step()
        assert fired == [1]

    def test_step_on_empty_queue(self):
        assert Engine().step() is False

    def test_advance_moves_clock(self):
        engine = Engine()
        engine.advance(25)
        assert engine.now == 25

    def test_advance_cannot_skip_events(self):
        engine = Engine()
        engine.schedule(10, lambda: None)
        with pytest.raises(RuntimeError):
            engine.advance(20)

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            Engine().advance(-5)


class TestScheduleHardening:
    """schedule/schedule_at validate their arguments before mutating
    any engine state, so a rejected call leaves the engine clean."""

    def test_non_callable_callback_rejected(self):
        engine = Engine()
        with pytest.raises(TypeError, match="callable"):
            engine.schedule(1, "not-a-callback")
        with pytest.raises(TypeError, match="callable"):
            engine.schedule_at(1, None)

    def test_float_delay_rejected(self):
        engine = Engine()
        with pytest.raises(TypeError):
            engine.schedule(1.5, lambda: None)
        with pytest.raises(TypeError):
            engine.schedule_at(1.5, lambda: None)

    def test_nan_delay_rejected(self):
        # NaN compares False against every bound, so without the
        # integer coercion it would slip past range checks and poison
        # the heap ordering.
        engine = Engine()
        with pytest.raises(TypeError):
            engine.schedule(float("nan"), lambda: None)

    def test_bool_delay_is_integral(self):
        # bools are ints; operator.index accepts them (delay=True == 1).
        engine = Engine()
        engine.schedule(True, lambda: None)
        engine.run()
        assert engine.now == 1

    def test_negative_schedule_at_rejected(self):
        engine = Engine()
        engine.advance(10)
        with pytest.raises(ValueError):
            engine.schedule_at(9, lambda: None)

    def test_rejected_schedule_leaves_state_clean(self):
        engine = Engine()
        for bad in (lambda: engine.schedule(-1, lambda: None),
                    lambda: engine.schedule(1, "nope"),
                    lambda: engine.schedule(2.5, lambda: None)):
            with pytest.raises((TypeError, ValueError)):
                bad()
        # A clean engine after rejections behaves exactly like fresh.
        order = []
        engine.schedule(3, lambda: order.append(engine.now))
        engine.run()
        assert order == [3]
        assert engine.pending == 0
