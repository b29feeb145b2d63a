"""Tests for the simulated clock, scheduler and network."""

import pytest

from repro.net import LatencyModel, Scheduler, SimClock, SimNetwork


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(5.0)
        assert clock.now() == 5.0
        assert clock() == 5.0  # callable form

    def test_advance_to(self):
        clock = SimClock(start=10.0)
        clock.advance_to(20.0)
        assert clock.now() == 20.0

    def test_no_time_travel(self):
        clock = SimClock(start=10.0)
        with pytest.raises(ValueError):
            clock.advance(-1)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)


class TestScheduler:
    def test_actions_run_at_their_time(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule(5.0, lambda: fired.append(scheduler.clock.now()))
        scheduler.run_until(4.0)
        assert fired == []
        scheduler.run_until(6.0)
        assert fired == [5.0]

    def test_order_within_same_instant(self):
        scheduler = Scheduler()
        order = []
        scheduler.schedule(1.0, lambda: order.append("a"))
        scheduler.schedule(1.0, lambda: order.append("b"))
        scheduler.run_until(2.0)
        assert order == ["a", "b"]

    def test_run_until_advances_clock_even_when_idle(self):
        scheduler = Scheduler()
        scheduler.run_until(42.0)
        assert scheduler.clock.now() == 42.0

    def test_action_scheduling_action(self):
        scheduler = Scheduler()
        fired = []

        def first():
            scheduler.schedule(1.0, lambda: fired.append("second"))

        scheduler.schedule(1.0, first)
        scheduler.run_until(3.0)
        assert fired == ["second"]

    def test_periodic_and_cancel(self):
        scheduler = Scheduler()
        ticks = []
        cancel = scheduler.schedule_periodic(
            2.0, lambda: ticks.append(scheduler.clock.now()))
        scheduler.run_for(7.0)
        assert ticks == [2.0, 4.0, 6.0]
        cancel()
        scheduler.run_for(10.0)
        assert len(ticks) == 3

    def test_cancelled_event_does_not_fire(self):
        scheduler = Scheduler()
        fired = []
        event = scheduler.schedule(1.0, lambda: fired.append(1))
        event.cancelled = True
        scheduler.run_for(2.0)
        assert fired == []
        assert scheduler.pending == 0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Scheduler().schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            Scheduler().schedule_periodic(0.0, lambda: None)

    def test_run_until_returns_count(self):
        scheduler = Scheduler()
        for delay in (1.0, 2.0, 3.0):
            scheduler.schedule(delay, lambda: None)
        assert scheduler.run_until(2.5) == 2


class TestLatencyModel:
    def test_intra_vs_inter(self):
        model = LatencyModel(intra_domain=0.001, inter_domain=0.05)
        assert model.one_way("a", "a") == 0.001
        assert model.one_way("a", "b") == 0.05
        assert model.round_trip("a", "b") == 0.1

    def test_override_is_symmetric(self):
        model = LatencyModel()
        model.set_latency("uk", "us", 0.07)
        assert model.one_way("uk", "us") == 0.07
        assert model.one_way("us", "uk") == 0.07

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(intra_domain=-1)
        with pytest.raises(ValueError):
            LatencyModel().set_latency("a", "b", -0.1)


def echo(value):
    return value


class TestSimNetwork:
    def test_call_advances_clock_by_round_trip(self):
        network = SimNetwork(latency=LatencyModel(inter_domain=0.05))
        result = network.call("a", "b", echo, 42)
        assert result == 42
        assert network.clock.now() == pytest.approx(0.1)

    def test_intra_domain_is_cheaper(self):
        network = SimNetwork(
            latency=LatencyModel(intra_domain=0.001, inter_domain=0.05))
        network.call("a", "a", echo, 1)
        assert network.clock.now() == pytest.approx(0.002)

    def test_stats_accumulate(self):
        network = SimNetwork()
        network.call("a", "b", lambda: None)
        network.call("a", "b", lambda: None)
        assert network.stats.calls == 2
        assert network.stats.messages == 4
        network.stats.reset()
        assert network.stats.calls == 0

    def test_nested_calls_accumulate_latency(self):
        """Fig. 3 shape: hospital -> national, which calls back."""
        network = SimNetwork(latency=LatencyModel(inter_domain=0.05))

        def outer():
            return network.call("national", "hospital", lambda: "ok")

        assert network.call("hospital", "national", outer) == "ok"
        assert network.clock.now() == pytest.approx(0.2)  # two round trips

    def test_handler_exceptions_propagate(self):
        network = SimNetwork()

        def boom():
            raise RuntimeError("kaboom")

        with pytest.raises(RuntimeError):
            network.call("a", "b", boom)
