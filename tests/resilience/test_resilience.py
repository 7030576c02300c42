"""Tests for retry policies, circuit breakers, and hedged calls."""

import math

import numpy as np
import pytest

from repro.resilience import BreakerBoard, CircuitBreaker, Hedge, RetryPolicy
from repro.simkernel import Monitor, Simulator


class TestRetryPolicy:
    def test_attempt_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows(1) and policy.allows(3)
        assert not policy.allows(4)

    def test_elapsed_budget(self):
        policy = RetryPolicy(max_attempts=10, max_elapsed_s=60.0)
        assert policy.allows(5, elapsed_s=59.0)
        assert not policy.allows(5, elapsed_s=60.0)

    def test_deterministic_ceiling_without_rng(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=2.0, max_delay_s=5.0)
        assert policy.next_delay(2) == 1.0
        assert policy.next_delay(3) == 2.0
        assert policy.next_delay(4) == 4.0
        assert policy.next_delay(5) == 5.0  # capped

    def test_first_attempt_has_no_delay(self):
        assert RetryPolicy().next_delay(1) == 0.0

    def test_full_jitter_bounded(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter="full")
        rng = np.random.default_rng(0)
        for attempt in range(2, 8):
            d = policy.next_delay(attempt, rng)
            assert 0.0 <= d <= policy.ceiling(attempt)

    def test_decorrelated_jitter_bounded_and_capped(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=10.0, jitter="decorrelated")
        rng = np.random.default_rng(0)
        prev = None
        for attempt in range(2, 12):
            d = policy.next_delay(attempt, rng, prev_delay_s=prev)
            assert policy.base_delay_s <= d <= policy.max_delay_s
            prev = d

    def test_same_rng_state_same_delays(self):
        policy = RetryPolicy(base_delay_s=0.5, jitter="decorrelated")
        a = [policy.next_delay(i, np.random.default_rng(9)) for i in range(2, 6)]
        b = [policy.next_delay(i, np.random.default_rng(9)) for i in range(2, 6)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter="gaussian")
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=5.0, max_delay_s=1.0)


class TestCircuitBreaker:
    def advance(self, sim, dt):
        sim.schedule(dt, lambda: None)
        sim.run()

    def test_opens_after_threshold(self):
        sim = Simulator()
        breaker = CircuitBreaker(sim, failure_threshold=3, recovery_timeout_s=10.0)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and not breaker.blocked
        tripped = breaker.record_failure()
        assert tripped
        assert breaker.state == "open" and breaker.blocked
        assert not breaker.allow()

    def test_success_resets_failure_streak(self):
        sim = Simulator()
        breaker = CircuitBreaker(sim, failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_cycle(self):
        sim = Simulator()
        breaker = CircuitBreaker(sim, failure_threshold=1, recovery_timeout_s=10.0)
        breaker.record_failure()
        assert breaker.blocked
        self.advance(sim, 10.0)
        assert breaker.state == "half-open"
        assert not breaker.blocked  # probe slot available
        assert breaker.allow()  # consumes the probe
        assert breaker.blocked  # further traffic held while probing
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and not breaker.blocked

    def test_failed_probe_reopens(self):
        sim = Simulator()
        breaker = CircuitBreaker(sim, failure_threshold=1, recovery_timeout_s=10.0)
        breaker.record_failure()
        self.advance(sim, 10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2
        # and it blocks for a fresh full timeout
        self.advance(sim, 5.0)
        assert breaker.blocked

    def test_blocked_is_read_only(self):
        sim = Simulator()
        breaker = CircuitBreaker(sim, failure_threshold=1, recovery_timeout_s=1.0)
        breaker.record_failure()
        self.advance(sim, 1.0)
        # consulting blocked many times must not consume the probe slot
        for _ in range(5):
            assert not breaker.blocked
        assert breaker.allow()

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CircuitBreaker(sim, failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(sim, recovery_timeout_s=0.0)


class TestBreakerBoard:
    def test_per_provider_isolation(self):
        sim = Simulator()
        board = BreakerBoard(sim, failure_threshold=1)
        board.record_failure("flappy")
        assert board.blocked_providers() == {"flappy"}
        board.record_success("steady")
        assert "steady" not in board.blocked_providers()
        assert len(board) == 2

    def test_trips_counted_in_monitor(self):
        sim = Simulator()
        monitor = Monitor()
        board = BreakerBoard(sim, monitor=monitor, failure_threshold=2)
        board.record_failure("p")
        board.record_failure("p")
        assert monitor.counter("resilience.breaker.trips").value == 1


class TestHedgedCall:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hedge(delay_s=0.0)
        with pytest.raises(ValueError):
            Hedge(delay_s=1.0, max_hedges=0)
