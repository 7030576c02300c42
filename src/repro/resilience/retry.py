"""Retry budgets with exponential backoff and jitter.

A :class:`RetryPolicy` is a frozen value object shared freely between
components; all mutable state (attempt number, previous delay, elapsed
time) lives with the caller.  Jitter follows the well-known "exponential
backoff and jitter" analysis: *decorrelated* jitter draws each delay from
``uniform(base, prev * 3)``, *full* jitter from ``uniform(0, ceiling)``;
``"none"`` keeps the deterministic exponential ceiling (also used when
the caller passes no RNG, preserving reproducibility by default).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro import checks

_JITTER_MODES = ("none", "full", "decorrelated")


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry budget: at most ``max_attempts`` tries within
    ``max_elapsed_s`` of the first one, with exponential backoff.

    Parameters
    ----------
    max_attempts:
        Total tries allowed, the first one included (so 1 = no retries).
    base_delay_s / max_delay_s / multiplier:
        Backoff ceiling for attempt *n* (1-based) is
        ``min(base * multiplier**(n-1), max_delay_s)``.
    jitter:
        ``"none"``, ``"full"``, or ``"decorrelated"``.
    max_elapsed_s:
        Wall-clock (virtual time) budget across all attempts;
        ``inf`` = unbounded.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.5
    max_delay_s: float = 30.0
    multiplier: float = 2.0
    jitter: str = "decorrelated"
    max_elapsed_s: float = math.inf

    def __post_init__(self) -> None:
        checks.count("max_attempts", self.max_attempts, 1)
        if (checks.non_negative("max_delay_s", self.max_delay_s)
                < checks.non_negative("base_delay_s", self.base_delay_s)):
            raise ValueError("need base_delay_s <= max_delay_s")
        checks.finite("multiplier", self.multiplier, low=1.0)
        if self.jitter not in _JITTER_MODES:
            raise ValueError(f"jitter must be one of {_JITTER_MODES}")
        checks.positive("max_elapsed_s", self.max_elapsed_s, inf=True)

    # ------------------------------------------------------------------
    def allows(self, attempt: int, elapsed_s: float = 0.0) -> bool:
        """True iff attempt number ``attempt`` (1-based) may start after
        ``elapsed_s`` seconds since the first attempt began."""
        return attempt <= self.max_attempts and elapsed_s < self.max_elapsed_s

    def ceiling(self, attempt: int) -> float:
        """Un-jittered backoff ceiling before attempt ``attempt`` (>= 2)."""
        exp = max(attempt - 2, 0)
        return min(self.base_delay_s * self.multiplier**exp, self.max_delay_s)

    def next_delay(
        self,
        attempt: int,
        rng: np.random.Generator | None = None,
        prev_delay_s: float | None = None,
    ) -> float:
        """Delay to sleep before attempt ``attempt`` (1-based, >= 2).

        With no ``rng`` the deterministic ceiling is returned regardless
        of the jitter mode.  ``prev_delay_s`` feeds the decorrelated
        recurrence; ``None`` restarts it from ``base_delay_s``.
        """
        if attempt < 2:
            return 0.0
        ceiling = self.ceiling(attempt)
        if rng is None or self.jitter == "none":
            return ceiling
        if self.jitter == "full":
            return float(rng.uniform(0.0, ceiling))
        prev = self.base_delay_s if prev_delay_s is None else prev_delay_s
        hi = max(prev * 3.0, self.base_delay_s)
        return min(float(rng.uniform(self.base_delay_s, hi)), self.max_delay_s)
