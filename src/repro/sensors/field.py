"""Synthetic physical fields sampled by the sensors.

The paper assumes real environmental sensors (temperature in a burning
building, toxin concentrations).  We substitute analytic scalar fields
with the spatial/temporal structure those phenomena have -- smooth
backgrounds plus localized, time-evolving hotspots -- so every code path
(streaming readings, in-network aggregation, PDE boundary data) is
exercised by realistic-looking data.  All field evaluation is vectorized
over query positions.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import checks


class ScalarField:
    """A scalar function of (position, time).

    Subclasses implement :meth:`sample_at` for an ``(n, 2)`` position
    array; :meth:`value_at` is the scalar convenience wrapper.
    """

    def sample_at(self, positions: np.ndarray, t: float) -> np.ndarray:
        """Field values at each row of ``positions`` at time ``t``."""
        raise NotImplementedError

    def value_at(self, position: np.ndarray, t: float) -> float:
        """Field value at one point."""
        return float(self.sample_at(np.asarray(position, dtype=np.float64)[None, :], t)[0])


@dataclasses.dataclass
class UniformField(ScalarField):
    """A spatially constant field with optional linear drift in time."""

    level: float = 20.0
    drift_per_s: float = 0.0

    def __post_init__(self) -> None:
        checks.finite("level", self.level)
        checks.finite("drift_per_s", self.drift_per_s)

    def sample_at(self, positions: np.ndarray, t: float) -> np.ndarray:
        n = np.asarray(positions).shape[0]
        return np.full(n, self.level + self.drift_per_s * t)


@dataclasses.dataclass(frozen=True)
class Hotspot:
    """One Gaussian hotspot: ``amp * growth(t) * exp(-|x-c|^2 / (2 sigma^2))``.

    ``growth_rate`` makes the amplitude rise as ``1 - exp(-rate * (t - t0))``
    after ignition time ``t0`` (a fire that flares up), saturating at
    ``amplitude``.
    """

    center: tuple[float, float]
    amplitude: float
    sigma_m: float
    t0: float = 0.0
    growth_rate: float = 0.05

    def evaluate(self, positions: np.ndarray, t: float) -> np.ndarray:
        if t < self.t0:
            return np.zeros(positions.shape[0])
        c = np.asarray(self.center, dtype=np.float64)
        d2 = np.sum((positions - c[None, :]) ** 2, axis=1)
        growth = 1.0 - np.exp(-self.growth_rate * (t - self.t0))
        return self.amplitude * growth * np.exp(-d2 / (2.0 * self.sigma_m**2))


class HotspotField(ScalarField):
    """Background level plus a sum of Gaussian hotspots."""

    def __init__(self, background: float, hotspots: list[Hotspot]) -> None:
        self.background = checks.finite("background", background)
        self.hotspots = list(hotspots)

    def sample_at(self, positions: np.ndarray, t: float) -> np.ndarray:
        pos = np.asarray(positions, dtype=np.float64)
        total = np.full(pos.shape[0], self.background)
        for h in self.hotspots:
            total += h.evaluate(pos, t)
        return total


class FireField(HotspotField):
    """A building fire: ambient 20 °C plus growing fire seats.

    Parameters
    ----------
    area_m:
        Side of the square building footprint; fire seats are placed
        inside it.
    n_seats:
        Number of independent ignition points.
    rng:
        Random source for seat placement/intensity (named stream).
    peak_c:
        Saturation temperature of the hottest seat.
    """

    def __init__(
        self,
        area_m: float,
        rng: np.random.Generator,
        n_seats: int = 2,
        ambient_c: float = 20.0,
        peak_c: float = 800.0,
    ) -> None:
        self.area_m = checks.positive("area_m", area_m)
        checks.finite("ambient_c", ambient_c)
        checks.finite("peak_c", peak_c)
        seats = []
        for i in range(checks.count("n_seats", n_seats, 1)):
            center = tuple(rng.uniform(0.2 * area_m, 0.8 * area_m, size=2))
            amplitude = float(rng.uniform(0.5, 1.0) * peak_c)
            sigma = float(rng.uniform(0.1, 0.25) * area_m)
            t0 = float(rng.uniform(0.0, 30.0)) if i > 0 else 0.0
            seats.append(Hotspot(center=center, amplitude=amplitude, sigma_m=sigma, t0=t0))
        super().__init__(background=ambient_c, hotspots=seats)


class PlumeField(ScalarField):
    """A drifting Gaussian toxin plume (the health-monitoring scenario).

    The plume centre advects with a constant wind; concentration decays
    exponentially with a half-life and spreads (sigma grows) over time.
    """

    def __init__(
        self,
        source: tuple[float, float],
        wind_m_s: tuple[float, float] = (0.5, 0.1),
        initial_mass: float = 100.0,
        sigma0_m: float = 10.0,
        spread_m_s: float = 0.2,
        half_life_s: float = 600.0,
    ) -> None:
        self.source = np.asarray(source, dtype=np.float64)
        self.wind = np.asarray(wind_m_s, dtype=np.float64)
        self.initial_mass = checks.non_negative("initial_mass", initial_mass)
        self.sigma0_m = checks.positive("sigma0_m", sigma0_m)
        self.spread_m_s = checks.non_negative("spread_m_s", spread_m_s)
        self.half_life_s = checks.positive("half_life_s", half_life_s)

    def sample_at(self, positions: np.ndarray, t: float) -> np.ndarray:
        pos = np.asarray(positions, dtype=np.float64)
        center = self.source + self.wind * t
        sigma = self.sigma0_m + self.spread_m_s * t
        mass = self.initial_mass * 0.5 ** (t / self.half_life_s)
        d2 = np.sum((pos - center[None, :]) ** 2, axis=1)
        peak = mass / (2.0 * np.pi * sigma**2)
        return peak * np.exp(-d2 / (2.0 * sigma**2))
