"""Node batteries and the first-order radio energy model.

The paper's §4 makes sensor energy the first-class cost ("preserving the
energy of the sensors is of prime importance").  We use the standard
first-order radio model from the sensor-network literature the paper
builds on (TAG, LEACH, Kalpakis et al.):

* transmitting ``k`` bits over distance ``d`` costs
  ``E_elec * k + eps_amp * k * d**2`` joules,
* receiving ``k`` bits costs ``E_elec * k`` joules,
* each CPU operation costs ``e_cpu`` joules (orders of magnitude below a
  transmitted bit, which is what makes in-network aggregation pay off).

Defaults follow Heinzelman et al.: ``E_elec = 50 nJ/bit``,
``eps_amp = 100 pJ/bit/m^2``, ``e_cpu = 5 pJ/op``.
"""

from __future__ import annotations

import dataclasses
import operator

import numpy as np

_INF = float("inf")


@dataclasses.dataclass(frozen=True)
class RadioEnergyModel:
    """Energy cost parameters for radio and CPU activity.

    Every coefficient, and every input to a cost method, must be finite
    and non-negative.

    Attributes
    ----------
    e_elec:
        Electronics energy per bit, J/bit (both tx and rx paths).
    eps_amp:
        Transmit-amplifier energy per bit per square metre, J/bit/m^2.
    e_cpu_op:
        Energy per CPU operation, J/op.
    e_sense:
        Energy per sensor sample, J/sample.
    """

    e_elec: float = 50e-9
    eps_amp: float = 100e-12
    e_cpu_op: float = 5e-12
    e_sense: float = 50e-9

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not 0.0 <= value < _INF:
                raise ValueError(f"{field.name} must be finite and non-negative, got {value!r}")

    def tx_cost(self, bits: float, dist: float) -> float:
        """Joules to transmit ``bits`` over ``dist`` metres."""
        if not (0.0 <= bits < _INF and 0.0 <= dist < _INF):
            raise ValueError(f"bits and dist must be finite and non-negative, got {bits!r}, {dist!r}")
        return self.e_elec * bits + self.eps_amp * bits * dist * dist

    def rx_cost(self, bits: float) -> float:
        """Joules to receive ``bits``."""
        if not 0.0 <= bits < _INF:
            raise ValueError(f"bits must be finite and non-negative, got {bits!r}")
        return self.e_elec * bits

    def cpu_cost(self, ops: float) -> float:
        """Joules to execute ``ops`` CPU operations."""
        if not 0.0 <= ops < _INF:
            raise ValueError(f"ops must be finite and non-negative, got {ops!r}")
        return self.e_cpu_op * ops

    def sense_cost(self, samples: float = 1.0) -> float:
        """Joules to take ``samples`` sensor readings."""
        if not 0.0 <= samples < _INF:
            raise ValueError(f"samples must be finite and non-negative, got {samples!r}")
        return self.e_sense * samples


class Battery:
    """A finite (or infinite) energy reserve attached to a node.

    Draws are accepted even when they overdraw the remaining charge -- the
    battery clamps at zero and flips :attr:`depleted`, which is how node
    death is detected.  Base stations and grid resources use
    ``Battery(float("inf"))``.  A capacity is non-negative and not NaN;
    a draw is finite and non-negative.
    """

    __slots__ = ("capacity", "_remaining", "consumed", "draws")

    def __init__(self, capacity_joules: float = 1.0) -> None:
        if not capacity_joules >= 0:
            raise ValueError(f"capacity must be non-negative and not NaN, got {capacity_joules!r}")
        self.capacity = float(capacity_joules)
        self._remaining = float(capacity_joules)
        #: Total joules actually drawn (capped at capacity for finite cells).
        self.consumed = 0.0
        #: Number of draw() calls, for instrumentation.
        self.draws = 0

    @property
    def remaining(self) -> float:
        """Joules left (0 when depleted; inf for mains-powered nodes)."""
        return self._remaining

    @property
    def depleted(self) -> bool:
        """True once the battery has hit zero."""
        return self._remaining <= 0.0

    @property
    def fraction_remaining(self) -> float:
        """Remaining charge as a fraction of capacity (1.0 for infinite)."""
        if self.capacity == _INF:
            return 1.0
        if self.capacity == 0.0:
            return 0.0
        return self._remaining / self.capacity

    def draw(self, joules: float) -> bool:
        """Consume ``joules``; return True if the node is still alive.

        A draw that exceeds the remaining charge consumes whatever is left
        and leaves the battery depleted.
        """
        if not 0.0 <= joules < _INF:
            raise ValueError(f"cannot draw negative energy or a non-finite amount, got {joules!r}")
        self.draws += 1
        remaining = self._remaining
        # exactly min(joules, remaining), ties included
        taken = remaining if remaining < joules else joules
        self.consumed += taken
        self._remaining = remaining = remaining - taken
        return remaining > 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(remaining={self._remaining:.4g}/{self.capacity:.4g} J)"


class BatteryView(Battery):
    """One cell of a :class:`BatteryBank`: a :class:`Battery` holding its
    own charge, handed out by :meth:`BatteryBank.batteries`."""

    __slots__ = ()

    # the class's own attribute, not an inherited one: code that patches
    # ``Battery.draw`` (a tracer wrapping each class's draw) then does not
    # reach a cell's draw a second time through the subclass
    draw = Battery.draw


class BatteryBank:
    """A battery fleet built from one capacity array.

    Every slot is a :class:`BatteryView` cell that holds its own charge,
    so charging a node costs one scalar :class:`Battery` draw.  Fleet-wide
    accounting gathers a float64 column from the cells on demand.
    """

    __slots__ = ("_cells",)

    def __init__(self, capacities_joules: np.ndarray | list[float]) -> None:
        cap = np.asarray(capacities_joules, dtype=np.float64)
        if cap.ndim != 1:
            raise ValueError("capacities must be a 1-D array")
        if not np.all(cap >= 0.0):
            raise ValueError("capacity must be non-negative and not NaN")
        # validated once as an array, so each cell's slots are filled
        # directly (building 20k cells through __init__ takes ~1.5x as long)
        cells: list[BatteryView] = []
        new = BatteryView.__new__
        for capacity in cap.tolist():
            cell = new(BatteryView)
            cell.capacity = cell._remaining = capacity
            cell.consumed = 0.0
            cell.draws = 0
            cells.append(cell)
        self._cells = cells

    def __len__(self) -> int:
        return len(self._cells)

    def batteries(self) -> list[BatteryView]:
        """The cells, one per slot (pass straight to ``WirelessNetwork``)."""
        return list(self._cells)

    def _column(self, attr: str, dtype: type = np.float64) -> np.ndarray:
        column = np.fromiter(map(operator.attrgetter(attr), self._cells), dtype,
                             len(self._cells))
        column.flags.writeable = False
        return column

    # ------------------------------------------------------------------
    # fleet accounting: read-only snapshots, gathered per call
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> np.ndarray:
        """Capacity per cell."""
        return self._column("capacity")

    @property
    def remaining(self) -> np.ndarray:
        """Joules left per cell."""
        return self._column("_remaining")

    @property
    def consumed(self) -> np.ndarray:
        """Joules drawn per cell."""
        return self._column("consumed")

    @property
    def draws(self) -> np.ndarray:
        """Draw calls per cell."""
        return self._column("draws", np.int64)

    @property
    def total_consumed(self) -> float:
        """Fleet-wide joules drawn (numpy pairwise-summed; accounting
        only -- never fed back into simulation state)."""
        return float(self.consumed.sum())
