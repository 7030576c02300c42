"""Unit tests for geometry helpers, batteries and radio energy model."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.network.geometry import (
    as_positions,
    distance,
    distances_from,
    neighbors_within,
    pairwise_distances,
)
from repro.network.energy import Battery, BatteryBank, RadioEnergyModel
from repro.network.radio import RadioModel


class TestGeometry:
    def test_distance_simple(self):
        assert distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_as_positions_validates_shape(self):
        with pytest.raises(ValueError):
            as_positions(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            as_positions(np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_as_positions_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            as_positions([[0.0, 0.0], [1.0, bad]])

    def test_pairwise_matches_naive(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 100, size=(20, 2))
        d = pairwise_distances(pos)
        for i in range(20):
            for j in range(20):
                expected = math.hypot(*(pos[i] - pos[j]))
                assert d[i, j] == pytest.approx(expected, abs=1e-9)

    def test_pairwise_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 10, size=(15, 2))
        d = pairwise_distances(pos)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)

    def test_distances_from(self):
        pos = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = distances_from(pos, np.array([0.0, 0.0]))
        assert d == pytest.approx([0.0, 5.0])

    def test_neighbors_within_no_self_loops(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        adj = neighbors_within(pos, 2.0)
        assert not adj.diagonal().any()
        assert adj[0, 1] and adj[1, 0]
        assert not adj[0, 2]

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=1000))
    def test_pairwise_triangle_inequality(self, n, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 50, size=(n, 2))
        d = pairwise_distances(pos)
        i, j, k = rng.integers(0, n, size=3)
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-7


class TestRadioEnergyModel:
    def test_tx_grows_with_distance_squared(self):
        m = RadioEnergyModel(e_elec=0.0, eps_amp=1.0)
        assert m.tx_cost(1.0, 2.0) == pytest.approx(4.0)
        assert m.tx_cost(1.0, 3.0) == pytest.approx(9.0)

    def test_tx_includes_electronics(self):
        m = RadioEnergyModel(e_elec=2.0, eps_amp=0.0)
        assert m.tx_cost(10.0, 100.0) == pytest.approx(20.0)

    def test_rx_independent_of_distance(self):
        m = RadioEnergyModel()
        assert m.rx_cost(100.0) == pytest.approx(m.e_elec * 100.0)

    def test_cpu_much_cheaper_than_radio_per_unit(self):
        """The property that makes in-network aggregation worthwhile."""
        m = RadioEnergyModel()
        assert m.cpu_cost(1.0) < m.tx_cost(1.0, 10.0) / 100.0

    def test_negative_inputs_rejected(self):
        m = RadioEnergyModel()
        with pytest.raises(ValueError):
            m.tx_cost(-1.0, 1.0)
        with pytest.raises(ValueError):
            m.rx_cost(-1.0)
        with pytest.raises(ValueError):
            m.cpu_cost(-1.0)

    @given(st.floats(min_value=0, max_value=1e6), st.floats(min_value=0, max_value=1e3))
    def test_tx_cost_nonnegative(self, bits, dist):
        assert RadioEnergyModel().tx_cost(bits, dist) >= 0.0


class TestBattery:
    def test_draw_reduces_remaining(self):
        b = Battery(1.0)
        assert b.draw(0.3)
        assert b.remaining == pytest.approx(0.7)
        assert b.consumed == pytest.approx(0.3)

    def test_depletion(self):
        b = Battery(1.0)
        assert not b.draw(2.0)
        assert b.depleted
        assert b.remaining == 0.0
        assert b.consumed == pytest.approx(1.0)  # can't consume more than capacity

    def test_infinite_battery_never_depletes(self):
        b = Battery(float("inf"))
        assert b.draw(1e12)
        assert not b.depleted
        assert b.fraction_remaining == 1.0

    def test_fraction_remaining(self):
        b = Battery(2.0)
        b.draw(0.5)
        assert b.fraction_remaining == pytest.approx(0.75)

    def test_zero_capacity_battery(self):
        b = Battery(0.0)
        assert b.depleted
        assert b.fraction_remaining == 0.0

    def test_negative_draw_rejected(self):
        with pytest.raises(ValueError):
            Battery(1.0).draw(-0.1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Battery(-1.0)

    @given(st.lists(st.floats(min_value=0, max_value=0.5), max_size=20))
    def test_consumed_never_exceeds_capacity(self, draws):
        b = Battery(1.0)
        for d in draws:
            b.draw(d)
        assert b.consumed <= 1.0 + 1e-12
        assert b.remaining >= 0.0


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    pytest.param(lambda: Battery(1.0).draw(NAN), id="draw-nan"),
    pytest.param(lambda: Battery(1.0).draw(INF), id="draw-inf"),
    pytest.param(lambda: Battery(INF).draw(INF), id="mains-draw-inf"),
    pytest.param(lambda: BatteryBank([1.0]).batteries()[0].draw(NAN), id="cell-draw-nan"),
    pytest.param(lambda: Battery(NAN), id="capacity-nan"),
    pytest.param(lambda: BatteryBank([1.0, NAN]), id="bank-capacity-nan"),
    pytest.param(lambda: RadioEnergyModel().tx_cost(NAN, 10.0), id="tx-bits-nan"),
    pytest.param(lambda: RadioEnergyModel().tx_cost(INF, 10.0), id="tx-bits-inf"),
    pytest.param(lambda: RadioEnergyModel().tx_cost(256.0, INF), id="tx-dist-inf"),
    pytest.param(lambda: RadioEnergyModel().rx_cost(NAN), id="rx-nan"),
    pytest.param(lambda: RadioEnergyModel().cpu_cost(INF), id="cpu-inf"),
    pytest.param(lambda: RadioEnergyModel().sense_cost(-1.0), id="sense-negative"),
    pytest.param(lambda: RadioEnergyModel().sense_cost(NAN), id="sense-nan"),
    pytest.param(lambda: RadioEnergyModel(e_elec=NAN), id="e_elec-nan"),
    pytest.param(lambda: RadioEnergyModel(eps_amp=-1e-12), id="eps_amp-negative"),
    pytest.param(lambda: RadioEnergyModel(e_sense=INF), id="e_sense-inf"),
])
def test_non_finite_or_negative_energy_inputs_rejected(call):
    """A NaN or infinite draw, cost input or coefficient, or a NaN
    capacity, raises instead of poisoning a battery or the ledger."""
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("make", [lambda: Battery(1.0),
                                  lambda: BatteryBank([1.0]).batteries()[0]],
                         ids=["battery", "bank-cell"])
def test_rejected_draw_leaves_the_cell_untouched(make):
    cell = make()
    for bad in (NAN, INF, -1.0):
        with pytest.raises(ValueError, match="negative energy"):
            cell.draw(bad)
    assert (cell.remaining, cell.consumed, cell.draws) == (1.0, 0.0, 0)


class TestRadioModel:
    def test_transmission_time(self):
        r = RadioModel(bandwidth_bps=1000.0, latency_s=0.5)
        assert r.transmission_time(2000.0) == pytest.approx(2.0)
        assert r.hop_time(2000.0) == pytest.approx(2.5)

    def test_profiles_ordering(self):
        """Wired >> wifi >> bluetooth >= mote bandwidth; paper's hierarchy."""
        assert RadioModel.wired_backbone().bandwidth_bps > RadioModel.wifi().bandwidth_bps
        assert RadioModel.wifi().bandwidth_bps > RadioModel.bluetooth().bandwidth_bps
        assert RadioModel.bluetooth().bandwidth_bps > RadioModel.mote().bandwidth_bps

    def test_validation(self):
        with pytest.raises(ValueError):
            RadioModel(bandwidth_bps=0)
        with pytest.raises(ValueError):
            RadioModel(latency_s=-1)
        with pytest.raises(ValueError):
            RadioModel(loss_prob=1.0)
        with pytest.raises(ValueError):
            RadioModel(range_m=0)
        with pytest.raises(ValueError):
            RadioModel().transmission_time(-1.0)

    @pytest.mark.parametrize("field, bad", [
        ("bandwidth_bps", math.nan), ("latency_s", math.nan),
        ("latency_s", math.inf), ("loss_prob", math.nan), ("range_m", math.nan),
    ])
    def test_nan_or_infinite_latency_rejected(self, field, bad):
        with pytest.raises(ValueError, match=repr(bad)):
            RadioModel(**{field: bad})

    def test_infinite_bandwidth_and_range_stay_legal(self):
        radio = RadioModel(bandwidth_bps=math.inf, range_m=math.inf)
        assert radio.hop_time(1_000.0) == radio.latency_s
