"""Unit tests for grids, interpolation and heat solvers."""

import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.pde import HeatSolver, RectGrid, anchor_readings, idw_interpolate, solve_ops_estimate
from repro.queries.models.base import solve_distribution
from tests.pde import oracle


class TestRectGrid:
    def test_basic_properties(self):
        g = RectGrid(5, 4, 10.0, 6.0)
        assert g.n_points == 20
        assert g.shape == (5, 4)
        assert g.dx == pytest.approx(2.5)
        assert g.dy == pytest.approx(2.0)

    def test_points_cover_extent(self):
        g = RectGrid(3, 3, 10.0, 10.0)
        pts = g.points()
        assert pts.shape == (9, 2)
        assert pts.min() == 0.0 and pts.max() == 10.0

    def test_index_c_order(self):
        g = RectGrid(3, 4, 1.0, 1.0)
        assert g.index(0, 0) == 0
        assert g.index(1, 0) == 4
        assert g.index(2, 3) == 11
        with pytest.raises(IndexError):
            g.index(3, 0)

    def test_boundary_interior_masks_partition(self):
        g = RectGrid(5, 5, 1.0, 1.0)
        b, i = g.boundary_mask(), g.interior_mask()
        assert (b ^ i).all()
        assert b.sum() == 16 and i.sum() == 9

    def test_nearest_index(self):
        g = RectGrid(11, 11, 10.0, 10.0)
        assert g.nearest_index(np.array([0.0, 0.0])) == (0, 0)
        assert g.nearest_index(np.array([5.2, 4.8])) == (5, 5)
        assert g.nearest_index(np.array([99.0, -5.0])) == (10, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RectGrid(1, 5, 1.0, 1.0)
        with pytest.raises(ValueError):
            RectGrid(5, 5, 0.0, 1.0)
        # a NaN extent made dx NaN; an infinite one put every point in row 0
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                RectGrid(5, 5, bad, 1.0)
            with pytest.raises(ValueError, match="finite"):
                RectGrid(5, 5, 1.0, bad)


class TestIDW:
    def test_exact_at_samples(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        vals = np.array([1.0, 2.0, 3.0])
        out = idw_interpolate(pts, vals, pts)
        assert np.allclose(out, vals, atol=1e-6)

    def test_bounded_by_extremes(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        vals = np.array([0.0, 100.0])
        queries = np.random.default_rng(0).uniform(0, 10, size=(50, 2))
        out = idw_interpolate(pts, vals, queries)
        assert (out >= 0.0).all() and (out <= 100.0).all()

    def test_single_sample_constant(self):
        pts = np.array([[5.0, 5.0]])
        out = idw_interpolate(pts, np.array([7.0]), np.array([[0.0, 0.0], [9.0, 9.0]]))
        assert np.allclose(out, 7.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            idw_interpolate(np.zeros((0, 2)), np.zeros(0), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            idw_interpolate(np.zeros((2, 3)), np.zeros(2), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            idw_interpolate(np.zeros((2, 2)), np.zeros(3), np.zeros((1, 2)))

    def test_anchor_readings(self):
        g = RectGrid(6, 7, 10.0, 10.0)
        pts = np.array([[2.0, 2.0], [8.0, 8.0], [10.0, 5.0], [2.1, 1.9]])
        field, fixed = anchor_readings(g, pts, np.array([10.0, 30.0, 25.0, 12.0]))
        assert field.shape == fixed.shape == (6, 7)
        # the boundary plus one point per distinct nearest cell
        assert (fixed[g.boundary_mask()]).all()
        assert fixed[1, 1] and fixed[4, 5] and fixed[5, 3]
        assert int(fixed[g.interior_mask()].sum()) == 2
        # the later of two readings on one cell wins; a reading pins a
        # boundary point over its interpolated value
        assert field[1, 1] == 12.0 and field[4, 5] == 30.0 and field[5, 3] == 25.0
        edge = field[g.boundary_mask()]
        assert (edge >= 10.0 - 1e-9).all() and (edge <= 30.0 + 1e-9).all()
        assert (field[~fixed] == 0.0).all()


class TestHeatSolver:
    def test_constant_boundary_gives_constant_field(self):
        g = RectGrid(8, 8, 1.0, 1.0)
        field = HeatSolver(g).solve_steady(np.full(g.shape, 25.0))
        assert np.allclose(field, 25.0, atol=1e-8)

    def test_linear_profile_between_hot_and_cold_walls(self):
        """The Laplace solution with linear Dirichlet data is linear."""
        g = RectGrid(21, 5, 1.0, 1.0)
        xs = np.linspace(0.0, 100.0, g.nx)
        bvals = np.broadcast_to(xs[:, None], g.shape).copy()
        field = HeatSolver(g).solve_steady(bvals)
        assert np.allclose(field, bvals, atol=1e-6)

    def test_maximum_principle(self):
        """Without sources, interior extrema cannot exceed boundary extrema."""
        g = RectGrid(12, 12, 1.0, 1.0)
        rng = np.random.default_rng(0)
        bvals = np.zeros(g.shape)
        b = g.boundary_mask()
        bvals[b] = rng.uniform(10.0, 50.0, size=int(b.sum()))
        field = HeatSolver(g).solve_steady(bvals)
        assert field.min() >= 10.0 - 1e-8
        assert field.max() <= 50.0 + 1e-8

    def test_source_raises_interior_temperature(self):
        g = RectGrid(15, 15, 1.0, 1.0)
        solver = HeatSolver(g)
        cold = solver.solve_steady(np.zeros(g.shape))
        src = np.zeros(g.shape)
        src[7, 7] = 100.0
        hot = solver.solve_steady(np.zeros(g.shape), source=src)
        assert hot[7, 7] > cold[7, 7]
        assert hot.max() > 0.0

    def test_fixed_interior_point(self):
        """A sensor reading can be pinned anywhere, not just the boundary."""
        g = RectGrid(9, 9, 1.0, 1.0)
        fixed = g.boundary_mask()
        fixed[4, 4] = True
        bvals = np.zeros(g.shape)
        bvals[4, 4] = 500.0
        field = HeatSolver(g).solve_steady(bvals, fixed_mask=fixed)
        assert field[4, 4] == pytest.approx(500.0)
        assert field[4, 5] > 0.0  # heat spreads

    def test_transient_converges_to_steady(self):
        g = RectGrid(10, 10, 1.0, 1.0)
        solver = HeatSolver(g)
        bvals = np.zeros(g.shape)
        bvals[0, :] = 100.0
        fixed = g.boundary_mask()
        steady = solver.solve_steady(bvals, fixed_mask=fixed)
        t = bvals.copy()
        for _ in range(200):
            t = solver.step_transient(t, dt=0.05, fixed_mask=fixed, boundary_values=bvals)
        assert np.allclose(t, steady, atol=0.5)

    def test_transient_stable_large_dt(self):
        g = RectGrid(10, 10, 1.0, 1.0)
        solver = HeatSolver(g)
        t = np.zeros(g.shape)
        t[5, 5] = 1000.0
        t1 = solver.step_transient(t, dt=100.0)
        assert np.isfinite(t1).all()

    def test_validation(self):
        g = RectGrid(4, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            HeatSolver(g, conductivity=0.0)
        solver = HeatSolver(g)
        with pytest.raises(ValueError):
            solver.solve_steady(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            solver.solve_steady(np.zeros(g.shape), fixed_mask=np.zeros(g.shape, dtype=bool))
        with pytest.raises(ValueError):
            solver.step_transient(np.zeros(g.shape), dt=0.0)
        # non-finite inputs used to yield NaN fields instead of an error
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                HeatSolver(g, conductivity=bad)
            with pytest.raises(ValueError, match="finite"):
                solver.step_transient(np.zeros(g.shape), dt=bad)

    def test_ops_estimate_grows_superlinearly(self):
        small = RectGrid(10, 10, 1.0, 1.0)
        large = RectGrid(40, 40, 1.0, 1.0)
        ratio = HeatSolver(large).ops_estimate() / HeatSolver(small).ops_estimate()
        assert ratio > 16.0  # superlinear in point count (16x points)

    def test_solve_ops_estimate_validation(self):
        with pytest.raises(ValueError):
            solve_ops_estimate(-1)
        assert solve_ops_estimate(0) == 0.0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=50))
    def test_property_maximum_principle(self, n, seed):
        g = RectGrid(n, n, 1.0, 1.0)
        rng = np.random.default_rng(seed)
        bvals = np.zeros(g.shape)
        b = g.boundary_mask()
        vals = rng.uniform(-5.0, 5.0, size=int(b.sum()))
        bvals[b] = vals
        field = HeatSolver(g).solve_steady(bvals)
        assert field.min() >= vals.min() - 1e-8
        assert field.max() <= vals.max() + 1e-8


def assert_matches_oracle(field, reference):
    """Equal to rounding: 1e-10 relative to the reference field's scale."""
    scale = float(np.abs(reference).max())
    np.testing.assert_allclose(field, reference, rtol=1e-10, atol=1e-10 * scale)


#: grids from 2×2 up to 12×12, square or not, with unequal spacings
grids = st.builds(
    RectGrid,
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=12),
    st.floats(min_value=0.5, max_value=80.0),
    st.floats(min_value=0.5, max_value=80.0),
)


def reading_axis(n, step):
    """Reading coordinates along one axis: on grid nodes (so cells
    repeat), half-way between nodes, anywhere from two cells before the
    axis to two past it, and at either infinity."""
    cells = st.one_of(
        st.integers(min_value=-2, max_value=n + 1).map(float),
        st.integers(min_value=-2, max_value=n + 1).map(lambda k: k + 0.5),
        st.floats(min_value=-2.0, max_value=n + 1.0),
    )
    return cells.map(lambda u: u * step) | st.sampled_from((-math.inf, math.inf))


def anchored_mask(grid, rng, n_anchors):
    """The grid boundary plus ``n_anchors`` random interior points (every
    interior point once ``n_anchors`` reaches their count)."""
    fixed = grid.boundary_mask()
    interior = np.flatnonzero(~fixed.ravel())
    picked = rng.choice(interior, min(n_anchors, len(interior)), replace=False)
    fixed.ravel()[picked] = True
    return fixed


class TestMatchesPerMaskOracle:
    """The shared factor with anchors as a low-rank correction, and the
    boundary-only interpolation, agree with slicing and solving each
    mask's free block (:mod:`tests.pde.oracle`)."""

    @settings(max_examples=60, deadline=None)
    @given(
        grids,
        st.floats(min_value=0.05, max_value=20.0),
        st.integers(min_value=0, max_value=40),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(RectGrid(2, 7, 3.0, 11.0), 1.0, 5, True, 0)  # no interior at all
    @example(RectGrid(6, 5, 2.0, 9.0), 2.5, 40, True, 1)  # every interior point pinned
    def test_solve_steady(self, grid, conductivity, n_anchors, with_source, seed):
        rng = np.random.default_rng(seed)
        fixed = anchored_mask(grid, rng, n_anchors)
        bvals = rng.uniform(-20.0, 80.0, size=grid.shape)
        source = rng.normal(0.0, 50.0, size=grid.shape) if with_source else None
        solver = HeatSolver(grid, conductivity=conductivity)
        field = solver.solve_steady(bvals, source=source, fixed_mask=fixed)
        # a second mask on the same solver reuses its one factor
        again = anchored_mask(grid, rng, n_anchors // 2)
        field2 = solver.solve_steady(bvals, source=source, fixed_mask=again)
        assert_matches_oracle(field, oracle.solve_steady(solver, bvals, source, fixed))
        assert_matches_oracle(field2, oracle.solve_steady(solver, bvals, source, again))
        assert (field[fixed] == bvals[fixed]).all()

    @settings(max_examples=40, deadline=None)
    @given(grids, st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_solve_distribution(self, grid, n_readings, seed):
        rng = np.random.default_rng(seed)
        # readings inside the extent and a few past it (clamped to the edge)
        extent = np.array([grid.width, grid.height])
        positions = rng.uniform(-0.1, 1.1, size=(n_readings, 2)) * extent
        values = rng.uniform(-20.0, 80.0, size=n_readings)
        solver = HeatSolver(grid)
        ctx = types.SimpleNamespace(heat_solver=lambda: solver)
        assert_matches_oracle(
            solve_distribution(ctx, positions, values),
            oracle.solve_distribution(solver, positions, values),
        )

    @settings(max_examples=80, deadline=None)
    @given(grids, st.data())
    def test_anchor_readings_match_per_reading_loop(self, grid, data):
        """Bit-identical to pinning the readings one at a time, with
        repeated cells, half-way positions and positions off the grid."""
        readings = data.draw(st.lists(
            st.tuples(reading_axis(grid.nx, grid.dx), reading_axis(grid.ny, grid.dy),
                      st.floats(min_value=-50.0, max_value=150.0)),
            min_size=1, max_size=40))
        positions = np.array([(x, y) for x, y, _ in readings])
        values = np.array([v for _, _, v in readings])
        with np.errstate(all="ignore"):  # readings all at infinity: IDW gives NaN
            field, fixed = anchor_readings(grid, positions, values)
            ref_field, ref_fixed = oracle.anchor_readings(grid, positions, values)
        np.testing.assert_array_equal(fixed, ref_fixed)
        np.testing.assert_array_equal(field, ref_field)

    @pytest.mark.parametrize("position", [(math.nan, 1.0), (1.0, math.nan)])
    def test_anchor_readings_nan_position_rejected(self, position):
        grid = RectGrid(5, 5, 4.0, 4.0)
        positions = np.array([(1.0, 1.0), position])
        for anchor in (anchor_readings, oracle.anchor_readings):
            with pytest.raises(ValueError), np.errstate(all="ignore"):
                anchor(grid, positions, np.array([1.0, 2.0]))

    @settings(max_examples=30, deadline=None)
    @given(grids, st.integers(min_value=0, max_value=40),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_mask_missing_a_boundary_point_rejected(self, grid, n_anchors, seed):
        rng = np.random.default_rng(seed)
        fixed = anchored_mask(grid, rng, n_anchors)
        boundary = np.flatnonzero(grid.boundary_mask().ravel())
        fixed.ravel()[rng.choice(boundary)] = False
        with pytest.raises(ValueError, match="boundary"):
            HeatSolver(grid).solve_steady(np.zeros(grid.shape), fixed_mask=fixed)
