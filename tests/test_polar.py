"""Polar evaluation of inscribed ellipses and their discrete radial profiles.

A box's discrete radial profile is radius_at(box, grid_angles(n)).
Half-extents outside [MIN_EXTENT, MAX_EXTENT] are rejected.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import boxes, finite_floats
from polarjiou import OrientedBox, grid_angles, radius_at
from polarjiou.errors import DiscretizationError, InvalidBoxError
from polarjiou.polar import MAX_EXTENT, MIN_EXTENT, _profile_terms


class TestRadiusAt:
    def test_circle_constant(self):
        box = OrientedBox(0, 0, 3, 3, 0.7)
        for theta in (0.0, 1.0, -2.5, 6.0):
            assert radius_at(box, theta) == pytest.approx(3.0, abs=1e-12)

    def test_circle_profile_needs_no_trig(self, monkeypatch):
        """A circle's profile is r1 exactly, with no cos or sin evaluated;
        the gradient's terms still come with their trig."""
        box = OrientedBox(0, 0, 3, 3, 0.7)
        thetas = grid_angles(64)
        want = _profile_terms(box, thetas)

        def fail(*args, **kwargs):
            raise AssertionError("trig evaluated for a circle")

        monkeypatch.setattr(np, "cos", fail)
        monkeypatch.setattr(np, "sin", fail)
        rho = radius_at(box, thetas)
        assert rho.dtype == np.float64 and np.array_equal(rho, np.full(64, 3.0))
        assert radius_at(box, 1.0) == 3.0
        monkeypatch.undo()
        assert np.array_equal(want[0], rho)
        assert np.array_equal(want[1], np.cos(thetas - 0.7))
        assert np.array_equal(want[2], np.sin(thetas - 0.7))

    def test_axis_endpoints(self):
        box = OrientedBox(0, 0, 2, 1, 0)
        assert radius_at(box, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert radius_at(box, math.pi / 2) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_satisfies_implicit_equation(self):
        """rho(pi/4) = sqrt(1.6); the emitted point lies on x^2/4 + y^2 = 1."""
        box = OrientedBox(0, 0, 2, 1, 0)
        rho = radius_at(box, math.pi / 4)
        assert rho == pytest.approx(math.sqrt(1.6), abs=1e-12)
        x, y = rho * math.cos(math.pi / 4), rho * math.sin(math.pi / 4)
        assert abs(x * x / 4 + y * y - 1.0) <= 1e-12

    def test_vectorized_matches_scalar(self):
        box = OrientedBox(1, 2, 5, 2, 0.3)
        thetas = np.linspace(0, 2 * math.pi, 17)
        vec = radius_at(box, thetas)
        assert vec.shape == (17,)
        for t, r in zip(thetas, vec):
            assert radius_at(box, float(t)) == r

    @given(boxes(), finite_floats(-10.0, 10.0))
    def test_rotation_covariance(self, box, theta):
        """radius_at(box with phi, theta) = radius_at(same box at phi=0, theta-phi)."""
        zero = OrientedBox(box.cx, box.cy, box.r1, box.r2, 0.0)
        assert radius_at(box, theta) == pytest.approx(
            radius_at(zero, theta - box.phi), rel=1e-12)

    @given(boxes(), finite_floats(-10.0, 10.0))
    def test_pi_periodicity(self, box, theta):
        assert radius_at(box, theta) == pytest.approx(
            radius_at(box, theta + math.pi), rel=1e-12)

    @given(boxes(), finite_floats(-10.0, 10.0))
    @settings(max_examples=200)
    def test_bounds(self, box, theta):
        """The radius stays between the two semi-axes, whichever order they
        were given in."""
        rho = radius_at(box, theta)
        lo, hi = min(box.r1, box.r2), max(box.r1, box.r2)
        assert lo * (1 - 1e-12) <= rho <= hi * (1 + 1e-12)

    @pytest.mark.parametrize("r1, r2", [
        (2 * MAX_EXTENT, 1.0), (1.0, MIN_EXTENT / 2), (1e101, 1e101), (1e-120, 1e-120)])
    def test_extents_out_of_range_rejected(self, r1, r2):
        box = OrientedBox(0, 0, r1, r2, 0.3)
        for theta in (0.5, grid_angles(64)):
            with pytest.raises(InvalidBoxError, match="half-extents must lie in"):
                radius_at(box, theta)

    def test_extent_range_edges_accepted(self):
        box = OrientedBox(0, 0, MAX_EXTENT, MIN_EXTENT, 0.3)
        assert np.all(np.isfinite(radius_at(box, grid_angles(64))))
        assert radius_at(OrientedBox(0, 0, MIN_EXTENT, MIN_EXTENT, 0.3), 0.5) == MIN_EXTENT

    def test_bounds_tight_only_on_axes(self):
        box = OrientedBox(0, 0, 2, 1, 0.5)
        assert radius_at(box, 0.5) == pytest.approx(2.0, abs=1e-12)
        assert radius_at(box, 0.5 + math.pi / 2) == pytest.approx(1.0, abs=1e-12)
        assert 1.0 < radius_at(box, 0.5 + 0.7) < 2.0

    @given(boxes(), finite_floats(0.0, 6.3), finite_floats(0.1, 8.0))
    def test_scale_equivariance(self, box, theta, s):
        scaled = OrientedBox(box.cx, box.cy, box.r1 * s, box.r2 * s, box.phi)
        assert radius_at(scaled, theta) == pytest.approx(
            s * radius_at(box, theta), rel=1e-12)

    def test_implicit_equation_residual_bulk(self):
        """10^4 random (box, theta) points all satisfy the rotated-ellipse
        equation with residual <= 1e-10."""
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(10_000):
            r2 = rng.uniform(0.5, 20.0)
            box = OrientedBox(0, 0, r2 * rng.uniform(1.0, 6.0), r2,
                              rng.uniform(-math.pi / 2, math.pi / 2))
            theta = rng.uniform(-10, 10)
            rho = radius_at(box, theta)
            x, y = rho * math.cos(theta), rho * math.sin(theta)
            c, s = math.cos(box.phi), math.sin(box.phi)
            u, v = c * x + s * y, -s * x + c * y
            worst = max(worst, abs((u / box.r1) ** 2 + (v / box.r2) ** 2 - 1.0))
        assert worst <= 1e-10


class TestGridAngles:
    def test_grid_definition(self):
        assert np.allclose(grid_angles(4), [0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_excludes_two_pi(self):
        # the grid is [0, 2*pi) exclusive; n points, not n+1
        angles = grid_angles(720)
        assert angles.shape == (720,)
        assert angles[-1] < 2 * math.pi

    @given(st.integers(min_value=-3, max_value=3))
    def test_too_few_angles_rejected(self, n):
        with pytest.raises(DiscretizationError):
            grid_angles(n)

    @pytest.mark.parametrize("n", [10**15, 2**60, 2**63, 10**20])
    def test_unallocatable_grid_rejected(self, n):
        """numpy fails these at once, without touching memory: MemoryError at
        1e15 (7.1 PiB), ValueError past intp's byte range, and an empty
        array from 2**63 on."""
        with pytest.raises(DiscretizationError, match=f"n={n} "):
            grid_angles(n)


class TestDiscretize:
    """The discrete radial profile radius_at(box, grid_angles(n))."""

    def test_circle_profile_constant(self):
        rho = radius_at(OrientedBox(0, 0, 3, 3, 0), grid_angles(8))
        assert np.allclose(rho, 3.0, atol=1e-12)

    def test_axis_grid_profile(self):
        """n=4 on an axis-aligned 2x1 box samples [2, 1, 2, 1]."""
        rho = radius_at(OrientedBox(0, 0, 2, 1, 0), grid_angles(4))
        assert np.allclose(rho, [2, 1, 2, 1], atol=1e-12)

    def test_grid_shift_oracle(self):
        """phi = pi/6 is exactly 60 slots of the n=720 grid, so the rotated
        profile is the unrotated profile rolled by 60."""
        thetas = grid_angles(720)
        flat = radius_at(OrientedBox(0, 0, 2, 1, 0), thetas)
        tilted = radius_at(OrientedBox(0, 0, 2, 1, math.pi / 6), thetas)
        assert np.allclose(tilted, np.roll(flat, 60), atol=1e-12)

    @given(boxes(), st.sampled_from([4, 8, 60, 720]))
    def test_even_profile_pi_symmetric(self, box, n):
        """rho_i = rho_{(i + n/2) mod n} for even n."""
        rho = radius_at(box, grid_angles(n))
        assert np.allclose(rho, np.roll(rho, n // 2), rtol=1e-12, atol=0)

    @given(boxes(), st.sampled_from([4, 16, 720]))
    def test_profile_within_extents(self, box, n):
        rho = radius_at(box, grid_angles(n))
        assert np.all(rho >= min(box.r1, box.r2) - 1e-9)
        assert np.all(rho <= max(box.r1, box.r2) + 1e-9)

