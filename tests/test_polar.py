"""Polar evaluation of inscribed ellipses and their discrete radial profiles.

A box's discrete radial profile is radius_at(box, grid_angles(n)).
Half-extents outside [MIN_EXTENT, MAX_EXTENT] are rejected.
"""

import itertools
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    boxes, finite_floats, kept_counts, longdouble_grid_trig, random_box, reference_profile)
from polarjiou import OrientedBox, grid_angles, jiou_bar, radius_at
from polarjiou.errors import DiscretizationError, InvalidBoxError
from polarjiou.fitting import DEFAULT_N_VALUES
from polarjiou.polar import (
    MAX_EXTENT, MIN_EXTENT, PROFILE_SLOTS, TABLE_SLOTS, _grid, _kept_profile, _profile_terms,
    _table)

# Grid sizes for the table: 8 divides n or not, odd n, and one past the
# reductions' blocking.
TABLE_SIZES = [4, 5, 16, 720, 1001, 8192]

EPS = np.finfo(np.float64).eps
MAX_FLOAT = sys.float_info.max


class TestRadiusAt:
    def test_circle_constant(self):
        box = OrientedBox(0, 0, 3, 3, 0.7)
        for theta in (0.0, 1.0, -2.5, 6.0):
            assert radius_at(box, theta) == pytest.approx(3.0, abs=1e-12)

    def test_circle_profile_needs_no_trig(self, monkeypatch):
        """A circle's profile is r1 exactly, with no cos or sin evaluated;
        the gradient's terms still come with their trig, the grid's table
        turned by phi."""
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
        _, c, s, _ = reference_profile(box, thetas)
        assert np.array_equal(want[1], c) and np.array_equal(want[2], s)

    def test_profile_terms_match_frozen_reference(self):
        """rho, cos, sin, both squared terms and their sum, computed in
        place, keep the bits of the inline numpy formula, for ellipses and a
        circle: a cos/sin table turned by phi, the grid's on the grid and
        np.cos and np.sin of theta elsewhere."""
        rng = np.random.default_rng(11)
        boxes_ = [random_box(rng) for _ in range(100)] + [OrientedBox(0, 0, 3, 3, 0.7)]
        for n in (64, 720):
            for thetas, box in itertools.product(
                    (grid_angles(n), np.linspace(-7.0, 7.0, n)), boxes_):
                rho, c, s, rc2, rs2, denom = _profile_terms(box, thetas)
                ref_rho, ref_c, ref_s, ref_denom = reference_profile(box, thetas)
                pairs = ((rho, ref_rho), (c, ref_c), (s, ref_s), (denom, ref_denom),
                         (rc2, (box.r2 * ref_c) ** 2), (rs2, (box.r1 * ref_s) ** 2))
                for got, want in pairs:
                    assert got.tobytes() == want.tobytes(), box

    @pytest.mark.parametrize("box", [OrientedBox(0, 0, 3, 1, 0.4), OrientedBox(0, 0, 3, 3, 0.7)])
    def test_non_finite_theta_rejected(self, box):
        """A NaN or infinite angle, alone or inside an array, is rejected,
        for a circle too, with no numpy warning."""
        for theta in (math.inf, -math.inf, math.nan, np.array([0.0, np.nan]), [1.0, math.inf]):
            with pytest.raises(ValueError, match="theta must be finite"):
                radius_at(box, theta)

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

    @given(st.builds(OrientedBox, finite_floats(-1e3, 1e3), finite_floats(-1e3, 1e3),
                     finite_floats(MIN_EXTENT, MAX_EXTENT), finite_floats(MIN_EXTENT, MAX_EXTENT),
                     finite_floats(-MAX_FLOAT, MAX_FLOAT)),
           st.lists(finite_floats(-MAX_FLOAT, MAX_FLOAT), min_size=1, max_size=8))
    @example(OrientedBox(0, 0, 2, 1, -1e308), [1e308])
    @example(OrientedBox(0, 0, 2, 1, -MAX_FLOAT), [MAX_FLOAT, -MAX_FLOAT, 0.0])
    @example(OrientedBox(0, 0, 1e100, 1e-100, MAX_FLOAT), [-MAX_FLOAT, 1.0, math.pi])
    @settings(max_examples=300)
    def test_any_finite_angles_give_radii_inside_the_extents(self, box, thetas):
        """At any finite angles off the grid, however far theta - phi lies
        past the float range, the radius is finite and between the two
        semi-axes to 2 eps relative, with no numpy warning."""
        lo, hi = min(box.r1, box.r2), max(box.r1, box.r2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = radius_at(box, thetas)
            first = radius_at(box, thetas[0])
        assert first == rho[0]
        assert np.all(rho >= lo * (1 - 2 * EPS)) and np.all(rho <= hi * (1 + 2 * EPS)), rho

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

    def test_grid_is_shared_and_read_only(self):
        """One n gives one array, again and again; it cannot be written,
        and asking for another n in between builds the same values anew."""
        grid = grid_angles(720)
        assert grid_angles(720) is grid
        assert np.array_equal(grid, np.arange(720) * (2.0 * math.pi / 720))
        with pytest.raises(ValueError):
            grid[0] = 1.0
        with pytest.raises(ValueError):
            grid += 1.0
        assert grid[0] == 0.0
        grid_angles(64)
        assert grid_angles(720).tobytes() == grid.tobytes()

    @given(boxes(), st.sampled_from([4, 64, 720]))
    def test_profile_bits_on_writable_copy(self, box, n):
        """A writable copy of the grid gives the same profile, bit for bit,
        and the profile is a new array the caller may write into."""
        grid = grid_angles(n)
        copy = grid.copy()
        assert copy.flags.writeable
        rho = radius_at(box, grid)
        assert radius_at(box, copy).tobytes() == rho.tobytes()
        rho[0] = -1.0
        assert grid_angles(n)[0] == 0.0

    @pytest.mark.parametrize("n", [16.5, 720.5, math.nan, math.inf, -math.inf])
    def test_n_that_is_not_a_whole_number_rejected(self, n):
        """16.5 would build 17 angles that stop short of 2 pi."""
        with pytest.raises(DiscretizationError, match="whole number"):
            grid_angles(n)

    def test_whole_float_n_keeps_the_bits(self):
        """720.0 builds the grid when the cache is empty, with the bits of 720."""
        grid = grid_angles(720)
        _grid.cache_clear()
        assert grid_angles(720.0).tobytes() == grid.tobytes()
        a, b = OrientedBox(0, 0, 3, 1, 0), OrientedBox(0, 0, 3, 1, 0.4)
        assert jiou_bar(a, b, n=720.0) == jiou_bar(a, b, n=720)

    def test_whole_float_n_shares_the_int_grid(self):
        """720.0 and numpy's int64 720 key the cache as 720 does, so calls
        that alternate between them return one array and build it once."""
        grid = grid_angles(720)
        for n in (720.0, np.int64(720), 720, 720.0):
            assert grid_angles(n) is grid

    @pytest.mark.parametrize("n", [10**15, 2**60, 2**63, 10**20])
    def test_unallocatable_grid_rejected(self, n):
        """numpy fails these at once, without touching memory: MemoryError at
        1e15 (7.1 PiB), ValueError past intp's byte range, and an empty
        array from 2**63 on."""
        with pytest.raises(DiscretizationError, match=f"n={n} "):
            grid_angles(n)

    @pytest.mark.parametrize("n, text", [(1e300, "1e+300"), (10**400, "1e+400")])
    def test_huge_grid_text_is_short(self, n, text):
        with pytest.raises(DiscretizationError) as info:
            grid_angles(n)
        assert str(info.value) == f"cannot allocate a grid of n={text} angles"


def fresh_grid(n):
    """grid_angles(n) built anew, with no profile kept yet."""
    _grid.cache_clear()
    _kept_profile.cache_clear()
    return grid_angles(n)


class TestKeptProfiles:
    """The last PROFILE_SLOTS profiles built on the shared grid are kept."""

    def test_radius_at_result_is_the_callers(self):
        """Writing into one radius_at result leaves the next one, served from
        the kept profile, untouched."""
        box, grid = OrientedBox(0, 0, 3, 1, 0.4), grid_angles(720)
        first = radius_at(box, grid)
        want = first.copy()
        first[:] = -1.0
        second = radius_at(box, grid)
        assert second.flags.writeable and second is not first
        assert second.tobytes() == want.tobytes()

    def test_kept_arrays_read_only_and_a_copy_gets_new_ones(self):
        box = OrientedBox(0, 0, 3, 1, 0.4)
        grid = grid_angles(720)
        kept = _profile_terms(box, grid)
        assert _profile_terms(box, grid) is kept
        for array in kept:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        copy = np.array(grid)
        hits, misses = kept_counts()
        for _ in range(2):
            new = _profile_terms(box, copy)
            for got, want in zip(new, kept):
                assert got.flags.writeable and got.tobytes() == want.tobytes()
        # A copy of the grid, equal or not, is never looked up or kept.
        assert kept_counts() == (hits, misses)

    def test_one_build_per_box_and_least_recent_dropped(self):
        grid = fresh_grid(720)
        boxes_ = [OrientedBox(0, 0, 3, 1, 0.1 * k) for k in range(PROFILE_SLOTS + 1)]
        hits, misses = kept_counts()
        for box in boxes_[:PROFILE_SLOTS]:
            _profile_terms(box, grid)
        # Centers do not enter a profile, so a shifted box is a hit.
        shifted = OrientedBox(50, -7, 3, 1, 0.0)
        assert _profile_terms(shifted, grid) is _profile_terms(boxes_[0], grid)
        assert kept_counts() == (hits + 2, misses + PROFILE_SLOTS)
        # boxes_[0] was used last, so the new box drops boxes_[1].
        _profile_terms(boxes_[-1], grid)
        _profile_terms(boxes_[0], grid)
        assert kept_counts() == (hits + 3, misses + PROFILE_SLOTS + 1)
        _profile_terms(boxes_[1], grid)
        assert kept_counts() == (hits + 3, misses + PROFILE_SLOTS + 2)
        assert _kept_profile.cache_info().currsize == PROFILE_SLOTS

    def test_profiles_are_kept_across_switches_of_n(self):
        """An old grid object of the same n is never looked up; across
        switches of n no more than PROFILE_SLOTS profiles are kept, and one
        served after switching back equals a fresh build, bit for bit."""
        box = OrientedBox(0, 0, 3, 1, 0.4)
        grid = fresh_grid(720)
        kept = _profile_terms(box, grid)
        grid_angles(64)
        assert grid_angles(720) is not grid
        hits, misses = kept_counts()
        old = _profile_terms(box, grid)
        assert old is not kept and old[0].flags.writeable
        assert kept_counts() == (hits, misses)
        # Each switch back to 720 is served from the profile kept for 720.
        for n in (64, 720, 16, 720):
            _profile_terms(box, grid_angles(n))
        assert kept_counts() == (hits + 2, misses + 2)
        served = _profile_terms(box, grid_angles(720))
        for got, want in zip(served, _profile_terms(box, np.array(grid_angles(720)))):
            assert got.tobytes() == want.tobytes()
        for n in (16, 64, 720, 64, 16):
            for k in range(3):
                _profile_terms(OrientedBox(0, 0, 3 + k, 1, 0.4), grid_angles(n))
                assert _kept_profile.cache_info().currsize <= PROFILE_SLOTS

    def test_circle_radius_keeps_nothing_and_its_terms_keep_trig(self):
        circle = OrientedBox(0, 0, 3, 3, 0.7)
        grid = fresh_grid(64)
        rho = radius_at(circle, grid)
        assert radius_at(circle, 0.5) == 3.0
        assert _kept_profile.cache_info() == (0, 0, PROFILE_SLOTS, 0)
        terms = _profile_terms(circle, grid)
        assert _profile_terms(circle, grid) is terms
        assert _kept_profile.cache_info() == (1, 1, PROFILE_SLOTS, 1)
        assert np.array_equal(terms[1], reference_profile(circle, grid)[1])
        assert np.array_equal(terms[0], rho)

    def test_threads_switching_grids_get_their_own_grid_profiles(self):
        """Four threads cycle through more grid sizes than there are
        TABLE_SLOTS and more boxes than there are PROFILE_SLOTS, so profiles
        and tables are built anew on grids that the other threads replace;
        every profile each one gets is the one built on the grid it passed,
        bit for bit.

        Threads take turns often only while the host runs them side by
        side, so each goes on past 150 rounds, up to 3000, until the
        profiles have changed hands 2000 times."""
        boxes_ = [OrientedBox(0, 0, 5, 2, 0.3 * k) for k in range(PROFILE_SLOTS + 1)]
        sizes = [16 + 8 * k for k in range(TABLE_SLOTS)] + [720]
        want = {(box, n): _profile_terms(box, np.array(grid_angles(n)))
                for box in boxes_ for n in sizes}
        failures, finished = [], []
        turns = {"count": 0, "last": None}
        start = threading.Barrier(4)

        def work(ns):
            start.wait(timeout=60)
            for i in range(3000):
                if i >= 150 and turns["count"] >= 2000:
                    break
                for n in ns:
                    if turns["last"] is not ns:
                        turns["count"] += 1
                        turns["last"] = ns
                    box = boxes_[i % len(boxes_)]
                    got = _profile_terms(box, grid_angles(n))
                    if any(g.tobytes() != w.tobytes() for g, w in zip(got, want[box, n])):
                        failures.append((box, n))
            finished.append(ns)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # Four distinct lists, so each thread can tell its own turn.
            threads = [threading.Thread(target=work, args=(list(ns),))
                       for ns in (sizes, sizes[::-1]) * 2]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(finished) == len(threads) and not failures


class TestTable:
    """The cos/sin table of the grid angles 2 pi i / n that profiles on the
    grid turn by phi."""

    @pytest.mark.parametrize("n", TABLE_SIZES)
    def test_exact_symmetries(self, n):
        """Exactly 1 and 0 at angle 0, and the circle's symmetries hold bit
        for bit: a reflection about the x axis, a half turn and a quarter
        turn where n allows them, and a reflection about the diagonal when 8
        divides n."""
        cos, sin = _table(n)
        i = np.arange(n)
        assert (cos[0], sin[0]) == (1.0, 0.0)
        assert np.array_equal(cos[-i], cos) and np.array_equal(sin[-i], -sin + 0.0)
        if n % 2 == 0:
            assert np.array_equal(cos[i - n // 2], -cos) and np.array_equal(sin[i - n // 2], -sin)
        if n % 4 == 0:
            assert np.array_equal(cos[i - n // 4], sin) and np.array_equal(sin[i - n // 4], -cos)
            quarter_turns = i[:: n // 4]
            assert cos[quarter_turns].tolist() == [1.0, 0.0, -1.0, 0.0]
            assert sin[quarter_turns].tolist() == [0.0, 1.0, 0.0, -1.0]
        if n % 8 == 0:
            assert np.array_equal(cos[n // 4 - i], sin[i])
        # No -0.0: a zero entry has a positive sign.
        for array in (cos, sin):
            assert not np.any(np.signbit(array[array == 0.0]))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="np.longdouble is no wider than float64 here")
    @pytest.mark.parametrize("n", TABLE_SIZES)
    def test_within_one_ulp_of_longdouble(self, n):
        """Each entry lies within one ulp of the np.longdouble value.  A
        table of np.cos and np.sin of the float grid is off by about 200 ulp
        next to the quarter turns at n = 720 and 5000 at n = 8192, where the
        grid angle's rounding is large against the small cos or sin."""
        for got, ref in zip(_table(n), longdouble_grid_trig(n)):
            ulp = np.spacing(np.abs(ref.astype(np.float64))).astype(np.longdouble)
            assert np.all(np.abs(got - ref) <= ulp), n

    def test_read_only(self):
        for array in _table(720):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_equal_copy_at_an_n_not_kept(self):
        """An equal copy of the grid of an n that no grid is kept for gets the
        grid's profile bit for bit, and looks up, builds and drops no grid."""
        box = OrientedBox(0, 0, 5, 2, 0.3)
        grid = grid_angles(720)
        copy = np.arange(1001) * (2.0 * math.pi / 1001)
        info = _grid.cache_info()
        from_copy = _profile_terms(box, copy)
        assert _grid.cache_info() == info and grid_angles(720) is grid
        for got, want in zip(from_copy, _profile_terms(box, grid_angles(1001))):
            assert got.tobytes() == want.tobytes()

    def test_other_angles_take_array_trig(self):
        """A grid shifted by one ulp at one angle is not the grid: its table
        is np.cos and np.sin of theta, turned by phi."""
        box = OrientedBox(0, 0, 5, 2, 0.3)
        theta = np.array(grid_angles(64))
        theta[5] = np.nextafter(theta[5], 10.0)
        c = np.cos(theta) * math.cos(0.3) + np.sin(theta) * math.sin(0.3)
        assert np.array_equal(_profile_terms(box, theta)[1], c)

    def test_tables_of_the_default_sizes_are_kept(self):
        """A sweep cell's grid sizes, asked for in turn again and again,
        build each size's table once."""
        assert len(DEFAULT_N_VALUES) <= TABLE_SLOTS
        _table.cache_clear()
        _kept_profile.cache_clear()
        for k in range(3):
            for n in DEFAULT_N_VALUES:
                radius_at(OrientedBox(0, 0, 5, 2, 0.3 + k), grid_angles(n))
        info = _table.cache_info()
        assert (info.hits, info.misses) == (2 * len(DEFAULT_N_VALUES), len(DEFAULT_N_VALUES))


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

