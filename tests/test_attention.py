"""The per-group channel softmax."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarjiou import group_softmax
from polarjiou.errors import GroupingError, ShapeError


class TestGroupSoftmax:
    def test_equal_logits_uniform(self):
        w = np.zeros(6)
        maps = [np.zeros((3, 6)) for _ in range(2)]
        weights = group_softmax(w, maps)
        assert weights.shape == (2, 3)
        assert np.allclose(weights, 1.0 / 3.0, atol=1e-15)

    def test_saturated_logit(self):
        """A logit 20 above its group takes essentially all the mass."""
        mp = np.array([[20.0], [0.0], [0.0]])
        weights = group_softmax(np.ones(3), [np.hstack([mp, np.zeros((3, 2))])])
        assert weights[0, 0] >= 1 - 1e-8

    def test_hand_softmax(self):
        """Group logits (1, 2) weigh as (1/(1+e), e/(1+e))."""
        w = np.array([1.0, 2.0])
        weights = group_softmax(w, [np.eye(2)])
        e = np.e
        assert weights[0, 0] == pytest.approx(1 / (1 + e), abs=1e-12)
        assert weights[0, 1] == pytest.approx(e / (1 + e), abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([(1, 4), (2, 3), (4, 2)]))
    @settings(max_examples=50)
    def test_rows_are_distributions(self, seed, shape):
        """Each group's weights land in [0, 1] and sum to 1.

        Saturated logits legitimately underflow to exactly 0 and 1, so the
        bounds are closed.
        """
        m, g = shape
        rng = np.random.default_rng(seed)
        w = rng.normal(scale=5.0, size=m * g)
        maps = [rng.normal(size=(g, m * g)) for _ in range(m)]
        weights = group_softmax(w, maps)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(weights >= 0.0) and np.all(weights <= 1.0)

    def test_indivisible_descriptor_rejected(self):
        with pytest.raises(GroupingError):
            group_softmax(np.zeros(5), [np.zeros((2, 5)), np.zeros((2, 5))])

    def test_empty_descriptor_rejected(self):
        """A zero-channel descriptor has no softmax: ShapeError, not numpy's
        error from reducing an empty array."""
        with pytest.raises(ShapeError, match="descriptor is empty"):
            group_softmax(np.zeros(0), [np.zeros((0, 0))])

    def test_channel_permutation_equivariance(self):
        """Permuting a group map's rows permutes that group's logits and
        weights the same way."""
        rng = np.random.default_rng(7)
        perm = [2, 0, 1]
        base_map = rng.normal(size=(3, 3))
        w = rng.normal(size=3)
        weights = group_softmax(w, [base_map])
        weights_p = group_softmax(w, [base_map[perm]])
        assert np.allclose(weights_p[0], weights[0][perm], atol=1e-12)

    def test_bad_map_shape(self):
        with pytest.raises(ShapeError):
            group_softmax(np.zeros(4), [np.zeros((3, 4)), np.zeros((2, 4))])

    def test_descriptor_must_be_a_vector(self):
        with pytest.raises(ShapeError, match="descriptor must be a vector"):
            group_softmax(np.zeros((2, 2)), [np.eye(2)])

    def test_no_group_map_rejected(self):
        with pytest.raises(GroupingError, match="need at least one group map"):
            group_softmax(np.zeros(4), [])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_descriptor_rejected(self, bad):
        """A NaN descriptor would give all-NaN weights with no warning."""
        with pytest.raises(ShapeError, match="non-finite descriptor"):
            group_softmax(np.array([1.0, bad]), [np.eye(2)])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_map_rejected(self, bad):
        group_map = np.eye(2)
        group_map[0, 0] = bad
        with pytest.raises(ShapeError, match="non-finite group map"):
            group_softmax(np.ones(2), [group_map])

    def test_logit_spread_past_float_range_is_exact(self):
        """Finite logits 1e308 and -1e308 weigh as (1, 0), with no
        floating-point warning from shifting by the max."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = group_softmax([1.0, 1.0], [[[1e308, 0.0], [-1e308, 0.0]]])
        assert np.array_equal(weights, [[1.0, 0.0]])

    def test_overflowing_logit_rejected(self):
        """Finite inputs whose logit overflows raise instead of returning NaN,
        with no warning: np.errstate covers the matmul that forms the logits."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="non-finite group logit"):
                group_softmax([10.0, 1.0], [[[1e308, 0.0], [0.0, 1.0]]])


class TestFeatureStack:
    """The multi-scale stack is one (c, H, W) map, groups in channel order."""

    def test_indivisible_channels_rejected(self):
        """A 7-channel descriptor (a pooled (7, 2, 2) zero map) does not
        split into 4 groups."""
        with pytest.raises(GroupingError):
            group_softmax(np.zeros(7), [np.zeros((2, 7))] * 4)
