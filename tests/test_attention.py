"""Grouped channel weighting: pooling, per-group softmax, reweighting."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarjiou import apply_weights, global_pool_embed, group_softmax
from polarjiou.errors import GroupingError, ShapeError


def stack_from(rng, m=2, g=3, h=4, w=4):
    """A (c, H, W) feature map of m groups of g channels."""
    return rng.normal(size=(m * g, h, w))


class TestFeatureStack:
    """The multi-scale stack is one (c, H, W) map, groups in channel order."""

    def test_concat_roundtrip(self):
        """Weights of 1 in every group return the map unchanged."""
        rng = np.random.default_rng(0)
        concat = rng.normal(size=(8, 3, 5))
        assert np.array_equal(apply_weights(concat, np.ones((4, 2))), concat)

    def test_indivisible_channels_rejected(self):
        descriptor = global_pool_embed(np.zeros((7, 2, 2)), np.eye(7))
        with pytest.raises(GroupingError):
            group_softmax(descriptor, [np.zeros((2, 7))] * 4)

    def test_non_finite_rejected(self):
        features = np.full((2, 2, 2), np.nan)
        with pytest.raises(ShapeError):
            global_pool_embed(features, np.eye(2))
        with pytest.raises(ShapeError):
            apply_weights(features, np.ones((1, 2)))


class TestGlobalPoolEmbed:
    """Non-negative features with an identity embed read the pooled mean
    through the ReLU unchanged."""

    def test_constant_features_identity_embed(self):
        """Constant value v >= 0 and identity embed: all v."""
        out = global_pool_embed(np.full((4, 3, 3), 1.75), np.eye(4))
        assert np.allclose(out, 1.75, atol=1e-15)

    def test_single_pixel_pooling_is_identity(self):
        rng = np.random.default_rng(1)
        vals = np.abs(rng.normal(size=(6, 1, 1)))
        out = global_pool_embed(vals, np.eye(6))
        assert np.array_equal(out, vals.reshape(6))

    def test_brute_force_mean_oracle(self):
        """Pooled channels equal direct per-channel summation."""
        rng = np.random.default_rng(2)
        vals = np.abs(rng.normal(size=(2, 2, 2)))
        out = global_pool_embed(vals, np.eye(2))
        for ch in range(2):
            acc = sum(vals[ch, y, x] for y in range(2) for x in range(2))
            assert out[ch] == pytest.approx(acc / 4, abs=1e-15)

    def test_relu_rectifies(self):
        out = global_pool_embed(np.full((2, 2, 2), -3.0), np.eye(2))
        assert np.array_equal(out, [0.0, 0.0])

    def test_embed_applied(self):
        embed = np.array([[2.0, 0.0], [1.0, 1.0]])
        out = global_pool_embed(np.ones((2, 1, 1)), embed)
        assert np.allclose(out, [2.0, 2.0])

    @pytest.mark.parametrize("shape", [(2, 0, 3), (2, 3, 0)])
    def test_empty_spatial_map_rejected(self, shape):
        """An empty map has no mean: ShapeError, with no numpy warning first."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="empty spatial map"):
                global_pool_embed(np.zeros(shape), np.eye(2))

    def test_bad_embed_shape(self):
        with pytest.raises(ShapeError):
            global_pool_embed(np.ones((2, 2, 2)), np.eye(3))

    def test_unknown_activation(self):
        """The rectifier is always ReLU, the paper's form; no other can be
        asked for."""
        with pytest.raises(TypeError):
            global_pool_embed(np.ones((2, 2, 2)), np.eye(2), activation="tanh")

    @pytest.mark.parametrize("features", [np.ones((2, 2)), np.ones((1, 2, 2, 2))])
    def test_features_not_three_dimensional(self, features):
        with pytest.raises(ShapeError):
            global_pool_embed(features, np.eye(2))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_embed_rejected(self, bad):
        """An infinite embed entry would turn the softmax weights into NaN."""
        embed = np.eye(2)
        embed[0, 1] = bad
        with pytest.raises(ShapeError, match="non-finite embed"):
            global_pool_embed(np.ones((2, 2, 2)), embed)


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
        """Finite inputs whose logit overflows raise instead of returning NaN."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="non-finite group logit"):
                group_softmax([10.0, 1.0], [[[1e308, 0.0], [0.0, 1.0]]])


class TestApplyWeights:
    def test_uniform_weights_scale(self):
        rng = np.random.default_rng(3)
        stack = stack_from(rng, m=2, g=4)
        assert np.allclose(apply_weights(stack, np.full((2, 4), 0.25)), stack * 0.25,
                           atol=1e-15)

    def test_one_hot_keeps_single_channel(self):
        rng = np.random.default_rng(4)
        stack = stack_from(rng, m=2, g=3)
        hot = np.zeros((2, 3))
        hot[0, 1] = 1.0
        hot[1, 2] = 1.0
        out = apply_weights(stack, hot)
        assert np.array_equal(out[1], stack[1])
        assert np.array_equal(out[5], stack[5])
        for dead in (0, 2, 3, 4):
            assert np.all(out[dead] == 0.0)

    def test_elementwise_multiply_oracle(self):
        rng = np.random.default_rng(5)
        stack = stack_from(rng, m=2, g=2, h=3, w=3)
        wts = rng.uniform(0.1, 0.9, size=(2, 2))
        out = apply_weights(stack, wts)
        for i in range(2):
            for j in range(2):
                assert np.allclose(out[i * 2 + j], stack[i * 2 + j] * wts[i, j], atol=1e-15)

    def test_linear_in_features(self):
        rng = np.random.default_rng(6)
        a = stack_from(rng)
        b = stack_from(rng)
        wts = rng.uniform(0.1, 0.9, size=(2, 3))
        assert np.allclose(
            apply_weights(2.0 * a + b, wts),
            2.0 * apply_weights(a, wts) + apply_weights(b, wts),
            atol=1e-12,
        )

    def test_channel_permutation_equivariance(self):
        """Permuting channels inside a group permutes logits, weights, and
        the weighted output consistently."""
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(3, 2, 2))
        perm = [2, 0, 1]
        base_map = rng.normal(size=(3, 3))
        w = rng.normal(size=3)
        weights = group_softmax(w, [base_map])
        out = apply_weights(vals, weights)
        weights_p = group_softmax(w, [base_map[perm]])
        out_p = apply_weights(vals[perm], weights_p)
        assert np.allclose(weights_p[0], weights[0][perm], atol=1e-12)
        assert np.allclose(out_p, out[perm], atol=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ShapeError, match="non-finite weight"):
            apply_weights(np.ones((2, 1, 1)), [[1.0, bad]])

    def test_shape_mismatch(self):
        rng = np.random.default_rng(8)
        stack = stack_from(rng, m=2, g=3)
        with pytest.raises(ShapeError):
            apply_weights(stack, np.ones((2, 4)))
        with pytest.raises(ShapeError):
            apply_weights(stack, np.ones(6))
