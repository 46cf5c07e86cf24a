import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conet import models
from conet.errors import ConfigError, NumericError
from conet.numerics import sigmoid
from conet.models import (
    ARCHITECTURES,
    CSN_ALPHA_INIT,
    DomainSizes,
    Model,
    ModelConfig,
    RowGradient,
    build_model,
    lasso_penalty,
)
from conftest import TINY_SIZES as TINY
from conftest import (cross_unit, dense_scatter, embed_lookup, factored_forward,
                      freeze_cross_at_zero, gradient_check, model_with)
from conftest import tiny_model_config as tiny_config
from conftest import tiny_scaled_model as scaled_model


def probs_of(model, user, item_target, item_source=-1):
    """Per-tower probabilities of one example, target first."""
    trace = model.forward_batch([user], [item_target], [item_source])
    return tuple(float(p[0]) for p in trace.probs)


class TestModelConfig:
    def test_csn_tower_widths_refused(self):
        with pytest.raises(ConfigError):
            ModelConfig(architecture="csn", embedding_dim=32, hidden_widths=(64, 32, 16, 8))

    def test_csn_uniform_widths_accepted(self):
        ModelConfig(architecture="csn", embedding_dim=32,
                    hidden_widths=(64, 64, 64, 64))

    def test_embedding_must_match_first_width(self):
        with pytest.raises(ConfigError):
            ModelConfig(architecture="mlp", embedding_dim=8,
                        hidden_widths=(64, 32))

    def test_unknown_architecture(self):
        with pytest.raises(ConfigError):
            ModelConfig(architecture="gcn")

    def test_negative_lambda(self):
        with pytest.raises(ConfigError):
            ModelConfig(architecture="conet", lasso_lambda=-0.5)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda(self, lam):
        with pytest.raises(ConfigError, match="finite"):
            ModelConfig(architecture="conet", lasso_lambda=lam)

    @pytest.mark.parametrize("change", [{"architecture": "gcn"}, {"embedding_dim": 0},
                                        {"hidden_widths": ()}, {"hidden_widths": (64, 0)},
                                        {"lasso_lambda": -1.0},
                                        {"share_user_embedding": False}])
    def test_bad_value_rejected_when_built_and_through_replace(self, change):
        with pytest.raises(ConfigError):
            ModelConfig(**change)
        with pytest.raises(ConfigError):
            dataclasses.replace(ModelConfig(), **change)

    def test_default_transfer_matrix_count(self):
        assert ModelConfig(architecture="conet").num_transfer_matrices == 3


class TestEmbedLookup:
    """The trace's merged input against the per-example lookup oracle."""

    def test_zero_matrices(self):
        model = model_with(tiny_config("mlp"), TINY)
        row = model.forward_batch([1], [2]).inputs[0][0][0]
        assert np.array_equal(row, np.zeros(8))
        assert np.array_equal(row, embed_lookup(model.params["P"], model.params["Q"], 1, 2))

    def test_concatenation(self):
        cfg = ModelConfig(architecture="mlp", embedding_dim=2, hidden_widths=(4,))
        model = model_with(cfg, DomainSizes(2, 1), P=[[9.0, 9.0], [1.0, 2.0]], Q=[[3.0, 4.0]])
        assert np.array_equal(model.forward_batch([1], [0]).inputs[0][0][0], [1.0, 2.0, 3.0, 4.0])

    def test_length_is_two_d(self):
        model = scaled_model("conet", 4)
        users, items_t, items_s = np.array([0, 6, 3]), np.array([4, 0, 2]), np.array([5, 1, 0])
        trace = model.forward_batch(users, items_t, items_s)
        p = model.params
        for tower, q, items in ((0, p["Q_t"], items_t), (1, p["Q_s"], items_s)):
            x = trace.inputs[0][tower]
            assert x.shape == (3, 8)
            for row, u, i in zip(x, users, items):
                assert np.array_equal(row, embed_lookup(p["P"], q, u, i))

    def test_out_of_range(self):
        model = build_model(tiny_config("mlp"), TINY, 0)
        with pytest.raises(IndexError):
            model.forward_batch([TINY.num_users], [0])
        with pytest.raises(IndexError):
            model.forward_batch([0], [TINY.num_items_target])
        with pytest.raises(IndexError):
            model.forward_batch([-1], [0])
        with pytest.raises(IndexError):
            model.forward_batch([0], [-7])


def coupled_pre(model, trace, tower, k):
    # Oracle for hidden layer k >= 1 of a conet batch, one example at a time.
    p = model.params
    rows = []
    for a_t, a_s in zip(*trace.acts[k - 1]):
        pair = cross_unit(p[f"W_t_{k}"], p[f"b_t_{k}"], p[f"W_s_{k}"], p[f"b_s_{k}"],
                          p[f"H_{k - 1}"], a_t, a_s)
        rows.append(pair[tower])
    return np.asarray(rows)


class TestCrossUnit:
    """forward_batch's conet transitions against the per-example cross_unit oracle."""

    def batch(self, model):
        return model.forward_batch(np.arange(7), np.arange(7) % 5, np.arange(7) % 6)

    def test_zero_transfer_decouples(self):
        model = scaled_model("conet", 1)
        for k in range(2):
            model.params[f"H_{k}"][:] = 0.0
        trace = self.batch(model)
        p = model.params
        for k in (1, 2):
            for tower, side in ((0, "t"), (1, "s")):
                plain = trace.acts[k - 1][tower] @ p[f"W_{side}_{k}"].T + p[f"b_{side}_{k}"]
                assert np.array_equal(trace.pres[k][tower], plain)
                assert np.allclose(plain, coupled_pre(model, trace, tower, k),
                                   rtol=1e-12, atol=1e-12)

    def test_zero_source_activation(self):
        model = scaled_model("conet", 2)
        model.params["W_s_0"][:] = 0.0
        model.params["b_s_0"][:] = 0.0
        trace = self.batch(model)
        p = model.params
        assert np.all(trace.acts[0][1] == 0.0)
        assert np.array_equal(trace.pres[1][0], trace.acts[0][0] @ p["W_t_1"].T + p["b_t_1"])
        # with H live, every coupled transition still matches the oracle
        for k in (1, 2):
            for tower in (0, 1):
                assert np.allclose(trace.pres[k][tower], coupled_pre(model, trace, tower, k),
                                   rtol=1e-12, atol=1e-12)

    def test_hand_computed_pair(self):
        cfg = ModelConfig(architecture="conet", embedding_dim=1, hidden_widths=(2, 2),
                          lasso_lambda=0.0)
        model = model_with(
            cfg, DomainSizes(1, 1, 1),
            P=[[1.0]], Q_s=[[1.0]],
            W_t_0=[[1.0, 0.0], [0.0, 0.0]], W_s_0=[[0.0, 0.0], [0.0, 1.0]],
            W_t_1=[[1.0, 0.0], [0.0, 2.0]], W_s_1=[[0.5, 0.5], [1.0, -1.0]],
            H_0=[[2.0, 3.0], [-1.0, 1.0]],
        )
        trace = model.forward_batch([0], [0], [0])
        # a_t = (1, 0), a_s = (0, 1); pre_t = W_t a_t + H a_s = (1, 0) + (3, 1);
        # pre_s = W_s a_s + H a_t = (0.5, -1) + (2, -1)
        assert np.array_equal(trace.pres[1][0][0], [4.0, 1.0])
        assert np.array_equal(trace.pres[1][1][0], [2.5, -2.0])
        assert np.array_equal(coupled_pre(model, trace, 0, 1), [[4.0, 1.0]])
        assert np.array_equal(coupled_pre(model, trace, 1, 1), [[2.5, -2.0]])

    def test_shape_errors(self):
        model = scaled_model("conet", 0)
        params = dict(model.params)
        params["H_0"] = np.zeros((4, 9))
        with pytest.raises(ConfigError):
            Model(model.config, TINY, params)


class TestLassoPenalty:
    def test_zero_matrices(self):
        assert lasso_penalty([np.zeros((3, 3))], 0.5) == 0.0

    def test_lambda_zero(self):
        assert lasso_penalty([np.ones((2, 2))], 0.0) == 0.0

    def test_hand_sum(self):
        h = np.array([[1.0, -2.0], [0.0, 3.0]])
        assert lasso_penalty([h], 0.1) == pytest.approx(0.6, abs=1e-15)


class TestBaseForward:
    def test_all_zero_parameters_give_half(self):
        assert probs_of(model_with(tiny_config("mlp"), TINY), 2, 3) == (0.5,)

    def test_flipping_output_weight_reflects_probability(self):
        model = scaled_model("mlp", 1)
        (p1,) = probs_of(model, 1, 2)
        model.params["h"] = -model.params["h"]
        (p2,) = probs_of(model, 1, 2)
        assert abs((1.0 - p1) - p2) < 1e-15

    def test_hand_computed_tiny_instance(self):
        cfg = ModelConfig(architecture="mlp", embedding_dim=1, hidden_widths=(2, 1))
        sizes = DomainSizes(num_users=2, num_items_target=2)
        params = {
            "P": np.array([[0.5], [0.0]]),
            "Q": np.array([[-0.25], [0.0]]),
            "W_0": np.array([[1.0, 2.0], [3.0, 4.0]]),
            "b_0": np.array([0.1, -0.1]),
            "W_1": np.array([[2.0, 1.0]]),
            "b_1": np.array([0.05]),
            "h": np.array([2.0]),
        }
        model = Model(cfg, sizes, params)
        trace = model.forward_batch([0], [0])
        # x = (0.5, -0.25); pre0 = (0.5 - 0.5 + 0.1, 1.5 - 1.0 - 0.1) = (0.1, 0.4)
        # pre1 = 2*0.1 + 1*0.4 + 0.05 = 0.65; logit = 1.3
        assert np.allclose(trace.acts[0][0][0], [0.1, 0.4], atol=1e-15)
        assert abs(trace.probs[0][0] - 1.0 / (1.0 + math.exp(-1.3))) < 1e-15

    def test_probabilities_strictly_inside_unit_interval(self):
        model = scaled_model("mlp", 3)
        users = np.arange(TINY.num_users)
        candidates = np.tile(np.arange(TINY.num_items_target), (users.size, 1))
        probs = model.score_candidates(users, candidates)
        for u in users:
            rows = np.full(TINY.num_items_target, u)
            assert np.array_equal(probs[u], factored_forward(model, rows, candidates[u]))
            per_user = model.forward_batch(rows, candidates[u])
            np.testing.assert_allclose(probs[u], per_user.probs[0], rtol=1e-12, atol=0)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_shape_chain_rejected_at_construction(self):
        cfg = tiny_config("mlp")
        model = build_model(cfg, TINY, 0)
        params = dict(model.params)
        params["W_1"] = np.zeros((4, 9))
        with pytest.raises(ConfigError):
            Model(cfg, TINY, params)
        params = dict(model.params)
        del params["b_1"]
        with pytest.raises(ConfigError):
            Model(cfg, TINY, params)


def mlp_view_of_tower(model, side):
    """Single-tower model sharing parameter arrays with one tower of ``model``."""
    widths = model.config.hidden_widths
    cfg = ModelConfig(architecture="mlp", embedding_dim=widths[0] // 2, hidden_widths=widths)
    params = {"P": model.params["P"], "Q": model.params[f"Q_{side}"],
              "h": model.params[f"h_{side}"]}
    for k in range(len(widths)):
        params[f"W_{k}"] = model.params[f"W_{side}_{k}"]
        params[f"b_{k}"] = model.params[f"b_{side}_{k}"]
    items = TINY.num_items_target if side == "t" else TINY.num_items_source
    return Model(cfg, DomainSizes(TINY.num_users, items), params)


class TestEvalModeScoring:
    """``score_candidates`` against one factored forward per user, bit for bit."""

    SIZES = DomainSizes(num_users=120, num_items_target=150, num_items_source=130)

    @pytest.mark.parametrize("arch", ["mlp", "mlp++", "csn", "conet"])
    @pytest.mark.parametrize("num_users", [1, 9, 10, 11, 101])
    def test_matches_factored_forward_across_chunk_boundaries(self, arch, num_users):
        # Ten users of 100 candidates fill a chunk, so 11 and 101 users
        # split a call; the last user has no source history.
        widths = (16, 16, 16) if arch == "csn" else (16, 8, 4)
        model = build_model(ModelConfig(architecture=arch, embedding_dim=8,
                                        hidden_widths=widths), self.SIZES, 5)
        rng = np.random.default_rng(num_users)
        for name, value in model.params.items():
            model.params[name] = value + rng.normal(scale=0.3, size=value.shape)
        users = rng.choice(self.SIZES.num_users, num_users, replace=False)
        candidates = rng.integers(0, self.SIZES.num_items_target, size=(num_users, 100))
        sources = rng.integers(0, self.SIZES.num_items_source, size=num_users)
        sources[-1] = -1
        scores = model.score_candidates(users, candidates, sources)
        for u, row, source, got in zip(users, candidates, sources, scores):
            expected = factored_forward(model, np.full(100, u), row, np.full(100, source))
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_overflow_is_a_numeric_error_not_a_warning(self, arch):
        # Logits that overflow to +-inf would saturate to probabilities 0 and 1.
        model = scaled_model(arch, 4)
        for name, value in model.params.items():
            if name.startswith("W_"):
                value *= 1e120
        with pytest.raises(NumericError, match="scoring diverged: overflow encountered"):
            model.score_candidates([0, 1], [[0, 1, 2], [2, 3, 4]], [0, -1])

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_non_finite_logit_is_a_numeric_error(self, arch):
        # NaN arithmetic raises no floating-point flag, so the logits are checked.
        model = scaled_model(arch, 4)
        model.params[model.towers[0].out][0] = np.nan
        with pytest.raises(NumericError, match="scoring diverged: non-finite logit"):
            model.score_candidates([0, 1], [[0, 1, 2], [2, 3, 4]], [0, -1])


class TestTraceProbabilities:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_probs_are_sigmoid_of_each_towers_logits(self, arch):
        model = scaled_model(arch, 4)
        trace = model.forward_batch(np.array([0, 3, 6]), np.array([1, 4, -1]),
                                    np.array([5, -1, 2]))
        assert len(trace.probs) == len(trace.logits) == len(model.towers)
        for probs, logits in zip(trace.probs, trace.logits):
            assert probs.tobytes() == sigmoid(logits).tobytes()
        # Derived on access: they follow the logits they are read from.
        trace.logits = [-z for z in trace.logits]
        for probs, logits in zip(trace.probs, trace.logits):
            assert probs.tobytes() == sigmoid(logits).tobytes()


class TestConetForward:
    def test_zero_transfer_equals_independent_towers_bitwise(self):
        model = scaled_model("conet", 5)
        for k in range(2):
            model.params[f"H_{k}"][:] = 0.0
        target_view = mlp_view_of_tower(model, "t")
        source_view = mlp_view_of_tower(model, "s")
        u, i, j = (g.ravel() for g in np.meshgrid(np.arange(TINY.num_users),
                                                  np.arange(TINY.num_items_target),
                                                  np.arange(TINY.num_items_source)))
        trace = model.forward_batch(u, i, j)
        assert np.array_equal(trace.probs[0], target_view.forward_batch(u, i).probs[0])
        assert np.array_equal(trace.probs[1], source_view.forward_batch(u, j).probs[0])

    def test_swapping_towers_swaps_outputs(self):
        model = scaled_model("conet", 6)
        swapped_params = dict(model.params)
        for k in range(3):
            swapped_params[f"W_t_{k}"] = model.params[f"W_s_{k}"]
            swapped_params[f"W_s_{k}"] = model.params[f"W_t_{k}"]
            swapped_params[f"b_t_{k}"] = model.params[f"b_s_{k}"]
            swapped_params[f"b_s_{k}"] = model.params[f"b_t_{k}"]
        swapped_params["h_t"] = model.params["h_s"]
        swapped_params["h_s"] = model.params["h_t"]
        swapped_params["Q_t"] = model.params["Q_s"]
        swapped_params["Q_s"] = model.params["Q_t"]
        sizes = DomainSizes(TINY.num_users, TINY.num_items_source, TINY.num_items_target)
        swapped = Model(model.config, sizes, swapped_params)
        p_t, p_s = probs_of(model, 3, 2, 4)
        q_t, q_s = probs_of(swapped, 3, 4, 2)
        assert p_t == q_s and p_s == q_t

    def test_hand_computed_coupled_pair(self):
        cfg = ModelConfig(architecture="conet", embedding_dim=1, hidden_widths=(2, 1),
                          lasso_lambda=0.0)
        model = model_with(
            cfg, DomainSizes(1, 1, 1), P=[[1.0]], Q_t=[[0.5]], Q_s=[[-1.0]],
            W_t_0=np.eye(2), W_s_0=[[1.0, 1.0], [1.0, -1.0]], W_t_1=[[1.0, 2.0]],
            W_s_1=[[0.5, 0.5]], h_t=[1.0], h_s=[-1.0], H_0=[[0.5, 0.25]],
        )
        trace = model.forward_batch([0], [0], [0])
        p_t, p_s = probs_of(model, 0, 0, 0)
        # x_t = (1, 0.5) -> a_t0 = (1, 0.5); x_s = (1, -1) -> pre (0, 2) -> a_s0 = (0, 2)
        # pre_t1 = 1*1 + 2*0.5 + (0.5*0 + 0.25*2) = 2.5 ; pre_s1 = 0.5*(0+2) + (0.5*1 + 0.25*0.5) = 1.625
        assert trace.logits[0][0] == pytest.approx(2.5, abs=1e-15)
        assert trace.logits[1][0] == pytest.approx(-1.625, abs=1e-15)
        assert p_t == pytest.approx(1.0 / (1.0 + math.exp(-2.5)), abs=1e-15)
        assert p_s == pytest.approx(1.0 / (1.0 + math.exp(1.625)), abs=1e-15)

    def test_sentinel_source_item_uses_zero_embedding_half(self):
        model = scaled_model("conet", 7)
        probs = model.score_candidates([0], [np.arange(3)], [-1])[0]
        trace = model.forward_batch(np.zeros(3, dtype=int), np.arange(3),
                                    np.full(3, -1, dtype=int))
        assert np.array_equal(trace.inputs[0][1][:, 4:], np.zeros((3, 4)))
        reference = factored_forward(model, np.zeros(3, dtype=int), np.arange(3),
                                     np.full(3, -1, dtype=int))
        assert np.array_equal(probs, reference)
        np.testing.assert_allclose(probs, trace.probs[0], rtol=1e-12, atol=0)
        assert np.all((probs > 0) & (probs < 1))


class TestCsnForward:
    def test_alpha_transfer_zero_decouples(self):
        model = scaled_model("csn", 8)
        for k in range(2):
            model.params[f"alpha_{k}"] = np.array([1.0, 0.0])
        # with alpha = (1, 0) each tower only sees itself
        view = mlp_view_of_tower(model, "t")
        for u in range(TINY.num_users):
            assert probs_of(model, u, u % 5, u % 6)[0] == probs_of(view, u, u % 5)[0]

    def test_symmetric_mix_of_equal_activations(self):
        model = scaled_model("csn", 9)
        for k in range(2):
            model.params[f"alpha_{k}"] = np.array([0.5, 0.5])
        # identical towers over identical items see identical activations
        for k in range(3):
            model.params[f"W_s_{k}"] = model.params[f"W_t_{k}"]
            model.params[f"b_s_{k}"] = model.params[f"b_t_{k}"]
        model.params["Q_s"] = model.params["Q_t"][[0, 1, 2, 3, 4, 0]]
        trace = model.forward_batch(np.array([1, 2]), np.array([0, 1]), np.array([0, 1]))
        # mixing 0.5/0.5 of two equal activation maps returns the map itself
        assert len(trace.inputs) == 3
        for k in (1, 2):
            assert np.array_equal(trace.acts[k - 1][0], trace.acts[k - 1][1])
            assert np.array_equal(trace.inputs[k][0], trace.acts[k - 1][0])
            assert np.array_equal(trace.inputs[k][1], trace.acts[k - 1][1])

    def test_hand_computed_mix(self):
        cfg = ModelConfig(architecture="csn", embedding_dim=1, hidden_widths=(2, 2),
                          lasso_lambda=0.0)
        model = model_with(cfg, DomainSizes(1, 1, 1), P=[[2.0]], Q_t=[[1.0]], Q_s=[[8.0]],
                           W_t_0=np.eye(2), W_s_0=[[2.0, 0.0], [0.0, 1.0]],
                           alpha_0=[0.9, 0.1])
        trace = model.forward_batch([0], [0], [0])
        # a_t = (2, 1), a_s = (4, 8): mixed_t = 0.9 a_t + 0.1 a_s, mixed_s = 0.9 a_s + 0.1 a_t
        assert np.allclose(trace.inputs[1][0][0], [2.2, 1.7], atol=1e-15)
        assert np.allclose(trace.inputs[1][1][0], [3.8, 7.3], atol=1e-15)

    def test_every_alpha_starts_at_its_own_copy_of_the_initial_pair(self):
        cfg = ModelConfig(architecture="csn", embedding_dim=4, hidden_widths=(8, 8, 8, 8))
        model = build_model(cfg, TINY, 0)
        alphas = [model.params[f"alpha_{k}"] for k in range(3)]
        for alpha in alphas:
            assert alpha.tolist() == list(CSN_ALPHA_INIT)
        alphas[0][:] = 0.0
        assert alphas[1].tolist() == list(CSN_ALPHA_INIT)

    def test_nonuniform_widths_rejected_before_training(self):
        with pytest.raises(ConfigError):
            build_model(ModelConfig(architecture="csn", embedding_dim=4, hidden_widths=(8, 4, 2)),
                        TINY, 0)


# ---------------------------------------------------------------------------
# Gradients


class TestBackward:
    @pytest.mark.parametrize("arch", ["mlp", "mlp++", "csn", "conet"])
    def test_gradients_match_finite_differences(self, arch):
        for seed in (0, 1):
            assert gradient_check(arch, seed) <= 1.0

    def test_gradients_match_for_unshared_mlppp(self):
        assert gradient_check("mlp++", 2, unshared=True) <= 1.0

    def test_exact_labels_give_zero_gradients(self):
        model = scaled_model("conet", 11)
        users = np.array([0, 1, 2])
        trace = model.forward_batch(users, np.array([0, 1, 2]), np.array([3, 4, 5]))
        grads = model.backward_batch(trace, labels_target=trace.probs[0].copy(),
                                     labels_source=trace.probs[1].copy())
        for g in grads.values():
            assert np.all(np.asarray(g) == 0.0)

    def test_untouched_user_row_has_zero_gradient(self):
        model = scaled_model("conet", 12)
        users = np.array([0, 1, 2, 4])  # user 3 absent
        trace = model.forward_batch(users, np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3]))
        grads = model.backward_batch(trace,
                                     labels_target=np.ones(4), labels_source=np.zeros(4))
        assert np.all(np.asarray(grads["P"])[3] == 0.0)
        assert np.any(np.asarray(grads["P"])[0] != 0.0)

    @settings(max_examples=80, deadline=None)
    @given(arch=st.sampled_from(["mlp", "mlp++", "csn", "conet", "unshared mlp++"]),
           domain=st.sampled_from(["target", "source"]), seed=st.integers(0, 3),
           examples=st.lists(st.tuples(st.integers(0, TINY.num_users - 1),
                                       st.integers(-1, TINY.num_items_target - 1),
                                       st.integers(-1, TINY.num_items_source - 1),
                                       st.booleans()), min_size=1, max_size=40))
    def test_row_gradients_match_the_dense_scatter(self, arch, domain, seed, examples):
        # A training-shaped step: one labelled domain, its update group wanted.
        # Small tables make users and items repeat; item -1 has no row.
        model = scaled_model(arch.split()[-1], seed, unshared=arch.startswith("unshared"))
        domain = domain if domain in model.domains else "target"
        users, items_t, items_s, labels = (np.array(column) for column in zip(*examples))
        trace = model.forward_batch(users, items_t, items_s)
        built = []

        class Recorded(RowGradient):
            def __init__(self, parts, shape):
                super().__init__(parts, shape)
                built.append((self, parts, shape))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(models, "RowGradient", Recorded)
            grads = model.backward_batch(trace, **{f"labels_{domain}": labels.astype(float)},
                                         wanted=model.groups[domain])
        tables = {t.user for t in model.towers} | {t.items for t in model.towers}
        assert sorted(id(g) for g, _, _ in built) == sorted(
            id(g) for name, g in grads.items() if name in tables)
        assert len(built) == 2
        for g, parts, shape in built:
            assert g.shape == shape and g.size == math.prod(shape)
            assert np.array_equal(g.rows, np.unique(np.concatenate([r for r, _ in parts])))
            assert np.asarray(g).tobytes() == dense_scatter(parts, shape).tobytes()

    def test_wanted_filters_output_but_not_flow(self):
        model = scaled_model("conet", 13)
        users = np.array([0, 1])
        trace = model.forward_batch(users, np.array([0, 1]), np.array([0, 1]))
        full = model.backward_batch(trace, labels_target=np.ones(2))
        partial = model.backward_batch(trace, labels_target=np.ones(2),
                                       wanted=model.groups["target"])
        assert set(partial) == set(model.groups["target"])
        for name in partial:
            assert np.array_equal(partial[name], full[name])


class TestUpdateGroups:
    def test_target_group_excludes_source_tower(self):
        model = scaled_model("conet", 14)
        group = model.groups["target"]
        assert "Q_s" not in group and "W_s_0" not in group
        assert "P" in group and "H_0" in group

    def test_source_group_shares_coupling(self):
        model = scaled_model("conet", 14)
        group = model.groups["source"]
        assert "Q_t" not in group and "h_t" not in group
        assert "P" in group and "H_1" in group

    def test_unshared_mlppp_source_group_uses_own_embedding(self):
        model = scaled_model("mlp++", 15, unshared=True)
        assert "P_src" in model.groups["source"]
        assert "P" not in model.groups["source"]

    def test_frozen_cross_drops_h_from_groups(self):
        model = scaled_model("conet", 16)
        freeze_cross_at_zero(model)
        assert all(not n.startswith("H_") for n in model.groups["target"])
        assert all(np.all(model.params[f"H_{k}"] == 0.0) for k in range(2))
