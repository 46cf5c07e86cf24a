import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conet.data import CrossDomainDataset, loo_split
from conet.errors import ConfigError, DataError, NumericError
from conet.models import DomainSizes, ModelConfig, RowGradient, build_model, lasso_penalty
from conet.numerics import derive_rng, sigmoid
from conet.training import (
    Adam,
    TrainConfig,
    Trainer,
    cross_entropy_from_logits,
    make_scorer,
    proximal_l1,
    sparsity_ratio,
)

from oracles import (cross_entropy_loss, factored_forward, from_adjacency, make_cross_domain,
                     reference_adam_step, reference_pairing)


def small_model(arch="conet", lam=0.1, sizes=None, seed=0):
    cfg = ModelConfig(architecture=arch, embedding_dim=4,
                      hidden_widths=(8, 8, 8) if arch == "csn" else (8, 4, 2),
                      lasso_lambda=lam)
    return build_model(cfg, sizes, seed)


@pytest.fixture
def split():
    return loo_split(make_cross_domain(num_users=12), derive_rng(0, "split"))


sizes_of = DomainSizes.from_split


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["learning_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("change", [{"learning_rate": 0.0}, {"batch_size": 0},
                                        {"negative_ratio": -1}, {"epochs": -1}, {"patience": 0}])
    def test_bad_value_rejected_when_built_and_through_replace(self, change):
        with pytest.raises(ConfigError):
            TrainConfig(**change)
        with pytest.raises(ConfigError):
            dataclasses.replace(TrainConfig(), **change)


class TestCrossEntropy:
    """The training loss against the probability-form oracle."""

    def test_maximal_uncertainty(self):
        n = 7
        loss = cross_entropy_from_logits(np.zeros(n), np.ones(n))
        assert loss == pytest.approx(n * math.log(2), abs=1e-12)
        assert loss == pytest.approx(cross_entropy_loss(np.full(n, 0.5), np.ones(n)), abs=1e-12)

    def test_perfect_prediction_limit(self):
        loss = cross_entropy_from_logits(np.array([40.0, -40.0]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        logit = math.log(0.8 / 0.2)
        assert cross_entropy_from_logits(np.array([logit]), np.array([1.0])) == pytest.approx(
            0.22314355, abs=1e-8)

    def test_logit_form_matches_probability_form(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(scale=3, size=50)
        labels = rng.integers(0, 2, size=50).astype(float)
        a = cross_entropy_from_logits(logits, labels)
        b = cross_entropy_loss(sigmoid(logits), labels)
        assert a == pytest.approx(b, rel=1e-12)

    def test_logit_form_stable_at_extremes(self):
        loss = cross_entropy_from_logits(np.array([800.0, -800.0]), np.array([1.0, 0.0]))
        assert loss == 0.0


class TestJointLoss:
    """The objective's terms: both domain losses plus the sparsity penalty."""

    def test_zero_penalty_is_plain_sum(self):
        # Backprop of the two-sided loss is the sum of the one-sided passes.
        model = small_model(sizes=DomainSizes(7, 5, 6), seed=1)
        users = np.array([0, 3, 6, 2])
        trace = model.forward_batch(users, np.array([1, 2, 3, 4]), np.array([5, 0, 1, 2]))
        labels_t, labels_s = np.array([1.0, 0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0, 1.0])
        both = model.backward_batch(trace, labels_target=labels_t, labels_source=labels_s)
        target = model.backward_batch(trace, labels_target=labels_t)
        source = model.backward_batch(trace, labels_source=labels_s)
        for name in both:
            assert np.allclose(np.asarray(both[name]),
                               np.asarray(target[name]) + np.asarray(source[name]),
                               rtol=1e-12, atol=1e-15)

    def test_all_zero(self, split):
        # mlp has no source loss and no transfer matrices to penalise.
        model = small_model("mlp", lam=0.1, sizes=sizes_of(split))
        stats = Trainer(model, split, TrainConfig(epochs=1, batch_size=16, seed=0)).train_epoch()
        assert stats.loss_source == 0.0 and stats.penalty == 0.0
        assert stats.loss_target > 0.0

    def test_arithmetic(self, split):
        model = small_model(lam=0.6, sizes=sizes_of(split))
        stats = Trainer(model, split, TrainConfig(epochs=1, batch_size=16, seed=0)).train_epoch()
        by_hand = 0.6 * sum(float(np.abs(h).sum()) for h in model.transfer_matrices())
        assert stats.penalty == pytest.approx(by_hand, rel=1e-12)
        assert stats.penalty == lasso_penalty(model.transfer_matrices(), 0.6)


class TestAdam:
    def test_zero_gradient_zero_moments_is_noop(self):
        opt = Adam(0.001)
        params = {"w": np.array([1.0, -2.0])}
        before = params["w"].copy()
        opt.step(params, {"w": np.zeros(2)})
        assert np.array_equal(params["w"], before)

    def test_first_step_closed_form(self):
        opt = Adam(0.001)
        params = {"w": np.array([1.0])}
        opt.step(params, {"w": np.array([1.0])})
        assert abs(params["w"][0] - 0.999) < 1e-6

    def test_matches_hand_computed_update_sequence(self):
        # two steps on one parameter, checked against the textbook formulas
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = Adam(lr)
        params = {"w": np.array([0.5])}
        m = v = 0.0
        w = 0.5
        for t, g in enumerate((0.3, -0.2), start=1):
            opt.step(params, {"w": np.array([g])})
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            w -= lr * m_hat / (math.sqrt(v_hat) + eps)
            assert params["w"][0] == pytest.approx(w, abs=1e-12)

    def test_deterministic(self):
        def run():
            opt = Adam(0.001)
            params = {"w": np.linspace(-1, 1, 5)}
            rng = np.random.default_rng(3)
            for _ in range(20):
                opt.step(params, {"w": rng.normal(size=5)})
            return params["w"]

        assert np.array_equal(run(), run())

    def test_per_tensor_update_counts(self):
        opt = Adam(0.001)
        params = {"a": np.zeros(1), "b": np.zeros(1)}
        opt.step(params, {"a": np.ones(1)})
        opt.step(params, {"a": np.ones(1), "b": np.ones(1)})
        assert opt.slots["a"].t == 2
        assert opt.slots["b"].t == 1

    def test_learning_rate_must_be_positive(self):
        with pytest.raises(ConfigError, match="learning_rate must be > 0"):
            Adam(0.0)

    def test_shape_mismatch(self):
        opt = Adam(0.001)
        with pytest.raises(ConfigError):
            opt.step({"w": np.zeros(2)}, {"w": np.zeros(3)})

    def test_in_place_step_matches_out_of_place_formula_bitwise(self):
        # Alternating-domain shapes: the shared table moves every step, each
        # tower table every other step, so update counts differ per tensor.
        # Embedding tables get row gradients, as a mini-batch leaves them, and
        # the reference steps their dense tables. Row 0 of each table is never
        # touched; after its first step it holds m = -0.0 and p = -0.0, where
        # the textbook's m * b1 + 0.0 gives m = 0.0 and keeps p at -0.0.
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(11)
        shapes = {"P": (300, 32), "Q_t": (400, 32), "Q_s": (250, 32),
                  "W_t_0": (64, 64), "b_t_0": (64,), "W_s_0": (64, 64), "H_0": (32, 64)}
        params = {n: rng.normal(scale=0.1, size=shape) for n, shape in shapes.items()}
        expected = {n: v.copy() for n, v in params.items()}
        opt = Adam(lr)
        state = {}
        for step in range(120):
            side = "t" if step % 2 == 0 else "s"
            names = ["P", "H_0", f"Q_{side}", f"W_{side}_0"] + (["b_t_0"] if side == "t" else [])
            grads = {}
            for n in names:
                if n.startswith(("P", "Q")):
                    rows = rng.integers(1, shapes[n][0], size=64)  # repeats, never row 0
                    values = rng.normal(size=(64, shapes[n][1]))
                    values[rng.random(values.shape) < 0.05] = 0.0
                    grads[n] = RowGradient([(rows, values)], shapes[n])
                else:
                    grads[n] = rng.normal(size=shapes[n])
            opt.step(params, grads)
            reference_adam_step(expected, {n: np.asarray(g) for n, g in grads.items()},
                                state, lr, b1, b2, eps)
            if step < 2:
                for n in ("P", f"Q_{side}"):
                    for array in (opt.slots[n].m, state[n][0], params[n], expected[n]):
                        array[0] = -0.0
        for n in shapes:
            m, v, t = state[n]
            assert opt.slots[n].t == t
            assert opt.slots[n].m.tobytes() == m.tobytes(), n
            assert opt.slots[n].v.tobytes() == v.tobytes(), n
            assert params[n].tobytes() == expected[n].tobytes(), n
        assert {opt.slots[n].t for n in shapes} == {120, 60}
        for n in ("P", "Q_t", "Q_s"):
            assert not np.signbit(state[n][0][0]).any() and np.signbit(expected[n][0]).all()

    def test_step_allocates_nothing_of_table_size(self):
        # A default-size conet's target step. Once the slots and the scratch
        # exist, a step's traced peak stays below the size of one item table,
        # where full-size temporaries would take several times that.
        model = build_model(ModelConfig(), DomainSizes(1000, 1600, 1000), 0)
        rng = np.random.default_rng(0)
        users = rng.integers(0, 1000, size=256)
        trace = model.forward_batch(users, rng.integers(0, 1600, size=256),
                                    rng.integers(-1, 1000, size=256))
        grads = model.backward_batch(trace, labels_target=rng.integers(0, 2, size=256),
                                     wanted=model.groups["target"])
        opt = Adam(0.001)
        opt.step(model.params, grads)
        tracemalloc.start()
        try:
            opt.step(model.params, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.params["Q_t"].nbytes


class TestProximalL1:
    def test_zero_threshold_is_identity(self):
        h = np.array([[0.2, -0.3]])
        assert np.array_equal(proximal_l1(h, 0.0), h)

    def test_everything_below_threshold_zeroes(self):
        h = np.array([[0.05, -0.09], [0.0, 0.02]])
        assert np.array_equal(proximal_l1(h, 0.1), np.zeros((2, 2)))

    def test_hand_value(self):
        assert proximal_l1(np.array([[0.25]]), 0.1)[0, 0] == pytest.approx(0.15, abs=1e-15)

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=30),
           st.floats(min_value=1e-6, max_value=1.0))
    def test_firmness(self, values, threshold):
        h = np.asarray(values)
        out = proximal_l1(h, threshold)
        below = np.abs(h) <= threshold
        assert np.all(out[below] == 0.0)
        assert np.allclose(np.abs(out[~below]), np.abs(h[~below]) - threshold, atol=1e-12)


class TestSparsityRatio:
    def test_zero_matrix(self):
        assert sparsity_ratio(np.zeros((3, 4))) == 1.0

    def test_dense_matrix(self):
        assert sparsity_ratio(np.ones((3, 4))) == 0.0

    def test_half(self):
        h = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert sparsity_ratio(h) == 0.5


class TestPairSourceItem:
    """Cross-domain pairing as the trainer (train mode) and scorer (eval mode) do it."""

    def make_split(self, source_adj):
        data = CrossDomainDataset(
            target=from_adjacency(len(source_adj), 120, [[0, 1, 2]] * len(source_adj)),
            source=from_adjacency(len(source_adj), 50, source_adj),
        )
        return loo_split(data, derive_rng(0, "s"))

    def trainer(self, split, seed=0):
        return Trainer(small_model(sizes=sizes_of(split)), split, TrainConfig(seed=seed))

    def assert_scored_with(self, split, user, source_item):
        model = small_model(sizes=sizes_of(split))
        items = np.arange(100)
        scored = make_scorer(model, split).score_items([user], [items])[0]
        reference = factored_forward(model, np.full(100, user), items, np.full(100, source_item))
        assert np.array_equal(scored, reference)
        return scored

    def test_single_interaction_forced_in_both_modes(self):
        split = self.make_split([[7], [7]])
        paired = self.trainer(split)._paired_items("target", np.zeros(5, dtype=np.int64))
        assert paired.tolist() == [7] * 5
        self.assert_scored_with(split, 0, 7)

    def test_eval_mode_deterministic_smallest(self):
        split = self.make_split([[9, 4, 30], [1]])
        first = self.assert_scored_with(split, 0, 4)
        assert np.array_equal(first, self.assert_scored_with(split, 0, 4))

    def test_no_source_history_sentinel_still_scores(self):
        split = self.make_split([[3], []])
        paired = self.trainer(split)._paired_items("target", np.array([1, 0]))
        assert paired.tolist() == [-1, 3]
        probs = self.assert_scored_with(split, 1, -1)
        assert np.all((probs > 0) & (probs < 1))

    def test_train_mode_needs_rng(self):
        # Train-mode pairs come from the trainer's seeded pairing stream:
        # uniform over the user's items, reproducible per seed.
        split = self.make_split([[9, 4, 30], [1]])
        users = np.zeros(300, dtype=np.int64)
        first = self.trainer(split, seed=3)._paired_items("target", users)
        assert np.array_equal(first, self.trainer(split, seed=3)._paired_items("target", users))
        assert not np.array_equal(first, self.trainer(split, seed=4)._paired_items("target", users))
        assert sorted(set(first.tolist())) == [4, 9, 30]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_draws_as_per_example_pairing(self, seed):
        split = self.make_split([[9, 4, 30], [], [1], [2, 3, 5, 8, 13, 21, 34], []])
        trainer = self.trainer(split, seed=seed)
        refs = {d: derive_rng(seed, "pairing", d) for d in ("target", "source")}
        others = {"target": split.train.source, "source": split.train.target}
        users = np.random.default_rng(seed).integers(0, 5, size=(6, 40))
        for k, batch_users in enumerate(users):
            domain = ("target", "source")[k % 2]
            assert np.array_equal(trainer._paired_items(domain, batch_users),
                                  reference_pairing(others[domain], batch_users, refs[domain]))
        assert np.array_equal(trainer._paired_items("target", np.array([1, 4, 1])), [-1] * 3)
        for d in refs:
            assert trainer._pair_rng[d].bit_generator.state == refs[d].bit_generator.state


class TestTrainer:
    def test_step_count_increments_per_batch(self, split):
        model = small_model(sizes=sizes_of(split))
        config = TrainConfig(epochs=1, batch_size=16, seed=0)
        trainer = Trainer(model, split, config)
        trainer.train_epoch()
        target_batches = -(-split.train.target.num_interactions // 16)
        source_batches = -(-split.train.source.num_interactions // 16)
        steps = max(target_batches, source_batches)
        assert trainer.optimizer.slots["P"].t == 2 * steps

    def test_optimizer_keeps_adams_default_moments(self, split):
        config = TrainConfig(learning_rate=0.003, epochs=1, seed=0)
        optimizer = Trainer(small_model(sizes=sizes_of(split)), split, config).optimizer
        assert optimizer.learning_rate == 0.003
        assert (optimizer.beta1, optimizer.beta2, optimizer.epsilon) == (0.9, 0.999, 1e-8)

    def test_mlp_step_count(self, split):
        model = small_model("mlp", lam=0.0, sizes=sizes_of(split))
        config = TrainConfig(epochs=1, batch_size=16, seed=0)
        trainer = Trainer(model, split, config)
        trainer.train_epoch()
        assert trainer.optimizer.slots["P"].t == -(-split.train.target.num_interactions // 16)

    def test_lambda_zero_leaves_no_exact_zeros(self, split):
        model = small_model(lam=0.0, sizes=sizes_of(split))
        config = TrainConfig(epochs=2, batch_size=16, seed=0)
        Trainer(model, split, config).fit()
        for h in model.transfer_matrices():
            assert sparsity_ratio(h) == 0.0

    def test_positive_lambda_produces_exact_zeros(self, split):
        model = small_model(lam=1.0, sizes=sizes_of(split))
        config = TrainConfig(epochs=2, batch_size=16, seed=0, patience=None)
        Trainer(model, split, config).fit()
        ratios = [sparsity_ratio(h) for h in model.transfer_matrices()]
        assert max(ratios) > 0.0

    def test_source_batch_leaves_target_tower_untouched(self, split):
        model = small_model(sizes=sizes_of(split))
        config = TrainConfig(epochs=1, batch_size=16, seed=0)
        trainer = Trainer(model, split, config)
        before = {k: v.copy() for k, v in model.params.items()}
        trainer._train_step("source")
        for name in ("Q_t", "W_t_0", "W_t_1", "b_t_1", "h_t"):
            assert np.array_equal(model.params[name], before[name]), name
        assert not np.array_equal(model.params["P"], before["P"])
        assert not np.array_equal(model.params["Q_s"], before["Q_s"])

    def test_fit_zero_epochs_returns_initialized_model(self, split):
        model = small_model(sizes=sizes_of(split), seed=5)
        reference = build_model(model.config, sizes_of(split), 5)
        trainer = Trainer(model, split, TrainConfig(epochs=0, seed=0))
        assert trainer.fit() == [] and trainer.best is None
        assert all(np.array_equal(model.params[k], reference.params[k])
                   for k in reference.params)

    def test_for_split_sizes_the_model_by_the_split_and_seeds_it_from_the_config(self, split):
        config = small_model(sizes=sizes_of(split)).config
        trainer = Trainer.for_split(config, split, TrainConfig(epochs=1, seed=5))
        reference = build_model(config, sizes_of(split), 5)
        assert trainer.model.config == config and trainer.config.seed == 5
        assert trainer.model.params.keys() == reference.params.keys()
        assert all(np.array_equal(trainer.model.params[k], reference.params[k])
                   for k in reference.params)

    def test_fit_deterministic(self, split):
        def run():
            model = small_model(sizes=sizes_of(split), seed=2)
            stats = Trainer(model, split, TrainConfig(epochs=3, batch_size=16, seed=2)).fit()
            return model, stats

        m1, s1 = run()
        m2, s2 = run()
        assert s1 == s2
        assert all(np.array_equal(m1.params[k], m2.params[k]) for k in m1.params)

    def test_stats_length_bounded_by_epochs(self, split):
        model = small_model(sizes=sizes_of(split))
        stats = Trainer(model, split, TrainConfig(epochs=4, batch_size=16, seed=1)).fit()
        assert len(stats) <= 4
        assert [st.epoch for st in stats] == list(range(1, len(stats) + 1))

    def test_early_stopping_on_flat_validation(self, split):
        # An untrainable model (zero lr would be invalid, so freeze by huge
        # lambda zeroing H and tiny epochs) is overkill; instead patience=1
        # stops as soon as validation NDCG fails to improve once.
        # The trainer keeps the first epoch of highest validation NDCG as its best.
        model = small_model(sizes=sizes_of(split), seed=3)
        trainer = Trainer(model, split,
                          TrainConfig(epochs=30, batch_size=16, seed=3, patience=1))
        stats = trainer.fit()
        assert len(stats) < 30
        top = max(st.val_ndcg for st in stats)
        assert trainer.best is next(st for st in stats if st.val_ndcg == top)

    def test_non_finite_loss_aborts(self, split):
        model = small_model(sizes=sizes_of(split))
        model.params["h_t"][:] = np.nan
        trainer = Trainer(model, split, TrainConfig(epochs=1, batch_size=16, seed=0))
        with pytest.raises(NumericError, match=r"^numeric divergence at epoch 1, step 0 "
                           r"\(target batch\): non-finite training loss$"):
            trainer.train_epoch()

    def test_empty_validation_is_refused(self, split):
        # No split without users to rank reaches the trainer.
        none = np.empty(0, dtype=np.int64)
        with pytest.raises(DataError, match="no evaluated users"):
            dataclasses.replace(split, users=none, test=none, validation=none,
                                eval_negatives=np.empty((0, 99), dtype=np.int64))

    def test_epoch_stats_json_round_trip(self, split):
        model = small_model(sizes=sizes_of(split))
        stats = Trainer(model, split, TrainConfig(epochs=1, batch_size=16, seed=0)).fit()
        line = stats[0].to_json_line()
        assert type(stats[0]).from_json_line(line) == stats[0]

    def test_training_reduces_loss(self, split):
        model = small_model(sizes=sizes_of(split), seed=4)
        trainer = Trainer(model, split, TrainConfig(epochs=8, batch_size=16, seed=4,
                                                    patience=None))
        stats = [trainer.train_epoch() for _ in range(8)]
        assert stats[-1].loss_target < stats[0].loss_target
