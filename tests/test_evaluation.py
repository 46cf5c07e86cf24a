import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conet.data import CrossDomainDataset, LooSplit, SyntheticConfig, generate_synthetic, loo_split
from conet.errors import ConfigError, DataError, NumericError
from conet.evaluation import (
    MetricsReport,
    evaluate,
    hit_ratio,
    mrr,
    ndcg,
    paired_t_test,
)
from conet.models import DomainSizes, ModelConfig, build_model
from conet.numerics import derive_rng
from conet.studies import model_config_for
from conet.training import make_scorer

from oracles import (from_adjacency, held_by_user, items_by_user, make_cross_domain,
                     per_user_scorer, rank_test_item, reference_evaluate)


class _FixedScorer:
    def __init__(self, scores):
        self.scores = scores

    def score_items(self, users, candidates):
        return self.scores


def live_position(test_score, negative_scores):
    """Hit position ``evaluate`` ranks for one user scoring its candidates so."""
    split = LooSplit(train=None, users=np.array([0]), test=np.array([0]), validation=np.array([1]),
                     eval_negatives=np.arange(1, 100)[None, :])
    scores = np.concatenate([[test_score], negative_scores])[None, :]
    return evaluate(_FixedScorer(scores), split).positions[0]


class TestRankTestItem:
    """``evaluate``'s vectorised ranking against the per-user ``rank_test_item``."""

    def test_strictly_greatest_ranks_first(self):
        negatives = np.linspace(0, 4, 99)
        assert live_position(5.0, negatives) == rank_test_item(5.0, negatives) == 1

    def test_strictly_least_ranks_last(self):
        negatives = np.linspace(0, 4, 99)
        assert live_position(-1.0, negatives) == rank_test_item(-1.0, negatives) == 100

    def test_ties_count_against(self):
        negatives = np.concatenate([[0.7, 0.7], np.full(97, 0.1)])
        assert live_position(0.7, negatives) == rank_test_item(0.7, negatives) == 3

    def test_non_finite_raises(self):
        for test_score, negatives in ((float("nan"), np.zeros(99)),
                                      (0.0, np.array([np.inf] + [0.0] * 98))):
            with pytest.raises(NumericError):
                live_position(test_score, negatives)
            with pytest.raises(NumericError):
                rank_test_item(test_score, negatives)

    @given(st.integers(min_value=1, max_value=12345))
    def test_strictly_increasing_transform_preserves_rank(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=100)
        raw = rank_test_item(scores[0], scores[1:])
        assert live_position(scores[0], scores[1:]) == raw
        transformed = np.tanh(scores / 3) * 5 + 1  # strictly increasing
        assert live_position(transformed[0], transformed[1:]) == raw


class TestAggregates:
    def test_hr_all_first(self):
        assert hit_ratio([1, 1, 1]) == 1.0

    def test_hr_all_outside(self):
        assert hit_ratio([11, 11]) == 0.0

    def test_hr_hand_count(self):
        assert hit_ratio([1, 5, 11, 50]) == 0.5

    def test_ndcg_first_position(self):
        assert ndcg([1]) == 1.0

    def test_ndcg_position_three(self):
        assert ndcg([3]) == pytest.approx(0.5, abs=1e-15)

    def test_ndcg_mean(self):
        assert ndcg([1, 3]) == pytest.approx(0.75, abs=1e-15)

    def test_mrr_first(self):
        assert mrr([1]) == 1.0

    def test_mrr_position_four(self):
        assert mrr([4]) == 0.25

    def test_mrr_cutoff(self):
        assert mrr([2, 20]) == 0.25

    def test_mrr_uncut_flag(self):
        assert mrr([2, 20], apply_cutoff=False) == pytest.approx(
            (0.5 + 1 / 20) / 2)

    def test_empty_results_error(self):
        with pytest.raises(DataError):
            hit_ratio([])
        with pytest.raises(DataError):
            ndcg([])
        with pytest.raises(DataError):
            mrr([])

    @given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=50))
    def test_metric_bounds_and_ordering(self, positions):
        h, n, m = hit_ratio(positions), ndcg(positions), mrr(positions)
        assert 0.0 <= m <= n <= h <= 1.0

    def test_adding_perfect_user_never_decreases(self):
        base = [3, 15, 7]
        more = base + [1]
        assert hit_ratio(more) >= hit_ratio(base)
        assert ndcg(more) >= ndcg(base)
        assert mrr(more) >= mrr(base)

    def test_adding_worst_user_never_increases(self):
        base = [3, 15, 7]
        more = base + [100]
        assert hit_ratio(more) <= hit_ratio(base)
        assert ndcg(more) <= ndcg(base)
        assert mrr(more) <= mrr(base)


class _TableScorer:
    """Scores read from a user -> item -> score table."""

    def __init__(self, table):
        self.table = table

    def score_items(self, users, candidates):
        return np.stack([self.table[u][row] for u, row in zip(users.tolist(), candidates)])


class _ConstantScorer:
    def score_items(self, users, candidates):
        return np.zeros(np.shape(candidates))


class _OracleScorer:
    def __init__(self, held):
        self.held = held

    def score_items(self, users, candidates):
        held = np.asarray([self.held[u] for u in users.tolist()])
        return (candidates == held[:, None]).astype(float)


class TestEvaluate:
    def test_constant_scorer_scores_zero_everywhere(self, small_split):
        report = evaluate(_ConstantScorer(), small_split)
        assert report.positions == [100] * small_split.users.size
        assert report.hr == report.ndcg == report.mrr == 0.0

    def test_oracle_scorer_is_perfect(self, small_split):
        report = evaluate(_OracleScorer(held_by_user(small_split, "test")), small_split)
        assert report.hr == report.ndcg == report.mrr == 1.0

    def test_validation_partition_uses_validation_items(self, small_split):
        report = evaluate(_OracleScorer(held_by_user(small_split, "validation")), small_split,
                          partition="validation")
        assert report.hr == 1.0

    def test_deterministic(self, small_split):
        rng = np.random.default_rng(0)
        table = {u: rng.normal(size=small_split.train.target.num_items)
                 for u in small_split.users.tolist()}
        a = evaluate(_TableScorer(table), small_split)
        b = evaluate(_TableScorer(table), small_split)
        assert a == b

    def test_aggregates_recomputable_from_per_user(self, small_split):
        rng = np.random.default_rng(1)
        table = {u: rng.normal(size=small_split.train.target.num_items)
                 for u in small_split.users.tolist()}
        report = evaluate(_TableScorer(table), small_split)
        assert hit_ratio(report.positions, report.top_n) == report.hr
        assert ndcg(report.positions, report.top_n) == report.ndcg
        assert mrr(report.positions, report.top_n) == report.mrr

    def test_matches_brute_force_reimplementation_bitwise(self):
        # Independent oracle: recount ranks by explicit comparison loops and
        # accumulate the three metrics from their definitions.
        rng = np.random.default_rng(20240817)
        num_users = 200
        scores = {u: rng.normal(size=100) for u in range(num_users)}

        class Scorer:
            def score_items(self, users, candidates):
                return np.stack([scores[u][: candidates.shape[1]] for u in users.tolist()])

        data = make_cross_domain(num_users=num_users, per_user_target=6,
                                 per_user_source=4, n_target=150, n_source=120, seed=7)
        split = loo_split(data, derive_rng(7, "split"))
        assert split.users.size == num_users
        report = evaluate(Scorer(), split)

        hr_sum = 0.0
        ndcg_sum = 0.0
        mrr_sum = 0.0
        for u in split.users.tolist():
            vec = scores[u]
            test_score, negatives = vec[0], vec[1:100]
            position = 1
            for s in negatives:
                if s >= test_score:
                    position += 1
            if position <= 10:
                hr_sum += 1.0
                ndcg_sum += math.log(2.0) / math.log(position + 1.0)
                mrr_sum += 1.0 / position
        assert report.hr == hr_sum / num_users
        assert report.ndcg == ndcg_sum / num_users
        assert report.mrr == mrr_sum / num_users

    def test_scorer_failure_carries_user_context(self, small_split):
        class Broken:
            def score_items(self, user, items):
                raise ValueError("boom")

        with pytest.raises(ValueError, match="user"):
            evaluate(Broken(), small_split)

    def test_scorer_failure_of_a_several_argument_type_keeps_its_type(self, small_split):
        error = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        class Broken:
            def score_items(self, user, items):
                raise error

        with pytest.raises(UnicodeDecodeError) as caught:
            evaluate(Broken(), small_split)
        assert caught.value is error

    def test_unknown_partition_is_config_error(self, small_split):
        with pytest.raises(ConfigError, match="unknown partition 'users'"):
            evaluate(_ConstantScorer(), small_split, partition="users")

    def test_scores_of_the_wrong_shape_are_data_error(self, small_split):
        scores = np.zeros((small_split.users.size, 99))
        with pytest.raises(DataError, match=r"shape \(\d+, 99\) for candidates of shape"):
            evaluate(_FixedScorer(scores), small_split)

    def test_no_evaluated_users_is_data_error(self):
        # The split refuses to exist, so no scorer is ever asked to rank nobody.
        with pytest.raises(DataError, match="no evaluated users"):
            loo_split(make_cross_domain(per_user_target=2), derive_rng(0, "split"))


def generic_model(arch, split, seed=3):
    """Paper-sized model at a generic point: every tensor jittered off its init."""
    widths = (64, 64, 64, 64) if arch == "csn" else (64, 32, 16, 8)
    config = model_config_for(arch, ModelConfig(hidden_widths=widths))
    model = build_model(config, DomainSizes.from_split(split), seed)
    rng = np.random.default_rng(seed)
    for name, value in model.params.items():
        model.params[name] = value + rng.normal(scale=0.1, size=value.shape)
    return model


def sparse_source_split(num_users, evaluated, seed=0):
    """Split with ``evaluated`` evaluated users; every third user has no source history."""
    rng = np.random.default_rng(seed)
    t_adj = [sorted(rng.choice(150, 6 if u < evaluated else 2, replace=False))
             for u in range(num_users)]
    s_adj = [sorted(rng.choice(120, 4, replace=False)) if u % 3 else []
             for u in range(num_users)]
    data = CrossDomainDataset(target=from_adjacency(num_users, 150, t_adj),
                              source=from_adjacency(num_users, 120, s_adj))
    split = loo_split(data, derive_rng(seed, "split"))
    assert split.users.size == evaluated
    return split


@pytest.fixture(scope="module")
def acceptance_split():
    data = generate_synthetic(SyntheticConfig(seed=1))
    return loo_split(data, derive_rng(1, "split"))


ARCHS = ("mlp", "mlp++", "csn", "conet", "sconet")


def candidate_matrix(split, partition="test"):
    """Sorted evaluated users and their ``(U, 100)`` candidates, held-out item first."""
    held = getattr(split, partition)
    return split.users, np.stack([np.concatenate([[item], negatives])
                                  for item, negatives in zip(held, split.eval_negatives)])


class TestBatchedScoring:
    """One batched call per evaluation against one forward per user, bit for bit."""

    def assert_matches_per_user(self, model, split, partition):
        expected_scores, expected = reference_evaluate(per_user_scorer(model, split), split,
                                                       partition)
        users, candidates = candidate_matrix(split, partition)
        scores = make_scorer(model, split).score_items(users, candidates)
        assert np.array_equal(scores, expected_scores)
        assert evaluate(make_scorer(model, split), split, partition) == expected

    @pytest.mark.parametrize("arch", ARCHS)
    def test_acceptance_data(self, acceptance_split, arch):
        model = generic_model(arch, acceptance_split)
        for partition in ("test", "validation"):
            self.assert_matches_per_user(model, acceptance_split, partition)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_one_evaluated_user(self, arch):
        split = sparse_source_split(num_users=5, evaluated=1)
        self.assert_matches_per_user(generic_model(arch, split), split, "test")

    @pytest.mark.parametrize("arch", ARCHS)
    def test_fewer_evaluated_users_than_a_source_block(self, arch):
        split = sparse_source_split(num_users=40, evaluated=37, seed=1)
        model = generic_model(arch, split)
        for partition in ("test", "validation"):
            self.assert_matches_per_user(model, split, partition)


@pytest.fixture(scope="module")
def sourceless_quarter_split(acceptance_split):
    """The acceptance split with every fourth user's source history removed."""
    source = acceptance_split.train.source
    adjacency = [items if u % 4 else [] for u, items in enumerate(items_by_user(source))]
    train = CrossDomainDataset(target=acceptance_split.train.target,
                               source=from_adjacency(source.num_users, source.num_items,
                                                     adjacency))
    return dataclasses.replace(acceptance_split, train=train)


class TestFactoredLayerZero:
    """Eval mode's layer 0 reads whole-table halves instead of the merged embedding."""

    @pytest.mark.parametrize("arch", ARCHS)
    def test_within_1e_12_of_training_forward(self, sourceless_quarter_split, arch):
        split = sourceless_quarter_split
        model = generic_model(arch, split)
        users, candidates = candidate_matrix(split)
        scores = make_scorer(model, split).score_items(users, candidates)
        indptr, indices = split.train.source.indptr, split.train.source.indices
        paired = np.where(indptr[users + 1] > indptr[users], indices[indptr[users]], -1)
        assert np.count_nonzero(paired == -1) == np.count_nonzero(users % 4 == 0) > 0
        for start in range(0, users.size, 50):
            chunk = slice(start, start + 50)
            trace = model.forward_batch(np.repeat(users[chunk], 100), candidates[chunk].ravel(),
                                        np.repeat(paired[chunk], 100))
            np.testing.assert_allclose(scores[chunk].ravel(), trace.probs[0],
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_scores_do_not_depend_on_the_other_users_of_a_call(self, sourceless_quarter_split,
                                                             arch):
        split = sourceless_quarter_split
        scorer = make_scorer(generic_model(arch, split), split)
        users, candidates = candidate_matrix(split)
        together = scorer.score_items(users, candidates)
        # Reversed and one user short, so that every chunk groups other users.
        backwards = scorer.score_items(users[:0:-1], candidates[:0:-1])[::-1]
        assert np.array_equal(backwards, together[1:])
        for row in range(0, users.size, 9):
            alone = scorer.score_items(users[row : row + 1], candidates[row : row + 1])
            assert np.array_equal(alone[0], together[row])


class TestPairedTTest:
    def test_identical_samples_give_one(self):
        a = np.array([0.1, 0.5, 0.9, 0.3])
        assert paired_t_test(a, a.copy()) == 1.0

    def test_constant_nonzero_difference_gives_zero(self):
        a = np.array([1.0, 1.0, 1.0, 1.0])
        b = np.zeros(4)
        assert paired_t_test(a, b) == 0.0

    def test_against_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        a = np.array([0.62, 0.55, 0.71, 0.48, 0.66])
        b = np.array([0.58, 0.51, 0.72, 0.45, 0.60])
        p = paired_t_test(a, b)

        # Student-t two-sided tail via the regularized incomplete beta.
        diff = a - b
        n = len(diff)
        mean = diff.mean()
        sd = diff.std(ddof=1)
        t_stat = mean / (sd / math.sqrt(n))
        nu = mpmath.mpf(n - 1)
        x = nu / (nu + mpmath.mpf(t_stat) ** 2)
        p_oracle = float(mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, x, regularized=True))
        assert p == pytest.approx(p_oracle, abs=1e-6)

    def test_scipy_cross_check(self):
        from scipy import stats

        rng = np.random.default_rng(4)
        a = rng.normal(size=30)
        b = a + rng.normal(scale=0.3, size=30) + 0.1
        assert paired_t_test(a, b) == pytest.approx(stats.ttest_rel(a, b).pvalue, abs=1e-12)

    def test_matches_scipy_stats_bit_for_bit(self):
        from scipy import stats

        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 400))
            a = rng.normal(size=n)
            b = a + rng.normal(scale=rng.choice([0.01, 0.3, 3.0]), size=n) + 0.1
            diff = a - b
            t_stat = float(diff.mean()) / (float(diff.std(ddof=1)) / math.sqrt(n))
            assert paired_t_test(a, b) == float(2.0 * stats.t.sf(abs(t_stat), n - 1))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            paired_t_test(np.zeros(3), np.zeros(4))

    def test_too_short(self):
        with pytest.raises(DataError):
            paired_t_test(np.zeros(1), np.zeros(1))
