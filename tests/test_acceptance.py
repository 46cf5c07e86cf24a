"""Acceptance suite: one test per acceptance criterion.

Each test prints a `[acceptance] criterion NN ...: PASS/FAIL` line (visible
with `pytest tests/test_acceptance.py -v -s`). The synthetic-study criteria
share one generator configuration: 1000 users, target density 0.5% over
1600 items, source density 1.5% over 1000 items, relatedness 0.9. Sizes
and epoch budgets not pinned by a criterion are chosen for desk-scale
runtimes.

Criterion 10 needs a real two-domain dataset and is opt-in: point
CONET_AMAZON_DIR at a directory containing books.tsv and movies.tsv
(binarized `user<TAB>item` interactions) to enable it.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from conet.checkpoint import load_checkpoint, save_checkpoint
from conet.cli import main
from conet.data import (
    CrossDomainDataset,
    SyntheticConfig,
    align_domains,
    generate_synthetic,
    load_interactions,
    loo_split,
)
from conet.errors import ConfigError
from conet.evaluation import evaluate, paired_t_test
from conet.models import DomainSizes, ModelConfig, build_model
from conet.numerics import derive_rng
from conet.studies import model_config_for, reduce_study
from conet.training import TrainConfig, Trainer, make_scorer, sparsity_ratio

from conftest import freeze_cross_at_zero, from_adjacency, gradient_check


def record(num, name, ok, detail=""):
    print(f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")


# ---------------------------------------------------------------------------
# Shared synthetic study setup (criteria 4, 5, 7, 8)

_STUDY_CACHE = {}


def study_split(seed):
    if seed not in _STUDY_CACHE:
        data = generate_synthetic(SyntheticConfig(seed=seed))
        _STUDY_CACHE[seed] = (data, loo_split(data, derive_rng(seed, "split")))
    return _STUDY_CACHE[seed]


def sizes_of(split):
    return DomainSizes(split.train.num_users, split.train.target.num_items,
                       split.train.source.num_items)


def train_arch(arch, split, seed, epochs, patience, lasso_lambda=0.1):
    base = ModelConfig(architecture="conet", lasso_lambda=lasso_lambda)
    config = model_config_for(arch, base)
    model = build_model(config, sizes_of(split), seed)
    stats = Trainer(model, split, TrainConfig(epochs=epochs, patience=patience,
                                              seed=seed)).fit()
    report = evaluate(make_scorer(model, split), split, partition="test")
    return model, stats, report


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_oracle():
    """Analytic gradients of the smooth joint loss match central differences.

    Tolerance per coordinate: |analytic - numeric| <= 1e-8 + 1e-5 * scale;
    the absolute floor covers exactly-zero coordinates (untouched embedding
    rows) where the finite-difference noise floor (~1e-9) dominates any
    pure ratio. CSN runs at uniform widths (8, 8, 8) since the tower
    pattern is refused for it by construction (see criterion 6).
    """
    start = time.monotonic()
    worst = {}
    for arch in ("mlp", "mlp++", "csn", "conet"):
        worst[arch] = max(gradient_check(arch, seed) for seed in range(10))
    elapsed = time.monotonic() - start
    ok = all(v <= 1.0 for v in worst.values()) and elapsed < 10.0
    detail = ", ".join(f"{a}={v:.3f}" for a, v in worst.items())
    record(1, "gradient oracle", ok, f"(tolerance ratios {detail}; {elapsed:.1f}s)")
    assert all(v <= 1.0 for v in worst.values())
    assert elapsed < 10.0


def _equal_volume_split():
    # 10 target interactions per user leave 8 in train after the holdout,
    # matching the 8 source interactions, so both domains have identical
    # batch schedules and epoch boundaries.
    rng = np.random.default_rng(123)
    num_users, n_t, n_s = 30, 150, 140
    t_adj = [sorted(rng.choice(n_t, 10, replace=False)) for _ in range(num_users)]
    s_adj = [sorted(rng.choice(n_s, 8, replace=False)) for _ in range(num_users)]
    data = CrossDomainDataset(target=from_adjacency(num_users, n_t, t_adj),
                              source=from_adjacency(num_users, n_s, s_adj))
    return loo_split(data, derive_rng(7, "split")), DomainSizes(num_users, n_t, n_s)


def test_criterion_02_decoupling_oracle():
    """Zeroed coupling reduces each model to its simpler sibling bit-exactly."""
    start = time.monotonic()
    split, sizes = _equal_volume_split()
    seed = 42
    tc = TrainConfig(epochs=4, batch_size=32, seed=seed, patience=None)

    def predictions(model):
        candidates = np.column_stack([split.test, split.eval_negatives])
        return make_scorer(model, split).score_items(split.users, candidates).ravel()

    conet = build_model(ModelConfig(architecture="conet", embedding_dim=4,
                                    hidden_widths=(8, 4, 2), lasso_lambda=0.1),
                        sizes, seed)
    freeze_cross_at_zero(conet)
    Trainer(conet, split, tc).fit()
    mlppp = build_model(ModelConfig(architecture="mlp++", embedding_dim=4,
                                    hidden_widths=(8, 4, 2), lasso_lambda=0.0),
                        sizes, seed)
    Trainer(mlppp, split, tc).fit()
    frozen_matches = np.array_equal(predictions(conet), predictions(mlppp))

    unshared = build_model(ModelConfig(architecture="mlp++", embedding_dim=4,
                                       hidden_widths=(8, 4, 2), lasso_lambda=0.0,
                                       share_user_embedding=False), sizes, seed)
    Trainer(unshared, split, tc).fit()
    mlp = build_model(ModelConfig(architecture="mlp", embedding_dim=4,
                                  hidden_widths=(8, 4, 2), lasso_lambda=0.0),
                      sizes, seed)
    Trainer(mlp, split, tc).fit()
    unshared_matches = np.array_equal(predictions(unshared), predictions(mlp))

    elapsed = time.monotonic() - start
    ok = frozen_matches and unshared_matches and elapsed < 30.0
    record(2, "decoupling oracle", ok,
           f"(conet(H=0)==mlp++: {frozen_matches}, mlp++(unshared)==mlp: "
           f"{unshared_matches}; {elapsed:.1f}s)")
    assert frozen_matches
    assert unshared_matches
    assert elapsed < 30.0


def test_criterion_03_metric_oracle(small_split):
    """Aggregates match a brute-force recount bitwise; spot values forced."""
    rng = np.random.default_rng(20240817)
    num_users = 200
    data_scores = {u: rng.normal(size=100) for u in range(num_users)}

    from conftest import make_cross_domain

    data = make_cross_domain(num_users=num_users, per_user_target=6,
                             per_user_source=4, n_target=150, n_source=120, seed=7)
    split = loo_split(data, derive_rng(7, "split"))

    class Scorer:
        def score_items(self, users, candidates):
            return np.stack([data_scores[u][: candidates.shape[1]] for u in users.tolist()])

    report = evaluate(Scorer(), split)
    hr_sum = ndcg_sum = mrr_sum = 0.0
    for u in split.users.tolist():
        vec = data_scores[u]
        position = 1
        for s in vec[1:100]:
            if s >= vec[0]:
                position += 1
        if position <= 10:
            hr_sum += 1.0
            ndcg_sum += math.log(2.0) / math.log(position + 1.0)
            mrr_sum += 1.0 / position
    bitwise = (report.hr == hr_sum / num_users
               and report.ndcg == ndcg_sum / num_users
               and report.mrr == mrr_sum / num_users)

    spot_ndcg = math.log(2.0) / math.log(3 + 1.0) == 0.5
    spot_mrr = 1.0 / 4 == 0.25
    ok = bitwise and spot_ndcg and spot_mrr
    record(3, "metric oracle", ok,
           f"(bitwise match over {num_users} users: {bitwise}; "
           f"NDCG(p=3)=0.5: {spot_ndcg}; MRR(p=4)=0.25: {spot_mrr})")
    assert ok


def test_criterion_04_transfer_benefit_on_synthetic_data():
    """Cross connections beat the single-domain baseline on related domains."""
    seeds = range(5)
    conet_scores, mlp_scores = [], []
    for seed in seeds:
        _, split = study_split(seed)
        _, _, conet_report = train_arch("conet", split, seed, epochs=15, patience=5)
        _, _, mlp_report = train_arch("mlp", split, seed, epochs=15, patience=5)
        conet_scores.append(conet_report.ndcg)
        mlp_scores.append(mlp_report.ndcg)
    mean_conet = float(np.mean(conet_scores))
    mean_mlp = float(np.mean(mlp_scores))
    relative = (mean_conet - mean_mlp) / mean_mlp
    p_value = paired_t_test(np.asarray(conet_scores), np.asarray(mlp_scores))
    ok = mean_conet > mean_mlp and (p_value < 0.05 or relative >= 0.02)
    record(4, "transfer benefit", ok,
           f"(mean NDCG conet={mean_conet:.4f} vs mlp={mean_mlp:.4f}, "
           f"+{100 * relative:.1f}%, p={p_value:.4g}, 5 seeds)")
    assert ok


def test_criterion_05_sparsity_monotone_in_lambda():
    """Mean exact-zero ratio of the transfer matrices is nondecreasing in lambda."""
    lambdas = [0.0, 0.1, 1.0, 10.0]
    seeds = range(3)
    ratios = {seed: [] for seed in seeds}
    for seed in seeds:
        _, split = study_split(seed)
        for lam in lambdas:
            model, _, _ = train_arch("sconet" if lam > 0 else "conet", split, seed,
                                     epochs=8, patience=None, lasso_lambda=lam)
            matrices = model.transfer_matrices()
            ratios[seed].append(float(np.mean([sparsity_ratio(h) for h in matrices])))
    pair_votes = []
    for a, b in zip(range(3), range(1, 4)):
        votes = sum(ratios[seed][a] <= ratios[seed][b] for seed in seeds)
        pair_votes.append(votes)
    lam0_ok = all(ratios[seed][0] < 0.01 for seed in seeds)
    lam10_ok = all(ratios[seed][3] > 0.99 for seed in seeds)
    monotone_ok = all(v >= 2 for v in pair_votes)
    ok = lam0_ok and lam10_ok and monotone_ok
    detail = {seed: [f"{r:.3f}" for r in ratios[seed]] for seed in seeds}
    record(5, "sparsity behavior", ok,
           f"(zero ratios per seed {detail}, adjacent-pair votes {pair_votes})")
    assert monotone_ok
    assert lam0_ok
    assert lam10_ok


def test_criterion_06_csn_width_refusal():
    """The tower pattern is refused for cross-stitch coupling, uniform accepted."""
    refused = False
    try:
        ModelConfig(architecture="csn", embedding_dim=32, hidden_widths=(64, 32, 16, 8))
    except ConfigError:
        refused = True
    uniform = ModelConfig(architecture="csn", embedding_dim=32,
                          hidden_widths=(64, 64, 64, 64))
    model = build_model(uniform, DomainSizes(20, 30, 30), seed=0)
    built = model.architecture == "csn"
    ok = refused and built
    record(6, "csn width refusal", ok,
           f"(tower widths refused: {refused}, uniform widths build: {built})")
    assert ok


def test_criterion_07_optimization_sanity():
    """Loss drops within 15 epochs and the selected checkpoint beats epoch 1."""
    _, split = study_split(0)
    model = build_model(ModelConfig(architecture="conet", lasso_lambda=0.1),
                        sizes_of(split), 0)
    trainer = Trainer(model, split, TrainConfig(epochs=15, patience=None, seed=0))
    stats = trainer.fit()
    assert len(stats) == 15
    loss_drops = (stats[14].loss_target < stats[0].loss_target
                  and stats[14].loss_source < stats[0].loss_source)
    best_ndcg = max(st.val_ndcg for st in stats)
    checkpoint_ok = best_ndcg >= stats[0].val_ndcg
    ok = loss_drops and checkpoint_ok
    record(7, "optimization sanity", ok,
           f"(target loss {stats[0].loss_target:.4f}->{stats[14].loss_target:.4f}, "
           f"source {stats[0].loss_source:.4f}->{stats[14].loss_source:.4f}, "
           f"val NDCG epoch1 {stats[0].val_ndcg:.4f} vs best {best_ndcg:.4f})")
    assert ok


def test_criterion_08_reduction_study_mechanics():
    """Train-set sizes shrink monotonically and SCoNet holds at level 0."""
    _, split = study_split(0)
    base = ModelConfig(architecture="conet", lasso_lambda=0.1)
    report = reduce_study(split, [0, 1, 2], base,
                          TrainConfig(epochs=12, patience=5, seed=0))
    mlp_row = report.rows[0]
    sconet_rows = report.rows[1:]
    sizes = [row.details["train_size"] for row in sconet_rows]
    monotone = sizes[0] > sizes[1] > sizes[2]
    columns = all("removed" in row.details and "removed_percent" in row.details
                  for row in sconet_rows)
    level0_ok = sconet_rows[0].metrics.ndcg >= mlp_row.metrics.ndcg
    ok = monotone and columns and level0_ok
    record(8, "reduction mechanics", ok,
           f"(train sizes {sizes}, removed "
           f"{[row.details['removed'] for row in sconet_rows]} "
           f"({[round(row.details['removed_percent'], 2) for row in sconet_rows]}%), "
           f"level-0 NDCG {sconet_rows[0].metrics.ndcg:.4f} vs mlp "
           f"{mlp_row.metrics.ndcg:.4f})")
    assert ok


def test_criterion_09_determinism_and_round_trip(tmp_path):
    """Same config and seed reproduce bit-identical artifacts end to end."""
    gen_flags = ["--users", "24", "--items-target", "120", "--items-source", "120",
                 "--latent-dim", "4", "--target-density", "0.05",
                 "--source-density", "0.05", "--seed", "3"]
    data_dir = tmp_path / "data"
    assert main(["generate", *gen_flags, "--out", str(data_dir)]) == 0

    def run(tag):
        out = tmp_path / tag
        code = main([
            "train", "--architecture", "sconet", "--embedding-dim", "4",
            "--hidden-widths", "8,4,2", "--epochs", "3", "--batch-size", "32",
            "--target", str(data_dir / "target.tsv"),
            "--source", str(data_dir / "source.tsv"),
            "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        eval_out = tmp_path / f"{tag}-eval"
        code = main([
            "evaluate", "--checkpoint", str(out / "model.ckpt"),
            "--target", str(data_dir / "target.tsv"),
            "--source", str(data_dir / "source.tsv"),
            "--split", str(out / "split.json"), "--out", str(eval_out),
        ])
        assert code == 0
        return out, eval_out

    run1, eval1 = run("r1")
    run2, eval2 = run("r2")
    ckpt_same = (run1 / "model.ckpt").read_bytes() == (run2 / "model.ckpt").read_bytes()
    hist_same = (run1 / "history.jsonl").read_bytes() == (run2 / "history.jsonl").read_bytes()
    split_same = (run1 / "split.json").read_bytes() == (run2 / "split.json").read_bytes()
    report_same = (eval1 / "metrics.json").read_bytes() == (eval2 / "metrics.json").read_bytes()

    model = load_checkpoint(run1 / "model.ckpt")
    copy_path = tmp_path / "copy.ckpt"
    save_checkpoint(model, copy_path)
    round_trip = (run1 / "model.ckpt").read_bytes() == copy_path.read_bytes()

    ok = ckpt_same and hist_same and split_same and report_same and round_trip
    record(9, "determinism & round-trip", ok,
           f"(checkpoint {ckpt_same}, history {hist_same}, split {split_same}, "
           f"report {report_same}, save/load round-trip {round_trip})")
    assert ok


AMAZON_DIR = os.environ.get("CONET_AMAZON_DIR", "")


def _cap_users(data, max_users):
    if data.num_users <= max_users:
        return data

    def subset(ds):
        item_map = {}
        item_ids = []
        adjacency = []
        for u in range(max_users):
            row = []
            for i in ds.items_of(u):
                i = int(i)
                if i not in item_map:
                    item_map[i] = len(item_ids)
                    item_ids.append(ds.item_ids[i] if ds.item_ids else str(i))
                row.append(item_map[i])
            adjacency.append(row)
        return from_adjacency(max_users, len(item_ids), adjacency,
                              user_ids=ds.user_ids[:max_users] if ds.user_ids else None,
                              item_ids=item_ids)

    return CrossDomainDataset(target=subset(data.target), source=subset(data.source))


@pytest.mark.skipif(not AMAZON_DIR, reason="opt-in: set CONET_AMAZON_DIR to enable")
def test_criterion_10_amazon_subset_direction():
    """On a real Books/Movies subset the sparse transfer model holds its lead."""
    books = load_interactions(os.path.join(AMAZON_DIR, "books.tsv"),
                              min_user_interactions=3)
    movies = load_interactions(os.path.join(AMAZON_DIR, "movies.tsv"),
                               min_user_interactions=1)
    data = _cap_users(align_domains(books, movies), 5000)
    split = loo_split(data, derive_rng(0, "split"))
    _, _, sconet_report = train_arch("sconet", split, 0, epochs=10, patience=3)
    _, _, mlp_report = train_arch("mlp", split, 0, epochs=10, patience=3)
    ok = sconet_report.ndcg >= mlp_report.ndcg
    record(10, "amazon subset direction", ok,
           f"(sconet NDCG {sconet_report.ndcg:.4f} vs mlp {mlp_report.ndcg:.4f}, "
           f"{data.num_users} users)")
    assert ok
