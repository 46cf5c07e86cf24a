"""Losses, Adam with proximal L1 sparsification, and the two-domain loop.

One optimizer step consumes one mini-batch of a single domain. Batches
alternate target, source, target, source; a batch updates the shared
parameters (user embedding and any coupling parameters) plus that
domain's own tower, never the other tower. The L1 penalty on the
transfer matrices is applied proximally: after every Adam step each
entry is soft-thresholded by ``learning_rate * lasso_lambda``, which is
what produces exact zeros.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass
from typing import Optional

import numpy as np

from . import evaluation
from .data import LooSplit, epoch_batches, num_batches
from .errors import ConfigError, DataError, NumericError
from .models import DomainSizes, RowGradient, build_model, lasso_penalty
from .numerics import derive_rng

__all__ = [
    "TrainConfig",
    "Adam",
    "EpochStats",
    "Trainer",
    "ModelScorer",
    "make_scorer",
    "cross_entropy_from_logits",
    "proximal_l1",
    "sparsity_ratio",
]


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters. Defaults follow the experimental setup.

    A config checks itself when it is built, ``dataclasses.replace``
    included, and raises :class:`ConfigError` on an invalid value.
    """

    learning_rate: float = 0.001
    batch_size: int = 128
    negative_ratio: int = 1
    epochs: int = 30
    patience: Optional[int] = 5
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.learning_rate):
            raise ConfigError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.negative_ratio < 0:
            raise ConfigError("negative_ratio must be >= 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.patience is not None and self.patience < 1:
            raise ConfigError("patience must be >= 1 (or None to disable)")


# ---------------------------------------------------------------------------
# Losses


def cross_entropy_from_logits(logits, labels) -> float:
    """Summed binary cross-entropy of ``sigmoid(logits)``; stable for any logit.

    Uses ``softplus(z) - y * z`` with the overflow-free softplus form,
    mathematically identical to ``-sum(y log p + (1 - y) log(1 - p))``.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return float((softplus - y * z).sum())


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class _AdamSlot:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


class Adam:
    """Adam with bias correction over named parameter tensors.

    Each tensor carries its own update count for bias correction, so a
    tensor that is only touched by every other batch (a domain-specific
    tower in alternating training) sees exactly the same update sequence
    it would in a single-domain run. A step decays every moment, adds the
    gradient terms on the rows a :class:`RowGradient` touched, and moves
    every entry in place in the textbook formula's order, bit for bit.
    """

    beta1, beta2, epsilon = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        self.learning_rate = learning_rate
        self.slots: dict = {}
        self._scratch = np.empty((2, 0))

    def step(self, params: dict, grads: dict) -> None:
        """Apply one Adam update to every tensor present in ``grads``."""
        b1, b2, eps, lr = self.beta1, self.beta2, self.epsilon, self.learning_rate
        for name, g in grads.items():
            p = params[name]
            if p.shape != g.shape:
                raise ConfigError(f"gradient shape {g.shape} does not match {name} {p.shape}")
            slot = self.slots.get(name)
            if slot is None:
                slot = self.slots[name] = _AdamSlot(m=np.zeros_like(p), v=np.zeros_like(p))
            slot.t += 1
            m, v, t = slot.m, slot.v, slot.t
            m *= b1
            v *= b2
            if isinstance(g, RowGradient):
                touched = m[g.rows] + (1 - b1) * g.values
                m += 0.0  # an untouched row's (1 - b1) * 0.0 turns -0.0 into 0.0
                m[g.rows] = touched
                v[g.rows] += (1 - b2) * (g.values * g.values)  # v >= 0.0 is never -0.0
            else:
                m += (1 - b1) * g
                v += (1 - b2) * (g * g)
            if self._scratch.shape[1] < p.size:
                self._scratch = np.empty((2, p.size))
            s, u = self._scratch[:, : p.size].reshape(2, *p.shape)
            np.divide(m, 1 - b1 ** t, out=s)
            s *= lr
            np.sqrt(np.divide(v, 1 - b2 ** t, out=u), out=u)
            u += eps
            s /= u
            p -= s


def proximal_l1(h: np.ndarray, threshold: float) -> np.ndarray:
    """Soft-threshold every entry: sign(h) * max(|h| - threshold, 0)."""
    return np.sign(h) * np.maximum(np.abs(h) - threshold, 0.0)


def sparsity_ratio(h: np.ndarray) -> float:
    """Fraction of entries exactly equal to zero."""
    return float(np.count_nonzero(h == 0.0) / h.size)


# ---------------------------------------------------------------------------
# Epoch statistics


@dataclass
class EpochStats:
    """Per-epoch record: losses, validation ranking metrics, H sparsity."""

    epoch: int
    loss_target: float
    loss_source: float
    penalty: float
    val_hr: float
    val_ndcg: float
    val_mrr: float
    h_zero_ratios: list

    def to_json_line(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json_line(cls, line: str) -> "EpochStats":
        """One ``history.jsonl`` record; its losses and metrics may be any float, NaN included."""
        try:
            stats = cls(**json.loads(line))
        except (ValueError, TypeError) as exc:
            raise DataError(f"malformed history line ({exc})") from exc
        epoch, *metrics, ratios = astuple(stats)
        if type(epoch) is not int or epoch < 1:
            problem = f"epoch must be an integer >= 1, got {epoch!r}"
        elif any(type(x) not in (int, float) for x in metrics):
            problem = "losses and metrics must be numbers"
        elif type(ratios) is not list or any(type(r) not in (int, float) or not 0 <= r <= 1
                                             for r in ratios):
            problem = "h_zero_ratios must be a list of numbers in [0, 1]"
        else:
            return stats
        raise DataError(f"malformed history line ({problem})")


# ---------------------------------------------------------------------------
# Scoring adapter


class ModelScorer:
    """Deterministic (users, candidates) -> probabilities view of a trained model.

    Coupled models are driven with eval-mode source pairing: each user's
    smallest-index source interaction, or the zero-embedding sentinel for
    users without source history.
    """

    def __init__(self, model, source_train):
        self.model = model
        self.source_train = source_train

    def score_items(self, users, candidates) -> np.ndarray:
        """Probabilities ``(U, C)`` of each user's row of candidate items."""
        users = np.asarray(users, dtype=np.int64)
        sources = self.source_train.pick_items(users) if self.model.dual else None
        return self.model.score_candidates(users, candidates, sources)


def make_scorer(model, split: LooSplit) -> ModelScorer:
    return ModelScorer(model, split.train.source)


# ---------------------------------------------------------------------------
# Training loop


class Trainer:
    """Alternating two-domain mini-batch training of one model.

    All randomness comes from streams derived from ``config.seed``: one
    batch stream and one pairing stream per domain. An epoch is defined
    over the larger domain; the smaller domain's batch stream simply
    continues (reshuffling as it wraps) so both domains see at least one
    full pass per epoch.
    """

    def __init__(self, model, split: LooSplit, config: TrainConfig):
        self.model = model
        self.split = split
        self.config = config
        self.optimizer = Adam(config.learning_rate)
        self._epoch = 0
        self._pair_rng = {d: derive_rng(config.seed, "pairing", d) for d in ("target", "source")}
        self._iters = {domain: self._cycle(domain) for domain in model.domains}

    @classmethod
    def for_split(cls, model_config, split: LooSplit, config: TrainConfig) -> "Trainer":
        """A new ``model_config`` model sized by ``split`` and drawn from ``config.seed``."""
        sizes = DomainSizes.from_split(split)
        return cls(build_model(model_config, sizes, config.seed), split, config)

    def _cycle(self, domain: str):
        cfg = self.config
        rng = derive_rng(cfg.seed, "batches", domain)
        while True:
            yield from epoch_batches(getattr(self.split.train, domain), domain, cfg.batch_size,
                                     cfg.negative_ratio, rng)

    def _paired_items(self, domain: str, users: np.ndarray) -> np.ndarray:
        # For a target batch, pick one source item per example (and vice
        # versa) so the coupled forward pass has both inputs: uniform over
        # the user's interactions there, or the sentinel -1 (a zero item
        # half) for a user without history there.
        other = self.split.train.source if domain == "target" else self.split.train.target
        return other.pick_items(users, self._pair_rng[domain])

    def _train_step(self, domain: str) -> tuple:
        model = self.model
        batch = next(self._iters[domain])
        items = [batch.items if d == domain else self._paired_items(domain, batch.users)
                 for d in model.domains]
        labels = [batch.labels if d == domain else None for d in model.domains]
        trace = model.forward_batch(batch.users, *items)
        loss = cross_entropy_from_logits(trace.logits[model.domains.index(domain)], batch.labels)
        grads = model.backward_batch(trace, *labels, wanted=model.groups[domain])
        if not math.isfinite(loss):
            raise FloatingPointError("non-finite training loss")
        self.optimizer.step(model.params, grads)
        lam = model.config.lasso_lambda
        if lam > 0:
            threshold = self.config.learning_rate * lam
            for h in model.transfer_matrices():
                h[:] = proximal_l1(h, threshold)
        return loss, len(batch)

    def train_epoch(self) -> EpochStats:
        """One alternating pass; returns losses, validation metrics, sparsity.

        An overflow, invalid operation or division by zero in a step, or a
        non-finite loss, raises :class:`NumericError` naming the epoch,
        step and domain. Underflow stays silent: ``sigmoid`` and the
        softplus underflow legitimately. Validation scoring raises its own
        (see ``Model.score_candidates``).
        """
        model = self.model
        cfg = self.config
        self._epoch += 1
        steps = max(num_batches(getattr(self.split.train, d), cfg.batch_size)
                    for d in model.domains)
        sums = {"target": 0.0, "source": 0.0}
        counts = {"target": 0, "source": 0}
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for step in range(steps):
                    for domain in model.domains:
                        loss, n = self._train_step(domain)
                        sums[domain] += loss
                        counts[domain] += n
        except FloatingPointError as exc:
            raise NumericError(f"numeric divergence at epoch {self._epoch}, step {step} "
                               f"({domain} batch): {exc}") from exc
        val = self._validation_metrics()
        matrices = model.transfer_matrices()
        return EpochStats(
            epoch=self._epoch,
            loss_target=sums["target"] / counts["target"],
            loss_source=sums["source"] / counts["source"] if counts["source"] else 0.0,
            penalty=lasso_penalty(matrices, model.config.lasso_lambda),
            val_hr=val.hr,
            val_ndcg=val.ndcg,
            val_mrr=val.mrr,
            h_zero_ratios=[sparsity_ratio(h) for h in matrices],
        )

    def _validation_metrics(self):
        scorer = make_scorer(self.model, self.split)
        return evaluation.evaluate(scorer, self.split, partition="validation")

    def fit(self) -> list:
        """Run up to ``epochs`` epochs with early stopping on validation NDCG.

        Leaves the model at the best-validation parameters and that epoch's
        stats in ``best`` (None after zero epochs); returns every epoch's stats.
        """
        cfg = self.config
        best_params = dict(self.model.params)  # the first epoch always replaces these
        self.best = None
        bad = 0
        stats = []
        for _ in range(cfg.epochs):
            st = self.train_epoch()
            stats.append(st)
            if self.best is None or st.val_ndcg > self.best.val_ndcg:
                self.best = st
                best_params = {k: v.copy() for k, v in self.model.params.items()}
                bad = 0
            else:
                bad += 1
                if cfg.patience is not None and bad >= cfg.patience:
                    break
        for k in self.model.params:
            self.model.params[k] = best_params[k]
        return stats
