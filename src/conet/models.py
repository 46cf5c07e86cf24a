"""Model architectures: base MLP, MLP++, cross-stitch and cross-connection nets.

Every architecture is one :class:`Model`: a target tower, for all but
``mlp`` a source tower over the same users, and a coupling step at each
hidden transition. A tower concatenates a user embedding and an item
embedding and pushes them through ReLU layers to a logistic output. The
architectures differ only in the towers present and in the coupling:

* ``mlp``    the target tower alone, no coupling;
* ``mlp++``  both towers, coupled only through the shared user embedding;
* ``csn``    cross-stitch coupling: activations are mixed between towers
             with a scalar pair ``alpha_k`` before each hidden layer, which
             forces equal layer widths;
* ``conet``  cross connections: each hidden transition adds a learned
             transfer matrix ``H_k`` carrying the other tower's activations,
             the same matrix in both directions. With an L1 penalty on
             ``H`` this is the sparse variant.

Since the towers and the layer arithmetic are shared, the ablation
identities hold by construction: ``conet`` with every ``H_k`` at zero
computes ``mlp++``, and ``mlp++`` with two user embeddings computes two
independent ``mlp`` towers.

Parameters live in a flat ``dict[str, np.ndarray]`` so the optimizer,
the checkpoint format and the gradient checks can treat every model
uniformly. Gradients are hand-derived per layer; there is no autodiff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .numerics import INIT_STD, derive_rng, sigmoid

__all__ = [
    "ARCHITECTURES",
    "ModelConfig",
    "DomainSizes",
    "Model",
    "RowGradient",
    "Trace",
    "build_model",
    "lasso_penalty",
]

ARCHITECTURES = ("mlp", "mlp++", "csn", "conet")

# Coupling step at each hidden transition, per architecture.
_COUPLING = {"mlp": None, "mlp++": None, "csn": "stitch", "conet": "cross"}

# Initial cross-stitch pair (self weight, transfer weight) of every alpha_k.
CSN_ALPHA_INIT = (0.9, 0.1)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and size choices for one run.

    The merged embedding (length ``2 * embedding_dim``) feeds the first
    hidden layer, so ``2 * embedding_dim`` must equal ``hidden_widths[0]``.
    ``lasso_lambda`` only matters for ``conet``; zero keeps the transfer
    matrices dense, a positive value trains the sparse variant. A config
    checks itself when it is built, ``dataclasses.replace`` included, and
    raises :class:`ConfigError` on an invalid combination.
    """

    architecture: str = "conet"
    embedding_dim: int = 32
    hidden_widths: tuple = (64, 32, 16, 8)
    lasso_lambda: float = 0.1
    share_user_embedding: bool = True

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.architecture!r}; pick one of {ARCHITECTURES}")
        if not self.hidden_widths:
            raise ConfigError("hidden_widths must not be empty")
        if any(w < 1 for w in self.hidden_widths):
            raise ConfigError("hidden widths must be positive")
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be positive")
        if 2 * self.embedding_dim != self.hidden_widths[0]:
            raise ConfigError(
                "merged embedding feeds the first hidden layer: need "
                f"2 * embedding_dim == hidden_widths[0], got {2 * self.embedding_dim} "
                f"vs {self.hidden_widths[0]}"
            )
        if self.architecture == "csn" and len(set(self.hidden_widths)) != 1:
            raise ConfigError(
                "cross-stitch units mix same-shaped activations and cannot connect "
                f"hidden layers of different widths; got {tuple(self.hidden_widths)}"
            )
        if not math.isfinite(self.lasso_lambda) or self.lasso_lambda < 0:
            raise ConfigError(f"lasso_lambda must be finite and >= 0, got {self.lasso_lambda}")
        if not self.share_user_embedding and self.architecture != "mlp++":
            raise ConfigError("disabling the shared user embedding is an mlp++ ablation only")

    @property
    def num_transfer_matrices(self) -> int:
        return len(self.hidden_widths) - 1


@dataclass(frozen=True)
class DomainSizes:
    num_users: int
    num_items_target: int
    num_items_source: int = 0

    @classmethod
    def from_split(cls, split) -> "DomainSizes":
        """Table sizes of the train part of a leave-one-out split."""
        return cls(split.train.num_users, split.train.target.num_items,
                   split.train.source.num_items)


def lasso_penalty(h_matrices, lam: float) -> float:
    """L1 penalty ``lam * sum |h_ij|`` over all transfer matrices."""
    return lam * float(sum(np.abs(h).sum() for h in h_matrices))


# ---------------------------------------------------------------------------
# Towers and parameter layout


@dataclass(frozen=True)
class _Tower:
    """Parameter names of one tower, hidden layers in order."""

    domain: str
    user: str
    items: str
    weights: tuple
    biases: tuple
    out: str


def _towers(config: ModelConfig) -> tuple:
    depth = range(len(config.hidden_widths))

    def tower(domain, user, items, prefix):
        return _Tower(domain, user, items, tuple(f"W_{prefix}{k}" for k in depth),
                      tuple(f"b_{prefix}{k}" for k in depth),
                      f"h_{prefix[:-1]}" if prefix else "h")

    # mlp keeps the unprefixed names P, Q, W_k, b_k, h of the checkpoint format.
    if config.architecture == "mlp":
        return (tower("target", "P", "Q", ""),)
    source_user = "P" if config.share_user_embedding else "P_src"
    return (tower("target", "P", "Q_t", "t_"), tower("source", source_user, "Q_s", "s_"))


def _coupling_names(config: ModelConfig) -> list:
    coupling = _COUPLING[config.architecture]
    tag = {"cross": "H", "stitch": "alpha"}.get(coupling)
    return [f"{tag}_{k}" for k in range(config.num_transfer_matrices)] if tag else []


def _layout(config: ModelConfig, sizes: DomainSizes) -> list:
    """Each tensor's ``(name, shape, stream, scale)`` in creation order; ``build_model``
    draws it from ``N(0, scale^2)`` on that init stream, or with no stream fills in ``scale``."""
    d = config.embedding_dim
    widths = config.hidden_widths
    towers = _towers(config)
    layout = [(name, (sizes.num_users, d), name, INIT_STD)
              for name in dict.fromkeys(tower.user for tower in towers)]
    for tower in towers:
        num_items = sizes.num_items_target if tower.domain == "target" else sizes.num_items_source
        layout.append((tower.items, (num_items, d), f"Q_{tower.domain[0]}", INIT_STD))
    for tower in towers:
        # One weight matrix per layer, output weight last.
        stream = f"tower_{tower.domain[0]}"
        for weight, bias, w, fan_in in zip(tower.weights, tower.biases, widths,
                                           (2 * d,) + tuple(widths[:-1])):
            layout += [(weight, (w, fan_in), stream, np.sqrt(2.0 / fan_in)),
                       (bias, (w,), None, 0.0)]
        layout.append((tower.out, (widths[-1],), stream, np.sqrt(1.0 / widths[-1])))
    for k, name in enumerate(_coupling_names(config)):
        layout.append((name, (widths[k + 1], widths[k]), "H", INIT_STD) if name.startswith("H_")
                      else (name, (2,), None, CSN_ALPHA_INIT))
    return layout


# ---------------------------------------------------------------------------
# Parameter initialisation
#
# Embeddings and transfer matrices start at N(0, 0.01^2). Tower weights
# use fan-in-scaled Gaussians with zero biases: at the small desk scales
# this toolkit targets, an all-0.01 tower leaves pre-activations orders of
# magnitude below Adam's step size and whole ReLU layers drift into a
# dead (and absorbing) state before any signal can grow.


def build_model(config: ModelConfig, sizes: DomainSizes, seed: int) -> "Model":
    """Initialise a model of the configured architecture.

    Every tensor family draws from its own named stream, so the target
    tower of every architecture starts from the same values.
    """
    layout = _layout(config, sizes)
    streams = {s: derive_rng(seed, "init", s) for s in {s for _, _, s, _ in layout} - {None}}
    params = {name: np.full(shape, scale) if stream is None
              else streams[stream].normal(0.0, scale, size=shape)
              for name, shape, stream, scale in layout}
    return Model(config, sizes, params)


def _lookup(table, index):
    rows = table[index]
    rows[index < 0] = 0.0  # the sentinel item -1 (no history) reads as zeros
    return rows


def _as_index_array(v) -> np.ndarray:
    return np.atleast_1d(np.asarray(v, dtype=np.int64))


def _blocks(rows, num_users):
    # ``rows`` (whole users in turn, the same number each) as a per-user view.
    return rows.reshape(num_users, -1, rows.shape[1])


# Eval-mode scoring runs chunks of whole users of about this many rows:
# smaller chunks pay more calls per row, and past a few thousand rows a
# chunk's activations outgrow the caches and the peak memory grows.
_CHUNK_ROWS = 1000
# OpenBLAS 0.3 may round a gemm row differently in a call of fewer than
# about 70 rows. Eval mode pads the per-user source block that a cross
# connection multiplies at transition 1 to this size, one user's 100
# candidates, so that its rows keep the bits of the per-user reference.
_MIN_BLOCK_ROWS = 100


# ---------------------------------------------------------------------------
# The model


class RowGradient:
    """An embedding table's gradient from ``(rows, values)`` parts: the unique
    rows, ascending, and each one's entries summed by one bincount in input
    order from 0.0, as a dense scatter sums them. ``np.asarray`` gives the table."""

    def __init__(self, parts, shape):
        rows, values = (np.concatenate(column) for column in zip(*parts))
        self.rows, inverse = np.unique(rows, return_inverse=True)
        d = shape[1]
        cells = (inverse[:, None] * d + np.arange(d)).ravel()
        self.values = np.bincount(cells, values.ravel(), self.rows.size * d).reshape(-1, d)
        self.shape, self.size = shape, math.prod(shape)

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape, dtype=dtype)
        dense[self.rows] = self.values
        return dense


@dataclass
class Trace:
    """Intermediates of one forward pass, enough for backprop.

    ``items``, ``logits`` and ``probs`` hold one entry per tower, target
    first; ``inputs``, ``pres`` and ``acts`` hold one such list per hidden
    layer. ``inputs[k][i]`` is what layer ``k`` of tower ``i`` multiplies:
    the merged embedding for ``k = 0``, else the coupled activations of
    layer ``k - 1``. An eval-mode trace holds no per-layer entries, and
    its logits and probabilities are the target tower's alone.
    """

    users: np.ndarray
    items: list
    inputs: list
    pres: list
    acts: list
    logits: list

    @property
    def probs(self) -> list:
        """``sigmoid`` of each tower's logits, computed on access: a loss
        that reads the logits alone does not pay for them."""
        return [sigmoid(logits) for logits in self.logits]


class Model:
    """Target tower, optional source tower, and a coupling step per transition."""

    def __init__(self, config: ModelConfig, sizes: DomainSizes, params: dict):
        self.config = config
        self.params = params
        self.architecture = config.architecture
        self.towers = _towers(config)
        self.domains = tuple(t.domain for t in self.towers)
        self.coupling = _COUPLING[config.architecture]
        self.coupling_names = _coupling_names(config)
        if min(sizes.num_users, sizes.num_items_target) < 1 or (
                self.dual and sizes.num_items_source < 1):
            raise ConfigError(f"{self.architecture} needs at least one user and one item "
                              f"in each of its domains {self.domains}")
        expected = {name: shape for name, shape, _, _ in _layout(config, sizes)}
        if set(params) != set(expected):
            raise ConfigError(f"{self.architecture} parameter set mismatch: "
                              f"{sorted(set(params) ^ set(expected))}")
        for name, shape in expected.items():
            if params[name].shape != shape:
                raise ConfigError(f"{name} must have shape {shape}, got {params[name].shape}")
        # Parameters a batch of each domain updates: its own tower, plus the
        # shared user embedding and the coupling, which move with every batch.
        self.groups = {t.domain: (t.user, t.items, t.out, *t.weights, *t.biases,
                                  *self.coupling_names) for t in self.towers}

    @property
    def dual(self) -> bool:
        return len(self.towers) == 2

    # -- parameter groups

    def transfer_matrices(self) -> list:
        return [self.params[n] for n in self.coupling_names] if self.coupling == "cross" else []

    # -- forward

    def _transition(self, k: int, acts: list, target_only=False, num_users=None):
        """Inputs and pre-activations of hidden layer ``k`` from ``acts``.

        ``acts`` holds each tower's merged embedding for ``k = 0`` and its
        layer ``k - 1`` activations after; the coupling acts on the latter.
        ``target_only`` computes the target tower alone (eval mode's last
        layer). In eval mode's transition 1 ``acts[1]`` holds one source
        row per user, then padding, and ``acts[0]`` ``num_users`` blocks of
        target rows: each per-user term is broadcast over its user's block,
        and every row gets the bits it has in training mode.
        """
        p = self.params

        def spread(per_user):  # per-user rows, broadcast over each user's block
            return per_user if num_users is None else per_user[:num_users, None]

        def blocks(rows):
            return rows if num_users is None else _blocks(rows, num_users)

        inputs = acts[:1] if target_only else acts
        if k and self.coupling == "stitch":
            keep, transfer = p[self.coupling_names[k - 1]]
            own, other = blocks(acts[0]), spread(acts[1])
            mixes = ((own, other), (other, own))[: len(inputs)]
            inputs = [(keep * a + transfer * b).reshape(acts[0].shape[0], -1) for a, b in mixes]
        pres = [a @ p[t.weights[k]].T for t, a in zip(self.towers, inputs)]
        for t, pre in zip(self.towers, pres):
            pre += p[t.biases[k]]
        if k and self.coupling == "cross":
            h = p[self.coupling_names[k - 1]]
            target = blocks(pres[0])
            target += spread(acts[1] @ h.T)
            if not target_only:
                source = acts[0] @ h.T
                rows = blocks(source)
                rows += spread(pres[1])
                pres[1] = source
        return inputs, pres

    def forward_batch(self, users, items_target, items_source=None, halves=None) -> Trace:
        """Forward pass; ``items_source`` pairs a source item with each row.

        Single-tower models ignore ``items_source``. Passing ``halves``
        asks for eval mode, which scores the target tower only: the rows
        then come as whole users in turn, the same number per user, and
        ``items_source`` holds one item per user. Layer 0 adds a row's
        entries of ``halves`` (see ``score_candidates``); the source
        tower's runs once per user, each per-user term is broadcast over
        its user's rows, and the source tower's last layer is skipped.
        """
        users = _as_index_array(users)
        towers = self.towers if halves is None else self.towers[: len(halves)]
        items = [_as_index_array(v) for v in (items_target, items_source)[: len(towers)]]
        if users.min(initial=0) < 0 or min(it.min(initial=-1) for it in items) < -1:
            raise IndexError("user indices must be >= 0 and item indices >= -1 (no item)")
        trace = Trace(users=users, items=items, inputs=[], pres=[], acts=[], logits=[])
        if halves is not None:
            return self._score_forward(trace, halves, np.size(items_source))
        p = self.params
        acts = [np.concatenate([p[t.user][users], _lookup(p[t.items], it)], axis=1)
                for t, it in zip(towers, items)]
        for k in range(len(self.config.hidden_widths)):
            inputs, pres = self._transition(k, acts)
            acts = [np.maximum(pre, 0.0) for pre in pres]
            trace.inputs.append(inputs)
            trace.pres.append(pres)
            trace.acts.append(acts)
        trace.logits = [a @ p[t.out] for t, a in zip(towers, acts)]
        return trace

    def _score_forward(self, trace: Trace, halves: list, num_users: int) -> Trace:
        # Eval mode of ``forward_batch``. Item -1 reads the zero row at the
        # head of each item half, so every index moves up by one.
        # Activations are built in place, and none is kept.
        owners = trace.users[:: trace.users.size // num_users]
        (user_half, item_half), *source = halves
        rows = item_half[trace.items[0] + 1]
        blocks = _blocks(rows, num_users)
        blocks += user_half[owners][:, None]
        acts = [rows]
        if source:  # one source row per user, then zero rows up to a cross block
            user_half, item_half = source[0]
            padded = max(num_users, _MIN_BLOCK_ROWS if self.coupling == "cross" else 0)
            acts.append(np.zeros((padded, user_half.shape[1])))
            acts[1][:num_users] = user_half[owners] + item_half[trace.items[1] + 1]
        for a in acts:
            np.maximum(a, 0.0, out=a)
        depth = len(self.config.hidden_widths)
        for k in range(1, depth):
            acts = self._transition(k, acts, k == depth - 1, num_users if k == 1 else None)[1]
            for a in acts:
                np.maximum(a, 0.0, out=a)
        trace.logits = [acts[0] @ self.params[self.towers[0].out]]
        return trace

    # -- backward

    def _couple_backward(self, k: int, acts: list, d_pre: list, d_in: list,
                         grads: dict, want: set) -> list:
        """Deltas on layer ``k - 1`` activations from layer ``k``'s deltas.

        ``d_in`` holds the deltas on layer ``k``'s inputs, ``acts`` the
        layer ``k - 1`` activations; coupling gradients land in ``grads``.
        """
        p = self.params
        name = self.coupling_names[k - 1] if self.coupling else None
        if self.coupling == "cross":
            if name in want:
                # Both coupling directions feed the same matrix.
                grads[name] += d_pre[0].T @ acts[1] + d_pre[1].T @ acts[0]
            h = p[name]
            return [d_in[0] + d_pre[1] @ h, d_in[1] + d_pre[0] @ h]
        if self.coupling == "stitch":
            if name in want:
                grads[name] += np.array([
                    float((d_in[0] * acts[0]).sum() + (d_in[1] * acts[1]).sum()),
                    float((d_in[0] * acts[1]).sum() + (d_in[1] * acts[0]).sum()),
                ])
            keep, transfer = p[name]
            return [keep * d_in[0] + transfer * d_in[1], keep * d_in[1] + transfer * d_in[0]]
        return d_in

    def backward_batch(self, trace: Trace, labels_target=None, labels_source=None,
                       wanted=None) -> dict:
        """Gradients of the summed cross-entropy loss of the labelled sides.

        Either side's labels may be absent. Coupled towers exchange deltas, so both
        run and the shared user embedding collects contributions from both input
        paths and every transfer matrix from both coupling directions; an uncoupled
        tower runs only when it is labelled. Embedding tables get a :class:`RowGradient`.
        """
        want = set(self.params) if wanted is None else set(wanted)
        p = self.params
        d = self.config.embedding_dim
        labels = (labels_target, labels_source)[: len(self.towers)]
        live = [i for i, y in enumerate(labels) if self.coupling or y is not None]
        towers = [self.towers[i] for i in live]
        tables = {name for t in towers for name in (t.user, t.items)}
        grads = {name: np.zeros_like(p[name]) for name in want - tables}

        probs = trace.probs
        d_a = []
        for i, t in zip(live, towers):
            d_logit = (probs[i] - np.asarray(labels[i], dtype=np.float64)
                       if labels[i] is not None else np.zeros(trace.users.size))
            if t.out in want:
                grads[t.out] += d_logit @ trace.acts[-1][i]
            d_a.append(d_logit[:, None] * p[t.out][None, :])

        for k in range(len(self.config.hidden_widths) - 1, -1, -1):
            pres, inputs = trace.pres[k], trace.inputs[k]
            d_pre = [g * (pres[i] > 0) for i, g in zip(live, d_a)]
            for i, t, g in zip(live, towers, d_pre):
                if t.weights[k] in want:
                    grads[t.weights[k]] += g.T @ inputs[i]
                if t.biases[k] in want:
                    grads[t.biases[k]] += g.sum(axis=0)
            if k == 0:
                break
            d_in = [g @ p[t.weights[k]] for t, g in zip(towers, d_pre)]
            acts = trace.acts[k - 1]
            d_a = self._couple_backward(k, [acts[i] for i in live], d_pre, d_in, grads, want)

        # Each embedding table's rows and their deltas, the target tower's first.
        parts = {name: [] for name in tables & want}
        for i, t, g in zip(live, towers, d_pre):
            d_x = g @ p[t.weights[0]]
            valid = trace.items[i] >= 0
            for name, rows, values in ((t.user, trace.users, d_x[:, :d]),
                                       (t.items, trace.items[i][valid], d_x[valid, d:])):
                if name in parts:
                    parts[name].append((rows, values))
        grads.update((name, RowGradient(part, p[name].shape)) for name, part in parts.items())
        return grads

    # -- scoring

    def score_candidates(self, users, candidates, items_source=None) -> np.ndarray:
        """Target-domain probabilities of each user's row of ``candidates``.

        ``items_source`` pairs one source item (or -1) with each user of a
        coupled model. Users are scored in chunks of whole users. Layer 0 is
        linear in ``[p; q]``: a row adds its user's row of ``P W_0[:, :d]^T
        + b_0`` and its item's row of ``Q W_0[:, d:]^T``, halves computed
        once per call over whole tables so that a row's bits do not depend
        on the users sharing the call. Each item half starts with a zero
        row, which the sentinel -1 reads. An overflow, an invalid operation
        or a non-finite logit raises :class:`NumericError`, never a warning.
        """
        users = _as_index_array(users)
        candidates = np.asarray(candidates, dtype=np.int64).reshape(users.size, -1)
        sources = (np.full(users.size, -1, dtype=np.int64) if items_source is None
                   else _as_index_array(items_source))
        per_user = candidates.shape[1]
        step = max(1, _CHUNK_ROWS // per_user)
        scores = np.empty(candidates.shape)
        d, p = self.config.embedding_dim, self.params
        coupled = self.coupling and len(self.config.hidden_widths) > 1  # source reaches target
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                halves = []
                for t in self.towers if coupled else self.towers[:1]:
                    w = p[t.weights[0]]
                    item_half = np.zeros((p[t.items].shape[0] + 1, w.shape[0]))
                    item_half[1:] = p[t.items] @ w[:, d:].T
                    halves.append((p[t.user] @ w[:, :d].T + p[t.biases[0]], item_half))
                for start in range(0, users.size, step):
                    chunk = slice(start, start + step)
                    trace = self.forward_batch(np.repeat(users[chunk], per_user),
                                               candidates[chunk].ravel(), sources[chunk],
                                               halves=halves)
                    if not np.isfinite(trace.logits[0]).all():
                        raise FloatingPointError("non-finite logit")
                    scores[chunk] = trace.probs[0].reshape(-1, per_user)
        except FloatingPointError as exc:
            raise NumericError(f"scoring diverged: {exc}") from exc
        return scores
