"""Reference oracles and the harness for gradient checks, shared by the test modules.

The oracles here share no code with the program: per-example reference
arithmetic that the batched model path is compared against. Test modules
import them as ``oracles``; ``conftest.py`` holds only fixtures, since
``perfbench/tests`` has a ``conftest`` of its own in the same pytest run.
"""

import json
import math

import numpy as np

from conet.data import CrossDomainDataset, InteractionDataset
from conet.errors import DataError, NumericError
from conet.evaluation import MetricsReport, hit_ratio, mrr, ndcg
from conet.models import DomainSizes, Model, ModelConfig, build_model
from conet.numerics import sigmoid
from conet.training import cross_entropy_from_logits


# ---------------------------------------------------------------------------
# Reference oracles


def finite_difference_gradient(f, theta, eps):
    """Central-difference gradient of a scalar function of a flat vector.

    Evaluates ``(f(theta + eps * e_i) - f(theta - eps * e_i)) / (2 * eps)``
    per coordinate. This is the independent oracle used to verify every
    hand-derived backward pass; it must never call analytic gradient code.
    """
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    probe = theta.copy()
    for i in range(theta.size):
        probe[i] = theta[i] + eps
        hi = f(probe)
        probe[i] = theta[i] - eps
        lo = f(probe)
        probe[i] = theta[i]
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError(f"finite_difference_gradient: non-finite value at coordinate {i}")
        grad[i] = (hi - lo) / (2.0 * eps)
    return grad


def embed_lookup(p, q, user, item):
    """Merged input of one example: user row of ``p`` then item row of ``q``."""
    return np.concatenate([p[user], q[item]])


def affine(w, b, a):
    """One example's pre-activation ``w @ a + b``."""
    return w @ a + b


def cross_unit(w_t, b_t, w_s, b_s, h, a_t, a_s):
    """One example's coupled pre-activations at a cross-connection transition.

    ``(w_t @ a_t + b_t + h @ a_s, w_s @ a_s + b_s + h @ a_t)``: the same
    transfer matrix ``h`` carries information in both directions.
    """
    return affine(w_t, b_t, a_t) + h @ a_s, affine(w_s, b_s, a_s) + h @ a_t


def mask_sigmoid(x):
    """Logistic function by sign masks: ``1 / (1 + exp(-x))`` where ``x >= 0``,
    ``exp(x) / (1 + exp(x))`` elsewhere, each side gathered and scattered."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def cross_entropy_loss(predictions, labels):
    """Summed binary cross-entropy from probabilities strictly in (0, 1)."""
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def from_adjacency(num_users, num_items, adjacency, user_ids=None, item_ids=None):
    """Dataset in which user ``u`` holds the items ``adjacency[u]``.

    Users and items without given ids are named by their indices.
    """
    rows = [np.asarray(items, dtype=np.int64).ravel() for items in adjacency]
    users = np.repeat(np.arange(len(rows)), [row.size for row in rows])
    items = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    return InteractionDataset.from_pairs(
        num_users, num_items, users, items,
        [str(u) for u in range(num_users)] if user_ids is None else user_ids,
        [str(i) for i in range(num_items)] if item_ids is None else item_ids)


def reference_load_interactions(text, min_user_interactions):
    """The interaction log ``text`` (decoded) read line by line.

    Returns ``(user_ids, item_ids, adjacency)``: users in first-appearance
    order, items numbered by first appearance over the kept users' items
    walked user-major, and each user's item indices in file order, each
    once. Raises DataError with the loader's message, less its path prefix.
    """
    per_user, codes = {}, {}  # user -> its items' file-order codes, in order, once each
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2 or not parts[0] or not parts[1]:
            raise DataError(f"malformed line {lineno}: {line!r}")
        per_user.setdefault(parts[0], {})[codes.setdefault(parts[1], len(codes))] = None
    kept = [u for u, items in per_user.items() if len(items) >= min_user_interactions]
    if not kept:
        raise DataError("no interactions left after filtering")
    names, index = list(codes), {}
    adjacency = [[index.setdefault(names[c], len(index)) for c in per_user[u]] for u in kept]
    return tuple(kept), tuple(index), adjacency


def items_by_user(dataset):
    """Each user's items, ascending, as read-only views of ``dataset.indices``."""
    return np.split(dataset.indices, dataset.indptr[1:-1])


def held_by_user(split, partition="test"):
    """``{user: held-out item}`` of one partition of a split."""
    return dict(zip(split.users.tolist(), getattr(split, partition).tolist()))


def has(dataset, user, item):
    """True when ``user`` interacted with ``item`` in ``dataset``."""
    return item in dataset.items_of(user)


def reference_batches(dataset, batch_size, negative_ratio, rng):
    """Per-slot batch sampler: ``(users, items, labels)`` of one epoch.

    Shuffles the user-major positives, then draws each negative slot in
    turn, one scalar draw at a time, until it misses the user's items.
    """
    pairs = np.asarray([(u, int(i)) for u in range(dataset.num_users)
                        for i in dataset.items_of(u)], dtype=np.int64).reshape(-1, 2)
    order = rng.permutation(len(pairs))
    for start in range(0, order.size, batch_size):
        users, items, labels = [], [], []
        for u, i in pairs[order[start : start + batch_size]]:
            users.append(u)
            items.append(i)
            labels.append(1.0)
            adjacency = dataset.items_of(int(u))
            for _ in range(negative_ratio):
                while True:
                    j = int(rng.integers(dataset.num_items))
                    pos = np.searchsorted(adjacency, j)
                    if pos >= adjacency.size or adjacency[pos] != j:
                        break
                users.append(u)
                items.append(j)
                labels.append(0.0)
        yield np.asarray(users), np.asarray(items), np.asarray(labels)


def reference_eval_negatives(dataset, user, rng):
    """99 negatives drawn from the ``setdiff1d`` complement of the user's items."""
    eligible = np.setdiff1d(np.arange(dataset.num_items, dtype=np.int64), dataset.items_of(user))
    return rng.choice(eligible, size=99, replace=False).astype(np.int64)


def reference_loo_draws(data, rng):
    """``(test, validation, negatives)`` of a leave-one-out split, drawn user by user.

    Each user with at least three target items draws its two held-out
    items, then its negatives, in user-index order.
    """
    test, validation, negatives = {}, {}, {}
    for u in range(data.num_users):
        items = data.target.items_of(u)
        if items.size >= 3:
            test[u], validation[u] = rng.choice(items, size=2, replace=False).tolist()
            negatives[u] = reference_eval_negatives(data.target, u, rng)
    return test, validation, negatives


def reference_manifest_text(split):
    """The split manifest as ``json.dumps(..., indent=1)`` writes it, newline-terminated."""
    manifest = {
        "num_users": split.train.num_users,
        "num_items_target": split.train.target.num_items,
        "num_items_source": split.train.source.num_items,
        "test": {str(u): i for u, i in sorted(held_by_user(split, "test").items())},
        "validation": {str(u): i for u, i in sorted(held_by_user(split, "validation").items())},
        "eval_negatives": {str(u): [int(i) for i in negatives] for u, negatives in
                           sorted(zip(split.users.tolist(), split.eval_negatives.tolist()))},
    }
    return json.dumps(manifest, indent=1) + "\n"


def reference_pairing(dataset, users, rng):
    """Per-example train pairing: a uniform item of each user's, or -1 without a draw."""
    paired = []
    for u in users:
        items = dataset.items_of(int(u))
        paired.append(int(items[rng.integers(items.size)]) if items.size else -1)
    return np.asarray(paired, dtype=np.int64)


def reference_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Out-of-place Adam step, one temporary per operation of the formula.

    ``state`` maps each tensor name to its ``(m, v, t)``; a tensor absent
    from ``grads`` keeps its moments and its update count.
    """
    for name, g in grads.items():
        m, v, t = state.get(name, (np.zeros_like(g), np.zeros_like(g), 0))
        t += 1
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        state[name] = (m, v, t)


def dense_scatter(parts, shape):
    """An embedding table's dense gradient from ``(rows, values)`` parts.

    One bincount over the flat cells the rows touch, in the parts' order:
    each cell sums its values in input order, starting from 0.0, as
    ``np.add.at`` on a zeroed table does.
    """
    d = shape[1]
    cells = np.concatenate([(rows[:, None] * d + np.arange(d)).ravel() for rows, _ in parts])
    values = np.concatenate([values.ravel() for _, values in parts])
    return np.bincount(cells, values, minlength=math.prod(shape)).reshape(shape)


def rank_test_item(test_score, negative_scores):
    """1 + number of negatives scoring at least the test score.

    Ties count against the test item, so a constant scorer ranks it last.
    """
    negatives = np.asarray(negative_scores, dtype=np.float64)
    if not math.isfinite(test_score) or not np.all(np.isfinite(negatives)):
        raise NumericError("rank_test_item: scores must be finite")
    return 1 + int(np.count_nonzero(negatives >= test_score))


def reference_evaluate(score_user, split, partition="test", top_n=10):
    """Per-user ranking loop: one ``score_user(user, candidates)`` call per user.

    Users go in index order, each with its held-out item first and its 99
    frozen negatives after. Returns the ``(U, 100)`` scores and the report.
    """
    held = held_by_user(split, partition)
    negatives = dict(zip(split.users.tolist(), split.eval_negatives))
    users = sorted(held)
    rows, positions = [], []
    for user in users:
        candidates = np.concatenate([[held[user]], negatives[user]])
        scores = np.asarray(score_user(user, candidates), dtype=np.float64)
        rows.append(scores)
        positions.append(rank_test_item(float(scores[0]), scores[1:]))
    report = MetricsReport(hr=hit_ratio(positions, top_n), ndcg=ndcg(positions, top_n),
                           mrr=mrr(positions, top_n), users=users, positions=positions,
                           top_n=top_n)
    return np.stack(rows), report


def factored_forward(model, users, items_target, items_source=None):
    """Target probabilities of a forward whose layer 0 is split at ``d``.

    Layer 0 of each tower reads ``(P W_0[:, :d]^T + b_0)[user] +
    (Q W_0[:, d:]^T)[item]`` off products over the whole tables, an item
    of -1 adding zero; every later layer of both towers runs on every row,
    as in training mode.
    """
    p, d = model.params, model.config.embedding_dim
    acts = []
    for tower, items in zip(model.towers, (items_target, items_source)):
        w = p[tower.weights[0]]
        user_half = p[tower.user] @ w[:, :d].T + p[tower.biases[0]]
        item_half = p[tower.items] @ w[:, d:].T
        items = np.asarray(items, dtype=np.int64)
        item_rows = np.where((items >= 0)[:, None], item_half[items], 0.0)
        acts.append(np.maximum(user_half[np.asarray(users)] + item_rows, 0.0))
    for k in range(1, len(model.config.hidden_widths)):
        weights = [(p[t.weights[k]], p[t.biases[k]]) for t in model.towers]
        if model.coupling == "stitch":
            keep, transfer = p[f"alpha_{k - 1}"]
            acts = [keep * acts[0] + transfer * acts[1], keep * acts[1] + transfer * acts[0]]
        pres = [a @ w.T + b for (w, b), a in zip(weights, acts)]
        if model.coupling == "cross":
            h = p[f"H_{k - 1}"]
            pres = [pres[0] + acts[1] @ h.T, pres[1] + acts[0] @ h.T]
        acts = [np.maximum(pre, 0.0) for pre in pres]
    return sigmoid(acts[0] @ p[model.towers[0].out])


def per_user_scorer(model, split):
    """``score_user`` of one factored forward per user.

    Every row of a user pairs the source tower with the user's
    smallest-index source item, or with -1 when the user has none.
    """
    source = split.train.source

    def score_user(user, candidates):
        history = source.items_of(user)
        paired = int(history[0]) if history.size else -1
        rows = len(candidates)
        return factored_forward(model, np.full(rows, user), candidates, np.full(rows, paired))

    return score_user


def same_interactions(a, b):
    """True when two datasets hold the same users, items and adjacency."""
    return (a.num_users == b.num_users and a.num_items == b.num_items
            and all(np.array_equal(x, y) for x, y in zip(items_by_user(a), items_by_user(b))))


# ---------------------------------------------------------------------------
# Models and gradient checks

TINY_SIZES = DomainSizes(num_users=7, num_items_target=5, num_items_source=6)


def freeze_cross_at_zero(model):
    """Pin every transfer matrix of a ``conet`` model at zero, out of training.

    With the cross connections dead the coupled model must reduce exactly
    to two base networks sharing a user embedding. The matrices leave the
    model's update groups, so Adam never moves them, and the proximal L1
    step leaves a zero matrix at zero.
    """
    assert model.coupling == "cross", "only conet has transfer matrices to freeze"
    for h in model.transfer_matrices():
        h[:] = 0.0
    model.groups = {domain: tuple(name for name in group if name not in model.coupling_names)
                    for domain, group in model.groups.items()}


def tiny_model_config(arch):
    widths = (8, 8, 8) if arch == "csn" else (8, 4, 2)
    return ModelConfig(architecture=arch, embedding_dim=4, hidden_widths=widths,
                       lasso_lambda=0.0)


def tiny_scaled_model(arch, seed, unshared=False):
    cfg = tiny_model_config(arch)
    if unshared:
        cfg = ModelConfig(architecture="mlp++", embedding_dim=4, hidden_widths=(8, 4, 2),
                          lasso_lambda=0.0, share_user_embedding=False)
    model = build_model(cfg, TINY_SIZES, seed)
    # Embeddings start at 0.01; scale them to O(1) so activations are varied
    # and ReLU kinks sit far from the finite-difference probe.
    for name in ("P", "P_src", "Q", "Q_t", "Q_s"):
        if name in model.params:
            model.params[name] = model.params[name] * 100.0
    return model


def model_with(config, sizes, **params):
    """Model whose tensors are all zero except the given ones."""
    template = build_model(config, sizes, 0).params
    full = {name: np.zeros_like(v) for name, v in template.items()}
    full.update({name: np.asarray(v, dtype=np.float64) for name, v in params.items()})
    return Model(config, sizes, full)


def joint_loss_of(model, users, items_t, items_s, labels_t, labels_s):
    trace = model.forward_batch(users, items_t, items_s)
    return sum(cross_entropy_from_logits(logits, labels)
               for logits, labels in zip(trace.logits, (labels_t, labels_s)))


def gradient_check(arch, seed, batch=8, rtol=1e-5, atol=1e-8, unshared=False):
    """Max deviation of analytic gradients vs central differences.

    Returns the worst ratio |analytic - numeric| / (atol + rtol * scale)
    over every parameter coordinate of the smooth joint loss; values <= 1
    mean every coordinate is within tolerance.
    """
    model = tiny_scaled_model(arch, seed, unshared=unshared)
    # Move to a generic point: with zero-initialized biases an all-dead
    # layer puts the next pre-activation exactly on the ReLU kink, where a
    # two-sided difference measures a one-sided slope.
    jitter = np.random.default_rng(seed + 2000)
    for name in model.params:
        model.params[name] = model.params[name] + jitter.normal(
            scale=0.05, size=model.params[name].shape)
    rng = np.random.default_rng(seed + 1000)
    users = rng.integers(0, TINY_SIZES.num_users, size=batch)
    items_t = rng.integers(0, TINY_SIZES.num_items_target, size=batch)
    items_s = rng.integers(0, TINY_SIZES.num_items_source, size=batch)
    labels_t = rng.integers(0, 2, size=batch).astype(float)
    labels_s = rng.integers(0, 2, size=batch).astype(float)

    names = sorted(model.params)
    shapes = {n: model.params[n].shape for n in names}
    theta0 = flatten_params(model.params, names)

    trace = model.forward_batch(users, items_t, items_s)
    grads = model.backward_batch(trace, labels_target=labels_t, labels_source=labels_s)
    analytic = flatten_params(grads, names)

    # The probed model's tensors are views into one flat buffer, so a probe
    # costs a copy into it rather than a fresh set of tensors.
    buffer = theta0.copy()
    model.params = unflatten_params(buffer, shapes, names)

    def loss_at(theta):
        buffer[:] = theta
        return joint_loss_of(model, users, items_t, items_s, labels_t, labels_s)

    numeric = finite_difference_gradient(loss_at, theta0, 1e-6)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / (atol + rtol * scale)))


def flatten_params(params, names=None):
    names = sorted(params) if names is None else names
    return np.concatenate([np.asarray(params[n], dtype=np.float64).ravel() for n in names])


def unflatten_params(vec, shapes, names=None):
    names = sorted(shapes) if names is None else names
    out = {}
    pos = 0
    for n in names:
        size = math.prod(shapes[n])
        out[n] = np.asarray(vec[pos : pos + size]).reshape(shapes[n])
        pos += size
    return out


def make_cross_domain(num_users=12, per_user_target=6, per_user_source=5,
                      n_target=120, n_source=110, seed=0):
    rng = np.random.default_rng(seed)
    t_adj = [sorted(rng.choice(n_target, per_user_target, replace=False))
             for _ in range(num_users)]
    s_adj = [sorted(rng.choice(n_source, per_user_source, replace=False))
             for _ in range(num_users)]
    def ids(prefix, n):
        return [f"{prefix}{k}" for k in range(n)]
    return CrossDomainDataset(
        target=from_adjacency(num_users, n_target, t_adj,
                              user_ids=ids("u", num_users), item_ids=ids("t", n_target)),
        source=from_adjacency(num_users, n_source, s_adj,
                              user_ids=ids("u", num_users), item_ids=ids("s", n_source)),
    )
