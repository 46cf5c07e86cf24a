"""Interaction datasets, domain alignment, leave-one-out splits and sampling.

A dataset is a set of binary user-item interactions over dense indices,
stored once as CSR (``indptr``, ``indices``) with the matching sorted
user-major keys ``u * num_items + i``; batches, pairing, membership tests
and train-set edits work on those arrays. Two aligned datasets over one
shared user index space form a :class:`CrossDomainDataset`; the
leave-one-out split holds out one test and one validation interaction per
target-domain user and freezes the 99 ranking negatives so that every
model is evaluated on identical candidates.

Batch negatives are drawn for a whole batch at once but consume the
seeded stream exactly as drawing slot by slot until each slot accepts
would, so batches, splits and every artifact built on them are the same
bits as with a per-example sampler.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError, DataError
from .numerics import derive_rng

__all__ = [
    "InteractionDataset",
    "CrossDomainDataset",
    "LooSplit",
    "Batch",
    "SyntheticConfig",
    "read_text",
    "load_interactions",
    "write_interactions",
    "write_atomic",
    "align_domains",
    "loo_split",
    "sample_eval_negatives",
    "epoch_batches",
    "generate_synthetic",
    "reduce_training",
    "save_split_manifest",
    "load_split_manifest",
]

NUM_EVAL_NEGATIVES = 99
MIN_EVAL_INTERACTIONS = 3  # 1 test + 1 validation + at least 1 train


class InteractionDataset:
    """Binary implicit-feedback interactions of one domain, stored as CSR.

    User ``u``'s items are ``indices[indptr[u]:indptr[u + 1]]``, ascending;
    ``keys`` holds the same interactions as the sorted user-major keys
    ``u * num_items + i`` that membership tests search. The arrays are
    read-only. ``user_ids`` / ``item_ids`` keep the external identifiers,
    so that two domains can later be aligned over their shared users.
    """

    @classmethod
    def from_pairs(cls, num_users, num_items, users, items, user_ids, item_ids):
        """Dataset of the ``(users[k], items[k])`` interactions, in any order."""
        if num_users < 1 or num_items < 1:
            raise DataError("dataset needs at least one user and one item")
        dataset = cls.__new__(cls)
        dataset.num_users = int(num_users)
        dataset.num_items = int(num_items)
        users, items = np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64)
        bad = np.flatnonzero((users < 0) | (users >= num_users)
                             | (items < 0) | (items >= num_items))
        if bad.size:
            u, i = users[bad[0]], items[bad[0]]
            raise DataError(f"interaction (user {u}, item {i}) is out of range")
        keys = np.sort(users * dataset.num_items + items)
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if repeated.size:
            raise DataError(f"user {keys[repeated[0]] // num_items} has duplicate interactions")
        dataset.keys = keys
        dataset.indices = keys % num_items
        dataset.indptr = np.searchsorted(keys, np.arange(num_users + 1, dtype=np.int64) * num_items)
        for arr in (dataset.keys, dataset.indices, dataset.indptr):
            arr.flags.writeable = False
        dataset.user_ids = tuple(user_ids)
        dataset.item_ids = tuple(item_ids)
        return dataset

    @property
    def num_interactions(self) -> int:
        return int(self.keys.size)

    @property
    def density(self) -> float:
        return self.num_interactions / (self.num_users * self.num_items)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def items_of(self, user: int) -> np.ndarray:
        return self.indices[self.indptr[user] : self.indptr[user + 1]]

    def pairs(self) -> np.ndarray:
        """All (user, item) pairs, user-major, items ascending. Shape (N, 2)."""
        return np.column_stack(np.divmod(self.keys, self.num_items))

    def _keys_of(self, users, items) -> np.ndarray:
        users, items = np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64)
        return users * self.num_items + items

    def contains(self, users, items) -> np.ndarray:
        """Whether each ``users[k]`` interacted with ``items[k]`` (broadcast)."""
        query = self._keys_of(users, items)
        if not self.keys.size:
            return np.zeros(query.shape, dtype=bool)
        # The last key not above each query; -1 wraps to the largest key,
        # which is above it.
        return self.keys[np.searchsorted(self.keys, query, side="right") - 1] == query

    def without(self, users, items) -> "InteractionDataset":
        """A copy less the given interactions; pairs it does not hold are ignored."""
        keys = self.keys[~np.isin(self.keys, self._keys_of(users, items))]
        return InteractionDataset.from_pairs(self.num_users, self.num_items, keys // self.num_items,
                                             keys % self.num_items, self.user_ids, self.item_ids)


@dataclass
class CrossDomainDataset:
    """Target and source domains aligned over one shared user index space."""

    target: InteractionDataset
    source: InteractionDataset

    def __post_init__(self):
        if self.target.num_users != self.source.num_users:
            raise DataError("target and source must share the same user set")

    @property
    def num_users(self) -> int:
        return self.target.num_users


@dataclass(eq=False)
class LooSplit:
    """Leave-one-out split of the target domain with frozen eval negatives.

    The held-out data are read-only int64 arrays aligned row by row:
    ``users`` (shape ``(U,)``) lists the evaluated users ascending,
    ``test`` and ``validation`` (``(U,)``) hold each one's held-out target
    items, and ``eval_negatives`` (``(U, 99)``) the 99 target items it
    never interacted with; a split without users to rank raises DataError.
    The source domain is never split: all of it stays in ``train``.
    """

    train: CrossDomainDataset
    users: np.ndarray
    test: np.ndarray
    validation: np.ndarray
    eval_negatives: np.ndarray

    def __post_init__(self):
        if not self.users.size:
            raise DataError("split has no evaluated users to rank")
        for arr in (self.users, self.test, self.validation, self.eval_negatives):
            arr.flags.writeable = False


@dataclass
class Batch:
    """One mini-batch of labelled examples for a single domain."""

    users: np.ndarray
    items: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return self.users.size


# ---------------------------------------------------------------------------
# Ingestion


def _first_appearance(users, keys, user_ids, item_names) -> InteractionDataset:
    # ``users[k]`` holds the integer item key ``keys[k]``, pairs listed
    # user-major; items get dense indices in order of first appearance
    # over that listing, and item key ``k`` keeps ``item_names[k]`` as its
    # external id.
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    index = np.empty_like(order)
    index[order] = np.arange(order.size)
    names = [item_names[k] for k in distinct[order].tolist()]
    return InteractionDataset.from_pairs(len(user_ids), order.size, users, index[inverse],
                                         user_ids, names)


def read_text(path, what: str) -> str:
    """The UTF-8 text of input ``path``, less any leading BOM; a failed read is a DataError."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


# A line with a second tab: its third and later columns are ignored.
_EXTRA_COLUMN = re.compile(r"\t[^\n]*\t")


def _columns(text: str, path) -> tuple:
    # The user and item fields of each interaction line. A plain file
    # (every line one non-empty user, a tab, one non-empty item, and no
    # comment) splits in one pass over the whole text; any other goes
    # line by line first.
    body = text[:-1] if text.endswith("\n") else text
    tokens = body.replace("\n", "\t").split("\t")
    if (len(tokens) != 2 * (body.count("\n") + 1) or "" in tokens
            or body.startswith("#") or "\n#" in body or _EXTRA_COLUMN.search(body)):
        tokens = []
        for lineno, line in enumerate(body.split("\n"), start=1):
            if line and not line.startswith("#"):
                parts = line.split("\t")
                if len(parts) < 2 or not parts[0] or not parts[1]:
                    raise DataError(f"{path}: malformed line {lineno}: {line!r}")
                tokens += parts[:2]
    return tokens[0::2], tokens[1::2]


def _codes(names: list) -> tuple:
    # Each name's code, numbered by first appearance, and the names by code.
    index = {name: k for k, name in enumerate(dict.fromkeys(names))}
    return np.fromiter(map(index.__getitem__, names), np.int64, len(names)), list(index)


def load_interactions(path, min_user_interactions: int = 3) -> InteractionDataset:
    """Load a tab-separated interaction log into a dense-index dataset.

    One interaction per line, ``<user_id>\\t<item_id>``; extra trailing
    columns are ignored, lines starting with ``#`` are comments. Duplicate
    pairs collapse to one. Users with fewer than ``min_user_interactions``
    distinct interactions are dropped before any index is assigned, and
    the surviving users and items get dense indices in first-appearance
    order.
    """
    user_names, item_names = _columns(read_text(path, "interactions"), path)
    users, user_ids = _codes(user_names)
    items, item_ids = _codes(item_names)
    # Each distinct pair once, at its first line, in file order.
    first = np.unique(users * len(item_ids) + items, return_index=True)[1]
    first.sort()
    users, items = users[first], items[first]
    kept = np.bincount(users, minlength=len(user_ids)) >= min_user_interactions
    if not kept.any():
        raise DataError(f"{path}: no interactions left after filtering")
    # Surviving users in first-appearance order, each with its items in file order.
    rows = np.flatnonzero(kept[users])
    rows = rows[np.argsort(users[rows], kind="stable")]
    dense = np.cumsum(kept) - 1
    return _first_appearance(dense[users[rows]], items[rows],
                             [user_ids[u] for u in np.flatnonzero(kept).tolist()], item_ids)


def write_interactions(dataset: InteractionDataset, path) -> None:
    """Write a dataset back to the tab-separated format, user-major.

    Lines carry the external identifiers. Loading the written file with
    ``min_user_interactions=1`` reproduces the dataset exactly whenever
    its indices are in first-appearance order (true for loaded and
    generated datasets).
    """
    uids, iids = dataset.user_ids, dataset.item_ids
    write_atomic(path, "".join(f"{uids[u]}\t{iids[i]}\n" for u, i in dataset.pairs().tolist()))


def write_atomic(path, content) -> None:
    """Write ``content`` (text as UTF-8, or bytes) to ``path`` all or nothing.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``: an interrupted or failed write leaves any old file
    as it was and no temporary file behind.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as fh:
            fh.write(content.encode("utf-8") if isinstance(content, str) else content)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def align_domains(target: InteractionDataset, source: InteractionDataset) -> CrossDomainDataset:
    """Restrict both domains to their shared users and reindex densely.

    Users keep the target domain's first-appearance order; each domain's
    items are reindexed over the surviving interactions only. Raises when
    the user intersection is empty.
    """
    source_index = {u: k for k, u in enumerate(source.user_ids)}
    shared = [u for u in target.user_ids if u in source_index]
    if not shared:
        raise DataError("no users shared between the two domains")

    def rebuild(ds, users_old):
        # The CSR rows of ``users_old``, in that order, gathered by index arrays.
        users_old = np.asarray(users_old, dtype=np.int64)
        starts, counts = ds.indptr[users_old], ds.degrees[users_old]
        offsets = np.cumsum(counts) - counts
        positions = np.arange(counts.sum()) + np.repeat(starts - offsets, counts)
        return _first_appearance(np.repeat(np.arange(users_old.size), counts),
                                 ds.indices[positions], shared, ds.item_ids)

    target_old = {u: k for k, u in enumerate(target.user_ids)}
    new_target = rebuild(target, [target_old[u] for u in shared])
    new_source = rebuild(source, [source_index[u] for u in shared])
    return CrossDomainDataset(target=new_target, source=new_source)


# ---------------------------------------------------------------------------
# Leave-one-out splitting


def sample_eval_negatives(
    dataset: InteractionDataset, user: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw 99 distinct items the user never interacted with, uniformly."""
    # The ascending complement, as ``setdiff1d`` gives it, without hashing
    # every item per user.
    eligible_mask = np.ones(dataset.num_items, dtype=bool)
    eligible_mask[dataset.items_of(user)] = False
    eligible = np.flatnonzero(eligible_mask)
    if eligible.size < NUM_EVAL_NEGATIVES:
        raise DataError(
            f"user {user}: only {eligible.size} non-interacted items, need {NUM_EVAL_NEGATIVES}"
        )
    picked = rng.choice(eligible, size=NUM_EVAL_NEGATIVES, replace=False)
    return picked.astype(np.int64)


def loo_split(data: CrossDomainDataset, rng: np.random.Generator) -> LooSplit:
    """Hold out one test and one validation target item per evaluable user.

    Users with fewer than three target interactions keep everything in
    train and are excluded from evaluation. The source domain is copied
    into train untouched. Negatives are sampled against the user's full
    target history (train, validation and test).
    """
    target = data.target
    users = np.flatnonzero(target.degrees >= MIN_EVAL_INTERACTIONS)
    held = np.empty((users.size, 2), dtype=np.int64)
    negatives = np.empty((users.size, NUM_EVAL_NEGATIVES), dtype=np.int64)
    for row, u in enumerate(users.tolist()):
        held[row] = rng.choice(target.items_of(u), size=2, replace=False)
        negatives[row] = sample_eval_negatives(target, u, rng)
    return _held_out(data, users, held, negatives)


def _held_out(data: CrossDomainDataset, users, held, negatives) -> LooSplit:
    # The split whose target train set lacks each user's two ``held`` items.
    target = data.target.without(users[:, None], held)
    return LooSplit(train=CrossDomainDataset(target=target, source=data.source), users=users,
                    test=held[:, 0], validation=held[:, 1], eval_negatives=negatives)


# ---------------------------------------------------------------------------
# Training batches


def _negatives(dataset: InteractionDataset, users: np.ndarray, rng) -> np.ndarray:
    # Rejection sampling stays uniform over the non-interacted items. One
    # draw per slot; at the first rejected slot, it and every later slot
    # move on to the next draw. These are the draws a slot-by-slot loop
    # that redraws each slot until it accepts would make, in its order.
    items = rng.integers(dataset.num_items, size=users.size)
    first = 0
    while (rejected := np.flatnonzero(dataset.contains(users[first:], items[first:]))).size:
        first += rejected[0]
        items[first:] = np.append(items[first + 1 :], rng.integers(dataset.num_items))
    return items


def epoch_batches(
    dataset: InteractionDataset,
    domain: str,
    batch_size: int,
    negative_ratio: int,
    rng: np.random.Generator,
) -> Iterator[Batch]:
    """Yield one epoch of training batches for a single domain.

    Positives are shuffled once and consumed without replacement; each
    positive ``(u, i)`` is followed by ``negative_ratio`` fresh negatives
    ``(u, j)`` with ``j`` uniform over the items ``u`` never interacted
    with in this dataset. Negatives are resampled every epoch.
    """
    pairs = dataset.pairs()
    if pairs.shape[0] == 0:
        raise DataError(f"{domain} domain has no training interactions")
    full = np.flatnonzero(dataset.degrees == dataset.num_items)
    if negative_ratio and full.size:
        raise DataError(f"{domain} domain: user {dataset.user_ids[full[0]]!r} holds all "
                        f"{dataset.num_items} items, so no negative can be drawn")
    order = rng.permutation(pairs.shape[0])
    per_positive = 1 + negative_ratio
    if min(batch_size, pairs.shape[0]) * per_positive > np.iinfo(np.int64).max:
        # numpy would wrap the repeat count and write past its buffer.
        raise ConfigError(f"negative_ratio {negative_ratio} makes a batch larger than int64 "
                          "can count")
    for start in range(0, order.size, batch_size):
        chunk = pairs[order[start : start + batch_size]]
        users = np.repeat(chunk[:, 0], per_positive)
        items = np.repeat(chunk[:, 1], per_positive)
        negative = np.arange(users.size) % per_positive != 0
        if negative_ratio:
            items[negative] = _negatives(dataset, users[negative], rng)
        yield Batch(users=users, items=items, labels=(~negative).astype(np.float64))


def num_batches(dataset: InteractionDataset, batch_size: int) -> int:
    n = dataset.num_interactions
    return (n + batch_size - 1) // batch_size


# ---------------------------------------------------------------------------
# Synthetic cross-domain data


@dataclass(frozen=True)
class SyntheticConfig:
    """Controls the synthetic cross-domain generator.

    ``relatedness`` blends the source-domain user factors between the
    shared target factors (1.0) and an independent draw (0.0), so it
    directly tunes how much transferable structure the two domains share.
    A config checks itself when it is built, ``dataclasses.replace``
    included, and raises :class:`ConfigError` on an invalid value.
    """

    num_users: int = 1000
    num_items_target: int = 1600
    num_items_source: int = 1000
    latent_dim: int = 8
    relatedness: float = 0.9
    target_density: float = 0.005
    source_density: float = 0.015
    seed: int = 0

    def __post_init__(self):
        if self.num_users < 1 or self.num_items_target < 1 or self.num_items_source < 1:
            raise ConfigError("synthetic sizes must be positive")
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        if not 0.0 <= self.relatedness <= 1.0:
            raise ConfigError("relatedness must lie in [0, 1]")
        for density, n in (
            (self.target_density, self.num_items_target),
            (self.source_density, self.num_items_source),
        ):
            if not 0.0 < density < 1.0:
                raise ConfigError("densities must lie in (0, 1)")
            count = round(density * n)
            if count < 1:
                raise ConfigError(f"density {density} gives no interactions over {n} items")
            if abs(count / n - density) > 0.05 * density:
                raise ConfigError(
                    f"density {density} not achievable within 5% with {n} items per user"
                )


def _force_full_coverage(top: np.ndarray, scores: np.ndarray) -> list:
    # Each user's item set, grown from its row of ``top``. Items nobody
    # picked are swapped into their best-scoring user's set in place of that
    # user's lowest-scoring item that other users still hold, so the item
    # universe survives a TSV round trip while per-user counts and the
    # overall density stay put.
    n_items = scores.shape[1]
    chosen = [set(row) for row in top.tolist()]
    holders = np.bincount(top.ravel(), minlength=n_items)
    for j in range(n_items):
        if holders[j] > 0:
            continue
        # Best-scoring user that can still give something up; a user whose
        # remaining items are all singleton-held would orphan another item.
        candidates = np.argsort(-scores[:, j], kind="stable")
        for u in candidates:
            u = int(u)
            removable = [i for i in chosen[u] if holders[i] > 1 and i != j]
            if removable:
                worst = min(removable, key=lambda i: scores[u, i])
                chosen[u].discard(worst)
                holders[worst] -= 1
                break
        else:
            u = int(candidates[0])
        chosen[u].add(j)
        holders[j] += 1
    return chosen


def generate_synthetic(config: SyntheticConfig) -> CrossDomainDataset:
    """Build an aligned two-domain dataset from a shared latent factor model.

    Shared user factors drive the target domain; the source domain uses
    ``relatedness * U + (1 - relatedness) * U'`` with an independent
    ``U'``. Each user interacts with their top-scoring items, with the
    per-user count set by the requested density. Deterministic in the
    config seed.
    """
    m, k = config.num_users, config.latent_dim
    user_factors = derive_rng(config.seed, "synthetic-users").standard_normal((m, k))
    noise = derive_rng(config.seed, "synthetic-user-noise").standard_normal((m, k))
    rho = config.relatedness
    source_user_factors = rho * user_factors + (1.0 - rho) * noise

    def build(domain_users, n_items, density, prefix):
        count = round(density * n_items)
        item_rng = derive_rng(config.seed, "synthetic-items", n_items, count)
        item_factors = item_rng.standard_normal((n_items, k))
        scores = domain_users @ item_factors.T
        top = np.argpartition(-scores, count - 1, axis=1)[:, :count]
        rows = [sorted(items) for items in _force_full_coverage(top, scores)]
        # Items renumbered in the order load_interactions gives after a write.
        return _first_appearance(np.repeat(np.arange(m), [len(row) for row in rows]),
                                 np.concatenate(rows), [f"u{u}" for u in range(m)],
                                 [f"{prefix}{old}" for old in range(n_items)])

    target = build(user_factors, config.num_items_target, config.target_density, "t")
    source = build(source_user_factors, config.num_items_source, config.source_density, "s")
    return CrossDomainDataset(target=target, source=source)


# ---------------------------------------------------------------------------
# Training-set reduction


def reduce_training(split: LooSplit, per_user_removal: int, rng: np.random.Generator) -> LooSplit:
    """The split with up to ``per_user_removal`` train target interactions per user dropped.

    Removal is uniform without replacement per user and never drops a user
    below one remaining train interaction. The reduced split shares the
    input's read-only held-out arrays.
    """
    if per_user_removal < 0:
        raise ConfigError("per_user_removal must be >= 0")
    if per_user_removal == 0:
        return split
    target = split.train.target
    degrees = target.degrees
    users: list = []
    items: list = []
    for u in np.flatnonzero(degrees > 1).tolist():
        drop = rng.choice(target.items_of(u), size=min(per_user_removal, degrees[u] - 1),
                          replace=False)
        users += [u] * drop.size
        items += drop.tolist()
    train = CrossDomainDataset(target=target.without(users, items), source=split.train.source)
    return replace(split, train=train)


# ---------------------------------------------------------------------------
# Split manifest (freeze a split across runs)


def _json_block(open_, close, entries, depth) -> str:
    # ``entries`` laid out as ``json.dump(..., indent=1)`` lays out a
    # non-empty container at nesting ``depth``: one entry per line.
    pad = "\n" + " " * (depth + 1)
    return open_ + pad + ("," + pad).join(entries) + "\n" + " " * depth + close


def save_split_manifest(split: LooSplit, path) -> None:
    """Write the held-out items and frozen negatives as JSON.

    The text is byte for byte what ``json.dump(manifest, fh, indent=1)``
    writes, plus a final newline, built without the per-element encoder.
    """
    users = split.users.tolist()

    def held_out(items):
        return _json_block("{", "}", [f'"{u}": {i}' for u, i in zip(users, items.tolist())], 1)

    blocks = [f'"{u}": ' + _json_block("[", "]", list(map(str, row)), 2)
              for u, row in zip(users, split.eval_negatives.tolist())]
    text = _json_block("{", "}", [
        f'"num_users": {int(split.train.num_users)}',
        f'"num_items_target": {int(split.train.target.num_items)}',
        f'"num_items_source": {int(split.train.source.num_items)}',
        f'"test": {held_out(split.test)}',
        f'"validation": {held_out(split.validation)}',
        f'"eval_negatives": ' + _json_block("{", "}", blocks, 1),
    ], 0)
    write_atomic(path, text + "\n")


_MANIFEST_KEYS = ("num_users", "num_items_target", "num_items_source",
                  "test", "validation", "eval_negatives")


def _int_matrix(rows: list, cols: int, what: str, booleans: bool) -> np.ndarray:
    # One integer row per evaluated user. numpy's dtype discovery checks
    # the entries, but reads a JSON true or false among integers as one
    # more integer, so the entries are scanned for them when ``booleans``
    # says the text holds one.
    try:
        arr = np.asarray(rows) if rows else np.empty((0, cols), dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise DataError(f"split manifest: {what} ({exc})") from exc
    if (arr.shape != (len(rows), cols) or arr.dtype.kind != "i"
            or booleans and bool in set(map(type, chain.from_iterable(rows)))):
        raise DataError(f"split manifest: {what}")
    return arr.astype(np.int64, copy=False)


def _unique_keys(pairs) -> dict:
    # A JSON object as a dict; ``json.loads`` alone keeps the last of two equal keys.
    entries = dict(pairs)
    if len(entries) < len(pairs):
        keys = sorted(key for key, _ in pairs)
        repeated = next(a for a, b in zip(keys, keys[1:]) if a == b)
        raise DataError(f"split manifest repeats the key {repeated!r}")
    return entries


def _reject_rows(bad: np.ndarray, users: np.ndarray, problem: str) -> None:
    rows = np.flatnonzero(bad.any(axis=1))
    if rows.size:
        raise DataError(f"split manifest: user {int(users[rows[0]])} {problem}")


def load_split_manifest(data: CrossDomainDataset, path) -> LooSplit:
    """Rebuild a LooSplit from a manifest against the full dataset.

    The manifest is checked in full before anything is scored: every key
    is present once, the evaluated users are canonical in-range indices,
    each holds out two distinct items it really interacted with, and each
    has exactly 99 distinct in-range negatives it never interacted with.
    """
    text = read_text(path, "split manifest")
    try:
        manifest = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise DataError(f"{path}: split manifest is not valid JSON ({exc})") from exc
    missing = [key for key in _MANIFEST_KEYS if not isinstance(manifest, dict) or key not in manifest]
    if missing:
        raise DataError(f"{path}: split manifest lacks {', '.join(missing)}")
    for key, size in (("num_users", data.num_users), ("num_items_target", data.target.num_items),
                      ("num_items_source", data.source.num_items)):
        if manifest[key] != size:
            raise DataError(f"split manifest {key} {manifest[key]!r} does not match the dataset")
    test, validation, negatives = (manifest[k] for k in ("test", "validation", "eval_negatives"))
    if not all(isinstance(p, dict) for p in (test, validation, negatives)):
        raise DataError(f"{path}: split manifest partitions must map user indices")
    if validation.keys() != test.keys() or negatives.keys() != test.keys():
        raise DataError("split manifest partitions cover different users")
    try:
        users = np.sort(np.asarray(list(map(int, test)), dtype=np.int64))
    except (ValueError, OverflowError) as exc:
        raise DataError(f"{path}: split manifest user keys must be indices ({exc})") from exc
    aliased = next((key for key in test if str(int(key)) != key), None)
    if aliased is not None:
        raise DataError(f"{path}: split manifest user key {aliased!r} is not written as an index")
    if users.size and (users[0] < 0 or users[-1] >= data.num_users):
        raise DataError(f"split manifest evaluates users outside 0..{data.num_users - 1}")
    keys = list(map(str, users.tolist()))
    booleans = "true" in text or "false" in text
    held = _int_matrix([(test[k], validation[k]) for k in keys], 2,
                       "held-out items must be integers", booleans)
    neg = _int_matrix([negatives[k] for k in keys], NUM_EVAL_NEGATIVES, "each evaluated user "
                      f"needs a list of {NUM_EVAL_NEGATIVES} integer negatives", booleans)

    n = data.target.num_items
    _reject_rows((held < 0) | (held >= n), users, f"holds out an item outside 0..{n - 1}")
    _reject_rows(held[:, :1] == held[:, 1:], users, "holds out the same item twice")
    # Sorted rows: the range shows at the ends, repeats sit side by side,
    # and the membership search runs over ascending keys.
    ordered = np.sort(neg, axis=1)
    _reject_rows((ordered[:, :1] < 0) | (ordered[:, -1:] >= n), users,
                 f"has a negative outside 0..{n - 1}")
    _reject_rows(ordered[:, 1:] == ordered[:, :-1], users, "repeats a negative")
    _reject_rows(data.target.contains(users[:, None], ordered), users,
                 "has a negative it interacted with")
    _reject_rows(~data.target.contains(users[:, None], held), users,
                 "holds out an item it never interacted with")
    return _held_out(data, users, held, neg)
