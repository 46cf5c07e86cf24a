"""Workload definitions and the benchmark's own seeded input generator.

The generator follows the latent-factor model of ``conet``'s
``SyntheticConfig`` (shared user factors, source factors blended by
``relatedness``, each user holding its top-scoring items, every item held
by someone) but lives here, so that a change to the program's generator
can never change the benchmark's inputs. The program only ever sees the
TSV files written by :func:`write_inputs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALL_ARCHS = ("mlp", "mlp++", "csn", "conet", "sconet")


@dataclass(frozen=True)
class Synthetic:
    """Sizes and densities of one generated two-domain dataset."""

    users: int
    items_target: int
    items_source: int
    target_density: float
    source_density: float
    latent_dim: int = 8
    relatedness: float = 0.9


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: generated data plus the CLI verbs run on it.

    ``kind`` is ``"train"`` (``conet train``, then ``conet evaluate``
    ``evaluations`` times on its checkpoint) or ``"compare"`` (``conet
    compare`` over ``archs``).
    """

    name: str
    data: Synthetic
    kind: str
    epochs: int
    evaluations: int = 1
    archs: tuple = ()
    hidden_widths: str = ""
    workers: int = 1


DEFAULT_DATA = Synthetic(users=1000, items_target=1600, items_source=1000,
                         target_density=0.005, source_density=0.015)

# Why each workload exists is stated in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-default",
            data=DEFAULT_DATA,
            kind="train",
            epochs=2,
            # One evaluate takes under a second here, so two give the
            # ranking metric enough samples in a run.
            evaluations=2,
        ),
        Workload(
            name="wide-sparse",
            data=Synthetic(users=10000, items_target=3000, items_source=2000,
                           target_density=0.001, source_density=0.002),
            kind="train",
            epochs=1,
        ),
        Workload(
            name="compare-arms",
            data=DEFAULT_DATA,
            kind="compare",
            epochs=1,
            archs=ALL_ARCHS,
            hidden_widths="64,64,64,64",
            workers=2,
        ),
    )
}


def verbs(workload: Workload, inputs: dict, out: Path, seed: int, epochs=None) -> list:
    """The ``conet`` argument lists one repetition of ``workload`` runs.

    ``epochs`` overrides the workload's epoch count; with ``0`` the
    repetition sets up and ranks (an untrained model) without training.
    """
    epochs = workload.epochs if epochs is None else epochs
    data = ["--target", str(inputs["target"]), "--source", str(inputs["source"]),
            "--seed", str(seed)]
    run = ["--patience", "off", "--epochs", str(epochs)]
    if workload.kind == "compare":
        return [["compare", *data, *run, "--archs", ",".join(workload.archs),
                 "--hidden-widths", workload.hidden_widths,
                 "--workers", str(workload.workers), "--out", str(out / "compare")]]
    train_dir = out / "train"
    argvs = [["train", *data, *run, "--architecture", "sconet", "--out", str(train_dir)]]
    for k in range(workload.evaluations):
        argvs.append(["evaluate", *data, "--checkpoint", str(train_dir / "model.ckpt"),
                      "--split", str(train_dir / "split.json"), "--partition", "test",
                      "--out", str(out / f"evaluate{k}")])
    return argvs


# ---------------------------------------------------------------------------
# Input generation


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _domain(user_factors: np.ndarray, num_items: int, density: float,
            rng: np.random.Generator) -> list:
    """Each user's top-scoring items, then every unheld item swapped in.

    An item nobody picked replaces the lowest-scoring item, held by
    someone else too, of the best-scoring user among its top candidates
    who has such an item; so per-user counts stay put and the whole item
    range survives the TSV round trip.
    """
    count = max(1, round(density * num_items))
    items = rng.standard_normal((num_items, user_factors.shape[1]))
    chosen = []
    for start in range(0, user_factors.shape[0], 1024):
        scores = user_factors[start:start + 1024] @ items.T
        top = np.argpartition(-scores, count - 1, axis=1)[:, :count]
        chosen.extend(sorted(row) for row in top.tolist())
    holders = np.bincount([i for row in chosen for i in row], minlength=num_items)
    orphans = np.flatnonzero(holders == 0)
    num_candidates = min(64, user_factors.shape[0])
    for start in range(0, orphans.size, 256):
        block = orphans[start:start + 256]
        scores = user_factors @ items[block].T
        top = np.argpartition(-scores, num_candidates - 1, axis=0)[:num_candidates]
        for col, j in enumerate(block.tolist()):
            candidates = sorted(top[:, col].tolist(), key=lambda u: (-scores[u, col], u))
            for u in candidates:
                removable = [i for i in chosen[u] if holders[i] > 1]
                if removable:
                    worst = min(removable, key=lambda i: (float(user_factors[u] @ items[i]), i))
                    chosen[u].remove(worst)
                    holders[worst] -= 1
                    break
            else:
                u = candidates[0]
            chosen[u].append(j)
            chosen[u].sort()
            holders[j] += 1
    return chosen


def generate(data: Synthetic, seed: int) -> tuple:
    """``(target, source)`` per-user item lists, deterministic in ``seed``."""
    m, k = data.users, data.latent_dim
    users = _rng(seed, 0).standard_normal((m, k))
    noise = _rng(seed, 1).standard_normal((m, k))
    source_users = data.relatedness * users + (1.0 - data.relatedness) * noise
    target = _domain(users, data.items_target, data.target_density, _rng(seed, 2))
    source = _domain(source_users, data.items_source, data.source_density, _rng(seed, 3))
    return target, source


def _write_tsv(path: Path, chosen: list, prefix: str) -> None:
    lines = [f"u{u}\t{prefix}{i}\n" for u, row in enumerate(chosen) for i in row]
    path.write_text("".join(lines), encoding="utf-8")


def write_inputs(data: Synthetic, seed: int, directory: Path) -> dict:
    """Generate and write ``target.tsv`` and ``source.tsv``; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    target, source = generate(data, seed)
    paths = {"target": directory / "target.tsv", "source": directory / "source.tsv"}
    _write_tsv(paths["target"], target, "t")
    _write_tsv(paths["source"], source, "s")
    return paths
