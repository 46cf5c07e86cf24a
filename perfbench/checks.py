"""Checks on the artifacts the ``conet`` verbs write; each returns error strings.

Metrics are recomputed here from the per-user hit positions with the
same float arithmetic the evaluation protocol defines (plain Python
floats, users in index order), so they must match bit for bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

NUM_CANDIDATES = 100  # the held-out item plus 99 frozen negatives


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_history(path: Path) -> list:
    errors = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        record = json.loads(line)
        for key in ("loss_target", "loss_source", "penalty"):
            if not math.isfinite(record[key]):
                errors.append(f"{path.name}:{lineno}: {key} is {record[key]}")
    return errors


def recompute(positions, top_n: int) -> dict:
    """HR, NDCG and MRR (top-N cut) from 1-based hit positions."""
    hr = ndcg = mrr = 0.0
    for pos in positions:
        if pos <= top_n:
            hr += 1.0
            ndcg += math.log(2.0) / math.log(pos + 1.0)
            mrr += 1.0 / pos
    n = len(positions)
    return {"hr": hr / n, "ndcg": ndcg / n, "mrr": mrr / n}


def check_metrics(metrics_path: Path, split_path: Path) -> list:
    metrics = _read_json(metrics_path)
    test_users = len(_read_json(split_path)["test"])
    positions = [pos for _user, pos in metrics["per_user"]]
    errors = []
    if not positions:
        return [f"{metrics_path.name}: no per-user positions"]
    bad = [pos for pos in positions if not 1 <= pos <= NUM_CANDIDATES]
    if bad:
        errors.append(f"{metrics_path.name}: {len(bad)} positions outside 1..{NUM_CANDIDATES}")
    if not metrics["num_users"] == len(positions) == test_users:
        errors.append(f"{metrics_path.name}: {metrics['num_users']} users reported, "
                      f"{len(positions)} positions, {test_users} test users in the split")
    for key, value in recompute(positions, metrics["topN"]).items():
        if metrics[key] != value:
            errors.append(f"{metrics_path.name}: {key} {metrics[key]!r} != recomputed {value!r}")
    return errors


def check_study(path: Path, archs) -> list:
    rows = _read_json(path)["rows"]
    conditions = [row["condition"] for row in rows]
    if conditions != list(archs):
        return [f"{path.name}: rows {conditions} do not match the arms {list(archs)}"]
    return [f"{path.name}: {row['condition']} ndcg is {row['ndcg']}"
            for row in rows if not math.isfinite(row["ndcg"])]


def same_bytes(reference: Path, other: Path, names) -> list:
    """Names of the files under ``other`` that differ from ``reference``."""
    errors = []
    for name in names:
        if (reference / name).read_bytes() != (other / name).read_bytes():
            errors.append(f"{other / name} differs from {reference / name}")
    return errors
