"""Byte-compare the run artifacts of this checkout with those of another commit.

Usage, from anywhere inside a checkout::

    python3 scripts/compare_artifacts.py PARENT_REF

The script exports ``PARENT_REF`` with ``git archive`` into a temporary
directory. Then, in the exported tree and in this checkout's working
tree, each with BLAS pinned to one thread, it runs ``conet generate`` for
the small data set of acceptance criterion 9, ``conet train`` and two
``conet evaluate`` runs for each of the five architectures (the default
test partition, and the validation partition with uncut MRR and a top-5
cutoff), a second sconet ``conet train`` that reads every setting from
the first one's echoed ``config.txt`` (``--config``, with only ``--out``
changed), ``conet sparsity-report`` on the sconet checkpoint and history,
one five-arm ``conet compare --workers 2``, ``conet lambda-sweep
--lambdas 0,0.1,1`` and ``conet reduce-study --levels 0,1,2``. Every run
after ``generate`` reads the data the parent tree generated, so the two
trees train on the same inputs. Each of the artifacts below is compared
byte for byte; ``config.txt`` and every other file are skipped. It
prints one line per artifact and exits 0 when all are identical, 1 when
one differs or is missing, and 2 when ``PARENT_REF`` cannot be exported
or a run fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ("target.tsv", "source.tsv", "manifest.json", "model.ckpt", "history.jsonl",
             "split.json", "summary.json", "metrics.json", "sparsity.json", "study.json")
ARCHS = ("mlp", "mlp++", "csn", "conet", "sconet")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# The data set and training settings of acceptance criterion 9.
GENERATE = ["--users", "24", "--items-target", "120", "--items-source", "120",
            "--latent-dim", "4", "--target-density", "0.05", "--source-density", "0.05",
            "--seed", "3"]
TRAIN = ["--embedding-dim", "4", "--epochs", "3", "--batch-size", "32", "--seed", "11"]
# Each trained model is evaluated with the defaults and with these options.
EVALUATE_VALIDATION = ["--partition", "validation", "--mrr-uncut", "true", "--top-n", "5"]


def widths(arch: str) -> list:
    # Cross-stitch units need equal widths, so csn and the study use 8,8,8.
    return ["--hidden-widths", "8,8,8" if arch in ("csn", "compare") else "8,4,2"]


def conet(tree: Path, *args) -> None:
    """Run one ``conet`` command from the sources of ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **dict.fromkeys(BLAS_ENV, "1"))
    done = subprocess.run([sys.executable, "-m", "conet.cli", *map(str, args)], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: conet {args[0]} exited with {done.returncode}: "
                           f"{done.stderr.strip()}")


def run_tree(tree: Path, data: Path, out: Path) -> None:
    """Every run the comparison covers, its outputs under ``out``; training reads ``data``."""
    conet(tree, "generate", *GENERATE, "--out", out / "generate")
    inputs = ["--target", data / "target.tsv", "--source", data / "source.tsv"]
    for arch in ARCHS:
        run = out / f"train-{arch}"
        conet(tree, "train", "--architecture", arch, *widths(arch), *TRAIN, *inputs,
              "--out", run)
        for name, options in ((f"evaluate-{arch}", []),
                              (f"evaluate-validation-{arch}", EVALUATE_VALIDATION)):
            conet(tree, "evaluate", "--checkpoint", run / "model.ckpt", "--split",
                  run / "split.json", *options, *inputs, "--out", out / name)
    conet(tree, "train", "--config", out / "train-sconet" / "config.txt",
          "--out", out / "rerun-sconet")
    conet(tree, "sparsity-report", "--checkpoint", out / "train-sconet" / "model.ckpt",
          "--history", out / "train-sconet" / "history.jsonl", "--out", out / "sparsity-report")
    conet(tree, "compare", "--archs", ",".join(ARCHS), "--workers", "2", *widths("compare"),
          *TRAIN, *inputs, "--out", out / "compare")
    conet(tree, "lambda-sweep", "--lambdas", "0,0.1,1", *widths("conet"), *TRAIN, *inputs,
          "--out", out / "lambda-sweep")
    conet(tree, "reduce-study", "--levels", "0,1,2", *widths("sconet"), *TRAIN, *inputs,
          "--out", out / "reduce-study")


def compare_outputs(parent: Path, change: Path) -> list:
    """``(relative path, status)`` of every artifact under either directory.

    The status is ``same``, ``DIFFERENT`` or ``MISSING in parent|change``.
    """
    found = sorted({p.relative_to(root) for root in (parent, change)
                    for p in root.rglob("*") if p.name in ARTIFACTS and p.is_file()})
    lines = []
    for rel in found:
        a, b = parent / rel, change / rel
        if not a.is_file() or not b.is_file():
            lines.append((rel, f"MISSING in {'parent' if not a.is_file() else 'change'}"))
        else:
            lines.append((rel, "same" if a.read_bytes() == b.read_bytes() else "DIFFERENT"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_ref", metavar="PARENT_REF")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-artifacts-") as tmp:
        tmp = Path(tmp)
        parent = tmp / "parent-tree"
        parent.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent_ref],
                                 capture_output=True)
        if archive.returncode != 0:
            reason = " ".join(archive.stderr.decode(errors="replace").split())
            print(f"error: cannot export {args.parent_ref}: {reason}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout, check=True)
        try:
            run_tree(parent, tmp / "parent" / "generate", tmp / "parent")
            run_tree(ROOT, tmp / "parent" / "generate", tmp / "change")
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines = compare_outputs(tmp / "parent", tmp / "change")
    for rel, status in lines:
        print(f"{status:<20} {rel}")
    differing = sum(status != "same" for _, status in lines)
    print(f"{len(lines) - differing} of {len(lines)} artifacts byte-identical to {args.parent_ref}")
    return 1 if differing or not lines else 0


if __name__ == "__main__":
    sys.exit(main())
