"""conet benchmark: time the real CLI verbs end to end and per layer, from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 40 --trace 0

It writes seeded synthetic TSV inputs under ``.perfbench_work/``, then
runs repetitions of the workload's ``conet`` verbs, each in a fresh
child process (``child.py``) with the BLAS thread count pinned, until the
next repetition would end past ``--seconds``. Every artifact is checked
(``checks.py``) and must be byte-identical across the run's
repetitions. With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` each repetition is an untraced
and a traced child on the same inputs, and the line holds the per-layer
metrics from the traced one plus the tracing overhead. The line before
it records the machine and software. One operation is one verb
invocation; any failed check fails it. Exit code 0 when every check
passed, 1 when one failed, 2 when there is no program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
MIN_SETUPS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_examples_per_s": "1/s",
    "rank_users_per_s": "1/s",
    "study_s": "s",
    "ndcg": "ratio",
    "peak_rss_mb": "MB",
}

# Layers each verb must reach in a traced repetition. A refactor that
# routes around a probe shows up here instead of as a silent 0 s.
_TRAINING = ("training.fit", "training.step", "data.batch", "training.pairing",
             "training.loss", "training.adam", "training.prox", "training.validation",
             "models.forward", "models.backward", "evaluation.evaluate", "evaluation.score")
REQUIRED = {
    "cli.train": ("data.load_interactions", "data.align_domains", "data.loo_split",
                  "data.save_split_manifest", "checkpoint.save", *_TRAINING),
    "cli.evaluate": ("data.load_interactions", "data.align_domains",
                     "data.load_split_manifest", "checkpoint.load", "evaluation.evaluate",
                     "evaluation.score", "models.forward"),
    "cli.compare": ("data.load_interactions", "data.align_domains", "data.loo_split",
                    "studies.arm", *_TRAINING),
}

ARTIFACTS = {
    "train": ("model.ckpt", "history.jsonl", "split.json"),
    "evaluate": ("metrics.json",),
    "compare": ("study.json",),
}


def _flag(argv, name) -> Path:
    return Path(argv[argv.index(name) + 1])


@dataclass
class Rep:
    """One child process: its verbs, result and per-verb check errors."""

    out: Path
    argvs: list
    trace: bool
    wall: float = 0.0
    result: dict = None
    errors: list = field(default_factory=list)

    @property
    def spans(self):
        return self.result["spans"]

    def verb_span(self, name):
        return next(s for s in self.spans if s[1] == name)

    def fail(self, index, message):
        self.errors[index].append(message)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    env.pop("CONET_OUTPUT_ROOT", None)
    return env


def run_child(root: Path, rep: Rep, deadline: float) -> None:
    rep.out.mkdir(parents=True, exist_ok=True)
    rep.errors = [[] for _ in rep.argvs]
    spec = rep.out / "spec.json"
    result = rep.out / "result.json"
    spec.write_text(json.dumps({"root": str(root), "verbs": rep.argvs, "trace": rep.trace,
                                "result": str(result)}), encoding="utf-8")
    start = time.monotonic()
    with open(rep.out / "log.txt", "w", encoding="utf-8") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec)], cwd=root,
                                env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    rep.wall = time.monotonic() - start
    if proc.returncode != 0 or not result.is_file():
        tail = (rep.out / "log.txt").read_text(encoding="utf-8").strip().splitlines()[-1:]
        for i in range(len(rep.argvs)):
            rep.fail(i, f"child exited with {proc.returncode}: {' '.join(tail)}")
        return
    rep.result = json.loads(result.read_text(encoding="utf-8"))
    ran = rep.result["verbs"]
    for i, argv in enumerate(rep.argvs):
        if i >= len(ran):
            rep.fail(i, f"{argv[0]} skipped after an earlier failure")
        elif ran[i]["code"] != 0:
            rep.fail(i, f"{argv[0]} exited with {ran[i]['code']}: {ran[i]['error'] or ''}")


def check_outputs(workload, rep: Rep, reference: Rep) -> None:
    """Artifact checks, and byte identity with the run's first full repetition."""
    for i, argv in enumerate(rep.argvs):
        if rep.errors[i]:
            continue
        out = _flag(argv, "--out")
        if argv[0] == "train":
            errors = checks.check_history(out / "history.jsonl")
        elif argv[0] == "evaluate":
            errors = checks.check_metrics(out / "metrics.json", _flag(argv, "--split"))
        else:
            errors = checks.check_study(out / "study.json", workload.archs)
        if reference is not rep and not reference.errors[i]:
            errors += checks.same_bytes(_flag(reference.argvs[i], "--out"), out,
                                        ARTIFACTS[argv[0]])
        for error in errors:
            rep.fail(i, error)


def check_trace(workload, rep: Rep) -> None:
    """Every layer a verb must reach recorded calls, and the counts agree."""
    above = tracing.ancestors(rep.spans)
    top = tracing.top_level(rep.spans)
    verb_spans = sorted((s for s in rep.spans if s[4] is None), key=lambda s: s[2])
    for i, (argv, verb) in enumerate(zip(rep.argvs, verb_spans)):
        under = [s for s in rep.spans if top[s[0]] == verb[0]]
        reached = {s[1] for s in under}
        for name in REQUIRED[verb[1]]:
            if name not in reached:
                rep.fail(i, f"traced {verb[1]} recorded no call of {name}")
        counted = sum(s[6]["examples"] for s in under if s[1] == "data.batch")
        expected = sum(s[6]["examples"] for s in under if s[1] == "training.fit")
        if counted != expected:
            rep.fail(i, f"traced {verb[1]} batched {counted} examples, settings give {expected}")
        if verb[1] == "cli.compare":
            arms = [s for s in under if s[1] == "studies.arm"]
            tests = [s for s in under if s[1] == "evaluation.evaluate"
                     and "studies.arm" in above[s[0]]
                     and "training.validation" not in above[s[0]]]
            if len(arms) != len(workload.archs) or len(tests) != len(workload.archs):
                rep.fail(i, f"traced compare saw {len(arms)} arms and {len(tests)} test "
                            f"evaluations for {len(workload.archs)} arms")


# ---------------------------------------------------------------------------
# Metrics


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def samples(workload, rep: Rep, trained: bool = True) -> dict:
    """End-to-end samples of one repetition, metric -> list of values.

    A repetition without training (``trained=False``) gives set-up
    samples, and ranking samples from its ``evaluate`` calls, which cost
    the same for an untrained model. An untrained study gives no ranking
    sample: without training, its arms' test evaluations overlap one
    another on the two worker threads instead of other arms' training,
    a different mix from a real study.
    """
    spans = rep.spans
    fits = [s for s in spans if s[1] == "training.fit"]
    first_fit = min(s[2] for s in fits)
    main = rep.verb_span("cli." + rep.argvs[0][0])
    result = {"setup_s": [first_fit - main[2]]}
    if workload.kind == "compare":
        if trained:
            # Arms run on worker threads at once, so the study's examples
            # and test-evaluated users count against the time any arm covers.
            tests = [s for s in spans if s[1] == "evaluation.evaluate"]
            result["rank_users_per_s"] = [
                sum(s[6]["users"] for s in tests)
                / tracing.union_length((s[2], s[3]) for s in tests)]
            rows = _read_json(_flag(rep.argvs[0], "--out") / "study.json")["rows"]
            result["train_examples_per_s"] = [
                sum(s[6]["examples"] for s in fits)
                / tracing.union_length((s[2], s[3]) for s in fits)]
            result["study_s"] = [main[3] - first_fit]
            result["ndcg"] = [statistics.fmean(row["ndcg"] for row in rows)]
    else:
        evaluates = [s for s in spans if s[1] == "cli.evaluate"]
        metrics = _read_json(_flag(rep.argvs[1], "--out") / "metrics.json")
        result["rank_users_per_s"] = [metrics["num_users"] / tracing.duration(s)
                                      for s in evaluates]
        if trained:
            result["train_examples_per_s"] = [s[6]["examples"] / tracing.duration(s)
                                              for s in spans if s[1] == "training.epoch"]
            result["study_s"] = [main[3] - first_fit
                                 + statistics.median(tracing.duration(s) for s in evaluates)]
            result["ndcg"] = [metrics["ndcg"]]
    if trained:
        result["peak_rss_mb"] = [rep.result["peak_rss_mb"]]
    return result


LAYER_UNITS = {
    "data.batches": "count", "data.examples": "count", "training.steps": "count",
    "training.step_ms_p50": "ms", "training.step_ms_p99": "ms",
    "training.adam_elems": "count", "training.adam_live_ratio": "ratio",
    "models.forward_rows": "count", "models.score_rows": "count",
    "evaluation.users": "count", "checkpoint.bytes": "bytes", "trace.overhead_pct": "%",
}


def layer_units(names) -> dict:
    return {name: LAYER_UNITS.get(name, "s") for name in names}


def per_layer(traced: list, overheads: list) -> dict:
    """Median over traced repetitions; step percentiles over all their steps."""
    layers = [tracing.layer_metrics(rep.spans) for rep in traced]
    steps = sorted(ms for layer in layers for ms in layer.pop("training.step_ms"))
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    values["training.step_ms_p50"] = statistics.median(steps) if steps else 0.0
    values["training.step_ms_p99"] = (statistics.quantiles(steps, n=100, method="inclusive")[98]
                                      if len(steps) > 1 else sum(steps))
    values["trace.overhead_pct"] = statistics.median(overheads)
    return values


# ---------------------------------------------------------------------------
# Runs


def _verbs_wall(rep: Rep) -> float:
    return sum(tracing.duration(s) for s in rep.spans if s[1].startswith("cli."))


def run_workload(workload, seed: int, seconds: float, trace: bool, root: Path, work: Path):
    """Run one benchmark run; returns ``(result line dict, repetitions)``."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    inputs = workloads.write_inputs(workload.data, seed, work / "inputs")
    reps, traced, overheads = [], [], []
    pooled = {name: [] for name in END_TO_END_UNITS}

    def rep(name, trace_, epochs=None):
        out = work / name
        r = Rep(out=out, argvs=workloads.verbs(workload, inputs, out, seed, epochs), trace=trace_)
        run_child(root, r, deadline)
        reps.append(r)
        return r

    measure_start = time.monotonic()
    longest = 0.0
    while True:
        n = len(reps)
        base = rep(f"rep{n}", False)
        reference = reps[0]
        check_outputs(workload, base, reference)
        group = [base]
        if trace:
            t = rep(f"rep{n}-traced", True)
            check_outputs(workload, t, reference)
            group.append(t)
        ok = all(not any(r.errors) for r in group)
        if not ok:
            break
        if trace:
            check_trace(workload, t)
            traced.append(t)
            overheads.append(100.0 * (_verbs_wall(t) / _verbs_wall(base) - 1.0))
        else:
            for name, values in samples(workload, base).items():
                pooled[name] += values
        longest = max(longest, sum(r.wall for r in group))
        now = time.monotonic()
        if now - measure_start + longest > seconds or now + longest > deadline:
            break
    # Set-up is short beside a long repetition: until there are enough
    # set-up samples, repeat it with the ranking that follows, untrained.
    untrained = []
    while not trace and pooled["ndcg"] and len(pooled["setup_s"]) < MIN_SETUPS:
        r = rep(f"setup{len(untrained)}", False, epochs=0)
        untrained.append(r)
        check_outputs(workload, r, untrained[0])
        if any(r.errors):
            break
        for name, values in samples(workload, r, trained=False).items():
            pooled[name] += values

    attempted = sum(len(r.argvs) for r in reps)
    failed = sum(1 for r in reps for errors in r.errors if errors)
    if trace:
        values = per_layer(traced, overheads) if traced else {}
        units = layer_units(values)
    else:
        values = {name: statistics.median(v) for name, v in pooled.items() if v}
        units = END_TO_END_UNITS
    line = {
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    return line, reps


def _git_commit(root: Path):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path, workload, seed: int) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
    }


def _terminate(signum, frame):
    # Unwind normally, so that a running child is killed and waited for.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "conet" / "cli.py").is_file():
        print(f"error: no conet program under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    line, reps = run_workload(workload, args.seed, args.seconds, bool(args.trace), root, work)
    for rep in reps:
        for argv, errors in zip(rep.argvs, rep.errors):
            for error in errors:
                print(f"FAILED {rep.out.name} {argv[0]}: {error}", file=sys.stderr)
    env = environment(root, workload, args.seed)
    env["repetitions"] = len(reps)
    print(json.dumps({"environment": env}))
    print(json.dumps(line))
    if line["correct"]:
        shutil.rmtree(work, ignore_errors=True)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
