import dataclasses
import json
import time

import numpy as np
import pytest

import run
import tracing
import workloads
from conftest import ROOT

TINY = workloads.Synthetic(users=60, items_target=150, items_source=120,
                           target_density=0.04, source_density=0.05)


def _targets(probes):
    found = []
    for module_name, path, *_ in probes:
        owner, attr = tracing.resolve(module_name, path)
        found.append((owner, attr, vars(owner)[attr]))
    return found


def test_wrappers_restored_after_traced_run(tmp_path):
    import conet.cli

    probes = tracing.PROBES + tracing.model_probes()
    before = _targets(probes)
    inputs = workloads.write_inputs(TINY, 5, tmp_path / "inputs")
    argvs = workloads.verbs(workloads.WORKLOADS["train-default"], inputs, tmp_path, 5, epochs=1)
    tracer = tracing.Tracer()
    tracer.install(probes)
    try:
        assert all(vars(owner)[attr] is not original for owner, attr, original in before)
        codes = [tracer.run_root("cli." + argv[0], conet.cli.main, argv) for argv in argvs]
    finally:
        tracer.uninstall()
    assert codes and set(codes) == {0}
    assert {s[1] for s in tracer.spans} >= set(run.REQUIRED["cli.train"])
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_missing_probe_target_fails_and_unwraps_the_rest():
    import conet.data

    original = conet.data.loo_split
    tracer = tracing.Tracer()
    for missing in ("no_such_function", "NoSuchClass.fit"):
        with pytest.raises(LookupError, match=f"conet.data.{missing}"):
            tracer.install([("conet.data", "loo_split", "data.loo_split", None, ""),
                            ("conet.data", missing, "x", None, "")])
        assert conet.data.loo_split is original


def _span(sid, name, start, end, parent, attrs=None):
    return [sid, name, start, end, parent, 0, attrs]


def test_self_time_on_hand_built_tree():
    spans = [
        _span(1, "cli.train", 0.0, 10.0, None),
        _span(2, "training.step", 1.0, 4.0, 1),
        _span(3, "training.step", 3.0, 6.0, 1),  # overlaps 2, as from another thread
        _span(4, "checkpoint.save", 8.0, 12.0, 1),  # runs past its parent: clipped
        _span(5, "models.forward", 2.0, 3.0, 2, {"rows": 7}),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 10.0 - 5.0 - 2.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0}
    layers = tracing.layer_metrics(spans)
    assert layers["training.step_self_s"] == 5.0
    assert layers["cli.self_s"] == 3.0
    assert layers["models.forward_s"] == 1.0
    assert layers["models.forward_rows"] == 7
    assert layers["models.score_s"] == 0.0
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0


def test_same_seed_gives_identical_tsvs(tmp_path):
    a = workloads.write_inputs(TINY, 7, tmp_path / "a")
    b = workloads.write_inputs(TINY, 7, tmp_path / "b")
    c = workloads.write_inputs(TINY, 8, tmp_path / "c")
    for key in ("target", "source"):
        assert a[key].read_bytes() == b[key].read_bytes()
        assert a[key].read_bytes() != c[key].read_bytes()
    target, source = workloads.generate(TINY, 7)
    assert {len(row) for row in target} == {6} and {len(row) for row in source} == {6}
    assert {i for row in target for i in row} == set(range(TINY.items_target))
    assert {i for row in source for i in row} == set(range(TINY.items_source))


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m.get("unit") for m in spec[kind]}


def test_benchmark_json_names_defined_workloads():
    assert set(_declared("workloads")) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_passes_its_checks(name, trace, tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS[name], data=TINY, epochs=1)
    line, reps = run.run_workload(workload, 3, 0.1, trace, ROOT, tmp_path)
    assert [e for r in reps for errors in r.errors for e in errors] == []
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == sum(len(r.argvs) for r in reps)
    units = {k: v["unit"] for k, v in line["metrics"].items()}
    assert units == _declared("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_broken_artifact_fails_the_operation(tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS["train-default"], data=TINY, epochs=1,
                                   evaluations=1)
    inputs = workloads.write_inputs(TINY, 3, tmp_path / "inputs")
    reps = []
    for name in ("a", "b"):
        rep = run.Rep(out=tmp_path / name, trace=False,
                      argvs=workloads.verbs(workload, inputs, tmp_path / name, 3))
        run.run_child(ROOT, rep, deadline=time.monotonic() + 120)
        reps.append(rep)
    metrics = reps[1].out / "evaluate0/metrics.json"
    record = json.loads(metrics.read_text(encoding="utf-8"))
    record["ndcg"] = np.nextafter(record["ndcg"], 1.0)
    metrics.write_text(json.dumps(record), encoding="utf-8")
    run.check_outputs(workload, reps[1], reps[0])
    assert reps[1].errors[0] == []
    assert any("ndcg" in e for e in reps[1].errors[1])
    assert any("differs" in e for e in reps[1].errors[1])
