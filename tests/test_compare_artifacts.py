"""The byte comparison step of ``scripts/compare_artifacts.py``, without any training."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_artifacts.py"
spec = importlib.util.spec_from_file_location("compare_artifacts", SCRIPT)
compare_artifacts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_artifacts)


def write(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_reports_each_artifact_and_skips_other_files(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    common = {"train-mlp/model.ckpt": b"CKPT", "train-mlp/split.json": b"{}\n",
              "evaluate-mlp/metrics.json": b'{"ndcg": 0.5}\n'}
    write(parent, {**common, "train-mlp/history.jsonl": b"1\n", "compare/study.json": b"{}\n",
                   "train-mlp/config.txt": b"seed = 1\n", "notes.txt": b"a"})
    write(change, {**common, "train-mlp/history.jsonl": b"2\n",
                   "train-mlp/config.txt": b"seed = 2\n", "notes.txt": b"b"})
    lines = dict(compare_artifacts.compare_outputs(parent, change))
    assert lines == {
        Path("compare/study.json"): "MISSING in change",
        Path("evaluate-mlp/metrics.json"): "same",
        Path("train-mlp/history.jsonl"): "DIFFERENT",
        Path("train-mlp/model.ckpt"): "same",
        Path("train-mlp/split.json"): "same",
    }


def test_identical_trees_are_all_same(tmp_path):
    files = {f"run/{name}": name.encode() for name in compare_artifacts.ARTIFACTS}
    write(tmp_path / "parent", files)
    write(tmp_path / "change", files)
    lines = compare_artifacts.compare_outputs(tmp_path / "parent", tmp_path / "change")
    assert [status for _, status in lines] == ["same"] * len(compare_artifacts.ARTIFACTS)


def test_unexportable_ref_is_one_error_line_and_exit_2(capsys):
    assert compare_artifacts.main(["no-such-ref"]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: cannot export no-such-ref: ")
