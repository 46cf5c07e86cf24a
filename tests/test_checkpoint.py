import hashlib
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from conet.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from conet.errors import DataError
from conet.models import DomainSizes, ModelConfig, build_model

SIZES = DomainSizes(num_users=9, num_items_target=7, num_items_source=8)


def build(arch, **kwargs):
    widths = (8, 8, 8) if arch == "csn" else (8, 4, 2)
    cfg = ModelConfig(architecture=arch, embedding_dim=4, hidden_widths=widths, **kwargs)
    return build_model(cfg, SIZES, seed=13)


@pytest.mark.parametrize("arch", ["mlp", "mlp++", "csn", "conet"])
def test_round_trip_bit_exact(arch, tmp_path):
    model = build(arch)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert set(loaded.params) == set(model.params)
    for name in model.params:
        assert loaded.params[name].dtype == np.float64
        assert loaded.params[name].shape == model.params[name].shape
        assert np.array_equal(loaded.params[name], model.params[name]), name

    # save of the loaded model reproduces identical bytes
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


# sha256 of the file each small model saves to, recorded when the format
# was still read field by field: the on-disk layout, the unshared-embedding
# flag included, is fixed byte for byte.
@pytest.mark.parametrize("arch,kwargs,digest", [
    ("mlp", {}, "a20bdea3d5fcafbf7f96e45e14119fdc8608380378221dffa5605076fe2df022"),
    ("mlp++", {}, "04369ed1ba27733b74d09efa9a6a61d238f889d34e67a2bdd515ad891cbb7b2e"),
    ("csn", {}, "91e1659d1406aa38c37a8c27cc9dd282dbf7ca435abef3f0f3f47b64c3ce0bb3"),
    ("conet", {"lasso_lambda": 0.25},
     "032a559b5460c94a74fff9f7a2fc08fd1f898c5509ccfbae73c5fe35a16f29cf"),
    ("mlp++", {"share_user_embedding": False},
     "cb795e494ed1a4674247e0577e8ddad5c54a320bc01f31615102e6cbc8564ca1"),
], ids=["mlp", "mlp++", "csn", "conet", "mlp++-unshared"])
def test_saved_bytes_match_the_pinned_digest(arch, kwargs, digest, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(build(arch, **kwargs), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_unshared_embedding_flag_round_trips(tmp_path):
    model = build("mlp++", share_user_embedding=False)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert not loaded.config.share_user_embedding
    assert "P_src" in loaded.params


def test_lambda_round_trips(tmp_path):
    model = build("conet", lasso_lambda=0.25)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    assert load_checkpoint(path).config.lasso_lambda == 0.25


def test_magic_is_checked(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT!" + b"\x00" * 40)
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(path)


def test_version_is_checked(tmp_path):
    model = build("mlp")
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[len(MAGIC)] = FORMAT_VERSION + 1
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="version"):
        load_checkpoint(path)


def test_truncation_is_detected(tmp_path):
    model = build("conet")
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(path)


def _corrupt(model, case):
    params = dict(model.params)
    config = model.config
    if case == "unknown_architecture":  # a config object cannot hold one: fake it
        config = SimpleNamespace(**{**vars(config), "architecture": "gcn"})
    elif case == "missing_tensor":
        del params["Q_t"]
    elif case == "extra_tensor":
        params["Z"] = np.zeros((1, 1))
    elif case == "wrong_shape":
        params["W_t_1"] = np.zeros((3, 3))
    elif case == "non_finite":
        params["H_0"] = np.full_like(params["H_0"], np.inf)
    elif case == "vector_as_column":
        params["b_t_0"] = params["b_t_0"].reshape(-1, 1)
    elif case == "vector_in_two_rows":
        params["b_t_0"] = params["b_t_0"].reshape(2, -1)
    return SimpleNamespace(config=config, params=params)


@pytest.mark.parametrize("case", ["unknown_architecture", "missing_tensor", "extra_tensor",
                                  "wrong_shape", "non_finite", "vector_as_column",
                                  "vector_in_two_rows"])
def test_corrupt_content_is_data_error(case, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_corrupt(build("conet"), case), path)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_unknown_flags_are_data_error(tmp_path):
    # Only bit 0 (separate source user embedding) is defined; a file setting
    # another bit was written by a format this loader does not know.
    model = build("conet")
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    flags_at = len(MAGIC) + 4 + 2 + len("conet")
    assert raw[flags_at:flags_at + 4] == b"\x00\x00\x00\x00"
    raw[flags_at] = 2
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="flags"):
        load_checkpoint(path)


@pytest.mark.parametrize("case, problem", [("trailing_byte", "trailing bytes"),
                                           ("tensor_twice", "stores tensor h_t twice")])
def test_corrupt_layout_is_data_error(case, problem, tmp_path):
    model = build("conet")
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    if case == "trailing_byte":
        raw += b"\x00"
    else:  # the last tensor written again, the tensor count raised to match
        record = {n: 2 + len(n) + 16 + 8 * a.size for n, a in model.params.items()}
        count_at = len(raw) - sum(record.values()) - 4
        (count,) = struct.unpack_from("<I", raw, count_at)
        last = raw[-record[max(record)]:]
        raw = raw[:count_at] + struct.pack("<I", count + 1) + raw[count_at + 4:] + last
    path.write_bytes(raw)
    with pytest.raises(DataError, match=problem):
        load_checkpoint(path)
