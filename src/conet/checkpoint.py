"""Binary model checkpoints with a bit-exact round trip.

Layout (all integers little-endian):

* magic ``CONETCKPT`` (9 bytes), format version ``u32`` (currently 1)
* architecture tag: ``u16`` length + utf-8 bytes
* flags ``u32``: bit 0 set when the mlp++ ablation trains two separate
  user embeddings instead of one shared matrix
* config block: embedding dim ``u32``, hidden layer count ``u32``,
  widths ``u32`` each, lasso lambda ``f64``
* tensor count ``u32``, then every tensor in alphabetical name order:
  name (``u16`` length + utf-8), rows ``u64``, cols ``u64``, row-major
  ``f64`` data

Vectors (bias, output weight and stitch-scalar tensors, names starting
with ``b_``, ``h`` or ``alpha_``) are stored as one row and restored to
1-D on load. A file that parses but does not hold a valid model (unknown
architecture; missing, extra, misshapen or non-finite tensors; a vector
not stored as one row) is a data error, like a truncated one.
"""

from __future__ import annotations

import struct

import numpy as np

from .data import write_atomic
from .errors import ConfigError, DataError
from .models import DomainSizes, Model, ModelConfig

__all__ = ["save_checkpoint", "load_checkpoint", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"CONETCKPT"
FORMAT_VERSION = 1
_FLAG_UNSHARED_EMBEDDING = 1


def _is_vector_name(name: str) -> bool:
    return name == "h" or name.startswith(("b_", "h_", "alpha_"))


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def save_checkpoint(model, path) -> None:
    """Serialize config and parameters; reload is bit-exact."""
    cfg = model.config
    widths = cfg.hidden_widths
    flags = 0 if cfg.share_user_embedding else _FLAG_UNSHARED_EMBEDDING
    out = bytearray(MAGIC + struct.pack("<I", FORMAT_VERSION) + _pack_str(cfg.architecture))
    out += struct.pack(f"<III{len(widths)}Id", flags, cfg.embedding_dim, len(widths), *widths,
                       cfg.lasso_lambda)
    names = sorted(model.params)
    out += struct.pack("<I", len(names))
    for name in names:
        arr = model.params[name]
        mat = arr.reshape(1, -1) if arr.ndim == 1 else arr
        out += _pack_str(name)
        out += struct.pack("<QQ", mat.shape[0], mat.shape[1])
        out += np.ascontiguousarray(mat, dtype="<f8").tobytes()
    write_atomic(path, bytes(out))


def _rows(params: dict, *names) -> int:
    return next((params[n].shape[0] for n in names if n in params), 0)


def load_checkpoint(path):
    """Rebuild the model saved by :func:`save_checkpoint`."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(buf):
            raise DataError("checkpoint file is truncated")
        pos += n
        return buf[pos - n : pos]

    def text() -> str:
        try:
            return take(*struct.unpack("<H", take(2))).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"checkpoint has a malformed name ({exc})") from exc

    if take(len(MAGIC)) != MAGIC:
        raise DataError(f"{path} is not a model checkpoint (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint format version {version}")
    architecture = text()
    (flags,) = struct.unpack("<I", take(4))
    if flags & ~_FLAG_UNSHARED_EMBEDDING:
        raise DataError(f"checkpoint sets unknown flags {flags:#x}")
    embedding_dim, num_widths = struct.unpack("<II", take(8))
    *widths, lam = struct.unpack(f"<{num_widths}Id", take(4 * num_widths + 8))
    params = {}
    for _ in range(*struct.unpack("<I", take(4))):
        name = text()
        rows, cols = struct.unpack("<QQ", take(16))
        data = np.frombuffer(take(rows * cols * 8), dtype="<f8").astype(np.float64)
        if name in params:
            raise DataError(f"checkpoint stores tensor {name} twice")
        if not np.all(np.isfinite(data)):
            raise DataError(f"checkpoint tensor {name} has non-finite values")
        if _is_vector_name(name) and rows != 1:
            raise DataError(f"checkpoint vector {name} is stored as {rows}x{cols}, not one row")
        params[name] = data if _is_vector_name(name) else data.reshape(rows, cols)
    if pos != len(buf):
        raise DataError("checkpoint has trailing bytes")

    # mlp names its item table Q, the two-tower models Q_t and Q_s.
    sizes = DomainSizes(_rows(params, "P"), _rows(params, "Q", "Q_t"), _rows(params, "Q_s"))
    try:
        config = ModelConfig(architecture=architecture, embedding_dim=embedding_dim,
                             hidden_widths=tuple(widths), lasso_lambda=lam,
                             share_user_embedding=not (flags & _FLAG_UNSHARED_EMBEDDING))
        return Model(config, sizes, params)
    except ConfigError as exc:
        raise DataError(f"{path} does not hold a valid model: {exc}") from exc
