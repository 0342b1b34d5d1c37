"""Versioned binary checkpoints.

Layout: 8-byte magic "EADCAST1", little-endian u64 header length, UTF-8 JSON
header, then the raw little-endian float64 parameter payload in the model's
canonical leaf order. The header embeds a SHA-256 of the payload and a digest
of the run configuration, so truncation, corruption, and cross-config loads
are all refused with a clear message. Round-tripping reproduces forward
outputs bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .fileio import atomic_write_bytes
from .lstm import ForecastModel, ModelSpec, model_leaves
from .training import MinMaxScaler

MAGIC = b"EADCAST1"
FORMAT_VERSION = 1
# Header entries load_checkpoint reads besides format_version and config_digest.
HEADER_KEYS = ("arch", "scaler", "meta", "arrays", "payload_sha256")
# The header's arch entry: every ModelSpec field, each of one JSON type.
ARCH_TYPES = {
    "input_dim": int, "hidden1": int, "hidden2": int, "fc1": int, "fc2": int,
    "horizon": int, "head_activation": str, "lagged_m": bool,
}


def config_digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


@dataclass
class Checkpoint:
    model: ForecastModel
    scaler: MinMaxScaler
    meta: dict


def save_checkpoint(path, model: ForecastModel, scaler: MinMaxScaler, meta: dict) -> None:
    leaves = model_leaves(model)
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in leaves)
    header = {
        "format_version": FORMAT_VERSION,
        "arch": asdict(model.spec),
        "scaler": {
            "feature_min": scaler.feature_min.tolist(),
            "feature_max": scaler.feature_max.tolist(),
            "target_min": scaler.target_min,
            "target_max": scaler.target_max,
        },
        "meta": meta,
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in leaves],
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header["config_digest"] = config_digest(
        {"arch": header["arch"], "scaler": header["scaler"], "meta": meta}
    )
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = (
        MAGIC
        + np.array([len(header_bytes)], dtype="<u8").tobytes()
        + header_bytes
        + payload
    )
    atomic_write_bytes(path, blob)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; anything malformed, truncated or corrupt is a DataError."""
    path = Path(path)

    def corrupt(what: str) -> DataError:
        return DataError(f"{path}: corrupt checkpoint header: {what}")

    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    blob = path.read_bytes()
    if len(blob) < len(MAGIC) + 8 or blob[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    header_len = int(np.frombuffer(blob, dtype="<u8", count=1, offset=len(MAGIC))[0])
    start = len(MAGIC) + 8
    if len(blob) < start + header_len:
        raise DataError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[start : start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise corrupt(str(exc)) from None
    if not isinstance(header, dict):
        raise corrupt("not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"{path}: checkpoint format version {header.get('format_version')} "
            f"is not supported (expected {FORMAT_VERSION})"
        )
    missing = [key for key in HEADER_KEYS if key not in header]
    if missing:
        raise corrupt(f"no {', '.join(missing)}")
    expected = config_digest(
        {"arch": header["arch"], "scaler": header["scaler"], "meta": header["meta"]}
    )
    if header.get("config_digest") != expected:
        raise DataError(f"{path}: config digest mismatch; refusing to load")

    payload = blob[start + header_len :]
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise DataError(f"{path}: checkpoint payload is truncated or corrupt")

    arch, sc, meta = header["arch"], header["scaler"], header["meta"]
    if not (isinstance(arch, dict) and {k: type(v) for k, v in arch.items()} == ARCH_TYPES
            and all(v >= 1 for v in arch.values() if type(v) is int)):
        raise corrupt(f"arch must hold {', '.join(ARCH_TYPES)} as written by save_checkpoint")
    try:
        spec = ModelSpec(**arch)
    except ConfigError as exc:
        raise corrupt(f"arch: {exc}") from None
    # Shapes and sizes come from the arch alone, so a huge one is refused
    # before anything of its size is allocated.
    shapes = spec.leaf_shapes()
    if header["arrays"] != [{"name": name, "shape": list(shape)} for name, shape in shapes]:
        raise corrupt(f"the array manifest does not list the architecture's {len(shapes)} arrays")
    if len(payload) != 8 * spec.size:
        raise DataError(f"{path}: payload size does not match the manifest")
    model = ForecastModel(spec)
    flat, pos = np.frombuffer(payload, dtype="<f8"), 0
    for _, leaf in model_leaves(model):  # the payload is in the canonical order
        leaf[...] = flat[pos : pos + leaf.size].reshape(leaf.shape)
        pos += leaf.size

    if not (isinstance(sc, dict) and isinstance(meta, dict)):
        raise corrupt("scaler and meta must be JSON objects")
    scaler = MinMaxScaler(
        feature_min=_numbers(sc.get("feature_min"), (model.input_dim,), corrupt),
        feature_max=_numbers(sc.get("feature_max"), (model.input_dim,), corrupt),
        target_min=float(_numbers(sc.get("target_min"), (), corrupt)),
        target_max=float(_numbers(sc.get("target_max"), (), corrupt)),
    )
    return Checkpoint(model=model, scaler=scaler, meta=meta)


def _numbers(value, shape: tuple, corrupt) -> np.ndarray:
    """A scaler entry as float64 of the given shape: a finite JSON number, or
    a list of them."""
    items = value if isinstance(value, list) else [value]
    if all(type(v) in (int, float) for v in items):
        arr = np.array(value, dtype=np.float64)
        if arr.shape == shape and np.isfinite(arr).all():
            return arr
    raise corrupt(f"scaler values must be {shape or 'one'} finite number(s), got {value!r}")


def check_compatible(
    ckpt: Checkpoint, *, features=None, lookback=None, horizon=None, group=None, baseline_month=None
) -> None:
    """Refuse cross-config use of a checkpoint. A value left None is not
    checked; so is a baseline month the checkpoint does not record."""
    meta = ckpt.meta
    if features is not None and list(features) != list(meta.get("features", [])):
        raise ConfigError(
            f"checkpoint was trained with features {meta.get('features')}, got {list(features)}"
        )
    if lookback is not None and lookback != meta.get("lookback"):
        raise ConfigError(
            f"checkpoint lookback is {meta.get('lookback')}, got {lookback}"
        )
    if horizon is not None and horizon != ckpt.model.horizon:
        raise ConfigError(f"checkpoint horizon is {ckpt.model.horizon}, got {horizon}")
    if group is not None and group != meta.get("group"):
        raise ConfigError(f"checkpoint group is {meta.get('group')!r}, got {group!r}")
    if baseline_month is not None and baseline_month != meta.get("baseline_month", baseline_month):
        raise ConfigError(
            f"checkpoint baseline month is {meta['baseline_month']!r}, got {baseline_month!r}"
        )
