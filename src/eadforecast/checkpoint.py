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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .fileio import atomic_write_bytes
from .lstm import ForecastModel, ModelSpec, init_params, model_from_leaves, model_leaves
from .training import MinMaxScaler

MAGIC = b"EADCAST1"
FORMAT_VERSION = 1
# Header entries load_checkpoint reads besides format_version and config_digest.
HEADER_KEYS = ("arch", "scaler", "meta", "arrays", "payload_sha256")


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
        "arch": {
            "input_dim": model.input_dim,
            "hidden1": model.lstm1.hidden_size,
            "hidden2": model.lstm2.hidden_size,
            "fc1": model.fc1.W.shape[0],
            "fc2": model.fc2.W.shape[0],
            "horizon": model.horizon,
            "head_activation": model.head.activation,
            "lagged_m": model.lagged_m,
        },
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
    path = Path(path)
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
        raise DataError(f"{path}: corrupt checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise DataError(f"{path}: corrupt checkpoint header: not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"{path}: checkpoint format version {header.get('format_version')} "
            f"is not supported (expected {FORMAT_VERSION})"
        )
    missing = [key for key in HEADER_KEYS if key not in header]
    if missing:
        raise DataError(f"{path}: corrupt checkpoint header: no {', '.join(missing)}")
    expected = config_digest(
        {"arch": header["arch"], "scaler": header["scaler"], "meta": header["meta"]}
    )
    if header.get("config_digest") != expected:
        raise DataError(f"{path}: config digest mismatch; refusing to load")

    payload = blob[start + header_len :]
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise DataError(f"{path}: checkpoint payload is truncated or corrupt")

    arch = header["arch"]
    spec = ModelSpec(
        input_dim=arch["input_dim"], hidden1=arch["hidden1"], hidden2=arch["hidden2"],
        fc1=arch["fc1"], fc2=arch["fc2"], horizon=arch["horizon"],
        head_activation=arch["head_activation"], lagged_m=arch["lagged_m"],
    )
    template = init_params(spec, scheme="zeros")
    arrays = {}
    offset = 0
    flat = np.frombuffer(payload, dtype="<f8")
    leaves = model_leaves(template)
    manifest = header["arrays"]
    if not isinstance(manifest, list) or len(manifest) != len(leaves):
        raise DataError(
            f"{path}: corrupt checkpoint header: the array manifest does not list "
            f"the architecture's {len(leaves)} arrays"
        )
    for entry, (name, ref) in zip(manifest, leaves):
        if entry["name"] != name or tuple(entry["shape"]) != ref.shape:
            raise DataError(f"{path}: checkpoint array manifest does not match the architecture")
        size = ref.size
        arrays[name] = flat[offset : offset + size].reshape(ref.shape).astype(np.float64)
        offset += size
    if offset != flat.size:
        raise DataError(f"{path}: payload size does not match the manifest")

    model = model_from_leaves(template, arrays)
    model.validate()
    sc = header["scaler"]
    scaler = MinMaxScaler(
        feature_min=np.asarray(sc["feature_min"], dtype=np.float64),
        feature_max=np.asarray(sc["feature_max"], dtype=np.float64),
        target_min=float(sc["target_min"]),
        target_max=float(sc["target_max"]),
    )
    return Checkpoint(model=model, scaler=scaler, meta=header["meta"])


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
