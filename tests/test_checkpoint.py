"""Versioned binary checkpoint round-trips and refusal paths."""

import hashlib
import json

import numpy as np
import pytest

from eadforecast.checkpoint import (
    HEADER_KEYS,
    MAGIC,
    Checkpoint,
    check_compatible,
    load_checkpoint,
    save_checkpoint,
)
from eadforecast.errors import ConfigError, DataError
from eadforecast.lstm import ModelSpec, forward_batch
from eadforecast.training import MinMaxScaler
from tests.test_lstm import random_model


@pytest.fixture
def saved(tmp_path):
    rng = np.random.default_rng(8)
    model = random_model(rng, ModelSpec(input_dim=3, hidden1=4, hidden2=3, fc1=5, fc2=4, horizon=2))
    scaler = MinMaxScaler(
        feature_min=np.array([0.0, 10.0, -5.0]),
        feature_max=np.array([1.0, 35.5, 5.0]),
        target_min=80.0,
        target_max=420.0,
    )
    meta = {"features": ["temperature", "humidity", "day_label"], "lookback": 7, "group": "all", "seed": 8}
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, model, scaler, meta)
    return path, model, scaler, meta


class TestRoundTrip:
    def test_forward_outputs_bit_exact(self, saved):
        path, model, _, _ = saved
        loaded = load_checkpoint(path)
        rng = np.random.default_rng(0)
        for _ in range(100):
            window = rng.normal(size=(1, 7, 3))
            y0, _ = forward_batch(model, window)
            y1, _ = forward_batch(loaded.model, window)
            assert np.array_equal(y0, y1)

    def test_scaler_and_meta_survive(self, saved):
        path, _, scaler, meta = saved
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.scaler.feature_min, scaler.feature_min)
        assert loaded.scaler.target_max == scaler.target_max
        assert loaded.meta == meta

    def test_save_is_deterministic(self, saved, tmp_path):
        path, model, scaler, meta = saved
        again = tmp_path / "again.bin"
        save_checkpoint(again, model, scaler, meta)
        assert path.read_bytes() == again.read_bytes()


class TestRefusals:
    def test_truncated_payload(self, saved):
        path, _, _, _ = saved
        blob = path.read_bytes()
        path.write_bytes(blob[:-64])
        with pytest.raises(DataError, match="truncated|corrupt"):
            load_checkpoint(path)

    def test_bad_magic(self, saved):
        path, _, _, _ = saved
        blob = path.read_bytes()
        path.write_bytes(b"XXXXXXXX" + blob[8:])
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_tampered_header_digest(self, saved):
        path, _, _, _ = saved
        blob = path.read_bytes()
        patched = blob.replace(b'"lookback": 7', b'"lookback": 9', 1)
        assert patched != blob
        path.write_bytes(patched)
        with pytest.raises(DataError, match="digest"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit", ["array", *(f"no_{key}" for key in HEADER_KEYS), "short_manifest", "long_manifest"]
    )
    def test_malformed_header(self, saved, edit):
        # Rewrite the header (and its length) around the payload.
        path, _, _, _ = saved
        blob = path.read_bytes()
        start = len(MAGIC) + 8
        length = int(np.frombuffer(blob, dtype="<u8", count=1, offset=len(MAGIC))[0])
        header = json.loads(blob[start : start + length])
        payload = blob[start + length :]
        if edit == "array":
            header = [header]
        elif edit == "short_manifest":
            # Drop head.b from the manifest and the payload, with a matching hash.
            dropped = header["arrays"].pop()
            payload = payload[: -8 * int(np.prod(dropped["shape"]))]
            header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        elif edit == "long_manifest":
            header["arrays"].append(header["arrays"][-1])
        else:
            del header[edit[len("no_"):]]
        text = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(MAGIC + np.array([len(text)], dtype="<u8").tobytes() + text + payload)
        with pytest.raises(DataError, match="corrupt checkpoint header"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_checkpoint(tmp_path / "nope.bin")

    def test_cross_config_mask_refused(self, saved):
        path, _, _, _ = saved
        ckpt = load_checkpoint(path)
        with pytest.raises(ConfigError, match="features"):
            check_compatible(ckpt, features=["temperature", "humidity", "day_label", "mobility"])
        with pytest.raises(ConfigError, match="lookback"):
            check_compatible(ckpt, lookback=14)
        with pytest.raises(ConfigError, match="horizon"):
            check_compatible(ckpt, horizon=1)
        # Matching config passes.
        check_compatible(
            ckpt, features=["temperature", "humidity", "day_label"], lookback=7, horizon=2, group="all"
        )
