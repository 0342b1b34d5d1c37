"""Versioned binary checkpoint round-trips and refusal paths."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eadforecast.checkpoint import (
    HEADER_KEYS,
    MAGIC,
    Checkpoint,
    check_compatible,
    config_digest,
    load_checkpoint,
    save_checkpoint,
)
from eadforecast.errors import ConfigError, DataError
from eadforecast.lstm import (
    ForecastModel, ModelSpec, forward_batch, init_params, model_leaves, model_to_vector,
)
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

    def test_empty_meta_loads(self, saved, tmp_path):
        _, model, scaler, _ = saved
        save_checkpoint(tmp_path / "bare.bin", model, scaler, {})
        assert load_checkpoint(tmp_path / "bare.bin").meta == {}

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

    def test_a_huge_arch_is_refused_before_anything_of_its_size_is_allocated(self, saved):
        # hidden2 = 10**4 would make lstm2's four state matrices 3.2 GB; the
        # manifest is checked against the arch's shapes without building it.
        path, _, _, _ = saved
        blob = path.read_bytes()
        start = len(MAGIC) + 8
        length = int(np.frombuffer(blob, dtype="<u8", count=1, offset=len(MAGIC))[0])
        header = json.loads(blob[start : start + length])
        header["arch"]["hidden2"] = 10**4
        header["config_digest"] = config_digest(
            {name: header[name] for name in ("arch", "scaler", "meta")})
        text = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(MAGIC + np.array([len(text)], dtype="<u8").tobytes() + text
                         + blob[start + length :])
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="corrupt checkpoint header"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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


@pytest.fixture(scope="module")
def damage(tmp_path_factory):
    """A saved checkpoint's bytes, and a loader of damaged copies of them."""
    rng = np.random.default_rng(3)
    model = random_model(rng, ModelSpec(input_dim=2, hidden1=3, hidden2=2, fc1=3, fc2=2, horizon=2))
    scaler = MinMaxScaler(np.array([0.0, -1.5]), np.array([1.0, 2.5]), 3.0, 40.0)
    path = tmp_path_factory.mktemp("damage") / "checkpoint.bin"
    save_checkpoint(path, model, scaler, {"features": ["temperature", "mobility"], "lookback": 3})
    blob = path.read_bytes()
    original = load_checkpoint(path)

    def load(damaged: bytes):
        path.write_bytes(damaged)
        return load_checkpoint(path)

    return blob, original, load


class TestDamagedFiles:
    """Any damage is refused with a DataError, and with nothing else."""

    @given(st.data())
    def test_truncation_is_refused(self, damage, data):
        blob, _, load = damage
        cut = data.draw(st.integers(0, len(blob) - 1), "length")
        with pytest.raises(DataError):
            load(blob[:cut])

    @given(st.data())
    def test_a_changed_byte_is_refused_or_changes_nothing(self, damage, data):
        blob, original, load = damage
        at = data.draw(st.integers(0, len(blob) - 1), "offset")
        flip = data.draw(st.integers(1, 255), "xor")
        damaged = blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1 :]
        try:
            loaded = load(damaged)
        except DataError:
            return
        # A change the header's JSON values do not see (a space turned into
        # a tab, 1.0 into 1e0) may load, but only as the same checkpoint.
        assert model_to_vector(loaded.model).tobytes() == model_to_vector(original.model).tobytes()
        assert loaded.meta == original.meta
        for name, value in vars(original.scaler).items():
            assert np.array_equal(getattr(loaded.scaler, name), value)


V1_FILE = Path(__file__).parent / "data" / "checkpoint_v1.bin"


def v1_file_model() -> ForecastModel:
    """The model V1_FILE holds, built as it was when the file was written:
    a uniform init of seed 7, then every bias set to k + 0.25 * (1, 2, ...),
    k being its index in the canonical leaf order."""
    model = init_params(ModelSpec(input_dim=2, hidden1=3, hidden2=2, fc1=3, fc2=2, horizon=2), seed=7)
    for k, (_, leaf) in enumerate(model_leaves(model)):
        if leaf.ndim == 1:
            leaf[:] = k + 0.25 * np.arange(1, leaf.size + 1)
    return model


class TestFormatVersion1File:
    """V1_FILE was written by save_checkpoint when a model was twelve
    separate arrays per LSTM layer, with the scaler
    MinMaxScaler([0, -1.5], [1, 2.5], 3, 40); it pins format 1."""

    def test_loads_to_the_leaves_it_was_written_from(self):
        loaded = load_checkpoint(V1_FILE)
        for (name, got), (_, want) in zip(model_leaves(loaded.model), model_leaves(v1_file_model()),
                                          strict=True):
            assert got.tobytes() == want.tobytes(), name
        assert loaded.meta == {"features": ["temperature", "mobility"], "lookback": 3,
                               "group": "all", "seed": 7}
        assert loaded.scaler.feature_min.tolist() == [0.0, -1.5]
        assert (loaded.scaler.target_min, loaded.scaler.target_max) == (3.0, 40.0)

    def test_saving_it_again_reproduces_the_file(self, tmp_path):
        loaded = load_checkpoint(V1_FILE)
        save_checkpoint(tmp_path / "again.bin", loaded.model, loaded.scaler, loaded.meta)
        assert (tmp_path / "again.bin").read_bytes() == V1_FILE.read_bytes()
