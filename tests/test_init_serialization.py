"""Tests for weight initialisers and checkpoint serialization."""

import gc
import warnings
import zipfile

import numpy as np
import pytest

from repro import nn
from repro.nn import init
from repro.nn.serialization import (
    clone_state_dict,
    load_checkpoint,
    load_into,
    save_checkpoint,
    state_dicts_equal,
)

RNG = np.random.default_rng(0)


class TestInitializers:
    def test_zeros_ones(self):
        assert np.all(init.zeros((3, 4)) == 0)
        assert np.all(init.ones((5,)) == 1)

    def test_uniform_range(self):
        values = init.uniform((1000,), -2.0, 3.0, RNG)
        assert values.min() >= -2.0 and values.max() < 3.0
        with pytest.raises(ValueError):
            init.uniform((2,), 1.0, -1.0, RNG)

    def test_normal_std(self):
        values = init.normal((5000,), 0.0, 2.0, np.random.default_rng(1))
        assert abs(values.std() - 2.0) < 0.1
        with pytest.raises(ValueError):
            init.normal((2,), 0.0, -1.0, RNG)

    def test_xavier_uniform_bound(self):
        shape = (64, 32)
        values = init.xavier_uniform(shape, np.random.default_rng(2))
        bound = np.sqrt(6.0 / (32 + 64))
        assert np.abs(values).max() <= bound + 1e-6

    def test_xavier_normal_std(self):
        values = init.xavier_normal((200, 200), np.random.default_rng(3))
        expected = np.sqrt(2.0 / 400)
        assert abs(values.std() - expected) / expected < 0.1

    def test_kaiming_fan_modes(self):
        conv_shape = (16, 8, 3, 3)
        fan_in_values = init.kaiming_normal(conv_shape, np.random.default_rng(4), mode="fan_in")
        fan_out_values = init.kaiming_normal(conv_shape, np.random.default_rng(4), mode="fan_out")
        assert fan_in_values.std() > fan_out_values.std()

    def test_kaiming_uniform_dtype(self):
        assert init.kaiming_uniform((10, 10), RNG).dtype == np.float32

    def test_bias_uniform_bound(self):
        values = init.bias_uniform_for((32, 64), (32,), np.random.default_rng(5))
        assert np.abs(values).max() <= 1.0 / np.sqrt(64) + 1e-6

    def test_fan_for_scalar_raises(self):
        with pytest.raises(ValueError):
            init.xavier_uniform((), RNG)


class TestSerialization:
    def test_save_and_load_round_trip(self, tmp_path):
        model = nn.Sequential(nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=1))
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        restored = nn.Sequential(nn.Linear(4, 8, rng=7), nn.ReLU(), nn.Linear(8, 2, rng=8))
        load_into(restored, path)
        assert state_dicts_equal(model.state_dict(), restored.state_dict())

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "missing.npz")

    @pytest.mark.parametrize(
        "corruption", [b"garbage", b"PK\x03\x04truncated-zip"], ids=["not-a-zip", "torn-zip"]
    )
    def test_unreadable_archive_closes_its_file(self, tmp_path, corruption):
        path = tmp_path / "broken.npz"
        path.write_bytes(corruption)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises((ValueError, OSError, zipfile.BadZipFile)):
                load_checkpoint(path)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_save_raw_state_dict(self, tmp_path):
        state = {"a": np.arange(3.0), "b": np.ones((2, 2))}
        path = save_checkpoint(state, tmp_path / "raw.npz")
        loaded = load_checkpoint(path)
        assert state_dicts_equal(state, loaded)

    def test_clone_state_dict_is_deep(self):
        model = nn.Linear(3, 3, rng=0)
        clone = clone_state_dict(model.state_dict())
        clone["weight"][:] = 0.0
        assert not np.allclose(model.weight.data, 0.0)

    def test_state_dicts_equal_detects_differences(self):
        a = {"w": np.ones(3)}
        assert not state_dicts_equal(a, {"w": np.zeros(3)})
        assert not state_dicts_equal(a, {"v": np.ones(3)})
        assert not state_dicts_equal(a, {"w": np.ones(4)})
        assert state_dicts_equal(a, {"w": np.ones(3) + 1e-9}, atol=1e-6)

    def test_batchnorm_buffers_survive_round_trip(self, tmp_path):
        model = nn.Sequential(nn.Conv2d(2, 4, 3, padding=1, rng=0), nn.BatchNorm2d(4))
        model(nn.Tensor(np.random.default_rng(0).standard_normal((4, 2, 6, 6)).astype(np.float32)))
        path = save_checkpoint(model, tmp_path / "bn.npz")
        fresh = nn.Sequential(nn.Conv2d(2, 4, 3, padding=1, rng=5), nn.BatchNorm2d(4))
        load_into(fresh, path)
        np.testing.assert_allclose(fresh[1].running_mean, model[1].running_mean)
