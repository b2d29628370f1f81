"""Tests for utility helpers: RNG management, config serialization, timing, logging."""

import dataclasses
import logging
import time

import numpy as np
import pytest

from repro.utils import (
    ConfigError,
    Timer,
    config_from_dict,
    config_to_dict,
    derive_seed,
    format_duration,
    get_logger,
    load_json,
    new_rng,
    save_json,
    set_verbosity,
    spawn_rngs,
)
from repro.utils.rng import RngMixin, choice_without_replacement, shuffled_indices, split_indices


class TestRng:
    def test_new_rng_variants(self):
        assert isinstance(new_rng(None), np.random.Generator)
        seeded = new_rng(42)
        assert seeded.integers(0, 100) == new_rng(42).integers(0, 100)
        generator = np.random.default_rng(0)
        assert new_rng(generator) is generator

    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
        assert derive_seed(1, "a") != derive_seed(2, "a")
        assert 0 <= derive_seed(7, "x") < 2 ** 63

    def test_spawn_rngs(self):
        rngs = spawn_rngs(0, 3)
        assert len(rngs) == 3
        values = [r.integers(0, 10**9) for r in rngs]
        assert len(set(values)) == 3
        assert spawn_rngs(0, 0) == []
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_rng_mixin(self):
        class Thing(RngMixin):
            pass

        thing = Thing(5)
        first = thing.rng.integers(0, 1000)
        thing.reseed(5)
        assert thing.rng.integers(0, 1000) == first

    def test_choice_without_replacement(self):
        rng = np.random.default_rng(0)
        picked = choice_without_replacement(rng, list(range(10)), 5)
        assert len(set(picked.tolist())) == 5
        with pytest.raises(ValueError):
            choice_without_replacement(rng, [1, 2], 5)

    def test_shuffled_and_split_indices(self):
        rng = np.random.default_rng(0)
        assert sorted(shuffled_indices(rng, 10).tolist()) == list(range(10))
        groups = split_indices(rng, 10, [0.5, 0.5])
        assert sum(len(g) for g in groups) == 10
        with pytest.raises(ValueError):
            split_indices(rng, 10, [0.8, 0.5])
        with pytest.raises(ValueError):
            split_indices(rng, 10, [-0.1, 0.5])


@dataclasses.dataclass
class InnerConfig:
    value: int = 3


@dataclasses.dataclass
class OuterConfig:
    name: str = "x"
    rate: float = 0.5
    inner: InnerConfig = dataclasses.field(default_factory=InnerConfig)
    values: tuple = (1, 2, 3)


class TestConfig:
    def test_round_trip(self):
        config = OuterConfig(name="test", rate=0.25, inner=InnerConfig(7), values=(4, 5))
        payload = config_to_dict(config)
        assert payload["inner"] == {"value": 7}
        restored = config_from_dict(OuterConfig, payload)
        assert restored.name == "test"
        assert restored.inner.value == 7

    def test_numpy_values_serializable(self):
        @dataclasses.dataclass
        class WithArray:
            data: np.ndarray = dataclasses.field(default_factory=lambda: np.arange(3))
            scalar: float = np.float64(1.5)

        payload = config_to_dict(WithArray())
        assert payload["data"] == [0, 1, 2]
        assert payload["scalar"] == 1.5

    def test_unknown_keys_ignored(self):
        restored = config_from_dict(OuterConfig, {"name": "y", "bogus": 1})
        assert restored.name == "y"

    def test_errors(self):
        with pytest.raises(ConfigError):
            config_to_dict({"not": "a dataclass"})
        with pytest.raises(ConfigError):
            config_from_dict(dict, {})

        @dataclasses.dataclass
        class Bad:
            thing: object = None

        with pytest.raises(ConfigError):
            config_to_dict(Bad(thing=object()))

    def test_save_and_load_json(self, tmp_path):
        path = save_json(OuterConfig(), tmp_path / "nested" / "config.json")
        loaded = load_json(path)
        assert loaded["name"] == "x"
        assert loaded["values"] == [1, 2, 3]

    def test_concurrent_atomic_writers_never_expose_a_torn_file(self, tmp_path):
        import multiprocessing

        path = tmp_path / "entry.json"
        save_json(_atomic_payload(), path, atomic=True)
        context = multiprocessing.get_context("spawn")
        writers = [
            context.Process(target=_atomic_writer, args=(str(path), 20)) for _ in range(3)
        ]
        for writer in writers:
            writer.start()
        torn = 0
        while any(writer.is_alive() for writer in writers):
            try:
                assert load_json(path) == _atomic_payload()
            except ValueError:
                torn += 1
        for writer in writers:
            writer.join(timeout=60)
            assert not writer.is_alive() and writer.exitcode == 0
        assert torn == 0
        assert not list(tmp_path.glob("*.tmp"))


def _atomic_payload():
    return {"rows": [[float(i) / 7.0] * 64 for i in range(64)]}


def _atomic_writer(path, rounds):
    for _ in range(rounds):
        save_json(_atomic_payload(), path, atomic=True)


class TestTiming:
    def test_format_duration(self):
        assert format_duration(0.0000005).endswith("us")
        assert format_duration(0.5).endswith("ms")
        assert format_duration(5).endswith("s")
        assert "m" in format_duration(90)
        assert "h" in format_duration(7200)
        with pytest.raises(ValueError):
            format_duration(-1)

    def test_format_duration_unit_boundaries(self):
        # Values just under a unit boundary must carry into the next unit
        # instead of rendering an impossible component like "1m60.0s".
        assert format_duration(119.99) == "2m00.0s"
        assert format_duration(59.999) == "1m00.0s"
        assert format_duration(3599.99) == "1h00m"
        assert format_duration(0.99999) == "1.00s"
        assert format_duration(0.00099999) == "1.0ms"

    def test_format_duration_exact_values(self):
        assert format_duration(0.0) == "0us"
        assert format_duration(60.0) == "1m00.0s"
        assert format_duration(90.0) == "1m30.0s"
        assert format_duration(3599.94) == "59m59.9s"
        assert format_duration(3600.0) == "1h00m"
        assert format_duration(5400.0) == "1h30m"

    def test_timer_context(self):
        with Timer("test") as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.005
        assert not timer.running
        assert "test" in repr(timer)

    def test_timer_manual_and_errors(self):
        timer = Timer()
        with pytest.raises(RuntimeError):
            timer.stop()
        timer.start()
        assert timer.running
        timer.stop()
        timer.reset()
        assert timer.elapsed == 0.0


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("core.reduce").name == "repro.core.reduce"
        assert get_logger("repro.nn").name == "repro.nn"

    def test_set_verbosity(self):
        set_verbosity(2)
        assert logging.getLogger("repro").level == logging.DEBUG
        set_verbosity(0)
        assert logging.getLogger("repro").level == logging.WARNING
