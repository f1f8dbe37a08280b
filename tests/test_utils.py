"""Tests for the utils layer: ids, config, logging."""

import threading

import pytest

from repro.utils import (
    Config,
    ConfigError,
    IdRegistry,
    get_logger,
)


class TestIdRegistry:
    def test_sequential_per_prefix(self):
        reg = IdRegistry()
        assert reg.generate("task") == "task.0000"
        assert reg.generate("task") == "task.0001"
        assert reg.generate("pilot") == "pilot.0000"

    def test_width(self):
        reg = IdRegistry()
        assert reg.generate("x", width=2) == "x.00"

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            IdRegistry().generate("")

    def test_thread_safety_no_duplicates(self):
        reg = IdRegistry()
        out = []
        def worker():
            for _ in range(200):
                out.append(reg.generate("t"))
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(out) == len(set(out)) == 1600


class DemoConfig(Config):
    _schema = {"name": str, "count": int, "rate": (int, float)}
    _defaults = {"name": "x", "count": 1, "rate": 0.5}


class TestConfig:
    def test_defaults_applied(self):
        cfg = DemoConfig()
        assert cfg.name == "x" and cfg.count == 1

    def test_kwargs_override(self):
        assert DemoConfig(count=5).count == 5

    def test_from_dict_and_kwargs_merge(self):
        cfg = DemoConfig(from_dict={"count": 2}, rate=1.5)
        assert cfg.count == 2 and cfg.rate == 1.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            DemoConfig(bogus=1)

    def test_type_checked(self):
        with pytest.raises(ConfigError, match="expected"):
            DemoConfig(count="three")

    def test_int_coerced_to_float(self):
        assert DemoConfig(rate=2).rate == 2

    def test_as_dict_is_deep_copy(self):
        cfg = DemoConfig()
        data = cfg.as_dict()
        data["count"] = 99
        assert cfg.count == 1

    def test_copy_and_equality(self):
        # records compare by identity; a copy has equal fields
        cfg = DemoConfig(count=7)
        clone = cfg.copy()
        assert clone != cfg and clone.as_dict() == cfg.as_dict()
        clone.count = 8
        assert cfg.count == 7


class TestLogging:
    def test_namespacing(self):
        assert get_logger("pilot").name == "repro.pilot"
        assert get_logger("repro.core").name == "repro.core"
