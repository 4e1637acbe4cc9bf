"""Tests for repro.util: rng, timing, validation, formatting, errors."""

import time

import numpy as np
import pytest

from repro.util import (
    CommunicationError,
    DataFormatError,
    ReproError,
    Stopwatch,
    ValidationError,
    default_rng,
    format_table,
    human_bytes,
    human_count,
    require,
    require_in_range,
    require_positive,
    require_same_length,
    require_shape,
    spawn_rngs,
)


class TestRng:
    def test_default_seed_is_deterministic(self):
        a = default_rng().random(5)
        b = default_rng().random(5)
        assert np.array_equal(a, b)

    def test_integer_seed(self):
        assert np.array_equal(default_rng(7).random(3), default_rng(7).random(3))
        assert not np.array_equal(default_rng(7).random(3), default_rng(8).random(3))

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert default_rng(gen) is gen

    def test_spawn_rngs_independent_streams(self):
        children = spawn_rngs(3, 4)
        assert len(children) == 4
        draws = [c.random(4).tolist() for c in children]
        # all four streams differ
        for i in range(4):
            for j in range(i + 1, 4):
                assert draws[i] != draws[j]

    def test_spawn_rngs_deterministic(self):
        a = [c.random(2).tolist() for c in spawn_rngs(5, 3)]
        b = [c.random(2).tolist() for c in spawn_rngs(5, 3)]
        assert a == b

    def test_spawn_zero(self):
        assert spawn_rngs(1, 0) == []

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)


class TestTiming:
    def test_stopwatch_measures(self):
        with Stopwatch() as sw:
            time.sleep(0.01)
        assert sw.elapsed >= 0.009

    def test_stopwatch_stop_before_start_raises(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()


class TestValidation:
    def test_require_passes_and_fails(self):
        require(True, "fine")
        with pytest.raises(ValidationError, match="broken"):
            require(False, "broken")

    def test_require_positive(self):
        require_positive(1e-9, "x")
        with pytest.raises(ValidationError):
            require_positive(0, "x")

    def test_require_in_range_inclusive(self):
        require_in_range(0.0, 0.0, 1.0, "x")
        require_in_range(1.0, 0.0, 1.0, "x")
        with pytest.raises(ValidationError):
            require_in_range(1.01, 0.0, 1.0, "x")

    def test_require_shape(self):
        require_shape(np.zeros((3, 4)), (3, None), "m")
        with pytest.raises(ValidationError):
            require_shape(np.zeros((3, 4)), (4, None), "m")
        with pytest.raises(ValidationError):
            require_shape([1, 2, 3], (3,), "m")  # no .shape

    def test_require_same_length(self):
        require_same_length([1, 2], ["a", "b"], "a", "b")
        with pytest.raises(ValidationError):
            require_same_length([1], [1, 2], "a", "b")


class TestFormatting:
    def test_human_bytes(self):
        assert human_bytes(512) == "512 B"
        assert human_bytes(2048) == "2.0 KiB"
        assert human_bytes(3 * 1024**2) == "3.0 MiB"

    def test_human_count(self):
        assert human_count(999) == "999"
        assert human_count(250_000_000) == "250.0M"

    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["alpha", 1.5], ["b", 22]])
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert "alpha" in lines[2]
        # numeric column right-aligned: '22' ends at same column as '1.5'
        assert lines[2].rstrip().endswith("1.5")

    def test_format_table_handles_ragged_rows(self):
        table = format_table(["a", "b"], [["x"]])
        assert "x" in table


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(DataFormatError, ReproError)
        assert issubclass(ValidationError, ReproError)
        assert issubclass(CommunicationError, ReproError)

    def test_data_format_error_location(self):
        err = DataFormatError("bad cell", path="f.pcl", line=7)
        assert "f.pcl:7" in str(err)
        assert err.path == "f.pcl" and err.line == 7

    def test_data_format_error_no_location(self):
        assert "bad" in str(DataFormatError("bad"))
