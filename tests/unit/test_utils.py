"""RNG plumbing and formatting."""

import numpy as np
import pytest

from repro.utils import (
    as_generator,
    split_generator,
    format_bytes,
    format_seconds,
    ascii_table,
)


class TestRNG:
    def test_none_seed_is_deterministic(self):
        a = as_generator(None).integers(0, 1 << 30, size=8)
        b = as_generator(None).integers(0, 1 << 30, size=8)
        assert np.array_equal(a, b)

    def test_int_seed_reproducible(self):
        a = as_generator(42).random(4)
        b = as_generator(42).random(4)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(7)
        assert as_generator(g) is g

    def test_split_generator_children_independent(self):
        parent = as_generator(3)
        kids = split_generator(parent, 3)
        draws = [k.random(4) for k in kids]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_split_generator_deterministic(self):
        a = [g.random(2) for g in split_generator(as_generator(5), 2)]
        b = [g.random(2) for g in split_generator(as_generator(5), 2)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_split_generator_zero(self):
        assert split_generator(as_generator(1), 0) == []

    def test_split_generator_negative(self):
        with pytest.raises(ValueError):
            split_generator(as_generator(1), -1)


class TestFormat:
    def test_format_bytes_units(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.00 KiB"
        assert format_bytes(3 * 2**20) == "3.00 MiB"
        assert format_bytes(2**31) == "2.00 GiB"

    def test_format_bytes_negative(self):
        assert format_bytes(-2048) == "-2.00 KiB"

    def test_format_seconds_units(self):
        assert format_seconds(2.5) == "2.500 s"
        assert format_seconds(0.0382) == "38.20 ms"
        assert format_seconds(42e-6) == "42.00 us"
        assert format_seconds(5e-9) == "5.0 ns"

    def test_ascii_table_alignment(self):
        table = ascii_table(["a", "bbbb"], [["x", 1], ["yyyy", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_ascii_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            ascii_table(["a", "b"], [["only-one"]])
