"""Deterministic text output: the float formatter, JSON writer and CSV lines."""

import json
import math

import numpy as np
import pytest

from pendavg.reporting import csv_lines, fmt_float, json_dumps


def test_negative_zero_renders_as_zero():
    assert fmt_float(-0.0) == "0"
    assert fmt_float(0.0) == "0"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_refused(value):
    with pytest.raises(ValueError):
        fmt_float(value)
    with pytest.raises(ValueError):
        json_dumps({"x": value})


def test_seventeen_digits_read_back_exactly():
    values = np.random.default_rng(15).standard_normal(200) * 10.0 ** np.arange(-100, 100)
    extremes = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3, math.pi]
    for value in [*values.tolist(), *extremes]:
        assert float(fmt_float(value)) == value
        assert json.loads(json_dumps([value])) == [value]


def test_keys_are_sorted_at_every_level():
    text = json_dumps({"b": 1, "a": {"d": 2.5, "c": [True, None]}})
    assert text == (
        "{\n"
        '  "a": {\n'
        '    "c": [\n'
        "      true,\n"
        "      null\n"
        "    ],\n"
        '    "d": 2.5\n'
        "  },\n"
        '  "b": 1\n'
        "}"
    )
    assert json.loads(text) == {"a": {"c": [True, None], "d": 2.5}, "b": 1}


def test_empty_containers():
    assert json_dumps({}) == "{}"
    assert json_dumps([]) == "[]"
    assert json_dumps({"a": [], "b": {}}) == '{\n  "a": [],\n  "b": {}\n}'


@pytest.mark.parametrize("text", ["", "plain", 'q"b\\s', "n\nr\rt\t", "\v\f\x1c\x1f\x00", "θ₁ ω"])
def test_strings_round_trip(text):
    assert json.loads(json_dumps({"s": text})) == {"s": text}


def test_arrays_must_arrive_as_lists():
    with pytest.raises(TypeError):
        json_dumps({"alpha": np.zeros(2)})


def test_csv_lines_end_in_lf():
    text = csv_lines(["a", "b"], [[1.0, -0.0], [0.1, 2.0]])
    assert text == "a,b\n1,0\n0.10000000000000001,2\n"
    assert "\r" not in text
