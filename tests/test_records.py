"""Deterministic records: float format and CSV rows."""

import math

import numpy as np

from evocontrol import records


def test_fmt_float_keeps_the_sign_of_an_infinity():
    assert records.fmt_float(math.inf) == "inf"
    assert records.fmt_float(-math.inf) == "-inf"
    assert records.fmt_float(math.nan) == "nan"
    assert records.fmt_float(0.1) == "0.10000000000000001"
    assert records.fmt_float(-2.0) == "-2"


def test_csv_rows_carry_each_value_in_the_float_format(tmp_path):
    # every cell is the 17-digit format of its value, the reference
    # being one format call per value
    rng = np.random.default_rng(0)
    columns = [rng.standard_normal(50) * 10.0 ** rng.integers(-20, 20, 50),
               np.arange(50.0), [math.inf, -math.inf, 0.0, -0.0, 1e300] * 10]
    path = tmp_path / "rows.csv"
    records.write_csv(path, ["a", "b", "c"], columns)
    expected = ["a,b,c"] + [
        ",".join(format(float(v), ".17g") for v in row)
        for row in zip(*columns)
    ]
    assert path.read_text() == "\n".join(expected) + "\n"
