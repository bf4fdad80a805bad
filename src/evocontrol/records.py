"""Deterministic JSON and CSV records.

Every file the package writes goes through this module: floats carry 17
significant digits, JSON keys are sorted, an extended real is a value
plus an explicit infinity flag, and each write is atomic (a temporary
file in the target directory, then a rename), so re-running a stored
configuration regenerates byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Sequence

import numpy as np

SPEC_VERSION = "1.0"
_FLOAT = "%.17g"


def fmt_float(x: float) -> str:
    """17 significant digits; infinities keep their sign."""
    return _FLOAT % x


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(record: dict, path: str) -> None:
    atomic_write_text(path, json.dumps(record, indent=2, sort_keys=True) + "\n")


def write_csv(path: str, header: Sequence[str],
              columns: Sequence[Sequence[float]]) -> None:
    """One header line, then one line of :func:`fmt_float` values per row
    of the equal-length ``columns``."""
    row = ",".join([_FLOAT] * len(header))
    values = (np.asarray(c, dtype=float).tolist() for c in columns)
    lines = [",".join(header)]
    lines.extend(row % r for r in zip(*values, strict=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


def ext_pair(name: str, value: float | None) -> dict:
    """Extended reals in JSON: a null plus an explicit infinity flag."""
    if value is None:
        return {name: None, f"{name}_infinite": False}
    if math.isinf(value):
        return {name: None, f"{name}_infinite": True}
    return {name: float(value), f"{name}_infinite": False}
