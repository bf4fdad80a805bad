"""Report the numeric differences between two golden output trees.

Usage: python3 tools/golden_delta.py DIR_A DIR_B

DIR_A and DIR_B are two ``tools/golden.py`` output directories, usually
written at two commits. For every JSON or CSV file in either tree the
script prints how many numeric fields differ, out of how many, with the
largest absolute and relative delta (|a - b| / max(|a|, |b|)). Fields
that are not numbers (strings, flags, nulls), or that exist on one side
only, are counted as "other" differences. The exit code is 0 when every
file matches exactly, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys

SUFFIXES = (".json", ".csv")


def _files(root: str) -> set[str]:
    found = set()
    for where, _, names in os.walk(root):
        for name in names:
            if name.endswith(SUFFIXES):
                found.add(os.path.relpath(os.path.join(where, name), root))
    return found


def _leaves(node, path=()):
    """(path, value) for every scalar of a parsed JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


def _number(value):
    """The float a field stands for, or None if it is not a number."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _fields(path: str) -> dict:
    if path.endswith(".json"):
        with open(path) as fh:
            return dict(_leaves(json.load(fh)))
    with open(path, newline="") as fh:
        return {(r, c): cell for r, row in enumerate(csv.reader(fh))
                for c, cell in enumerate(row)}


def compare(path_a: str, path_b: str) -> dict:
    a, b = _fields(path_a), _fields(path_b)
    numeric = differ = other = 0
    max_abs = max_rel = 0.0
    for key in a.keys() | b.keys():
        x = _number(a.get(key))
        y = _number(b.get(key))
        if x is None or y is None:
            other += key not in a or key not in b or a[key] != b[key]
            continue
        numeric += 1
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        differ += 1
        delta = abs(x - y)
        max_abs = max(max_abs, delta)
        max_rel = max(max_rel, delta / max(abs(x), abs(y)))
    return {"numeric": numeric, "differ": differ, "other": other,
            "max_abs": max_abs, "max_rel": max_rel}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/golden_delta.py DIR_A DIR_B",
              file=sys.stderr)
        return 2
    root_a, root_b = argv
    files_a, files_b = _files(root_a), _files(root_b)
    clean = True
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            side = root_b if rel in files_a else root_a
            print(f"{rel}: missing in {side}")
            clean = False
            continue
        d = compare(os.path.join(root_a, rel), os.path.join(root_b, rel))
        clean = clean and not d["differ"] and not d["other"]
        print(f"{rel}: {d['differ']} of {d['numeric']} numeric fields "
              f"differ, max abs {d['max_abs']:.3g}, max rel "
              f"{d['max_rel']:.3g}; {d['other']} other fields differ")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
