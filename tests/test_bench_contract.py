"""The names the benchmark harness resolves in the library.

``bench/tracing.py`` wraps library attributes by name and
``bench/workloads.py`` calls them through their modules, so a rename in
``src/`` breaks ``bench/run.py --trace 1`` without failing any library
test. These tests read ``bench/`` and change nothing in it.
"""

import os
import sys

import pytest

BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"
)


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, BENCH)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files in bench/
    try:
        import tracing
        import workloads  # noqa: F401  (its imports must resolve)
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = write_bytecode
    return tracing


def test_every_trace_target_is_an_attribute_of_its_owner(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing.TARGETS
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_install_then_remove_restores_the_originals(tracing):
    before = [owner.__dict__[attr] for owner, attr, _ in tracing.TARGETS]
    remove = tracing.install(tracing.Tracer())
    try:
        wrapped = [owner.__dict__[attr] for owner, attr, _ in tracing.TARGETS]
        assert all(w is not b for w, b in zip(wrapped, before))
    finally:
        remove()
    after = [owner.__dict__[attr] for owner, attr, _ in tracing.TARGETS]
    assert all(a is b for a, b in zip(after, before))
