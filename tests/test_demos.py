"""Every script under demos/ runs against the current API."""

import glob
import os
import runpy

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, capsys):
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out
