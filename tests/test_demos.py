"""Each narrative demo runs to completion against the current library."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # demo 04 writes its CSVs to the working directory
    runpy.run_path(str(demo), run_name="__main__")
