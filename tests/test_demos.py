"""Each narrative demo, and README's library tour, runs to completion
against the current library."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # demo 04 writes its CSVs to the working directory
    runpy.run_path(str(demo), run_name="__main__")


def test_readme_library_tour_runs(capsys):
    # the one python block of README, run as written; it prints a chain's
    # fidelity and aggregated probability, then one enumerated leaf's
    # fidelity and probability
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (tour,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    exec(compile(tour, "README.md", "exec"), {"__name__": "__main__"})
    lines = capsys.readouterr().out.splitlines()
    printed = [[float(word) for word in line.split()] for line in lines]
    assert printed == [
        pytest.approx([0.98334895651961, 0.013356590851928092], rel=1e-9),
        pytest.approx([0.9886665553792907, 0.000503545785465942], rel=1e-9),
    ]
