"""The construction examples print their committed golden output.

Between them the four scripts build ``auto``-selected, kernel, circular and
bipolar routings, so a change that builds a different routing, or renders a
table differently, shows here.  Each golden was recorded with::

    PYTHONHASHSEED=1 PYTHONPATH=src python examples/<name>.py > tests/golden/<name>.txt

The CI ``determinism`` job runs each script under two hash seeds and compares
both outputs with the same files.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

EXAMPLES = (
    "quickstart",
    "hypercube_fault_tolerance",
    "strategy_comparison",
    "random_graph_survey",
)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_matches_golden(name, capsys):
    runpy.run_path(str(ROOT / "examples" / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out == (ROOT / "tests" / "golden" / f"{name}.txt").read_text()
