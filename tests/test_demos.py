"""The demos run to the end.

Demo 04 is left out: it repeats the C1 escape runs of ``test_acceptance``,
about 9 s.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_catalog_tour", "02_discrete_vs_flow", "03_stability_probe",
                                  "05_convex_rate_bounds"])
def test_demo_runs_to_the_end(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demo 02 writes its CSV pairs into the working directory
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out != ""
