import runpy
from pathlib import Path

import numpy as np
import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", ["build_tableaux.py",
                                    "convergence_order.py",
                                    "energy_conservation.py",
                                    "isospectral_structure.py",
                                    "stability_scan.py"])
def test_demo_runs(script):
    # build_tableaux.py sets numpy's print options; later tests keep theirs
    with np.printoptions(**np.get_printoptions()):
        runpy.run_path(str(DEMOS / script), run_name="__main__")
