import os
import subprocess
import sys
from pathlib import Path

import pytest

import hbvm

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", ["build_tableaux.py",
                                    "convergence_order.py",
                                    "energy_conservation.py",
                                    "isospectral_structure.py",
                                    "stability_scan.py"])
def test_demo_runs(script):
    src = str(Path(hbvm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / script)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
