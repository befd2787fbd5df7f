import sys
from pathlib import Path

# The suite runs from a fresh checkout without installing: an installed
# hbvm is used as it is, otherwise src/ goes first on sys.path.  The few
# tests that start an interpreter hand it the same import root on
# PYTHONPATH (run_python in test_cli.py).
_src = Path(__file__).resolve().parent.parent / "src"
if str(_src) not in sys.path:
    try:
        import hbvm  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_src))
