import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [demo.name for demo in DEMOS] == [
        "eigenfunction_grid.py", "invariant_dimensions.py", "spectrum_tour.py",
        "weyl_law.py", "weyl_remainder.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs_cleanly(demo):
    # a fresh interpreter, as a reader would run it: exit 0 and nothing on stderr
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
