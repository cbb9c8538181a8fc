"""The quick demos run to completion.

Demos 01-04 take well under a second each, so each runs here as a script in a
fresh process and working directory, with the package from this checkout,
and must exit 0; this catches a demo broken by a changed signature. Demos 05
(toy training, about 5 s) and 06 (ablations and phase maps, about 35 s) are
too slow for this suite and stay manual: ``python demos/05_toy_training.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_quick_demos_are_found():
    assert [p.name[:2] for p in QUICK_DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=[p.stem for p in QUICK_DEMOS])
def test_quick_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
