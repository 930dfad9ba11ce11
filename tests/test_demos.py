"""The quick demos run to completion.

Each of ``demos/01``-``03`` runs as a fresh process and must exit 0; they
take a few seconds together. ``demos/04_paper_scale.py`` synthesizes a
2.4M-record corpus and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-3]_*.py"))


def test_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**{k: v for k, v in os.environ.items()
                if not k.startswith("CHARTFLOW_")},
             "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert result.returncode == 0, result.stderr
