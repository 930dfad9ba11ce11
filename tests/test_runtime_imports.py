"""The package runs on numpy alone: no chartflow command imports scipy.

scipy costs several tenths of a second to import in every process, and it
is a test-only dependency. A fresh interpreter runs ``synth`` and then
``evaluate`` with both solvers and a post-stage tag filter through
``chartflow.cli.main``, and must not have loaded any ``scipy`` module,
lazily or otherwise.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import SMALL_PLANT

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
from chartflow.cli import main

spec, out = sys.argv[1], sys.argv[2]
assert main(["synth", spec, "--output-dir", out]) == 0
corpus = ["--corpus-path", out + "/corpus.csv"]
assert main(["evaluate", *corpus, "--output-dir", out + "/ols"]) == 0
assert main(["evaluate", *corpus, "--solver", "nnls",
             "--output-dir", out + "/nnls"]) == 0
assert main(["evaluate", *corpus, "--tags-path", out + "/tags.csv",
             "--tag", "indie", "--filter-stage", "post",
             "--output-dir", out + "/post"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_evaluate_loads_no_scipy(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SMALL_PLANT.to_dict()))
    (tmp_path / "tags.csv").write_text(
        "artist,tag\n" + "".join(f"a{i:04d},indie\n" for i in range(0, 40, 2))
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(spec), str(tmp_path)],
        capture_output=True,
        text=True,
        env={**{k: v for k, v in os.environ.items()
                if not k.startswith("CHARTFLOW_")},
             "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "post" / "report.json").exists()
