import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "golden_outputs.py"
MANIFEST = ROOT / "scripts" / "golden_manifest.json"


def test_seeded_outputs_match_the_golden_manifest(tmp_path):
    # Every seeded CLI output must keep its committed SHA-256. The digests
    # hold for the Python and numpy the manifest was taken with; the script
    # changes directory, so it runs in its own process.
    manifest = json.loads(MANIFEST.read_text())
    here = {"python": platform.python_version(), "numpy": np.__version__}
    for tool, version in here.items():
        if manifest[tool] != version:
            pytest.skip(f"manifest taken with {tool} {manifest[tool]}, this run has {version}")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "out"), "--check", str(MANIFEST)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
