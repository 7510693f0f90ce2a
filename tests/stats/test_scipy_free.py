"""The package runs without scipy: no import path loads it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro


def test_entry_points_load_no_scipy_module():
    code = (
        "import json, sys\n"
        "import repro, repro.api, repro.cli, repro.service.server\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    env = dict(os.environ)
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout.strip().splitlines()[-1]) == []
