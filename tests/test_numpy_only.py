"""The package runs on the standard library and NumPy alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

_PROBE = """
import json, sys
before = set(sys.modules)
import multiscopic, multiscopic.cli
print(json.dumps(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def test_import_loads_only_stdlib_numpy_and_the_package():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                          env=env, check=True)
    loaded = set(json.loads(proc.stdout))
    assert {"numpy", "multiscopic"} <= loaded
    assert loaded - sys.stdlib_module_names - {"numpy", "multiscopic"} == set()
