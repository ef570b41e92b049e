"""Smoke tests: the example scripts run to completion, and the torus demo
prints exactly its recorded walkthrough."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


TORUS_DEMO = """\
hypermap: alpha=(1 4 3 2)(5 7 8 6) sigma=(1 6 3 7)(2 8 4 5)
orbits: 2 vertices, 2 edges, 4 faces
surface: chi=0, genus=1

face code: n=6, k=2
H_X:
111111
111111
H_Z:
100001
111010
010111
001100
X_v1 = X1 X3 X4 X6 X7 X8
X_v2 = X1 X3 X4 X6 X7 X8
Z_f1 = Z1 Z8
Z_f2 = Z1 Z3 Z4 Z7
Z_f3 = Z3 Z6 Z7 Z8
Z_f4 = Z4 Z6

distance: d_X=2, d_Z=2, d=2
edge code of the triangle dual matches: True

surface reduction: 2/6/4 cells, chi=0
surface validation: PASS
"""


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)


# one line each script prints for the arguments below
KNOWN_LINES = {
    "survey_random_codes.py": "  [[28,22,1]] x2",
    "torus_code_demo.py": "face code: n=6, k=2",
}


@pytest.mark.parametrize("argv", [
    ["survey_random_codes.py", "--trials", "20", "--max-darts", "40"],
    ["torus_code_demo.py"],
])
def test_script_exits_0(argv):
    proc = _run(argv)
    assert proc.returncode == 0, proc.stderr
    assert KNOWN_LINES[argv[0]] in proc.stdout.splitlines()


def test_torus_demo_prints_its_walkthrough():
    proc = _run(["torus_code_demo.py"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, TORUS_DEMO, "")
