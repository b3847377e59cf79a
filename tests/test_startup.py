"""Start-up cost: importing kronrig pulls in no heavy optional module.

The benchmark's set-up probe times a fresh interpreter that imports
kronrig and runs one small cycle; sympy (used only by the brute-force
oracle, imported there on first use) costs more than that whole cycle.
"""

import subprocess
import sys


def test_import_kronrig_does_not_import_sympy():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, kronrig, kronrig.cli; print('sympy' in sys.modules)"],
        capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"
