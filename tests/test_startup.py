"""Start-up cost: importing kronrig pulls in no heavy optional module.

The benchmark's set-up probe times a fresh interpreter that imports
kronrig and runs one small cycle; sympy (used only by the brute-force
oracle) and scipy.sparse (used only by large products with a sparse
operand) each cost more than that whole cycle, so both are imported on
first use, and numpy.ma is not imported at all.
"""

import subprocess
import sys


def test_import_kronrig_does_not_import_sympy():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, kronrig, kronrig.cli; print('sympy' in sys.modules)"],
        capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


SCIPY_PROBE = """
import contextlib, io, os, sys
import numpy as np
import kronrig, kronrig.cli
from kronrig.field import PrimeField
from kronrig.matrix import _SMALL_CELLS, ExactMatrix

def loaded():
    return 'scipy.sparse' in sys.modules

print('import', loaded())
cert = os.path.join(sys.argv[1], 'c.txt')
flags = ['--walsh', '2', '--random', '2', '--field', 'Fp 5']
qfile = os.path.join(sys.argv[1], 'q.txt')
with open(qfile, 'w') as fh:
    for line in ('field: Q', 'rows: 3', 'cols: 3', 'format: dense',
                 '1/2 1 -3', '1 -1/3 2/3', '4 3/2 -1'):
        print(line, file=fh)
qflags = ['--factors', qfile, '--walsh', '3', '--field', 'Q']
with contextlib.redirect_stdout(io.StringIO()):
    codes = [kronrig.cli.main(['decompose', *flags, '--epsilon', '0.5',
                               '--out', cert]),
             kronrig.cli.main(['verify', '--cert', cert, *flags]),
             kronrig.cli.main(['predict', '--dims', '8,8,8',
                               '--epsilon', '0.5']),
             kronrig.cli.main(['decompose', '--mode', 'hadamard', *qflags,
                               '--epsilon', '0.5', '--out', cert]),
             kronrig.cli.main(['verify', '--cert', cert, *qflags])]
print('cli', codes, loaded(), 'numpy.ma' in sys.modules)

f = PrimeField(5)
rng = np.random.default_rng(7)
n = 128
def sparse():
    cells = rng.choice(n * n, size=n * n // 50, replace=False)
    return ExactMatrix.from_coo(f, n, n, cells // n, cells % n,
                                rng.integers(1, 5, size=len(cells)))
a, b = sparse(), sparse()
stored_dense = a.is_dense or b.is_dense
c = a @ b
after = loaded()
ref = (np.array(a.to_dense(), dtype=np.int64)
       @ np.array(b.to_dense(), dtype=np.int64)) % 5
print('product', n * n > _SMALL_CELLS, stored_dense,
      (np.array(c.to_dense(), dtype=np.int64) == ref).all(), after)
"""


def test_scipy_sparse_is_imported_only_by_a_large_sparse_product(tmp_path):
    """A fresh interpreter that imports kronrig and runs a small F_p
    decompose, verify and predict and a small Q decompose and verify
    loads neither scipy.sparse nor numpy.ma (which np.unique imports on
    its first call); the first int64 sparse x sparse product above
    _SMALL_CELLS loads scipy.sparse and equals its dense reference."""
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.splitlines() == [
        "import False",
        "cli [0, 0, 0, 0, 0] False False",
        "product True False True True",
    ]
