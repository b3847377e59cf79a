"""Start-up cost: importing kronrig pulls in no heavy optional module.

The benchmark's set-up probe times a fresh interpreter that imports
kronrig and runs one small cycle; sympy (used only by the brute-force
oracle) and scipy.sparse (used only by products with a sparse operand
past the numpy paths' limits) each cost more than that whole cycle, so
both are imported on first use, and numpy.ma is not imported at all.
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
from kronrig.matrix import _EXPAND_MADDS, _SMALL_CELLS, ExactMatrix, _madds

def loaded():
    return 'scipy.sparse' in sys.modules

def write(name, rows):
    path = os.path.join(sys.argv[1], name)
    with open(path, 'w') as fh:
        for line in ('field: Q', f'rows: {len(rows)}', f'cols: {len(rows)}',
                     'format: dense', *rows):
            print(line, file=fh)
    return path

print('import', loaded())
cert = os.path.join(sys.argv[1], 'c.txt')
flags = ['--walsh', '2', '--random', '2', '--field', 'Fp 5']
q3 = write('q3.txt', ['1/2 1 -3', '1 -1/3 2/3', '4 3/2 -1'])
q4 = write('q4.txt', ['1 -2/3 3/2 4', '-1/2 2 1 -4/3', '3 1/3 -2 1/2',
                      '2 -1 1/3 -3/2'])
qflags = ['--factors', q3, '--walsh', '3', '--field', 'Q']
# the q_family benchmark's shape: n = 3 * 4 * 8 = 96, hadamard mode
family = ['--factors', q3, '--factors', q4, '--walsh', '3', '--field', 'Q']
with contextlib.redirect_stdout(io.StringIO()):
    codes = [kronrig.cli.main(['decompose', *flags, '--epsilon', '0.5',
                               '--out', cert]),
             kronrig.cli.main(['verify', '--cert', cert, *flags]),
             kronrig.cli.main(['predict', '--dims', '8,8,8',
                               '--epsilon', '0.5']),
             kronrig.cli.main(['decompose', '--mode', 'hadamard', *qflags,
                               '--epsilon', '0.5', '--out', cert]),
             kronrig.cli.main(['verify', '--cert', cert, *qflags]),
             kronrig.cli.main(['decompose', '--mode', 'hadamard', *family,
                               '--epsilon', '0.5', '--out', cert]),
             kronrig.cli.main(['verify', '--cert', cert, *family])]
print('cli', codes, loaded(), 'numpy.ma' in sys.modules)

f = PrimeField(5)
rng = np.random.default_rng(7)
n = 256
assert _EXPAND_MADDS % n == 0 and n * n > _SMALL_CELLS

def pair(madds):
    # every row of a in its first madds // n columns, and one entry in
    # each of those rows of b: madds multiply-adds; one more of each
    # adds one
    k, extra = divmod(madds, n)
    ri = np.concatenate([np.repeat(np.arange(n), k), np.zeros(extra, int)])
    ci = np.concatenate([np.tile(np.arange(k), n), np.full(extra, k)])
    a = ExactMatrix.from_coo(f, n, n, ri, ci, rng.integers(1, 5, len(ri)))
    rows = np.arange(k + extra)
    b = ExactMatrix.from_coo(f, n, n, rows, rng.integers(0, n, len(rows)),
                             rng.integers(1, 5, len(rows)))
    assert not a.is_dense and not b.is_dense and _madds(a, b) == madds
    return a, b

def equals_reference(a, b, c):
    ref = (np.array(a.to_dense(), dtype=np.int64)
           @ np.array(b.to_dense(), dtype=np.int64)) % 5
    return bool((np.array(c.to_dense(), dtype=np.int64) == ref).all())

at, past = pair(_EXPAND_MADDS), pair(_EXPAND_MADDS + 1)
c = at[0] @ at[1]
after_at = loaded()
d = past[0] @ past[1]
print('product', equals_reference(*at, c), after_at,
      equals_reference(*past, d), loaded())
"""


def test_scipy_sparse_is_imported_only_by_a_large_sparse_product(tmp_path):
    """A fresh interpreter that imports kronrig and runs a small F_p
    decompose, verify and predict, a small Q decompose and verify, and a
    Q decompose and verify of the q_family benchmark's shape (n=96,
    hadamard mode) loads neither scipy.sparse nor numpy.ma (which
    np.unique imports on its first call).  A sparse x sparse product of
    _EXPAND_MADDS multiply-adds runs in numpy; the first with one more
    loads scipy.sparse; both equal their dense references."""
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.splitlines() == [
        "import False",
        "cli [0, 0, 0, 0, 0, 0, 0] False False",
        "product True False True True",
    ]
