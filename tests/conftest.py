"""Shared test set-up.

Some tests start ``python -m kronrig.cli`` as a child process in a
``tmp_path`` working directory.  The child inherits the test process's
environment, so a relative ``PYTHONPATH`` (such as ``PYTHONPATH=src``)
would resolve against ``tmp_path`` and the child could not import
kronrig.  The fixture below puts the absolute directory that holds the
imported ``kronrig`` package first on ``PYTHONPATH``, so every child runs
the same code as the test process.

`fp_walsh_cert` is the certificate of the fp_walsh benchmark workload's
full instance (n = 1024), built once for the tests that need its shape.
`reference_basis_rows` is a plain-Python elimination to check the rank
kernel against, and `elimination_dtype` reads the dtype the kernel
eliminates in.
"""

import contextlib
import importlib.util
import io
import os
from pathlib import Path

import numpy as np
import pytest

import kronrig
from kronrig import cli, matrix

KRONRIG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(kronrig.__file__)))
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(autouse=True)
def child_imports_kronrig_under_test(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", KRONRIG_ROOT, prepend=os.pathsep)


@pytest.fixture(scope="session")
def fp_walsh_cert(tmp_path_factory):
    """(certificate path, decompose argv, verify argv) of the fp_walsh
    workload's full instance of seed 1, decomposed by the CLI."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workdir = tmp_path_factory.mktemp("fp_walsh")
    (_, decompose), (_, verify) = workloads.WORKLOADS["fp_walsh"].cycle(1, str(workdir))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(decompose) == 0
    assert decompose[-2] == "--out"
    return decompose[-1], decompose, verify


def _reference_basis_rows(a, p):
    """The kernel's contract in plain Python: the pivot of each column is
    its first nonzero at or below the pivots found so far, brought up by a
    whole-row swap (the rule of oracle._rank_mod_tiny), and the row
    indices ride along.  A tall or square a gives the rows that end in the
    first rank places, sorted; a wide a is eliminated as its transpose and
    gives its pivot columns."""
    m, n = np.shape(a)
    rows = [[int(x) % p for x in r] for r in np.asarray(a).tolist()]
    if m < n:
        rows = [list(c) for c in zip(*rows)] if m else [[] for _ in range(n)]
    labels = list(range(len(rows)))
    pivots = []
    for c in range(min(m, n)):
        r = len(pivots)
        if r == len(rows):
            break
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i], labels[r], labels[i] = rows[i], rows[r], labels[i], labels[r]
        top = rows[r]
        inv = pow(top[c], p - 2, p)
        for j in range(r + 1, len(rows)):
            f = rows[j][c] * inv % p
            if f:
                rows[j][c:] = [(x - f * y) % p for x, y in zip(rows[j][c:], top[c:])]
        pivots.append(c)
    return sorted(labels[:len(pivots)]) if m >= n else pivots


@pytest.fixture(scope="session")
def reference_basis_rows():
    """_reference_basis_rows(a, p): what matrix._basis_rows_mod_p(a, p)
    must return."""
    return _reference_basis_rows


@pytest.fixture
def elimination_dtype(monkeypatch):
    """A function of a prime p: the dtype of the array _basis_rows_mod_p
    hands to the kernel modulo p, object for Python ints."""
    def dtype_of(p):
        seen = []
        real = matrix._echelon
        monkeypatch.setattr(matrix, "_echelon",
                            lambda t, q: seen.append(t.dtype) or real(t, q))
        matrix._basis_rows_mod_p(np.eye(2, dtype=np.int64), p)
        monkeypatch.setattr(matrix, "_echelon", real)
        return object if seen[0] == object else seen[0].type
    return dtype_of
