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
"""

import contextlib
import importlib.util
import io
import os
from pathlib import Path

import pytest

import kronrig
from kronrig import cli

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
