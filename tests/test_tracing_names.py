"""Every name that perfbench/tracing.py wraps still exists in kronrig, and
each benchmark workload's small cycle reaches every traced layer.

`Tracer.install` looks each one up with getattr, and `run.py --trace 1`
fails a run whose span metric reads zero, so a renamed or deleted
function, or a layer a change stops calling, would otherwise only
surface when the benchmark runs with `--trace 1`.
"""

import importlib
import importlib.util
import time
from pathlib import Path

import pytest

from kronrig import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
WORKLOADS = TRACING.parent / "workloads.py"


def _load(path, name):
    """A perfbench module, loaded by file path without importing perfbench."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_methods_resolve():
    tracing = _load(TRACING, "perfbench_tracing")
    assert tracing.FUNCTIONS and tracing.METHODS
    for modname, name, *_ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), name, None)), \
            f"{modname}.{name}"
    for modname, cls, method, *_ in tracing.METHODS:
        owner = getattr(importlib.import_module(modname), cls)
        assert callable(getattr(owner, method, None)), f"{modname}.{cls}.{method}"


@pytest.mark.parametrize("workload", ["fp_walsh", "q_family"])
def test_small_cycle_reaches_every_traced_layer(workload, tmp_path, capsys):
    """The rule `run.py --trace 1` enforces, on each workload's small cycle:
    every span metric is non-zero unless `ONLY_ON` exempts the workload."""
    tracing = _load(TRACING, "perfbench_tracing")
    wl = _load(WORKLOADS, "perfbench_workloads").WORKLOADS[workload]
    tracer = tracing.Tracer()
    values = {}
    for kind, argv in wl.cycle(1, str(tmp_path), small=True):
        tracer.install()
        try:
            tracer.begin_op(kind)
            start = time.perf_counter()
            code = cli.main(argv)
            tracer.end_op(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        assert code == 0, capsys.readouterr()
        spans = tracer.ops[-1][1]
        op_values, self_sum = tracing.op_metrics(kind, spans)
        assert self_sum <= tracer.ops[-1][2]
        values.update(op_values)
    assert set(values) == set(tracing.metric_units())
    zero = sorted(name for name, value in values.items() if value == 0
                  and workload in tracing.ONLY_ON.get(name, {workload}))
    assert not zero, zero


def test_full_size_cycle_keeps_the_traced_check(fp_walsh_cert, tmp_path, capsys):
    """At the fp_walsh workload's order (n = 1024), the check both ops end
    in forms U @ V as one n x n product and the target by one
    `materialize()`, so `cert.uv_products` reads 1 and
    `matrix.materialize_*` are not zero, as `run.py --trace 1` needs."""
    tracing = _load(TRACING, "perfbench_tracing")
    cert, decompose, verify = fp_walsh_cert
    decompose = decompose[:-1] + [str(tmp_path / "c.txt")]
    tracer = tracing.Tracer()
    for kind, argv in (("decompose", decompose), ("verify", verify)):
        tracer.install()
        try:
            tracer.begin_op(kind)
            code = cli.main(argv)
            tracer.end_op(0.0)
        finally:
            tracer.uninstall()
        assert code == 0, capsys.readouterr()
        spans = tracer.ops[-1][1]
        values, _ = tracing.op_metrics(kind, spans)
        assert values[f"{kind}.cert.uv_products"] == 1
        assert values[f"{kind}.matrix.materialize_cells"] >= 1024 * 1024
        check = next(s for s in spans if s.name == "cert.verify")
        inside = [(s.name, s.info) for s in spans if _within(s, check)]
        assert inside.count(("matrix.matmul", (1024, 1024))) == 1
        assert [i for name, i in inside if name == "matrix.materialize"] \
            == [1024 * 1024]
    assert (tmp_path / "c.txt").read_bytes() == Path(cert).read_bytes()


def _within(span, ancestor):
    while span is not None and span is not ancestor:
        span = span.parent
    return span is ancestor
