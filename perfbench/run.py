"""kronrig benchmark: one client, closed loop, in-process CLI calls.

    python3 perfbench/run.py --workload fp_walsh --seed 1 --seconds 50 --trace 0

Run from the repository root.  Each op is one `kronrig.cli.main(argv)`
call; the next op starts only when the previous one has returned.  A
run is: set-up probes (untraced runs only), one untimed warm-up cycle
on a small instance, whole cycles over the workload's instances until
`--seconds` have passed, then the corrupted-certificate op.  With
`--trace 0` the last stdout line holds the end-to-end metrics, with op
and set-up times scaled to a reference host speed (see README.md); with
`--trace 1` it holds the per-layer metrics of a run that alternates
untraced and traced cycles, unscaled.  The line before it records the
environment.

Every op is checked: exit code 0, `ok: True` and rank_actual <=
rank_claimed for decompose and verify, and the same stdout (and
certificate bytes) as the first op with the same command line.  A copy
of the certificate with one `u:` entry changed must be refuted with
exit 2 and a first mismatch.  A missed check counts the op as failed.
"""

import argparse
import contextlib
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import tracing
from workloads import (BLAS_THREADS, HERE, REFERENCE_S, ROOT, WORK, WORKLOADS,
                       load_cli, pin_blas_threads, reference_seconds, run_op)

SETUP_PROBES = 5


class Checks:
    """Counts attempted and failed ops; remembers the first output of each
    distinct command line."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._first = {}

    def fail(self, what):
        self.failed += 1
        print(f"perfbench: check failed: {what}", file=sys.stderr)

    def op(self, argv, code, out, cert_bytes=None):
        """Check one op; return its report, or None if it failed."""
        self.attempted += 1
        kind = argv[0]
        report = _report(out)
        if code != 0:
            problem = f"exit code {code}"
        elif report is None:
            problem = "no json report line"
        elif not (report.get("ok") is True
                  and report["rank_actual"] <= report["rank_claimed"]):
            problem = "certificate not verified"
        elif self._first.setdefault(tuple(argv), (out, cert_bytes)) \
                != (out, cert_bytes):
            problem = "output differs from the first identical op"
        else:
            return report
        self.fail(f"{kind}: {problem}")
        return None

    def refuted(self, code, out):
        """Check that verifying a corrupted certificate is refuted."""
        self.attempted += 1
        report = _report(out)
        if code == 2 and report is not None and report.get("ok") is False \
                and report.get("first_mismatch") is not None:
            return
        self.fail(f"corrupted certificate not refuted (exit code {code})")


def _report(out):
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("json: "):
        return None
    return json.loads(lines[-1][len("json: "):])


def corrupt(text):
    """The certificate with its first `u:` entry changed to another value."""
    lines = text.split("\n")
    header = lines[1].split(": ", 1)[1]
    at = next(i for i, s in enumerate(lines) if s.startswith("u: ")) + 1
    i, j, val = lines[at].split()
    if header.startswith("Fp "):
        p = int(header.split()[1])
        new = (int(val) + 1) % p or (int(val) + 2) % p
    else:
        new = Fraction(val) + 1 or Fraction(val) + 2
    lines[at] = f"{i} {j} {new}"
    return "\n".join(lines)


def explicit_entries(text):
    """nnz(U) + nnz(V) + nnz(Z): the triplet counts of the three blocks."""
    return sum(int(s.split(": ", 1)[1]) for s in text.split("\n")
               if s[:3] in ("u: ", "v: ", "z: "))


class Runner:
    def __init__(self, cli, wl, seed, workdir):
        self.cli = cli
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.instances = wl.instances(seed, workdir)
        self.kinds = [kind for kind, _ in self.instances[0]]
        self.last_cycle = None
        self.peak_rss_mib = None  # after the first pass over the instances
        self.checks = Checks()
        self.report = None  # of the first timed decompose
        self.cert_sizes = []  # bytes written by each timed decompose
        self.cert_text = None
        self.scaled = False  # scale op times by the host's speed
        self.speed_factors = []  # of each scaled op and set-up probe
        self.wall = {kind: [] for kind in self.kinds + ["setup"]}

    def op(self, argv, tracer=None, refuted=False):
        """Run and check one op; return (report or None, seconds or None).
        With `refuted`, the op must be a refuted verification."""
        kind = argv[0]
        gc.collect()
        before = reference_seconds() if self.scaled else None
        if tracer is not None:
            tracer.begin_op(kind)
        seconds = None
        try:
            code, out, seconds = run_op(self.cli, argv)
        except Exception:  # a crashing op is a failed op; the run goes on
            traceback.print_exc()
            self.checks.attempted += 1
            self.checks.fail(f"{kind}: raised")
            return None, None
        finally:
            if tracer is not None:
                tracer.end_op(seconds)
        if before is not None:
            seconds = self.scale(kind, seconds, before, refuted)
        if refuted:
            self.checks.refuted(code, out)
            return None, seconds
        cert_bytes = None
        if kind == "decompose":
            with open(argv[argv.index("--out") + 1], "rb") as fh:
                cert_bytes = fh.read()
            self.cert_sizes.append(len(cert_bytes))
        return self.checks.op(argv, code, out, cert_bytes), seconds

    def scale(self, kind, seconds, before, refuted=False):
        """`seconds` at the reference machine's speed, from the reference
        work timed `before` the op and now, after it.  The factor is how
        much slower than the reference machine the host ran."""
        factor = (before + reference_seconds()) / (2 * REFERENCE_S)
        if not refuted:
            self.speed_factors.append(factor)
            self.wall[kind].append(seconds)
        return seconds / factor

    def setup_seconds(self):
        """Median time of fresh set-up processes, scaled like op times."""
        argv = [sys.executable, str(HERE / "setup_probe.py"),
                "--workload", self.wl.name, "--seed", str(self.seed),
                "--dir", self.workdir]
        times = []
        for _ in range(SETUP_PROBES):
            before = reference_seconds()
            start = time.perf_counter()
            try:
                code = subprocess.run(argv, stdout=subprocess.DEVNULL,
                                      timeout=30).returncode
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                code = "timeout"
            times.append(self.scale("setup", time.perf_counter() - start,
                                    before))
            self.checks.attempted += 1
            if code != 0:
                self.checks.fail(f"setup probe exited {code}")
        return statistics.median(times)

    def warm_up(self):
        """One untimed cycle on the workload's small instance, so imports
        and first-call work are done before timing."""
        for _, argv in self.wl.cycle(self.seed, self.workdir, small=True):
            self.op(argv)

    def cycles(self, seconds, tracer=None):
        """Whole cycles until `seconds` pass, going through the instances
        in turn.  With a tracer, each instance runs untraced, then traced.
        Returns per-kind op seconds, split into (untraced, traced)."""
        ops = {kind: ([], []) for kind in self.kinds}
        deadline = time.perf_counter() + seconds
        traced = False
        per_instance = 1 if tracer is None else 2
        for i in itertools.count():
            self.last_cycle = self.instances[
                i // per_instance % len(self.instances)]
            if traced:
                tracer.install()
            try:
                for kind, argv in self.last_cycle:
                    report, dt = self.op(argv, tracer if traced else None)
                    if kind == "decompose" and self.report is None:
                        self.report = report
                    if dt is not None:
                        ops[kind][traced].append(dt)
                if i < len(self.instances):
                    self.peak_rss_mib = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024
            finally:
                if traced:
                    tracer.uninstall()
            if tracer is not None:
                traced = not traced
            if time.perf_counter() >= deadline and not traced:
                break
        return ops

    def refute(self):
        """Verify a copy of the last certificate with one `u:` entry
        changed; it must be refuted."""
        ops = dict(self.last_cycle)
        cert = ops["decompose"][ops["decompose"].index("--out") + 1]
        with open(cert, encoding="utf-8") as fh:
            self.cert_text = fh.read()
        bad = os.path.join(self.workdir, "corrupted.txt")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write(corrupt(self.cert_text))
        self.op([bad if a == cert else a for a in ops["verify"]], refuted=True)

    def claims(self):
        """(order, claimed rank, claimed sparsity) of the decompose op."""
        r = self.report
        if r is None:
            return 1, 0, 0
        return r["order"], r["rank_claimed"], r["sparsity_claimed"]


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(runner, seconds):
    setup = runner.setup_seconds()
    runner.warm_up()
    runner.scaled = True
    ops = runner.cycles(seconds)
    runner.refute()
    n, rank, sparsity = runner.claims()
    return {
        "decompose_s": (median(ops["decompose"][0]), "s"),
        "verify_s": (median(ops["verify"][0]), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (runner.peak_rss_mib, "MiB"),
        "cert_mib": (median(runner.cert_sizes) / 2**20, "MiB"),
        "rank_fraction": (float(Fraction(rank, n)), "ratio"),
        "claim_fraction": (float(Fraction(rank + sparsity, n)), "ratio"),
    }


def host(runner):
    """The host's median speed factor and the unscaled medians."""
    out = {"speed_factor": median(runner.speed_factors),
           "samples": len(runner.speed_factors)}
    for kind, walls in runner.wall.items():
        out[f"wall_{kind}_s"] = median(walls)
    return out


def per_layer(runner, seconds):
    runner.warm_up()
    tracer = tracing.Tracer()
    ops = runner.cycles(seconds, tracer)
    runner.refute()
    metrics = {}
    rows = {kind: [] for kind in runner.kinds}
    for kind, spans, wall in tracer.ops:
        if wall is None:
            continue
        values, self_sum = tracing.op_metrics(kind, spans)
        rows[kind].append(values)
        if self_sum > wall:
            runner.checks.fail(f"{kind}: self times sum to {self_sum} s, "
                               f"more than the op's {wall} s")
    for name, unit in tracing.metric_units().items():
        kind_rows = rows[name.split(".", 1)[0]]
        metrics[name] = (median([r[name] for r in kind_rows]), unit)
    for kind, (plain, traced) in ops.items():
        metrics[f"{kind}.op_s"] = (median(plain), "s")
        metrics[f"{kind}.traced_op_s"] = (median(traced), "s")
        metrics[f"{kind}.trace_overhead_s"] = (median(traced) - median(plain),
                                               "s")
    metrics["verify.cert.explicit_entries"] = (
        explicit_entries(runner.cert_text), "count")
    for name, (value, _) in metrics.items():
        only = tracing.ONLY_ON.get(name)
        if value == 0 and (only is None or runner.wl.name in only) \
                and not name.endswith("trace_overhead_s"):
            runner.checks.fail(f"{name} is 0 on {runner.wl.name}")
    return metrics


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    pin_blas_threads()
    cli = load_cli()
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(cli, WORKLOADS[args.workload], args.seed, str(workdir))
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(metrics):
        runner.checks.fail(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(declared ^ set(metrics))}")
    if not args.trace:
        print("host: " + json.dumps(host(runner), sort_keys=True))
    print("env: " + json.dumps(environment(), sort_keys=True))
    checks = runner.checks
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
