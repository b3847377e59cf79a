"""The kronrig command lines each benchmark workload runs, and how one runs.

A workload is a closed loop of cycles.  A cycle is
`kronrig decompose ... --out C` followed by `kronrig verify --cert C`
on the same factors.  The benchmark seed reaches kronrig only through
the random factor files the benchmark writes from it.  Each op is one
in-process `kronrig.cli.main` call with its stdout captured.
"""

import contextlib
import io
import os
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# OpenBLAS would otherwise start one thread per core for the float64
# rank and matmul kernels; one thread keeps runs comparable across
# machines and steady on a shared one.
BLAS_THREADS = 1

EPSILON = "0.5"


def _rank(rows, p):
    """Exact rank by Gaussian elimination over F_p, or over Q if p is None."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p) if p else 1 / rows[rank][col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
            if p:
                rows[i] = [a % p for a in rows[i]]
        rank += 1
    return rank


def random_factor(rng, field, d):
    """A random invertible d x d matrix with no zero entry.  Over F_p the
    entries are uniform on 1..p-1; over Q they are +-a/b with a in 1..4
    and b in 1..3.  No zeros means every seed gives the same sparsity
    structure, so certificate sizes do not depend on the seed.  The
    benchmark checks invertibility itself, so its inputs do not depend
    on the code under test."""
    p = int(field.split()[1]) if field.startswith("Fp ") else None
    while True:
        if p:
            rows = [[rng.randrange(1, p) for _ in range(d)] for _ in range(d)]
        else:
            rows = [[Fraction(rng.choice((-1, 1)) * rng.randrange(1, 5),
                              rng.randrange(1, 4)) for _ in range(d)]
                    for _ in range(d)]
        if _rank(rows, p) == d:
            return rows


def write_factor(path, field, rows):
    """Write a dense kronrig matrix file."""
    lines = [f"field: {field}", f"rows: {len(rows)}", f"cols: {len(rows)}",
             "format: dense"] + [" ".join(map(str, r)) for r in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class Workload:
    """One workload: a field and a factor list in command-line order,
    ("walsh", k) for the 2^k sign block as 2x2 Walsh factors and
    ("random", d) for a seeded random d x d factor file; a small instance
    of the same family for warm-ups; and the number of seeded instances
    a run cycles through."""

    def __init__(self, name, why, mode, field, factors, small_factors,
                 instances):
        self.name = name
        self.why = why
        self.mode = mode
        self.field = field
        self.factors = factors
        self.small_factors = small_factors
        self.n_instances = instances

    def instances(self, seed, workdir):
        """The cycles a run goes through in turn."""
        return [self.cycle(seed * self.n_instances + j, workdir)
                for j in range(self.n_instances)]

    def cycle(self, seed, workdir, small=False):
        """The (kind, argv) ops of one cycle, in order.  Writes the random
        factor files of `seed` into `workdir`."""
        rng = random.Random(seed)
        tag = f"{'small' if small else 'full'}-{seed}"
        flags = []
        for pos, (kind, size) in enumerate(
                self.small_factors if small else self.factors):
            if kind == "walsh":
                flags += ["--walsh", str(size)]
                continue
            path = os.path.join(workdir, f"{tag}-factor{pos}.txt")
            write_factor(path, self.field, random_factor(rng, self.field, size))
            flags += ["--factors", path]
        flags += ["--field", self.field]
        cert = os.path.join(workdir, "cert.txt")
        return [
            ("decompose", ["decompose", "--mode", self.mode, *flags,
                           "--epsilon", EPSILON, "--out", cert]),
            ("verify", ["verify", "--cert", cert, *flags]),
        ]


WORKLOADS = {
    w.name: w for w in [
        # F_p path: float64 BLAS rank of 1024^2 is ~60% of both ops and
        # certificate parsing ~1/3 of verify.  n=2048 costs 10 s per op.
        # Peak memory differs by a few percent between seeds, so a run
        # goes through 4 instances.
        Workload(
            "fp_walsh",
            "F_p path, n=1024, equal mode: decompose then verify of --walsh "
            "8 and two seeded random 2x2 factors over Fp 5, epsilon 0.5; "
            "exact rank and certificate parsing dominate",
            mode="equal", field="Fp 5",
            factors=[("walsh", 8), ("random", 2), ("random", 2)],
            small_factors=[("walsh", 2), ("random", 2), ("random", 2)],
            instances=4),
        # Rational path: Fraction cells, Bareiss rank, object matmul.  The
        # only workload that reaches bin_pack, bucket_pipeline,
        # compose_kron, conjugate_cert and subset_expand_combine.  A cycle
        # costs 0.86-1.29 s across 16 seeds (the sizes of the entries set
        # the Bareiss cost), so a run goes through 16 instances and its
        # median is the typical one.
        Workload(
            "q_family",
            "Q path, n=96, hadamard mode (mixed regime): decompose then "
            "verify of seeded random 3x3 and 4x4 factors and --walsh 3, "
            "epsilon 0.5; Bareiss rank and all certificate combiners",
            mode="hadamard", field="Q",
            factors=[("random", 3), ("random", 4), ("walsh", 3)],
            small_factors=[("random", 3), ("walsh", 3)],
            instances=16),
    ]
}


def pin_blas_threads():
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def load_cli():
    """Import kronrig.cli from this checkout's sources, never elsewhere."""
    if not (SRC / "kronrig" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no kronrig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from kronrig import cli
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: kronrig imported from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


# A fixed piece of work that does not touch kronrig: exact elimination of
# a 14x14 rational matrix and parsing of 2000 certificate-like triplets,
# the two kinds of work that dominate both workloads.  The host is a few
# cores of a shared machine whose speed drifts by tens of percent over
# minutes; timed just before and after every op, this work measures that
# drift, and end-to-end times are scaled by it (see run.py).
_REF_RNG = random.Random(0)
_REF_MATRIX = [[Fraction(_REF_RNG.choice((-1, 1)) * _REF_RNG.randrange(1, 5),
                         _REF_RNG.randrange(1, 4)) for _ in range(14)]
               for _ in range(14)]
_REF_TEXT = [f"{_REF_RNG.randrange(1024)} {_REF_RNG.randrange(1024)} "
             f"{_REF_RNG.choice((-1, 1)) * _REF_RNG.randrange(1, 50)}/"
             f"{_REF_RNG.randrange(1, 12)}" for _ in range(2000)]

# The median time of the reference work on the machine the bounds in
# BENCHMARK.json were set on (2-core x86-64 VM, Python 3.11).  Scaled
# times are seconds at that machine's typical speed.
REFERENCE_S = 0.0125


def reference_seconds():
    """Median wall time of three runs of the reference work."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _rank(_REF_MATRIX, None)
        for line in _REF_TEXT:
            i, j, v = line.split()
            int(i), int(j), Fraction(v)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_op(cli, argv):
    """(exit code, captured stdout, seconds) of one `kronrig` call."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), time.perf_counter() - start
