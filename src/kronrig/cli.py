"""Command-line front end; the only module that touches files or stdout.

Exit codes are fixed: 0 when the requested work succeeded (including a
verified certificate), 2 when a certificate failed verification, 1 for
usage problems, malformed files, or instances beyond the caps.

Generated factors (--walsh / --paley1 / --paley2 / --random) default to
the rationals; --field switches them to a prime field.  Randomness only
enters through --random and is driven by numpy's PCG64 generator with
the explicit --seed, so identical flags always reproduce identical
bytes.
"""

import argparse
import sys

import numpy as np

from .cert import verify_cert
from .field import field_from_header
from .fileio import (
    FileFormatError,
    read_cert,
    read_matrix,
    render_matrix,
    render_report,
    write_cert,
    write_matrix,
    write_report,
)
from .hadamard import paley_type_one, paley_type_two, walsh_factors
from .matrix import KroneckerSpec, SizeCapError, random_invertible
from .oracle import OracleCapError, brute_rc_rigidity, brute_rigidity
from .pipeline import decompose_kron_product, predict_parameters
from .scores import WeightScheme

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNVERIFIED = 2

DEFAULT_MAX_ORDER = 4096  # largest product we can still verify densely


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


class _FactorFlag(argparse.Action):
    """Collect every factor flag into one list, preserving CLI order."""

    def __call__(self, parser, ns, value, option_string=None):
        if getattr(ns, "factor_specs", None) is None:
            ns.factor_specs = []
        ns.factor_specs.append((self.dest, value))


def _add_factor_flags(p):
    p.add_argument("--factors", action=_FactorFlag, metavar="FILE[,FILE]",
                   help="comma-separated matrix files, in order")
    p.add_argument("--walsh", action=_FactorFlag, type=int,
                   metavar="K", help="2^K iterated sign block")
    p.add_argument("--paley1", action=_FactorFlag, type=int,
                   metavar="Q", help="order Q+1 sign matrix, Q = 3 mod 4")
    p.add_argument("--paley2", action=_FactorFlag, type=int,
                   metavar="Q", help="order 2(Q+1) sign matrix, Q = 1 mod 4")
    p.add_argument("--random", action=_FactorFlag, metavar="D[,COUNT]",
                   help="COUNT random invertible DxD factors (seeded)")
    p.add_argument("--field", default="Q", metavar="HDR",
                   help="field for generated factors: 'Q' or 'Fp <p>'")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for --random factors (PCG64)")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_ORDER,
                   dest="max_n", help="refuse products larger than this")


def _build_entries(args):
    """Factor list of lists: files and Paley matrices are opaque single
    factors, Walsh and random products keep their structure."""
    try:
        gen_field = field_from_header(args.field)
    except ValueError as e:
        raise FileFormatError(f"--field: {e}") from None
    entries = []
    rng = None
    for kind, value in getattr(args, "factor_specs", None) or []:
        if kind == "factors":
            for name in value.split(","):
                name = name.strip()
                if not name:
                    raise FileFormatError(
                        f"empty file name in --factors {value!r}")
                try:
                    entries.append([read_matrix(name)])
                except OSError as e:
                    raise FileFormatError(f"--factors {name}: {e}") from None
                except FileFormatError as e:
                    raise FileFormatError(f"--factors {name}: {e}") from None
        elif kind == "walsh":
            entries.append(walsh_factors(gen_field, value))
        elif kind == "paley1":
            entries.append([paley_type_one(gen_field, value)])
        elif kind == "paley2":
            entries.append([paley_type_two(gen_field, value)])
        else:  # random
            parts = value.split(",")
            try:
                d, count = map(int, parts if len(parts) > 1 else parts + ["1"])
            except ValueError:
                raise FileFormatError(
                    f"--random wants D or D,COUNT, got {value!r}") from None
            if d < 2 or count < 1:
                raise FileFormatError(
                    f"--random wants D >= 2 and COUNT >= 1, got {value!r}")
            if rng is None:
                try:
                    rng = np.random.default_rng(args.seed)
                except ValueError as e:
                    raise FileFormatError(f"--seed: {e}") from None
            entries.append([random_invertible(gen_field, d, rng)
                            for _ in range(count)])
    if not entries:
        raise FileFormatError(
            "no factors given; use --factors, --walsh, --paley1, --paley2 "
            "or --random")
    flat = [m for e in entries for m in e]
    field = flat[0].field
    for pos, m in enumerate(flat):
        if m.field != field:
            raise FileFormatError(
                f"factor {pos} is over {m.field.header} but factor 0 is "
                f"over {field.header}; pick one field")
    n = 1
    for m in flat:
        n *= m.rows
    if n > args.max_n:
        raise FileFormatError(
            f"product order {n} exceeds --max-n {args.max_n}")
    return entries, flat


def _load_weights(spec):
    if spec is None or spec == "uniform":
        return None
    table = {}
    try:
        with open(spec, encoding="utf-8") as fh:
            for no, raw in enumerate(fh, start=1):
                s = raw.strip()
                if not s or s.startswith("#"):
                    continue
                toks = s.split()
                if len(toks) != 2:
                    raise FileFormatError(
                        f"{spec}:{no}: expected 'order weight', got {s!r}")
                table[int(toks[0])] = int(toks[1])
    except OSError as e:
        raise FileFormatError(f"--weights {spec}: {e}") from None
    except ValueError:
        raise FileFormatError(f"--weights {spec}: orders and weights must "
                              f"be integers") from None
    return WeightScheme(table)


def _emit(report, path):
    text = render_report(report)
    sys.stdout.write(text)
    if path:
        write_report(path, report)


# ----------------------------------------------------------------------
# subcommands


def cmd_decompose(args):
    entries, flat = _build_entries(args)
    cert, rep = decompose_kron_product(entries, args.epsilon, mode=args.mode,
                                       weights=_load_weights(args.weights),
                                       delta=args.delta)
    ver = verify_cert(cert, KroneckerSpec(flat))
    report = {"command": "decompose", "seed": args.seed,
              "rng": "numpy-pcg64", **rep, **ver}
    if args.out:
        write_cert(args.out, cert)
    _emit(report, args.report)
    return EXIT_OK if ver["ok"] else EXIT_UNVERIFIED


def cmd_verify(args):
    cert = read_cert(args.cert)
    if args.target:
        target = read_matrix(args.target)
    else:
        _, flat = _build_entries(args)
        target = KroneckerSpec(flat)
    try:
        ver = verify_cert(cert, target)
    except ValueError as e:
        # shape or field mismatch is a usage problem, not a refutation
        raise FileFormatError(str(e)) from None
    report = {"command": "verify", "certificate": args.cert, **ver}
    _emit(report, args.report)
    return EXIT_OK if ver["ok"] else EXIT_UNVERIFIED


def cmd_predict(args):
    try:
        dims = [int(t) for t in args.dims.split(",") if t.strip()]
    except ValueError:
        raise FileFormatError(
            f"--dims wants a comma-separated integer list, got "
            f"{args.dims!r}") from None
    weights = _load_weights(args.weights)
    rep = predict_parameters(dims, args.epsilon, weights=weights)
    report = {"command": "predict", **rep}
    _emit(report, args.report)
    return EXIT_OK


def cmd_oracle(args):
    target = read_matrix(args.file)
    fn = brute_rc_rigidity if args.rc else brute_rigidity
    res = fn(target, args.rank)
    f = target.field
    ri, ci, vals = res.witness.triplets()
    report = {
        "command": "oracle",
        "file": args.file,
        "order": target.rows,
        "field": f.header,
        "rank": res.rank,
        "measure": res.measure,
        "value": res.value,
        "witness_nnz": res.witness.nnz,
        "witness": [f"{int(i)} {int(j)} {f.fmt(v)}"
                    for i, j, v in zip(ri, ci, vals)],
    }
    _emit(report, args.report)
    return EXIT_OK


def cmd_generate(args):
    _, flat = _build_entries(args)
    m = KroneckerSpec(flat).materialize() if len(flat) > 1 else flat[0]
    if args.out:
        write_matrix(args.out, m, args.format)
    else:
        sys.stdout.write(render_matrix(m, args.format))
    return EXIT_OK


# ----------------------------------------------------------------------
# wiring


def _decompose_args(p):
    _add_factor_flags(p)
    p.add_argument("--epsilon", required=True,
                   help="sparsity budget exponent in (0, 1]")
    p.add_argument("--mode", choices=("equal", "binpack", "hadamard"),
                   default="equal")
    p.add_argument("--delta", default="auto",
                   help="fixed threshold width instead of the search "
                        "(equal and binpack modes)")
    p.add_argument("--weights", default="uniform",
                   help="'uniform' or a file of 'order weight' lines")
    p.add_argument("--out", help="write the certificate here")
    p.add_argument("--report", help="also write the report here")
    p.set_defaults(func=cmd_decompose)


def _verify_args(p):
    p.add_argument("--cert", required=True)
    p.add_argument("--target", help="target matrix file; omit to build "
                                    "the target from factor flags")
    _add_factor_flags(p)
    p.add_argument("--report", help="also write the report here")
    p.set_defaults(func=cmd_verify)


def _predict_args(p):
    p.add_argument("--dims", required=True, metavar="D1,D2,...")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--weights", default="uniform")
    p.add_argument("--report", help="also write the report here")
    p.set_defaults(func=cmd_predict)


def _oracle_args(p):
    p.add_argument("--file", required=True)
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--rc", action="store_true",
                   help="per-row/column measure instead of total entries")
    p.add_argument("--report", help="also write the report here")
    p.set_defaults(func=cmd_oracle)


def _generate_args(p):
    _add_factor_flags(p)
    p.add_argument("--format", choices=("dense", "sparse"), default="dense")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_generate)


# (name, help, adds its arguments)
SUBCOMMANDS = (
    ("decompose", "build and verify a certificate", _decompose_args),
    ("verify", "check a certificate against a target", _verify_args),
    ("predict", "parameter window and predicted claims, no matrices needed",
     _predict_args),
    ("oracle", "exhaustive rigidity on a tiny matrix file", _oracle_args),
    ("generate", "write a factor product as a matrix file", _generate_args),
)


def build_parser(argv=None):
    """The parser, with every subcommand registered, so usage text and
    errors name them all.  Only the subcommand that argv's first token
    names gets its arguments (adding all of them took about 1.8 ms a
    call); without argv, or when that token names none, all do."""
    top = _Parser(prog="kronrig",
                  description="Exact low-rank-plus-sparse certificates "
                              "for Kronecker products.")
    sub = top.add_subparsers(dest="subcommand", required=True)
    first = argv[0] if argv else None
    if first not in [name for name, _, _ in SUBCOMMANDS]:
        first = None
    for name, text, add_args in SUBCOMMANDS:
        p = sub.add_parser(name, help=text)
        if first in (None, name):
            add_args(p)
    return top


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_OK
    try:
        return args.func(args)
    except (FileFormatError, OracleCapError, SizeCapError, ValueError,
            OSError) as e:
        sys.stderr.write(f"kronrig: error: {e}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
