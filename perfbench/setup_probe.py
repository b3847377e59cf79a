"""One set-up sample: a fresh interpreter imports kronrig from the
checkout and runs one cycle of the workload on its small instance, so
first-call work is paid here.  The caller times the whole process.

    python3 perfbench/setup_probe.py --workload fp_walsh --seed 1 --dir DIR
"""

import argparse
import sys

from workloads import WORKLOADS, load_cli, pin_blas_threads, run_op


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, help="scratch directory")
    args = ap.parse_args()
    pin_blas_threads()
    cli = load_cli()
    wl = WORKLOADS[args.workload]
    for kind, argv in wl.cycle(args.seed, args.dir, small=True):
        code, _, _ = run_op(cli, argv)
        if code != 0:
            sys.exit(f"setup probe: {kind} exited {code}")


if __name__ == "__main__":
    main()
